//! Seeded property test of the retrying register stack: majority ABD with
//! [`reliable_abd_register_nodes`] over flapping, lossy channels, with a
//! replica crashing and recovering mid-run. Every operation completes,
//! the retransmissions drain once nothing is pending, and the history is
//! linearizable.
//!
//! Cases are driven by a seeded [`SplitMix64`] (the build has no network
//! access, so `proptest` is unavailable); every run replays the same cases.

use gqs_checker::spec::{entries_from_history, Entry, RegisterOp, RegisterResp, RegisterSpec};
use gqs_checker::wg::check_linearizable;
use gqs_core::{majority_system, Channel, ProcessId};
use gqs_registers::{reliable_abd_register_nodes, RegOp, RegResp};
use gqs_simnet::{FailureSchedule, SimConfig, SimTime, Simulation, SplitMix64, StopReason};

const CASES: u64 = 64;

/// Period of the engine's request retransmission.
const RETRY: u64 = 60;

/// Over flapping channels into p2, p2 crashing and recovering, and 5–40%
/// loss, reads and writes at p0/p1 all complete through the engine's own
/// retransmission; the run then drains to quiescence and its history is
/// linearizable.
#[test]
fn retrying_abd_completes_linearizably_over_flapping_lossy_channels() {
    let mut retransmitting_cases = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(60_000 + case);
        let seed = rng.range(0, u64::MAX - 1);
        let loss = 0.05 + rng.f64() * 0.35;
        let cfg = SimConfig { seed, loss, ..SimConfig::default() };
        let qs = majority_system(3).expect("majority system exists");
        let nodes = reliable_abd_register_nodes::<u8, u64>(
            3,
            qs.reads().clone(),
            qs.writes().clone(),
            0,
            RETRY,
        );
        let mut sim = Simulation::new(cfg, nodes);
        let mut sched = FailureSchedule::none();
        // Flap both forward channels into p2...
        for s in 0..2 {
            let ch = Channel::new(ProcessId(s), ProcessId(2));
            let mut t = 50 + rng.range(0, 100);
            for _ in 0..3 {
                let down = 50 + rng.range(0, 200);
                sched.disconnect(ch, SimTime(t));
                sched.heal(ch, SimTime(t + down));
                t += down + 50 + rng.range(0, 200);
            }
        }
        // ...and crash/recover p2 mid-run.
        let crash_at = 100 + rng.range(0, 400);
        sched.crash(ProcessId(2), SimTime(crash_at));
        sched.recover(ProcessId(2), SimTime(crash_at + 100 + rng.range(0, 300)));
        sim.apply_failures(&sched);
        let per_client = 5 + rng.range(0, 5);
        for s in 0..2u64 {
            for k in 0..per_client {
                let at = SimTime(10 + k * 60 + s);
                let op = if k % 2 == 0 {
                    RegOp::Write { reg: 0u8, value: 100 * s + k + 1 }
                } else {
                    RegOp::Read { reg: 0u8 }
                };
                sim.invoke_at(at, ProcessId(s as usize), op);
            }
        }
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete, "case {case}");
        assert_eq!(sim.run(), StopReason::Quiescent, "case {case}: retransmission must drain");
        let entries: Vec<_> = entries_from_history(sim.history())
            .into_iter()
            .map(|e| Entry {
                process: e.process,
                invoked_at: e.invoked_at,
                completed_at: e.completed_at,
                op: match e.op {
                    RegOp::Write { value, .. } => RegisterOp::Write(value),
                    RegOp::Read { .. } => RegisterOp::Read,
                },
                resp: e.resp.map(|r| match r {
                    RegResp::Ack { .. } => RegisterResp::Ack,
                    RegResp::Value { value, .. } => RegisterResp::Value(value),
                }),
            })
            .collect();
        assert!(
            check_linearizable(&RegisterSpec::new(0u64), &entries).is_ok(),
            "case {case}: history not linearizable: {entries:?}"
        );
        if sim.stats().retransmitted > 0 {
            retransmitting_cases += 1;
        }
    }
    assert!(
        retransmitting_cases > CASES / 2,
        "only {retransmitting_cases}/{CASES} cases retransmitted"
    );
}
