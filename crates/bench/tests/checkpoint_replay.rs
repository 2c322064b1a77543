//! Cross-stack determinism oracle for checkpoint/fork replay.
//!
//! For every shipped protocol stack — flooded classical ABD, the
//! retrying availability stack, the generalized (clock-push) register,
//! sampled-arc ABD at scale, and flooded consensus with its view
//! synchronizer — `checkpoint(); run(); restore(); run()` must be
//! **byte-identical** to the uninterrupted run: same final clock, same
//! `NetStats`, same op history (responses and completion times, hence
//! decided values), same RNG stream position, and same per-node protocol
//! state down to `Debug` formatting. Snapshot instants are taken at
//! several cut points per stack, including time zero and cuts past
//! quiescence.

use std::fmt::Debug;
use std::fmt::Write as _;

use gqs_consensus::{majority_consensus_nodes, ProposalMode};
use gqs_core::quorum::majority_system;
use gqs_core::{Channel, ProcessId};
use gqs_registers::{
    abd_register_nodes, gqs_register_nodes, reliable_abd_register_nodes, sampled_abd_nodes, RegOp,
    ScaleOp,
};
use gqs_simnet::{DelayModel, FailureSchedule, Flood, Protocol, SimConfig, SimTime, Simulation};

/// Everything observable about a finished run, as one comparison string:
/// clock, network statistics, RNG position, the full op history
/// (responses carry decided values and versions), and each node's state.
fn fingerprint<P>(sim: &Simulation<P>, n: usize) -> String
where
    P: Protocol + Debug,
    P::Resp: Debug,
{
    let mut s =
        format!("{:?}|{:?}|{:?}|{:?}", sim.now(), sim.stats(), sim.rng(), sim.history().ops());
    for p in 0..n {
        write!(s, "|{:?}", sim.node(ProcessId(p))).expect("writing to a String cannot fail");
    }
    s
}

/// The oracle itself: the straight-line run is the reference; for each
/// cut, a fresh run is snapshotted mid-flight, run to completion,
/// rewound, and run again — all three continuations must agree exactly.
fn assert_replay_identical<P, F>(n: usize, cuts: &[u64], build: F)
where
    P: Protocol + Debug,
    P::Resp: Debug,
    F: Fn() -> Simulation<P>,
{
    let mut straight = build();
    straight.run();
    let expected = fingerprint(&straight, n);
    for &cut in cuts {
        let mut sim = build();
        sim.run_until(SimTime(cut));
        let cp = sim.checkpoint();
        sim.run();
        assert_eq!(fingerprint(&sim, n), expected, "cut {cut}: run after checkpoint diverged");
        sim.restore(&cp);
        sim.run();
        assert_eq!(fingerprint(&sim, n), expected, "cut {cut}: restored replay diverged");
    }
}

/// A fault timeline that exercises every liveness mechanism: a flapping
/// channel, plus a crash/recover cycle of one replica.
fn faults() -> FailureSchedule {
    let mut sched = FailureSchedule::none();
    let ch = Channel::new(ProcessId(0), ProcessId(1));
    sched.disconnect(ch, SimTime(60)).heal(ch, SimTime(400));
    sched.crash(ProcessId(2), SimTime(150)).recover(ProcessId(2), SimTime(700));
    sched
}

/// Six alternating write/read invocations spread across the processes.
fn invoke_register_ops<P>(sim: &mut Simulation<P>, n: usize)
where
    P: Protocol<Op = RegOp<u8, u64>>,
{
    for i in 0..6u64 {
        let p = ProcessId((i as usize) % n);
        let at = SimTime(10 + i * 120);
        if i % 2 == 0 {
            sim.invoke_at(at, p, RegOp::Write { reg: 0, value: i });
        } else {
            sim.invoke_at(at, p, RegOp::Read { reg: 0 });
        }
    }
}

const CUTS: &[u64] = &[0, 75, 300, 650, 5_000];

/// Flooded classical ABD (the latency-mode stack) under loss + faults.
#[test]
fn flooded_abd_replays_byte_identically() {
    let n = 4;
    assert_replay_identical(n, CUTS, || {
        let qs = majority_system(n).expect("majority system exists");
        let nodes: Vec<Flood<_>> =
            abd_register_nodes::<u8, u64>(n, qs.reads().clone(), qs.writes().clone(), 0)
                .into_iter()
                .map(Flood::new)
                .collect();
        let cfg =
            SimConfig { seed: 0xABD1, loss: 0.1, horizon: SimTime(20_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&faults());
        invoke_register_ops(&mut sim, n);
        sim
    });
}

/// The availability stack: flooded ABD whose QAF retransmits
/// (`with_retry`), healing losses and outages without client retries.
#[test]
fn retrying_abd_replays_byte_identically() {
    let n = 4;
    assert_replay_identical(n, CUTS, || {
        let qs = majority_system(n).expect("majority system exists");
        let nodes: Vec<Flood<_>> = reliable_abd_register_nodes::<u8, u64>(
            n,
            qs.reads().clone(),
            qs.writes().clone(),
            0,
            150,
        )
        .into_iter()
        .map(Flood::new)
        .collect();
        let cfg =
            SimConfig { seed: 0xAA11, loss: 0.2, horizon: SimTime(20_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&faults());
        invoke_register_ops(&mut sim, n);
        sim
    });
}

/// The generalized (Figure 3) register over the paper's Figure 1 GQS:
/// logical clocks and the periodic push driven by `TICK_TIMER` —
/// timer-heavy state across the snapshot.
#[test]
fn generalized_register_replays_byte_identically() {
    let fig = gqs_core::systems::figure1();
    let n = fig.gqs.graph().len();
    assert_replay_identical(n, CUTS, || {
        let nodes = gqs_register_nodes::<u8, u64>(&fig.gqs, 0, 25);
        let cfg = SimConfig {
            seed: 0x6E6E,
            loss: 0.05,
            horizon: SimTime(20_000),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&faults());
        invoke_register_ops(&mut sim, n);
        sim
    });
}

/// The scale stack: sampled-arc ABD, whose per-node RNG state (arc
/// sampling position) must survive the snapshot exactly.
#[test]
fn sampled_abd_replays_byte_identically() {
    let n = 8;
    assert_replay_identical(n, CUTS, || {
        let nodes = sampled_abd_nodes::<u64>(n, 0, 0x5CA1E);
        let cfg = SimConfig { seed: 0x5A5A, horizon: SimTime(20_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&faults());
        for i in 0..6u64 {
            let p = ProcessId((i as usize) % n);
            let at = SimTime(10 + i * 120);
            if i % 2 == 0 {
                sim.invoke_at(at, p, ScaleOp::Write(i));
            } else {
                sim.invoke_at(at, p, ScaleOp::Read);
            }
        }
        sim
    });
}

/// Flooded consensus under partial synchrony: the view synchronizer's
/// timers, buffered `1B`/`2A`/`2B` messages and the decided value all
/// ride through the snapshot. Cuts straddle GST on purpose.
#[test]
fn flooded_consensus_replays_byte_identically() {
    let n = 4;
    assert_replay_identical(n, &[0, 100, 600, 2_000, 15_000], || {
        let nodes = majority_consensus_nodes::<u64>(n, 20, ProposalMode::Push);
        let delay = DelayModel::PartialSynchrony { pre_min: 1, pre_max: 100, gst: 500, delta: 5 };
        let cfg =
            SimConfig { seed: 0xC0DE, delay, horizon: SimTime(30_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(3), SimTime(50));
        sim.apply_failures(&sched);
        for p in 0..n {
            sim.invoke_at(SimTime(10 + p as u64), ProcessId(p), p as u64 + 1);
        }
        sim
    });
}

/// Branching: restoring the same checkpoint under different reseeds
/// diverges, while equal reseeds reproduce the same continuation — the
/// invariant the fork-mode sweep relies on (fork = straight line).
#[test]
fn reseeded_branches_agree_with_fresh_runs() {
    let n = 4;
    let qs = majority_system(n).expect("majority system exists");
    let build = || {
        let nodes: Vec<Flood<_>> =
            abd_register_nodes::<u8, u64>(n, qs.reads().clone(), qs.writes().clone(), 0)
                .into_iter()
                .map(Flood::new)
                .collect();
        let cfg =
            SimConfig { seed: 0xB1B1, loss: 0.1, horizon: SimTime(20_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&faults());
        invoke_register_ops(&mut sim, n);
        sim
    };
    let branch_at = 200;
    let seeds = [11u64, 22, 33];
    // Fork mode: one warmup, three reseeded continuations.
    let mut sim = build();
    sim.run_until(SimTime(branch_at));
    let cp = sim.checkpoint();
    let forked: Vec<String> = seeds
        .iter()
        .map(|&s| {
            sim.restore(&cp);
            sim.reseed(s);
            sim.run();
            fingerprint(&sim, n)
        })
        .collect();
    // Straight-line mode: re-run the warmup from scratch per branch.
    let straight: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let mut sim = build();
            sim.run_until(SimTime(branch_at));
            sim.reseed(s);
            sim.run();
            fingerprint(&sim, n)
        })
        .collect();
    assert_eq!(forked, straight, "fork and straight-line branches must agree byte for byte");
    assert_ne!(forked[0], forked[1], "distinct branch seeds must diverge (holds for these seeds)");
}
