//! End-to-end lattice agreement over Figure 1: Comparability, Downward and
//! Upward validity under failures, wait-freedom within `U_f`, and the ≤ n
//! round bound of the fix-point construction.

use gqs_checker::{check_lattice_agreement, wait_freedom_report, LatticeOutcome};
use gqs_core::systems::figure1;
use gqs_core::ProcessId;
use gqs_lattice::{gqs_lattice_nodes, JoinSemilattice, Learned, Propose, SetLattice};
use gqs_simnet::{FailureSchedule, SimConfig, SimTime, Simulation, StopReason};

type L = SetLattice<u64>;

fn outcomes(
    sim: &Simulation<gqs_simnet::Flood<gqs_lattice::LatticeNode<L>>>,
) -> Vec<LatticeOutcome<L>> {
    sim.history()
        .ops()
        .iter()
        .map(|r| LatticeOutcome {
            process: r.process,
            input: r.op.0.clone(),
            output: r.resp().map(|Learned(y)| y.clone()),
        })
        .collect()
}

fn assert_safety(outs: &[LatticeOutcome<L>]) {
    check_lattice_agreement(outs, |a: &L, b: &L| a.leq(b), |a: &L, b: &L| a.join(b))
        .expect("lattice agreement safety violated");
}

#[test]
fn two_proposers_under_f1_agree_comparably() {
    let fig = figure1();
    for seed in [1u64, 2, 3] {
        let nodes = gqs_lattice_nodes::<L>(&fig.gqs, 20);
        let cfg = SimConfig { seed, horizon: SimTime(600_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&FailureSchedule::from_pattern_at(
            fig.fail_prone.pattern(0),
            SimTime(0),
        ));
        // a and b (= U_f1) propose incomparable singletons concurrently:
        // the protocol must resolve them into comparable outputs.
        sim.invoke_at(SimTime(10), ProcessId(0), Propose(SetLattice::singleton(1)));
        sim.invoke_at(SimTime(12), ProcessId(1), Propose(SetLattice::singleton(2)));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete, "seed {seed} stalled");
        let outs = outcomes(&sim);
        assert_safety(&outs);
        assert!(wait_freedom_report(sim.history(), fig.gqs.u_f(0)).is_wait_free());
        // Round bound: each proposal uses at most n rounds.
        for p in [0usize, 1] {
            assert!(sim.node(ProcessId(p)).inner().rounds() <= 4, "round bound exceeded at {p}");
        }
    }
}

#[test]
fn sequential_proposals_grow_monotonically() {
    let fig = figure1();
    let nodes = gqs_lattice_nodes::<L>(&fig.gqs, 20);
    let cfg = SimConfig { seed: 7, horizon: SimTime(600_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(1), SimTime(0)));
    // Under f2, U_f2 = {b, c}.
    sim.invoke_at(SimTime(10), ProcessId(1), Propose(SetLattice::singleton(5)));
    sim.invoke_at(SimTime(150_000), ProcessId(2), Propose(SetLattice::singleton(6)));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let outs = outcomes(&sim);
    assert_safety(&outs);
    // The second proposal follows the first in real time, so its output
    // must dominate the first's (comparability + downward validity force
    // the order).
    let y1 = outs[0].output.clone().unwrap();
    let y2 = outs[1].output.clone().unwrap();
    assert!(y1.leq(&y2));
    assert!(y2.0.contains(&5) && y2.0.contains(&6));
}

#[test]
fn isolated_proposer_hangs_but_safety_holds() {
    let fig = figure1();
    let nodes = gqs_lattice_nodes::<L>(&fig.gqs, 20);
    let cfg = SimConfig { seed: 9, horizon: SimTime(200_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0)));
    sim.invoke_at(SimTime(10), ProcessId(0), Propose(SetLattice::singleton(1)));
    sim.invoke_at(SimTime(10), ProcessId(2), Propose(SetLattice::singleton(9))); // c isolated
    sim.run();
    let outs = outcomes(&sim);
    assert!(outs[0].output.is_some(), "a must terminate");
    assert!(outs[1].output.is_none(), "c must hang");
    assert_safety(&outs);
}

#[test]
fn failure_free_four_way_contention() {
    let fig = figure1();
    let nodes = gqs_lattice_nodes::<L>(&fig.gqs, 20);
    let cfg = SimConfig { seed: 13, horizon: SimTime(1_200_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    for p in 0..4usize {
        sim.invoke_at(
            SimTime(10 + p as u64),
            ProcessId(p),
            Propose(SetLattice::singleton(p as u64)),
        );
    }
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let outs = outcomes(&sim);
    assert_safety(&outs);
    // All outputs form a chain; the largest includes every input it saw.
    let mut ys: Vec<L> = outs.iter().map(|o| o.output.clone().unwrap()).collect();
    ys.sort_by_key(|a| a.0.len());
    for w in ys.windows(2) {
        assert!(w[0].leq(&w[1]), "outputs must form a chain");
    }
}

/// A crash and recovery of `a` before either proposal: the recovered
/// process must re-arm the embedded engine's timers, or both proposals
/// starve.
#[test]
fn proposals_complete_after_a_crash_and_recovery() {
    let fig = figure1();
    let nodes = gqs_lattice_nodes::<L>(&fig.gqs, 20);
    let cfg = SimConfig { seed: 1, horizon: SimTime(300_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    let mut sched = FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0));
    sched.crash(ProcessId(0), SimTime(5)).recover(ProcessId(0), SimTime(50));
    sim.apply_failures(&sched);
    sim.invoke_at(SimTime(1_000), ProcessId(0), Propose(SetLattice::singleton(1)));
    sim.invoke_at(SimTime(1_002), ProcessId(1), Propose(SetLattice::singleton(2)));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    assert_safety(&outcomes(&sim));
}
