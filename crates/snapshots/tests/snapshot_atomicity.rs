//! End-to-end tests: the Afek et al. snapshot over Figure 1's generalized
//! quorum system is linearizable and `(F, τ)`-wait-free (Theorem 1 for
//! SWMR atomic snapshots).

use gqs_checker::spec::{Entry, SnapshotOp, SnapshotResp, SnapshotSpec};
use gqs_checker::wait_freedom_report;
use gqs_checker::wg::check_linearizable;
use gqs_core::systems::figure1;
use gqs_core::ProcessId;
use gqs_simnet::{FailureSchedule, History, SimConfig, SimTime, Simulation, StopReason};
use gqs_snapshots::{gqs_snapshot_nodes, SnapOp, SnapResp};

type SnapHistory = History<SnapOp<u64>, SnapResp<u64>>;

fn to_entries(h: &SnapHistory) -> Vec<Entry<SnapshotOp<u64>, SnapshotResp<u64>>> {
    h.ops()
        .iter()
        .map(|r| Entry {
            process: r.process,
            invoked_at: r.invoked_at.ticks(),
            completed_at: r.completed_at().map(|t| t.ticks()),
            op: match &r.op {
                SnapOp::Update(v) => SnapshotOp::Update { segment: r.process.index(), value: *v },
                SnapOp::Scan => SnapshotOp::Scan,
            },
            resp: r.resp().map(|resp| match resp {
                SnapResp::Ack => SnapshotResp::Ack,
                SnapResp::View(v) => SnapshotResp::View(v.clone()),
            }),
        })
        .collect()
}

fn assert_snapshot_linearizable(h: &SnapHistory, n: usize) {
    let spec = SnapshotSpec::new(vec![0u64; n]);
    let entries = to_entries(h);
    assert!(
        check_linearizable(&spec, &entries).is_ok(),
        "snapshot history not linearizable: {entries:?}"
    );
}

#[test]
fn update_then_scan_under_f1() {
    let fig = figure1();
    let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
    let cfg = SimConfig { seed: 1, horizon: SimTime(200_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0)));
    // a updates its segment; b scans afterwards and must see it.
    sim.invoke_at(SimTime(10), ProcessId(0), SnapOp::Update(7));
    sim.invoke_at(SimTime(30_000), ProcessId(1), SnapOp::Scan);
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let ops = sim.history().ops();
    match ops[1].resp() {
        Some(SnapResp::View(v)) => assert_eq!(v, &vec![7, 0, 0, 0]),
        other => panic!("expected a view, got {other:?}"),
    }
    assert_snapshot_linearizable(sim.history(), 4);
    assert!(wait_freedom_report(sim.history(), fig.gqs.u_f(0)).is_wait_free());
}

#[test]
fn concurrent_updates_and_scans_linearizable() {
    let fig = figure1();
    for seed in [3u64, 4, 5] {
        let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
        let cfg = SimConfig { seed, horizon: SimTime(400_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.apply_failures(&FailureSchedule::from_pattern_at(
            fig.fail_prone.pattern(0),
            SimTime(0),
        ));
        let a = ProcessId(0);
        let b = ProcessId(1);
        // Contended: overlapping updates and scans at both U_f1 members.
        sim.invoke_at(SimTime(10), a, SnapOp::Update(seed));
        sim.invoke_at(SimTime(15), b, SnapOp::Update(10 + seed));
        sim.invoke_at(SimTime(20), b, SnapOp::Scan);
        sim.invoke_at(SimTime(25), a, SnapOp::Scan);
        sim.invoke_at(SimTime(8_000), a, SnapOp::Update(20 + seed));
        sim.invoke_at(SimTime(8_100), b, SnapOp::Scan);
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete, "seed {seed} stalled");
        assert_snapshot_linearizable(sim.history(), 4);
    }
}

#[test]
fn scans_at_isolated_process_hang_but_stay_safe() {
    let fig = figure1();
    let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
    let cfg = SimConfig { seed: 9, horizon: SimTime(120_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0)));
    sim.invoke_at(SimTime(10), ProcessId(0), SnapOp::Update(1));
    sim.invoke_at(SimTime(10), ProcessId(2), SnapOp::Scan); // c is isolated
    sim.run();
    let ops = sim.history().ops();
    assert!(ops[0].is_complete());
    assert!(!ops[1].is_complete(), "c cannot receive; its scan must hang");
    assert_snapshot_linearizable(sim.history(), 4);
}

#[test]
fn failure_free_full_mesh_of_updates_and_scans() {
    let fig = figure1();
    let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
    let cfg = SimConfig { seed: 11, horizon: SimTime(400_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    for p in 0..4usize {
        sim.invoke_at(SimTime(10 + 13 * p as u64), ProcessId(p), SnapOp::Update(p as u64 + 1));
    }
    sim.invoke_at(SimTime(40_000), ProcessId(0), SnapOp::Scan);
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let ops = sim.history().ops();
    match ops[4].resp() {
        Some(SnapResp::View(v)) => assert_eq!(v, &vec![1, 2, 3, 4]),
        other => panic!("expected a full view, got {other:?}"),
    }
    assert_snapshot_linearizable(sim.history(), 4);
}

/// Heavy updating at one writer forces a concurrent scan to observe a
/// double move and take the borrowed-scan exit — the wait-freedom
/// mechanism of the construction, exercised end to end.
#[test]
fn borrowed_scans_under_sustained_updates() {
    let fig = figure1();
    let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
    let cfg = SimConfig { seed: 31, horizon: SimTime(1_000_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0)));
    // a updates repeatedly (sequentially spaced); b scans in the middle.
    for (i, t) in [10u64, 4_000, 8_000, 12_000, 16_000, 20_000].iter().enumerate() {
        sim.invoke_at(SimTime(*t), ProcessId(0), SnapOp::Update(i as u64 + 1));
    }
    sim.invoke_at(SimTime(4_100), ProcessId(1), SnapOp::Scan);
    sim.invoke_at(SimTime(12_100), ProcessId(1), SnapOp::Scan);
    let reason = sim.run_until_ops_complete();
    assert_eq!(reason, StopReason::OpsComplete);
    assert_snapshot_linearizable(sim.history(), 4);
    // At least one scan anywhere (client or embedded) must have borrowed:
    // segments move faster than collects stabilize.
    let borrowed: u64 = (0..4).map(|p| sim.node(ProcessId(p)).inner().scan_stats().borrowed).sum();
    assert!(borrowed >= 1, "expected at least one borrowed scan termination");
}

/// Determinism across the snapshot stack.
#[test]
fn snapshot_runs_are_deterministic() {
    let run = |seed: u64| {
        let fig = figure1();
        let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
        let cfg = SimConfig { seed, horizon: SimTime(300_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes);
        sim.invoke_at(SimTime(10), ProcessId(0), SnapOp::Update(1));
        sim.invoke_at(SimTime(15), ProcessId(1), SnapOp::Scan);
        sim.run_until_ops_complete();
        (sim.stats(), sim.now())
    };
    assert_eq!(run(8), run(8));
    assert_ne!(run(8), run(9));
}

/// A crash and recovery of `a` before its update: the recovered process
/// must re-arm the embedded engine's state-propagation and retry timers,
/// or its update and the later scan at `b` both starve.
#[test]
fn update_and_scan_complete_after_a_crash_and_recovery() {
    let fig = figure1();
    let nodes = gqs_snapshot_nodes::<u64>(&fig.gqs, 0, 20);
    let cfg = SimConfig { seed: 1, horizon: SimTime(300_000), ..SimConfig::default() };
    let mut sim = Simulation::new(cfg, nodes);
    let mut sched = FailureSchedule::from_pattern_at(fig.fail_prone.pattern(0), SimTime(0));
    sched.crash(ProcessId(0), SimTime(5)).recover(ProcessId(0), SimTime(50));
    sim.apply_failures(&sched);
    sim.invoke_at(SimTime(1_000), ProcessId(0), SnapOp::Update(7));
    sim.invoke_at(SimTime(30_000), ProcessId(1), SnapOp::Scan);
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    match sim.history().ops()[1].resp() {
        Some(SnapResp::View(v)) => assert_eq!(v, &vec![7, 0, 0, 0]),
        other => panic!("expected a view, got {other:?}"),
    }
    assert_snapshot_linearizable(sim.history(), 4);
}
