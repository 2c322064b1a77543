//! End-to-end fault-script runs: scripts compiled by `gqs_faults` drive
//! the simulator, and the availability story they promise — blocked
//! during the outage, restored after the heal — actually happens.
//!
//! The transport under test is the production stack: the retrying ABD
//! register ([`reliable_abd_register_nodes`]) wrapped in [`Flood`] for
//! path diversity. Its only read and write quorum is `{target}`, so each
//! operation is a point-to-point exchange between the invoker and
//! `target`. Every heal-and-complete below is the engine's own
//! retransmission, not a test-local retry loop.

use gqs_core::{majority_system, NetworkGraph, ProcessId, ProcessSet, QuorumFamily};
use gqs_faults::{regions, scenarios, FaultScript};
use gqs_registers::{abd_register_nodes, reliable_abd_register_nodes, AbdRegister, RegOp};
use gqs_simnet::{Flood, OpId, SimConfig, SimTime, Simulation, StopReason, Topology};

/// Period of the engine's request retransmission.
const RETRY_PERIOD: u64 = 40;

type Stack = Flood<AbdRegister<u8, u64>>;

/// One retrying register node per process, all agreeing that `target`
/// alone is both the read and the write quorum.
fn target_nodes(n: usize, target: ProcessId) -> Vec<Stack> {
    let only_target = QuorumFamily::explicit([ProcessSet::singleton(target)])
        .expect("a singleton is a valid quorum family");
    reliable_abd_register_nodes(n, only_target.clone(), only_target, 0u64, RETRY_PERIOD)
        .into_iter()
        .map(Flood::new)
        .collect()
}

fn sim_over(graph: NetworkGraph, target: ProcessId) -> Simulation<Stack> {
    let n = graph.len();
    let cfg = SimConfig {
        topology: Topology::from(graph),
        horizon: SimTime(100_000),
        ..SimConfig::default()
    };
    Simulation::new(cfg, target_nodes(n, target))
}

fn write(value: u64) -> RegOp<u8, u64> {
    RegOp::Write { reg: 0, value }
}

#[test]
fn region_outage_blocks_cross_region_traffic_until_heal() {
    let (graph, layout) = regions::regions(3, 3);
    let in_r0 = ProcessId(0);
    let in_r1 = layout.gateway(1);
    let mut sim = sim_over(graph.clone(), in_r1);
    // Region 1 dark during [500, 3000).
    let script = scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(3000));
    script.apply(&mut sim);
    // Before the outage: cross-region op completes promptly.
    let before = sim.invoke_at(SimTime(10), in_r0, write(1));
    // During: the op stalls until the heal, then a retransmission gets
    // through.
    let during = sim.invoke_at(SimTime(1000), in_r0, write(2));
    // After: back to normal.
    let after = sim.invoke_at(SimTime(5000), in_r0, write(3));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = |op: OpId| {
        sim.history()
            .ops()
            .iter()
            .find(|r| r.id == op)
            .and_then(|r| r.completed_at())
            .expect("completed")
    };
    assert!(done(before) < SimTime(500), "pre-outage op completes before the cut");
    assert!(done(during) >= SimTime(3000), "mid-outage op cannot complete before the heal");
    assert!(done(after) < SimTime(6000), "post-heal traffic flows normally again");
    assert!(sim.stats().retransmitted > 0, "the mid-outage op heals via retransmission");
}

#[test]
fn intra_region_traffic_survives_the_outage() {
    let (graph, layout) = regions::regions(3, 3);
    // Both endpoints inside the dark region: the island stays healthy.
    let a = layout.gateway(1);
    let b = ProcessId(a.index() + 1);
    let mut sim = sim_over(graph.clone(), b);
    scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(3000)).apply(&mut sim);
    sim.invoke_at(SimTime(1000), a, write(1));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().unwrap();
    assert!(done < SimTime(1200), "intra-region traffic is unaffected, got {done:?}");
}

#[test]
fn rolling_restart_leaves_everyone_alive_and_responsive() {
    let mut sim = sim_over(regions::regions(2, 3).0, ProcessId(5));
    let script = scenarios::rolling_restart(6, SimTime(100), 200, 50);
    let end = script.end();
    script.apply(&mut sim);
    // An op invoked after the whole roll completes normally.
    sim.invoke_at(end + 100, ProcessId(0), write(1));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    for p in 0..6 {
        assert!(!sim.is_crashed(ProcessId(p)), "process {p} must have recovered");
    }
}

#[test]
fn hub_crash_blacks_out_spokes_until_recovery() {
    // A pure star: 1 hub + 3 spokes, every path goes through the hub.
    let mut g = gqs_core::NetworkGraph::empty(4);
    for i in 1..4 {
        g.add_channel(gqs_core::Channel::new(ProcessId(0), ProcessId(i)));
        g.add_channel(gqs_core::Channel::new(ProcessId(i), ProcessId(0)));
    }
    let mut sim = sim_over(g, ProcessId(2));
    scenarios::hub_crash(ProcessId(0), SimTime(200), Some(SimTime(2000))).apply(&mut sim);
    // Spoke-to-spoke traffic during the hub's downtime stalls, then heals.
    sim.invoke_at(SimTime(500), ProcessId(1), write(1));
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().unwrap();
    assert!(done >= SimTime(2000), "no spoke path exists while the hub is down, got {done:?}");
}

#[test]
fn equal_scripts_produce_identical_traces() {
    let build = || {
        let (graph, layout) = regions::regions(3, 2);
        let mut sim = sim_over(graph.clone(), ProcessId(5));
        let mut script = FaultScript::new();
        script
            .merge(scenarios::staggered_region_outages(&layout, &graph, SimTime(300), 400, 600))
            .merge(scenarios::flapping_link(
                &layout.cut(&graph, 0),
                SimTime(2500),
                100,
                100,
                SimTime(3000),
            ));
        script.apply(&mut sim);
        sim.invoke_at(SimTime(50), ProcessId(0), write(1));
        sim.invoke_at(SimTime(700), ProcessId(2), RegOp::Read { reg: 0 });
        sim.run();
        (sim.stats(), sim.now())
    };
    assert_eq!(build(), build(), "same script + same seed = same trace");
}

/// The regression the self-healing register stack exists for: a write
/// invoked *inside* a region outage, at a process in the dark region.
/// The plain ABD register broadcasts its phase-1 message exactly once —
/// the cut eats it, and the op never completes even after the heal. The
/// retrying register stack retransmits and completes within a bounded
/// interval after the heal, with zero client-side re-invocations.
#[test]
fn abd_write_during_region_outage_needs_the_retrying_stack() {
    let (graph, layout) = regions::regions(3, 3);
    let n = graph.len();
    let qs = majority_system(n).expect("majority system exists");
    let cfg = SimConfig {
        topology: Topology::from(graph.clone()),
        horizon: SimTime(100_000),
        ..SimConfig::default()
    };
    let script = scenarios::region_outage(&layout, &graph, 1, SimTime(500), SimTime(3000));
    // The invoker sits inside the dark region: its 3-process island
    // cannot form a majority quorum of 5, so nothing completes before
    // the heal.
    let invoker = layout.gateway(1);

    // Plain ABD: the one broadcast is lost to the cut; the run drains to
    // quiescence with the op still open.
    let plain: Vec<Flood<AbdRegister<u8, u64>>> =
        abd_register_nodes(n, qs.reads().clone(), qs.writes().clone(), 0u64)
            .into_iter()
            .map(Flood::new)
            .collect();
    let mut sim = Simulation::new(cfg.clone(), plain);
    script.apply(&mut sim);
    sim.invoke_at(SimTime(1000), invoker, RegOp::Write { reg: 0u8, value: 7u64 });
    let reason = sim.run_until_ops_complete();
    assert_ne!(reason, StopReason::OpsComplete, "plain ABD must not complete, got {reason:?}");
    assert!(
        sim.history().ops()[0].completed_at().is_none(),
        "the un-retried write stays open forever"
    );

    // The retrying stack: same cell, same op, no client retry — the
    // engine's retransmissions notice the heal and finish the write.
    const RETRY: u64 = 150;
    let retrying: Vec<Flood<AbdRegister<u8, u64>>> =
        reliable_abd_register_nodes(n, qs.reads().clone(), qs.writes().clone(), 0u64, RETRY)
            .into_iter()
            .map(Flood::new)
            .collect();
    let mut sim = Simulation::new(cfg, retrying);
    script.apply(&mut sim);
    sim.invoke_at(SimTime(1000), invoker, RegOp::Write { reg: 0u8, value: 7u64 });
    assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    let done = sim.history().ops()[0].completed_at().expect("the retrying write completes");
    assert!(done >= SimTime(3000), "nothing can complete before the heal, got {done:?}");
    assert!(
        done < SimTime(3000 + 10 * RETRY),
        "the first post-heal retry round should finish the op, got {done:?}"
    );
    assert!(sim.stats().retransmitted > 0, "healing happened via engine retransmission");
}

/// The simulator's implicit `Topology::Regions` must connect exactly the
/// channels [`gqs_faults::wan_graph`] materializes — same even partition,
/// same region-start gateways, same gateway ring — so scale-mode region
/// runs and the decision-mode WAN graphs describe one topology.
#[test]
fn implicit_regions_topology_matches_wan_graph() {
    use gqs_core::Channel;
    use gqs_faults::{wan_graph, RegionLayout};

    for n in 1..=24usize {
        for r in 1..=n {
            let layout = RegionLayout::even(n, r);
            let graph = wan_graph(&layout);
            let implicit = Topology::Regions { n, regions: r };
            for a in 0..n {
                for b in 0..n {
                    let (pa, pb) = (ProcessId(a), ProcessId(b));
                    let want = a == b || graph.has_channel(Channel::new(pa, pb));
                    assert_eq!(implicit.connects(pa, pb), want, "n={n} r={r}: {a}->{b}");
                }
            }
        }
    }
}
