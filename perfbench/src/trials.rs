//! The traced trials: each rebuilds one `gqs_sweep` trial from public
//! constructors, in the same order and with the same draws as the CLI's
//! trial function, and times the calls into each layer on the way.

use std::time::Instant;

use gqs_checker::{check_consensus, check_linearizable, RegisterSpec};
use gqs_consensus::{ConsensusNode, ProposalMode};
use gqs_core::finder::{find_gqs, qs_plus_exists};
use gqs_core::{majority_system, NetworkGraph, ProcessId};
use gqs_registers::{reliable_abd_register_nodes, sampled_abd_nodes, RegOp, ScaleOp};
use gqs_simnet::{
    DelayModel, FailureSchedule, Flood, Gossip, NetStats, Protocol, SimConfig, SimTime, Simulation,
    SplitMix64, StopReason, Topology,
};
use gqs_workloads::convert::{consensus_outcomes, register_entries};
use gqs_workloads::sweep::{
    ScenarioCell, ScheduleFamily, ScheduleTiming, CONSENSUS_HORIZON, CONSENSUS_TIMING,
    LATENCY_HORIZON, LATENCY_TIMING,
};

use crate::probe::{self, AllocMark, Spans, Timed, ABD, CONSENSUS, FLOOD, GOSSIP, REGISTER};

// The trial constants of `gqs_workloads::sweep` that the crate keeps
// private. A drift shows as a report that no longer matches the CLI's.
const LATENCY_OPS: u64 = 6;
const LATENCY_OP_SPACING: u64 = 400;
const AVAILABILITY_RETRY: u64 = 150;
const CONSENSUS_C: u64 = 50;
const CONSENSUS_DELTA: u64 = 5;
const CONSENSUS_GST: u64 = 1_000;
const SCALE_ABD_OPS: u64 = 2;

/// The sweep modes the benchmark traces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    Solvability,
    Availability,
    Consensus,
    Scale,
}

/// Everything one traced trial measured. Fields named `*_ns` are
/// wall-clock; every other field is a count that a deterministic run
/// repeats exactly.
#[derive(Clone, Debug, Default)]
pub struct TrialRecord {
    pub trial_ns: u64,
    pub scenario_ns: u64,
    pub find_gqs_ns: u64,
    pub find_gqs_calls: u64,
    pub solvable: u64,
    pub qs_plus_ns: u64,
    pub qs_plus_calls: u64,
    pub sccs_ns: u64,
    pub sccs_calls: u64,
    pub sim_setup_ns: u64,
    pub run_ns: u64,
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    pub stats: NetStats,
    pub ops: u64,
    pub relayed: u64,
    pub peak_bytes: u64,
    pub processes: u64,
    pub checker_ns: u64,
    pub violations: u64,
    pub accounting_errors: u64,
    pub capped: u64,
    pub spans: Spans,
}

/// The event cap `gqs_sweep` runs simulated trials under.
pub fn max_events() -> u64 {
    std::env::var("GQS_MAX_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SimConfig::default().max_events)
}

/// Runs one traced trial of `mode`, returning the CLI's metric row and
/// the trial's record.
pub fn trial(
    mode: Mode,
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    cap: u64,
) -> (Vec<f64>, TrialRecord) {
    let mut rec = TrialRecord::default();
    probe::reset_spans();
    let start = Instant::now();
    let row = match mode {
        Mode::Solvability => solvability(cell, rng, &mut rec),
        Mode::Availability => availability(cell, rng, cap, &mut rec),
        Mode::Consensus => consensus(cell, rng, cap, &mut rec),
        Mode::Scale => scale(cell, rng, &mut rec),
    };
    rec.trial_ns = start.elapsed().as_nanos() as u64;
    rec.spans = probe::take_spans();
    (row, rec)
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn solvability(cell: &ScenarioCell, rng: &mut SplitMix64, rec: &mut TrialRecord) -> Vec<f64> {
    let start = Instant::now();
    let g = cell.family.build(cell.n, cell.density, rng);
    let fp = cell.patterns.build(&g, cell.p_chan, rng);
    rec.scenario_ns += nanos(start);

    let start = Instant::now();
    let witness = find_gqs(&g, &fp);
    rec.find_gqs_ns += nanos(start);
    rec.find_gqs_calls += 1;
    let gqs = witness.is_some();
    rec.solvable += gqs as u64;

    let start = Instant::now();
    let qsp = qs_plus_exists(&g, &fp);
    rec.qs_plus_ns += nanos(start);
    rec.qs_plus_calls += 1;

    let w_min = witness
        .as_ref()
        .and_then(|w| w.per_pattern.iter().map(|(_, w)| w.len()).min())
        .unwrap_or(0);
    let sccs = if fp.is_empty() {
        0
    } else {
        let start = Instant::now();
        let count = g.residual(fp.pattern(0)).sccs().len();
        rec.sccs_ns += nanos(start);
        rec.sccs_calls += 1;
        count
    };
    vec![
        gqs as u64 as f64,
        qsp as u64 as f64,
        (gqs && !qsp) as u64 as f64,
        w_min as f64,
        sccs as f64,
    ]
}

/// The scenario layer of a simulated trial: topology, fail-prone system,
/// simulator seed, invokers and the compiled fault schedule. `None` when
/// the CLI's trial reports zeros.
struct Scenario {
    graph: NetworkGraph,
    schedule: FailureSchedule,
    invokers: Vec<ProcessId>,
    sim_seed: u64,
}

fn scenario(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    timing: &ScheduleTiming,
    rec: &mut TrialRecord,
) -> Option<Scenario> {
    let start = Instant::now();
    let graph = cell.family.build(cell.n, cell.density, rng);
    let fp = cell.patterns.build(&graph, cell.p_chan, rng);
    let sim_seed = rng.next_u64();
    let drawn = if fp.is_empty() {
        None
    } else {
        let pattern = fp.pattern(0);
        let invokers: Vec<ProcessId> = match cell.schedule {
            ScheduleFamily::Static => pattern.correct().iter().collect(),
            _ => (0..cell.n).map(ProcessId).collect(),
        };
        let schedule = cell.schedule.script(cell.family, cell.n, &graph, pattern, timing);
        (!invokers.is_empty()).then(|| Scenario {
            schedule: schedule.to_schedule(),
            graph,
            invokers,
            sim_seed,
        })
    };
    rec.scenario_ns += nanos(start);
    drawn
}

/// Runs `sim` with `run`, recording engine time, allocations and counters.
fn drive<P: Protocol>(
    sim: &mut Simulation<P>,
    rec: &mut TrialRecord,
    run: impl FnOnce(&mut Simulation<P>) -> StopReason,
) -> StopReason {
    let mark = AllocMark::now();
    let start = Instant::now();
    let reason = run(sim);
    rec.run_ns += nanos(start);
    let allocs = mark.since();
    rec.run_allocs += allocs.count;
    rec.run_alloc_bytes += allocs.bytes;
    let s = sim.stats();
    rec.stats.sent += s.sent;
    rec.stats.delivered += s.delivered;
    rec.stats.retransmitted += s.retransmitted;
    rec.stats.timers_fired += s.timers_fired;
    rec.stats.events += s.events;
    rec.ops += sim.history().ops().len() as u64;
    rec.capped += matches!(reason, StopReason::EventCap { .. }) as u64;
    // Message accounting: every send is delivered, dropped for exactly
    // one cause, or still in flight, and nothing is in flight once the
    // queue drained.
    let settled = s.delivered
        + s.dropped_disconnected
        + s.dropped_crashed
        + s.dropped_sender_crashed
        + s.dropped_lossy;
    let balanced = match reason {
        StopReason::Quiescent => s.sent == settled,
        _ => s.sent >= settled,
    };
    rec.accounting_errors += !balanced as u64;
    reason
}

/// Counts an accounting error unless the outermost layer handled exactly
/// the deliveries the simulator counted.
fn check_deliveries(rec: &mut TrialRecord, layer: usize, delivered: u64) {
    let handled = probe::layer_messages(layer);
    rec.accounting_errors += (handled != delivered) as u64;
}

type RegisterNode = Timed<Flood<Timed<gqs_registers::AbdRegister<u8, u64>, REGISTER>>, FLOOD>;
type ConsensusStack = Timed<Flood<Timed<ConsensusNode<u64>, CONSENSUS>>, FLOOD>;

fn availability(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    cap: u64,
    rec: &mut TrialRecord,
) -> Vec<f64> {
    let Some(sc) = scenario(cell, rng, &LATENCY_TIMING, rec) else {
        return vec![0.0; 4];
    };
    let start = Instant::now();
    let qs = majority_system(cell.n).expect("majority system exists for n >= 1");
    let nodes: Vec<RegisterNode> = reliable_abd_register_nodes::<u8, u64>(
        cell.n,
        qs.reads().clone(),
        qs.writes().clone(),
        0,
        AVAILABILITY_RETRY,
    )
    .into_iter()
    .map(|node| Timed::new(Flood::new(Timed::new(node))))
    .collect();
    let cfg = SimConfig {
        seed: sc.sim_seed,
        net: Some(cell.net.net_model(SimConfig::default().delay, cell.region_spec())),
        topology: Topology::from(sc.graph),
        horizon: SimTime(LATENCY_HORIZON),
        loss: cell.loss,
        max_events: cap,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&sc.schedule);
    for i in 0..LATENCY_OPS {
        let p = sc.invokers[(i as usize) % sc.invokers.len()];
        let at = SimTime(10 + i * LATENCY_OP_SPACING);
        if i % 2 == 0 {
            sim.invoke_at(at, p, RegOp::Write { reg: 0, value: i });
        } else {
            sim.invoke_at(at, p, RegOp::Read { reg: 0 });
        }
    }
    rec.sim_setup_ns += nanos(start);
    drive(&mut sim, rec, Simulation::run_until_ops_complete);
    check_deliveries(rec, FLOOD, sim.stats().delivered);
    rec.relayed += (0..cell.n).map(|p| sim.node(ProcessId(p)).inner().relayed()).sum::<u64>();

    let start = Instant::now();
    let verdict = check_linearizable(&RegisterSpec::new(0u64), &register_entries(sim.history(), 0));
    rec.checker_ns += nanos(start);
    rec.violations += !verdict.is_ok() as u64;

    // `availability_measure`, verbatim in effect.
    let ops = sim.history().ops();
    let invoked = ops.len();
    if invoked == 0 {
        return vec![0.0; 4];
    }
    let done: Vec<SimTime> = ops.iter().filter_map(|r| r.completed_at()).collect();
    let completed = done.len() as f64 / invoked as f64;
    let stalled = (invoked - done.len()) as f64;
    let last_heal = sc
        .schedule
        .heals()
        .iter()
        .map(|&(_, at)| at)
        .chain(sc.schedule.recovers().iter().map(|&(_, at)| at))
        .max();
    let time_to_heal = match last_heal {
        Some(heal) => done
            .iter()
            .filter(|&&at| at >= heal)
            .max()
            .map(|&at| (at.ticks() - heal.ticks()) as f64)
            .unwrap_or(0.0),
        None => 0.0,
    };
    let retransmits_per_op = sim.stats().retransmitted as f64 / invoked as f64;
    vec![completed, stalled, time_to_heal, retransmits_per_op]
}

fn consensus(
    cell: &ScenarioCell,
    rng: &mut SplitMix64,
    cap: u64,
    rec: &mut TrialRecord,
) -> Vec<f64> {
    let Some(sc) = scenario(cell, rng, &CONSENSUS_TIMING, rec) else {
        return vec![0.0; 5];
    };
    let start = Instant::now();
    let qs = majority_system(cell.n).expect("majority system exists for n >= 1");
    let nodes: Vec<ConsensusStack> = (0..cell.n)
        .map(|p| {
            Timed::new(Flood::new(Timed::new(ConsensusNode::new(
                ProcessId(p),
                cell.n,
                qs.reads().clone(),
                qs.writes().clone(),
                CONSENSUS_C,
                ProposalMode::Push,
            ))))
        })
        .collect();
    let delay = DelayModel::PartialSynchrony {
        pre_min: 1,
        pre_max: 100,
        gst: CONSENSUS_GST,
        delta: CONSENSUS_DELTA,
    };
    let cfg = SimConfig {
        seed: sc.sim_seed,
        delay,
        net: Some(cell.net.net_model(delay, cell.region_spec())),
        topology: Topology::from(sc.graph),
        horizon: SimTime(CONSENSUS_HORIZON),
        loss: cell.loss,
        max_events: cap,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, nodes);
    sim.apply_failures(&sc.schedule);
    for (i, &p) in sc.invokers.iter().enumerate() {
        sim.invoke_at(SimTime(10 + i as u64), p, p.index() as u64 + 1);
    }
    rec.sim_setup_ns += nanos(start);
    drive(&mut sim, rec, Simulation::run_until_ops_complete);
    check_deliveries(rec, FLOOD, sim.stats().delivered);
    rec.relayed += (0..cell.n).map(|p| sim.node(ProcessId(p)).inner().relayed()).sum::<u64>();

    let start = Instant::now();
    let safe = check_consensus(&consensus_outcomes(sim.history())).is_ok();
    rec.checker_ns += nanos(start);
    rec.violations += !safe as u64;

    // `consensus_measure`, minus its Agreement assertion (the checker
    // above reports that instead of aborting the sweep).
    let decisions: Vec<(u64, SimTime)> = (0..cell.n)
        .filter_map(|p| {
            sim.node(ProcessId(p))
                .inner()
                .inner()
                .inner()
                .decision()
                .map(|&(_, view, at)| (view, at))
        })
        .collect();
    let decided = decisions.len() as f64 / cell.n as f64;
    let first = decisions.iter().min_by_key(|&&(_, at)| at);
    let views = first.map(|&(v, _)| v).unwrap_or(0) as f64;
    let decide_lat = first.map(|&(_, at)| at.ticks()).unwrap_or(0) as f64;
    let lat_over_cdelta = decide_lat / (CONSENSUS_C * CONSENSUS_DELTA) as f64;
    let msgs_per_op = sim.stats().delivered as f64 / sc.invokers.len() as f64;
    vec![decided, views, decide_lat, lat_over_cdelta, msgs_per_op]
}

fn scale(cell: &ScenarioCell, rng: &mut SplitMix64, rec: &mut TrialRecord) -> Vec<f64> {
    let n = cell.n;
    let base = probe::reset_peak();
    let start = Instant::now();
    let topology = cell.family.implicit(n).expect("scale cells have implicit topologies");
    let gossip_seed = rng.next_u64();
    let source = rng.range(0, n as u64 - 1) as usize;
    let abd_seed = rng.next_u64();
    let cfg = SimConfig {
        seed: gossip_seed,
        topology,
        horizon: SimTime::MAX,
        max_events: u64::MAX,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, vec![Timed::<Gossip, GOSSIP>::new(Gossip::default()); n]);
    sim.invoke_at(SimTime(1), ProcessId(source), ());
    rec.sim_setup_ns += nanos(start);
    drive(&mut sim, rec, Simulation::run);
    check_deliveries(rec, GOSSIP, sim.stats().delivered);
    let heard: Vec<SimTime> =
        (0..n).filter_map(|p| sim.node(ProcessId(p)).inner().heard_at()).collect();
    let reached = heard.len() as f64 / n as f64;
    let spread = heard.iter().max().map(|t| t.ticks() as f64).unwrap_or(0.0);
    let msgs_per_proc = sim.stats().sent as f64 / n as f64;

    let start = Instant::now();
    let cfg = SimConfig {
        seed: abd_seed,
        horizon: SimTime::MAX,
        max_events: u64::MAX,
        ..SimConfig::default()
    };
    let nodes: Vec<Timed<_, ABD>> =
        sampled_abd_nodes(n, 0u64, abd_seed).into_iter().map(Timed::new).collect();
    let mut sim = Simulation::new(cfg, nodes);
    for i in 0..SCALE_ABD_OPS {
        let p = ProcessId(((source as u64 + i * 7) % n as u64) as usize);
        let at = SimTime(1 + i * 200);
        if i % 2 == 0 {
            sim.invoke_at(at, p, ScaleOp::Write(i));
        } else {
            sim.invoke_at(at, p, ScaleOp::Read);
        }
    }
    rec.sim_setup_ns += nanos(start);
    drive(&mut sim, rec, Simulation::run_until_ops_complete);
    check_deliveries(rec, ABD, sim.stats().delivered);
    let invoked = sim.history().ops().len().max(1);
    let abd_completed =
        sim.history().ops().iter().filter(|r| r.is_complete()).count() as f64 / invoked as f64;
    let abd_msgs_per_proc = sim.stats().sent as f64 / n as f64;
    // Both simulations are still alive here, as in `scale_trial`.
    rec.peak_bytes += (probe::peak() - base).max(0) as u64;
    rec.processes += n as u64;

    vec![reached, spread, msgs_per_proc, abd_completed, abd_msgs_per_proc]
}
