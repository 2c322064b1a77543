//! Machine-readable perf snapshot of the decision-procedure hot paths.
//!
//! Times `find_gqs`, `gqs_exists` and `sccs` on a fixed scenario ladder
//! (n = 5…256 processes with growing pattern counts, seeded generation, so
//! every run measures the same instances), plus the naive pre-optimization
//! pipeline ([`gqs_core::reference`]) on the 32-process / 16-pattern rung
//! as the speedup baseline. The top rungs (128, 256) exercise the
//! multi-word `ProcessSet` paths past the old single-`u128` cap; the
//! `small_n_fast_path` block records the n=32 number against the value
//! measured just before the multi-word refactor, so small-universe
//! regressions are visible at a glance.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gqs-bench --bin perf_snapshot [-- OUTPUT.json]
//! ```
//!
//! Writes `BENCH.json` (or the given path): one entry per ladder rung with
//! mean ns/op for each procedure, and a `baseline` block recording the
//! naive-vs-optimized `gqs_exists` ratio. Future PRs append nothing —
//! they overwrite and diff in review, so the file is the perf trajectory.

use std::time::Instant;

use gqs_core::finder::{find_gqs, gqs_exists};
use gqs_core::reference::gqs_exists_naive;
use gqs_core::{FailProneSystem, NetworkGraph, ProcessId};
use gqs_registers::{sampled_abd_nodes, ScaleOp};
use gqs_simnet::{CountingSink, Gossip, SharedSink, SimConfig, SimTime, Simulation, Topology};
use gqs_workloads::generators::{random_scenarios, trial_rng};
use gqs_workloads::par;
use gqs_workloads::sweep::{
    self, Availability, BranchMode, BranchSpec, Consensus, Exec, Latency, MetricAgg, NetworkFamily,
    PatternFamily, ScenarioCell, ScenarioGrid, ScheduleFamily, SweepOptions, TopologyFamily,
};

/// The fixed ladder: (processes, patterns). Edge probability and failure
/// rates are fixed inside `scenarios`.
const LADDER: &[(usize, usize)] = &[
    (5, 4),
    (8, 6),
    (12, 8),
    (16, 10),
    (24, 12),
    (32, 16),
    (48, 24),
    (64, 32),
    (128, 16),
    (256, 16),
];

/// `gqs_exists` ns/op on the small rungs, measured immediately before the
/// multi-word `ProcessSet` refactor — the reference points for the
/// `small_n_fast_path` block. Machine-specific: they were taken on the
/// same machine (and seeds) that produced the committed BENCH.json, so the
/// before/after ratios are only meaningful for snapshots regenerated on
/// comparable hardware; elsewhere, compare against a locally measured
/// pre-refactor build instead. Re-measure if the scenario generator or
/// seeds change.
///
/// The tiniest rungs (n <= 16, where whole calls cost 2–8µs) pay up to
/// ~2x from the wider `Copy` sets on the non-kernel paths; the word-count
/// -monomorphized kernels hold n >= 24 within noise. That trade is
/// deliberate — watch these ratios so it does not silently get worse.
const SMALL_N_GQS_EXISTS_NS_BEFORE_MULTIWORD: &[(usize, f64)] =
    &[(5, 1554.1), (16, 7045.0), (32, 19370.8)];

/// Scenarios per rung; results are averaged across them so a single
/// degenerate instance cannot dominate a rung.
const SCENARIOS_PER_RUNG: usize = 4;

const SEED: u64 = 0xBE7C_4A11;

fn scenarios(n: usize, patterns: usize) -> Vec<(NetworkGraph, FailProneSystem)> {
    // Moderately sparse graphs with mixed crash + channel failures: dense
    // enough that big SCCs survive, sparse enough that reachability is
    // nontrivial.
    random_scenarios(SCENARIOS_PER_RUNG, n, 0.3, patterns, n / 4, 0.15, SEED ^ n as u64)
}

/// Mean ns per call of `f`, adaptively batched to ≥ ~80ms of measurement,
/// best of 3 batches.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Calibrate the batch size.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 20 || batch > 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let per = t0.elapsed().as_nanos() as f64 / batch as f64;
        if per < best {
            best = per;
        }
    }
    best
}

struct Rung {
    n: usize,
    patterns: usize,
    find_gqs_ns: f64,
    gqs_exists_ns: f64,
    sccs_ns: f64,
    solvable: usize,
}

fn measure_rung(n: usize, patterns: usize) -> Rung {
    let cases = scenarios(n, patterns);
    let solvable = cases.iter().filter(|(g, fp)| gqs_exists(g, fp)).count();
    let find_gqs_ns = time_ns(|| {
        for (g, fp) in &cases {
            std::hint::black_box(find_gqs(g, fp).is_some());
        }
    }) / cases.len() as f64;
    let gqs_exists_ns = time_ns(|| {
        for (g, fp) in &cases {
            std::hint::black_box(gqs_exists(g, fp));
        }
    }) / cases.len() as f64;
    let sccs_ns = time_ns(|| {
        for (g, fp) in &cases {
            for f in fp.patterns() {
                std::hint::black_box(g.residual(f).sccs().len());
            }
        }
    }) / cases.len() as f64;
    Rung { n, patterns, find_gqs_ns, gqs_exists_ns, sccs_ns, solvable }
}

fn json_escape_free(v: f64) -> String {
    // Stable, JSON-safe number formatting (no NaN/inf can occur here).
    format!("{v:.1}")
}

/// Streamed-vs-materialized sweep comparison: the same 10k-trial rotating
/// grid evaluated (a) through the streaming engine (constant memory,
/// incremental aggregation) and (b) the pre-engine way — materialize every
/// trial row with `par::map`, then reduce the batch. Returns
/// `(trials, streamed_ns_per_trial, materialized_ns_per_trial)`.
fn measure_sweep_engines() -> (usize, f64, f64) {
    let grid = ScenarioGrid {
        cells: (1..=5)
            .map(|i| ScenarioCell {
                family: TopologyFamily::Complete,
                n: 4,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.1 * i as f64,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            })
            .collect(),
        trials: 2_000,
        seed: SEED,
    };
    let trials = grid.trials * grid.cells.len();
    let best_of = |f: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_nanos() as f64 / trials as f64);
        }
        best
    };
    let streamed_ns = best_of(&|| {
        std::hint::black_box(grid.run(&SweepOptions::default()));
    });
    let materialized_ns = best_of(&|| {
        // The old shape: the whole batch of trial rows lives in memory
        // before any aggregation happens.
        let rows: Vec<Vec<f64>> = par::map(trials, |i| {
            let cell = &grid.cells[i / grid.trials];
            let mut rng = trial_rng(grid.seed, i);
            sweep::scenario_trial(cell, &mut rng)
        });
        let mut aggs: Vec<Vec<MetricAgg>> =
            vec![vec![MetricAgg::new(); sweep::SCENARIO_METRICS.len()]; grid.cells.len()];
        for (i, row) in rows.iter().enumerate() {
            for (agg, &v) in aggs[i / grid.trials].iter_mut().zip(row) {
                agg.observe(v);
            }
        }
        std::hint::black_box(aggs);
    });
    (trials, streamed_ns, materialized_ns)
}

/// Schedule-driven vs static latency trials: the same WAN grid simulated
/// with the historical pattern-at-time-zero adversary and with the
/// staggered region-outage fault script, single-threaded for stable
/// numbers. Returns `(trials, static_ns_per_trial, outage_ns_per_trial)`
/// — the per-trial cost of the `gqs_faults` path (script compilation +
/// heal/recover event traffic) over the static path.
fn measure_fault_schedule() -> (usize, f64, f64) {
    let cell = |schedule| ScenarioCell {
        family: TopologyFamily::Regions { regions: 3 },
        n: 9,
        density: 1.0,
        patterns: PatternFamily::Rotating,
        p_chan: 0.1,
        loss: 0.0,
        schedule,
        net: NetworkFamily::Uniform,
    };
    let trials = 256;
    let time = |schedule| {
        let grid = ScenarioGrid { cells: vec![cell(schedule)], trials, seed: SEED ^ 0xFA17 };
        let opts = SweepOptions { threads: Some(1), ..SweepOptions::default() };
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(grid.run_sim::<Latency>(&opts, Exec::Plain));
            best = best.min(t0.elapsed().as_nanos() as f64 / trials as f64);
        }
        best
    };
    (trials, time(ScheduleFamily::Static), time(ScheduleFamily::RegionOutage))
}

/// Plain flooded ABD vs the self-healing stack on the same loss-free
/// static cell: what the retrying engine (`with_retry`) costs when
/// nothing needs healing. Returns `(trials, plain_ns_per_trial,
/// reliable_ns_per_trial)` — the insurance premium of the reliable
/// delivery layer at loss=0.
///
/// The cell is a complete graph where every op completes in both modes
/// with zero retransmits, so the comparison is pure protocol overhead. (A
/// partitioning cell would instead measure the retry engine hammering a
/// permanently dead link for the whole horizon — honest behaviour, but a
/// different question.)
fn measure_reliable_overhead() -> (usize, f64, f64) {
    let cell = ScenarioCell {
        family: TopologyFamily::Complete,
        n: 9,
        density: 1.0,
        patterns: PatternFamily::Rotating,
        p_chan: 0.0,
        loss: 0.0,
        schedule: ScheduleFamily::Static,
        net: NetworkFamily::Uniform,
    };
    let trials = 256;
    let grid = ScenarioGrid { cells: vec![cell], trials, seed: SEED ^ 0x5EAF };
    let opts = SweepOptions { threads: Some(1), ..SweepOptions::default() };
    let time = |run: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_nanos() as f64 / trials as f64);
        }
        best
    };
    let plain_ns = time(&|| {
        std::hint::black_box(grid.run_sim::<Latency>(&opts, Exec::Plain));
    });
    let reliable_ns = time(&|| {
        std::hint::black_box(grid.run_sim::<Availability>(&opts, Exec::Plain));
    });
    (trials, plain_ns, reliable_ns)
}

/// Fork-replay amortization on the region-outage consensus row: the same
/// branched sweep (each trial warmed to the branch point, then `branches`
/// seeded continuations) executed in fork mode — checkpoint once, restore
/// per branch — and in straight-line mode, which re-runs the warmup from
/// scratch for every branch. The two emit bit-identical reports (tested
/// in `gqs_workloads::sweep`), so the entire difference is execution
/// cost. Returns `(trials, branches, branch_at, fork_ns_per_branch,
/// straight_ns_per_branch)`.
fn measure_fork_replay() -> (usize, usize, u64, f64, f64) {
    let cell = ScenarioCell {
        family: TopologyFamily::Regions { regions: 3 },
        n: 9,
        density: 1.0,
        patterns: PatternFamily::Rotating,
        p_chan: 0.1,
        loss: 0.0,
        schedule: ScheduleFamily::RegionOutage,
        net: NetworkFamily::Uniform,
    };
    let trials = 64;
    let branches = 8;
    // Past GST (1000) and into the outage churn, so the warmup carries
    // real event traffic and protocol state into the checkpoint.
    let branch_at = 2_000;
    let opts = SweepOptions { threads: Some(1), ..SweepOptions::default() };
    let time = |mode| {
        let grid = ScenarioGrid { cells: vec![cell], trials, seed: SEED ^ 0xF08C };
        let spec = BranchSpec { at: branch_at, branches, mode };
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(grid.run_sim::<Consensus>(&opts, Exec::Branch(spec)));
            best = best.min(t0.elapsed().as_nanos() as f64 / (trials * branches) as f64);
        }
        best
    };
    (trials, branches, branch_at, time(BranchMode::Fork), time(BranchMode::Straight))
}

/// One network-model consensus run: simulated decision quantities plus
/// the wall-clock sampling cost.
struct NetModelRun {
    net: NetworkFamily,
    decided: f64,
    decide_lat: f64,
    lat_over_cdelta: f64,
    ns_per_trial: f64,
}

/// C·δ bounds vs heavy-tailed reality: the same single-shot consensus
/// grid simulated under the degenerate uniform network model and under
/// the jitter and lognormal WAN classes (`gqs_simnet::NetModel`). Unlike
/// the other rungs, `decide_lat` and `lat_over_cdelta` are *simulated*
/// quantities — deterministic per seed — showing how far the certificate
/// bound's C·δ yardstick drifts from measured decision latency as delay
/// tails fatten; `ns_per_trial` is the per-trial sampling cost
/// (single-threaded), i.e. what the polar-method lognormal draws add
/// over the one-draw uniform path.
fn measure_net_models() -> (usize, Vec<NetModelRun>) {
    let cell = |net| ScenarioCell {
        family: TopologyFamily::Regions { regions: 3 },
        n: 6,
        density: 1.0,
        patterns: PatternFamily::Rotating,
        p_chan: 0.0,
        loss: 0.05,
        schedule: ScheduleFamily::Static,
        net,
    };
    let trials = 64;
    let opts = SweepOptions { threads: Some(1), ..SweepOptions::default() };
    let mut runs = Vec::new();
    for net in [NetworkFamily::Uniform, NetworkFamily::Jitter, NetworkFamily::Lognormal] {
        let grid = ScenarioGrid { cells: vec![cell(net)], trials, seed: SEED ^ 0x7E37 };
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = grid.run_sim::<Consensus>(&opts, Exec::Plain);
            best = best.min(t0.elapsed().as_nanos() as f64 / trials as f64);
            report = Some(r);
        }
        let r = report.expect("three timed runs happened");
        runs.push(NetModelRun {
            net,
            decided: r.agg(0, "decided").mean(),
            decide_lat: r.agg(0, "decide_lat").mean(),
            lat_over_cdelta: r.agg(0, "lat_over_cdelta").mean(),
            ns_per_trial: best,
        });
    }
    (trials, runs)
}

/// One completed scale-core run.
struct ScaleRun {
    workload: &'static str,
    n: usize,
    events: u64,
    sent: u64,
    wall_s: f64,
    events_per_sec: f64,
}

/// Process peak RSS (`VmHWM`) in bytes, from `/proc/self/status`
/// (Linux-only; `None` elsewhere, rendered as JSON `null`).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// The scale-core rung: flooded gossip on implicit rings at 100k and 1M
/// processes, plus sampled-arc majority ABD at 100k — wall-clock
/// throughput (events/sec) rather than simulated quantities, which is why
/// it lives here and not in the deterministic sweep modes.
///
/// Must run **first** in `main` so the process-wide `VmHWM` high-water
/// mark reflects the million-process simulation, making
/// `bytes_per_process` an honest upper bound on the engine's per-process
/// footprint (flat epoch array + O(1) protocol state + in-flight events).
fn measure_sim_scale() -> (Vec<ScaleRun>, Option<u64>, usize) {
    let mut runs = Vec::new();
    let mut n_max = 0usize;
    for &n in &[100_000usize, 1_000_000] {
        eprintln!("measuring scale gossip n={n} ...");
        let cfg = SimConfig {
            seed: SEED,
            topology: Topology::Ring { n },
            horizon: SimTime::MAX,
            max_events: u64::MAX,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
        sim.invoke_at(SimTime(1), ProcessId(0), ());
        sim.run();
        let wall_s = t0.elapsed().as_secs_f64();
        let reached = (0..n).filter(|&p| sim.node(ProcessId(p)).heard_at().is_some()).count();
        assert_eq!(reached, n, "gossip must flood the whole ring");
        let events = sim.stats().events;
        runs.push(ScaleRun {
            workload: "gossip_ring",
            n,
            events,
            sent: sim.stats().sent,
            wall_s,
            events_per_sec: events as f64 / wall_s.max(1e-9),
        });
        n_max = n_max.max(n);
    }
    {
        let n = 100_000;
        eprintln!("measuring scale sampled-ABD n={n} ...");
        let cfg = SimConfig {
            seed: SEED ^ 0x5CA1E,
            horizon: SimTime::MAX,
            max_events: u64::MAX,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let mut sim = Simulation::new(cfg, sampled_abd_nodes(n, 0u64, SEED));
        sim.invoke_at(SimTime(1), ProcessId(17), ScaleOp::Write(7));
        sim.invoke_at(SimTime(400), ProcessId(23_456), ScaleOp::Read);
        sim.run_until_ops_complete();
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(sim.history().ops().iter().all(|r| r.is_complete()), "scale ABD ops complete");
        let events = sim.stats().events;
        runs.push(ScaleRun {
            workload: "sampled_abd",
            n,
            events,
            sent: sim.stats().sent,
            wall_s,
            events_per_sec: events as f64 / wall_s.max(1e-9),
        });
    }
    (runs, peak_rss_bytes(), n_max)
}

/// The trace-plane premium at scale: the same million-process flooded
/// gossip ring run with no sink attached and with a live
/// [`CountingSink`] recording every event. The no-sink path must stay
/// within noise of the pre-trace-plane `sim_scale` numbers (the
/// `trace_ev!` gate is one branch on an `Option` discriminant); the
/// counting run prices the cheapest always-on sink. Returns
/// `(n, events, no_sink_wall_s, counting_wall_s)`.
fn measure_trace_overhead() -> (usize, u64, f64, f64) {
    let n = 1_000_000usize;
    let run = |counting: bool| -> (u64, f64) {
        let cfg = SimConfig {
            seed: SEED,
            topology: Topology::Ring { n },
            horizon: SimTime::MAX,
            max_events: u64::MAX,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let mut sim = Simulation::new(cfg, vec![Gossip::default(); n]);
        let sink = counting.then(|| SharedSink::new(CountingSink::new(n)));
        if let Some(sink) = &sink {
            sim.set_trace(Box::new(sink.clone()));
        }
        sim.invoke_at(SimTime(1), ProcessId(0), ());
        sim.run();
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(sink) = &sink {
            // The sink observed the exact same run: its totals must agree
            // with the engine's own NetStats.
            let (sent, delivered) = sink.with(|s| (s.total().sent, s.total().delivered));
            assert_eq!(sent, sim.stats().sent, "counting sink saw every send");
            assert_eq!(delivered, sim.stats().delivered, "counting sink saw every delivery");
        }
        (sim.stats().events, wall_s)
    };
    let (events, no_sink_s) = run(false);
    let (events_counting, counting_s) = run(true);
    assert_eq!(events, events_counting, "tracing must not perturb the event stream");
    (n, events, no_sink_s, counting_s)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH.json".to_string());

    // First, so the VmHWM high-water mark belongs to the scale runs.
    let (scale_runs, peak_rss, scale_n_max) = measure_sim_scale();

    eprintln!("measuring trace-plane overhead at n=1M ...");
    let (to_n, to_events, to_none_s, to_counting_s) = measure_trace_overhead();

    let mut rungs = Vec::new();
    for &(n, patterns) in LADDER {
        eprintln!("measuring n={n} patterns={patterns} ...");
        rungs.push(measure_rung(n, patterns));
    }

    // Baseline: naive pipeline on the 32/16 rung.
    let (base_n, base_m) = (32usize, 16usize);
    let cases = scenarios(base_n, base_m);
    eprintln!("measuring naive baseline n={base_n} patterns={base_m} ...");
    let naive_ns = time_ns(|| {
        for (g, fp) in &cases {
            std::hint::black_box(gqs_exists_naive(g, fp));
        }
    }) / cases.len() as f64;
    let fast_ns = rungs
        .iter()
        .find(|r| r.n == base_n && r.patterns == base_m)
        .expect("32/16 is on the ladder")
        .gqs_exists_ns;
    let speedup = naive_ns / fast_ns;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(
        "  \"description\": \"mean ns per call; seeded scenario ladder (see perf_snapshot.rs)\",\n",
    );
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"scenarios_per_rung\": {SCENARIOS_PER_RUNG},\n"));
    json.push_str("  \"sim_scale\": {\n");
    json.push_str(
        "    \"note\": \"implicit-topology simulator core at scale: flooded gossip on ring(n) \
         plus two sampled-arc majority-ABD ops on complete(n); wall-clock throughput, \
         machine-specific; peak_rss_bytes is the process VmHWM sampled right after these runs \
         (they execute first), so bytes_per_process bounds the engine footprint at the largest \
         n\",\n",
    );
    json.push_str("    \"runs\": [\n");
    for (i, r) in scale_runs.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"workload\": \"{}\", \"n\": {}, \"events\": {}, \"sent\": {}, \"wall_s\": {:.3}, \"events_per_sec\": {:.0}}}{}\n",
            r.workload,
            r.n,
            r.events,
            r.sent,
            r.wall_s,
            r.events_per_sec,
            if i + 1 < scale_runs.len() { "," } else { "" }
        ));
    }
    json.push_str("    ],\n");
    match peak_rss {
        Some(bytes) => {
            json.push_str(&format!("    \"peak_rss_bytes\": {bytes},\n"));
            json.push_str(&format!(
                "    \"bytes_per_process\": {:.1}\n",
                bytes as f64 / scale_n_max as f64
            ));
        }
        None => {
            json.push_str("    \"peak_rss_bytes\": null,\n");
            json.push_str("    \"bytes_per_process\": null\n");
        }
    }
    json.push_str("  },\n");
    json.push_str("  \"trace_overhead\": {\n");
    json.push_str(
        "    \"note\": \"the trace plane's premium on the million-process gossip ring: no sink \
         attached (the zero-cost-when-off gate) vs a live CountingSink recording every event; \
         wall-clock, machine-specific. no_sink_wall_s should track sim_scale's gossip n=1M rung \
         across snapshots\",\n",
    );
    json.push_str(&format!("    \"n\": {to_n},\n"));
    json.push_str(&format!("    \"events\": {to_events},\n"));
    json.push_str(&format!("    \"no_sink_wall_s\": {to_none_s:.3},\n"));
    json.push_str(&format!("    \"counting_sink_wall_s\": {to_counting_s:.3},\n"));
    json.push_str(&format!("    \"counting_over_no_sink\": {:.2}\n", to_counting_s / to_none_s));
    json.push_str("  },\n");
    json.push_str("  \"ladder\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"patterns\": {}, \"solvable\": {}, \"find_gqs_ns\": {}, \"gqs_exists_ns\": {}, \"sccs_ns\": {}}}{}\n",
            r.n,
            r.patterns,
            r.solvable,
            json_escape_free(r.find_gqs_ns),
            json_escape_free(r.gqs_exists_ns),
            json_escape_free(r.sccs_ns),
            if i + 1 < rungs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    eprintln!("measuring streamed vs materialized sweep ...");
    let (sweep_trials, streamed_ns, materialized_ns) = measure_sweep_engines();
    json.push_str("  \"sweep\": {\n");
    json.push_str(
        "    \"note\": \"10k-trial rotating grid (5 cells x 2000): streaming engine vs \
         materialize-then-reduce; ns per trial\",\n",
    );
    json.push_str(&format!("    \"trials\": {sweep_trials},\n"));
    json.push_str(&format!("    \"streamed_ns_per_trial\": {},\n", json_escape_free(streamed_ns)));
    json.push_str(&format!(
        "    \"materialized_ns_per_trial\": {},\n",
        json_escape_free(materialized_ns)
    ));
    json.push_str(&format!(
        "    \"streamed_over_materialized\": {:.2}\n",
        streamed_ns / materialized_ns
    ));
    json.push_str("  },\n");
    eprintln!("measuring static vs schedule-driven latency trials ...");
    let (fs_trials, static_ns, outage_ns) = measure_fault_schedule();
    json.push_str("  \"fault_schedule\": {\n");
    json.push_str(
        "    \"note\": \"simulated latency trials on regions(3) n=9, rotating p_chan=0.1: \
         static pattern-at-zero vs staggered region-outage script (gqs_faults); ns per trial, \
         single-threaded\",\n",
    );
    json.push_str(&format!("    \"trials\": {fs_trials},\n"));
    json.push_str(&format!("    \"static_ns_per_trial\": {},\n", json_escape_free(static_ns)));
    json.push_str(&format!(
        "    \"region_outage_ns_per_trial\": {},\n",
        json_escape_free(outage_ns)
    ));
    json.push_str(&format!("    \"outage_over_static\": {:.2}\n", outage_ns / static_ns));
    json.push_str("  },\n");
    eprintln!("measuring plain vs reliable register stack at loss=0 ...");
    let (ro_trials, plain_ns, reliable_ns) = measure_reliable_overhead();
    json.push_str("  \"reliable_overhead\": {\n");
    json.push_str(
        "    \"note\": \"simulated register trials on complete(9), static schedule, loss=0, \
         all ops complete with zero retransmits: plain flooded ABD (latency mode) vs the \
         retrying QAF stack (with_retry, availability mode); ns per trial, single-threaded\",\n",
    );
    json.push_str(&format!("    \"trials\": {ro_trials},\n"));
    json.push_str(&format!("    \"plain_abd_ns_per_trial\": {},\n", json_escape_free(plain_ns)));
    json.push_str(&format!(
        "    \"reliable_abd_ns_per_trial\": {},\n",
        json_escape_free(reliable_ns)
    ));
    json.push_str(&format!("    \"reliable_over_plain\": {:.2}\n", reliable_ns / plain_ns));
    json.push_str("  },\n");
    eprintln!("measuring network models: uniform vs heavy-tailed ...");
    let (nm_trials, nm_runs) = measure_net_models();
    json.push_str("  \"net_model\": {\n");
    json.push_str(
        "    \"note\": \"single-shot consensus on regions(3) n=6, static schedule, loss=0.05: \
         the degenerate uniform network model vs the jitter and heavy-tailed lognormal WAN \
         classes (gqs_simnet::NetModel). decided/decide_lat/lat_over_cdelta are simulated \
         quantities (deterministic per seed) — they show the C*delta certificate yardstick \
         drifting from measured decision latency as delay tails fatten; ns_per_trial is the \
         wall-clock sampling cost, single-threaded\",\n",
    );
    json.push_str(&format!("    \"trials\": {nm_trials},\n"));
    json.push_str("    \"runs\": [\n");
    for (i, r) in nm_runs.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"net\": \"{}\", \"decided\": {:.3}, \"decide_lat\": {:.1}, \"lat_over_cdelta\": {:.3}, \"ns_per_trial\": {}}}{}\n",
            r.net.name(),
            r.decided,
            r.decide_lat,
            r.lat_over_cdelta,
            json_escape_free(r.ns_per_trial),
            if i + 1 < nm_runs.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    eprintln!("measuring fork replay vs straight-line branching ...");
    let (fr_trials, fr_branches, fr_at, fork_ns, straight_ns) = measure_fork_replay();
    json.push_str("  \"fork_replay\": {\n");
    json.push_str(
        "    \"note\": \"branched single-shot consensus on regions(3) n=9, region-outage \
         schedule, branch point past GST inside the outage churn: fork mode (one warmup per \
         trial, checkpoint, reseeded continuations off the snapshot) vs straight-line mode \
         (warmup re-run per branch). Reports are bit-identical, so the ratio is pure \
         execution cost; ns per branch, single-threaded\",\n",
    );
    json.push_str(&format!("    \"trials\": {fr_trials},\n"));
    json.push_str(&format!("    \"branches\": {fr_branches},\n"));
    json.push_str(&format!("    \"branch_at\": {fr_at},\n"));
    json.push_str(&format!("    \"fork_ns_per_branch\": {},\n", json_escape_free(fork_ns)));
    json.push_str(&format!("    \"straight_ns_per_branch\": {},\n", json_escape_free(straight_ns)));
    json.push_str(&format!("    \"straight_over_fork\": {:.2}\n", straight_ns / fork_ns));
    json.push_str("  },\n");
    json.push_str("  \"small_n_fast_path\": {\n");
    json.push_str(
        "    \"note\": \"before-values are machine-specific (see perf_snapshot.rs); \
         the ratios are meaningful only on hardware comparable to the committed BENCH.json's\",\n",
    );
    json.push_str("    \"rungs\": [\n");
    for (i, &(small_n, before_ns)) in SMALL_N_GQS_EXISTS_NS_BEFORE_MULTIWORD.iter().enumerate() {
        let after_ns = rungs
            .iter()
            .find(|r| r.n == small_n)
            .expect("every small_n reference rung is on the ladder")
            .gqs_exists_ns;
        json.push_str(&format!(
            "      {{\"n\": {}, \"gqs_exists_ns_before_multiword\": {}, \"gqs_exists_ns_after\": {}, \"after_over_before\": {:.2}}}{}\n",
            small_n,
            json_escape_free(before_ns),
            json_escape_free(after_ns),
            after_ns / before_ns,
            if i + 1 < SMALL_N_GQS_EXISTS_NS_BEFORE_MULTIWORD.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"baseline\": {\n");
    json.push_str(&format!("    \"n\": {base_n},\n"));
    json.push_str(&format!("    \"patterns\": {base_m},\n"));
    json.push_str(&format!("    \"gqs_exists_ns\": {},\n", json_escape_free(fast_ns)));
    json.push_str(&format!("    \"gqs_exists_naive_ns\": {},\n", json_escape_free(naive_ns)));
    json.push_str(&format!("    \"speedup\": {:.2}\n", speedup));
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    eprintln!("wrote {out_path}; gqs_exists speedup vs naive at n=32/16: {speedup:.2}x");
}
