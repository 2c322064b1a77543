//! `gqs_sweep` — stream a scenario grid through the sweep engine and emit
//! machine-readable aggregate tables.
//!
//! The grid is the cross product of `--n`, `--density` and `--p-chan`
//! (each a value, comma list, or inclusive range — see
//! `gqs_workloads::sweep::parse_usize_list`), over one topology family
//! and one failure-pattern family. In the default `--mode solvability`
//! every cell runs `--trials` seeded trials measuring GQS/QS+ existence,
//! the separation gap, witness size and residual SCC count; in
//! `--mode latency` each trial instead *simulates* a flooded ABD majority
//! register over the cell's topology under its first drawn failure
//! pattern and measures completion rate, operation latency and message
//! cost (`gqs_workloads::sweep::LATENCY_METRICS`); `--mode availability`
//! swaps in the self-healing register stack (retransmitting quorum
//! engines over `--loss`-lossy channels) and measures completion,
//! stalled ops, time-to-heal and retransmits/op
//! (`gqs_workloads::sweep::AVAILABILITY_METRICS`); `--mode scale` runs
//! the scale core — flooded gossip over the family's *implicit* topology
//! plus sampled-arc majority ABD, with no materialized graph or
//! fail-prone system, at sizes up to `gqs_simnet::MAX_SIM_PROCESSES`
//! (`gqs_workloads::sweep::SCALE_METRICS`). Either way results are
//! folded incrementally (constant memory per worker, no materialized
//! batches) and are bit-identical for any `--threads` value.
//!
//! The three simulated modes are the three impls of
//! `gqs_workloads::sweep::Workload`; the mode string picks one once, and
//! a single generic path runs it (`ScenarioGrid::run_sim`), checks
//! branch points and timeline windows against its horizon, logs stalls
//! and replays traces. So every simulated mode takes `--timeline <B>`,
//! `--trace-out <PATH>` and `--branch-at <T> --branches <N>`: a branched
//! trial runs one warmup to simulated time `T`, checkpoints the entire
//! simulation, and fans `N` seeded continuations off the snapshot —
//! amortizing the warmup across branches. Fork and straight-line
//! (`--branch-mode straight`) execution emit byte-identical reports.
//!
//! ```text
//! gqs_sweep --family ring --n 4..8 --patterns rotating \
//!           --p-chan 0.1,0.3,0.5 --trials 500 --seed 42 --format json
//! ```
//!
//! Output (JSON or CSV) contains no timing or environment data, so two
//! runs with the same spec diff byte for byte; wall-clock goes to stderr.

use std::time::Instant;

use gqs_workloads::sweep::{
    parse_f64_list, parse_usize_list, replay_trial_flight, replay_trial_trace, report_csv,
    report_json_exec, timeline_buckets, Availability, BranchMode, BranchSpec, Consensus, Exec,
    Latency, NetworkFamily, PatternFamily, ScenarioCell, ScenarioGrid, ScheduleFamily, StallLog,
    SweepOptions, SweepReport, TopologyFamily, TraceFormat, Workload,
};

const USAGE: &str = "\
gqs_sweep — streamed scenario-grid sweeps over the GQS decision procedures

USAGE:
    gqs_sweep [OPTIONS]

GRID (each LIST is a value `6`, a comma list `4,6,8`, or an inclusive
range `4..8` / `4..16:4` / `0.1..0.5:0.2` — float ranges need a step):
    --family <F>         topology family: complete|ring|oriented-ring|star|
                         grid|two-cliques-bridge|regions|random
                                                             [default: complete]
    --n <LIST>           system sizes                        [default: 4]
    --density <LIST>     edge probability in [0, 1], random family only
                                                             [default: 0.6]
    --regions <R>        region count, regions family only    [default: 3]
    --patterns <P>       pattern family: rotating|random|adversarial
                                                             [default: rotating]
    --pattern-count <K>  patterns per system (random/adversarial) [default: 3]
    --max-crashes <K>    max crashes per pattern (random)     [default: 1]
    --p-chan <LIST>      channel-failure probabilities in [0, 1] [default: 0.2]
    --loss <LIST>        per-channel message-loss probabilities in [0, 1]
                         for the simulated modes (solvability collapses
                         the axis)                           [default: 0]
    --schedule <LIST>    comma list of fault schedules for the simulated
                         modes: static|region-outage|flapping-link|
                         hub-crash|rolling-restart (solvability collapses
                         the axis)                           [default: static]
    --net <LIST>         comma list of network models for the simulated
                         modes: uniform|constant|jitter|lognormal|
                         lognormal-asym — per-channel-class delay
                         distributions, intra-region vs gateway WAN
                         (solvability collapses the axis)   [default: uniform]

EXECUTION:
    --mode <M>           solvability (decision procedures), latency
                         (simulated flooded ABD register: completion rate,
                         op latency, msgs/op), consensus (simulated
                         single-shot Figure-6 consensus: decided fraction,
                         views and time to decide, decision latency over
                         C x delta, msgs/op), availability (simulated
                         retrying ABD register, re-sending unanswered
                         quorum requests over lossy links: completion
                         rate, stalled ops, time-to-heal, retransmits/op)
                         or scale (flooded gossip over the implicit
                         topology + sampled-arc majority ABD; families
                         complete|ring|grid|regions only; collapses the
                         pattern/schedule/loss/density axes)
                                               [default: solvability]

SIZE LIMITS: the decision modes build quorum systems and fail-prone
structures, bounded at n <= 1024 (gqs_core::MAX_PROCESSES); scale mode
runs implicit topologies up to n <= 4194304 (gqs_simnet::MAX_SIM_PROCESSES).
    --trials <N>         trials per cell                      [default: 100]
    --seed <S>           base seed                            [default: 42]
    --threads <T>        worker threads          [default: GQS_THREADS or auto]
    --shard <K>          trials per shard                     [default: 64]

BRANCHING (simulated modes latency|consensus|availability only; both
flags required together — every trial runs one warmup to the branch
point, snapshots the whole simulation, and fans out seeded
continuations, so the warmup cost is paid once per trial instead of
once per branch):
    --branch-at <T>      fork each trial at simulated time T (must be
                         positive and below the mode's horizon: 200000
                         for consensus, 100000 for latency and
                         availability)
    --branches <N>       seeded continuations per trial (at least 1);
                         each contributes one row to the aggregates
    --branch-mode <M>    fork (checkpoint/restore) or straight (re-run
                         the warmup per branch; same output byte for
                         byte — a determinism cross-check) [default: fork]

OBSERVABILITY (simulated modes latency|consensus|availability only):
    --timeline <B>       sample windowed metrics every B simulated ticks:
                         events/window, completed ops/window and cumulative
                         availability per window, appended to the JSON
                         report as a per-cell \"timeline\" object. At most
                         256 windows per run (raise B on long horizons);
                         incompatible with --branch-at. Windowing is pure
                         observation — base aggregates are byte-identical
                         to the unwindowed run.
    --trace-out <PATH>   after the sweep, re-run one trial serially with
                         the trace plane attached and write the trace to
                         PATH. The replay processes the exact event
                         sequence the sweep aggregated (same per-trial
                         seeding; tracing never perturbs a run), so the
                         dump is byte-identical for any --threads. If the
                         traced trial hits its event cap, the flight
                         recorder's dump (stalled ops, armed timers, last
                         events) goes to stderr.
    --trace-cell <I>     grid-cell index of the trial to trace [default: 0]
    --trace-trial <T>    trial index within the cell           [default: 0]
    --trace-format <F>   jsonl (one event object per line) or chrome
                         (chrome://tracing / Perfetto array with causal
                         op and QAF phase spans)           [default: jsonl]

The three simulated modes are one workload abstraction run by one
driver, so timelines, branching, trace replay and stall logging behave
the same in each.

When a simulated trial hits its event cap (GQS_MAX_EVENTS overrides the
default of 50000000), the sweep still completes — the stalled trial
reports what it measured — and a one-line stderr hint names the first
stalled cell/trial (and branch, in a branched run). Unbranched runs get
the trace flags that replay it; replay re-runs only unbranched trials.

OUTPUT:
    --format <json|csv>  output format                        [default: json]
    --out <PATH>         write to PATH instead of stdout
    -h, --help           print this help

Aggregates per cell and metric: count, mean, min, max, p50/p90/p99
(quantiles from a mergeable sketch, ~1.5% relative error). Metrics:
gqs, qs_plus, gap, w_min, sccs_f0 (solvability); completed, lat_mean,
lat_max, msgs_per_op (latency); decided, views, decide_lat,
lat_over_cdelta, msgs_per_op (consensus); completed, stalled,
time_to_heal, retransmits_per_op (availability); or reached, spread,
msgs_per_proc, abd_completed, abd_msgs_per_proc (scale) — all
deterministic, so output is byte-identical across runs and thread counts.
";

struct Args {
    family: TopologyFamily,
    ns: Vec<usize>,
    densities: Vec<f64>,
    regions: usize,
    schedules: Vec<ScheduleFamily>,
    nets: Vec<NetworkFamily>,
    pattern_kind: String,
    pattern_count: usize,
    max_crashes: usize,
    p_chans: Vec<f64>,
    losses: Vec<f64>,
    mode: String,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
    shard: Option<usize>,
    branch_at: Option<u64>,
    branches: Option<usize>,
    branch_mode: BranchMode,
    timeline: Option<u64>,
    trace_out: Option<String>,
    trace_cell: Option<usize>,
    trace_trial: Option<usize>,
    trace_format: TraceFormat,
    format: String,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        family: TopologyFamily::Complete,
        ns: vec![4],
        densities: vec![0.6],
        regions: 3,
        schedules: vec![ScheduleFamily::Static],
        nets: vec![NetworkFamily::Uniform],
        pattern_kind: "rotating".to_string(),
        pattern_count: 3,
        max_crashes: 1,
        p_chans: vec![0.2],
        losses: vec![0.0],
        mode: "solvability".to_string(),
        trials: 100,
        seed: 42,
        threads: None,
        shard: None,
        branch_at: None,
        branches: None,
        branch_mode: BranchMode::Fork,
        timeline: None,
        trace_out: None,
        trace_cell: None,
        trace_trial: None,
        trace_format: TraceFormat::Jsonl,
        format: "json".to_string(),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--family" => args.family = value()?.parse()?,
            "--n" => args.ns = parse_usize_list(&value()?)?,
            "--density" => args.densities = parse_f64_list(&value()?)?,
            "--regions" => {
                args.regions = value()?.parse().map_err(|e| format!("bad region count: {e}"))?
            }
            "--schedule" => {
                args.schedules = value()?
                    .split(',')
                    .map(|p| p.trim().parse::<ScheduleFamily>())
                    .collect::<Result<Vec<_>, _>>()?
            }
            "--net" => {
                args.nets = value()?
                    .split(',')
                    .map(|p| p.trim().parse::<NetworkFamily>())
                    .collect::<Result<Vec<_>, _>>()?
            }
            "--patterns" => args.pattern_kind = value()?,
            "--pattern-count" => {
                args.pattern_count = value()?.parse().map_err(|e| format!("bad count: {e}"))?
            }
            "--max-crashes" => {
                args.max_crashes = value()?.parse().map_err(|e| format!("bad count: {e}"))?
            }
            "--p-chan" => args.p_chans = parse_f64_list(&value()?)?,
            "--loss" => args.losses = parse_f64_list(&value()?)?,
            "--mode" => args.mode = value()?,
            "--trials" => args.trials = value()?.parse().map_err(|e| format!("bad trials: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--threads" => {
                args.threads = Some(value()?.parse().map_err(|e| format!("bad threads: {e}"))?)
            }
            "--shard" => {
                args.shard = Some(value()?.parse().map_err(|e| format!("bad shard: {e}"))?)
            }
            "--branch-at" => {
                args.branch_at = Some(value()?.parse().map_err(|e| format!("bad branch-at: {e}"))?)
            }
            "--branches" => {
                args.branches = Some(value()?.parse().map_err(|e| format!("bad branches: {e}"))?)
            }
            "--branch-mode" => {
                args.branch_mode = match value()?.as_str() {
                    "fork" => BranchMode::Fork,
                    "straight" => BranchMode::Straight,
                    other => {
                        return Err(format!(
                            "unknown branch mode {other:?} (expected fork|straight)"
                        ))
                    }
                }
            }
            "--timeline" => {
                args.timeline = Some(value()?.parse().map_err(|e| format!("bad timeline: {e}"))?)
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--trace-cell" => {
                args.trace_cell =
                    Some(value()?.parse().map_err(|e| format!("bad trace-cell: {e}"))?)
            }
            "--trace-trial" => {
                args.trace_trial =
                    Some(value()?.parse().map_err(|e| format!("bad trace-trial: {e}"))?)
            }
            "--trace-format" => {
                args.trace_format = match value()?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(format!(
                            "unknown trace format {other:?} (expected jsonl|chrome)"
                        ))
                    }
                }
            }
            "--format" => args.format = value()?,
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.pattern_count == 0 {
        return Err("--pattern-count must be at least 1".to_string());
    }
    if args.trials == 0 {
        return Err("--trials must be at least 1 (an empty grid reports nothing)".to_string());
    }
    if args.regions == 0 {
        return Err("--regions must be at least 1".to_string());
    }
    if args.schedules.is_empty() {
        return Err("--schedule needs at least one family".to_string());
    }
    // Probabilities, checked on every value (NaN included) even where the
    // grid later collapses the axis.
    for (flag, values) in
        [("--density", &args.densities), ("--p-chan", &args.p_chans), ("--loss", &args.losses)]
    {
        if let Some(bad) = values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(format!("{flag} values must be in [0, 1] (got {bad})"));
        }
    }
    if !matches!(
        args.mode.as_str(),
        "solvability" | "latency" | "consensus" | "availability" | "scale"
    ) {
        return Err(format!(
            "unknown mode {:?} (expected solvability|latency|consensus|availability|scale)",
            args.mode
        ));
    }
    if !matches!(args.format.as_str(), "json" | "csv") {
        return Err(format!("unknown format {:?} (expected json|csv)", args.format));
    }
    let simulated = matches!(args.mode.as_str(), "latency" | "consensus" | "availability");
    match (args.branch_at, args.branches) {
        (None, None) => {}
        (Some(_), None) => return Err("--branch-at needs --branches".to_string()),
        (None, Some(_)) => return Err("--branches needs --branch-at".to_string()),
        (Some(at), Some(branches)) => {
            if !simulated {
                return Err(format!(
                    "--branch-at/--branches need --mode latency, consensus or availability, \
                     not {:?}",
                    args.mode
                ));
            }
            if at == 0 {
                return Err("--branch-at must be positive (the warmup must run before the fork)"
                    .to_string());
            }
            if branches == 0 {
                return Err("--branches must be at least 1".to_string());
            }
        }
    }
    if let Some(bucket) = args.timeline {
        if !simulated {
            return Err(format!(
                "--timeline needs --mode latency, consensus or availability, not {:?}",
                args.mode
            ));
        }
        if args.branch_at.is_some() {
            return Err("--timeline is incompatible with --branch-at (a branched trial has \
                        no single timeline)"
                .to_string());
        }
        if bucket == 0 {
            return Err("--timeline bucket must be positive".to_string());
        }
    }
    if args.trace_out.is_some() {
        if !simulated {
            return Err(format!(
                "--trace-out needs --mode latency, consensus or availability, not {:?} \
                 (the solvability and scale modes run no traceable protocol stack)",
                args.mode
            ));
        }
        if args.branch_at.is_some() {
            return Err("--trace-out is incompatible with --branch-at (trace replay re-runs \
                        the straight trial)"
                .to_string());
        }
    } else if args.trace_cell.is_some() || args.trace_trial.is_some() {
        return Err("--trace-cell/--trace-trial need --trace-out".to_string());
    }
    Ok(args)
}

/// The execution `args` ask of workload `W`, with the branch point and
/// the timeline windows checked against its horizon.
fn exec<W: Workload>(args: &Args) -> Result<Exec, String> {
    let (mode, horizon) = (&args.mode, W::HORIZON);
    match (args.branch_at, args.branches, args.timeline) {
        (Some(at), _, _) if at >= horizon => {
            Err(format!("--branch-at {at} is at or past the --mode {mode} horizon of {horizon}"))
        }
        (Some(at), Some(branches), _) => {
            Ok(Exec::Branch(BranchSpec { at, branches, mode: args.branch_mode }))
        }
        (_, _, Some(bucket)) if timeline_buckets(bucket, horizon) > 256 => Err(format!(
            "--timeline {bucket} yields {} windows over the --mode {mode} horizon of {horizon}; \
             raise the bucket so at most 256 windows remain",
            timeline_buckets(bucket, horizon)
        )),
        (_, _, Some(bucket)) => Ok(Exec::Timeline(bucket)),
        _ => Ok(Exec::Plain),
    }
}

fn build_grid(args: &Args) -> Result<ScenarioGrid, String> {
    let patterns = match args.pattern_kind.as_str() {
        "rotating" => PatternFamily::Rotating,
        "random" => {
            PatternFamily::Random { patterns: args.pattern_count, max_crashes: args.max_crashes }
        }
        "adversarial" => PatternFamily::Adversarial { patterns: args.pattern_count },
        other => {
            return Err(format!(
                "unknown pattern family {other:?} (expected rotating|random|adversarial)"
            ))
        }
    };
    let family = match args.family {
        TopologyFamily::Regions { .. } => TopologyFamily::Regions { regions: args.regions },
        f => f,
    };
    let scale = args.mode == "scale";
    if scale && family.implicit(2).is_none() {
        return Err(format!(
            "--mode scale needs an implicit topology family (complete|ring|grid|regions), not {}",
            family.name()
        ));
    }
    // Each mode's size ceiling: the decision modes build quorum systems
    // and fail-prone structures, whose bitsets stop at
    // gqs_core::MAX_PROCESSES; scale mode only needs the simulator's
    // pid-space.
    let (n_cap, cap_origin) = if scale {
        (gqs_simnet::MAX_SIM_PROCESSES, "gqs_simnet::MAX_SIM_PROCESSES")
    } else {
        (gqs_core::MAX_PROCESSES, "gqs_core::MAX_PROCESSES")
    };
    // Non-random families ignore density; collapse that axis so the grid
    // has no duplicate cells. Solvability decides existence, not
    // executions, so the schedule and loss axes collapse there the same
    // way; scale mode runs fault-free and collapses the pattern-adjacent
    // axes entirely.
    let densities: &[f64] = if family == TopologyFamily::Random { &args.densities } else { &[1.0] };
    let schedules: &[ScheduleFamily] = if args.mode == "solvability" || scale {
        &[ScheduleFamily::Static]
    } else {
        &args.schedules
    };
    let losses: &[f64] = if args.mode == "solvability" || scale { &[0.0] } else { &args.losses };
    let nets: &[NetworkFamily] =
        if args.mode == "solvability" || scale { &[NetworkFamily::Uniform] } else { &args.nets };
    let p_chans: &[f64] = if scale { &[0.0] } else { &args.p_chans };
    let mut cells = Vec::new();
    for &n in &args.ns {
        if n < 2 {
            return Err(format!("--n values must be at least 2 (got {n})"));
        }
        if n > n_cap {
            return Err(format!(
                "--n {n} exceeds the --mode {} limit of {n_cap} ({cap_origin})",
                args.mode
            ));
        }
        if let TopologyFamily::Regions { regions } = family {
            if n < regions {
                return Err(format!(
                    "--n {n} is smaller than --regions {regions} (every region needs a process)"
                ));
            }
        }
        for &density in densities {
            for &p_chan in p_chans {
                for &loss in losses {
                    for &schedule in schedules {
                        for &net in nets {
                            cells.push(ScenarioCell {
                                family,
                                n,
                                density,
                                patterns,
                                p_chan,
                                loss,
                                schedule,
                                net,
                            });
                        }
                    }
                }
            }
        }
    }
    if cells.is_empty() {
        return Err("the grid is empty: every axis needs at least one value".to_string());
    }
    // The replay coordinates must exist before the sweep runs, or its
    // report would be lost to a late error.
    if let Some(cell) = args.trace_cell.filter(|&c| c >= cells.len()) {
        return Err(format!(
            "--trace-cell {cell} is out of range (the grid has {} cells)",
            cells.len()
        ));
    }
    if let Some(trial) = args.trace_trial.filter(|&t| t >= args.trials) {
        return Err(format!(
            "--trace-trial {trial} is out of range (each cell runs {} trials)",
            args.trials
        ));
    }
    Ok(ScenarioGrid { cells, trials: args.trials, seed: args.seed })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));
    let grid = build_grid(&args).unwrap_or_else(|e| usage_error(&e));
    let opts = SweepOptions { threads: args.threads, shard: args.shard, ..Default::default() };
    let (report, exec) = match args.mode.as_str() {
        "latency" => simulate::<Latency>(&args, &grid, opts),
        "consensus" => simulate::<Consensus>(&args, &grid, opts),
        "availability" => simulate::<Availability>(&args, &grid, opts),
        "scale" => (timed(&grid, || grid.run_scale(&opts)), Exec::Plain),
        _ => (timed(&grid, || grid.run(&opts)), Exec::Plain),
    };
    let rendered = match args.format.as_str() {
        "json" => report_json_exec(&grid, &report, exec),
        _ => report_csv(&grid, &report),
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("gqs_sweep: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("gqs_sweep: wrote {path}");
        }
        None => print!("{rendered}"),
    }
}

/// Reports a usage error as one stderr line and exits 2.
fn usage_error(e: &str) -> ! {
    eprintln!("gqs_sweep: {e}");
    std::process::exit(2);
}

/// Runs `sweep` and prints its timing line to stderr. `perfbench/run.py`
/// parses this line, so its format is fixed.
fn timed(grid: &ScenarioGrid, sweep: impl FnOnce() -> SweepReport) -> SweepReport {
    let start = Instant::now();
    let report = sweep();
    let elapsed = start.elapsed();
    let total_trials = grid.trials * grid.cells.len();
    eprintln!(
        "gqs_sweep: {} cells x {} trials in {:.2?} ({:.0} trials/s)",
        grid.cells.len(),
        grid.trials,
        elapsed,
        total_trials as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    report
}

/// Runs the grid as simulated workload `W`, then prints the stall hint
/// and writes the requested trace replay.
fn simulate<W: Workload>(
    args: &Args,
    grid: &ScenarioGrid,
    opts: SweepOptions,
) -> (SweepReport, Exec) {
    let exec = exec::<W>(args).unwrap_or_else(|e| usage_error(&e));
    let stall_log = StallLog::default();
    let opts = SweepOptions { stall_log: Some(stall_log.clone()), ..opts };
    let report = timed(grid, || grid.run_sim::<W>(&opts, exec));
    // The parallel engine pushes in worker order, so sort before naming
    // "the first" stalled run. `perfbench/run.py` parses the `N trial(s)
    // hit the event cap` prefix.
    let mut stalls = stall_log.lock().expect("stall log poisoned").clone();
    stalls.sort();
    if let Some(first) = stalls.first() {
        let mut trials: Vec<(usize, usize)> = stalls.iter().map(|s| (s.cell, s.trial)).collect();
        trials.dedup();
        let (cell, trial, ops) = (first.cell, first.trial, first.stalled_ops);
        match first.branch {
            None => eprintln!(
                "gqs_sweep: {} trial(s) hit the event cap; first: cell {cell} trial {trial} with \
                 {ops} stalled op(s) — replay it with --trace-out stall.jsonl --trace-cell {cell} \
                 --trace-trial {trial}",
                trials.len(),
            ),
            Some(branch) => eprintln!(
                "gqs_sweep: {} trial(s) hit the event cap in {} branch run(s); first: cell \
                 {cell} trial {trial} branch {branch} with {ops} stalled op(s)",
                trials.len(),
                stalls.len(),
            ),
        }
    }
    if let Some(path) = &args.trace_out {
        let cell = args.trace_cell.unwrap_or(0);
        let trial = args.trace_trial.unwrap_or(0);
        let trace =
            replay_trial_trace::<W>(grid, cell, trial, args.trace_format).unwrap_or_else(|e| {
                usage_error(&format!("cannot trace cell {cell} trial {trial}: {e}"))
            });
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("gqs_sweep: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("gqs_sweep: wrote trace of cell {cell} trial {trial} to {path}");
        // The flight recorder dumps exactly when the traced trial hit its
        // event cap: stalled ops, armed timers, the last events.
        match replay_trial_flight::<W>(grid, cell, trial) {
            Ok(Some(dump)) => eprintln!("{dump}"),
            Ok(None) => {}
            Err(e) => eprintln!("gqs_sweep: flight replay failed: {e}"),
        }
    }
    (report, exec)
}
