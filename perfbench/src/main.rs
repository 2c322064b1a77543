//! `perfbench` — the traced half of the repository benchmark.
//!
//! Takes the grid flags of a `gqs_sweep` invocation, rebuilds the same
//! grid, and runs it through the public `gqs_workloads::sweep::run` with
//! a trial closure of its own ([`trials::trial`]) that times the calls
//! into each layer. Nothing is traced inside the program: spans come from
//! the transparent [`probe::Timed`] node wrappers and the calls this
//! binary makes, allocations from its counting global allocator.
//!
//! ```text
//! perfbench --mode availability --family regions --n 9 ... \
//!           --seeds 42,7 --report-dir DIR [--check-threads]
//! ```
//!
//! Runs the grid once per seed and writes seed `k`'s sweep report
//! (rendered with the public `report_json`, so it must equal
//! `gqs_sweep`'s stdout for that seed byte for byte) to `DIR/slot{k}.json`.
//! Prints one JSON object of per-layer metrics, exact counts and failure
//! counts, pooled over the seeds. With `--check-threads` the first seed
//! runs a second time on one thread, and any difference in its report or
//! an exact count is a failure. `perfbench/run.py` drives it; see `perfbench/metrics.json`
//! for what each metric means.

mod probe;
mod trials;

use std::sync::Mutex;
use std::time::Instant;

use gqs_workloads::sweep::{
    self, parse_f64_list, parse_usize_list, report_json, NetworkFamily, PatternFamily,
    ScenarioCell, ScenarioGrid, ScheduleFamily, SweepOptions, SweepReport, SweepSpec,
    TopologyFamily, AVAILABILITY_METRICS, CONSENSUS_METRICS, SCALE_METRICS, SCENARIO_METRICS,
};

use probe::{LayerStats, ABD, CONSENSUS, FLOOD, GOSSIP, REGISTER};
use trials::{Mode, TrialRecord};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

struct Args {
    mode: Mode,
    cells: Vec<ScenarioCell>,
    trials: usize,
    seeds: Vec<u64>,
    threads: usize,
    report_dir: String,
    check_threads: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = "solvability".to_string();
    let mut family = TopologyFamily::Complete;
    let mut ns = vec![4];
    let mut regions = 3;
    let mut patterns = "rotating".to_string();
    let mut p_chans = vec![0.2];
    let mut losses = vec![0.0];
    let mut schedules = vec![ScheduleFamily::Static];
    let mut nets = vec![NetworkFamily::Uniform];
    let mut trials = 100;
    let mut seeds = vec![42];
    let mut threads = None;
    let mut report_dir = None;
    let mut check_threads = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-threads" {
            check_threads = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| v.parse::<usize>().map_err(|e| format!("bad {flag}: {e}"));
        match flag.as_str() {
            "--mode" => mode = value,
            "--family" => family = value.parse()?,
            "--n" => ns = parse_usize_list(&value)?,
            "--regions" => regions = int(&value)?,
            "--patterns" => patterns = value,
            "--p-chan" => p_chans = parse_f64_list(&value)?,
            "--loss" => losses = parse_f64_list(&value)?,
            "--schedule" => schedules = list(&value)?,
            "--net" => nets = list(&value)?,
            "--trials" => trials = int(&value)?,
            "--seeds" => {
                seeds = value
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad --seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--threads" => threads = Some(int(&value)?),
            "--report-dir" => report_dir = Some(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mode = match mode.as_str() {
        "solvability" => Mode::Solvability,
        "availability" => Mode::Availability,
        "consensus" => Mode::Consensus,
        "scale" => Mode::Scale,
        other => return Err(format!("mode {other:?} is not traced")),
    };
    // `gqs_sweep`'s defaults for the pattern-count and crash flags.
    let patterns = match patterns.as_str() {
        "rotating" => PatternFamily::Rotating,
        "random" => PatternFamily::Random { patterns: 3, max_crashes: 1 },
        "adversarial" => PatternFamily::Adversarial { patterns: 3 },
        other => return Err(format!("unknown pattern family {other:?}")),
    };
    if let TopologyFamily::Regions { .. } = family {
        family = TopologyFamily::Regions { regions };
    }
    // The axis collapsing of `gqs_sweep`'s grid builder, with its default
    // density for the random family.
    let decision = mode == Mode::Solvability;
    let scale = mode == Mode::Scale;
    let density = if family == TopologyFamily::Random { 0.6 } else { 1.0 };
    if decision || scale {
        schedules = vec![ScheduleFamily::Static];
        losses = vec![0.0];
        nets = vec![NetworkFamily::Uniform];
    }
    if scale {
        p_chans = vec![0.0];
    }
    let mut cells = Vec::new();
    for &n in &ns {
        for &p_chan in &p_chans {
            for &loss in &losses {
                for &schedule in &schedules {
                    for &net in &nets {
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
    let threads = threads.unwrap_or_else(gqs_workloads::par::thread_count);
    Ok(Args {
        mode,
        cells,
        trials,
        seeds,
        threads,
        report_dir: report_dir.ok_or("--report-dir is required")?,
        check_threads,
    })
}

fn list<T: std::str::FromStr<Err = String>>(value: &str) -> Result<Vec<T>, String> {
    value.split(',').map(|p| p.trim().parse()).collect()
}

/// One traced sweep: the report, every trial's record and the wall time.
struct Pass {
    report: SweepReport,
    records: Vec<TrialRecord>,
    wall_s: f64,
}

fn traced_sweep(mode: Mode, grid: &ScenarioGrid, threads: usize) -> Pass {
    let metrics = match mode {
        Mode::Solvability => SCENARIO_METRICS,
        Mode::Availability => AVAILABILITY_METRICS,
        Mode::Consensus => CONSENSUS_METRICS,
        Mode::Scale => SCALE_METRICS,
    };
    let spec = SweepSpec { cells: &grid.cells, trials: grid.trials, seed: grid.seed, metrics };
    let opts = SweepOptions { threads: Some(threads), ..Default::default() };
    let cap = trials::max_events();
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    let report = sweep::run(&spec, &opts, |cell, _t, rng| {
        let (row, rec) = trials::trial(mode, cell, rng, cap);
        records.lock().expect("a trial panicked").push(rec);
        row
    });
    let wall_s = start.elapsed().as_secs_f64();
    Pass { report, records: records.into_inner().expect("a trial panicked"), wall_s }
}

/// Sums of every trial record of a pass, and the sorted trial times.
#[derive(Default)]
struct Totals {
    trials: u64,
    trial_ns: Vec<u64>,
    rec: TrialRecord,
}

impl Totals {
    fn of(records: &[TrialRecord]) -> Totals {
        let mut t = Totals { trials: records.len() as u64, ..Totals::default() };
        for r in records {
            t.trial_ns.push(r.trial_ns);
            let s = &mut t.rec;
            s.scenario_ns += r.scenario_ns;
            s.find_gqs_ns += r.find_gqs_ns;
            s.find_gqs_calls += r.find_gqs_calls;
            s.solvable += r.solvable;
            s.qs_plus_ns += r.qs_plus_ns;
            s.qs_plus_calls += r.qs_plus_calls;
            s.sccs_ns += r.sccs_ns;
            s.sccs_calls += r.sccs_calls;
            s.sim_setup_ns += r.sim_setup_ns;
            s.run_ns += r.run_ns;
            s.run_allocs += r.run_allocs;
            s.run_alloc_bytes += r.run_alloc_bytes;
            s.stats.sent += r.stats.sent;
            s.stats.delivered += r.stats.delivered;
            s.stats.retransmitted += r.stats.retransmitted;
            s.stats.timers_fired += r.stats.timers_fired;
            s.stats.events += r.stats.events;
            s.ops += r.ops;
            s.relayed += r.relayed;
            s.peak_bytes += r.peak_bytes;
            s.processes += r.processes;
            s.checker_ns += r.checker_ns;
            s.violations += r.violations;
            s.accounting_errors += r.accounting_errors;
            s.capped += r.capped;
            s.spans.post_decision_calls += r.spans.post_decision_calls;
            for (sum, l) in s.spans.layers.iter_mut().zip(&r.spans.layers) {
                sum.calls += l.calls;
                sum.message_calls += l.message_calls;
                sum.ns += l.ns;
                sum.allocs += l.allocs;
                sum.alloc_bytes += l.alloc_bytes;
            }
        }
        t.trial_ns.sort_unstable();
        t
    }

    /// Handler cost of the layers the simulator calls directly.
    fn outermost(&self, field: impl Fn(&LayerStats) -> u64) -> u64 {
        [FLOOD, GOSSIP, ABD].iter().map(|&l| field(&self.rec.spans.layers[l])).sum()
    }

    /// Flood's own share of a field: its span minus the wrapped layer's.
    fn flood_self(&self, field: impl Fn(&LayerStats) -> u64) -> u64 {
        let l = &self.rec.spans.layers;
        field(&l[FLOOD]).saturating_sub(field(&l[REGISTER]) + field(&l[CONSENSUS]))
    }

    fn trial_us(&self, q: f64) -> f64 {
        let n = self.trial_ns.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.trial_ns[rank - 1] as f64 / 1e3
    }

    /// The counts that must repeat exactly across runs and thread counts.
    fn exact(&self) -> Vec<(&'static str, u64)> {
        let r = &self.rec;
        let l = &self.rec.spans.layers;
        vec![
            ("trials", self.trials),
            ("events", r.stats.events),
            ("sent", r.stats.sent),
            ("delivered", r.stats.delivered),
            ("timers_fired", r.stats.timers_fired),
            ("retransmitted", r.stats.retransmitted),
            ("ops", r.ops),
            ("relayed", r.relayed),
            ("sim_self_allocs", r.run_allocs.saturating_sub(self.outermost(|l| l.allocs))),
            (
                "sim_self_alloc_bytes",
                r.run_alloc_bytes.saturating_sub(self.outermost(|l| l.alloc_bytes)),
            ),
            ("flood_calls", l[FLOOD].calls),
            ("flood_message_calls", l[FLOOD].message_calls),
            ("flood_self_allocs", self.flood_self(|l| l.allocs)),
            ("register_calls", l[REGISTER].calls),
            ("consensus_calls", l[CONSENSUS].calls),
            ("consensus_post_decision_calls", r.spans.post_decision_calls),
            ("gossip_calls", l[GOSSIP].calls),
            ("abd_calls", l[ABD].calls),
            ("find_gqs_calls", r.find_gqs_calls),
            ("solvable", r.solvable),
            ("peak_bytes", r.peak_bytes),
            ("violations", r.violations),
        ]
    }

    /// The published per-layer metrics (see `perfbench/metrics.json`).
    fn metrics(&self, wall_s: f64, threads: usize) -> Vec<(&'static str, f64)> {
        let r = &self.rec;
        let l = &self.rec.spans.layers;
        let per = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let trials = self.trials;
        let events = r.stats.events;
        let busy_ns: u64 = self.trial_ns.iter().sum();
        vec![
            ("sweep.busy_share", busy_ns as f64 / 1e9 / (wall_s * threads as f64)),
            ("sweep.trial_us_p50", self.trial_us(0.5)),
            ("sweep.trial_us_p99", self.trial_us(0.99)),
            ("sweep.trials", trials as f64),
            ("scenario.us_per_trial", per(r.scenario_ns, trials) / 1e3),
            ("finder.find_gqs_us", per(r.find_gqs_ns, r.find_gqs_calls) / 1e3),
            ("finder.qs_plus_us", per(r.qs_plus_ns, r.qs_plus_calls) / 1e3),
            ("finder.solvable_share", per(r.solvable, r.find_gqs_calls)),
            ("graph.sccs_us", per(r.sccs_ns, r.sccs_calls) / 1e3),
            ("sim.setup_us_per_trial", per(r.sim_setup_ns, trials) / 1e3),
            ("sim.events_per_trial", per(events, trials)),
            (
                "sim.self_ns_per_event",
                per(r.run_ns.saturating_sub(self.outermost(|l| l.ns)), events),
            ),
            (
                "sim.allocs_per_event",
                per(r.run_allocs.saturating_sub(self.outermost(|l| l.allocs)), events),
            ),
            (
                "sim.alloc_bytes_per_event",
                per(r.run_alloc_bytes.saturating_sub(self.outermost(|l| l.alloc_bytes)), events),
            ),
            ("sim.delivered_share", per(r.stats.delivered, r.stats.sent)),
            ("sim.timers_per_trial", per(r.stats.timers_fired, trials)),
            ("flood.self_ns_per_call", per(self.flood_self(|l| l.ns), l[FLOOD].calls)),
            ("flood.calls_per_trial", per(l[FLOOD].calls, trials)),
            ("flood.fresh_share", per(r.relayed, l[FLOOD].message_calls)),
            ("flood.allocs_per_call", per(self.flood_self(|l| l.allocs), l[FLOOD].calls)),
            ("register.ns_per_call", per(l[REGISTER].ns, l[REGISTER].calls)),
            ("register.calls_per_trial", per(l[REGISTER].calls, trials)),
            (
                "register.retransmits_per_op",
                if l[REGISTER].calls == 0 { 0.0 } else { per(r.stats.retransmitted, r.ops) },
            ),
            ("consensus.ns_per_call", per(l[CONSENSUS].ns, l[CONSENSUS].calls)),
            ("consensus.calls_per_trial", per(l[CONSENSUS].calls, trials)),
            ("consensus.post_decision_share", per(r.spans.post_decision_calls, l[CONSENSUS].calls)),
            ("scale.gossip_ns_per_call", per(l[GOSSIP].ns, l[GOSSIP].calls)),
            ("scale.abd_ns_per_call", per(l[ABD].ns, l[ABD].calls)),
            ("scale.bytes_per_process", per(r.peak_bytes, r.processes)),
            ("checker.us_per_trial", per(r.checker_ns, trials) / 1e3),
            ("checker.violations", r.violations as f64),
        ]
    }
}

fn json_object<V: std::fmt::Display>(pairs: &[(&str, V)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut records = Vec::new();
    let mut wall_s = 0.0;
    let mut first = None;
    for (k, &seed) in args.seeds.iter().enumerate() {
        let grid = ScenarioGrid { cells: args.cells.clone(), trials: args.trials, seed };
        let pass = traced_sweep(args.mode, &grid, args.threads);
        let path = format!("{}/slot{k}.json", args.report_dir);
        if let Err(e) = std::fs::write(&path, report_json(&grid, &pass.report)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        wall_s += pass.wall_s;
        if k == 0 {
            first = Some((grid, pass.report, Totals::of(&pass.records).exact()));
        }
        records.extend(pass.records);
    }
    // Thread invariance: the first seed's grid on one thread must produce
    // the same report and the same exact counts.
    let mut thread_mismatches = 0u64;
    if let (true, Some((grid, report, exact))) = (args.check_threads, &first) {
        let single = traced_sweep(args.mode, grid, 1);
        if single.report != *report {
            eprintln!(
                "perfbench: the 1-thread report differs from the {}-thread one",
                args.threads
            );
            thread_mismatches += 1;
        }
        for ((name, a), (_, b)) in exact.iter().zip(Totals::of(&single.records).exact()) {
            if *a != b {
                eprintln!(
                    "perfbench: exact count {name} is {a} at {} threads, {b} at 1",
                    args.threads
                );
                thread_mismatches += 1;
            }
        }
    }
    let totals = Totals::of(&records);
    let r = &totals.rec;
    let failures = [
        ("violations", r.violations),
        ("accounting", r.accounting_errors),
        ("capped", r.capped),
        ("thread_mismatches", thread_mismatches),
    ];
    println!(
        "{{\"trials\": {}, \"threads\": {}, \"wall_s\": {}, \"failures\": {}, \"exact\": {}, \"metrics\": {}}}",
        totals.trials,
        args.threads,
        wall_s,
        json_object(&failures),
        json_object(&totals.exact()),
        json_object(&totals.metrics(wall_s, args.threads)),
    );
}
