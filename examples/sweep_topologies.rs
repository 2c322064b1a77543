//! How solvability — and protocol latency — vary across network shapes:
//! a streamed scenario grid over every topology family, under rotating
//! crashes and under targeted adversarial cuts, followed by a
//! protocol-latency sweep that *simulates* a flooded ABD register on
//! each shape.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sweep_topologies
//! ```
//!
//! This is the library-level twin of the `gqs_sweep` CLI: it builds a
//! [`ScenarioGrid`] by hand, streams it through the engine (constant
//! memory, deterministic for any `GQS_THREADS`), and prints a comparison
//! table. Try flipping `PATTERNS` to `PatternFamily::Rotating` or raising
//! `TRIALS` — aggregates for the same seed never change across thread
//! counts, so numbers are comparable machine to machine.

use gqs::workloads::sweep::{
    Exec, Latency, NetworkFamily, PatternFamily, ScenarioCell, ScenarioGrid, ScheduleFamily,
    SweepOptions, TopologyFamily,
};
use gqs::workloads::Table;

const TRIALS: usize = 400;

fn main() {
    let families = [
        TopologyFamily::Complete,
        TopologyFamily::TwoCliquesBridge,
        TopologyFamily::Grid,
        TopologyFamily::Ring,
        TopologyFamily::OrientedRing,
        TopologyFamily::Star,
    ];
    for (title, patterns) in [
        ("rotating crashes (Figure-1 style), p_chan = 0.1", PatternFamily::Rotating),
        ("targeted adversarial cuts, 6 patterns", PatternFamily::Adversarial { patterns: 6 }),
    ] {
        let grid = ScenarioGrid {
            cells: families
                .iter()
                .map(|&family| ScenarioCell {
                    family,
                    n: 6,
                    density: 1.0,
                    patterns,
                    p_chan: 0.1,
                    loss: 0.0,
                    schedule: ScheduleFamily::Static,
                    net: NetworkFamily::Uniform,
                })
                .collect(),
            trials: TRIALS,
            seed: 2025,
        };
        let report = grid.run(&SweepOptions::default());
        let mut t = Table::new(["topology (n=6)", "GQS %", "QS+ %", "gap %", "median |W|min"]);
        for (i, cell) in grid.cells.iter().enumerate() {
            t.row([
                cell.family.name().to_string(),
                format!("{:.1}%", 100.0 * report.agg(i, "gqs").mean()),
                format!("{:.1}%", 100.0 * report.agg(i, "qs_plus").mean()),
                format!("{:.1}%", 100.0 * report.agg(i, "gap").mean()),
                format!("{:.0}", report.agg(i, "w_min").quantile(0.5)),
            ]);
        }
        println!("== {title}, {TRIALS} trials/cell ==\n{t}");
    }
    // The latency face of the same grid: each trial simulates a flooded
    // ABD majority register over the family's channels with the first
    // rotating pattern's crash striking at time zero.
    let grid = ScenarioGrid {
        cells: families
            .iter()
            .map(|&family| ScenarioCell {
                family,
                n: 6,
                density: 1.0,
                patterns: PatternFamily::Rotating,
                p_chan: 0.0,
                loss: 0.0,
                schedule: ScheduleFamily::Static,
                net: NetworkFamily::Uniform,
            })
            .collect(),
        trials: 32,
        seed: 2025,
    };
    let report = grid.run_sim::<Latency>(&SweepOptions::default(), Exec::Plain);
    let mut t = Table::new(["topology (n=6)", "completed %", "mean latency", "p90 lat", "msgs/op"]);
    for (i, cell) in grid.cells.iter().enumerate() {
        t.row([
            cell.family.name().to_string(),
            format!("{:.0}%", 100.0 * report.agg(i, "completed").mean()),
            format!("{:.0}", report.agg(i, "lat_mean").mean()),
            format!("{:.0}", report.agg(i, "lat_mean").quantile(0.9)),
            format!("{:.0}", report.agg(i, "msgs_per_op").mean()),
        ]);
    }
    println!("== simulated ABD-over-Flood latency, rotating crash f0, 32 trials/cell ==\n{t}");
    println!("note: star scores 0 under rotating crashes — the pattern that");
    println!("crashes the hub leaves no strongly connected write quorum that");
    println!("others can reach, so no GQS exists. Redundant shapes (meshes,");
    println!("bridged cliques) keep most of the complete graph's solvability");
    println!("at a fraction of its channels. Adversarial cuts are far more");
    println!("damaging per failed channel than i.i.d. noise: the same shapes");
    println!("drop to a fraction of their rotating-crash solvability, and the");
    println!("survivors often admit a GQS but no QS+ (the gap column) because");
    println!("a directed cut severs reachability in exactly one direction.");
}
