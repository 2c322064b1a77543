//! Golden test for the `gqs_sweep` binary: a tiny grid's JSON output must
//! be byte-identical to the checked-in `golden/tiny_sweep.json`, for any
//! thread count — the CLI-level face of the sweep engine's determinism
//! contract. (CI runs the same comparison as a shell smoke job.)
//!
//! If an intentional change to the metrics, the sketch, or the JSON shape
//! lands, regenerate the golden file with the command in `golden_args`.
//!
//! Portability note: the quantile sketch's bucket boundaries go through
//! `f64::ln`/`powi`, whose last-ulp rounding is libm-specific. The
//! determinism promise (same bytes for any thread count / shard size) is
//! per-platform; on a toolchain whose libm rounds differently, regenerate
//! the golden file once rather than chasing the final digits.

use std::process::Command;

/// The exact invocation `golden/tiny_sweep.json` was produced with.
fn golden_args() -> Vec<&'static str> {
    vec![
        "--family",
        "two-cliques-bridge",
        "--n",
        "6",
        "--patterns",
        "rotating",
        "--p-chan",
        "0.25",
        "--trials",
        "8",
        "--seed",
        "7",
        "--format",
        "json",
    ]
}

fn run_sweep(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(golden_args())
        .args(extra)
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "gqs_sweep failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

#[test]
fn tiny_grid_matches_golden_aggregate() {
    let golden = include_str!("../golden/tiny_sweep.json");
    let got = run_sweep(&[]);
    assert_eq!(
        got, golden,
        "gqs_sweep output drifted from golden/tiny_sweep.json; if the change \
         is intentional, regenerate the golden file"
    );
    // And the determinism contract at the CLI boundary: forcing one
    // worker must reproduce the same bytes.
    let single = run_sweep(&["--threads", "1"]);
    assert_eq!(single, golden, "--threads 1 output differs from golden");
}

/// The exact invocation `golden/tiny_latency.json` was produced with.
fn latency_golden_args() -> Vec<&'static str> {
    vec![
        "--mode",
        "latency",
        "--family",
        "ring",
        "--n",
        "5",
        "--patterns",
        "rotating",
        "--p-chan",
        "0,0.3",
        "--trials",
        "6",
        "--seed",
        "11",
        "--format",
        "json",
    ]
}

#[test]
fn tiny_latency_grid_matches_golden_aggregate() {
    let golden = include_str!("../golden/tiny_latency.json");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(latency_golden_args())
            .args(extra)
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("output is UTF-8")
    };
    let got = run(&[]);
    assert_eq!(
        got, golden,
        "latency-mode output drifted from golden/tiny_latency.json; if the \
         change is intentional (e.g. a simulator or protocol change shifting \
         latencies), regenerate the golden file"
    );
    assert!(
        got.contains("\"metrics\": [\"completed\", \"lat_mean\", \"lat_max\", \"msgs_per_op\"]")
    );
    // The determinism contract holds for simulated latency trials too.
    let single = run(&["--threads", "1"]);
    assert_eq!(single, golden, "--threads 1 latency output differs from golden");
}

/// The exact invocation `golden/tiny_consensus.json` was produced with:
/// a 3-region WAN under a staggered region-outage schedule, in consensus
/// mode.
fn consensus_golden_args() -> Vec<&'static str> {
    vec![
        "--mode",
        "consensus",
        "--family",
        "regions",
        "--regions",
        "3",
        "--n",
        "6",
        "--patterns",
        "rotating",
        "--p-chan",
        "0",
        "--schedule",
        "region-outage",
        "--trials",
        "4",
        "--seed",
        "13",
        "--format",
        "json",
    ]
}

#[test]
fn tiny_consensus_grid_matches_golden_aggregate() {
    let golden = include_str!("../golden/tiny_consensus.json");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(consensus_golden_args())
            .args(extra)
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("output is UTF-8")
    };
    let got = run(&[]);
    assert_eq!(
        got, golden,
        "consensus-mode output drifted from golden/tiny_consensus.json; if the \
         change is intentional (e.g. a simulator, consensus or fault-script \
         change shifting decisions), regenerate the golden file"
    );
    assert!(got.contains(
        "\"metrics\": [\"decided\", \"views\", \"decide_lat\", \"lat_over_cdelta\", \"msgs_per_op\"]"
    ));
    assert!(got.contains("\"schedule\": \"region-outage\""));
    // The determinism contract holds for simulated consensus trials too.
    let single = run(&["--threads", "1"]);
    assert_eq!(single, golden, "--threads 1 consensus output differs from golden");
}

/// The exact invocation `golden/tiny_availability.json` was produced
/// with: a 3-region WAN under a staggered region-outage schedule with 10%
/// per-channel message loss, in availability mode (the self-healing
/// register stack).
fn availability_golden_args() -> Vec<&'static str> {
    vec![
        "--mode",
        "availability",
        "--family",
        "regions",
        "--regions",
        "3",
        "--n",
        "6",
        "--patterns",
        "rotating",
        "--p-chan",
        "0",
        "--loss",
        "0.1",
        "--schedule",
        "region-outage",
        "--trials",
        "4",
        "--seed",
        "17",
        "--format",
        "json",
    ]
}

#[test]
fn tiny_availability_grid_matches_golden_aggregate() {
    let golden = include_str!("../golden/tiny_availability.json");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(availability_golden_args())
            .args(extra)
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("output is UTF-8")
    };
    let got = run(&[]);
    assert_eq!(
        got, golden,
        "availability-mode output drifted from golden/tiny_availability.json; \
         if the change is intentional (e.g. a retransmission or loss-model \
         change shifting completions), regenerate the golden file"
    );
    assert!(got.contains(
        "\"metrics\": [\"completed\", \"stalled\", \"time_to_heal\", \"retransmits_per_op\"]"
    ));
    assert!(got.contains("\"loss\": 0.1"));
    // The determinism contract holds for availability trials too.
    let single = run(&["--threads", "1"]);
    assert_eq!(single, golden, "--threads 1 availability output differs from golden");
}

/// The exact invocation `golden/tiny_lognormal.json` was produced with:
/// a 3-region WAN under heavy-tailed lognormal delays with 5% message
/// loss, in latency mode. The polar-method normal sampler consumes a
/// variable number of RNG draws per delay, so this golden pins both the
/// sampler's cross-run determinism and its thread-invariance.
fn lognormal_golden_args() -> Vec<&'static str> {
    vec![
        "--mode",
        "latency",
        "--family",
        "regions",
        "--regions",
        "3",
        "--n",
        "6",
        "--patterns",
        "rotating",
        "--p-chan",
        "0",
        "--loss",
        "0.05",
        "--net",
        "lognormal",
        "--trials",
        "6",
        "--seed",
        "19",
        "--format",
        "json",
    ]
}

#[test]
fn tiny_lognormal_grid_matches_golden_aggregate() {
    let golden = include_str!("../golden/tiny_lognormal.json");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(lognormal_golden_args())
            .args(extra)
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("output is UTF-8")
    };
    let got = run(&[]);
    assert_eq!(
        got, golden,
        "lognormal-net output drifted from golden/tiny_lognormal.json; if the \
         change is intentional (e.g. a sampler or network-model change \
         shifting delays), regenerate the golden file"
    );
    assert!(got.contains("\"net\": \"lognormal\""));
    // Thread-invariance despite the variable-draw-count sampler.
    let single = run(&["--threads", "1"]);
    assert_eq!(single, golden, "--threads 1 lognormal output differs from golden");
    let eight = run(&["--threads", "8"]);
    assert_eq!(eight, golden, "--threads 8 lognormal output differs from golden");
}

/// `--net uniform` is the degenerate case: it routes delays through the
/// NetModel path but must reproduce the plain-DelayModel golden byte for
/// byte (same draws, same omitted JSON field).
#[test]
fn explicit_uniform_net_reproduces_the_latency_golden() {
    let golden = include_str!("../golden/tiny_latency.json");
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(latency_golden_args())
        .args(["--net", "uniform"])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert_eq!(got, golden, "--net uniform must be byte-identical to the default path");
}

#[test]
fn net_axis_multiplies_latency_cells() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--mode",
            "latency",
            "--family",
            "ring",
            "--n",
            "4",
            "--p-chan",
            "0",
            "--net",
            "uniform,constant,jitter",
            "--trials",
            "2",
            "--seed",
            "3",
            "--format",
            "csv",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // 3 network families x 4 latency metrics + header.
    assert_eq!(text.lines().count(), 1 + 3 * 4);
    assert!(text.contains(",uniform,"));
    assert!(text.contains(",constant,"));
    assert!(text.contains(",jitter,"));
}

#[test]
fn unknown_mode_fails_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(["--mode", "throughput"])
        .output()
        .expect("gqs_sweep runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("solvability|latency|consensus|availability")
    );
}

#[test]
fn json_output_is_well_formed() {
    let got = run_sweep(&["--threads", "4"]);
    // A minimal structural check (no JSON parser in-tree): balanced
    // braces/brackets outside strings and the expected top-level keys.
    let (mut depth, mut max_depth) = (0i64, 0i64);
    let mut in_string = false;
    let mut prev = ' ';
    for ch in got.chars() {
        if in_string {
            if ch == '"' && prev != '\\' {
                in_string = false;
            }
        } else {
            match ch {
                '"' => in_string = true,
                '{' | '[' => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced closers");
        }
        prev = ch;
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(max_depth >= 3, "expected nested cells/aggregates");
    for key in ["\"schema\"", "\"metrics\"", "\"cells\"", "\"aggregates\"", "\"complete\""] {
        assert!(got.contains(key), "missing {key}");
    }
}

#[test]
fn csv_output_has_one_row_per_cell_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--family", "ring", "--n", "4,6", "--p-chan", "0.1,0.3", "--trials", "4", "--seed",
            "1", "--format", "csv",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // 2 n-values x 2 p-chan values x 5 metrics + header.
    assert_eq!(text.lines().count(), 1 + 2 * 2 * 5);
    assert!(text.starts_with("family,n,density,patterns,p_chan,loss,schedule,net,trials,metric,"));
}

#[test]
fn schedule_axis_multiplies_latency_cells() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--mode",
            "latency",
            "--family",
            "ring",
            "--n",
            "4",
            "--p-chan",
            "0",
            "--schedule",
            "static,rolling-restart",
            "--trials",
            "2",
            "--seed",
            "3",
            "--format",
            "csv",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // 2 schedules x 4 latency metrics + header.
    assert_eq!(text.lines().count(), 1 + 2 * 4);
    assert!(text.contains(",static,"));
    assert!(text.contains(",rolling-restart,"));
}

/// The exact invocation `golden/tiny_trace.jsonl` was produced with: the
/// self-healing register over a lossy complete graph in availability
/// mode, tracing trial 1 of the single cell — a run whose trace exercises
/// the whole vocabulary (sends, delivers, lossy drops, retransmissions,
/// timers, op and QAF phase spans).
fn trace_golden_args() -> Vec<&'static str> {
    vec![
        "--mode",
        "availability",
        "--family",
        "complete",
        "--n",
        "4",
        "--patterns",
        "rotating",
        "--p-chan",
        "0.2",
        "--loss",
        "0.2",
        "--trials",
        "2",
        "--seed",
        "11",
        "--trace-trial",
        "1",
    ]
}

#[test]
fn trace_dump_matches_golden_and_is_thread_invariant() {
    let golden = include_str!("../golden/tiny_trace.jsonl");
    let dump = |threads: &str| {
        let path = std::env::temp_dir().join(format!("gqs_tiny_trace_t{threads}.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(trace_golden_args())
            .args(["--trace-out", path.to_str().unwrap(), "--threads", threads])
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let trace = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        trace
    };
    let got = dump("4");
    assert_eq!(
        got, golden,
        "trace dump drifted from golden/tiny_trace.jsonl; if the change is \
         intentional (e.g. a simulator or trace-vocabulary change), \
         regenerate the golden file"
    );
    // The replay is serial and seeded exactly like the parallel engine
    // seeds the trial, so the dump is byte-identical for any --threads —
    // the trace-plane face of the determinism contract (CI re-checks
    // this with cmp at the shell level).
    assert_eq!(dump("1"), golden, "--threads 1 trace differs");
    assert_eq!(dump("8"), golden, "--threads 8 trace differs");
    // The dump covers the whole event loop and the protocol spans.
    for needle in [
        "\"ev\":\"send\"",
        "\"ev\":\"deliver\"",
        "\"ev\":\"drop_lossy\"",
        "\"ev\":\"op_start\"",
        "\"ev\":\"op_end\"",
        "\"ev\":\"span_start\",\"p\":",
        "\"label\":\"qaf_get\"",
        "\"label\":\"qaf_set\"",
    ] {
        assert!(golden.contains(needle), "golden trace lacks {needle}");
    }
}

/// The exact invocation `golden/tiny_trace_ring.jsonl` was produced with:
/// the retrying register flooded over a lossy four-process ring, where
/// most relay copies go to absent channels. It pins the per-copy order of
/// `drop_disconnected`, `drop_lossy` and delivered sends within each
/// fan-out.
const RING_TRACE_GOLDEN_ARGS: &str = "--mode availability --family ring --n 4 \
     --patterns rotating --p-chan 0 --loss 0.1 --trials 1 --seed 17 --trace-trial 0";

#[test]
fn ring_trace_dump_matches_golden() {
    let golden = include_str!("../golden/tiny_trace_ring.jsonl");
    let path = std::env::temp_dir().join("gqs_tiny_trace_ring.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(RING_TRACE_GOLDEN_ARGS.split_whitespace())
        .args(["--trace-out", path.to_str().unwrap()])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        got, golden,
        "ring trace dump drifted from golden/tiny_trace_ring.jsonl; if the \
         change is intentional, regenerate the golden file"
    );
    for needle in ["\"ev\":\"drop_disconnected\"", "\"ev\":\"drop_lossy\""] {
        assert!(golden.contains(needle), "golden ring trace lacks {needle}");
    }
}

#[test]
fn chrome_trace_is_one_json_array_of_the_same_run() {
    let path = std::env::temp_dir().join("gqs_tiny_trace.chrome.json");
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args(trace_golden_args())
        .args(["--trace-out", path.to_str().unwrap(), "--trace-format", "chrome"])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert!(trace.starts_with('[') && trace.ends_with("]\n"), "not a JSON array");
    // Async span pairs: every begin has an end with the same id scheme.
    assert_eq!(trace.matches("\"ph\":\"b\"").count(), trace.matches("\"ph\":\"e\"").count());
    assert!(trace.contains("\"cat\":\"proto\""));
    assert!(trace.contains("\"cat\":\"op\""));
}

#[test]
fn event_capped_sweeps_hint_at_the_trace_plane_and_dump_the_flight_recorder() {
    let path = std::env::temp_dir().join("gqs_stalled_trace.jsonl");
    // A region outage with heavy loss, truncated by a tiny event cap:
    // every trial stalls.
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .env("GQS_MAX_EVENTS", "200")
        .args([
            "--mode",
            "availability",
            "--family",
            "regions",
            "--regions",
            "2",
            "--n",
            "4",
            "--p-chan",
            "0",
            "--loss",
            "0.3",
            "--schedule",
            "region-outage",
            "--trials",
            "2",
            "--seed",
            "7",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Satellite: the stall hint names the first stalled (cell, trial) and
    // points at the replay flags.
    assert!(stderr.contains("hit the event cap"), "no stall hint:\n{stderr}");
    assert!(stderr.contains("--trace-cell 0 --trace-trial 0"), "hint lacks coordinates:\n{stderr}");
    // Tentpole: the flight recorder fires on the traced stalled trial,
    // naming pending ops and armed timers.
    assert!(stderr.contains("flight recorder: event cap hit"), "no flight dump:\n{stderr}");
    assert!(stderr.contains("pending ops"), "flight dump lacks pending ops:\n{stderr}");
    assert!(stderr.contains("armed timers"), "flight dump lacks armed timers:\n{stderr}");
}

/// Branched runs log their stalls too, in every simulated mode: each
/// continuation that hits the event cap is counted, and the hint names
/// cell, trial and branch. It offers no replay flags, because trace
/// replay re-runs the unbranched trial.
#[test]
fn branched_sweeps_log_their_stalls() {
    for mode in ["latency", "consensus", "availability"] {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .env("GQS_MAX_EVENTS", "200")
            .args([
                "--mode",
                mode,
                "--family",
                "regions",
                "--regions",
                "3",
                "--n",
                "6",
                "--p-chan",
                "0",
                "--loss",
                "0.5",
                "--schedule",
                "region-outage",
                "--trials",
                "2",
                "--seed",
                "3",
                "--branch-at",
                "500",
                "--branches",
                "2",
            ])
            .output()
            .expect("gqs_sweep runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("gqs_sweep: 2 trial(s) hit the event cap in 4 branch run(s)"),
            "{mode}: branched stalls went unlogged:\n{stderr}"
        );
        assert!(
            stderr.contains("first: cell 0 trial 0 branch 0 with"),
            "{mode}: hint lacks the branch:\n{stderr}"
        );
        assert!(
            !stderr.contains("--trace-cell"),
            "{mode}: no replay hint when branched:\n{stderr}"
        );
    }
}

/// Replay coordinates outside the grid are usage errors caught before
/// the sweep runs, so no report is computed and then lost.
#[test]
fn out_of_range_trace_coordinates_fail_before_the_sweep() {
    let path = std::env::temp_dir().join("gqs_never_written.jsonl");
    for (flag, value, needle) in [
        ("--trace-cell", "99", "--trace-cell 99 is out of range (the grid has 1 cells)"),
        ("--trace-trial", "2", "--trace-trial 2 is out of range (each cell runs 2 trials)"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(["--mode", "latency", "--trials", "2", "--trace-out", path.to_str().unwrap()])
            .args([flag, value])
            .output()
            .expect("gqs_sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: one error line:\n{stderr}");
        assert!(stderr.contains(needle), "{flag} {value}:\n{stderr}");
        assert!(!stderr.contains(" trials in "), "{flag} {value}: the sweep ran:\n{stderr}");
        assert!(out.stdout.is_empty());
    }
    assert!(!path.exists());
}

/// Runs `gqs_sweep` with `args` and returns its stdout.
fn sweep_stdout(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_gqs_sweep")).args(args).output().expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// The exact invocation `golden/tiny_timeline.json` was produced with:
/// the trace-plane grid in availability mode, sampled in 25000-tick
/// windows.
const TIMELINE_GOLDEN_ARGS: &[&str] = &[
    "--mode",
    "availability",
    "--family",
    "complete",
    "--n",
    "4",
    "--patterns",
    "rotating",
    "--p-chan",
    "0.2",
    "--loss",
    "0.2",
    "--trials",
    "2",
    "--seed",
    "11",
    "--timeline",
    "25000",
    "--format",
    "json",
];

#[test]
fn tiny_timeline_matches_golden() {
    let golden = include_str!("../golden/tiny_timeline.json");
    assert_eq!(
        sweep_stdout(TIMELINE_GOLDEN_ARGS),
        golden,
        "timeline output drifted from golden/tiny_timeline.json"
    );
    let single = sweep_stdout(&[TIMELINE_GOLDEN_ARGS, &["--threads", "1"]].concat());
    assert_eq!(single, golden, "--threads 1 timeline output differs from golden");
}

/// The exact invocation `golden/tiny_branch.json` was produced with: the
/// consensus golden grid forked at t = 2000 into three continuations.
const BRANCH_GOLDEN_ARGS: &[&str] = &[
    "--mode",
    "consensus",
    "--family",
    "regions",
    "--regions",
    "3",
    "--n",
    "6",
    "--patterns",
    "rotating",
    "--p-chan",
    "0",
    "--schedule",
    "region-outage",
    "--trials",
    "4",
    "--seed",
    "13",
    "--branch-at",
    "2000",
    "--branches",
    "3",
    "--format",
    "json",
];

#[test]
fn tiny_branch_matches_golden_in_both_branch_modes() {
    let golden = include_str!("../golden/tiny_branch.json");
    assert_eq!(
        sweep_stdout(BRANCH_GOLDEN_ARGS),
        golden,
        "branched output drifted from golden/tiny_branch.json"
    );
    let straight = sweep_stdout(&[BRANCH_GOLDEN_ARGS, &["--branch-mode", "straight"]].concat());
    assert_eq!(straight, golden, "straight-line branches differ from the fork golden");
    let eight = sweep_stdout(&[BRANCH_GOLDEN_ARGS, &["--threads", "8"]].concat());
    assert_eq!(eight, golden, "--threads 8 branched output differs from golden");
}

#[test]
fn timeline_json_renders_windowed_series() {
    let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
        .args([
            "--mode",
            "latency",
            "--family",
            "ring",
            "--n",
            "5",
            "--p-chan",
            "0",
            "--trials",
            "2",
            "--seed",
            "3",
            "--timeline",
            "25000",
        ])
        .output()
        .expect("gqs_sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"timeline_bucket\": 25000"));
    assert!(text.contains("\"timeline\": {\"bucket\": 25000, \"events\": ["));
    assert!(text.contains("\"ops\": ["));
    assert!(text.contains("\"avail\": ["));
    // Base metrics render as usual; the window columns stay internal.
    assert!(
        text.contains("\"metrics\": [\"completed\", \"lat_mean\", \"lat_max\", \"msgs_per_op\"]")
    );
    assert!(!text.contains("tl_"));
}

#[test]
fn observability_flag_validation_fails_cleanly() {
    let cases: &[&[&str]] = &[
        // Trace replay needs a simulated mode.
        &["--trace-out", "/tmp/x.jsonl"],
        // Coordinates without a dump target are meaningless.
        &["--mode", "latency", "--trace-cell", "0"],
        // Branched trials have no single straight replay or timeline.
        &[
            "--mode",
            "consensus",
            "--branch-at",
            "100",
            "--branches",
            "2",
            "--trace-out",
            "/tmp/x.jsonl",
        ],
        &["--mode", "consensus", "--branch-at", "100", "--branches", "2", "--timeline", "1000"],
        // Timeline needs a simulated mode, a positive bucket, and at most
        // 256 windows.
        &["--timeline", "1000"],
        &["--mode", "latency", "--timeline", "0"],
        &["--mode", "latency", "--timeline", "10"],
        // Unknown trace format.
        &["--mode", "latency", "--trace-out", "/tmp/x.jsonl", "--trace-format", "xml"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(*args)
            .output()
            .expect("gqs_sweep runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn bad_flags_fail_cleanly() {
    for args in [&["--family", "moebius"][..], &["--n", "potato"], &["--format", "yaml"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_gqs_sweep"))
            .args(args)
            .output()
            .expect("gqs_sweep runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        assert!(!out.stderr.is_empty());
    }
}
