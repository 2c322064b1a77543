#!/usr/bin/env python3
"""The repository benchmark: `gqs_sweep` grids end to end, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `gqs_sweep` and the traced runner
(`perfbench/`, its own cargo package) in release mode, then:

1. set-up: launches `gqs_sweep` on the workload's grid with a trailing
   invalid size, so it parses its arguments, builds every real cell and
   exits with its usage error before any trial. `setup_s` is the median
   wall time of these launches, a few before each end-to-end launch so
   they sample the whole run: on shared machines launch times swing by a
   quarter from one second to the next.
2. end to end, untraced: cycles the workload's grid over its seed slots
   for at most `--seconds` seconds (whole cycles, at least one; exactly
   one with `--trace 1`). `trials_per_s` is the median over launches of
   a launch's trials over its sweep time (as `gqs_sweep` reports it on
   its standard error), `cpu_ms_per_trial` the median CPU time (user +
   system) a launch spends per trial, `peak_rss_mb` the largest peak
   resident memory of a launch, and `trial_ok_share` the share of
   attempted trials that did not fail.
3. traced: `perfbench` re-runs the grid through the public sweep engine
   with its own trial closure and prints per-layer metrics: slot 0 with
   `--trace 0`, as a correctness check; every slot with `--trace 1`, plus
   slot 0 on one thread to compare exact counts.

Every report is checked: a slot gives the same bytes on every launch;
each traced slot's report equals `gqs_sweep`'s byte for byte; slot 0 at
the default seed matches a committed SHA-256; the per-cell bounds in
`workloads.json` hold; the traced run's safety oracles and message
accounting pass. A trial fails if it hits the event cap, if an oracle
flags it, or if its launch or report is wrong. The last line of standard
output is one JSON object; on any failure it says `"correct": false` and
the exit code is 1. `--trace 0` publishes the end-to-end metrics,
`--trace 1` the per-layer ones (see `metrics.json`).
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = 0x9E3779B97F4A7C15
PROBES_PER_LAUNCH = 8
WARMUP_S = 5.0
SWEPT = re.compile(r"gqs_sweep: (\d+) cells x (\d+) trials in ([0-9.]+)(ns|µs|ms|s) ")
CAPPED = re.compile(r"gqs_sweep: (\d+) trial\(s\) hit the event cap")
UNIT_S = {"ns": 1e-9, "µs": 1e-6, "ms": 1e-3, "s": 1.0}


class BenchError(Exception):
    """A build or launch problem: the run prints no result."""


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))


def build():
    """Builds both binaries; returns (gqs_sweep, perfbench) paths."""
    steps = [
        (["cargo", "build", "--release", "--offline", "-p", "gqs-bench", "--bin", "gqs_sweep"], ROOT),
        (["cargo", "build", "--release", "--offline"], HERE),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd, cwd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "gqs_sweep"), os.path.join(release, "gqs-perfbench")


def launch(cmd, workdir, tag):
    """Runs cmd to completion; returns (exit code, stdout bytes, stderr text,
    wall seconds, resource usage)."""
    out_path = os.path.join(workdir, f"{tag}.out")
    err_path = os.path.join(workdir, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return proc.returncode, stdout, stderr, wall, usage


def slot_seed(seed, k):
    return seed ^ ((k * GOLDEN) % (1 << 64))


def check_report(report_bytes, wl, cells, trials):
    """Problems with one gqs_sweep report (empty list when it is sound)."""
    try:
        rep = json.loads(report_bytes)
    except ValueError as e:
        return [f"report is not JSON: {e}"]
    problems = []
    if rep.get("complete") is not True:
        problems.append("report is incomplete")
    if len(rep.get("cells", [])) != cells:
        problems.append(f"report has {len(rep.get('cells', []))} cells, expected {cells}")
    for i, cell in enumerate(rep.get("cells", [])):
        if cell.get("trials") != trials:
            problems.append(f"cell {i} merged {cell.get('trials')} trials, expected {trials}")
        for chk in wl["checks"]:
            value = cell["aggregates"][chk["metric"]][chk["stat"]]
            if "min" in chk and value < chk["min"]:
                problems.append(f"cell {i}: {chk['metric']}.{chk['stat']} = {value} < {chk['min']}")
            if "max" in chk and value > chk["max"]:
                problems.append(f"cell {i}: {chk['metric']}.{chk['stat']} = {value} > {chk['max']}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    spec = load("workloads.json")
    metric_spec = load("metrics.json")
    if opts.workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {opts.workload!r} (have {', '.join(spec['workloads'])})")
    wl = spec["workloads"][opts.workload]
    threads = len(os.sched_getaffinity(0))
    sweep_bin, traced_bin = build()
    workdir = os.path.join(target_dir(), "perfbench-work", opts.workload)
    os.makedirs(workdir, exist_ok=True)

    problems = []
    attempted = failed = 0
    grid = wl["args"] + ["--threads", str(threads)]
    n_at = grid.index("--n") + 1

    # Warm up for a few seconds first: the first launches after an idle
    # spell run measurably slower on shared machines.
    warm_until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_until:
        launch([sweep_bin] + grid + ["--seed", str(opts.seed)], workdir, "warmup")

    # 1. Set-up probe: the grid with a trailing bad size, so gqs_sweep parses
    # and builds every cell, then stops before the first trial.
    probe = list(grid)
    probe[n_at] += ",1"
    probe_cmd = [sweep_bin] + probe + ["--seed", str(opts.seed)]
    setup = []

    # 2. End to end, untraced: whole cycles over the seed slots, with the
    # set-up probes interleaved.
    slots = wl["slots"]
    rates, cpu_ms, rss = [], [], []
    elapsed = [[] for _ in range(slots)]
    first = [None] * slots
    trials_per_slot = None
    start = time.perf_counter()
    launches = 0
    while launches % slots or launches == 0 or (
        # Another whole cycle fits in the time left; a traced run publishes
        # no end-to-end metric, so one cycle is enough there.
        not opts.trace
        and (time.perf_counter() - start) * (launches + slots) / launches <= opts.seconds
    ):
        for _ in range(PROBES_PER_LAUNCH):
            code, _, err, wall, _ = launch(probe_cmd, workdir, "setup")
            if code != 2 or "--n values must be at least 2" not in err:
                raise BenchError(f"set-up probe exited {code}: {err.strip()}")
            setup.append(wall)
        k = launches % slots
        seed = slot_seed(opts.seed, k)
        code, out, err, _, usage = launch([sweep_bin] + grid + ["--seed", str(seed)], workdir, "sweep")
        launches += 1
        m = SWEPT.search(err)
        if code != 0 or not m:
            raise BenchError(f"gqs_sweep exited {code}: {err.strip()}")
        cells, trials = int(m.group(1)), int(m.group(2))
        trials_per_slot = cells * trials
        attempted += trials_per_slot
        bad = check_report(out, wl, cells, trials)
        if first[k] is None:
            first[k] = out
        elif out != first[k]:
            bad.append(f"slot {k} report changed between launches of the same seed")
        capped = CAPPED.search(err)
        if bad:
            problems += bad
            failed += trials_per_slot
        elif capped:
            problems.append(f"slot {k}: {capped.group(1)} trial(s) hit the event cap")
            failed += int(capped.group(1))
        swept_s = float(m.group(3)) * UNIT_S[m.group(4)]
        rates.append(trials_per_slot / swept_s)
        cpu_ms.append((usage.ru_utime + usage.ru_stime) * 1e3 / trials_per_slot)
        elapsed[k].append(swept_s)
        rss.append(usage.ru_maxrss / 1024.0)

    if opts.seed == spec["default_seed"]:
        digest = hashlib.sha256(first[0]).hexdigest()
        if digest != wl["reference_sha256"]:
            problems.append(f"slot 0 report digest {digest} != reference {wl['reference_sha256']}")
            failed += trials_per_slot

    # 3. Traced runs.
    traced_slots = slots if opts.trace else 1
    seeds = ",".join(str(slot_seed(opts.seed, k)) for k in range(traced_slots))
    cmd = [traced_bin] + grid + ["--seeds", seeds, "--report-dir", workdir]
    if opts.trace:
        cmd.append("--check-threads")
    code, out, err, _, _ = launch(cmd, workdir, "traced")
    if code != 0:
        raise BenchError(f"perfbench exited {code}: {err.strip()}")
    traced = json.loads(out.decode().strip().splitlines()[-1])
    attempted += traced["trials"] + (trials_per_slot if opts.trace else 0)
    for k in range(traced_slots):
        with open(os.path.join(workdir, f"slot{k}.json"), "rb") as f:
            if f.read() != first[k]:
                problems.append(f"traced report of slot {k} differs from gqs_sweep's")
                failed += trials_per_slot
    fails = traced["failures"]
    if fails["thread_mismatches"]:
        problems.append(f"{fails['thread_mismatches']} exact count(s) differ between thread counts")
        failed += trials_per_slot
    for kind in ("violations", "accounting", "capped"):
        if fails[kind]:
            problems.append(f"traced run: {fails[kind]} trial(s) with {kind}")
            failed += fails[kind]
    if err.strip():
        sys.stderr.write(err)

    if opts.trace:
        untraced_s = sum(statistics.median(e) for e in elapsed[:traced_slots])
        values = dict(traced["metrics"])
        values["trace.overhead_ratio"] = traced["wall_s"] / untraced_s
        published = metric_spec["per_layer"]
    else:
        values = {
            "trials_per_s": statistics.median(rates),
            "cpu_ms_per_trial": statistics.median(cpu_ms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(rss),
            "trial_ok_share": 1.0 - failed / attempted,
        }
        published = metric_spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in published}
    for name, m in metrics.items():
        print(f"{opts.workload}  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
