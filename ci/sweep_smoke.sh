#!/usr/bin/env bash
# Golden and determinism smoke test of the `gqs_sweep` CLI.
#
# Each row of the table below names a check pattern, an output name, the
# golden file its output must match byte for byte (`-` for none), and the
# sweep arguments. Patterns:
#
#   single   one run: valid JSON, diff against the golden
#   threads  GQS_THREADS=1 vs 8: valid JSON, cmp, diff t1 against the golden
#   trace    as `threads`, but compares the JSONL written by --trace-out
#   fork     forked vs --branch-mode straight at 1 thread: valid JSON, cmp,
#            diff the fork against the golden
#   runs     one run at 4 threads; only the exit status counts
#
# Usage (from anywhere, after `cargo build --release`):
#
#   ci/sweep_smoke.sh
#
# GQS_SWEEP overrides the binary (default target/release/gqs_sweep).
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=${GQS_SWEEP:-target/release/gqs_sweep}
GOLDEN=crates/bench/golden
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
diffs=0
cmps=0

# run THREADS PATH ARGS... — one sweep with its stdout in PATH (THREADS
# `-` keeps the caller's GQS_THREADS).
run() {
  local threads=$1 path=$2
  shift 2
  if [ "$threads" = - ]; then
    timeout 300 "$BIN" "$@" > "$path"
  else
    GQS_THREADS=$threads timeout 300 "$BIN" "$@" > "$path"
  fi
}

json_ok() { python3 -m json.tool "$@" > /dev/null; }

same() {
  cmp "$OUT/$1" "$OUT/$2"
  cmps=$((cmps + 1))
  echo "ok  cmp  $1 $2"
}

golden() {
  [ "$2" = - ] && return 0
  diff "$OUT/$1" "$GOLDEN/$2"
  diffs=$((diffs + 1))
  echo "ok  diff $1 $GOLDEN/$2"
}

single() {
  local name=$1 gold=$2
  shift 2
  run - "$OUT/$name.json" "$@"
  json_ok "$OUT/$name.json"
  golden "$name.json" "$gold"
}

threads() {
  local name=$1 gold=$2
  shift 2
  run 1 "$OUT/$name.t1.json" "$@"
  run 8 "$OUT/$name.t8.json" "$@"
  json_ok "$OUT/$name.t1.json"
  same "$name.t1.json" "$name.t8.json"
  golden "$name.t1.json" "$gold"
}

trace() {
  local name=$1 gold=$2
  shift 2
  run 1 /dev/null "$@" --trace-out "$OUT/$name.t1.jsonl"
  run 8 /dev/null "$@" --trace-out "$OUT/$name.t8.jsonl"
  json_ok --json-lines "$OUT/$name.t1.jsonl"
  same "$name.t1.jsonl" "$name.t8.jsonl"
  golden "$name.t1.jsonl" "$gold"
}

fork() {
  local name=$1 gold=$2
  shift 2
  run 1 "$OUT/$name.fork.json" "$@"
  run 1 "$OUT/$name.straight.json" "$@" --branch-mode straight
  json_ok "$OUT/$name.fork.json"
  same "$name.fork.json" "$name.straight.json"
  golden "$name.fork.json" "$gold"
}

runs() {
  shift 2
  run 4 /dev/null "$@"
  echo "ok  run  $*"
}

# pattern name          golden                  sweep arguments
while read -r pattern name gold args; do
  # shellcheck disable=SC2086 # the arguments are whitespace-separated words
  "$pattern" "$name" "$gold" $args
done <<'TABLE'
single  sweep           tiny_sweep.json         --family two-cliques-bridge --n 6 --patterns rotating --p-chan 0.25 --trials 8 --seed 7 --format json
threads latency         tiny_latency.json       --mode latency --family ring --n 5 --patterns rotating --p-chan 0,0.3 --trials 6 --seed 11 --format json
threads consensus       tiny_consensus.json     --mode consensus --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 --schedule region-outage --trials 4 --seed 13 --format json
threads availability    tiny_availability.json  --mode availability --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 --loss 0.1 --schedule region-outage --trials 4 --seed 17 --format json
trace   trace           tiny_trace.jsonl        --mode availability --family complete --n 4 --patterns rotating --p-chan 0.2 --loss 0.2 --trials 2 --seed 11 --trace-trial 1 --format json
trace   trace_ring      tiny_trace_ring.jsonl   --mode availability --family ring --n 4 --patterns rotating --p-chan 0 --loss 0.1 --trials 1 --seed 17 --trace-trial 0 --format json
single  timeline        tiny_timeline.json      --mode availability --family complete --n 4 --patterns rotating --p-chan 0.2 --loss 0.2 --trials 2 --seed 11 --timeline 25000 --format json
threads lognormal       tiny_lognormal.json     --mode latency --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 --loss 0.05 --net lognormal --trials 6 --seed 19 --format json
fork    branch          tiny_branch.json        --mode consensus --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 --schedule region-outage --trials 4 --seed 13 --branch-at 2000 --branches 3 --format json
threads branch          -                       --mode consensus --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 --schedule region-outage --trials 4 --seed 13 --branch-at 2000 --branches 3 --format json
fork    latency_branch  -                       --mode latency --family regions --regions 3 --n 6 --patterns rotating --p-chan 0 --loss 0.05 --schedule region-outage --trials 4 --seed 19 --branch-at 500 --branches 3 --format json
threads scale           -                       --mode scale --family ring --n 20000,100000 --trials 2 --seed 29 --format json
runs    scale_grid      -                       --mode scale --family grid --n 100000 --trials 1 --seed 31 --format csv
TABLE

echo "sweep_smoke: $diffs golden diffs and $cmps cmps passed"
