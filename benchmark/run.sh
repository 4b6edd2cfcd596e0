#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one mode: what BENCHMARK.json's command runs.
#   benchmark/run.sh [--seed N] [--out FILE]
#       all four workloads, measured (R fixed per workload) and then traced
#       (3 repetitions); every run's report is appended to FILE (default
#       benchmark/out/results.jsonl) for compare.sh.
#   benchmark/run.sh compare A.jsonl B.jsonl
#       what compare.sh runs.
#
# Run it from anywhere; it reads and writes only inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}

# --release with the package's own profile (lto, one codegen unit); --offline
# because every dependency is a path into this repository.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin=$target/release/cutfit-benchmark
export CUTFIT_BENCH_RUSTC
CUTFIT_BENCH_RUSTC=$(rustc --version)

if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --out-dir "$here/out" "$@"
    fi
done

seed=42
out=$here/out/results.jsonl
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "usage: run.sh [--workload NAME ...] | [--seed N] [--out FILE]" >&2; exit 2 ;;
    esac
done
mkdir -p "$here/out" "$(dirname "$out")"

# R per workload: about 30 s of timed repetitions each on the two-core box
# the benchmark was sized on. The same on every commit.
status=0
for spec in rmat-pagerank:12 road-sssp:8 select-stream:6 tailored-session:6; do
    workload=${spec%%:*}
    reps=${spec##*:}
    "$bin" --workload "$workload" --seed "$seed" --reps "$reps" --trace 0 \
        --out-dir "$here/out" --report "$out" | sed '$d' || status=1
    echo
    "$bin" --workload "$workload" --seed "$seed" --reps 3 --trace 1 \
        --out-dir "$here/out" --report "$out" | sed '$d' || status=1
    echo
done
echo "reports appended to $out"
exit $status
