#!/usr/bin/env bash
# benchmark/compare.sh A.jsonl B.jsonl
#
# Compares two sets of run reports (run.sh --out A.jsonl, then --out B.jsonl):
# one row per workload and end-to-end metric, with a verdict of same, better,
# worse or unresolved. Exits non-zero on any `worse`.
exec "$(dirname "$0")/run.sh" compare "$@"
