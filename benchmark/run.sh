#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   run.sh [--workload W] [--seed N] [--launches 5] [--seconds 20]
#          [--trace [0|1]] [--smoke] [--out DIR]
#   run.sh aa [same options]         two full sets back to back + compare
#   run.sh compare A.json B.json
#
# `--seconds` is the timed time per workload, split evenly over the
# launches. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# Results go under the benchmark's own directory unless told otherwise.
out=("--out" "$here/out")
case "${1:-}" in compare | glossary) out=() ;; esac
for arg in "$@"; do
    if [ "$arg" = "--out" ]; then out=(); fi
done

first="${1:-}"
case "$first" in
    run | aa | compare | glossary) shift; exec "$target/release/tamp-benchmark" "$first" "${out[@]}" "$@" ;;
    *) exec "$target/release/tamp-benchmark" run "${out[@]}" "$@" ;;
esac
