#!/usr/bin/env bash
# The benchmark's one command. Builds bench_e2e (release, offline) and runs it.
#
#   bench/run.sh                          every workload: timed and traced run,
#                                         every result verified, every metric
#                                         printed by name; non-zero exit on any
#                                         failure (same as `bench/run.sh all`)
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last line is the driver's JSON
#                                         (this is BENCHMARK.json's command)
#   bench/run.sh all --runs 5 --out bench/results/baseline.json
#   bench/run.sh compare A.json B.json    (or bench/compare.sh)
#   bench/run.sh regen-expected [--smoke]
#
# Run it from the root of the checkout. The build goes to CARGO_TARGET_DIR
# when that is set, to bench/target otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
if [ $# -eq 0 ]; then
    set -- all
fi
exec "$target/release/bench_e2e" "$@"
