#!/usr/bin/env bash
# bench/compare.sh A.json B.json — B against A, by each end-to-end metric's
# direction and bound in BENCHMARK.json: ok / regressed / unresolved.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$@"
