#!/usr/bin/env sh
# Tier-1 gate, runnable fully offline: lint clean, docs clean, release
# build, tests, static-analysis suites, unsafe-code gate.
set -eu

cd "$(dirname "$0")/.."

# Lint gate: warnings plus a promoted slice of clippy's pedantic group.
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::semicolon_if_nothing_returned \
    -D clippy::redundant_closure_for_method_calls \
    -D clippy::map_unwrap_or \
    -D clippy::manual_let_else \
    -D clippy::explicit_iter_loop \
    -D clippy::unnested_or_patterns
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo build --offline --release --workspace

# One workspace run covers every suite; the gates that matter, and why
# each exists:
# - Fault injection (`core/tests/failures`, `tests/resilience`, the
#   `policy` table test): retry/backoff, deadlines, breaker accounting,
#   replay safety, gateway hardening — offline, std/shim-only.
# - Static analysis (`xtra` validate + props, `core/tests/analyze`,
#   `tests/analyze_strict`): validator invariants + property coverage,
#   rule audit attribution, and the strict-mode acceptance corpora (TPC-H
#   + the customer workloads with zero violations).
# - Exposition (`tests/observability`): validator, recovery, admission,
#   cache and wire request-latency metric families must surface in both
#   formats end to end.
# - Translation cache (`parser` fingerprint, `core` cache unit +
#   `core/tests/cache`, `tests/cache_equivalence`): cache-off vs cold vs
#   warm must be byte-identical corpus-wide.
# - Provenance & workload intelligence (`obs` provenance/report, `wire`
#   obs_http, `tests/provenance`, `tests/obs_http`): per-statement
#   forensics with an injected fault must match independently observed
#   metrics; the Figure 8 analog replay against generator ground truth;
#   the byte-stable report snapshot; the endpoint against a live gateway
#   (including `/replicas`).
# - Query lifecycle governance (`governor`, `tests/cancel`): client abort
#   / deadline / memory budget end to end over the wire and at the
#   library level, each leaving the breaker and every replica alone.
# - Replica HA (`core` replicate + repair): routing, fencing, journal,
#   pinning, the prober.
# - Static workload assessment + capability conformance (`assess`, `core`
#   conformance, `tests/assess_oracle`, `tests/assess_snapshots`,
#   `tests/conformance`): verdicts on the catalog-only target must agree
#   with the loaded engine statement by statement; `--target all` reports
#   over the built-in corpora match their golden snapshots byte for byte;
#   Strict-clean corpora on every executable target.
# - Target profiles (`core` targets + serialize,
#   `tests/target_differential`): every corpus against every executable
#   profile, client-visible transcripts byte-identical.
# - Engine results (the `tests/tpch.rs` snapshot, the engine's `memo.rs`
#   and `exec.rs` tests, the `db.rs` pruning differential): engine
#   optimizations are gated on result sets, not on "the query ran" — all
#   22 TPC-H answers at two seeds against a snapshot captured before the
#   subquery memo; every query Hyper-Q sends for TPC-H (two seeds) and
#   the health/telco corpora run with and without join pruning, rows
#   identical and Q7's widest join at most 16 columns; and hand-computed
#   rows for memo keys, scope fall-through (also over a narrowed join),
#   column slots, borrowed and picked scans, joins left whole under
#   DISTINCT/UNION/the root/INSERT, outer/semi/anti joins with an emit
#   list, zero-width COUNT(*) rows, duplicated fields, LIMIT/OFFSET over
#   a filter, running window aggregates, every join kind against its
#   nested-loop twin with either input indexed, groups in first-seen
#   order keyed by value, and window partitions and sorts keeping ties in
#   input order; the `keys.rs` tests pin the key index itself.
cargo test -q --offline --workspace

# Session continuity, cancellation and replica failover under chaos: the
# bounded soaks (a kill-laden run must match a fault-free baseline byte for
# byte, in-transaction kills abort exactly once, overload sheds cleanly,
# cancel kills leave the breaker closed, killed replicas re-converge). They
# are timing-sensitive, so one green run proves little: a breaker
# regression once hid behind a 1-in-7 failure rate. Twenty in a row. The
# full multi-config soak is the same target with `-- --ignored`.
for i in $(seq 20); do cargo test -q --offline --test soak; done

# The benchmark package's self-tests. Its smoke run drives all four
# workloads over the real wire with every result verified, so a TDWP
# framing or pipelining desync fails here, offline, not in a bench run.
(cd bench && cargo test --offline)

# Production-path panic hygiene: no `.unwrap()` / `.expect(` in non-test
# code of the gateway-facing crates (wire, governor), the engine, the
# replica HA modules, and the target-profile registry/flavor modules. The
# awk strips everything from the first `#[cfg(test)]` module onward.
for src in crates/wire/src crates/governor/src crates/engine/src \
    crates/core/src/replicate.rs crates/core/src/repair.rs \
    crates/core/src/targets.rs crates/core/src/serialize/flavor.rs; do
    offenders=$(find "$src" -name '*.rs' -exec awk '
        /#\[cfg\(test\)\]/ { intest = 1 }
        !intest && /\.unwrap\(\)|\.expect\(/ { print FILENAME ":" FNR ": " $0 }
    ' {} \;)
    if [ -n "$offenders" ]; then
        echo "unwrap/expect in non-test code under $src:" >&2
        echo "$offenders" >&2
        exit 1
    fi
done

# One evaluation context per operator, not per row: no copy of the outer
# scope stack in the engine, and no `EvalContext` literal outside eval.rs,
# whose constructors build the stack once and let `set_row` swap the row.
# No key vector per row either: joins, GROUP BY and window partitions
# number their keys in `keys::KeyIndex`, not in a `HashMap<Vec<Datum>, _>`.
offenders=$({ grep -rn 'outer\.to_vec()' crates/engine/src
    grep -rn 'EvalContext {' crates/engine/src | grep -v '^crates/engine/src/eval\.rs:'
    grep -rn 'HashMap<Vec<Datum>' crates/engine/src
} || true)
if [ -n "$offenders" ]; then
    echo "per-row evaluation context or key vector in crates/engine/src:" >&2
    echo "$offenders" >&2
    exit 1
fi

# Every registered hyperq_* metric family must be documented in the
# DESIGN.md inventory table. Pull quoted family-name literals out of the
# source (suffix-filtered: spill-file name prefixes and other non-metric
# literals share the hyperq_ namespace) and require each in the table.
families=$(grep -rhoE '"hyperq_[a-z0-9_]+"' src crates --include='*.rs' \
    | tr -d '"' \
    | grep -E '_(total|seconds|state|entries|inflight|depth|queries|active)$' \
    | sort -u)
[ -n "$families" ] || { echo 'metric inventory grep found nothing' >&2; exit 1; }
for family in $families; do
    grep -q "\`$family\`" DESIGN.md || {
        echo "metric family $family missing from the DESIGN.md inventory" >&2
        exit 1
    }
done

# No unsafe code outside the vendored shims: every workspace crate roots
# a `#![forbid(unsafe_code)]`, and nothing sneaks an `unsafe` block in.
for lib in src/lib.rs crates/xtra/src/lib.rs crates/parser/src/lib.rs \
    crates/core/src/lib.rs crates/engine/src/lib.rs crates/wire/src/lib.rs \
    crates/workload/src/lib.rs crates/obs/src/lib.rs crates/bench/src/lib.rs \
    crates/governor/src/lib.rs crates/assess/src/lib.rs; do
    grep -q '#!\[forbid(unsafe_code)\]' "$lib" || {
        echo "missing #![forbid(unsafe_code)] in $lib" >&2
        exit 1
    }
done
if grep -rn --include='*.rs' -w 'unsafe' src crates --exclude-dir=shims \
    | grep -v 'forbid(unsafe_code)' | grep -v 'unsafe_code'; then
    echo 'unsafe code found outside crates/shims' >&2
    exit 1
fi
