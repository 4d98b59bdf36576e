#!/usr/bin/env sh
# Tier-1 gate, runnable fully offline: lint clean, docs clean, release
# build, tests, static-analysis suites. The structural text gates (panic
# hygiene, the engine's evaluation rules, the inlined `bytes` shim, one
# lowering path, one fingerprint per statement, one request classifier, the
# metric inventory, no unsafe code) are `tests/structure.rs`, so a bare
# `cargo test` runs them too.
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
# - Transformer convergence (`core/tests/transformer`
#   `cyclic_rules_fail_after_the_pass_budget`): two rules rewriting one
#   node back and forth must fail with the 32-pass error from both
#   `run_all` and `run_all_audited`, the only way a fixed-point run ends
#   early.
# - Exposition (`tests/observability`): validator, recovery, admission,
#   cache and wire request-latency metric families must surface in both
#   formats end to end.
# - Previews (`tests/pipeline` `a_preview_moves_no_pipeline_metric`,
#   `previews_match_execution_across_the_corpora`): `translate()` and
#   EXPLAIN move no pipeline metric, and show the SQL execution sends for
#   TPC-H and the health/telco corpora on simwh and simwh-reduced; a
#   statement the mid tier emulates previews as an emulation error naming
#   it (`translate_names_the_emulation_of_a_mid_tier_statement`).
# - Translation cache (`parser` fingerprint, `core` cache unit +
#   `core/tests/cache`, `tests/cache_equivalence`): cache-off vs cold vs
#   warm must be byte-identical corpus-wide.
# - Provenance & workload intelligence (`obs` provenance/statements/
#   report, `wire` obs_http, `tests/provenance`, `tests/obs_http`,
#   `bench` figures_smoke): per-statement forensics with an injected
#   fault must match independently observed metrics, and so must the
#   statement-table row they fold into; the table's fold, LRU eviction
#   bound and convert attachment against hand-computed rows; the Figure 8
#   analog replay against generator ground truth; the byte-stable report
#   snapshot and the Figure 8 golden; the endpoint against a live gateway
#   (`/statements` one row per fingerprint, `/replicas`), and twenty
#   logon/logoff cycles adding no `/metrics` series.
# - Query lifecycle governance (`governor`, `tests/cancel`): client abort
#   / deadline / memory budget end to end over the wire and at the
#   library level, each leaving the breaker and every replica alone.
# - Replica HA (`core` replicate + repair, `core/tests/failures`,
#   `tests/pipeline` `replica_routing_follows_the_lowering`): routing on the
#   lowering's request kind alone, fencing, journal, pinning, the prober; a
#   session SET and the journal replay after a lost connection reach every
#   replica (`a_session_set_reaches_every_replica`,
#   `journal_replay_reaches_every_replica`), an unclassified data-modifying
#   CTE is never retried (`a_link_never_retries_an_unclassified_data_modifying_cte`),
#   and over TPC-H, health, telco and every `churn_mix` kind each query
#   reaches one replica, everything else both, and the replicas end equal.
# - Static workload assessment + capability conformance (`assess`, `core`
#   conformance, `tests/assess_oracle`, `tests/assess_snapshots`,
#   `tests/conformance`): verdicts on the catalog-only target must agree
#   with the loaded engine statement by statement; `--target all` reports
#   over the built-in corpora match their golden snapshots byte for byte;
#   Strict-clean corpora on every executable target.
# - Target profiles (`core` targets + serialize,
#   `tests/target_differential`, `tests/conformance`): every corpus
#   against every executable profile, client-visible transcripts
#   byte-identical; every registered profile's supported features,
#   output-only capabilities, spellings and lint verdicts against the
#   `target_profiles.txt` golden.
# - Result path (`wire` props `one_decoder_per_result_set_matches_per_row_decoding`,
#   `tests/wire`): one `RowDecoder` per result set decodes every row,
#   truncation and non-UTF-8 error as per-row `decode_client_row` does;
#   a row that fails to decode leaves the session reading its own next
#   response (`a_row_that_fails_to_decode_leaves_the_session_in_step`);
#   dates before 1900 round-trip, on the wire and in the value layer
#   (`dates_before_1900_reach_the_client`, `xtra` props); a 20,000-row
#   result streams intact and in order under a 64 KiB converter budget;
#   repeated strings share one allocation per distinct value
#   (`repeated_strings_share_one_allocation_per_distinct_value`); the
#   response bytes match `wire_three_batches.hex`; a projection of every
#   column in order hands on the table's snapshot itself, by pointer,
#   while reordered, repeated, computed and filtered columns get rows of
#   their own, and both return the table's rows, in the engine
#   (`an_identity_projection_passes_the_snapshot_on`) and through
#   `HyperQ::run_one` (`a_whole_table_read_returns_the_table`); a held
#   result is unchanged by a later INSERT, UPDATE and DELETE that the next
#   read sees (`a_borrowed_snapshot_survives_a_later_update`);
#   `INSERT INTO T SELECT * FROM T` doubles T once; a LimitFetch `TOP 2`
#   over a whole-table read returns two rows and leaves the table whole
#   (`gateway_config_selects_the_target_profile`); and the pass-through
#   projection is still charged, so a budget between one and two charges
#   of T kills `SEL * FROM T` with 2646
#   (`library_level_memory_budget_cancels_request`); a gateway handle
#   dropped without `shutdown()` stops accepting
#   (`a_dropped_handle_stops_its_gateway`).
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
#   input order; keys read in place from plain columns give the groups,
#   pairs and partitions of the same keys evaluated as expressions
#   (`keys_borrowed_from_the_row_match_keys_evaluated_as_expressions`),
#   and so do projections copied by index from plain columns
#   (`projections_copied_by_index_match_projections_evaluated_as_expressions`);
#   filter predicates, join residuals and aggregate arguments compiled
#   once per operator give `eval`'s truth values, aggregate results and
#   error texts on generated trees over NULLs, padded CHARs, mixed
#   numerics, off-scale DECIMALs and overflowing sums
#   (`compiled_predicates_and_aggregates_agree_with_eval`), read an outer
#   row through `eval` (`a_correlated_reference_in_a_compiled_predicate_reads_the_outer_row`),
#   and agree on TPC-H Q1 and Q19
#   (`tpch_q19_residual_and_q1_aggregates_match_eval`);
#   the `keys.rs` tests pin the key index itself, 100k integer keys at
#   strides 1, 2^32 and 2^48 included. DECIMAL
#   arithmetic, casts and ROUND fail with `decimal overflow in …` and
#   integer overflow's error class and wire code instead of wrapping, and
#   a comparison whose scale alignment would overflow still orders by
#   magnitude; a mantissa at i128::MIN fails MOD -1, / -1 and negation,
#   as i64::MIN does for INTEGER, instead of panicking
#   (`decimal_overflow_fails_like_integer_overflow` in
#   `engine/tests/sql.rs`, the `datum.rs` overflow tests). So do MOD and
#   ABS at i64::MIN, and a DATE moved by days or months past the day range
#   (the `sql.rs` tests named after each), instead of panicking or wrapping.
cargo test -q --offline --workspace

# Overflow checks are on in debug builds and off in release ones, where an
# unchecked operation wraps instead of panicking: the value layer and the
# engine run their tests in the build the gateway ships as well.
cargo test -q --offline --release -p hyperq-xtra -p hyperq-engine

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
