//! End-to-end observability: a TPC-H query through the full pipeline must
//! leave a complete trail — one span and one histogram observation per
//! stage, rewrite-rule counters, a parseable Prometheus snapshot, and a
//! slow-query capture when the threshold is crossed.

use std::sync::Arc;
use std::time::Duration;

use hyperq::core::{Backend, HyperQ, HyperQBuilder, ObsContext, STAGE_DURATION_METRIC};
use hyperq::engine::EngineDb;
use hyperq::wire::convert::{convert_traced, ConverterConfig};
use hyperq::workload::tpch;

const SCALE: f64 = 0.002;

fn load() -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).unwrap();
    }
    for (table, rows) in tpch::generate(SCALE, 1234).tables() {
        db.load_rows(table, rows).unwrap();
    }
    db
}

fn session(obs: &Arc<ObsContext>) -> HyperQ {
    let db = load();
    HyperQBuilder::for_target(db as Arc<dyn Backend>, hyperq::core::targets::simwh()).obs(Arc::clone(obs)).build()
}

/// The acceptance path: translate and execute TPC-H Q1, convert its result,
/// and check the whole pipeline reported itself.
#[test]
fn tpch_q1_emits_one_span_and_histogram_per_stage() {
    let obs = ObsContext::new();
    let mut hq = session(&obs);
    let outcome = hq.run_one(tpch::query(1)).unwrap();
    let trace = outcome.trace_id.expect("run_one must stamp a trace id");

    // Result conversion joins the same trace (the wire layer's stage).
    convert_traced(
        &outcome.result.schema,
        &outcome.result.rows,
        &ConverterConfig::default(),
        &obs,
        Some(trace),
    )
    .unwrap();

    let spans = obs.traces.spans_for(trace);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    for stage in ["parse", "bind", "transform", "serialize", "execute", "convert"] {
        assert_eq!(count(stage), 1, "stage {stage} must emit exactly one span");
    }
    assert_eq!(count("statement"), 1, "exactly one root span");
    let root = spans.iter().find(|s| s.name == "statement").unwrap();
    for stage in ["parse", "bind", "transform", "serialize", "execute"] {
        let s = spans.iter().find(|s| s.name == stage).unwrap();
        assert_eq!(s.parent, Some(root.span), "{stage} must hang off the root");
    }

    // Each stage histogram saw exactly this statement.
    for stage in ["parse", "bind", "transform", "serialize", "execute", "convert"] {
        let h = obs
            .metrics
            .histogram(STAGE_DURATION_METRIC, &[("stage", stage)]);
        assert_eq!(h.count(), 1, "stage {stage} histogram must have one sample");
    }
    assert_eq!(
        obs.metrics
            .counter_value("hyperq_statements_total", &[("outcome", "ok")]),
        1
    );

    // Q1's Teradata-isms (date arithmetic, ordinal ORDER BY) must have
    // fired at least one rewrite rule.
    let fired: Vec<&str> = obs
        .metrics
        .render_prometheus()
        .lines()
        .filter(|l| {
            l.starts_with("hyperq_transform_rule_total{")
                && l.contains("outcome=\"fired\"")
                && !l.ends_with(" 0")
        })
        .map(|_| "")
        .collect();
    assert!(
        !fired.is_empty(),
        "at least one transform rule must report fired > 0:\n{}",
        obs.metrics.render_prometheus()
    );

    // The exposition names every stage series.
    let prom = obs.metrics.render_prometheus();
    for stage in ["parse", "bind", "transform", "serialize", "execute", "convert"] {
        let series = format!("hyperq_stage_duration_seconds_count{{stage=\"{stage}\"}} 1");
        assert!(prom.contains(&series), "missing {series} in:\n{prom}");
    }

    // The backend wrapper saw the round-trip and the returned rows.
    assert!(
        obs.metrics
            .counter_value("hyperq_backend_requests_total", &[("backend", "SimWH")])
            >= 1
    );
    assert_eq!(
        obs.metrics
            .counter_value("hyperq_backend_rows_total", &[("backend", "SimWH")]),
        outcome.result.row_count
    );
}

/// The static-analysis layer reports through the same registry: every
/// statement crosses the bind and serializer validation boundaries, the
/// walks land in the shared stage-duration histogram, and an induced
/// violation surfaces in both the Prometheus and JSON expositions.
#[test]
fn validator_metrics_appear_in_exposition() {
    let obs = ObsContext::new();
    let mut hq = session(&obs);
    hq.run_one(tpch::query(1)).unwrap();

    for stage in ["bind", "serializer"] {
        assert_eq!(
            obs.metrics
                .counter_value("hyperq_validation_checks_total", &[("stage", stage)]),
            1,
            "stage {stage} must be checked once"
        );
    }
    let h = obs
        .metrics
        .histogram(STAGE_DURATION_METRIC, &[("stage", "validate")]);
    assert!(h.count() >= 2, "validation walks must record durations");

    // Induce a violation through the log-only analyzer: a plan whose
    // projection references a column its input does not produce.
    use hyperq::core::{AnalyzeMode, Analyzer};
    use hyperq::xtra::expr::ScalarExpr;
    use hyperq::xtra::rel::{Plan, RelExpr};
    use hyperq::xtra::schema::{Field, Schema};
    use hyperq::xtra::types::SqlType;
    let broken = Plan::Query(RelExpr::Project {
        input: Box::new(RelExpr::Get {
            table: "T".into(),
            alias: None,
            schema: Schema::new(vec![Field {
                qualifier: Some("T".into()),
                name: "A".into(),
                ty: SqlType::Integer,
                nullable: true,
            }]),
        }),
        exprs: vec![(
            ScalarExpr::Column {
                qualifier: None,
                name: "GHOST".into(),
                ty: SqlType::Integer,
            },
            "G".into(),
        )],
    });
    let analyzer = Analyzer::new(AnalyzeMode::LogOnly, &obs);
    analyzer.check_plan(&broken, "serializer").unwrap();

    let prom = obs.metrics.render_prometheus();
    assert!(
        prom.contains("hyperq_validation_violations_total{invariant=\"unresolved_column\"} 1"),
        "violation counter missing in:\n{prom}"
    );
    assert!(
        obs.metrics
            .render_json()
            .contains("\"hyperq_validation_violations_total\""),
        "violation counter missing from JSON exposition"
    );
}

/// Every line of the Prometheus exposition must parse: `# HELP`/`# TYPE`
/// comments or `name{labels} value` samples with a finite numeric value,
/// and cumulative bucket counts ending in the `+Inf` bucket equal to
/// `_count`.
#[test]
fn prometheus_snapshot_parses_line_by_line() {
    let obs = ObsContext::new();
    let mut hq = session(&obs);
    hq.run_one(tpch::query(1)).unwrap();
    hq.run_one("HELP SESSION").unwrap();

    let text = obs.metrics.render_prometheus();
    assert!(!text.is_empty());
    let mut inf_buckets: Vec<(String, f64)> = Vec::new();
    let mut counts: Vec<(String, f64)> = Vec::new();
    let mut last_bucket: Option<(String, f64)> = None;
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "unknown comment: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line must be `series value`: {line}")
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
        assert!(value.is_finite(), "{line}");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if name.ends_with("_bucket") {
            // Within one histogram the bucket counts are cumulative.
            if let Some((prev_series, prev_value)) = &last_bucket {
                let same_hist =
                    prev_series.split("le=\"").next() == series.split("le=\"").next();
                if same_hist && !prev_series.contains("le=\"+Inf\"") {
                    assert!(
                        value >= *prev_value,
                        "buckets must be cumulative: {line} after {prev_series} {prev_value}"
                    );
                }
            }
            if series.contains("le=\"+Inf\"") {
                inf_buckets.push((name.trim_end_matches("_bucket").into(), value));
            }
            last_bucket = Some((series.to_string(), value));
        } else if name.ends_with("_count") {
            counts.push((name.trim_end_matches("_count").into(), value));
        }
    }
    assert!(!inf_buckets.is_empty(), "histograms must render buckets");
    for (hist, inf) in &inf_buckets {
        let total: f64 = counts
            .iter()
            .filter(|(n, _)| n == hist)
            .map(|(_, v)| *v)
            .sum();
        assert!(*inf <= total, "+Inf bucket of {hist} exceeds its _count sum");
    }

    // The emulation fan-out shows up by kind.
    assert_eq!(
        obs.metrics
            .counter_value("hyperq_emulation_requests_total", &[("kind", "help")]),
        1
    );

    // And the JSON snapshot mirrors the same registry.
    let json = obs.metrics.render_json();
    assert!(json.contains("\"hyperq_statements_total\""), "{json}");
}

/// `run_script` gives every statement its own trace, and failures land in
/// the error counter while still closing the span tree.
#[test]
fn run_script_trace_ids_and_error_accounting() {
    let obs = ObsContext::new();
    let mut hq = session(&obs);
    let outcomes = hq
        .run_script("SEL COUNT(*) FROM REGION; SEL COUNT(*) FROM NATION")
        .unwrap();
    assert_eq!(outcomes.len(), 2);
    let a = outcomes[0].trace_id.unwrap();
    let b = outcomes[1].trace_id.unwrap();
    assert_ne!(a, b, "statements must get distinct traces");
    // First statement carries the script parse; the second has no parse
    // span of its own.
    assert_eq!(
        obs.traces
            .spans_for(a)
            .iter()
            .filter(|s| s.name == "parse")
            .count(),
        1
    );
    assert_eq!(
        obs.traces
            .spans_for(b)
            .iter()
            .filter(|s| s.name == "parse")
            .count(),
        0
    );
    for trace in [a, b] {
        for stage in ["bind", "transform", "serialize", "execute"] {
            assert_eq!(
                obs.traces
                    .spans_for(trace)
                    .iter()
                    .filter(|s| s.name == stage)
                    .count(),
                1,
                "stage {stage} in trace {trace}"
            );
        }
    }

    assert!(hq.run_one("SEL * FROM NO_SUCH_TABLE").is_err());
    assert_eq!(
        obs.metrics
            .counter_value("hyperq_statements_total", &[("outcome", "error")]),
        1
    );
    // The statement table counted all three calls, the failure included.
    let rows = obs.provenance.statements().snapshot();
    assert_eq!(rows.iter().map(|r| r.calls).sum::<u64>(), 3);
    assert_eq!(rows.iter().map(|r| r.errors).sum::<u64>(), 1);
}

/// A statement-table row keeps the trace of its slowest call, whose span
/// tree renders while the trace ring still holds it.
#[test]
fn statement_row_keeps_the_slowest_calls_span_tree() {
    let obs = ObsContext::new();
    let mut hq = session(&obs);
    let outcome = hq.run_one(tpch::query(1)).unwrap();
    let rows = obs.provenance.statements().snapshot();
    let row = rows.iter().find(|r| r.sample.starts_with("SEL L_RETURNFLAG")).unwrap();
    assert_eq!(row.calls, 1);
    assert_eq!(Some(row.max_trace), outcome.trace_id);
    let tree = obs.traces.render_tree(row.max_trace);
    assert!(tree.starts_with("statement "), "{tree}");
    for stage in ["parse", "bind", "transform", "serialize", "execute"] {
        assert!(tree.contains(&format!("  {stage} ")), "{stage} missing in:\n{tree}");
    }
}

/// A session that survives a backend kill and a gate that sheds a waiter
/// must both surface in the Prometheus exposition: the
/// `hyperq_recovery_*` family with the replayed-entry breakdown, and the
/// `hyperq_admission_*` family with gate and shed-reason labels.
#[test]
fn recovery_and_admission_metrics_appear_in_exposition() {
    use hyperq::core::backend::testing::{FaultInjectingBackend, FaultPlan};
    use hyperq::core::backend::BackendErrorKind;
    use hyperq::wire::AdmissionGate;

    let obs = ObsContext::new();

    // Drive one transparent recovery: journal a session setting, then kill
    // the connection under the next query so the session reconnects and
    // replays the setting before re-issuing the query.
    let db = load();
    let fault = FaultInjectingBackend::wrap(db as Arc<dyn Backend>, FaultPlan::none());
    let plan_handle = Arc::clone(&fault);
    let mut hq = HyperQBuilder::for_target(fault as Arc<dyn Backend>, hyperq::core::targets::simwh()).obs(Arc::clone(&obs)).build();
    hq.run_one("SET SESSION DATEFORM = 'ANSIDATE'").unwrap();
    plan_handle.set_plan(FaultPlan::fail_n_then_succeed(1, BackendErrorKind::ConnectionLost));
    hq.run_one("SEL COUNT(*) FROM LINEITEM").unwrap();
    assert_eq!(obs.metrics.counter_value("hyperq_recovery_success_total", &[]), 1);

    // Drive one admission shed: hold the only slot, let a waiter time out,
    // then admit it after the slot frees.
    let gate = AdmissionGate::new("statement", 1, 1, Duration::from_millis(20), &obs);
    let held = gate.try_admit().unwrap();
    assert!(gate.try_admit().is_err(), "waiter must shed after admission_timeout");
    drop(held);
    drop(gate.try_admit().unwrap());

    let prom = obs.metrics.render_prometheus();
    for series in [
        "hyperq_recovery_attempts_total 1",
        "hyperq_recovery_success_total 1",
        "hyperq_recovery_replayed_entries_total{kind=\"setting\"} 1",
        "hyperq_recovery_duration_seconds_count 1",
        "hyperq_admission_admitted_total{gate=\"statement\"} 2",
        "hyperq_admission_queued_total{gate=\"statement\"} 1",
        "hyperq_admission_shed_total{gate=\"statement\",reason=\"timeout\"} 1",
        "hyperq_admission_shed_total{gate=\"statement\",reason=\"queue_full\"} 0",
        "hyperq_admission_queue_depth{gate=\"statement\"} 0",
        // Two immediate admits record a zero wait; the timed-out waiter
        // records its full queue time.
        "hyperq_admission_wait_seconds_count{gate=\"statement\"} 3",
    ] {
        assert!(prom.contains(series), "missing series `{series}` in exposition:\n{prom}");
    }
    // The JSON snapshot carries the same families.
    let json = obs.metrics.render_json();
    assert!(json.contains("hyperq_recovery_success_total"));
    assert!(json.contains("hyperq_admission_shed_total"));
}

/// The gateway times each wire request from frame decode to response
/// flush — what a client waits for, minus the network — and the histogram
/// surfaces in both exposition formats.
#[test]
fn wire_request_duration_appears_in_exposition() {
    use hyperq::wire::{Client, Gateway, GatewayConfig};

    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE T (N INTEGER)").unwrap();
    // The drain makes `shutdown` wait for the session thread, which records
    // a request's duration before it reads the logoff.
    let handle = Gateway::spawn(
        db as Arc<dyn Backend>,
        GatewayConfig { drain_timeout: Duration::from_secs(5), ..Default::default() },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    client.run("SEL COUNT(*) FROM T").unwrap();
    client.logoff().unwrap();
    handle.shutdown();

    let metrics = &ObsContext::global().metrics;
    let name = "hyperq_wire_request_duration_seconds";
    assert!(metrics.histogram(name, &[]).count() >= 1);
    let prom = metrics.render_prometheus();
    for series in [format!("{name}_count"), format!("{name}_bucket")] {
        assert!(prom.contains(&series), "missing series `{series}` in exposition:\n{prom}");
    }
    assert!(metrics.render_json().contains(name));
}

#[test]
fn cache_metric_families_expose_cleanly() {
    let obs = ObsContext::new();
    let mut hq = session(&obs);
    // One miss + populate, one warm hit, and a script whose statements are
    // cached individually — three entries total.
    hq.run_one("SEL L_ORDERKEY FROM LINEITEM WHERE L_QUANTITY > 10").unwrap();
    hq.run_one("SEL L_ORDERKEY FROM LINEITEM WHERE L_QUANTITY > 10").unwrap();
    hq.run_script("SEL COUNT(*) FROM REGION; SEL COUNT(*) FROM NATION").unwrap();

    let prom = obs.metrics.render_prometheus();
    for series in [
        "hyperq_cache_hits_total 1",
        "hyperq_cache_misses_total",
        "hyperq_cache_bypass_total",
        "hyperq_cache_entries 3",
        "hyperq_cache_lookup_seconds_count",
        "hyperq_cache_lookup_seconds_bucket",
    ] {
        assert!(prom.contains(series), "missing series `{series}` in exposition:\n{prom}");
    }
    // Every cache sample line is `name{labels} value` with a finite value —
    // the format the scrape endpoint and CI's exposition check rely on.
    for line in prom.lines().filter(|l| l.starts_with("hyperq_cache_")) {
        let (_, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line must be `series value`: {line}"));
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("unparseable value: {line}"));
        assert!(v.is_finite(), "{line}");
    }
    let json = obs.metrics.render_json();
    assert!(json.contains("hyperq_cache_hits_total"));
    assert!(json.contains("hyperq_cache_entries"));
}
