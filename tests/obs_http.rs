//! The observability endpoint against a live gateway: drive TPC-H and a
//! customer-corpus slice through the wire protocol, then watch the same
//! workload through plain HTTP GETs — Prometheus metrics with quantile
//! gauges, per-statement provenance, the per-fingerprint statement table,
//! the Figure 7/8 analog report projected from it, and the health probe.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hyperq::core::{Backend, ObsContext};
use hyperq::engine::EngineDb;
use hyperq::parser::fingerprint::fingerprint;
use hyperq::wire::{Client, Gateway, GatewayConfig};
use hyperq::workload::{customer::health, tpch};

/// Gateways report into the process-global observability context, so the
/// tests that count what lands there take turns.
fn global_obs() -> MutexGuard<'static, ()> {
    static GLOBAL_OBS: Mutex<()> = Mutex::new(());
    GLOBAL_OBS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

/// `(fingerprint, calls)` of every `/statements` row.
fn statement_calls(body: &str) -> Vec<(String, u64)> {
    body.split("{\"fingerprint\":\"")
        .skip(1)
        .map(|row| {
            let (fp, rest) = row.split_once("\",\"calls\":").unwrap();
            let calls: String = rest.chars().take_while(char::is_ascii_digit).collect();
            (fp.to_string(), calls.parse().unwrap())
        })
        .collect()
}

/// One big scenario instead of parallel small tests: the gateway reports
/// into the process-global observability context, so concurrent tests in
/// this binary would race each other's metrics.
#[test]
fn gateway_observability_endpoint_serves_live_workload_intelligence() {
    let _global = global_obs();
    ObsContext::global().provenance.clear();
    let db = Arc::new(EngineDb::new());
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).unwrap();
    }
    for (table, rows) in tpch::generate(0.002, 1234).tables() {
        db.load_rows(table, rows).unwrap();
    }
    let corpus = health(0.01);
    for ddl in &corpus.target_ddl {
        db.execute_sql(ddl).unwrap();
    }

    let config = GatewayConfig { obs_http: Some("127.0.0.1:0".to_string()), ..Default::default() };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, config).unwrap();
    let obs_addr = handle.obs_addr().expect("obs_http config must yield an endpoint");

    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    // TPC-H through the wire — Q1 twice so the translation cache records a
    // hit alongside the misses — then a customer-corpus slice on the same
    // session, its setup views included.
    let mut sent: Vec<&str> = [1, 1, 3, 6].map(tpch::query).to_vec();
    sent.extend(corpus.hyperq_setup.iter().chain(&corpus.distinct).map(String::as_str));
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for text in &sent {
        client.run(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        *expected.entry(format!("{:016x}", fingerprint(text).unwrap().hash)).or_default() += 1;
    }

    // /healthz — liveness.
    let (head, body) = get(obs_addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // /metrics — Prometheus exposition with the wire families and the
    // pre-computed latency quantile gauges.
    let (_, prom) = get(obs_addr, "/metrics");
    for needle in [
        "hyperq_wire_requests_total",
        "hyperq_statements_total",
        "hyperq_cache_hits_total",
        "hyperq_stage_duration_seconds_p50",
        "hyperq_stage_duration_seconds_p95",
        "hyperq_stage_duration_seconds_p99",
    ] {
        assert!(prom.contains(needle), "missing {needle} in /metrics");
    }

    // /metrics.json — same registry, parseable JSON.
    let (_, metrics_json) = get(obs_addr, "/metrics.json");
    hyperq::obs::json::validate(&metrics_json).expect("/metrics.json must parse");

    // /provenance — the most recent per-statement records.
    let (_, prov) = get(obs_addr, "/provenance?n=5");
    hyperq::obs::json::validate(&prov).expect("/provenance must parse");
    assert!(prov.contains("\"fingerprint\""), "{prov}");
    assert!(prov.matches("\"seq\"").count() <= 5, "n= must cap the record count");

    // /report — Figure 7/8 analog shapes folded from live records only.
    let (_, report) = get(obs_addr, "/report");
    hyperq::obs::json::validate(&report).expect("/report must parse");
    for shape in ["\"stage_shares\":", "\"overhead_bands\":", "\"features\":", "\"cache\":"] {
        assert!(report.contains(shape), "missing {shape} in /report");
    }
    // The corpus exercises transformation features; the report must list
    // at least one X-class code with a nonzero count.
    assert!(report.contains("\"code\":\"X"), "no transformation feature in: {report}");
    let (_, text) = get(obs_addr, "/report?format=text");
    assert!(text.contains("figure 7 analog"), "{text}");
    assert!(text.contains("figure 8 analog"), "{text}");

    // /statements — one row per distinct fingerprint run, calls summing
    // to the statements sent.
    let (_, statements) = get(obs_addr, "/statements");
    hyperq::obs::json::validate(&statements).expect("/statements must parse");
    assert!(statements.starts_with("{\"evicted\":0,"), "{statements}");
    let rows: BTreeMap<String, u64> = statement_calls(&statements).into_iter().collect();
    assert_eq!(rows, expected, "one row per fingerprint, one call per statement");
    assert_eq!(rows.values().sum::<u64>(), sent.len() as u64);
    assert!(statements.contains("\"max_trace_tree\":\"statement "), "{statements}");

    // /queries — the governor's in-flight table (idle here, so an empty
    // array) is attached whenever the gateway serves the endpoint.
    let (head, queries) = get(obs_addr, "/queries");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    hyperq::obs::json::validate(&queries).expect("/queries must parse");

    // Cancel-over-HTTP is config-gated and off by default: the route
    // refuses rather than exposing a kill switch on a read-only port.
    let (head, _) = get(obs_addr, "/queries?cancel=1");
    assert!(head.starts_with("HTTP/1.1 403"), "{head}");

    // /replicas — this gateway serves a single backend, so there is no
    // replica set to report on.
    let (head, body) = get(obs_addr, "/replicas");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(body.contains("no replica set"), "{body}");

    // Unknown routes and non-GET methods are refused, not crashed on.
    let (head, _) = get(obs_addr, "/admin");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    client.logoff().unwrap();
    handle.shutdown();
}

/// Connections come and go without leaving metric series behind: after
/// one warm-up session, twenty more logon/logoff cycles must not grow
/// `/metrics` (histogram bucket lines aside, which follow the observed
/// maximum).
#[test]
fn logon_logoff_cycles_add_no_metric_series() {
    let _global = global_obs();
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE CYCLES (ID INTEGER)").unwrap();
    let config = GatewayConfig { obs_http: Some("127.0.0.1:0".to_string()), ..Default::default() };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, config).unwrap();
    let obs_addr = handle.obs_addr().unwrap();
    let cycle = || {
        let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
        client.run("SEL COUNT(*) FROM CYCLES").unwrap();
        client.logoff().unwrap();
    };
    let series = || -> Vec<String> {
        let (_, prom) = get(obs_addr, "/metrics");
        prom.lines()
            .filter(|l| !l.starts_with('#') && !l.contains("_bucket{"))
            .filter_map(|l| l.rsplit_once(' ').map(|(series, _)| series.to_string()))
            .collect()
    };
    cycle();
    let warm = series();
    for _ in 0..20 {
        cycle();
    }
    let after = series();
    let added: Vec<&String> = after.iter().filter(|s| !warm.contains(s)).collect();
    assert!(added.is_empty(), "logon/logoff cycles added series: {added:?}");
    handle.shutdown();
}

/// A standalone endpoint spawned without a gateway has no governor to ask:
/// `/queries` answers 404, everything else still serves.
#[test]
fn queries_route_without_governor_is_absent() {
    let _global = global_obs();
    let handle = hyperq::wire::obs_http::spawn(
        "127.0.0.1:0",
        Arc::clone(hyperq::core::ObsContext::global()),
    )
    .unwrap();
    let (head, body) = get(handle.addr, "/queries");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(body.contains("no query governor"), "{body}");
    let (head, _) = get(handle.addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    handle.shutdown();
}

/// A replicated gateway reports per-replica health on `/replicas`: an
/// operator watching the endpoint sees the fence after a replica dies and
/// the journal drain back to zero after the prober heals it.
#[test]
fn replicas_route_reports_health_and_journal_depth() {
    let _global = global_obs();
    use hyperq::core::backend::testing::{FaultInjectingBackend, FaultPlan, FaultScope};
    use hyperq::core::{BackendErrorKind, ReplicaConfig};

    let primary = Arc::new(EngineDb::new());
    let standby = Arc::new(EngineDb::new());
    let injector = FaultInjectingBackend::wrap(
        Arc::clone(&standby) as Arc<dyn Backend>,
        FaultPlan::none(),
    );
    let handle = Gateway::spawn(
        Arc::clone(&primary) as Arc<dyn Backend>,
        GatewayConfig {
            obs_http: Some("127.0.0.1:0".to_string()),
            replicas: vec![Arc::clone(&injector) as Arc<dyn Backend>],
            replica_config: ReplicaConfig {
                probe_interval: std::time::Duration::from_millis(10),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let obs_addr = handle.obs_addr().unwrap();

    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    client.run("CREATE TABLE ORDERS_HA (ID INTEGER, TOTAL INTEGER)").unwrap();
    client.run("INSERT INTO ORDERS_HA VALUES (1, 100)").unwrap();

    // Both replicas healthy, journals empty.
    let (head, body) = get(obs_addr, "/replicas");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    hyperq::obs::json::validate(&body).expect("/replicas must parse");
    assert!(body.contains("\"name\":\"r0\"") && body.contains("\"name\":\"r1\""), "{body}");
    assert_eq!(body.matches("\"health\":\"healthy\"").count(), 2, "{body}");

    // Kill the standby: the next broadcast fences it and the route shows
    // the fence (the 10ms prober may heal it between writes, so hold the
    // fault across the observation).
    injector.set_plan(
        FaultPlan::always_fail(BackendErrorKind::ConnectionLost).with_scope(FaultScope::All),
    );
    client.run("INSERT INTO ORDERS_HA VALUES (2, 200)").unwrap();
    let (_, body) = get(obs_addr, "/replicas");
    assert!(body.contains("\"health\":\"fenced\""), "{body}");

    // Restore the link: the background prober drains the journal and
    // re-admits the standby without any operator action.
    injector.set_plan(FaultPlan::none());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (_, body) = get(obs_addr, "/replicas");
        if body.matches("\"health\":\"healthy\"").count() == 2 {
            assert!(body.contains("\"journal_depth\":0"), "{body}");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "prober never healed r1: {body}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    client.logoff().unwrap();
    handle.shutdown();
}

/// With `allow_http_cancel` enabled, an operator can watch a runaway query
/// on `/queries` and kill it with a plain `curl` — the client gets the
/// client-abort wire code and keeps its session.
#[test]
fn http_cancel_kills_live_query_when_enabled() {
    let _global = global_obs();
    use std::time::Duration;

    use hyperq::core::backend::{BackendError, ExecResult, RequestContext};
    use hyperq::governor::GovernorConfig;

    struct SlowBackend {
        inner: Arc<EngineDb>,
    }
    impl Backend for SlowBackend {
        fn name(&self) -> &str {
            "slow-simwh"
        }
        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            std::thread::sleep(Duration::from_millis(400));
            self.inner.execute(sql)
        }
        fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
            std::thread::sleep(Duration::from_millis(400));
            self.inner.execute_ctx(sql, ctx)
        }
        fn table_meta(&self, name: &str) -> Option<hyperq::xtra::catalog::TableDef> {
            self.inner.table_meta(name)
        }
        fn reset_session(&self) -> Result<(), BackendError> {
            self.inner.reset_session()
        }
    }

    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SALES VALUES (1, 500), (2, 300)").unwrap();
    let backend = Arc::new(SlowBackend { inner: db });
    let handle = Gateway::spawn(
        backend as Arc<dyn Backend>,
        GatewayConfig {
            obs_http: Some("127.0.0.1:0".to_string()),
            governor: GovernorConfig { allow_http_cancel: true, ..Default::default() },
            ..Default::default()
        },
    )
    .unwrap();
    let obs_addr = handle.obs_addr().unwrap();

    let addr = handle.addr;
    let victim = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "APP", "secret").unwrap();
        let err = c.run("SEL * FROM SALES").unwrap_err().to_string();
        // The session survives the kill: same connection, correct answer.
        let rows = c.run("SEL COUNT(*) FROM SALES").unwrap();
        c.logoff().unwrap();
        (err, format!("{:?}", rows[0].rows[0][0]))
    });

    // Watch /queries until the statement shows up in the executing stages,
    // then kill it by id.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let id = loop {
        let (_, body) = get(obs_addr, "/queries");
        if let Some(pos) = body.find("\"id\":") {
            let digits: String =
                body[pos + 5..].chars().take_while(char::is_ascii_digit).collect();
            if !digits.is_empty() {
                break digits.parse::<u64>().unwrap();
            }
        }
        assert!(std::time::Instant::now() < deadline, "query never appeared on /queries");
        std::thread::sleep(Duration::from_millis(10));
    };
    let (head, body) = get(obs_addr, &format!("/queries?cancel={id}"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"cancelled\":true"), "{body}");

    let (err, follow_up) = victim.join().unwrap();
    assert!(err.contains("[3110]"), "HTTP cancel must surface the abort code: {err}");
    assert_eq!(follow_up, "Int(2)");
    handle.shutdown();
}
