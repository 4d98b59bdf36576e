//! Resilience acceptance tests through the full stack: TPC-H workload via
//! Hyper-Q over a fault-injected SimWH target, plus gateway hardening
//! (connection cap, idle reap, backend faults on a live session).

use std::sync::Arc;
use std::time::Duration;

use hyperq::core::backend::testing::{FaultInjectingBackend, FaultPlan};
use hyperq::core::backend::BackendErrorKind;
use hyperq::core::resilience::{
    BreakerConfig, BreakerState, ResilienceConfig, RetryPolicy, TargetLink,
};
use hyperq::core::{Backend, HyperQ, HyperQBuilder, ObsContext};
use hyperq::engine::EngineDb;
use hyperq::wire::{AdmissionConfig, Client, Gateway, GatewayConfig};
use hyperq::workload::tpch;
use hyperq::xtra::datum::Datum;

const SCALE: f64 = 0.002;

fn tpch_db() -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    for ddl in tpch::ddl() {
        db.execute_sql(&ddl).unwrap();
    }
    for (table, rows) in tpch::generate(SCALE, 1234).tables() {
        db.load_rows(table, rows).unwrap();
    }
    db
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(500),
        max_backoff: Duration::from_millis(5),
        jitter: 0.5,
        seed: 99,
        deadline: None,
    }
}

/// Hyper-Q session over a resilient link → FaultInjecting → SimWH with an
/// isolated metrics registry.
fn stack(
    plan: FaultPlan,
    retry: RetryPolicy,
    breaker: BreakerConfig,
) -> (HyperQ, Arc<FaultInjectingBackend>, TargetLink, Arc<ObsContext>) {
    let obs = ObsContext::new();
    let fault = FaultInjectingBackend::wrap(tpch_db() as Arc<dyn Backend>, plan);
    let resilient = TargetLink::new(
        Arc::clone(&fault) as Arc<dyn Backend>,
        Some(ResilienceConfig { retry, breaker }),
        &obs,
    );
    let hq = HyperQBuilder::for_target(&resilient, hyperq::core::targets::simwh()).obs(Arc::clone(&obs)).build();
    (hq, fault, resilient, obs)
}

#[test]
fn tpch_query_survives_two_transient_failures() {
    // Acceptance: fail-twice-then-succeed ⇒ exactly 3 backend attempts,
    // retries counter = 2 in the Prometheus exposition, breaker closed.
    let (mut hq, fault, resilient, obs) = stack(
        FaultPlan::fail_n_then_succeed(2, BackendErrorKind::Transient),
        fast_retry(),
        BreakerConfig::default(),
    );
    let o = hq.run_one(tpch::query(6)).unwrap();
    assert!(!o.result.rows.is_empty(), "Q6 must return its revenue row");
    assert_eq!(fault.attempts(), 3, "2 injected failures + 1 success");
    assert_eq!(fault.injected_faults(), 2);

    let prom = obs.metrics.render_prometheus();
    let line = prom
        .lines()
        .find(|l| l.starts_with("hyperq_backend_retries_total") && l.contains("SimWH"))
        .unwrap_or_else(|| panic!("retries counter missing from exposition:\n{prom}"));
    assert!(line.ends_with(" 2"), "expected 2 retries: {line}");
    assert_eq!(resilient.breaker_state(), BreakerState::Closed);
}

#[test]
fn persistent_failure_opens_breaker_and_fails_fast() {
    let (mut hq, fault, resilient, obs) = stack(
        FaultPlan::always_fail(BackendErrorKind::ConnectionLost),
        RetryPolicy { max_attempts: 1, ..fast_retry() },
        BreakerConfig {
            failure_threshold: 4,
            cooldown: Duration::from_secs(300),
            success_threshold: 1,
        },
    );
    for _ in 0..4 {
        assert!(hq.run_one(tpch::query(6)).is_err());
    }
    assert_eq!(resilient.breaker_state(), BreakerState::Open);
    let reached = fault.attempts();

    let err = hq.run_one(tpch::query(6)).unwrap_err();
    assert!(err.to_string().contains("circuit breaker open"), "{err}");
    assert_eq!(fault.attempts(), reached, "open breaker must not reach the backend");
    assert_eq!(
        obs.metrics.gauge("hyperq_backend_breaker_state", &[("backend", "SimWH")]).get(),
        1,
        "breaker-state gauge must read open"
    );
}

#[test]
fn injected_latency_is_visible_in_attempt_histogram() {
    let (mut hq, _fault, _resilient, obs) = stack(
        FaultPlan::none().with_latency(Duration::from_millis(3)),
        fast_retry(),
        BreakerConfig::default(),
    );
    hq.run_one(tpch::query(6)).unwrap();
    let h = obs
        .metrics
        .histogram("hyperq_backend_attempt_duration_seconds", &[("backend", "SimWH")]);
    assert!(h.count() >= 1);
    assert!(h.max() >= Duration::from_millis(3), "latency injection must register: {:?}", h.max());
}

// ---------------------------------------------------------------------------
// Gateway hardening
// ---------------------------------------------------------------------------

fn sales_db() -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SALES VALUES (1, 500), (2, 300), (3, 700)").unwrap();
    db
}

/// Pass-through with its own name, so a test owns its `backend` label in
/// the process-wide registry the gateway reports into.
struct Named {
    name: &'static str,
    inner: Arc<EngineDb>,
}

impl Backend for Named {
    fn name(&self) -> &str {
        self.name
    }

    fn execute(
        &self,
        sql: &str,
    ) -> Result<hyperq::core::backend::ExecResult, hyperq::core::backend::BackendError> {
        self.inner.execute(sql)
    }

    fn table_meta(&self, name: &str) -> Option<hyperq::xtra::catalog::TableDef> {
        self.inner.table_meta(name)
    }
}

#[test]
fn one_sessions_bad_statements_do_not_open_the_breaker_for_the_others() {
    // Regression: every `Err` used to count toward the gateway-wide
    // breaker, so five division-by-zero statements from one client got
    // every healthy session `circuit breaker open`.
    let db = sales_db();
    db.execute_sql("CREATE TABLE T (K INTEGER)").unwrap();
    db.execute_sql("INSERT INTO T VALUES (1)").unwrap();
    let name = "caller-errors-simwh";
    let handle = Gateway::spawn(
        Arc::new(Named { name, inner: db }) as Arc<dyn Backend>,
        GatewayConfig::default(),
    )
    .unwrap();
    let mut bad = Client::connect(handle.addr, "APP", "secret").unwrap();
    let mut good = Client::connect(handle.addr, "APP", "secret").unwrap();
    for _ in 0..5 {
        let err = bad.run("SEL K / 0 FROM T").unwrap_err().to_string();
        assert!(err.contains("[3807]"), "a target-side statement error: {err}");
        assert!(!err.contains("circuit breaker"), "{err}");
    }
    let ok = good.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(ok[0].rows[0][0], Datum::Int(3));
    let m = &ObsContext::global().metrics;
    assert_eq!(
        m.counter_value(
            "hyperq_backend_breaker_transitions_total",
            &[("backend", name), ("to", "open")]
        ),
        0
    );
    assert_eq!(m.counter_value("hyperq_backend_breaker_fastfail_total", &[("backend", name)]), 0);
    bad.logoff().unwrap();
    good.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn backend_fault_mid_session_leaves_connection_usable() {
    // A backend failure must come back as a wire error on a connection
    // that still serves the next request.
    let fault = FaultInjectingBackend::wrap(
        sales_db() as Arc<dyn Backend>,
        FaultPlan::fail_n_then_succeed(1, BackendErrorKind::Fatal),
    );
    let handle = Gateway::spawn(
        Arc::clone(&fault) as Arc<dyn Backend>,
        GatewayConfig { resilience: None, ..Default::default() },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let err = client.run("SEL COUNT(*) FROM SALES").unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    let ok = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(ok[0].rows[0][0], Datum::Int(3));
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn gateway_retries_transient_backend_faults_transparently() {
    // With the default resilience config the client never sees the two
    // transient failures.
    let fault = FaultInjectingBackend::wrap(
        sales_db() as Arc<dyn Backend>,
        FaultPlan::fail_n_then_succeed(2, BackendErrorKind::Transient),
    );
    let handle =
        Gateway::spawn(Arc::clone(&fault) as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let ok = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(ok[0].rows[0][0], Datum::Int(3));
    assert_eq!(fault.attempts(), 3);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn connections_over_the_cap_are_rejected_gracefully() {
    // `admission: None` exercises the legacy hard reject: over-cap
    // connections fail immediately with code 3134 instead of queueing.
    let handle = Gateway::spawn(
        sales_db() as Arc<dyn Backend>,
        GatewayConfig { max_connections: 1, admission: None, ..Default::default() },
    )
    .unwrap();
    let mut first = Client::connect(handle.addr, "APP", "secret").unwrap();
    first.run("SEL COUNT(*) FROM SALES").unwrap();

    let Err(err) = Client::connect(handle.addr, "APP", "secret") else {
        panic!("second connection must be rejected at capacity");
    };
    assert!(err.to_string().contains("capacity"), "{err}");
    assert!(err.to_string().contains("[3134]"), "hard reject keeps its own code: {err}");

    // The rejected connection freed nothing: the first session still works,
    // and once it logs off a new connection is admitted.
    first.run("SEL COUNT(*) FROM SALES").unwrap();
    first.logoff().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect(handle.addr, "APP", "secret") {
            Ok(mut c) => {
                c.run("SEL COUNT(*) FROM SALES").unwrap();
                c.logoff().unwrap();
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed after logoff: {e}"),
        }
    }
    handle.shutdown();
}

#[test]
fn queued_connection_is_admitted_when_a_slot_frees() {
    let handle = Gateway::spawn(
        sales_db() as Arc<dyn Backend>,
        GatewayConfig {
            max_connections: 1,
            admission: Some(AdmissionConfig {
                admission_timeout: Duration::from_secs(5),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();
    let mut first = Client::connect(handle.addr, "APP", "secret").unwrap();
    first.run("SEL COUNT(*) FROM SALES").unwrap();

    // The second connection queues instead of being rejected; once the
    // first session logs off it is admitted and fully usable.
    let addr = handle.addr;
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "APP", "secret").unwrap();
        let rows = c.run("SEL COUNT(*) FROM SALES").unwrap();
        c.logoff().unwrap();
        rows[0].rows[0][0].clone()
    });
    std::thread::sleep(Duration::from_millis(100));
    first.logoff().unwrap();
    let count = waiter.join().unwrap();
    assert_eq!(count, Datum::Int(3), "queued connection must run normally once admitted");
    handle.shutdown();
}

#[test]
fn queued_connection_sheds_with_distinct_code_after_admission_timeout() {
    let timeout = Duration::from_millis(200);
    let handle = Gateway::spawn(
        sales_db() as Arc<dyn Backend>,
        GatewayConfig {
            max_connections: 1,
            admission: Some(AdmissionConfig {
                connection_queue: 1,
                admission_timeout: timeout,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();
    let mut first = Client::connect(handle.addr, "APP", "secret").unwrap();
    first.run("SEL COUNT(*) FROM SALES").unwrap();

    // Second connection queues, waits out the admission timeout, and is
    // shed with the timeout code — not the instant hard reject.
    let t0 = std::time::Instant::now();
    let Err(err) = Client::connect(handle.addr, "APP", "secret") else {
        panic!("second connection must be shed after the admission timeout");
    };
    assert!(t0.elapsed() >= timeout, "shed before admission_timeout elapsed: {err}");
    assert!(err.to_string().contains("[3135]"), "timeout shed carries its own code: {err}");

    // A full queue sheds immediately with the queue-full code: occupy the
    // single queue slot with a background waiter, then race a third
    // connection against it.
    let addr = handle.addr;
    let queued = std::thread::spawn(move || Client::connect(addr, "APP", "secret"));
    std::thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    let Err(err) = Client::connect(handle.addr, "APP", "secret") else {
        panic!("third connection must be shed queue-full");
    };
    assert!(err.to_string().contains("[3136]"), "queue-full shed carries its own code: {err}");
    assert!(t0.elapsed() < timeout, "queue-full shed must not wait out the timeout");
    assert!(queued.join().unwrap().is_err(), "background waiter itself times out");

    // The session that held the slot the whole time is unaffected.
    first.run("SEL COUNT(*) FROM SALES").unwrap();
    first.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn statement_admission_cap_queues_and_sheds() {
    let handle = Gateway::spawn(
        sales_db() as Arc<dyn Backend>,
        GatewayConfig {
            admission: Some(AdmissionConfig {
                statement_slots: Some(1),
                statement_queue: 0,
                admission_timeout: Duration::from_millis(200),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();
    // One slot and no queue: while a slow statement holds the slot, a
    // concurrent statement is shed with the queue-full code, and the
    // session that was shed stays usable afterwards.
    let addr = handle.addr;
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "APP", "secret").unwrap();
        // SLEEP is not in the dialect; a self-join is slow enough to hold
        // the slot while the other session collides with it.
        let _ = c.run(
            "SEL COUNT(*) FROM SALES A, SALES B, SALES C, SALES D, SALES E, SALES F, SALES G",
        );
        c.logoff().unwrap();
    });
    let mut other = Client::connect(handle.addr, "APP", "secret").unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let mut shed_seen = false;
    for _ in 0..20 {
        match other.run("SEL COUNT(*) FROM SALES") {
            Ok(_) => {}
            Err(e) => {
                let text = e.to_string();
                assert!(
                    text.contains("[3136]") || text.contains("[3135]"),
                    "statement shed must carry an admission code: {text}"
                );
                shed_seen = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    slow.join().unwrap();
    // Whether or not the race produced a shed (the slow statement may
    // finish first on a fast machine), the session must still work.
    other.run("SEL COUNT(*) FROM SALES").unwrap();
    other.logoff().unwrap();
    let _ = shed_seen;
    handle.shutdown();
}

#[test]
fn idle_sessions_are_reaped_by_the_io_timeout() {
    let handle = Gateway::spawn(
        sales_db() as Arc<dyn Backend>,
        GatewayConfig { io_timeout: Some(Duration::from_millis(50)), ..Default::default() },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    client.run("SEL COUNT(*) FROM SALES").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        client.run("SEL COUNT(*) FROM SALES").is_err(),
        "session past the idle budget must be gone"
    );
    handle.shutdown();
}

#[test]
fn io_timeout_reaps_only_an_idle_session() {
    use hyperq::wire::Message;
    // A statement three times longer than the I/O timeout still answers;
    // the same session, once idle past it, is reaped with 3403. Raw frames,
    // so the reap notice is read without sending another request.
    let fault = FaultInjectingBackend::wrap(
        sales_db() as Arc<dyn Backend>,
        FaultPlan::none().with_latency(Duration::from_millis(150)),
    );
    let handle = Gateway::spawn(
        fault as Arc<dyn Backend>,
        GatewayConfig { io_timeout: Some(Duration::from_millis(50)), ..Default::default() },
    )
    .unwrap();
    let mut s = std::net::TcpStream::connect(handle.addr).unwrap();
    Message::LogonRequest { user: "APP".into() }.write_to(&mut s).unwrap();
    let Message::AuthChallenge { salt } = Message::read_from(&mut s).unwrap() else {
        panic!("expected AuthChallenge");
    };
    let digest = hyperq::wire::auth::digest("secret", salt);
    Message::LogonDigest { digest }.write_to(&mut s).unwrap();
    assert!(matches!(Message::read_from(&mut s).unwrap(), Message::LogonOk { .. }));

    Message::SqlRequest { sql: "SEL COUNT(*) FROM SALES".into() }.write_to(&mut s).unwrap();
    let mut frames = Vec::new();
    while frames.last() != Some(&Message::EndRequest) {
        frames.push(Message::read_from(&mut s).unwrap());
    }
    assert!(
        matches!(frames[..], [.., Message::StatementOk { activity_count: 1 }, Message::EndRequest]),
        "the long statement must answer: {frames:?}"
    );

    std::thread::sleep(Duration::from_millis(200));
    match Message::read_from(&mut s).unwrap() {
        Message::ErrorResponse { code: 3403, .. } => {}
        other => panic!("expected the idle reap's 3403, got {other:?}"),
    }
    assert!(Message::read_from(&mut s).is_err(), "the reaped session must be closed");
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_sessions() {
    let handle = Gateway::spawn(
        sales_db() as Arc<dyn Backend>,
        GatewayConfig { drain_timeout: Duration::from_secs(5), ..Default::default() },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(handle.active_sessions(), 1);
    client.logoff().unwrap();
    let t0 = std::time::Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain must return as soon as sessions finish, not burn the whole budget"
    );
}
