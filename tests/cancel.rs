//! End-to-end query cancellation: client aborts over the wire (3110),
//! deadline expiry (3156), and memory-budget kills (2646), each leaving a
//! usable session, zero temp-table leaks, and a drained memory pool.
//!
//! The governor's contract under test: one well-defined error code per
//! cancel reason, visible end to end — bteq-style client → TCP gateway →
//! Hyper-Q pipeline → SimWH — and at the library level via
//! `Request::timeout` / `Request::memory_budget`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq::core::backend::{Backend, BackendError, ExecResult, RequestContext};
use hyperq::xtra::catalog::TableDef;
use hyperq::core::{HyperQBuilder, HyperQError, ObsContext, Request};
use hyperq::engine::EngineDb;
use hyperq::governor::{CancelReason, GovernorConfig};
use hyperq::wire::auth::digest;
use hyperq::wire::message::decode_client_row;
use hyperq::wire::{AdmissionConfig, Client, Gateway, GatewayConfig, GatewayHandle, Message};
use hyperq::xtra::Datum;

/// Backend wrapper that sleeps before every execute: makes statements take
/// deterministically long enough for aborts, deadlines, and the watchdog
/// to land mid-flight, in debug and release builds alike.
struct SlowBackend {
    name: &'static str,
    inner: Arc<EngineDb>,
    delay: Duration,
    /// Sleep after executing instead of before: the result is complete
    /// when a cancel lands.
    late: bool,
}

impl SlowBackend {
    fn wrap(inner: Arc<EngineDb>, delay: Duration) -> Arc<SlowBackend> {
        SlowBackend::named("slow-simwh", inner, delay)
    }

    /// With its own name, so a test owns its `backend` label in the
    /// process-wide registry the gateway reports into.
    fn named(name: &'static str, inner: Arc<EngineDb>, delay: Duration) -> Arc<SlowBackend> {
        Arc::new(SlowBackend { name, inner, delay, late: false })
    }

    fn late(inner: Arc<EngineDb>, delay: Duration) -> Arc<SlowBackend> {
        Arc::new(SlowBackend { name: "late-simwh", inner, delay, late: true })
    }

    fn delayed<T>(&self, run: impl FnOnce() -> T) -> T {
        if !self.late {
            std::thread::sleep(self.delay);
        }
        let out = run();
        if self.late {
            std::thread::sleep(self.delay);
        }
        out
    }
}

impl Backend for SlowBackend {
    fn name(&self) -> &str {
        self.name
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.delayed(|| self.inner.execute(sql))
    }

    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        self.delayed(|| self.inner.execute_ctx(sql, ctx))
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        self.inner.table_meta(name)
    }

    fn reset_session(&self) -> Result<(), BackendError> {
        self.inner.reset_session()
    }
}

fn seed_db() -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SALES VALUES (1, 500), (2, 300), (3, 700)").unwrap();
    db.execute_sql("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)").unwrap();
    db.execute_sql("INSERT INTO EMP VALUES (1,7),(7,8),(8,10),(9,10),(10,11)").unwrap();
    db
}

/// Wait for the registration table to drain: the gateway drops a query's
/// registration just after flushing its response, so the client can observe
/// the response a moment before the books close.
fn assert_governor_drained(handle: &GatewayHandle) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if handle.governor().inflight() == 0 && handle.governor().pool().used() == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "governor still holds queries or memory");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn client_abort_mid_query_returns_3110_and_session_survives() {
    let db = seed_db();
    let tables_before = db.table_names();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(400));
    let handle = Gateway::spawn(backend as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();

    let mut aborter = client.aborter().unwrap();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(80));
        aborter.abort().unwrap();
    });
    let err = client.run("SEL STORE, AMOUNT FROM SALES ORDER BY AMOUNT").unwrap_err();
    killer.join().unwrap();
    let err = err.to_string();
    assert!(err.contains("[3110]"), "client abort must surface wire code 3110: {err}");
    assert!(err.contains("client_abort"), "{err}");

    // The single well-defined error was the whole story: the session is
    // immediately usable and answers correctly.
    let rows = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(rows[0].rows[0][0], Datum::Int(3));

    assert_eq!(db.table_names(), tables_before, "cancelled query must not leak tables");
    assert_governor_drained(&handle);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn gateway_default_deadline_cancels_with_3156() {
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(500));
    let handle = Gateway::spawn(
        backend as Arc<dyn Backend>,
        GatewayConfig {
            governor: GovernorConfig {
                default_query_timeout: Some(Duration::from_millis(100)),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();

    let err = client.run("SEL * FROM SALES").unwrap_err().to_string();
    assert!(err.contains("[3156]"), "deadline expiry must surface wire code 3156: {err}");
    assert!(err.contains("deadline"), "{err}");

    // The deadline is per statement, not per session: the next statement
    // gets a fresh 100ms budget, so a fast one (no table access after the
    // cache warms nothing — keep it under the budget via the engine's
    // speed) still completes when it fits.
    let cancels = ObsContext::global()
        .metrics
        .counter_value("hyperq_governor_cancels_total", &[("reason", "deadline")]);
    assert!(cancels >= 1, "the deadline cancel must be counted");
    assert_governor_drained(&handle);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn client_requested_timeout_cancels_with_3156_and_session_survives() {
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(400));
    // No gateway-wide default: the limit rides in on SqlRequestTimed.
    let handle = Gateway::spawn(backend as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();

    let err = client
        .run_timed("SEL * FROM SALES", Duration::from_millis(100))
        .unwrap_err()
        .to_string();
    assert!(err.contains("[3156]"), "client-requested timeout must map to 3156: {err}");

    // An untimed request on the same session has no deadline at all.
    let rows = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(rows[0].rows[0][0], Datum::Int(3));
    assert_governor_drained(&handle);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn memory_budget_kill_returns_2646_without_leaks() {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE T (N INTEGER)").unwrap();
    let values: Vec<String> = (0..400).map(|i| format!("({i})")).collect();
    db.execute_sql(&format!("INSERT INTO T VALUES {}", values.join(", "))).unwrap();
    let tables_before = db.table_names();

    let handle = Gateway::spawn(
        Arc::clone(&db) as Arc<dyn Backend>,
        GatewayConfig {
            governor: GovernorConfig { per_query_memory: 64 * 1024, ..Default::default() },
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();

    // 400 × 400 × 400 rows of cross join: the engine charges materialized
    // join output incrementally and trips the 64 KiB budget mid-build, long
    // before the process feels any memory pressure.
    let err = client
        .run("SEL A.N FROM T A, T B, T C WHERE A.N = B.N")
        .unwrap_err()
        .to_string();
    assert!(err.contains("[2646]"), "budget kill must surface wire code 2646: {err}");
    assert!(err.contains("budget"), "{err}");

    // Small statements fit the same budget and the session stays usable.
    let rows = client.run("SEL COUNT(*) FROM T").unwrap();
    assert_eq!(rows[0].rows[0][0], Datum::Int(400));
    assert_eq!(db.table_names(), tables_before, "budget kill must not leak tables");
    assert_governor_drained(&handle);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn library_level_timeout_cancels_request() {
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(300));
    let mut hq =
        HyperQBuilder::for_target(backend as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();

    let err = hq
        .run(Request::script("SEL * FROM SALES").timeout(Duration::from_millis(60)))
        .unwrap_err();
    match &err {
        HyperQError::Cancelled(c) => assert_eq!(c.reason, CancelReason::DeadlineExceeded),
        other => panic!("expected Cancelled(deadline), got {other}"),
    }

    // Same session, no timeout: runs to completion.
    let out = hq.run(Request::script("SEL COUNT(*) FROM SALES")).unwrap();
    assert_eq!(out.last().unwrap().result.rows[0][0], Datum::Int(3));
}

#[test]
fn library_level_memory_budget_cancels_request() {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE T (N INTEGER)").unwrap();
    let values: Vec<String> = (0..400).map(|i| format!("({i})")).collect();
    db.execute_sql(&format!("INSERT INTO T VALUES {}", values.join(", "))).unwrap();
    let mut hq =
        HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq::core::targets::simwh())
            .build();

    let err = hq
        .run(Request::script("SEL A.N FROM T A, T B, T C").memory_budget(32 * 1024))
        .unwrap_err();
    match &err {
        HyperQError::Cancelled(c) => assert_eq!(c.reason, CancelReason::BudgetExceeded),
        other => panic!("expected Cancelled(budget), got {other}"),
    }
    let out = hq.run(Request::script("SEL COUNT(*) FROM T")).unwrap();
    assert_eq!(out.last().unwrap().result.rows[0][0], Datum::Int(400));

    // A whole-table read's projection passes the table's rows on and is
    // still charged for them: one charge of T is 400 rows x 72 bytes, and
    // a budget between one and two charges kills it.
    let err = hq.run(Request::script("SEL * FROM T").memory_budget(40_000)).unwrap_err();
    match &err {
        HyperQError::Cancelled(c) => assert_eq!(c.reason.wire_code(), 2646),
        other => panic!("expected Cancelled(budget), got {other}"),
    }
    let out = hq.run(Request::script("SEL * FROM T").memory_budget(60_000)).unwrap();
    assert_eq!(out.last().unwrap().result.row_count, 400);
}

#[test]
fn consecutive_mid_execute_kills_leave_the_breaker_closed_for_a_survivor() {
    // Regression: a governor kill surfacing mid-execute used to count as a
    // target failure, so five of them in a row (the default threshold)
    // opened the gateway-wide breaker and the next healthy statement was
    // refused `circuit breaker open` (the 1-in-7 cancel-soak flake).
    let db = seed_db();
    let vals: Vec<String> = (0..64).map(|i| format!("({i})")).collect();
    db.execute_sql("CREATE TABLE B64 (N INTEGER)").unwrap();
    db.execute_sql(&format!("INSERT INTO B64 VALUES {}", vals.join(", "))).unwrap();
    let name = "kill-streak-simwh";
    let backend = SlowBackend::named(name, Arc::clone(&db), Duration::from_millis(150));
    let handle = Gateway::spawn(
        backend as Arc<dyn Backend>,
        GatewayConfig {
            governor: GovernorConfig { per_query_memory: 256 * 1024, ..Default::default() },
            ..Default::default()
        },
    )
    .unwrap();
    let mut victim = Client::connect(handle.addr, "APP", "secret").unwrap();
    let mut survivor = Client::connect(handle.addr, "APP", "secret").unwrap();

    for _ in 0..2 {
        let mut aborter = victim.aborter().unwrap();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            aborter.abort().unwrap();
        });
        let e = victim.run("SEL COUNT(*) FROM SALES").unwrap_err().to_string();
        killer.join().unwrap();
        assert!(e.contains("[3110]"), "abort kill: {e}");

        let e = victim
            .run_timed("SEL COUNT(*) FROM SALES", Duration::from_millis(40))
            .unwrap_err()
            .to_string();
        assert!(e.contains("[3156]"), "deadline kill: {e}");

        let e = victim.run("SEL A.N FROM B64 A, B64 B, B64 C").unwrap_err().to_string();
        assert!(e.contains("[2646]"), "budget kill: {e}");
    }

    let rows = survivor.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(rows[0].rows[0][0], Datum::Int(3));
    let m = &ObsContext::global().metrics;
    assert_eq!(
        m.counter_value(
            "hyperq_backend_breaker_transitions_total",
            &[("backend", name), ("to", "open")]
        ),
        0
    );
    assert_eq!(m.counter_value("hyperq_backend_breaker_fastfail_total", &[("backend", name)]), 0);
    victim.logoff().unwrap();
    survivor.logoff().unwrap();
    handle.shutdown();
}

/// A driver that reports the mid tier's deadline kill in its own words —
/// text the flat-message classifier reads as a target-side `Timeout`.
struct DriverWordedKill(Arc<SlowBackend>);

impl Backend for DriverWordedKill {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        std::thread::sleep(self.0.delay);
        if hyperq::governor::checkpoint().is_err() {
            return Err(BackendError::classify("canceling statement due to statement timeout"));
        }
        self.0.inner.execute(sql)
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        self.0.table_meta(name)
    }
}

#[test]
fn a_deadline_killed_replicated_read_fences_no_replica() {
    // Regression: the replica set judged a failure by its kind alone, so a
    // read killed by its own deadline (a timeout-class error from a healthy
    // replica) fenced that replica. One attempt per replica, so the error
    // reaches the replica set as the driver worded it.
    use hyperq::core::resilience::{ResilienceConfig, RetryPolicy};
    let replica = || {
        let slow = SlowBackend::wrap(seed_db(), Duration::from_millis(300));
        Arc::new(DriverWordedKill(slow)) as Arc<dyn Backend>
    };
    let handle = Gateway::spawn(
        replica(),
        GatewayConfig {
            replicas: vec![replica()],
            replica_config: hyperq::core::ReplicaConfig {
                probe_interval: Duration::ZERO,
                resilience: Some(ResilienceConfig {
                    retry: RetryPolicy { max_attempts: 1, ..Default::default() },
                    ..Default::default()
                }),
                ..Default::default()
            },
            governor: GovernorConfig {
                default_query_timeout: Some(Duration::from_millis(100)),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let err = client.run("SEL * FROM SALES").unwrap_err().to_string();
    assert!(err.contains("[3156]"), "{err}");
    let rep = handle.replication().expect("replicated gateway");
    assert_eq!(rep.healthy_replicas(), 2, "{:?}", rep.snapshot());
    assert!(rep.snapshot().iter().all(|s| s.fences == 0), "{:?}", rep.snapshot());
    client.logoff().unwrap();
    handle.shutdown();
}

const RECURSIVE_REPORTS: &str = "WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS ( \
     SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10 \
     UNION ALL \
     SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS \
     WHERE REPORTS.EMPNO = EMP.MGRNO ) \
   SELECT EMPNO FROM REPORTS ORDER BY EMPNO";

#[test]
fn deadline_mid_recursion_drops_emulation_temps() {
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(60));
    let mut hq =
        HyperQBuilder::for_target(backend as Arc<dyn Backend>, hyperq::core::targets::simwh()).build();

    // The recursion emulation issues several backend statements (work-table
    // CTAS, per-step inserts); at 60ms each the 130ms deadline expires
    // mid-sequence. The shielded cleanup must still drop every temp table
    // — a cancelled statement may not leak target-side state (the PR4
    // journal invariant).
    let err = hq
        .run(Request::script(RECURSIVE_REPORTS).timeout(Duration::from_millis(130)))
        .unwrap_err();
    assert!(matches!(err, HyperQError::Cancelled(_)), "expected cancel, got {err}");
    assert!(
        db.table_names().iter().all(|t| !t.starts_with("WT_") && !t.starts_with("TT_")),
        "cancelled recursion leaked temps: {:?}",
        db.table_names()
    );

    // The same recursion without a deadline completes on this session.
    let out = hq.run(Request::script(RECURSIVE_REPORTS)).unwrap();
    assert_eq!(out.last().unwrap().result.rows.len(), 4);
}

#[test]
fn queued_statement_sheds_at_its_deadline_not_admission_timeout() {
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(600));
    let handle = Gateway::spawn(
        backend as Arc<dyn Backend>,
        GatewayConfig {
            admission: Some(AdmissionConfig {
                statement_slots: Some(1),
                statement_queue: 8,
                // Far longer than any statement deadline in this test: a
                // shed before this elapses proves the governor clamped it.
                admission_timeout: Duration::from_secs(30),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();

    let addr = handle.addr;
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "APP", "secret").unwrap();
        c.run("SEL * FROM SALES").unwrap();
        c.logoff().unwrap();
    });
    // Let the holder win the single statement slot.
    std::thread::sleep(Duration::from_millis(150));

    let mut client = Client::connect(addr, "APP", "secret").unwrap();
    let t0 = Instant::now();
    let err = client
        .run_timed("SEL * FROM SALES", Duration::from_millis(100))
        .unwrap_err()
        .to_string();
    let waited = t0.elapsed();
    assert!(err.contains("[3156]"), "queued-past-deadline must report the cancel code: {err}");
    assert!(
        waited < Duration::from_secs(5),
        "statement must shed at its deadline, not the 30s admission timeout ({waited:?})"
    );

    holder.join().unwrap();
    assert_governor_drained(&handle);
    client.logoff().unwrap();
    handle.shutdown();
}

/// A logged-on TDWP session with frames written and read by hand, so a
/// test decides which frames share one write.
fn raw_session(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    Message::LogonRequest { user: "APP".into() }.write_to(&mut s).unwrap();
    let Message::AuthChallenge { salt } = Message::read_from(&mut s).unwrap() else {
        panic!("expected AuthChallenge");
    };
    Message::LogonDigest { digest: digest("secret", salt) }.write_to(&mut s).unwrap();
    assert!(matches!(Message::read_from(&mut s).unwrap(), Message::LogonOk { .. }));
    s
}

/// Every frame of one response, through its `EndRequest`.
fn read_response(s: &mut TcpStream) -> Vec<Message> {
    let mut frames = Vec::new();
    loop {
        let m = Message::read_from(s).unwrap();
        let end = m == Message::EndRequest;
        frames.push(m);
        if end {
            return frames;
        }
    }
}

/// The single value of a one-row, one-column response.
fn single_value(frames: &[Message]) -> Datum {
    match frames {
        [Message::RecordSetHeader { columns }, Message::Record { row_bytes }, Message::StatementOk { .. }, Message::EndRequest] => {
            decode_client_row(row_bytes, columns).unwrap().remove(0)
        }
        other => panic!("expected one row, got {other:?}"),
    }
}

fn frames(messages: &[Message]) -> Vec<u8> {
    messages.iter().flat_map(Message::to_frame).collect()
}

#[test]
fn abort_in_the_same_write_as_its_request_returns_3110() {
    // The abort can reach the reader before the session thread has even
    // registered the request's governor; it must still kill that request.
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(300));
    let handle = Gateway::spawn(backend as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut s = raw_session(handle.addr);

    let sql = "SEL COUNT(*) FROM SALES".to_string();
    s.write_all(&frames(&[Message::SqlRequest { sql: sql.clone() }, Message::AbortRequest]))
        .unwrap();
    match read_response(&mut s).as_slice() {
        [Message::ErrorResponse { code: 3110, .. }, Message::EndRequest] => {}
        other => panic!("expected the abort's 3110, got {other:?}"),
    }

    Message::SqlRequest { sql }.write_to(&mut s).unwrap();
    assert_eq!(single_value(&read_response(&mut s)), Datum::Int(3));
    assert_governor_drained(&handle);
    Message::Logoff.write_to(&mut s).unwrap();
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = Gateway::spawn(seed_db() as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut s = raw_session(handle.addr);
    s.write_all(&frames(&[
        Message::SqlRequest { sql: "SEL COUNT(*) FROM SALES".into() },
        Message::SqlRequest { sql: "SEL MAX(AMOUNT) FROM SALES".into() },
    ]))
    .unwrap();
    assert_eq!(single_value(&read_response(&mut s)), Datum::Int(3));
    assert_eq!(single_value(&read_response(&mut s)), Datum::Int(700));
    Message::Logoff.write_to(&mut s).unwrap();
    handle.shutdown();
}

#[test]
fn abort_after_the_header_stops_a_streaming_result_with_3110() {
    // 40k rows of ~400 bytes (16 MB) in 1024-row batches: far more than
    // the socket buffers hold, so while this client is not reading the
    // gateway is still mid-result when the abort lands.
    let db = seed_db();
    db.execute_sql("CREATE TABLE WIDE (K INTEGER, PAD VARCHAR(500))").unwrap();
    let pad = "p".repeat(400);
    let rows: Vec<Vec<Datum>> =
        (0..40_000).map(|i| vec![Datum::Int(i), Datum::str(&pad)]).collect();
    db.load_rows("WIDE", rows).unwrap();
    let handle = Gateway::spawn(db as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut s = raw_session(handle.addr);

    Message::SqlRequest { sql: "SEL K, PAD FROM WIDE".into() }.write_to(&mut s).unwrap();
    assert!(matches!(Message::read_from(&mut s).unwrap(), Message::RecordSetHeader { .. }));
    Message::AbortRequest.write_to(&mut s).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let response = read_response(&mut s);
    let records = response.iter().filter(|m| matches!(m, Message::Record { .. })).count();
    assert!(records > 0 && records < 40_000, "{records} records before the abort");
    match &response[records..] {
        [Message::ErrorResponse { code: 3110, .. }, Message::EndRequest] => {}
        other => panic!("expected the abort's 3110 after the records, got {other:?}"),
    }

    Message::SqlRequest { sql: "SEL COUNT(*) FROM SALES".into() }.write_to(&mut s).unwrap();
    assert_eq!(single_value(&read_response(&mut s)), Datum::Int(3));
    assert_governor_drained(&handle);
    Message::Logoff.write_to(&mut s).unwrap();
    handle.shutdown();
}

#[test]
fn statement_cancelled_before_conversion_gets_no_header() {
    // The result is complete when the 100 ms limit expires: the cancel is
    // seen at the start of conversion, before any header is written.
    let backend = SlowBackend::late(seed_db(), Duration::from_millis(300));
    let handle = Gateway::spawn(backend as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut s = raw_session(handle.addr);
    Message::SqlRequestTimed { timeout_ms: 100, sql: "SEL * FROM SALES".into() }
        .write_to(&mut s)
        .unwrap();
    match read_response(&mut s).as_slice() {
        [Message::ErrorResponse { code: 3156, .. }, Message::EndRequest] => {}
        other => panic!("expected 3156 and no header, got {other:?}"),
    }
    Message::SqlRequest { sql: "SEL COUNT(*) FROM SALES".into() }.write_to(&mut s).unwrap();
    assert_eq!(single_value(&read_response(&mut s)), Datum::Int(3));
    assert_governor_drained(&handle);
    Message::Logoff.write_to(&mut s).unwrap();
    handle.shutdown();
}

fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn client_vanishing_mid_statement_leaves_nothing_in_flight() {
    let db = seed_db();
    let backend = SlowBackend::wrap(Arc::clone(&db), Duration::from_millis(400));
    let handle = Gateway::spawn(
        backend as Arc<dyn Backend>,
        GatewayConfig { obs_http: Some("127.0.0.1:0".into()), ..Default::default() },
    )
    .unwrap();
    let obs_addr = handle.obs_addr().unwrap();
    let mut s = raw_session(handle.addr);
    Message::SqlRequest { sql: "SEL * FROM SALES".into() }.write_to(&mut s).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while !http_get(obs_addr, "/queries").contains("\"id\":") {
        assert!(Instant::now() < deadline, "statement never appeared on /queries");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(s);

    assert_governor_drained(&handle);
    assert_eq!(http_get(obs_addr, "/queries").trim(), "[]");
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "the vanished client's session never ended");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

#[test]
fn wire_statements_have_no_latency_floor() {
    // The parent spent ~12 ms per statement joining a per-statement abort
    // watcher that polled the socket every 5 ms.
    let handle = Gateway::spawn(seed_db() as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    for _ in 0..10 {
        client.run("SEL COUNT(*) FROM SALES").unwrap();
    }
    let mut latencies: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            client.run("SEL COUNT(*) FROM SALES").unwrap();
            t0.elapsed()
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(median < Duration::from_millis(3), "median wire statement took {median:?}");
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn idle_abort_is_ignored_and_session_unaffected() {
    let db = seed_db();
    let handle = Gateway::spawn(db as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();

    // Nothing is running: the abort pairs with no request and must produce
    // no response — the next query's reply is its own, undisturbed.
    client.aborter().unwrap().abort().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let rows = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(rows[0].rows[0][0], Datum::Int(3));
    client.logoff().unwrap();
    handle.shutdown();
}
