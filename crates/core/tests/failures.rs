//! Fault injection: the pipeline's behavior when the target database
//! rejects or fails requests, and the exact SQL traffic it generates —
//! including the resilience layer (retry/backoff, deadlines, circuit
//! breaker, replay safety).

use std::sync::Arc;
use std::time::Duration;

use hyperq_core::backend::testing::{FaultInjectingBackend, FaultPlan, ScriptedBackend};
use hyperq_core::backend::{Backend, BackendError, BackendErrorKind, ExecResult, RequestContext};
use hyperq_core::resilience::{
    BreakerConfig, BreakerState, ResilienceConfig, RetryPolicy, TargetLink,
};
use hyperq_core::{HyperQ, HyperQBuilder, ObsContext};
use hyperq_xtra::catalog::{ColumnDef, TableDef};
use hyperq_xtra::types::SqlType;

fn sales_table() -> TableDef {
    TableDef::new(
        "SALES",
        vec![
            ColumnDef::new("STORE", SqlType::Integer, true),
            ColumnDef::new("AMOUNT", SqlType::Integer, true),
        ],
    )
}

#[test]
fn backend_error_propagates_with_message() {
    let backend = ScriptedBackend {
        log: parking_lot::Mutex::new(Vec::new()),
        tables: vec![sales_table()],
        responder: Box::new(|_| Err(BackendError::fatal("disk quota exceeded"))),
    };
    let mut hq = HyperQBuilder::for_target(Arc::new(backend), hyperq_core::targets::simwh()).build();
    let err = hq.run_one("SEL * FROM SALES").unwrap_err();
    assert!(err.to_string().contains("disk quota exceeded"), "{err}");
}

#[test]
fn translation_errors_do_not_reach_the_backend() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    // Bind error: unknown column.
    assert!(hq.run_one("SEL NOPE FROM SALES").is_err());
    // Parse error.
    assert!(hq.run_one("SELEKT 1").is_err());
    assert!(
        backend.sql_log().is_empty(),
        "failed translations must not generate target traffic: {:?}",
        backend.sql_log()
    );
}

#[test]
fn exactly_one_request_for_a_simple_query() {
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    hq.run_one("SEL STORE FROM SALES WHERE AMOUNT > 10").unwrap();
    assert_eq!(backend.sql_log().len(), 1);
}

#[test]
fn merge_generates_update_then_insert() {
    let backend = Arc::new(ScriptedBackend {
        log: parking_lot::Mutex::new(Vec::new()),
        tables: vec![
            sales_table(),
            TableDef::new(
                "FEED",
                vec![
                    ColumnDef::new("STORE", SqlType::Integer, true),
                    ColumnDef::new("AMOUNT", SqlType::Integer, true),
                ],
            ),
        ],
        responder: Box::new(|_| Ok(ExecResult::affected(1))),
    });
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    hq.run_one(
        "MERGE INTO SALES S USING FEED F ON S.STORE = F.STORE \
         WHEN MATCHED THEN UPDATE SET AMOUNT = F.AMOUNT \
         WHEN NOT MATCHED THEN INSERT (STORE, AMOUNT) VALUES (F.STORE, F.AMOUNT)",
    )
    .unwrap();
    let log = backend.sql_log();
    assert_eq!(log.len(), 2, "{log:?}");
    assert!(log[0].starts_with("UPDATE SALES"), "{}", log[0]);
    assert!(log[1].starts_with("INSERT INTO SALES"), "{}", log[1]);
    assert!(log[1].contains("NOT EXISTS"), "{}", log[1]);
}

#[test]
fn recursion_failure_mid_emulation_surfaces() {
    // The seed CTAS succeeds, the first recursive-step CTAS fails: the
    // error must surface rather than hang or corrupt state.
    let calls = Arc::new(parking_lot::Mutex::new(0usize));
    let calls2 = Arc::clone(&calls);
    let backend = ScriptedBackend {
        log: parking_lot::Mutex::new(Vec::new()),
        tables: vec![TableDef::new(
            "EMP",
            vec![
                ColumnDef::new("EMPNO", SqlType::Integer, true),
                ColumnDef::new("MGRNO", SqlType::Integer, true),
            ],
        )],
        responder: Box::new(move |_| {
            let mut n = calls2.lock();
            *n += 1;
            if *n >= 3 {
                Err(BackendError::fatal("temp space exhausted"))
            } else {
                Ok(ExecResult::affected(1))
            }
        }),
    };
    let mut hq = HyperQBuilder::for_target(Arc::new(backend), hyperq_core::targets::simwh()).build();
    let err = hq
        .run_one(
            "WITH RECURSIVE R (EMPNO, MGRNO) AS ( \
               SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 1 \
               UNION ALL SELECT E.EMPNO, E.MGRNO FROM EMP E, R WHERE R.EMPNO = E.MGRNO) \
             SELECT EMPNO FROM R",
        )
        .unwrap_err();
    assert!(err.to_string().contains("temp space exhausted"), "{err}");
}

#[test]
fn runaway_recursion_hits_the_step_limit() {
    // A backend that always reports progress: the emulation must stop at
    // its bound instead of spinning forever.
    let backend = ScriptedBackend {
        log: parking_lot::Mutex::new(Vec::new()),
        tables: vec![TableDef::new(
            "EMP",
            vec![ColumnDef::new("EMPNO", SqlType::Integer, true)],
        )],
        responder: Box::new(|_| Ok(ExecResult::affected(1))),
    };
    let mut hq = HyperQBuilder::for_target(Arc::new(backend), hyperq_core::targets::simwh()).build();
    let err = hq
        .run_one(
            "WITH RECURSIVE R (EMPNO) AS ( \
               SELECT EMPNO FROM EMP UNION ALL SELECT R.EMPNO FROM EMP, R) \
             SELECT EMPNO FROM R",
        )
        .unwrap_err();
    assert!(err.to_string().contains("converge"), "{err}");
}

#[test]
fn unknown_macro_and_procedure_errors() {
    let backend = ScriptedBackend::acking(vec![]);
    let mut hq = HyperQBuilder::for_target(Arc::new(backend), hyperq_core::targets::simwh()).build();
    assert!(hq.run_one("EXEC NO_SUCH_MACRO(1)").unwrap_err().to_string().contains("NO_SUCH_MACRO"));
    assert!(hq.run_one("CALL NO_SUCH_PROC(1)").unwrap_err().to_string().contains("NO_SUCH_PROC"));
}

#[test]
fn duplicate_view_without_replace_is_error() {
    let backend = ScriptedBackend::acking(vec![sales_table()]);
    let mut hq = HyperQBuilder::for_target(Arc::new(backend), hyperq_core::targets::simwh()).build();
    hq.run_one("CREATE VIEW V AS SEL STORE FROM SALES").unwrap();
    assert!(hq.run_one("CREATE VIEW V AS SEL AMOUNT FROM SALES").is_err());
    // REPLACE VIEW succeeds.
    hq.run_one("REPLACE VIEW V AS SEL AMOUNT FROM SALES").unwrap();
}

#[test]
fn session_isolation_of_dtm_objects() {
    // Two sessions against the same backend: DTM objects (macros, views)
    // are per-session state, like Teradata volatile objects.
    let backend = Arc::new(ScriptedBackend::acking(vec![sales_table()]));
    let mut s1 = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    let mut s2 = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    s1.run_one("CREATE MACRO M AS (SEL STORE FROM SALES;)").unwrap();
    assert!(s1.run_one("EXEC M").is_ok());
    assert!(s2.run_one("EXEC M").is_err(), "macros are session-scoped DTM state");
}

#[test]
fn procedure_body_may_contain_emulated_statements() {
    // MERGE inside a procedure: the body router must emulate it.
    let backend = Arc::new(ScriptedBackend {
        log: parking_lot::Mutex::new(Vec::new()),
        tables: vec![
            sales_table(),
            TableDef::new(
                "FEED",
                vec![
                    ColumnDef::new("STORE", SqlType::Integer, true),
                    ColumnDef::new("AMOUNT", SqlType::Integer, true),
                ],
            ),
        ],
        responder: Box::new(|_| Ok(ExecResult::affected(1))),
    });
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    hq.run_one(
        "CREATE PROCEDURE SYNC (S INTEGER) BEGIN \
           MERGE INTO SALES T USING FEED F ON T.STORE = F.STORE AND T.STORE = :S \
           WHEN MATCHED THEN UPDATE SET AMOUNT = F.AMOUNT; \
         END",
    )
    .unwrap();
    let o = hq.run_one("CALL SYNC(3)").unwrap();
    assert!(o.features.contains(hyperq_xtra::feature::Feature::MergeStatement));
    let log = backend.sql_log();
    assert!(log.iter().any(|s| s.starts_with("UPDATE SALES")), "{log:?}");
}

// ---------------------------------------------------------------------------
// Resilience layer: retry/backoff, deadlines, breaker, replay safety
// ---------------------------------------------------------------------------

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
        jitter: 0.5,
        seed: 7,
        deadline: None,
    }
}

/// A HyperQ session over a resilient link → FaultInjecting → Scripted,
/// with an isolated obs context.
fn resilient_session(
    tables: Vec<TableDef>,
    plan: FaultPlan,
    retry: RetryPolicy,
    breaker: BreakerConfig,
) -> (HyperQ, Arc<FaultInjectingBackend>, Arc<ObsContext>) {
    let obs = ObsContext::new();
    let inner = Arc::new(ScriptedBackend::acking(tables));
    let fault = FaultInjectingBackend::wrap(inner as Arc<dyn Backend>, plan);
    let link = TargetLink::new(
        Arc::clone(&fault) as Arc<dyn Backend>,
        Some(ResilienceConfig { retry, breaker }),
        &obs,
    );
    let hq = HyperQBuilder::for_target(&link, hyperq_core::targets::simwh()).obs(Arc::clone(&obs)).build();
    (hq, fault, obs)
}

#[test]
fn transient_failures_are_retried_transparently() {
    let (mut hq, fault, obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::fail_n_then_succeed(2, BackendErrorKind::Transient),
        fast_retry(),
        BreakerConfig::default(),
    );
    hq.run_one("SEL STORE FROM SALES").unwrap();
    assert_eq!(fault.attempts(), 3, "2 transient failures + 1 success");
    assert_eq!(
        obs.metrics.counter_value("hyperq_backend_retries_total", &[("backend", "scripted")]),
        2
    );
}

#[test]
fn fatal_backend_errors_are_not_retried_by_the_pipeline() {
    let (mut hq, fault, _obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::always_fail(BackendErrorKind::Fatal),
        fast_retry(),
        BreakerConfig::default(),
    );
    let err = hq.run_one("SEL STORE FROM SALES").unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(fault.attempts(), 1);
}

#[test]
fn statements_inside_an_open_transaction_are_never_retried() {
    let (mut hq, fault, _obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::fail_n_then_succeed(1, BackendErrorKind::Transient),
        fast_retry(),
        BreakerConfig::default(),
    );
    hq.run_one("BT").unwrap();
    assert!(hq.run_one("SEL STORE FROM SALES").is_err(), "single failure must surface");
    assert_eq!(fault.attempts(), 1, "in-transaction statements must not be replayed");

    // After ET the same failure mode is retried again.
    hq.run_one("ET").unwrap();
    fault.set_plan(FaultPlan::fail_n_then_succeed(1, BackendErrorKind::Transient));
    hq.run_one("SEL STORE FROM SALES").unwrap();
}

#[test]
fn non_idempotent_dml_is_never_retried() {
    let (mut hq, fault, _obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::fail_n_then_succeed(1, BackendErrorKind::Transient),
        fast_retry(),
        BreakerConfig::default(),
    );
    assert!(hq.run_one("INSERT INTO SALES (STORE, AMOUNT) VALUES (1, 2)").is_err());
    assert_eq!(fault.attempts(), 1, "INSERT must not be blindly replayed");
}

#[test]
fn deadline_caps_total_time_across_attempts() {
    let (mut hq, _fault, obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::always_fail(BackendErrorKind::Transient),
        RetryPolicy {
            max_attempts: 1_000,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(4),
            jitter: 0.0,
            seed: 1,
            deadline: Some(Duration::from_millis(15)),
        },
        BreakerConfig { failure_threshold: 10_000, ..Default::default() },
    );
    let err = hq.run_one("SEL STORE FROM SALES").unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");
    assert_eq!(
        obs.metrics
            .counter_value("hyperq_backend_deadline_exceeded_total", &[("backend", "scripted")]),
        1
    );
}

#[test]
fn breaker_opens_under_persistent_failure_and_fails_fast() {
    let (mut hq, fault, obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::always_fail(BackendErrorKind::ConnectionLost),
        RetryPolicy { max_attempts: 1, ..fast_retry() },
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(60),
            success_threshold: 1,
        },
    );
    for _ in 0..3 {
        assert!(hq.run_one("SEL STORE FROM SALES").is_err());
    }
    let reached = fault.attempts();
    let err = hq.run_one("SEL STORE FROM SALES").unwrap_err();
    assert!(err.to_string().contains("circuit breaker open"), "{err}");
    assert_eq!(fault.attempts(), reached, "open breaker must not reach the backend");
    assert_eq!(
        obs.metrics.counter_value(
            "hyperq_backend_breaker_transitions_total",
            &[("backend", "scripted"), ("to", "open")]
        ),
        1
    );
}

#[test]
fn breaker_recovers_through_half_open_probe() {
    let (mut hq, fault, obs) = resilient_session(
        vec![sales_table()],
        FaultPlan::always_fail(BackendErrorKind::ConnectionLost),
        RetryPolicy { max_attempts: 1, ..fast_retry() },
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(20),
            success_threshold: 1,
        },
    );
    for _ in 0..2 {
        assert!(hq.run_one("SEL STORE FROM SALES").is_err());
    }
    fault.set_plan(FaultPlan::none());
    std::thread::sleep(Duration::from_millis(30));
    hq.run_one("SEL STORE FROM SALES").unwrap();
    assert_eq!(
        obs.metrics.counter_value(
            "hyperq_backend_breaker_transitions_total",
            &[("backend", "scripted"), ("to", "half_open")]
        ),
        1
    );
    assert_eq!(
        obs.metrics.counter_value(
            "hyperq_backend_breaker_transitions_total",
            &[("backend", "scripted"), ("to", "closed")]
        ),
        1
    );
}

// ---------------------------------------------------------------------------
// The failure-policy table
// ---------------------------------------------------------------------------

/// The whole table, every `BackendErrorKind` × {idempotent,
/// non-idempotent, in-transaction} × {live, cancelled}, one assertion
/// per `Disposition` field.
#[test]
fn table_is_exhaustive_and_matches_the_documented_policy() {
    use hyperq_core::policy::{decide, ReplicaVerdict, SessionRecovery};
    use BackendErrorKind::*;
    use ReplicaVerdict::{FailOver, Fence, Keep};
    use SessionRecovery::{AbortTransaction, OutcomeUnknown, Reissue};
    let idempotent = RequestContext::read_only();
    let write = RequestContext::write();
    let in_txn = RequestContext { in_transaction: true, ..RequestContext::read_only() };
    let in_txn_write = RequestContext { in_transaction: true, ..RequestContext::write() };
    let none = SessionRecovery::None;

    // (kind, ctx, retry, breaker, recover, replica, wire)
    let live = [
        (Transient, &idempotent, true, true, none, Fence, 3807),
        (Transient, &write, false, true, none, Keep, 3807),
        (Transient, &in_txn, false, true, none, Keep, 3807),
        (Timeout, &idempotent, true, true, none, Fence, 3807),
        (Timeout, &write, false, true, none, Fence, 3807),
        (Timeout, &in_txn, false, true, none, Fence, 3807),
        (ConnectionLost, &idempotent, true, true, Reissue, Fence, 3807),
        (ConnectionLost, &write, false, true, OutcomeUnknown, Fence, 3807),
        (ConnectionLost, &in_txn, false, true, AbortTransaction, Fence, 2631),
        (ConnectionLost, &in_txn_write, false, true, AbortTransaction, Fence, 2631),
        (Rejected, &idempotent, true, false, none, FailOver, 3807),
        (Rejected, &write, false, false, none, FailOver, 3807),
        (Rejected, &in_txn, false, false, none, FailOver, 3807),
        (Fatal, &idempotent, false, false, none, Keep, 3807),
        (Fatal, &write, false, false, none, Keep, 3807),
        (Fatal, &in_txn, false, false, none, Keep, 3807),
    ];
    for kind in BackendErrorKind::ALL {
        for ctx in [&idempotent, &write, &in_txn] {
            assert!(
                live.iter().any(|row| row.0 == kind && std::ptr::eq(row.1, ctx)),
                "table test misses {kind} × {ctx:?}"
            );
        }
    }
    for (kind, ctx, retry, breaker, recover, replica, wire) in live {
        let d = decide(kind, ctx, false);
        assert_eq!(d.retry, retry, "retry: {kind} × {ctx:?}");
        assert_eq!(d.counts_toward_breaker, breaker, "breaker: {kind} × {ctx:?}");
        assert_eq!(d.recover_session, recover, "recover: {kind} × {ctx:?}");
        assert_eq!(d.fence_replica, replica, "replica: {kind} × {ctx:?}");
        assert_eq!(d.wire_code, wire, "wire code: {kind} × {ctx:?}");

        // A cancelled attempt is neutral whatever it looked like.
        let c = decide(kind, ctx, true);
        assert!(!c.retry, "cancelled retry: {kind} × {ctx:?}");
        assert!(!c.counts_toward_breaker, "cancelled breaker: {kind} × {ctx:?}");
        assert_eq!(c.recover_session, none, "cancelled recover: {kind} × {ctx:?}");
        assert_eq!(c.fence_replica, Keep, "cancelled replica: {kind} × {ctx:?}");
        assert_eq!(c.wire_code, 3807, "cancelled wire code: {kind} × {ctx:?}");
    }
}

/// An attempt that returns with the statement's governor token set (a
/// deadline kill mid-execute) is the caller's failure, whatever kind
/// its text classifies as: not retried, and neutral to the breaker.
/// (Caller-caused `Fatal`s over the wire: `tests/resilience.rs`.)
#[test]
fn a_cancelled_attempt_is_not_retried_and_never_opens_the_breaker() {
    let obs = ObsContext::new();
    let killed = Arc::new(ScriptedBackend {
        log: Default::default(),
        tables: vec![],
        responder: Box::new(|_| {
            if let Some(gov) = hyperq_governor::current() {
                gov.cancel(hyperq_governor::CancelReason::DeadlineExceeded, "test kill");
            }
            Err(BackendError::timeout("query deadline exceeded"))
        }),
    });
    let rb = TargetLink::new(
        Arc::clone(&killed) as Arc<dyn Backend>,
        Some(ResilienceConfig {
            retry: fast_retry(),
            breaker: BreakerConfig { failure_threshold: 2, ..Default::default() },
        }),
        &obs,
    );
    for _ in 0..5 {
        let _scope =
            hyperq_governor::install(hyperq_governor::QueryGovernor::standalone(None, 0));
        let err = rb.execute_ctx("SEL 1", RequestContext::read_only()).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Timeout);
    }
    assert_eq!(killed.sql_log().len(), 5, "a cancelled attempt is not retried");
    assert_eq!(rb.breaker_state(), BreakerState::Closed);
}

#[test]
fn failed_recursion_drops_its_temp_tables() {
    // The seed CTAS and the WT→TT copy succeed; the first recursive-step
    // CTAS fails fatally. The emulation must issue best-effort
    // DROP TABLE IF EXISTS for the tables it created.
    let calls = Arc::new(parking_lot::Mutex::new(0usize));
    let calls2 = Arc::clone(&calls);
    let backend = Arc::new(ScriptedBackend {
        log: parking_lot::Mutex::new(Vec::new()),
        tables: vec![TableDef::new(
            "EMP",
            vec![
                ColumnDef::new("EMPNO", SqlType::Integer, true),
                ColumnDef::new("MGRNO", SqlType::Integer, true),
            ],
        )],
        responder: Box::new(move |sql| {
            let mut n = calls2.lock();
            *n += 1;
            if *n == 3 {
                Err(BackendError::fatal("temp space exhausted"))
            } else if sql.starts_with("DROP") {
                Ok(ExecResult::ack())
            } else {
                Ok(ExecResult::affected(1))
            }
        }),
    });
    let mut hq = HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, hyperq_core::targets::simwh()).build();
    hq.run_one(
        "WITH RECURSIVE R (EMPNO, MGRNO) AS ( \
           SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 1 \
           UNION ALL SELECT E.EMPNO, E.MGRNO FROM EMP E, R WHERE R.EMPNO = E.MGRNO) \
         SELECT EMPNO FROM R",
    )
    .unwrap_err();
    let log = backend.sql_log();
    let cleanups: Vec<&String> =
        log.iter().filter(|s| s.starts_with("DROP TABLE IF EXISTS")).collect();
    assert_eq!(cleanups.len(), 3, "WT + TT + failed-step TT must be cleaned up: {log:?}");
}

#[test]
fn create_view_in_macro_body_is_a_clear_error() {
    let backend = ScriptedBackend::acking(vec![sales_table()]);
    let mut hq = HyperQBuilder::for_target(Arc::new(backend), hyperq_core::targets::simwh()).build();
    hq.run_one("CREATE MACRO M AS (CREATE VIEW V AS SEL STORE FROM SALES;)").unwrap();
    let err = hq.run_one("EXEC M").unwrap_err();
    assert!(err.to_string().contains("not supported"), "{err}");
}
