//! The backend abstraction — the paper's "ODBC Server" component (§4.5).
//!
//! "An abstraction of ODBC APIs that allows Hyper-Q to communicate with
//! different target database systems using their corresponding ODBC
//! drivers." Here the driver FFI is replaced by a trait; the bundled
//! implementation is `hyperq-engine`'s in-process warehouse, and tests use
//! scripted fakes.
//!
//! Errors carry a [`BackendErrorKind`] taxonomy; what each kind means for
//! retry, the circuit breaker, session recovery, replica fencing and the
//! client's wire code is decided in one place, [`crate::policy`].

use std::sync::Arc;

use hyperq_xtra::catalog::TableDef;
use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::replicate::TxnPin;

/// Classification of a target-database failure; [`crate::policy::decide`]
/// maps each kind to what the middle tier does about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendErrorKind {
    /// Momentary failure (deadlock victim, resource blip); retry is safe
    /// once the statement itself is replay-safe.
    Transient,
    /// A per-attempt or per-request deadline expired.
    Timeout,
    /// The link to the target died; the request outcome may be unknown, so
    /// only replay-safe statements may retry.
    ConnectionLost,
    /// The target refused the request before doing work (admission control,
    /// overload shedding, an open circuit breaker) — retryable after
    /// backoff.
    Rejected,
    /// A semantic error (syntax, missing object, constraint violation) that
    /// will fail identically on every retry.
    Fatal,
}

impl BackendErrorKind {
    /// Stable lowercase name, used as a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendErrorKind::Transient => "transient",
            BackendErrorKind::Timeout => "timeout",
            BackendErrorKind::ConnectionLost => "connection_lost",
            BackendErrorKind::Rejected => "rejected",
            BackendErrorKind::Fatal => "fatal",
        }
    }

    /// All kinds, in declaration order (labeled metric handles are
    /// pre-resolved in this order and indexed by `kind as usize`).
    pub const ALL: [BackendErrorKind; 5] = [
        BackendErrorKind::Transient,
        BackendErrorKind::Timeout,
        BackendErrorKind::ConnectionLost,
        BackendErrorKind::Rejected,
        BackendErrorKind::Fatal,
    ];
}

impl std::fmt::Display for BackendErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from the target database: a taxonomy kind plus the driver-level
/// message.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendError {
    pub kind: BackendErrorKind,
    pub message: String,
    /// The code a wire client sees for this failure, set from the policy
    /// table's [`Disposition`](crate::policy::Disposition) by the link
    /// that surfaces the error.
    pub wire_code: u16,
}

impl BackendError {
    pub fn new(kind: BackendErrorKind, message: impl Into<String>) -> BackendError {
        BackendError {
            kind,
            message: message.into(),
            wire_code: crate::policy::WIRE_STATEMENT_FAILED,
        }
    }

    pub fn transient(message: impl Into<String>) -> BackendError {
        BackendError::new(BackendErrorKind::Transient, message)
    }

    pub fn timeout(message: impl Into<String>) -> BackendError {
        BackendError::new(BackendErrorKind::Timeout, message)
    }

    pub fn connection_lost(message: impl Into<String>) -> BackendError {
        BackendError::new(BackendErrorKind::ConnectionLost, message)
    }

    pub fn rejected(message: impl Into<String>) -> BackendError {
        BackendError::new(BackendErrorKind::Rejected, message)
    }

    pub fn fatal(message: impl Into<String>) -> BackendError {
        BackendError::new(BackendErrorKind::Fatal, message)
    }

    /// Classify a string-shaped driver error by message content — the
    /// fallback for ODBC drivers that return flat text. Unrecognized
    /// messages default to `Fatal`: never retry what we don't understand.
    pub fn classify(message: impl Into<String>) -> BackendError {
        let message = message.into();
        BackendError::new(classify_message(&message), message)
    }
}

fn classify_message(message: &str) -> BackendErrorKind {
    let m = message.to_ascii_lowercase();
    let any = |needles: &[&str]| needles.iter().any(|n| m.contains(n));
    if any(&["timeout", "timed out", "deadline exceeded"]) {
        BackendErrorKind::Timeout
    } else if any(&[
        "connection reset",
        "connection lost",
        "connection closed",
        "connection refused",
        "broken pipe",
        "network",
    ]) {
        BackendErrorKind::ConnectionLost
    } else if any(&[
        "too many",
        "admission",
        "overload",
        "throttl",
        "rejected",
        "at capacity",
        "server busy",
    ]) {
        BackendErrorKind::Rejected
    } else if any(&[
        "transient",
        "temporar",
        "try again",
        "retry",
        "deadlock",
        "serialization failure",
        "unavailable",
    ]) {
        BackendErrorKind::Transient
    } else {
        BackendErrorKind::Fatal
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backend error ({}): {}", self.kind, self.message)
    }
}

impl std::error::Error for BackendError {}

/// Per-request execution context the pipeline passes down to the backend
/// so the link and the replica set can make replay-safety decisions the
/// SQL text alone cannot justify: whether the statement is idempotent, and
/// whether the session currently has a transaction open (a retried
/// statement inside a transaction could be applied twice if the first
/// attempt actually committed on the target before the error surfaced).
#[derive(Debug, Clone, Default)]
pub struct RequestContext {
    /// Re-executing the statement cannot change the outcome (read-only
    /// queries; not DML/DDL). The default is the conservative `false`.
    pub idempotent: bool,
    /// The session has an open transaction.
    pub in_transaction: bool,
    /// The session's transaction pin, lent by the session's
    /// [`TargetLink`](crate::resilience::TargetLink) so a replica set can
    /// keep an open transaction on one replica. `None` outside a session.
    pub pin: Option<Arc<TxnPin>>,
}

impl RequestContext {
    /// Context for a replay-safe read outside any transaction.
    pub fn read_only() -> RequestContext {
        RequestContext { idempotent: true, ..RequestContext::default() }
    }

    /// Context for a non-idempotent statement (DML/DDL): never blind-retried.
    pub fn write() -> RequestContext {
        RequestContext::default()
    }

    /// Conservative keyword classification for callers entering through the
    /// plain [`Backend::execute`] path: only obvious reads are idempotent.
    pub fn from_sql(sql: &str) -> RequestContext {
        let first = sql.split_whitespace().next().unwrap_or("").to_ascii_uppercase();
        RequestContext {
            idempotent: matches!(first.as_str(), "SELECT" | "SEL" | "WITH" | "HELP" | "SHOW"),
            ..RequestContext::default()
        }
    }

    /// The replay-safety gate: blind retry is permitted only for idempotent
    /// statements outside an open transaction.
    pub fn allows_retry(&self) -> bool {
        self.idempotent && !self.in_transaction
    }
}

/// Result of executing one request on the target.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Result schema; empty for DML/DDL.
    pub schema: Schema,
    /// Result rows; empty for DML/DDL.
    pub rows: Vec<Row>,
    /// Rows affected (DML) or returned (queries).
    pub row_count: u64,
}

impl ExecResult {
    /// An empty DDL/utility acknowledgement.
    pub fn ack() -> ExecResult {
        ExecResult { schema: Schema::empty(), rows: Vec::new(), row_count: 0 }
    }

    /// A DML acknowledgement with an affected-row count.
    pub fn affected(n: u64) -> ExecResult {
        ExecResult { schema: Schema::empty(), rows: Vec::new(), row_count: n }
    }

    pub fn rows(schema: Schema, rows: Vec<Row>) -> ExecResult {
        let row_count = rows.len() as u64;
        ExecResult { schema, rows, row_count }
    }
}

/// A target database connection.
///
/// `execute` submits one SQL-B statement. `table_meta` is the catalog
/// lookup the binder performs against the target (the ODBC catalog-function
/// equivalent).
pub trait Backend: Send + Sync {
    /// Target system name (for diagnostics).
    fn name(&self) -> &str;

    /// Execute one statement of target-dialect SQL.
    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError>;

    /// Execute with an explicit replay-safety context. Plain backends ignore
    /// the context; the link and the replica set use it to decide what they
    /// may replay. Wrappers MUST forward it to their inner backend.
    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        let _ = ctx;
        self.execute(sql)
    }

    /// Look up a table's definition in the target catalog (normalized
    /// upper-case name).
    fn table_meta(&self, name: &str) -> Option<TableDef>;

    /// Re-establish the backend session after a lost connection — the ODBC
    /// reconnect. A fresh session has *none* of the old session's scoped
    /// state (settings, temp tables); re-creating it is the caller's job
    /// (see [`crate::resilience::TargetLink`]). Backends without
    /// per-session connection state succeed trivially; wrappers MUST
    /// forward the call to their inner backend.
    fn reset_session(&self) -> Result<(), BackendError> {
        Ok(())
    }
}

/// Test-support backends (kept in the library so integration tests and
/// downstream users can fault-inject without a real target).
pub mod testing {
    use super::*;
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A scripted backend: records every SQL string it is asked to run and
    /// returns canned results (or injected faults).
    /// Canned response function.
    pub type Responder = Box<dyn Fn(&str) -> Result<ExecResult, BackendError> + Send + Sync>;

    pub struct ScriptedBackend {
        pub log: Mutex<Vec<String>>,
        pub tables: Vec<TableDef>,
        pub responder: Responder,
    }

    impl ScriptedBackend {
        pub fn acking(tables: Vec<TableDef>) -> Self {
            ScriptedBackend {
                log: Mutex::new(Vec::new()),
                tables,
                responder: Box::new(|_| Ok(ExecResult::ack())),
            }
        }

        pub fn sql_log(&self) -> Vec<String> {
            self.log.lock().clone()
        }
    }

    impl Backend for ScriptedBackend {
        fn name(&self) -> &str {
            "scripted"
        }

        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            self.log.lock().push(sql.to_string());
            (self.responder)(sql)
        }

        fn table_meta(&self, name: &str) -> Option<TableDef> {
            self.tables
                .iter()
                .find(|t| {
                    t.name.eq_ignore_ascii_case(name)
                        || t.base_name().eq_ignore_ascii_case(name)
                })
                .cloned()
        }

        fn reset_session(&self) -> Result<(), BackendError> {
            // The marker lets tests assert replay ordering relative to the
            // reconnect itself.
            self.log.lock().push(RESET_MARKER.to_string());
            Ok(())
        }
    }

    /// Log entry [`ScriptedBackend`] records for a `reset_session` call.
    pub const RESET_MARKER: &str = "/* session reset */";

    /// One fault-injection schedule. Schedules only decide *whether* a call
    /// fails; calls that pass are delegated to the wrapped backend.
    pub enum FaultMode {
        /// Never inject a failure.
        None,
        /// Fail the next `remaining` calls with `kind`, then pass.
        FailNext { remaining: u64, kind: BackendErrorKind },
        /// Fail every call with `kind`.
        AlwaysFail { kind: BackendErrorKind },
        /// Fail each call independently with probability `rate`, drawn from
        /// a seeded (deterministic) generator.
        Flaky { rate: f64, rng: StdRng, kind: BackendErrorKind },
        /// Fail every `period`-th in-scope call with `kind` (calls `period`,
        /// `2*period`, …) — a deterministic connection-kill cadence for soak
        /// schedules. `seen` counts in-scope calls so far.
        KillEvery { period: u64, seen: u64, kind: BackendErrorKind },
        /// Fail the next `remaining` in-scope calls whose SQL contains
        /// `needle` (case-insensitive) — kills a specific step of a
        /// multi-statement emulation sequence.
        KillOnSqlMatch { needle: String, remaining: u64, kind: BackendErrorKind },
        /// Fail exactly the in-scope calls whose 1-based sequence numbers
        /// are in `calls` — an explicit per-replica kill schedule, so a
        /// multi-replica soak can target individual replicas with
        /// deterministic, uncorrelated fault timelines.
        KillList { calls: std::collections::BTreeSet<u64>, seen: u64, kind: BackendErrorKind },
    }

    /// Which requests a fault schedule may hit, by replay-safety context.
    /// Out-of-scope calls pass through without consuming the schedule.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum FaultScope {
        /// Every call is in scope.
        #[default]
        All,
        /// Only replay-safe calls (`idempotent ∧ ¬in_transaction`).
        IdempotentOnly,
        /// Only calls made inside an open transaction.
        InTransactionOnly,
    }

    impl FaultScope {
        fn matches(self, ctx: &RequestContext) -> bool {
            match self {
                FaultScope::All => true,
                FaultScope::IdempotentOnly => ctx.allows_retry(),
                FaultScope::InTransactionOnly => ctx.in_transaction,
            }
        }
    }

    /// Scriptable fault schedule: a failure mode plus optional per-call
    /// latency injection.
    pub struct FaultPlan {
        pub mode: FaultMode,
        /// Injected before every call (models a slow target).
        pub latency: Duration,
        /// Which calls the mode may fault (default: all).
        pub scope: FaultScope,
    }

    impl FaultPlan {
        pub fn none() -> FaultPlan {
            FaultPlan::with_mode(FaultMode::None)
        }

        fn with_mode(mode: FaultMode) -> FaultPlan {
            FaultPlan {
                mode,
                latency: Duration::ZERO,
                scope: FaultScope::All,
            }
        }

        /// Fail the first `n` calls with `kind`, then succeed.
        pub fn fail_n_then_succeed(n: u64, kind: BackendErrorKind) -> FaultPlan {
            FaultPlan::with_mode(FaultMode::FailNext { remaining: n, kind })
        }

        pub fn always_fail(kind: BackendErrorKind) -> FaultPlan {
            FaultPlan::with_mode(FaultMode::AlwaysFail { kind })
        }

        /// Fail each call with probability `rate`; deterministic for a seed.
        pub fn flaky(rate: f64, seed: u64, kind: BackendErrorKind) -> FaultPlan {
            FaultPlan::with_mode(FaultMode::Flaky {
                rate,
                rng: StdRng::seed_from_u64(seed),
                kind,
            })
        }

        /// Kill the connection on every `period`-th in-scope call
        /// (deterministic cadence; `period` 0 means never).
        pub fn kill_every(period: u64) -> FaultPlan {
            FaultPlan::with_mode(FaultMode::KillEvery {
                period,
                seen: 0,
                kind: BackendErrorKind::ConnectionLost,
            })
        }

        /// Kill the connection on the next `n` calls whose SQL contains
        /// `needle` (case-insensitive).
        pub fn kill_on_sql(needle: impl Into<String>, n: u64) -> FaultPlan {
            FaultPlan::with_mode(FaultMode::KillOnSqlMatch {
                needle: needle.into().to_ascii_uppercase(),
                remaining: n,
                kind: BackendErrorKind::ConnectionLost,
            })
        }

        /// A seeded kill schedule: each of the first `horizon` in-scope
        /// calls is killed independently with probability `rate`, with the
        /// whole schedule drawn up front from a deterministic generator.
        /// Distinct seeds give distinct replicas uncorrelated fault
        /// timelines that replay identically run over run.
        pub fn seeded_kills(seed: u64, rate: f64, horizon: u64) -> FaultPlan {
            let mut rng = StdRng::seed_from_u64(seed);
            let calls = (1..=horizon).filter(|_| rng.gen_bool(rate)).collect();
            FaultPlan::with_mode(FaultMode::KillList {
                calls,
                seen: 0,
                kind: BackendErrorKind::ConnectionLost,
            })
        }

        /// Add per-call latency injection to this plan.
        pub fn with_latency(mut self, latency: Duration) -> FaultPlan {
            self.latency = latency;
            self
        }

        /// Restrict the mode to a subset of calls by request context.
        pub fn with_scope(mut self, scope: FaultScope) -> FaultPlan {
            self.scope = scope;
            self
        }
    }

    /// A [`Backend`] wrapper that injects faults and latency according to a
    /// [`FaultPlan`], so every layer above the ODBC-server abstraction can
    /// be exercised against a misbehaving target without a real one.
    ///
    /// Counts the calls that actually reached it — the ground truth for
    /// retry and fast-fail assertions.
    pub struct FaultInjectingBackend {
        inner: Arc<dyn Backend>,
        plan: Mutex<FaultPlan>,
        attempts: AtomicU64,
        injected: AtomicU64,
        resets: AtomicU64,
    }

    impl FaultInjectingBackend {
        pub fn wrap(inner: Arc<dyn Backend>, plan: FaultPlan) -> Arc<FaultInjectingBackend> {
            Arc::new(FaultInjectingBackend {
                inner,
                plan: Mutex::new(plan),
                attempts: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                resets: AtomicU64::new(0),
            })
        }

        /// Calls that reached this backend (including injected failures).
        pub fn attempts(&self) -> u64 {
            self.attempts.load(Ordering::Relaxed)
        }

        /// Failures injected so far.
        pub fn injected_faults(&self) -> u64 {
            self.injected.load(Ordering::Relaxed)
        }

        /// `reset_session` calls that reached this backend.
        pub fn resets(&self) -> u64 {
            self.resets.load(Ordering::Relaxed)
        }

        /// Replace the active schedule (e.g. heal the target mid-test).
        pub fn set_plan(&self, plan: FaultPlan) {
            *self.plan.lock() = plan;
        }

        fn next_fault(&self, sql: &str, ctx: &RequestContext) -> Option<BackendErrorKind> {
            let mut plan = self.plan.lock();
            if !plan.latency.is_zero() {
                std::thread::sleep(plan.latency);
            }
            if !plan.scope.matches(ctx) {
                return None;
            }
            match &mut plan.mode {
                FaultMode::None => None,
                FaultMode::FailNext { remaining, kind } => {
                    if *remaining > 0 {
                        *remaining -= 1;
                        Some(*kind)
                    } else {
                        None
                    }
                }
                FaultMode::AlwaysFail { kind } => Some(*kind),
                FaultMode::Flaky { rate, rng, kind } => rng.gen_bool(*rate).then_some(*kind),
                FaultMode::KillEvery { period, seen, kind } => {
                    if *period == 0 {
                        return None;
                    }
                    *seen += 1;
                    (*seen % *period == 0).then_some(*kind)
                }
                FaultMode::KillOnSqlMatch { needle, remaining, kind } => {
                    if *remaining > 0 && sql.to_ascii_uppercase().contains(needle.as_str()) {
                        *remaining -= 1;
                        Some(*kind)
                    } else {
                        None
                    }
                }
                FaultMode::KillList { calls, seen, kind } => {
                    *seen += 1;
                    calls.contains(seen).then_some(*kind)
                }
            }
        }
    }

    impl Backend for FaultInjectingBackend {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            self.execute_ctx(sql, RequestContext::from_sql(sql))
        }

        fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            if let Some(kind) = self.next_fault(sql, &ctx) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Err(BackendError::new(
                    kind,
                    format!("injected {kind} fault from {}", self.inner.name()),
                ));
            }
            self.inner.execute_ctx(sql, ctx)
        }

        fn table_meta(&self, name: &str) -> Option<TableDef> {
            self.inner.table_meta(name)
        }

        fn reset_session(&self) -> Result<(), BackendError> {
            self.resets.fetch_add(1, Ordering::Relaxed);
            self.inner.reset_session()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_maps_common_messages() {
        let cases = [
            ("query timed out after 30s", BackendErrorKind::Timeout),
            ("connection reset by peer", BackendErrorKind::ConnectionLost),
            ("too many concurrent requests", BackendErrorKind::Rejected),
            ("admission control queue full", BackendErrorKind::Rejected),
            ("deadlock detected", BackendErrorKind::Transient),
            ("resource temporarily unavailable", BackendErrorKind::Transient),
            ("syntax error at or near FROM", BackendErrorKind::Fatal),
        ];
        for (msg, want) in cases {
            assert_eq!(BackendError::classify(msg).kind, want, "{msg}");
        }
    }

    #[test]
    fn unknown_messages_default_to_fatal() {
        assert_eq!(BackendError::classify("disk quota exceeded").kind, BackendErrorKind::Fatal);
        assert_eq!(BackendError::classify("whatever").kind, BackendErrorKind::Fatal);
    }

    #[test]
    fn request_context_replay_safety() {
        assert!(RequestContext::read_only().allows_retry());
        assert!(!RequestContext::write().allows_retry());
        assert!(!RequestContext { in_transaction: true, ..RequestContext::read_only() }
            .allows_retry());
        assert!(RequestContext::from_sql("  SEL * FROM T").idempotent);
        assert!(RequestContext::from_sql("WITH X AS (SELECT 1) SELECT * FROM X").idempotent);
        assert!(!RequestContext::from_sql("INSERT INTO T VALUES (1)").idempotent);
        assert!(!RequestContext::from_sql("").idempotent);
    }

    #[test]
    fn fault_plan_fail_n_then_succeed() {
        use testing::*;
        let inner = Arc::new(ScriptedBackend::acking(vec![]));
        let fb = FaultInjectingBackend::wrap(
            inner as Arc<dyn Backend>,
            FaultPlan::fail_n_then_succeed(2, BackendErrorKind::Transient),
        );
        assert_eq!(fb.execute("SEL 1").unwrap_err().kind, BackendErrorKind::Transient);
        assert_eq!(fb.execute("SEL 1").unwrap_err().kind, BackendErrorKind::Transient);
        assert!(fb.execute("SEL 1").is_ok());
        assert_eq!(fb.attempts(), 3);
        assert_eq!(fb.injected_faults(), 2);
    }

    #[test]
    fn flaky_plan_is_deterministic_for_a_seed() {
        use testing::*;
        let outcomes = |seed: u64| -> Vec<bool> {
            let inner = Arc::new(ScriptedBackend::acking(vec![]));
            let fb = FaultInjectingBackend::wrap(
                inner as Arc<dyn Backend>,
                FaultPlan::flaky(0.5, seed, BackendErrorKind::Transient),
            );
            (0..32).map(|_| fb.execute("SEL 1").is_ok()).collect()
        };
        assert_eq!(outcomes(7), outcomes(7), "same seed, same schedule");
        assert_ne!(outcomes(7), outcomes(8), "different seeds should diverge");
    }
}
