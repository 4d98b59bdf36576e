//! The query lifecycle governor: cooperative cancellation, deadline
//! propagation and per-query resource accounting for every stage of the
//! Hyper-Q pipeline.
//!
//! Teradata clients expect `ABORT` and timeout semantics to work exactly
//! as they do against the real warehouse, and nothing in a transparent
//! middleware may spin, sleep or allocate past the point the client (or
//! an operator) gave up on the statement. This crate provides the shared
//! machinery:
//!
//! * [`CancelToken`] — a sticky, reason-carrying cancellation flag. The
//!   first `cancel` wins; every later observer sees one well-defined
//!   [`CancelError`] with a Teradata-style wire code.
//! * [`QueryDeadline`] — an `Instant`-anchored per-statement deadline.
//!   Retry backoff, admission waits and convergence loops consult it so
//!   nothing sleeps past an expired deadline.
//! * [`ResourceLedger`] / [`MemoryPool`] — per-query and gateway-global
//!   memory budgets, charged at allocation hot spots (engine hash
//!   tables, materialized rows, converter buffers). A failed charge
//!   cancels the query with `BudgetExceeded` instead of letting the
//!   process OOM.
//! * [`QueryGovernor`] — the per-statement bundle of the three, plus the
//!   lifecycle stage (admitted → translating → executing → converting →
//!   done/cancelled) shown on the `/queries` observability route.
//! * [`GovernorRegistry`] — the gateway's table of in-flight queries,
//!   with a [watchdog](GovernorRegistry::spawn_watchdog) thread that
//!   sweeps for statements past their deadline and reports the
//!   `hyperq_governor_*` metric families.
//!
//! Deep pipeline layers (parser nesting loops, the transformer's
//! fixed-point iteration, engine executor loops) observe the governor
//! through a thread-local handle — mirroring how provenance `note_*`
//! hooks work — so cancellation reaches every loop without threading a
//! token parameter through every signature. Install a statement's
//! governor with [`install`]; check it anywhere with [`checkpoint`].

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hyperq_obs::{Counter, Gauge, ObsContext};

/// Why a query was cancelled. The first cancellation of a statement is
/// sticky: every later layer reports the same reason and wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The client sent a TDWP abort message (or an operator hit the
    /// `/queries?cancel=` hook).
    ClientAbort,
    /// The per-query deadline (client-requested timeout or the gateway
    /// default) expired.
    DeadlineExceeded,
    /// The per-query or gateway-global memory budget was exhausted.
    BudgetExceeded,
    /// The gateway is shutting down.
    Shutdown,
}

impl CancelReason {
    /// Stable label used in metrics and provenance records.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::ClientAbort => "client_abort",
            CancelReason::DeadlineExceeded => "deadline",
            CancelReason::BudgetExceeded => "budget",
            CancelReason::Shutdown => "shutdown",
        }
    }

    /// The Teradata-style wire error code a cancelled statement surfaces:
    /// 3110 "the transaction was aborted by the user", 3156 "request
    /// aborted by workload management" (deadline), 2646 "no more spool
    /// space" (budget).
    pub fn wire_code(self) -> u16 {
        match self {
            CancelReason::ClientAbort | CancelReason::Shutdown => 3110,
            CancelReason::DeadlineExceeded => 3156,
            CancelReason::BudgetExceeded => 2646,
        }
    }
}

/// The single well-defined error a cancelled statement surfaces, from
/// whichever layer noticed the cancellation first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CancelError {
    pub reason: CancelReason,
    pub detail: String,
}

impl fmt::Display for CancelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request cancelled ({}): {}", self.reason.as_str(), self.detail)
    }
}

impl std::error::Error for CancelError {}

/// Token state: 0 = live, otherwise `CancelReason` discriminant + 1.
const LIVE: u8 = 0;

fn reason_from_state(state: u8) -> Option<CancelReason> {
    match state {
        1 => Some(CancelReason::ClientAbort),
        2 => Some(CancelReason::DeadlineExceeded),
        3 => Some(CancelReason::BudgetExceeded),
        4 => Some(CancelReason::Shutdown),
        _ => None,
    }
}

fn state_from_reason(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::ClientAbort => 1,
        CancelReason::DeadlineExceeded => 2,
        CancelReason::BudgetExceeded => 3,
        CancelReason::Shutdown => 4,
    }
}

#[derive(Debug)]
struct TokenInner {
    state: AtomicU8,
    detail: Mutex<Option<String>>,
    cancelled_at: Mutex<Option<Instant>>,
}

/// A sticky cancellation flag shared by everything working on one
/// statement. Cheap to clone (an `Arc`), safe to fire from any thread
/// (the watchdog, a connection's reader thread, an HTTP handler); observed
/// cooperatively by the query's own thread at checkpoints.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(LIVE),
                detail: Mutex::new(None),
                cancelled_at: Mutex::new(None),
            }),
        }
    }

    /// Cancel with the given reason. Returns `true` if this call was the
    /// one that cancelled the token (first wins; later calls are no-ops
    /// so the surfaced reason and code never change mid-flight).
    pub fn cancel(&self, reason: CancelReason, detail: impl Into<String>) -> bool {
        let won = self
            .inner
            .state
            .compare_exchange(
                LIVE,
                state_from_reason(reason),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if won {
            *lock(&self.inner.detail) = Some(detail.into());
            *lock(&self.inner.cancelled_at) = Some(Instant::now());
        }
        won
    }

    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != LIVE
    }

    pub fn reason(&self) -> Option<CancelReason> {
        reason_from_state(self.inner.state.load(Ordering::Acquire))
    }

    /// When the token was cancelled (for cancel-to-kill latency).
    pub fn cancelled_at(&self) -> Option<Instant> {
        *lock(&self.inner.cancelled_at)
    }

    /// The well-defined error every observer of a cancelled token sees.
    pub fn error(&self) -> Option<CancelError> {
        let reason = self.reason()?;
        let detail = lock(&self.inner.detail)
            .clone()
            .unwrap_or_else(|| "query cancelled".to_string());
        Some(CancelError { reason, detail })
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An `Instant`-anchored per-statement deadline. `limit = None` never
/// expires. This is the *one* deadline every layer consults — admission
/// waits, retry backoff, convergence loops — replacing the previous
/// per-layer deadline computations.
#[derive(Debug, Clone, Copy)]
pub struct QueryDeadline {
    start: Instant,
    limit: Option<Duration>,
}

impl QueryDeadline {
    pub fn new(limit: Option<Duration>) -> Self {
        QueryDeadline { start: Instant::now(), limit }
    }

    pub fn unbounded() -> Self {
        Self::new(None)
    }

    pub fn within(limit: Duration) -> Self {
        Self::new(Some(limit))
    }

    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// The absolute instant the deadline fires, if bounded.
    pub fn instant(&self) -> Option<Instant> {
        self.limit.map(|l| self.start + l)
    }

    pub fn expired(&self) -> bool {
        match self.limit {
            Some(l) => self.start.elapsed() >= l,
            None => false,
        }
    }

    /// Time left before expiry; `None` means unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.limit.map(|l| l.saturating_sub(self.start.elapsed()))
    }

    /// Would sleeping for `d` cross the deadline?
    pub fn would_exceed(&self, d: Duration) -> bool {
        match self.remaining() {
            Some(rem) => d >= rem,
            None => false,
        }
    }

    /// Clamp a wait to what the deadline allows.
    pub fn clamp(&self, d: Duration) -> Duration {
        match self.remaining() {
            Some(rem) => d.min(rem),
            None => d,
        }
    }
}

/// Gateway-global memory pool shared by every in-flight query's ledger.
/// `capacity = 0` means unlimited.
#[derive(Debug)]
pub struct MemoryPool {
    capacity: u64,
    used: AtomicU64,
}

impl MemoryPool {
    pub fn new(capacity: u64) -> Arc<Self> {
        Arc::new(MemoryPool { capacity, used: AtomicU64::new(0) })
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    fn try_reserve(&self, bytes: u64) -> bool {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if self.capacity != 0 && next > self.capacity {
                return false;
            }
            match self.used.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.used.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Per-query memory accounting, charged at allocation hot spots. The
/// ledger is *high-water*: charges accumulate over the statement and are
/// released wholesale when it finishes, which is deliberately
/// conservative — a budget that trips early beats an OOM that never
/// reports. `budget = 0` means unlimited.
#[derive(Debug)]
pub struct ResourceLedger {
    budget: u64,
    charged: AtomicU64,
    peak: AtomicU64,
    pool: Option<Arc<MemoryPool>>,
    denials: Option<Arc<Counter>>,
}

impl ResourceLedger {
    pub fn new(budget: u64) -> Self {
        ResourceLedger {
            budget,
            charged: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            pool: None,
            denials: None,
        }
    }

    fn with_pool(mut self, pool: Arc<MemoryPool>, denials: Arc<Counter>) -> Self {
        self.pool = Some(pool);
        self.denials = Some(denials);
        self
    }

    pub fn budget(&self) -> u64 {
        self.budget
    }

    pub fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// How much of the per-query budget is left; `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        (self.budget != 0).then(|| self.budget.saturating_sub(self.charged()))
    }

    /// Charge `bytes` against the query (and the gateway pool). On
    /// failure nothing is charged and the caller gets the budget error to
    /// surface — typically via [`QueryGovernor::charge`], which also
    /// cancels the token.
    pub fn charge(&self, bytes: u64) -> Result<(), CancelError> {
        let after = self.charged.fetch_add(bytes, Ordering::AcqRel) + bytes;
        if self.budget != 0 && after > self.budget {
            self.charged.fetch_sub(bytes, Ordering::AcqRel);
            if let Some(d) = &self.denials {
                d.inc();
            }
            return Err(CancelError {
                reason: CancelReason::BudgetExceeded,
                detail: format!(
                    "per-query memory budget exceeded ({after} of {} bytes)",
                    self.budget
                ),
            });
        }
        if let Some(pool) = &self.pool {
            if !pool.try_reserve(bytes) {
                self.charged.fetch_sub(bytes, Ordering::AcqRel);
                if let Some(d) = &self.denials {
                    d.inc();
                }
                return Err(CancelError {
                    reason: CancelReason::BudgetExceeded,
                    detail: format!(
                        "gateway memory pool exhausted ({} of {} bytes in use)",
                        pool.used(),
                        pool.capacity()
                    ),
                });
            }
        }
        self.peak.fetch_max(after, Ordering::AcqRel);
        Ok(())
    }

    /// Return `bytes` to the query's budget (and the pool).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.charged.load(Ordering::Relaxed);
        let mut returned;
        loop {
            returned = bytes.min(cur);
            match self.charged.compare_exchange_weak(
                cur,
                cur - returned,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if let Some(pool) = &self.pool {
            pool.release(returned);
        }
    }

    /// Release everything still charged (statement epilogue).
    fn release_all(&self) {
        let charged = self.charged.swap(0, Ordering::AcqRel);
        if let Some(pool) = &self.pool {
            pool.release(charged);
        }
    }
}

/// Lifecycle stage of an in-flight statement (the `/queries` state
/// machine: admitted → translating → executing → converting →
/// done/cancelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Admitted,
    Translating,
    Executing,
    Converting,
    Done,
    Cancelled,
}

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Translating => "translating",
            Stage::Executing => "executing",
            Stage::Converting => "converting",
            Stage::Done => "done",
            Stage::Cancelled => "cancelled",
        }
    }
}

fn stage_from_u8(v: u8) -> Stage {
    match v {
        1 => Stage::Translating,
        2 => Stage::Executing,
        3 => Stage::Converting,
        4 => Stage::Done,
        5 => Stage::Cancelled,
        _ => Stage::Admitted,
    }
}

fn stage_to_u8(s: Stage) -> u8 {
    match s {
        Stage::Admitted => 0,
        Stage::Translating => 1,
        Stage::Executing => 2,
        Stage::Converting => 3,
        Stage::Done => 4,
        Stage::Cancelled => 5,
    }
}

/// Everything governing one statement: token, deadline, ledger, stage.
#[derive(Debug)]
pub struct QueryGovernor {
    pub id: u64,
    pub session: u64,
    fingerprint: AtomicU64,
    token: CancelToken,
    deadline: QueryDeadline,
    ledger: ResourceLedger,
    stage: AtomicU8,
    started: Instant,
}

impl QueryGovernor {
    /// A free-standing governor (library callers, tests, benches) —
    /// not registered with any gateway registry.
    pub fn standalone(limit: Option<Duration>, budget: u64) -> Arc<Self> {
        Arc::new(QueryGovernor {
            id: 0,
            session: 0,
            fingerprint: AtomicU64::new(0),
            token: CancelToken::new(),
            deadline: QueryDeadline::new(limit),
            ledger: ResourceLedger::new(budget),
            stage: AtomicU8::new(stage_to_u8(Stage::Admitted)),
            started: Instant::now(),
        })
    }

    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    pub fn deadline(&self) -> &QueryDeadline {
        &self.deadline
    }

    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn set_fingerprint(&self, fp: u64) {
        self.fingerprint.store(fp, Ordering::Relaxed);
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.load(Ordering::Relaxed)
    }

    pub fn set_stage(&self, stage: Stage) {
        self.stage.store(stage_to_u8(stage), Ordering::Relaxed);
    }

    pub fn stage(&self) -> Stage {
        stage_from_u8(self.stage.load(Ordering::Relaxed))
    }

    /// Cancel this statement. First reason wins; returns whether this
    /// call was the cancelling one.
    pub fn cancel(&self, reason: CancelReason, detail: impl Into<String>) -> bool {
        let won = self.token.cancel(reason, detail);
        if won {
            self.set_stage(Stage::Cancelled);
        }
        won
    }

    /// The cooperative cancellation point: cheap enough for inner loops
    /// (one atomic load on the happy path; the deadline is only checked
    /// against the clock when bounded). Marks the token cancelled the
    /// first time an expired deadline is observed.
    pub fn checkpoint(&self) -> Result<(), CancelError> {
        if let Some(err) = self.token.error() {
            return Err(err);
        }
        if self.deadline.expired() {
            let limit = self.deadline.limit().unwrap_or_default();
            let detail = format!("query deadline of {limit:?} exceeded");
            self.cancel(CancelReason::DeadlineExceeded, detail.clone());
            // The token holds whichever cancellation won the race; fall
            // back to the deadline error rather than asserting on it.
            return Err(self.token.error().unwrap_or(CancelError {
                reason: CancelReason::DeadlineExceeded,
                detail,
            }));
        }
        Ok(())
    }

    /// Charge memory to the statement's ledger; a denied charge cancels
    /// the statement with `BudgetExceeded` so every later checkpoint
    /// agrees.
    pub fn charge(&self, bytes: u64) -> Result<(), CancelError> {
        if let Some(err) = self.token.error() {
            return Err(err);
        }
        match self.ledger.charge(bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.cancel(e.reason, e.detail.clone());
                Err(e)
            }
        }
    }

    pub fn release(&self, bytes: u64) {
        self.ledger.release(bytes);
    }

    /// Cancel-request → now, for the cancel-to-kill latency metric.
    pub fn cancel_latency(&self) -> Option<Duration> {
        self.token.cancelled_at().map(|t| t.elapsed())
    }
}

// ---------------------------------------------------------------------------
// Thread-local current-statement handle
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of installed governors; the innermost governs this thread's
    /// current statement. A stack (not a slot) so nested installs — a
    /// library caller inside a gateway worker — restore cleanly.
    static CURRENT: RefCell<Vec<Arc<QueryGovernor>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`install`]; uninstalls on drop.
pub struct GovernorScope {
    _private: (),
}

impl Drop for GovernorScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Install `gov` as this thread's current statement governor for the
/// scope of the returned guard.
pub fn install(gov: Arc<QueryGovernor>) -> GovernorScope {
    CURRENT.with(|c| c.borrow_mut().push(gov));
    GovernorScope { _private: () }
}

/// The governor of the statement currently running on this thread.
pub fn current() -> Option<Arc<QueryGovernor>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Cooperative cancellation point for deep layers (parser nesting loops,
/// transformer passes, engine executor loops). A no-op `Ok` when no
/// governor is installed, so library callers pay one thread-local read.
pub fn checkpoint() -> Result<(), CancelError> {
    match current() {
        Some(gov) => gov.checkpoint(),
        None => Ok(()),
    }
}

/// Charge memory against the current statement's ledger (no-op without a
/// governor).
pub fn charge(bytes: u64) -> Result<(), CancelError> {
    match current() {
        Some(gov) => gov.charge(bytes),
        None => Ok(()),
    }
}

/// Return memory to the current statement's ledger.
pub fn release(bytes: u64) {
    if let Some(gov) = current() {
        gov.release(bytes);
    }
}

/// Record the current statement's lifecycle stage.
pub fn note_stage(stage: Stage) {
    if let Some(gov) = current() {
        gov.set_stage(stage);
    }
}

/// The absolute instant the current statement's deadline fires, if any —
/// for clamping condvar waits and retry backoff.
pub fn deadline_instant() -> Option<Instant> {
    current().and_then(|gov| gov.deadline().instant())
}

/// Time remaining on the current statement's deadline (`None` =
/// unbounded).
pub fn deadline_remaining() -> Option<Duration> {
    current().and_then(|gov| gov.deadline().remaining())
}

/// The cancel error of the current statement, if it has been cancelled.
pub fn cancel_error() -> Option<CancelError> {
    current().and_then(|gov| {
        // Fold an expired-but-unobserved deadline in, so callers see the
        // canonical error even if no checkpoint ran since expiry.
        let _ = gov.checkpoint();
        gov.token().error()
    })
}

/// Run `f` with the governor stack shielded: checkpoints inside see no
/// governor. Used for cleanup that must proceed on a cancelled statement
/// — dropping emulation temp tables, journal replay — so cancellation
/// never leaks target-side state.
pub fn shielded<T>(f: impl FnOnce() -> T) -> T {
    let saved = CURRENT.with(|c| std::mem::take(&mut *c.borrow_mut()));
    let out = f();
    CURRENT.with(|c| *c.borrow_mut() = saved);
    out
}

// ---------------------------------------------------------------------------
// Registry + watchdog
// ---------------------------------------------------------------------------

/// Gateway-level governor policy.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Deadline applied to statements that request none. `None` leaves
    /// them unbounded.
    pub default_query_timeout: Option<Duration>,
    /// Per-query memory budget in bytes (0 = unlimited).
    pub per_query_memory: u64,
    /// Gateway-global memory pool in bytes (0 = unlimited).
    pub total_memory: u64,
    /// Watchdog sweep interval.
    pub watchdog_interval: Duration,
    /// Allow `/queries?cancel=<id>` on the observability endpoint to
    /// cancel statements. Off by default: the endpoint is read-only
    /// unless an operator opts in.
    pub allow_http_cancel: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            default_query_timeout: None,
            per_query_memory: 256 << 20,
            total_memory: 1 << 30,
            watchdog_interval: Duration::from_millis(20),
            allow_http_cancel: false,
        }
    }
}

/// One row of the in-flight query table (the `/queries` route).
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    pub id: u64,
    pub session: u64,
    pub fingerprint: u64,
    pub stage: &'static str,
    pub elapsed: Duration,
    pub mem_bytes: u64,
    pub cancelled: Option<&'static str>,
}

/// The gateway's table of in-flight statements.
pub struct GovernorRegistry {
    config: GovernorConfig,
    pool: Arc<MemoryPool>,
    next_id: AtomicU64,
    inflight: Mutex<HashMap<u64, Arc<QueryGovernor>>>,
    inflight_gauge: Arc<Gauge>,
    pool_gauge: Arc<Gauge>,
    sweeps: Arc<Counter>,
    watchdog_kills: Arc<Counter>,
    denials: Arc<Counter>,
}

impl GovernorRegistry {
    pub fn new(config: GovernorConfig, obs: &ObsContext) -> Arc<Self> {
        let pool = MemoryPool::new(config.total_memory);
        Arc::new(GovernorRegistry {
            config,
            pool,
            next_id: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            inflight_gauge: obs.metrics.gauge("hyperq_governor_inflight", &[]),
            pool_gauge: obs.metrics.gauge("hyperq_governor_pool_used_bytes", &[]),
            sweeps: obs.metrics.counter("hyperq_governor_sweeps_total", &[]),
            watchdog_kills: obs.metrics.counter(
                "hyperq_governor_cancels_total",
                &[("reason", "deadline"), ("source", "watchdog")],
            ),
            denials: obs.metrics.counter("hyperq_governor_mem_denials_total", &[]),
        })
    }

    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    pub fn pool(&self) -> &Arc<MemoryPool> {
        &self.pool
    }

    /// Register a new statement. `client_timeout` (from the wire request)
    /// overrides the configured default. Drop the returned
    /// [`Registration`] when the statement finishes — it deregisters and
    /// releases every ledger charge.
    pub fn begin(self: &Arc<Self>, session: u64, client_timeout: Option<Duration>) -> Registration {
        let limit = client_timeout.or(self.config.default_query_timeout);
        let gov = Arc::new(QueryGovernor {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            session,
            fingerprint: AtomicU64::new(0),
            token: CancelToken::new(),
            deadline: QueryDeadline::new(limit),
            ledger: ResourceLedger::new(self.config.per_query_memory)
                .with_pool(Arc::clone(&self.pool), Arc::clone(&self.denials)),
            stage: AtomicU8::new(stage_to_u8(Stage::Admitted)),
            started: Instant::now(),
        });
        lock(&self.inflight).insert(gov.id, Arc::clone(&gov));
        self.inflight_gauge.add(1);
        Registration { registry: Arc::clone(self), gov }
    }

    /// Cancel an in-flight statement by id (the `/queries?cancel=` hook
    /// and cross-session aborts). `false` when the id is unknown.
    pub fn cancel(&self, id: u64, reason: CancelReason, detail: impl Into<String>) -> bool {
        match lock(&self.inflight).get(&id) {
            Some(gov) => {
                gov.cancel(reason, detail);
                true
            }
            None => false,
        }
    }

    /// The in-flight query table.
    pub fn snapshot(&self) -> Vec<QuerySnapshot> {
        let mut rows: Vec<QuerySnapshot> = lock(&self.inflight)
            .values()
            .map(|gov| QuerySnapshot {
                id: gov.id,
                session: gov.session,
                fingerprint: gov.fingerprint(),
                stage: gov.stage().as_str(),
                elapsed: gov.elapsed(),
                mem_bytes: gov.ledger().charged(),
                cancelled: gov.token().reason().map(CancelReason::as_str),
            })
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    pub fn inflight(&self) -> usize {
        lock(&self.inflight).len()
    }

    /// One watchdog pass: cancel every statement past its deadline.
    /// Budget kills happen inline at the charge site; the watchdog's job
    /// is the statements wedged *between* checkpoints — its cancel makes
    /// their next checkpoint (or admission/backoff wait) fail fast.
    /// Returns how many statements this sweep cancelled.
    pub fn sweep(&self) -> usize {
        self.sweeps.inc();
        let mut killed = 0;
        for gov in lock(&self.inflight).values() {
            if gov.token().is_cancelled() {
                continue;
            }
            if gov.deadline.expired() {
                let limit = gov.deadline.limit().unwrap_or_default();
                if gov.cancel(
                    CancelReason::DeadlineExceeded,
                    format!("query deadline of {limit:?} exceeded (watchdog)"),
                ) {
                    self.watchdog_kills.inc();
                    killed += 1;
                }
            }
        }
        self.pool_gauge.set(self.pool.used().min(i64::MAX as u64) as i64);
        killed
    }

    /// Start the watchdog thread sweeping at the configured interval.
    pub fn spawn_watchdog(self: &Arc<Self>) -> WatchdogHandle {
        let registry = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = self.config.watchdog_interval.max(Duration::from_millis(1));
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                registry.sweep();
                std::thread::sleep(interval);
            }
        });
        WatchdogHandle { stop, thread: Some(thread) }
    }
}

/// RAII registration of one statement with the gateway registry.
pub struct Registration {
    registry: Arc<GovernorRegistry>,
    gov: Arc<QueryGovernor>,
}

impl Registration {
    pub fn governor(&self) -> &Arc<QueryGovernor> {
        &self.gov
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        lock(&self.registry.inflight).remove(&self.gov.id);
        self.registry.inflight_gauge.sub(1);
        self.gov.ledger.release_all();
        if !self.gov.token.is_cancelled() {
            self.gov.set_stage(Stage::Done);
        }
    }
}

/// Handle to the watchdog thread; stops and joins on drop.
pub struct WatchdogHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for WatchdogHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins_and_is_sticky() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.cancel(CancelReason::ClientAbort, "abort"));
        assert!(!token.cancel(CancelReason::DeadlineExceeded, "late"));
        let err = token.error().unwrap();
        assert_eq!(err.reason, CancelReason::ClientAbort);
        assert_eq!(err.reason.wire_code(), 3110);
        assert_eq!(err.detail, "abort");
    }

    #[test]
    fn deadline_expiry_reports_and_clamps() {
        let d = QueryDeadline::within(Duration::from_millis(5));
        assert!(!d.would_exceed(Duration::ZERO));
        assert!(d.would_exceed(Duration::from_secs(1)));
        assert!(d.clamp(Duration::from_secs(1)) <= Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(6));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let unbounded = QueryDeadline::unbounded();
        assert!(!unbounded.expired());
        assert!(!unbounded.would_exceed(Duration::from_secs(3600)));
    }

    #[test]
    fn governor_checkpoint_converts_expired_deadline() {
        let gov = QueryGovernor::standalone(Some(Duration::ZERO), 0);
        let err = gov.checkpoint().unwrap_err();
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);
        assert_eq!(err.reason.wire_code(), 3156);
        assert_eq!(gov.stage(), Stage::Cancelled);
        // Sticky: later checkpoints report the same error.
        assert_eq!(gov.checkpoint().unwrap_err().reason, CancelReason::DeadlineExceeded);
    }

    #[test]
    fn ledger_budget_denial_cancels() {
        let gov = QueryGovernor::standalone(None, 100);
        assert!(gov.charge(60).is_ok());
        assert!(gov.charge(30).is_ok());
        let err = gov.charge(20).unwrap_err();
        assert_eq!(err.reason, CancelReason::BudgetExceeded);
        assert_eq!(err.reason.wire_code(), 2646);
        assert!(gov.token().is_cancelled());
        assert_eq!(gov.ledger().charged(), 90);
        assert_eq!(gov.ledger().peak(), 90);
    }

    #[test]
    fn ledger_release_returns_to_pool() {
        let pool = MemoryPool::new(100);
        let denials = hyperq_obs::ObsContext::new()
            .metrics
            .counter("hyperq_governor_mem_denials_total", &[]);
        let ledger = ResourceLedger::new(0).with_pool(Arc::clone(&pool), denials);
        ledger.charge(70).unwrap();
        assert_eq!(pool.used(), 70);
        assert!(ledger.charge(40).is_err(), "pool exhausted");
        ledger.release(30);
        assert_eq!(pool.used(), 40);
        ledger.release_all();
        assert_eq!(pool.used(), 0);
        assert_eq!(ledger.charged(), 0);
    }

    #[test]
    fn thread_local_install_and_shield() {
        assert!(checkpoint().is_ok(), "no governor installed");
        let gov = QueryGovernor::standalone(None, 0);
        let scope = install(Arc::clone(&gov));
        gov.cancel(CancelReason::ClientAbort, "abort");
        assert_eq!(checkpoint().unwrap_err().reason, CancelReason::ClientAbort);
        // Cleanup paths run shielded: no governor visible inside.
        shielded(|| assert!(checkpoint().is_ok()));
        assert!(checkpoint().is_err(), "shield restored");
        drop(scope);
        assert!(checkpoint().is_ok(), "scope uninstalls");
    }

    #[test]
    fn registry_sweep_kills_expired_and_snapshot_reports() {
        let obs = hyperq_obs::ObsContext::new();
        let registry = GovernorRegistry::new(
            GovernorConfig {
                default_query_timeout: Some(Duration::from_millis(1)),
                ..GovernorConfig::default()
            },
            &obs,
        );
        let reg = registry.begin(7, None);
        reg.governor().set_fingerprint(42);
        assert_eq!(registry.inflight(), 1);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(registry.sweep(), 1);
        assert!(reg.governor().token().is_cancelled());
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].session, 7);
        assert_eq!(snap[0].fingerprint, 42);
        assert_eq!(snap[0].stage, "cancelled");
        assert_eq!(snap[0].cancelled, Some("deadline"));
        drop(reg);
        assert_eq!(registry.inflight(), 0);
        assert_eq!(registry.pool().used(), 0);
    }

    #[test]
    fn registry_cancel_by_id() {
        let obs = hyperq_obs::ObsContext::new();
        let registry = GovernorRegistry::new(GovernorConfig::default(), &obs);
        let reg = registry.begin(1, None);
        let id = reg.governor().id;
        assert!(registry.cancel(id, CancelReason::ClientAbort, "via /queries"));
        assert!(!registry.cancel(id + 99, CancelReason::ClientAbort, "unknown"));
        assert_eq!(
            reg.governor().checkpoint().unwrap_err().reason,
            CancelReason::ClientAbort
        );
    }

    #[test]
    fn watchdog_thread_cancels_past_deadline() {
        let obs = hyperq_obs::ObsContext::new();
        let registry = GovernorRegistry::new(
            GovernorConfig {
                watchdog_interval: Duration::from_millis(2),
                ..GovernorConfig::default()
            },
            &obs,
        );
        let watchdog = registry.spawn_watchdog();
        let reg = registry.begin(1, Some(Duration::from_millis(5)));
        let t0 = Instant::now();
        while !reg.governor().token().is_cancelled() {
            assert!(t0.elapsed() < Duration::from_secs(2), "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            reg.governor().token().reason(),
            Some(CancelReason::DeadlineExceeded)
        );
        drop(watchdog);
    }
}
