//! The backend execution path: one link between a session and its target.
//!
//! A flaky or slow cloud target must degrade gracefully at the middle tier
//! instead of cascading into dropped client connections (paper §4, §6).
//! Every statement, and every step of every mid-tier emulation, reaches
//! the target through a [`TargetLink`], whose one loop does
//!
//! ```text
//! checkpoint → breaker acquire → attempt → policy::decide
//!                                   ├ ok / surface      → return
//!                                   ├ retry             → back off, loop
//!                                   └ recover session   → reset + journal replay, loop
//! ```
//!
//! A link has two halves. The **target** half is shared by every session
//! on one target: the driver and, when a [`ResilienceConfig`] is given,
//! bounded retries (exponential backoff, seedable jitter), a per-request
//! deadline across attempts, and a three-state circuit breaker that
//! answers fast-fail while the target is down. The **session** half
//! ([`TargetLink::for_session`]) holds the request metrics, the
//! [`SessionJournal`] replayed after a reconnect, and the transaction pin
//! lent to a replica set through [`RequestContext::pin`]. A link without
//! it (a replica's link inside [`crate::replicate::ReplicatedBackend`])
//! retries and trips its breaker but never reconnects: a lost connection
//! is the replica set's to fence.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use hyperq_governor::QueryDeadline;
use hyperq_obs::{Counter, Gauge, Histogram, ObsContext};
use hyperq_xtra::catalog::TableDef;

use crate::backend::{Backend, BackendError, BackendErrorKind, ExecResult, RequestContext};
use crate::policy::{self, SessionRecovery};
use crate::recover::{
    JournalEntryKind, RecoverConfig, SessionJournal, TXN_ABORT_MESSAGE,
};
use crate::replicate::TxnPin;

/// Retry/backoff/deadline policy.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, capped at
    /// `max_backoff`, then jittered.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Fraction of the backoff randomized away: the sleep is drawn
    /// uniformly from `[(1 - jitter) * b, b]`. 0 disables jitter.
    pub jitter: f64,
    /// Seed for the jitter generator — deterministic timing under test.
    pub seed: u64,
    /// Wall-clock budget for the whole request across attempts and
    /// backoffs. `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            jitter: 0.5,
            seed: 0x5EED_CAFE,
            deadline: None,
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before letting a half-open probe
    /// through.
    pub cooldown: Duration,
    /// Consecutive half-open successes required to close again.
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
            success_threshold: 1,
        }
    }
}

/// Combined resilience configuration for one target.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    pub retry: RetryPolicy,
    pub breaker: BreakerConfig,
}

/// Breaker states, in gauge encoding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    opened_at: Option<Instant>,
}

/// A three-state circuit breaker. Shared across sessions of one target.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    state_gauge: Arc<Gauge>,
    transitions: [Arc<Counter>; 3],
}

impl CircuitBreaker {
    fn new(config: BreakerConfig, backend: &str, obs: &ObsContext) -> CircuitBreaker {
        let state_gauge =
            obs.metrics.gauge("hyperq_backend_breaker_state", &[("backend", backend)]);
        state_gauge.set(0);
        let transition = |to: BreakerState| {
            obs.metrics.counter(
                "hyperq_backend_breaker_transitions_total",
                &[("backend", backend), ("to", to.as_str())],
            )
        };
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                half_open_successes: 0,
                opened_at: None,
            }),
            state_gauge,
            transitions: [
                transition(BreakerState::Closed),
                transition(BreakerState::Open),
                transition(BreakerState::HalfOpen),
            ],
        }
    }

    fn transition(&self, inner: &mut BreakerInner, to: BreakerState) {
        inner.state = to;
        self.state_gauge.set(to.gauge_value());
        self.transitions[to.gauge_value() as usize].inc();
        match to {
            BreakerState::Closed => {
                inner.consecutive_failures = 0;
                inner.half_open_successes = 0;
                inner.opened_at = None;
            }
            BreakerState::Open => {
                inner.opened_at = Some(Instant::now());
                inner.half_open_successes = 0;
            }
            BreakerState::HalfOpen => {
                inner.half_open_successes = 0;
            }
        }
    }

    /// Whether a request may proceed right now. An open breaker past its
    /// cooldown flips to half-open and admits the caller as the probe.
    fn try_acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_none_or(|t| t.elapsed() >= self.config.cooldown);
                if cooled {
                    self.transition(&mut inner, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.half_open_successes += 1;
                if inner.half_open_successes >= self.config.success_threshold {
                    self.transition(&mut inner, BreakerState::Closed);
                }
            }
            // A success completing after the breaker re-opened: stale, keep
            // the open state authoritative.
            BreakerState::Open => {}
        }
    }

    fn on_failure(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    self.transition(&mut inner, BreakerState::Open);
                }
            }
            // A failed probe re-opens immediately and restarts the cooldown.
            BreakerState::HalfOpen => self.transition(&mut inner, BreakerState::Open),
            BreakerState::Open => {}
        }
    }

    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }
}

/// The target half of a link: what every session on one target shares.
struct Target {
    driver: Arc<dyn Backend>,
    /// `None` = every request is a single attempt and never refused.
    guard: Option<Guard>,
}

impl Target {
    /// One attempt; timed only when there is a guard to report it (a clock
    /// read is a measurable share of a guard-less link's cost).
    fn attempt(&self, sql: &str, ctx: &RequestContext) -> Result<ExecResult, BackendError> {
        let Some(g) = &self.guard else { return self.driver.execute_ctx(sql, ctx.clone()) };
        let t0 = Instant::now();
        let result = self.driver.execute_ctx(sql, ctx.clone());
        g.attempt_latency.record(t0.elapsed());
        result
    }
}

/// Retry policy, breaker and per-attempt metrics of one target.
struct Guard {
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    jitter_rng: Mutex<StdRng>,
    retries: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    fast_fails: Arc<Counter>,
    attempt_latency: Arc<Histogram>,
}

impl Guard {
    /// Backoff before retry number `retry` (1-based), jittered. With
    /// `jitter = 0` the sequence is exactly `base * 2^(retry-1)` capped at
    /// `max_backoff`; with a fixed seed the jittered sequence is
    /// deterministic too.
    fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32.checked_shl(retry.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.policy.max_backoff);
        let jitter = self.policy.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 || exp.is_zero() {
            return exp;
        }
        // 53 high bits of the seeded generator → uniform unit draw.
        let unit = (self.jitter_rng.lock().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(1.0 - jitter * unit)
    }
}

/// The session half of a link: request metrics, the journal replayed after
/// a reconnect, and the transaction pin.
struct SessionSide {
    journal: SessionJournal,
    recover: RecoverConfig,
    pin: Arc<TxnPin>,
    obs: Arc<ObsContext>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    errors_by_kind: [Arc<Counter>; BackendErrorKind::ALL.len()],
    rows: Arc<Counter>,
    catalog_lookups: Arc<Counter>,
    latency: Arc<Histogram>,
    recovery_attempts: Arc<Counter>,
    recovery_success: Arc<Counter>,
    recovery_failures: Arc<Counter>,
    txn_aborts: Arc<Counter>,
    invalidated_gtts: Arc<Counter>,
    replayed: [Arc<Counter>; JournalEntryKind::ALL.len()],
    recovery_duration: Arc<Histogram>,
}

/// The one wrapper between the crosscompiler and the driver (or replica
/// set): see the module docs. Transparent — callers still see the driver's
/// `name()`.
pub struct TargetLink {
    target: Arc<Target>,
    session: Option<SessionSide>,
}

impl TargetLink {
    /// A link to `driver` with no session attached. `config` `None` sends
    /// every request as one attempt with no breaker. Share one link per
    /// target — [`TargetLink::for_session`] gives each session its own
    /// handle on it — so the breaker sees the target's aggregate health.
    pub fn new(
        driver: Arc<dyn Backend>,
        config: Option<ResilienceConfig>,
        obs: &ObsContext,
    ) -> TargetLink {
        let labels = &[("backend", driver.name())][..];
        let m = &obs.metrics;
        let guard = config.map(|config| Guard {
            breaker: CircuitBreaker::new(config.breaker, driver.name(), obs),
            jitter_rng: Mutex::new(StdRng::seed_from_u64(config.retry.seed)),
            retries: m.counter("hyperq_backend_retries_total", labels),
            deadline_exceeded: m.counter("hyperq_backend_deadline_exceeded_total", labels),
            fast_fails: m.counter("hyperq_backend_breaker_fastfail_total", labels),
            attempt_latency: m.histogram("hyperq_backend_attempt_duration_seconds", labels),
            policy: config.retry,
        });
        TargetLink { target: Arc::new(Target { driver, guard }), session: None }
    }

    /// Another session-less handle on the same target (driver, breaker,
    /// retry policy).
    pub fn share(&self) -> TargetLink {
        TargetLink { target: Arc::clone(&self.target), session: None }
    }

    /// A session's handle on this target: requests through it are counted,
    /// carry the session's transaction pin, and survive a lost connection
    /// by replaying `journal`.
    pub fn for_session(
        &self,
        journal: SessionJournal,
        recover: RecoverConfig,
        obs: Arc<ObsContext>,
    ) -> TargetLink {
        let name = self.target.driver.name();
        let labels = &[("backend", name)][..];
        let m = &obs.metrics;
        let session = SessionSide {
            requests: m.counter("hyperq_backend_requests_total", labels),
            errors: m.counter("hyperq_backend_errors_total", labels),
            errors_by_kind: BackendErrorKind::ALL.map(|k| {
                m.counter(
                    "hyperq_backend_errors_by_kind_total",
                    &[("backend", name), ("kind", k.as_str())],
                )
            }),
            rows: m.counter("hyperq_backend_rows_total", labels),
            catalog_lookups: m.counter("hyperq_backend_catalog_lookups_total", labels),
            latency: m.histogram("hyperq_backend_request_duration_seconds", labels),
            recovery_attempts: m.counter("hyperq_recovery_attempts_total", &[]),
            recovery_success: m.counter("hyperq_recovery_success_total", &[]),
            recovery_failures: m.counter("hyperq_recovery_failures_total", &[]),
            txn_aborts: m.counter("hyperq_recovery_txn_aborts_total", &[]),
            invalidated_gtts: m.counter("hyperq_recovery_invalidated_gtts_total", &[]),
            replayed: JournalEntryKind::ALL.map(|k| {
                m.counter("hyperq_recovery_replayed_entries_total", &[("kind", k.as_str())])
            }),
            recovery_duration: m.histogram("hyperq_recovery_duration_seconds", &[]),
            journal,
            recover,
            pin: Arc::default(),
            obs,
        };
        TargetLink { target: Arc::clone(&self.target), session: Some(session) }
    }

    /// Current breaker state (diagnostics / tests); `Closed` for a link
    /// built without a [`ResilienceConfig`].
    pub fn breaker_state(&self) -> BreakerState {
        self.target.guard.as_ref().map_or(BreakerState::Closed, |g| g.breaker.state())
    }

    /// The execution loop. `session` is the half that may reconnect and
    /// replay; journal replay itself runs with `None`, so its statements
    /// get retries and the breaker but never a nested recovery.
    fn run(
        &self,
        sql: &str,
        ctx: &RequestContext,
        session: Option<&SessionSide>,
    ) -> Result<ExecResult, BackendError> {
        let driver = &self.target.driver;
        let guard = self.target.guard.as_ref();
        // The per-request budget and the statement's governor deadline are
        // both expressed as the shared `QueryDeadline`; the retry branch
        // consults whichever is tighter.
        let mut budget = guard.map(|g| QueryDeadline::new(g.policy.deadline));
        let mut attempt = 0u32;
        let mut recoveries = 0u32;
        loop {
            attempt += 1;
            // Cooperative cancellation: a cancelled (or past-deadline)
            // statement must not start another attempt.
            if let Err(c) = hyperq_governor::checkpoint() {
                return Err(BackendError::fatal(c.to_string()));
            }
            if let Some(g) = guard {
                if !g.breaker.try_acquire() {
                    g.fast_fails.inc();
                    return Err(BackendError::rejected(format!(
                        "circuit breaker open for target {}; request failed fast",
                        driver.name()
                    )));
                }
            }
            let err = match self.target.attempt(sql, ctx) {
                Ok(r) => {
                    if let Some(g) = guard {
                        g.breaker.on_success();
                    }
                    return Ok(r);
                }
                Err(e) => e,
            };
            let d = policy::decide(err.kind, ctx, policy::statement_cancelled());
            if let Some(g) = guard {
                if d.counts_toward_breaker {
                    g.breaker.on_failure();
                }
                if d.retry && attempt < g.policy.max_attempts {
                    let backoff = g.backoff(attempt);
                    if budget.is_some_and(|b| b.would_exceed(backoff)) {
                        g.deadline_exceeded.inc();
                        return Err(BackendError::timeout(format!(
                            "request deadline of {:?} exceeded after {attempt} attempt(s); \
                             last error: {}",
                            g.policy.deadline.unwrap_or_default(),
                            err.message
                        )));
                    }
                    // Never sleep past the statement's own deadline either:
                    // clamp the backoff to what the governor allows and let
                    // the checkpoint at the top of the next iteration
                    // surface the cancellation.
                    let backoff = match hyperq_governor::deadline_remaining() {
                        Some(rem) => backoff.min(rem),
                        None => backoff,
                    };
                    g.retries.inc();
                    hyperq_obs::provenance::note_retry();
                    std::thread::sleep(backoff);
                    continue;
                }
            }
            // Blind retries are spent (or were never allowed).
            let Some(s) = session else { return Err(err) };
            if d.recover_session == SessionRecovery::None
                || recoveries >= s.recover.max_recoveries
            {
                return Err(err);
            }
            recoveries += 1;
            if d.recover_session == SessionRecovery::AbortTransaction {
                // The target rolled the transaction back with the
                // connection. Restore the session for the *next* statement,
                // but never replay the non-idempotent work silently.
                s.txn_aborts.inc();
                s.journal.note_txn_abort();
                let _ = self.recover(s);
                return Err(BackendError {
                    wire_code: d.wire_code,
                    ..BackendError::fatal(TXN_ABORT_MESSAGE)
                });
            }
            if self.recover(s).is_err() {
                // Session unrecoverable; surface the original failure.
                return Err(err);
            }
            if d.recover_session == SessionRecovery::OutcomeUnknown {
                return Err(BackendError::new(
                    err.kind,
                    format!("{}; session restored, statement outcome unknown", err.message),
                ));
            }
            // Replay-safe: re-issue on the restored session with a fresh
            // attempt and deadline budget.
            attempt = 0;
            budget = guard.map(|g| QueryDeadline::new(g.policy.deadline));
        }
    }

    /// Reconnect and replay the journal. `Err` means the session could not
    /// be faithfully restored (reconnect failed or a *setting* failed to
    /// reapply); a GTT replay failure is downgraded to an invalidation and
    /// an orphan-drop failure stays journaled for the next attempt.
    fn recover(&self, s: &SessionSide) -> Result<(), BackendError> {
        let _span = s.obs.traces.enter("recover");
        s.recovery_attempts.inc();
        let t0 = Instant::now();
        let result = self.replay(s);
        s.recovery_duration.record(t0.elapsed());
        match &result {
            Ok(()) => {
                s.recovery_success.inc();
                s.journal.note_recovery();
                hyperq_obs::provenance::note_recovery();
            }
            Err(_) => s.recovery_failures.inc(),
        }
        result
    }

    /// Replay in recording order (journal sequence): settings before the
    /// statements that depend on them, GTT DDL before anything that could
    /// reference the instance, orphan drops wherever the failed cleanup
    /// left them.
    fn replay(&self, s: &SessionSide) -> Result<(), BackendError> {
        let driver = &self.target.driver;
        // A fresh connection has none of the transaction's snapshot.
        s.pin.clear();
        driver.reset_session()?;
        // These statements re-establish session state a fresh connection
        // lacks; they are replay-safe by construction.
        let ctx = RequestContext::read_only();
        for entry in s.journal.snapshot() {
            let replayed = &s.replayed[entry.kind as usize];
            match entry.kind {
                JournalEntryKind::Setting => {
                    self.run(&entry.sql, &ctx, None).map_err(|e| {
                        BackendError::new(
                            e.kind,
                            format!("replaying setting {}: {}", entry.key, e.message),
                        )
                    })?;
                    replayed.inc();
                }
                JournalEntryKind::GttMaterialize => {
                    // Cloud targets can keep session scope alive across a
                    // reconnect token — if the instance still exists, the
                    // state is confirmed without re-running DDL.
                    let alive = entry
                        .guard_table
                        .as_deref()
                        .is_some_and(|t| driver.table_meta(t).is_some());
                    if alive || self.run(&entry.sql, &ctx, None).is_ok() {
                        replayed.inc();
                    } else {
                        // Partial replay failure: drop the claim so the next
                        // statement that touches the GTT re-materializes it.
                        s.journal.invalidate_gtt(&entry.key);
                        s.invalidated_gtts.inc();
                    }
                }
                JournalEntryKind::OrphanTemp => {
                    // Best effort, like the cleanup that failed: success
                    // retires the entry, failure keeps it for next time.
                    if self.run(&entry.sql, &ctx, None).is_ok() {
                        s.journal.remove(JournalEntryKind::OrphanTemp, &entry.key);
                        replayed.inc();
                    }
                }
            }
        }
        Ok(())
    }
}

impl Backend for TargetLink {
    fn name(&self) -> &str {
        self.target.driver.name()
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.execute_ctx(sql, RequestContext::from_sql(sql))
    }

    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        let Some(s) = &self.session else { return self.run(sql, &ctx, None) };
        s.requests.inc();
        let ctx = RequestContext { pin: Some(Arc::clone(&s.pin)), ..ctx };
        let t0 = Instant::now();
        let result = self.run(sql, &ctx, Some(s));
        s.latency.record(t0.elapsed());
        match &result {
            Ok(r) => s.rows.add(r.row_count),
            Err(e) => {
                s.errors.inc();
                s.errors_by_kind[e.kind as usize].inc();
            }
        }
        result
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        if let Some(s) = &self.session {
            s.catalog_lookups.inc();
        }
        self.target.driver.table_meta(name)
    }

    fn reset_session(&self) -> Result<(), BackendError> {
        self.target.driver.reset_session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::{FaultInjectingBackend, FaultPlan, ScriptedBackend};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            jitter: 0.5,
            seed: 42,
            deadline: None,
        }
    }

    fn resilient(
        plan: FaultPlan,
        retry: RetryPolicy,
        breaker: BreakerConfig,
    ) -> (TargetLink, Arc<FaultInjectingBackend>, Arc<ObsContext>) {
        let obs = ObsContext::new();
        let inner = Arc::new(ScriptedBackend::acking(vec![]));
        let fault = FaultInjectingBackend::wrap(inner as Arc<dyn Backend>, plan);
        let rb = TargetLink::new(
            Arc::clone(&fault) as Arc<dyn Backend>,
            Some(ResilienceConfig { retry, breaker }),
            &obs,
        );
        (rb, fault, obs)
    }

    fn backoff(link: &TargetLink, retry: u32) -> Duration {
        link.target.guard.as_ref().expect("link built with a policy").backoff(retry)
    }

    #[test]
    fn backoff_sequence_is_deterministic_for_a_seed() {
        let seq = |seed: u64| -> Vec<Duration> {
            let obs = ObsContext::new();
            let inner = Arc::new(ScriptedBackend::acking(vec![]));
            let rb = TargetLink::new(
                inner as Arc<dyn Backend>,
                Some(ResilienceConfig {
                    retry: RetryPolicy { seed, ..fast_policy() },
                    breaker: BreakerConfig::default(),
                }),
                &obs,
            );
            (1..=6).map(|n| backoff(&rb, n)).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed, same jittered backoffs");
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let obs = ObsContext::new();
        let inner = Arc::new(ScriptedBackend::acking(vec![]));
        let rb = TargetLink::new(
            inner as Arc<dyn Backend>,
            Some(ResilienceConfig {
                retry: RetryPolicy {
                    base_backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(40),
                    jitter: 0.0,
                    ..fast_policy()
                },
                breaker: BreakerConfig::default(),
            }),
            &obs,
        );
        assert_eq!(backoff(&rb, 1), Duration::from_millis(10));
        assert_eq!(backoff(&rb, 2), Duration::from_millis(20));
        assert_eq!(backoff(&rb, 3), Duration::from_millis(40));
        assert_eq!(backoff(&rb, 4), Duration::from_millis(40), "capped at max_backoff");
        assert_eq!(backoff(&rb, 40), Duration::from_millis(40), "huge retry counts don't overflow");
    }

    #[test]
    fn deadline_bounds_total_retry_time() {
        let (rb, fault, obs) = resilient(
            FaultPlan::always_fail(BackendErrorKind::Transient),
            RetryPolicy {
                max_attempts: 100,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(5),
                jitter: 0.0,
                seed: 1,
                deadline: Some(Duration::from_millis(12)),
            },
            BreakerConfig { failure_threshold: 1000, ..Default::default() },
        );
        let err = rb.execute_ctx("SEL 1", RequestContext::read_only()).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Timeout, "{err}");
        assert!(fault.attempts() < 100, "deadline must cut retries short");
        assert_eq!(
            obs.metrics.counter_value(
                "hyperq_backend_deadline_exceeded_total",
                &[("backend", "scripted")]
            ),
            1
        );
    }

    #[test]
    fn breaker_opens_fast_fails_then_recovers_via_half_open() {
        let (rb, fault, obs) = resilient(
            FaultPlan::always_fail(BackendErrorKind::Transient),
            RetryPolicy { max_attempts: 1, ..fast_policy() },
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(30),
                success_threshold: 1,
            },
        );
        for _ in 0..3 {
            assert!(rb.execute_ctx("SEL 1", RequestContext::read_only()).is_err());
        }
        assert_eq!(rb.breaker_state(), BreakerState::Open);
        let reached = fault.attempts();

        // While open: fail fast without touching the backend.
        let err = rb.execute_ctx("SEL 1", RequestContext::read_only()).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Rejected);
        assert!(err.message.contains("circuit breaker open"), "{err}");
        assert_eq!(fault.attempts(), reached, "open breaker must not reach the backend");
        assert!(
            obs.metrics.counter_value(
                "hyperq_backend_breaker_fastfail_total",
                &[("backend", "scripted")]
            ) >= 1
        );

        // Heal the target, wait out the cooldown: the next call is the
        // half-open probe, succeeds, and closes the breaker.
        fault.set_plan(FaultPlan::none());
        std::thread::sleep(Duration::from_millis(40));
        rb.execute_ctx("SEL 1", RequestContext::read_only()).unwrap();
        assert_eq!(rb.breaker_state(), BreakerState::Closed);
        assert_eq!(
            obs.metrics.counter_value(
                "hyperq_backend_breaker_transitions_total",
                &[("backend", "scripted"), ("to", "half_open")]
            ),
            1
        );
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let (rb, _fault, _obs) = resilient(
            FaultPlan::always_fail(BackendErrorKind::Transient),
            RetryPolicy { max_attempts: 1, ..fast_policy() },
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(10),
                success_threshold: 1,
            },
        );
        assert!(rb.execute_ctx("SEL 1", RequestContext::read_only()).is_err());
        assert_eq!(rb.breaker_state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        // Probe admitted, fails → straight back to open.
        assert!(rb.execute_ctx("SEL 1", RequestContext::read_only()).is_err());
        assert_eq!(rb.breaker_state(), BreakerState::Open);
    }
}
