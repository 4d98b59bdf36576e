//! Scale-out across replicas (paper §B.3 — listed as in-progress work).
//!
//! "A common solution … is to maintain multiple replicas of the data
//! warehouse and load balance queries across them. The ADV solution on top
//! can then automatically route the queries to the different replicas,
//! without sacrificing consistency, and without requiring changes to the
//! application logic."
//!
//! [`ReplicatedBackend`] implements exactly that behind the ordinary
//! [`Backend`] interface, and — unlike the earlier stub — it *self-heals*:
//!
//! * **Routing.** Reads round-robin across healthy replicas; everything
//!   else broadcasts to every healthy replica. The set reads no SQL: a
//!   request is a read only when the lowering says so ([`RequestKind`]),
//!   and the plain [`Backend::execute`] is a write.
//! * **Error-class-aware fencing.** Each replica sits behind its own
//!   session-less [`TargetLink`], so transient read blips and timeouts are
//!   retried per replica before the replication layer ever sees them.
//!   Writes keep the caller's [`RequestContext`] and are never
//!   blind-retried — a retry after an ambiguous failure could apply the
//!   write twice on one replica, a fork the row-count divergence check
//!   cannot see. Whether a failed replica is fenced, skipped or kept is the
//!   `replica` column of the [`crate::policy`] table; beyond it a replica
//!   is fenced when it demonstrably missed an applied write or when its
//!   write result diverges from the majority.
//! * **Write-repair journal.** Writes applied while a replica is fenced
//!   are journaled per replica and drained by [`probe_and_repair`]
//!   (`crate::repair`) under a replayable [`RequestContext`]; the replica
//!   is re-admitted only after a clean drain. The journal is bounded: on
//!   overflow the replica flips to the explicit
//!   [`ReplicaHealth::NeedsResync`] state and stays out of rotation until
//!   an operator rebuilds it.
//! * **Transaction-pinned routing.** In-transaction statements pin the
//!   session to one replica so every read inside the transaction observes
//!   a single replica's state. The pin is the session's ([`TxnPin`], owned
//!   by its link and lent through [`RequestContext::pin`]). Losing the
//!   pinned replica mid-transaction surfaces as a connection-class error,
//!   which the session's link turns into exactly one 2631 transaction
//!   abort.
//! * **Divergence detection.** Broadcast writes compare affected-row
//!   counts across replicas; a minority result flips that replica to
//!   `NeedsResync` and counts `hyperq_replica_divergence_total` — journal
//!   replay cannot reconcile a write that *applied* differently.
//!
//! [`probe_and_repair`]: ReplicatedBackend::probe_and_repair

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::backend::{Backend, BackendError, ExecResult, RequestContext, RequestKind};
use crate::policy::{self, ReplicaVerdict};
use crate::resilience::{ResilienceConfig, TargetLink};
use hyperq_obs::{provenance, Counter, Gauge, ObsContext};
use hyperq_xtra::catalog::TableDef;

/// A replica's routing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// In rotation: serves reads, receives broadcast writes.
    Healthy,
    /// Out of rotation; missed writes accumulate in its repair journal and
    /// the prober re-admits it after a clean drain.
    Fenced,
    /// Out of rotation and beyond journal repair (overflowed journal or a
    /// diverged write result); stays fenced until rebuilt out of band.
    NeedsResync,
}

impl ReplicaHealth {
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Fenced => "fenced",
            ReplicaHealth::NeedsResync => "needs_resync",
        }
    }

    fn gauge_value(self) -> i64 {
        match self {
            ReplicaHealth::Healthy => 0,
            ReplicaHealth::Fenced => 1,
            ReplicaHealth::NeedsResync => 2,
        }
    }
}

/// Replication tuning.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Bound on each replica's write-repair journal; overflow flips the
    /// replica to [`ReplicaHealth::NeedsResync`].
    pub journal_capacity: usize,
    /// Health-prober cadence. `Duration::ZERO` disables the background
    /// thread (repair then runs only via explicit
    /// [`ReplicatedBackend::probe_and_repair`] sweeps, as the tests do).
    pub probe_interval: Duration,
    /// The probe statement sent to a fenced replica before draining its
    /// journal; must be cheap and read-only.
    pub probe_sql: String,
    /// Per-replica retry/breaker policy applied beneath the replication
    /// layer, so transient faults are absorbed before fencing decisions.
    /// `None` applies [`ResilienceConfig::default`]; the wire gateway
    /// substitutes its own gateway-level policy for `None`, so tuning
    /// `GatewayConfig::resilience` carries over to a replicated gateway.
    pub resilience: Option<ResilienceConfig>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            journal_capacity: 256,
            probe_interval: Duration::from_millis(200),
            probe_sql: "SELECT 1".to_string(),
            resilience: None,
        }
    }
}

/// A point-in-time view of one replica, served on `/replicas`.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    pub name: String,
    pub health: ReplicaHealth,
    /// Number of live sessions currently transaction-pinned here
    /// (best-effort, for observability).
    pub pinned_sessions: usize,
    pub journal_depth: usize,
    pub fences: u64,
    pub heals: u64,
}

/// A write the replica missed while fenced, replayed in order on repair.
#[derive(Debug, Clone)]
pub(crate) enum RepairOp {
    Write(String),
    Reset,
}

#[derive(Debug)]
pub(crate) struct ReplicaState {
    pub(crate) health: ReplicaHealth,
    pub(crate) journal: VecDeque<RepairOp>,
    /// Broadcasts that observed this replica fenced at dispatch and have
    /// not yet appended their op to the journal. While any ticket is
    /// outstanding the prober must not re-admit the replica: an empty
    /// journal does not mean "caught up", it means an older op is still in
    /// flight toward it, and re-admitting would let newer writes apply
    /// before it.
    pub(crate) pending_misses: usize,
}

pub(crate) struct Replica {
    pub(crate) name: String,
    pub(crate) backend: TargetLink,
    pub(crate) state: Mutex<ReplicaState>,
    /// Sessions currently transaction-pinned to this replica (held up by
    /// each session's [`TxnPin`], for observability).
    pinned_sessions: Arc<AtomicUsize>,
    pub(crate) health_state: Arc<Gauge>,
    pub(crate) depth_gauge: Arc<Gauge>,
    pub(crate) fences: Arc<Counter>,
    pub(crate) heals: Arc<Counter>,
    pub(crate) probes_ok: Arc<Counter>,
    pub(crate) probes_fail: Arc<Counter>,
    pub(crate) repairs: Arc<Counter>,
    reads: Arc<Counter>,
    writes: Arc<Counter>,
}

impl Replica {
    /// Take the replica out of rotation under its state lock; whether it
    /// was in rotation.
    fn fence_locked(&self, st: &mut ReplicaState) -> bool {
        if st.health != ReplicaHealth::Healthy {
            return false;
        }
        st.health = ReplicaHealth::Fenced;
        self.health_state.set(ReplicaHealth::Fenced.gauge_value());
        self.fences.inc();
        true
    }
}

/// A session's transaction pin: the replica its open transaction is bound
/// to. Owned by the session's [`TargetLink`] and lent to the replica set
/// through [`RequestContext::pin`]; dropping it (session teardown) returns
/// the replica's pinned-session count, so a client that vanishes
/// mid-transaction cannot leak it.
#[derive(Debug, Default)]
pub struct TxnPin(Mutex<Option<Pinned>>);

#[derive(Debug)]
struct Pinned {
    replica: usize,
    sessions: Arc<AtomicUsize>,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

impl TxnPin {
    /// Index of the pinned replica, if any.
    pub fn replica(&self) -> Option<usize> {
        self.0.lock().as_ref().map(|p| p.replica)
    }

    /// Release the pin (idempotent).
    pub fn clear(&self) {
        *self.0.lock() = None;
    }

    fn set(&self, replica: usize, sessions: &Arc<AtomicUsize>) {
        sessions.fetch_add(1, Ordering::Relaxed);
        *self.0.lock() = Some(Pinned { replica, sessions: Arc::clone(sessions) });
    }
}

/// A set of replicas behind one [`Backend`] face.
pub struct ReplicatedBackend {
    name: String,
    pub(crate) replicas: Vec<Replica>,
    next: AtomicUsize,
    pub(crate) config: ReplicaConfig,
    healthy_gauge: Arc<Gauge>,
    divergence: Arc<Counter>,
}

impl ReplicatedBackend {
    /// Build from at least one replica with default tuning, reporting to
    /// the global observability context.
    pub fn new(replicas: Vec<Arc<dyn Backend>>) -> Result<Self, BackendError> {
        ReplicatedBackend::with_config(replicas, ReplicaConfig::default(), ObsContext::global())
    }

    /// Build with explicit tuning. Each replica gets its own
    /// [`TargetLink`] so retries and breaker state are per replica.
    pub fn with_config(
        replicas: Vec<Arc<dyn Backend>>,
        config: ReplicaConfig,
        obs: &Arc<ObsContext>,
    ) -> Result<Self, BackendError> {
        if replicas.is_empty() {
            return Err(BackendError::fatal("replica set must not be empty"));
        }
        let m = &obs.metrics;
        let resilience = config.resilience.clone().unwrap_or_default();
        let replicas: Vec<Replica> = replicas
            .into_iter()
            .enumerate()
            .map(|(i, raw)| {
                let name = format!("r{i}");
                let backend = TargetLink::new(raw, Some(resilience.clone()), obs);
                let labels = &[("replica", name.as_str())][..];
                let health_state = m.gauge("hyperq_replica_health_state", labels);
                let depth_gauge = m.gauge("hyperq_replica_repair_depth", labels);
                health_state.set(ReplicaHealth::Healthy.gauge_value());
                depth_gauge.set(0);
                Replica {
                    backend,
                    state: Mutex::new(ReplicaState {
                        health: ReplicaHealth::Healthy,
                        journal: VecDeque::new(),
                        pending_misses: 0,
                    }),
                    pinned_sessions: Arc::default(),
                    health_state,
                    depth_gauge,
                    fences: m.counter("hyperq_replica_fences_total", labels),
                    heals: m.counter("hyperq_replica_heals_total", labels),
                    probes_ok: m.counter(
                        "hyperq_replica_probes_total",
                        &[("replica", &name), ("outcome", "ok")],
                    ),
                    probes_fail: m.counter(
                        "hyperq_replica_probes_total",
                        &[("replica", &name), ("outcome", "fail")],
                    ),
                    repairs: m.counter("hyperq_replica_repairs_total", labels),
                    reads: m.counter(
                        "hyperq_replica_statements_total",
                        &[("replica", &name), ("kind", "read")],
                    ),
                    writes: m.counter(
                        "hyperq_replica_statements_total",
                        &[("replica", &name), ("kind", "write")],
                    ),
                    name,
                }
            })
            .collect();
        let healthy_gauge = m.gauge("hyperq_replica_healthy", &[]);
        healthy_gauge.set(replicas.len() as i64);
        Ok(ReplicatedBackend {
            name: format!("replicated({})", replicas.len()),
            replicas,
            next: AtomicUsize::new(0),
            config,
            healthy_gauge,
            divergence: m.counter("hyperq_replica_divergence_total", &[]),
        })
    }

    /// Number of replicas in rotation.
    pub fn healthy_replicas(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state.lock().health == ReplicaHealth::Healthy)
            .count()
    }

    /// Per-replica state for operators (`/replicas`).
    pub fn snapshot(&self) -> Vec<ReplicaSnapshot> {
        self.replicas
            .iter()
            .map(|r| {
                let st = r.state.lock();
                ReplicaSnapshot {
                    name: r.name.clone(),
                    health: st.health,
                    pinned_sessions: r.pinned_sessions.load(Ordering::Relaxed),
                    journal_depth: st.journal.len(),
                    fences: r.fences.get(),
                    heals: r.heals.get(),
                }
            })
            .collect()
    }

    /// Total write-result divergences detected across the set's lifetime.
    pub fn divergences(&self) -> u64 {
        self.divergence.get()
    }

    /// A replica some session is currently transaction-pinned to, if any
    /// (diagnostics; the pin itself is the session's [`TxnPin`]).
    pub fn pinned_replica(&self) -> Option<String> {
        self.replicas
            .iter()
            .find(|r| r.pinned_sessions.load(Ordering::Relaxed) > 0)
            .map(|r| r.name.clone())
    }

    /// The session's pinned replica for an in-transaction statement,
    /// choosing (and pinning) one round-robin on first use. A request that
    /// carries no pin (outside a session) is routed but cannot stick.
    fn ensure_pin(&self, pin: Option<&TxnPin>) -> Result<usize, BackendError> {
        if let Some(i) = pin.and_then(TxnPin::replica) {
            if self.replicas[i].state.lock().health == ReplicaHealth::Healthy {
                return Ok(i);
            }
            // The pinned replica left rotation between statements; the
            // transaction cannot move without giving up its snapshot.
            unpin(pin);
            return Err(BackendError::connection_lost(format!(
                "pinned replica {} lost mid-transaction",
                self.replicas[i].name
            )));
        }
        let i = self.pick_healthy()?;
        if let Some(pin) = pin {
            pin.set(i, &self.replicas[i].pinned_sessions);
        }
        Ok(i)
    }

    fn pick_healthy(&self) -> Result<usize, BackendError> {
        let n = self.replicas.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            if self.replicas[i].state.lock().health == ReplicaHealth::Healthy {
                return Ok(i);
            }
        }
        Err(BackendError::rejected("no healthy replica available"))
    }

    /// Take a replica out of rotation (idempotent).
    pub(crate) fn fence(&self, i: usize) {
        let r = &self.replicas[i];
        let fenced_now = r.fence_locked(&mut r.state.lock());
        if fenced_now {
            self.refresh_healthy_gauge();
        }
    }

    /// Flip a replica to the terminal needs-resync state: its journal can
    /// no longer reconcile it (overflow, or an applied-but-divergent
    /// write).
    fn mark_needs_resync(&self, i: usize) {
        let r = &self.replicas[i];
        let mut st = r.state.lock();
        if st.health == ReplicaHealth::NeedsResync {
            return;
        }
        if st.health == ReplicaHealth::Healthy {
            r.fences.inc();
        }
        st.health = ReplicaHealth::NeedsResync;
        st.journal.clear();
        r.health_state.set(ReplicaHealth::NeedsResync.gauge_value());
        r.depth_gauge.set(0);
        drop(st);
        self.refresh_healthy_gauge();
    }

    pub(crate) fn refresh_healthy_gauge(&self) {
        self.healthy_gauge.set(self.healthy_replicas() as i64);
    }

    /// Journal the broadcast op replica `i` missed and fence it if it is
    /// still in rotation, in one critical section under its state lock.
    /// That closes the race where the prober probes the freshly fenced
    /// replica, finds an empty journal, re-admits it, and a concurrent
    /// broadcast applies a *newer* write before this op lands —
    /// out-of-order application the row counts would never reveal.
    ///
    /// `ticket` releases the pending-miss ticket a broadcast takes when it
    /// finds the replica already fenced at dispatch (`op` `None` releases
    /// it without journaling — the broadcast applied nowhere). The prober
    /// refuses re-admission while a ticket is outstanding, so the append
    /// cannot lose a race against a premature heal; should that invariant
    /// ever break, the replica is re-fenced rather than left healthy with
    /// an op stranded in its journal (drain only runs on fenced ones).
    fn journal(&self, i: usize, op: Option<RepairOp>, ticket: bool) {
        let r = &self.replicas[i];
        let mut st = r.state.lock();
        if ticket {
            debug_assert!(st.pending_misses > 0, "pending-miss ticket double-released");
            st.pending_misses = st.pending_misses.saturating_sub(1);
        }
        let Some(op) = op else { return };
        if st.health == ReplicaHealth::NeedsResync {
            return;
        }
        let fenced_now = r.fence_locked(&mut st);
        if st.journal.len() >= self.config.journal_capacity {
            drop(st);
            self.mark_needs_resync(i);
            return;
        }
        st.journal.push_back(op);
        r.depth_gauge.set(st.journal.len() as i64);
        drop(st);
        if fenced_now {
            self.refresh_healthy_gauge();
        }
    }

    fn execute_read(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        let verdict = |e: &BackendError| policy::decide(e.kind, &ctx, policy::statement_cancelled());
        // Inside a transaction the only candidate is the pinned replica;
        // outside, every healthy replica in round-robin order.
        let pin = ctx.pin.as_deref();
        let n = self.replicas.len();
        let (start, candidates) = if ctx.in_transaction {
            (self.ensure_pin(pin)?, 1)
        } else {
            (self.next.fetch_add(1, Ordering::Relaxed), n)
        };
        let mut last_err: Option<BackendError> = None;
        for k in 0..candidates {
            let i = (start + k) % n;
            let r = &self.replicas[i];
            if r.state.lock().health != ReplicaHealth::Healthy {
                continue;
            }
            match r.backend.execute_ctx(sql, ctx.clone()) {
                Ok(res) => {
                    r.reads.inc();
                    provenance::note_replica(&r.name);
                    return Ok(res);
                }
                Err(e) => match verdict(&e).fence_replica {
                    ReplicaVerdict::Keep => return Err(e),
                    ReplicaVerdict::FailOver => last_err = Some(e),
                    ReplicaVerdict::Fence => {
                        self.fence(i);
                        if ctx.in_transaction {
                            // The replica is gone, and with it the
                            // transaction's snapshot: drop the pin and let
                            // the session's link abort the transaction
                            // (one 2631).
                            unpin(pin);
                        }
                        last_err = Some(e);
                    }
                },
            }
        }
        Err(last_err.unwrap_or_else(|| BackendError::rejected("no healthy replica available")))
    }

    /// Run `op` on every replica in rotation, in index order. A fenced
    /// replica is skipped with a pending-miss ticket taken under the same
    /// lock that observed the fence: until [`Self::journal`] releases it
    /// the prober will not re-admit the replica, so the op's journal append
    /// cannot race a heal and land after newer writes. Returns each attempt
    /// and the replicas skipped with a ticket.
    fn broadcast<T>(&self, op: impl Fn(usize, &Replica) -> T) -> (Vec<(usize, T)>, Vec<usize>) {
        let mut attempted = Vec::new();
        let mut missed = Vec::new();
        for (i, r) in self.replicas.iter().enumerate() {
            let health = {
                let mut st = r.state.lock();
                if st.health == ReplicaHealth::Fenced {
                    st.pending_misses += 1;
                }
                st.health
            };
            match health {
                ReplicaHealth::Healthy => attempted.push((i, op(i, r))),
                ReplicaHealth::Fenced => missed.push(i),
                ReplicaHealth::NeedsResync => {}
            }
        }
        (attempted, missed)
    }

    fn execute_write(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        let session_pin = ctx.pin.as_deref();
        let pin = if ctx.in_transaction { Some(self.ensure_pin(session_pin)?) } else { None };
        // The caller's request kind passes through untouched. Granting
        // replay safety here would let each replica's resilience layer
        // blind-retry DML after an ambiguous failure (connection lost or
        // timeout mid-write) whose first attempt may already have applied —
        // a duplicated effect on one replica that the row-count divergence
        // check cannot see, because the retry reports the same count.
        // Failed or missed writes instead reach fenced replicas through
        // the repair journal, whose replay is explicitly at-least-once.
        let (attempted, missed) = self.broadcast(|_, r| r.backend.execute_ctx(sql, ctx.clone()));
        if !attempted.iter().any(|(_, res)| res.is_ok()) {
            // Nothing applied the write; the client sees a failure and the
            // journal records nothing (tickets are released unjournaled).
            // Replicas whose outcome is *unknown* (the connection died or
            // timed out mid-write — it may have applied) are fenced; if
            // they did apply it, the next broadcast write's row-count
            // comparison flags them as diverged.
            for i in missed {
                self.journal(i, None, true);
            }
            let cancelled = policy::statement_cancelled();
            for (i, res) in &attempted {
                if let Err(e) = res {
                    if policy::decide(e.kind, &ctx, cancelled).fence_replica
                        == ReplicaVerdict::Fence
                    {
                        self.fence(*i);
                    }
                }
            }
            if let Some(p) = pin {
                if attempted.iter().any(|(i, res)| *i == p && res.is_err()) {
                    unpin(session_pin);
                }
            }
            return Err(attempted
                .into_iter()
                .find_map(|(_, res)| res.err())
                .unwrap_or_else(|| BackendError::rejected("no healthy replica available")));
        }
        // At least one replica applied the write: every replica that did
        // not must replay it. Failures fence and journal in one critical
        // section; replicas fenced at dispatch journal under their ticket.
        for (i, res) in &attempted {
            if res.is_err() {
                self.journal(*i, Some(RepairOp::Write(sql.to_string())), false);
            }
        }
        for i in missed {
            self.journal(i, Some(RepairOp::Write(sql.to_string())), true);
        }
        // Divergence check: an applied write must affect the same number of
        // rows everywhere. The majority count wins (ties break toward the
        // lowest replica index, deterministically); minority replicas hold
        // state no journal replay can fix.
        let ok_results: Vec<(usize, &ExecResult)> = attempted
            .iter()
            .filter_map(|(i, res)| res.as_ref().ok().map(|r| (*i, r)))
            .collect();
        let majority_count = majority_row_count(&ok_results);
        let mut winner: Option<usize> = None;
        for (i, res) in &ok_results {
            if res.row_count == majority_count {
                if winner.is_none() {
                    winner = Some(*i);
                }
                self.replicas[*i].writes.inc();
            } else {
                self.divergence.inc();
                self.mark_needs_resync(*i);
            }
        }
        if let Some(p) = pin {
            match attempted.iter().find(|(i, _)| *i == p) {
                Some((_, Ok(res))) if res.row_count == majority_count => {
                    provenance::note_replica(&self.replicas[p].name);
                    return Ok(res.clone());
                }
                Some((_, Ok(_))) => {
                    // The pinned replica applied the write but disagrees
                    // with the majority: its transaction snapshot is not
                    // trustworthy. Abort the transaction.
                    unpin(session_pin);
                    return Err(BackendError::connection_lost(format!(
                        "pinned replica {} diverged mid-transaction",
                        self.replicas[p].name
                    )));
                }
                Some((_, Err(e))) => {
                    unpin(session_pin);
                    return Err(e.clone());
                }
                // `ensure_pin` only returns healthy replicas, which are all
                // in `attempted`.
                None => {}
            }
        }
        match winner {
            Some(i) => {
                provenance::note_replica(&self.replicas[i].name);
                // Only the winner's result reaches the client; find it
                // again by index to hand ownership out.
                match attempted.into_iter().find(|(j, _)| *j == i) {
                    Some((_, Ok(res))) => Ok(res),
                    _ => Err(BackendError::rejected("no healthy replica available")),
                }
            }
            None => Err(BackendError::rejected("no healthy replica available")),
        }
    }
}

fn unpin(pin: Option<&TxnPin>) {
    if let Some(pin) = pin {
        pin.clear();
    }
}

/// The affected-row count reported by the majority of successful replicas;
/// ties break toward the earliest replica's count.
fn majority_row_count(ok_results: &[(usize, &ExecResult)]) -> u64 {
    let mut counts: Vec<(u64, usize)> = Vec::new();
    for (_, res) in ok_results {
        match counts.iter_mut().find(|(c, _)| *c == res.row_count) {
            Some((_, n)) => *n += 1,
            None => counts.push((res.row_count, 1)),
        }
    }
    // Strict `>` keeps the first-seen count on ties, i.e. the earliest
    // replica's answer — deterministic regardless of replica count.
    let mut best = (0u64, 0usize);
    for &(c, n) in &counts {
        if n > best.1 {
            best = (c, n);
        }
    }
    best.0
}

impl Backend for ReplicatedBackend {
    fn name(&self) -> &str {
        &self.name
    }

    /// Without the lowering's classification, a request is a `Write`.
    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.execute_ctx(sql, RequestContext::write())
    }

    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        if !ctx.in_transaction {
            // First statement after a transaction closes releases the pin.
            unpin(ctx.pin.as_deref());
        }
        if ctx.kind == RequestKind::Read {
            self.execute_read(sql, ctx)
        } else {
            self.execute_write(sql, ctx)
        }
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        let first_healthy = self
            .replicas
            .iter()
            .find(|r| r.state.lock().health == ReplicaHealth::Healthy);
        match first_healthy {
            Some(r) => r.backend.table_meta(name),
            // Degraded: answer from the first replica rather than losing
            // catalog access entirely (metadata is replicated DDL).
            None => self.replicas.first().and_then(|r| r.backend.table_meta(name)),
        }
    }

    fn reset_session(&self) -> Result<(), BackendError> {
        let (attempted, missed) = self.broadcast(|i, r| {
            let reset = r.backend.reset_session();
            if reset.is_err() {
                self.journal(i, Some(RepairOp::Reset), false);
            }
            reset
        });
        for i in missed {
            self.journal(i, Some(RepairOp::Reset), true);
        }
        if attempted.iter().any(|(_, reset)| reset.is_ok()) {
            return Ok(());
        }
        Err(attempted
            .into_iter()
            .filter_map(|(_, reset)| reset.err())
            .next_back()
            .unwrap_or_else(|| BackendError::rejected("no healthy replica available")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::{FaultInjectingBackend, FaultPlan, ScriptedBackend};
    use crate::backend::BackendErrorKind;
    use hyperq_xtra::schema::Schema;

    /// Counting fake backend.
    struct Counting {
        reads: Mutex<u64>,
        writes: Mutex<u64>,
        fail_writes: bool,
        affected: u64,
    }

    impl Counting {
        fn new(fail_writes: bool) -> Arc<Self> {
            Counting::with_affected(fail_writes, 1)
        }

        fn with_affected(fail_writes: bool, affected: u64) -> Arc<Self> {
            Arc::new(Counting {
                reads: Mutex::new(0),
                writes: Mutex::new(0),
                fail_writes,
                affected,
            })
        }
    }

    impl Backend for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            if sql.starts_with("SELECT") {
                *self.reads.lock() += 1;
                Ok(ExecResult::rows(Schema::empty(), vec![]))
            } else if self.fail_writes {
                Err(BackendError::fatal("disk full"))
            } else {
                *self.writes.lock() += 1;
                Ok(ExecResult::affected(self.affected))
            }
        }

        fn table_meta(&self, _name: &str) -> Option<TableDef> {
            None
        }
    }

    /// A query, as the lowering classifies one.
    fn read(rep: &ReplicatedBackend, sql: &str) -> Result<ExecResult, BackendError> {
        rep.execute_ctx(sql, RequestContext::read_only())
    }

    fn pair(a: &Arc<Counting>, b: &Arc<Counting>) -> ReplicatedBackend {
        ReplicatedBackend::new(vec![
            Arc::clone(a) as Arc<dyn Backend>,
            Arc::clone(b) as Arc<dyn Backend>,
        ])
        .unwrap()
    }

    #[test]
    fn reads_round_robin() {
        let (a, b) = (Counting::new(false), Counting::new(false));
        let rep = pair(&a, &b);
        for _ in 0..10 {
            read(&rep, "SELECT 1").unwrap();
        }
        assert_eq!(*a.reads.lock(), 5);
        assert_eq!(*b.reads.lock(), 5);
    }

    #[test]
    fn writes_broadcast() {
        let (a, b) = (Counting::new(false), Counting::new(false));
        let rep = pair(&a, &b);
        rep.execute("INSERT INTO T VALUES (1)").unwrap();
        assert_eq!(*a.writes.lock(), 1);
        assert_eq!(*b.writes.lock(), 1);
    }

    #[test]
    fn failed_write_fences_replica_from_reads() {
        let (good, bad) = (Counting::new(false), Counting::new(true));
        let rep = pair(&good, &bad);
        assert_eq!(rep.healthy_replicas(), 2);
        // The write succeeds overall (one replica applied it), the bad
        // replica is fenced.
        rep.execute("DELETE FROM T").unwrap();
        assert_eq!(rep.healthy_replicas(), 1);
        // All subsequent reads go to the good replica only.
        for _ in 0..6 {
            read(&rep, "SELECT 1").unwrap();
        }
        assert_eq!(*good.reads.lock(), 6);
        assert_eq!(*bad.reads.lock(), 0);
    }

    #[test]
    fn all_replicas_failing_is_an_error() {
        let bad = Counting::new(true);
        let rep = ReplicatedBackend::new(vec![Arc::clone(&bad) as Arc<dyn Backend>]).unwrap();
        assert!(rep.execute("DELETE FROM T").is_err());
        // A clean (fatal) write failure with zero successes does not fence:
        // the replicas are still mutually consistent.
        assert_eq!(rep.healthy_replicas(), 1);
        assert!(read(&rep, "SELECT 1").is_ok());
    }

    #[test]
    fn empty_replica_set_rejected() {
        assert!(ReplicatedBackend::new(vec![]).is_err());
    }

    #[test]
    fn data_modifying_cte_is_classified_as_a_write() {
        // Regression: a keyword classifier once routed `WITH … DELETE` to a
        // single replica, silently forking replica states. The replica set
        // now reads no SQL: only a request the lowering calls a read goes
        // to one replica, and the plain `execute` is a write whatever its
        // text looks like.
        let (a, b) = (Counting::new(false), Counting::new(false));
        let rep = pair(&a, &b);
        for sql in [
            "WITH x AS (SELECT 1 AS c) DELETE FROM t WHERE a IN (SELECT c FROM x)",
            "WITH x AS (SELECT 1 AS c) SELECT * FROM x",
            "SELECT 1",
            "SET QUERY_BAND = 'x' FOR SESSION",
        ] {
            rep.execute(sql).unwrap();
            rep.execute_ctx(sql, RequestContext::replayable()).unwrap();
        }
        let reached = |c: &Counting| *c.reads.lock() + *c.writes.lock();
        assert_eq!((reached(&a), reached(&b)), (8, 8), "every unclassified request broadcasts");
        read(&rep, "SELECT 1").unwrap();
        assert_eq!(reached(&a) + reached(&b), 17, "a read reaches one replica");
    }

    #[test]
    fn data_modifying_cte_broadcasts() {
        let (a, b) = (Counting::new(false), Counting::new(false));
        let rep = pair(&a, &b);
        rep.execute("WITH x AS (SELECT 1 AS c) DELETE FROM t WHERE a IN (SELECT c FROM x)")
            .unwrap();
        assert_eq!(*a.writes.lock(), 1);
        assert_eq!(*b.writes.lock(), 1);
    }

    #[test]
    fn divergent_write_result_flags_minority_for_resync() {
        let a = Counting::with_affected(false, 3);
        let b = Counting::with_affected(false, 3);
        let c = Counting::with_affected(false, 7); // disagrees
        let rep = ReplicatedBackend::new(vec![
            Arc::clone(&a) as Arc<dyn Backend>,
            Arc::clone(&b) as Arc<dyn Backend>,
            Arc::clone(&c) as Arc<dyn Backend>,
        ])
        .unwrap();
        let res = rep.execute("DELETE FROM T").unwrap();
        assert_eq!(res.row_count, 3, "majority count wins");
        assert_eq!(rep.divergences(), 1);
        let snap = rep.snapshot();
        assert_eq!(snap[2].health, ReplicaHealth::NeedsResync);
        assert_eq!(snap[2].journal_depth, 0, "resync replicas journal nothing");
        assert_eq!(rep.healthy_replicas(), 2);
        // Further writes skip the diverged replica entirely.
        rep.execute("DELETE FROM T").unwrap();
        assert_eq!(*c.writes.lock(), 1);
    }

    #[test]
    fn fenced_replica_journals_writes_and_overflow_flips_to_resync() {
        let good: Arc<dyn Backend> = Arc::new(ScriptedBackend::acking(vec![]));
        let flaky = FaultInjectingBackend::wrap(
            Arc::new(ScriptedBackend::acking(vec![])),
            FaultPlan::fail_n_then_succeed(1, BackendErrorKind::Transient),
        );
        let rep = ReplicatedBackend::with_config(
            vec![good, flaky as Arc<dyn Backend>],
            ReplicaConfig {
                journal_capacity: 3,
                probe_interval: Duration::ZERO,
                resilience: Some(ResilienceConfig {
                    retry: crate::resilience::RetryPolicy {
                        max_attempts: 1,
                        ..Default::default()
                    },
                    ..Default::default()
                }),
                ..Default::default()
            },
            ObsContext::global(),
        )
        .unwrap();
        rep.execute("INSERT INTO T VALUES (1)").unwrap();
        let snap = rep.snapshot();
        assert_eq!(snap[1].health, ReplicaHealth::Fenced);
        assert_eq!(snap[1].journal_depth, 1, "the failed write is journaled");
        rep.execute("INSERT INTO T VALUES (2)").unwrap();
        rep.execute("INSERT INTO T VALUES (3)").unwrap();
        assert_eq!(rep.snapshot()[1].journal_depth, 3);
        // Capacity is 3: the next missed write overflows the journal and
        // the replica stops pretending repair can save it.
        rep.execute("INSERT INTO T VALUES (4)").unwrap();
        let snap = rep.snapshot();
        assert_eq!(snap[1].health, ReplicaHealth::NeedsResync);
        assert_eq!(snap[1].journal_depth, 0);
    }

    /// Records the [`RequestContext`] each call arrives with.
    struct CtxCapture {
        ctxs: Mutex<Vec<RequestContext>>,
    }

    impl CtxCapture {
        fn new() -> Arc<Self> {
            Arc::new(CtxCapture { ctxs: Mutex::new(Vec::new()) })
        }
    }

    impl Backend for CtxCapture {
        fn name(&self) -> &str {
            "ctx-capture"
        }

        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            self.execute_ctx(sql, RequestContext::default())
        }

        fn execute_ctx(&self, _sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
            self.ctxs.lock().push(ctx);
            Ok(ExecResult::affected(1))
        }

        fn table_meta(&self, _name: &str) -> Option<TableDef> {
            None
        }
    }

    #[test]
    fn broadcast_writes_keep_the_callers_idempotence_flag() {
        // Regression: the broadcast used to force a replay-safe context,
        // which let the per-replica resilience layer blind-retry DML after
        // an ambiguous failure — a possible double apply on one replica
        // that divergence detection cannot see.
        let cap = CtxCapture::new();
        let rep = ReplicatedBackend::new(vec![Arc::clone(&cap) as Arc<dyn Backend>]).unwrap();
        rep.execute("INSERT INTO T VALUES (1)").unwrap();
        rep.execute_ctx("DELETE FROM T", RequestContext::write()).unwrap();
        for ctx in cap.ctxs.lock().iter() {
            assert_eq!(ctx.kind, RequestKind::Write, "broadcast writes must stay writes: {ctx:?}");
        }
    }

    fn txn_ctx(pin: &Arc<TxnPin>) -> RequestContext {
        RequestContext { in_transaction: true, pin: Some(Arc::clone(pin)), ..RequestContext::read_only() }
    }

    #[test]
    fn transaction_pins_reads_to_one_replica() {
        let (a, b) = (Counting::new(false), Counting::new(false));
        let rep = pair(&a, &b);
        let pin = Arc::new(TxnPin::default());
        for _ in 0..6 {
            rep.execute_ctx("SELECT 1", txn_ctx(&pin)).unwrap();
        }
        let (ra, rb) = (*a.reads.lock(), *b.reads.lock());
        assert!(
            (ra == 6 && rb == 0) || (ra == 0 && rb == 6),
            "in-transaction reads must stick to one replica, got {ra}/{rb}"
        );
        assert!(rep.pinned_replica().is_some());
        // The first statement outside the transaction releases the pin.
        let after = RequestContext { pin: Some(Arc::clone(&pin)), ..RequestContext::read_only() };
        rep.execute_ctx("SELECT 1", after).unwrap();
        assert!(rep.pinned_replica().is_none());

        // A session that vanishes mid-transaction takes its pin with it:
        // the replica's pinned-session count cannot leak.
        rep.execute_ctx("SELECT 1", txn_ctx(&pin)).unwrap();
        let pinned: usize = rep.snapshot().iter().map(|s| s.pinned_sessions).sum();
        assert_eq!(pinned, 1);
        drop(pin);
        let pinned: usize = rep.snapshot().iter().map(|s| s.pinned_sessions).sum();
        assert_eq!(pinned, 0, "dropping the session's pin must return the count");
    }

    #[test]
    fn losing_the_pinned_replica_mid_transaction_is_a_connection_error() {
        let (a, b) = (Counting::new(false), Counting::new(false));
        let rep = pair(&a, &b);
        let pin = Arc::new(TxnPin::default());
        rep.execute_ctx("SELECT 1", txn_ctx(&pin)).unwrap();
        let idx = pin.replica().unwrap();
        rep.fence(idx);
        let err = rep.execute_ctx("SELECT 1", txn_ctx(&pin)).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::ConnectionLost);
        assert!(err.message.contains("mid-transaction"), "{}", err.message);
        assert!(rep.pinned_replica().is_none(), "the dead pin must be released");
    }
}
