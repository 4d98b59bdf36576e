//! Background repair of fenced replicas.
//!
//! A fenced replica is not dead — it missed writes. This module closes the
//! loop: [`ReplicatedBackend::probe_and_repair`] probes each fenced
//! replica with a cheap read, drains its write-repair journal in order
//! under an idempotent [`RequestContext`], and re-admits the replica only
//! after a clean drain. Re-admission requires, under the state lock, an
//! empty journal *and* no outstanding pending-miss tickets (a broadcast
//! that observed the fence but has not yet journaled its op): a write
//! racing the drain therefore either lands in the journal before the
//! check, or defers the heal to the next sweep — it is never applied out
//! of order and never lost.
//!
//! [`ReplicatedBackend::spawn_prober`] runs the sweep on a background
//! thread with a configurable interval, mirroring the governor watchdog's
//! lifecycle idiom: the returned [`ProberHandle`] stops and joins the
//! thread on drop, so a gateway shutdown cannot leak it.
//!
//! Replicas in [`ReplicaHealth::NeedsResync`] are deliberately skipped:
//! their journal overflowed (or their write results diverged), so replay
//! can no longer reconcile them and re-admission needs an out-of-band
//! rebuild.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::backend::{Backend, RequestContext};
use crate::replicate::{RepairOp, ReplicaHealth, ReplicatedBackend};

/// What one repair sweep accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// Fenced replicas probed this sweep.
    pub probed: usize,
    /// Journal entries successfully replayed.
    pub repaired_ops: usize,
    /// Replicas re-admitted to rotation after a clean drain.
    pub healed: usize,
    /// Replicas still fenced after the sweep (failed probe or mid-drain
    /// failure).
    pub still_fenced: usize,
}

impl ReplicatedBackend {
    /// One synchronous repair sweep: probe every fenced replica, drain its
    /// journal, re-admit on a clean drain. Safe to call concurrently with
    /// live traffic (and with itself — journal entries are popped only
    /// after successful replay, so double replay of an applied entry is
    /// the worst case, and entries are replayed under an idempotent
    /// context for exactly that reason).
    pub fn probe_and_repair(&self) -> RepairReport {
        let mut report = RepairReport::default();
        for (i, r) in self.replicas.iter().enumerate() {
            if r.state.lock().health != ReplicaHealth::Fenced {
                continue;
            }
            report.probed += 1;
            // The probe runs outside any statement, so shield the
            // session's provenance record from its retries.
            let probe = hyperq_obs::provenance::suspended(|| {
                r.backend.execute_ctx(&self.config.probe_sql, RequestContext::read_only())
            });
            if probe.is_err() {
                r.probes_fail.inc();
                report.still_fenced += 1;
                continue;
            }
            r.probes_ok.inc();
            let replayed_before = r.repairs.get();
            if self.drain_journal(i) {
                report.healed += 1;
            } else {
                report.still_fenced += 1;
            }
            report.repaired_ops += (r.repairs.get() - replayed_before) as usize;
        }
        report
    }

    /// Drain one fenced replica's journal in order; returns whether the
    /// replica was re-admitted.
    fn drain_journal(&self, i: usize) -> bool {
        let r = &self.replicas[i];
        loop {
            // Peek without holding the lock across the replay call: a
            // concurrent broadcast must be able to append.
            let front = {
                let st = r.state.lock();
                if st.health != ReplicaHealth::Fenced {
                    return st.health == ReplicaHealth::Healthy;
                }
                st.journal.front().cloned()
            };
            let Some(op) = front else {
                let mut st = r.state.lock();
                if st.health != ReplicaHealth::Fenced {
                    return st.health == ReplicaHealth::Healthy;
                }
                if !st.journal.is_empty() {
                    // A write raced in between the peek and this check;
                    // keep draining.
                    continue;
                }
                if st.pending_misses > 0 {
                    // An in-flight broadcast observed the fence and will
                    // journal its op momentarily. Re-admitting now would
                    // let newer broadcasts apply before that older op —
                    // stay fenced, the next sweep drains it.
                    return false;
                }
                // Empty journal, no pending misses, all under one lock ⇒
                // nothing raced in ⇒ re-admit.
                st.health = ReplicaHealth::Healthy;
                r.health_state.set(0);
                r.heals.inc();
                drop(st);
                self.refresh_healthy_gauge();
                return true;
            };
            let replayed = hyperq_obs::provenance::suspended(|| match &op {
                RepairOp::Write(sql) => r
                    .backend
                    .execute_ctx(sql, RequestContext::read_only())
                    .is_ok(),
                RepairOp::Reset => r.backend.reset_session().is_ok(),
            });
            if !replayed {
                // Stay fenced; the next sweep starts from the same entry.
                return false;
            }
            let mut st = r.state.lock();
            st.journal.pop_front();
            r.depth_gauge.set(st.journal.len() as i64);
            r.repairs.inc();
        }
    }

    /// Start the background health prober at the configured interval
    /// (clamped to ≥ 1ms). The prober stops when the handle drops, so own
    /// it for the gateway's lifetime and drop it during shutdown.
    pub fn spawn_prober(self: &Arc<Self>) -> ProberHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let set = Arc::clone(self);
        let interval = self.config.probe_interval.max(Duration::from_millis(1));
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                set.probe_and_repair();
                // Sleep in small slices so shutdown never waits a full
                // interval for the join.
                let mut remaining = interval;
                while !remaining.is_zero() && !flag.load(Ordering::Relaxed) {
                    let slice = remaining.min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        ProberHandle { stop, thread: Some(thread) }
    }
}

/// Owns the prober thread; dropping stops and joins it.
pub struct ProberHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ProberHandle {
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ProberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::{FaultInjectingBackend, FaultPlan};
    use crate::backend::{Backend, BackendError, BackendErrorKind, ExecResult};
    use crate::replicate::ReplicaConfig;
    use crate::resilience::{ResilienceConfig, RetryPolicy};
    use hyperq_obs::ObsContext;
    use hyperq_xtra::catalog::TableDef;
    use parking_lot::Mutex;

    /// An append-only fake warehouse: every applied write lands in `log`,
    /// so post-heal convergence is literal log equality.
    struct LogDb {
        log: Mutex<Vec<String>>,
    }

    impl LogDb {
        fn new() -> Arc<Self> {
            Arc::new(LogDb { log: Mutex::new(Vec::new()) })
        }
    }

    impl Backend for LogDb {
        fn name(&self) -> &str {
            "logdb"
        }

        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            if crate::replicate::is_read_only(sql) {
                return Ok(ExecResult::ack());
            }
            self.log.lock().push(sql.to_string());
            Ok(ExecResult::affected(1))
        }

        fn table_meta(&self, _name: &str) -> Option<TableDef> {
            None
        }
    }

    fn no_retry_config() -> ReplicaConfig {
        ReplicaConfig {
            probe_interval: Duration::ZERO,
            resilience: Some(ResilienceConfig {
                retry: RetryPolicy { max_attempts: 1, ..Default::default() },
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn fenced_replica_heals_after_journal_drain_and_states_converge() {
        let (a, b) = (LogDb::new(), LogDb::new());
        let flaky = FaultInjectingBackend::wrap(
            Arc::clone(&b) as Arc<dyn Backend>,
            FaultPlan::fail_n_then_succeed(1, BackendErrorKind::ConnectionLost),
        );
        let rep = Arc::new(
            ReplicatedBackend::with_config(
                vec![Arc::clone(&a) as Arc<dyn Backend>, flaky as Arc<dyn Backend>],
                no_retry_config(),
                &ObsContext::new(),
            )
            .unwrap(),
        );
        rep.execute("INSERT INTO T VALUES (1)").unwrap(); // fences r1
        rep.execute("INSERT INTO T VALUES (2)").unwrap(); // journaled for r1
        rep.execute("INSERT INTO T VALUES (3)").unwrap();
        assert_eq!(rep.healthy_replicas(), 1);
        assert_eq!(rep.snapshot()[1].journal_depth, 3);

        let report = rep.probe_and_repair();
        assert_eq!(report.healed, 1, "{report:?}");
        assert_eq!(report.still_fenced, 0);
        assert_eq!(rep.healthy_replicas(), 2);
        assert_eq!(rep.snapshot()[1].journal_depth, 0, "no journal leak");
        assert_eq!(rep.snapshot()[1].heals, 1);
        assert_eq!(*a.log.lock(), *b.log.lock(), "replica states must converge");

        // The healed replica participates in the next broadcast directly.
        rep.execute("INSERT INTO T VALUES (4)").unwrap();
        assert_eq!(*a.log.lock(), *b.log.lock());
    }

    #[test]
    fn prober_defers_readmission_while_a_broadcast_miss_is_pending() {
        // A broadcast that saw the fence holds a pending-miss ticket until
        // its op lands in the journal. The prober must not re-admit the
        // replica in that window, even with an empty journal — a heal there
        // would let newer writes apply before the older in-flight op.
        let (a, b) = (LogDb::new(), LogDb::new());
        let rep = ReplicatedBackend::with_config(
            vec![Arc::clone(&a) as Arc<dyn Backend>, Arc::clone(&b) as Arc<dyn Backend>],
            no_retry_config(),
            &ObsContext::new(),
        )
        .unwrap();
        rep.fence(1);
        rep.replicas[1].state.lock().pending_misses += 1;
        let report = rep.probe_and_repair();
        assert_eq!((report.healed, report.still_fenced), (0, 1), "{report:?}");
        assert_eq!(rep.healthy_replicas(), 1);
        // Ticket released (the broadcast journaled or applied nowhere):
        // the next sweep re-admits.
        rep.replicas[1].state.lock().pending_misses -= 1;
        let report = rep.probe_and_repair();
        assert_eq!(report.healed, 1, "{report:?}");
        assert_eq!(rep.healthy_replicas(), 2);
    }

    #[test]
    fn failed_probe_keeps_the_replica_fenced() {
        let (a, b) = (LogDb::new(), LogDb::new());
        let dead = FaultInjectingBackend::wrap(
            Arc::clone(&b) as Arc<dyn Backend>,
            FaultPlan::always_fail(BackendErrorKind::ConnectionLost),
        );
        let rep = ReplicatedBackend::with_config(
            vec![Arc::clone(&a) as Arc<dyn Backend>, Arc::clone(&dead) as Arc<dyn Backend>],
            no_retry_config(),
            &ObsContext::new(),
        )
        .unwrap();
        rep.execute("INSERT INTO T VALUES (1)").unwrap();
        assert_eq!(rep.healthy_replicas(), 1);
        let report = rep.probe_and_repair();
        assert_eq!((report.probed, report.healed, report.still_fenced), (1, 0, 1));
        assert_eq!(rep.healthy_replicas(), 1);

        // Heal the link; the next sweep drains and re-admits.
        dead.set_plan(FaultPlan::none());
        let report = rep.probe_and_repair();
        assert_eq!(report.healed, 1);
        assert_eq!(*a.log.lock(), *b.log.lock());
    }

    #[test]
    fn background_prober_heals_without_manual_sweeps() {
        let (a, b) = (LogDb::new(), LogDb::new());
        let flaky = FaultInjectingBackend::wrap(
            Arc::clone(&b) as Arc<dyn Backend>,
            FaultPlan::fail_n_then_succeed(1, BackendErrorKind::ConnectionLost),
        );
        let mut config = no_retry_config();
        config.probe_interval = Duration::from_millis(5);
        let rep = Arc::new(
            ReplicatedBackend::with_config(
                vec![Arc::clone(&a) as Arc<dyn Backend>, flaky as Arc<dyn Backend>],
                config,
                &ObsContext::new(),
            )
            .unwrap(),
        );
        let prober = rep.spawn_prober();
        rep.execute("INSERT INTO T VALUES (1)").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rep.healthy_replicas() < 2 {
            assert!(std::time::Instant::now() < deadline, "prober never healed the replica");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(prober); // must stop and join cleanly
        assert_eq!(*a.log.lock(), *b.log.lock());
        assert_eq!(rep.snapshot()[1].journal_depth, 0);
    }
}
