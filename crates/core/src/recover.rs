//! Session continuity: the journal of a session's target-side state.
//!
//! The emulation layer works because "state information maintained in the
//! application layer" (paper §2.1) lives in the mid-tier DTM catalog — but
//! some of that state has *target-side* shadows: session settings pushed to
//! the target, materialized per-session global-temp-table instances, and
//! emulation scratch tables. A `ConnectionLost` from the target silently
//! destroys all of it while the DTM catalog still believes it exists.
//!
//! [`SessionJournal`] is the append-only record of the session-establishing
//! actions with target-side effects, written by the crosscompiler as
//! replayable backend requests and replayed by the session's
//! [`TargetLink`](crate::resilience::TargetLink) after a reconnect.
//! Entries are keyed so re-recording (e.g. a `SET` overwriting an earlier
//! value for the same setting) replaces in place and replay applies only
//! the final value.

use std::sync::Arc;

use parking_lot::Mutex;

/// Canonical message for a statement lost together with its open
/// transaction (wire code [`crate::policy::WIRE_TXN_ABORTED`]). The soak
/// harness asserts it appears exactly once per in-transaction kill.
pub const TXN_ABORT_MESSAGE: &str =
    "transaction aborted by connection loss, session restored";

/// What a journal entry re-creates on the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEntryKind {
    /// A session setting pushed to the target (`SET …`). Replayed verbatim.
    Setting,
    /// A per-session global-temp-table instance materialized on the target.
    /// Replayed unless the guard table still exists (cloud targets that keep
    /// session scope alive across a reconnect token).
    GttMaterialize,
    /// A temp table a best-effort emulation cleanup failed to drop. Replay
    /// *drops* it (if it still exists) so a reconnect cannot resurrect the
    /// orphaned name.
    OrphanTemp,
}

impl JournalEntryKind {
    /// All kinds, in declaration order (labeled metric handles are
    /// pre-resolved in this order and indexed by `kind as usize`).
    pub const ALL: [JournalEntryKind; 3] = [
        JournalEntryKind::Setting,
        JournalEntryKind::GttMaterialize,
        JournalEntryKind::OrphanTemp,
    ];

    /// Stable lowercase name, used as a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            JournalEntryKind::Setting => "setting",
            JournalEntryKind::GttMaterialize => "gtt",
            JournalEntryKind::OrphanTemp => "orphan_temp",
        }
    }
}

/// One replayable session-establishing action.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    pub kind: JournalEntryKind,
    /// Dedup key within the kind: setting name, GTT logical name, or orphan
    /// table name. Re-recording a key replaces the previous entry in place.
    pub key: String,
    /// The target-dialect SQL that re-creates (or, for orphans, removes) the
    /// state.
    pub sql: String,
    /// For `GttMaterialize`: the target-side instance name. If the target
    /// still knows the table after reconnect, replay skips the DDL.
    pub guard_table: Option<String>,
}

#[derive(Default)]
struct JournalInner {
    entries: Vec<JournalEntry>,
    /// GTT logical names whose replay failed; the session must drop them
    /// from `materialized_gtts` so the next touch re-materializes.
    invalidated_gtts: Vec<String>,
    /// Set when a connection died inside an open transaction; the session
    /// must clear `in_transaction` (the target rolled back with the
    /// connection).
    txn_aborted: bool,
    recoveries: u64,
}

/// Shared, thread-safe journal of a session's target-side state. Cloning is
/// cheap (an `Arc` handle): the crosscompiler records into it, the
/// session's link replays from it.
#[derive(Clone, Default)]
pub struct SessionJournal {
    inner: Arc<Mutex<JournalInner>>,
}

impl SessionJournal {
    pub fn new() -> SessionJournal {
        SessionJournal::default()
    }

    fn upsert(&self, entry: JournalEntry) {
        let mut inner = self.inner.lock();
        match inner
            .entries
            .iter_mut()
            .find(|e| e.kind == entry.kind && e.key == entry.key)
        {
            Some(slot) => *slot = entry,
            None => inner.entries.push(entry),
        }
    }

    /// Record a session setting pushed to the target.
    pub fn record_setting(&self, name: &str, sql: impl Into<String>) {
        self.upsert(JournalEntry {
            kind: JournalEntryKind::Setting,
            key: name.to_ascii_uppercase(),
            sql: sql.into(),
            guard_table: None,
        });
    }

    /// Record a GTT materialization: `logical` is the DTM-catalog name,
    /// `instance` the per-session target-side table, `ddl` the CREATE that
    /// materialized it.
    pub fn record_gtt(&self, logical: &str, instance: &str, ddl: impl Into<String>) {
        self.upsert(JournalEntry {
            kind: JournalEntryKind::GttMaterialize,
            key: logical.to_ascii_uppercase(),
            sql: ddl.into(),
            guard_table: Some(instance.to_string()),
        });
    }

    /// Record a temp table whose best-effort cleanup DROP failed, together
    /// with the serialized DROP to retry on reconnect.
    pub fn record_orphan(&self, table: &str, drop_sql: impl Into<String>) {
        self.upsert(JournalEntry {
            kind: JournalEntryKind::OrphanTemp,
            key: table.to_ascii_uppercase(),
            sql: drop_sql.into(),
            guard_table: None,
        });
    }

    /// Remove one entry (orphan finally dropped, GTT invalidated, …).
    pub(crate) fn remove(&self, kind: JournalEntryKind, key: &str) {
        self.inner.lock().entries.retain(|e| !(e.kind == kind && e.key == key));
    }

    /// Current entries in replay order.
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.inner.lock().entries.clone()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of orphan-drop entries still pending.
    pub fn pending_orphans(&self) -> usize {
        self.inner
            .lock()
            .entries
            .iter()
            .filter(|e| e.kind == JournalEntryKind::OrphanTemp)
            .count()
    }

    /// Completed recovery cycles for this session.
    pub fn recoveries(&self) -> u64 {
        self.inner.lock().recoveries
    }

    /// GTT logical names invalidated by partial replay failure, drained by
    /// the crosscompiler, which removes them from
    /// `SessionState::materialized_gtts`.
    pub fn drain_invalidated_gtts(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.lock().invalidated_gtts)
    }

    /// True once if a connection died inside an open transaction since the
    /// last call; the crosscompiler clears `SessionState::in_transaction`.
    pub fn take_txn_aborted(&self) -> bool {
        std::mem::take(&mut self.inner.lock().txn_aborted)
    }

    pub(crate) fn note_txn_abort(&self) {
        self.inner.lock().txn_aborted = true;
    }

    pub(crate) fn invalidate_gtt(&self, logical: &str) {
        let mut inner = self.inner.lock();
        inner
            .entries
            .retain(|e| !(e.kind == JournalEntryKind::GttMaterialize && e.key == logical));
        inner.invalidated_gtts.push(logical.to_string());
    }

    pub(crate) fn note_recovery(&self) {
        self.inner.lock().recoveries += 1;
    }
}

/// Tuning for a session link's reconnect-and-replay.
#[derive(Debug, Clone, Copy)]
pub struct RecoverConfig {
    /// Recovery cycles attempted per original request before the error is
    /// surfaced as-is. Replay statements themselves still get the link's
    /// retries.
    pub max_recoveries: u32,
}

impl Default for RecoverConfig {
    fn default() -> RecoverConfig {
        RecoverConfig { max_recoveries: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::{ScriptedBackend, RESET_MARKER};
    use crate::backend::{Backend, BackendError, BackendErrorKind, ExecResult, RequestContext};
    use crate::resilience::TargetLink;
    use hyperq_obs::ObsContext;
    use hyperq_xtra::catalog::{ColumnDef, TableDef};
    use hyperq_xtra::types::SqlType;

    /// A session link straight onto `scripted` (no retries, no breaker).
    fn session_link(
        scripted: &Arc<ScriptedBackend>,
        journal: &SessionJournal,
        obs: &Arc<ObsContext>,
    ) -> TargetLink {
        TargetLink::new(Arc::clone(scripted) as Arc<dyn Backend>, None, obs).for_session(
            journal.clone(),
            RecoverConfig::default(),
            Arc::clone(obs),
        )
    }

    fn read_ctx() -> RequestContext {
        RequestContext::read_only()
    }

    /// A scripted backend that fails the first `n` executes with
    /// `ConnectionLost`, then serves everything (optionally failing SQL
    /// containing `poison`).
    fn flaky_scripted(n: u64, poison: Option<&'static str>) -> Arc<ScriptedBackend> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let left = AtomicU64::new(n);
        Arc::new(ScriptedBackend {
            log: parking_lot::Mutex::new(Vec::new()),
            tables: vec![],
            responder: Box::new(move |sql| {
                if left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    v.checked_sub(1)
                })
                .is_ok()
                {
                    return Err(BackendError::connection_lost("link down"));
                }
                if poison.is_some_and(|p| sql.contains(p)) {
                    return Err(BackendError::fatal("poisoned"));
                }
                Ok(ExecResult::ack())
            }),
        })
    }

    #[test]
    fn journal_upserts_by_kind_and_key() {
        let j = SessionJournal::new();
        j.record_setting("DATEFORM", "SET DATEFORM = 'ANSIDATE'");
        j.record_setting("DATEFORM", "SET DATEFORM = 'INTEGERDATE'");
        j.record_setting("COLLATION", "SET COLLATION = 'ASCII'");
        j.record_gtt("STAGE", "GTT_STAGE_S1", "CREATE TABLE GTT_STAGE_S1 (A INTEGER)");
        assert_eq!(j.len(), 3);
        let snap = j.snapshot();
        assert_eq!(snap[0].sql, "SET DATEFORM = 'INTEGERDATE'", "upsert replaces in place");
        assert_eq!(snap[2].kind, JournalEntryKind::GttMaterialize);
    }

    #[test]
    fn recovery_replays_journal_in_order_then_reissues() {
        let obs = ObsContext::new();
        let scripted = flaky_scripted(1, None);
        let journal = SessionJournal::new();
        journal.record_setting("DATEFORM", "SET DATEFORM = 'ANSIDATE'");
        journal.record_gtt("STAGE", "GTT_STAGE_S1", "CREATE TABLE GTT_STAGE_S1 (A INTEGER)");
        let rb = session_link(&scripted, &journal, &obs);

        rb.execute_ctx("SEL 1", read_ctx()).expect("recovered and re-issued");
        let log = scripted.sql_log();
        assert_eq!(
            log,
            vec![
                "SEL 1".to_string(), // killed attempt
                RESET_MARKER.to_string(),
                "SET DATEFORM = 'ANSIDATE'".to_string(),
                "CREATE TABLE GTT_STAGE_S1 (A INTEGER)".to_string(),
                "SEL 1".to_string(), // re-issue
            ]
        );
        assert_eq!(journal.recoveries(), 1);
        assert_eq!(obs.metrics.counter_value("hyperq_recovery_success_total", &[]), 1);
        assert_eq!(
            obs.metrics.counter_value(
                "hyperq_recovery_replayed_entries_total",
                &[("kind", "setting")]
            ),
            1
        );
    }

    #[test]
    fn guard_table_existence_skips_gtt_ddl_replay() {
        let obs = ObsContext::new();
        let scripted = flaky_scripted(1, None);
        // The instance survives on the target (session token kept alive).
        let mut with_table = Arc::try_unwrap(scripted).ok().unwrap();
        with_table.tables = vec![TableDef::new(
            "GTT_STAGE_S1",
            vec![ColumnDef::new("A", SqlType::Integer, true)],
        )];
        let scripted = Arc::new(with_table);
        let journal = SessionJournal::new();
        journal.record_gtt("STAGE", "GTT_STAGE_S1", "CREATE TABLE GTT_STAGE_S1 (A INTEGER)");
        let rb = session_link(&scripted, &journal, &obs);
        rb.execute_ctx("SEL 1", read_ctx()).unwrap();
        assert!(
            !scripted.sql_log().iter().any(|s| s.starts_with("CREATE TABLE")),
            "guarded GTT replay must not re-run DDL: {:?}",
            scripted.sql_log()
        );
        assert_eq!(journal.len(), 1, "entry stays journaled");
    }

    #[test]
    fn partial_replay_failure_invalidates_gtt_but_restores_session() {
        let obs = ObsContext::new();
        let scripted = flaky_scripted(1, Some("GTT_BAD"));
        let journal = SessionJournal::new();
        journal.record_gtt("GOOD", "GTT_GOOD_S1", "CREATE TABLE GTT_GOOD_S1 (A INTEGER)");
        journal.record_gtt("BAD", "GTT_BAD_S1", "CREATE TABLE GTT_BAD_S1 (A INTEGER)");
        let rb = session_link(&scripted, &journal, &obs);
        rb.execute_ctx("SEL 1", read_ctx()).expect("recovery survives GTT failure");
        assert_eq!(journal.drain_invalidated_gtts(), vec!["BAD".to_string()]);
        assert_eq!(journal.len(), 1, "failed entry removed from journal");
        assert_eq!(
            obs.metrics.counter_value("hyperq_recovery_invalidated_gtts_total", &[]),
            1
        );
    }

    #[test]
    fn in_transaction_kill_aborts_cleanly_and_restores() {
        let obs = ObsContext::new();
        let scripted = flaky_scripted(1, None);
        let journal = SessionJournal::new();
        journal.record_setting("DATEFORM", "SET DATEFORM = 'ANSIDATE'");
        let rb = session_link(&scripted, &journal, &obs);
        let ctx = RequestContext { in_transaction: true, ..RequestContext::write() };
        let err = rb.execute_ctx("INSERT INTO T VALUES (1)", ctx).unwrap_err();
        assert_eq!(err.message, TXN_ABORT_MESSAGE);
        assert_eq!(err.kind, BackendErrorKind::Fatal, "no layer may blind-retry this");
        assert!(journal.take_txn_aborted(), "session must learn the txn died");
        assert!(!journal.take_txn_aborted(), "flag is taken once");
        // The session itself was restored for the next statement.
        assert!(scripted.sql_log().contains(&RESET_MARKER.to_string()));
        assert!(scripted.sql_log().contains(&"SET DATEFORM = 'ANSIDATE'".to_string()));
        assert_eq!(obs.metrics.counter_value("hyperq_recovery_txn_aborts_total", &[]), 1);
        // The INSERT was never replayed.
        assert_eq!(
            scripted.sql_log().iter().filter(|s| s.starts_with("INSERT")).count(),
            1
        );
    }

    #[test]
    fn non_idempotent_statement_not_reissued_but_session_restored() {
        let obs = ObsContext::new();
        let scripted = flaky_scripted(1, None);
        let journal = SessionJournal::new();
        let rb = session_link(&scripted, &journal, &obs);
        let err = rb.execute_ctx("INSERT INTO T VALUES (1)", RequestContext::write()).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::ConnectionLost);
        assert!(err.message.contains("session restored"), "{}", err.message);
        assert_eq!(
            scripted.sql_log().iter().filter(|s| s.starts_with("INSERT")).count(),
            1,
            "write must not be replayed"
        );
        assert!(scripted.sql_log().contains(&RESET_MARKER.to_string()));
    }

    #[test]
    fn orphan_drop_retires_entry_on_success() {
        let obs = ObsContext::new();
        let scripted = flaky_scripted(1, None);
        let journal = SessionJournal::new();
        journal.record_orphan("WT_S1_1", "DROP TABLE IF EXISTS WT_S1_1");
        let rb = session_link(&scripted, &journal, &obs);
        rb.execute_ctx("SEL 1", read_ctx()).unwrap();
        assert_eq!(journal.pending_orphans(), 0, "dropped orphan leaves the journal");
        assert!(scripted.sql_log().contains(&"DROP TABLE IF EXISTS WT_S1_1".to_string()));
    }

    #[test]
    fn failed_reconnect_surfaces_original_error() {
        let obs = ObsContext::new();
        // Every execute fails; reset succeeds but the replayed probe dies
        // again — recovery runs out of budget and the original error wins.
        let scripted: Arc<ScriptedBackend> = Arc::new(ScriptedBackend {
            log: parking_lot::Mutex::new(Vec::new()),
            tables: vec![],
            responder: Box::new(|_| Err(BackendError::connection_lost("still down"))),
        });
        let rb = session_link(&scripted, &SessionJournal::new(), &obs);
        let err = rb.execute_ctx("SEL 1", read_ctx()).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::ConnectionLost);
        assert!(obs.metrics.counter_value("hyperq_recovery_attempts_total", &[]) >= 1);
    }
}
