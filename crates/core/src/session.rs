//! Per-connection session state and the DTM shadow catalog.
//!
//! Several emulated features require "state information maintained in the
//! application layer" (paper §2.1, Emulation): macro and procedure
//! definitions, view definitions, global-temporary-table definitions, and
//! the session settings that `HELP SESSION` reports. These live in the
//! **DTM catalog** (Table 2's name for the mid-tier metadata store), which
//! the binder sees layered *over* the target's own catalog through
//! [`ShadowCatalog`].

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use hyperq_parser::ast as past;
use hyperq_xtra::catalog::{MetadataProvider, TableDef, TableKind, ViewDef};

use crate::backend::Backend;
use crate::recover::SessionJournal;

/// A stored macro or procedure definition.
#[derive(Debug, Clone)]
pub struct RoutineDef {
    pub name: String,
    pub params: Vec<past::MacroParam>,
    pub body: Vec<past::Statement>,
    /// Tracked features observed when the body was parsed, re-reported on
    /// every execution (Figure 8 instrumentation).
    pub features: hyperq_xtra::feature::FeatureSet,
}

/// Per-connection state.
pub struct SessionState {
    pub session_id: u64,
    pub user: String,
    /// Settings surfaced by `HELP SESSION` (E5).
    pub settings: Vec<(String, String)>,
    /// DTM catalog: macros (E2).
    pub macros: HashMap<String, RoutineDef>,
    /// DTM catalog: stored procedures (E3).
    pub procedures: HashMap<String, RoutineDef>,
    /// DTM catalog: views, kept in the mid tier and inlined at bind time —
    /// the substrate for DML-on-view rewriting (E6).
    pub views: HashMap<String, ViewDef>,
    /// DTM catalog: global temporary table definitions (E7); the key is the
    /// logical name, the value the *target-side* per-session definition.
    pub global_temp_defs: HashMap<String, TableDef>,
    /// DTM catalog: sidecar table properties the target cannot store — SET
    /// semantics (E8), non-constant defaults and NOT CASESPECIFIC columns
    /// (E9). Keyed by canonical table name; the value is the table as the
    /// *application* defined it.
    pub dtm_tables: HashMap<String, TableDef>,
    /// Global temp tables already materialized on the target this session.
    pub materialized_gtts: HashSet<String>,
    /// Counter for session-scoped generated object names.
    pub temp_counter: u64,
    pub in_transaction: bool,
    /// Replay journal of target-side session state (settings pushed to the
    /// target, GTT materializations, orphaned emulation temps) — shared
    /// with the [`crate::resilience::TargetLink`] that replays it after
    /// a lost connection.
    pub journal: SessionJournal,
}

impl SessionState {
    pub fn new(session_id: u64, user: &str) -> Self {
        SessionState {
            session_id,
            user: user.to_string(),
            settings: vec![
                ("TRANSACTION SEMANTICS".to_string(), "TERADATA".to_string()),
                ("CHARACTER SET".to_string(), "UTF8".to_string()),
                ("COLLATION".to_string(), "ASCII".to_string()),
                ("DATEFORM".to_string(), "INTEGERDATE".to_string()),
                ("DEFAULT DATABASE".to_string(), "DBC".to_string()),
            ],
            macros: HashMap::new(),
            procedures: HashMap::new(),
            views: HashMap::new(),
            global_temp_defs: HashMap::new(),
            dtm_tables: HashMap::new(),
            materialized_gtts: HashSet::new(),
            temp_counter: 0,
            in_transaction: false,
            journal: SessionJournal::new(),
        }
    }

    /// Generate a session-unique object name.
    pub fn fresh_name(&mut self, prefix: &str) -> String {
        self.temp_counter += 1;
        format!("{prefix}_S{}_{}", self.session_id, self.temp_counter)
    }

    /// The session's *settings epoch*: a hash over the effective session
    /// settings that changes whenever a `SET` changes an effective value.
    /// Part of the translation-cache key, so sessions with different
    /// settings never share a cached translation while sessions with
    /// identical settings do.
    pub fn settings_epoch(&self) -> u64 {
        let mut buf = String::new();
        for (k, v) in &self.settings {
            buf.push_str(k);
            buf.push('\u{1f}');
            buf.push_str(v);
            buf.push('\u{1e}');
        }
        hyperq_parser::fingerprint::fnv1a(buf.as_bytes())
    }

    /// Order-independent hash over the session-local DTM catalog objects
    /// the binder can see (views, global-temporary definitions, sidecar
    /// table properties). Part of the translation-cache key: session-local
    /// DDL moves the session to a fresh key space instead of invalidating
    /// other sessions' entries.
    pub fn catalog_epoch(&self) -> u64 {
        use hyperq_parser::fingerprint::fnv1a;
        let mut h = 0u64;
        for (k, v) in &self.views {
            h ^= fnv1a(format!("V\u{1f}{k}\u{1f}{:?}\u{1f}{}", v.columns, v.body_sql).as_bytes());
        }
        for (k, v) in &self.global_temp_defs {
            h ^= fnv1a(format!("G\u{1f}{k}\u{1f}{v:?}").as_bytes());
        }
        for (k, v) in &self.dtm_tables {
            h ^= fnv1a(format!("T\u{1f}{k}\u{1f}{v:?}").as_bytes());
        }
        h
    }

    /// The session's effective default database for unqualified table
    /// names, or `None` for the factory default (`DBC`, which maps to the
    /// target's own unqualified namespace). `SET SESSION DATABASE = '…'`
    /// stores the quoted value; later entries win over earlier ones.
    pub fn default_database(&self) -> Option<&str> {
        self.settings
            .iter()
            .rev()
            .find(|(k, _)| {
                k.eq_ignore_ascii_case("DATABASE") || k.eq_ignore_ascii_case("DEFAULT DATABASE")
            })
            .map(|(_, v)| v.trim().trim_matches('\''))
            .filter(|v| !v.is_empty() && !v.eq_ignore_ascii_case("DBC"))
    }

    /// The per-session target-side name of a global temporary table.
    pub fn gtt_target_name(&self, logical: &str) -> String {
        format!("GTT_{}_S{}", logical.replace('.', "_"), self.session_id)
    }
}

/// The binder-facing catalog: DTM objects layered over the target's.
///
/// Records every global-temporary lookup so the crosscompiler can lazily
/// materialize the per-session instance before executing the statement.
pub struct ShadowCatalog<'a> {
    pub backend: &'a dyn Backend,
    pub session: &'a SessionState,
    /// Extra overlay tables (used by recursion emulation to map the
    /// recursive CTE name onto the WorkTable/TempTable).
    pub overlay: HashMap<String, TableDef>,
    /// Logical names of GTTs this statement touched.
    pub gtt_touched: RefCell<HashSet<String>>,
    /// Base names (uppercase, unqualified) of every table this statement
    /// resolved — the invalidation scope of its cached translation.
    pub tables_touched: RefCell<HashSet<String>>,
}

impl<'a> ShadowCatalog<'a> {
    pub fn new(backend: &'a dyn Backend, session: &'a SessionState) -> Self {
        ShadowCatalog {
            backend,
            session,
            overlay: HashMap::new(),
            gtt_touched: RefCell::new(HashSet::new()),
            tables_touched: RefCell::new(HashSet::new()),
        }
    }

    pub fn with_overlay(mut self, name: &str, def: TableDef) -> Self {
        self.overlay.insert(name.to_ascii_uppercase(), def);
        self
    }

    fn record_table(&self, resolved: &str) {
        let base = resolved.rsplit('.').next().unwrap_or(resolved);
        self.tables_touched.borrow_mut().insert(base.to_string());
    }
}

impl<'a> MetadataProvider for ShadowCatalog<'a> {
    fn table(&self, name: &str) -> Option<TableDef> {
        let upper = name.to_ascii_uppercase();
        if let Some(def) = self.overlay.get(&upper) {
            return Some(def.clone());
        }
        // Sidecar-augmented definitions take precedence: the target's
        // catalog has lost SET semantics, defaults and case-insensitivity.
        if let Some(def) = self.session.dtm_tables.get(&upper) {
            // The table must still exist on the target.
            if self.backend.table_meta(&upper).is_some() {
                self.record_table(&upper);
                return Some(def.clone());
            }
        }
        // Global temporary definitions: resolve to the per-session target
        // instance (created lazily).
        if let Some(def) = self.session.global_temp_defs.get(&upper) {
            self.gtt_touched.borrow_mut().insert(upper.clone());
            let mut instance = def.clone();
            instance.name = self.session.gtt_target_name(&upper);
            instance.kind = TableKind::Temporary;
            return Some(instance);
        }
        // Unqualified names resolve against the session's default
        // database first (Teradata `SET SESSION DATABASE` semantics),
        // falling back to the target's bare namespace.
        if !upper.contains('.') {
            if let Some(db) = self.session.default_database() {
                let qualified = format!("{}.{upper}", db.to_ascii_uppercase());
                if let Some(mut def) = self.backend.table_meta(&qualified) {
                    self.record_table(&qualified);
                    def.name = qualified;
                    return Some(def);
                }
            }
        }
        if let Some(def) = self.backend.table_meta(&upper) {
            self.record_table(&upper);
            return Some(def);
        }
        None
    }

    fn view(&self, name: &str) -> Option<ViewDef> {
        let upper = name.to_ascii_uppercase();
        self.session
            .views
            .get(&upper)
            .or_else(|| {
                // Also allow lookup by base name.
                let base = upper.rsplit('.').next().unwrap_or(&upper);
                self.session.views.get(base)
            })
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::ScriptedBackend;
    use hyperq_xtra::catalog::ColumnDef;
    use hyperq_xtra::types::SqlType;

    #[test]
    fn gtt_lookup_maps_to_session_instance_and_records_touch() {
        let backend = ScriptedBackend::acking(vec![]);
        let mut session = SessionState::new(7, "APP");
        session.global_temp_defs.insert(
            "STAGE".to_string(),
            TableDef {
                name: "STAGE".to_string(),
                columns: vec![ColumnDef::new("A", SqlType::Integer, true)],
                set_semantics: false,
                kind: TableKind::GlobalTemporary,
            },
        );
        let cat = ShadowCatalog::new(&backend, &session);
        let def = cat.table("stage").expect("resolves");
        assert_eq!(def.name, "GTT_STAGE_S7");
        assert_eq!(def.kind, TableKind::Temporary);
        assert!(cat.gtt_touched.borrow().contains("STAGE"));
    }

    #[test]
    fn overlay_takes_precedence() {
        let backend = ScriptedBackend::acking(vec![TableDef::new("R", vec![])]);
        let session = SessionState::new(1, "APP");
        let cat = ShadowCatalog::new(&backend, &session).with_overlay(
            "R",
            TableDef::new("TT_1", vec![ColumnDef::new("X", SqlType::Integer, true)]),
        );
        assert_eq!(cat.table("R").unwrap().name, "TT_1");
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut s = SessionState::new(3, "U");
        let a = s.fresh_name("WT");
        let b = s.fresh_name("WT");
        assert_ne!(a, b);
        assert!(a.starts_with("WT_S3_"));
    }
}
