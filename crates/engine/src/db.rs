//! The engine's catalog, storage and statement execution, including the
//! [`Backend`] implementation Hyper-Q talks to.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use hyperq_core::backend::{Backend, BackendError, ExecResult};
use hyperq_core::binder::Binder;
use hyperq_parser::{parse_statements, Dialect};
use hyperq_xtra::catalog::{ColumnDef, MetadataProvider, TableDef, ViewDef};
use hyperq_xtra::datum::Datum;
use hyperq_xtra::rel::Plan;
use hyperq_xtra::Row;

use crate::eval::{eval, eval_truth, EvalContext, EvalError};
use crate::exec::{execute_rel, Rows};
use crate::memo::SubqueryMemo;

/// One stored table: definition plus copy-on-write contents.
#[derive(Clone)]
struct TableData {
    def: TableDef,
    rows: Arc<Vec<Row>>,
}

/// Admission control: cloud warehouses queue queries into a bounded number
/// of execution slots (workload-management queues). Modeling this is what
/// makes the paper's stress-test observation reproducible: under
/// concurrency, *execution* time (including queueing at the warehouse)
/// grows while Hyper-Q's per-query translation cost stays constant.
struct Slots {
    max: usize,
    in_use: parking_lot::Mutex<usize>,
    available: parking_lot::Condvar,
}

impl Slots {
    /// How long one slot wait sleeps before re-checking the governor; a
    /// cancelled or past-deadline statement leaves the queue within this
    /// bound even if no slot ever frees.
    const POLL: std::time::Duration = std::time::Duration::from_millis(20);

    fn acquire(&self) -> Result<(), EvalError> {
        let mut in_use = self.in_use.lock();
        while *in_use >= self.max {
            hyperq_governor::checkpoint().map_err(|c| c.to_string())?;
            let wait = hyperq_governor::deadline_remaining()
                .map_or(Self::POLL, |rem| rem.min(Self::POLL));
            if wait.is_zero() {
                // Deadline just expired: loop straight into the checkpoint.
                continue;
            }
            self.available.wait_for(&mut in_use, wait);
        }
        *in_use += 1;
        Ok(())
    }

    fn release(&self) {
        let mut in_use = self.in_use.lock();
        *in_use -= 1;
        self.available.notify_one();
    }
}

/// The in-memory warehouse.
pub struct EngineDb {
    tables: RwLock<HashMap<String, TableData>>,
    slots: Option<Slots>,
    /// Session-scoped parameters applied via `SET name = value`. SimWH
    /// models a warehouse whose settings live with the *instance* session;
    /// Hyper-Q journals and replays the `SET`s after a reconnect.
    session_params: RwLock<HashMap<String, String>>,
    /// Statements executed, reported into the process-wide metrics.
    statements: Arc<hyperq_obs::Counter>,
    /// Statements currently holding an execution slot (or running, when no
    /// admission control is configured).
    inflight: Arc<hyperq_obs::Gauge>,
    /// Subquery evaluations that ran their plan / were served by the
    /// statement's memo.
    subqueries_executed: Arc<hyperq_obs::Counter>,
    subqueries_reused: Arc<hyperq_obs::Counter>,
}

impl Default for EngineDb {
    fn default() -> Self {
        let metrics = &hyperq_obs::ObsContext::global().metrics;
        EngineDb {
            tables: RwLock::new(HashMap::new()),
            slots: None,
            session_params: RwLock::new(HashMap::new()),
            statements: metrics
                .counter("hyperq_engine_statements_total", &[("engine", "SimWH")]),
            inflight: metrics
                .gauge("hyperq_engine_statements_inflight", &[("engine", "SimWH")]),
            subqueries_executed: metrics.counter(
                "hyperq_engine_subqueries_total",
                &[("engine", "SimWH"), ("outcome", "executed")],
            ),
            subqueries_reused: metrics.counter(
                "hyperq_engine_subqueries_total",
                &[("engine", "SimWH"), ("outcome", "reused")],
            ),
        }
    }
}

impl EngineDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// A warehouse with a bounded number of concurrent query slots
    /// (admission control); additional requests queue.
    pub fn with_concurrency_limit(max_concurrent: usize) -> Self {
        EngineDb {
            slots: Some(Slots {
                max: max_concurrent.max(1),
                in_use: parking_lot::Mutex::new(0),
                available: parking_lot::Condvar::new(),
            }),
            ..Default::default()
        }
    }

    /// Create a table; errors if it already exists.
    pub fn create_table(&self, def: TableDef) -> Result<(), EvalError> {
        let key = def.name.to_ascii_uppercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(format!("table {key} already exists"));
        }
        tables.insert(key, TableData { def, rows: Arc::new(Vec::new()) });
        Ok(())
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<(), EvalError> {
        let key = name.to_ascii_uppercase();
        let removed = self.tables.write().remove(&key).is_some();
        if !removed && !if_exists {
            return Err(format!("table {key} does not exist"));
        }
        Ok(())
    }

    /// Snapshot a table's rows (copy-on-write: cheap Arc clone).
    pub fn scan(&self, name: &str) -> Result<Arc<Vec<Row>>, EvalError> {
        let key = name.to_ascii_uppercase();
        self.tables
            .read()
            .get(&key)
            .map(|t| Arc::clone(&t.rows))
            .ok_or_else(|| format!("table {key} does not exist"))
    }

    pub fn table_def(&self, name: &str) -> Option<TableDef> {
        self.tables
            .read()
            .get(&name.to_ascii_uppercase())
            .map(|t| t.def.clone())
    }

    /// Bulk-load rows, coercing each value to the column type. Used by the
    /// workload generators.
    pub fn load_rows(&self, name: &str, rows: Vec<Row>) -> Result<u64, EvalError> {
        let key = name.to_ascii_uppercase();
        let def = self
            .table_def(&key)
            .ok_or_else(|| format!("table {key} does not exist"))?;
        let coerced: Result<Vec<Row>, EvalError> = rows
            .into_iter()
            .map(|row| coerce_row(&def, row))
            .collect();
        let coerced = coerced?;
        let n = coerced.len() as u64;
        let mut tables = self.tables.write();
        let t = tables.get_mut(&key).ok_or_else(|| format!("table {key} dropped"))?;
        Arc::make_mut(&mut t.rows).extend(coerced);
        Ok(n)
    }

    /// Execute one or more ANSI-dialect statements; returns the last
    /// statement's result. Waits for an execution slot when admission
    /// control is configured.
    pub fn execute_sql(&self, sql: &str) -> Result<ExecResult, BackendError> {
        if let Some(slots) = &self.slots {
            slots.acquire().map_err(BackendError::timeout)?;
        }
        self.statements.inc();
        self.inflight.add(1);
        let result = self.execute_sql_inner(sql);
        self.inflight.sub(1);
        if let Some(slots) = &self.slots {
            slots.release();
        }
        result
    }

    fn execute_sql_inner(&self, sql: &str) -> Result<ExecResult, BackendError> {
        // `SET name = value` is session-parameter syntax, not ANSI DML —
        // handled textually like a warehouse's session layer would.
        if let Some(rest) = strip_keyword(sql, "SET") {
            let (name, value) = rest
                .split_once('=')
                .ok_or_else(|| BackendError::fatal(format!("malformed SET statement: {sql}")))?;
            self.session_params
                .write()
                .insert(name.trim().to_ascii_uppercase(), value.trim().to_string());
            return Ok(ExecResult::ack());
        }
        let stmts =
            parse_statements(sql, Dialect::Ansi).map_err(|e| BackendError::fatal(e.to_string()))?;
        let mut last = ExecResult::ack();
        for ps in stmts {
            last = self.execute_stmt(&ps.stmt)?;
        }
        Ok(last)
    }

    fn execute_stmt(
        &self,
        stmt: &hyperq_parser::ast::Statement,
    ) -> Result<ExecResult, BackendError> {
        let catalog = EngineCatalog(self);
        let mut binder = Binder::new(&catalog);
        let plan = binder
            .bind_statement(stmt)
            .map_err(|e| BackendError::fatal(e.to_string()))?;
        // Evaluator errors are free-form strings (e.g. admission-control
        // rejections); classify them so the resilience layer can tell
        // retryable overload apart from genuine statement failures.
        self.execute_plan(&plan).map_err(BackendError::classify)
    }

    /// Execute one bound statement with a subquery memo of its own, so a
    /// later statement of the same script sees this one's writes.
    fn execute_plan(&self, plan: &Plan) -> Result<ExecResult, EvalError> {
        let memo = SubqueryMemo::default();
        let result = self.execute_plan_with(plan, &memo);
        let (executed, reused) = memo.counts();
        self.subqueries_executed.add(executed);
        self.subqueries_reused.add(reused);
        result
    }

    fn execute_plan_with(&self, plan: &Plan, memo: &SubqueryMemo) -> Result<ExecResult, EvalError> {
        match plan {
            Plan::Query(rel) => {
                let optimized = crate::optimize::optimize(rel.clone());
                let rows = execute_rel(&optimized, self, memo, &[])?;
                Ok(ExecResult::rows(rel.schema(), rows.into_vec()))
            }
            Plan::Insert { table, columns, source } => {
                let source = crate::optimize::optimize(source.clone());
                let rows = execute_rel(&source, self, memo, &[])?;
                let n = self.insert_rows(table, columns, rows, memo)?;
                Ok(ExecResult::affected(n))
            }
            Plan::Update { table, alias, assignments, predicate } => self
                .update_rows(table, alias.as_deref(), assignments, predicate.as_ref(), memo)
                .map(ExecResult::affected),
            Plan::Delete { table, alias, predicate } => self
                .delete_rows(table, alias.as_deref(), predicate.as_ref(), memo)
                .map(ExecResult::affected),
            Plan::CreateTable { def, source } => {
                self.create_table(def.clone())?;
                match source {
                    Some(src) => {
                        let src = crate::optimize::optimize(src.clone());
                        let rows = execute_rel(&src, self, memo, &[])?;
                        let columns: Vec<String> =
                            def.columns.iter().map(|c| c.name.clone()).collect();
                        let n = self.insert_rows(&def.name, &columns, rows, memo)?;
                        Ok(ExecResult::affected(n))
                    }
                    None => Ok(ExecResult::ack()),
                }
            }
            Plan::DropTable { name, if_exists } => {
                self.drop_table(name, *if_exists)?;
                Ok(ExecResult::ack())
            }
            Plan::CreateView { .. } | Plan::DropView { .. } => {
                // Faithful to the SimWH capability profile: views never
                // reach the target (Hyper-Q keeps them in the DTM catalog).
                Err("views are not supported by this warehouse".to_string())
            }
        }
    }

    fn insert_rows(
        &self,
        table: &str,
        columns: &[String],
        rows: Rows,
        memo: &SubqueryMemo,
    ) -> Result<u64, EvalError> {
        let key = table.to_ascii_uppercase();
        let def = self
            .table_def(&key)
            .ok_or_else(|| format!("table {key} does not exist"))?;
        // Map provided columns to table positions.
        let positions: Vec<usize> = if columns.is_empty() {
            (0..def.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    def.columns
                        .iter()
                        .position(|d| d.name.eq_ignore_ascii_case(c))
                        .ok_or_else(|| format!("column {c} not found in {key}"))
                })
                .collect::<Result<_, _>>()?
        };
        let mut defaults = EvalContext::new(self, memo, &[]);
        let mut full_rows: Vec<Row> = Vec::with_capacity(rows.len());
        for row in rows.into_vec() {
            if row.len() != positions.len() {
                return Err(format!(
                    "INSERT provides {} values for {} columns",
                    row.len(),
                    positions.len()
                ));
            }
            let mut full: Row = vec![Datum::Null; def.columns.len()];
            for (value, &pos) in row.into_iter().zip(positions.iter()) {
                full[pos] = value;
            }
            // Defaults for unprovided columns.
            for (i, col) in def.columns.iter().enumerate() {
                if !positions.contains(&i) {
                    if let Some(d) = &col.default {
                        full[i] = eval(d, &mut defaults)?;
                    }
                }
            }
            full_rows.push(coerce_row(&def, full)?);
        }
        let n = full_rows.len() as u64;
        let mut tables = self.tables.write();
        let t = tables.get_mut(&key).ok_or_else(|| format!("table {key} dropped"))?;
        Arc::make_mut(&mut t.rows).extend(full_rows);
        Ok(n)
    }

    fn update_rows(
        &self,
        table: &str,
        alias: Option<&str>,
        assignments: &[hyperq_xtra::rel::Assignment],
        predicate: Option<&hyperq_xtra::expr::ScalarExpr>,
        memo: &SubqueryMemo,
    ) -> Result<u64, EvalError> {
        let key = table.to_ascii_uppercase();
        let (def, snapshot) = {
            let tables = self.tables.read();
            let t = tables
                .get(&key)
                .ok_or_else(|| format!("table {key} does not exist"))?;
            (t.def.clone(), Arc::clone(&t.rows))
        };
        let schema = def.schema(alias);
        let targets: Vec<usize> = assignments
            .iter()
            .map(|a| {
                def.columns
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(&a.column))
                    .ok_or_else(|| format!("column {} not found in {key}", a.column))
            })
            .collect::<Result<_, _>>()?;
        let mut updated = 0u64;
        let mut new_rows: Vec<Row> = Vec::with_capacity(snapshot.len());
        // Predicate and assignments all read the pre-update row.
        let mut ctx = EvalContext::for_rows(self, memo, &[], &schema);
        for row in snapshot.iter() {
            ctx.set_row(row);
            let matches = match predicate {
                None => true,
                Some(p) => eval_truth(p, &mut ctx)? == Some(true),
            };
            if matches {
                let mut new_row = row.clone();
                for (a, &pos) in assignments.iter().zip(targets.iter()) {
                    let v = eval(&a.value, &mut ctx)?;
                    new_row[pos] = coerce_value(&def.columns[pos], v)?;
                }
                updated += 1;
                new_rows.push(new_row);
            } else {
                new_rows.push(row.clone());
            }
        }
        let mut tables = self.tables.write();
        let t = tables.get_mut(&key).ok_or_else(|| format!("table {key} dropped"))?;
        t.rows = Arc::new(new_rows);
        Ok(updated)
    }

    fn delete_rows(
        &self,
        table: &str,
        alias: Option<&str>,
        predicate: Option<&hyperq_xtra::expr::ScalarExpr>,
        memo: &SubqueryMemo,
    ) -> Result<u64, EvalError> {
        let key = table.to_ascii_uppercase();
        let (def, snapshot) = {
            let tables = self.tables.read();
            let t = tables
                .get(&key)
                .ok_or_else(|| format!("table {key} does not exist"))?;
            (t.def.clone(), Arc::clone(&t.rows))
        };
        let schema = def.schema(alias);
        let mut kept: Vec<Row> = Vec::with_capacity(snapshot.len());
        let mut deleted = 0u64;
        let mut ctx = EvalContext::for_rows(self, memo, &[], &schema);
        for row in snapshot.iter() {
            ctx.set_row(row);
            let matches = match predicate {
                None => true,
                Some(p) => eval_truth(p, &mut ctx)? == Some(true),
            };
            if matches {
                deleted += 1;
            } else {
                kept.push(row.clone());
            }
        }
        let mut tables = self.tables.write();
        let t = tables.get_mut(&key).ok_or_else(|| format!("table {key} dropped"))?;
        t.rows = Arc::new(kept);
        Ok(deleted)
    }

    /// Names of all tables (diagnostics / tests).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// A session parameter applied via `SET name = value` (diagnostics /
    /// tests).
    pub fn session_param(&self, name: &str) -> Option<String> {
        self.session_params.read().get(&name.to_ascii_uppercase()).cloned()
    }

    /// All session parameters, sorted by name (diagnostics / tests).
    pub fn session_params(&self) -> Vec<(String, String)> {
        let mut params: Vec<(String, String)> = self
            .session_params
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        params.sort();
        params
    }
}

/// If `sql` starts with `keyword` (case-insensitive, followed by
/// whitespace), return the remainder.
fn strip_keyword<'a>(sql: &'a str, keyword: &str) -> Option<&'a str> {
    let trimmed = sql.trim_start();
    let head = trimmed.get(..keyword.len())?;
    let rest = &trimmed[keyword.len()..];
    (head.eq_ignore_ascii_case(keyword) && rest.starts_with(char::is_whitespace))
        .then_some(rest)
}

/// Coerce a full-width row to the table's column types; enforces NOT NULL.
fn coerce_row(def: &TableDef, row: Row) -> Result<Row, EvalError> {
    if row.len() != def.columns.len() {
        return Err(format!(
            "row width {} does not match table {} width {}",
            row.len(),
            def.name,
            def.columns.len()
        ));
    }
    row.into_iter()
        .zip(def.columns.iter())
        .map(|(v, c)| coerce_value(c, v))
        .collect()
}

fn coerce_value(col: &ColumnDef, v: Datum) -> Result<Datum, EvalError> {
    if v.is_null() {
        if !col.nullable {
            return Err(format!("NULL value in NOT NULL column {}", col.name));
        }
        return Ok(Datum::Null);
    }
    v.cast_to(&col.ty).map_err(|e| {
        format!("column {}: {}", col.name, e.0)
    })
}

/// The engine's catalog viewed through the binder's interface.
pub(crate) struct EngineCatalog<'a>(pub(crate) &'a EngineDb);

impl<'a> MetadataProvider for EngineCatalog<'a> {
    fn table(&self, name: &str) -> Option<TableDef> {
        self.0.table_def(name).or_else(|| {
            // Allow unqualified lookup of qualified names.
            let tables = self.0.tables.read();
            tables
                .values()
                .find(|t| t.def.base_name().eq_ignore_ascii_case(name))
                .map(|t| t.def.clone())
        })
    }

    fn view(&self, _name: &str) -> Option<ViewDef> {
        None
    }
}

impl Backend for EngineDb {
    fn name(&self) -> &str {
        "SimWH"
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.execute_sql(sql)
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        EngineCatalog(self).table(name)
    }
}

#[cfg(test)]
impl EngineDb {
    /// Execute one statement and report its memo's `(executed, reused)`
    /// subquery counts beside the result.
    pub(crate) fn execute_counted(&self, sql: &str) -> (Result<ExecResult, EvalError>, (u64, u64)) {
        let stmts = parse_statements(sql, Dialect::Ansi).unwrap();
        let plan = Binder::new(&EngineCatalog(self)).bind_statement(&stmts[0].stmt).unwrap();
        let memo = SubqueryMemo::default();
        let result = self.execute_plan_with(&plan, &memo);
        (result, memo.counts())
    }

    /// The bound plan of one query, before optimization.
    pub(crate) fn bind_query(&self, sql: &str) -> hyperq_xtra::rel::RelExpr {
        let stmts = parse_statements(sql, Dialect::Ansi).unwrap();
        match Binder::new(&EngineCatalog(self)).bind_statement(&stmts[0].stmt).unwrap() {
            Plan::Query(rel) => rel,
            other => panic!("not a query: {other:?}"),
        }
    }

    /// `execute_sql`, except that each query runs twice, optimized with and
    /// without join pruning, and must return the same rows or the same
    /// error both ways. Also returns the join output widths of each pruned
    /// query plan.
    pub(crate) fn execute_pruning_differential(
        &self,
        sql: &str,
    ) -> (Result<ExecResult, BackendError>, Vec<Vec<usize>>) {
        let mut widths = Vec::new();
        if strip_keyword(sql, "SET").is_some() {
            return (self.execute_sql(sql), widths);
        }
        let stmts = parse_statements(sql, Dialect::Ansi).unwrap();
        let mut last = Ok(ExecResult::ack());
        for ps in stmts {
            let plan = match Binder::new(&EngineCatalog(self)).bind_statement(&ps.stmt) {
                Ok(plan) => plan,
                Err(e) => return (Err(BackendError::fatal(e.to_string())), widths),
            };
            last = match &plan {
                Plan::Query(rel) => {
                    let run = |plan: &hyperq_xtra::rel::RelExpr| {
                        execute_rel(plan, self, &SubqueryMemo::default(), &[]).map(Rows::into_vec)
                    };
                    let pruned = crate::optimize::optimize(rel.clone());
                    let rows = run(&pruned);
                    let whole = run(&crate::optimize::pushdown(rel.clone()));
                    assert_eq!(format!("{rows:?}"), format!("{whole:?}"), "pruning changed {sql}");
                    widths.push(crate::exec::join_widths(&pruned));
                    rows.map(|rows| ExecResult::rows(rel.schema(), rows))
                }
                _ => self.execute_plan(&plan),
            }
            .map_err(BackendError::classify);
            if last.is_err() {
                break;
            }
        }
        (last, widths)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use hyperq_core::backend::{Backend, BackendError, ExecResult};
    use hyperq_core::{targets, HyperQBuilder};
    use hyperq_workload::customer::{health, telco};
    use hyperq_workload::tpch;
    use hyperq_xtra::catalog::TableDef;
    use hyperq_xtra::datum::Datum;
    use hyperq_xtra::types::SqlType;

    use super::EngineDb;

    /// The engine as Hyper-Q's target, running every query it is sent
    /// through [`EngineDb::execute_pruning_differential`] and keeping the
    /// pruned plans' join widths.
    struct Differential {
        db: EngineDb,
        widths: Mutex<Vec<Vec<usize>>>,
    }

    impl Backend for Differential {
        fn name(&self) -> &str {
            self.db.name()
        }

        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            let (result, widths) = self.db.execute_pruning_differential(sql);
            self.widths.lock().unwrap().extend(widths);
            result
        }

        fn table_meta(&self, name: &str) -> Option<TableDef> {
            self.db.table_meta(name)
        }
    }

    /// Deterministic contents for the customer corpora's tables: small key
    /// ranges so their joins match, and some NULLs in nullable columns.
    fn fill(db: &EngineDb) {
        for name in db.table_names() {
            let def = db.table_def(&name).unwrap();
            let rows = (0..40i64)
                .map(|i| {
                    def.columns
                        .iter()
                        .enumerate()
                        .map(|(c, col)| {
                            let k = (i * (c as i64 + 1)) % 13 + 1;
                            if col.nullable && (i + c as i64) % 11 == 0 {
                                return Datum::Null;
                            }
                            match col.ty {
                                SqlType::Integer | SqlType::Decimal { .. } | SqlType::Double => {
                                    Datum::Int(k)
                                }
                                SqlType::Date => Datum::Date(16_000 + 30 * k as i32),
                                _ => Datum::str(["OPEN", "PAID", "DENIED", "x"][k as usize % 4]),
                            }
                        })
                        .collect()
                })
                .collect();
            db.load_rows(&name, rows).unwrap();
        }
    }

    /// Hyper-Q over `db`, with every query checked by [`Differential`].
    fn checked(db: EngineDb) -> (Arc<Differential>, hyperq_core::HyperQ) {
        let target = Arc::new(Differential { db, widths: Mutex::new(Vec::new()) });
        let backend = Arc::clone(&target) as Arc<dyn Backend>;
        (target, HyperQBuilder::for_target(backend, targets::simwh()).build())
    }

    #[test]
    fn pruning_never_changes_a_result() {
        // Every statement Hyper-Q sends for TPC-H (two seeds, as the result
        // snapshot uses) and for both customer corpora, bound as the engine
        // binds it, with and without the prune step.
        for seed in [1234, 28] {
            let db = EngineDb::new();
            for ddl in tpch::ddl() {
                db.execute_sql(&ddl).unwrap();
            }
            for (table, rows) in tpch::generate(0.002, seed).tables() {
                db.load_rows(table, rows).unwrap();
            }
            let (target, mut hq) = checked(db);
            for (n, sql) in tpch::queries() {
                target.widths.lock().unwrap().clear();
                hq.run_one(sql).unwrap_or_else(|e| panic!("Q{n}, seed {seed}: {e}"));
                if n == 7 {
                    // Unpruned, the five-join chain built 48-column rows.
                    let widths = target.widths.lock().unwrap().concat();
                    let widest = widths.iter().max().copied();
                    assert!(widest.is_some_and(|w| w <= 16), "Q7 join widths {widths:?}");
                }
            }
        }
        for w in [health(0.05), telco(0.02)] {
            let db = EngineDb::new();
            for ddl in &w.target_ddl {
                db.execute_sql(ddl).unwrap();
            }
            fill(&db);
            let (_, mut hq) = checked(db);
            for sql in w.hyperq_setup.iter().chain(&w.distinct) {
                hq.run_one(sql).unwrap_or_else(|e| panic!("{}: {sql}: {e}", w.profile.name));
            }
        }
    }
}
