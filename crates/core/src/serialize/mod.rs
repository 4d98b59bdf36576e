//! The Serializer (§4.4): XTRA → target-dialect SQL text.
//!
//! "Each target database has its own Serializer implementation. These
//! different serializers share a common interface: the input is an XTRA
//! expression, and the output is the serialized SQL statement of that
//! XTRA." We realize the family of serializers as one engine parameterized
//! by a target profile's [`TargetCapabilities`]: its feature set decides
//! *what* must be rewritten away before serialization, and its spelling
//! fields decide every dialect choice (`LIMIT` vs `TOP` vs neither, `%` vs
//! `MOD()`, the date-add and add-months families) exactly where real
//! targets differ.
//!
//! Serialization "takes place by walking through the XTRA expression,
//! generating a SQL block for each operator": the walker assembles
//! `SELECT` blocks greedily and wraps the accumulated block into a derived
//! table whenever the next operator cannot be merged (which is how the
//! paper's Example 3 acquires its nested `(...) AS T` structure).

use std::fmt::Write as _;

use hyperq_xtra::catalog::{TableDef, TableKind};
use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::{
    AggFunc, ArithOp, BoolOp, ScalarExpr, ScalarFunc, SortExpr, WindowExpr, WindowFuncKind,
};
use hyperq_xtra::rel::{Grouping, JoinKind, Plan, RelExpr};

use hyperq_xtra::feature::Feature;

use crate::capability::{AddMonthsStyle, DateAddStyle, LimitSpelling, ModStyle, TargetCapabilities};
use crate::error::{HyperQError, Result};
use crate::targets::TargetProfile;

/// Serializes plans for one target.
pub struct Serializer<'a> {
    caps: &'a TargetCapabilities,
    counter: std::cell::Cell<usize>,
    /// Qualifier-rename frames. Wrapping a block into a derived table
    /// `_Tn` makes the original range variables invisible to the enclosing
    /// scope; every reference to them must be re-qualified with the derived
    /// alias. Subqueries push a shadow frame for their own local range
    /// variables so correlated references still rename while local ones do
    /// not.
    frames: std::cell::RefCell<Vec<Frame>>,
}

enum Frame {
    /// Original qualifier → derived-table alias.
    Rename(std::collections::HashMap<String, String>),
    /// Qualifiers defined locally by the current (sub)query scope.
    Shadow(std::collections::HashSet<String>),
}

/// An accumulating SELECT block.
#[derive(Default)]
struct Block {
    distinct: bool,
    /// Rendered select-list items; `None` means `*` so far.
    select: Option<Vec<String>>,
    /// Rendered FROM text; `None` = no FROM clause (constant SELECT).
    from: Option<String>,
    where_: Option<String>,
    group_by: Option<String>,
    having: Option<String>,
    order_by: Option<String>,
    limit: Option<u64>,
}

impl Block {
    fn has_projection(&self) -> bool {
        self.select.is_some() || self.distinct
    }
}

impl<'a> Serializer<'a> {
    /// Serialize for a [`TargetProfile`], spelling everything as its
    /// capabilities say.
    pub fn for_profile(profile: &'a TargetProfile) -> Self {
        Serializer {
            caps: &profile.caps,
            counter: std::cell::Cell::new(0),
            frames: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Resolve a column qualifier through the rename frames: `Some(alias)`
    /// when a wrap renamed it, `None` to keep it as written.
    fn resolve_qualifier(&self, q: &str) -> Option<String> {
        for frame in self.frames.borrow().iter().rev() {
            match frame {
                Frame::Shadow(locals) if locals.contains(q) => return None,
                Frame::Rename(map) => {
                    if let Some(alias) = map.get(q) {
                        return Some(alias.clone());
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Range variables defined directly by this query scope (not inside
    /// expression subqueries): `Get` aliases and derived-table aliases.
    fn local_qualifiers(rel: &RelExpr, out: &mut std::collections::HashSet<String>) {
        match rel {
            RelExpr::Get { table, alias, .. } => {
                out.insert(
                    alias
                        .clone()
                        .unwrap_or_else(|| {
                            table.rsplit('.').next().unwrap_or(table).to_string()
                        }),
                );
            }
            RelExpr::Alias { alias, .. } => {
                out.insert(alias.clone());
            }
            RelExpr::Select { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::Window { input, .. }
            | RelExpr::Aggregate { input, .. }
            | RelExpr::Distinct { input }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. } => Self::local_qualifiers(input, out),
            RelExpr::Join { left, right, .. } | RelExpr::SetOp { left, right, .. } => {
                Self::local_qualifiers(left, out);
                Self::local_qualifiers(right, out);
            }
            RelExpr::Values { .. } => {}
        }
    }

    fn fresh(&self, prefix: &str) -> String {
        let n = self.counter.get() + 1;
        self.counter.set(n);
        format!("_{prefix}{n}")
    }

    /// Serialize a full statement.
    pub fn serialize_plan(&self, plan: &Plan) -> Result<String> {
        match plan {
            Plan::Query(rel) => self.query(rel),
            Plan::Insert { table, columns, source } => {
                let mut sql = format!("INSERT INTO {table}");
                if !columns.is_empty() {
                    let _ = write!(sql, " ({})", columns.join(", "));
                }
                match source {
                    RelExpr::Values { rows, .. } if !rows.is_empty() => {
                        sql.push_str(" VALUES ");
                        let rendered: Result<Vec<String>> = rows
                            .iter()
                            .map(|row| {
                                let vals: Result<Vec<String>> =
                                    row.iter().map(|e| self.expr(e)).collect();
                                Ok(format!("({})", vals?.join(", ")))
                            })
                            .collect();
                        sql.push_str(&rendered?.join(", "));
                    }
                    other => {
                        sql.push(' ');
                        sql.push_str(&self.query(other)?);
                    }
                }
                Ok(sql)
            }
            Plan::Update { table, alias, assignments, predicate } => {
                let mut sql = format!("UPDATE {table}");
                if let Some(a) = alias {
                    let _ = write!(sql, " AS {a}");
                }
                sql.push_str(" SET ");
                let sets: Result<Vec<String>> = assignments
                    .iter()
                    .map(|a| Ok(format!("{} = {}", a.column, self.expr(&a.value)?)))
                    .collect();
                sql.push_str(&sets?.join(", "));
                if let Some(p) = predicate {
                    let _ = write!(sql, " WHERE {}", self.expr(p)?);
                }
                Ok(sql)
            }
            Plan::Delete { table, alias, predicate } => {
                let mut sql = format!("DELETE FROM {table}");
                if let Some(a) = alias {
                    let _ = write!(sql, " AS {a}");
                }
                if let Some(p) = predicate {
                    let _ = write!(sql, " WHERE {}", self.expr(p)?);
                }
                Ok(sql)
            }
            Plan::CreateTable { def, source } => self.create_table(def, source.as_ref()),
            Plan::DropTable { name, if_exists } => Ok(format!(
                "DROP TABLE {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            )),
            Plan::CreateView { def } => Ok(format!(
                "CREATE VIEW {}{} AS {}",
                def.name,
                if def.columns.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", def.columns.join(", "))
                },
                def.body_sql
            )),
            Plan::DropView { name, if_exists } => Ok(format!(
                "DROP VIEW {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            )),
        }
    }

    fn create_table(&self, def: &TableDef, source: Option<&RelExpr>) -> Result<String> {
        let temp = match def.kind {
            TableKind::Permanent => "",
            // Global temporary definitions never reach the serializer (they
            // live in the DTM catalog); per-session instances and volatile
            // tables serialize as plain TEMPORARY.
            TableKind::Temporary | TableKind::GlobalTemporary => "TEMPORARY ",
        };
        if let Some(src) = source {
            return Ok(format!(
                "CREATE {temp}TABLE {} AS {}",
                def.name,
                self.query(src)?
            ));
        }
        let cols: Result<Vec<String>> = def
            .columns
            .iter()
            .map(|c| {
                let mut s = format!("{} {}", c.name, c.ty);
                if !c.nullable {
                    s.push_str(" NOT NULL");
                }
                if let Some(d) = &c.default {
                    // Only constant defaults are forwarded; non-constant
                    // defaults are injected by the mid tier (E9).
                    if matches!(d, ScalarExpr::Literal(..)) {
                        let _ = write!(s, " DEFAULT {}", self.expr(d)?);
                    }
                }
                Ok(s)
            })
            .collect();
        Ok(format!("CREATE {temp}TABLE {} ({})", def.name, cols?.join(", ")))
    }

    /// Serialize a relational tree as a complete query (new name scope).
    pub fn query(&self, rel: &RelExpr) -> Result<String> {
        let mark = self.frames.borrow().len();
        let mut locals = std::collections::HashSet::new();
        Self::local_qualifiers(rel, &mut locals);
        self.frames.borrow_mut().push(Frame::Shadow(locals));
        let result = self.query_inner(rel);
        self.frames.borrow_mut().truncate(mark);
        result
    }

    fn query_inner(&self, rel: &RelExpr) -> Result<String> {
        // Set operations (possibly under a final Sort/Limit) render as
        // top-level UNION/INTERSECT/EXCEPT chains.
        match rel {
            RelExpr::SetOp { .. } => return self.setop_chain(rel, None, None),
            RelExpr::Sort { input, keys } => {
                if matches!(**input, RelExpr::SetOp { .. }) {
                    return self.setop_chain(input, Some(keys), None);
                }
            }
            RelExpr::Limit { input, limit, with_ties: false, .. } => {
                if let RelExpr::Sort { input: inner, keys } = &**input {
                    if matches!(**inner, RelExpr::SetOp { .. }) {
                        return self.setop_chain(inner, Some(keys), *limit);
                    }
                }
                if matches!(**input, RelExpr::SetOp { .. }) {
                    return self.setop_chain(input, None, *limit);
                }
            }
            _ => {}
        }
        let block = self.build(rel)?;
        Ok(self.render(block))
    }

    fn setop_chain(
        &self,
        rel: &RelExpr,
        order: Option<&[SortExpr]>,
        limit: Option<u64>,
    ) -> Result<String> {
        let mut sql = self.setop_operand(rel)?;
        if let Some(keys) = order {
            let _ = write!(sql, " ORDER BY {}", self.order_list(keys)?);
        }
        // Spelled `LIMIT` whatever the target. TOP targets get a block's
        // bound injected after SELECT in render(); a set-operation bound
        // on them needs a wrap. `build()` rejects any Limit operator for
        // targets with neither spelling.
        if let Some(n) = limit {
            let _ = write!(sql, " LIMIT {n}");
        }
        Ok(sql)
    }

    fn setop_operand(&self, rel: &RelExpr) -> Result<String> {
        match rel {
            RelExpr::SetOp { kind, all, left, right } => Ok(format!(
                "{} {}{} {}",
                self.setop_operand(left)?,
                kind.name(),
                if *all { " ALL" } else { "" },
                self.setop_operand(right)?
            )),
            other => self.query(other),
        }
    }

    /// Wrap an accumulated block into a derived-table FROM item. Every
    /// range variable the wrapped subtree exposed is renamed to the derived
    /// alias for the remainder of this scope.
    fn wrap(&self, block: Block, wrapped: &RelExpr) -> Block {
        let alias = self.fresh("T");
        let mut map = std::collections::HashMap::new();
        for f in wrapped.schema().fields {
            if let Some(q) = f.qualifier {
                map.insert(q, alias.clone());
            }
        }
        let out = Block {
            from: Some(format!("({}) AS {alias}", self.render(block))),
            ..Block::default()
        };
        self.frames.borrow_mut().push(Frame::Rename(map));
        out
    }

    fn render(&self, b: Block) -> String {
        let mut sql = String::from("SELECT ");
        if b.distinct {
            sql.push_str("DISTINCT ");
        }
        if self.caps.limit_spelling() == LimitSpelling::Top {
            if let Some(n) = b.limit {
                let _ = write!(sql, "TOP {n} ");
            }
        }
        match &b.select {
            Some(items) => sql.push_str(&items.join(", ")),
            None => sql.push('*'),
        }
        if let Some(f) = &b.from {
            let _ = write!(sql, " FROM {f}");
        }
        if let Some(w) = &b.where_ {
            let _ = write!(sql, " WHERE {w}");
        }
        if let Some(g) = &b.group_by {
            let _ = write!(sql, " GROUP BY {g}");
        }
        if let Some(h) = &b.having {
            let _ = write!(sql, " HAVING {h}");
        }
        if let Some(o) = &b.order_by {
            let _ = write!(sql, " ORDER BY {o}");
        }
        if self.caps.limit_spelling() == LimitSpelling::Limit {
            if let Some(n) = b.limit {
                let _ = write!(sql, " LIMIT {n}");
            }
        }
        sql
    }

    /// Descend the operator tree, merging into one block where the dialect
    /// allows and wrapping into derived tables where it does not.
    fn build(&self, rel: &RelExpr) -> Result<Block> {
        Ok(match rel {
            RelExpr::Get { .. } | RelExpr::Alias { .. } | RelExpr::Join { .. } => {
                Block { from: Some(self.render_from_item(rel)?), ..Block::default() }
            }
            RelExpr::Values { rows, schema } => {
                // Render VALUES as a UNION ALL of constant selects, the most
                // portable spelling.
                if rows.is_empty() {
                    // Empty relation: SELECT ... WHERE FALSE.
                    let items: Result<Vec<String>> = schema
                        .fields
                        .iter()
                        .map(|f| Ok(format!("NULL AS {}", f.name)))
                        .collect();
                    Block {
                        select: Some(items?),
                        where_: Some("1 = 0".to_string()),
                        ..Block::default()
                    }
                } else if rows.len() == 1 {
                    let items: Result<Vec<String>> = rows[0]
                        .iter()
                        .enumerate()
                        .map(|(i, e)| {
                            let name = schema
                                .fields
                                .get(i).map_or_else(|| format!("COL{}", i + 1), |f| f.name.clone());
                            Ok(format!("{} AS {name}", self.expr(e)?))
                        })
                        .collect();
                    let items = items?;
                    if items.is_empty() {
                        Block { select: Some(vec!["1 AS ONE".to_string()]), ..Block::default() }
                    } else {
                        Block { select: Some(items), ..Block::default() }
                    }
                } else {
                    let selects: Result<Vec<String>> = rows
                        .iter()
                        .map(|row| {
                            let items: Result<Vec<String>> = row
                                .iter()
                                .enumerate()
                                .map(|(i, e)| {
                                    let name = schema
                                        .fields
                                        .get(i).map_or_else(|| format!("COL{}", i + 1), |f| f.name.clone());
                                    Ok(format!("{} AS {name}", self.expr(e)?))
                                })
                                .collect();
                            Ok(format!("SELECT {}", items?.join(", ")))
                        })
                        .collect();
                    let alias = self.fresh("V");
                    Block {
                        from: Some(format!("({}) AS {alias}", selects?.join(" UNION ALL "))),
                        ..Block::default()
                    }
                }
            }
            RelExpr::Select { input, predicate } => {
                let mut b = self.build(input)?;
                if b.has_projection() || b.order_by.is_some() || b.limit.is_some() {
                    b = self.wrap(b, input);
                }
                let rendered = self.expr(predicate)?;
                if b.group_by.is_some() {
                    // Filter above an aggregate in the same block = HAVING.
                    b.having = Some(match b.having.take() {
                        Some(prev) => format!("({prev}) AND ({rendered})"),
                        None => rendered,
                    });
                } else {
                    b.where_ = Some(match b.where_.take() {
                        Some(prev) => format!("({prev}) AND ({rendered})"),
                        None => rendered,
                    });
                }
                b
            }
            RelExpr::Project { input, exprs } => {
                let mut b = self.build(input)?;
                if b.has_projection() || b.order_by.is_some() || b.limit.is_some() {
                    b = self.wrap(b, input);
                }
                let items: Result<Vec<String>> = exprs
                    .iter()
                    .map(|(e, name)| {
                        let rendered = self.expr(e)?;
                        Ok(match e {
                            ScalarExpr::Column { name: cn, .. } if cn == name => rendered,
                            _ => format!("{rendered} AS {name}"),
                        })
                    })
                    .collect();
                b.select = Some(items?);
                b
            }
            RelExpr::Window { input, exprs } => {
                let mut b = self.build(input)?;
                if b.has_projection()
                    || b.order_by.is_some()
                    || b.limit.is_some()
                    || b.group_by.is_some()
                {
                    b = self.wrap(b, input);
                }
                let mut items = vec!["*".to_string()];
                for w in exprs {
                    items.push(format!("{} AS {}", self.window_expr(w)?, w.output));
                }
                b.select = Some(items);
                b
            }
            RelExpr::Aggregate { input, group_by, grouping, aggs } => {
                let mut b = self.build(input)?;
                if b.has_projection()
                    || b.group_by.is_some()
                    || b.order_by.is_some()
                    || b.limit.is_some()
                {
                    b = self.wrap(b, input);
                }
                let mut items = Vec::with_capacity(group_by.len() + aggs.len());
                for (g, name) in group_by {
                    let rendered = self.expr(g)?;
                    items.push(match g {
                        ScalarExpr::Column { name: cn, .. } if cn == name => rendered,
                        _ => format!("{rendered} AS {name}"),
                    });
                }
                for (a, name) in aggs {
                    items.push(format!("{} AS {name}", self.expr(a)?));
                }
                b.select = Some(items);
                if !group_by.is_empty() {
                    let keys: Result<Vec<String>> =
                        group_by.iter().map(|(g, _)| self.expr(g)).collect();
                    let keys = keys?;
                    b.group_by = Some(match grouping {
                        Grouping::Simple => keys.join(", "),
                        Grouping::Sets(sets) => {
                            if !self.caps.supports(Feature::GroupingExtensions) {
                                return Err(HyperQError::Transform(
                                    "grouping sets reached a serializer for a target without \
                                     native support; the expansion rule should have fired"
                                        .into(),
                                ));
                            }
                            let rendered: Vec<String> = sets
                                .iter()
                                .map(|s| {
                                    let cols: Vec<String> =
                                        s.iter().map(|&i| keys[i].clone()).collect();
                                    format!("({})", cols.join(", "))
                                })
                                .collect();
                            format!("GROUPING SETS ({})", rendered.join(", "))
                        }
                    });
                } else if matches!(grouping, Grouping::Sets(_)) {
                    return Err(HyperQError::Transform(
                        "empty grouping sets cannot be serialized".into(),
                    ));
                }
                b
            }
            RelExpr::Distinct { input } => {
                let mut b = self.build(input)?;
                if b.distinct || b.order_by.is_some() || b.limit.is_some() {
                    b = self.wrap(b, input);
                }
                b.distinct = true;
                b
            }
            RelExpr::Sort { input, keys } => {
                let mut b = self.build(input)?;
                if b.order_by.is_some() || b.limit.is_some() {
                    b = self.wrap(b, input);
                }
                b.order_by = Some(self.order_list(keys)?);
                b
            }
            RelExpr::Limit { input, limit, with_ties, offset } => {
                if *with_ties && !self.caps.with_ties {
                    return Err(HyperQError::Transform(
                        "WITH TIES reached a serializer for a target without support; \
                         the lowering rule should have fired"
                            .into(),
                    ));
                }
                if *offset > 0 {
                    return Err(HyperQError::Transform(
                        "OFFSET serialization is not supported".into(),
                    ));
                }
                if self.caps.limit_spelling() == LimitSpelling::None {
                    return Err(HyperQError::Transform(format!(
                        "{} spells neither LIMIT nor TOP; the LimitFetch \
                         emulation should have peeled this bound",
                        self.caps.name
                    )));
                }
                let mut b = self.build(input)?;
                if b.limit.is_some() {
                    b = self.wrap(b, input);
                }
                b.limit = *limit;
                b
            }
            RelExpr::SetOp { .. } => {
                let alias = self.fresh("S");
                Block {
                    from: Some(format!("({}) AS {alias}", self.setop_operand(rel)?)),
                    ..Block::default()
                }
            }
        })
    }

    /// Render a FROM item (table, alias, join tree, or derived table).
    fn render_from_item(&self, rel: &RelExpr) -> Result<String> {
        Ok(match rel {
            RelExpr::Get { table, alias, .. } => match alias {
                Some(a) if !a.eq_ignore_ascii_case(
                    table.rsplit('.').next().unwrap_or(table),
                ) =>
                {
                    format!("{table} AS {a}")
                }
                _ => table.clone(),
            },
            RelExpr::Alias { input, alias, schema } => {
                // Emit explicit column aliases when the alias renames
                // columns; plain `(query) AS a` otherwise.
                let inner = self.query(input)?;
                let inner_names: Vec<String> =
                    input.schema().fields.iter().map(|f| f.name.clone()).collect();
                let outer_names: Vec<String> =
                    schema.fields.iter().map(|f| f.name.clone()).collect();
                if inner_names == outer_names || !self.caps.derived_table_column_aliases {
                    if inner_names != outer_names {
                        // Normalize the renaming into the subquery's own
                        // projection for targets without derived-table
                        // column aliases.
                        let items: Vec<String> = inner_names
                            .iter()
                            .zip(outer_names.iter())
                            .map(|(i, o)| {
                                if i == o {
                                    i.clone()
                                } else {
                                    format!("{i} AS {o}")
                                }
                            })
                            .collect();
                        format!(
                            "(SELECT {} FROM ({inner}) AS {}) AS {alias}",
                            items.join(", "),
                            self.fresh("R")
                        )
                    } else {
                        format!("({inner}) AS {alias}")
                    }
                } else {
                    format!("({inner}) AS {alias} ({})", outer_names.join(", "))
                }
            }
            RelExpr::Join { kind, left, right, condition } => {
                let l = self.render_from_item_nested(left)?;
                let r = self.render_from_item_nested(right)?;
                match (kind, condition) {
                    (JoinKind::Cross, None) => format!("{l} CROSS JOIN {r}"),
                    (JoinKind::Cross | JoinKind::Inner, Some(c)) => {
                        format!("{l} INNER JOIN {r} ON {}", self.expr(c)?)
                    }
                    (JoinKind::Inner, None) => format!("{l} CROSS JOIN {r}"),
                    (JoinKind::Semi | JoinKind::Anti, _) => {
                        return Err(HyperQError::Transform(
                            "semi/anti joins are engine-internal and cannot be serialized"
                                .into(),
                        ))
                    }
                    (k, Some(c)) => {
                        format!("{l} {} JOIN {r} ON {}", k.name(), self.expr(c)?)
                    }
                    (k, None) => {
                        return Err(HyperQError::Transform(format!(
                            "{} JOIN requires a condition",
                            k.name()
                        )))
                    }
                }
            }
            other => {
                let alias = self.fresh("D");
                format!("({}) AS {alias}", self.query(other)?)
            }
        })
    }

    fn render_from_item_nested(&self, rel: &RelExpr) -> Result<String> {
        match rel {
            RelExpr::Join { .. } => Ok(format!("({})", self.render_from_item(rel)?)),
            _ => self.render_from_item(rel),
        }
    }

    fn order_list(&self, keys: &[SortExpr]) -> Result<String> {
        let parts: Result<Vec<String>> = keys
            .iter()
            .map(|k| {
                let mut s = self.expr(&k.expr)?;
                if k.desc {
                    s.push_str(" DESC");
                }
                match k.nulls_first {
                    Some(true) => s.push_str(" NULLS FIRST"),
                    Some(false) => s.push_str(" NULLS LAST"),
                    None => {}
                }
                Ok(s)
            })
            .collect();
        Ok(parts?.join(", "))
    }

    fn window_expr(&self, w: &WindowExpr) -> Result<String> {
        let func = match (&w.func, &w.arg) {
            (WindowFuncKind::Agg(AggFunc::CountStar), _) => "COUNT(*)".to_string(),
            (WindowFuncKind::Agg(a), Some(arg)) => {
                format!("{}({})", a.name(), self.expr(arg)?)
            }
            (WindowFuncKind::Agg(a), None) => format!("{}(*)", a.name()),
            (kind, _) => format!("{}()", kind.name()),
        };
        let mut over = String::new();
        if !w.partition_by.is_empty() {
            let parts: Result<Vec<String>> =
                w.partition_by.iter().map(|p| self.expr(p)).collect();
            let _ = write!(over, "PARTITION BY {}", parts?.join(", "));
        }
        if !w.order_by.is_empty() {
            if !over.is_empty() {
                over.push(' ');
            }
            let _ = write!(over, "ORDER BY {}", self.order_list(&w.order_by)?);
        }
        Ok(format!("{func} OVER ({over})"))
    }

    // --- expressions --------------------------------------------------------

    pub fn expr(&self, e: &ScalarExpr) -> Result<String> {
        Ok(match e {
            ScalarExpr::Column { qualifier, name, .. } => match qualifier {
                Some(q) => match self.resolve_qualifier(q) {
                    Some(alias) => format!("{alias}.{name}"),
                    None => format!("{q}.{name}"),
                },
                None => name.clone(),
            },
            ScalarExpr::Literal(d, _) => self.literal(d),
            ScalarExpr::Arith { op, left, right } => match op {
                ArithOp::Mod => match self.caps.mod_style {
                    ModStyle::Percent => {
                        format!("({} % {})", self.expr(left)?, self.expr(right)?)
                    }
                    ModStyle::Function => {
                        format!("MOD({}, {})", self.expr(left)?, self.expr(right)?)
                    }
                },
                ArithOp::Pow => {
                    format!("POWER({}, {})", self.expr(left)?, self.expr(right)?)
                }
                op => format!(
                    "({} {} {})",
                    self.expr(left)?,
                    op.symbol(),
                    self.expr(right)?
                ),
            },
            ScalarExpr::Neg(inner) => format!("(- {})", self.expr(inner)?),
            ScalarExpr::Cmp { op, left, right } => format!(
                "({} {} {})",
                self.expr(left)?,
                op.symbol(),
                self.expr(right)?
            ),
            ScalarExpr::BoolExpr { op, args } => {
                let sep = match op {
                    BoolOp::And => " AND ",
                    BoolOp::Or => " OR ",
                };
                let parts: Result<Vec<String>> = args.iter().map(|a| self.expr(a)).collect();
                format!("({})", parts?.join(sep))
            }
            ScalarExpr::Not(inner) => format!("(NOT {})", self.expr(inner)?),
            ScalarExpr::IsNull { expr, negated } => format!(
                "({} IS {}NULL)",
                self.expr(expr)?,
                if *negated { "NOT " } else { "" }
            ),
            ScalarExpr::Like { expr, pattern, negated } => format!(
                "({} {}LIKE {})",
                self.expr(expr)?,
                if *negated { "NOT " } else { "" },
                self.expr(pattern)?
            ),
            ScalarExpr::InList { expr, list, negated } => {
                let parts: Result<Vec<String>> = list.iter().map(|x| self.expr(x)).collect();
                format!(
                    "({} {}IN ({}))",
                    self.expr(expr)?,
                    if *negated { "NOT " } else { "" },
                    parts?.join(", ")
                )
            }
            ScalarExpr::Between { expr, low, high, negated } => format!(
                "({} {}BETWEEN {} AND {})",
                self.expr(expr)?,
                if *negated { "NOT " } else { "" },
                self.expr(low)?,
                self.expr(high)?
            ),
            ScalarExpr::Case { operand, branches, else_expr } => {
                let mut s = String::from("CASE");
                if let Some(o) = operand {
                    let _ = write!(s, " {}", self.expr(o)?);
                }
                for (c, r) in branches {
                    let _ = write!(s, " WHEN {} THEN {}", self.expr(c)?, self.expr(r)?);
                }
                if let Some(x) = else_expr {
                    let _ = write!(s, " ELSE {}", self.expr(x)?);
                }
                s.push_str(" END");
                s
            }
            ScalarExpr::Cast { expr, ty } => {
                format!("CAST({} AS {ty})", self.expr(expr)?)
            }
            ScalarExpr::Extract { field, expr } => {
                format!("EXTRACT({} FROM {})", field.name(), self.expr(expr)?)
            }
            ScalarExpr::Func { func, args } => self.func(func, args)?,
            ScalarExpr::Agg { func, distinct, arg } => match (func, arg) {
                (AggFunc::CountStar, _) => "COUNT(*)".to_string(),
                (f, Some(a)) => format!(
                    "{}({}{})",
                    f.name(),
                    if *distinct { "DISTINCT " } else { "" },
                    self.expr(a)?
                ),
                (f, None) => format!("{}(*)", f.name()),
            },
            ScalarExpr::ScalarSubquery(rel) => format!("({})", self.query(rel)?),
            ScalarExpr::Exists { subquery, negated } => format!(
                "({}EXISTS ({}))",
                if *negated { "NOT " } else { "" },
                self.query(subquery)?
            ),
            ScalarExpr::InSubquery { exprs, subquery, negated } => {
                let left = if exprs.len() == 1 {
                    self.expr(&exprs[0])?
                } else {
                    let parts: Result<Vec<String>> =
                        exprs.iter().map(|x| self.expr(x)).collect();
                    format!("({})", parts?.join(", "))
                };
                format!(
                    "({left} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    self.query(subquery)?
                )
            }
            ScalarExpr::QuantifiedCmp { left, op, quantifier, subquery } => {
                if left.len() > 1 && !self.caps.supports(Feature::VectorSubquery) {
                    return Err(HyperQError::Transform(
                        "vector subquery comparison reached a serializer for a target \
                         without support; the EXISTS rewrite should have fired"
                            .into(),
                    ));
                }
                let left_sql = if left.len() == 1 {
                    self.expr(&left[0])?
                } else {
                    let parts: Result<Vec<String>> =
                        left.iter().map(|x| self.expr(x)).collect();
                    format!("({})", parts?.join(", "))
                };
                format!(
                    "({left_sql} {} {} ({}))",
                    op.symbol(),
                    quantifier.name(),
                    self.query(subquery)?
                )
            }
        })
    }

    fn literal(&self, d: &Datum) -> String {
        match d {
            Datum::Null => "NULL".to_string(),
            Datum::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Datum::Int(v) => v.to_string(),
            Datum::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Datum::Dec(dec) => dec.to_string(),
            Datum::Date(days) => format!("DATE '{}'", hyperq_xtra::datum::format_date(*days)),
            Datum::Timestamp(t) => {
                format!("TIMESTAMP '{}'", hyperq_xtra::datum::format_timestamp(*t))
            }
            Datum::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Datum::Interval(iv) => iv.to_string(),
        }
    }

    fn func(&self, func: &ScalarFunc, args: &[ScalarExpr]) -> Result<String> {
        let rendered: Result<Vec<String>> = args.iter().map(|a| self.expr(a)).collect();
        let rendered = rendered?;
        Ok(match func {
            ScalarFunc::Concat => format!("({})", rendered.join(" || ")),
            ScalarFunc::Position => {
                format!("POSITION({} IN {})", rendered[0], rendered[1])
            }
            ScalarFunc::DateAddDays => match self.caps.date_add_style {
                DateAddStyle::PlusInteger => format!("({} + {})", rendered[0], rendered[1]),
                DateAddStyle::DateAddFn => {
                    format!("DATEADD(DAY, {}, {})", rendered[1], rendered[0])
                }
                DateAddStyle::IntervalFn => {
                    format!("DATE_ADD({}, INTERVAL {} DAY)", rendered[0], rendered[1])
                }
                DateAddStyle::IntervalLiteral => {
                    format!("({} + INTERVAL '{}' DAY)", rendered[0], rendered[1])
                }
            },
            ScalarFunc::AddMonths => match self.caps.add_months_style {
                AddMonthsStyle::AddMonthsFn => {
                    format!("ADD_MONTHS({}, {})", rendered[0], rendered[1])
                }
                AddMonthsStyle::DateAddFn => {
                    format!("DATEADD(MONTH, {}, {})", rendered[1], rendered[0])
                }
                AddMonthsStyle::IntervalLiteral => {
                    format!("({} + INTERVAL '{}' MONTH)", rendered[0], rendered[1])
                }
            },
            ScalarFunc::Mod => match self.caps.mod_style {
                ModStyle::Percent => format!("({} % {})", rendered[0], rendered[1]),
                ModStyle::Function => format!("MOD({}, {})", rendered[0], rendered[1]),
            },
            ScalarFunc::CurrentDate => "CURRENT_DATE".to_string(),
            ScalarFunc::CurrentTimestamp => "CURRENT_TIMESTAMP".to_string(),
            f => format!("{}({})", f.name(), rendered.join(", ")),
        })
    }
}
