//! Relational operators of the XTRA algebra and statement-level plans.
//!
//! The operator set mirrors the paper's trees (Figures 5–6): `get`,
//! `select`, `project`, `window`, `join`, aggregate, sort, limit and set
//! operations, plus `values` and a derived-table `alias` node. Every
//! operator derives its output [`Schema`] structurally, so no side catalog
//! is needed once a tree is bound.

use crate::expr::{ScalarExpr, SortExpr, WindowExpr};
use crate::schema::{Field, Schema};
use crate::types::SqlType;

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
    /// Semi join (EXISTS decorrelation); engine-internal — never produced
    /// by the binder nor serialized.
    Semi,
    /// Anti join (NOT EXISTS decorrelation); engine-internal.
    Anti,
}

impl JoinKind {
    pub fn name(&self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER",
            JoinKind::Left => "LEFT",
            JoinKind::Right => "RIGHT",
            JoinKind::Full => "FULL",
            JoinKind::Cross => "CROSS",
            JoinKind::Semi => "SEMI",
            JoinKind::Anti => "ANTI",
        }
    }

    /// The output schema of a join of this kind over inputs of schemas `l`
    /// and `r`: outer joins make the non-preserved side nullable, and
    /// semi/anti joins output only the left side.
    pub fn output_schema(self, mut l: Schema, mut r: Schema) -> Schema {
        match self {
            JoinKind::Left => r.fields.iter_mut().for_each(|f| f.nullable = true),
            JoinKind::Right => l.fields.iter_mut().for_each(|f| f.nullable = true),
            JoinKind::Full => {
                l.fields.iter_mut().for_each(|f| f.nullable = true);
                r.fields.iter_mut().for_each(|f| f.nullable = true);
            }
            JoinKind::Inner | JoinKind::Cross => {}
            JoinKind::Semi | JoinKind::Anti => return l,
        }
        l.fields.extend(r.fields);
        l
    }
}

/// Set operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    Union,
    Intersect,
    Except,
}

impl SetOpKind {
    pub fn name(&self) -> &'static str {
        match self {
            SetOpKind::Union => "UNION",
            SetOpKind::Intersect => "INTERSECT",
            SetOpKind::Except => "EXCEPT",
        }
    }
}

/// Grouping specification of an aggregate.
///
/// `Sets` holds index lists into the aggregate's `group_by` vector and
/// models `ROLLUP`/`CUBE`/`GROUPING SETS` (tracked feature X8); the
/// transformer expands it into a `UNION ALL` of simple groupings for
/// targets without native support (Table 2, "OLAP grouping extensions").
#[derive(Debug, Clone, PartialEq)]
pub enum Grouping {
    /// Plain `GROUP BY` over all `group_by` expressions.
    Simple,
    /// Explicit grouping sets, each a set of indices into `group_by`.
    Sets(Vec<Vec<usize>>),
}

impl Grouping {
    /// The grouping sets for `ROLLUP(e0, …, en-1)`.
    pub fn rollup(n: usize) -> Grouping {
        Grouping::Sets((0..=n).rev().map(|k| (0..k).collect()).collect())
    }

    /// The grouping sets for `CUBE(e0, …, en-1)` (all subsets).
    pub fn cube(n: usize) -> Grouping {
        let mut sets = Vec::with_capacity(1 << n);
        for mask in (0..(1u32 << n)).rev() {
            sets.push((0..n).filter(|i| mask & (1 << i) != 0).collect());
        }
        sets.sort_by_key(|s: &Vec<usize>| std::cmp::Reverse(s.len()));
        Grouping::Sets(sets)
    }
}

/// A relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// Base table access (`get(SALES)`); carries the bound schema.
    Get {
        table: String,
        alias: Option<String>,
        schema: Schema,
    },
    /// Literal rows (`VALUES`), also used for single-row `SELECT` without
    /// FROM.
    Values {
        rows: Vec<Vec<ScalarExpr>>,
        schema: Schema,
    },
    /// Filter (`select` in the paper's trees).
    Select {
        input: Box<RelExpr>,
        predicate: ScalarExpr,
    },
    /// Projection with output names.
    Project {
        input: Box<RelExpr>,
        exprs: Vec<(ScalarExpr, String)>,
    },
    /// Window computation appending one column per [`WindowExpr`].
    Window {
        input: Box<RelExpr>,
        exprs: Vec<WindowExpr>,
    },
    Join {
        kind: JoinKind,
        left: Box<RelExpr>,
        right: Box<RelExpr>,
        condition: Option<ScalarExpr>,
    },
    /// Hash aggregate; `group_by` pairs carry output names, `aggs` hold
    /// `ScalarExpr::Agg` trees with output names.
    Aggregate {
        input: Box<RelExpr>,
        group_by: Vec<(ScalarExpr, String)>,
        grouping: Grouping,
        aggs: Vec<(ScalarExpr, String)>,
    },
    Distinct { input: Box<RelExpr> },
    Sort {
        input: Box<RelExpr>,
        keys: Vec<SortExpr>,
    },
    /// `LIMIT`/`TOP`; `with_ties` models Teradata `QUALIFY RANK() <= n`
    /// tie-preserving semantics when lowered to a limit.
    Limit {
        input: Box<RelExpr>,
        limit: Option<u64>,
        offset: u64,
        with_ties: bool,
    },
    SetOp {
        kind: SetOpKind,
        all: bool,
        left: Box<RelExpr>,
        right: Box<RelExpr>,
    },
    /// Derived-table alias: re-qualifies (and optionally renames) the
    /// input's columns. Schema precomputed by the binder.
    Alias {
        input: Box<RelExpr>,
        alias: String,
        schema: Schema,
    },
}

impl RelExpr {
    /// Structurally derive the output schema.
    pub fn schema(&self) -> Schema {
        match self {
            RelExpr::Get { schema, .. }
            | RelExpr::Values { schema, .. }
            | RelExpr::Alias { schema, .. } => schema.clone(),
            RelExpr::Select { input, .. }
            | RelExpr::Distinct { input }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. } => input.schema(),
            RelExpr::Project { input, exprs } => {
                let input_schema = input.schema();
                Schema::new(
                    exprs
                        .iter()
                        .map(|(e, name)| Field {
                            qualifier: None,
                            name: name.clone(),
                            ty: e.ty(),
                            // Plain columns and non-null literals keep their
                            // nullability (the NOT IN decorrelation guard
                            // depends on this); everything else is
                            // conservatively nullable.
                            nullable: match e {
                                ScalarExpr::Column { qualifier, name, .. } => input_schema
                                    .try_resolve(qualifier.as_deref(), name)
                                    .ok()
                                    .flatten()
                                    .is_none_or(|i| input_schema.fields[i].nullable),
                                ScalarExpr::Literal(d, _) => d.is_null(),
                                _ => true,
                            },
                        })
                        .collect(),
                )
            }
            RelExpr::Window { input, exprs } => {
                let mut schema = input.schema();
                for w in exprs {
                    schema.fields.push(Field {
                        qualifier: None,
                        name: w.output.clone(),
                        ty: w.ty(),
                        nullable: true,
                    });
                }
                schema
            }
            RelExpr::Join { kind, left, right, .. } => {
                kind.output_schema(left.schema(), right.schema())
            }
            RelExpr::Aggregate { group_by, aggs, .. } => {
                // Aggregate output columns are unqualified; the binder
                // rewrites references above the aggregate accordingly, which
                // keeps the grouping-sets expansion (a UNION ALL of
                // projections) schema-compatible.
                let mut fields: Vec<Field> = group_by
                    .iter()
                    .map(|(e, name)| Field {
                        qualifier: None,
                        name: name.clone(),
                        ty: e.ty(),
                        nullable: true,
                    })
                    .collect();
                for (agg, name) in aggs {
                    fields.push(Field {
                        qualifier: None,
                        name: name.clone(),
                        ty: agg.ty(),
                        nullable: true,
                    });
                }
                Schema::new(fields)
            }
            RelExpr::SetOp { left, right, .. } => {
                let l = left.schema();
                let r = right.schema();
                Schema::new(
                    l.fields
                        .iter()
                        .zip(r.fields.iter())
                        .map(|(lf, rf)| Field {
                            qualifier: None,
                            name: lf.name.clone(),
                            ty: lf
                                .ty
                                .common_supertype(&rf.ty)
                                .unwrap_or(SqlType::Unknown),
                            nullable: lf.nullable || rf.nullable,
                        })
                        .collect(),
                )
            }
        }
    }

    /// Visit this operator, every descendant operator, and every expression
    /// they contain (pre-order; descends into subqueries).
    pub fn visit(&self, exprv: &mut dyn FnMut(&ScalarExpr), relv: &mut dyn FnMut(&RelExpr)) {
        relv(self);
        match self {
            RelExpr::Get { .. } => {}
            RelExpr::Values { rows, .. } => {
                for row in rows {
                    for e in row {
                        e.visit(exprv, relv);
                    }
                }
            }
            RelExpr::Select { input, predicate } => {
                input.visit(exprv, relv);
                predicate.visit(exprv, relv);
            }
            RelExpr::Project { input, exprs } => {
                for (e, _) in exprs {
                    e.visit(exprv, relv);
                }
                input.visit(exprv, relv);
            }
            RelExpr::Window { input, exprs } => {
                for w in exprs {
                    if let Some(a) = &w.arg {
                        a.visit(exprv, relv);
                    }
                    for p in &w.partition_by {
                        p.visit(exprv, relv);
                    }
                    for k in &w.order_by {
                        k.expr.visit(exprv, relv);
                    }
                }
                input.visit(exprv, relv);
            }
            RelExpr::Join { left, right, condition, .. } => {
                if let Some(c) = condition {
                    c.visit(exprv, relv);
                }
                left.visit(exprv, relv);
                right.visit(exprv, relv);
            }
            RelExpr::Aggregate { input, group_by, aggs, .. } => {
                for (e, _) in group_by.iter().chain(aggs.iter()) {
                    e.visit(exprv, relv);
                }
                input.visit(exprv, relv);
            }
            RelExpr::Distinct { input } => input.visit(exprv, relv),
            RelExpr::Sort { input, keys } => {
                for k in keys {
                    k.expr.visit(exprv, relv);
                }
                input.visit(exprv, relv);
            }
            RelExpr::Limit { input, .. } => input.visit(exprv, relv),
            RelExpr::SetOp { left, right, .. } => {
                left.visit(exprv, relv);
                right.visit(exprv, relv);
            }
            RelExpr::Alias { input, .. } => input.visit(exprv, relv),
        }
    }

    /// Bottom-up rewrite of the whole tree: inputs first, then contained
    /// expressions (via [`ScalarExpr::rewrite`], which descends into
    /// subqueries), then `relf` on the node itself.
    ///
    /// This single traversal is the substrate of the Transformer's
    /// fixed-point loop (paper §4.3).
    pub fn rewrite(
        self,
        relf: &mut dyn FnMut(RelExpr) -> RelExpr,
        exprf: &mut dyn FnMut(ScalarExpr) -> ScalarExpr,
    ) -> RelExpr {
        let node = match self {
            g @ RelExpr::Get { .. } => g,
            RelExpr::Values { rows, schema } => RelExpr::Values {
                rows: rows
                    .into_iter()
                    .map(|row| row.into_iter().map(|e| e.rewrite(relf, exprf)).collect())
                    .collect(),
                schema,
            },
            RelExpr::Select { input, predicate } => RelExpr::Select {
                input: Box::new(input.rewrite(relf, exprf)),
                predicate: predicate.rewrite(relf, exprf),
            },
            RelExpr::Project { input, exprs } => RelExpr::Project {
                input: Box::new(input.rewrite(relf, exprf)),
                exprs: exprs
                    .into_iter()
                    .map(|(e, n)| (e.rewrite(relf, exprf), n))
                    .collect(),
            },
            RelExpr::Window { input, exprs } => RelExpr::Window {
                input: Box::new(input.rewrite(relf, exprf)),
                exprs: exprs
                    .into_iter()
                    .map(|w| WindowExpr {
                        func: w.func,
                        arg: w.arg.map(|a| a.rewrite(relf, exprf)),
                        partition_by: w
                            .partition_by
                            .into_iter()
                            .map(|p| p.rewrite(relf, exprf))
                            .collect(),
                        order_by: w
                            .order_by
                            .into_iter()
                            .map(|k| SortExpr {
                                expr: k.expr.rewrite(relf, exprf),
                                ..k
                            })
                            .collect(),
                        output: w.output,
                    })
                    .collect(),
            },
            RelExpr::Join { kind, left, right, condition } => RelExpr::Join {
                kind,
                left: Box::new(left.rewrite(relf, exprf)),
                right: Box::new(right.rewrite(relf, exprf)),
                condition: condition.map(|c| c.rewrite(relf, exprf)),
            },
            RelExpr::Aggregate { input, group_by, grouping, aggs } => RelExpr::Aggregate {
                input: Box::new(input.rewrite(relf, exprf)),
                group_by: group_by
                    .into_iter()
                    .map(|(e, n)| (e.rewrite(relf, exprf), n))
                    .collect(),
                grouping,
                aggs: aggs
                    .into_iter()
                    .map(|(e, n)| (e.rewrite(relf, exprf), n))
                    .collect(),
            },
            RelExpr::Distinct { input } => RelExpr::Distinct {
                input: Box::new(input.rewrite(relf, exprf)),
            },
            RelExpr::Sort { input, keys } => RelExpr::Sort {
                input: Box::new(input.rewrite(relf, exprf)),
                keys: keys
                    .into_iter()
                    .map(|k| SortExpr {
                        expr: k.expr.rewrite(relf, exprf),
                        ..k
                    })
                    .collect(),
            },
            RelExpr::Limit { input, limit, offset, with_ties } => RelExpr::Limit {
                input: Box::new(input.rewrite(relf, exprf)),
                limit,
                offset,
                with_ties,
            },
            RelExpr::SetOp { kind, all, left, right } => RelExpr::SetOp {
                kind,
                all,
                left: Box::new(left.rewrite(relf, exprf)),
                right: Box::new(right.rewrite(relf, exprf)),
            },
            RelExpr::Alias { input, alias, schema } => RelExpr::Alias {
                input: Box::new(input.rewrite(relf, exprf)),
                alias,
                schema,
            },
        };
        relf(node)
    }

    /// Names of all base tables referenced anywhere in the tree.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut tables = Vec::new();
        self.visit(&mut |_| {}, &mut |r| {
            if let RelExpr::Get { table, .. } = r {
                if !tables.iter().any(|t| t == table) {
                    tables.push(table.clone());
                }
            }
        });
        tables
    }
}

/// An `UPDATE` assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub column: String,
    pub value: ScalarExpr,
}

/// A bound statement: the unit handed from the binder/transformer to the
/// serializer and on to the backend.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    Query(RelExpr),
    Insert {
        table: String,
        /// Empty means "all columns in table order".
        columns: Vec<String>,
        source: RelExpr,
    },
    Update {
        table: String,
        alias: Option<String>,
        assignments: Vec<Assignment>,
        predicate: Option<ScalarExpr>,
    },
    Delete {
        table: String,
        alias: Option<String>,
        predicate: Option<ScalarExpr>,
    },
    CreateTable {
        def: crate::catalog::TableDef,
        source: Option<RelExpr>,
    },
    DropTable { name: String, if_exists: bool },
    CreateView { def: crate::catalog::ViewDef },
    DropView { name: String, if_exists: bool },
}

impl Plan {
    /// Rewrite every relational tree and expression in the statement.
    pub fn rewrite(
        self,
        relf: &mut dyn FnMut(RelExpr) -> RelExpr,
        exprf: &mut dyn FnMut(ScalarExpr) -> ScalarExpr,
    ) -> Plan {
        match self {
            Plan::Query(rel) => Plan::Query(rel.rewrite(relf, exprf)),
            Plan::Insert { table, columns, source } => Plan::Insert {
                table,
                columns,
                source: source.rewrite(relf, exprf),
            },
            Plan::Update { table, alias, assignments, predicate } => Plan::Update {
                table,
                alias,
                assignments: assignments
                    .into_iter()
                    .map(|a| Assignment {
                        column: a.column,
                        value: a.value.rewrite(relf, exprf),
                    })
                    .collect(),
                predicate: predicate.map(|p| p.rewrite(relf, exprf)),
            },
            Plan::Delete { table, alias, predicate } => Plan::Delete {
                table,
                alias,
                predicate: predicate.map(|p| p.rewrite(relf, exprf)),
            },
            Plan::CreateTable { def, source } => Plan::CreateTable {
                def,
                source: source.map(|s| s.rewrite(relf, exprf)),
            },
            other @ (Plan::DropTable { .. } | Plan::CreateView { .. } | Plan::DropView { .. }) => {
                other
            }
        }
    }

    /// Visit every relational node and expression in the statement.
    pub fn visit(&self, exprv: &mut dyn FnMut(&ScalarExpr), relv: &mut dyn FnMut(&RelExpr)) {
        match self {
            Plan::Query(rel) => rel.visit(exprv, relv),
            Plan::Insert { source, .. } => source.visit(exprv, relv),
            Plan::Update { assignments, predicate, .. } => {
                for a in assignments {
                    a.value.visit(exprv, relv);
                }
                if let Some(p) = predicate {
                    p.visit(exprv, relv);
                }
            }
            Plan::Delete { predicate, .. } => {
                if let Some(p) = predicate {
                    p.visit(exprv, relv);
                }
            }
            Plan::CreateTable { source, .. } => {
                if let Some(s) = source {
                    s.visit(exprv, relv);
                }
            }
            Plan::DropTable { .. } | Plan::CreateView { .. } | Plan::DropView { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp};

    fn get(table: &str, cols: &[(&str, SqlType)]) -> RelExpr {
        RelExpr::Get {
            table: table.to_string(),
            alias: None,
            schema: Schema::new(
                cols.iter()
                    .map(|(n, t)| Field::new(Some(table), n, t.clone(), true))
                    .collect(),
            ),
        }
    }

    #[test]
    fn project_schema_uses_output_names() {
        let g = get("T", &[("A", SqlType::Integer)]);
        let p = RelExpr::Project {
            input: Box::new(g),
            exprs: vec![(
                ScalarExpr::column(Some("T"), "A", SqlType::Integer),
                "X".to_string(),
            )],
        };
        let s = p.schema();
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.fields[0].name, "X");
        assert_eq!(s.fields[0].ty, SqlType::Integer);
    }

    #[test]
    fn left_join_nullability() {
        let l = get("L", &[("A", SqlType::Integer)]);
        let r = RelExpr::Get {
            table: "R".into(),
            alias: None,
            schema: Schema::new(vec![Field::new(Some("R"), "B", SqlType::Integer, false)]),
        };
        let j = RelExpr::Join {
            kind: JoinKind::Left,
            left: Box::new(l),
            right: Box::new(r),
            condition: None,
        };
        let s = j.schema();
        assert!(s.fields[1].nullable, "right side of LEFT JOIN must be nullable");
    }

    #[test]
    fn rollup_sets() {
        match Grouping::rollup(2) {
            Grouping::Sets(sets) => {
                assert_eq!(sets, vec![vec![0, 1], vec![0], vec![]]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn cube_sets_count() {
        match Grouping::cube(3) {
            Grouping::Sets(sets) => assert_eq!(sets.len(), 8),
            _ => panic!(),
        }
    }

    #[test]
    fn referenced_tables_descends_into_subqueries() {
        let outer = get("SALES", &[("AMOUNT", SqlType::Integer)]);
        let inner = get("SALES_HISTORY", &[("GROSS", SqlType::Integer)]);
        let pred = ScalarExpr::Exists {
            subquery: Box::new(inner),
            negated: false,
        };
        let sel = RelExpr::Select { input: Box::new(outer), predicate: pred };
        let tables = sel.referenced_tables();
        assert_eq!(tables, vec!["SALES".to_string(), "SALES_HISTORY".to_string()]);
    }

    #[test]
    fn aggregate_schema_names() {
        let g = get("T", &[("A", SqlType::Integer), ("B", SqlType::Integer)]);
        let agg = RelExpr::Aggregate {
            input: Box::new(g),
            group_by: vec![(
                ScalarExpr::column(Some("T"), "A", SqlType::Integer),
                "A".to_string(),
            )],
            grouping: Grouping::Simple,
            aggs: vec![(
                ScalarExpr::Agg {
                    func: AggFunc::Sum,
                    distinct: false,
                    arg: Some(Box::new(ScalarExpr::column(
                        Some("T"),
                        "B",
                        SqlType::Integer,
                    ))),
                },
                "TOTAL".to_string(),
            )],
        };
        let s = agg.schema();
        assert_eq!(s.fields[0].name, "A");
        assert_eq!(s.fields[1].name, "TOTAL");
        assert_eq!(s.fields[1].ty, SqlType::Integer);
    }

    #[test]
    fn plan_rewrite_reaches_predicates() {
        let g = get("T", &[("A", SqlType::Integer)]);
        let plan = Plan::Delete {
            table: "T".into(),
            alias: None,
            predicate: Some(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::column(Some("T"), "A", SqlType::Integer),
                ScalarExpr::int(1),
            )),
        };
        let _ = g;
        let mut seen = 0;
        let rewritten = plan.rewrite(&mut |r| r, &mut |e| {
            seen += 1;
            e
        });
        assert!(seen >= 3, "should visit column, literal and comparison");
        match rewritten {
            Plan::Delete { predicate: Some(_), .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
