//! Paper-style tree rendering of XTRA expressions.
//!
//! Produces the notation used in the paper's Figures 5 and 6, e.g.:
//!
//! ```text
//! +-select
//! |-window(RANK, DESC, AMOUNT)
//! | +-select
//! | |-get (SALES)
//! | +-boolexpr(AND)
//! |   ...
//! +-comp(LTE)
//!   |-ident(AMOUNT)
//!   +-const(10)
//! ```
//!
//! Used by tests that reproduce the paper's worked example trees and by
//! `EXPLAIN`-style diagnostics.

use crate::expr::ScalarExpr;
use crate::rel::{Grouping, RelExpr};

/// A generic labelled tree, the common rendering form for relational and
/// scalar nodes.
#[derive(Debug, Clone)]
pub struct TreeNode {
    pub label: String,
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    fn leaf(label: impl Into<String>) -> TreeNode {
        TreeNode { label: label.into(), children: Vec::new() }
    }

    fn node(label: impl Into<String>, children: Vec<TreeNode>) -> TreeNode {
        TreeNode { label: label.into(), children }
    }
}

/// Render a relational tree in the paper's notation.
pub fn render_rel(rel: &RelExpr) -> String {
    render(&rel_node(rel))
}

fn render(root: &TreeNode) -> String {
    let mut out = String::new();
    out.push_str("+-");
    out.push_str(&root.label);
    out.push('\n');
    render_children(&root.children, "", &mut out);
    out
}

fn render_children(children: &[TreeNode], prefix: &str, out: &mut String) {
    for (i, child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        out.push_str(prefix);
        out.push_str(if last { "+-" } else { "|-" });
        out.push_str(&child.label);
        out.push('\n');
        let child_prefix = format!("{prefix}{} ", if last { " " } else { "|" });
        render_children(&child.children, &child_prefix, out);
    }
}

fn rel_node(rel: &RelExpr) -> TreeNode {
    match rel {
        RelExpr::Get { table, alias, .. } => match alias {
            Some(a) if !a.eq_ignore_ascii_case(table) => {
                TreeNode::leaf(format!("get ({table} '{a}')"))
            }
            _ => TreeNode::leaf(format!("get ({table})")),
        },
        RelExpr::Values { rows, .. } => TreeNode::leaf(format!("values ({} rows)", rows.len())),
        RelExpr::Select { input, predicate } => TreeNode::node(
            "select",
            vec![rel_node(input), expr_node(predicate)],
        ),
        RelExpr::Project { input, exprs } => {
            let mut children = vec![rel_node(input)];
            for (e, name) in exprs {
                children.push(TreeNode::node(
                    format!("as '{name}'"),
                    vec![expr_node(e)],
                ));
            }
            TreeNode::node("project", children)
        }
        RelExpr::Window { input, exprs } => {
            // The paper prints the single-function case inline:
            // window(RANK, DESC, AMOUNT).
            if exprs.len() == 1 {
                let w = &exprs[0];
                let mut parts = vec![w.func.name().to_string()];
                for k in &w.order_by {
                    if k.desc {
                        parts.push("DESC".into());
                    }
                    parts.push(k.expr.to_string());
                }
                if let Some(a) = &w.arg {
                    parts.push(a.to_string());
                }
                for p in &w.partition_by {
                    parts.push(format!("PARTITION {p}"));
                }
                TreeNode::node(
                    format!("window({})", parts.join(", ")),
                    vec![rel_node(input)],
                )
            } else {
                let mut children = vec![rel_node(input)];
                for w in exprs {
                    children.push(TreeNode::leaf(format!(
                        "winfunc({}, '{}')",
                        w.func.name(),
                        w.output
                    )));
                }
                TreeNode::node("window", children)
            }
        }
        RelExpr::Join { kind, left, right, condition } => {
            let mut children = vec![rel_node(left), rel_node(right)];
            if let Some(c) = condition {
                children.push(expr_node(c));
            }
            TreeNode::node(format!("join({})", kind.name()), children)
        }
        RelExpr::Aggregate { input, group_by, grouping, aggs } => {
            let mut children = vec![rel_node(input)];
            for (e, name) in group_by {
                children.push(TreeNode::node(format!("groupby '{name}'"), vec![expr_node(e)]));
            }
            for (e, name) in aggs {
                children.push(TreeNode::node(format!("agg '{name}'"), vec![expr_node(e)]));
            }
            let label = match grouping {
                Grouping::Simple => "gbagg".to_string(),
                Grouping::Sets(sets) => format!("gbagg(sets={})", sets.len()),
            };
            TreeNode::node(label, children)
        }
        RelExpr::Distinct { input } => TreeNode::node("distinct", vec![rel_node(input)]),
        RelExpr::Sort { input, keys } => {
            let desc: Vec<String> = keys
                .iter()
                .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                .collect();
            TreeNode::node(format!("sort({})", desc.join(", ")), vec![rel_node(input)])
        }
        RelExpr::Limit { input, limit, offset, with_ties } => {
            let mut label = match limit {
                Some(n) => format!("limit({n}"),
                None => "limit(ALL".to_string(),
            };
            if *offset > 0 {
                label.push_str(&format!(", offset {offset}"));
            }
            if *with_ties {
                label.push_str(", with ties");
            }
            label.push(')');
            TreeNode::node(label, vec![rel_node(input)])
        }
        RelExpr::SetOp { kind, all, left, right } => TreeNode::node(
            format!("{}{}", kind.name().to_lowercase(), if *all { "_all" } else { "" }),
            vec![rel_node(left), rel_node(right)],
        ),
        RelExpr::Alias { input, alias, .. } => {
            TreeNode::node(format!("alias '{alias}'"), vec![rel_node(input)])
        }
    }
}

fn expr_node(expr: &ScalarExpr) -> TreeNode {
    match expr {
        ScalarExpr::Column { qualifier, name, .. } => match qualifier {
            Some(q) => TreeNode::leaf(format!("ident({q}.{name})")),
            None => TreeNode::leaf(format!("ident({name})")),
        },
        ScalarExpr::Literal(d, _) => TreeNode::leaf(format!("const({d})")),
        ScalarExpr::Arith { op, left, right } => TreeNode::node(
            format!("arith({})", op.symbol()),
            vec![expr_node(left), expr_node(right)],
        ),
        ScalarExpr::Neg(e) => TreeNode::node("arith(neg)", vec![expr_node(e)]),
        ScalarExpr::Cmp { op, left, right } => TreeNode::node(
            format!("comp({})", op.paper_name()),
            vec![expr_node(left), expr_node(right)],
        ),
        ScalarExpr::BoolExpr { op, args } => TreeNode::node(
            format!("boolexpr({:?})", op).to_uppercase().replace("BOOLEXPR", "boolexpr"),
            args.iter().map(expr_node).collect(),
        ),
        ScalarExpr::Not(e) => TreeNode::node("not", vec![expr_node(e)]),
        ScalarExpr::IsNull { expr, negated } => TreeNode::node(
            if *negated { "isnotnull" } else { "isnull" },
            vec![expr_node(expr)],
        ),
        ScalarExpr::Like { expr, pattern, negated } => TreeNode::node(
            if *negated { "notlike" } else { "like" },
            vec![expr_node(expr), expr_node(pattern)],
        ),
        ScalarExpr::InList { expr, list, negated } => {
            let mut children = vec![expr_node(expr)];
            children.extend(list.iter().map(expr_node));
            TreeNode::node(if *negated { "notin" } else { "in" }, children)
        }
        ScalarExpr::Between { expr, low, high, negated } => TreeNode::node(
            if *negated { "notbetween" } else { "between" },
            vec![expr_node(expr), expr_node(low), expr_node(high)],
        ),
        ScalarExpr::Case { operand, branches, else_expr } => {
            let mut children = Vec::new();
            if let Some(o) = operand {
                children.push(expr_node(o));
            }
            for (c, r) in branches {
                children.push(TreeNode::node("when", vec![expr_node(c), expr_node(r)]));
            }
            if let Some(e) = else_expr {
                children.push(TreeNode::node("else", vec![expr_node(e)]));
            }
            TreeNode::node("case", children)
        }
        ScalarExpr::Cast { expr, ty } => {
            TreeNode::node(format!("cast({ty})"), vec![expr_node(expr)])
        }
        ScalarExpr::Extract { field, expr } => TreeNode::node(
            format!("extract({}, {})", field.name(), expr),
            vec![],
        ),
        ScalarExpr::Func { func, args } => TreeNode::node(
            format!("func({})", func.name()),
            args.iter().map(expr_node).collect(),
        ),
        ScalarExpr::Agg { func, distinct, arg } => {
            let label = format!(
                "agg({}{})",
                func.name(),
                if *distinct { ", DISTINCT" } else { "" }
            );
            TreeNode::node(label, arg.iter().map(|a| expr_node(a)).collect())
        }
        ScalarExpr::ScalarSubquery(rel) => TreeNode::node("subq(SCALAR)", vec![rel_node(rel)]),
        ScalarExpr::Exists { subquery, negated } => TreeNode::node(
            if *negated { "subq(NOT EXISTS)" } else { "subq(EXISTS)" },
            vec![rel_node(subquery)],
        ),
        ScalarExpr::InSubquery { exprs, subquery, negated } => {
            let mut children: Vec<TreeNode> = exprs.iter().map(expr_node).collect();
            children.push(rel_node(subquery));
            TreeNode::node(if *negated { "subq(NOT IN)" } else { "subq(IN)" }, children)
        }
        ScalarExpr::QuantifiedCmp { left, op, quantifier, subquery } => {
            let cols: Vec<String> = left.iter().map(std::string::ToString::to_string).collect();
            let mut children = vec![rel_node(subquery)];
            children.push(TreeNode::node(
                "list",
                left.iter().map(expr_node).collect(),
            ));
            TreeNode::node(
                format!(
                    "subq({}, {}, [{}])",
                    quantifier.name(),
                    op.paper_name(),
                    cols.join(", ")
                ),
                children,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::{Field, Schema};
    use crate::types::SqlType;

    #[test]
    fn renders_paper_like_tree() {
        let get = RelExpr::Get {
            table: "SALES".into(),
            alias: None,
            schema: Schema::new(vec![Field::new(
                Some("SALES"),
                "AMOUNT",
                SqlType::Integer,
                true,
            )]),
        };
        let sel = RelExpr::Select {
            input: Box::new(get),
            predicate: ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::column(Some("SALES"), "AMOUNT", SqlType::Integer),
                ScalarExpr::int(10),
            ),
        };
        let out = render_rel(&sel);
        assert!(out.starts_with("+-select\n"), "{out}");
        assert!(out.contains("|-get (SALES)"), "{out}");
        assert!(out.contains("+-comp(GT)"), "{out}");
        assert!(out.contains("ident(SALES.AMOUNT)"), "{out}");
        assert!(out.contains("const(10)"), "{out}");
    }

    #[test]
    fn nested_prefixes_are_aligned() {
        let leaf = RelExpr::Values { rows: vec![], schema: Schema::empty() };
        let inner = RelExpr::Distinct { input: Box::new(leaf) };
        let outer = RelExpr::Distinct { input: Box::new(inner) };
        let out = render_rel(&outer);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "+-distinct");
        assert_eq!(lines[1], "+-distinct");
        assert_eq!(lines[2], "  +-values (0 rows)");
    }
}
