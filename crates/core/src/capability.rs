//! Target-database capability signatures.
//!
//! The paper's Figure 2 surveys "support for select Teradata features across
//! major cloud databases"; the Transformer, the Serializer and the
//! conformance lints consult the same signature to decide which
//! system-specific rewrites to trigger (§5.3: "for target database systems
//! that support vector comparison in subqueries, this transformation would
//! not be triggered") and how to spell what the target does support.
//!
//! A signature is one plain value: the set of tracked features the target
//! supports natively, six output-only capabilities no Teradata feature maps
//! onto, and three spelling choices. The registered signatures live in
//! [`crate::targets`].

use std::sync::OnceLock;

use hyperq_xtra::feature::{Feature, FeatureSet};

/// How the target spells modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModStyle {
    /// `a % b`.
    Percent,
    /// `MOD(a, b)`.
    Function,
}

/// How the target spells "add N days to a date".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DateAddStyle {
    /// Native `d + n` integer arithmetic (Teradata-compatible).
    PlusInteger,
    /// `DATEADD(DAY, n, d)`.
    DateAddFn,
    /// `DATE_ADD(d, INTERVAL n DAY)`.
    IntervalFn,
    /// `d + INTERVAL 'n' DAY`.
    IntervalLiteral,
}

/// How the target spells "add N months to a date".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddMonthsStyle {
    /// `ADD_MONTHS(d, n)`.
    AddMonthsFn,
    /// `DATEADD(MONTH, n, d)`.
    DateAddFn,
    /// `d + INTERVAL 'n' MONTH`.
    IntervalLiteral,
}

/// How the target spells a row-count bound on a query block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitSpelling {
    /// Trailing `LIMIT n`.
    Limit,
    /// `SELECT TOP n …`.
    Top,
    /// Neither: the mid tier must peel the bound and truncate the result
    /// itself (the `LimitFetch` emulation).
    None,
}

/// Feature support and dialect spellings of one target database.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetCapabilities {
    /// Display name (`"SimWH"`, `"CloudWH-A"`, …) used in reports and lint
    /// messages.
    pub name: &'static str,
    /// The tracked Teradata features (T1..E9) the target supports natively:
    /// drives Figure 2, rewrite triggering and the conformance lints.
    pub supported: FeatureSet,
    /// `(subquery) AS d (x, y)` column aliases on derived tables.
    pub derived_table_column_aliases: bool,
    /// `SELECT TOP n …`.
    pub top_clause: bool,
    /// `TOP n WITH TIES`.
    pub with_ties: bool,
    /// Trailing `LIMIT n`.
    pub limit_clause: bool,
    /// A `RETURNING` clause on DML. No Teradata source feature maps onto
    /// it: it exists purely as an *output* capability the conformance
    /// linter checks emitted SQL against.
    pub returning_clause: bool,
    /// Session-scoped `SET <name> = <value>` statements, so Hyper-Q pushes
    /// settings through (and journals them for replay on reconnect)
    /// instead of keeping them purely mid-tier.
    pub session_settings: bool,
    pub mod_style: ModStyle,
    pub date_add_style: DateAddStyle,
    pub add_months_style: AddMonthsStyle,
}

impl TargetCapabilities {
    /// Does this target natively support the tracked feature?
    pub fn supports(&self, f: Feature) -> bool {
        self.supported.contains(f)
    }

    /// How a row bound is spelled: `LIMIT` where the target has it, else
    /// `TOP`, else neither.
    pub fn limit_spelling(&self) -> LimitSpelling {
        if self.limit_clause {
            LimitSpelling::Limit
        } else if self.top_clause {
            LimitSpelling::Top
        } else {
            LimitSpelling::None
        }
    }
}

/// The Figure 2 feature selection: frequently-used Teradata features whose
/// cloud support the paper charts.
pub fn figure2_features() -> Vec<Feature> {
    use Feature::*;
    vec![
        Qualify,
        ImplicitJoin,
        NamedExprReference,
        OrdinalGroupBy,
        DateArithmetic,
        VectorSubquery,
        GroupingExtensions,
        RecursiveQuery,
        MacroStatement,
        StoredProcedureCall,
        MergeStatement,
        DmlOnView,
        GlobalTempTable,
        SetTableSemantics,
        ColumnProperties,
    ]
}

/// One row of Figure 2: a feature and the percentage of surveyed cloud
/// databases supporting it.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportRow {
    pub feature: Feature,
    pub percent_supported: f64,
    pub supporting: Vec<&'static str>,
}

fn rows_for(features: impl IntoIterator<Item = Feature>) -> Vec<SupportRow> {
    // Figure 2's population comes from the target registry (the surveyed
    // cloud profiles), not an ad-hoc list: registering a profile is enough
    // to put it in the chart.
    let targets = crate::targets::surveyed();
    features
        .into_iter()
        .map(|feature| {
            let supporting: Vec<&'static str> = targets
                .iter()
                .filter(|t| t.caps.supports(feature))
                .map(|t| t.caps.name)
                .collect();
            SupportRow {
                feature,
                percent_supported: 100.0 * supporting.len() as f64 / targets.len() as f64,
                supporting,
            }
        })
        .collect()
}

/// Compute Figure 2 from the capability profiles.
pub fn figure2_rows() -> Vec<SupportRow> {
    rows_for(figure2_features())
}

/// Cloud-support rows for *every* tracked feature (T1..E9, registry order),
/// not just the Figure 2 selection — the full table the assessment report
/// and the conformance exhaustiveness audit consume.
pub fn support_rows() -> Vec<SupportRow> {
    rows_for(Feature::ALL)
}

/// The percentage of surveyed cloud targets supporting `f`: the
/// `percent_supported` of its [`support_rows`] row, computed once.
pub(crate) fn percent_supported(f: Feature) -> f64 {
    static PERCENT: OnceLock<Vec<f64>> = OnceLock::new();
    PERCENT.get_or_init(|| support_rows().iter().map(|r| r.percent_supported).collect())
        [f as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;

    #[test]
    fn support_rows_cover_every_feature_exactly_once() {
        let rows = support_rows();
        for f in Feature::ALL {
            assert_eq!(
                rows.iter().filter(|r| r.feature == f).count(),
                1,
                "feature {} ({f:?}) must have exactly one support row",
                f.code()
            );
        }
        assert_eq!(rows.len(), Feature::ALL.len());
    }

    #[test]
    fn percent_supported_reads_the_support_rows() {
        for row in support_rows() {
            assert_eq!(percent_supported(row.feature), row.percent_supported);
        }
    }

    #[test]
    fn no_cloud_target_supports_macros_or_help() {
        for t in targets::surveyed() {
            assert!(!t.caps.supports(Feature::MacroStatement), "{}", t.name);
            assert!(!t.caps.supports(Feature::HelpCommand), "{}", t.name);
            assert!(!t.caps.supports(Feature::DateIntComparison), "{}", t.name);
        }
    }

    #[test]
    fn figure2_rows_are_percentages() {
        for row in figure2_rows() {
            assert!((0.0..=100.0).contains(&row.percent_supported));
            assert_eq!(
                row.percent_supported,
                100.0 * row.supporting.len() as f64 / 6.0
            );
        }
    }

    #[test]
    fn qualify_is_rare_across_clouds() {
        assert!(percent_supported(Feature::Qualify) < 50.0);
    }

    #[test]
    fn simwh_is_minimal_on_purpose() {
        let s = targets::simwh().caps;
        for f in [Feature::Qualify, Feature::VectorSubquery, Feature::RecursiveQuery, Feature::MergeStatement] {
            assert!(!s.supports(f), "{f:?}");
        }
        assert_eq!(s.limit_spelling(), LimitSpelling::Limit);
    }

    #[test]
    fn limit_spelling_prefers_limit_then_top() {
        let mut c = targets::simwh().caps;
        c.top_clause = true;
        assert_eq!(c.limit_spelling(), LimitSpelling::Limit);
        c.limit_clause = false;
        assert_eq!(c.limit_spelling(), LimitSpelling::Top);
        c.top_clause = false;
        assert_eq!(c.limit_spelling(), LimitSpelling::None);
    }
}
