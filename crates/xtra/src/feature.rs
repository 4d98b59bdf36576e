//! The 27 tracked non-standard features (paper §7.1).
//!
//! "We instrumented Hyper-Q's query rewrite engine to track a selection of
//! 27 commonly used non-standard features observed in customer workloads
//! from each of the three categories presented in Section 2.1 (translation,
//! transformation, and features that require emulation in the mid tier; we
//! chose 9 features of each class)."
//!
//! Every feature carries its rewrite synopsis and implementing component,
//! which makes this registry the single source for regenerating the paper's
//! Table 2 and for the Figure 8 instrumentation.

use std::fmt;

/// Difficulty class of a rewrite (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureClass {
    /// Keyword/function-name level; "often highly localized" rewrites.
    Translation,
    /// Requires full structural understanding: name resolution, type
    /// derivation, non-local restructuring.
    Transformation,
    /// Missing functionality realized by multiple requests plus state kept
    /// in the middle tier.
    Emulation,
}

impl FeatureClass {
    pub const ALL: [FeatureClass; 3] = [
        FeatureClass::Translation,
        FeatureClass::Transformation,
        FeatureClass::Emulation,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            FeatureClass::Translation => "Translation",
            FeatureClass::Transformation => "Transformation",
            FeatureClass::Emulation => "Emulation",
        }
    }
}

impl fmt::Display for FeatureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which pipeline component implements a feature's rewrite (Table 2's
/// "Component" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    Parser,
    Binder,
    Transformer,
    Serializer,
    Emulator,
    BinderTransformer,
}

impl Component {
    pub fn name(&self) -> &'static str {
        match self {
            Component::Parser => "Parser",
            Component::Binder => "Binder",
            Component::Transformer => "Transformer",
            Component::Serializer => "Serializer",
            Component::Emulator => "Emulator (mid-tier)",
            Component::BinderTransformer => "Binder/Transformer",
        }
    }
}

/// One of the 27 tracked features: 9 per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Feature {
    // --- Translation (T1–T9) ---
    /// `SEL`/`DEL`/`INS`/`UPD` keyword shortcuts.
    KeywordShortcut,
    /// Keyword comparison operators `EQ`, `NE`, `LT`, `LE`, `GT`, `GE`.
    KeywordComparison,
    /// Infix `MOD` operator.
    ModOperator,
    /// `**` exponentiation operator.
    ExponentOperator,
    /// `CHARS`/`CHARACTERS` string-length functions.
    CharsFunction,
    /// `ZEROIFNULL`/`NULLIFZERO`.
    ZeroIfNull,
    /// `INDEX(string, substring)`.
    IndexFunction,
    /// `SUBSTR` spelling of `SUBSTRING`.
    SubstrFunction,
    /// `ADD_MONTHS` date function.
    AddMonths,
    // --- Transformation (X1–X9) ---
    /// `QUALIFY` clause combining window functions with predicates.
    Qualify,
    /// Implicit joins: tables referenced outside the `FROM` clause.
    ImplicitJoin,
    /// Named expressions referenced within the same SELECT list
    /// ("chained projections").
    NamedExprReference,
    /// Ordinals in `GROUP BY`/`ORDER BY`.
    OrdinalGroupBy,
    /// DATE–INTEGER comparison through Teradata's internal date encoding.
    DateIntComparison,
    /// Date ± integer arithmetic.
    DateArithmetic,
    /// Quantified *vector* subquery comparison `(a, b) > ANY (SELECT …)`.
    VectorSubquery,
    /// `ROLLUP`/`CUBE`/`GROUPING SETS`.
    GroupingExtensions,
    /// Teradata window shorthand `RANK(expr DESC)` and non-standard clause
    /// order (`ORDER BY` before `WHERE`).
    NonAnsiWindowSyntax,
    // --- Emulation (E1–E9) ---
    /// `WITH RECURSIVE` common table expressions.
    RecursiveQuery,
    /// `CREATE MACRO`/`EXECUTE` parameterized statement sequences.
    MacroStatement,
    /// Stored procedure `CALL` semantics.
    StoredProcedureCall,
    /// `MERGE INTO` upsert.
    MergeStatement,
    /// Informational commands: `HELP SESSION`, `HELP TABLE`.
    HelpCommand,
    /// DML against view objects.
    DmlOnView,
    /// `CREATE GLOBAL TEMPORARY TABLE`.
    GlobalTempTable,
    /// `SET` table duplicate-row elimination on insert.
    SetTableSemantics,
    /// Column properties the target cannot express: non-constant defaults,
    /// `NOT CASESPECIFIC`, `PERIOD` columns.
    ColumnProperties,
}

impl Feature {
    /// All 27 features in registry order (T1–T9, X1–X9, E1–E9).
    pub const ALL: [Feature; 27] = [
        Feature::KeywordShortcut,
        Feature::KeywordComparison,
        Feature::ModOperator,
        Feature::ExponentOperator,
        Feature::CharsFunction,
        Feature::ZeroIfNull,
        Feature::IndexFunction,
        Feature::SubstrFunction,
        Feature::AddMonths,
        Feature::Qualify,
        Feature::ImplicitJoin,
        Feature::NamedExprReference,
        Feature::OrdinalGroupBy,
        Feature::DateIntComparison,
        Feature::DateArithmetic,
        Feature::VectorSubquery,
        Feature::GroupingExtensions,
        Feature::NonAnsiWindowSyntax,
        Feature::RecursiveQuery,
        Feature::MacroStatement,
        Feature::StoredProcedureCall,
        Feature::MergeStatement,
        Feature::HelpCommand,
        Feature::DmlOnView,
        Feature::GlobalTempTable,
        Feature::SetTableSemantics,
        Feature::ColumnProperties,
    ];

    pub fn class(&self) -> FeatureClass {
        use Feature::*;
        match self {
            KeywordShortcut | KeywordComparison | ModOperator | ExponentOperator
            | CharsFunction | ZeroIfNull | IndexFunction | SubstrFunction | AddMonths => {
                FeatureClass::Translation
            }
            Qualify | ImplicitJoin | NamedExprReference | OrdinalGroupBy | DateIntComparison
            | DateArithmetic | VectorSubquery | GroupingExtensions | NonAnsiWindowSyntax => {
                FeatureClass::Transformation
            }
            RecursiveQuery | MacroStatement | StoredProcedureCall | MergeStatement
            | HelpCommand | DmlOnView | GlobalTempTable | SetTableSemantics
            | ColumnProperties => FeatureClass::Emulation,
        }
    }

    /// Short identifier (T1…E9).
    pub fn code(&self) -> &'static str {
        use Feature::*;
        match self {
            KeywordShortcut => "T1",
            KeywordComparison => "T2",
            ModOperator => "T3",
            ExponentOperator => "T4",
            CharsFunction => "T5",
            ZeroIfNull => "T6",
            IndexFunction => "T7",
            SubstrFunction => "T8",
            AddMonths => "T9",
            Qualify => "X1",
            ImplicitJoin => "X2",
            NamedExprReference => "X3",
            OrdinalGroupBy => "X4",
            DateIntComparison => "X5",
            DateArithmetic => "X6",
            VectorSubquery => "X7",
            GroupingExtensions => "X8",
            NonAnsiWindowSyntax => "X9",
            RecursiveQuery => "E1",
            MacroStatement => "E2",
            StoredProcedureCall => "E3",
            MergeStatement => "E4",
            HelpCommand => "E5",
            DmlOnView => "E6",
            GlobalTempTable => "E7",
            SetTableSemantics => "E8",
            ColumnProperties => "E9",
        }
    }

    /// Human-readable name (Table 2's "Feature" column).
    pub fn title(&self) -> &'static str {
        use Feature::*;
        match self {
            KeywordShortcut => "SEL/DEL/INS/UPD",
            KeywordComparison => "Keyword comparison operators",
            ModOperator => "MOD operator",
            ExponentOperator => "** exponentiation",
            CharsFunction => "CHARS/CHARACTERS",
            ZeroIfNull => "ZEROIFNULL/NULLIFZERO",
            IndexFunction => "INDEX function",
            SubstrFunction => "SUBSTR",
            AddMonths => "ADD_MONTHS",
            Qualify => "QUALIFY",
            ImplicitJoin => "Implicit joins",
            NamedExprReference => "Chained projections",
            OrdinalGroupBy => "Ordinal GROUP BY / ORDER BY",
            DateIntComparison => "Date-Integer comparison",
            DateArithmetic => "Date arithmetics",
            VectorSubquery => "Vector subquery comparison",
            GroupingExtensions => "OLAP grouping extensions",
            NonAnsiWindowSyntax => "Teradata window syntax / clause order",
            RecursiveQuery => "Recursive queries",
            MacroStatement => "Macros",
            StoredProcedureCall => "Stored procedure calls",
            MergeStatement => "MERGE",
            HelpCommand => "HELP commands",
            DmlOnView => "DML on views",
            GlobalTempTable => "Global temporary tables",
            SetTableSemantics => "SET table semantics",
            ColumnProperties => "Unsupported column properties",
        }
    }

    /// Synopsis of the implemented rewrite (Table 2's "Hyper-Q
    /// implementation" column).
    pub fn rewrite_synopsis(&self) -> &'static str {
        use Feature::*;
        match self {
            KeywordShortcut => "Replace by the corresponding non-abbreviated keyword",
            KeywordComparison => "Replace by the corresponding symbolic operator",
            ModOperator => "Replace by % operator or MOD() function per target",
            ExponentOperator => "Replace by POWER() function",
            CharsFunction => "Replace by CHAR_LENGTH",
            ZeroIfNull => "Replace by COALESCE(x,0) / NULLIF(x,0)",
            IndexFunction => "Replace by POSITION(sub IN str)",
            SubstrFunction => "Replace by SUBSTRING",
            AddMonths => "Serialize per target (ADD_MONTHS / DATEADD / interval arithmetic)",
            Qualify => {
                "Add a window operator computing the functions and transform the \
                 predicate to refer to the computed columns"
            }
            ImplicitJoin => "Expand FROM clause with referenced tables",
            NamedExprReference => "Replace the referenced name by its definition",
            OrdinalGroupBy => "Replace column positions by the corresponding expression",
            DateIntComparison => {
                "Expand the date side into DAY + MONTH*100 + (YEAR-1900)*10000"
            }
            DateArithmetic => "Replace by DATE_ADD_DAYS / interval addition per target",
            VectorSubquery => {
                "Replace quantified vector comparison with an equivalent existential \
                 correlated subquery"
            }
            GroupingExtensions => "Expand to a UNION ALL over simple GROUP BYs",
            NonAnsiWindowSyntax => {
                "Normalize RANK(expr DESC) to ANSI RANK() OVER (ORDER BY expr DESC); \
                 reorder clauses during parsing"
            }
            RecursiveQuery => {
                "Drive recursion from the mid-tier with WorkTable/TempTable temporary \
                 tables until fixed point"
            }
            MacroStatement => "Store definition in DTM catalog; expand body with bound parameters",
            StoredProcedureCall => "Break control flow into a sequence of SQL requests",
            MergeStatement => "Execute as UPDATE followed by guarded INSERT in one transaction",
            HelpCommand => "Answer from mid-tier session state without contacting the target",
            DmlOnView => "Express DML operation on the base table of the view",
            GlobalTempTable => "Create per-session temp table from DTM-cataloged definition",
            SetTableSemantics => "Guard INSERT with anti-join dedup against existing rows",
            ColumnProperties => {
                "Store properties in DTM catalog and apply when the column is referenced"
            }
        }
    }

    /// Which component implements the rewrite (Table 2's "Component").
    pub fn component(&self) -> Component {
        use Feature::*;
        match self {
            KeywordShortcut | KeywordComparison | NonAnsiWindowSyntax => Component::Parser,
            ModOperator | ExponentOperator | CharsFunction | ZeroIfNull | IndexFunction
            | SubstrFunction => Component::Parser,
            AddMonths | DateArithmetic => Component::Serializer,
            Qualify => Component::Parser,
            ImplicitJoin | NamedExprReference | OrdinalGroupBy => Component::Binder,
            DateIntComparison | GroupingExtensions => Component::Transformer,
            VectorSubquery => Component::Serializer,
            RecursiveQuery | MacroStatement | StoredProcedureCall | MergeStatement
            | HelpCommand | GlobalTempTable | SetTableSemantics => Component::Emulator,
            DmlOnView => Component::Binder,
            ColumnProperties => Component::BinderTransformer,
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.title(), self.code())
    }
}

/// A set of tracked features: the ones observed while processing one
/// statement, or the ones a target database supports natively.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeatureSet {
    bits: u32,
}

impl FeatureSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declaration order is registry order, so a feature's discriminant is
    /// its index in [`Feature::ALL`].
    fn bit(f: Feature) -> u32 {
        1 << f as u32
    }

    pub fn insert(&mut self, f: Feature) {
        self.bits |= Self::bit(f);
    }

    pub fn remove(&mut self, f: Feature) {
        self.bits &= !Self::bit(f);
    }

    pub fn contains(&self, f: Feature) -> bool {
        self.bits & Self::bit(f) != 0
    }

    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    pub fn union(&mut self, other: &FeatureSet) {
        self.bits |= other.bits;
    }

    pub fn iter(&self) -> impl Iterator<Item = Feature> + '_ {
        Feature::ALL.iter().copied().filter(|f| self.contains(*f))
    }

    /// Does the set contain any feature of the given class?
    pub fn has_class(&self, class: FeatureClass) -> bool {
        self.iter().any(|f| f.class() == class)
    }

    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }
}

impl FromIterator<Feature> for FeatureSet {
    fn from_iter<I: IntoIterator<Item = Feature>>(iter: I) -> Self {
        let mut set = FeatureSet::new();
        for f in iter {
            set.insert(f);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_features_per_class() {
        for class in FeatureClass::ALL {
            let n = Feature::ALL.iter().filter(|f| f.class() == class).count();
            assert_eq!(n, 9, "{class} must have exactly 9 features as in the paper");
        }
    }

    #[test]
    fn codes_are_unique_and_class_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for f in Feature::ALL {
            assert!(seen.insert(f.code()), "duplicate code {}", f.code());
            let prefix = match f.class() {
                FeatureClass::Translation => 'T',
                FeatureClass::Transformation => 'X',
                FeatureClass::Emulation => 'E',
            };
            assert!(f.code().starts_with(prefix), "{f:?}");
        }
    }

    #[test]
    fn feature_set_operations() {
        let mut s = FeatureSet::new();
        assert!(s.is_empty());
        s.insert(Feature::Qualify);
        s.insert(Feature::MergeStatement);
        s.insert(Feature::Qualify); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(Feature::Qualify));
        assert!(!s.contains(Feature::ModOperator));
        assert!(s.has_class(FeatureClass::Transformation));
        assert!(s.has_class(FeatureClass::Emulation));
        assert!(!s.has_class(FeatureClass::Translation));
        let collected: Vec<Feature> = s.iter().collect();
        assert_eq!(collected, vec![Feature::Qualify, Feature::MergeStatement]);
    }

    #[test]
    fn discriminants_are_registry_indices() {
        for (i, f) in Feature::ALL.iter().enumerate() {
            assert_eq!(*f as usize, i, "{f:?}");
        }
    }

    #[test]
    fn remove_and_collect() {
        let mut s: FeatureSet = [Feature::Qualify, Feature::ColumnProperties].into_iter().collect();
        s.remove(Feature::Qualify);
        s.remove(Feature::ModOperator);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Feature::ColumnProperties]);
    }

    #[test]
    fn union_merges() {
        let mut a = FeatureSet::new();
        a.insert(Feature::ModOperator);
        let mut b = FeatureSet::new();
        b.insert(Feature::Qualify);
        a.union(&b);
        assert_eq!(a.len(), 2);
    }
}
