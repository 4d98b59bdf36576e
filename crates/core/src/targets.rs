//! First-class target profiles: the named registry behind
//! `HyperQBuilder::for_target`, the gateway's `target` setting, and the
//! `hyperq-assess --target` flag.
//!
//! The paper's premise is one Teradata frontend adapting to *many* cloud
//! targets (§4.4, Figure 2). A [`TargetProfile`] is everything the
//! pipeline needs to know about one of them: a stable registry name, one
//! [`TargetCapabilities`] value (the features the target supports natively
//! and how it spells what it supports — read by the transformer, the
//! emulation layer, the serializer and the conformance lints alike), and
//! whether the bundled `hyperq-engine` can actually execute the profile's
//! output.
//!
//! Two profiles are executable: `simwh`, the historical default, and
//! `simwh-reduced`, a deliberately poorer signature (no derived-table
//! column aliases, function-style `MOD`, `DATEADD` date math, and neither
//! `LIMIT` nor `TOP`) that forces the transformer and the emulation layer
//! down genuinely different rewrite paths while the engine still executes
//! every corpus — the cross-target differential suite pins both profiles'
//! client-visible transcripts byte-for-byte against each other. The six
//! surveyed cloud profiles model the documented behavior of 2017-era cloud
//! warehouses; they serve Figure 2, assessment and the conformance lints.

use hyperq_xtra::feature::Feature::*;
use hyperq_xtra::feature::FeatureSet;

use crate::capability::{AddMonthsStyle, DateAddStyle, ModStyle, TargetCapabilities};

/// One named target: its capabilities and whether the engine executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetProfile {
    /// The registry key (`"simwh"`, `"cloud-a"`, …): stable, lowercase,
    /// and the value of every `target` metric label and provenance field.
    pub name: String,
    /// What the target supports and how it spells it.
    pub caps: TargetCapabilities,
    /// Whether the bundled `hyperq-engine` executes this profile's output
    /// (the surveyed cloud profiles are assess/serialize-only).
    pub executable: bool,
}

fn profile(name: &str, executable: bool, caps: TargetCapabilities) -> TargetProfile {
    TargetProfile { name: name.to_string(), caps, executable }
}

/// The default executable profile: the bundled engine substrate, a
/// deliberately minimal ANSI target so every rewrite class is exercised
/// end to end.
pub fn simwh() -> TargetProfile {
    profile(
        "simwh",
        true,
        TargetCapabilities {
            name: "SimWH",
            // The engine evaluates `date + n` natively, so the DATEADD
            // rewrite is not triggered for it (matching systems with
            // native date arithmetic).
            supported: FeatureSet::from_iter([AddMonths, DateArithmetic]),
            derived_table_column_aliases: true,
            top_clause: false,
            with_ties: false,
            limit_clause: true,
            returning_clause: false,
            session_settings: true,
            mod_style: ModStyle::Percent,
            date_add_style: DateAddStyle::PlusInteger,
            add_months_style: AddMonthsStyle::AddMonthsFn,
        },
    )
}

/// The second executable profile: the engine substrate behind a
/// deliberately reduced dialect. It withholds derived-table column
/// aliases, both row-bound spellings (`LIMIT` *and* `TOP`), native date
/// arithmetic and the `ADD_MONTHS` function, and spells modulo as
/// `MOD(a, b)` and date math as `DATEADD`, so every translation-class
/// rewrite the default target never triggers — alias normalization, the
/// `DATEADD` family, the `LimitFetch` emulation — fires on live corpus
/// traffic.
pub fn simwh_reduced() -> TargetProfile {
    profile(
        "simwh-reduced",
        true,
        TargetCapabilities {
            name: "SimWH-Reduced",
            supported: FeatureSet::new(),
            derived_table_column_aliases: false,
            limit_clause: false,
            top_clause: false,
            mod_style: ModStyle::Function,
            date_add_style: DateAddStyle::DateAddFn,
            add_months_style: AddMonthsStyle::DateAddFn,
            ..simwh().caps
        },
    )
}

/// The six surveyed cloud profiles, in Figure 2's column order.
fn clouds() -> [TargetProfile; 6] {
    [
        // A 2017-era MPP SQL warehouse with T-SQL heritage.
        profile(
            "cloud-a",
            false,
            TargetCapabilities {
                name: "CloudWH-A",
                supported: FeatureSet::from_iter([
                    SubstrFunction,
                    OrdinalGroupBy,
                    GroupingExtensions,
                    StoredProcedureCall,
                ]),
                derived_table_column_aliases: false,
                top_clause: true,
                with_ties: true,
                limit_clause: false,
                returning_clause: false,
                session_settings: false,
                mod_style: ModStyle::Percent,
                date_add_style: DateAddStyle::DateAddFn,
                add_months_style: AddMonthsStyle::DateAddFn,
            },
        ),
        // A 2017-era columnar cloud warehouse with Postgres heritage.
        profile(
            "cloud-b",
            false,
            TargetCapabilities {
                name: "CloudWH-B",
                supported: FeatureSet::from_iter([
                    SubstrFunction,
                    AddMonths,
                    ImplicitJoin,
                    OrdinalGroupBy,
                    DateArithmetic,
                ]),
                derived_table_column_aliases: true,
                top_clause: true,
                with_ties: false,
                limit_clause: true,
                returning_clause: true,
                session_settings: false,
                mod_style: ModStyle::Percent,
                date_add_style: DateAddStyle::PlusInteger,
                add_months_style: AddMonthsStyle::AddMonthsFn,
            },
        ),
        // A 2017-era serverless query service with its own SQL dialect.
        profile(
            "cloud-c",
            false,
            TargetCapabilities {
                name: "CloudWH-C",
                supported: FeatureSet::from_iter([SubstrFunction, OrdinalGroupBy]),
                derived_table_column_aliases: false,
                top_clause: false,
                with_ties: false,
                limit_clause: true,
                returning_clause: false,
                session_settings: false,
                mod_style: ModStyle::Function,
                date_add_style: DateAddStyle::IntervalFn,
                add_months_style: AddMonthsStyle::IntervalLiteral,
            },
        ),
        // A 2017-era elastic multi-cluster warehouse.
        profile(
            "cloud-d",
            false,
            TargetCapabilities {
                name: "CloudWH-D",
                supported: FeatureSet::from_iter([
                    ZeroIfNull,
                    SubstrFunction,
                    AddMonths,
                    Qualify,
                    NamedExprReference,
                    OrdinalGroupBy,
                    DateArithmetic,
                    GroupingExtensions,
                    RecursiveQuery,
                    MergeStatement,
                ]),
                derived_table_column_aliases: true,
                top_clause: true,
                with_ties: false,
                limit_clause: true,
                returning_clause: false,
                session_settings: false,
                mod_style: ModStyle::Percent,
                date_add_style: DateAddStyle::DateAddFn,
                add_months_style: AddMonthsStyle::AddMonthsFn,
            },
        ),
        // A 2017-era federated SQL-on-anything engine.
        profile(
            "cloud-e",
            false,
            TargetCapabilities {
                name: "CloudWH-E",
                supported: FeatureSet::from_iter([
                    SubstrFunction,
                    OrdinalGroupBy,
                    VectorSubquery,
                    GroupingExtensions,
                ]),
                derived_table_column_aliases: true,
                top_clause: false,
                with_ties: false,
                limit_clause: true,
                returning_clause: false,
                session_settings: false,
                mod_style: ModStyle::Function,
                date_add_style: DateAddStyle::IntervalLiteral,
                add_months_style: AddMonthsStyle::IntervalLiteral,
            },
        ),
        // A 2017-era managed Postgres-compatible service.
        profile(
            "cloud-f",
            false,
            TargetCapabilities {
                name: "CloudWH-F",
                supported: FeatureSet::from_iter([
                    SubstrFunction,
                    ImplicitJoin,
                    OrdinalGroupBy,
                    DateArithmetic,
                    VectorSubquery,
                    GroupingExtensions,
                    RecursiveQuery,
                    StoredProcedureCall,
                    DmlOnView,
                ]),
                derived_table_column_aliases: true,
                top_clause: false,
                with_ties: false,
                limit_clause: true,
                returning_clause: true,
                session_settings: false,
                mod_style: ModStyle::Percent,
                date_add_style: DateAddStyle::IntervalLiteral,
                add_months_style: AddMonthsStyle::IntervalLiteral,
            },
        ),
    ]
}

/// Every registered profile, registry order: the executable pair first,
/// then the six surveyed cloud profiles of Figure 2.
pub fn all() -> Vec<TargetProfile> {
    let mut all = vec![simwh(), simwh_reduced()];
    all.extend(clouds());
    all
}

/// The profiles whose serialized SQL the bundled engine executes.
pub fn executable() -> Vec<TargetProfile> {
    all().into_iter().filter(|p| p.executable).collect()
}

/// The six surveyed cloud profiles (Figure 2's population).
pub fn surveyed() -> Vec<TargetProfile> {
    clouds().into()
}

/// Look a profile up by registry name, case-insensitively; `_` and `-`
/// are interchangeable (`cloud_a` resolves like `cloud-a`).
pub fn lookup(name: &str) -> Option<TargetProfile> {
    let key: String = name
        .chars()
        .map(|c| if c == '_' { '-' } else { c.to_ascii_lowercase() })
        .collect();
    all().into_iter().find(|p| p.name == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::LimitSpelling;

    #[test]
    fn lookup_resolves_every_registered_name() {
        for p in all() {
            assert_eq!(lookup(&p.name).as_ref(), Some(&p));
        }
        assert_eq!(lookup("SIMWH").map(|p| p.name), Some("simwh".into()));
        assert_eq!(lookup("cloud_a").map(|p| p.name), Some("cloud-a".into()));
        assert_eq!(lookup("SimWH-Reduced").map(|p| p.name), Some("simwh-reduced".into()));
        assert!(lookup("no-such-target").is_none());
    }

    #[test]
    fn exactly_two_profiles_are_executable_and_they_differ() {
        let exec = executable();
        assert_eq!(
            exec.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            ["simwh", "simwh-reduced"]
        );
        let [a, b] = &exec[..] else { unreachable!() };
        assert_ne!(a.caps, b.caps, "executable profiles must differ in capabilities");
        assert_eq!(a.caps.limit_spelling(), LimitSpelling::Limit);
        assert_eq!(b.caps.limit_spelling(), LimitSpelling::None);
    }

    #[test]
    fn surveyed_are_the_cloud_profiles() {
        let names: Vec<String> = surveyed().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["cloud-a", "cloud-b", "cloud-c", "cloud-d", "cloud-e", "cloud-f"]);
        assert!(surveyed().iter().all(|p| !p.executable));
    }

    #[test]
    fn registry_names_are_stable_slugs() {
        for p in all() {
            assert!(
                p.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{}",
                p.name
            );
        }
    }
}
