//! Workload-study instrumentation (§7.1).
//!
//! Aggregates the per-statement [`FeatureSet`]s the pipeline reports into
//! the two statistics of Figure 8:
//!
//! * **8a** — for each rewrite class, the percentage of its 9 tracked
//!   features that appear at least once in the workload;
//! * **8b** — the percentage of *distinct* queries affected by each class
//!   ("within each class a query is counted at most once, even if it has
//!   more than one of the tracked features of that class, but a query may
//!   belong to two different rewriting categories").

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use hyperq_xtra::feature::{Feature, FeatureClass, FeatureSet};

/// Accumulates feature observations over a workload.
#[derive(Debug, Default, Clone)]
pub struct WorkloadTracker {
    /// Total statements observed (including repeats).
    pub total_queries: u64,
    /// Distinct queries, by a 64-bit hash of their text → the features
    /// observed for that query. A hash, not the text: a session serving
    /// ad-hoc statements would otherwise keep every statement it ever ran.
    distinct: HashMap<u64, FeatureSet>,
    /// Union of all features seen.
    seen: FeatureSet,
}

/// One class row of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    pub class: FeatureClass,
    /// 8a: share of the class's 9 tracked features observed at least once.
    pub feature_coverage_pct: f64,
    /// 8b: share of distinct queries containing at least one feature of
    /// this class.
    pub queries_affected_pct: f64,
    /// The features of this class that were observed.
    pub features_seen: Vec<Feature>,
}

impl WorkloadTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one executed statement. `query_text` identifies the distinct
    /// query (normalized by the caller if desired).
    pub fn observe(&mut self, query_text: &str, features: &FeatureSet) {
        self.total_queries += 1;
        self.seen.union(features);
        let mut key = DefaultHasher::new();
        query_text.hash(&mut key);
        self.distinct.entry(key.finish()).or_default().union(features);
    }

    pub fn distinct_queries(&self) -> u64 {
        self.distinct.len() as u64
    }

    /// Compute the Figure 8 statistics.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let distinct_total = self.distinct.len().max(1) as f64;
        FeatureClass::ALL
            .iter()
            .map(|&class| {
                let class_features: Vec<Feature> = Feature::ALL
                    .iter()
                    .copied()
                    .filter(|f| f.class() == class)
                    .collect();
                let seen: Vec<Feature> = class_features
                    .iter()
                    .copied()
                    .filter(|f| self.seen.contains(*f))
                    .collect();
                let affected = self
                    .distinct
                    .values()
                    .filter(|fs| fs.has_class(class))
                    .count();
                ClassStats {
                    class,
                    feature_coverage_pct: 100.0 * seen.len() as f64
                        / class_features.len() as f64,
                    queries_affected_pct: 100.0 * affected as f64 / distinct_total,
                    features_seen: seen,
                }
            })
            .collect()
    }

    /// Per-feature distinct-query counts (drill-down beyond the paper's
    /// charts).
    pub fn feature_counts(&self) -> Vec<(Feature, u64)> {
        Feature::ALL
            .iter()
            .map(|&f| {
                (
                    f,
                    self.distinct.values().filter(|fs| fs.contains(f)).count() as u64,
                )
            })
            .collect()
    }
}

/// Render the paper's Table 2 (feature → category → rewrite → component)
/// from the feature registry.
pub fn table2() -> Vec<(Feature, FeatureClass, &'static str, &'static str)> {
    Feature::ALL
        .iter()
        .map(|&f| (f, f.class(), f.rewrite_synopsis(), f.component().name()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(features: &[Feature]) -> FeatureSet {
        let mut s = FeatureSet::new();
        for f in features {
            s.insert(*f);
        }
        s
    }

    #[test]
    fn distinct_counting_dedupes_repeats() {
        let mut t = WorkloadTracker::new();
        for _ in 0..10 {
            t.observe("SELECT 1", &fs(&[Feature::Qualify]));
        }
        t.observe("SELECT 2", &fs(&[]));
        assert_eq!(t.total_queries, 11);
        assert_eq!(t.distinct_queries(), 2);
    }

    #[test]
    fn class_stats_match_hand_computation() {
        let mut t = WorkloadTracker::new();
        // 4 distinct queries: 2 with transformation features, 1 with an
        // emulation feature, 1 clean.
        t.observe("q1", &fs(&[Feature::Qualify, Feature::ImplicitJoin]));
        t.observe("q2", &fs(&[Feature::OrdinalGroupBy]));
        t.observe("q3", &fs(&[Feature::MacroStatement]));
        t.observe("q4", &fs(&[]));
        let stats = t.class_stats();
        let transform = stats
            .iter()
            .find(|s| s.class == FeatureClass::Transformation)
            .unwrap();
        // 3 of 9 transformation features seen.
        assert!((transform.feature_coverage_pct - 33.333).abs() < 0.01);
        // 2 of 4 distinct queries affected.
        assert!((transform.queries_affected_pct - 50.0).abs() < 1e-9);
        let emu = stats
            .iter()
            .find(|s| s.class == FeatureClass::Emulation)
            .unwrap();
        assert!((emu.queries_affected_pct - 25.0).abs() < 1e-9);
        let trans = stats
            .iter()
            .find(|s| s.class == FeatureClass::Translation)
            .unwrap();
        assert_eq!(trans.queries_affected_pct, 0.0);
    }

    #[test]
    fn query_counted_once_per_class() {
        // A query with three transformation features counts once for 8b.
        let mut t = WorkloadTracker::new();
        t.observe(
            "q",
            &fs(&[
                Feature::Qualify,
                Feature::ImplicitJoin,
                Feature::VectorSubquery,
            ]),
        );
        let stats = t.class_stats();
        let transform = stats
            .iter()
            .find(|s| s.class == FeatureClass::Transformation)
            .unwrap();
        assert_eq!(transform.queries_affected_pct, 100.0);
    }

    #[test]
    fn table2_has_all_27_rows() {
        let rows = table2();
        assert_eq!(rows.len(), 27);
        assert!(rows.iter().all(|(_, _, synopsis, comp)| {
            !synopsis.is_empty() && !comp.is_empty()
        }));
    }
}
