//! Customer workload integration: every distinct query of both synthetic
//! workloads processes through the full pipeline, and the measured
//! Figure 8 statistics land near the published values.

use hyperq::workload::customer::{health, telco};
use hyperq::xtra::feature::FeatureClass;
use hyperq_bench::figures::{measure_workload, WorkloadStats};

/// (8a, 8b) for one class: share of its tracked features seen, share of
/// distinct queries affected.
fn class_stats(s: &WorkloadStats, class: FeatureClass) -> (f64, f64) {
    (s.feature_coverage_pct(class), s.queries_affected_pct(class))
}

#[test]
fn health_distinct_queries_all_process() {
    // `measure_workload` panics on the first query that fails.
    let w = health(0.05);
    assert_eq!(measure_workload(&w).distinct_queries, w.distinct.len() as u64);
}

#[test]
fn telco_distinct_queries_all_process() {
    let w = telco(0.02);
    assert_eq!(measure_workload(&w).distinct_queries, w.distinct.len() as u64);
}

#[test]
fn health_figure8_statistics_near_paper() {
    // At scale 0.2 the shares stabilize; the paper reports (8a) 55.6 / 77.8
    // / 33.3 % of tracked features and (8b) 1.4 / 33.6 / 0.2 % of distinct
    // queries for translation / transformation / emulation.
    let s = measure_workload(&health(0.2));
    let tr = class_stats(&s, FeatureClass::Translation);
    let xf = class_stats(&s, FeatureClass::Transformation);
    let em = class_stats(&s, FeatureClass::Emulation);
    // 8a: feature coverage per class.
    assert!((tr.0 - 55.6).abs() < 0.2, "{}", tr.0);
    assert!((xf.0 - 77.8).abs() < 0.2, "{}", xf.0);
    assert!((em.0 - 33.3).abs() < 0.2, "{}", em.0);
    // 8b: distinct queries affected, within a couple of points.
    assert!((tr.1 - 1.4).abs() < 1.0, "{}", tr.1);
    assert!((xf.1 - 33.6).abs() < 2.0, "{}", xf.1);
    assert!(em.1 < 2.0, "{}", em.1);
}

#[test]
fn telco_figure8_statistics_near_paper() {
    // Paper: (8a) 22.2 / 66.7 / 33.3; (8b) 0.2 / 4.0 / 79.1 — macros
    // dominate.
    let s = measure_workload(&telco(0.1));
    let tr = class_stats(&s, FeatureClass::Translation);
    let xf = class_stats(&s, FeatureClass::Transformation);
    let em = class_stats(&s, FeatureClass::Emulation);
    assert!((tr.0 - 22.2).abs() < 0.2, "{}", tr.0);
    assert!((xf.0 - 66.7).abs() < 0.2, "{}", xf.0);
    assert!((em.0 - 33.3).abs() < 0.2, "{}", em.0);
    assert!(tr.1 < 1.0, "{}", tr.1);
    assert!((xf.1 - 4.0).abs() < 1.5, "{}", xf.1);
    assert!((em.1 - 79.1).abs() < 2.0, "{}", em.1);
}
