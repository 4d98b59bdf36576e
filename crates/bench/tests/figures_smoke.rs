//! Smoke tests for the experiment harness at tiny scales: every repro
//! function must produce a structurally complete report quickly.

use std::time::Duration;

use hyperq_bench::figures;

#[test]
fn table1_report_structure() {
    let out = figures::table1(0.01);
    assert!(out.contains("Table 1"));
    assert!(out.contains("Health"));
    assert!(out.contains("Telco"));
}

#[test]
fn figure2_report_contains_all_surveyed_features() {
    let out = figures::figure2();
    for needle in [
        "QUALIFY",
        "Implicit joins",
        "Macros",
        "Recursive queries",
        "MERGE",
        "%",
    ] {
        assert!(out.contains(needle), "missing {needle}:\n{out}");
    }
}

#[test]
fn figure8_report_at_small_scale() {
    let out = figures::figure8(0.02);
    assert!(out.contains("Figure 8 (a)"));
    assert!(out.contains("Figure 8 (b)"));
    assert!(out.contains("Workload 1"));
    assert!(out.contains("Workload 2"));
    assert!(out.contains("[paper:"));
}

#[test]
fn figure9a_report_at_tiny_scale() {
    let out = figures::figure9a(0.0005);
    assert!(out.contains("Figure 9 (a)"));
    assert!(out.contains("requests: 22"), "{out}");
    assert!(out.contains("Hyper-Q overhead"), "{out}");
}

#[test]
fn figure9b_report_short_stress() {
    let out = figures::figure9b(0.0005, 3, Duration::from_secs(2));
    assert!(out.contains("Figure 9 (b)"));
    assert!(out.contains("3 concurrent sessions"), "{out}");
}

#[test]
fn table2_report_has_27_feature_rows() {
    let out = figures::table2_report();
    for code in ["T1", "T9", "X1", "X9", "E1", "E9"] {
        assert!(
            out.lines().any(|l| l.starts_with(code)),
            "missing row {code}:\n{out}"
        );
    }
    let feature_rows = out
        .lines()
        .filter(|l| {
            l.starts_with('T') || l.starts_with('X') || l.starts_with('E')
        })
        .count();
    assert!(feature_rows >= 27, "{feature_rows}");
}

#[test]
fn overhead_shape_translation_much_smaller_than_execution() {
    // Cold translation is a per-query constant while execution scales with
    // the data. Since joins build only the columns a statement reads, the
    // engine is fast enough that at SF 0.001 translation reaches about a
    // tenth of execution, which is no longer the shape of Figure 9a; at SF
    // 0.004 it is under a twentieth.
    let (translation, execution) = figures::tpch_overhead_inprocess(0.004);
    assert!(
        translation < execution / 10,
        "translation {translation:?} must be well under execution {execution:?}"
    );
}
