//! Golden migration-assessment reports: `hyperq-assess --corpus C
//! --target all` over every built-in corpus must match the committed
//! snapshot byte for byte, for every registered target profile. The
//! report format is deliberately byte-stable, so drift here is an
//! intentional, reviewed change (regenerate with the CLI and commit).

use hyperq::assess::{assess, Workload};
use hyperq::core::targets;

/// The text the CLI prints for `--target all`: one report per registered
/// profile, separated by a blank line.
fn all_targets_report(corpus: &str) -> String {
    let workload = Workload::corpus(corpus).expect("built-in corpus");
    let sections: Vec<String> =
        targets::all().into_iter().map(|p| assess(p, &workload).to_text()).collect();
    sections.join("\n")
}

fn check(corpus: &str, golden: &str) {
    let fresh = all_targets_report(corpus);
    let first_diff = golden.lines().zip(fresh.lines()).position(|(g, f)| g != f);
    assert!(
        fresh == golden,
        "assess_{corpus}.txt drifted (first differing line: {first_diff:?}); fresh report:\n{fresh}"
    );
}

#[test]
fn tpch_report_matches_golden() {
    check("tpch", include_str!("snapshots/assess_tpch.txt"));
}

#[test]
fn health_report_matches_golden() {
    check("health", include_str!("snapshots/assess_health.txt"));
}

#[test]
fn telco_report_matches_golden() {
    check("telco", include_str!("snapshots/assess_telco.txt"));
}
