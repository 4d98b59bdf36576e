//! Per-table/figure reproduction (paper §7 and Figure 2 / Tables 1–2).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use hyperq_core::backend::Backend;
use hyperq_core::capability::figure2_rows;
use hyperq_core::{HyperQBuilder, ObsContext};
use hyperq_engine::EngineDb;
use hyperq_wire::{Client, Gateway, GatewayConfig, WireStats};
use hyperq_workload::customer::{health, telco, CustomerWorkload};
use hyperq_workload::tpch;
use hyperq_xtra::feature::{Feature, FeatureClass};

use crate::harness::{bar, load_tpch};

// ---------------------------------------------------------------------------
// Table 1 — customer/workload overview
// ---------------------------------------------------------------------------

/// Regenerate Table 1: overview of customers and workloads. `scale` scales
/// the corpus (1.0 = published size).
pub fn table1(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: Overview of customers and workloads");
    let _ = writeln!(out, "{:-<66}", "");
    let _ = writeln!(
        out,
        "{:<10} {:<8} {:>22} {:>12}",
        "Customer", "Sector", "Total (Distinct)", "[paper]"
    );
    for (n, w) in [health(scale), telco(scale)].iter().enumerate() {
        let distinct: std::collections::HashSet<&String> = w.distinct.iter().collect();
        let paper = if n == 0 { "39731 (3778)" } else { "192753 (10446)" };
        let _ = writeln!(
            out,
            "{:<10} {:<8} {:>22} {:>14}",
            n + 1,
            w.profile.sector,
            format!("{} ({})", w.sequence.len(), distinct.len()),
            format!("[{paper}]"),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 2 — feature support across cloud databases
// ---------------------------------------------------------------------------

/// Regenerate Figure 2: % of surveyed cloud targets supporting each
/// selected Teradata feature, computed from the capability profiles that
/// also drive the serializer.
pub fn figure2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: Support for select Teradata features across major cloud databases"
    );
    let _ = writeln!(out, "{:-<78}", "");
    let mut rows = figure2_rows();
    rows.sort_by(|a, b| {
        b.percent_supported
            .partial_cmp(&a.percent_supported)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.feature.code().cmp(b.feature.code()))
    });
    for row in rows {
        let _ = writeln!(
            out,
            "{:<38} {} {:>5.1}%  ({})",
            row.feature.title(),
            bar(row.percent_supported, 20),
            row.percent_supported,
            if row.supporting.is_empty() {
                "none".to_string()
            } else {
                row.supporting.join(", ")
            }
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 8 — customer workload characteristics
// ---------------------------------------------------------------------------

/// Figure 8 counts for one workload, read off the statement table.
pub struct WorkloadStats {
    /// Statements in the replay sequence, repeats included.
    pub total_queries: u64,
    /// Distinct query texts.
    pub distinct_queries: u64,
    /// Distinct texts with a feature of each class, in
    /// [`FeatureClass::ALL`] order (the table's class order).
    pub class_queries: [u64; 3],
    /// Distinct texts per tracked feature, in [`Feature::ALL`] order.
    pub feature_queries: Vec<(Feature, u64)>,
}

impl WorkloadStats {
    /// 8a: share of the class's tracked features seen at least once.
    pub fn feature_coverage_pct(&self, class: FeatureClass) -> f64 {
        let of_class = || self.feature_queries.iter().filter(|(f, _)| f.class() == class);
        let seen = of_class().filter(|(_, n)| *n > 0).count();
        100.0 * seen as f64 / of_class().count() as f64
    }

    /// 8b: share of distinct texts with at least one feature of the class.
    pub fn queries_affected_pct(&self, class: FeatureClass) -> f64 {
        let ci = FeatureClass::ALL.iter().position(|c| *c == class).unwrap_or(0);
        100.0 * self.class_queries[ci] as f64 / self.distinct_queries.max(1) as f64
    }
}

/// Measured Figure 8 statistics for one workload: runs every distinct
/// query once through the instrumented pipeline against an empty-content
/// replica of the customer schema (feature measurement does not depend on
/// data volume), then reads the per-class and per-feature call counts off
/// the statement table. Each text runs once, so calls count distinct
/// texts even where several share a fingerprint.
pub fn measure_workload(w: &CustomerWorkload) -> WorkloadStats {
    let db = Arc::new(EngineDb::new());
    for ddl in &w.target_ddl {
        db.execute_sql(ddl).expect("workload DDL");
    }
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq_core::targets::simwh())
        .obs(Arc::clone(&obs))
        .no_cache()
        .build();
    for setup in &w.hyperq_setup {
        hq.run_one(setup).expect("workload setup through Hyper-Q");
    }
    obs.provenance.clear();
    for text in &w.distinct {
        hq.run_one(text).unwrap_or_else(|e| panic!("workload query failed: {text}: {e}"));
    }
    let rows = obs.provenance.statements().snapshot();
    let mut class_queries = [0u64; 3];
    for row in &rows {
        for (n, calls) in class_queries.iter_mut().zip(row.classes) {
            *n += calls;
        }
    }
    WorkloadStats {
        total_queries: w.sequence.len() as u64,
        distinct_queries: rows.iter().map(|r| r.calls).sum(),
        class_queries,
        feature_queries: Feature::ALL
            .iter()
            .map(|&f| (f, rows.iter().map(|r| r.feature_calls(f.code())).sum()))
            .collect(),
    }
}

/// Regenerate Figures 8a and 8b.
pub fn figure8(scale: f64) -> String {
    let mut out = String::new();
    let workloads = [health(scale), telco(scale)];
    let paper_8a = [[55.6, 77.8, 33.3], [22.2, 66.7, 33.3]];
    let paper_8b = [[1.4, 33.6, 0.2], [0.2, 4.0, 79.1]];
    let stats: Vec<WorkloadStats> = workloads.iter().map(measure_workload).collect();

    let _ = writeln!(
        out,
        "Figure 8 (a): Percentage of tracked features contained in each workload"
    );
    let _ = writeln!(out, "{:-<72}", "");
    for (wi, s) in stats.iter().enumerate() {
        let _ = writeln!(out, "{}:", workloads[wi].profile.name);
        for (ci, &class) in FeatureClass::ALL.iter().enumerate() {
            let pct = s.feature_coverage_pct(class);
            let _ = writeln!(
                out,
                "  {:<16} {} {:>5.1}%   [paper: {:.1}%]",
                class.name(),
                bar(pct, 20),
                pct,
                paper_8a[wi][ci]
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Figure 8 (b): Percentage of distinct queries affected by each feature class"
    );
    let _ = writeln!(out, "{:-<72}", "");
    for (wi, s) in stats.iter().enumerate() {
        let _ = writeln!(
            out,
            "{} ({} total, {} distinct):",
            workloads[wi].profile.name,
            s.total_queries,
            s.distinct_queries
        );
        for (ci, &class) in FeatureClass::ALL.iter().enumerate() {
            let pct = s.queries_affected_pct(class);
            let _ = writeln!(
                out,
                "  {:<16} {} {:>5.1}%   [paper: {:.1}%]",
                class.name(),
                bar(pct, 20),
                pct,
                paper_8b[wi][ci]
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Drill-down: distinct queries per tracked feature (beyond the paper's charts)"
    );
    let _ = writeln!(out, "{:-<72}", "");
    for (wi, s) in stats.iter().enumerate() {
        let _ = writeln!(out, "{}:", workloads[wi].profile.name);
        for &(feature, count) in &s.feature_queries {
            if count > 0 {
                let _ = writeln!(out, "  {:<42} {:>6}", feature.to_string(), count);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9 — Hyper-Q overhead
// ---------------------------------------------------------------------------

fn render_figure9(title: &str, stats: &WireStats, paper_note: &str) -> String {
    let mut out = String::new();
    let (t, e, c) = stats.shares();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:-<72}", "");
    let _ = writeln!(
        out,
        "  requests: {}   rows returned: {}   end-to-end: {:.3}s",
        stats.requests,
        stats.rows_returned,
        stats.end_to_end().as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  Execution            {} {:>6.2}%  ({:.3}s)",
        bar(e, 30),
        e,
        stats.execution.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  QueryTranslation     {} {:>6.2}%  ({:.4}s)",
        bar(t, 30),
        t,
        stats.translation.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  ResultTransformation {} {:>6.2}%  ({:.4}s)",
        bar(c, 30),
        c,
        stats.conversion.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  Hyper-Q overhead: {:.2}%   {paper_note}",
        t + c
    );
    out
}

/// Figure 9a: single sequential run of the 22 TPC-H queries through the
/// full wire path (client → gateway → Hyper-Q → warehouse).
pub fn figure9a(scale: f64) -> String {
    let db = load_tpch(scale, None);
    let handle = Gateway::spawn(db as Arc<dyn Backend>, GatewayConfig::default())
        .expect("gateway");
    let mut client = Client::connect(handle.addr, "APP", "secret").expect("connect");
    for (n, sql) in tpch::queries() {
        client.run(sql).unwrap_or_else(|e| panic!("Q{n}: {e}"));
    }
    let stats = handle.stats();
    handle.shutdown();
    render_figure9(
        &format!(
            "Figure 9 (a): Aggregated elapsed time, single sequential TPC-H run (SF {scale})"
        ),
        &stats,
        "[paper: <2% total — ~0.5% translation, ~1% result transformation]",
    )
}

/// Figure 9b: stress test — `sessions` concurrent clients replay TPC-H
/// queries against a slot-limited warehouse for `duration`.
pub fn figure9b(scale: f64, sessions: usize, duration: Duration) -> String {
    // The provisioned cluster of §7.2/7.3 is modeled as a warehouse with a
    // bounded number of concurrent execution slots; queueing under
    // concurrency is what grows execution time while Hyper-Q's per-query
    // translation stays constant.
    let db = load_tpch(scale, Some(2));
    let handle =
        Gateway::spawn(db as Arc<dyn Backend>, GatewayConfig::default()).expect("gateway");
    let addr = handle.addr;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut threads = Vec::new();
    for s in 0..sessions {
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, "APP", "secret").expect("connect");
            // Rotate through the faster queries to maximize request count.
            let rotation = [1usize, 3, 4, 5, 6, 10, 12, 13, 14, 19];
            let mut i = s; // desynchronize sessions
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let q = rotation[i % rotation.len()];
                let _ = client.run(tpch::query(q));
                i += 1;
            }
        }));
    }
    std::thread::sleep(duration);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    let stats = handle.stats();
    handle.shutdown();
    render_figure9(
        &format!(
            "Figure 9 (b): Aggregated elapsed time, stress test \
             ({sessions} concurrent sessions, SF {scale}, {}s)",
            duration.as_secs()
        ),
        &stats,
        "[paper: 0.1%–0.2% total overhead]",
    )
}

// ---------------------------------------------------------------------------
// Table 2 — feature implementation index
// ---------------------------------------------------------------------------

/// Regenerate Table 2 from the live feature registry.
pub fn table2_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Implementation details for the tracked features in Hyper-Q"
    );
    let _ = writeln!(out, "{:-<110}", "");
    let _ = writeln!(
        out,
        "{:<4} {:<34} {:<15} {:<20} Rewrite",
        "Id", "Feature", "Category", "Component"
    );
    let _ = writeln!(out, "{:-<110}", "");
    for feature in Feature::ALL {
        let _ = writeln!(
            out,
            "{:<4} {:<34} {:<15} {:<20} {}",
            feature.code(),
            feature.title(),
            feature.class().name(),
            feature.component().name(),
            feature.rewrite_synopsis()
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9 timing helper exposed for tests
// ---------------------------------------------------------------------------

/// Run the 22 queries once in-process (no wire) and return translation vs
/// execution time; used by tests to check the overhead shape cheaply.
pub fn tpch_overhead_inprocess(scale: f64) -> (Duration, Duration) {
    let db = load_tpch(scale, None);
    let mut hq = HyperQBuilder::for_target(db as Arc<dyn Backend>, hyperq_core::targets::simwh()).no_cache().build();
    let mut translation = Duration::ZERO;
    let mut execution = Duration::ZERO;
    for (n, sql) in tpch::queries() {
        let o = hq.run_one(sql).unwrap_or_else(|e| panic!("Q{n}: {e}"));
        translation += o.timings.translation;
        execution += o.timings.execution;
    }
    (translation, execution)
}
