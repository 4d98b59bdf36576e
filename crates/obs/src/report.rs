//! Workload intelligence: the paper's evaluation artifacts as a
//! projection of the per-fingerprint [`StatementTable`](crate::statements::StatementTable).
//!
//! * **Figure 7 analog** — where time goes: aggregate stage shares plus
//!   the distribution of per-query translation-overhead ratios
//!   (translation time relative to end-to-end time).
//! * **Figure 8 analog** — feature usage: for every tracked non-standard
//!   feature code, how many statements and how many distinct fingerprints
//!   used it.
//! * Top-N queries by latency, by volume and by emulation cost, and cache
//!   efficiency by fingerprint.
//!
//! Everything is read off the table's rows — nothing here re-parses SQL,
//! folds records or consults other registries — and renders as both JSON
//! and aligned plain text.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::metrics::{json_map, json_str};
use crate::statements::{StatementRow, BAND_LABELS};

/// Aggregate time spent in one pipeline stage across the workload.
#[derive(Debug, Clone)]
pub struct StageShare {
    pub stage: String,
    pub total: Duration,
    /// Share of the summed end-to-end time, in percent.
    pub share_pct: f64,
}

/// One band of the per-query overhead-ratio distribution (Figure 7
/// analog): how many queries spent this fraction of their end-to-end time
/// in translation.
#[derive(Debug, Clone)]
pub struct OverheadBand {
    pub label: &'static str,
    pub queries: u64,
    pub share_pct: f64,
}

/// Feature-usage frequency (Figure 8 analog) for one tracked feature code.
#[derive(Debug, Clone)]
pub struct FeatureRow {
    pub code: String,
    pub statements: u64,
    pub statement_pct: f64,
    pub distinct_queries: u64,
    pub distinct_pct: f64,
}

/// The workload analytics projected from the statement table.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub statements: u64,
    pub errors: u64,
    pub distinct_fingerprints: u64,
    pub retries: u64,
    pub recoveries: u64,
    pub admission_wait: Duration,
    pub stage_shares: Vec<StageShare>,
    /// Mean per-query translation-overhead ratio, percent.
    pub mean_overhead_pct: f64,
    pub overhead_bands: Vec<OverheadBand>,
    pub features: Vec<FeatureRow>,
    pub top_latency: Vec<StatementRow>,
    pub top_volume: Vec<StatementRow>,
    pub top_emulation: Vec<StatementRow>,
    /// Fingerprints the cache saw, by hits + misses + bypasses.
    pub cache_rows: Vec<StatementRow>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_bypasses: u64,
}

const TOP_N: usize = 5;
const CACHE_ROWS: usize = 10;

fn pct(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

/// Order feature codes T1…T9, X1…X9, E1…E9, then anything unknown.
fn feature_order(code: &str) -> (u8, u32, String) {
    let class = match code.as_bytes().first() {
        Some(b'T') => 0,
        Some(b'X') => 1,
        Some(b'E') => 2,
        _ => 3,
    };
    let num = code.get(1..).and_then(|s| s.parse().ok()).unwrap_or(u32::MAX);
    (class, num, code.to_string())
}

/// The `n` rows ranked highest by `key` (ties by fingerprint).
fn top(rows: &[StatementRow], n: usize, key: impl Fn(&StatementRow) -> u64) -> Vec<StatementRow> {
    let mut ranked: Vec<&StatementRow> = rows.iter().filter(|r| key(r) > 0).collect();
    ranked.sort_by(|a, b| key(b).cmp(&key(a)).then(a.fingerprint.cmp(&b.fingerprint)));
    ranked.into_iter().take(n).cloned().collect()
}

fn hit_rate_pct(r: &StatementRow) -> f64 {
    pct(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64)
}

impl WorkloadReport {
    /// Project statement-table rows ([`StatementTable::snapshot`](crate::statements::StatementTable::snapshot))
    /// onto the report.
    pub fn from_rows(rows: &[StatementRow]) -> WorkloadReport {
        let sum = |f: fn(&StatementRow) -> u64| rows.iter().map(f).sum::<u64>();
        let statements = sum(|r| r.calls);
        let distinct_fingerprints = rows.len() as u64;

        // Figure 7 analog: aggregate stage shares plus per-query overhead
        // ratio bands.
        let mut stage_totals: BTreeMap<&str, Duration> = BTreeMap::new();
        let mut bands = [0u64; BAND_LABELS.len()];
        let mut overhead_sum = 0.0f64;
        for r in rows {
            for &(stage, d) in &r.stages {
                *stage_totals.entry(stage).or_default() += d;
            }
            for (total, n) in bands.iter_mut().zip(r.overhead_bands) {
                *total += n;
            }
            overhead_sum += r.overhead_pct_sum;
        }
        let grand_total: Duration = rows.iter().map(|r| r.total).sum();
        let overhead_n: u64 = bands.iter().sum();
        let stage_shares = stage_totals
            .into_iter()
            .map(|(stage, total)| StageShare {
                stage: stage.to_string(),
                total,
                share_pct: pct(total.as_secs_f64(), grand_total.as_secs_f64()),
            })
            .collect();
        let overhead_bands = BAND_LABELS
            .iter()
            .zip(bands)
            .map(|(label, queries)| OverheadBand {
                label,
                queries,
                share_pct: pct(queries as f64, overhead_n as f64),
            })
            .collect();

        // Figure 8 analog: statements and distinct fingerprints per
        // feature code.
        let mut per_code: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for r in rows {
            for &(code, n) in &r.features {
                let (calls, distinct) = per_code.entry(code).or_default();
                *calls += n;
                *distinct += 1;
            }
        }
        let mut features: Vec<FeatureRow> = per_code
            .into_iter()
            .map(|(code, (count, distinct))| FeatureRow {
                code: code.to_string(),
                statements: count,
                statement_pct: pct(count as f64, statements as f64),
                distinct_queries: distinct,
                distinct_pct: pct(distinct as f64, distinct_fingerprints as f64),
            })
            .collect();
        features.sort_by_key(|f| feature_order(&f.code));

        WorkloadReport {
            statements,
            errors: sum(|r| r.errors),
            distinct_fingerprints,
            retries: sum(|r| r.retries),
            recoveries: sum(|r| r.recoveries),
            admission_wait: rows.iter().map(|r| r.admission_wait).sum(),
            stage_shares,
            mean_overhead_pct: if overhead_n == 0 { 0.0 } else { overhead_sum / overhead_n as f64 },
            overhead_bands,
            features,
            top_latency: top(rows, TOP_N, |r| r.total.as_nanos() as u64),
            top_volume: top(rows, TOP_N, |r| r.calls),
            top_emulation: top(rows, TOP_N, StatementRow::emulation_requests),
            cache_rows: top(rows, CACHE_ROWS, |r| r.cache_hits + r.cache_misses + r.cache_bypasses),
            cache_hits: sum(|r| r.cache_hits),
            cache_misses: sum(|r| r.cache_misses),
            cache_bypasses: sum(|r| r.cache_bypasses),
        }
    }

    /// Render the full report as JSON.
    pub fn render_json(&self) -> String {
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let fingerprint = |r: &StatementRow| format!("\"{:016x}\"", r.fingerprint);
        let top = |rows: &[StatementRow]| {
            list(rows
                .iter()
                .map(|q| {
                    json_map([
                        ("fingerprint", fingerprint(q)),
                        ("sample", json_str(&q.sample)),
                        ("executions", q.calls.to_string()),
                        ("total_seconds", q.total.as_secs_f64().to_string()),
                        ("mean_seconds", q.mean().as_secs_f64().to_string()),
                        ("max_seconds", q.max.as_secs_f64().to_string()),
                        ("rows", q.rows.to_string()),
                        ("emulations", q.emulation_requests().to_string()),
                    ])
                })
                .collect())
        };
        let stage_shares = self.stage_shares.iter().map(|s| {
            json_map([
                ("stage", json_str(&s.stage)),
                ("total_seconds", s.total.as_secs_f64().to_string()),
                ("share_pct", s.share_pct.to_string()),
            ])
        });
        let bands = self.overhead_bands.iter().map(|b| {
            json_map([
                ("band", json_str(b.label)),
                ("queries", b.queries.to_string()),
                ("share_pct", b.share_pct.to_string()),
            ])
        });
        let features = self.features.iter().map(|f| {
            json_map([
                ("code", json_str(&f.code)),
                ("statements", f.statements.to_string()),
                ("statement_pct", f.statement_pct.to_string()),
                ("distinct_queries", f.distinct_queries.to_string()),
                ("distinct_pct", f.distinct_pct.to_string()),
            ])
        });
        let cache_rows = self.cache_rows.iter().map(|c| {
            json_map([
                ("fingerprint", fingerprint(c)),
                ("sample", json_str(&c.sample)),
                ("hits", c.cache_hits.to_string()),
                ("misses", c.cache_misses.to_string()),
                ("bypasses", c.cache_bypasses.to_string()),
                ("hit_rate_pct", hit_rate_pct(c).to_string()),
            ])
        });
        json_map([
            ("statements", self.statements.to_string()),
            ("errors", self.errors.to_string()),
            ("distinct_fingerprints", self.distinct_fingerprints.to_string()),
            ("retries", self.retries.to_string()),
            ("recoveries", self.recoveries.to_string()),
            ("admission_wait_seconds", self.admission_wait.as_secs_f64().to_string()),
            ("mean_overhead_pct", self.mean_overhead_pct.to_string()),
            ("stage_shares", list(stage_shares.collect())),
            ("overhead_bands", list(bands.collect())),
            ("features", list(features.collect())),
            ("top_latency", top(&self.top_latency)),
            ("top_volume", top(&self.top_volume)),
            ("top_emulation", top(&self.top_emulation)),
            (
                "cache",
                json_map([
                    ("hits", self.cache_hits.to_string()),
                    ("misses", self.cache_misses.to_string()),
                    ("bypasses", self.cache_bypasses.to_string()),
                    ("by_fingerprint", list(cache_rows.collect())),
                ]),
            ),
        ])
    }

    /// Render the full report as aligned plain text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("workload report\n");
        out.push_str(&format!(
            "  statements {}  errors {}  distinct {}  retries {}  recoveries {}\n",
            self.statements, self.errors, self.distinct_fingerprints, self.retries,
            self.recoveries
        ));
        out.push_str(&format!(
            "  cache hits {}  misses {}  bypasses {}  admission wait {:.3?}\n\n",
            self.cache_hits, self.cache_misses, self.cache_bypasses, self.admission_wait
        ));

        out.push_str("stage shares (figure 7 analog)\n");
        out.push_str(&format!("  {:<10} {:>12} {:>8}\n", "stage", "total", "share"));
        for s in &self.stage_shares {
            out.push_str(&format!(
                "  {:<10} {:>12} {:>7.1}%\n",
                s.stage,
                format!("{:.3?}", s.total),
                s.share_pct
            ));
        }
        out.push_str(&format!(
            "  mean per-query translation overhead: {:.2}%\n",
            self.mean_overhead_pct
        ));
        out.push_str("  overhead-ratio distribution:\n");
        for b in &self.overhead_bands {
            out.push_str(&format!(
                "    {:<8} {:>8} {:>7.1}%\n",
                b.label, b.queries, b.share_pct
            ));
        }
        out.push('\n');

        out.push_str(&self.render_feature_table());
        out.push('\n');

        for (title, list) in [
            ("top queries by latency", &self.top_latency),
            ("top queries by volume", &self.top_volume),
            ("top queries by emulation cost", &self.top_emulation),
        ] {
            out.push_str(&format!("{title}\n"));
            if list.is_empty() {
                out.push_str("  (none)\n");
            } else {
                out.push_str(&format!(
                    "  {:<16} {:>6} {:>12} {:>12} {:>6} {}\n",
                    "fingerprint", "execs", "total", "mean", "emul", "sample"
                ));
                for q in list {
                    out.push_str(&format!(
                        "  {:016x} {:>6} {:>12} {:>12} {:>6} {}\n",
                        q.fingerprint,
                        q.calls,
                        format!("{:.3?}", q.total),
                        format!("{:.3?}", q.mean()),
                        q.emulation_requests(),
                        clip(&q.sample, 48)
                    ));
                }
            }
            out.push('\n');
        }

        out.push_str("cache efficiency by fingerprint\n");
        if self.cache_rows.is_empty() {
            out.push_str("  (none)\n");
        } else {
            out.push_str(&format!(
                "  {:<16} {:>6} {:>6} {:>8} {:>8} {}\n",
                "fingerprint", "hits", "miss", "bypass", "hitrate", "sample"
            ));
            for c in &self.cache_rows {
                out.push_str(&format!(
                    "  {:016x} {:>6} {:>6} {:>8} {:>7.1}% {}\n",
                    c.fingerprint,
                    c.cache_hits,
                    c.cache_misses,
                    c.cache_bypasses,
                    hit_rate_pct(c),
                    clip(&c.sample, 48)
                ));
            }
        }
        out
    }

    /// Render only the Figure 8 analog feature table. Contains counts and
    /// fixed-precision shares, so the output is byte-stable for a fixed
    /// workload.
    pub fn render_feature_table(&self) -> String {
        let mut out = String::new();
        out.push_str("feature usage (figure 8 analog)\n");
        out.push_str(&format!(
            "  {:<6} {:>10} {:>8} {:>10} {:>8}\n",
            "code", "stmts", "stmt%", "distinct", "dist%"
        ));
        for f in &self.features {
            out.push_str(&format!(
                "  {:<6} {:>10} {:>7.2}% {:>10} {:>7.2}%\n",
                f.code, f.statements, f.statement_pct, f.distinct_queries, f.distinct_pct
            ));
        }
        out
    }
}

fn clip(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_string();
    }
    let clipped: String = s.chars().take(max).collect();
    format!("{clipped}…")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::CacheOutcome;
    use crate::statements::tests::record;
    use crate::statements::StatementTable;
    use crate::ProvenanceRecord;

    fn folded(records: &[ProvenanceRecord]) -> Vec<StatementRow> {
        let table = StatementTable::default();
        for r in records {
            table.fold(r);
        }
        table.snapshot()
    }

    fn sample_records() -> Vec<ProvenanceRecord> {
        let mut records = Vec::new();
        for (seq, fp, features, cache, translation, execute) in [
            (0, 1, vec!["X1"], CacheOutcome::Miss, 10, 990),
            (1, 1, vec!["X1"], CacheOutcome::Hit, 5, 995),
            (2, 2, vec!["E2", "X1"], CacheOutcome::Bypass("volatile"), 500, 500),
            (3, 3, vec![], CacheOutcome::Uncached, 1, 999),
        ] {
            let mut r = record(seq, fp, translation + execute);
            r.stages = vec![
                ("bind", Duration::from_micros(translation)),
                ("execute", Duration::from_micros(execute)),
            ];
            if fp == 2 {
                r.emulations = vec![("macro", 2)];
            }
            r.features = features;
            r.cache = cache;
            r.rows = 4;
            records.push(r);
        }
        records
    }

    #[test]
    fn folds_figure7_and_figure8_analogs() {
        let table = StatementTable::default();
        for r in sample_records() {
            table.fold(&r);
        }
        let report = WorkloadReport::from_rows(&table.snapshot());
        assert_eq!(report.statements, 4);
        assert_eq!(report.distinct_fingerprints, 3);
        assert_eq!(
            (report.cache_hits, report.cache_misses, report.cache_bypasses),
            (1, 1, 1)
        );
        // Feature table: X1 in 3 statements / 2 distinct; E2 in 1/1;
        // ordered T < X < E... X before E.
        let codes: Vec<&str> = report.features.iter().map(|f| f.code.as_str()).collect();
        assert_eq!(codes, vec!["X1", "E2"]);
        let x1 = &report.features[0];
        assert_eq!(x1.statements, 3);
        assert_eq!(x1.distinct_queries, 2);
        assert!((x1.statement_pct - 75.0).abs() < 1e-9);
        // Overhead bands: ratios 1%, 0.5%, 50%, 0.1% => one per band.
        let total_banded: u64 = report.overhead_bands.iter().map(|b| b.queries).sum();
        assert_eq!(total_banded, 4);
        let band = |label: &str| {
            report.overhead_bands.iter().find(|b| b.label == label).unwrap().queries
        };
        assert_eq!(band("<=0.5%"), 2);
        assert_eq!(band("0.5-1%"), 1);
        assert_eq!(band("25-50%"), 1);
        assert!((report.mean_overhead_pct - (1.0 + 0.5 + 50.0 + 0.1) / 4.0).abs() < 1e-9);
        // Stage shares include the convert stage once one is attached.
        assert!(!report.stage_shares.iter().any(|s| s.stage == "convert"));
        table.add_convert(1, Duration::from_micros(2));
        let report = WorkloadReport::from_rows(&table.snapshot());
        assert!(report.stage_shares.iter().any(|s| s.stage == "convert"));
    }

    #[test]
    fn top_n_and_cache_rows_are_ranked() {
        let report = WorkloadReport::from_rows(&folded(&sample_records()));
        assert_eq!(report.top_volume[0].fingerprint, 1);
        assert_eq!(report.top_volume[0].calls, 2);
        assert_eq!(report.top_latency[0].fingerprint, 1, "2 execs of fp 1 dominate total");
        assert_eq!(report.top_emulation.len(), 1);
        assert_eq!(report.top_emulation[0].fingerprint, 2);
        assert_eq!(report.top_emulation[0].emulation_requests(), 2);
        let fp1 = report.cache_rows.iter().find(|c| c.fingerprint == 1).unwrap();
        assert_eq!((fp1.cache_hits, fp1.cache_misses), (1, 1));
        assert!((hit_rate_pct(fp1) - 50.0).abs() < 1e-9);
        assert!(report.cache_rows.iter().all(|c| c.fingerprint != 3), "uncached row listed");
    }

    #[test]
    fn renders_json_text_and_stable_feature_table() {
        let rows = folded(&sample_records());
        let report = WorkloadReport::from_rows(&rows);
        let json = report.render_json();
        crate::json::validate(&json).expect("report JSON must parse");
        assert!(json.contains("\"features\":"));
        assert!(json.contains("\"overhead_bands\":"));
        let text = report.render_text();
        assert!(text.contains("figure 7 analog"), "{text}");
        assert!(text.contains("figure 8 analog"), "{text}");
        assert!(text.contains("cache efficiency by fingerprint"), "{text}");
        // Same rows, same bytes.
        let again = WorkloadReport::from_rows(&rows);
        assert_eq!(report.render_feature_table(), again.render_feature_table());
        assert_eq!(text, again.render_text());
    }

    #[test]
    fn empty_table_projects_without_panicking() {
        let report = WorkloadReport::from_rows(&[]);
        assert_eq!(report.statements, 0);
        assert_eq!(report.mean_overhead_pct, 0.0);
        crate::json::validate(&report.render_json()).unwrap();
        assert!(report.render_text().contains("(none)"));
    }
}
