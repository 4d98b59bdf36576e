//! The migration-assessment report: the aggregate artifact the paper's
//! adoption methodology produces from a captured workload (§3).
//!
//! Rendering is byte-stable: every collection is emitted in a fixed order
//! (taxonomy order for features and emulation kinds, count-descending
//! then lexicographic for blockers and lints), so CI can diff a committed
//! snapshot against a fresh run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hyperq_core::conformance::Severity;
use hyperq_core::EmulationKind;
use hyperq_obs::ObsContext;
use hyperq_xtra::feature::Feature;

use crate::{StatementAssessment, Verdict};

/// Aggregated assessment over a corpus.
#[derive(Debug, Clone)]
pub struct Report {
    pub target: String,
    pub total: usize,
    pub translatable: usize,
    pub needs_emulation: usize,
    pub unsupported: usize,
    /// Statements predicted to request each emulation kind (taxonomy
    /// order, zero-count kinds omitted).
    pub emulation_counts: Vec<(EmulationKind, usize)>,
    /// Statements exhibiting each tracked feature (T1..E9 order,
    /// zero-count features omitted).
    pub feature_counts: Vec<(Feature, usize)>,
    /// Unsupported-statement reasons, ranked by frequency then name.
    pub blockers: Vec<(String, usize)>,
    /// Advisory lint findings by `severity rule`, ranked likewise.
    pub lint_counts: Vec<(String, usize)>,
    /// Tables fabricated from usage alone (no DDL in the corpus).
    pub inferred_tables: Vec<String>,
}

impl Report {
    pub fn build(
        target: &str,
        assessments: &[StatementAssessment],
        inferred_tables: Vec<String>,
    ) -> Report {
        let mut translatable = 0;
        let mut needs_emulation = 0;
        let mut unsupported = 0;
        let mut emu: BTreeMap<EmulationKind, usize> = BTreeMap::new();
        let mut feat: BTreeMap<Feature, usize> = BTreeMap::new();
        let mut blockers: BTreeMap<String, usize> = BTreeMap::new();
        let mut lints: BTreeMap<String, usize> = BTreeMap::new();
        for sa in assessments {
            match &sa.verdict {
                Verdict::Translatable => translatable += 1,
                Verdict::NeedsEmulation { kinds, .. } => {
                    needs_emulation += 1;
                    for k in kinds {
                        *emu.entry(*k).or_default() += 1;
                    }
                }
                Verdict::Unsupported { reason, .. } => {
                    unsupported += 1;
                    *blockers.entry(normalize_reason(reason)).or_default() += 1;
                }
            }
            for f in sa.features.iter() {
                *feat.entry(f).or_default() += 1;
            }
            for finding in &sa.findings {
                let sev = match finding.severity {
                    Severity::Info => "info",
                    Severity::Warning => "warning",
                    Severity::Error => "error",
                };
                *lints.entry(format!("{sev} {}", finding.rule)).or_default() += 1;
            }
        }
        let emulation_counts = EmulationKind::ALL
            .iter()
            .filter_map(|k| emu.get(k).map(|&n| (*k, n)))
            .collect();
        let feature_counts = Feature::ALL
            .iter()
            .filter_map(|f| feat.get(f).map(|&n| (*f, n)))
            .collect();
        Report {
            target: target.to_string(),
            total: assessments.len(),
            translatable,
            needs_emulation,
            unsupported,
            emulation_counts,
            feature_counts,
            blockers: ranked(blockers),
            lint_counts: ranked(lints),
            inferred_tables,
        }
    }

    /// Directly-or-emulated share, in tenths of a percent (integer math,
    /// so rendering is byte-stable across platforms).
    pub fn supported_permille(&self) -> usize {
        if self.total == 0 {
            return 0;
        }
        (self.translatable + self.needs_emulation) * 1000 / self.total
    }

    /// Record the `hyperq_assess_*` metric family into an observability
    /// context.
    pub fn record_metrics(&self, obs: &ObsContext) {
        let m = &obs.metrics;
        let target = self.target.as_str();
        m.counter(
            "hyperq_assess_statements_total",
            &[("verdict", "translatable"), ("target", target)],
        )
        .add(self.translatable as u64);
        m.counter(
            "hyperq_assess_statements_total",
            &[("verdict", "needs_emulation"), ("target", target)],
        )
        .add(self.needs_emulation as u64);
        m.counter(
            "hyperq_assess_statements_total",
            &[("verdict", "unsupported"), ("target", target)],
        )
        .add(self.unsupported as u64);
        for (kind, n) in &self.emulation_counts {
            m.counter(
                "hyperq_assess_emulation_predicted_total",
                &[("kind", kind.as_str()), ("target", target)],
            )
            .add(*n as u64);
        }
    }

    /// The byte-stable text rendering (the CI golden snapshot format).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "hyperq-assess report — target {}", self.target);
        let _ = writeln!(
            out,
            "statements: {} total / {} translatable / {} needs-emulation / {} unsupported",
            self.total, self.translatable, self.needs_emulation, self.unsupported
        );
        let pm = self.supported_permille();
        let _ = writeln!(
            out,
            "supported: {}.{}% ({} of {})",
            pm / 10,
            pm % 10,
            self.translatable + self.needs_emulation,
            self.total
        );
        if !self.inferred_tables.is_empty() {
            let _ = writeln!(
                out,
                "inferred tables (usage only, no DDL): {}",
                self.inferred_tables.join(", ")
            );
        }
        if !self.emulation_counts.is_empty() {
            let _ = writeln!(out, "emulation histogram:");
            for (kind, n) in &self.emulation_counts {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>6}  cost={}",
                    kind.as_str(),
                    n,
                    kind.cost_tier().as_str()
                );
            }
        }
        if !self.feature_counts.is_empty() {
            let _ = writeln!(out, "feature frequencies:");
            for (f, n) in &self.feature_counts {
                let _ = writeln!(out, "  {} {:<28} {:>6}", f.code(), f.title(), n);
            }
        }
        if !self.blockers.is_empty() {
            let _ = writeln!(out, "blockers (ranked):");
            for (reason, n) in &self.blockers {
                let _ = writeln!(out, "  {n:>4}x  {reason}");
            }
        }
        if !self.lint_counts.is_empty() {
            let _ = writeln!(out, "advisory lints:");
            for (rule, n) in &self.lint_counts {
                let _ = writeln!(out, "  {n:>4}x  {rule}");
            }
        }
        out
    }

    /// JSON rendering (hand-rolled; the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"target\":{}", json_str(&self.target));
        let _ = write!(
            out,
            ",\"statements\":{{\"total\":{},\"translatable\":{},\"needs_emulation\":{},\"unsupported\":{}}}",
            self.total, self.translatable, self.needs_emulation, self.unsupported
        );
        let pm = self.supported_permille();
        let _ = write!(out, ",\"supported_percent\":{}.{}", pm / 10, pm % 10);
        out.push_str(",\"emulation_histogram\":{");
        for (i, (kind, n)) in self.emulation_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{n}", json_str(kind.as_str()));
        }
        out.push_str("},\"feature_frequencies\":{");
        for (i, (f, n)) in self.feature_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{n}", json_str(f.code()));
        }
        out.push_str("},\"blockers\":[");
        for (i, (reason, n)) in self.blockers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"reason\":{},\"count\":{n}}}", json_str(reason));
        }
        out.push_str("],\"advisory_lints\":[");
        for (i, (rule, n)) in self.lint_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"rule\":{},\"count\":{n}}}", json_str(rule));
        }
        out.push_str("],\"inferred_tables\":[");
        for (i, t) in self.inferred_tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(t));
        }
        out.push_str("]}");
        out
    }
}

/// Count-descending, then lexicographic.
fn ranked(map: BTreeMap<String, usize>) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// Collapse statement-specific noise (literals, generated names) so equal
/// failure modes rank as one blocker.
fn normalize_reason(reason: &str) -> String {
    let mut out = String::with_capacity(reason.len());
    let mut in_number = false;
    let mut in_quote = false;
    for c in reason.chars() {
        if in_quote {
            if c == '\'' {
                in_quote = false;
                out.push_str("'…'");
            }
            continue;
        }
        match c {
            '\'' => in_quote = true,
            '0'..='9' => {
                if !in_number {
                    out.push('N');
                    in_number = true;
                }
            }
            _ => {
                in_number = false;
                out.push(c);
            }
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_core::capability::TargetCapabilities;

    #[test]
    fn report_is_byte_stable_and_json_is_wellformed() {
        let mut a = crate::Assessor::new(TargetCapabilities::simwh());
        a.ingest_ddl("CREATE TABLE T (A INTEGER)");
        let script = "SELECT A FROM T; BT; INSERT INTO T SELECT 1; ET; EXEC NOPE(1)";
        let one = a.assess_script(script);
        let r1 = Report::build("simwh", &one, a.inferred_tables());

        let mut b = crate::Assessor::new(TargetCapabilities::simwh());
        b.ingest_ddl("CREATE TABLE T (A INTEGER)");
        let two = b.assess_script(script);
        let r2 = Report::build("simwh", &two, b.inferred_tables());

        assert_eq!(r1.to_text(), r2.to_text());
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.total, 5);
        assert_eq!(r1.unsupported, 1);
        assert!(r1.to_text().contains("emulation histogram:"));
        assert!(r1.to_json().starts_with('{') && r1.to_json().ends_with('}'));
    }

    #[test]
    fn reasons_normalize_literals_and_numbers() {
        assert_eq!(normalize_reason("macro M7 is not defined"), "macro MN is not defined");
        assert_eq!(normalize_reason("value 'x y' bad"), "value '…' bad");
    }
}
