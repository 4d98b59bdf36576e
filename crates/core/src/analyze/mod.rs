//! Static-analysis layer for the pipeline: the plan validator and the
//! rewrite-rule soundness auditor, wired into observability.
//!
//! The checker itself ([`hyperq_xtra::validate`]) is pure; this module
//! decides *when* it runs and *what happens* when it finds something:
//!
//! * [`Analyzer::check_plan`] — validate a bound/transformed plan at a
//!   pipeline stage boundary,
//! * [`Analyzer::transform`] — run the [`Transformer`] in audited mode,
//!   re-validating the tree after every rule application and checking the
//!   rule preserved the plan's output schema (names + types), attributing
//!   any breakage to the rule by name,
//! * [`Analyzer::audit_roundtrip`] — strict mode only: re-parse the
//!   serialized SQL-B in the ANSI dialect, re-bind it against the same
//!   catalog, and diff the output schemas.
//!
//! Everything reports through [`ObsContext`]:
//! `hyperq_validation_checks_total{stage}`,
//! `hyperq_validation_violations_total{invariant}`,
//! `hyperq_rule_audit_failures_total{rule}`, and the shared
//! `hyperq_stage_duration_seconds{stage="validate"}` histogram.
//!
//! The [`AnalyzeMode`] threads through `HyperQ` (and the gateway config):
//! `Strict` turns findings into errors — the configuration for tests and
//! CI — while `LogOnly` (the production default) only counts them so live
//! traffic degrades gracefully, and `Off` skips the walks entirely.

use std::sync::Arc;
use std::time::Instant;

use hyperq_obs::{Counter, Histogram, ObsContext};
use hyperq_parser::{parse_statements, Dialect};
use hyperq_xtra::catalog::MetadataProvider;
use hyperq_xtra::feature::FeatureSet;
use hyperq_xtra::rel::Plan;
use hyperq_xtra::schema::Schema;
use hyperq_xtra::types::SqlType;
use hyperq_xtra::validate::{
    plan_output_schema, validate_plan, Invariant, ValidateOptions, ValidationReport,
};

use crate::binder::Binder;
use crate::capability::TargetCapabilities;
use crate::crosscompiler::STAGE_DURATION_METRIC;
use crate::error::{HyperQError, Result};
use crate::transform::Transformer;

/// How the static-analysis layer reacts to findings. The conformance
/// layer takes the same three modes as [`crate::ConformanceMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeMode {
    /// No validation walks at all.
    Off,
    /// Validate and count violations in the metrics registry, but never
    /// fail a statement — the production default, so live traffic degrades
    /// gracefully instead of erroring on a checker regression.
    #[default]
    LogOnly,
    /// Violations become [`HyperQError::Validation`] errors, and the
    /// serializer round-trip audit runs. Used by tests and CI.
    Strict,
}

impl AnalyzeMode {
    pub fn is_strict(&self) -> bool {
        matches!(self, AnalyzeMode::Strict)
    }

    /// Stable lowercase name, used as the provenance-record verdict label.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalyzeMode::Off => "off",
            AnalyzeMode::LogOnly => "log_only",
            AnalyzeMode::Strict => "strict",
        }
    }
}

/// The per-session analysis driver: mode + pre-resolved metric handles.
pub struct Analyzer {
    mode: AnalyzeMode,
    obs: Arc<ObsContext>,
    /// Validation walk latency, part of the shared stage-duration family.
    duration: Arc<Histogram>,
    checks_bind: Arc<Counter>,
    checks_serializer: Arc<Counter>,
}

impl Analyzer {
    pub fn new(mode: AnalyzeMode, obs: &Arc<ObsContext>) -> Self {
        let checks = |stage| {
            obs.metrics
                .counter("hyperq_validation_checks_total", &[("stage", stage)])
        };
        Analyzer {
            mode,
            obs: Arc::clone(obs),
            duration: obs
                .metrics
                .histogram(STAGE_DURATION_METRIC, &[("stage", "validate")]),
            checks_bind: checks("bind"),
            checks_serializer: checks("serializer"),
        }
    }

    pub fn mode(&self) -> AnalyzeMode {
        self.mode
    }

    /// This analyzer in `Off` mode: a preview's, which checks and records
    /// nothing.
    pub(crate) fn off(&self) -> Analyzer {
        Analyzer {
            mode: AnalyzeMode::Off,
            obs: Arc::clone(&self.obs),
            duration: Arc::clone(&self.duration),
            checks_bind: Arc::clone(&self.checks_bind),
            checks_serializer: Arc::clone(&self.checks_serializer),
        }
    }

    fn count_check(&self, stage: &str) {
        match stage {
            "bind" => self.checks_bind.inc(),
            "serializer" => self.checks_serializer.inc(),
            other => self
                .obs
                .metrics
                .counter("hyperq_validation_checks_total", &[("stage", other)])
                .inc(),
        }
    }

    fn count_violation(&self, invariant: Invariant) {
        hyperq_obs::provenance::note_violation();
        self.obs
            .metrics
            .counter(
                "hyperq_validation_violations_total",
                &[("invariant", invariant.name())],
            )
            .inc();
    }

    fn count_report(&self, report: &ValidationReport) {
        for v in &report.violations {
            self.count_violation(v.invariant);
        }
    }

    /// Validate a plan at a stage boundary ("bind" right after binding,
    /// "serializer" right before serialization — the gate that keeps
    /// engine-internal semi/anti joins and malformed trees away from the
    /// serializers).
    pub fn check_plan(&self, plan: &Plan, stage: &'static str) -> Result<()> {
        if self.mode == AnalyzeMode::Off {
            return Ok(());
        }
        let t0 = Instant::now();
        let report = validate_plan(plan, &ValidateOptions::default());
        let d = t0.elapsed();
        self.duration.record(d);
        hyperq_obs::provenance::note_stage("validate", d);
        self.count_check(stage);
        if report.is_clean() {
            return Ok(());
        }
        self.count_report(&report);
        if self.mode.is_strict() {
            return Err(HyperQError::Validation(format!("{stage} stage: {report}")));
        }
        Ok(())
    }

    /// Run the transformer under audit: in `Off` mode this is a plain
    /// [`Transformer::run_all`]; otherwise every rule application is
    /// followed by a re-validation plus an output-schema preservation
    /// check, and a broken rewrite is attributed to the rule by name.
    pub fn transform(
        &self,
        transformer: &Transformer,
        plan: Plan,
        caps: &TargetCapabilities,
        fired: &mut FeatureSet,
    ) -> Result<Plan> {
        if self.mode == AnalyzeMode::Off {
            return transformer.run_all(plan, caps, fired);
        }
        let opts = ValidateOptions::default();
        let strict = self.mode.is_strict();
        let mut expected = plan_output_schema(&plan);
        transformer.run_all_audited(plan, caps, fired, &mut |rule, plan| {
            let t0 = Instant::now();
            let report = validate_plan(plan, &opts);
            let now = plan_output_schema(plan);
            let drift = match (&expected, &now) {
                (Some(before), Some(after)) => schema_drift(before, after),
                _ => None,
            };
            let d = t0.elapsed();
            self.duration.record(d);
            hyperq_obs::provenance::note_stage("validate", d);
            // The next rule is audited against the tree this one produced,
            // even in log-only mode, so one bad rule is blamed exactly once.
            expected = now;
            if report.is_clean() && drift.is_none() {
                return Ok(());
            }
            self.count_report(&report);
            if drift.is_some() {
                self.count_violation(Invariant::RuleSchemaDrift);
            }
            self.obs
                .metrics
                .counter("hyperq_rule_audit_failures_total", &[("rule", rule)])
                .inc();
            if strict {
                let mut msg = format!("rule '{rule}' broke the plan");
                if let Some(d) = drift {
                    msg.push_str(&format!(": output schema changed ({d})"));
                }
                if !report.is_clean() {
                    msg.push_str(&format!(": {report}"));
                }
                return Err(HyperQError::Validation(msg));
            }
            Ok(())
        })
    }

    /// Strict-mode serializer round-trip audit: re-parse the serialized
    /// SQL in the ANSI dialect (the same dialect the engine itself uses to
    /// parse serialized requests), re-bind it against the catalog, and
    /// diff the output schema against the plan that was serialized.
    pub fn audit_roundtrip(
        &self,
        sql: &str,
        plan: &Plan,
        catalog: &dyn MetadataProvider,
    ) -> Result<()> {
        if !self.mode.is_strict() {
            return Ok(());
        }
        let Some(expected) = plan_output_schema(plan) else {
            return Ok(());
        };
        let t0 = Instant::now();
        let outcome = self.roundtrip_inner(sql, &expected, catalog);
        let d = t0.elapsed();
        self.duration.record(d);
        hyperq_obs::provenance::note_stage("validate", d);
        self.count_check("roundtrip");
        if let Err(detail) = outcome {
            self.count_violation(Invariant::RoundTrip);
            return Err(HyperQError::Validation(format!(
                "serializer round-trip: {detail}"
            )));
        }
        Ok(())
    }

    fn roundtrip_inner(
        &self,
        sql: &str,
        expected: &Schema,
        catalog: &dyn MetadataProvider,
    ) -> std::result::Result<(), String> {
        let stmts = parse_statements(sql, Dialect::Ansi)
            .map_err(|e| format!("serialized SQL does not re-parse: {e} — {sql}"))?;
        let [ps] = &stmts[..] else {
            return Err(format!(
                "serialized SQL re-parses into {} statements — {sql}",
                stmts.len()
            ));
        };
        let mut binder = Binder::new(catalog);
        let rebound = binder
            .bind_statement(&ps.stmt)
            .map_err(|e| format!("serialized SQL does not re-bind: {e} — {sql}"))?;
        let Some(actual) = plan_output_schema(&rebound) else {
            return Err(format!("serialized SQL re-bound to a schemaless plan — {sql}"));
        };
        if let Some(diff) = roundtrip_drift(expected, &actual) {
            return Err(format!("output schema diverged ({diff}) — {sql}"));
        }
        Ok(())
    }
}

/// Schema-preservation check for rewrite rules: same width, same output
/// names (case-insensitive), same types up to `Unknown`. Qualifiers and
/// nullability are rule-visible implementation detail (e.g. the with-ties
/// lowering re-projects through a derived table and legitimately drops
/// qualifiers), so they do not participate.
fn schema_drift(before: &Schema, after: &Schema) -> Option<String> {
    if before.len() != after.len() {
        return Some(format!(
            "{} columns before, {} after",
            before.len(),
            after.len()
        ));
    }
    for (b, a) in before.fields.iter().zip(after.fields.iter()) {
        if !b.name.eq_ignore_ascii_case(&a.name) {
            return Some(format!("column {} renamed to {}", b.name, a.name));
        }
        if b.ty != a.ty && b.ty != SqlType::Unknown && a.ty != SqlType::Unknown {
            return Some(format!("column {} retyped {} -> {}", b.name, b.ty, a.ty));
        }
    }
    None
}

/// Round-trip comparison is looser on types than the rule audit: re-binding
/// serialized SQL re-derives expression types from scratch, and lattice
/// widenings (integer vs. double, decimal precision) are expected — only
/// incompatible types (no common supertype) count as divergence.
fn roundtrip_drift(expected: &Schema, actual: &Schema) -> Option<String> {
    if expected.len() != actual.len() {
        return Some(format!(
            "{} columns expected, {} re-bound",
            expected.len(),
            actual.len()
        ));
    }
    for (e, a) in expected.fields.iter().zip(actual.fields.iter()) {
        if !e.name.eq_ignore_ascii_case(&a.name) {
            return Some(format!("column {} re-bound as {}", e.name, a.name));
        }
        if e.ty.common_supertype(&a.ty).is_none() {
            return Some(format!(
                "column {} expected type {}, re-bound as {}",
                e.name, e.ty, a.ty
            ));
        }
    }
    None
}
