//! The Transformer (§4.3): pluggable rewrite rules cascaded to a fixed
//! point.
//!
//! "The Transformer takes care of running all relevant transformations
//! repeatedly until reaching a fixed point, where no further modifications
//! to the XTRA expression via transformation is possible."
//!
//! Rules are split into two phases, following §5:
//!
//! * **Binding** — target-agnostic normalization, applied as early as
//!   possible ("applying this rewrite as early as possible is important to
//!   create a normalized representation", §5.2). Example: the
//!   `comp_date_to_int` expansion.
//! * **Serialization** — target-specific, "designed to match the
//!   capabilities of a particular target database system and hence …
//!   triggered right before serialization" (§5.3). Example: the vector
//!   subquery → correlated EXISTS rewrite. Each rule consults the target's
//!   [`TargetCapabilities`] and does not fire when the target supports the
//!   construct natively.

mod rules;

use std::sync::Arc;

use hyperq_obs::{Counter, MetricsRegistry};
use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::feature::FeatureSet;
use hyperq_xtra::rel::{Plan, RelExpr};

use crate::capability::TargetCapabilities;
use crate::error::{HyperQError, Result};

pub use rules::standard_rules;

/// When a rule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Target-agnostic, right after binding.
    Binding,
    /// Target-specific, right before serialization.
    Serialization,
}

/// A pluggable transformation (paper: "the transformations are plug-able
/// components that could be shared across different databases and
/// application requests").
pub trait TransformRule: Send + Sync {
    fn name(&self) -> &'static str;

    /// The tracked feature this rule rewrites, if any (Figure 8
    /// instrumentation).
    fn tracked_feature(&self) -> Option<hyperq_xtra::feature::Feature> {
        None
    }

    fn phase(&self) -> Phase;

    /// Serialization-phase rules return `false` when the target natively
    /// supports the construct, so the rewrite is not triggered (§5.3).
    fn enabled_for(&self, caps: &TargetCapabilities) -> bool {
        let _ = caps;
        true
    }

    /// Rewrite one expression node (children already rewritten). Return
    /// `(expr, true)` when a change was made.
    fn rewrite_expr(&self, expr: ScalarExpr) -> (ScalarExpr, bool) {
        (expr, false)
    }

    /// Rewrite one relational node (children already rewritten).
    fn rewrite_rel(&self, rel: RelExpr) -> (RelExpr, bool) {
        (rel, false)
    }
}

/// Safety bound on fixed-point iterations. Still changing after this many
/// passes is an error: a cyclic rule set is a bug.
const MAX_PASSES: usize = 32;

/// The rule engine. Holds the rule registry and drives passes to a fixed
/// point.
pub struct Transformer {
    rules: Vec<Box<dyn TransformRule>>,
    /// Per-rule (fired, noop) counters aligned with `rules`; populated by
    /// [`Transformer::instrumented`], otherwise empty and free.
    rule_counters: Vec<Option<(Arc<Counter>, Arc<Counter>)>>,
}

impl Default for Transformer {
    fn default() -> Self {
        Self::standard()
    }
}

impl Transformer {
    /// The standard rule set (Table 2).
    pub fn standard() -> Self {
        Self::with_rules(standard_rules())
    }

    /// A transformer with a custom rule set (tests).
    pub fn with_rules(rules: Vec<Box<dyn TransformRule>>) -> Self {
        let rule_counters = rules.iter().map(|_| None).collect();
        Transformer { rules, rule_counters }
    }

    /// Report per-rule activity into `metrics`: each `run` flushes one
    /// `hyperq_transform_rule_total{rule,outcome=fired|noop}` observation
    /// per active rule — `fired` counts node rewrites, `noop` counts runs
    /// where the rule was consulted but matched nothing.
    pub fn instrumented(mut self, metrics: &MetricsRegistry) -> Self {
        self.rule_counters = self
            .rules
            .iter()
            .map(|r| {
                let counter = |outcome| {
                    metrics.counter(
                        "hyperq_transform_rule_total",
                        &[("rule", r.name()), ("outcome", outcome)],
                    )
                };
                Some((counter("fired"), counter("noop")))
            })
            .collect();
        self
    }

    /// Run one phase over a plan until fixed point. `fired` accumulates the
    /// tracked features of rules that actually changed something.
    pub fn run(
        &self,
        mut plan: Plan,
        phase: Phase,
        caps: &TargetCapabilities,
        fired: &mut FeatureSet,
    ) -> Result<Plan> {
        let active: Vec<(usize, &dyn TransformRule)> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.phase() == phase && r.enabled_for(caps))
            .map(|(i, r)| (i, r.as_ref()))
            .collect();
        if active.is_empty() {
            return Ok(plan);
        }
        // Node-level rewrite counts per active rule, accumulated across
        // passes and flushed to the rule counters on exit.
        let mut fires = vec![0u64; active.len()];
        for _pass in 0..MAX_PASSES {
            // Cooperative cancellation between fixed-point passes: a
            // pathological rule cascade must not outlive the statement's
            // deadline or a client abort.
            hyperq_governor::checkpoint()?;
            // Both rewrite closures need shared access to the pass state,
            // so it lives in cells.
            let changed = std::cell::Cell::new(false);
            let pass_fired = std::cell::RefCell::new(FeatureSet::new());
            let pass_fires = std::cell::RefCell::new(vec![0u64; active.len()]);
            plan = plan.rewrite(
                &mut |mut rel| {
                    for (slot, (_, rule)) in active.iter().enumerate() {
                        let (next, did) = rule.rewrite_rel(rel);
                        rel = next;
                        if did {
                            changed.set(true);
                            pass_fires.borrow_mut()[slot] += 1;
                            if let Some(f) = rule.tracked_feature() {
                                pass_fired.borrow_mut().insert(f);
                            }
                        }
                    }
                    rel
                },
                &mut |mut expr| {
                    for (slot, (_, rule)) in active.iter().enumerate() {
                        let (next, did) = rule.rewrite_expr(expr);
                        expr = next;
                        if did {
                            changed.set(true);
                            pass_fires.borrow_mut()[slot] += 1;
                            if let Some(f) = rule.tracked_feature() {
                                pass_fired.borrow_mut().insert(f);
                            }
                        }
                    }
                    expr
                },
            );
            fired.union(&pass_fired.into_inner());
            for (slot, n) in pass_fires.into_inner().into_iter().enumerate() {
                fires[slot] += n;
            }
            if !changed.get() {
                self.flush_rule_counters(&active, &fires);
                return Ok(plan);
            }
        }
        Err(HyperQError::Transform(format!(
            "transformation did not reach a fixed point within {MAX_PASSES} passes"
        )))
    }

    fn flush_rule_counters(&self, active: &[(usize, &dyn TransformRule)], fires: &[u64]) {
        for (slot, &(idx, rule)) in active.iter().enumerate() {
            if let Some((fired, noop)) = &self.rule_counters[idx] {
                if fires[slot] > 0 {
                    fired.add(fires[slot]);
                    // Probe translations run an uninstrumented transformer
                    // (no counters), so this branch naturally excludes them
                    // from the statement's provenance trail too.
                    hyperq_obs::provenance::note_rule(rule.name(), fires[slot]);
                } else {
                    noop.inc();
                }
            }
        }
    }

    /// Convenience: run both phases in order.
    pub fn run_all(
        &self,
        plan: Plan,
        caps: &TargetCapabilities,
        fired: &mut FeatureSet,
    ) -> Result<Plan> {
        let plan = self.run(plan, Phase::Binding, caps, fired)?;
        self.run(plan, Phase::Serialization, caps, fired)
    }

    /// Like [`Transformer::run`], but applies rules one at a time — a full
    /// tree pass per rule — and calls `audit` after every application that
    /// changed the tree, so a broken rewrite is attributed to the rule by
    /// name. An `Err` from the hook aborts the run (strict auditing);
    /// exceeding the convergence budget names the rules still firing.
    pub fn run_audited(
        &self,
        mut plan: Plan,
        phase: Phase,
        caps: &TargetCapabilities,
        fired: &mut FeatureSet,
        audit: &mut dyn FnMut(&'static str, &Plan) -> Result<()>,
    ) -> Result<Plan> {
        let active: Vec<(usize, &dyn TransformRule)> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.phase() == phase && r.enabled_for(caps))
            .map(|(i, r)| (i, r.as_ref()))
            .collect();
        if active.is_empty() {
            return Ok(plan);
        }
        let mut fires = vec![0u64; active.len()];
        let mut last_changed: Vec<&'static str> = Vec::new();
        for _pass in 0..MAX_PASSES {
            hyperq_governor::checkpoint()?;
            last_changed.clear();
            for (slot, (_, rule)) in active.iter().enumerate() {
                let rewrites = std::cell::Cell::new(0u64);
                plan = plan.rewrite(
                    &mut |rel| {
                        let (next, did) = rule.rewrite_rel(rel);
                        if did {
                            rewrites.set(rewrites.get() + 1);
                        }
                        next
                    },
                    &mut |expr| {
                        let (next, did) = rule.rewrite_expr(expr);
                        if did {
                            rewrites.set(rewrites.get() + 1);
                        }
                        next
                    },
                );
                if rewrites.get() > 0 {
                    fires[slot] += rewrites.get();
                    if let Some(f) = rule.tracked_feature() {
                        fired.insert(f);
                    }
                    last_changed.push(rule.name());
                    audit(rule.name(), &plan)?;
                }
            }
            if last_changed.is_empty() {
                self.flush_rule_counters(&active, &fires);
                return Ok(plan);
            }
        }
        Err(HyperQError::Transform(format!(
            "transformation did not reach a fixed point within {MAX_PASSES} passes \
             (rules still firing: {})",
            last_changed.join(", ")
        )))
    }

    /// Audited variant of [`Transformer::run_all`].
    pub fn run_all_audited(
        &self,
        plan: Plan,
        caps: &TargetCapabilities,
        fired: &mut FeatureSet,
        audit: &mut dyn FnMut(&'static str, &Plan) -> Result<()>,
    ) -> Result<Plan> {
        let plan = self.run_audited(plan, Phase::Binding, caps, fired, audit)?;
        self.run_audited(plan, Phase::Serialization, caps, fired, audit)
    }
}
