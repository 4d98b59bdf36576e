//! The cross compiler: the façade that drives parse → bind → transform →
//! serialize → execute, routes emulated features through the mid tier, and
//! instruments per-stage timing (the Figure 9 measurements).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq_parser::ast as past;
use hyperq_parser::fingerprint::{fingerprint, fnv1a, redact_literals};
use hyperq_parser::{parse_statements, Dialect, ParsedStatement};
use hyperq_xtra::catalog::{ColumnDef, MetadataProvider, TableDef, TableKind, ViewDef};
use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::feature::{Feature, FeatureSet};
use hyperq_xtra::rel::{Plan, RelExpr, SetOpKind};

use hyperq_obs::provenance::{self, CacheOutcome, FinishedStatement};
use hyperq_obs::{Counter, Histogram, ObsContext, TraceId};

use crate::analyze::{AnalyzeMode, Analyzer};
use crate::backend::{Backend, ExecResult, RequestContext};
use crate::binder::Binder;
use crate::builder::{Request, Response};
use crate::cache::{CacheFill, CacheKey, TranslationCache};
use crate::capability::TargetCapabilities;
use crate::targets::TargetProfile;
use crate::conformance::{Conformance, ConformanceMode};
use crate::emulate::{self, EmulationKind};
use crate::error::{HyperQError, Result};
use crate::recover::RecoverConfig;
use crate::resilience::TargetLink;
use crate::serialize::{LimitSpelling, Serializer};
use crate::session::{RoutineDef, SessionState, ShadowCatalog};
use crate::tracker::WorkloadTracker;
use crate::transform::Transformer;

/// Per-statement stage timings (the paper's Figure 9 instrumentation),
/// now defined in `hyperq-obs` so every layer can report timings without
/// depending on this crate.
pub use hyperq_obs::StageTimings;

/// The outcome of one application statement.
#[derive(Debug, Clone)]
pub struct StatementResult {
    pub result: ExecResult,
    /// All tracked features observed across parse, bind and transform.
    pub features: FeatureSet,
    pub timings: StageTimings,
    /// Every SQL request sent to the target for this statement (emulated
    /// features send several).
    pub sql_sent: Vec<String>,
    /// Trace id of the statement's span tree (set by `run` and its
    /// wrappers; `None` for internal sub-statements).
    pub trace_id: Option<TraceId>,
}

/// Backwards-compatible alias for the pre-`Response` name.
pub type StatementOutcome = StatementResult;

static SESSION_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Hard bound on emulated recursion depth.
const MAX_RECURSION_STEPS: usize = 10_000;

/// Pre-resolved handles for the per-stage latency histograms and statement
/// counters, looked up once per session so the hot path touches atomics
/// only.
struct StageHandles {
    parse: Arc<Histogram>,
    bind: Arc<Histogram>,
    transform: Arc<Histogram>,
    serialize: Arc<Histogram>,
    execute: Arc<Histogram>,
    statement: Arc<Histogram>,
    statements_ok: Arc<Counter>,
    statements_err: Arc<Counter>,
    /// Workload-study gauges (Figure 8), per session: statements observed
    /// and distinct query texts seen.
    workload_total: Arc<hyperq_obs::Gauge>,
    workload_distinct: Arc<hyperq_obs::Gauge>,
}

/// The stage-latency histogram family shared by the whole pipeline
/// (`convert` is recorded by the wire layer under the same name).
pub const STAGE_DURATION_METRIC: &str = "hyperq_stage_duration_seconds";

impl StageHandles {
    fn new(obs: &ObsContext, session_id: u64) -> Self {
        let stage = |s| obs.metrics.histogram(STAGE_DURATION_METRIC, &[("stage", s)]);
        let sid = session_id.to_string();
        StageHandles {
            parse: stage("parse"),
            bind: stage("bind"),
            transform: stage("transform"),
            serialize: stage("serialize"),
            execute: stage("execute"),
            statement: stage("statement"),
            statements_ok: obs
                .metrics
                .counter("hyperq_statements_total", &[("outcome", "ok")]),
            statements_err: obs
                .metrics
                .counter("hyperq_statements_total", &[("outcome", "error")]),
            workload_total: obs
                .metrics
                .gauge("hyperq_workload_queries", &[("session", &sid)]),
            workload_distinct: obs
                .metrics
                .gauge("hyperq_workload_distinct_queries", &[("session", &sid)]),
        }
    }
}

/// One virtualized connection: Teradata-dialect SQL in, target execution
/// out.
pub struct HyperQ {
    backend: Arc<dyn Backend>,
    /// The session's target: capability signature + dialect flavor +
    /// registry name (the value of every `target` metric label). A
    /// [`Request`] may override it for one request via `ctx.target`.
    profile: TargetProfile,
    transformer: Transformer,
    pub session: SessionState,
    /// The single-row DML batching transformation (§4.3). On by default;
    /// the ablation benchmark turns it off.
    pub dml_batching: bool,
    obs: Arc<ObsContext>,
    stages: StageHandles,
    /// Workload-study statistics (Figure 8), fed automatically by
    /// `run_script` / `run_with_params`.
    tracker: WorkloadTracker,
    /// Static-analysis driver: plan validation at stage boundaries,
    /// per-rule transformation audits, serializer round-trip checks.
    analyzer: Analyzer,
    /// Capability-conformance linter: token walk over serialized SQL
    /// against the target's capability signature, plus advisory
    /// anti-pattern lints over source statements.
    conformance: Conformance,
    /// The compiled-translation cache (possibly shared with other
    /// sessions); `None` disables caching entirely.
    cache: Option<Arc<TranslationCache>>,
    /// Scratch: the cacheable artifacts of the most recent
    /// `run_pipeline_with` run, consumed by `maybe_populate`.
    cache_seed: Option<CacheSeed>,
    /// FNV-1a signature of the target profile (registry name, capability
    /// signature and flavor), precomputed for the cache-key context hash.
    caps_sig: u64,
    /// The replica set behind this session's backend stack, when built via
    /// `HyperQBuilder::replicas` (exposed for health snapshots).
    replication: Option<Arc<crate::replicate::ReplicatedBackend>>,
    /// Keeps the background health prober alive for the session's
    /// lifetime; dropping the session stops and joins it.
    _replica_prober: Option<crate::repair::ProberHandle>,
}

/// What a successful standard-path pipeline run leaves behind for the
/// translation cache.
struct CacheSeed {
    sql: String,
    is_query: bool,
    tables: Vec<String>,
    /// A mid-tier emulation injected a value that changes between
    /// executions (e.g. a `DEFAULT CURRENT_DATE` column): never cache.
    volatile: bool,
}

/// Everything [`HyperQBuilder`](crate::builder::HyperQBuilder) resolved for
/// a session.
pub(crate) struct BuildSpec {
    /// The session-less link to the session's target (shared with other
    /// sessions when the caller handed the builder one).
    pub link: TargetLink,
    pub profile: TargetProfile,
    pub obs: Arc<ObsContext>,
    pub analyze: AnalyzeMode,
    pub conformance: ConformanceMode,
    pub cache: Option<Arc<TranslationCache>>,
    pub recover: RecoverConfig,
    pub dml_batching: bool,
    /// When the builder assembled a replica set, the replicated backend
    /// itself (already `link`'s driver) plus its health prober,
    /// so the session can expose replica state and owns the prober thread.
    pub replication: Option<Arc<crate::replicate::ReplicatedBackend>>,
    pub prober: Option<crate::repair::ProberHandle>,
}

impl HyperQ {
    pub(crate) fn from_spec(spec: BuildSpec) -> Self {
        let id = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
        let stages = StageHandles::new(&spec.obs, id);
        let analyzer = Analyzer::new(spec.analyze, &spec.obs);
        let conformance = Conformance::new(spec.conformance, &spec.obs);
        let session = SessionState::new(id, "APP");
        let backend =
            spec.link.for_session(session.journal.clone(), spec.recover, Arc::clone(&spec.obs));
        let caps_sig = profile_sig(&spec.profile);
        // Slow-query-log entries store literal-redacted SQL unless raw
        // capture was opted into; the redactor reuses the fingerprinter's
        // literal spans so it stays in lockstep with the lexer.
        if !spec.obs.slowlog.has_redactor() {
            spec.obs.slowlog.install_redactor(redact_literals);
        }
        HyperQ {
            backend: Arc::new(backend),
            profile: spec.profile,
            transformer: Transformer::standard().instrumented(&spec.obs.metrics),
            session,
            dml_batching: spec.dml_batching,
            obs: spec.obs,
            stages,
            tracker: WorkloadTracker::new(),
            analyzer,
            conformance,
            cache: spec.cache,
            cache_seed: None,
            caps_sig,
            replication: spec.replication,
            _replica_prober: spec.prober,
        }
    }

    /// The active static-analysis mode.
    pub fn analysis_mode(&self) -> AnalyzeMode {
        self.analyzer.mode()
    }

    /// The active capability-conformance lint mode.
    pub fn conformance_mode(&self) -> ConformanceMode {
        self.conformance.mode()
    }

    pub fn capabilities(&self) -> &TargetCapabilities {
        &self.profile.caps
    }

    /// The session's target profile (capabilities + dialect flavor).
    pub fn profile(&self) -> &TargetProfile {
        &self.profile
    }

    /// The session's target registry name (`"simwh"`, `"cloud-a"`, …) —
    /// the value carried on `target` metric labels and provenance records.
    pub fn target(&self) -> &str {
        &self.profile.name
    }

    /// The translation cache this session consults, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<TranslationCache>> {
        self.cache.as_ref()
    }

    /// The replica set behind this session, when one was configured via
    /// [`HyperQBuilder::replicas`](crate::builder::HyperQBuilder::replicas).
    pub fn replication(&self) -> Option<&Arc<crate::replicate::ReplicatedBackend>> {
        self.replication.as_ref()
    }

    /// The observability context this session reports into.
    pub fn obs(&self) -> &Arc<ObsContext> {
        &self.obs
    }

    /// Workload-study statistics accumulated over every statement this
    /// session has run.
    pub fn tracker(&self) -> &WorkloadTracker {
        &self.tracker
    }

    /// Execute one canonical [`Request`] — the single entry point behind
    /// `run_one`, `run_script` and `run_with_params`.
    ///
    /// Single-statement requests without parameters first consult the
    /// translation cache: on a hit the entire parse → bind → transform →
    /// serialize pipeline is skipped and the cached SQL-B (with the
    /// statement's literals re-spliced) goes straight to the backend.
    pub fn run(&mut self, req: Request) -> Result<Response> {
        // Per-request target override: swap the session's profile (and the
        // cache-key signature derived from it) for the request's scope and
        // restore it on every exit path. Translations for the override
        // target key the cache under its own signature, so cross-target
        // pollution is impossible.
        let saved = match req.ctx.target.as_deref() {
            Some(name) if name != self.profile.name => {
                let p = crate::targets::lookup(name).ok_or_else(|| {
                    HyperQError::Transform(format!("unknown target profile '{name}'"))
                })?;
                let sig = profile_sig(&p);
                Some((
                    std::mem::replace(&mut self.profile, p),
                    std::mem::replace(&mut self.caps_sig, sig),
                ))
            }
            _ => None,
        };
        let out = self.run_on_active_profile(req);
        if let Some((profile, sig)) = saved {
            self.profile = profile;
            self.caps_sig = sig;
        }
        out
    }

    fn run_on_active_profile(&mut self, req: Request) -> Result<Response> {
        // Library callers can bound a request by deadline/memory without a
        // gateway: install a standalone governor for the request's scope.
        // When the gateway already installed one (or neither bound is
        // set), this is a no-op and the existing governor stands.
        let _scope = if (req.ctx.timeout.is_some() || req.ctx.memory_budget != 0)
            && hyperq_governor::current().is_none()
        {
            Some(hyperq_governor::install(hyperq_governor::QueryGovernor::standalone(
                req.ctx.timeout,
                req.ctx.memory_budget,
            )))
        } else {
            None
        };
        if !req.params.is_empty() {
            let statement = self.run_parameterized(&req.sql, &req.params)?;
            return Ok(Response { statements: vec![statement] });
        }
        if !req.ctx.bypass_cache {
            if let Some(result) = self.try_cache_fast_path(&req.sql) {
                return result.map(|s| Response { statements: vec![s] });
            }
        }
        let statements = self.run_script_slow(&req.sql, !req.ctx.bypass_cache)?;
        Ok(Response { statements })
    }

    /// Run a script of one or more Teradata-dialect statements.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        Ok(self.run(Request::script(sql))?.statements)
    }

    /// The full pipeline path: parse the script, route every statement.
    fn run_script_slow(&mut self, sql: &str, cache_ok: bool) -> Result<Vec<StatementResult>> {
        let t0 = Instant::now();
        let mut stmts = parse_statements(sql, Dialect::Teradata)?;
        if self.dml_batching {
            stmts = batch_single_row_inserts(stmts);
        }
        let parse_time = t0.elapsed();
        let mut outcomes = Vec::with_capacity(stmts.len());
        let obs = Arc::clone(&self.obs);
        for (i, ps) in stmts.into_iter().enumerate() {
            let text = ps.text.clone();
            let root = obs.traces.enter("statement");
            let trace = root.trace_id();
            obs.provenance.begin();
            if i == 0 {
                // Script parsing happened before any statement trace
                // existed; charge it to the first statement, mirroring the
                // timings accounting below.
                obs.traces.record_manual(trace, Some(root.id()), "parse", parse_time);
                self.stages.parse.record(parse_time);
                provenance::note_stage("parse", parse_time);
            }
            let processed = self.process(ps, cache_ok);
            // Script parse time happened outside the root span but is
            // charged to the first statement's stages, so fold it into that
            // statement's end-to-end time too.
            let total =
                root.finish() + if i == 0 { parse_time } else { Duration::ZERO };
            let mut outcome = self.observe_statement(processed, trace, &text, total)?;
            if i == 0 {
                outcome.timings.translation += parse_time;
            }
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Try to answer a request from the translation cache without parsing.
    /// `None` falls through to the slow path; `Some` is the statement's
    /// final result (the hit executed, successfully or not).
    fn try_cache_fast_path(&mut self, sql: &str) -> Option<Result<StatementResult>> {
        let cache = Arc::clone(self.cache.as_ref()?);
        if !fast_path_candidate(sql) {
            return None;
        }
        let t0 = Instant::now();
        let fp = fingerprint(sql).ok()?;
        if fp.statements != 1 {
            return None;
        }
        if fp.volatile {
            // The slow path opens the record; park the reason for it.
            provenance::pend_cache_bypass("volatile");
            cache.note_bypass();
            return None;
        }
        let key = CacheKey { fingerprint: fp.hash, ctx: self.translation_ctx() };
        let hit = cache.lookup(&key, &fp.literals, self.session.in_transaction)?;
        if self.analyzer.mode() == AnalyzeMode::Strict
            && hit.is_query
            && hit.hit_seq % cache.revalidate_every() == 0
        {
            // Sampled revalidation: a full re-translation must reproduce
            // the cached SQL byte-for-byte, or the entry dies and the
            // statement takes the slow path.
            if provenance::suspended(|| self.revalidate_hit(sql, &hit.sql)) == Some(true) {
                cache.note_revalidation(true);
            } else {
                cache.note_revalidation(false);
                cache.invalidate_key(&key);
                return None;
            }
        }
        let lookup_time = t0.elapsed();
        let obs = Arc::clone(&self.obs);
        let root = obs.traces.enter("statement");
        let trace = root.trace_id();
        obs.provenance.begin();
        provenance::note_cache(CacheOutcome::Hit);
        provenance::note_stage("cache", lookup_time);
        obs.traces.record_manual(trace, Some(root.id()), "cache", lookup_time);
        let exec_span = obs.traces.enter("execute");
        let exec = self.backend.execute_ctx(&hit.sql, self.request_ctx(hit.is_query));
        let exec_time = exec_span.finish();
        self.stages.execute.record(exec_time);
        provenance::note_stage("execute", exec_time);
        let processed = match exec {
            Ok(result) => Ok(StatementResult {
                result,
                features: hit.features.clone(),
                timings: StageTimings { translation: lookup_time, execution: exec_time },
                sql_sent: vec![hit.sql],
                trace_id: None,
            }),
            Err(e) => Err(HyperQError::from(e)),
        };
        // The lookup ran before the root span opened; it is part of the
        // statement's end-to-end time all the same.
        let total = root.finish() + lookup_time;
        let text = statement_text(sql).to_string();
        Some(self.observe_statement(processed, trace, &text, total))
    }

    /// Re-translate a cache hit through the full pipeline and compare.
    /// `Some(true)` = byte-identical; anything else is a mismatch.
    fn revalidate_hit(&mut self, sql: &str, cached: &str) -> Option<bool> {
        let stmts = parse_statements(sql, Dialect::Teradata).ok()?;
        let ps = stmts.into_iter().next()?;
        let (fresh, _features) = self.translate_statement(&ps.stmt).ok()?;
        Some(fresh == cached)
    }

    /// The cache-key context hash: everything besides the statement text
    /// the translation output depends on.
    fn translation_ctx(&self) -> u64 {
        let mut bytes = Vec::with_capacity(34);
        bytes.extend_from_slice(&self.caps_sig.to_le_bytes());
        bytes.push(match self.analyzer.mode() {
            AnalyzeMode::Off => 0,
            AnalyzeMode::LogOnly => 1,
            AnalyzeMode::Strict => 2,
        });
        bytes.push(match self.conformance.mode() {
            ConformanceMode::Off => 0,
            ConformanceMode::LogOnly => 1,
            ConformanceMode::Strict => 2,
        });
        bytes.push(self.dml_batching as u8);
        bytes.extend_from_slice(&self.session.settings_epoch().to_le_bytes());
        bytes.extend_from_slice(&self.session.catalog_epoch().to_le_bytes());
        fnv1a(&bytes)
    }

    /// Offer the most recent standard-path translation to the cache.
    fn maybe_populate(&mut self, text: &str, features: &FeatureSet) {
        let Some(seed) = self.cache_seed.take() else { return };
        let Some(cache) = self.cache.clone() else { return };
        if text.is_empty() {
            // Internal sub-statements (routine bodies) carry no source
            // text; they are driven by their caller, never cached.
            return;
        }
        if seed.volatile {
            provenance::note_cache(CacheOutcome::Bypass("volatile_default"));
            cache.note_bypass();
            return;
        }
        let Ok(fp) = fingerprint(text) else {
            provenance::note_cache(CacheOutcome::Bypass("unfingerprintable"));
            return;
        };
        if fp.statements != 1 || fp.volatile {
            provenance::note_cache(CacheOutcome::Bypass(if fp.statements != 1 {
                "multi_statement"
            } else {
                "volatile"
            }));
            cache.note_bypass();
            return;
        }
        provenance::note_cache(CacheOutcome::Miss);
        let key = CacheKey { fingerprint: fp.hash, ctx: self.translation_ctx() };
        let fill = CacheFill {
            sql: seed.sql,
            features: features.clone(),
            is_query: seed.is_query,
            tables: seed.tables,
        };
        cache.populate(key, text, &fp.literals, fill, |src| self.probe_translate(src));
    }

    /// The probe translation used to verify splice templates: the full
    /// bind → emulate → transform → serialize pipeline over `src`, with no
    /// metrics, no analyzer, no execution — probes must not pollute
    /// observability or touch the backend.
    fn probe_translate(&self, src: &str) -> Option<String> {
        let stmts = parse_statements(src, Dialect::Teradata).ok()?;
        if stmts.len() != 1 {
            return None;
        }
        let stmt = stmts.into_iter().next()?.stmt;
        let backend = Arc::clone(&self.backend);
        let catalog = ShadowCatalog::new(&*backend, &self.session);
        let mut binder = Binder::new(&catalog);
        let plan = binder.bind_statement(&stmt).ok()?;
        let mut scratch = FeatureSet::new();
        let mut volatile = false;
        let plan = self
            .apply_insert_emulations_inner(plan, &mut scratch, true, &mut volatile)
            .ok()?;
        if volatile {
            return None;
        }
        let plan = Transformer::standard().run_all(plan, &self.profile.caps, &mut scratch).ok()?;
        let (plan, _fetch_limit) = self.peel_fetch_limit(plan);
        Serializer::for_profile(&self.profile).serialize_plan(&plan).ok()
    }

    /// Common statement epilogue: statement histogram and outcome counters,
    /// workload tracking, slow-query capture, trace-id stamping.
    fn observe_statement(
        &mut self,
        processed: Result<StatementOutcome>,
        trace: TraceId,
        text: &str,
        total: Duration,
    ) -> Result<StatementOutcome> {
        // Reconcile DTM state with what a mid-statement recovery did on the
        // target: GTT instances whose replay failed must re-materialize on
        // next touch, and a transaction that died with its connection is no
        // longer open.
        for gtt in self.session.journal.drain_invalidated_gtts() {
            self.session.materialized_gtts.remove(&gtt);
        }
        if self.session.journal.take_txn_aborted() {
            self.session.in_transaction = false;
        }
        self.stages.statement.record(total);
        match processed {
            Ok(mut outcome) => {
                self.stages.statements_ok.inc();
                self.tracker.observe(text, &outcome.features);
                self.stages.workload_total.set(self.tracker.total_queries as i64);
                self.stages.workload_distinct.set(self.tracker.distinct_queries() as i64);
                for feature in outcome.features.iter() {
                    self.obs
                        .metrics
                        .counter(
                            "hyperq_feature_statements_total",
                            &[("feature", &format!("{feature}"))],
                        )
                        .inc();
                }
                self.obs.slowlog.observe(&self.obs.traces, trace, text, total);
                self.finish_provenance(trace, text, total, Some(&outcome), None);
                outcome.trace_id = Some(trace);
                Ok(outcome)
            }
            Err(e) => {
                // Canonicalize cancellation: whichever layer noticed first
                // (parser, transformer, backend, engine, converter)
                // surfaced *some* error — when the statement's governor
                // token is cancelled, the one well-defined error every
                // caller sees is `HyperQError::Cancelled`.
                let e = match hyperq_governor::cancel_error() {
                    Some(c) => {
                        hyperq_obs::provenance::note_cancelled(c.reason.as_str());
                        hyperq_governor::note_stage(hyperq_governor::Stage::Cancelled);
                        HyperQError::Cancelled(c)
                    }
                    None => e,
                };
                self.stages.statements_err.inc();
                self.obs.slowlog.observe(&self.obs.traces, trace, text, total);
                let msg = e.to_string();
                self.finish_provenance(trace, text, total, None, Some(&msg));
                Err(e)
            }
        }
    }

    /// Seal the statement's provenance record (opened by `begin` at the
    /// statement head; a no-op when capture is disabled). The fingerprint
    /// and literal-redacted text are computed here, once, off the
    /// translation hot path.
    fn finish_provenance(
        &self,
        trace: TraceId,
        text: &str,
        total: Duration,
        outcome: Option<&StatementResult>,
        error: Option<&str>,
    ) {
        let prov = &self.obs.provenance;
        if !prov.is_enabled() {
            return;
        }
        let hash = fingerprint(text).map_or(0, |f| f.hash);
        // Surface the fingerprint on the in-flight query table too (the
        // governor's `/queries` snapshot keys on it).
        if let Some(gov) = hyperq_governor::current() {
            gov.set_fingerprint(hash);
        }
        let sql = if prov.capture_raw() { text.to_string() } else { redact_literals(text) };
        let features: Vec<&'static str> = outcome
            .map(|o| o.features.iter().map(|f| f.code()).collect())
            .unwrap_or_default();
        let rows = outcome.map_or(0, |o| o.result.row_count);
        prov.finish(FinishedStatement {
            trace,
            fingerprint: hash,
            kind: statement_kind(text),
            target: &self.profile.name,
            sql: &sql,
            total,
            features,
            analyze_mode: self.analyzer.mode().as_str(),
            rows,
            error,
        });
    }

    /// Run exactly one statement.
    pub fn run_one(&mut self, sql: &str) -> Result<StatementResult> {
        self.run(Request::script(sql))?.into_last()
    }

    /// Run one statement with positional (`?`) parameter values — the
    /// parameterized-query request kind of the ODBC-server abstraction
    /// (§4.5).
    pub fn run_with_params(
        &mut self,
        sql: &str,
        values: &[Datum],
    ) -> Result<StatementResult> {
        self.run(Request::with_params(sql, values.to_vec()))?.into_last()
    }

    /// The parameterized-request path: exactly one statement, positional
    /// values bound in the binder. Parameterized requests bypass the cache
    /// — their literals arrive out-of-band, so the fingerprint would not
    /// capture them.
    fn run_parameterized(&mut self, sql: &str, values: &[Datum]) -> Result<StatementResult> {
        let t0 = Instant::now();
        let mut stmts = parse_statements(sql, Dialect::Teradata)?;
        let parse_time = t0.elapsed();
        if stmts.len() != 1 {
            return Err(HyperQError::Emulation(
                "parameterized execution takes exactly one statement".into(),
            ));
        }
        let ps = stmts.remove(0);
        let mut features = ps.features.clone();
        let obs = Arc::clone(&self.obs);
        let root = obs.traces.enter("statement");
        let trace = root.trace_id();
        obs.provenance.begin();
        provenance::note_cache(CacheOutcome::Bypass("parameterized"));
        provenance::note_stage("parse", parse_time);
        obs.traces.record_manual(trace, Some(root.id()), "parse", parse_time);
        self.stages.parse.record(parse_time);
        let processed = self
            .run_pipeline_with(&ps.stmt, HashMap::new(), values.to_vec(), &mut features)
            .map(|o| StatementOutcome { features, ..o });
        // As above: parsing preceded the root span but belongs to this
        // statement's end-to-end time.
        let total = root.finish() + parse_time;
        let mut outcome = self.observe_statement(processed, trace, &ps.text, total)?;
        outcome.timings.translation += parse_time;
        Ok(outcome)
    }

    /// Translate without executing: the SQL that *would* be sent. Used by
    /// benchmarks to isolate translation cost and by tests to inspect the
    /// generated SQL.
    pub fn translate(&mut self, sql: &str) -> Result<Vec<String>> {
        let stmts = parse_statements(sql, Dialect::Teradata)?;
        let mut out = Vec::new();
        for ps in stmts {
            let (plan_sql, _features) = self.translate_statement(&ps.stmt)?;
            out.push(plan_sql);
        }
        Ok(out)
    }

    fn translate_statement(&mut self, stmt: &past::Statement) -> Result<(String, FeatureSet)> {
        let mut features = FeatureSet::new();
        let backend = Arc::clone(&self.backend);
        let catalog = ShadowCatalog::new(&*backend, &self.session);
        let mut binder = Binder::new(&catalog);
        let plan = binder.bind_statement(stmt)?;
        features.union(&binder.features);
        self.analyzer.check_plan(&plan, "bind")?;
        let plan = self
            .analyzer
            .transform(&self.transformer, plan, &self.profile.caps, &mut features)?;
        // Translation-only path: peel quietly (no emulation counter — the
        // statement is not being executed) so `translate()` shows the SQL
        // the LimitFetch emulation would actually send.
        let (plan, _fetch_limit) = self.peel_fetch_limit(plan);
        self.analyzer.check_plan(&plan, "serializer")?;
        let sql = Serializer::for_profile(&self.profile).serialize_plan(&plan)?;
        self.analyzer.audit_roundtrip(&sql, &plan, &catalog)?;
        self.conformance.check_serialized(&sql, &self.profile.caps, &self.profile.name)?;
        Ok((sql, features))
    }

    // -----------------------------------------------------------------------
    // Statement routing
    // -----------------------------------------------------------------------

    /// Count one emulated-feature request (the per-emulation fan-out of
    /// `hyperq_emulation_requests_total`). Cold paths only, so the registry
    /// lookup per call is fine.
    fn emu(&self, kind: EmulationKind) {
        provenance::note_emulation(kind.as_str());
        self.obs
            .metrics
            .counter("hyperq_emulation_requests_total", &[("kind", kind.as_str())])
            .inc();
    }

    fn process(&mut self, ps: ParsedStatement, cache_ok: bool) -> Result<StatementResult> {
        let mut features = ps.features.clone();
        // Advisory anti-pattern lints over the client's source text (empty
        // for internal sub-statements, which are driven by their caller).
        self.conformance
            .check_source(&ps.text, &ps.features, self.session.in_transaction, &self.profile.name);
        match &ps.stmt {
            // --- E5: informational commands, answered mid-tier -------------
            past::Statement::Help(target) => {
                self.emu(EmulationKind::Help);
                let result = match target {
                    past::HelpTarget::Session => emulate::help_session(&self.session),
                    past::HelpTarget::Table(name) => {
                        let backend = Arc::clone(&self.backend);
                        let catalog = ShadowCatalog::new(&*backend, &self.session);
                        let def = catalog.table(&name.canonical()).ok_or_else(|| {
                            HyperQError::Emulation(format!("table {name} not found"))
                        })?;
                        emulate::help_table(&def)
                    }
                };
                Ok(StatementOutcome {
                    result,
                    features,
                    timings: StageTimings::default(),
                    sql_sent: Vec::new(),
                    trace_id: None,
                })
            }

            // --- EXPLAIN: answered by the mid tier ---------------------------
            past::Statement::Explain(inner) => {
                self.emu(EmulationKind::Explain);
                let report = self.explain(inner, &mut features)?;
                let schema = hyperq_xtra::schema::Schema::new(vec![
                    hyperq_xtra::schema::Field::new(
                        None,
                        "EXPLANATION",
                        hyperq_xtra::types::SqlType::Varchar(None),
                        false,
                    ),
                ]);
                let rows: Vec<hyperq_xtra::Row> = report
                    .lines()
                    .map(|l| vec![hyperq_xtra::datum::Datum::str(l)])
                    .collect();
                Ok(StatementOutcome {
                    result: ExecResult::rows(schema, rows),
                    features,
                    timings: StageTimings::default(),
                    sql_sent: Vec::new(),
                    trace_id: None,
                })
            }

            // --- E2/E3: routine definitions ---------------------------------
            past::Statement::CreateMacro { name, params, body } => {
                self.emu(EmulationKind::Macro);
                self.session.macros.insert(
                    name.canonical(),
                    RoutineDef {
                        name: name.canonical(),
                        params: params.clone(),
                        body: body.clone(),
                        features: ps.features.clone(),
                    },
                );
                Ok(ack(features))
            }
            past::Statement::DropMacro { name } => {
                self.emu(EmulationKind::Macro);
                self.session.macros.remove(&name.canonical());
                Ok(ack(features))
            }
            past::Statement::CreateProcedure { name, params, body } => {
                self.emu(EmulationKind::Procedure);
                self.session.procedures.insert(
                    name.canonical(),
                    RoutineDef {
                        name: name.canonical(),
                        params: params.clone(),
                        body: body.clone(),
                        features: ps.features.clone(),
                    },
                );
                Ok(ack(features))
            }
            past::Statement::ExecuteMacro { name, args } => {
                self.emu(EmulationKind::Macro);
                let routine = self
                    .session
                    .macros
                    .get(&name.canonical())
                    .cloned()
                    .ok_or_else(|| {
                        HyperQError::Emulation(format!("macro {name} is not defined"))
                    })?;
                self.run_routine(&routine, args, features)
            }
            past::Statement::Call { name, args } => {
                self.emu(EmulationKind::Procedure);
                let routine = self
                    .session
                    .procedures
                    .get(&name.canonical())
                    .cloned()
                    .ok_or_else(|| {
                        HyperQError::Emulation(format!("procedure {name} is not defined"))
                    })?;
                let wrapped: Vec<(Option<String>, past::Expr)> =
                    args.iter().map(|a| (None, a.clone())).collect();
                self.run_routine(&routine, &wrapped, features)
            }

            // --- E6 substrate: views live in the DTM catalog -----------------
            past::Statement::CreateView { name, columns, or_replace, .. } => {
                self.emu(EmulationKind::View);
                let key = name.canonical();
                if !or_replace && self.session.views.contains_key(&key) {
                    return Err(HyperQError::Emulation(format!(
                        "view {key} already exists"
                    )));
                }
                self.session.views.insert(
                    key.clone(),
                    ViewDef {
                        name: key,
                        columns: columns.iter().map(|c| c.to_ascii_uppercase()).collect(),
                        // The full statement text; the binder re-parses it
                        // and extracts the query.
                        body_sql: ps.text.clone(),
                    },
                );
                Ok(ack(features))
            }
            past::Statement::DropView { name, if_exists } => {
                self.emu(EmulationKind::View);
                let existed = self.session.views.remove(&name.canonical()).is_some();
                if !existed && !if_exists {
                    return Err(HyperQError::Emulation(format!("view {name} not found")));
                }
                Ok(ack(features))
            }

            // --- E4: MERGE → UPDATE + guarded INSERT -------------------------
            past::Statement::Merge(m) => {
                self.emu(EmulationKind::Merge);
                features.insert(Feature::MergeStatement);
                let steps = emulate::decompose_merge(m)?;
                let mut timings = StageTimings::default();
                let mut sql_sent = Vec::new();
                let mut affected = 0u64;
                for step in &steps {
                    let o = self.run_pipeline(step, HashMap::new(), &mut features)?;
                    affected += o.result.row_count;
                    timings.merge(o.timings);
                    sql_sent.extend(o.sql_sent);
                }
                Ok(StatementOutcome {
                    result: ExecResult::affected(affected),
                    features,
                    timings,
                    sql_sent,
                    trace_id: None,
                })
            }

            // --- E1: recursive queries ---------------------------------------
            past::Statement::Query(q) if q.recursive => {
                self.emu(EmulationKind::Recursive);
                features.insert(Feature::RecursiveQuery);
                self.emulate_recursive(q, features)
            }

            // --- session settings (reflected by HELP SESSION) ----------------
            past::Statement::SetSession { name, value } => {
                self.emu(EmulationKind::SetSession);
                let rendered = match emulate::ast_const(value) {
                    Ok(d) => d.to_sql_string(),
                    Err(_) => format!("{value:?}"),
                };
                let key = name.to_ascii_uppercase();
                if let Some(slot) = self
                    .session
                    .settings
                    .iter_mut()
                    .find(|(k, _)| k.eq_ignore_ascii_case(&key))
                {
                    slot.1 = rendered.clone();
                } else {
                    self.session.settings.push((key.clone(), rendered.clone()));
                }
                // Targets with session-scoped settings get the SET pushed
                // through — and journaled, so a reconnect replays the final
                // value. Mid-tier-only targets keep it in the DTM catalog.
                if self.profile.caps.session_settings {
                    let sql = format!("SET {key} = {rendered}");
                    self.backend
                        .execute_ctx(&sql, self.request_ctx(true))
                        .map_err(HyperQError::Backend)?;
                    self.session.journal.record_setting(&key, &sql);
                    let mut outcome = ack(features);
                    outcome.sql_sent.push(sql);
                    return Ok(outcome);
                }
                Ok(ack(features))
            }

            // --- transactions ------------------------------------------------
            past::Statement::BeginTransaction => {
                self.emu(EmulationKind::Transaction);
                self.session.in_transaction = true;
                Ok(ack(features))
            }
            past::Statement::Commit | past::Statement::Rollback => {
                self.emu(EmulationKind::Transaction);
                self.session.in_transaction = false;
                Ok(ack(features))
            }

            // --- E6: DML against a DTM-cataloged view -------------------------
            past::Statement::Update { table, .. }
            | past::Statement::Delete { table, .. }
            | past::Statement::Insert { table, .. }
                if self.session.views.contains_key(&table.canonical()) =>
            {
                self.emu(EmulationKind::ViewDml);
                features.insert(Feature::DmlOnView);
                let view = self.session.views[&table.canonical()].clone();
                let parsed = parse_statements(&view.body_sql, Dialect::Teradata)
                    .map_err(HyperQError::Parse)?;
                let view_query = match parsed.into_iter().next().map(|p| p.stmt) {
                    Some(past::Statement::CreateView { query, .. }) => *query,
                    Some(past::Statement::Query(q)) => *q,
                    _ => {
                        return Err(HyperQError::Emulation(format!(
                            "stored view {} body is not a query",
                            view.name
                        )))
                    }
                };
                let rewritten =
                    emulate::rewrite_dml_on_view(&ps.stmt, &view_query, &view.columns)?;
                let o = self.run_pipeline(&rewritten, HashMap::new(), &mut features)?;
                Ok(StatementOutcome { features, ..o })
            }

            // --- standard path ----------------------------------------------
            stmt => {
                let o = self.run_pipeline(stmt, HashMap::new(), &mut features)?;
                if cache_ok {
                    self.maybe_populate(&ps.text, &features);
                }
                Ok(StatementResult { features, ..o })
            }
        }
    }

    /// Produce an EXPLAIN report: tracked features, the final XTRA plan
    /// tree, and the SQL that would be sent to the target. Nothing reaches
    /// the backend.
    fn explain(
        &mut self,
        stmt: &past::Statement,
        features: &mut FeatureSet,
    ) -> Result<String> {
        use std::fmt::Write as _;
        // Emulated statements: explain the decomposition.
        match stmt {
            past::Statement::Merge(m) => {
                features.insert(Feature::MergeStatement);
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "MERGE is emulated as {} request(s) against {}:",
                    emulate::decompose_merge(m)?.len(),
                    self.profile.caps.name
                );
                for step in emulate::decompose_merge(m)? {
                    let _ = writeln!(out, "--- step ---");
                    out.push_str(&self.explain(&step, features)?);
                }
                return Ok(out);
            }
            past::Statement::Query(q) if q.recursive => {
                features.insert(Feature::RecursiveQuery);
                let parts = emulate::split_recursive(q)?;
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "recursive query emulated via WorkTable/TempTable on {} \
                     (requests repeat until the step produces no rows):",
                    self.profile.caps.name
                );
                let _ = writeln!(out, "--- seed (initializes WorkTable and TempTable) ---");
                out.push_str(&self.explain(
                    &past::Statement::Query(Box::new(parts.seed)),
                    features,
                )?);
                let _ = writeln!(out, "--- recursive step (joins against TempTable '{}') ---", parts.name);
                return Ok(out);
            }
            past::Statement::Help(_)
            | past::Statement::CreateMacro { .. }
            | past::Statement::ExecuteMacro { .. }
            | past::Statement::CreateProcedure { .. }
            | past::Statement::Call { .. }
            | past::Statement::CreateView { .. } => {
                return Ok(
                    "handled entirely by the Hyper-Q mid tier (DTM catalog / session state); \
                     no single target statement to show\n"
                        .to_string(),
                );
            }
            _ => {}
        }
        let backend = Arc::clone(&self.backend);
        let plan = {
            let catalog = ShadowCatalog::new(&*backend, &self.session);
            let mut binder = Binder::new(&catalog);
            let plan = binder.bind_statement(stmt)?;
            features.union(&binder.features);
            plan
        };
        let plan = self.transformer.run_all(plan, &self.profile.caps, features)?;
        let (plan, fetch_limit) = self.peel_fetch_limit(plan);
        let sql = Serializer::for_profile(&self.profile).serialize_plan(&plan)?;
        let mut out = String::new();
        let _ = writeln!(out, "Hyper-Q translation for target {}", self.profile.caps.name);
        if let Some(n) = fetch_limit {
            let _ = writeln!(
                out,
                "mid-tier fetch limit: {n} row(s) (LimitFetch emulation; the \
                 target spells neither LIMIT nor TOP)"
            );
        }
        if !features.is_empty() {
            let _ = writeln!(out, "tracked features:");
            for f in features.iter() {
                let _ = writeln!(out, "  {f}");
            }
        }
        if let Plan::Query(rel) = &plan {
            let _ = writeln!(out, "XTRA plan:");
            for line in hyperq_xtra::display::render_rel(rel).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        let _ = writeln!(out, "target SQL:");
        let _ = writeln!(out, "  {sql}");
        Ok(out)
    }

    fn run_routine(
        &mut self,
        routine: &RoutineDef,
        args: &[(Option<String>, past::Expr)],
        mut features: FeatureSet,
    ) -> Result<StatementOutcome> {
        features.union(&routine.features);
        let env = emulate::bind_routine_args(routine, args)?;
        let mut timings = StageTimings::default();
        let mut sql_sent = Vec::new();
        let mut last = ExecResult::ack();
        for stmt in &routine.body {
            let substituted = emulate::substitute_params(stmt, &env);
            // Bodies may themselves contain emulated statements (MERGE,
            // HELP, recursive queries, even nested macro executions), so
            // each step goes through the full router. Definitions that need
            // the original statement text cannot come from a routine body.
            if matches!(substituted, past::Statement::CreateView { .. }) {
                return Err(HyperQError::Emulation(
                    "CREATE VIEW inside a macro/procedure body is not supported".into(),
                ));
            }
            let o = self.process(
                ParsedStatement {
                    stmt: substituted,
                    features: FeatureSet::new(),
                    text: String::new(),
                    span: hyperq_parser::StmtSpan::default(),
                },
                false,
            )?;
            features.union(&o.features);
            timings.merge(o.timings);
            sql_sent.extend(o.sql_sent);
            // Macros return the (last) result set; DML steps contribute
            // their counts.
            if !o.result.schema.is_empty() || last.schema.is_empty() {
                last = o.result;
            }
        }
        Ok(StatementOutcome { result: last, features, timings, sql_sent, trace_id: None })
    }

    /// The standard bind → transform → serialize → execute path, plus the
    /// plan-level emulations that piggyback on it (E7 lazily materialized
    /// global temp tables, E8 SET-table dedup, E9 default injection).
    fn run_pipeline(
        &mut self,
        stmt: &past::Statement,
        params: HashMap<String, Datum>,
        features: &mut FeatureSet,
    ) -> Result<StatementOutcome> {
        self.run_pipeline_with(stmt, params, Vec::new(), features)
    }

    fn run_pipeline_with(
        &mut self,
        stmt: &past::Statement,
        params: HashMap<String, Datum>,
        positional: Vec<Datum>,
        features: &mut FeatureSet,
    ) -> Result<StatementOutcome> {
        self.cache_seed = None;
        hyperq_governor::note_stage(hyperq_governor::Stage::Translating);
        hyperq_governor::checkpoint()?;
        let parameterized = !params.is_empty() || !positional.is_empty();
        let backend = Arc::clone(&self.backend);
        let bind_span = self.obs.traces.enter("bind");
        let (plan, gtts, tables) = {
            let catalog = ShadowCatalog::new(&*backend, &self.session);
            let mut binder = Binder::new(&catalog)
                .with_params(params)
                .with_positional(positional);
            let plan = binder.bind_statement(stmt)?;
            features.union(&binder.features);
            (
                plan,
                catalog.gtt_touched.into_inner(),
                catalog.tables_touched.into_inner(),
            )
        };
        let bind_time = bind_span.finish();
        self.stages.bind.record(bind_time);
        provenance::note_stage("bind", bind_time);
        self.analyzer.check_plan(&plan, "bind")?;
        let mut timings = StageTimings { translation: bind_time, execution: Duration::ZERO };

        // Record sidecar properties (E8/E9) the target cannot hold.
        match &plan {
            Plan::CreateTable { def, .. } if def.kind != TableKind::GlobalTemporary => {
                let interesting = def.set_semantics
                    || def.columns.iter().any(|c| c.default.is_some() || c.case_insensitive);
                if interesting {
                    self.session.dtm_tables.insert(def.name.clone(), def.clone());
                }
            }
            Plan::DropTable { name, .. } => {
                self.session.dtm_tables.remove(name);
            }
            _ => {}
        }

        // Backend-visible DDL changes what other statements translate to:
        // drop every cached translation that resolved the table. (Session
        // -local catalog changes — views, GTT definitions, sidecars — are
        // part of the cache key instead and need no invalidation.)
        if let Some(cache) = &self.cache {
            match &plan {
                Plan::CreateTable { def, .. } => cache.invalidate_table(&def.name),
                Plan::DropTable { name, .. } => cache.invalidate_table(name),
                _ => {}
            }
        }

        // E7: definition of a global temporary table → DTM catalog only.
        if let Plan::CreateTable { def, source: None } = &plan {
            if def.kind == TableKind::GlobalTemporary {
                self.emu(EmulationKind::GttDefine);
                features.insert(Feature::GlobalTempTable);
                self.session
                    .global_temp_defs
                    .insert(def.name.clone(), def.clone());
                return Ok(StatementOutcome {
                    result: ExecResult::ack(),
                    features: features.clone(),
                    timings,
                    sql_sent: Vec::new(),
                    trace_id: None,
                });
            }
        }

        let transform_span = self.obs.traces.enter("transform");
        let mut volatile_default = false;
        let plan =
            self.apply_insert_emulations_inner(plan, features, false, &mut volatile_default)?;
        let plan = self
            .analyzer
            .transform(&self.transformer, plan, &self.profile.caps, features)?;
        let transform_time = transform_span.finish();
        self.stages.transform.record(transform_time);
        provenance::note_stage("transform", transform_time);
        timings.translation += transform_time;

        // LimitFetch: a target with neither LIMIT nor TOP executes the
        // query unbounded and the mid tier truncates the result below.
        let (plan, fetch_limit) = self.peel_fetch_limit(plan);
        if fetch_limit.is_some() {
            self.emu(EmulationKind::LimitFetch);
        }

        self.analyzer.check_plan(&plan, "serializer")?;
        let serialize_span = self.obs.traces.enter("serialize");
        let sql = Serializer::for_profile(&self.profile).serialize_plan(&plan)?;
        let serialize_time = serialize_span.finish();
        self.stages.serialize.record(serialize_time);
        provenance::note_stage("serialize", serialize_time);
        timings.translation += serialize_time;
        self.conformance.check_serialized(&sql, &self.profile.caps, &self.profile.name)?;

        // Strict mode: the serializer round-trip audit. Restricted to plain
        // queries with no GTT involvement — GTT instance names resolve
        // against per-session backend temp tables that may not exist yet.
        if matches!(plan, Plan::Query(_)) && gtts.is_empty() {
            let catalog = ShadowCatalog::new(&*backend, &self.session);
            self.analyzer.audit_roundtrip(&sql, &plan, &catalog)?;
        }
        let mut sql_sent = Vec::new();
        hyperq_governor::note_stage(hyperq_governor::Stage::Executing);

        // E7: statements touching a global temporary table are emulated
        // through the per-session instance; record the tracked feature and
        // lazily materialize.
        let gtt_involved = !gtts.is_empty();
        if gtt_involved {
            features.insert(Feature::GlobalTempTable);
        }
        for logical in gtts {
            if self.session.materialized_gtts.contains(&logical) {
                continue;
            }
            self.emu(EmulationKind::GttMaterialize);
            let def = self
                .session
                .global_temp_defs
                .get(&logical)
                .cloned()
                .ok_or_else(|| {
                    HyperQError::Emulation(format!("missing GTT definition {logical}"))
                })?;
            let mut instance = def;
            let instance_name = self.session.gtt_target_name(&logical);
            instance.name = instance_name.clone();
            instance.kind = TableKind::Temporary;
            let ser_span = self.obs.traces.enter("serialize");
            let ddl = Serializer::for_profile(&self.profile)
                .serialize_plan(&Plan::CreateTable { def: instance, source: None })?;
            let d = ser_span.finish();
            self.stages.serialize.record(d);
            provenance::note_stage("serialize", d);
            timings.translation += d;
            self.conformance.check_serialized(&ddl, &self.profile.caps, &self.profile.name)?;
            let exec_span = self.obs.traces.enter("execute");
            self.backend.execute_ctx(&ddl, self.request_ctx(false))?;
            let d = exec_span.finish();
            self.stages.execute.record(d);
            provenance::note_stage("execute", d);
            timings.execution += d;
            // Journal the materialization so a reconnect re-creates the
            // per-session instance (guarded by its continued existence).
            self.session.journal.record_gtt(&logical, &instance_name, &ddl);
            sql_sent.push(ddl);
            self.session.materialized_gtts.insert(logical);
        }

        let is_query = matches!(plan, Plan::Query(_));
        let exec_span = self.obs.traces.enter("execute");
        let mut result = self.backend.execute_ctx(&sql, self.request_ctx(is_query))?;
        let exec_time = exec_span.finish();
        self.stages.execute.record(exec_time);
        provenance::note_stage("execute", exec_time);
        timings.execution += exec_time;
        if let Some(n) = fetch_limit {
            // The LimitFetch truncation: the client sees exactly the rows
            // a native LIMIT/TOP would have returned (the ORDER BY, if
            // any, was serialized, so the prefix is well-defined).
            result.rows.truncate(n as usize);
            result.row_count = result.rows.len() as u64;
        }

        // Leave the translation behind for the cache. Only the standard
        // single-request shapes qualify: GTT-touching statements run a
        // multi-request materialization protocol, DDL mutates catalogs,
        // parameterized requests carry literals out-of-band.
        let cacheable_kind = matches!(
            plan,
            Plan::Query(_) | Plan::Insert { .. } | Plan::Update { .. } | Plan::Delete { .. }
        );
        // LimitFetch translations never seed the cache: a hit would replay
        // the unbounded SQL with nobody left to truncate the result.
        if cacheable_kind && !gtt_involved && !parameterized && fetch_limit.is_none() {
            self.cache_seed = Some(CacheSeed {
                sql: sql.clone(),
                is_query,
                tables: tables.into_iter().collect(),
                volatile: volatile_default,
            });
        }
        sql_sent.push(sql);
        Ok(StatementResult {
            result,
            features: features.clone(),
            timings,
            sql_sent,
            trace_id: None,
        })
    }

    /// E8 (SET-table dedup) and E9 (default injection) on INSERT plans.
    /// `quiet` suppresses the emulation counters (probe translations);
    /// `volatile` is set when an injected default is not a constant — its
    /// value changes between executions, so the translation must never be
    /// cached.
    fn apply_insert_emulations_inner(
        &self,
        plan: Plan,
        features: &mut FeatureSet,
        quiet: bool,
        volatile: &mut bool,
    ) -> Result<Plan> {
        let (table, mut columns, mut source) = match plan {
            Plan::Insert { table, columns, source } => (table, columns, source),
            other => return Ok(other),
        };
        let def = self
            .session
            .dtm_tables
            .get(&table)
            .cloned()
            .or_else(|| self.backend.table_meta(&table))
            .or_else(|| {
                self.session
                    .global_temp_defs
                    .values()
                    .find(|d| self.session.gtt_target_name(&d.name) == table)
                    .cloned()
            })
            .ok_or_else(|| HyperQError::Bind(format!("table {table} not found")))?;

        // E9: inject mid-tier defaults for omitted columns whose default the
        // target cannot express (e.g. DEFAULT CURRENT_DATE).
        let missing: Vec<&ColumnDef> = def
            .columns
            .iter()
            .filter(|c| {
                c.default.is_some() && !columns.iter().any(|x| x.eq_ignore_ascii_case(&c.name))
            })
            .collect();
        if !missing.is_empty() {
            if !quiet {
                self.emu(EmulationKind::DefaultInjection);
            }
            let schema = source.schema();
            let mut exprs: Vec<(ScalarExpr, String)> = schema
                .fields
                .iter()
                .map(|f| {
                    (
                        ScalarExpr::Column {
                            qualifier: f.qualifier.clone(),
                            name: f.name.clone(),
                            ty: f.ty.clone(),
                        },
                        f.name.clone(),
                    )
                })
                .collect();
            for c in &missing {
                let default = c.default.as_ref().expect("filtered on is_some");
                if !matches!(default, ScalarExpr::Literal(..)) {
                    features.insert(Feature::ColumnProperties);
                    *volatile = true;
                }
                let value = emulate::const_eval(default)?;
                let ty = value.sql_type();
                exprs.push((ScalarExpr::Literal(value, ty), c.name.clone()));
                columns.push(c.name.clone());
            }
            source = RelExpr::Project { input: Box::new(source), exprs };
        }

        // E8: SET-table semantics — dedupe the source and anti-join against
        // existing rows. (Comparison is over the inserted columns; with
        // constant defaults this matches full-row SET semantics.)
        if def.set_semantics {
            if !quiet {
                self.emu(EmulationKind::SetTableDedup);
            }
            features.insert(Feature::SetTableSemantics);
            let get = RelExpr::Get {
                table: def.name.clone(),
                alias: Some(def.base_name().to_string()),
                schema: def.schema(None),
            };
            let existing = RelExpr::Project {
                input: Box::new(get),
                exprs: columns
                    .iter()
                    .map(|c| {
                        let col = def
                            .columns
                            .iter()
                            .find(|d| d.name.eq_ignore_ascii_case(c))
                            .expect("insert columns validated by binder");
                        (
                            ScalarExpr::Column {
                                qualifier: Some(def.base_name().to_string()),
                                name: col.name.clone(),
                                ty: col.ty.clone(),
                            },
                            col.name.clone(),
                        )
                    })
                    .collect(),
            };
            source = RelExpr::SetOp {
                kind: SetOpKind::Except,
                all: false,
                left: Box::new(RelExpr::Distinct { input: Box::new(source) }),
                right: Box::new(existing),
            };
        }

        Ok(Plan::Insert { table, columns, source })
    }

    // -----------------------------------------------------------------------
    // E1: recursion via WorkTable/TempTable (§6)
    // -----------------------------------------------------------------------

    fn emulate_recursive(
        &mut self,
        q: &past::Query,
        mut features: FeatureSet,
    ) -> Result<StatementOutcome> {
        let mut timings = StageTimings::default();
        let mut sql_sent = Vec::new();
        // Temp tables created so far; on a mid-sequence failure they are
        // best-effort dropped so a retried statement starts clean instead
        // of colliding with leftovers on the target.
        let mut live: Vec<String> = Vec::new();
        match self.emulate_recursive_inner(q, &mut features, &mut timings, &mut sql_sent, &mut live)
        {
            Ok(result) => Ok(StatementOutcome { result, features, timings, sql_sent, trace_id: None }),
            Err(e) => {
                self.cleanup_temp_tables(&live, &mut timings, &mut sql_sent);
                Err(e)
            }
        }
    }

    /// Best-effort `DROP TABLE IF EXISTS` for temp tables left behind by a
    /// failed emulation sequence. Errors are swallowed: cleanup must never
    /// mask the original failure.
    fn cleanup_temp_tables(
        &mut self,
        live: &[String],
        timings: &mut StageTimings,
        sql_sent: &mut Vec<String>,
    ) {
        // Cleanup must succeed even when the statement was just cancelled:
        // the governor checkpoints inside the backend stack would refuse
        // the DROPs, leaking emulation temp tables. Shield the governor for
        // the duration (mirroring provenance::suspended for probes).
        hyperq_governor::shielded(|| {
            for name in live.iter().rev() {
                self.emu(EmulationKind::Cleanup);
                let dropped = self.exec_plan(
                    Plan::DropTable { name: name.clone(), if_exists: true },
                    timings,
                    sql_sent,
                );
                if dropped.is_err() {
                    // The DROP itself failed (e.g. the connection died): journal
                    // the orphan so the next reconnect retires the name instead
                    // of resurrecting it.
                    if let Ok(drop_sql) = Serializer::for_profile(&self.profile)
                        .serialize_plan(&Plan::DropTable { name: name.clone(), if_exists: true })
                    {
                        self.session.journal.record_orphan(name, drop_sql);
                    }
                }
            }
        });
    }

    fn emulate_recursive_inner(
        &mut self,
        q: &past::Query,
        features: &mut FeatureSet,
        timings: &mut StageTimings,
        sql_sent: &mut Vec<String>,
        live: &mut Vec<String>,
    ) -> Result<ExecResult> {
        let parts = emulate::split_recursive(q)?;

        // Bind the seed to learn the CTE schema.
        let t0 = Instant::now();
        let backend = Arc::clone(&self.backend);
        let seed_rel = {
            let catalog = ShadowCatalog::new(&*backend, &self.session);
            let mut binder = Binder::new(&catalog);
            let rel = binder.bind_query(&parts.seed)?;
            features.union(&binder.features);
            rel
        };
        let seed_schema = seed_rel.schema();
        let columns: Vec<String> = if parts.columns.is_empty() {
            seed_schema.fields.iter().map(|f| f.name.clone()).collect()
        } else {
            parts.columns.clone()
        };
        if columns.len() != seed_schema.len() {
            return Err(HyperQError::Emulation(format!(
                "recursive CTE {} declares {} columns but its seed produces {}",
                parts.name,
                columns.len(),
                seed_schema.len()
            )));
        }
        let col_defs: Vec<ColumnDef> = columns
            .iter()
            .zip(seed_schema.fields.iter())
            .map(|(name, f)| ColumnDef::new(name, f.ty.clone(), true))
            .collect();
        timings.translation += t0.elapsed();

        let work_table = self.session.fresh_name("WT");
        let mut temp_table = self.session.fresh_name("TT");
        let table_def = |name: &str| TableDef {
            name: name.to_string(),
            columns: col_defs.clone(),
            set_semantics: false,
            kind: TableKind::Temporary,
        };

        // Step 1: initialize WorkTable and TempTable with the seed. Names
        // go on the live list *before* execution: a failed CTAS may leave
        // a partial table behind, and cleanup drops with IF EXISTS.
        live.push(work_table.clone());
        self.exec_plan(
            Plan::CreateTable {
                def: table_def(&work_table),
                source: Some(rename_columns(seed_rel, &columns)),
            },
            timings,
            sql_sent,
        )?;
        live.push(temp_table.clone());
        self.exec_plan(
            Plan::CreateTable {
                def: table_def(&temp_table),
                source: Some(RelExpr::Get {
                    table: work_table.clone(),
                    alias: Some(work_table.clone()),
                    schema: table_def(&work_table).schema(None),
                }),
            },
            timings,
            sql_sent,
        )?;

        // Steps 2..: run the recursive expression joined against TempTable
        // until it produces no new rows (paper §6, steps 2–4).
        let mut converged = false;
        for _ in 0..MAX_RECURSION_STEPS {
            // Cooperative cancellation between recursion steps; the caller
            // runs cleanup_temp_tables (shielded) on the error path, so a
            // cancelled recursion leaves no WT/TT tables behind.
            hyperq_governor::checkpoint()?;
            let next_table = self.session.fresh_name("TT");
            let t = Instant::now();
            let step_rel = {
                let catalog = ShadowCatalog::new(&*backend, &self.session)
                    .with_overlay(&parts.name, table_def(&temp_table));
                let mut binder = Binder::new(&catalog);
                let rel = binder.bind_query(&parts.recursive)?;
                features.union(&binder.features);
                rel
            };
            timings.translation += t.elapsed();
            live.push(next_table.clone());
            let produced = self.exec_plan(
                Plan::CreateTable {
                    def: table_def(&next_table),
                    source: Some(rename_columns(step_rel, &columns)),
                },
                timings,
                sql_sent,
            )?;
            if produced.row_count == 0 {
                self.exec_plan(
                    Plan::DropTable { name: next_table.clone(), if_exists: false },
                    timings,
                    sql_sent,
                )?;
                live.retain(|n| n != &next_table);
                converged = true;
                break;
            }
            self.exec_plan(
                Plan::Insert {
                    table: work_table.clone(),
                    columns: columns.clone(),
                    source: RelExpr::Get {
                        table: next_table.clone(),
                        alias: Some(next_table.clone()),
                        schema: table_def(&next_table).schema(None),
                    },
                },
                timings,
                sql_sent,
            )?;
            self.exec_plan(
                Plan::DropTable { name: temp_table.clone(), if_exists: false },
                timings,
                sql_sent,
            )?;
            live.retain(|n| n != &temp_table);
            temp_table = next_table;
        }
        if !converged {
            return Err(HyperQError::Emulation(format!(
                "recursive query did not converge within {MAX_RECURSION_STEPS} steps"
            )));
        }

        // Step 5: main query with the CTE name bound to the WorkTable.
        let t = Instant::now();
        let main_plan = {
            let catalog = ShadowCatalog::new(&*backend, &self.session)
                .with_overlay(&parts.name, table_def(&work_table));
            let mut binder = Binder::new(&catalog);
            let plan = Plan::Query(binder.bind_query(&parts.main)?);
            features.union(&binder.features);
            plan
        };
        timings.translation += t.elapsed();
        let result = self.exec_plan_full(main_plan, timings, sql_sent)?;

        // Step 6: drop the temporary tables.
        self.exec_plan(
            Plan::DropTable { name: temp_table.clone(), if_exists: false },
            timings,
            sql_sent,
        )?;
        live.retain(|n| n != &temp_table);
        self.exec_plan(
            Plan::DropTable { name: work_table.clone(), if_exists: false },
            timings,
            sql_sent,
        )?;
        live.retain(|n| n != &work_table);

        Ok(result)
    }

    /// Replay-safety context for a backend request: only pure queries are
    /// idempotent, and nothing inside an open transaction may be blindly
    /// retried (a replay could double-apply effects the target already
    /// holds in its transaction state).
    fn request_ctx(&self, idempotent: bool) -> RequestContext {
        RequestContext { idempotent, in_transaction: self.session.in_transaction, pin: None }
    }

    /// Peel a top-level row bound off a query plan when the target spells
    /// neither `LIMIT` nor `TOP` (the `LimitFetch` emulation): the query
    /// executes unbounded and the mid tier truncates the result set to
    /// `n` rows. Only the plain shape (no OFFSET, no WITH TIES) peels —
    /// anything else still fails in the serializer.
    fn peel_fetch_limit(&self, plan: Plan) -> (Plan, Option<u64>) {
        if self.profile.flavor.limit != LimitSpelling::None {
            return (plan, None);
        }
        match plan {
            Plan::Query(RelExpr::Limit { input, limit: Some(n), with_ties: false, offset: 0 }) => {
                (Plan::Query(*input), Some(n))
            }
            // Hidden ORDER BY sort columns wrap a rename/strip projection
            // above the bound; the projection is row-preserving, so
            // truncating after it equals truncating before it.
            Plan::Query(RelExpr::Project { input, exprs }) => match *input {
                RelExpr::Limit { input, limit: Some(n), with_ties: false, offset: 0 } => {
                    (Plan::Query(RelExpr::Project { input, exprs }), Some(n))
                }
                other => {
                    (Plan::Query(RelExpr::Project { input: Box::new(other), exprs }), None)
                }
            },
            other => (other, None),
        }
    }

    /// Transform, serialize and execute one already-bound plan, charging
    /// the stage timers.
    fn exec_plan(
        &mut self,
        plan: Plan,
        timings: &mut StageTimings,
        sql_sent: &mut Vec<String>,
    ) -> Result<ExecResult> {
        self.exec_plan_full(plan, timings, sql_sent)
    }

    fn exec_plan_full(
        &mut self,
        plan: Plan,
        timings: &mut StageTimings,
        sql_sent: &mut Vec<String>,
    ) -> Result<ExecResult> {
        let span = self.obs.traces.enter("transform");
        let mut scratch = FeatureSet::new();
        let plan = self
            .analyzer
            .transform(&self.transformer, plan, &self.profile.caps, &mut scratch)?;
        let d = span.finish();
        self.stages.transform.record(d);
        provenance::note_stage("transform", d);
        timings.translation += d;
        // Recursion's main query can carry a row bound too: same
        // LimitFetch peel-and-truncate as the standard path.
        let (plan, fetch_limit) = self.peel_fetch_limit(plan);
        if fetch_limit.is_some() {
            self.emu(EmulationKind::LimitFetch);
        }
        // No round-trip audit here: emulation plans reference freshly
        // created per-session temp tables the shadow catalog cannot rebind.
        self.analyzer.check_plan(&plan, "serializer")?;
        let span = self.obs.traces.enter("serialize");
        let sql = Serializer::for_profile(&self.profile).serialize_plan(&plan)?;
        let d = span.finish();
        self.stages.serialize.record(d);
        provenance::note_stage("serialize", d);
        timings.translation += d;
        self.conformance.check_serialized(&sql, &self.profile.caps, &self.profile.name)?;
        let span = self.obs.traces.enter("execute");
        let mut result =
            self.backend.execute_ctx(&sql, self.request_ctx(matches!(plan, Plan::Query(_))))?;
        let d = span.finish();
        self.stages.execute.record(d);
        provenance::note_stage("execute", d);
        timings.execution += d;
        if let Some(n) = fetch_limit {
            result.rows.truncate(n as usize);
            result.row_count = result.rows.len() as u64;
        }
        sql_sent.push(sql);
        Ok(result)
    }
}

/// The profile's contribution to the cache-key context hash: registry
/// name, capability signature, and dialect flavor. Two profiles sharing a
/// capability signature (or even a name) still key distinctly if any
/// component differs, so cross-target cache pollution is structurally
/// impossible.
fn profile_sig(profile: &TargetProfile) -> u64 {
    fnv1a(format!("{}|{:?}|{:?}", profile.name, profile.caps, profile.flavor).as_bytes())
}

/// Alias a recursion CTAS source's output columns to the CTE's declared
/// names. A CTAS carries no column list — the target names the new
/// table's columns after the SELECT's output — so a computed (`0`,
/// `R.LVL + 1`) or renamed column would otherwise not be found by the
/// next step. Sources whose names already match pass through unchanged.
fn rename_columns(source: RelExpr, columns: &[String]) -> RelExpr {
    let schema = source.schema();
    if schema.fields.iter().zip(columns).all(|(f, c)| f.name.eq_ignore_ascii_case(c)) {
        return source;
    }
    let exprs = schema
        .fields
        .iter()
        .zip(columns)
        .map(|(f, c)| {
            let col = ScalarExpr::Column {
                qualifier: f.qualifier.clone(),
                name: f.name.clone(),
                ty: f.ty.clone(),
            };
            (col, c.clone())
        })
        .collect();
    RelExpr::Project { input: Box::new(source), exprs }
}

fn ack(features: FeatureSet) -> StatementResult {
    StatementResult {
        result: ExecResult::ack(),
        features,
        timings: StageTimings::default(),
        sql_sent: Vec::new(),
        trace_id: None,
    }
}

/// Cheap pre-parse filter for the cache fast path: only leading keywords
/// of statements the standard pipeline handles are worth a fingerprint +
/// lookup. Everything else (DDL, SET, HELP, macros, …) goes straight to
/// the router.
fn fast_path_candidate(sql: &str) -> bool {
    let trimmed = sql.trim_start();
    let word: String = trimmed
        .chars()
        .take_while(char::is_ascii_alphabetic)
        .take(8)
        .collect();
    matches!(
        word.to_ascii_uppercase().as_str(),
        "SELECT" | "SEL" | "INSERT" | "INS" | "UPDATE" | "UPD" | "DELETE" | "DEL" | "WITH"
    )
}

/// Coarse statement kind from the leading keyword, recorded in provenance
/// records (Teradata shorthands normalized onto the long forms).
fn statement_kind(sql: &str) -> &'static str {
    let word: String = sql
        .trim_start()
        .chars()
        .take_while(char::is_ascii_alphabetic)
        .take(12)
        .collect();
    match word.to_ascii_uppercase().as_str() {
        "SELECT" | "SEL" | "WITH" => "select",
        "INSERT" | "INS" => "insert",
        "UPDATE" | "UPD" => "update",
        "DELETE" | "DEL" => "delete",
        "MERGE" => "merge",
        "CREATE" | "REPLACE" => "create",
        "DROP" => "drop",
        "ALTER" => "alter",
        "EXEC" | "EXECUTE" => "execute",
        "CALL" => "call",
        "HELP" => "help",
        "EXPLAIN" => "explain",
        "SET" => "set",
        "BT" | "BEGIN" | "ET" | "COMMIT" | "END" | "ROLLBACK" | "ABORT" => "transaction",
        _ => "other",
    }
}

/// The canonical statement text of a single-statement script: trimmed,
/// trailing semicolons stripped — matching what the parser records as
/// `ParsedStatement::text`, so cache-hit and slow-path statements report
/// identical texts to the tracker and slow-query log.
fn statement_text(sql: &str) -> &str {
    let mut s = sql.trim();
    while let Some(stripped) = s.strip_suffix(';') {
        s = stripped.trim_end();
    }
    s
}

/// The Transformer's DML-batching example (§4.3): "if the target database
/// incurs a large overhead in executing single-row DML requests, a
/// transformation that groups a large number of contiguous single-row DML
/// statements into one large statement could be applied." Consecutive
/// single-row `INSERT … VALUES` against the same table and column list are
/// merged into one multi-row insert.
pub fn batch_single_row_inserts(stmts: Vec<ParsedStatement>) -> Vec<ParsedStatement> {
    let mut out: Vec<ParsedStatement> = Vec::with_capacity(stmts.len());
    for ps in stmts {
        let mergeable = insert_values_parts(&ps).is_some();
        if mergeable {
            if let Some(prev) = out.last_mut() {
                let can_merge = match (insert_values_parts(prev), insert_values_parts(&ps)) {
                    (Some((pt, pc, _)), Some((ct, cc, _))) => pt == ct && pc == cc,
                    _ => false,
                };
                if can_merge {
                    let new_rows = match &ps.stmt {
                        past::Statement::Insert { source, .. } => match &source.body {
                            past::QueryBody::Select(b) => b.value_rows.clone(),
                            _ => unreachable!("checked by insert_values_parts"),
                        },
                        _ => unreachable!("checked by insert_values_parts"),
                    };
                    if let past::Statement::Insert { source, .. } = &mut prev.stmt {
                        if let past::QueryBody::Select(b) = &mut source.body {
                            b.value_rows.extend(new_rows);
                        }
                    }
                    prev.features.union(&ps.features);
                    // Keep the merged statement's text honest: it now
                    // spans several source statements (which also makes
                    // its fingerprint multi-statement, bypassing the
                    // translation cache).
                    prev.text.push_str("; ");
                    prev.text.push_str(&ps.text);
                    // The merged statement now covers both source ranges.
                    prev.span.end = prev.span.end.max(ps.span.end);
                    continue;
                }
            }
        }
        out.push(ps);
    }
    out
}

/// If the statement is a single-table `INSERT … VALUES`, its (table,
/// columns, row-count).
fn insert_values_parts(ps: &ParsedStatement) -> Option<(String, Vec<String>, usize)> {
    match &ps.stmt {
        past::Statement::Insert { table, columns, source } => match &source.body {
            past::QueryBody::Select(b) if !b.value_rows.is_empty() && source.ctes.is_empty() => {
                Some((table.canonical(), columns.clone(), b.value_rows.len()))
            }
            _ => None,
        },
        _ => None,
    }
}
