//! The cross compiler: the façade that drives parse → bind → transform →
//! serialize → execute, routes emulated features through the mid tier, and
//! instruments per-stage timing (the Figure 9 measurements).

use std::cell::OnceCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq_parser::ast as past;
use hyperq_parser::fingerprint::{fingerprint, fnv1a, redact_literals, Fingerprint};
use hyperq_parser::{parse_statements, Dialect, ParsedStatement};
use hyperq_xtra::catalog::{ColumnDef, MetadataProvider, TableDef, TableKind, ViewDef};
use hyperq_xtra::datum::Datum;
use hyperq_xtra::expr::ScalarExpr;
use hyperq_xtra::feature::{Feature, FeatureSet};
use hyperq_xtra::rel::{Plan, RelExpr, SetOpKind};

use hyperq_obs::provenance::{self, CacheOutcome, FinishedStatement};
use hyperq_obs::{Counter, Histogram, ObsContext, Span, TraceId};

use crate::analyze::{AnalyzeMode, Analyzer};
use crate::backend::{Backend, ExecResult, RequestContext, RequestKind};
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
use crate::capability::LimitSpelling;
use crate::serialize::Serializer;
use crate::session::{RoutineDef, SessionState, ShadowCatalog};
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
}

/// The stage-latency histogram family shared by the whole pipeline
/// (`convert` is recorded by the wire layer under the same name).
pub const STAGE_DURATION_METRIC: &str = "hyperq_stage_duration_seconds";

impl StageHandles {
    fn new(obs: &ObsContext) -> Self {
        let stage = |s| obs.metrics.histogram(STAGE_DURATION_METRIC, &[("stage", s)]);
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
        }
    }

    /// The histogram of a stage that has one (the cache lookup has not).
    fn histogram(&self, stage: &str) -> Option<&Histogram> {
        match stage {
            "parse" => Some(&self.parse),
            "bind" => Some(&self.bind),
            "transform" => Some(&self.transform),
            "serialize" => Some(&self.serialize),
            "execute" => Some(&self.execute),
            _ => None,
        }
    }
}

/// One virtualized connection: Teradata-dialect SQL in, target execution
/// out.
pub struct HyperQ {
    backend: Arc<dyn Backend>,
    /// The session's target: capabilities + registry name (the value of every `target` metric label). A
    /// [`Request`] may override it for one request via `ctx.target`.
    profile: TargetProfile,
    transformer: Transformer,
    pub session: SessionState,
    obs: Arc<ObsContext>,
    stages: StageHandles,
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
    /// FNV-1a signature of the target profile (registry name and
    /// capabilities), precomputed for the cache-key context hash.
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

/// A text and its fingerprint, lexed at most once, by whichever of the
/// cache's fast path, the cache fill and the provenance record asks first.
struct Lexed<'a> {
    text: &'a str,
    once: OnceCell<Option<Fingerprint>>,
}

impl<'a> Lexed<'a> {
    fn new(text: &'a str) -> Self {
        Lexed { text, once: OnceCell::new() }
    }

    fn fp(&self) -> Option<&Fingerprint> {
        self.once.get_or_init(|| fingerprint(self.text).ok()).as_ref()
    }
}

/// What binding leaves for the rest of the statement.
struct Bound {
    plan: Plan,
    /// Logical names of the global temporary tables the statement touched.
    gtts: HashSet<String>,
    /// Base names of every table the statement resolved: the invalidation
    /// scope of its cached translation.
    tables: HashSet<String>,
}

/// Who a lowering serves, which decides what it checks and records.
enum Lowering<'t> {
    /// `translate()`, Strict cache revalidation, the cache's splice probe
    /// and EXPLAIN: no analyzer, rule audit or lint, and nothing recorded
    /// (no span, stage, provenance note or count of any kind).
    Preview,
    /// A statement the session executes, timed into its timings.
    Execute(&'t mut StageTimings),
    /// A plan the mid tier built over its own temp tables (recursion steps,
    /// GTT instances), which carry no DTM sidecar: no insert emulations.
    MidTier(&'t mut StageTimings),
}

/// A statement the mid tier emulates instead of translating it to one
/// target statement (see [`HyperQ::emulated`]).
enum Emulated<'s> {
    /// E4: an UPDATE and a guarded INSERT.
    Merge(&'s past::MergeStmt),
    /// E1: WorkTable/TempTable requests until a step produces no rows.
    Recursive(&'s past::Query),
    /// Answered from the DTM catalog or session state: HELP, macros,
    /// procedures, view definitions.
    Catalog(EmulationKind),
    /// E6: DML on a DTM-cataloged view, rewritten onto its base tables.
    ViewDml,
}

impl Emulated<'_> {
    fn kind(&self) -> EmulationKind {
        match self {
            Emulated::Merge(_) => EmulationKind::Merge,
            Emulated::Recursive(_) => EmulationKind::Recursive,
            Emulated::Catalog(kind) => *kind,
            Emulated::ViewDml => EmulationKind::ViewDml,
        }
    }
}

/// A statement lowered to the SQL the target runs.
struct Lowered {
    plan: Plan,
    sql: String,
    /// LimitFetch: the row bound [`HyperQ::send`] truncates the result to.
    fetch_limit: Option<u64>,
    /// An injected default changes between executions: never cache it.
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
    /// When the builder assembled a replica set, the replicated backend
    /// itself (already `link`'s driver) plus its health prober,
    /// so the session can expose replica state and owns the prober thread.
    pub replication: Option<Arc<crate::replicate::ReplicatedBackend>>,
    pub prober: Option<crate::repair::ProberHandle>,
}

impl HyperQ {
    pub(crate) fn from_spec(spec: BuildSpec) -> Self {
        let id = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
        let stages = StageHandles::new(&spec.obs);
        let analyzer = Analyzer::new(spec.analyze, &spec.obs);
        let conformance = Conformance::new(spec.conformance, &spec.obs);
        let session = SessionState::new(id, "APP");
        let backend =
            spec.link.for_session(session.journal.clone(), spec.recover, Arc::clone(&spec.obs));
        let caps_sig = profile_sig(&spec.profile);
        HyperQ {
            backend: Arc::new(backend),
            profile: spec.profile,
            transformer: Transformer::standard().instrumented(&spec.obs.metrics),
            session,
            obs: spec.obs,
            stages,
            analyzer,
            conformance,
            cache: spec.cache,
            cache_seed: None,
            caps_sig,
            replication: spec.replication,
            _replica_prober: spec.prober,
        }
    }

    pub fn capabilities(&self) -> &TargetCapabilities {
        &self.profile.caps
    }

    /// The session's target profile.
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
        // A statement that is the whole request shares its fingerprint.
        let request = Lexed::new(&req.sql);
        if !req.ctx.bypass_cache {
            if let Some(result) = self.try_cache_fast_path(&request) {
                return result.map(|s| Response { statements: vec![s] });
            }
        }
        let statements = self.run_script_slow(&request, !req.ctx.bypass_cache)?;
        Ok(Response { statements })
    }

    /// Run a script of one or more Teradata-dialect statements.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        Ok(self.run(Request::script(sql))?.statements)
    }

    /// The full pipeline path: parse the script, route every statement.
    fn run_script_slow(&mut self, script: &Lexed, cache_ok: bool) -> Result<Vec<StatementResult>> {
        let t0 = Instant::now();
        let stmts = batch_single_row_inserts(parse_statements(script.text, Dialect::Teradata)?);
        let parse_time = t0.elapsed();
        let mut outcomes = Vec::with_capacity(stmts.len());
        let obs = Arc::clone(&self.obs);
        for (i, ps) in stmts.into_iter().enumerate() {
            let text = ps.text.clone();
            let own = Lexed::new(&text);
            let lexed = if text == script.text { script } else { &own };
            let root = obs.traces.enter("statement");
            let trace = root.trace_id();
            obs.provenance.begin();
            let mut parse = StageTimings::default();
            if i == 0 {
                // Script parsing happened before any statement trace
                // existed; charge it to the first statement.
                self.record_stage("parse", parse_time, &mut parse, Some(&root));
            }
            let processed = self.process(ps, cache_ok.then_some(lexed));
            // Script parse time happened outside the root span, so fold it
            // into the statement's end-to-end time too.
            let total = root.finish() + parse.translation;
            let mut outcome = self.observe_statement(processed, trace, lexed, total)?;
            outcome.timings.merge(parse);
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Try to answer a request from the translation cache without parsing.
    /// `None` falls through to the slow path; `Some` is the statement's
    /// final result (the hit executed, successfully or not).
    fn try_cache_fast_path(&mut self, request: &Lexed) -> Option<Result<StatementResult>> {
        let sql = request.text;
        let cache = Arc::clone(self.cache.as_ref()?);
        if !fast_path_candidate(sql) {
            return None;
        }
        let t0 = Instant::now();
        let fp = request.fp()?;
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
            // Sampled revalidation: a fresh translation must reproduce the
            // cached SQL byte-for-byte, or the entry dies and the statement
            // takes the slow path.
            let fresh = provenance::suspended(|| self.translate(sql));
            if matches!(fresh.as_deref(), Ok([fresh]) if *fresh == hit.sql) {
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
        let mut timings = StageTimings::default();
        self.record_stage("cache", lookup_time, &mut timings, Some(&root));
        let processed = self.send(&hit.sql, hit.is_query, None, &mut timings).map(|result| {
            StatementResult {
                result,
                features: hit.features.clone(),
                timings,
                sql_sent: vec![hit.sql],
                trace_id: None,
            }
        });
        // The lookup ran before the root span opened; it is part of the
        // statement's end-to-end time all the same.
        let total = root.finish() + lookup_time;
        let own = Lexed::new(statement_text(sql));
        let lexed = if own.text == sql { request } else { &own };
        Some(self.observe_statement(processed, trace, lexed, total))
    }

    /// The cache-key context hash: everything besides the statement text
    /// the translation output depends on.
    fn translation_ctx(&self) -> u64 {
        let mut bytes = Vec::with_capacity(26);
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
        bytes.extend_from_slice(&self.session.settings_epoch().to_le_bytes());
        bytes.extend_from_slice(&self.session.catalog_epoch().to_le_bytes());
        fnv1a(&bytes)
    }

    /// Offer the most recent standard-path translation to the cache.
    fn maybe_populate(&mut self, lexed: &Lexed, features: &FeatureSet) {
        let Some(seed) = self.cache_seed.take() else { return };
        let Some(cache) = self.cache.clone() else { return };
        if lexed.text.is_empty() {
            // Internal sub-statements (routine bodies) carry no source
            // text; they are driven by their caller, never cached.
            return;
        }
        if seed.volatile {
            provenance::note_cache(CacheOutcome::Bypass("volatile_default"));
            cache.note_bypass();
            return;
        }
        let Some(fp) = lexed.fp() else {
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
        cache.populate(key, lexed.text, &fp.literals, fill, |src| self.probe_translate(src));
    }

    /// The probe translation used to verify splice templates: a preview of
    /// the one statement in `src`, refused when it injects a volatile
    /// default.
    fn probe_translate(&self, src: &str) -> Option<String> {
        let stmts = parse_statements(src, Dialect::Teradata).ok()?;
        let [ps] = &stmts[..] else { return None };
        let lowered = self.preview(&ps.stmt, &mut FeatureSet::new()).ok()?;
        (!lowered.volatile).then_some(lowered.sql)
    }

    /// Common statement epilogue: statement histogram and outcome counters,
    /// per-feature counters, the provenance record, trace-id stamping.
    fn observe_statement(
        &mut self,
        processed: Result<StatementResult>,
        trace: TraceId,
        lexed: &Lexed,
        total: Duration,
    ) -> Result<StatementResult> {
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
                for feature in outcome.features.iter() {
                    self.obs
                        .metrics
                        .counter(
                            "hyperq_feature_statements_total",
                            &[("feature", &format!("{feature}"))],
                        )
                        .inc();
                }
                self.finish_provenance(trace, lexed, total, Some(&outcome), None);
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
                let msg = e.to_string();
                self.finish_provenance(trace, lexed, total, None, Some(&msg));
                Err(e)
            }
        }
    }

    /// Seal the statement's provenance record (opened by `begin` at the
    /// statement head; a no-op when capture is disabled). The statement's
    /// one fingerprint gives both the hash and the literal spans the
    /// redaction replaces.
    fn finish_provenance(
        &self,
        trace: TraceId,
        lexed: &Lexed,
        total: Duration,
        outcome: Option<&StatementResult>,
        error: Option<&str>,
    ) {
        let prov = &self.obs.provenance;
        if !prov.is_enabled() {
            return;
        }
        let (text, fp) = (lexed.text, lexed.fp());
        let hash = fp.map_or(0, |f| f.hash);
        // Surface the fingerprint on the in-flight query table too (the
        // governor's `/queries` snapshot keys on it).
        if let Some(gov) = hyperq_governor::current() {
            gov.set_fingerprint(hash);
        }
        let sql =
            if prov.capture_raw() { text.to_string() } else { redact_literals(text, fp) };
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
        let mut parse = StageTimings::default();
        self.record_stage("parse", parse_time, &mut parse, Some(&root));
        let processed = self
            .run_standard(&ps.stmt, values.to_vec(), &mut features)
            .map(|o| StatementResult { features, ..o });
        // As above: parsing preceded the root span but belongs to this
        // statement's end-to-end time.
        let total = root.finish() + parse_time;
        let mut outcome = self.observe_statement(processed, trace, &Lexed::new(&ps.text), total)?;
        outcome.timings.merge(parse);
        Ok(outcome)
    }

    /// Translate without executing: the SQL that *would* be sent. Used by
    /// benchmarks to isolate translation cost and by tests to inspect the
    /// generated SQL. A preview: the execution's own lowering, with no
    /// validation or lint, recording nothing.
    ///
    /// A statement the mid tier emulates (MERGE, recursion, macros and
    /// procedures, HELP, view definitions, DML on a view) has no single
    /// translation and fails with an emulation error naming it.
    pub fn translate(&mut self, sql: &str) -> Result<Vec<String>> {
        parse_statements(sql, Dialect::Teradata)?
            .iter()
            .map(|ps| {
                if let Some(emulated) = self.emulated(&ps.stmt) {
                    return Err(HyperQError::Emulation(format!(
                        "{} is emulated by the mid tier and has no single translation",
                        emulated.kind().as_str()
                    )));
                }
                Ok(self.preview(&ps.stmt, &mut FeatureSet::new())?.sql)
            })
            .collect()
    }

    /// How the mid tier answers `stmt` when it emulates the statement
    /// instead of translating it to one target statement; `None` for a
    /// statement with a translation of its own.
    fn emulated<'s>(&self, stmt: &'s past::Statement) -> Option<Emulated<'s>> {
        Some(match stmt {
            past::Statement::Merge(m) => Emulated::Merge(m),
            past::Statement::Query(q) if q.recursive => Emulated::Recursive(q),
            past::Statement::Help(_) => Emulated::Catalog(EmulationKind::Help),
            past::Statement::CreateMacro { .. } | past::Statement::ExecuteMacro { .. } => {
                Emulated::Catalog(EmulationKind::Macro)
            }
            past::Statement::CreateProcedure { .. } | past::Statement::Call { .. } => {
                Emulated::Catalog(EmulationKind::Procedure)
            }
            past::Statement::CreateView { .. } => Emulated::Catalog(EmulationKind::View),
            past::Statement::Update { table, .. }
            | past::Statement::Delete { table, .. }
            | past::Statement::Insert { table, .. }
                if self.session.views.contains_key(&table.canonical()) =>
            {
                Emulated::ViewDml
            }
            _ => return None,
        })
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

    /// Route one statement; `cache` is its lexed text when it may fill the
    /// translation cache.
    fn process(&mut self, ps: ParsedStatement, cache: Option<&Lexed>) -> Result<StatementResult> {
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
                        let catalog = ShadowCatalog::new(&*self.backend, &self.session);
                        let def = catalog.table(&name.canonical()).ok_or_else(|| {
                            HyperQError::Emulation(format!("table {name} not found"))
                        })?;
                        emulate::help_table(&def)
                    }
                };
                Ok(StatementResult {
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
                Ok(StatementResult {
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
                    let o = self.run_standard(step, Vec::new(), &mut features)?;
                    affected += o.result.row_count;
                    timings.merge(o.timings);
                    sql_sent.extend(o.sql_sent);
                }
                Ok(StatementResult {
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
                        .execute_ctx(&sql, self.request_ctx(RequestKind::Replayable))
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
                let o = self.run_standard(&rewritten, Vec::new(), &mut features)?;
                Ok(StatementResult { features, ..o })
            }

            // --- standard path ----------------------------------------------
            stmt => {
                let o = self.run_standard(stmt, Vec::new(), &mut features)?;
                if let Some(lexed) = cache {
                    self.maybe_populate(lexed, &features);
                }
                Ok(StatementResult { features, ..o })
            }
        }
    }

    /// Produce an EXPLAIN report: tracked features, the final XTRA plan
    /// tree, and the SQL that would be sent to the target. Nothing reaches
    /// the backend.
    fn explain(&self, stmt: &past::Statement, features: &mut FeatureSet) -> Result<String> {
        use std::fmt::Write as _;
        // Emulated statements: explain the decomposition.
        match self.emulated(stmt) {
            Some(Emulated::Merge(m)) => {
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
            Some(Emulated::Recursive(q)) => {
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
            Some(Emulated::Catalog(_)) => {
                return Ok(
                    "handled entirely by the Hyper-Q mid tier (DTM catalog / session state); \
                     no single target statement to show\n"
                        .to_string(),
                );
            }
            // DML on a view explains the statement as written.
            Some(Emulated::ViewDml) | None => {}
        }
        let Lowered { plan, sql, fetch_limit, .. } = self.preview(stmt, features)?;
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
    ) -> Result<StatementResult> {
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
                None,
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
        Ok(StatementResult { result: last, features, timings, sql_sent, trace_id: None })
    }

    /// The standard path: bind → lower → execute, plus the plan-level
    /// emulations that piggyback on it (E7 lazily materialized global temp
    /// tables, E8 SET-table dedup, E9 default injection).
    fn run_standard(
        &mut self,
        stmt: &past::Statement,
        positional: Vec<Datum>,
        features: &mut FeatureSet,
    ) -> Result<StatementResult> {
        self.cache_seed = None;
        hyperq_governor::note_stage(hyperq_governor::Stage::Translating);
        hyperq_governor::checkpoint()?;
        let parameterized = !positional.is_empty();
        let mut timings = StageTimings::default();
        let Bound { plan, gtts, tables } =
            self.bind(stmt, None, positional, features, Some(&mut timings))?;
        self.analyzer.check_plan(&plan, "bind")?;

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
                return Ok(StatementResult {
                    result: ExecResult::ack(),
                    features: features.clone(),
                    timings,
                    sql_sent: Vec::new(),
                    trace_id: None,
                });
            }
        }

        let lowered = self.lower(plan, features, Lowering::Execute(&mut timings))?;
        let is_query = matches!(lowered.plan, Plan::Query(_));

        // Strict mode: the serializer round-trip audit. Restricted to plain
        // queries with no GTT involvement — GTT instance names resolve
        // against per-session backend temp tables that may not exist yet.
        if is_query && gtts.is_empty() {
            let catalog = ShadowCatalog::new(&*self.backend, &self.session);
            self.analyzer.audit_roundtrip(&lowered.sql, &lowered.plan, &catalog)?;
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
            let mut instance = self
                .session
                .global_temp_defs
                .get(&logical)
                .cloned()
                .ok_or_else(|| {
                    HyperQError::Emulation(format!("missing GTT definition {logical}"))
                })?;
            let instance_name = self.session.gtt_target_name(&logical);
            instance.name = instance_name.clone();
            instance.kind = TableKind::Temporary;
            let plan = Plan::CreateTable { def: instance, source: None };
            let ddl = self.lower(plan, &mut FeatureSet::new(), Lowering::MidTier(&mut timings))?;
            self.send(&ddl.sql, false, None, &mut timings)?;
            // Journal the materialization so a reconnect re-creates the
            // per-session instance (guarded by its continued existence).
            self.session.journal.record_gtt(&logical, &instance_name, &ddl.sql);
            sql_sent.push(ddl.sql);
            self.session.materialized_gtts.insert(logical);
        }

        let result = self.send(&lowered.sql, is_query, lowered.fetch_limit, &mut timings)?;

        // Leave the translation behind for the cache. Only the standard
        // single-request shapes qualify: GTT-touching statements run a
        // multi-request materialization protocol, DDL mutates catalogs,
        // parameterized requests carry literals out-of-band.
        let cacheable_kind = matches!(
            lowered.plan,
            Plan::Query(_) | Plan::Insert { .. } | Plan::Update { .. } | Plan::Delete { .. }
        );
        // LimitFetch translations never seed the cache: a hit would replay
        // the unbounded SQL with nobody left to truncate the result.
        if cacheable_kind && !gtt_involved && !parameterized && lowered.fetch_limit.is_none() {
            self.cache_seed = Some(CacheSeed {
                sql: lowered.sql.clone(),
                is_query,
                tables: tables.into_iter().collect(),
                volatile: lowered.volatile,
            });
        }
        sql_sent.push(lowered.sql);
        Ok(StatementResult {
            result,
            features: features.clone(),
            timings,
            sql_sent,
            trace_id: None,
        })
    }

    /// Bind one statement against the shadow catalog, `overlay` naming a
    /// recursive CTE's table, and add what the binder tracked to
    /// `features`. A preview passes no `timings`.
    fn bind(
        &self,
        stmt: &past::Statement,
        overlay: Option<(&str, TableDef)>,
        positional: Vec<Datum>,
        features: &mut FeatureSet,
        timings: Option<&mut StageTimings>,
    ) -> Result<Bound> {
        self.stage("bind", timings, || {
            let mut catalog = ShadowCatalog::new(&*self.backend, &self.session);
            if let Some((name, def)) = overlay {
                catalog = catalog.with_overlay(name, def);
            }
            let mut binder = Binder::new(&catalog).with_positional(positional);
            let plan = binder.bind_statement(stmt)?;
            features.union(&binder.features);
            Ok(Bound {
                plan,
                gtts: catalog.gtt_touched.into_inner(),
                tables: catalog.tables_touched.into_inner(),
            })
        })
    }

    /// Lower a bound plan to target SQL: insert emulations → transform →
    /// LimitFetch peel → validation → serialization → conformance lint.
    fn lower(&self, plan: Plan, features: &mut FeatureSet, how: Lowering<'_>) -> Result<Lowered> {
        let (mut timings, emulate_inserts) = match how {
            Lowering::Preview => (None, true),
            Lowering::Execute(timings) => (Some(timings), true),
            Lowering::MidTier(timings) => (Some(timings), false),
        };
        let quiet = timings.is_none();
        // A preview runs the checkers in their off mode and a transformer
        // without rule counters.
        let unchecked;
        let (transformer, analyzer, conformance) = if quiet {
            unchecked = (Transformer::standard(), self.analyzer.off(), self.conformance.off());
            (&unchecked.0, &unchecked.1, &unchecked.2)
        } else {
            (&self.transformer, &self.analyzer, &self.conformance)
        };
        let caps = &self.profile.caps;
        let mut volatile = false;
        let plan = self.stage("transform", timings.as_deref_mut(), || {
            let plan = if emulate_inserts {
                self.apply_insert_emulations(plan, features, quiet, &mut volatile)?
            } else {
                plan
            };
            analyzer.transform(transformer, plan, caps, features)
        })?;
        let (plan, fetch_limit) = self.peel_fetch_limit(plan, quiet);
        analyzer.check_plan(&plan, "serializer")?;
        let sql = self.stage("serialize", timings, || {
            Serializer::for_profile(&self.profile).serialize_plan(&plan)
        })?;
        conformance.check_serialized(&sql, caps, &self.profile.name)?;
        Ok(Lowered { plan, sql, fetch_limit, volatile })
    }

    /// Lower `stmt` the way executing it would, recording nothing.
    fn preview(&self, stmt: &past::Statement, features: &mut FeatureSet) -> Result<Lowered> {
        let plan = self.bind(stmt, None, Vec::new(), features, None)?.plan;
        self.lower(plan, features, Lowering::Preview)
    }

    /// Execute SQL on the target. LimitFetch (`fetch_limit`): the target
    /// ran the query unbounded, so the client sees exactly the prefix a
    /// native LIMIT/TOP would have returned (the ORDER BY, if any, was
    /// serialized, so the prefix is well-defined).
    fn send(
        &self,
        sql: &str,
        is_query: bool,
        fetch_limit: Option<u64>,
        timings: &mut StageTimings,
    ) -> Result<ExecResult> {
        let mut result = self.stage("execute", Some(timings), || {
            let kind = if is_query { RequestKind::Read } else { RequestKind::Write };
            self.backend.execute_ctx(sql, self.request_ctx(kind))
        })?;
        if let Some(n) = fetch_limit {
            result.rows.truncate(n as usize);
            result.row_count = result.rows.len() as u64;
        }
        Ok(result)
    }

    /// Lower and execute a plan the mid tier built, adding its timings and
    /// SQL to `out`.
    fn lower_and_send(&self, plan: Plan, out: &mut StatementResult) -> Result<ExecResult> {
        let how = Lowering::MidTier(&mut out.timings);
        let lowered = self.lower(plan, &mut FeatureSet::new(), how)?;
        let is_query = matches!(lowered.plan, Plan::Query(_));
        let result = self.send(&lowered.sql, is_query, lowered.fetch_limit, &mut out.timings)?;
        out.sql_sent.push(lowered.sql);
        Ok(result)
    }

    /// Run one stage of a statement under its span, then record its
    /// duration in the stage histogram, the provenance record and
    /// `timings`. A preview passes no `timings` and records nothing.
    fn stage<T>(
        &self,
        stage: &'static str,
        timings: Option<&mut StageTimings>,
        work: impl FnOnce() -> T,
    ) -> T {
        let Some(timings) = timings else { return work() };
        let span = self.obs.traces.enter(stage);
        let out = work();
        self.record_stage(stage, span.finish(), timings, None);
        out
    }

    /// Record a finished stage in the stage histogram, the provenance record
    /// and `timings`. A stage that ran before the statement's `root` span
    /// opened (the script's parse, the cache lookup) is hung off it here.
    fn record_stage(
        &self,
        stage: &'static str,
        took: Duration,
        timings: &mut StageTimings,
        root: Option<&Span<'_>>,
    ) {
        if let Some(root) = root {
            self.obs.traces.record_manual(root.trace_id(), Some(root.id()), stage, took);
        }
        if let Some(histogram) = self.stages.histogram(stage) {
            histogram.record(took);
        }
        provenance::note_stage(stage, took);
        match stage {
            "execute" => timings.execution += took,
            _ => timings.translation += took,
        }
    }

    /// E8 (SET-table dedup) and E9 (default injection) on INSERT plans.
    /// `quiet` suppresses the emulation counters (previews);
    /// `volatile` is set when an injected default is not a constant — its
    /// value changes between executions, so the translation must never be
    /// cached.
    fn apply_insert_emulations(
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
        features: FeatureSet,
    ) -> Result<StatementResult> {
        let mut out = ack(features);
        // Temp tables created so far; on a mid-sequence failure they are
        // best-effort dropped so a retried statement starts clean instead
        // of colliding with leftovers on the target.
        let mut live: Vec<String> = Vec::new();
        match self.emulate_recursive_inner(q, &mut out, &mut live) {
            Ok(result) => Ok(StatementResult { result, ..out }),
            Err(e) => {
                self.cleanup_temp_tables(&live, &mut out);
                Err(e)
            }
        }
    }

    /// Best-effort `DROP TABLE IF EXISTS` for temp tables left behind by a
    /// failed emulation sequence. Errors are swallowed: cleanup must never
    /// mask the original failure.
    fn cleanup_temp_tables(&mut self, live: &[String], out: &mut StatementResult) {
        // Cleanup must succeed even when the statement was just cancelled:
        // the governor checkpoints inside the backend stack would refuse
        // the DROPs, leaking emulation temp tables. Shield the governor for
        // the duration (mirroring provenance::suspended for probes).
        hyperq_governor::shielded(|| {
            for name in live.iter().rev() {
                self.emu(EmulationKind::Cleanup);
                let drop = Plan::DropTable { name: name.clone(), if_exists: true };
                if self.lower_and_send(drop.clone(), out).is_err() {
                    // The DROP itself failed (e.g. the connection died): journal
                    // the orphan so the next reconnect retires the name instead
                    // of resurrecting it.
                    let serializer = Serializer::for_profile(&self.profile);
                    if let Ok(drop_sql) = serializer.serialize_plan(&drop) {
                        self.session.journal.record_orphan(name, drop_sql);
                    }
                }
            }
        });
    }

    /// Run the recursion's requests, accumulating them in `out`; `live`
    /// holds the temp tables that exist on the target.
    fn emulate_recursive_inner(
        &mut self,
        q: &past::Query,
        out: &mut StatementResult,
        live: &mut Vec<String>,
    ) -> Result<ExecResult> {
        let parts = emulate::split_recursive(q)?;
        let [seed, recursive, main] =
            [parts.seed, parts.recursive, parts.main].map(|q| past::Statement::Query(Box::new(q)));

        // Bind the seed to learn the CTE schema.
        let seed_rel = self.bind_query(&seed, None, out)?;
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

        let work_table = self.session.fresh_name("WT");
        let mut temp_table = self.session.fresh_name("TT");
        let table_def = |name: &str| TableDef {
            name: name.to_string(),
            columns: col_defs.clone(),
            set_semantics: false,
            kind: TableKind::Temporary,
        };
        let read = |name: &str| RelExpr::Get {
            table: name.to_string(),
            alias: Some(name.to_string()),
            schema: table_def(name).schema(None),
        };

        // Step 1: initialize WorkTable and TempTable with the seed. Names
        // go on the live list *before* execution: a failed CTAS may leave
        // a partial table behind, and cleanup drops with IF EXISTS.
        live.push(work_table.clone());
        let source = Some(rename_columns(seed_rel, &columns));
        self.lower_and_send(Plan::CreateTable { def: table_def(&work_table), source }, out)?;
        live.push(temp_table.clone());
        let source = Some(read(&work_table));
        self.lower_and_send(Plan::CreateTable { def: table_def(&temp_table), source }, out)?;

        // Steps 2..: run the recursive expression joined against TempTable
        // until it produces no new rows (paper §6, steps 2–4).
        let mut converged = false;
        for _ in 0..MAX_RECURSION_STEPS {
            // Cooperative cancellation between recursion steps; the caller
            // runs cleanup_temp_tables (shielded) on the error path, so a
            // cancelled recursion leaves no WT/TT tables behind.
            hyperq_governor::checkpoint()?;
            let next_table = self.session.fresh_name("TT");
            let overlay = Some((parts.name.as_str(), table_def(&temp_table)));
            let step_rel = self.bind_query(&recursive, overlay, out)?;
            live.push(next_table.clone());
            let source = Some(rename_columns(step_rel, &columns));
            let step = Plan::CreateTable { def: table_def(&next_table), source };
            if self.lower_and_send(step, out)?.row_count == 0 {
                self.drop_temp_table(&next_table, live, out)?;
                converged = true;
                break;
            }
            let columns = columns.clone();
            let table = work_table.clone();
            let insert = Plan::Insert { table, columns, source: read(&next_table) };
            self.lower_and_send(insert, out)?;
            self.drop_temp_table(&temp_table, live, out)?;
            temp_table = next_table;
        }
        if !converged {
            return Err(HyperQError::Emulation(format!(
                "recursive query did not converge within {MAX_RECURSION_STEPS} steps"
            )));
        }

        // Step 5: main query with the CTE name bound to the WorkTable.
        let overlay = Some((parts.name.as_str(), table_def(&work_table)));
        let main_plan = Plan::Query(self.bind_query(&main, overlay, out)?);
        let result = self.lower_and_send(main_plan, out)?;

        // Step 6: drop the temporary tables.
        self.drop_temp_table(&temp_table, live, out)?;
        self.drop_temp_table(&work_table, live, out)?;
        Ok(result)
    }

    /// Bind one part of a recursive query, `overlay` naming the CTE's table.
    fn bind_query(
        &self,
        query: &past::Statement,
        overlay: Option<(&str, TableDef)>,
        out: &mut StatementResult,
    ) -> Result<RelExpr> {
        let timings = Some(&mut out.timings);
        match self.bind(query, overlay, Vec::new(), &mut out.features, timings)?.plan {
            Plan::Query(rel) => Ok(rel),
            _ => unreachable!("a query binds to a query plan"),
        }
    }

    /// Drop one of a recursion's temp tables and take it off the live list.
    fn drop_temp_table(
        &self,
        name: &str,
        live: &mut Vec<String>,
        out: &mut StatementResult,
    ) -> Result<()> {
        self.lower_and_send(Plan::DropTable { name: name.to_string(), if_exists: false }, out)?;
        live.retain(|n| n != name);
        Ok(())
    }

    /// The context of a backend request: the lowering's classification,
    /// and whether a transaction is open (nothing inside one may be blindly
    /// retried: a replay could double-apply effects the target already
    /// holds in its transaction state).
    fn request_ctx(&self, kind: RequestKind) -> RequestContext {
        RequestContext { kind, in_transaction: self.session.in_transaction, pin: None }
    }

    /// Peel a top-level row bound off a query plan when the target spells
    /// neither `LIMIT` nor `TOP` (the `LimitFetch` emulation): the query
    /// executes unbounded and the mid tier truncates the result set to
    /// `n` rows in [`HyperQ::send`]. Only the plain shape (no OFFSET, no
    /// WITH TIES) peels — anything else still fails in the serializer.
    fn peel_fetch_limit(&self, plan: Plan, quiet: bool) -> (Plan, Option<u64>) {
        if self.profile.caps.limit_spelling() != LimitSpelling::None {
            return (plan, None);
        }
        let (plan, limit) = match plan {
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
        };
        if limit.is_some() && !quiet {
            self.emu(EmulationKind::LimitFetch);
        }
        (plan, limit)
    }
}

/// The profile's contribution to the cache-key context hash: registry
/// name and capabilities. Two profiles sharing a capability signature (or
/// even a name) still key distinctly if either differs, so cross-target
/// cache pollution is structurally impossible.
fn profile_sig(profile: &TargetProfile) -> u64 {
    fnv1a(format!("{}|{:?}", profile.name, profile.caps).as_bytes())
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
/// identical texts to provenance and the statement table.
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
