//! The engine's front door: [`HyperQBuilder`] and the canonical
//! [`Request`]/[`Response`] pair.
//!
//! The builder is the one place to set target link, profile,
//! observability, analyze mode, translation cache and recovery policy, and
//! `HyperQ::run(Request)` is the single execution entry point that
//! `run_one`/`run_script`/`run_with_params` wrap, so the translation cache
//! keys off one canonical request shape.

use std::sync::Arc;

use hyperq_obs::{ObsContext, ProvenanceConfig};
use hyperq_xtra::datum::Datum;

use crate::analyze::AnalyzeMode;
use crate::backend::Backend;
use crate::cache::{CacheConfig, TranslationCache};
use crate::conformance::ConformanceMode;
use crate::crosscompiler::{BuildSpec, HyperQ, StatementResult};
use crate::error::{HyperQError, Result};
use crate::recover::RecoverConfig;
use crate::replicate::{ReplicaConfig, ReplicatedBackend};
use crate::resilience::TargetLink;
use crate::targets::TargetProfile;

enum CacheChoice {
    /// A private cache with default configuration (the default: caching is
    /// transparent, so it is on unless the caller opts out).
    Default,
    Disabled,
    Config(CacheConfig),
    Shared(Arc<TranslationCache>),
}

/// What a session executes against: a bare driver, which gets a private
/// [`TargetLink`] (single attempts, no circuit breaker), or a link built
/// once and shared by many sessions — the gateway does this — so the
/// breaker sees the target's aggregate health.
pub enum LinkSource {
    Driver(Arc<dyn Backend>),
    Shared(TargetLink),
}

impl From<Arc<dyn Backend>> for LinkSource {
    fn from(driver: Arc<dyn Backend>) -> Self {
        LinkSource::Driver(driver)
    }
}

impl<B: Backend + 'static> From<Arc<B>> for LinkSource {
    fn from(driver: Arc<B>) -> Self {
        LinkSource::Driver(driver)
    }
}

impl From<&TargetLink> for LinkSource {
    fn from(link: &TargetLink) -> Self {
        LinkSource::Shared(link.share())
    }
}

/// Builder for a [`HyperQ`] session.
///
/// ```
/// use std::sync::Arc;
/// use hyperq_core::backend::testing::ScriptedBackend;
/// use hyperq_core::{targets, HyperQBuilder};
///
/// let backend = ScriptedBackend::acking(vec![]);
/// let mut hq = HyperQBuilder::for_target(Arc::new(backend), targets::simwh()).build();
/// assert!(hq.run_script("BEGIN TRANSACTION; COMMIT").is_ok());
/// ```
pub struct HyperQBuilder {
    source: LinkSource,
    profile: TargetProfile,
    obs: Option<Arc<ObsContext>>,
    analyze: AnalyzeMode,
    conformance: ConformanceMode,
    cache: CacheChoice,
    recover: RecoverConfig,
    dml_batching: bool,
    provenance: Option<ProvenanceConfig>,
    replicas: Vec<Arc<dyn Backend>>,
    replica_config: ReplicaConfig,
}

impl HyperQBuilder {
    /// Start a builder for the given target profile (the primary
    /// constructor). Profiles come from the registry
    /// ([`crate::targets::lookup`], [`crate::targets::simwh`], ...) or
    /// from [`TargetProfile::from_caps`] for a hand-rolled capability
    /// signature. `backend` is the driver itself, or a `&TargetLink` to
    /// share that link's retry policy and breaker with other sessions.
    pub fn for_target(backend: impl Into<LinkSource>, profile: TargetProfile) -> Self {
        HyperQBuilder {
            source: backend.into(),
            profile,
            obs: None,
            analyze: AnalyzeMode::default(),
            conformance: ConformanceMode::default(),
            cache: CacheChoice::Default,
            recover: RecoverConfig::default(),
            dml_batching: true,
            provenance: None,
            replicas: Vec::new(),
            replica_config: ReplicaConfig::default(),
        }
    }

    /// Replace the target profile chosen at construction time.
    pub fn target(mut self, profile: TargetProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Run against a replicated warehouse: the primary backend becomes
    /// replica `r0` and each entry of `replicas` an additional replica.
    /// Reads load-balance, writes broadcast, fenced replicas self-heal via
    /// the write-repair journal, and a background health prober runs at
    /// `config.probe_interval` (set it to zero to drive
    /// [`ReplicatedBackend::probe_and_repair`] manually). An empty
    /// `replicas` keeps the plain single backend; a session built over a
    /// shared [`TargetLink`] ignores them (the link names its driver).
    pub fn replicas(mut self, replicas: Vec<Arc<dyn Backend>>, config: ReplicaConfig) -> Self {
        self.replicas = replicas;
        self.replica_config = config;
        self
    }

    /// Report into the given observability context instead of the
    /// process-wide one (isolated metrics/traces for tests).
    pub fn obs(mut self, obs: Arc<ObsContext>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Static-analysis mode (`LogOnly` by default).
    pub fn analyze(mut self, mode: AnalyzeMode) -> Self {
        self.analyze = mode;
        self
    }

    /// Capability-conformance lint mode over serialized SQL (`LogOnly` by
    /// default; `Strict` fails statements whose emitted SQL uses a
    /// construct the target lacks).
    pub fn conformance(mut self, mode: ConformanceMode) -> Self {
        self.conformance = mode;
        self
    }

    /// Use a private translation cache with the given configuration.
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = CacheChoice::Config(config);
        self
    }

    /// Disable the translation cache: every statement takes the full
    /// pipeline (benchmark baselines, ablations).
    pub fn no_cache(mut self) -> Self {
        self.cache = CacheChoice::Disabled;
        self
    }

    /// Share a translation cache with other sessions (the gateway gives
    /// every connection the same cache; per-session state is part of the
    /// cache key, not the cache identity).
    pub fn shared_cache(mut self, cache: Arc<TranslationCache>) -> Self {
        self.cache = CacheChoice::Shared(cache);
        self
    }

    /// Session-continuity (reconnect + replay) policy.
    pub fn recovery(mut self, config: RecoverConfig) -> Self {
        self.recover = config;
        self
    }

    /// Toggle the single-row DML batching transformation (§4.3). On by
    /// default; the ablation benchmark turns it off.
    pub fn dml_batching(mut self, on: bool) -> Self {
        self.dml_batching = on;
        self
    }

    /// Per-statement provenance capture knobs (enable/disable, ring
    /// capacity, raw-SQL opt-in), applied to the session's observability
    /// context at build time. Without this the context's existing settings
    /// stand (capture on, 1024 records, literal-redacted SQL).
    pub fn provenance(mut self, config: ProvenanceConfig) -> Self {
        self.provenance = Some(config);
        self
    }

    pub fn build(self) -> HyperQ {
        let obs = self.obs.unwrap_or_else(|| Arc::clone(ObsContext::global()));
        if let Some(cfg) = self.provenance {
            cfg.apply(&obs.provenance);
        }
        let cache = match self.cache {
            CacheChoice::Default => {
                Some(Arc::new(TranslationCache::new(CacheConfig::default(), &obs)))
            }
            CacheChoice::Disabled => None,
            CacheChoice::Config(cfg) => Some(Arc::new(TranslationCache::new(cfg, &obs))),
            CacheChoice::Shared(cache) => Some(cache),
        };
        let (mut replication, mut prober) = (None, None);
        let link = match self.source {
            LinkSource::Shared(link) => link,
            LinkSource::Driver(primary) => {
                let mut driver = primary;
                if !self.replicas.is_empty() {
                    let mut set = vec![driver];
                    set.extend(self.replicas);
                    let spawn_prober = !self.replica_config.probe_interval.is_zero();
                    // `with_config` only fails on an empty set, and `set`
                    // always holds the primary.
                    let Ok(rep) = ReplicatedBackend::with_config(set, self.replica_config, &obs)
                    else {
                        unreachable!("replica set always contains the primary backend")
                    };
                    let rep = Arc::new(rep);
                    prober = spawn_prober.then(|| rep.spawn_prober());
                    replication = Some(Arc::clone(&rep));
                    driver = rep;
                }
                TargetLink::new(driver, None, &obs)
            }
        };
        HyperQ::from_spec(BuildSpec {
            link,
            profile: self.profile,
            obs,
            analyze: self.analyze,
            conformance: self.conformance,
            cache,
            recover: self.recover,
            dml_batching: self.dml_batching,
            replication,
            prober,
        })
    }
}

/// Per-request options.
#[derive(Debug, Clone, Default)]
pub struct RequestOptions {
    /// Skip the translation cache for this request (both lookup and
    /// population).
    pub bypass_cache: bool,
    /// Wall-clock deadline for the whole request. When set (and no
    /// gateway governor is already installed on the thread), `run`
    /// installs a standalone [`hyperq_governor::QueryGovernor`] so every
    /// pipeline checkpoint observes it; expiry surfaces as
    /// [`HyperQError::Cancelled`].
    pub timeout: Option<std::time::Duration>,
    /// Per-request memory budget in bytes (0 = unlimited), enforced the
    /// same way via a standalone governor.
    pub memory_budget: u64,
    /// Run this request against a different registered target profile
    /// (by registry name, e.g. `"simwh-reduced"`). The session's profile
    /// is restored afterwards; an unknown name fails the request.
    pub target: Option<String>,
}

/// The canonical execution request: one SQL text (possibly a
/// multi-statement script), optional positional parameter values, and
/// per-request options. All `run_*` entry points lower onto this.
#[derive(Debug, Clone)]
pub struct Request {
    pub sql: String,
    /// Positional (`?`) parameter values; non-empty restricts the request
    /// to exactly one statement (the ODBC parameterized-query shape,
    /// §4.5).
    pub params: Vec<Datum>,
    pub ctx: RequestOptions,
}

impl Request {
    /// A script of one or more statements.
    pub fn script(sql: impl Into<String>) -> Self {
        Request { sql: sql.into(), params: Vec::new(), ctx: RequestOptions::default() }
    }

    /// One statement with positional parameter values.
    pub fn with_params(sql: impl Into<String>, params: Vec<Datum>) -> Self {
        Request { sql: sql.into(), params, ctx: RequestOptions::default() }
    }

    /// Skip the translation cache for this request.
    pub fn bypass_cache(mut self) -> Self {
        self.ctx.bypass_cache = true;
        self
    }

    /// Bound the whole request by a wall-clock deadline; expiry cancels
    /// the request with [`HyperQError::Cancelled`].
    pub fn timeout(mut self, limit: std::time::Duration) -> Self {
        self.ctx.timeout = Some(limit);
        self
    }

    /// Bound the request's charged memory (engine hash tables and
    /// materialized rows); exceeding it cancels with
    /// [`HyperQError::Cancelled`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.ctx.memory_budget = bytes;
        self
    }

    /// Run this request against a different registered target profile
    /// (looked up by name in [`crate::targets::lookup`]); the session's
    /// profile is restored once the request completes.
    pub fn target(mut self, name: impl Into<String>) -> Self {
        self.ctx.target = Some(name.into());
        self
    }
}

/// The result of a [`Request`]: one [`StatementResult`] per statement.
#[derive(Debug, Clone)]
pub struct Response {
    pub statements: Vec<StatementResult>,
}

impl Response {
    /// The last statement's result, consuming the response (the historical
    /// `run_one` shape: a single-statement request has exactly one).
    pub fn into_last(self) -> Result<StatementResult> {
        self.statements
            .into_iter()
            .next_back()
            .ok_or_else(|| HyperQError::Emulation("empty statement".into()))
    }

    pub fn last(&self) -> Option<&StatementResult> {
        self.statements.last()
    }

    pub fn len(&self) -> usize {
        self.statements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, StatementResult> {
        self.statements.iter()
    }
}

impl IntoIterator for Response {
    type Item = StatementResult;
    type IntoIter = std::vec::IntoIter<StatementResult>;
    fn into_iter(self) -> Self::IntoIter {
        self.statements.into_iter()
    }
}
