//! The compiled-translation cache.
//!
//! The pipeline's per-request cost is the cross-compile itself (parse →
//! bind → transform → serialize); the BI workloads Hyper-Q fronts are
//! dominated by the *same* statement templates re-issued with different
//! literals. This module caches the post-transform serialized SQL-B keyed
//! on the statement's [fingerprint](hyperq_parser::fingerprint) plus a
//! translation-context hash (capabilities, analyze mode, session settings,
//! session-local catalog), so a repeated statement skips the entire
//! pipeline and only re-splices its literals.
//!
//! ## Safety model
//!
//! Literal splicing is only sound when the translation treats the literal
//! as opaque — rewrite rules may fold literals (e.g. date→integer
//! comparisons), merge them, or drop them. The cache therefore never
//! *assumes* splice-ability:
//!
//! 1. The first translation of a fingerprint is stored as an **exact**
//!    entry: it replays only for byte-identical literals.
//! 2. When the same fingerprint returns with *different* literals (so the
//!    exact entry missed), the fresh translation is used to build a
//!    **spliced template**: each source literal is matched to a literal
//!    token of the serialized SQL-B, in order. Literals that do not
//!    reappear verbatim stay **pinned** (the template only matches when
//!    they are byte-identical).
//! 3. The candidate template is **probe-verified**: the literals are
//!    perturbed (each hole gets an index-distinct value), the perturbed
//!    source is re-translated through the full pipeline, and the output is
//!    compared against the template's own splice. Any divergence — a
//!    value-dependent rule, a misassigned hole — fails the probe and the
//!    entry stays exact.
//!
//! Strict-analyze sessions additionally revalidate sampled hits against a
//! fresh translation, a preview by the execution's own lowering (see
//! `CacheConfig::revalidate_every`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use hyperq_obs::{Counter, Gauge, Histogram, ObsContext};
use hyperq_parser::fingerprint::{LiteralKind, LiteralSlot};
use hyperq_parser::lexer::tokenize;
use hyperq_parser::token::Token;
use hyperq_xtra::feature::FeatureSet;

/// Tuning knobs for a [`TranslationCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Upper bound on cached entries across all shards; least-recently
    /// used entries are evicted past it.
    pub max_entries: usize,
    /// Number of independently locked shards.
    pub shards: usize,
    /// In `Strict` analyze mode, every Nth hit of an entry is revalidated
    /// against a fresh translation; a mismatch invalidates the entry.
    pub revalidate_every: u64,
    /// Maximum exact (all-literals-pinned) variants kept per cache key.
    pub max_variants: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_entries: 1024, shards: 8, revalidate_every: 64, max_variants: 4 }
    }
}

/// Cache key: statement fingerprint × translation context.
///
/// `ctx` folds together everything besides the statement text that the
/// translation depends on: target capabilities, analyze mode, DML
/// batching, the session's settings epoch and its session-local (DTM)
/// catalog epoch. Two sessions with identical context share entries; a
/// `SET` or a session-local DDL moves the session to a different key
/// space without touching other sessions' entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub fingerprint: u64,
    pub ctx: u64,
}

/// The cached SQL-B shape.
#[derive(Debug, Clone)]
enum Template {
    /// Valid only for byte-identical literals.
    Exact { literals: Vec<String>, sql: String },
    /// `segments` interleaved with literal holes; `holes[i]` is the index
    /// into the statement's literal vector whose text fills hole `i`.
    /// `pinned` lists (literal index, required text) pairs that must match
    /// byte-identically for the template to apply.
    Spliced { pinned: Vec<(usize, String)>, segments: Vec<String>, holes: Vec<usize> },
}

/// One cached translation.
struct Entry {
    template: Template,
    features: FeatureSet,
    is_query: bool,
    /// Base names (uppercase, unqualified) of every table the translation
    /// resolved; [`TranslationCache::invalidate_table`] drops entries by
    /// these.
    tables: Vec<String>,
    hits: AtomicU64,
    last_used: AtomicU64,
}

/// A successful cache lookup: the ready-to-send SQL-B plus the metadata
/// the crosscompiler needs to finish the statement without a pipeline run.
pub struct CacheHit {
    pub sql: String,
    pub features: FeatureSet,
    pub is_query: bool,
    /// This entry's hit count (1-based) — drives strict-mode revalidation
    /// sampling.
    pub hit_seq: u64,
}

/// What the crosscompiler hands the cache after a slow-path translation.
pub struct CacheFill {
    pub sql: String,
    pub features: FeatureSet,
    pub is_query: bool,
    pub tables: Vec<String>,
}

struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    bypass: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
    reval_ok: Arc<Counter>,
    reval_mismatch: Arc<Counter>,
    lookup: Arc<Histogram>,
    entries: Arc<Gauge>,
}

/// A sharded, LRU-bounded map from [`CacheKey`] to cached translations.
///
/// Shareable across sessions (the gateway holds one per listener): all
/// session-dependent state is folded into the key's `ctx` hash, and all
/// interior mutability is behind per-shard locks.
pub struct TranslationCache {
    shards: Vec<Mutex<HashMap<CacheKey, Vec<Arc<Entry>>>>>,
    config: CacheConfig,
    tick: AtomicU64,
    metrics: CacheMetrics,
}

impl TranslationCache {
    pub fn new(config: CacheConfig, obs: &ObsContext) -> Self {
        let shards = config.shards.max(1);
        let metrics = CacheMetrics {
            hits: obs.metrics.counter("hyperq_cache_hits_total", &[]),
            misses: obs.metrics.counter("hyperq_cache_misses_total", &[]),
            bypass: obs.metrics.counter("hyperq_cache_bypass_total", &[]),
            evictions: obs.metrics.counter("hyperq_cache_evictions_total", &[]),
            invalidations: obs.metrics.counter("hyperq_cache_invalidations_total", &[]),
            reval_ok: obs
                .metrics
                .counter("hyperq_cache_revalidations_total", &[("outcome", "ok")]),
            reval_mismatch: obs
                .metrics
                .counter("hyperq_cache_revalidations_total", &[("outcome", "mismatch")]),
            lookup: obs.metrics.histogram("hyperq_cache_lookup_seconds", &[]),
            entries: obs.metrics.gauge("hyperq_cache_entries", &[]),
        };
        TranslationCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            config,
            tick: AtomicU64::new(0),
            metrics,
        }
    }

    /// The revalidation sampling period (for the crosscompiler's
    /// strict-mode check).
    pub fn revalidate_every(&self) -> u64 {
        self.config.revalidate_every.max(1)
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Vec<Arc<Entry>>>> {
        let ix = (key.fingerprint ^ key.ctx) as usize % self.shards.len();
        &self.shards[ix]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Count a statement the caller decided not to cache.
    pub fn note_bypass(&self) {
        self.metrics.bypass.inc();
    }

    /// Count a strict-mode revalidation outcome.
    pub fn note_revalidation(&self, ok: bool) {
        if ok {
            self.metrics.reval_ok.inc();
        } else {
            self.metrics.reval_mismatch.inc();
        }
    }

    /// Look up a translation for `key` with the statement's current
    /// literals. `in_transaction` suppresses non-query entries: DML inside
    /// an open transaction must take the slow path (its replay semantics
    /// are owned by the pipeline, and the bypass is itself a metric).
    pub fn lookup(
        &self,
        key: &CacheKey,
        literals: &[LiteralSlot],
        in_transaction: bool,
    ) -> Option<CacheHit> {
        let t0 = Instant::now();
        let out = self.lookup_inner(key, literals, in_transaction);
        self.metrics.lookup.record(t0.elapsed());
        out
    }

    fn lookup_inner(
        &self,
        key: &CacheKey,
        literals: &[LiteralSlot],
        in_transaction: bool,
    ) -> Option<CacheHit> {
        let shard = self.shard(key).lock();
        let Some(entries) = shard.get(key) else {
            self.metrics.misses.inc();
            return None;
        };
        for entry in entries {
            let Some(sql) = render(&entry.template, literals) else { continue };
            if in_transaction && !entry.is_query {
                self.metrics.bypass.inc();
                return None;
            }
            entry.last_used.store(self.next_tick(), Ordering::Relaxed);
            let seq = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
            self.metrics.hits.inc();
            return Some(CacheHit {
                sql,
                features: entry.features.clone(),
                is_query: entry.is_query,
                hit_seq: seq,
            });
        }
        self.metrics.misses.inc();
        None
    }

    /// Store a slow-path translation. On the first occurrence of a key the
    /// entry is exact (replays only for identical literals); when an exact
    /// variant already exists for different literals, the fill is used to
    /// build a spliceable template, verified through `probe`: a closure
    /// that runs the *full* translation pipeline over a perturbed source
    /// text (returning `None` on any failure). Only a template whose
    /// probe output matches its own splice byte-for-byte is stored;
    /// otherwise the fill is kept as another exact variant (up to
    /// `max_variants`).
    pub fn populate(
        &self,
        key: CacheKey,
        source: &str,
        literals: &[LiteralSlot],
        fill: CacheFill,
        probe: impl Fn(&str) -> Option<String>,
    ) {
        let texts: Vec<String> = literals.iter().map(|l| l.text.clone()).collect();
        // Phase 1: decide under the lock, without running any pipeline.
        let try_upgrade = {
            let shard = self.shard(&key).lock();
            match shard.get(&key) {
                None => false,
                Some(entries) => {
                    if entries.iter().any(|e| covers(&e.template, &texts)) {
                        return; // raced: an equivalent entry landed already
                    }
                    // A fingerprint seen with two literal vectors is a
                    // template candidate.
                    entries
                        .iter()
                        .any(|e| matches!(e.template, Template::Exact { .. }))
                }
            }
        };

        let mut template = Template::Exact { literals: texts.clone(), sql: fill.sql.clone() };
        if try_upgrade {
            if let Some(candidate) = build_template(literals, &fill.sql) {
                if verify_template(&candidate, source, literals, &probe) {
                    template = candidate;
                }
            }
        }

        // Phase 2: insert under the lock, re-checking for races.
        let is_spliced = matches!(template, Template::Spliced { .. });
        let entry = Arc::new(Entry {
            template,
            features: fill.features,
            is_query: fill.is_query,
            tables: fill.tables,
            hits: AtomicU64::new(0),
            last_used: AtomicU64::new(self.next_tick()),
        });
        {
            let mut shard = self.shard(&key).lock();
            let entries = shard.entry(key).or_default();
            if entries.iter().any(|e| covers(&e.template, &texts)) {
                return;
            }
            if is_spliced {
                // One verified template subsumes the exact variants it
                // covers; drop them so lookups prefer the general form.
                let before = entries.len();
                entries.retain(|e| match &e.template {
                    Template::Exact { literals, .. } => !covers(&entry.template, literals),
                    Template::Spliced { .. } => true,
                });
                let dropped = before - entries.len();
                if dropped > 0 {
                    self.metrics.entries.sub(dropped as i64);
                }
                entries.insert(0, entry);
            } else {
                if entries.len() >= self.config.max_variants {
                    return; // key is literal-diverse but unspliceable; stop hoarding
                }
                entries.push(entry);
            }
            self.metrics.entries.add(1);
        }
        self.evict_if_needed();
    }

    /// Drop every entry whose translation resolved the given table (base
    /// name, case-insensitive). Called on backend-visible DDL.
    pub fn invalidate_table(&self, name: &str) {
        let base = base_name(name);
        let mut removed = 0i64;
        for shard in &self.shards {
            let mut map = shard.lock();
            map.retain(|_, entries| {
                entries.retain(|e| {
                    let stale = e.tables.iter().any(|t| t == &base);
                    if stale {
                        removed += 1;
                    }
                    !stale
                });
                !entries.is_empty()
            });
        }
        if removed > 0 {
            self.metrics.invalidations.add(removed as u64);
            self.metrics.entries.sub(removed);
        }
    }

    /// Drop all entries for one key (strict-mode revalidation mismatch).
    pub fn invalidate_key(&self, key: &CacheKey) {
        let mut map = self.shard(key).lock();
        if let Some(entries) = map.remove(key) {
            self.metrics.invalidations.add(entries.len() as u64);
            self.metrics.entries.sub(entries.len() as i64);
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut removed = 0i64;
        for shard in &self.shards {
            let mut map = shard.lock();
            removed += map.values().map(|v| v.len() as i64).sum::<i64>();
            map.clear();
        }
        if removed > 0 {
            self.metrics.invalidations.add(removed as u64);
            self.metrics.entries.sub(removed);
        }
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().values().map(Vec::len).sum::<usize>()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict_if_needed(&self) {
        if self.len() <= self.config.max_entries {
            return;
        }
        // Scan for the globally least-recently-used entries. O(n) on the
        // overflow path only; the bound is small and overflow is rare.
        let mut ticks: Vec<u64> = Vec::new();
        for shard in &self.shards {
            let map = shard.lock();
            for entries in map.values() {
                for e in entries {
                    ticks.push(e.last_used.load(Ordering::Relaxed));
                }
            }
        }
        let excess = ticks.len().saturating_sub(self.config.max_entries);
        if excess == 0 {
            return;
        }
        ticks.sort_unstable();
        let cutoff = ticks[excess - 1];
        let mut removed = 0i64;
        for shard in &self.shards {
            let mut map = shard.lock();
            map.retain(|_, entries| {
                entries.retain(|e| {
                    let evict = e.last_used.load(Ordering::Relaxed) <= cutoff;
                    if evict {
                        removed += 1;
                    }
                    !evict
                });
                !entries.is_empty()
            });
        }
        if removed > 0 {
            self.metrics.evictions.add(removed as u64);
            self.metrics.entries.sub(removed);
        }
    }
}

fn base_name(name: &str) -> String {
    let upper = name.to_ascii_uppercase();
    upper.rsplit('.').next().unwrap_or(&upper).to_string()
}

/// A number literal may fill a splice hole only in its canonical integer
/// form: any other spelling (`1e2`, `007`, `1.50`) may be re-rendered
/// differently by the serializer than it appears in the source, so splicing
/// the source text would diverge from a full translation.
fn canonical_number(text: &str) -> bool {
    !text.is_empty()
        && text.bytes().all(|b| b.is_ascii_digit())
        && (text.len() == 1 || !text.starts_with('0'))
}

fn spliceable(slot: &LiteralSlot) -> bool {
    match slot.kind {
        LiteralKind::Number => canonical_number(&slot.text),
        LiteralKind::String => true,
    }
}

/// Render a template against the current literal texts; `None` when the
/// template does not apply (pinned mismatch, arity mismatch, or a hole
/// literal in a non-canonical spelling).
fn render(template: &Template, literals: &[LiteralSlot]) -> Option<String> {
    match template {
        Template::Exact { literals: pinned, sql } => {
            if pinned.len() == literals.len()
                && pinned.iter().zip(literals).all(|(p, l)| *p == l.text)
            {
                Some(sql.clone())
            } else {
                None
            }
        }
        Template::Spliced { pinned, segments, holes } => {
            let arity = pinned.len() + holes.len();
            if literals.len() != arity {
                return None;
            }
            for (ix, text) in pinned {
                if literals.get(*ix)?.text != *text {
                    return None;
                }
            }
            let mut out = String::new();
            for (i, seg) in segments.iter().enumerate() {
                out.push_str(seg);
                if let Some(&lit_ix) = holes.get(i) {
                    let slot = literals.get(lit_ix)?;
                    if !spliceable(slot) {
                        return None;
                    }
                    out.push_str(&slot.text);
                }
            }
            Some(out)
        }
    }
}

/// Would this template serve the given literal texts? (Race check during
/// population; uses text equality only, no splicing.)
fn covers(template: &Template, texts: &[String]) -> bool {
    match template {
        Template::Exact { literals, .. } => literals == texts,
        Template::Spliced { pinned, holes, .. } => {
            texts.len() == pinned.len() + holes.len()
                && pinned.iter().all(|(ix, t)| texts.get(*ix).is_some_and(|x| x == t))
                && holes.iter().all(|&ix| {
                    texts.get(ix).is_some_and(|t| {
                        canonical_number(t) || t.starts_with('\'')
                    })
                })
        }
    }
}

/// Match each source literal to a literal token of the serialized SQL-B,
/// in order (skip-forward). Unmatched source literals become pinned;
/// unmatched SQL-B literal tokens stay fixed text. Returns `None` when no
/// hole could be formed (an exact entry covers that case already) or the
/// SQL-B does not tokenize.
fn build_template(literals: &[LiteralSlot], sql_b: &str) -> Option<Template> {
    let tokens = tokenize(sql_b).ok()?;
    // (start, end, rendered text) of each literal token in SQL-B.
    let mut b_lits: Vec<(usize, usize, String)> = Vec::new();
    for sp in &tokens {
        match &sp.token {
            Token::Number(n) => b_lits.push((sp.offset, sp.offset + n.len(), n.clone())),
            Token::StringLit(s) => {
                let text = LiteralSlot::render_string(s);
                b_lits.push((sp.offset, sp.offset + text.len(), text));
            }
            _ => {}
        }
    }
    let mut pinned: Vec<(usize, String)> = Vec::new();
    // (sql_b literal token index, source literal index)
    let mut matched: Vec<(usize, usize)> = Vec::new();
    let mut cursor = 0usize;
    for (i, slot) in literals.iter().enumerate() {
        if !spliceable(slot) {
            pinned.push((i, slot.text.clone()));
            continue;
        }
        let found = (cursor..b_lits.len()).find(|&j| b_lits[j].2 == slot.text);
        match found {
            Some(j) => {
                matched.push((j, i));
                cursor = j + 1;
            }
            None => pinned.push((i, slot.text.clone())),
        }
    }
    if matched.is_empty() {
        return None;
    }
    let mut segments = Vec::with_capacity(matched.len() + 1);
    let mut holes = Vec::with_capacity(matched.len());
    let mut pos = 0usize;
    for &(j, i) in &matched {
        let (start, end, _) = b_lits[j];
        segments.push(sql_b[pos..start].to_string());
        holes.push(i);
        pos = end;
    }
    segments.push(sql_b[pos..].to_string());
    Some(Template::Spliced { pinned, segments, holes })
}

/// An index-distinct perturbation of a literal: still lexically valid,
/// still canonical, but different per hole index — so a hole matched to
/// the wrong source literal produces a probe mismatch instead of a false
/// verification.
fn perturb(slot: &LiteralSlot, idx: usize) -> String {
    match slot.kind {
        LiteralKind::Number => format!("{}{}7", slot.text, idx),
        LiteralKind::String => {
            let body = &slot.text[..slot.text.len().saturating_sub(1)];
            format!("{body}HQ{idx}'")
        }
    }
}

/// Verify a template candidate: perturb every hole literal, re-translate
/// the perturbed source through the full pipeline (`probe`), and compare
/// against the template's own splice of the perturbed literals.
fn verify_template(
    template: &Template,
    source: &str,
    literals: &[LiteralSlot],
    probe: &impl Fn(&str) -> Option<String>,
) -> bool {
    let Template::Spliced { holes, .. } = template else { return false };
    let replacements: Vec<String> = literals
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            if holes.contains(&i) {
                perturb(slot, i)
            } else {
                slot.text.clone()
            }
        })
        .collect();
    let probe_source =
        hyperq_parser::fingerprint::splice_source(source, literals, &replacements);
    // Re-fingerprint the probe source so the spliced slots carry the
    // perturbed texts (shape must be unchanged for the comparison to mean
    // anything).
    let Ok(probe_fp) = hyperq_parser::fingerprint::fingerprint(&probe_source) else {
        return false;
    };
    if probe_fp.literals.len() != literals.len() {
        return false;
    }
    let Some(expected) = render(template, &probe_fp.literals) else { return false };
    match probe(&probe_source) {
        Some(actual) => actual == expected,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_parser::fingerprint::fingerprint;

    fn obs() -> Arc<ObsContext> {
        ObsContext::new()
    }

    fn key(fp: u64) -> CacheKey {
        CacheKey { fingerprint: fp, ctx: 1 }
    }

    fn fill(sql: &str, tables: &[&str]) -> CacheFill {
        CacheFill {
            sql: sql.to_string(),
            features: FeatureSet::new(),
            is_query: true,
            tables: tables.iter().map(std::string::ToString::to_string).collect(),
        }
    }

    /// A fake "pipeline" that lowercases keywords but passes literals
    /// through — splice-compatible by construction.
    fn echo_translate(src: &str) -> Option<String> {
        Some(src.replace("SELECT", "select").replace("FROM", "from").replace("WHERE", "where"))
    }

    #[test]
    fn first_occurrence_is_exact_second_upgrades_to_template() {
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        let a = "SELECT * FROM T WHERE X = 1";
        let fp_a = fingerprint(a).unwrap();
        let k = key(fp_a.hash);
        assert!(cache.lookup(&k, &fp_a.literals, false).is_none());
        cache.populate(k, a, &fp_a.literals, fill(&echo_translate(a).unwrap(), &["T"]), |s| {
            echo_translate(s)
        });
        // Same literals: exact hit.
        let hit = cache.lookup(&k, &fp_a.literals, false).expect("exact hit");
        assert_eq!(hit.sql, "select * from T where X = 1");

        // Different literal: miss, then populate upgrades to a template.
        let b = "SELECT * FROM T WHERE X = 2";
        let fp_b = fingerprint(b).unwrap();
        assert_eq!(fp_a.hash, fp_b.hash);
        assert!(cache.lookup(&k, &fp_b.literals, false).is_none());
        cache.populate(k, b, &fp_b.literals, fill(&echo_translate(b).unwrap(), &["T"]), |s| {
            echo_translate(s)
        });
        // Any further literal now hits by splicing.
        let c = "SELECT * FROM T WHERE X = 31337";
        let fp_c = fingerprint(c).unwrap();
        let hit = cache.lookup(&k, &fp_c.literals, false).expect("spliced hit");
        assert_eq!(hit.sql, "select * from T where X = 31337");
    }

    #[test]
    fn probe_failure_keeps_entries_exact() {
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        // A value-dependent "pipeline": doubles the numeric literal, so
        // splicing the source literal would be wrong.
        let folding = |src: &str| -> Option<String> {
            let fp = fingerprint(src).ok()?;
            let n: i64 = fp.literals.first()?.text.parse().ok()?;
            Some(format!("SELECT * FROM T WHERE X2 = {}", n * 2))
        };
        let a = "SELECT * FROM T WHERE X = 1";
        let b = "SELECT * FROM T WHERE X = 2";
        let fp_a = fingerprint(a).unwrap();
        let fp_b = fingerprint(b).unwrap();
        let k = key(fp_a.hash);
        cache.populate(k, a, &fp_a.literals, fill(&folding(a).unwrap(), &["T"]), folding);
        cache.populate(k, b, &fp_b.literals, fill(&folding(b).unwrap(), &["T"]), folding);
        // Exact replays still work...
        assert_eq!(
            cache.lookup(&k, &fp_a.literals, false).unwrap().sql,
            "SELECT * FROM T WHERE X2 = 2"
        );
        assert_eq!(
            cache.lookup(&k, &fp_b.literals, false).unwrap().sql,
            "SELECT * FROM T WHERE X2 = 4"
        );
        // ...but an unseen literal misses instead of mis-splicing.
        let c = "SELECT * FROM T WHERE X = 9";
        let fp_c = fingerprint(c).unwrap();
        assert!(cache.lookup(&k, &fp_c.literals, false).is_none());
    }

    #[test]
    fn non_canonical_numbers_never_splice() {
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        let a = "SELECT * FROM T WHERE X = 1";
        let b = "SELECT * FROM T WHERE X = 2";
        let fp_a = fingerprint(a).unwrap();
        let fp_b = fingerprint(b).unwrap();
        let k = key(fp_a.hash);
        cache.populate(k, a, &fp_a.literals, fill(&echo_translate(a).unwrap(), &["T"]), |s| {
            echo_translate(s)
        });
        cache.populate(k, b, &fp_b.literals, fill(&echo_translate(b).unwrap(), &["T"]), |s| {
            echo_translate(s)
        });
        // `1e2` shares the fingerprint but is not canonical: must miss.
        let c = "SELECT * FROM T WHERE X = 1e2";
        let fp_c = fingerprint(c).unwrap();
        assert_eq!(fp_a.hash, fp_c.hash);
        assert!(cache.lookup(&k, &fp_c.literals, false).is_none());
    }

    #[test]
    fn invalidate_table_drops_matching_entries_by_base_name() {
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        let a = "SELECT * FROM T WHERE X = 1";
        let b = "SELECT * FROM R WHERE X = 1";
        let fp_a = fingerprint(a).unwrap();
        let fp_b = fingerprint(b).unwrap();
        cache.populate(key(fp_a.hash), a, &fp_a.literals, fill("sa", &["T"]), |_| None);
        cache.populate(key(fp_b.hash), b, &fp_b.literals, fill("sb", &["R"]), |_| None);
        assert_eq!(cache.len(), 2);
        cache.invalidate_table("db.t");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(fp_a.hash), &fp_a.literals, false).is_none());
        assert!(cache.lookup(&key(fp_b.hash), &fp_b.literals, false).is_some());
    }

    #[test]
    fn in_transaction_suppresses_non_query_entries() {
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        let a = "INSERT INTO T VALUES (1)";
        let fp = fingerprint(a).unwrap();
        let k = key(fp.hash);
        let mut f = fill("insert into t values (1)", &["T"]);
        f.is_query = false;
        cache.populate(k, a, &fp.literals, f, |_| None);
        assert!(cache.lookup(&k, &fp.literals, true).is_none());
        assert!(cache.lookup(&k, &fp.literals, false).is_some());
    }

    #[test]
    fn lru_eviction_bounds_entries() {
        let obs = obs();
        let cfg = CacheConfig { max_entries: 8, shards: 2, ..CacheConfig::default() };
        let cache = TranslationCache::new(cfg, &obs);
        for i in 0..32 {
            let sql = format!("SELECT C{i} FROM T");
            let fp = fingerprint(&sql).unwrap();
            cache.populate(key(fp.hash), &sql, &fp.literals, fill(&sql, &["T"]), |_| None);
        }
        assert!(cache.len() <= 8, "len {} exceeds bound", cache.len());
        // The newest entry survived.
        let last = "SELECT C31 FROM T";
        let fp = fingerprint(last).unwrap();
        assert!(cache.lookup(&key(fp.hash), &fp.literals, false).is_some());
    }

    #[test]
    fn variant_cap_limits_unspliceable_keys() {
        let obs = obs();
        let cfg = CacheConfig { max_variants: 2, ..CacheConfig::default() };
        let cache = TranslationCache::new(cfg, &obs);
        // Probe always fails → every fill stays exact.
        for i in 1..10 {
            let sql = format!("SELECT * FROM T WHERE X = {i}");
            let fp = fingerprint(&sql).unwrap();
            cache.populate(key(fp.hash), &sql, &fp.literals, fill(&sql, &["T"]), |_| None);
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn probe_catches_crossed_holes() {
        // A pipeline that swaps its two literals: positional matching
        // would pair source literal 0 with output literal 0 (which really
        // came from source literal 1). Index-distinct perturbation makes
        // the probe output differ from the template splice.
        let swapping = |src: &str| -> Option<String> {
            let fp = fingerprint(src).ok()?;
            if fp.literals.len() != 2 {
                return None;
            }
            Some(format!(
                "SELECT * FROM T WHERE A = {} AND B = {}",
                fp.literals[1].text, fp.literals[0].text
            ))
        };
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        let a = "SELECT * FROM T WHERE A = 7 AND B = 7";
        let b = "SELECT * FROM T WHERE A = 8 AND B = 8";
        let fp_a = fingerprint(a).unwrap();
        let fp_b = fingerprint(b).unwrap();
        let k = key(fp_a.hash);
        cache.populate(k, a, &fp_a.literals, fill(&swapping(a).unwrap(), &["T"]), swapping);
        cache.populate(k, b, &fp_b.literals, fill(&swapping(b).unwrap(), &["T"]), swapping);
        // With identical literal values the swap is invisible — the probe
        // must still detect it and refuse the template, because a future
        // statement with *distinct* values would be mis-spliced.
        let c = "SELECT * FROM T WHERE A = 1 AND B = 2";
        let fp_c = fingerprint(c).unwrap();
        assert!(cache.lookup(&k, &fp_c.literals, false).is_none());
    }

    #[test]
    fn string_literals_splice_with_escapes() {
        let obs = obs();
        let cache = TranslationCache::new(CacheConfig::default(), &obs);
        let a = "SELECT * FROM T WHERE R = 'WEST'";
        let b = "SELECT * FROM T WHERE R = 'EAST'";
        let fp_a = fingerprint(a).unwrap();
        let fp_b = fingerprint(b).unwrap();
        let k = key(fp_a.hash);
        cache.populate(k, a, &fp_a.literals, fill(&echo_translate(a).unwrap(), &["T"]), |s| {
            echo_translate(s)
        });
        cache.populate(k, b, &fp_b.literals, fill(&echo_translate(b).unwrap(), &["T"]), |s| {
            echo_translate(s)
        });
        let c = "SELECT * FROM T WHERE R = 'o''brien'";
        let fp_c = fingerprint(c).unwrap();
        let hit = cache.lookup(&k, &fp_c.literals, false).expect("escaped string splices");
        assert_eq!(hit.sql, "select * from T where R = 'o''brien'");
    }
}
