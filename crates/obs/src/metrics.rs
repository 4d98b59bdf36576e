//! Metrics primitives and the registry.
//!
//! Handle acquisition (`counter`/`gauge`/`histogram`) takes a lock and is
//! meant for cold paths — construction time, session setup. The returned
//! `Arc` handles are lock-free: recording is a handful of relaxed atomic
//! operations, so instrumented hot paths pay nothing measurable when nobody
//! is scraping.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (active sessions, in-flight statements).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite buckets; bucket `i` has upper bound `2^i` microseconds,
/// so the largest finite bound is ~36 minutes. Values beyond that land in
/// the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Log₂-bucketed latency histogram over microseconds.
///
/// Recording is wait-free: one bucket increment plus count/sum adds and a
/// compare-exchange loop for the max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

/// Upper bound of finite bucket `i`, in microseconds.
pub fn bucket_bound_micros(i: usize) -> u64 {
    1u64 << i
}

fn bucket_index(micros: u64) -> Option<usize> {
    let idx = if micros <= 1 {
        0
    } else {
        64 - (micros - 1).leading_zeros() as usize
    };
    (idx < HISTOGRAM_BUCKETS).then_some(idx)
}

impl Histogram {
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn record_micros(&self, micros: u64) {
        match bucket_index(micros) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> Duration {
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed))
    }

    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) from bucket counts. Returns
    /// the upper bound of the bucket holding the target rank; quantiles
    /// that fall in the overflow bucket report the observed max.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Duration::from_micros(bucket_bound_micros(i));
            }
        }
        self.max()
    }

    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    fn bucket_counts(&self) -> ([u64; HISTOGRAM_BUCKETS], u64) {
        (
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.overflow.load(Ordering::Relaxed),
        )
    }
}

/// Metric identity: name plus sorted label pairs. `BTreeMap` keys keep the
/// exposition output deterministically ordered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    labels.sort();
    MetricKey { name: name.to_string(), labels }
}

/// Registry of named metrics. One global instance lives in
/// [`crate::ObsContext::global`]; tests build isolated ones.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

macro_rules! get_or_insert {
    ($map:expr, $name:expr, $labels:expr) => {{
        let mut map = $map.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(key($name, $labels)).or_default())
    }};
}

impl MetricsRegistry {
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_insert!(self.counters, name, labels)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_insert!(self.gauges, name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        get_or_insert!(self.histograms, name, labels)
    }

    /// Read a counter's current value without creating it; 0 if absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let map = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get(&key(name, labels)).map_or(0, |c| c.get())
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, c) in self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner).iter() {
            out.push_str(&format!("{}{} {}\n", k.name, label_set(&k.labels, None), c.get()));
        }
        for (k, g) in self.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner).iter() {
            out.push_str(&format!("{}{} {}\n", k.name, label_set(&k.labels, None), g.get()));
        }
        for (k, h) in self.histograms.lock().unwrap_or_else(std::sync::PoisonError::into_inner).iter() {
            let (buckets, overflow) = h.bucket_counts();
            let mut cumulative = 0u64;
            // Emit finite buckets up to the one covering the observed max
            // (always at least one), then +Inf — a valid cumulative
            // exposition without 32 lines of empty tail per histogram.
            let max_micros = h.max().as_micros() as u64;
            let last = bucket_index(max_micros).unwrap_or(HISTOGRAM_BUCKETS - 1);
            for (i, b) in buckets.iter().enumerate().take(last + 1) {
                cumulative += b;
                let le = bucket_bound_micros(i) as f64 / 1e6;
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    k.name,
                    label_set(&k.labels, Some(&format!("{le}"))),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                k.name,
                label_set(&k.labels, Some("+Inf")),
                cumulative + overflow
            ));
            let sum = h.sum().as_micros() as f64 / 1e6;
            out.push_str(&format!("{}_sum{} {}\n", k.name, label_set(&k.labels, None), sum));
            out.push_str(&format!("{}_count{} {}\n", k.name, label_set(&k.labels, None), h.count()));
            // Pre-computed quantile gauges (seconds), so scrapers get
            // latency percentiles without doing histogram math.
            for (suffix, v) in
                [("p50", h.p50()), ("p95", h.p95()), ("p99", h.p99())]
            {
                out.push_str(&format!(
                    "{}_{suffix}{} {}\n",
                    k.name,
                    label_set(&k.labels, None),
                    v.as_micros() as f64 / 1e6
                ));
            }
        }
        out
    }

    /// Render every metric as a JSON object (hand-rolled; the workspace has
    /// no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        let counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (i, (k, c)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                json_str(&k.name),
                json_labels(&k.labels),
                c.get()
            ));
        }
        drop(counters);
        out.push_str("],\"gauges\":[");
        let gauges = self.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (i, (k, g)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                json_str(&k.name),
                json_labels(&k.labels),
                g.get()
            ));
        }
        drop(gauges);
        out.push_str("],\"histograms\":[");
        let histograms = self.histograms.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (i, (k, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},\"count\":{},\"sum_seconds\":{},\
                 \"max_seconds\":{},\"p50_seconds\":{},\"p95_seconds\":{},\"p99_seconds\":{}}}",
                json_str(&k.name),
                json_labels(&k.labels),
                h.count(),
                h.sum().as_secs_f64(),
                h.max().as_secs_f64(),
                h.p50().as_secs_f64(),
                h.p95().as_secs_f64(),
                h.p99().as_secs_f64(),
            ));
        }
        out.push_str("]}");
        out
    }
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from `(key, value)` pairs whose values already render as
/// JSON (numbers, or pre-rendered JSON text).
pub(crate) fn json_map<V: std::fmt::Display>(
    pairs: impl IntoIterator<Item = (impl AsRef<str>, V)>,
) -> String {
    let body: Vec<String> =
        pairs.into_iter().map(|(k, v)| format!("{}:{v}", json_str(k.as_ref()))).collect();
    format!("{{{}}}", body.join(","))
}

fn json_labels(labels: &[(String, String)]) -> String {
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_over_micros() {
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(1), Some(0));
        assert_eq!(bucket_index(2), Some(1));
        assert_eq!(bucket_index(3), Some(2));
        assert_eq!(bucket_index(4), Some(2));
        assert_eq!(bucket_index(5), Some(3));
        assert_eq!(bucket_index(1 << 31), Some(31));
        assert_eq!(bucket_index((1 << 31) + 1), None, "past the last finite bound");
        assert_eq!(bucket_index(u64::MAX), None);
    }

    #[test]
    fn histogram_quantiles_track_bucket_bounds() {
        let h = Histogram::default();
        // 90 fast (≤8µs bucket) and 10 slow (≤1024µs bucket) samples.
        for _ in 0..90 {
            h.record_micros(7);
        }
        for _ in 0..10 {
            h.record_micros(1000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Duration::from_micros(8));
        assert_eq!(h.quantile(0.90), Duration::from_micros(8));
        assert_eq!(h.p95(), Duration::from_micros(1024));
        assert_eq!(h.p99(), Duration::from_micros(1024));
        assert_eq!(h.max(), Duration::from_micros(1000));
        assert_eq!(h.sum(), Duration::from_micros(90 * 7 + 10 * 1000));
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::default();
        h.record_micros(3);
        h.record(Duration::from_secs(10_000)); // 1e10 µs > 2^31 µs
        assert_eq!(h.count(), 2);
        assert_eq!(h.p99(), h.max(), "overflow quantiles fall back to the observed max");
        assert_eq!(h.max(), Duration::from_secs(10_000));
        let text = {
            let r = MetricsRegistry::default();
            let hist = r.histogram("t", &[]);
            hist.record_micros(3);
            hist.record(Duration::from_secs(10_000));
            r.render_prometheus()
        };
        assert!(text.contains("t_bucket{le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn registry_returns_same_handle_for_same_key() {
        let r = MetricsRegistry::default();
        let a = r.counter("x_total", &[("k", "v")]);
        let b = r.counter("x_total", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.counter_value("x_total", &[("k", "v")]), 3);
        assert_eq!(r.counter_value("x_total", &[("k", "other")]), 0);
    }

    #[test]
    fn prometheus_exposition_golden() {
        let r = MetricsRegistry::default();
        r.counter("demo_queries_total", &[("session", "1")]).add(5);
        r.gauge("demo_sessions_active", &[]).set(2);
        let h = r.histogram("hyperq_stage_duration_seconds", &[("stage", "parse")]);
        h.record_micros(1); // bucket 0 (le = 1µs)
        h.record_micros(3); // bucket 2 (le = 4µs)
        let text = r.render_prometheus();
        let expected = "\
demo_queries_total{session=\"1\"} 5
demo_sessions_active 2
hyperq_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.000001\"} 1
hyperq_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.000002\"} 1
hyperq_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.000004\"} 2
hyperq_stage_duration_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 2
hyperq_stage_duration_seconds_sum{stage=\"parse\"} 0.000004
hyperq_stage_duration_seconds_count{stage=\"parse\"} 2
hyperq_stage_duration_seconds_p50{stage=\"parse\"} 0.000001
hyperq_stage_duration_seconds_p95{stage=\"parse\"} 0.000004
hyperq_stage_duration_seconds_p99{stage=\"parse\"} 0.000004
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_exposition_golden() {
        let r = MetricsRegistry::default();
        r.counter("a_total", &[("k", "v\"q")]).inc();
        r.gauge("g", &[]).set(-4);
        r.histogram("h_seconds", &[]).record_micros(2);
        let json = r.render_json();
        let expected = "{\"counters\":[{\"name\":\"a_total\",\"labels\":{\"k\":\"v\\\"q\"},\
\"value\":1}],\"gauges\":[{\"name\":\"g\",\"labels\":{},\"value\":-4}],\
\"histograms\":[{\"name\":\"h_seconds\",\"labels\":{},\"count\":1,\
\"sum_seconds\":0.000002,\"max_seconds\":0.000002,\"p50_seconds\":0.000002,\
\"p95_seconds\":0.000002,\"p99_seconds\":0.000002}]}";
        assert_eq!(json, expected);
    }
}
