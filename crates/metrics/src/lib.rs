//! A unified metrics layer for the fetchvp simulators.
//!
//! The paper's argument rests on counting the right things — fetch-slot
//! utilization, bank conflicts in the interleaved prediction table (§4),
//! predictability breakdowns (§3.3) — and every subsystem of this workspace
//! accumulates its own ad-hoc stats struct. This crate gives those structs
//! one export surface:
//!
//! * [`Registry`] — an ordered map from dotted metric names
//!   (`predictor.correct`, `fetch.bac.bank_conflicts`) to [`Metric`]s:
//!   integer [`Metric::Counter`]s, float [`Metric::Gauge`]s and log₂-bucket
//!   [`Histogram`]s.
//! * [`MetricsSink`] — implemented by each stats producer
//!   (`PredictorStats`, `BankedStats`, `BacStats`, `TraceCacheStats`,
//!   `SchedStats`, `TraceStats`, …) to write its counters under a caller
//!   supplied namespace prefix.
//! * [`json`] — a hand-rolled serializer/parser (the workspace builds
//!   offline, so no serde) producing the `fetchvp bench` counter report,
//!   the daemon's documents and the golden-digest files.
//!
//! Counters **accumulate**: exporting two machine runs into one registry
//! sums their counts, which is how the bench reports aggregate a workload's
//! machine configurations. Gauges **overwrite**: they are derived rates
//! recomputed from final counter values.
//!
//! # Example
//!
//! ```
//! use fetchvp_metrics::{MetricsSink, Registry};
//!
//! struct HitStats { hits: u64, misses: u64 }
//! impl MetricsSink for HitStats {
//!     fn export_metrics(&self, reg: &mut Registry, prefix: &str) {
//!         reg.counter(prefix, "hits", self.hits);
//!         reg.counter(prefix, "misses", self.misses);
//!     }
//! }
//!
//! let mut reg = Registry::new();
//! HitStats { hits: 3, misses: 1 }.export_metrics(&mut reg, "cache.l1");
//! assert_eq!(reg.get_counter("cache.l1.hits"), Some(3));
//! assert!(reg.counters_json().to_json().contains("\"cache.l1.hits\": 3"));
//! ```

// Public API of the hot path: every item must explain itself.
#![deny(missing_docs)]

pub mod hash;
pub mod json;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::{Json, ParseError, MAX_DEPTH};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// One recorded metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated integer count.
    Counter(u64),
    /// A derived floating-point quantity (rates, ratios, throughput).
    Gauge(f64),
    /// A distribution over log₂ buckets.
    Histogram(Histogram),
}

/// A histogram over power-of-two buckets.
///
/// Bucket `i` counts samples whose bit length is `i`: bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7, and
/// so on — the right shape for the paper's distance and run-length
/// distributions, which span several orders of magnitude.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` = samples with bit length `i` (65 buckets cover `u64`).
    counts: Vec<u64>,
    /// Total samples.
    count: u64,
    /// Sum of all samples (saturating).
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The mean sample (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one. Counts saturate at
    /// [`u64::MAX`] rather than wrapping (or panicking in debug builds):
    /// merge trees over long-running shards can exceed what any single
    /// recording ever could.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Per-bucket counts, lowest bucket first (no trailing zero buckets).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample — deterministic, derived purely
    /// from the bucket layout (bucket 0 → 0, bucket `i` → `2^i − 1`). An
    /// empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // The rank `⌈q·count⌉` is taken in integer arithmetic: `q` equals
        // `qn / 2^64` exactly (scaling a float by a power of two only
        // shifts its exponent), while `count as f64` rounds above 2^53 and
        // can shift the rank by hundreds of samples on merged histograms.
        let qn = (q.clamp(0.0, 1.0) * 2f64.powi(64)) as u128;
        let rank_wide = (self.count as u128 * qn).div_ceil(1u128 << 64);
        let rank = (rank_wide.min(self.count as u128) as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if bucket == 0 {
                    0
                } else if bucket >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bucket) - 1
                };
            }
        }
        u64::MAX // unreachable: count equals the bucket sum
    }

    /// The median bucket upper bound ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// The 95th-percentile bucket upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile bucket upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("count".to_string(), Json::UInt(self.count)),
            ("sum".to_string(), Json::UInt(self.sum)),
            ("p50".to_string(), Json::UInt(self.p50())),
            ("p95".to_string(), Json::UInt(self.p95())),
            ("p99".to_string(), Json::UInt(self.p99())),
            (
                "log2_buckets".to_string(),
                Json::Array(self.counts.iter().map(|&c| Json::UInt(c)).collect()),
            ),
        ])
    }
}

/// Anything that can export its statistics into a [`Registry`].
///
/// Implementors write each field under `prefix` (a dotted namespace with no
/// trailing dot, e.g. `"fetch.trace_cache"`); derived rates go in as gauges
/// so the counter section of a report stays integer-only.
pub trait MetricsSink {
    /// Writes this producer's metrics under `prefix`.
    fn export_metrics(&self, reg: &mut Registry, prefix: &str);
}

/// An ordered name → metric map; the snapshot a simulation returns
/// alongside its IPC result.
///
/// Keys are dotted paths. Iteration (and therefore JSON output) is in
/// lexicographic key order, which makes reports deterministic and diffable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn key(prefix: &str, name: &str) -> String {
        debug_assert!(!name.is_empty(), "metric name must be non-empty");
        if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}.{name}")
        }
    }

    /// Adds `value` to the counter `prefix.name` (creating it at 0).
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a gauge or histogram.
    pub fn counter(&mut self, prefix: &str, name: &str, value: u64) {
        let key = Registry::key(prefix, name);
        match self.metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(n) => *n += value,
            other => panic!("metric type conflict: counter vs {other:?}"),
        }
    }

    /// Sets the gauge `prefix.name` to `value` (overwriting).
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a counter or histogram.
    pub fn gauge(&mut self, prefix: &str, name: &str, value: f64) {
        let key = Registry::key(prefix, name);
        match self.metrics.entry(key).or_insert(Metric::Gauge(0.0)) {
            Metric::Gauge(g) => *g = value,
            other => panic!("metric type conflict: gauge vs {other:?}"),
        }
    }

    /// Records `value` into the histogram `prefix.name` (creating it empty).
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a counter or gauge.
    pub fn observe(&mut self, prefix: &str, name: &str, value: u64) {
        let key = Registry::key(prefix, name);
        match self.metrics.entry(key).or_insert_with(|| Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.record(value),
            other => panic!("metric type conflict: histogram vs {other:?}"),
        }
    }

    /// Merges a whole pre-built histogram into `prefix.name` bucket-wise
    /// (creating it empty) — for exporting distributions accumulated outside
    /// the registry, such as the schedulers' DID histograms.
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a counter or gauge.
    pub fn histogram(&mut self, prefix: &str, name: &str, value: &Histogram) {
        let key = Registry::key(prefix, name);
        match self.metrics.entry(key).or_insert_with(|| Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.merge(value),
            other => panic!("metric type conflict: histogram vs {other:?}"),
        }
    }

    /// A clone of the histogram stored under `key`, if present.
    pub fn get_histogram(&self, key: &str) -> Option<Histogram> {
        match self.metrics.get(key) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Merges another registry: counters add, gauges overwrite, histograms
    /// merge bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics when the same key holds different metric types.
    pub fn merge(&mut self, other: &Registry) {
        for (key, metric) in &other.metrics {
            match (self.metrics.get_mut(key), metric) {
                (None, m) => {
                    self.metrics.insert(key.clone(), m.clone());
                }
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => *a = *b,
                (Some(Metric::Histogram(a)), Metric::Histogram(b)) => a.merge(b),
                (Some(a), b) => panic!("metric type conflict on `{key}`: {a:?} vs {b:?}"),
            }
        }
    }

    /// The value of a counter, if present.
    pub fn get_counter(&self, key: &str) -> Option<u64> {
        match self.metrics.get(key) {
            Some(Metric::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value of a gauge, if present.
    pub fn get_gauge(&self, key: &str) -> Option<f64> {
        match self.metrics.get(key) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates `(key, metric)` in lexicographic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, m)| (k.as_str(), m))
    }

    /// The distinct top-level namespaces (`predictor`, `fetch`, …), sorted.
    pub fn namespaces(&self) -> Vec<&str> {
        let mut spaces: Vec<&str> =
            self.metrics.keys().map(|k| k.split('.').next().unwrap_or(k)).collect();
        spaces.dedup();
        spaces
    }

    /// The counter section as a flat JSON object (sorted dotted keys,
    /// integers only) — the deterministic part of a bench report.
    pub fn counters_json(&self) -> Json {
        Json::object(self.metrics.iter().filter_map(|(k, m)| match m {
            Metric::Counter(n) => Some((k.clone(), Json::UInt(*n))),
            _ => None,
        }))
    }

    /// The gauge section as a flat JSON object (sorted dotted keys).
    pub fn gauges_json(&self) -> Json {
        Json::object(self.metrics.iter().filter_map(|(k, m)| match m {
            Metric::Gauge(g) => Some((k.clone(), Json::Float(*g))),
            _ => None,
        }))
    }

    /// The histogram section as a JSON object of `{count, sum, log2_buckets}`.
    pub fn histograms_json(&self) -> Json {
        Json::object(self.metrics.iter().filter_map(|(k, m)| match m {
            Metric::Histogram(h) => Some((k.clone(), h.to_json())),
            _ => None,
        }))
    }

    /// The full snapshot: `{"counters": …, "gauges": …, "histograms": …}`
    /// (empty sections omitted).
    pub fn to_json(&self) -> Json {
        let mut sections = Vec::new();
        for (name, section) in [
            ("counters", self.counters_json()),
            ("gauges", self.gauges_json()),
            ("histograms", self.histograms_json()),
        ] {
            if section.as_object().is_some_and(|pairs| !pairs.is_empty()) {
                sections.push((name.to_string(), section));
            }
        }
        Json::object(sections)
    }
}

/// A thread-safe, cheaply cloneable [`Registry`] for concurrent sinks.
///
/// The long-lived `fetchvp serve` daemon has many producers — connection
/// handlers counting requests, pool workers merging whole simulation
/// snapshots — writing into one live registry that `GET /metrics` reads.
/// `SharedRegistry` wraps `Arc<Mutex<Registry>>` with the same write verbs
/// as [`Registry`] plus [`SharedRegistry::snapshot`] for consistent reads.
///
/// Locking is poison-proof: a panicking worker (the server isolates job
/// panics with `catch_unwind`) never takes the metrics endpoint down with
/// it — the mutex's inner data is recovered and the registry stays live.
///
/// # Example
///
/// ```
/// use fetchvp_metrics::SharedRegistry;
///
/// let shared = SharedRegistry::new();
/// let clone = shared.clone();
/// std::thread::spawn(move || clone.counter("server.requests", "run", 1))
///     .join()
///     .unwrap();
/// shared.counter("server.requests", "run", 1);
/// assert_eq!(shared.snapshot().get_counter("server.requests.run"), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<Registry>>,
}

impl SharedRegistry {
    /// An empty shared registry.
    pub fn new() -> SharedRegistry {
        SharedRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        // Recover from poisoning: metrics must outlive panicking writers.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `value` to the counter `prefix.name` (creating it at 0).
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a gauge or histogram.
    pub fn counter(&self, prefix: &str, name: &str, value: u64) {
        self.lock().counter(prefix, name, value);
    }

    /// Sets the gauge `prefix.name` to `value` (overwriting).
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a counter or histogram.
    pub fn gauge(&self, prefix: &str, name: &str, value: f64) {
        self.lock().gauge(prefix, name, value);
    }

    /// Records `value` into the histogram `prefix.name` (creating it
    /// empty).
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a counter or gauge.
    pub fn observe(&self, prefix: &str, name: &str, value: u64) {
        self.lock().observe(prefix, name, value);
    }

    /// Merges a whole [`Registry`] (counters add, gauges overwrite,
    /// histograms merge) — how a pool worker publishes one finished job's
    /// simulator snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the same key holds different metric types.
    pub fn merge(&self, other: &Registry) {
        self.lock().merge(other);
    }

    /// A copy of the histogram stored at `key`, if any — how the server
    /// reads its live latency distribution (e.g. to derive a
    /// `Retry-After` hint from the observed drain rate) without cloning
    /// the whole registry.
    pub fn get_histogram(&self, key: &str) -> Option<Histogram> {
        self.lock().get_histogram(key)
    }

    /// A point-in-time copy of the whole registry — what `GET /metrics`
    /// serializes. Concurrent writers block only for the duration of the
    /// clone, never for the serialization.
    pub fn snapshot(&self) -> Registry {
        self.lock().clone()
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, metric) in &self.metrics {
            match metric {
                Metric::Counter(n) => writeln!(f, "{key} = {n}")?,
                Metric::Gauge(g) => writeln!(f, "{key} = {g:.6}")?,
                Metric::Histogram(h) => {
                    writeln!(f, "{key} = histogram(count {}, mean {:.2})", h.count(), h.mean())?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = Registry::new();
        reg.counter("a", "hits", 2);
        reg.counter("a", "hits", 3);
        reg.gauge("a", "rate", 0.5);
        reg.gauge("a", "rate", 0.7);
        assert_eq!(reg.get_counter("a.hits"), Some(5));
        assert_eq!(reg.get_gauge("a.rate"), Some(0.7));
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms() {
        let mut a = Registry::new();
        a.counter("x", "n", 1);
        a.observe("x", "h", 4);
        let mut b = Registry::new();
        b.counter("x", "n", 2);
        b.observe("x", "h", 5);
        b.gauge("x", "g", 1.5);
        a.merge(&b);
        assert_eq!(a.get_counter("x.n"), Some(3));
        assert_eq!(a.get_gauge("x.g"), Some(1.5));
        match a.metrics.get("x.h") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum(), 9);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "type conflict")]
    fn type_conflicts_panic() {
        let mut reg = Registry::new();
        reg.counter("a", "x", 1);
        reg.gauge("a", "x", 1.0);
    }

    #[test]
    fn counter_section_is_sorted_and_integer_only() {
        let mut reg = Registry::new();
        reg.counter("z", "late", 1);
        reg.counter("a", "early", 2);
        reg.gauge("m", "rate", 0.25);
        let text = reg.counters_json().to_json();
        let a = text.find("a.early").unwrap();
        let z = text.find("z.late").unwrap();
        assert!(a < z, "keys must be sorted: {text}");
        assert!(!text.contains("rate"), "gauges must not leak into counters: {text}");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4, 7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[41], 1); // 2^40
        assert!((h.mean() - (h.sum() as f64 / 8.0)).abs() < 1e-12);
    }

    /// A histogram whose fields are set directly — recording 2^63 samples
    /// is not an option in a unit test.
    fn synthetic(counts: Vec<u64>, sum: u64) -> Histogram {
        let count = counts.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
        Histogram { counts, count, sum }
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        // Regression: merging two near-full histograms used to wrap (or
        // panic in debug builds) on `count` and the per-bucket counts.
        let mut a = synthetic(vec![u64::MAX - 1, 2], u64::MAX);
        let b = synthetic(vec![3, u64::MAX - 1], 10);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.buckets(), [u64::MAX, u64::MAX]);
        assert_eq!(a.sum(), u64::MAX);
    }

    #[test]
    fn quantile_rank_is_exact_above_f64_precision() {
        // 2^53 samples of 0 and one sample of 1: the maximum is rank
        // 2^53 + 1, but `count as f64` rounds that count down to 2^53, so
        // the old float rank landed on the last zero and p100 reported
        // bucket 0 instead of the bucket holding the real maximum.
        let h = synthetic(vec![1u64 << 53, 1], 1);
        assert_eq!(h.quantile(1.0), 1, "the maximum sample lives in bucket 1");
        assert_eq!(h.p50(), 0);

        // Near u64::MAX the f64 rank drifts by thousands of samples; the
        // integer rank must still resolve the single-sample tail bucket.
        let h = synthetic(vec![u64::MAX - 1, 1], u64::MAX);
        assert_eq!(h.quantile(1.0), 1);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantile_boundaries_are_sane() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Quantiles are bucket upper bounds: rank 50 is the value 50, in
        // bucket 6 (32..=63) whose bound is 63.
        assert_eq!(h.p50(), 63);
        assert_eq!(h.quantile(1.0), 127);
        // q = 0 clamps to rank 1 (the minimum sample's bucket).
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn namespaces_lists_top_level_prefixes() {
        let mut reg = Registry::new();
        reg.counter("predictor", "hits", 1);
        reg.counter("predictor.banked", "denied", 1);
        reg.counter("fetch.bac", "blocks", 1);
        assert_eq!(reg.namespaces(), ["fetch", "predictor"]);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut reg = Registry::new();
        reg.counter("a", "n", 7);
        reg.gauge("a", "r", 0.875);
        reg.observe("a", "h", 12);
        let doc = reg.to_json();
        let text = doc.to_json();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Keys are flat dotted names inside each section.
        let n = doc.get("counters").and_then(|c| c.get("a.n")).and_then(Json::as_u64);
        assert_eq!(n, Some(7));
    }

    #[test]
    fn shared_registry_accumulates_across_threads() {
        let shared = SharedRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let shared = shared.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        shared.counter("server.requests", "run", 1);
                        shared.observe("server", "latency_ms", 3);
                    }
                    let mut local = Registry::new();
                    local.counter("sched", "retired", 5);
                    shared.merge(&local);
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.get_counter("server.requests.run"), Some(800));
        assert_eq!(snap.get_counter("sched.retired"), Some(40));
        match snap.to_json().get("histograms").and_then(|h| h.get("server.latency_ms")) {
            Some(h) => assert_eq!(h.get("count").and_then(Json::as_u64), Some(800)),
            None => panic!("missing histogram"),
        }
    }

    #[test]
    fn shared_registry_survives_a_poisoned_lock() {
        let shared = SharedRegistry::new();
        shared.counter("server", "before", 1);
        let clone = shared.clone();
        // Poison the mutex by panicking while holding it (via a type
        // conflict); the registry must stay readable and writable.
        let _ = std::thread::spawn(move || clone.gauge("server", "before", 1.0)).join();
        shared.counter("server", "after", 1);
        assert_eq!(shared.snapshot().get_counter("server.after"), Some(1));
    }

    #[test]
    fn empty_registry_renders_empty_snapshot() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.to_json().to_json(), "{}");
    }
}
