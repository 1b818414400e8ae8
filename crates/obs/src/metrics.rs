//! Atomic counters, gauges and fixed-bucket latency histograms.
//!
//! Two layers:
//!
//! * **Handles** ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s onto
//!   lock-free cells. Their operations are *unconditional* — they work on
//!   any [`MetricsRegistry`] (or standalone, see
//!   [`Histogram::standalone`], which the bench harness uses so bench and
//!   runtime numbers share one bucket scheme).
//! * **Gated statics** ([`LazyCounter`], [`LazyGauge`], [`LazyHistogram`])
//!   are what instrumentation sites declare. Each op first checks
//!   [`crate::enabled`] with one relaxed load and takes the no-op branch
//!   when observability is off; the first enabled op binds the handle into
//!   the global registry.
//!
//! Histograms are log-linear: exact below 16, then 16 linear sub-buckets
//! per power of two (≤ 1/16 relative quantization error), covering the
//! full `u64` range in 976 buckets. Quantiles report the upper bound of
//! the bucket containing the requested rank.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Histogram bucket scheme
// ---------------------------------------------------------------------------

/// Values below this are their own (exact) bucket.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power of two above [`LINEAR_MAX`].
const SUB_BUCKETS: usize = 16;
/// Total bucket count: 16 exact + 60 octaves × 16 sub-buckets.
const NUM_BUCKETS: usize = LINEAR_MAX as usize + 60 * SUB_BUCKETS;

/// The bucket index of a value.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= 4
    let octave = msb - 4;
    let sub = ((value >> (msb - 4)) & 0xF) as usize;
    LINEAR_MAX as usize + octave * SUB_BUCKETS + sub
}

/// The inclusive upper bound of a bucket.
fn bucket_upper(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        return index as u64;
    }
    let octave = (index - LINEAR_MAX as usize) / SUB_BUCKETS;
    let sub = ((index - LINEAR_MAX as usize) % SUB_BUCKETS) as u64;
    let lower = (LINEAR_MAX + sub) << octave;
    lower + ((1u64 << octave) - 1)
}

// ---------------------------------------------------------------------------
// Cells and handles
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency/value histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Creates a histogram not bound to any registry. The bench harness
    /// records its samples through this, so bench and runtime latencies
    /// share one bucket scheme and quantile definition.
    pub fn standalone() -> Histogram {
        Histogram(Arc::new(HistogramCell::new()))
    }

    /// Records one value.
    ///
    /// The bucket is bumped before the total count, so a concurrent
    /// [`Histogram::summary`] (which reads the count first) never sees a
    /// count exceeding the bucket sum.
    pub fn observe(&self, value: u64) {
        let cell = &self.0;
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.max.fetch_max(value, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A consistent point-in-time summary with quantiles.
    pub fn summary(&self, name: &str) -> HistogramSummary {
        let cell = &self.0;
        // Read count before buckets: observe() bumps buckets first, so the
        // bucket sum is always >= this count and quantile ranks resolve.
        let count = cell.count.load(Ordering::Relaxed);
        let sum = cell.sum.load(Ordering::Relaxed);
        let max = cell.max.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, b) in cell.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                buckets.push((bucket_upper(i), cumulative));
            }
        }
        HistogramSummary {
            name: name.to_owned(),
            count,
            sum,
            max,
            buckets,
        }
    }
}

/// Point-in-time histogram state: cumulative non-empty buckets plus
/// aggregates, with quantiles computed over the buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(inclusive upper bound, cumulative count)` for each non-empty
    /// bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// The total over the bucket distribution (≥ `count` under concurrent
    /// recording; quantiles use this total so they are self-consistent).
    fn bucket_total(&self) -> u64 {
        self.buckets.last().map(|(_, c)| *c).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q · total)`-th smallest sample. Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.bucket_total();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        for (upper, cumulative) in &self.buckets {
            if *cumulative >= rank {
                return (*upper).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics. One process-wide instance lives behind
/// [`crate::metrics()`]; tests construct their own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<RegistryInner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().expect("metrics lock").counters.get(name) {
            return c.clone();
        }
        let mut inner = self.inner.write().expect("metrics lock");
        inner
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.read().expect("metrics lock").gauges.get(name) {
            return g.clone();
        }
        let mut inner = self.inner.write().expect("metrics lock");
        inner
            .gauges
            .entry(name.to_owned())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self
            .inner
            .read()
            .expect("metrics lock")
            .histograms
            .get(name)
        {
            return h.clone();
        }
        let mut inner = self.inner.write().expect("metrics lock");
        inner
            .histograms
            .entry(name.to_owned())
            .or_insert_with(Histogram::standalone)
            .clone()
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().expect("metrics lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.value()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.value()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| h.summary(name))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry's metrics — the query API exposed
/// through `cadel-server`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, name-ordered.
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The summary of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (counters as `_total` values, histograms as cumulative `_bucket`
    /// series over the non-empty buckets plus `+Inf`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        for h in &self.histograms {
            let name = &h.name;
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (upper, cumulative) in &h.buckets {
                let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let total = h.bucket_total();
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Gated instrumentation statics
// ---------------------------------------------------------------------------

/// A `static`-friendly counter that binds into the global registry on
/// first *enabled* use. While observability is off, [`LazyCounter::add`]
/// is one relaxed load and a branch.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Declares a counter by metric name.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` when enabled; no-op otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| crate::metrics().counter(self.name))
            .add(n);
    }

    /// Increments by one when enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Whether the handle has ever bound into the registry — `false` while
    /// every call so far took the disabled no-op branch.
    pub fn is_bound(&self) -> bool {
        self.cell.get().is_some()
    }
}

/// A `static`-friendly gauge; see [`LazyCounter`] for the gating contract.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// Declares a gauge by metric name.
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Sets the gauge when enabled; no-op otherwise.
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| crate::metrics().gauge(self.name))
            .set(v);
    }

    /// Adds `delta` (may be negative) when enabled; no-op otherwise.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| crate::metrics().gauge(self.name))
            .add(delta);
    }

    /// Whether the handle has ever bound into the registry.
    pub fn is_bound(&self) -> bool {
        self.cell.get().is_some()
    }
}

/// A `static`-friendly histogram; see [`LazyCounter`] for the gating
/// contract.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Declares a histogram by metric name.
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records a value when enabled; no-op otherwise.
    #[inline]
    pub fn observe(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| crate::metrics().histogram(self.name))
            .observe(value);
    }

    /// Records the elapsed time of a [`Stopwatch`] started while enabled.
    /// A stopwatch started while disabled records nothing.
    #[inline]
    pub fn record(&self, stopwatch: &Stopwatch) {
        if let Some(ns) = stopwatch.elapsed_ns() {
            self.observe(ns);
        }
    }

    /// Whether the handle has ever bound into the registry.
    pub fn is_bound(&self) -> bool {
        self.cell.get().is_some()
    }
}

/// A gated wall-clock timer: reads the clock only when observability is
/// enabled at start, so disabled hot paths never touch `Instant::now`.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing when enabled; inert otherwise.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(crate::enabled().then(Instant::now))
    }

    /// A stopwatch that never ran (for conditional timing paths).
    pub const fn inert() -> Stopwatch {
        Stopwatch(None)
    }

    /// Whether the stopwatch is timing.
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since start, `None` when inert.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|start| u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("requests_total").value(), 5);
        let g = registry.gauge("queue_depth");
        g.set(7);
        g.add(-2);
        assert_eq!(registry.gauge("queue_depth").value(), 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("requests_total"), Some(5));
        assert_eq!(snap.gauge("queue_depth"), Some(5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let registry = Arc::new(MetricsRegistry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    let c = registry.counter("hammered_total");
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            registry.counter("hammered_total").value(),
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_below_16_and_tight_above() {
        // Exact region: every value is its own bucket.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
        // Values exactly on a bucket edge land in the bucket whose range
        // starts there, and the bucket bounds bracket the value with at
        // most 1/16 relative width.
        for edge in [16u64, 17, 31, 32, 1024, 1025, 1 << 40, u64::MAX] {
            let idx = bucket_index(edge);
            let upper = bucket_upper(idx);
            assert!(upper >= edge, "upper {upper} < value {edge}");
            // Lower bound of this bucket = upper of previous + 1.
            let lower = if idx == 0 {
                0
            } else {
                bucket_upper(idx - 1) + 1
            };
            assert!(lower <= edge, "lower {lower} > value {edge}");
            assert!(
                (upper - lower) as f64 <= (edge as f64 / 16.0).max(1.0),
                "bucket [{lower}, {upper}] too wide for {edge}"
            );
        }
        // Bucket uppers strictly increase (no overlap, no gaps).
        for i in 1..NUM_BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1));
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_error() {
        let h = Histogram::standalone();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.summary("t");
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // 1/16 log-linear quantization: p50 ∈ [500, 531], p99 ∈ [990, 1052].
        let p50 = s.p50();
        assert!((500..=532).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((990..=1056).contains(&p99), "p99 = {p99}");
        // Quantiles never exceed the recorded max.
        assert!(s.p95() <= 1000);
        assert_eq!(s.quantile(1.0), 1000);
        // Mean is exact (sum and count are exact).
        assert!((s.mean() - 500.5).abs() < f64::EPSILON);
    }

    #[test]
    fn snapshot_while_recording_is_consistent() {
        let registry = Arc::new(MetricsRegistry::new());
        // Register both series before any writer starts, so the first
        // snapshot cannot race the writers' registrations.
        let h = registry.histogram("live_ns");
        let c = registry.counter("live_total");
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                let c = c.clone();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut v = 1u64 + t;
                    while stop.load(Ordering::Relaxed) == 0 {
                        h.observe(v % 10_000);
                        c.inc();
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                })
            })
            .collect();
        let mut last_count = 0u64;
        for _ in 0..50 {
            let snap = registry.snapshot();
            let h = snap.histogram("live_ns").unwrap();
            // Counts are monotone across snapshots.
            assert!(h.count >= last_count);
            last_count = h.count;
            // The bucket distribution always covers at least `count`
            // samples (buckets are bumped before the count).
            assert!(h.bucket_total() >= h.count);
            // Quantiles resolve on the live distribution without panicking
            // and stay within the observed value range.
            assert!(h.p99() < 16_384);
        }
        stop.store(1, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let end = registry.snapshot();
        let h = end.histogram("live_ns").unwrap();
        // Quiescent: distribution and count agree exactly.
        assert_eq!(h.bucket_total(), h.count);
        assert_eq!(end.counter("live_total"), Some(h.count));
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("engine_steps_total").add(3);
        registry.gauge("engine_heldfor_tracked").set(2);
        let h = registry.histogram("engine_step_duration_ns");
        h.observe(5);
        h.observe(700);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# TYPE engine_steps_total counter"));
        assert!(text.contains("engine_steps_total 3"));
        assert!(text.contains("engine_heldfor_tracked 2"));
        assert!(text.contains("# TYPE engine_step_duration_ns histogram"));
        assert!(text.contains("engine_step_duration_ns_bucket{le=\"5\"} 1"));
        assert!(text.contains("engine_step_duration_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("engine_step_duration_ns_sum 705"));
        assert!(text.contains("engine_step_duration_ns_count 2"));
    }

    // The disabled no-op-branch contract is asserted in
    // `tests/disabled_noop.rs`: it needs the global enabled flag to stay
    // off, which only a dedicated test binary can guarantee.

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::standalone();
        let s = h.summary("empty");
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
