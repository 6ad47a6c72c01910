//! Observability core for LineageX: counters, gauges, log₂ latency
//! histograms, RAII span timers, and a process-wide [`Registry`] with a
//! deterministic JSON snapshot.
//!
//! Design constraints, in order:
//!
//! * **Allocation-light, lock-free recording.** Every handle
//!   ([`Counter`], [`Gauge`], [`Histogram`]) is a cheap `Arc` around
//!   plain atomics; recording is a handful of relaxed atomic ops and
//!   never takes a lock or allocates. The registry's mutex is touched
//!   only at registration time (once per metric name) and on
//!   [`Registry::snapshot`].
//! * **Deterministic snapshots.** [`Registry::snapshot`] renders sorted
//!   keys (`BTreeMap` order) and integer-only values, so two registries
//!   fed the same recording sequence serialise to identical bytes, and
//!   consecutive snapshots diff cleanly (counters are monotonic).
//! * **Zero dependencies** beyond the vendored serde shims (the PR 1
//!   offline-build convention).
//!
//! Histograms use fixed log₂ buckets: value `v` lands in the bucket
//! indexed by its bit length, so bucket `i ≥ 1` spans `[2^(i-1), 2^i)`.
//! Quantile readout is exact over the buckets — the reported pXX is the
//! inclusive upper bound of the bucket holding the true rank, so it
//! bounds the true quantile within one bucket: `true ≤ reported ≤
//! 2·true` (for non-zero values). Durations are recorded in
//! microseconds; name such histograms with a `_us` suffix.
//!
//! A global kill switch ([`set_enabled`]) turns every recording path
//! into a single relaxed load, which is how the serve bench measures
//! instrumentation overhead (`obs_overhead_pct` in `BENCH_serve.json`).

#![deny(rustdoc::broken_intra_doc_links)]

use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of log₂ buckets per histogram. Bucket 31 is open-ended, so
/// durations up to ~35 minutes (in µs) resolve exactly.
const HIST_BUCKETS: usize = 32;

/// Capacity of the registry's slow-operation ring buffer.
const SLOW_RING_CAPACITY: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide recording kill switch. When disabled, every recording
/// path reduces to one relaxed atomic load; registration and snapshots
/// still work (values simply stop moving).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether recording is currently enabled (see [`set_enabled`]).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry: every instrumented layer (engine, query,
/// serve, CLI) records here, and `lineagex client metrics` snapshots it.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic, so handles can be cached at construction time and recorded
/// from any thread.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed instantaneous value (e.g. live connections).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        if enabled() {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// Move the gauge by a signed delta.
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index for a recorded value: its bit length, capped to the
/// open-ended last bucket. Zero lands in bucket 0.
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (the value every quantile readout
/// reports for ranks landing in that bucket).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log₂ histogram with exact p50/p90/p99 readout over
/// the buckets. Recording is lock-free (four relaxed atomic ops).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record a raw value (a count, a size, or a duration in µs).
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        let core = &*self.0;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration, in microseconds.
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Start an RAII timer that records its elapsed time (in µs) into
    /// this histogram when dropped.
    pub fn time(&self) -> SpanTimer {
        SpanTimer { histogram: Some(self.clone()), start: Instant::now() }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Fold another histogram's recordings into this one. Merging is
    /// bucket-wise addition, so it is commutative and associative:
    /// merge order cannot change any readout.
    pub fn merge_from(&self, other: &Histogram) {
        let (a, b) = (&*self.0, &*other.0);
        for i in 0..HIST_BUCKETS {
            a.buckets[i].fetch_add(b.buckets[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        a.count.fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum.fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max.fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The quantile readout for `q` in percent (e.g. `99.0`): the upper
    /// bound of the bucket containing the rank-`⌈q·n/100⌉` value.
    pub fn quantile(&self, q: f64) -> u64 {
        let core = &*self.0;
        let count = core.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in core.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// An integer-only summary (deterministic to serialise).
    pub fn summary(&self) -> HistogramSummary {
        let core = &*self.0;
        HistogramSummary {
            count: core.count.load(Ordering::Relaxed),
            sum: core.sum.load(Ordering::Relaxed),
            max: core.max.load(Ordering::Relaxed),
            p50: self.quantile(50.0),
            p90: self.quantile(90.0),
            p99: self.quantile(99.0),
        }
    }
}

/// Point-in-time histogram readout. All fields are integers so the JSON
/// rendering is byte-deterministic.
#[derive(Serialize, Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (µs for duration histograms).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median readout (upper bound of the rank bucket).
    pub p50: u64,
    /// 90th-percentile readout.
    pub p90: u64,
    /// 99th-percentile readout.
    pub p99: u64,
}

/// RAII timer: records the elapsed time into its histogram on drop (or
/// explicitly via [`SpanTimer::stop`]).
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Option<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Stop now, record, and return the elapsed time.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if let Some(histogram) = self.histogram.take() {
            histogram.record_duration(elapsed);
        }
        elapsed
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(histogram) = self.histogram.take() {
            histogram.record_duration(self.start.elapsed());
        }
    }
}

/// One entry in the slow-operation ring: what ran, how long it took,
/// and the graph state it saw.
#[derive(Serialize, Clone, Debug, PartialEq, Eq)]
pub struct SlowOp {
    /// Operation name (a serve op or an engine phase).
    pub op: String,
    /// Wall time, in microseconds.
    pub duration_us: u64,
    /// Graph revision the operation observed.
    pub revision: u64,
    /// Number of origins involved (query fan-out), 0 when not a query.
    pub origins: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    slow_ops: VecDeque<SlowOp>,
}

/// A metrics registry: name → handle maps plus the slow-operation ring.
/// One process-wide instance lives behind [`registry`]; tests construct
/// local ones for determinism checks.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Get or register the counter named `name`. The returned handle is
    /// shared: all callers asking for the same name record into the same
    /// atomic, and registration pins the name into every snapshot.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock().counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock().gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock().histograms.entry(name.to_string()).or_default().clone()
    }

    /// Push an entry into the bounded slow-operation ring (oldest entry
    /// evicted past capacity).
    pub fn record_slow(&self, op: &str, duration: Duration, revision: u64, origins: u64) {
        if !enabled() {
            return;
        }
        let entry = SlowOp {
            op: op.to_string(),
            duration_us: duration.as_micros().min(u64::MAX as u128) as u64,
            revision,
            origins,
        };
        let mut inner = self.lock();
        if inner.slow_ops.len() == SLOW_RING_CAPACITY {
            inner.slow_ops.pop_front();
        }
        inner.slow_ops.push_back(entry);
    }

    /// A point-in-time snapshot: sorted keys, integer values, slow ring
    /// oldest-first. Serialising the snapshot is byte-deterministic for
    /// a fixed sequence of recordings.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.summary())).collect(),
            slow_ops: inner.slow_ops.iter().cloned().collect(),
        }
    }
}

/// A deterministic point-in-time view of a [`Registry`]: plain sorted
/// maps, ready to serialise (`serde_json::to_string` yields the wire
/// form the serve `metrics` op returns).
#[derive(Serialize, Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries, by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Recent slow operations, oldest first.
    pub slow_ops: Vec<SlowOp>,
}

impl MetricsSnapshot {
    /// Compact JSON rendering (sorted keys, integers only).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics snapshot serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
    }

    #[test]
    fn histogram_readout_is_exact_over_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 5, 900] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 907);
        assert_eq!(s.max, 900);
        // Rank 3 of 5 is the value 1 → bucket [1,1] upper bound 1.
        assert_eq!(s.p50, 1);
        // Ranks 5 (p90, p99) hit 900 → bucket [512,1023] upper 1023.
        assert_eq!(s.p90, 1023);
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn span_timer_records_once() {
        let h = Histogram::default();
        {
            let _t = h.time();
        }
        let elapsed = h.time().stop();
        assert_eq!(h.count(), 2);
        assert!(elapsed >= Duration::ZERO);
    }

    #[test]
    fn slow_ring_is_bounded_and_ordered() {
        let r = Registry::new();
        for i in 0..(SLOW_RING_CAPACITY as u64 + 3) {
            r.record_slow("query", Duration::from_micros(i), i, 1);
        }
        let snap = r.snapshot();
        assert_eq!(snap.slow_ops.len(), SLOW_RING_CAPACITY);
        assert_eq!(snap.slow_ops.first().unwrap().revision, 3);
        assert_eq!(snap.slow_ops.last().unwrap().revision, SLOW_RING_CAPACITY as u64 + 2);
    }

    #[test]
    fn snapshot_is_byte_deterministic_for_a_fixed_recording_sequence() {
        let run = || {
            let r = Registry::new();
            r.counter("serve.requests").add(3);
            r.counter("engine.index_invalidations").inc();
            r.gauge("serve.connections_live").set(2);
            let h = r.histogram("engine.ingest_us");
            for v in [40, 7, 7, 2500, 0] {
                h.record(v);
            }
            r.record_slow("ingest", Duration::from_micros(2500), 4, 0);
            r.snapshot().to_json()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "snapshot rendering must be byte-deterministic");
        // The shape is pinned: sorted keys, integer values, struct field
        // order inside summaries.
        assert!(
            a.starts_with("{\"counters\":{\"engine.index_invalidations\":1,\"serve.requests\":3}")
        );
        assert!(a.contains("\"histograms\":{\"engine.ingest_us\":{\"count\":5,"));
        assert!(a.contains("\"slow_ops\":[{\"op\":\"ingest\",\"duration_us\":2500,"));
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x").get(), 2);
    }
}
