//! The metrics registry: counters, gauges, and fixed-bucket log-scale
//! histograms.
//!
//! Every handle is either *live* (backed by atomic cells owned by the
//! registry) or *noop* (`None` inside — the increment path is a single
//! branch on a discriminant the optimizer can see through, so disabled
//! observability compiles down to nothing on the hot path).
//!
//! Every name has one cell: each registration of a name hands out a
//! handle to the same cell. Counter and histogram totals stay exactly
//! deterministic under any interleaving of writers, because addition,
//! `min`, and `max` are commutative. Gauges are last-write-wins.
//!
//! Snapshots order everything through `BTreeMap`s, so a snapshot of the
//! same history serializes byte-identically every time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use flex_sim::{SimDuration, SimTime};

use crate::json::{obj, Value};

/// Number of fixed histogram buckets: one per index [`bucket_index`]
/// returns. Log-scale with four sub-buckets per octave covers the full
/// `u64` range in 252 slots.
const BUCKETS: usize = bucket_index(u64::MAX) + 1;

/// Bucket index for a value: values below 4 get exact singleton
/// buckets; above, each power-of-two octave splits into four
/// sub-buckets keyed by the two bits below the most significant bit.
/// Relative resolution is therefore better than 25% everywhere.
const fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 2 since v >= 4
        4 + (msb - 2) * 4 + ((v >> (msb - 2)) & 3) as usize
    }
}

/// Inclusive lower bound of a bucket (inverse of [`bucket_index`]),
/// for every `idx < BUCKETS`.
pub(crate) fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < 4 {
        idx as u64
    } else {
        let msb = (idx - 4) / 4 + 2;
        let sub = ((idx - 4) % 4) as u64;
        (1u64 << msb) + (sub << (msb - 2))
    }
}

/// The atomic cells behind one histogram name.
#[derive(Debug)]
pub(crate) struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A counter handle. Cheap to clone; increments are a single relaxed
/// atomic add (or nothing for a noop handle).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A disconnected handle: every operation is a no-op.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The name's current total, over every handle registered under it
    /// (for tests; reports read snapshots).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle holding an `f64` (stored as bits in an atomic cell).
/// Last write wins; all registrations of a name share one cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A disconnected handle: every operation is a no-op.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (0.0 for a noop handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// A histogram handle over `u64` samples (log-scale fixed buckets).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistCells>>);

impl Histogram {
    /// A disconnected handle: every operation is a no-op.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(cells) = &self.0 {
            cells.observe(v);
        }
    }
}

/// A span handle: a histogram of **sim-time** durations in nanoseconds.
/// Spans never consult the wall clock (lint rule D1 holds); callers
/// pass the virtual instants they already have.
#[derive(Debug, Clone, Default)]
pub struct Span(Histogram);

impl Span {
    /// A disconnected handle: every operation is a no-op.
    pub fn noop() -> Self {
        Span(Histogram::noop())
    }

    pub(crate) fn from_histogram(h: Histogram) -> Span {
        Span(h)
    }

    /// Records an elapsed sim-time duration.
    #[inline]
    pub fn record(&self, d: SimDuration) {
        self.0.observe(d.as_nanos());
    }

    /// Records the duration between two sim instants (zero if `end`
    /// precedes `start`).
    #[inline]
    pub fn record_between(&self, start: SimTime, end: SimTime) {
        self.0.observe(end.saturating_since(start).as_nanos());
    }
}

/// Locks `m`, poisoned or not: instruments degrade, never die, and
/// every critical section here leaves its map whole.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The live registry: name → cell. Registration takes a lock;
/// recording never does.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCells>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let cell = Arc::clone(lock(&self.counters).entry(name.to_string()).or_default());
        Counter(Some(cell))
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let cell = Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0.0_f64.to_bits()))),
        );
        Gauge(Some(cell))
    }

    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        let cells = Arc::clone(
            lock(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistCells::new())),
        );
        Histogram(Some(cells))
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, cells)| (name.clone(), HistogramSnapshot::read(cells)))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time view of one histogram name.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples (wrapping).
    pub sum: u64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn read(cells: &HistCells) -> Self {
        let count = cells.count.load(Ordering::Relaxed);
        let buckets = cells
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_lower_bound(i), c))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: cells.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| cells.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| cells.max.load(Ordering::Relaxed)),
            buckets,
        }
    }

    /// The lower bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`); `None` when empty. `q = 1.0` returns the
    /// exact tracked maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(lo, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(lo);
            }
        }
        self.max
    }

    /// Mean sample value; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    pub(crate) fn to_value(&self) -> Value {
        obj(vec![
            ("count", Value::Num(self.count as f64)),
            ("sum", Value::Str(self.sum.to_string())),
            (
                "min",
                self.min.map_or(Value::Null, |v| Value::Str(v.to_string())),
            ),
            (
                "max",
                self.max.map_or(Value::Null, |v| Value::Str(v.to_string())),
            ),
            (
                "buckets",
                Value::Arr(
                    self.buckets
                        .iter()
                        .map(|&(lo, c)| {
                            Value::Arr(vec![
                                Value::Str(lo.to_string()),
                                Value::Num(c as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_value(v: &Value) -> Option<Self> {
        let parse_u64 = |field: &Value| field.as_str()?.parse::<u64>().ok();
        let buckets = v
            .get("buckets")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let items = pair.as_arr()?;
                let lo = parse_u64(items.first()?)?;
                let c = items.get(1)?.as_u64()?;
                Some((lo, c))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(HistogramSnapshot {
            count: v.get("count")?.as_u64()?,
            sum: parse_u64(v.get("sum")?)?,
            min: v.get("min").and_then(parse_u64),
            max: v.get("max").and_then(parse_u64),
            buckets,
        })
    }
}

/// A deterministic point-in-time export of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// As a JSON tree. Counters serialize as decimal strings so 64-bit
    /// totals survive the f64 number representation exactly.
    pub fn to_value(&self) -> Value {
        obj(vec![
            (
                "counters",
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.to_string())))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a tree produced by [`MetricsSnapshot::to_value`].
    pub fn from_value(v: &Value) -> Option<Self> {
        let counters = v
            .get("counters")?
            .as_obj()?
            .iter()
            .map(|(k, n)| Some((k.clone(), n.as_str()?.parse::<u64>().ok()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        let gauges = v
            .get("gauges")?
            .as_obj()?
            .iter()
            .map(|(k, n)| Some((k.clone(), n.as_num()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        let histograms = v
            .get("histograms")?
            .as_obj()?
            .iter()
            .map(|(k, h)| Some((k.clone(), HistogramSnapshot::from_value(h)?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_roundtrips_lower_bounds() {
        for idx in 0..BUCKETS {
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lo), idx, "bucket {idx} lower bound {lo}");
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let samples = [
            0u64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100, 1_000, 65_535, 1 << 20,
            (1 << 20) + 1, u64::MAX / 2, u64::MAX,
        ];
        for w in samples.windows(2) {
            if let [a, b] = w {
                assert!(bucket_index(*a) <= bucket_index(*b), "{a} vs {b}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn reminted_counter_handles_share_one_cell() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        let c = r.counter("y");
        a.add(3);
        assert_eq!(b.get(), 3);
        b.add(4);
        c.inc();
        assert_eq!(a.get(), 7);
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("x"), Some(&7));
        assert_eq!(snap.counters.get("y"), Some(&1));
    }

    #[test]
    fn gauge_is_shared_last_write_wins() {
        let r = Registry::default();
        let a = r.gauge("g");
        let b = r.gauge("g");
        a.set(1.5);
        b.set(2.5);
        assert_eq!(a.get().to_bits(), 2.5f64.to_bits());
        assert_eq!(r.snapshot().gauges.get("g").map(|g| g.to_bits()), Some(2.5f64.to_bits()));
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let r = Registry::default();
        let h1 = r.histogram("h");
        let h2 = r.histogram("h");
        for v in 1..=100u64 {
            if v % 2 == 0 { h1.observe(v) } else { h2.observe(v) }
        }
        let snap = r.snapshot();
        let h = snap.histograms.get("h").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.min, Some(1));
        assert_eq!(h.max, Some(100));
        assert_eq!(h.sum, (1..=100u64).sum());
        let p50 = h.quantile(0.5).unwrap();
        assert!((48..=52).contains(&p50), "p50 bucket lower bound {p50}");
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9.0);
        assert_eq!(g.get().to_bits(), 0.0f64.to_bits());
        let s = Span::noop();
        s.record(SimDuration::from_secs(1));
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let r = Registry::default();
        r.counter("a").add(u64::MAX - 3);
        r.gauge("g").set(0.1 + 0.2);
        let h = r.histogram("h");
        h.observe(0);
        h.observe(12345);
        h.observe(u64::MAX);
        let snap = r.snapshot();
        let text = snap.to_value().to_json();
        let back = MetricsSnapshot::from_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_value().to_json(), text);
    }
}
