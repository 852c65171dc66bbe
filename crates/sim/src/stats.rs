//! Statistics collectors used by every experiment harness.

use crate::{SimDuration, SimTime};

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// ```
/// use flex_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty collector.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample (n−1) standard deviation; 0 with fewer than two samples.
    pub fn sample_std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile computation over a stored sample set.
///
/// Keeps all samples; intended for experiment-scale data (up to a few
/// million points), not unbounded telemetry.
///
/// ```
/// use flex_sim::stats::Percentiles;
/// let mut p = Percentiles::new();
/// for i in 1..=100 {
///     p.record(i as f64);
/// }
/// assert_eq!(p.quantile(0.5), Some(50.5));
/// assert_eq!(p.quantile(0.0), Some(1.0));
/// assert_eq!(p.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// An empty collector.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Linear-interpolated quantile `q ∈ [0, 1]`; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Convenience: the p50/p95/p99/p999 tuple used in reports.
    pub fn summary(&mut self) -> Option<(f64, f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ))
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

impl Extend<f64> for Percentiles {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut p = Percentiles::new();
        p.extend(iter);
        p
    }
}

/// A time-stamped series of values with step semantics: the value recorded
/// at `t` holds until the next record. Supports time-weighted aggregation,
/// which is what power telemetry needs (a reading holds until replaced).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point; time must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded point or `v` is NaN.
    pub fn record(&mut self, t: SimTime, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN");
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be recorded in order");
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value in effect at time `t` (the last point at or before `t`).
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// Time-weighted mean over `[from, to]` under step semantics.
    /// Returns `None` if the series has no value in effect by `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn time_weighted_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        assert!(from <= to, "inverted interval");
        if from == to {
            return self.value_at(from);
        }
        let mut acc = 0.0;
        let mut cursor = from;
        let mut current = self.value_at(from)?;
        for &(pt, v) in &self.points {
            if pt <= from {
                continue;
            }
            if pt >= to {
                break;
            }
            acc += current * (pt - cursor).as_secs_f64();
            cursor = pt;
            current = v;
        }
        acc += current * (to - cursor).as_secs_f64();
        Some(acc / (to - from).as_secs_f64())
    }

    /// Maximum value over points within `[from, to]`, including the value
    /// in effect at `from`.
    pub fn max_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut best = self.value_at(from);
        for &(pt, v) in &self.points {
            if pt > from && pt <= to {
                best = Some(best.map_or(v, |b: f64| b.max(v)));
            }
        }
        best
    }

    /// Duration within `[from, to]` during which the series value strictly
    /// exceeded `threshold`.
    pub fn time_above(&self, threshold: f64, from: SimTime, to: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut cursor = from;
        let mut current = self.value_at(from);
        for &(pt, v) in &self.points {
            if pt <= from {
                continue;
            }
            let seg_end = pt.min(to);
            if let Some(c) = current {
                if c > threshold && seg_end > cursor {
                    total += seg_end - cursor;
                }
            }
            if pt >= to {
                return total;
            }
            cursor = pt;
            current = Some(v);
        }
        if let Some(c) = current {
            if c > threshold && to > cursor {
                total += to - cursor;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert!((s.population_variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.mean(), 5.0);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut p: Percentiles = (1..=4).map(|i| i as f64).collect();
        assert_eq!(p.quantile(0.5), Some(2.5));
        assert_eq!(p.quantile(0.25), Some(1.75));
        assert_eq!(p.count(), 4);
        assert_eq!(p.mean(), Some(2.5));
    }

    #[test]
    fn percentiles_empty_and_single() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert!(p.summary().is_none());
        p.record(7.0);
        assert_eq!(p.quantile(0.0), Some(7.0));
        assert_eq!(p.quantile(1.0), Some(7.0));
        assert_eq!(p.summary(), Some((7.0, 7.0, 7.0, 7.0)));
    }

    #[test]
    fn percentiles_interleaved_record_and_query() {
        let mut p = Percentiles::new();
        p.record(10.0);
        assert_eq!(p.quantile(0.5), Some(10.0));
        p.record(20.0);
        assert_eq!(p.quantile(0.5), Some(15.0));
    }

    #[test]
    fn time_series_step_semantics() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs_f64(0.0), 1.0);
        ts.record(SimTime::from_secs_f64(10.0), 3.0);
        assert_eq!(ts.value_at(SimTime::from_secs_f64(5.0)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs_f64(10.0)), Some(3.0));
        assert_eq!(ts.value_at(SimTime::from_secs_f64(99.0)), Some(3.0));
        // Mean over [0, 20]: 1.0 for 10 s then 3.0 for 10 s.
        let m = ts
            .time_weighted_mean(SimTime::ZERO, SimTime::from_secs_f64(20.0))
            .unwrap();
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_series_before_first_point() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs_f64(5.0), 1.0);
        assert_eq!(ts.value_at(SimTime::ZERO), None);
        assert!(ts
            .time_weighted_mean(SimTime::ZERO, SimTime::from_secs_f64(1.0))
            .is_none());
    }

    #[test]
    fn time_series_time_above() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs_f64(0.0), 0.5);
        ts.record(SimTime::from_secs_f64(10.0), 1.5);
        ts.record(SimTime::from_secs_f64(15.0), 0.8);
        let above = ts.time_above(1.0, SimTime::ZERO, SimTime::from_secs_f64(30.0));
        assert_eq!(above, SimDuration::from_secs(5));
    }

    #[test]
    fn time_series_max_over() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs_f64(0.0), 2.0);
        ts.record(SimTime::from_secs_f64(5.0), 9.0);
        ts.record(SimTime::from_secs_f64(8.0), 1.0);
        let m = ts
            .max_over(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(6.0))
            .unwrap();
        assert_eq!(m, 9.0);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs_f64(5.0), 1.0);
        ts.record(SimTime::from_secs_f64(1.0), 2.0);
    }
}
