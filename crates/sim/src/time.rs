//! Virtual time: nanosecond-resolution instants and durations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration of virtual time, in whole nanoseconds.
///
/// ```
/// use flex_sim::SimDuration;
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0 && s < u64::MAX as f64 / 1e9,
            "duration seconds out of range: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// An instant of virtual time: nanoseconds since simulation start.
///
/// ```
/// use flex_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs(5);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From fractional seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics on negative, NaN, or out-of-range input.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(s).as_nanos())
    }

    /// Whole nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("elapsed_since: earlier instant is after self"),
        )
    }

    /// Saturating duration since another instant (zero if `other` is later).
    pub fn saturating_since(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.as_nanos())
                .expect("time minus duration underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.elapsed_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::from_millis(1500));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(1);
        assert_eq!(a + b, SimDuration::from_secs(4));
        assert_eq!(a - b, SimDuration::from_secs(2));
        assert_eq!(a * 2, SimDuration::from_secs(6));
        assert_eq!(a / 3, SimDuration::from_secs(1));
        assert_eq!(a * 0.5, SimDuration::from_millis(1500));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn duration_from_negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        let u = t + SimDuration::from_secs(5);
        assert_eq!(u - t, SimDuration::from_secs(5));
        assert_eq!(u - SimDuration::from_secs(5), t);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
        assert_eq!(u.saturating_since(t), SimDuration::from_secs(5));
    }

    #[test]
    fn time_ordering_and_sum() {
        let times: Vec<SimTime> = (0..5).map(|i| SimTime::from_nanos(i * 10)).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        let total: SimDuration = (0..4)
            .map(|i| times[i + 1] - times[i])
            .sum();
        assert_eq!(total, SimDuration::from_nanos(40));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(15)), "15ns");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "t=1.250000s");
    }
}
