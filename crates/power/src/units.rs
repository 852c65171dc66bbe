//! Scalar units used throughout the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Electrical power in watts.
///
/// A thin newtype over `f64` so power quantities cannot be confused with
/// fractions, dollar amounts, or seconds. Supports the arithmetic a power
/// model needs: addition/subtraction of powers, scaling by dimensionless
/// factors, and ratios of two powers (which yield a plain `f64`).
///
/// ```
/// use flex_power::Watts;
/// let rack = Watts::from_kw(17.2);
/// let row = rack * 10.0;
/// assert_eq!(row.as_kw(), 172.0);
/// assert!((row / Watts::from_kw(344.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power value from watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is NaN. (Negative values are allowed; they appear
    /// transiently as differences.)
    pub fn new(w: f64) -> Self {
        assert!(!w.is_nan(), "power must not be NaN");
        Watts(w)
    }

    /// Creates a power value from kilowatts.
    pub fn from_kw(kw: f64) -> Self {
        Watts::new(kw * 1_000.0)
    }

    /// Creates a power value from megawatts.
    pub fn from_mw(mw: f64) -> Self {
        Watts::new(mw * 1_000_000.0)
    }

    /// Returns the value in watts.
    pub fn as_w(self) -> f64 {
        self.0
    }

    /// Returns the value in kilowatts.
    pub fn as_kw(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Returns the value in megawatts.
    pub fn as_mw(self) -> f64 {
        self.0 / 1_000_000.0
    }

    /// Returns the larger of two powers.
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// Returns the smaller of two powers.
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Clamps a (possibly negative) power difference at zero.
    pub fn clamp_non_negative(self) -> Watts {
        Watts(self.0.max(0.0))
    }

    /// True when `self` exceeds `other` by more than the workspace power
    /// epsilon (1 mW), the tolerance used by the safety checker and solver.
    pub fn exceeds(self, other: Watts) -> bool {
        self.0 > other.0 + 1e-3
    }

    /// True if the two powers differ by at most `tol` watts.
    pub fn approx_eq(self, other: Watts, tol: f64) -> bool {
        (self.0 - other.0).abs() <= tol
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 1_000_000.0 {
            write!(f, "{:.3} MW", self.as_mw())
        } else if abs >= 1_000.0 {
            write!(f, "{:.2} kW", self.as_kw())
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Watts {
    type Output = Watts;
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Watts> for f64 {
    type Output = Watts;
    fn mul(self, rhs: Watts) -> Watts {
        Watts(self * rhs.0)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

/// Ratio of two powers is dimensionless.
impl Div<Watts> for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |acc, w| acc + w)
    }
}

impl<'a> Sum<&'a Watts> for Watts {
    fn sum<I: Iterator<Item = &'a Watts>>(iter: I) -> Watts {
        iter.copied().sum()
    }
}

/// A dimensionless fraction, validated to lie in `[0, 1]`.
///
/// Used for utilizations, flex-power ratios, impact values, and
/// affected-rack shares, where an out-of-range value is always a bug.
///
/// ```
/// use flex_power::Fraction;
/// let util = Fraction::new(0.8)?;
/// assert_eq!(util.value(), 0.8);
/// assert!(Fraction::new(1.2).is_err());
/// # Ok::<(), flex_power::PowerError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fraction(f64);

impl Fraction {
    /// The fraction 0.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The fraction 1.
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, validating the range.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::FractionOutOfRange`](crate::PowerError::FractionOutOfRange)
    /// unless `0.0 <= v <= 1.0`.
    pub fn new(v: f64) -> Result<Self, crate::PowerError> {
        if v.is_nan() || !(0.0..=1.0).contains(&v) {
            Err(crate::PowerError::FractionOutOfRange(v))
        } else {
            Ok(Fraction(v))
        }
    }

    /// Creates a fraction, clamping the input into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn clamped(v: f64) -> Self {
        assert!(!v.is_nan(), "fraction must not be NaN");
        Fraction(v.clamp(0.0, 1.0))
    }

    /// Returns the inner value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `1 - self`.
    pub fn complement(self) -> Fraction {
        Fraction(1.0 - self.0)
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl Mul<Watts> for Fraction {
    type Output = Watts;
    fn mul(self, rhs: Watts) -> Watts {
        rhs * self.0
    }
}

impl Mul<Fraction> for Watts {
    type Output = Watts;
    fn mul(self, rhs: Fraction) -> Watts {
        self * rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_construction_and_conversions() {
        assert_eq!(Watts::from_kw(1.5).as_w(), 1_500.0);
        assert_eq!(Watts::from_mw(2.4).as_kw(), 2_400.0);
        assert_eq!(Watts::new(500.0).as_kw(), 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn watts_rejects_nan() {
        let _ = Watts::new(f64::NAN);
    }

    #[test]
    fn watts_arithmetic() {
        let a = Watts::from_kw(10.0);
        let b = Watts::from_kw(4.0);
        assert_eq!((a + b).as_kw(), 14.0);
        assert_eq!((a - b).as_kw(), 6.0);
        assert_eq!((a * 0.5).as_kw(), 5.0);
        assert_eq!((0.5 * a).as_kw(), 5.0);
        assert_eq!((a / 2.0).as_kw(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-b).as_kw(), -4.0);
    }

    #[test]
    fn watts_assign_ops_and_sum() {
        let mut w = Watts::from_kw(1.0);
        w += Watts::from_kw(2.0);
        w -= Watts::from_kw(0.5);
        assert_eq!(w.as_kw(), 2.5);
        let total: Watts = [Watts::from_kw(1.0), Watts::from_kw(2.0)].iter().sum();
        assert_eq!(total.as_kw(), 3.0);
    }

    #[test]
    fn watts_min_max_clamp() {
        let a = Watts::from_kw(3.0);
        let b = Watts::from_kw(7.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!((a - b).clamp_non_negative(), Watts::ZERO);
    }

    #[test]
    fn watts_exceeds_uses_epsilon() {
        let a = Watts::new(1000.0);
        assert!(!Watts::new(1000.0005).exceeds(a));
        assert!(Watts::new(1000.01).exceeds(a));
    }

    #[test]
    fn watts_display_scales() {
        assert_eq!(format!("{}", Watts::new(12.0)), "12.0 W");
        assert_eq!(format!("{}", Watts::from_kw(17.2)), "17.20 kW");
        assert_eq!(format!("{}", Watts::from_mw(9.6)), "9.600 MW");
    }

    #[test]
    fn fraction_validation() {
        assert!(Fraction::new(0.0).is_ok());
        assert!(Fraction::new(1.0).is_ok());
        assert!(Fraction::new(-0.1).is_err());
        assert!(Fraction::new(1.1).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
    }

    #[test]
    fn fraction_clamped_and_complement() {
        assert_eq!(Fraction::clamped(2.0).value(), 1.0);
        assert_eq!(Fraction::clamped(-3.0).value(), 0.0);
        assert_eq!(Fraction::clamped(0.25).complement().value(), 0.75);
    }

    #[test]
    fn fraction_scales_watts() {
        let f = Fraction::new(0.75).unwrap();
        assert_eq!((f * Watts::from_kw(4.0)).as_kw(), 3.0);
        assert_eq!((Watts::from_kw(4.0) * f).as_kw(), 3.0);
    }

    #[test]
    fn fraction_display() {
        assert_eq!(format!("{}", Fraction::new(0.333).unwrap()), "33.3%");
    }
}
