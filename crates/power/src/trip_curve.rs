//! UPS overload tolerance: inverse-time trip curves (the paper's Figure 6).
//!
//! A UPS (with its battery) can sustain load above its rated capacity for a
//! short, load-dependent time before it must disconnect. The paper's
//! devices tolerate the worst-case 4N/3 failover load of 133% for 10
//! seconds at battery end-of-life, followed by 3.5 minutes of ride-through
//! at 100% while generators start. Flex-Online's entire end-to-end latency
//! budget (10 s) comes from this curve.
//!
//! [`TripCurve`] maps a load fraction to a tolerance duration;
//! [`OverloadAccumulator`] integrates time-varying load into a thermal
//! damage fraction and reports when the device trips.

use crate::PowerError;

/// One point of a trip curve: sustaining `load_fraction` (relative to rated
/// capacity, > 1.0) is tolerated for `tolerance_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripPoint {
    /// Load as a fraction of rated capacity; must exceed 1.0.
    pub load_fraction: f64,
    /// Maximum continuous duration at that load, in seconds.
    pub tolerance_secs: f64,
}

/// An inverse-time overload tolerance curve.
///
/// Between points the curve interpolates log-linearly (straight lines on a
/// log-log plot, the standard presentation for overcurrent curves). Loads
/// at or below the first point's fraction are tolerated indefinitely; loads
/// beyond the last point use the last point's tolerance.
///
/// ```
/// use flex_power::trip_curve::TripCurve;
/// let curve = TripCurve::end_of_life();
/// // The paper's headline number: 10 s at the worst-case 133% failover load.
/// let t = curve.tolerance(4.0 / 3.0).expect("133% must be an overload");
/// assert!((t - 10.0).abs() < 0.5, "got {t}");
/// assert!(curve.tolerance(0.99).is_none()); // within rating: no trip
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TripCurve {
    points: Vec<TripPoint>,
    ride_through_secs: f64,
}

impl TripCurve {
    /// Builds a curve from overload points.
    ///
    /// `ride_through_secs` is the additional battery ride-through available
    /// at rated (100%) load while generators start (3.5 min in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyTripCurve`] with no points, or
    /// [`PowerError::UnsortedTripCurve`] if load fractions are not strictly
    /// increasing, start at or below 1.0, or tolerances are not strictly
    /// decreasing and positive.
    pub fn new(points: Vec<TripPoint>, ride_through_secs: f64) -> Result<Self, PowerError> {
        if points.is_empty() {
            return Err(PowerError::EmptyTripCurve);
        }
        let mut prev_load = 1.0;
        let mut prev_tol = f64::INFINITY;
        for p in &points {
            if p.load_fraction <= prev_load || p.tolerance_secs <= 0.0 || p.tolerance_secs >= prev_tol
            {
                return Err(PowerError::UnsortedTripCurve);
            }
            prev_load = p.load_fraction;
            prev_tol = p.tolerance_secs;
        }
        Ok(TripCurve {
            points,
            ride_through_secs,
        })
    }

    /// The end-of-battery-life curve from Figure 6: 10 s at the 133%
    /// worst-case failover load, shrinking sharply for deeper overloads.
    pub fn end_of_life() -> Self {
        TripCurve::new(
            vec![
                TripPoint { load_fraction: 1.02, tolerance_secs: 600.0 },
                TripPoint { load_fraction: 1.10, tolerance_secs: 90.0 },
                TripPoint { load_fraction: 1.20, tolerance_secs: 28.0 },
                TripPoint { load_fraction: 4.0 / 3.0, tolerance_secs: 10.0 },
                TripPoint { load_fraction: 1.50, tolerance_secs: 3.0 },
                TripPoint { load_fraction: 2.00, tolerance_secs: 0.5 },
            ],
            210.0, // 3.5 minutes of ride-through at rated load
        )
        // flex-lint: allow(P1): compile-time-constant curve, validity covered by unit tests
        .expect("static end-of-life curve is well-formed")
    }

    /// The beginning-of-battery-life curve: same shape, roughly 3× the
    /// tolerance at every load (fresh batteries sustain overload longer).
    pub fn beginning_of_life() -> Self {
        let eol = TripCurve::end_of_life();
        TripCurve::new(
            eol.points
                .iter()
                .map(|p| TripPoint {
                    load_fraction: p.load_fraction,
                    tolerance_secs: p.tolerance_secs * 3.0,
                })
                .collect(),
            eol.ride_through_secs,
        )
        // flex-lint: allow(P1): positive scaling of a valid curve keeps every invariant
        .expect("scaled curve preserves ordering")
    }

    /// Interpolates between beginning- and end-of-life curves by battery
    /// age in `[0, 1]` (0 = fresh). Tolerances interpolate geometrically.
    ///
    /// # Panics
    ///
    /// Panics if `age` is NaN or outside `[0, 1]`.
    pub fn at_battery_age(age: f64) -> Self {
        assert!((0.0..=1.0).contains(&age), "battery age must be in [0,1]");
        let bol = TripCurve::beginning_of_life();
        let eol = TripCurve::end_of_life();
        let points = bol
            .points
            .iter()
            .zip(&eol.points)
            .map(|(b, e)| TripPoint {
                load_fraction: b.load_fraction,
                tolerance_secs: b.tolerance_secs.powf(1.0 - age) * e.tolerance_secs.powf(age),
            })
            .collect();
        TripCurve::new(points, eol.ride_through_secs)
            // flex-lint: allow(P1): geometric interpolation of two valid curves keeps every invariant
            .expect("interpolation preserves ordering")
    }

    /// The curve's overload points, ascending by load.
    pub fn points(&self) -> &[TripPoint] {
        &self.points
    }

    /// Ride-through time at rated load while generators start, in seconds.
    pub fn ride_through_secs(&self) -> f64 {
        self.ride_through_secs
    }

    /// The load fraction below which overload never trips the device.
    pub fn trip_threshold(&self) -> f64 {
        // `TripCurve::new` rejects empty curves; degrade to "never
        // trips" rather than panic if that ever breaks.
        self.points.first().map_or(f64::INFINITY, |p| p.load_fraction)
    }

    /// Tolerance (seconds) for sustaining `load_fraction`, or `None` when
    /// the load is at or below the trip threshold (tolerated indefinitely).
    ///
    /// # Panics
    ///
    /// Panics if `load_fraction` is negative or NaN.
    pub fn tolerance(&self, load_fraction: f64) -> Option<f64> {
        assert!(
            load_fraction >= 0.0 && !load_fraction.is_nan(),
            "load fraction must be non-negative"
        );
        if load_fraction <= self.trip_threshold() {
            return None;
        }
        // `TripCurve::new` rejects empty curves, so `last` always exists;
        // degrade to "never trips" rather than panic if that ever breaks.
        let Some(last) = self.points.last() else {
            return None;
        };
        if load_fraction >= last.load_fraction {
            return Some(last.tolerance_secs);
        }
        // Find the surrounding points and interpolate on log-log axes.
        // The threshold and last-point checks above guarantee the
        // partition point is interior; degrade to the endpoint
        // tolerance rather than panic if that ever breaks.
        let idx = self
            .points
            .partition_point(|p| p.load_fraction < load_fraction);
        let (Some(lo), Some(hi)) = (self.points.get(idx.wrapping_sub(1)), self.points.get(idx))
        else {
            return Some(last.tolerance_secs);
        };
        let t = (load_fraction.ln() - lo.load_fraction.ln())
            / (hi.load_fraction.ln() - lo.load_fraction.ln());
        Some((lo.tolerance_secs.ln() * (1.0 - t) + hi.tolerance_secs.ln() * t).exp())
    }
}

impl Default for TripCurve {
    /// Defaults to the conservative end-of-life curve, which is what Flex
    /// must design for.
    fn default() -> Self {
        TripCurve::end_of_life()
    }
}

/// Integrates time-varying load into thermal "damage"; the device trips
/// when accumulated damage reaches 1.0.
///
/// Damage accrues at rate `1 / tolerance(load)` while overloaded — so a
/// constant overload trips after exactly its curve tolerance — and decays
/// linearly over `recovery_secs` once the load returns to the tolerated
/// region, modelling battery/thermal recovery.
///
/// ```
/// use flex_power::trip_curve::{TripCurve, OverloadAccumulator};
/// let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
/// // 6 s at 133% consumes 60% of the 10 s budget: not tripped yet.
/// acc.advance(6.0, 4.0 / 3.0);
/// assert!(!acc.is_tripped());
/// // Another 5 s pushes past the limit.
/// acc.advance(5.0, 4.0 / 3.0);
/// assert!(acc.is_tripped());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadAccumulator {
    curve: TripCurve,
    recovery_secs: f64,
    damage: f64,
    tripped: bool,
    elapsed: f64,
    overload_started: Option<f64>,
    trip_overload_secs: Option<f64>,
}

impl OverloadAccumulator {
    /// Creates an accumulator over the given curve; `recovery_secs` is the
    /// time to fully shed accumulated damage at tolerable load.
    ///
    /// # Panics
    ///
    /// Panics if `recovery_secs <= 0`.
    pub fn new(curve: TripCurve, recovery_secs: f64) -> Self {
        assert!(recovery_secs > 0.0, "recovery time must be positive");
        OverloadAccumulator {
            curve,
            recovery_secs,
            damage: 0.0,
            tripped: false,
            elapsed: 0.0,
            overload_started: None,
            trip_overload_secs: None,
        }
    }

    /// Advances simulated time by `dt_secs` with the device carrying
    /// `load_fraction` of rated capacity. Returns `true` if the device is
    /// tripped after this step. Once tripped, the state latches.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` is negative or NaN.
    pub fn advance(&mut self, dt_secs: f64, load_fraction: f64) -> bool {
        assert!(dt_secs >= 0.0 && !dt_secs.is_nan(), "dt must be non-negative");
        if self.tripped {
            self.elapsed += dt_secs;
            return true;
        }
        match self.curve.tolerance(load_fraction) {
            Some(tol) => {
                if self.overload_started.is_none() {
                    self.overload_started = Some(self.elapsed);
                }
                self.damage += dt_secs / tol;
            }
            None => {
                self.damage = (self.damage - dt_secs / self.recovery_secs).max(0.0);
                if self.damage <= 0.0 {
                    self.overload_started = None;
                }
            }
        }
        self.elapsed += dt_secs;
        // Trip epsilon absorbs float error from log-log interpolation, so a
        // constant overload trips after exactly its curve tolerance.
        if self.damage >= 1.0 - 1e-9 {
            self.tripped = true;
            self.trip_overload_secs = self
                .overload_started
                .map(|s| (self.elapsed - s).max(0.0));
        }
        self.tripped
    }

    /// Accumulated damage fraction in `[0, 1]`.
    pub fn damage(&self) -> f64 {
        self.damage.min(1.0)
    }

    /// Whether the device has tripped (latching).
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Remaining trip-budget margin in `[0, 1]`: `1 − damage`. A healthy
    /// device sits at 1.0 and a tripped one at 0.0; observability gauges
    /// export this per UPS so a dump shows how close each survivor came
    /// to cascading.
    pub fn margin(&self) -> f64 {
        (1.0 - self.damage).clamp(0.0, 1.0)
    }

    /// Remaining time (seconds) at a constant `load_fraction` before the
    /// device trips; `None` if that load is tolerated indefinitely.
    pub fn time_to_trip(&self, load_fraction: f64) -> Option<f64> {
        if self.tripped {
            return Some(0.0);
        }
        self.curve
            .tolerance(load_fraction)
            .map(|tol| (1.0 - self.damage) * tol)
    }

    /// The curve this accumulator integrates against.
    pub fn curve(&self) -> &TripCurve {
        &self.curve
    }

    /// Total simulated time this accumulator has integrated (seconds since
    /// construction or the last [`reset`](Self::reset)).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed
    }

    /// Length of the contiguous damage-carrying window that ended in a
    /// trip: seconds from the moment damage last started accruing from
    /// zero to the trip instant. `None` while the device has not tripped.
    ///
    /// A safety oracle uses this to ask "was telemetry dark for the whole
    /// window the device spent dying?" without replaying load history.
    pub fn trip_overload_secs(&self) -> Option<f64> {
        self.trip_overload_secs
    }

    /// Resets damage and the tripped latch (device replaced/serviced).
    pub fn reset(&mut self) {
        self.damage = 0.0;
        self.tripped = false;
        self.elapsed = 0.0;
        self.overload_started = None;
        self.trip_overload_secs = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_match_figure_6() {
        let eol = TripCurve::end_of_life();
        assert!((eol.tolerance(4.0 / 3.0).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(eol.ride_through_secs(), 210.0);
        let bol = TripCurve::beginning_of_life();
        assert!((bol.tolerance(4.0 / 3.0).unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn tolerance_is_monotone_decreasing() {
        let c = TripCurve::end_of_life();
        let mut prev = f64::INFINITY;
        let mut load = c.trip_threshold() + 0.001;
        while load < 2.2 {
            let t = c.tolerance(load).unwrap();
            assert!(t <= prev + 1e-12, "tolerance must not increase with load");
            prev = t;
            load += 0.01;
        }
    }

    #[test]
    fn within_rating_never_trips() {
        let c = TripCurve::end_of_life();
        assert!(c.tolerance(0.0).is_none());
        assert!(c.tolerance(1.0).is_none());
        assert!(c.tolerance(c.trip_threshold()).is_none());
    }

    #[test]
    fn beyond_last_point_clamps() {
        let c = TripCurve::end_of_life();
        assert_eq!(c.tolerance(5.0), c.tolerance(2.0));
    }

    #[test]
    fn battery_age_interpolates_between_curves() {
        let mid = TripCurve::at_battery_age(0.5);
        let t = mid.tolerance(4.0 / 3.0).unwrap();
        assert!(t > 10.0 && t < 30.0, "got {t}");
        let fresh = TripCurve::at_battery_age(0.0);
        assert!((fresh.tolerance(1.2).unwrap()
            - TripCurve::beginning_of_life().tolerance(1.2).unwrap())
        .abs()
            < 1e-9);
    }

    #[test]
    #[should_panic(expected = "battery age")]
    fn battery_age_out_of_range_panics() {
        let _ = TripCurve::at_battery_age(1.5);
    }

    #[test]
    fn validation_rejects_malformed_curves() {
        assert_eq!(TripCurve::new(vec![], 0.0), Err(PowerError::EmptyTripCurve));
        // Starts at 1.0 (not > 1.0).
        assert!(TripCurve::new(
            vec![TripPoint { load_fraction: 1.0, tolerance_secs: 5.0 }],
            0.0
        )
        .is_err());
        // Non-increasing loads.
        assert!(TripCurve::new(
            vec![
                TripPoint { load_fraction: 1.2, tolerance_secs: 10.0 },
                TripPoint { load_fraction: 1.1, tolerance_secs: 5.0 },
            ],
            0.0
        )
        .is_err());
        // Non-decreasing tolerance.
        assert!(TripCurve::new(
            vec![
                TripPoint { load_fraction: 1.1, tolerance_secs: 5.0 },
                TripPoint { load_fraction: 1.2, tolerance_secs: 7.0 },
            ],
            0.0
        )
        .is_err());
    }

    #[test]
    fn accumulator_trips_at_curve_tolerance() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        // Step in 1 s increments at 133%: trips at the 10th second.
        for step in 1..=9 {
            assert!(!acc.advance(1.0, 4.0 / 3.0), "tripped early at {step} s");
        }
        assert!(acc.advance(1.0, 4.0 / 3.0));
        assert!(acc.is_tripped());
        assert_eq!(acc.time_to_trip(1.5), Some(0.0));
    }

    #[test]
    fn accumulator_recovers_when_load_drops() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 10.0);
        acc.advance(5.0, 4.0 / 3.0); // 50% damage
        assert!((acc.damage() - 0.5).abs() < 1e-9);
        acc.advance(5.0, 0.9); // recover half of full scale
        assert!(acc.damage() < 0.01);
        assert!(!acc.is_tripped());
    }

    #[test]
    fn accumulator_latches_and_resets() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        acc.advance(20.0, 4.0 / 3.0);
        assert!(acc.is_tripped());
        // Low load does not untrip.
        assert!(acc.advance(100.0, 0.5));
        acc.reset();
        assert!(!acc.is_tripped());
        assert_eq!(acc.damage(), 0.0);
    }

    #[test]
    fn margin_mirrors_damage() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        assert_eq!(acc.margin(), 1.0);
        acc.advance(5.0, 4.0 / 3.0);
        assert!((acc.margin() - 0.5).abs() < 1e-9);
        acc.advance(20.0, 4.0 / 3.0);
        assert!(acc.is_tripped());
        assert_eq!(acc.margin(), 0.0);
    }

    #[test]
    fn time_to_trip_scales_with_damage() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        let full = acc.time_to_trip(4.0 / 3.0).unwrap();
        assert!((full - 10.0).abs() < 1e-9);
        acc.advance(5.0, 4.0 / 3.0);
        let half = acc.time_to_trip(4.0 / 3.0).unwrap();
        assert!((half - 5.0).abs() < 1e-9);
        assert!(acc.time_to_trip(0.8).is_none());
    }

    #[test]
    fn trip_window_accounting_tracks_contiguous_overload() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        assert_eq!(acc.trip_overload_secs(), None);
        // 30 s of healthy load, then a fatal 133% overload.
        acc.advance(30.0, 0.8);
        for _ in 0..10 {
            acc.advance(1.0, 4.0 / 3.0);
        }
        assert!(acc.is_tripped());
        assert!((acc.elapsed_secs() - 40.0).abs() < 1e-9);
        let window = acc.trip_overload_secs().unwrap();
        assert!((window - 10.0).abs() < 1e-9, "got {window}");
    }

    #[test]
    fn trip_window_restarts_after_full_recovery() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 5.0);
        // Brief overload, then full recovery: the window pointer resets.
        acc.advance(2.0, 4.0 / 3.0); // 20% damage
        acc.advance(10.0, 0.5); // decays to zero
        assert!((acc.damage() - 0.0).abs() < 1e-12);
        acc.advance(100.0, 0.5);
        for _ in 0..10 {
            acc.advance(1.0, 4.0 / 3.0);
        }
        assert!(acc.is_tripped());
        // Window covers only the second overload episode, not the first.
        let window = acc.trip_overload_secs().unwrap();
        assert!((window - 10.0).abs() < 1e-9, "got {window}");
    }

    #[test]
    fn reset_clears_trip_accounting() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        acc.advance(20.0, 4.0 / 3.0);
        assert!(acc.trip_overload_secs().is_some());
        acc.reset();
        assert_eq!(acc.trip_overload_secs(), None);
        assert_eq!(acc.elapsed_secs(), 0.0);
    }

    #[test]
    fn mixed_overload_levels_accumulate_proportionally() {
        let mut acc = OverloadAccumulator::new(TripCurve::end_of_life(), 60.0);
        // 5 s at 133% (50% of budget) + remaining budget at 150% (3 s curve):
        acc.advance(5.0, 4.0 / 3.0);
        assert!(!acc.advance(1.0, 1.5)); // ~83% damage
        assert!(acc.advance(0.6, 1.5)); // crosses 100%
    }
}
