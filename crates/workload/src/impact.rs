//! Impact functions (Section IV-D, Figures 8 and 11).
//!
//! Each workload describes the performance/availability impact it
//! perceives as a function of the fraction of its racks that Flex has
//! acted on (shut down or throttled). Impact 0 means "no perceivable
//! impact"; impact 1 means "these racks are critical — touch them only if
//! absolutely vital for safety". Flex-Online's Algorithm 1 greedily picks
//! the candidate rack whose action keeps total impact lowest.

use flex_power::Fraction;

/// A monotone piecewise-linear map from affected-rack fraction to impact,
/// both in `[0, 1]`.
///
/// ```
/// use flex_workload::impact::ImpactFunction;
/// use flex_power::Fraction;
///
/// // A stateless software-redundant service: the first 60% of racks can
/// // vanish with no impact, then impact grows.
/// let f = ImpactFunction::from_points(vec![
///     (0.0, 0.0),
///     (0.6, 0.0),
///     (1.0, 1.0),
/// ])?;
/// assert_eq!(f.eval(Fraction::new(0.5)?), 0.0);
/// assert!((f.eval(Fraction::new(0.8)?) - 0.5).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactFunction {
    /// (affected fraction, impact) knots; x strictly increasing from 0 to
    /// 1, y non-decreasing within [0, 1].
    points: Vec<(f64, f64)>,
}

impl ImpactFunction {
    /// Builds a function from knots.
    ///
    /// # Errors
    ///
    /// Returns a message if the knots do not start at x = 0, end at x = 1,
    /// have strictly increasing x, or have non-monotone / out-of-range y.
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.len() < 2 {
            return Err("impact function needs at least two knots".into());
        }
        // flex-lint: allow(F1): the contract demands knots at exactly 0 and 1 — exact checks are the point
        if points[0].0 != 0.0 {
            return Err("first knot must be at affected fraction 0".into());
        }
        // flex-lint: allow(F1): see above — the endpoint must be exactly 1
        if points[points.len() - 1].0 != 1.0 {
            return Err("last knot must be at affected fraction 1".into());
        }
        let mut prev = (-f64::EPSILON, -0.0);
        for &(x, y) in &points {
            if !(0.0..=1.0).contains(&x) || !(0.0..=1.0).contains(&y) {
                return Err(format!("knot ({x}, {y}) outside the unit square"));
            }
            if x <= prev.0 && prev.0 >= 0.0 {
                return Err("knot fractions must be strictly increasing".into());
            }
            if y < prev.1 {
                return Err("impact must be non-decreasing".into());
            }
            prev = (x, y);
        }
        Ok(ImpactFunction { points })
    }

    /// The constant-zero function: acting on any share of racks is free
    /// (an aggressively shut-down-able stateless service).
    pub fn zero() -> Self {
        ImpactFunction {
            points: vec![(0.0, 0.0), (1.0, 0.0)],
        }
    }

    /// The knots.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Evaluates the impact at an affected-rack fraction.
    pub fn eval(&self, affected: Fraction) -> f64 {
        let x = affected.value();
        let idx = self.points.partition_point(|&(px, _)| px < x);
        if idx == 0 {
            return self.points[0].1;
        }
        if idx == self.points.len() {
            return self.points[idx - 1].1;
        }
        let (x0, y0) = self.points[idx - 1];
        let (x1, y1) = self.points[idx];
        if x1 == x0 {
            return y1;
        }
        let t = (x - x0) / (x1 - x0);
        y0 + t * (y1 - y0)
    }
}

/// A named pair of impact functions — one for all software-redundant
/// workloads, one for all cap-able workloads — matching how Figure 11
/// presents each scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactScenario {
    /// Scenario name as used in the paper ("Extreme-1", …).
    pub name: String,
    /// Impact of shutting down software-redundant racks.
    pub software_redundant: ImpactFunction,
    /// Impact of throttling non-redundant cap-able racks.
    pub cap_able: ImpactFunction,
}

/// The four evaluation scenarios of Figure 11 plus the Figure 8 examples.
pub mod scenarios {
    use super::{ImpactFunction, ImpactScenario};

    /// Extreme-1: shutting down software-redundant racks is free, while
    /// throttling any cap-able rack is near-critical — the controller
    /// sheds by shutting down as much as possible.
    pub fn extreme_1() -> ImpactScenario {
        ImpactScenario {
            name: "Extreme-1".into(),
            software_redundant: ImpactFunction::zero(),
            cap_able: ImpactFunction::from_points(vec![(0.0, 0.0), (0.01, 0.85), (1.0, 1.0)])
                .expect("static knots"),
        }
    }

    /// Extreme-2: throttling cap-able racks is free, while shutting down
    /// any software-redundant rack is near-critical — the controller
    /// throttles everything before shutting anything down.
    pub fn extreme_2() -> ImpactScenario {
        ImpactScenario {
            name: "Extreme-2".into(),
            software_redundant: ImpactFunction::from_points(vec![
                (0.0, 0.0),
                (0.01, 0.85),
                (1.0, 1.0),
            ])
            .expect("static knots"),
            cap_able: ImpactFunction::zero(),
        }
    }

    /// Realistic-1: shutting down costs less than throttling (a stateful
    /// software-redundant service with a 20% growth buffer and protected
    /// management racks, against a VM fleet with immediate incremental
    /// throttling cost).
    pub fn realistic_1() -> ImpactScenario {
        ImpactScenario {
            name: "Realistic-1".into(),
            software_redundant: ImpactFunction::from_points(vec![
                (0.0, 0.0),
                (0.20, 0.0),
                (0.90, 0.55),
                (0.95, 1.0),
                (1.0, 1.0),
            ])
            .expect("static knots"),
            cap_able: ImpactFunction::from_points(vec![
                (0.0, 0.0),
                (0.05, 0.15),
                (0.90, 0.75),
                (0.95, 1.0),
                (1.0, 1.0),
            ])
            .expect("static knots"),
        }
    }

    /// Realistic-2: throttling costs less than shutting down (shutdowns
    /// carry immediate incremental impact; throttling has a generous
    /// cheap region).
    pub fn realistic_2() -> ImpactScenario {
        ImpactScenario {
            name: "Realistic-2".into(),
            software_redundant: ImpactFunction::from_points(vec![
                (0.0, 0.0),
                (0.05, 0.20),
                (0.80, 0.80),
                (0.90, 1.0),
                (1.0, 1.0),
            ])
            .expect("static knots"),
            cap_able: ImpactFunction::from_points(vec![
                (0.0, 0.0),
                (0.30, 0.05),
                (0.90, 0.45),
                (0.97, 1.0),
                (1.0, 1.0),
            ])
            .expect("static knots"),
        }
    }

    /// All four Figure 11 scenarios in presentation order.
    pub fn all() -> Vec<ImpactScenario> {
        vec![extreme_1(), extreme_2(), realistic_1(), realistic_2()]
    }

    /// Figure 8 (A): a non-redundant cap-able VM service — incremental
    /// impact from throttling any rack, with critical management racks at
    /// the tail.
    pub fn figure8_a() -> ImpactFunction {
        ImpactFunction::from_points(vec![(0.0, 0.0), (0.02, 0.1), (0.93, 0.8), (0.95, 1.0), (1.0, 1.0)])
            .expect("static knots")
    }

    /// Figure 8 (B): a stateless software-redundant workload — a large
    /// share of racks can be shut down with no impact.
    pub fn figure8_b() -> ImpactFunction {
        ImpactFunction::from_points(vec![(0.0, 0.0), (0.70, 0.0), (1.0, 1.0)]).expect("static knots")
    }

    /// Figure 8 (C): a stateful partitioned software-redundant workload —
    /// a growth buffer, incremental useful-work impact, and protected
    /// management racks.
    pub fn figure8_c() -> ImpactFunction {
        ImpactFunction::from_points(vec![
            (0.0, 0.0),
            (0.25, 0.0),
            (0.90, 0.7),
            (0.93, 1.0),
            (1.0, 1.0),
        ])
        .expect("static knots")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_malformed_functions() {
        assert!(ImpactFunction::from_points(vec![(0.0, 0.0)]).is_err());
        assert!(ImpactFunction::from_points(vec![(0.1, 0.0), (1.0, 1.0)]).is_err());
        assert!(ImpactFunction::from_points(vec![(0.0, 0.0), (0.9, 1.0)]).is_err());
        assert!(ImpactFunction::from_points(vec![(0.0, 0.5), (0.5, 0.2), (1.0, 1.0)]).is_err());
        assert!(ImpactFunction::from_points(vec![(0.0, 0.0), (0.5, 1.5), (1.0, 1.0)]).is_err());
        assert!(
            ImpactFunction::from_points(vec![(0.0, 0.0), (0.5, 0.1), (0.5, 0.2), (1.0, 1.0)])
                .is_err()
        );
    }

    #[test]
    fn eval_interpolates_linearly() {
        let f = ImpactFunction::from_points(vec![(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)]).unwrap();
        assert_eq!(f.eval(Fraction::ZERO), 0.0);
        assert!((f.eval(Fraction::new(0.25).unwrap()) - 0.1).abs() < 1e-12);
        assert!((f.eval(Fraction::new(0.75).unwrap()) - 0.6).abs() < 1e-12);
        assert_eq!(f.eval(Fraction::ONE), 1.0);
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(ImpactFunction::zero().eval(Fraction::ZERO), 0.0);
        assert_eq!(ImpactFunction::zero().eval(Fraction::ONE), 0.0);
    }

    #[test]
    fn scenario_preferences_match_figure_11() {
        let s1 = scenarios::extreme_1();
        let s2 = scenarios::extreme_2();
        let half = Fraction::new(0.5).unwrap();
        // Extreme-1 prefers shutting down; Extreme-2 prefers throttling.
        assert!(s1.software_redundant.eval(half) < s1.cap_able.eval(half));
        assert!(s2.cap_able.eval(half) < s2.software_redundant.eval(half));
        // Realistic-1 shuts down more readily than Realistic-2.
        let r1 = scenarios::realistic_1();
        let r2 = scenarios::realistic_2();
        let small = Fraction::new(0.15).unwrap();
        assert!(r1.software_redundant.eval(small) < r2.software_redundant.eval(small));
        assert!(r1.cap_able.eval(small) > r2.cap_able.eval(small));
    }

    #[test]
    fn all_scenarios_have_unique_names() {
        let names: Vec<String> = scenarios::all().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["Extreme-1", "Extreme-2", "Realistic-1", "Realistic-2"]);
    }

    #[test]
    fn monotone_everywhere() {
        for s in scenarios::all() {
            for f in [&s.software_redundant, &s.cap_able] {
                let mut prev = -1.0;
                for i in 0..=100 {
                    let y = f.eval(Fraction::new(i as f64 / 100.0).unwrap());
                    assert!(y >= prev - 1e-12, "{} not monotone", s.name);
                    prev = y;
                }
            }
        }
    }
}
