//! Section III: joint probability of maintenance and high utilization.
//!
//! Inputs are the paper's production observations: unplanned maintenance
//! that takes out a power supply averages 1 hour/year, planned
//! maintenance 40 hours/year (schedulable into the 6–12-hour nightly and
//! weekend utilization dips of 15–19%), and peak utilizations of 65–80%
//! of the non-reserve provisioned power.

use flex_workload::power_model::DiurnalProfile;
use rand::Rng;

const HOURS_PER_YEAR: f64 = 8_760.0;

/// Closed-form feasibility model.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityModel {
    /// Unplanned supply-loss downtime, hours per year (paper: 1).
    pub unplanned_hours_per_year: f64,
    /// Planned supply-loss maintenance, hours per year (paper: 40).
    pub planned_hours_per_year: f64,
    /// Weekly utilization profile (fraction of the *full* provisioned
    /// power in a zero-reserved room).
    pub profile: DiurnalProfile,
    /// Utilization above which a failover needs corrective action: the
    /// failover budget fraction, (x−1)/x minus the safety buffer
    /// (≈ 0.74 for 4N/3 with a 2% buffer, matching the paper's "no
    /// actions below 74%").
    pub action_threshold: f64,
    /// Utilization above which throttling alone cannot shave the
    /// overdraw and software-redundant shutdowns start (depends on the
    /// flex-power mix; ≈ 0.78 for the Microsoft mix).
    pub shutdown_threshold: f64,
}

impl FeasibilityModel {
    /// The paper's configuration.
    pub fn paper() -> Self {
        FeasibilityModel {
            unplanned_hours_per_year: 1.0,
            planned_hours_per_year: 40.0,
            // Peaks at the top of the paper's 65–80% range so the rare
            // shutdown-needing regime is reachable.
            profile: DiurnalProfile::new(0.80, 0.17),
            action_threshold: 0.74,
            shutdown_threshold: 0.76,
        }
    }

    /// Fraction of the week during which utilization exceeds `threshold`.
    pub fn time_fraction_above(&self, threshold: f64) -> f64 {
        let mut above = 0.0;
        let step = 0.05;
        let mut h = 0.0;
        while h < 168.0 {
            if self.profile.utilization_at(h).value() > threshold {
                above += step;
            }
            h += step;
        }
        above / 168.0
    }

    /// Probability that, at any instant, the room is in unplanned
    /// maintenance (a supply is out).
    pub fn unplanned_fraction(&self) -> f64 {
        self.unplanned_hours_per_year / HOURS_PER_YEAR
    }

    /// Fraction of time the room needs *any* corrective action:
    /// unplanned downtime coinciding with utilization above the action
    /// threshold. Planned maintenance is excluded — it is scheduled into
    /// the utilization dips.
    pub fn action_fraction(&self) -> f64 {
        self.unplanned_fraction() * self.time_fraction_above(self.action_threshold)
    }

    /// "Nines" of operation without corrective actions. The paper
    /// conservatively quotes ≥ 4 nines (even charging the entire
    /// unplanned hour): this model reports the joint probability.
    pub fn no_action_availability(&self) -> f64 {
        1.0 - self.action_fraction()
    }

    /// Probability that a software-redundant server is shut down at any
    /// instant: unplanned downtime × time above the shutdown threshold.
    /// The paper reports ≈ 0.005%.
    pub fn shutdown_probability(&self) -> f64 {
        self.unplanned_fraction() * self.time_fraction_above(self.shutdown_threshold)
    }

    /// Availability of software-redundant servers (shutdown is their
    /// only unavailability source attributable to Flex).
    pub fn software_redundant_availability(&self) -> f64 {
        1.0 - self.shutdown_probability()
    }

    /// Converts an availability into "nines".
    pub fn nines(availability: f64) -> f64 {
        -(1.0 - availability).log10()
    }
}

/// Result of a Monte-Carlo year simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct YearSimResult {
    /// Simulated hours.
    pub hours: f64,
    /// Hours with a supply out *and* utilization above the action
    /// threshold (Flex-Online engaged).
    pub action_hours: f64,
    /// Hours with a supply out and utilization above the shutdown
    /// threshold (software-redundant racks off).
    pub shutdown_hours: f64,
    /// Hours of unplanned downtime drawn.
    pub unplanned_hours: f64,
    /// Hours of planned maintenance performed (all scheduled into dips).
    pub planned_hours: f64,
}

impl YearSimResult {
    /// Fraction of time needing corrective action.
    pub fn action_fraction(&self) -> f64 {
        self.action_hours / self.hours
    }

    /// Fraction of time with software-redundant shutdowns.
    pub fn shutdown_fraction(&self) -> f64 {
        self.shutdown_hours / self.hours
    }
}

/// Simulates `years` of operation in 0.1 h steps: unplanned outages
/// arrive as a Poisson process (exponential gaps) with ~1 h exponential
/// repair; planned maintenance consumes its annual budget during
/// low-utilization hours only. Utilization follows the weekly profile
/// with small Gaussian wiggle.
pub fn simulate_years<R: Rng + ?Sized>(
    model: &FeasibilityModel,
    years: usize,
    rng: &mut R,
) -> YearSimResult {
    use flex_sim::dist::{Exponential, Normal, Sample};

    let step_h = 0.1;
    let total_hours = years as f64 * HOURS_PER_YEAR;
    let gap_dist = Exponential::from_mean(HOURS_PER_YEAR / model.unplanned_hours_per_year.max(1e-9));
    let repair_dist = Exponential::from_mean(1.0);
    let wiggle = Normal::new(0.0, 0.01);

    let mut result = YearSimResult {
        hours: total_hours,
        ..YearSimResult::default()
    };
    let mut next_failure = gap_dist.sample(rng);
    let mut outage_until = -1.0_f64;
    let mut planned_budget = model.planned_hours_per_year * years as f64;

    let mut t = 0.0;
    while t < total_hours {
        let hour_of_week = t % 168.0;
        let util = (model.profile.utilization_at(hour_of_week).value()
            + wiggle.sample(rng))
        .clamp(0.0, 1.0);

        // Unplanned outage process.
        if t >= next_failure && t >= outage_until {
            let repair = repair_dist.sample(rng).max(step_h);
            outage_until = t + repair;
            result.unplanned_hours += repair;
            next_failure = t + gap_dist.sample(rng);
        }
        let supply_out_unplanned = t < outage_until;

        // Planned maintenance: only in deep dips, never overlapping an
        // unplanned outage.
        let mut supply_out_planned = false;
        if !supply_out_unplanned
            && planned_budget > 0.0
            && util < model.action_threshold - 0.08
        {
            supply_out_planned = true;
            planned_budget -= step_h;
            result.planned_hours += step_h;
        }

        if supply_out_unplanned || supply_out_planned {
            if util > model.action_threshold {
                result.action_hours += step_h;
            }
            if util > model.shutdown_threshold {
                result.shutdown_hours += step_h;
            }
        }
        t += step_h;
    }
    result
}

/// SplitMix64 finalizer: decorrelates per-year RNG streams.
fn year_seed(root_seed: u64, year: u64) -> u64 {
    let mut z = root_seed ^ year.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parallel Monte-Carlo: simulates `years` *independent* one-year
/// replications of [`simulate_years`] across up to `threads` worker
/// threads and sums the results in year order.
///
/// Each year draws from its own RNG stream derived only from
/// `(root_seed, year index)`, and the accumulation order is fixed, so
/// the result is **bit-identical for any `threads` value** — the thread
/// count affects wall-clock time only. (Unlike one long sequential run,
/// outage state does not carry across year boundaries; for rare-event
/// tails over hundreds of years the estimators agree statistically.)
pub fn simulate_years_parallel(
    model: &FeasibilityModel,
    years: usize,
    root_seed: u64,
    threads: usize,
) -> YearSimResult {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = threads.max(1).min(years.max(1));
    let run_year = |y: usize| {
        let mut rng = SmallRng::seed_from_u64(year_seed(root_seed, y as u64));
        simulate_years(model, 1, &mut rng)
    };

    let mut per_year: Vec<YearSimResult> = Vec::with_capacity(years);
    if threads == 1 {
        per_year.extend((0..years).map(run_year));
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<parking_lot::Mutex<YearSimResult>> =
            (0..years).map(|_| parking_lot::Mutex::new(YearSimResult::default())).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|_| loop {
                    let y = next.fetch_add(1, Ordering::Relaxed);
                    if y >= years {
                        break;
                    }
                    *slots[y].lock() = run_year(y);
                });
            }
        })
        .expect("year-replication worker panicked");
        per_year.extend(slots.into_iter().map(|s| s.into_inner()));
    }

    // Fold in year order: f64 addition is not associative, and a fixed
    // order is what makes the result independent of scheduling.
    let mut total = YearSimResult::default();
    for r in per_year {
        total.hours += r.hours;
        total.action_hours += r.action_hours;
        total.shutdown_hours += r.shutdown_hours;
        total.unplanned_hours += r.unplanned_hours;
        total.planned_hours += r.planned_hours;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_availability_is_at_least_four_nines() {
        let m = FeasibilityModel::paper();
        let avail = m.no_action_availability();
        assert!(
            FeasibilityModel::nines(avail) >= 4.0,
            "availability {avail} has {} nines",
            FeasibilityModel::nines(avail)
        );
    }

    #[test]
    fn shutdown_probability_near_paper_value() {
        let m = FeasibilityModel::paper();
        let p = m.shutdown_probability();
        // Paper: roughly 0.005% = 5e-5. Accept the same order of
        // magnitude.
        assert!(p < 2e-4, "shutdown probability {p}");
        assert!(p > 0.0, "some peak hours must exceed the threshold");
        assert!(FeasibilityModel::nines(m.software_redundant_availability()) >= 4.0);
    }

    #[test]
    fn time_fractions_are_monotone_in_threshold() {
        let m = FeasibilityModel::paper();
        let a = m.time_fraction_above(0.60);
        let b = m.time_fraction_above(0.70);
        let c = m.time_fraction_above(0.74);
        assert!(a >= b && b >= c, "{a} {b} {c}");
        assert_eq!(m.time_fraction_above(0.99), 0.0);
        assert!((m.time_fraction_above(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let m = FeasibilityModel::paper();
        let mut rng = SmallRng::seed_from_u64(42);
        let result = simulate_years(&m, 500, &mut rng);
        // Unplanned downtime drawn ≈ 1 h/yr.
        let drawn = result.unplanned_hours / 500.0;
        assert!((0.5..2.0).contains(&drawn), "unplanned {drawn} h/yr");
        // Action fraction within a factor of a few of the closed form
        // (it is a rare-event estimate).
        let analytic = m.action_fraction();
        let simulated = result.action_fraction();
        assert!(
            simulated <= analytic * 5.0 + 1e-6,
            "simulated {simulated} vs analytic {analytic}"
        );
        // Planned maintenance fits entirely into the dips.
        assert!(
            (result.planned_hours / 500.0 - 40.0).abs() < 1.0,
            "planned {} h/yr",
            result.planned_hours / 500.0
        );
        // Shutdowns are rarer than actions.
        assert!(result.shutdown_hours <= result.action_hours);
    }

    #[test]
    fn parallel_monte_carlo_is_thread_count_invariant() {
        let m = FeasibilityModel::paper();
        let a = simulate_years_parallel(&m, 40, 42, 1);
        let b = simulate_years_parallel(&m, 40, 42, 4);
        assert_eq!(a, b, "thread count must not change the result");
    }

    #[test]
    fn parallel_monte_carlo_statistics_match_sequential() {
        let m = FeasibilityModel::paper();
        let result = simulate_years_parallel(&m, 300, 7, 4);
        assert!((result.hours - 300.0 * HOURS_PER_YEAR).abs() < 1e-6);
        let drawn = result.unplanned_hours / 300.0;
        assert!((0.5..2.0).contains(&drawn), "unplanned {drawn} h/yr");
        assert!(
            (result.planned_hours / 300.0 - 40.0).abs() < 1.0,
            "planned {} h/yr",
            result.planned_hours / 300.0
        );
        assert!(result.shutdown_hours <= result.action_hours);
    }

    #[test]
    fn nines_helper() {
        assert!((FeasibilityModel::nines(0.999) - 3.0).abs() < 1e-9);
        assert!((FeasibilityModel::nines(0.9999) - 4.0).abs() < 1e-9);
    }
}
