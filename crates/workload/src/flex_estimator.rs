//! Flex-power estimation for external workloads (Section IV-B).
//!
//! For provider-owned cap-able workloads the flex power comes from
//! offline experiments. For *external* cap-able workloads (e.g. IaaS
//! VMs), the paper instead uses **historical rack power utilization
//! coupled with statistical multiplexing**: choose the lowest cap such
//! that, at high utilization (when Flex-Online may actually engage), the
//! *average* power reduction across the affected racks stays within an
//! acceptable threshold (10–15%). No knowledge of individual customer
//! workloads is needed — only historical rack power profiles — and the
//! impact spreads across the room rather than hitting one customer.

use flex_power::{Fraction, Watts};

/// A historical rack power profile: samples of one rack's draw as
/// fractions of its provisioned power.
#[derive(Debug, Clone, PartialEq)]
pub struct RackProfile {
    samples: Vec<f64>,
}

impl RackProfile {
    /// Wraps utilization samples (each in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if any sample is outside `[0, 1]` or the set is empty.
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "profile needs samples");
        assert!(
            samples.iter().all(|s| (0.0..=1.0).contains(s)),
            "samples must be fractions of provisioned power"
        );
        RackProfile { samples }
    }

    /// The samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean utilization.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Average power lost if this rack were capped at `cap` (fraction of
    /// provisioned), relative to provisioned power.
    fn mean_reduction_at(&self, cap: f64) -> f64 {
        self.samples
            .iter()
            .map(|&s| (s - cap).max(0.0))
            .sum::<f64>()
            / self.samples.len() as f64
    }
}

/// Estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlexEstimatorConfig {
    /// Acceptable average power reduction across the rack population at
    /// engagement time, as a fraction of the racks' *drawn* power
    /// (paper: 10–15%).
    pub max_average_reduction: f64,
    /// Only samples at or above this utilization count — Flex-Online
    /// engages only when the room runs hot, so the cap must be judged
    /// against high-utilization conditions.
    pub engagement_utilization: f64,
    /// Floor for the returned flex fraction (a cap below the racks' idle
    /// power would be meaningless).
    pub min_flex_fraction: f64,
}

impl Default for FlexEstimatorConfig {
    fn default() -> Self {
        FlexEstimatorConfig {
            max_average_reduction: 0.12,
            engagement_utilization: 0.70,
            min_flex_fraction: 0.40,
        }
    }
}

/// Estimates the flex-power fraction for a population of external racks:
/// the **lowest** cap whose average power reduction (over
/// high-utilization samples, pooled across all racks — the statistical
/// multiplexing) stays within the configured threshold.
///
/// Returns the flex fraction and the expected average reduction at that
/// cap.
///
/// # Panics
///
/// Panics if `profiles` is empty.
///
/// ```
/// use flex_workload::flex_estimator::{estimate_flex_fraction, FlexEstimatorConfig, RackProfile};
///
/// // Racks that mostly sit near 75% with occasional 95% peaks.
/// let profiles: Vec<RackProfile> = (0..20)
///     .map(|i| RackProfile::new(vec![0.72, 0.75, 0.78, if i % 4 == 0 { 0.95 } else { 0.80 }]))
///     .collect();
/// let (flex, reduction) = estimate_flex_fraction(&profiles, &FlexEstimatorConfig::default());
/// assert!(flex.value() < 1.0, "some headroom must be shaveable");
/// assert!(reduction <= 0.12 + 1e-9);
/// ```
pub fn estimate_flex_fraction(
    profiles: &[RackProfile],
    config: &FlexEstimatorConfig,
) -> (Fraction, f64) {
    assert!(!profiles.is_empty(), "need at least one rack profile");
    // Pool the high-utilization samples across the population.
    let pooled: Vec<f64> = profiles
        .iter()
        .flat_map(|p| p.samples().iter().copied())
        .filter(|&s| s >= config.engagement_utilization)
        .collect();
    let pooled = if pooled.is_empty() {
        // Never runs hot: fall back to all samples.
        profiles
            .iter()
            .flat_map(|p| p.samples().iter().copied())
            .collect()
    } else {
        pooled
    };
    let pool_profile = RackProfile::new(pooled);
    let mean_draw = pool_profile.mean().max(1e-6);

    // Binary search the lowest cap with acceptable average reduction
    // (mean reduction is monotone non-increasing in the cap).
    let mut lo = config.min_flex_fraction;
    let mut hi = 1.0;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let reduction = pool_profile.mean_reduction_at(mid) / mean_draw;
        if reduction <= config.max_average_reduction {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let flex = Fraction::clamped(hi);
    let achieved = pool_profile.mean_reduction_at(hi) / mean_draw;
    (flex, achieved)
}

/// Generates synthetic historical profiles from a rack power model (for
/// experiments without production data).
pub fn synthetic_profiles<R: rand::Rng + ?Sized>(
    racks: usize,
    samples_per_rack: usize,
    mean_utilization: f64,
    rng: &mut R,
) -> Vec<RackProfile> {
    use flex_sim::dist::{Sample, TruncatedNormal};
    let dist = TruncatedNormal::new(mean_utilization, 0.08, 0.3, 1.0);
    (0..racks)
        .map(|_| {
            RackProfile::new(
                (0..samples_per_rack)
                    .map(|_| dist.sample(rng).clamp(0.0, 1.0))
                    .collect(),
            )
        })
        .collect()
}

/// Converts a flex fraction into the per-rack flex power for a given
/// provisioned rack power.
pub fn flex_power_for(provisioned: Watts, flex: Fraction) -> Watts {
    provisioned * flex
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn profile_validation() {
        assert!(std::panic::catch_unwind(|| RackProfile::new(vec![])).is_err());
        assert!(std::panic::catch_unwind(|| RackProfile::new(vec![1.5])).is_err());
        let p = RackProfile::new(vec![0.5, 0.7]);
        assert!((p.mean() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn lower_threshold_gives_higher_cap() {
        let mut rng = SmallRng::seed_from_u64(1);
        let profiles = synthetic_profiles(50, 200, 0.78, &mut rng);
        let strict = FlexEstimatorConfig {
            max_average_reduction: 0.05,
            ..FlexEstimatorConfig::default()
        };
        let loose = FlexEstimatorConfig {
            max_average_reduction: 0.15,
            ..FlexEstimatorConfig::default()
        };
        let (f_strict, r_strict) = estimate_flex_fraction(&profiles, &strict);
        let (f_loose, r_loose) = estimate_flex_fraction(&profiles, &loose);
        assert!(
            f_strict.value() >= f_loose.value(),
            "stricter impact budget must cap less aggressively"
        );
        assert!(r_strict <= 0.05 + 1e-6);
        assert!(r_loose <= 0.15 + 1e-6);
    }

    #[test]
    fn estimate_lands_in_papers_range() {
        // The paper uses 75–85% flex fractions with a 10–15% impact
        // budget; synthetic profiles around 78% utilization should land
        // in that neighborhood.
        let mut rng = SmallRng::seed_from_u64(2);
        let profiles = synthetic_profiles(100, 500, 0.78, &mut rng);
        let (flex, reduction) = estimate_flex_fraction(&profiles, &FlexEstimatorConfig::default());
        assert!(
            (0.6..0.95).contains(&flex.value()),
            "flex fraction {} out of plausible range",
            flex.value()
        );
        assert!(reduction <= 0.12 + 1e-6);
    }

    #[test]
    fn cold_population_falls_back_to_all_samples() {
        // Racks that never reach the engagement utilization.
        let profiles = vec![RackProfile::new(vec![0.35, 0.40, 0.45]); 5];
        let (flex, _) = estimate_flex_fraction(&profiles, &FlexEstimatorConfig::default());
        // Cap can be low — nothing ever draws much.
        assert!(flex.value() <= 0.6);
    }

    #[test]
    fn flex_power_conversion() {
        let w = flex_power_for(Watts::from_kw(17.2), Fraction::clamped(0.8));
        assert!(w.approx_eq(Watts::from_kw(13.76), 1e-6));
    }
}
