//! Short-term demand trace generation (Section V-A methodology).
//!
//! The paper drives its placement simulator with traces of deployment
//! requests representative of Microsoft's production growth: dominated by
//! 20-rack deployments with a few 10s and 5s, 14.4–17.2 kW racks, a
//! 13% / 56% / 31% category mix, flex power at 75–85% of the rack
//! allocation, and total demand 15% above the room's provisioned power (so
//! the placement policy has slack to choose from; overflow routes to other
//! rooms).

use flex_power::{Fraction, Watts};
use flex_sim::dist::{Sample, Uniform, WeightedChoice};
use rand::Rng;

use crate::{DeploymentId, DeploymentRequest, WorkloadCategory};

/// Parameters of the demand generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Generate deployments until their total power reaches this.
    pub target_power: Watts,
    /// Deployment sizes (racks) with weights.
    pub deployment_sizes: Vec<(usize, f64)>,
    /// Per-rack power options with weights.
    pub rack_powers: Vec<(Watts, f64)>,
    /// Power-weighted category mix (software-redundant, cap-able,
    /// non-cap-able); must sum to ~1.
    pub category_mix: [f64; 3],
    /// Flex-power fraction range for cap-able deployments.
    pub flex_fraction_range: (f64, f64),
}

impl TraceConfig {
    /// The paper's Microsoft-like defaults for a room with the given
    /// provisioned power: demand = 115% of provisioned, 20-rack-dominated
    /// sizes, 14.4/17.2 kW racks, 13/56/31 mix, flex 0.75–0.85.
    pub fn microsoft(provisioned_power: Watts) -> Self {
        TraceConfig {
            target_power: provisioned_power * 1.15,
            deployment_sizes: vec![(20, 0.70), (10, 0.20), (5, 0.10)],
            rack_powers: vec![(Watts::from_kw(14.4), 0.5), (Watts::from_kw(17.2), 0.5)],
            category_mix: [0.13, 0.56, 0.31],
            flex_fraction_range: (0.75, 0.85),
        }
    }

    /// Same defaults but with a different category mix (used by the
    /// software-redundant sensitivity sweep).
    ///
    /// # Panics
    ///
    /// Panics unless the mix entries are non-negative and sum to ~1.
    pub fn with_category_mix(mut self, mix: [f64; 3]) -> Self {
        let sum: f64 = mix.iter().sum();
        assert!(
            mix.iter().all(|&m| m >= 0.0) && (sum - 1.0).abs() < 1e-6,
            "category mix must be a distribution, got {mix:?}"
        );
        self.category_mix = mix;
        self
    }
}

/// A generated demand trace: an ordered list of deployment requests.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTrace {
    deployments: Vec<DeploymentRequest>,
}

impl DemandTrace {
    /// Wraps an explicit list of deployments (ids are renumbered to match
    /// their position).
    pub fn from_deployments(deployments: Vec<DeploymentRequest>) -> Self {
        let deployments = deployments
            .into_iter()
            .enumerate()
            .map(|(i, d)| d.with_id(DeploymentId(i)))
            .collect();
        DemandTrace { deployments }
    }

    /// The requests, in arrival order.
    pub fn deployments(&self) -> &[DeploymentRequest] {
        &self.deployments
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.deployments.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.deployments.is_empty()
    }

    /// Total requested power.
    pub fn total_power(&self) -> Watts {
        self.deployments.iter().map(|d| d.total_power()).sum()
    }

    /// A shuffled copy with renumbered ids (the paper evaluates 10 random
    /// orderings of each trace).
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> DemandTrace {
        let mut deployments = self.deployments.clone();
        // Fisher–Yates.
        for i in (1..deployments.len()).rev() {
            let j = rng.gen_range(0..=i);
            deployments.swap(i, j);
        }
        DemandTrace::from_deployments(deployments)
    }

    /// A copy in which every deployment is split into chunks of at most
    /// `max_racks` racks (the deployment-size sensitivity study).
    ///
    /// # Panics
    ///
    /// Panics if `max_racks == 0`.
    pub fn split_max_racks(&self, max_racks: usize) -> DemandTrace {
        let deployments = self
            .deployments
            .iter()
            .flat_map(|d| d.split_max_racks(max_racks))
            .collect();
        DemandTrace::from_deployments(deployments)
    }
}

/// Generates demand traces from a [`TraceConfig`].
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(config: TraceConfig) -> Self {
        TraceGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generates one trace: deployments are appended until the total
    /// power reaches the target. The *power-weighted* category shares
    /// converge to the configured mix.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> DemandTrace {
        let sizes = WeightedChoice::new(self.config.deployment_sizes.clone())
            .expect("config has at least one deployment size");
        let powers = WeightedChoice::new(self.config.rack_powers.clone())
            .expect("config has at least one rack power");
        let flex = Uniform::new(
            self.config.flex_fraction_range.0,
            self.config.flex_fraction_range.1.max(
                self.config.flex_fraction_range.0 + 1e-9,
            ),
        );
        let mix = &self.config.category_mix;

        let mut deployments: Vec<DeploymentRequest> = Vec::new();
        let mut total = Watts::ZERO;
        // Track accumulated power per category to steer toward the mix
        // (deficit sampling converges much faster than i.i.d. draws).
        let mut acc = [Watts::ZERO; 3];
        let mut counter = 0usize;
        while total < self.config.target_power {
            let cat_idx = {
                // Choose the category with the largest deficit vs its
                // target share, dithered by the RNG among near-ties.
                let grand = total.as_w().max(1.0);
                let mut deficits: Vec<(usize, f64)> = (0..3)
                    .filter(|&i| mix[i] > 0.0)
                    .map(|i| (i, mix[i] - acc[i].as_w() / grand))
                    .collect();
                deficits.sort_by(|a, b| b.1.total_cmp(&a.1));
                if deficits.len() > 1 && (deficits[0].1 - deficits[1].1).abs() < 0.01 {
                    deficits[rng.gen_range(0..2)].0
                } else {
                    deficits[0].0
                }
            };
            let category = WorkloadCategory::ALL[cat_idx];
            let racks = *sizes.choose(rng);
            let per_rack = *powers.choose(rng);
            let flex_fraction = match category {
                WorkloadCategory::CapAble => Some(Fraction::clamped(flex.sample(rng))),
                _ => None,
            };
            let d = DeploymentRequest::new(
                DeploymentId(counter),
                format!("{}-{counter}", category.label()),
                category,
                racks,
                per_rack,
                flex_fraction,
            )
            .expect("generator parameters are valid");
            total += d.total_power();
            acc[cat_idx] += d.total_power();
            deployments.push(d);
            counter += 1;
        }
        DemandTrace { deployments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn microsoft_trace(seed: u64) -> DemandTrace {
        let config = TraceConfig::microsoft(Watts::from_mw(9.6));
        let mut rng = SmallRng::seed_from_u64(seed);
        TraceGenerator::new(config).generate(&mut rng)
    }

    /// Total requested power for one category.
    fn category_power(t: &DemandTrace, category: WorkloadCategory) -> Watts {
        t.deployments()
            .iter()
            .filter(|d| d.category() == category)
            .map(|d| d.total_power())
            .sum()
    }

    #[test]
    fn trace_reaches_target_power() {
        let t = microsoft_trace(1);
        let target = Watts::from_mw(9.6) * 1.15;
        assert!(t.total_power() >= target);
        // Overshoot bounded by one max deployment (20 × 17.2 kW).
        assert!(t.total_power() < target + Watts::from_kw(344.0));
    }

    #[test]
    fn category_mix_approximates_configuration() {
        let t = microsoft_trace(2);
        let total = t.total_power();
        let sr = category_power(&t, WorkloadCategory::SoftwareRedundant) / total;
        let cap = category_power(&t, WorkloadCategory::CapAble) / total;
        let non = category_power(&t, WorkloadCategory::NonCapAble) / total;
        assert!((sr - 0.13).abs() < 0.04, "SR share {sr}");
        assert!((cap - 0.56).abs() < 0.04, "cap share {cap}");
        assert!((non - 0.31).abs() < 0.04, "non share {non}");
    }

    #[test]
    fn deployment_sizes_match_distribution() {
        let t = microsoft_trace(3);
        let twenties = t.deployments().iter().filter(|d| d.racks() == 20).count();
        assert!(
            twenties * 2 > t.len(),
            "20-rack deployments should dominate ({twenties}/{})",
            t.len()
        );
        assert!(t
            .deployments()
            .iter()
            .all(|d| [5, 10, 20].contains(&d.racks())));
    }

    #[test]
    fn flex_fractions_in_configured_range() {
        let t = microsoft_trace(4);
        for d in t.deployments() {
            match d.category() {
                WorkloadCategory::CapAble => {
                    let f = d.flex_fraction().value();
                    assert!((0.75..=0.85).contains(&f), "flex {f}");
                }
                WorkloadCategory::SoftwareRedundant => {
                    assert_eq!(d.flex_fraction().value(), 0.0)
                }
                WorkloadCategory::NonCapAble => assert_eq!(d.flex_fraction().value(), 1.0),
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(microsoft_trace(5), microsoft_trace(5));
        assert_ne!(microsoft_trace(5), microsoft_trace(6));
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let t = microsoft_trace(7);
        let mut rng = SmallRng::seed_from_u64(99);
        let s = t.shuffled(&mut rng);
        assert_eq!(t.len(), s.len());
        assert!(t.total_power().approx_eq(s.total_power(), 1e-6));
        // Ids renumbered to position.
        for (i, d) in s.deployments().iter().enumerate() {
            assert_eq!(d.id(), DeploymentId(i));
        }
        // Same multiset of (racks, power) pairs.
        let key = |tr: &DemandTrace| {
            let mut v: Vec<(usize, u64)> = tr
                .deployments()
                .iter()
                .map(|d| (d.racks(), d.power_per_rack().as_w() as u64))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&t), key(&s));
    }

    #[test]
    fn split_max_racks_caps_sizes() {
        let t = microsoft_trace(8);
        let s = t.split_max_racks(10);
        assert!(s.deployments().iter().all(|d| d.racks() <= 10));
        assert!(t.total_power().approx_eq(s.total_power(), 1e-6));
        assert!(s.len() > t.len());
    }

    #[test]
    fn zero_sr_mix_generates_no_sr() {
        let config = TraceConfig::microsoft(Watts::from_mw(9.6))
            .with_category_mix([0.0, 0.69, 0.31]);
        let mut rng = SmallRng::seed_from_u64(11);
        let t = TraceGenerator::new(config).generate(&mut rng);
        assert_eq!(
            category_power(&t, WorkloadCategory::SoftwareRedundant),
            Watts::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "distribution")]
    fn bad_mix_panics() {
        let _ = TraceConfig::microsoft(Watts::from_mw(9.6)).with_category_mix([0.5, 0.5, 0.5]);
    }
}
