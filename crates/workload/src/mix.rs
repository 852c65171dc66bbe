//! The Figure 3 workload-category mix across Microsoft regions.
//!
//! The paper reports (without exact per-region numbers) that across four
//! regions a significant share of deployed capacity is software-redundant
//! or cap-able, averaging 13% / 56% / 31%. These synthesized per-region
//! shares reproduce that average and the qualitative spread.

use flex_power::Fraction;

use crate::WorkloadCategory;

/// Category shares of one region's deployed capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMix {
    /// Region label.
    pub region: String,
    /// Power shares for (software-redundant, cap-able, non-cap-able);
    /// sums to 1.
    pub shares: [f64; 3],
}

impl RegionMix {
    /// Creates a region mix.
    ///
    /// # Panics
    ///
    /// Panics unless the shares are non-negative and sum to ~1.
    pub fn new(region: impl Into<String>, shares: [f64; 3]) -> Self {
        let sum: f64 = shares.iter().sum();
        assert!(
            shares.iter().all(|&s| s >= 0.0) && (sum - 1.0).abs() < 1e-9,
            "shares must form a distribution"
        );
        RegionMix {
            region: region.into(),
            shares,
        }
    }

    /// The share for one category.
    pub fn share(&self, category: WorkloadCategory) -> Fraction {
        let idx = WorkloadCategory::ALL
            .iter()
            .position(|&c| c == category)
            .expect("category is one of the three");
        Fraction::clamped(self.shares[idx])
    }
}

/// The four-region dataset behind Figure 3 (synthesized to the paper's
/// stated 13% / 56% / 31% average).
pub fn microsoft_regions() -> Vec<RegionMix> {
    vec![
        RegionMix::new("Region-1", [0.10, 0.60, 0.30]),
        RegionMix::new("Region-2", [0.18, 0.50, 0.32]),
        RegionMix::new("Region-3", [0.08, 0.62, 0.30]),
        RegionMix::new("Region-4", [0.16, 0.52, 0.32]),
    ]
}

/// The capacity-weighted average mix across regions (equal region sizes).
pub fn average_mix(regions: &[RegionMix]) -> [f64; 3] {
    let mut avg = [0.0; 3];
    for r in regions {
        for (a, s) in avg.iter_mut().zip(&r.shares) {
            *a += s / regions.len() as f64;
        }
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_matches_paper() {
        let avg = average_mix(&microsoft_regions());
        assert!((avg[0] - 0.13).abs() < 1e-9, "SR avg {}", avg[0]);
        assert!((avg[1] - 0.56).abs() < 1e-9, "cap avg {}", avg[1]);
        assert!((avg[2] - 0.31).abs() < 1e-9, "non avg {}", avg[2]);
    }

    #[test]
    fn shares_are_distributions() {
        for r in microsoft_regions() {
            let sum: f64 = r.shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} shares sum to {sum}", r.region);
        }
    }

    #[test]
    fn share_lookup_by_category() {
        let r = &microsoft_regions()[0];
        assert_eq!(r.share(WorkloadCategory::SoftwareRedundant).value(), 0.10);
        assert_eq!(r.share(WorkloadCategory::CapAble).value(), 0.60);
        assert_eq!(r.share(WorkloadCategory::NonCapAble).value(), 0.30);
    }

    #[test]
    fn actionable_capacity_is_majority_everywhere() {
        // The observation Flex relies on: most capacity tolerates actions.
        for r in microsoft_regions() {
            let actionable = r.shares[0] + r.shares[1];
            assert!(actionable > 0.6, "{}: {actionable}", r.region);
        }
    }

    #[test]
    #[should_panic(expected = "distribution")]
    fn bad_shares_panic() {
        let _ = RegionMix::new("bad", [0.5, 0.5, 0.5]);
    }
}
