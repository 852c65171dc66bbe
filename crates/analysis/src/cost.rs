//! Construction-cost savings of zero-reserved-power datacenters
//! (Section I: "$211M ($5/W) to $422M ($10/W) for each 128 MW site").

use flex_power::Watts;

/// Cost model for a multi-datacenter site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// IT capacity of the site under the conventional (reserved-power)
    /// policy — the paper's 128 MW.
    pub site_allocated: Watts,
    /// Construction cost per watt of provisioned IT capacity.
    pub cost_per_watt: f64,
    /// The `x` of the xN/(x−1) redundancy design (4 in the paper).
    pub ups_redundancy_x: usize,
    /// Extra infrastructure cost of the Flex upgrades (larger batteries,
    /// higher-rated upstream devices) as a fraction of the unlocked
    /// capacity's cost (~3% per Section VI).
    pub upgrade_cost_fraction: f64,
    /// Median stranded-power fraction of the placement policy in use
    /// (reduces the effectively usable extra capacity).
    pub stranded_fraction: f64,
}

impl CostModel {
    /// The paper's headline configuration at a given $/W.
    ///
    /// # Panics
    ///
    /// Panics if `cost_per_watt <= 0`.
    pub fn paper_site(cost_per_watt: f64) -> Self {
        assert!(cost_per_watt > 0.0, "cost must be positive");
        CostModel {
            site_allocated: Watts::from_mw(128.0),
            cost_per_watt,
            ups_redundancy_x: 4,
            upgrade_cost_fraction: 0.0,
            stranded_fraction: 0.0,
        }
    }

    /// The fraction of additional servers Flex unlocks: `x/(x−1) − 1`
    /// (33% for 4N/3).
    pub fn extra_server_fraction(&self) -> f64 {
        let x = self.ups_redundancy_x as f64;
        x / (x - 1.0) - 1.0
    }

    /// Additional IT capacity enabled by allocating the reserve,
    /// discounted by stranding.
    pub fn extra_capacity(&self) -> Watts {
        self.site_allocated * self.extra_server_fraction() * (1.0 - self.stranded_fraction)
    }

    /// Construction cost avoided: the capacity that no longer needs a
    /// new site, minus the Flex infrastructure upgrades.
    pub fn construction_savings(&self) -> f64 {
        let gross = self.extra_capacity().as_w() * self.cost_per_watt;
        gross * (1.0 - self.upgrade_cost_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers() {
        // $5/W → ~$211M; $10/W → ~$422M (idealized: no stranding, no
        // upgrade cost, as in the paper's headline arithmetic).
        let low = CostModel::paper_site(5.0).construction_savings();
        let high = CostModel::paper_site(10.0).construction_savings();
        assert!(
            (low - 211e6).abs() < 3e6,
            "at $5/W expected ≈ $211M, got ${:.0}M",
            low / 1e6
        );
        assert!(
            (high - 422e6).abs() < 6e6,
            "at $10/W expected ≈ $422M, got ${:.0}M",
            high / 1e6
        );
    }

    #[test]
    fn extra_fraction_by_design() {
        let mut m = CostModel::paper_site(5.0);
        assert!((m.extra_server_fraction() - 1.0 / 3.0).abs() < 1e-12);
        m.ups_redundancy_x = 5; // 5N/4
        assert!((m.extra_server_fraction() - 0.25).abs() < 1e-12);
        m.ups_redundancy_x = 2; // 2N
        assert!((m.extra_server_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stranding_and_upgrades_discount_savings() {
        let ideal = CostModel::paper_site(5.0);
        let realistic = CostModel {
            stranded_fraction: 0.04,
            upgrade_cost_fraction: 0.03,
            ..ideal
        };
        let s = realistic.construction_savings();
        assert!(s < ideal.construction_savings());
        // Still hundreds of millions.
        assert!(s > 150e6, "savings ${:.0}M", s / 1e6);
    }
}
