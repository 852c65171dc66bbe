//! Differentiated pricing (Section VI, "Financial incentives for lower
//! availability workloads").
//!
//! Flex's savings can be passed to customers whose workloads accept
//! corrective actions. The paper is developing "new charge models that
//! incentivize workloads with relaxed performance and availability
//! requirements"; this module implements the natural one: discount each
//! category by the expected value of what it gives up, bounded by the
//! construction savings Flex realizes per deployed watt.

use flex_workload::WorkloadCategory;

use crate::feasibility::FeasibilityModel;

/// A charge model over workload categories.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeModel {
    /// Baseline price per provisioned watt-month for full-availability
    /// (non-cap-able) capacity.
    pub base_price_per_watt_month: f64,
    /// Fraction of the Flex construction savings shared with customers
    /// (the provider keeps the rest).
    pub savings_pass_through: f64,
    /// Extra discount per unit of *expected throttling impact* for
    /// cap-able workloads (compensates the rare p95 inflation).
    pub throttling_compensation: f64,
    /// Extra discount per unit of *expected unavailability* for
    /// software-redundant workloads (compensates rare shutdowns),
    /// expressed per nine below five nines.
    pub availability_compensation_per_nine: f64,
    /// The feasibility model supplying the event probabilities.
    pub feasibility: FeasibilityModel,
}

impl ChargeModel {
    /// A model with the paper's feasibility inputs, a $0.20/W-month base
    /// price, and a 50% savings pass-through.
    pub fn paper_like() -> Self {
        ChargeModel {
            base_price_per_watt_month: 0.20,
            savings_pass_through: 0.5,
            throttling_compensation: 0.02,
            availability_compensation_per_nine: 0.05,
            feasibility: FeasibilityModel::paper(),
        }
    }

    /// The price multiplier (≤ 1) for a workload category.
    ///
    /// Non-cap-able workloads pay full price: they receive five-nines
    /// infrastructure and are never touched. Cap-able workloads get the
    /// shared-savings discount plus throttling compensation.
    /// Software-redundant workloads additionally get availability
    /// compensation for the nines they give up.
    pub fn price_multiplier(&self, category: WorkloadCategory) -> f64 {
        // The 33% extra servers reduce the provider's per-watt capital
        // cost by 1 − 3/4 = 25% on a 4N/3 design; pass a share through to
        // the categories that make it possible.
        let shared_savings = 0.25 * self.savings_pass_through;
        match category {
            WorkloadCategory::NonCapAble => 1.0,
            WorkloadCategory::CapAble => {
                // Expected throttling impact: P(corrective action) ×
                // a ~12% average reduction while engaged.
                let expected_impact = self.feasibility.action_fraction() * 0.12;
                (1.0 - shared_savings
                    - self.throttling_compensation
                    - expected_impact)
                    .max(0.0)
            }
            WorkloadCategory::SoftwareRedundant => {
                let nines =
                    FeasibilityModel::nines(self.feasibility.software_redundant_availability());
                let nines_given_up = (5.0 - nines).max(0.0);
                (1.0 - shared_savings
                    - self.availability_compensation_per_nine * nines_given_up)
                    .max(0.0)
            }
        }
    }

    /// Price per provisioned watt-month for a category.
    pub fn price_per_watt_month(&self, category: WorkloadCategory) -> f64 {
        self.base_price_per_watt_month * self.price_multiplier(category)
    }

    /// Provider revenue per watt-month for a given category mix,
    /// relative to a conventional room: Flex hosts `1 + extra` watts of
    /// demand on the same site, at discounted prices.
    ///
    /// # Panics
    ///
    /// Panics unless `mix` sums to ~1.
    pub fn relative_revenue(&self, mix: [f64; 3], extra_capacity_fraction: f64) -> f64 {
        let sum: f64 = mix.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "mix must sum to 1");
        let blended: f64 = WorkloadCategory::ALL
            .iter()
            .zip(mix)
            .map(|(&c, share)| share * self.price_multiplier(c))
            .sum();
        blended * (1.0 + extra_capacity_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_ordering_matches_what_customers_give_up() {
        let m = ChargeModel::paper_like();
        let non = m.price_multiplier(WorkloadCategory::NonCapAble);
        let cap = m.price_multiplier(WorkloadCategory::CapAble);
        let sr = m.price_multiplier(WorkloadCategory::SoftwareRedundant);
        assert_eq!(non, 1.0);
        assert!(cap < non, "cap-able must be discounted");
        assert!(sr < non, "software-redundant must be discounted");
        // All still meaningful prices.
        assert!(cap > 0.5 && sr > 0.5, "cap {cap}, sr {sr}");
    }

    #[test]
    fn discounts_are_dominated_by_shared_savings_not_impact() {
        // Corrective actions are so rare (§III) that the impact term is
        // tiny; the discount is mostly the capital-savings share.
        let m = ChargeModel::paper_like();
        let cap = m.price_multiplier(WorkloadCategory::CapAble);
        let shared = 0.25 * m.savings_pass_through;
        assert!((1.0 - cap - shared).abs() < 0.05, "cap multiplier {cap}");
    }

    #[test]
    fn flex_revenue_beats_conventional_despite_discounts() {
        // The paper's pitch: +33% sellable capacity outweighs the
        // discounts needed to attract flexible workloads.
        let m = ChargeModel::paper_like();
        let revenue = m.relative_revenue([0.13, 0.56, 0.31], 1.0 / 3.0);
        assert!(
            revenue > 1.0,
            "relative revenue {revenue} must exceed conventional"
        );
    }

    #[test]
    fn price_per_watt_month_scales_base() {
        let m = ChargeModel::paper_like();
        let p = m.price_per_watt_month(WorkloadCategory::NonCapAble);
        assert!((p - 0.20).abs() < 1e-12);
        assert!(m.price_per_watt_month(WorkloadCategory::CapAble) < p);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn mix_validation() {
        let m = ChargeModel::paper_like();
        let _ = m.relative_revenue([0.5, 0.5, 0.5], 0.33);
    }
}
