//! Tail-latency model for the latency-sensitive (TPC-E-like) workload
//! under power capping.

/// DVFS-style slowdown model.
///
/// Rack power is `idle + (1 − idle) × work` of provisioned; capping the
/// rack at a `cap` fraction of provisioned power limits the deliverable
/// work rate to `(cap − idle)/(1 − idle)`. When offered work exceeds
/// that, service slows proportionally and the 95th-percentile latency
/// inflates by the same factor — a small effect for flex powers of
/// 75–85%, matching the paper's +4.7% average / +14% worst-case.
///
/// ```
/// use flex_emulation::LatencyModel;
/// let m = LatencyModel::default();
/// // Uncapped: base latency.
/// assert_eq!(m.p95_ms(0.8, 1.0), m.base_p95_ms);
/// // A rack demanding 95% of provisioned, capped at 85%: modest
/// // inflation.
/// let inflated = m.p95_ms(0.95, 0.85);
/// assert!(inflated > m.base_p95_ms);
/// assert!(inflated < m.base_p95_ms * 1.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Baseline p95 latency in milliseconds.
    pub base_p95_ms: f64,
    /// Idle power as a fraction of provisioned rack power.
    pub idle_fraction: f64,
}

impl LatencyModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= idle_fraction < 1` and `base_p95_ms > 0`.
    pub fn new(base_p95_ms: f64, idle_fraction: f64) -> Self {
        assert!(
            base_p95_ms > 0.0 && (0.0..1.0).contains(&idle_fraction),
            "invalid latency model"
        );
        LatencyModel {
            base_p95_ms,
            idle_fraction,
        }
    }

    /// The work rate (0..1) deliverable at a given power fraction.
    fn work_capacity(&self, power_fraction: f64) -> f64 {
        ((power_fraction - self.idle_fraction) / (1.0 - self.idle_fraction)).max(0.01)
    }

    /// p95 latency when the rack *demands* `demand_fraction` of its
    /// provisioned power but is capped at `cap_fraction` (1.0 =
    /// uncapped).
    ///
    /// # Panics
    ///
    /// Panics if the fractions are not in `[0, 1.0001]`.
    pub fn p95_ms(&self, demand_fraction: f64, cap_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0001).contains(&demand_fraction) && (0.0..=1.0001).contains(&cap_fraction),
            "fractions out of range"
        );
        let offered = self.work_capacity(demand_fraction.max(self.idle_fraction));
        let capacity = self.work_capacity(cap_fraction.max(self.idle_fraction));
        if offered <= capacity {
            self.base_p95_ms
        } else {
            self.base_p95_ms * (offered / capacity)
        }
    }

    /// Relative p95 inflation versus uncapped operation.
    pub fn inflation(&self, demand_fraction: f64, cap_fraction: f64) -> f64 {
        self.p95_ms(demand_fraction, cap_fraction) / self.base_p95_ms - 1.0
    }
}

impl Default for LatencyModel {
    /// 50 ms base p95 with a 30% idle floor (matching the rack power
    /// model).
    fn default() -> Self {
        LatencyModel::new(50.0, 0.30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_is_baseline() {
        let m = LatencyModel::default();
        for demand in [0.3, 0.5, 0.8, 1.0] {
            assert_eq!(m.p95_ms(demand, 1.0), 50.0);
        }
    }

    #[test]
    fn cap_below_demand_inflates() {
        let m = LatencyModel::default();
        assert!(m.inflation(0.95, 0.85) > 0.0);
        assert_eq!(m.inflation(0.80, 0.85), 0.0, "non-binding cap is free");
        // Paper's worst case: highest-draw racks see ~14%.
        let worst = m.inflation(0.95, 0.85);
        assert!(
            (0.05..0.40).contains(&worst),
            "worst-case inflation {worst}"
        );
    }

    #[test]
    fn inflation_monotone_in_demand_and_cap() {
        let m = LatencyModel::default();
        assert!(m.inflation(0.95, 0.85) > m.inflation(0.90, 0.85));
        assert!(m.inflation(0.95, 0.80) > m.inflation(0.95, 0.85));
    }

    #[test]
    fn average_inflation_is_small_for_85_percent_flex() {
        // Across a realistic demand spread at 80% mean, the average
        // inflation is a few percent — the paper's 4.7% regime.
        let m = LatencyModel::default();
        let demands = [0.70, 0.75, 0.78, 0.80, 0.82, 0.85, 0.88, 0.92, 0.95];
        let mean: f64 = demands.iter().map(|&d| m.inflation(d, 0.85)).sum::<f64>()
            / demands.len() as f64;
        assert!((0.005..0.10).contains(&mean), "mean inflation {mean}");
    }

    #[test]
    #[should_panic(expected = "invalid latency model")]
    fn validation() {
        let _ = LatencyModel::new(0.0, 0.3);
    }
}
