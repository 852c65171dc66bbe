//! Power oversubscription via statistical multiplexing (Figure 1).
//!
//! The paper positions Flex as *orthogonal* to oversubscription:
//! oversubscription exploits racks' average draw being below their
//! provisioned peak (deploy more servers under the same budget, cap on
//! the rare coincident peak), while Flex exploits the *reserved* power.
//! The two multiply. This module implements the classic
//! statistical-multiplexing sizing: deploy the largest rack count whose
//! aggregate draw exceeds the budget with probability at most ε.

/// Per-rack draw statistics (fractions of provisioned rack power).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OversubscriptionModel {
    /// Mean per-rack utilization.
    pub mean_utilization: f64,
    /// Per-rack utilization standard deviation.
    pub std_utilization: f64,
}

impl OversubscriptionModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mean <= 1` and `std >= 0`.
    pub fn new(mean_utilization: f64, std_utilization: f64) -> Self {
        assert!(
            mean_utilization > 0.0 && mean_utilization <= 1.0 && std_utilization >= 0.0,
            "invalid oversubscription model"
        );
        OversubscriptionModel {
            mean_utilization,
            std_utilization,
        }
    }

    /// The paper's observed regime: peaks of 65–80% with modest per-rack
    /// spread.
    pub fn paper_like() -> Self {
        OversubscriptionModel::new(0.75, 0.08)
    }

    /// Largest number of racks deployable under a budget of
    /// `budget_racks × provisioned rack power` such that
    /// `P(Σ draws > budget) ≤ epsilon` (CLT over independent racks).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 0.5` and `budget_racks > 0`.
    pub fn deployable_racks(&self, budget_racks: usize, epsilon: f64) -> usize {
        assert!(epsilon > 0.0 && epsilon < 0.5, "epsilon out of range");
        assert!(budget_racks > 0, "budget must be positive");
        let z = inverse_normal_cdf(1.0 - epsilon);
        let b = budget_racks as f64;
        let mu = self.mean_utilization;
        let sigma = self.std_utilization;
        // Solve N·μ + z·σ·√N = B for the largest N (quadratic in √N).
        let disc = (z * sigma).powi(2) + 4.0 * mu * b;
        let sqrt_n = (-z * sigma + disc.sqrt()) / (2.0 * mu);
        let n = sqrt_n.powi(2).floor() as usize;
        // A rack draws at most its provisioned power, so never fewer
        // racks than the budget allows at 100% draw.
        n.max(budget_racks)
    }

    /// The oversubscription ratio: deployable racks per budget rack.
    pub fn ratio(&self, budget_racks: usize, epsilon: f64) -> f64 {
        self.deployable_racks(budget_racks, epsilon) as f64 / budget_racks as f64
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over the open unit interval).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability out of range: {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_cdf_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.999) - 3.090232).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.001) + 3.090232).abs() < 1e-4);
    }

    #[test]
    fn oversubscription_exceeds_one_and_shrinks_with_epsilon() {
        let m = OversubscriptionModel::paper_like();
        let loose = m.ratio(600, 1e-2);
        let tight = m.ratio(600, 1e-5);
        assert!(loose > 1.0, "oversubscription must gain capacity: {loose}");
        assert!(tight > 1.0);
        assert!(loose >= tight, "tighter epsilon must deploy fewer racks");
        // At 75% mean utilization the ratio approaches 1/0.75 ≈ 1.33 for
        // large rooms, minus a tail margin.
        assert!(loose < 1.0 / 0.75, "cannot beat the mean bound");
    }

    #[test]
    fn multiplexing_gain_grows_with_room_size() {
        let m = OversubscriptionModel::paper_like();
        let small = m.ratio(20, 1e-4);
        let large = m.ratio(2000, 1e-4);
        assert!(
            large > small,
            "larger populations multiplex better: {small} vs {large}"
        );
    }

    #[test]
    fn zero_variance_gives_exact_mean_bound() {
        let m = OversubscriptionModel::new(0.8, 0.0);
        let ratio = m.ratio(100, 1e-4);
        assert!((ratio - 1.25).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn never_below_nominal() {
        // Full utilization: no oversubscription possible.
        let m = OversubscriptionModel::new(1.0, 0.0);
        assert_eq!(m.deployable_racks(100, 1e-3), 100);
    }
}
