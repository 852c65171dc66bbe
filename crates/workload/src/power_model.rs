//! Stochastic rack power draws and diurnal room utilization.
//!
//! Stands in for the paper's "historical rack power draws of these
//! workloads in our datacenters": a truncated-normal per-rack draw around
//! a utilization setpoint, plus a weekly diurnal profile with the 15–19%
//! night/weekend dip reported in Section III.

use flex_power::{Fraction, Watts};
use flex_sim::dist::{Sample, TruncatedNormal};
use rand::Rng;

/// Per-rack power draw model: each rack draws a truncated-normal fraction
/// of its provisioned power, centered on the room's utilization setpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPowerModel {
    /// Standard deviation of the per-rack utilization fraction.
    rel_std: f64,
    /// Floor of the per-rack utilization fraction (idle power).
    min_fraction: f64,
}

impl RackPowerModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= min_fraction < 1` and `rel_std >= 0`.
    pub fn new(rel_std: f64, min_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&min_fraction) && rel_std >= 0.0,
            "invalid rack power model parameters"
        );
        RackPowerModel {
            rel_std,
            min_fraction,
        }
    }

    /// Defaults calibrated to the paper's setting: ±8% per-rack spread and
    /// a 30% idle floor.
    pub fn default_microsoft() -> Self {
        RackPowerModel::new(0.08, 0.30)
    }

    /// Samples one rack's draw around the utilization setpoint.
    pub fn sample_rack<R: Rng + ?Sized>(
        &self,
        provisioned: Watts,
        utilization: Fraction,
        rng: &mut R,
    ) -> Watts {
        let dist = TruncatedNormal::new(
            utilization.value().max(self.min_fraction),
            self.rel_std,
            self.min_fraction,
            1.0,
        );
        provisioned * dist.sample(rng)
    }

    /// Samples a whole room's rack draws, then rescales them (respecting
    /// each rack's provisioned ceiling and the idle floor) so the room
    /// total lands on `utilization × Σ provisioned` — the paper's Figure
    /// 12 sweeps the room's *actual* utilization at failover time, which
    /// requires hitting the setpoint exactly.
    pub fn sample_room_at_utilization<R: Rng + ?Sized>(
        &self,
        provisioned: &[Watts],
        utilization: Fraction,
        rng: &mut R,
    ) -> Vec<Watts> {
        let mut draws: Vec<Watts> = provisioned
            .iter()
            .map(|&p| self.sample_rack(p, utilization, rng))
            .collect();
        let target: Watts = provisioned.iter().copied().sum::<Watts>() * utilization;
        // Iterative proportional fitting against the per-rack box bounds.
        for _ in 0..32 {
            let total: Watts = draws.iter().copied().sum();
            // flex-lint: allow(F1): exact-zero guard before dividing by `total`
            if total.approx_eq(target, 1.0) || total.as_w() == 0.0 {
                break;
            }
            let scale = target / total;
            for (d, &p) in draws.iter_mut().zip(provisioned) {
                let floor = p * self.min_fraction;
                *d = (*d * scale).min(p).max(floor);
            }
        }
        draws
    }
}

impl Default for RackPowerModel {
    fn default() -> Self {
        RackPowerModel::default_microsoft()
    }
}

/// Weekly utilization profile: weekday peaks with a night dip, flat
/// weekends at the dipped level (Section III: utilizations are 15–19%
/// lower at night and on weekends, for 6–12 hours at a stretch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Weekday afternoon peak utilization (fraction of provisioned).
    peak: f64,
    /// Absolute dip below the peak at night/weekends (e.g. 0.17 ≈ the
    /// paper's 15–19%).
    dip: f64,
}

impl DiurnalProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < peak <= 1` and `0 <= dip < peak`.
    pub fn new(peak: f64, dip: f64) -> Self {
        assert!(
            peak > 0.0 && peak <= 1.0 && dip >= 0.0 && dip < peak,
            "invalid diurnal profile"
        );
        DiurnalProfile { peak, dip }
    }

    /// The paper's observed range: peaks of 65–80%; this default uses a
    /// 75% peak with a 17% dip.
    pub fn default_microsoft() -> Self {
        DiurnalProfile::new(0.75, 0.17)
    }

    /// The weekday peak utilization.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Utilization at an hour of the week (0 = Monday 00:00; valid for
    /// any non-negative hour, wrapping each 168 h).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn utilization_at(&self, hour_of_week: f64) -> Fraction {
        assert!(
            hour_of_week.is_finite() && hour_of_week >= 0.0,
            "hour must be non-negative"
        );
        let h = hour_of_week % 168.0;
        let day = (h / 24.0) as u32;
        let hour = h % 24.0;
        let u = if day >= 5 {
            // Weekend: flat at the dipped level.
            self.peak - self.dip
        } else {
            // Weekday: cosine between 3 AM trough and 3 PM peak.
            let phase = (hour - 15.0) / 24.0 * std::f64::consts::TAU;
            self.peak - self.dip * 0.5 * (1.0 - phase.cos())
        };
        Fraction::clamped(u)
    }
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        DiurnalProfile::default_microsoft()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rack_samples_respect_bounds() {
        let model = RackPowerModel::default_microsoft();
        let mut rng = SmallRng::seed_from_u64(1);
        let p = Watts::from_kw(17.2);
        for _ in 0..1000 {
            let d = model.sample_rack(p, Fraction::new(0.8).unwrap(), &mut rng);
            assert!(d >= p * 0.30 - Watts::new(1e-9));
            assert!(d <= p + Watts::new(1e-9));
        }
    }

    #[test]
    fn room_sampling_hits_target_utilization() {
        let model = RackPowerModel::default_microsoft();
        let mut rng = SmallRng::seed_from_u64(2);
        let provisioned: Vec<Watts> = (0..300)
            .map(|i| Watts::from_kw(if i % 2 == 0 { 14.4 } else { 17.2 }))
            .collect();
        let total: Watts = provisioned.iter().copied().sum();
        for util in [0.5, 0.74, 0.80, 0.85] {
            let draws =
                model.sample_room_at_utilization(&provisioned, Fraction::new(util).unwrap(), &mut rng);
            let sum: Watts = draws.iter().copied().sum();
            let achieved = sum / total;
            assert!(
                (achieved - util).abs() < 0.005,
                "target {util}, achieved {achieved}"
            );
            for (d, &p) in draws.iter().zip(&provisioned) {
                assert!(*d <= p + Watts::new(1e-6));
                assert!(*d >= p * 0.30 - Watts::new(1e-6));
            }
        }
    }

    #[test]
    fn room_sampling_has_per_rack_variance() {
        let model = RackPowerModel::default_microsoft();
        let mut rng = SmallRng::seed_from_u64(3);
        let provisioned = vec![Watts::from_kw(14.4); 100];
        let draws = model.sample_room_at_utilization(
            &provisioned,
            Fraction::new(0.8).unwrap(),
            &mut rng,
        );
        let fracs: Vec<f64> = draws.iter().map(|d| *d / Watts::from_kw(14.4)).collect();
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let var = fracs.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / fracs.len() as f64;
        assert!(var > 1e-4, "draws should not all be identical, var {var}");
    }

    #[test]
    fn diurnal_peak_and_trough() {
        let p = DiurnalProfile::default_microsoft();
        // Monday 3 PM is the peak.
        let peak = p.utilization_at(15.0).value();
        assert!((peak - 0.75).abs() < 1e-9);
        // Monday 3 AM is the trough: peak − dip.
        let trough = p.utilization_at(3.0).value();
        assert!((trough - 0.58).abs() < 1e-9);
        // Saturday is dipped.
        let weekend = p.utilization_at(5.0 * 24.0 + 12.0).value();
        assert!((weekend - 0.58).abs() < 1e-9);
        // Wraps after a week.
        assert_eq!(
            p.utilization_at(15.0).value(),
            p.utilization_at(168.0 + 15.0).value()
        );
    }

    #[test]
    fn night_dip_matches_paper_range() {
        let p = DiurnalProfile::default_microsoft();
        let peak = p.utilization_at(15.0).value();
        let trough = p.utilization_at(3.0).value();
        let dip_fraction = (peak - trough) / peak;
        assert!(
            (0.15..=0.25).contains(&dip_fraction),
            "dip {dip_fraction} outside the paper's 15–19%-ish range"
        );
    }

    #[test]
    #[should_panic(expected = "invalid diurnal")]
    fn profile_validation() {
        let _ = DiurnalProfile::new(0.5, 0.6);
    }
}
