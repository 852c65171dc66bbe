//! Synthetic benchmark power models for the Section V-C emulation.
//!
//! The paper runs TeraSort as the software-redundant workload and a
//! latency-sensitive TPC-E-like benchmark for the cap-able and
//! non-cap-able racks, each instance in its own VM, parameterized to an
//! aggregate 80% utilization. These models reproduce the *power
//! signatures* of those benchmarks:
//!
//! - [`BatchJobModel`] — TeraSort-like: repeating map → shuffle → reduce
//!   phases with distinct power levels (CPU-heavy map, I/O-bound shuffle,
//!   CPU-heavy reduce), staggered per rack;
//! - [`OltpModel`] — TPC-E-like: an open-loop transaction mix whose
//!   offered load wanders slowly (sinusoid + noise), with power tracking
//!   load above the idle floor.

use flex_online::sim::DemandFn;
use flex_placement::PlacedRack;
use flex_sim::SimTime;
use flex_workload::WorkloadCategory;
use rand::Rng;

/// TeraSort-like batch job power profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchJobModel {
    /// Full job duration (map+shuffle+reduce), seconds.
    pub job_secs: f64,
    /// Power fraction (of provisioned) during the map phase.
    pub map_fraction: f64,
    /// Power fraction during the shuffle phase (I/O bound, lower CPU).
    pub shuffle_fraction: f64,
    /// Power fraction during the reduce phase.
    pub reduce_fraction: f64,
}

impl Default for BatchJobModel {
    fn default() -> Self {
        BatchJobModel {
            job_secs: 300.0,
            map_fraction: 0.90,
            shuffle_fraction: 0.70,
            reduce_fraction: 0.85,
        }
    }
}

impl BatchJobModel {
    /// The mean power fraction across a whole job (map 40%, shuffle 25%,
    /// reduce 35% of the duration).
    pub fn mean_fraction(&self) -> f64 {
        0.40 * self.map_fraction + 0.25 * self.shuffle_fraction + 0.35 * self.reduce_fraction
    }

    /// Power fraction at `t` seconds into the job cycle.
    pub fn fraction_at(&self, t_secs: f64) -> f64 {
        let t = t_secs.rem_euclid(self.job_secs) / self.job_secs;
        if t < 0.40 {
            self.map_fraction
        } else if t < 0.65 {
            self.shuffle_fraction
        } else {
            self.reduce_fraction
        }
    }
}

/// TPC-E-like open-loop load model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OltpModel {
    /// Mean power fraction of provisioned.
    pub mean_fraction: f64,
    /// Amplitude of the slow load wander.
    pub wander_amplitude: f64,
    /// Period of the wander, seconds.
    pub wander_secs: f64,
    /// Per-sample Gaussian-ish noise amplitude.
    pub noise: f64,
    /// Idle power floor as a fraction of provisioned.
    pub idle_fraction: f64,
}

impl Default for OltpModel {
    fn default() -> Self {
        OltpModel {
            mean_fraction: 0.80,
            wander_amplitude: 0.04,
            wander_secs: 600.0,
            noise: 0.04,
            idle_fraction: 0.30,
        }
    }
}

impl OltpModel {
    /// Power fraction at time `t` for a rack with the given phase offset.
    pub fn fraction_at<R: Rng + ?Sized>(&self, t_secs: f64, phase: f64, rng: &mut R) -> f64 {
        let wander = self.wander_amplitude
            * (std::f64::consts::TAU * (t_secs / self.wander_secs + phase)).sin();
        let noise = rng.gen_range(-self.noise..self.noise);
        (self.mean_fraction + wander + noise).clamp(self.idle_fraction, 1.0)
    }
}

/// Builds the emulation's per-rack demand function: software-redundant
/// racks run the batch model, everything else the OLTP model, both
/// scaled so the room's mean draw hits `target_utilization` of
/// provisioned power.
pub fn paper_demand_fn(target_utilization: f64, batch: BatchJobModel, oltp: OltpModel) -> DemandFn {
    let batch_scale = target_utilization / batch.mean_fraction();
    let oltp_scale = target_utilization / oltp.mean_fraction;
    Box::new(move |rack: &PlacedRack, now: SimTime, rng| {
        let t = now.as_secs_f64();
        // Deterministic per-rack stagger so racks aren't phase-locked.
        let phase = (rack.id.0 as f64 * 0.6180339887) % 1.0;
        let fraction = match rack.category {
            WorkloadCategory::SoftwareRedundant => {
                let offset = phase * batch.job_secs;
                (batch.fraction_at(t + offset) * batch_scale
                    + rng.gen_range(-0.015..0.015))
                .clamp(0.3, 1.0)
            }
            _ => (oltp.fraction_at(t, phase, rng) * oltp_scale).clamp(0.3, 1.0),
        };
        rack.provisioned * fraction
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::RackId;
    use flex_power::Watts;
    use flex_power::PduPairId;
    use flex_workload::DeploymentId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rack(id: usize, category: WorkloadCategory) -> PlacedRack {
        PlacedRack {
            id: RackId(id),
            deployment: DeploymentId(0),
            category,
            pdu_pair: PduPairId(0),
            provisioned: Watts::from_kw(13.3),
            flex_power: Watts::from_kw(11.3),
        }
    }

    #[test]
    fn batch_phases_have_expected_levels() {
        let m = BatchJobModel::default();
        assert_eq!(m.fraction_at(10.0), 0.90); // map
        assert_eq!(m.fraction_at(0.5 * m.job_secs), 0.70); // shuffle
        assert_eq!(m.fraction_at(0.9 * m.job_secs), 0.85); // reduce
        // Periodic.
        assert_eq!(m.fraction_at(10.0), m.fraction_at(10.0 + m.job_secs));
        let mean = m.mean_fraction();
        assert!((0.7..0.9).contains(&mean));
    }

    #[test]
    fn oltp_stays_in_bounds_and_wanders() {
        let m = OltpModel::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut values = Vec::new();
        for i in 0..600 {
            let f = m.fraction_at(i as f64, 0.25, &mut rng);
            assert!((m.idle_fraction..=1.0).contains(&f));
            values.push(f);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max - min > 0.05, "load should wander: {min}..{max}");
    }

    #[test]
    fn demand_fn_hits_target_utilization_on_average() {
        let mut demand = paper_demand_fn(0.80, BatchJobModel::default(), OltpModel::default());
        let mut rng = SmallRng::seed_from_u64(2);
        let racks: Vec<PlacedRack> = (0..300)
            .map(|i| {
                let cat = match i % 3 {
                    0 => WorkloadCategory::SoftwareRedundant,
                    1 => WorkloadCategory::CapAble,
                    _ => WorkloadCategory::NonCapAble,
                };
                rack(i, cat)
            })
            .collect();
        let mut total = 0.0;
        let mut samples = 0usize;
        for step in 0..120 {
            let now = SimTime::from_secs_f64(step as f64 * 5.0);
            for r in &racks {
                total += (demand(r, now, &mut rng) / r.provisioned).clamp(0.0, 2.0);
                samples += 1;
            }
        }
        let mean = total / samples as f64;
        assert!(
            (mean - 0.80).abs() < 0.04,
            "mean utilization {mean} should be ~0.80"
        );
    }

    #[test]
    fn batch_racks_are_staggered() {
        let mut demand = paper_demand_fn(0.80, BatchJobModel::default(), OltpModel::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let now = SimTime::from_secs_f64(100.0);
        let a = demand(&rack(0, WorkloadCategory::SoftwareRedundant), now, &mut rng);
        let b = demand(&rack(7, WorkloadCategory::SoftwareRedundant), now, &mut rng);
        // Different phases usually land in different job phases.
        assert!(!a.approx_eq(b, 100.0), "{a} vs {b}");
    }
}
