//! Physical meter models: noise, stuck readings, drops.

use flex_obs::{Counter, Obs};
use flex_power::meter::MeterKind;
use flex_power::{UpsId, Watts};
use flex_sim::dist::{Normal, Sample};
use flex_sim::rng::RngPool;
use flex_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Fault parameters applied to every physical meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterFaults {
    /// Relative 1-sigma multiplicative noise.
    pub noise_rel: f64,
    /// Probability per poll of entering a stuck state.
    pub stuck_probability: f64,
    /// Stuck-state duration.
    pub stuck_duration: SimDuration,
    /// Probability per poll of returning nothing.
    pub drop_probability: f64,
}

#[derive(Debug, Clone)]
struct MeterState {
    rng: SmallRng,
    last_raw: Option<Watts>,
    stuck_until: SimTime,
}

/// The bank of physical meters for one room: three logical meters per
/// UPS plus one meter per rack.
///
/// Readings are *raw* (per-meter-kind loss factors applied); consumers
/// normalize via [`MeterKind::normalize`]. Each meter owns an
/// independent RNG stream, so fault injection on one meter never
/// perturbs another's noise sequence.
#[derive(Debug, Clone)]
pub struct MeterBank {
    faults: MeterFaults,
    ups_meters: Vec<[MeterState; 3]>,
    rack_meters: Vec<MeterState>,
    /// Successful reads (noop unless observability is attached).
    reads: Counter,
    /// Dropped/unavailable reads.
    unavailable: Counter,
}

impl MeterBank {
    /// Creates a bank for `ups_count` UPSes and `rack_count` racks.
    pub fn new(ups_count: usize, rack_count: usize, faults: MeterFaults, pool: &RngPool) -> Self {
        let ups_meters = (0..ups_count)
            .map(|u| {
                let mk = |kind: usize| MeterState {
                    rng: pool.indexed_stream("meter/ups", (u * 3 + kind) as u64),
                    last_raw: None,
                    stuck_until: SimTime::ZERO,
                };
                [mk(0), mk(1), mk(2)]
            })
            .collect();
        let rack_meters = (0..rack_count)
            .map(|r| MeterState {
                rng: pool.indexed_stream("meter/rack", r as u64),
                last_raw: None,
                stuck_until: SimTime::ZERO,
            })
            .collect();
        MeterBank {
            faults,
            ups_meters,
            rack_meters,
            reads: Counter::noop(),
            unavailable: Counter::noop(),
        }
    }

    /// Attaches observability: `telemetry/meter_reads` counts successful
    /// reads, `telemetry/meter_unavailable` dropped or foreign ones.
    /// Instrument handles never perturb the meters' RNG streams, so an
    /// instrumented bank reads bit-identically to an uninstrumented one.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.reads = obs.counter("telemetry/meter_reads");
        self.unavailable = obs.counter("telemetry/meter_unavailable");
    }

    /// Number of racks metered.
    pub fn rack_count(&self) -> usize {
        self.rack_meters.len()
    }

    /// Number of UPSes metered.
    pub fn ups_count(&self) -> usize {
        self.ups_meters.len()
    }

    fn read(state: &mut MeterState, faults: &MeterFaults, now: SimTime, truth: Watts) -> Option<Watts> {
        // Stuck: repeat the last raw value until the stuck window ends.
        if now < state.stuck_until {
            return state.last_raw;
        }
        if faults.drop_probability > 0.0 && state.rng.gen::<f64>() < faults.drop_probability {
            return None;
        }
        let noisy = if faults.noise_rel > 0.0 {
            let factor = Normal::new(1.0, faults.noise_rel).sample(&mut state.rng);
            (truth * factor).clamp_non_negative()
        } else {
            truth
        };
        state.last_raw = Some(noisy);
        if faults.stuck_probability > 0.0 && state.rng.gen::<f64>() < faults.stuck_probability {
            state.stuck_until = now + faults.stuck_duration;
        }
        Some(noisy)
    }

    /// Reads one logical UPS meter (raw, with the kind's loss factor).
    /// `truth_it` is the true IT power on that UPS. Returns `None` on a
    /// dropped reading or a foreign id.
    pub fn read_ups(
        &mut self,
        ups: UpsId,
        kind: MeterKind,
        now: SimTime,
        truth_it: Watts,
    ) -> Option<Watts> {
        let out = (|| {
            let kind_idx = MeterKind::ALL.iter().position(|&k| k == kind)?;
            let state = self.ups_meters.get_mut(ups.0)?.get_mut(kind_idx)?;
            let raw_truth = kind.denormalize(truth_it);
            Self::read(state, &self.faults, now, raw_truth)
        })();
        match out {
            Some(_) => self.reads.inc(),
            None => self.unavailable.inc(),
        }
        out
    }

    /// Reads one rack meter. Returns `None` on a dropped reading or a
    /// foreign index.
    pub fn read_rack(&mut self, rack: usize, now: SimTime, truth: Watts) -> Option<Watts> {
        let out = self
            .rack_meters
            .get_mut(rack)
            .and_then(|state| Self::read(state, &self.faults, now, truth));
        match out {
            Some(_) => self.reads.inc(),
            None => self.unavailable.inc(),
        }
        out
    }

    /// Forces a meter into a stuck state (targeted fault injection).
    /// Foreign UPS ids are ignored.
    pub fn force_stuck(&mut self, ups: UpsId, kind: MeterKind, until: SimTime) {
        let Some(kind_idx) = MeterKind::ALL.iter().position(|&k| k == kind) else {
            return;
        };
        if let Some(state) = self
            .ups_meters
            .get_mut(ups.0)
            .and_then(|row| row.get_mut(kind_idx))
        {
            state.stuck_until = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> RngPool {
        RngPool::new(77)
    }

    /// No faults, no noise.
    fn no_faults() -> MeterFaults {
        MeterFaults {
            noise_rel: 0.0,
            stuck_probability: 0.0,
            stuck_duration: SimDuration::ZERO,
            drop_probability: 0.0,
        }
    }

    #[test]
    fn noiseless_meter_reads_exact_raw_value() {
        let mut bank = MeterBank::new(4, 2, no_faults(), &pool());
        let truth = Watts::from_kw(1000.0);
        for kind in MeterKind::ALL {
            let raw = bank
                .read_ups(UpsId(0), kind, SimTime::ZERO, truth)
                .unwrap();
            assert!(kind.normalize(raw).approx_eq(truth, 1e-6));
        }
        let r = bank.read_rack(1, SimTime::ZERO, Watts::from_kw(15.0)).unwrap();
        assert_eq!(r, Watts::from_kw(15.0));
    }

    #[test]
    fn noise_is_bounded_and_unbiased() {
        let faults = MeterFaults {
            noise_rel: 0.01,
            ..no_faults()
        };
        let mut bank = MeterBank::new(1, 0, faults, &pool());
        let truth = Watts::from_kw(1000.0);
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            let t = SimTime::from_secs_f64(i as f64);
            let raw = bank
                .read_ups(UpsId(0), MeterKind::ItAggregate, t, truth)
                .unwrap();
            sum += raw.as_kw();
        }
        let mean = sum / n as f64;
        assert!((mean - 1000.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn stuck_meter_repeats_last_value() {
        let mut bank = MeterBank::new(1, 0, no_faults(), &pool());
        let t0 = SimTime::ZERO;
        let first = bank
            .read_ups(UpsId(0), MeterKind::ItAggregate, t0, Watts::from_kw(500.0))
            .unwrap();
        bank.force_stuck(UpsId(0), MeterKind::ItAggregate, SimTime::from_secs_f64(5.0));
        // Truth changes, reading does not.
        let stuck = bank
            .read_ups(
                UpsId(0),
                MeterKind::ItAggregate,
                SimTime::from_secs_f64(2.0),
                Watts::from_kw(900.0),
            )
            .unwrap();
        assert_eq!(stuck, first);
        // After the window, readings resume tracking.
        let fresh = bank
            .read_ups(
                UpsId(0),
                MeterKind::ItAggregate,
                SimTime::from_secs_f64(6.0),
                Watts::from_kw(900.0),
            )
            .unwrap();
        assert_eq!(fresh, Watts::from_kw(900.0));
    }

    #[test]
    fn drops_occur_at_configured_rate() {
        let faults = MeterFaults {
            drop_probability: 0.2,
            ..no_faults()
        };
        let mut bank = MeterBank::new(1, 0, faults, &pool());
        let mut drops = 0;
        let n = 5000;
        for i in 0..n {
            let t = SimTime::from_secs_f64(i as f64);
            if bank
                .read_ups(UpsId(0), MeterKind::ItAggregate, t, Watts::from_kw(1.0))
                .is_none()
            {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn foreign_ids_read_none() {
        let mut bank = MeterBank::new(2, 2, no_faults(), &pool());
        assert!(bank
            .read_ups(UpsId(9), MeterKind::ItAggregate, SimTime::ZERO, Watts::ZERO)
            .is_none());
        assert!(bank.read_rack(9, SimTime::ZERO, Watts::ZERO).is_none());
    }

    #[test]
    fn meters_have_independent_noise() {
        let faults = MeterFaults {
            noise_rel: 0.01,
            ..no_faults()
        };
        let mut bank = MeterBank::new(2, 0, faults, &pool());
        let truth = Watts::from_kw(1000.0);
        let a = bank
            .read_ups(UpsId(0), MeterKind::ItAggregate, SimTime::ZERO, truth)
            .unwrap();
        let b = bank
            .read_ups(UpsId(1), MeterKind::ItAggregate, SimTime::ZERO, truth)
            .unwrap();
        assert_ne!(a, b, "independent streams must differ");
    }
}
