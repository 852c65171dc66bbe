//! Cascading-failure propagation.
//!
//! The scenario Flex must prevent (Section IV-A): a UPS failure transfers
//! load onto the survivors; if the overdraw persists beyond their overload
//! tolerance, another UPS trips, shifting even more load onto the rest,
//! until the room blacks out. [`CascadeSim`] steps this process forward in
//! time, optionally applying a load-shedding action (what Flex-Online does)
//! partway through.

use crate::trip_curve::{OverloadAccumulator, TripCurve};
use crate::{FeedState, LoadModel, PowerError, UpsId, Watts};

/// One trip event in a cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripEvent {
    /// Simulation time of the trip, seconds after `run` began.
    pub at_secs: f64,
    /// The device that tripped.
    pub ups: UpsId,
}

/// Result of a cascade run.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeReport {
    /// UPSes that tripped from overload (excludes the initial failures),
    /// in trip order.
    pub trips: Vec<TripEvent>,
    /// True if every UPS ended offline (room blackout).
    pub blackout: bool,
    /// IT load left unpowered at the end of the run.
    pub lost_load: Watts,
    /// Highest per-UPS load fraction observed on any online device.
    pub peak_load_fraction: f64,
}

impl CascadeReport {
    /// True when no secondary trips occurred — the failover was contained.
    pub fn contained(&self) -> bool {
        self.trips.is_empty()
    }
}

/// Time-stepped simulator of overload-driven cascading failure.
///
/// ```
/// use flex_power::{Topology, LoadModel, Watts, UpsId};
/// use flex_power::cascade::CascadeSim;
/// use flex_power::trip_curve::TripCurve;
///
/// let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4))?;
/// let mut load = LoadModel::new(&topo);
/// for p in topo.pdu_pairs() {
///     load.set_pair_load(p.id(), Watts::from_mw(1.6)); // 100% allocation
/// }
/// let mut sim = CascadeSim::new(load, TripCurve::end_of_life(), 60.0);
/// sim.fail_ups(UpsId(0))?;
/// // Without corrective action, the 133% overdraw cascades to blackout.
/// let report = sim.run(120.0, 0.1, |_, _| {});
/// assert!(report.blackout);
/// # Ok::<(), flex_power::PowerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CascadeSim {
    load: LoadModel,
    feed: FeedState,
    accumulators: Vec<OverloadAccumulator>,
    time_secs: f64,
}

impl CascadeSim {
    /// Creates a simulator over the load model's topology, with every UPS
    /// using the same trip curve and damage-recovery time.
    pub fn new(load: LoadModel, curve: TripCurve, recovery_secs: f64) -> Self {
        let topo = load.topology().clone();
        let feed = FeedState::all_online(&topo);
        let accumulators = (0..topo.ups_count())
            .map(|_| OverloadAccumulator::new(curve.clone(), recovery_secs))
            .collect();
        CascadeSim {
            load,
            feed,
            accumulators,
            time_secs: 0.0,
        }
    }

    /// Takes a UPS out of service (the initiating failure or maintenance).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownUps`] for a foreign id.
    pub fn fail_ups(&mut self, id: UpsId) -> Result<(), PowerError> {
        self.feed.fail(id)
    }

    /// Returns a UPS to service and resets its damage accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownUps`] for a foreign id.
    pub fn restore_ups(&mut self, id: UpsId) -> Result<(), PowerError> {
        self.feed.restore(id)?;
        if let Some(acc) = self.accumulators.get_mut(id.0) {
            acc.reset();
        }
        Ok(())
    }

    /// Current feed state.
    pub fn feed(&self) -> &FeedState {
        &self.feed
    }

    /// The attached load model.
    pub fn load(&self) -> &LoadModel {
        &self.load
    }

    /// Elapsed simulated seconds.
    pub fn time_secs(&self) -> f64 {
        self.time_secs
    }

    /// Advances one step of `dt_secs`, returning UPSes that tripped during
    /// the step.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` is not strictly positive.
    pub fn step(&mut self, dt_secs: f64) -> Vec<UpsId> {
        assert!(dt_secs > 0.0, "time step must be positive");
        let topo = self.load.topology().clone();
        let loads = self.load.ups_loads(&self.feed);
        let mut newly_tripped = Vec::new();
        for ups in topo.upses() {
            let id = ups.id();
            if !self.feed.is_online(id) {
                continue;
            }
            let fraction = loads.load(id) / ups.capacity();
            let tripped = self
                .accumulators
                .get_mut(id.0)
                .is_some_and(|acc| acc.advance(dt_secs, fraction));
            if tripped {
                newly_tripped.push(id);
            }
        }
        for id in &newly_tripped {
            // Ids were collected from this feed's own topology just
            // above, so the failure cannot be rejected.
            let _ = self.feed.fail(*id);
        }
        self.time_secs += dt_secs;
        newly_tripped
    }

    /// Runs for `duration_secs` in steps of `dt_secs`, invoking `action`
    /// before each step with the current time and mutable load model
    /// (Flex-Online's corrective shedding plugs in here). Stops early on
    /// blackout.
    ///
    /// # Panics
    ///
    /// Panics if `duration_secs < 0` or `dt_secs <= 0`.
    pub fn run<F>(&mut self, duration_secs: f64, dt_secs: f64, mut action: F) -> CascadeReport
    where
        F: FnMut(f64, &mut LoadModel),
    {
        assert!(duration_secs >= 0.0 && dt_secs > 0.0, "invalid run bounds");
        let topo = self.load.topology().clone();
        let end = self.time_secs + duration_secs;
        let mut trips = Vec::new();
        let mut peak = 0.0_f64;
        while self.time_secs < end - 1e-12 {
            action(self.time_secs, &mut self.load);
            let loads = self.load.ups_loads(&self.feed);
            for ups in topo.upses() {
                if self.feed.is_online(ups.id()) {
                    peak = peak.max(loads.load(ups.id()) / ups.capacity());
                }
            }
            let at = self.time_secs;
            for ups in self.step(dt_secs) {
                trips.push(TripEvent { at_secs: at, ups });
            }
            if self.feed.online_count() == 0 {
                break;
            }
        }
        CascadeReport {
            trips,
            blackout: self.feed.online_count() == 0,
            lost_load: self.load.lost_load(&self.feed),
            peak_load_fraction: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn full_room(pair_mw: f64) -> LoadModel {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut load = LoadModel::new(&topo);
        for p in topo.pdu_pairs() {
            load.set_pair_load(p.id(), Watts::from_mw(pair_mw));
        }
        load
    }

    #[test]
    fn no_failure_no_cascade() {
        let mut sim = CascadeSim::new(full_room(1.6), TripCurve::end_of_life(), 60.0);
        let report = sim.run(30.0, 0.5, |_, _| {});
        assert!(report.contained());
        assert!(!report.blackout);
        assert!(report.lost_load.approx_eq(Watts::ZERO, 1e-9));
        assert!((report.peak_load_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unmitigated_full_allocation_cascades_to_blackout() {
        let mut sim = CascadeSim::new(full_room(1.6), TripCurve::end_of_life(), 60.0);
        sim.fail_ups(UpsId(0)).unwrap();
        let report = sim.run(300.0, 0.1, |_, _| {});
        assert!(report.blackout, "expected blackout, got {report:?}");
        // First secondary trip near the 10 s tolerance at 133%.
        let first = report.trips.first().unwrap();
        assert!(
            (first.at_secs - 10.0).abs() < 1.0,
            "first trip at {}",
            first.at_secs
        );
        assert!((report.peak_load_fraction - 4.0 / 3.0).abs() < 0.35);
    }

    #[test]
    fn conventional_allocation_is_always_safe() {
        // 75% allocation: failover load is exactly 100% of capacity.
        let mut sim = CascadeSim::new(full_room(1.2), TripCurve::end_of_life(), 60.0);
        sim.fail_ups(UpsId(0)).unwrap();
        let report = sim.run(600.0, 0.5, |_, _| {});
        assert!(report.contained());
        assert!(!report.blackout);
    }

    #[test]
    fn timely_shedding_prevents_cascade() {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut sim = CascadeSim::new(full_room(1.6), TripCurve::end_of_life(), 60.0);
        sim.fail_ups(UpsId(0)).unwrap();
        // Flex-Online-style action 5 s in: shed 25% of every pair's load,
        // bringing survivors back to 100%.
        let mut done = false;
        let report = sim.run(300.0, 0.1, |t, load| {
            if t >= 5.0 && !done {
                for p in topo.pdu_pairs() {
                    let cur = load.pair_load(p.id());
                    load.set_pair_load(p.id(), cur * 0.75);
                }
                done = true;
            }
        });
        assert!(report.contained(), "shedding within tolerance must contain");
        assert!(!report.blackout);
    }

    #[test]
    fn late_shedding_fails_to_contain() {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut sim = CascadeSim::new(full_room(1.6), TripCurve::end_of_life(), 60.0);
        sim.fail_ups(UpsId(0)).unwrap();
        let mut done = false;
        let report = sim.run(300.0, 0.1, |t, load| {
            if t >= 15.0 && !done {
                for p in topo.pdu_pairs() {
                    let cur = load.pair_load(p.id());
                    load.set_pair_load(p.id(), cur * 0.75);
                }
                done = true;
            }
        });
        assert!(
            !report.contained(),
            "acting after the 10 s tolerance is too late"
        );
    }

    #[test]
    fn restore_resets_accumulator() {
        let mut sim = CascadeSim::new(full_room(1.6), TripCurve::end_of_life(), 60.0);
        sim.fail_ups(UpsId(0)).unwrap();
        let _ = sim.run(5.0, 0.5, |_, _| {});
        sim.restore_ups(UpsId(0)).unwrap();
        assert!(sim.feed().is_normal());
        // After restore at normal load, nothing further trips.
        let report = sim.run(60.0, 0.5, |_, _| {});
        assert!(report.contained());
    }

    #[test]
    fn step_validates_dt() {
        let sim = CascadeSim::new(full_room(1.0), TripCurve::end_of_life(), 60.0);
        let mut sim2 = sim.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim2.step(0.0);
        }));
        assert!(result.is_err());
    }
}
