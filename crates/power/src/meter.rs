//! Ground-truth instrumentation points for the telemetry pipeline.
//!
//! Section IV-C: each UPS's power is observed through **three logical
//! meters** — the UPS output meter, the aggregate IT meter downstream, and
//! the site total-minus-mechanical difference — which agree on the
//! *equivalent* UPS power after accounting for conversion losses. The
//! telemetry crate layers noise, stuck readings, and drops on top of these
//! ground-truth values; this module defines the noiseless physics.

use crate::{FeedState, LoadModel, UpsId, UpsLoads, Watts};

/// The three logical meters that each independently measure (the
/// equivalent of) one UPS's power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeterKind {
    /// Meter on the UPS output itself: sees IT power plus UPS conversion
    /// loss.
    UpsOutput,
    /// Aggregate of the IT-side meters downstream of the UPS: sees IT
    /// power exactly.
    ItAggregate,
    /// Site total meter minus the mechanical (cooling) meter: sees IT
    /// power plus distribution loss.
    TotalMinusMech,
}

impl MeterKind {
    /// All three kinds, in a stable order.
    pub const ALL: [MeterKind; 3] = [
        MeterKind::UpsOutput,
        MeterKind::ItAggregate,
        MeterKind::TotalMinusMech,
    ];

    /// Multiplicative factor relating this meter's *raw* reading to the
    /// equivalent IT power (raw = IT × factor).
    pub fn loss_factor(self) -> f64 {
        match self {
            MeterKind::UpsOutput => 1.04,      // ~4% UPS conversion loss
            MeterKind::ItAggregate => 1.0,     // direct measurement
            MeterKind::TotalMinusMech => 1.02, // ~2% distribution loss
        }
    }

    /// Converts a raw reading from this meter into equivalent IT power,
    /// the common unit the consensus logic compares.
    pub fn normalize(self, raw: Watts) -> Watts {
        raw / self.loss_factor()
    }

    /// Converts equivalent IT power into the raw value this meter reports.
    pub fn denormalize(self, it_power: Watts) -> Watts {
        it_power * self.loss_factor()
    }
}

/// An immutable ground-truth snapshot of per-UPS IT power, taken from a
/// load model under a feed state.
///
/// ```
/// use flex_power::{Topology, LoadModel, FeedState, Watts};
/// use flex_power::meter::{GroundTruth, MeterKind};
///
/// let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4))?;
/// let mut load = LoadModel::new(&topo);
/// for p in topo.pdu_pairs() {
///     load.set_pair_load(p.id(), Watts::from_kw(900.0));
/// }
/// let truth = GroundTruth::capture(&load, &FeedState::all_online(&topo));
/// let ups0 = topo.ups_ids().next().unwrap();
/// let raw = MeterKind::UpsOutput.denormalize(truth.it_power(ups0));
/// // Normalizing recovers the IT power the other meters agree on.
/// assert!(MeterKind::UpsOutput.normalize(raw).approx_eq(truth.it_power(ups0), 1e-6));
/// # Ok::<(), flex_power::PowerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    loads: UpsLoads,
}

impl GroundTruth {
    /// Captures per-UPS power from the load model under the feed state.
    pub fn capture(load: &LoadModel, feed: &FeedState) -> Self {
        GroundTruth {
            loads: load.ups_loads(feed),
        }
    }

    /// Builds a snapshot directly from precomputed loads.
    pub fn from_loads(loads: UpsLoads) -> Self {
        GroundTruth { loads }
    }

    /// Equivalent IT power on the given UPS.
    pub fn it_power(&self, id: UpsId) -> Watts {
        self.loads.load(id)
    }

    /// Per-UPS loads backing this snapshot.
    pub fn loads(&self) -> &UpsLoads {
        &self.loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn normalize_roundtrips_for_all_kinds() {
        let p = Watts::from_kw(1234.5);
        for kind in MeterKind::ALL {
            let raw = kind.denormalize(p);
            assert!(kind.normalize(raw).approx_eq(p, 1e-9));
        }
    }

    #[test]
    fn meters_disagree_raw_but_agree_normalized() {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut load = LoadModel::new(&topo);
        for pr in topo.pdu_pairs() {
            load.set_pair_load(pr.id(), Watts::from_kw(600.0));
        }
        let truth = GroundTruth::capture(&load, &FeedState::all_online(&topo));
        let id = UpsId(0);
        let raws: Vec<Watts> = MeterKind::ALL
            .iter()
            .map(|k| k.denormalize(truth.it_power(id)))
            .collect();
        assert!(raws[0] != raws[1] && raws[1] != raws[2]);
        for (k, raw) in MeterKind::ALL.iter().zip(&raws) {
            assert!(k.normalize(*raw).approx_eq(truth.it_power(id), 1e-6));
        }
    }

    #[test]
    fn failed_ups_reads_zero() {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut load = LoadModel::new(&topo);
        for pr in topo.pdu_pairs() {
            load.set_pair_load(pr.id(), Watts::from_kw(600.0));
        }
        let feed = FeedState::with_failed(&topo, [UpsId(3)]);
        let truth = GroundTruth::capture(&load, &feed);
        assert!(truth.it_power(UpsId(3)).approx_eq(Watts::ZERO, 1e-9));
        assert!(truth.it_power(UpsId(0)) > Watts::from_kw(900.0));
    }
}
