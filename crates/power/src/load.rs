//! Mapping per-PDU-pair IT load onto UPS devices under any feed state.
//!
//! This is the electrical accounting at the heart of both the placement
//! safety constraints (Equations 2 and 4 in the paper) and the online
//! controller's failover-state power estimates.

use std::ops::Index;

use crate::feed::PairFeed;
use crate::{FeedState, PduPairId, PowerError, Topology, UpsId, Watts};

/// Per-UPS load vector produced by [`LoadModel::ups_loads`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpsLoads(Vec<Watts>);

impl UpsLoads {
    /// Load on one UPS. Foreign ids read as zero.
    pub fn load(&self, id: UpsId) -> Watts {
        self.0.get(id.0).copied().unwrap_or(Watts::ZERO)
    }

    /// The loads as a slice indexed by UPS id.
    pub fn as_slice(&self) -> &[Watts] {
        &self.0
    }

    /// Iterates over `(UpsId, load)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UpsId, Watts)> + '_ {
        self.0.iter().enumerate().map(|(i, &w)| (UpsId(i), w))
    }

    /// Sum over all UPSes.
    pub fn total(&self) -> Watts {
        self.0.iter().sum()
    }

    /// UPSes whose load exceeds their rated capacity, with the overdraw
    /// amount, considering only in-service devices.
    pub fn overloads(&self, topo: &Topology, feed: &FeedState) -> Vec<(UpsId, Watts)> {
        self.iter()
            .filter(|(id, _)| feed.is_online(*id))
            .filter_map(|(id, load)| {
                let cap = topo.ups(id).ok()?.capacity();
                load.exceeds(cap).then(|| (id, load - cap))
            })
            .collect()
    }
}

impl Index<UpsId> for UpsLoads {
    type Output = Watts;
    fn index(&self, id: UpsId) -> &Watts {
        &self.0[id.0]
    }
}

impl Index<usize> for UpsLoads {
    type Output = Watts;
    fn index(&self, i: usize) -> &Watts {
        &self.0[i]
    }
}

/// IT load attached to each PDU-pair of a topology, with the transfer rules
/// that turn it into per-UPS load.
///
/// Transfer rules (Section II-A): with both upstream UPSes online a pair's
/// load splits 50/50 (active-active); with one failed, the survivor carries
/// the full load *instantaneously*; with both failed the load is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadModel {
    topo: Topology,
    pair_loads: Vec<Watts>,
}

impl LoadModel {
    /// An all-zero load model for the given topology.
    pub fn new(topo: &Topology) -> Self {
        LoadModel {
            topo: topo.clone(),
            pair_loads: vec![Watts::ZERO; topo.pdu_pairs().len()],
        }
    }

    /// Zeroes every pair's load and keeps the topology: a reusable model
    /// refills after this instead of cloning the topology through
    /// [`LoadModel::new`].
    pub fn clear(&mut self) {
        self.pair_loads.fill(Watts::ZERO);
    }

    /// The topology this model maps onto.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Sets the total IT load drawn through a PDU-pair.
    ///
    /// # Panics
    ///
    /// Panics on a foreign pair id; use [`LoadModel::try_set_pair_load`]
    /// for fallible updates.
    pub fn set_pair_load(&mut self, pair: PduPairId, load: Watts) {
        self.try_set_pair_load(pair, load)
            // flex-lint: allow(P1): documented panicking convenience; `try_set_pair_load` is the fallible twin
            .expect("pair id must belong to topology");
    }

    /// Fallible variant of [`LoadModel::set_pair_load`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownPduPair`] for a foreign id.
    pub fn try_set_pair_load(&mut self, pair: PduPairId, load: Watts) -> Result<(), PowerError> {
        match self.pair_loads.get_mut(pair.0) {
            Some(slot) => {
                *slot = load;
                Ok(())
            }
            None => Err(PowerError::UnknownPduPair(pair.0)),
        }
    }

    /// Adds (possibly negative) load to a PDU-pair.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownPduPair`] for a foreign id.
    pub fn add_pair_load(&mut self, pair: PduPairId, delta: Watts) -> Result<(), PowerError> {
        match self.pair_loads.get_mut(pair.0) {
            Some(slot) => {
                *slot = (*slot + delta).clamp_non_negative();
                Ok(())
            }
            None => Err(PowerError::UnknownPduPair(pair.0)),
        }
    }

    /// Current load on one PDU-pair. Foreign ids read as zero.
    pub fn pair_load(&self, pair: PduPairId) -> Watts {
        self.pair_loads.get(pair.0).copied().unwrap_or(Watts::ZERO)
    }

    /// Total IT load attached to the room (independent of feed state).
    pub fn total_load(&self) -> Watts {
        self.pair_loads.iter().sum()
    }

    /// Per-UPS load under the given feed state.
    pub fn ups_loads(&self, feed: &FeedState) -> UpsLoads {
        let mut loads = vec![Watts::ZERO; self.topo.ups_count()];
        let add = |loads: &mut Vec<Watts>, u: UpsId, w: Watts| {
            if let Some(slot) = loads.get_mut(u.0) {
                *slot += w;
            }
        };
        for pair in self.topo.pdu_pairs() {
            let load = self.pair_load(pair.id());
            match feed.pair_feed(pair) {
                PairFeed::Both => {
                    let (a, b) = pair.upstream();
                    add(&mut loads, a, load * 0.5);
                    add(&mut loads, b, load * 0.5);
                }
                PairFeed::Single(u) => add(&mut loads, u, load),
                PairFeed::Dead => {}
            }
        }
        UpsLoads(loads)
    }

    /// IT load dropped because both feeds of its pair are offline.
    pub fn lost_load(&self, feed: &FeedState) -> Watts {
        self.topo
            .pdu_pairs()
            .iter()
            .filter(|p| feed.pair_feed(p) == PairFeed::Dead)
            .map(|p| self.pair_load(p.id()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_model(pair_kw: f64) -> LoadModel {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut m = LoadModel::new(&topo);
        for p in topo.pdu_pairs() {
            m.set_pair_load(p.id(), Watts::from_kw(pair_kw));
        }
        m
    }

    #[test]
    fn normal_operation_splits_evenly() {
        let m = uniform_model(600.0);
        let feed = FeedState::all_online(m.topology());
        let loads = m.ups_loads(&feed);
        // 6 pairs × 600 kW = 3.6 MW total; each UPS feeds 3 pairs at half.
        for (_, l) in loads.iter() {
            assert!(l.approx_eq(Watts::from_kw(900.0), 1e-6));
        }
        assert!(loads.total().approx_eq(Watts::from_mw(3.6), 1e-6));
    }

    #[test]
    fn failover_transfers_full_pair_load_to_partner() {
        let m = uniform_model(600.0);
        let topo = m.topology().clone();
        let feed = FeedState::with_failed(&topo, [UpsId(0)]);
        let loads = m.ups_loads(&feed);
        // Each survivor had 900 kW and picks up the extra half (300 kW) of
        // the one pair it shared with UPS 0.
        for id in [UpsId(1), UpsId(2), UpsId(3)] {
            assert!(loads[id].approx_eq(Watts::from_kw(1200.0), 1e-6));
        }
        assert!(loads[UpsId(0)].approx_eq(Watts::ZERO, 1e-9));
        // No load lost: every pair still has a live feed.
        assert!(m.lost_load(&feed).approx_eq(Watts::ZERO, 1e-9));
        assert!(loads.total().approx_eq(m.total_load(), 1e-6));
    }

    #[test]
    fn worst_case_failover_is_133_percent() {
        // Fully allocated room: each UPS at 100% of 2.4 MW => pair load
        // such that each UPS carries 2.4 MW normally: 3 pairs × L/2 = 2.4 MW
        // => L = 1.6 MW.
        let m = uniform_model(1600.0);
        let topo = m.topology().clone();
        let feed = FeedState::with_failed(&topo, [UpsId(2)]);
        let loads = m.ups_loads(&feed);
        let cap = Watts::from_mw(2.4);
        for id in [UpsId(0), UpsId(1), UpsId(3)] {
            let frac = loads[id] / cap;
            assert!((frac - 4.0 / 3.0).abs() < 1e-9, "got {frac}");
        }
    }

    #[test]
    fn double_failure_drops_shared_pair_load() {
        let m = uniform_model(600.0);
        let topo = m.topology().clone();
        let feed = FeedState::with_failed(&topo, [UpsId(0), UpsId(1)]);
        // The (0,1) pair is dead: 600 kW lost.
        assert!(m.lost_load(&feed).approx_eq(Watts::from_kw(600.0), 1e-6));
        let loads = m.ups_loads(&feed);
        assert!(loads
            .total()
            .approx_eq(m.total_load() - Watts::from_kw(600.0), 1e-6));
    }

    #[test]
    fn overload_detection_respects_feed_state() {
        let m = uniform_model(1600.0);
        let topo = m.topology().clone();
        let feed = FeedState::with_failed(&topo, [UpsId(0)]);
        let loads = m.ups_loads(&feed);
        let over = loads.overloads(&topo, &feed);
        assert_eq!(over.len(), 3);
        for (id, amount) in over {
            assert_ne!(id, UpsId(0), "failed UPS must not be reported");
            assert!(amount.approx_eq(Watts::from_kw(800.0), 1e-3));
        }
    }

    #[test]
    fn no_overload_at_conventional_allocation() {
        // Allocate exactly the failover budget (75%): pair load 1.2 MW.
        let m = uniform_model(1200.0);
        let topo = m.topology().clone();
        for f in topo.ups_ids() {
            let feed = FeedState::with_failed(&topo, [f]);
            let loads = m.ups_loads(&feed);
            assert!(
                loads.overloads(&topo, &feed).is_empty(),
                "failover of {f} must stay within capacity"
            );
        }
    }

    #[test]
    fn add_pair_load_clamps_at_zero() {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut m = LoadModel::new(&topo);
        let p = topo.pdu_pairs()[0].id();
        m.add_pair_load(p, Watts::from_kw(5.0)).unwrap();
        m.add_pair_load(p, Watts::from_kw(-10.0)).unwrap();
        assert_eq!(m.pair_load(p), Watts::ZERO);
        assert!(m.add_pair_load(PduPairId(99), Watts::ZERO).is_err());
    }

    #[test]
    fn try_set_rejects_foreign_pair() {
        let topo = Topology::distributed_redundant(2, Watts::from_mw(1.0)).unwrap();
        let mut m = LoadModel::new(&topo);
        assert!(m.try_set_pair_load(PduPairId(5), Watts::ZERO).is_err());
    }
}
