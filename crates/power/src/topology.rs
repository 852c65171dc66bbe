//! The static structure of a room's power-delivery hierarchy.
//!
//! A *room* (the unit of isolation in the paper, Section II-A) contains `x`
//! UPS devices. Racks connect to a *PDU-pair* in active-active mode; the two
//! PDUs of a pair are fed by two **distinct** upstream UPSes, so in normal
//! operation each UPS carries half the load of every pair it feeds. In the
//! canonical 4N/3 design every unordered pair of UPSes is bridged by at
//! least one PDU-pair, so a failed UPS spreads its load evenly over the
//! remaining three.

use std::fmt;

use crate::{PowerError, Watts};

/// Identifier of a UPS device within one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UpsId(pub usize);

impl fmt::Display for UpsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPS{}", self.0)
    }
}

/// Identifier of a PDU-pair within one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PduPairId(pub usize);

impl fmt::Display for PduPairId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PDU-pair{}", self.0)
    }
}

/// An uninterruptible power supply with a rated continuous capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ups {
    id: UpsId,
    capacity: Watts,
}

impl Ups {
    /// The UPS's identifier.
    pub fn id(&self) -> UpsId {
        self.id
    }

    /// Rated continuous (100%) capacity.
    pub fn capacity(&self) -> Watts {
        self.capacity
    }
}

/// A pair of PDUs dual-corded to two distinct upstream UPSes.
///
/// This corresponds to `Map(p) -> (u1, u2)` in the paper's ILP formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PduPair {
    id: PduPairId,
    upstream: (UpsId, UpsId),
}

impl PduPair {
    /// The pair's identifier.
    pub fn id(&self) -> PduPairId {
        self.id
    }

    /// The two upstream UPSes feeding this pair (always distinct, in
    /// ascending id order).
    pub fn upstream(&self) -> (UpsId, UpsId) {
        self.upstream
    }

    /// True if `ups` is one of the two upstream UPSes.
    pub fn is_fed_by(&self, ups: UpsId) -> bool {
        self.upstream.0 == ups || self.upstream.1 == ups
    }
}

/// Incremental builder for irregular topologies.
///
/// ```
/// use flex_power::{TopologyBuilder, Watts};
/// let mut b = TopologyBuilder::new();
/// let u0 = b.add_ups(Watts::from_mw(1.2))?;
/// let u1 = b.add_ups(Watts::from_mw(1.2))?;
/// b.add_pdu_pair(u0, u1)?;
/// let topo = b.build()?;
/// assert_eq!(topo.ups_count(), 2);
/// # Ok::<(), flex_power::PowerError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    upses: Vec<Ups>,
    pairs: Vec<PduPair>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a UPS with the given rated capacity and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NonPositiveCapacity`] if `capacity <= 0`.
    pub fn add_ups(&mut self, capacity: Watts) -> Result<UpsId, PowerError> {
        if capacity.as_w() <= 0.0 {
            return Err(PowerError::NonPositiveCapacity(capacity.as_w()));
        }
        let id = UpsId(self.upses.len());
        self.upses.push(Ups { id, capacity });
        Ok(id)
    }

    /// Adds a PDU-pair bridging two distinct UPSes and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::DegeneratePair`] if `a == b`, or
    /// [`PowerError::UnknownUps`] if either UPS has not been added.
    pub fn add_pdu_pair(&mut self, a: UpsId, b: UpsId) -> Result<PduPairId, PowerError> {
        if a == b {
            return Err(PowerError::DegeneratePair(a.0));
        }
        for u in [a, b] {
            if u.0 >= self.upses.len() {
                return Err(PowerError::UnknownUps(u.0));
            }
        }
        let id = PduPairId(self.pairs.len());
        let upstream = if a < b { (a, b) } else { (b, a) };
        self.pairs.push(PduPair { id, upstream });
        Ok(id)
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::TooFewUpses`] for fewer than two UPSes.
    pub fn build(self) -> Result<Topology, PowerError> {
        if self.upses.len() < 2 {
            return Err(PowerError::TooFewUpses(self.upses.len()));
        }
        Ok(Topology {
            upses: self.upses,
            pairs: self.pairs,
        })
    }
}

/// An immutable room power topology: UPSes plus the PDU-pairs bridging them.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    upses: Vec<Ups>,
    pairs: Vec<PduPair>,
}

impl Topology {
    /// Builds the canonical xN/(x−1) distributed-redundant design: `x`
    /// identical UPSes with one PDU-pair for every unordered UPS
    /// combination (so `x·(x−1)/2` pairs). `x = 4` yields the paper's
    /// 4N/3 room with 6 PDU-pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if `x < 2` or `ups_capacity <= 0`.
    pub fn distributed_redundant(x: usize, ups_capacity: Watts) -> Result<Topology, PowerError> {
        Topology::distributed_redundant_with_pairs(x, ups_capacity, 1)
    }

    /// Like [`Topology::distributed_redundant`] but with
    /// `pairs_per_combination` parallel PDU-pairs between every UPS
    /// combination, modelling larger rooms with many PDUs.
    ///
    /// # Errors
    ///
    /// Returns an error if `x < 2`, `ups_capacity <= 0`, or
    /// `pairs_per_combination == 0`.
    pub fn distributed_redundant_with_pairs(
        x: usize,
        ups_capacity: Watts,
        pairs_per_combination: usize,
    ) -> Result<Topology, PowerError> {
        if x < 2 {
            return Err(PowerError::TooFewUpses(x));
        }
        if pairs_per_combination == 0 {
            return Err(PowerError::UnknownPduPair(0));
        }
        let mut b = TopologyBuilder::new();
        let ids: Vec<UpsId> = (0..x)
            .map(|_| b.add_ups(ups_capacity))
            .collect::<Result<_, _>>()?;
        for (i, &ups_i) in ids.iter().enumerate() {
            for &ups_j in ids.iter().skip(i + 1) {
                for _ in 0..pairs_per_combination {
                    b.add_pdu_pair(ups_i, ups_j)?;
                }
            }
        }
        b.build()
    }

    /// Number of UPS devices (the `x` in xN/y).
    pub fn ups_count(&self) -> usize {
        self.upses.len()
    }

    /// All UPSes.
    pub fn upses(&self) -> &[Ups] {
        &self.upses
    }

    /// All UPS ids, in ascending order.
    pub fn ups_ids(&self) -> impl Iterator<Item = UpsId> + '_ {
        self.upses.iter().map(|u| u.id)
    }

    /// All PDU-pairs.
    pub fn pdu_pairs(&self) -> &[PduPair] {
        &self.pairs
    }

    /// Looks up a UPS.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownUps`] for a foreign id.
    pub fn ups(&self, id: UpsId) -> Result<&Ups, PowerError> {
        self.upses.get(id.0).ok_or(PowerError::UnknownUps(id.0))
    }

    /// Looks up a PDU-pair.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::UnknownPduPair`] for a foreign id.
    pub fn pdu_pair(&self, id: PduPairId) -> Result<&PduPair, PowerError> {
        self.pairs.get(id.0).ok_or(PowerError::UnknownPduPair(id.0))
    }

    /// Total provisioned power: the sum of all UPS capacities (reserve plus
    /// non-reserve, in the paper's terminology).
    pub fn provisioned_power(&self) -> Watts {
        self.upses.iter().map(|u| u.capacity).sum()
    }

    /// The room's *failover budget*: the sum of the conventional
    /// (non-Flex) per-UPS allocation limits, `capacity × (x−1)/x`, each of
    /// which keeps every single-UPS failover within the survivors' rated
    /// capacity without corrective actions. In a non-Flex room this is the most power that may ever be
    /// allocated; a Flex room allocates up to [`Topology::provisioned_power`]
    /// instead.
    pub fn failover_budget(&self) -> Watts {
        let x = self.ups_count() as f64;
        self.provisioned_power() * ((x - 1.0) / x)
    }

    /// Power reserved (unallocatable) under the conventional policy:
    /// `provisioned − failover_budget`, i.e. `provisioned / x`.
    pub fn reserved_power(&self) -> Watts {
        self.provisioned_power() - self.failover_budget()
    }

    /// The relative server-count increase unlocked by allocating the
    /// reserve: `x/(x−1) − 1` (33% for 4N/3).
    pub fn extra_server_fraction(&self) -> f64 {
        let x = self.ups_count() as f64;
        x / (x - 1.0) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_n_three() -> Topology {
        Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap()
    }

    #[test]
    fn builds_4n3_with_six_pairs() {
        let t = four_n_three();
        assert_eq!(t.ups_count(), 4);
        assert_eq!(t.pdu_pairs().len(), 6);
        // Every UPS feeds exactly 3 pairs.
        for id in t.ups_ids() {
            assert_eq!(t.pdu_pairs().iter().filter(|p| p.is_fed_by(id)).count(), 3);
        }
    }

    #[test]
    fn pairs_cover_all_combinations() {
        let t = four_n_three();
        let mut combos: Vec<(usize, usize)> = t
            .pdu_pairs()
            .iter()
            .map(|p| (p.upstream().0 .0, p.upstream().1 .0))
            .collect();
        combos.sort_unstable();
        assert_eq!(combos, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn multiple_pairs_per_combination() {
        let t = Topology::distributed_redundant_with_pairs(4, Watts::from_mw(2.4), 3).unwrap();
        assert_eq!(t.pdu_pairs().len(), 18);
        for id in t.ups_ids() {
            assert_eq!(t.pdu_pairs().iter().filter(|p| p.is_fed_by(id)).count(), 9);
        }
    }

    #[test]
    fn provisioned_and_reserved_power() {
        let t = four_n_three();
        assert!(t.provisioned_power().approx_eq(Watts::from_mw(9.6), 1e-6));
        assert!(t.failover_budget().approx_eq(Watts::from_mw(7.2), 1e-6));
        assert!(t.reserved_power().approx_eq(Watts::from_mw(2.4), 1e-6));
        assert!((t.extra_server_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn is_fed_by_matches_both_sides() {
        let t = four_n_three();
        let p = &t.pdu_pairs()[0];
        let (a, b) = p.upstream();
        assert!(p.is_fed_by(a) && p.is_fed_by(b));
        assert!(!p.is_fed_by(UpsId(99)));
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = TopologyBuilder::new();
        assert_eq!(
            b.add_ups(Watts::ZERO),
            Err(PowerError::NonPositiveCapacity(0.0))
        );
        let u0 = b.add_ups(Watts::from_kw(100.0)).unwrap();
        assert_eq!(b.add_pdu_pair(u0, u0), Err(PowerError::DegeneratePair(0)));
        assert_eq!(
            b.add_pdu_pair(u0, UpsId(7)),
            Err(PowerError::UnknownUps(7))
        );
        assert!(matches!(b.build(), Err(PowerError::TooFewUpses(1))));
    }

    #[test]
    fn rejects_tiny_designs() {
        assert!(Topology::distributed_redundant(1, Watts::from_kw(1.0)).is_err());
        assert!(Topology::distributed_redundant(0, Watts::from_kw(1.0)).is_err());
    }

    #[test]
    fn lookup_errors_on_foreign_ids() {
        let t = four_n_three();
        assert!(t.ups(UpsId(17)).is_err());
        assert!(t.pdu_pair(PduPairId(17)).is_err());
    }

    #[test]
    fn pair_upstream_is_ordered() {
        let mut b = TopologyBuilder::new();
        let u0 = b.add_ups(Watts::from_kw(1.0)).unwrap();
        let u1 = b.add_ups(Watts::from_kw(1.0)).unwrap();
        let p = b.add_pdu_pair(u1, u0).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.pdu_pair(p).unwrap().upstream(), (u0, u1));
    }
}
