//! Rack-level materialization of a placement, consumed by Flex-Online.

use flex_power::{FeedState, LoadModel, PduPairId, Watts};
use flex_workload::trace::DemandTrace;
use flex_workload::{DeploymentId, WorkloadCategory};

use crate::{Placement, Room};

/// Identifier of a physical rack within one placed room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RackId(pub usize);

impl std::fmt::Display for RackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// One placed rack: its deployment, category, electrical attachment, and
/// power envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedRack {
    /// Room-wide rack id.
    pub id: RackId,
    /// The deployment this rack belongs to.
    pub deployment: DeploymentId,
    /// Workload category (decides which actions are legal).
    pub category: WorkloadCategory,
    /// PDU-pair feeding the rack.
    pub pdu_pair: PduPairId,
    /// Allocated (provisioned) rack power.
    pub provisioned: Watts,
    /// Flex power: the lowest cap installable on this rack (0 for
    /// software-redundant, = provisioned for non-cap-able).
    pub flex_power: Watts,
}

/// A fully materialized room: every accepted deployment expanded into
/// racks, each wired to its PDU-pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedRoom {
    room: Room,
    racks: Vec<PlacedRack>,
}

impl PlacedRoom {
    /// Materializes a placement over its trace.
    ///
    /// # Panics
    ///
    /// Panics if the placement references deployments missing from the
    /// trace (placements from this crate's policies never do).
    pub fn materialize(room: &Room, trace: &DemandTrace, placement: &Placement) -> PlacedRoom {
        let mut racks = Vec::new();
        for &(id, pair) in &placement.assignments {
            let d = trace
                .deployments()
                .iter()
                .find(|d| d.id() == id)
                .expect("placement references trace deployment");
            for _ in 0..d.racks() {
                racks.push(PlacedRack {
                    id: RackId(racks.len()),
                    deployment: id,
                    category: d.category(),
                    pdu_pair: pair,
                    provisioned: d.power_per_rack(),
                    flex_power: d.flex_power_per_rack(),
                });
            }
        }
        PlacedRoom {
            room: room.clone(),
            racks,
        }
    }

    /// The underlying room.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// All racks.
    pub fn racks(&self) -> &[PlacedRack] {
        &self.racks
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// A rack by id.
    pub fn rack(&self, id: RackId) -> Option<&PlacedRack> {
        self.racks.get(id.0)
    }

    /// Racks of one deployment.
    pub fn racks_of_deployment(&self, id: DeploymentId) -> Vec<&PlacedRack> {
        self.racks.iter().filter(|r| r.deployment == id).collect()
    }

    /// Racks of one category.
    pub fn racks_of_category(&self, category: WorkloadCategory) -> Vec<&PlacedRack> {
        self.racks.iter().filter(|r| r.category == category).collect()
    }

    /// Distinct deployments present, in first-rack order.
    pub fn deployments(&self) -> Vec<DeploymentId> {
        let mut seen = Vec::new();
        for r in &self.racks {
            if !seen.contains(&r.deployment) {
                seen.push(r.deployment);
            }
        }
        seen
    }

    /// Total provisioned rack power.
    pub fn total_provisioned(&self) -> Watts {
        self.racks.iter().map(|r| r.provisioned).sum()
    }

    /// Builds a [`LoadModel`] from per-rack power draws (indexed by
    /// [`RackId`]), aggregating onto PDU-pairs.
    ///
    /// # Panics
    ///
    /// Panics if `draws.len()` differs from the rack count.
    pub fn load_model(&self, draws: &[Watts]) -> LoadModel {
        assert_eq!(draws.len(), self.racks.len(), "one draw per rack required");
        let mut model = LoadModel::new(self.room.topology());
        for (rack, &draw) in self.racks.iter().zip(draws) {
            model
                .add_pair_load(rack.pdu_pair, draw)
                .expect("rack pair belongs to topology");
        }
        model
    }

    /// Per-UPS loads for given rack draws under a feed state.
    pub fn ups_loads(&self, draws: &[Watts], feed: &FeedState) -> flex_power::UpsLoads {
        self.load_model(draws).ups_loads(feed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{BalancedRoundRobin, PlacementPolicy};
    use crate::RoomConfig;
    use flex_power::{Fraction, UpsId};
    use flex_workload::trace::{TraceConfig, TraceGenerator};
    use flex_workload::DeploymentRequest;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn placed() -> (PlacedRoom, DemandTrace) {
        let room = RoomConfig::paper_placement_room().build().unwrap();
        let config = TraceConfig::microsoft(Watts::from_mw(9.6));
        let mut rng = SmallRng::seed_from_u64(17);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        (PlacedRoom::materialize(&room, &trace, &placement), trace)
    }

    #[test]
    fn materialization_counts_racks() {
        let (placed, trace) = placed();
        let accepted_racks: usize = trace
            .deployments()
            .iter()
            .filter(|d| placed.deployments().contains(&d.id()))
            .map(|d| d.racks())
            .sum();
        assert_eq!(placed.rack_count(), accepted_racks);
        assert!(placed.rack_count() > 100);
        // Ids are dense.
        for (i, r) in placed.racks().iter().enumerate() {
            assert_eq!(r.id, RackId(i));
        }
    }

    #[test]
    fn rack_power_envelope_by_category() {
        let (placed, _) = placed();
        for r in placed.racks() {
            match r.category {
                WorkloadCategory::SoftwareRedundant => {
                    assert_eq!(r.flex_power, Watts::ZERO)
                }
                WorkloadCategory::CapAble => {
                    assert!(r.flex_power > Watts::ZERO);
                    assert!(r.flex_power < r.provisioned);
                }
                WorkloadCategory::NonCapAble => {
                    assert_eq!(r.flex_power, r.provisioned)
                }
            }
        }
    }

    #[test]
    fn load_model_aggregates_draws() {
        let (placed, _) = placed();
        // Everyone draws 10 kW.
        let draws = vec![Watts::from_kw(10.0); placed.rack_count()];
        let model = placed.load_model(&draws);
        let expected = Watts::from_kw(10.0 * placed.rack_count() as f64);
        assert!(model.total_load().approx_eq(expected, 1e-3));
        // Loads track failovers.
        let topo = placed.room().topology().clone();
        let normal = placed.ups_loads(&draws, &FeedState::all_online(&topo));
        let failed = placed.ups_loads(&draws, &FeedState::with_failed(&topo, [UpsId(0)]));
        assert!(failed.load(UpsId(1)) >= normal.load(UpsId(1)));
    }

    #[test]
    fn lookup_by_deployment_and_category() {
        let (placed, trace) = placed();
        let first = placed.deployments()[0];
        let racks = placed.racks_of_deployment(first);
        let d = trace
            .deployments()
            .iter()
            .find(|d| d.id() == first)
            .unwrap();
        assert_eq!(racks.len(), d.racks());
        assert!(racks.iter().all(|r| r.category == d.category()));
        let by_cat: usize = WorkloadCategory::ALL
            .iter()
            .map(|&c| placed.racks_of_category(c).len())
            .sum();
        assert_eq!(by_cat, placed.rack_count());
    }

    #[test]
    fn empty_placement_materializes_empty() {
        let room = RoomConfig::paper_placement_room().build().unwrap();
        let trace = DemandTrace::from_deployments(vec![DeploymentRequest::new(
            DeploymentId(0),
            "d",
            WorkloadCategory::CapAble,
            5,
            Watts::from_kw(14.4),
            Some(Fraction::new(0.8).unwrap()),
        )
        .unwrap()]);
        let placement = Placement {
            assignments: vec![],
            rejected: vec![DeploymentId(0)],
        };
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        assert_eq!(placed.rack_count(), 0);
        assert_eq!(placed.total_provisioned(), Watts::ZERO);
        assert!(placed.rack(RackId(0)).is_none());
    }
}
