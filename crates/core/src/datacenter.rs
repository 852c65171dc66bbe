//! The high-level `FlexDatacenter` API.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use flex_online::policy::{decide, DecisionInput, DecisionOutcome, PolicyConfig};
use flex_online::{ActionSummary, ImpactRegistry, OnlineError};
use flex_placement::metrics::{stranded_fraction, throttling_imbalance};
use flex_placement::policies::{
    replay, BalancedRoundRobin, FirstFit, FlexOffline, PlacementPolicy, Random,
};
use flex_placement::{PlacedRoom, Placement, Room, RoomConfig, RoomState};
use flex_power::{FeedState, Fraction, PowerError, UpsId, Watts};
use flex_workload::impact::ImpactScenario;
use flex_workload::power_model::RackPowerModel;
use flex_workload::trace::{DemandTrace, TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Errors from the facade API.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlexError {
    /// Building the room failed.
    Power(PowerError),
    /// The requested UPS does not exist.
    UnknownUps(UpsId),
    /// A drill's room utilization is outside `[0, 1]` (or NaN).
    UtilizationOutOfRange(f64),
    /// The online decision policy failed.
    Online(OnlineError),
}

impl fmt::Display for FlexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlexError::Power(e) => write!(f, "power model error: {e}"),
            FlexError::UnknownUps(u) => write!(f, "{u} is not part of this room"),
            FlexError::UtilizationOutOfRange(v) => {
                write!(f, "room utilization {v} is outside [0, 1]")
            }
            FlexError::Online(e) => write!(f, "online policy error: {e}"),
        }
    }
}

impl Error for FlexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlexError::Power(e) => Some(e),
            FlexError::UnknownUps(_) | FlexError::UtilizationOutOfRange(_) => None,
            FlexError::Online(e) => Some(e),
        }
    }
}

impl From<PowerError> for FlexError {
    fn from(e: PowerError) -> Self {
        FlexError::Power(e)
    }
}

impl From<OnlineError> for FlexError {
    fn from(e: OnlineError) -> Self {
        FlexError::Online(e)
    }
}

/// Which placement policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Uniformly random feasible pair.
    Random,
    /// First feasible pair in index order.
    FirstFit,
    /// Per-category round-robin (the guideline-friendly baseline).
    BalancedRoundRobin,
    /// Flex-Offline ILP, ~33% of provisioned power per batch.
    FlexOfflineShort,
    /// Flex-Offline ILP, ~66% per batch.
    FlexOfflineLong,
    /// Flex-Offline ILP over the whole trace.
    FlexOfflineOracle,
}

/// Builder for [`FlexDatacenter`].
#[derive(Debug, Clone)]
pub struct FlexDatacenterBuilder {
    room: RoomConfig,
    policy: PolicyKind,
    seed: u64,
    category_mix: [f64; 3],
    scenario: ImpactScenario,
}

impl Default for FlexDatacenterBuilder {
    fn default() -> Self {
        FlexDatacenterBuilder {
            room: RoomConfig::paper_placement_room(),
            policy: PolicyKind::BalancedRoundRobin,
            seed: 0,
            category_mix: [0.13, 0.56, 0.31],
            scenario: flex_workload::impact::scenarios::realistic_1(),
        }
    }
}

impl FlexDatacenterBuilder {
    /// Sets the room build-out.
    pub fn room(mut self, room: RoomConfig) -> Self {
        self.room = room;
        self
    }

    /// Sets the placement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the random seed for trace generation and placement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the workload category mix (software-redundant, cap-able,
    /// non-cap-able shares).
    pub fn category_mix(mut self, mix: [f64; 3]) -> Self {
        self.category_mix = mix;
        self
    }

    /// Sets the impact scenario used for failover drills.
    pub fn scenario(mut self, scenario: ImpactScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Generates a demand trace, places it, and materializes the room.
    ///
    /// # Errors
    ///
    /// Returns [`FlexError::Power`] if the room configuration is invalid.
    pub fn build(self) -> Result<FlexDatacenter, FlexError> {
        let room = self.room.build()?;
        let trace_config = TraceConfig::microsoft(room.provisioned_power())
            .with_category_mix(self.category_mix);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let trace = TraceGenerator::new(trace_config).generate(&mut rng);
        let placement = match self.policy {
            PolicyKind::Random => Random.place(&room, &trace, &mut rng),
            PolicyKind::FirstFit => FirstFit.place(&room, &trace, &mut rng),
            PolicyKind::BalancedRoundRobin => BalancedRoundRobin.place(&room, &trace, &mut rng),
            PolicyKind::FlexOfflineShort => FlexOffline::short().place(&room, &trace, &mut rng),
            PolicyKind::FlexOfflineLong => FlexOffline::long().place(&room, &trace, &mut rng),
            PolicyKind::FlexOfflineOracle => FlexOffline::oracle().place(&room, &trace, &mut rng),
        };
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        Ok(FlexDatacenter {
            room,
            trace,
            placement,
            placed,
            scenario: self.scenario,
            seed: self.seed,
        })
    }
}

/// Result of a failover war-game.
#[derive(Debug, Clone)]
pub struct FailoverDrill {
    /// The raw Algorithm 1 outcome.
    pub outcome: DecisionOutcome,
    /// Aggregate fractions (Figure 12 units).
    pub summary: ActionSummary,
    /// Power shed by the selected actions.
    pub shed_power: Watts,
}

/// A placed zero-reserved-power room: the main entry point.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct FlexDatacenter {
    room: Room,
    trace: DemandTrace,
    placement: Placement,
    placed: PlacedRoom,
    scenario: ImpactScenario,
    seed: u64,
}

impl FlexDatacenter {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> FlexDatacenterBuilder {
        FlexDatacenterBuilder::default()
    }

    /// The room.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// The generated demand trace.
    pub fn trace(&self) -> &DemandTrace {
        &self.trace
    }

    /// The placement decisions.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The materialized rack-level room.
    pub fn placed(&self) -> &PlacedRoom {
        &self.placed
    }

    /// Replays the placement into a fresh [`RoomState`] (for metrics).
    pub fn room_state(&self) -> RoomState {
        replay(&self.room, &self.trace, &self.placement)
    }

    /// Stranded power as a fraction of provisioned power (Figure 9's
    /// metric).
    pub fn stranded_fraction(&self) -> f64 {
        stranded_fraction(&self.room_state())
    }

    /// Throttling imbalance (Figure 10's metric).
    pub fn throttling_imbalance(&self) -> f64 {
        throttling_imbalance(&self.room_state())
    }

    /// Extra servers deployed beyond the conventional failover budget,
    /// as a fraction of the conventional deployment (up to 33%).
    pub fn extra_capacity_fraction(&self) -> f64 {
        let allocated = self.placed.total_provisioned();
        let budget = self.room.failover_budget();
        (allocated / budget - 1.0).max(0.0)
    }

    /// War-games a single-UPS failover at the given room utilization:
    /// samples rack draws, computes the post-failover UPS loads, and runs
    /// Algorithm 1 with this datacenter's impact scenario.
    ///
    /// # Errors
    ///
    /// Returns [`FlexError::UnknownUps`] for a foreign UPS id,
    /// [`FlexError::UtilizationOutOfRange`] for a utilization outside
    /// `[0, 1]` or NaN, and [`FlexError::Online`] if the decision policy
    /// rejects the room state.
    pub fn decide_failover(&self, failed: UpsId, utilization: f64) -> Result<FailoverDrill, FlexError> {
        let topo = self.room.topology();
        if failed.0 >= topo.ups_count() {
            return Err(FlexError::UnknownUps(failed));
        }
        let utilization = Fraction::new(utilization)
            .map_err(|_| FlexError::UtilizationOutOfRange(utilization))?;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xD121);
        let provisioned: Vec<Watts> = self.placed.racks().iter().map(|r| r.provisioned).collect();
        let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
            &provisioned,
            utilization,
            &mut rng,
        );
        let feed = FeedState::with_failed(topo, [failed]);
        let loads = self.placed.ups_loads(&draws, &feed);
        let ups_power: Vec<Watts> = topo.ups_ids().map(|u| loads.load(u)).collect();
        let registry = ImpactRegistry::from_scenario(
            self.placed
                .racks()
                .iter()
                .map(|r| (r.deployment, r.category)),
            &self.scenario,
        );
        let input = DecisionInput {
            topology: topo,
            racks: self.placed.racks(),
            rack_power: &draws,
            ups_power: &ups_power,
        };
        let outcome = decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default())?;
        let summary = ActionSummary::compute(&outcome.actions, self.placed.racks());
        let shed_power = outcome.actions.iter().map(|a| a.estimated_recovery).sum();
        Ok(FailoverDrill {
            outcome,
            summary,
            shed_power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build() {
        let dc = FlexDatacenter::builder().seed(1).build().unwrap();
        assert!(dc.stranded_fraction() < 0.3);
        assert!(dc.placed().rack_count() > 100);
        assert_eq!(
            dc.placement().assignments.len() + dc.placement().rejected.len(),
            dc.trace().len()
        );
    }

    #[test]
    fn flex_room_exceeds_conventional_budget() {
        let dc = FlexDatacenter::builder()
            .policy(PolicyKind::BalancedRoundRobin)
            .seed(2)
            .build()
            .unwrap();
        assert!(
            dc.extra_capacity_fraction() > 0.1,
            "extra capacity {:.3}",
            dc.extra_capacity_fraction()
        );
        // Cannot exceed the theoretical 33%.
        assert!(dc.extra_capacity_fraction() < 1.0 / 3.0 + 1e-9);
    }

    #[test]
    fn failover_drill_is_safe_at_any_utilization() {
        let dc = FlexDatacenter::builder().seed(3).build().unwrap();
        for util in [0.76, 0.85, 1.0] {
            for ups in dc.room().topology().ups_ids() {
                let drill = dc.decide_failover(ups, util).unwrap();
                assert!(drill.outcome.safe, "unsafe at util {util} failing {ups}");
            }
        }
    }

    #[test]
    fn low_utilization_drill_needs_no_actions() {
        let dc = FlexDatacenter::builder().seed(4).build().unwrap();
        let drill = dc.decide_failover(UpsId(0), 0.5).unwrap();
        assert!(drill.outcome.actions.is_empty());
        assert_eq!(drill.shed_power, Watts::ZERO);
    }

    #[test]
    fn unknown_ups_is_rejected() {
        let dc = FlexDatacenter::builder().seed(5).build().unwrap();
        assert!(matches!(
            dc.decide_failover(UpsId(99), 0.8),
            Err(FlexError::UnknownUps(_))
        ));
    }

    #[test]
    fn utilization_outside_the_unit_range_is_rejected() {
        let dc = FlexDatacenter::builder().seed(5).build().unwrap();
        for util in [f64::NAN, -3.0, f64::INFINITY, 1.5] {
            assert!(
                matches!(
                    dc.decide_failover(UpsId(0), util),
                    Err(FlexError::UtilizationOutOfRange(v)) if v.to_bits() == util.to_bits()
                ),
                "util {util}"
            );
        }
        for util in [0.0, 1.0] {
            assert!(dc.decide_failover(UpsId(0), util).is_ok(), "util {util}");
        }
    }

    #[test]
    fn error_display() {
        let e = FlexError::UnknownUps(UpsId(7));
        assert!(e.to_string().contains("UPS7"));
    }
}
