//! Algorithm 1: the online decision policy.
//!
//! Given the latest UPS and rack power snapshots, select the cheapest set
//! of corrective actions — shutting down software-redundant racks and
//! throttling cap-able racks to their flex power — that brings every
//! in-service UPS below its limit minus a safety buffer. "Cheapest" is
//! judged by the workloads' impact functions: each loop iteration picks
//! one candidate rack per workload, evaluates the workload's impact with
//! that rack added to the affected set, and commits the globally
//! lowest-impact candidate.
//!
//! The controller never learns which device failed; it infers the feed
//! state from the power readings themselves (an out-of-service UPS reads
//! ~0 W), which is sufficient because placement guarantees overdraw can
//! only occur during failover (Section IV-D).

use std::collections::BTreeMap;

use flex_placement::{PlacedRack, RackId};
use flex_power::{PduPairId, Topology, UpsId, Watts};
use flex_workload::{DeploymentId, WorkloadCategory};

use crate::{ImpactRegistry, OnlineError};

/// The two corrective actions (plus restoration, used by the controller
/// after the failover clears).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Power off a software-redundant rack (recovers its whole draw).
    Shutdown,
    /// Cap a cap-able rack at its flex power (recovers draw − flex).
    Throttle,
}

/// One selected corrective action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// The rack acted on.
    pub rack: RackId,
    /// What to do to it.
    pub kind: ActionKind,
    /// Power the policy expects to recover.
    pub estimated_recovery: Watts,
}

/// Policy tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Safety buffer below the UPS limit, as a fraction of capacity
    /// (absorbs estimation error — line 4 of Algorithm 1).
    pub buffer_fraction: f64,
    /// A UPS reading below this fraction of capacity is treated as out
    /// of service for feed-state inference.
    pub failed_threshold_fraction: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            buffer_fraction: 0.02,
            failed_threshold_fraction: 0.02,
        }
    }
}

/// Inputs to one decision.
#[derive(Debug, Clone, Copy)]
pub struct DecisionInput<'a> {
    /// Room power topology.
    pub topology: &'a Topology,
    /// All placed racks (index = [`RackId`]).
    pub racks: &'a [PlacedRack],
    /// Latest per-rack power snapshot (line 3 of Algorithm 1).
    pub rack_power: &'a [Watts],
    /// Latest per-UPS power snapshot (line 2).
    pub ups_power: &'a [Watts],
}

/// The decision result.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionOutcome {
    /// Actions to enforce, in selection order.
    pub actions: Vec<Action>,
    /// False if candidates ran out before every UPS was below its limit
    /// (placement guarantees this never happens at or below 100%
    /// utilization).
    pub safe: bool,
    /// Estimated per-UPS power after all selected actions.
    pub projected_ups_power: Vec<Watts>,
}

/// Aggregate statistics over a decision, in the units of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionSummary {
    /// Acted-on racks as a fraction of all racks.
    pub impacted_fraction: f64,
    /// Shut-down racks as a fraction of all shut-down-able
    /// (software-redundant) racks.
    pub shutdown_fraction: f64,
    /// Throttled racks as a fraction of all throttle-able (cap-able)
    /// racks.
    pub throttled_fraction: f64,
}

impl ActionSummary {
    /// Computes the summary for a set of actions over the room's racks.
    pub fn compute(actions: &[Action], racks: &[PlacedRack]) -> ActionSummary {
        let total = racks.len().max(1);
        let sr_total = racks
            .iter()
            .filter(|r| r.category == WorkloadCategory::SoftwareRedundant)
            .count()
            .max(1);
        let cap_total = racks
            .iter()
            .filter(|r| r.category == WorkloadCategory::CapAble)
            .count()
            .max(1);
        let shutdowns = actions
            .iter()
            .filter(|a| a.kind == ActionKind::Shutdown)
            .count();
        let throttles = actions
            .iter()
            .filter(|a| a.kind == ActionKind::Throttle)
            .count();
        ActionSummary {
            impacted_fraction: actions.len() as f64 / total as f64,
            shutdown_fraction: shutdowns as f64 / sr_total as f64,
            throttled_fraction: throttles as f64 / cap_total as f64,
        }
    }
}

/// Infers which UPSes are in service from their power readings: an
/// out-of-service UPS reads ~0 W. If everything reads ~0 (cold start),
/// all are treated as online.
pub(crate) fn infer_online(
    topology: &Topology,
    ups_power: &[Watts],
    config: &PolicyConfig,
) -> Vec<bool> {
    let mut online: Vec<bool> = topology
        .upses()
        .iter()
        .map(|u| {
            ups_power
                .get(u.id().0)
                .is_some_and(|p| *p > u.capacity() * config.failed_threshold_fraction)
        })
        .collect();
    if online.iter().all(|&b| !b) {
        online.iter_mut().for_each(|b| *b = true);
    }
    online
}

/// How one rack's recovery lands on the UPSes: one share per live
/// upstream feed, so at most two, held inline.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryShares {
    slots: [(UpsId, Watts); 2],
    len: usize,
}

impl RecoveryShares {
    const NONE: RecoveryShares = RecoveryShares {
        slots: [(UpsId(0), Watts::ZERO); 2],
        len: 0,
    };

    fn one(u: UpsId, w: Watts) -> Self {
        RecoveryShares {
            slots: [(u, w), (UpsId(0), Watts::ZERO)],
            len: 1,
        }
    }

    fn as_slice(&self) -> &[(UpsId, Watts)] {
        self.slots.get(..self.len).unwrap_or(&[])
    }

    /// Iterates over the `(UPS, watts)` shares.
    pub fn iter(&self) -> impl Iterator<Item = (UpsId, Watts)> + '_ {
        self.as_slice().iter().copied()
    }

    /// The same shares with every amount negated: load that returns
    /// rather than load that is recovered.
    pub(crate) fn negated(mut self) -> Self {
        for (_, w) in &mut self.slots {
            *w = -*w;
        }
        self
    }
}

impl PartialEq for RecoveryShares {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// How a candidate rack's recovery lands on the UPSes, given inferred
/// feed state.
///
/// # Errors
///
/// Returns [`OnlineError::UnknownPduPair`] if `pair` is not in the
/// topology.
pub(crate) fn recovery_shares(
    topology: &Topology,
    pair: PduPairId,
    online: &[bool],
    recovery: Watts,
) -> Result<RecoveryShares, OnlineError> {
    let (a, b) = topology
        .pdu_pair(pair)
        .map_err(|_| OnlineError::UnknownPduPair(pair))?
        .upstream();
    // A feed absent from the inferred view reads as offline, which
    // routes the recovery to the other side (or drops it) — the same
    // conservative outcome as a genuinely failed UPS.
    let on = |u: UpsId| online.get(u.0).copied().unwrap_or(false);
    Ok(match (on(a), on(b)) {
        (true, true) => RecoveryShares {
            slots: [(a, recovery * 0.5), (b, recovery * 0.5)],
            len: 2,
        },
        (true, false) => RecoveryShares::one(a, recovery),
        (false, true) => RecoveryShares::one(b, recovery),
        (false, false) => RecoveryShares::NONE,
    })
}

/// Runs Algorithm 1.
///
/// `prior_actions` is the controller's action log: racks already acted on
/// are excluded from candidacy and counted toward each workload's
/// affected fraction (`Impact(w, Actions ∪ …)` on line 10).
///
/// # Errors
///
/// Returns [`OnlineError::SnapshotLength`] if the snapshot lengths
/// disagree with the rack/UPS counts, and
/// [`OnlineError::UnknownPduPair`] if a rack references a pair outside
/// the topology. The decision path must never panic (lint rule P1): a
/// controller that dies mid-shed leaves the room to the trip curves.
pub fn decide(
    input: &DecisionInput<'_>,
    prior_actions: &BTreeMap<RackId, ActionKind>,
    registry: &ImpactRegistry,
    config: &PolicyConfig,
) -> Result<DecisionOutcome, OnlineError> {
    if input.racks.len() != input.rack_power.len() {
        return Err(OnlineError::SnapshotLength {
            what: "rack",
            expected: input.racks.len(),
            got: input.rack_power.len(),
        });
    }
    if input.topology.ups_count() != input.ups_power.len() {
        return Err(OnlineError::SnapshotLength {
            what: "UPS",
            expected: input.topology.ups_count(),
            got: input.ups_power.len(),
        });
    }
    let topo = input.topology;
    let online = infer_online(topo, input.ups_power, config);

    // Per-deployment rack totals and already-affected counts.
    let mut totals: BTreeMap<DeploymentId, usize> = BTreeMap::new();
    let mut affected: BTreeMap<DeploymentId, usize> = BTreeMap::new();
    for rack in input.racks {
        *totals.entry(rack.deployment).or_insert(0) += 1;
        if prior_actions.contains_key(&rack.id) {
            *affected.entry(rack.deployment).or_insert(0) += 1;
        }
    }

    let mut projected: Vec<Watts> = input.ups_power.to_vec();
    let mut acted: BTreeMap<RackId, ActionKind> = prior_actions.clone();
    let mut actions: Vec<Action> = Vec::new();

    let is_online = |u: UpsId| online.get(u.0).copied().unwrap_or(false);
    let over_limit = |p: &[Watts]| -> Vec<UpsId> {
        topo.upses()
            .iter()
            .filter(|u| is_online(u.id()))
            .filter(|u| {
                let limit = u.capacity() * (1.0 - config.buffer_fraction);
                p.get(u.id().0).is_some_and(|w| w.exceeds(limit))
            })
            .map(|u| u.id())
            .collect()
    };

    loop {
        let overloaded = over_limit(&projected);
        if overloaded.is_empty() {
            return Ok(DecisionOutcome {
                actions,
                safe: true,
                projected_ups_power: projected,
            });
        }

        // One candidate per workload: its highest-recovery eligible rack.
        struct Candidate {
            rack: RackId,
            deployment: DeploymentId,
            kind: ActionKind,
            recovery: Watts,
            shares: RecoveryShares,
            impact: f64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut best_per_workload: BTreeMap<DeploymentId, (RackId, Watts)> = BTreeMap::new();
        for rack in input.racks {
            if !rack.category.is_actionable() || acted.contains_key(&rack.id) {
                continue;
            }
            let Some(draw) = input.rack_power.get(rack.id.0).copied() else {
                continue;
            };
            let recovery = match rack.category {
                WorkloadCategory::SoftwareRedundant => draw,
                WorkloadCategory::CapAble => (draw - rack.flex_power).clamp_non_negative(),
                // is_actionable() filtered this out; skip defensively
                // rather than panic on the decision path.
                WorkloadCategory::NonCapAble => continue,
            };
            if recovery.as_w() < 1.0 {
                continue; // nothing to recover from this rack
            }
            // Must relieve at least one overloaded UPS.
            let shares = recovery_shares(topo, rack.pdu_pair, &online, recovery)?;
            if !shares
                .iter()
                .any(|(u, w)| overloaded.contains(&u) && w.as_w() > 0.0)
            {
                continue;
            }
            match best_per_workload.get(&rack.deployment) {
                Some((_, best)) if *best >= recovery => {}
                _ => {
                    best_per_workload.insert(rack.deployment, (rack.id, recovery));
                }
            }
        }
        for (&deployment, &(rack_id, recovery)) in &best_per_workload {
            let Some(rack) = input.racks.get(rack_id.0) else {
                continue;
            };
            let kind = if rack.category == WorkloadCategory::SoftwareRedundant {
                ActionKind::Shutdown
            } else {
                ActionKind::Throttle
            };
            let total = totals.get(&deployment).copied().unwrap_or(1);
            let done = affected.get(&deployment).copied().unwrap_or(0);
            let impact = registry.impact(deployment, rack.category, done + 1, total);
            candidates.push(Candidate {
                rack: rack_id,
                deployment,
                kind,
                recovery,
                shares: recovery_shares(topo, rack.pdu_pair, &online, recovery)?,
                impact,
            });
        }
        if candidates.is_empty() {
            // Out of candidates. The buffer is only a soft target: the
            // hard safety line (what placement guarantees, Equation 4)
            // is rated capacity itself.
            let hard_safe = topo
                .upses()
                .iter()
                .filter(|u| is_online(u.id()))
                .all(|u| {
                    projected
                        .get(u.id().0)
                        .is_some_and(|p| !p.exceeds(u.capacity()))
                });
            return Ok(DecisionOutcome {
                actions,
                safe: hard_safe,
                projected_ups_power: projected,
            });
        }

        // Impact-1.0 racks are last resorts: use them only if every
        // candidate is critical.
        let usable: Vec<&Candidate> = {
            let non_critical: Vec<&Candidate> =
                candidates.iter().filter(|c| c.impact < 1.0 - 1e-9).collect();
            if non_critical.is_empty() {
                candidates.iter().collect()
            } else {
                non_critical
            }
        };
        // argmin impact; ties by max recovery, then lowest rack id.
        // `usable` is non-empty here (candidates was checked above and
        // the fallback keeps all of them), but take the panic-free path.
        let Some(chosen) = usable.into_iter().min_by(|a, b| {
            a.impact
                .total_cmp(&b.impact)
                .then(b.recovery.as_w().total_cmp(&a.recovery.as_w()))
                .then(a.rack.cmp(&b.rack))
        }) else {
            return Ok(DecisionOutcome {
                actions,
                safe: false,
                projected_ups_power: projected,
            });
        };

        for (u, w) in chosen.shares.iter() {
            if let Some(slot) = projected.get_mut(u.0) {
                *slot = (*slot - w).clamp_non_negative();
            }
        }
        *affected.entry(chosen.deployment).or_insert(0) += 1;
        acted.insert(chosen.rack, chosen.kind);
        actions.push(Action {
            rack: chosen.rack,
            kind: chosen.kind,
            estimated_recovery: chosen.recovery,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
    use flex_placement::{PlacedRoom, RoomConfig};
    use flex_power::{FeedState, Fraction};
    use flex_workload::impact::scenarios;
    use flex_workload::power_model::RackPowerModel;
    use flex_workload::trace::{TraceConfig, TraceGenerator};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Builds a placed emulation room plus rack draws at `util`, and the
    /// observed UPS powers under the given feed state.
    fn scenario_room(
        util: f64,
        failed: Option<UpsId>,
        seed: u64,
    ) -> (PlacedRoom, Vec<Watts>, Vec<Watts>) {
        let room = RoomConfig::paper_emulation_room().build().unwrap();
        let config = TraceConfig::microsoft(Watts::from_mw(4.8));
        let mut rng = SmallRng::seed_from_u64(seed);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
        let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
            &provisioned,
            Fraction::clamped(util),
            &mut rng,
        );
        let mut feed = FeedState::all_online(room.topology());
        if let Some(f) = failed {
            feed.fail(f).unwrap();
        }
        let ups = placed.ups_loads(&draws, &feed);
        let ups_power: Vec<Watts> = room
            .topology()
            .ups_ids()
            .into_iter()
            .map(|u| ups.load(u))
            .collect();
        (placed, draws, ups_power)
    }

    fn registry_for(placed: &PlacedRoom, scenario_name: &str) -> ImpactRegistry {
        let scenario = scenarios::all()
            .into_iter()
            .find(|s| s.name == scenario_name)
            .unwrap();
        let deployments = placed.racks().iter().map(|r| (r.deployment, r.category));
        ImpactRegistry::from_scenario(deployments, &scenario)
    }

    #[test]
    fn no_overdraw_means_no_actions() {
        let (placed, draws, ups) = scenario_room(0.8, None, 1);
        let input = DecisionInput {
            topology: placed.room().topology(),
            racks: placed.racks(),
            rack_power: &draws,
            ups_power: &ups,
        };
        let registry = registry_for(&placed, "Realistic-1");
        let out = decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default()).unwrap();
        assert!(out.safe);
        assert!(out.actions.is_empty());
    }

    #[test]
    fn failover_at_high_utilization_sheds_below_limits() {
        let (placed, draws, ups) = scenario_room(0.85, Some(UpsId(0)), 2);
        let topo = placed.room().topology();
        // Sanity: there is overdraw to fix.
        assert!(ups.iter().any(|&p| p > Watts::from_mw(1.2)));
        let input = DecisionInput {
            topology: topo,
            racks: placed.racks(),
            rack_power: &draws,
            ups_power: &ups,
        };
        let registry = registry_for(&placed, "Realistic-1");
        let config = PolicyConfig::default();
        let out = decide(&input, &BTreeMap::new(), &registry, &config).unwrap();
        assert!(out.safe, "placement guarantees a safe outcome");
        assert!(!out.actions.is_empty());
        for u in topo.upses() {
            if input.ups_power[u.id().0] > u.capacity() * config.failed_threshold_fraction {
                let limit = u.capacity() * (1.0 - config.buffer_fraction);
                assert!(
                    !out.projected_ups_power[u.id().0].exceeds(limit),
                    "{} projected above limit",
                    u.id()
                );
            }
        }
        // Non-cap-able racks are never touched.
        for a in &out.actions {
            let rack = &placed.racks()[a.rack.0];
            assert_ne!(rack.category, WorkloadCategory::NonCapAble);
            match a.kind {
                ActionKind::Shutdown => {
                    assert_eq!(rack.category, WorkloadCategory::SoftwareRedundant)
                }
                ActionKind::Throttle => assert_eq!(rack.category, WorkloadCategory::CapAble),
            }
        }
    }

    #[test]
    fn extreme_1_prefers_shutdowns_and_extreme_2_throttles() {
        let (placed, draws, ups) = scenario_room(0.85, Some(UpsId(1)), 3);
        let input = DecisionInput {
            topology: placed.room().topology(),
            racks: placed.racks(),
            rack_power: &draws,
            ups_power: &ups,
        };
        let config = PolicyConfig::default();
        let r1 = registry_for(&placed, "Extreme-1");
        let r2 = registry_for(&placed, "Extreme-2");
        let out1 = decide(&input, &BTreeMap::new(), &r1, &config).unwrap();
        let out2 = decide(&input, &BTreeMap::new(), &r2, &config).unwrap();
        let s1 = ActionSummary::compute(&out1.actions, placed.racks());
        let s2 = ActionSummary::compute(&out2.actions, placed.racks());
        assert!(
            s1.shutdown_fraction > s2.shutdown_fraction,
            "Extreme-1 must shut down more: {s1:?} vs {s2:?}"
        );
        assert!(
            s2.throttled_fraction > s1.throttled_fraction,
            "Extreme-2 must throttle more: {s1:?} vs {s2:?}"
        );
        // Shutdowns recover more power per rack, so Extreme-1 impacts
        // fewer racks overall (the Figure 12 observation).
        assert!(
            s1.impacted_fraction <= s2.impacted_fraction + 1e-9,
            "{s1:?} vs {s2:?}"
        );
    }

    #[test]
    fn prior_actions_are_respected_and_idempotent() {
        let (placed, draws, ups) = scenario_room(0.85, Some(UpsId(0)), 4);
        let input = DecisionInput {
            topology: placed.room().topology(),
            racks: placed.racks(),
            rack_power: &draws,
            ups_power: &ups,
        };
        let registry = registry_for(&placed, "Realistic-2");
        let config = PolicyConfig::default();
        let first = decide(&input, &BTreeMap::new(), &registry, &config).unwrap();
        // Feed the same snapshot plus the first decision's log back in:
        // the already-acted racks must not be selected again.
        let log: BTreeMap<RackId, ActionKind> =
            first.actions.iter().map(|a| (a.rack, a.kind)).collect();
        let second = decide(&input, &log, &registry, &config).unwrap();
        for a in &second.actions {
            assert!(!log.contains_key(&a.rack), "rack selected twice");
        }
    }

    #[test]
    fn impossible_demand_reports_unsafe() {
        // A room with only non-cap-able racks can never shed.
        let room = RoomConfig::paper_emulation_room().build().unwrap();
        let trace = TraceConfig::microsoft(Watts::from_mw(4.8))
            .with_category_mix([0.0, 0.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(5);
        let trace = TraceGenerator::new(trace).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        let draws: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
        // Pretend UPS 0 failed with everything at 100%.
        let mut feed = FeedState::all_online(room.topology());
        feed.fail(UpsId(0)).unwrap();
        let loads = placed.ups_loads(&draws, &feed);
        let ups_power: Vec<Watts> = room
            .topology()
            .ups_ids()
            .into_iter()
            .map(|u| loads.load(u))
            .collect();
        // Placement kept it inside the failover budget, so force
        // overdraw by inflating readings.
        let inflated: Vec<Watts> = ups_power.iter().map(|&p| p * 2.0).collect();
        if inflated.iter().any(|p| p.exceeds(Watts::from_mw(1.2))) {
            let input = DecisionInput {
                topology: room.topology(),
                racks: placed.racks(),
                rack_power: &draws,
                ups_power: &inflated,
            };
            let registry = ImpactRegistry::new();
            let out = decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default()).unwrap();
            assert!(!out.safe);
            assert!(out.actions.is_empty());
        }
    }

    #[test]
    fn action_summary_fractions() {
        let (placed, _, _) = scenario_room(0.8, None, 6);
        let sr_rack = placed
            .racks()
            .iter()
            .find(|r| r.category == WorkloadCategory::SoftwareRedundant)
            .unwrap();
        let cap_rack = placed
            .racks()
            .iter()
            .find(|r| r.category == WorkloadCategory::CapAble)
            .unwrap();
        let actions = vec![
            Action {
                rack: sr_rack.id,
                kind: ActionKind::Shutdown,
                estimated_recovery: Watts::from_kw(10.0),
            },
            Action {
                rack: cap_rack.id,
                kind: ActionKind::Throttle,
                estimated_recovery: Watts::from_kw(2.0),
            },
        ];
        let s = ActionSummary::compute(&actions, placed.racks());
        let total = placed.rack_count() as f64;
        assert!((s.impacted_fraction - 2.0 / total).abs() < 1e-12);
        assert!(s.shutdown_fraction > 0.0 && s.throttled_fraction > 0.0);
    }

    #[test]
    fn higher_utilization_impacts_more_racks() {
        let mut impacted = Vec::new();
        for util in [0.76, 0.80, 0.84] {
            let (placed, draws, ups) = scenario_room(util, Some(UpsId(2)), 7);
            let input = DecisionInput {
                topology: placed.room().topology(),
                racks: placed.racks(),
                rack_power: &draws,
                ups_power: &ups,
            };
            let registry = registry_for(&placed, "Realistic-1");
            let out = decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default()).unwrap();
            assert!(out.safe);
            impacted.push(out.actions.len());
        }
        assert!(
            impacted[0] <= impacted[1] && impacted[1] <= impacted[2],
            "impact should grow with utilization: {impacted:?}"
        );
    }
}
