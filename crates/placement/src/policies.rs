//! The placement policies evaluated in Section V-A.

use rand::Rng;

use flex_power::PduPairId;
use flex_workload::trace::DemandTrace;
use flex_workload::{DeploymentRequest, WorkloadCategory};

use crate::ilp::{solve_batch, IlpConfig};
use crate::{Placement, Room, RoomState};

/// A placement policy: assign PDU-pairs to a trace of deployment requests
/// under the Flex safety constraints.
pub trait PlacementPolicy {
    /// The policy's display name (as used in Figures 9/10).
    fn name(&self) -> &str;

    /// Places the trace into the room. Deployments that cannot be placed
    /// safely are rejected.
    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, rng: &mut R) -> Placement;
}

/// Places one deployment at a time under a uniformly random *feasible*
/// PDU-pair. The paper's naive baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Random;

impl PlacementPolicy for Random {
    fn name(&self) -> &str {
        "Random"
    }

    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, rng: &mut R) -> Placement {
        let mut state = RoomState::new(room);
        let pairs: Vec<PduPairId> = room.topology().pdu_pairs().iter().map(|p| p.id()).collect();
        for d in trace.deployments() {
            let feasible: Vec<PduPairId> =
                pairs.iter().copied().filter(|&p| state.fits(d, p)).collect();
            if feasible.is_empty() {
                state.reject(d.id());
            } else {
                let choice = feasible[rng.gen_range(0..feasible.len())];
                state.place(d, choice);
            }
        }
        state.into_placement()
    }
}

/// Places each deployment under the first feasible pair in index order.
/// The most common policy in real datacenters; the paper notes it
/// *concentrates* rather than spreads load, which is exactly wrong for
/// Flex — included here as an ablation baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &str {
        "First-Fit"
    }

    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, _rng: &mut R) -> Placement {
        let mut state = RoomState::new(room);
        let pairs: Vec<PduPairId> = room.topology().pdu_pairs().iter().map(|p| p.id()).collect();
        for d in trace.deployments() {
            match pairs.iter().copied().find(|&p| state.fits(d, p)) {
                Some(p) => state.place(d, p),
                None => state.reject(d.id()),
            }
        }
        state.into_placement()
    }
}

/// Round-robins each workload *category* across the PDU-pairs, roughly
/// balancing shave-able and non-shave-able demand under every UPS — the
/// simple guideline-friendly policy of Section V-A.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedRoundRobin;

impl PlacementPolicy for BalancedRoundRobin {
    fn name(&self) -> &str {
        "Balanced Round-Robin"
    }

    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, _rng: &mut R) -> Placement {
        let mut state = RoomState::new(room);
        let pairs: Vec<PduPairId> = room.topology().pdu_pairs().iter().map(|p| p.id()).collect();
        let mut cursor = [0usize; 3];
        let idx_of = |c: WorkloadCategory| {
            WorkloadCategory::ALL
                .iter()
                .position(|&x| x == c)
                .expect("category is one of three")
        };
        for d in trace.deployments() {
            let ci = idx_of(d.category());
            let start = cursor[ci];
            let mut placed = false;
            for k in 0..pairs.len() {
                let p = pairs[(start + k) % pairs.len()];
                if state.fits(d, p) {
                    state.place(d, p);
                    cursor[ci] = (start + k + 1) % pairs.len();
                    placed = true;
                    break;
                }
            }
            if !placed {
                state.reject(d.id());
            }
        }
        state.into_placement()
    }
}

/// Flex-Offline: batches the demand horizon and solves the placement ILP
/// per batch (Section IV-B). The batch size — as a fraction of the room's
/// provisioned power — distinguishes the paper's variants:
/// Short (≈33%), Long (≈66%), and Oracle (the whole trace at once).
#[derive(Debug, Clone)]
pub struct FlexOffline {
    name: String,
    /// Batch size as a fraction of provisioned power; `f64::INFINITY`
    /// batches the entire trace (Oracle).
    batch_fraction: f64,
    config: IlpConfig,
}

impl FlexOffline {
    /// Flex-Offline-Short: ≈33% of provisioned power per batch.
    pub fn short() -> Self {
        FlexOffline {
            name: "Flex-Offline-Short".into(),
            batch_fraction: 0.33,
            config: IlpConfig::default(),
        }
    }

    /// Flex-Offline-Long: ≈66% of provisioned power per batch.
    pub fn long() -> Self {
        FlexOffline {
            name: "Flex-Offline-Long".into(),
            batch_fraction: 0.66,
            config: IlpConfig::default(),
        }
    }

    /// Flex-Offline-Oracle: the entire trace in one batch.
    pub fn oracle() -> Self {
        FlexOffline {
            name: "Flex-Offline-Oracle".into(),
            batch_fraction: f64::INFINITY,
            config: IlpConfig::default(),
        }
    }

    /// Overrides the per-batch solver configuration.
    pub fn with_config(mut self, config: IlpConfig) -> Self {
        self.config = config;
        self
    }
}

/// Splits a trace, in arrival order, into batches that each close once
/// their cumulative power reaches `batch_fraction` of the room's
/// provisioned power (the last batch may fall short); an infinite
/// fraction gives one batch. The batching of every Flex-Offline variant.
pub(crate) fn power_batches(
    room: &Room,
    trace: &DemandTrace,
    batch_fraction: f64,
) -> Vec<Vec<DeploymentRequest>> {
    let threshold = room.provisioned_power() * batch_fraction.min(1e9);
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut acc = flex_power::Watts::ZERO;
    for d in trace.deployments() {
        current.push(d.clone());
        acc += d.total_power();
        if acc >= threshold {
            out.push(std::mem::take(&mut current));
            acc = flex_power::Watts::ZERO;
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Commits one batch's solve: places each chosen deployment that still
/// fits (trust but verify: the ILP and `RoomState` must agree) and
/// rejects the rest of the batch.
pub(crate) fn commit_batch(
    state: &mut RoomState,
    batch: &[DeploymentRequest],
    chosen: Vec<(usize, PduPairId)>,
) {
    let mut placed = vec![false; batch.len()];
    for (di, pair) in chosen {
        if state.fits(&batch[di], pair) {
            state.place(&batch[di], pair);
            placed[di] = true;
        }
    }
    for (d, was_placed) in batch.iter().zip(placed) {
        if !was_placed {
            state.reject(d.id());
        }
    }
}

/// Power-neutral rebalancing after the last batch: 2,500 relocation
/// moves that even out the worst-case failover loads (the paper's soft
/// constraints that improve throttling imbalance, Figure 10).
pub(crate) fn rebalance_placed<R: Rng + ?Sized>(
    state: &mut RoomState,
    trace: &DemandTrace,
    rng: &mut R,
) {
    crate::lns::rebalance(
        state,
        |id| {
            trace
                .deployments()
                .iter()
                .find(|d| d.id() == id)
                .expect("assignment references trace deployment")
        },
        2500,
        rng,
    );
}

impl PlacementPolicy for FlexOffline {
    fn name(&self) -> &str {
        &self.name
    }

    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, rng: &mut R) -> Placement {
        let mut state = RoomState::new(room);
        for batch in power_batches(room, trace, self.batch_fraction) {
            // A failed solve (time limit with nothing feasible)
            // degenerates to rejecting the batch.
            let chosen = solve_batch(&state, &batch, &self.config).unwrap_or_default();
            commit_batch(&mut state, &batch, chosen);
        }
        rebalance_placed(&mut state, trace, rng);
        state.into_placement()
    }
}

/// Availability-unaware baselines from the paper's related work.
///
/// - [`Baseline::cap_maestro_like`] models CapMaestro (Li et al., HPCA
///   2019), the only prior system using reserved power for more servers:
///   it throttles by priority but **never shuts workloads down** and does
///   not use availability in placement. We model it by treating
///   software-redundant deployments as merely cap-able (throttleable to a
///   flex floor, never to zero), which limits how much of the reserve the
///   failover constraints let it use.
/// - [`Baseline::conventional`] models a classic reserved-power room:
///   nothing can be shaved at all (every deployment treated as
///   non-cap-able), so Equation 4 pins the allocation at the failover
///   budget.
///
/// Both reuse the full Flex-Offline ILP machinery on the transformed
/// trace, so the comparison isolates *availability awareness*, not solver
/// quality.
#[derive(Debug, Clone)]
pub struct Baseline {
    name: String,
    transform: fn(&DeploymentRequest) -> DeploymentRequest,
    inner: FlexOffline,
}

impl Baseline {
    /// The CapMaestro-like baseline: software-redundant workloads are
    /// throttled (to a 0.75 flex floor) instead of shut down.
    pub fn cap_maestro_like() -> Self {
        fn transform(d: &DeploymentRequest) -> DeploymentRequest {
            match d.category() {
                WorkloadCategory::SoftwareRedundant => DeploymentRequest::new(
                    d.id(),
                    d.name(),
                    WorkloadCategory::CapAble,
                    d.racks(),
                    d.power_per_rack(),
                    Some(flex_power::Fraction::clamped(0.75)),
                )
                .expect("transformed deployment is valid")
                .with_cfm_per_watt(d.cfm_per_watt()),
                _ => d.clone(),
            }
        }
        Baseline {
            name: "CapMaestro-like".into(),
            transform,
            inner: FlexOffline::short(),
        }
    }

    /// The conventional reserved-power baseline: nothing is shave-able.
    pub fn conventional() -> Self {
        fn transform(d: &DeploymentRequest) -> DeploymentRequest {
            DeploymentRequest::new(
                d.id(),
                d.name(),
                WorkloadCategory::NonCapAble,
                d.racks(),
                d.power_per_rack(),
                None,
            )
            .expect("transformed deployment is valid")
            .with_cfm_per_watt(d.cfm_per_watt())
        }
        Baseline {
            name: "Conventional (reserved power)".into(),
            transform,
            inner: FlexOffline::short(),
        }
    }

    /// Overrides the inner solver configuration.
    pub fn with_config(mut self, config: IlpConfig) -> Self {
        self.inner = self.inner.with_config(config);
        self
    }
}

impl PlacementPolicy for Baseline {
    fn name(&self) -> &str {
        &self.name
    }

    fn place<R: Rng + ?Sized>(&self, room: &Room, trace: &DemandTrace, rng: &mut R) -> Placement {
        let transformed = DemandTrace::from_deployments(
            trace.deployments().iter().map(self.transform).collect(),
        );
        self.inner.place(room, &transformed, rng)
    }
}

/// Replays a placement onto a fresh [`RoomState`] (for metric
/// computation).
///
/// # Panics
///
/// Panics if the placement references deployments missing from the trace
/// or is unsafe — placements produced by the policies in this module
/// never are.
pub fn replay(room: &Room, trace: &DemandTrace, placement: &Placement) -> RoomState {
    let mut state = RoomState::new(room);
    for &(id, pair) in &placement.assignments {
        let d = trace
            .deployments()
            .iter()
            .find(|d| d.id() == id)
            .expect("placement references trace deployment");
        state.place(d, pair);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoomConfig;
    use flex_power::Watts;
    use flex_workload::trace::{TraceConfig, TraceGenerator};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn room() -> Room {
        RoomConfig::paper_placement_room().build().unwrap()
    }

    fn trace(seed: u64) -> DemandTrace {
        let config = TraceConfig::microsoft(Watts::from_mw(9.6));
        let mut rng = SmallRng::seed_from_u64(seed);
        TraceGenerator::new(config).generate(&mut rng)
    }

    fn check_policy<P: PlacementPolicy>(policy: P, seed: u64) -> (f64, usize) {
        let room = room();
        let t = trace(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let placement = policy.place(&room, &t, &mut rng);
        let state = replay(&room, &t, &placement);
        let violations = state.verify_safety(t.deployments());
        assert!(
            violations.is_empty(),
            "{} produced unsafe placement: {violations:?}",
            policy.name()
        );
        // Every deployment is either assigned or rejected, never both.
        assert_eq!(
            placement.assignments.len() + placement.rejected.len(),
            t.len(),
            "{}: accounting mismatch",
            policy.name()
        );
        let stranded = state.stranded_power() / room.provisioned_power();
        (stranded, placement.assignments.len())
    }

    #[test]
    fn random_is_safe_and_places_most_power() {
        let (stranded, accepted) = check_policy(Random, 1);
        assert!(stranded < 0.25, "stranded {stranded}");
        assert!(accepted > 10);
    }

    #[test]
    fn first_fit_is_safe() {
        let (stranded, _) = check_policy(FirstFit, 2);
        assert!(stranded < 0.4, "stranded {stranded}");
    }

    #[test]
    fn balanced_round_robin_is_safe() {
        let (stranded, _) = check_policy(BalancedRoundRobin, 3);
        assert!(stranded < 0.2, "stranded {stranded}");
    }

    #[test]
    fn flex_offline_short_beats_simple_policies() {
        let room = room();
        let t = trace(4);
        let mut rng = SmallRng::seed_from_u64(99);
        let brr = replay(&room, &t, &BalancedRoundRobin.place(&room, &t, &mut rng));
        let flex = replay(&room, &t, &FlexOffline::short().place(&room, &t, &mut rng));
        let s_brr = brr.stranded_power() / room.provisioned_power();
        let s_flex = flex.stranded_power() / room.provisioned_power();
        // The paper's 27%-better claim is about medians across traces
        // (the fig09 harness measures that); on a single trace BRR can
        // get lucky, so only require Flex-Offline to be competitive.
        assert!(
            s_flex <= s_brr + 0.02,
            "Flex-Offline ({s_flex}) far worse than BRR ({s_brr})"
        );
        assert!(s_flex < 0.08, "Flex-Offline-Short stranded {s_flex}");
    }

    #[test]
    fn oracle_batches_whole_trace() {
        let room = room();
        let t = trace(5);
        let oracle = FlexOffline::oracle();
        let batches = power_batches(&room, &t, oracle.batch_fraction);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), t.len());
        let short = FlexOffline::short();
        let short_batches = power_batches(&room, &t, short.batch_fraction);
        assert!(short_batches.len() >= 3, "short horizon must batch");
        let total: usize = short_batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn policy_names() {
        assert_eq!(Random.name(), "Random");
        assert_eq!(FirstFit.name(), "First-Fit");
        assert_eq!(BalancedRoundRobin.name(), "Balanced Round-Robin");
        assert_eq!(FlexOffline::short().name(), "Flex-Offline-Short");
        assert_eq!(FlexOffline::long().name(), "Flex-Offline-Long");
        assert_eq!(FlexOffline::oracle().name(), "Flex-Offline-Oracle");
    }
}
