//! The Flex-Offline batch ILP (Section IV-B).
//!
//! For a batch of deployment requests and the room's current state, build
//! and solve the placement MILP:
//!
//! - binaries `P[d][p]` — deployment `d` placed under PDU-pair `p`;
//! - each deployment placed at most once (Equation 1);
//! - per-UPS normal-operation allocated load within capacity, counting
//!   half of each pair's load per feeding UPS (Equation 2);
//! - per-(failover, UPS) post-corrective-action load within capacity,
//!   using `CapPow` (Equations 3–4);
//! - rack-slot space per pair;
//! - objective: maximize total placed power (equivalently minimize
//!   stranded power, Equation 5), minus a small soft penalty on the
//!   spread of throttle-recoverable power across failover scenarios —
//!   the paper's "additional soft constraints" that improve throttling
//!   imbalance (Figure 10).
//!
//! All powers enter the model in **kilowatts** to keep simplex magnitudes
//! well-conditioned.

use std::time::Duration;

use flex_milp::{Model, Relation, Sense, SolveConfig, VarId};
use flex_power::PduPairId;
use flex_workload::{DeploymentRequest, WorkloadCategory};

use crate::RoomState;

/// Relative optimality gap at which a batch solve stops: 0.5%. A
/// project choice; the paper time-limits its solver but states no gap.
const RELATIVE_GAP: f64 = 5e-3;

/// Weight (kW per unit of imbalance spread) of the throttling-balance
/// soft objective. Small enough that balance never displaces a
/// placeable deployment (the smallest is ~72 kW), large enough to break
/// ties toward even throttling needs (Figure 10).
const IMBALANCE_WEIGHT: f64 = 50.0;

/// Tuning for the batch solver.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpConfig {
    /// Wall-clock budget per batch solve.
    pub time_limit: Duration,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            time_limit: Duration::from_secs(5),
        }
    }
}

/// Outcome of one batch solve: assignments plus solver diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// `(deployment index in batch, pair)` for each placed deployment.
    pub assignments: Vec<(usize, PduPairId)>,
    /// Placed power (kW) — the solver objective minus soft terms.
    pub placed_kw: f64,
    /// Whether the solve proved optimality within the gap.
    pub proved_optimal: bool,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: u64,
}

/// Solves the placement ILP for `batch` on top of `state`. Returns the
/// chosen `(deployment index in batch, pair)` assignments; deployments
/// absent from the result are rejected by the caller.
///
/// # Errors
///
/// Propagates solver errors other than infeasibility (an over-committed
/// batch is *expected* — unplaced deployments are simply not selected, so
/// the model itself is always feasible via all-zeros).
pub fn solve_batch(
    state: &RoomState,
    batch: &[DeploymentRequest],
    config: &IlpConfig,
) -> Result<Vec<(usize, PduPairId)>, flex_milp::MilpError> {
    solve_batch_with_stats(state, batch, config).map(|o| o.assignments)
}

/// Like [`solve_batch`], but with *lookahead*: `phantom` deployments
/// represent uncertain forecast demand. They enter the model with their
/// objective discounted by `discount` (< 1), so the solver reserves
/// room for the future without letting it displace certain demand; their
/// assignments are then discarded (only `batch` placements are
/// returned). This implements the horizon extension the paper lists as
/// future work at the end of Section V-A.
///
/// # Errors
///
/// See [`solve_batch`].
///
/// # Panics
///
/// Panics unless `0 < discount < 1`.
pub fn solve_batch_with_lookahead(
    state: &RoomState,
    batch: &[DeploymentRequest],
    phantom: &[DeploymentRequest],
    discount: f64,
    config: &IlpConfig,
) -> Result<Vec<(usize, PduPairId)>, flex_milp::MilpError> {
    assert!(
        discount > 0.0 && discount < 1.0,
        "discount must be in (0, 1)"
    );
    if phantom.is_empty() {
        return solve_batch(state, batch, config);
    }
    // Solve over the concatenation, then keep only real assignments.
    let mut combined: Vec<DeploymentRequest> = batch.to_vec();
    combined.extend_from_slice(phantom);
    let outcome = solve_combined(state, &combined, batch.len(), discount, config)?;
    Ok(outcome
        .assignments
        .into_iter()
        .filter(|&(di, _)| di < batch.len())
        .collect())
}

/// Like [`solve_batch`], returning solver diagnostics as well.
///
/// # Errors
///
/// See [`solve_batch`].
pub fn solve_batch_with_stats(
    state: &RoomState,
    batch: &[DeploymentRequest],
    config: &IlpConfig,
) -> Result<BatchOutcome, flex_milp::MilpError> {
    solve_combined(state, batch, batch.len(), 1.0, config)
}

/// Shared model builder: deployments at index ≥ `real_count` are phantom
/// forecast demand with objective discounted by `discount`.
fn solve_combined(
    state: &RoomState,
    batch: &[DeploymentRequest],
    real_count: usize,
    discount: f64,
    config: &IlpConfig,
) -> Result<BatchOutcome, flex_milp::MilpError> {
    if batch.is_empty() {
        return Ok(BatchOutcome {
            assignments: Vec::new(),
            placed_kw: 0.0,
            proved_optimal: true,
            nodes_explored: 0,
        });
    }
    let topo = state.room().topology().clone();
    let pairs: Vec<PduPairId> = topo.pdu_pairs().iter().map(|p| p.id()).collect();
    let mut model = Model::new(Sense::Maximize);

    // P[d][p] binaries, weighted by the deployment's power (kW).
    let mut p_vars: Vec<Vec<VarId>> = Vec::with_capacity(batch.len());
    for (di, d) in batch.iter().enumerate() {
        let row = pairs
            .iter()
            .map(|p| {
                let weight = if di < real_count { 1.0 } else { discount };
                model.add_binary(format!("P_{di}_{}", p.0), weight * d.total_power().as_kw())
            })
            .collect();
        p_vars.push(row);
    }

    // Equation 1: place each deployment at most once.
    for (di, row) in p_vars.iter().enumerate() {
        model.add_constraint(
            format!("once_{di}"),
            row.iter().map(|&v| (v, 1.0)),
            Relation::Le,
            1.0,
        )?;
    }

    // Space per pair.
    for (pi, p) in pairs.iter().enumerate() {
        model.add_constraint(
            format!("space_{}", p.0),
            batch
                .iter()
                .enumerate()
                .map(|(di, d)| (p_vars[di][pi], d.racks() as f64)),
            Relation::Le,
            state.free_slots(*p) as f64,
        )?;
    }

    // PDU-pair power rating, when the room constrains it.
    if let Some(rating) = state.room().pdu_pair_capacity() {
        for (pi, p) in pairs.iter().enumerate() {
            model.add_constraint(
                format!("pdu_{}", p.0),
                batch
                    .iter()
                    .enumerate()
                    .map(|(di, d)| (p_vars[di][pi], d.total_power().as_kw())),
                Relation::Le,
                (rating - state.pair_allocated(*p)).as_kw(),
            )?;
        }
    }

    // Cooling per pair (Section VI: CFM constraints in production;
    // expressed in thousands of CFM to keep coefficients conditioned).
    for (pi, p) in pairs.iter().enumerate() {
        model.add_constraint(
            format!("cooling_{}", p.0),
            batch
                .iter()
                .enumerate()
                .map(|(di, d)| (p_vars[di][pi], d.cooling_cfm() / 1_000.0)),
            Relation::Le,
            state.free_cooling(*p) / 1_000.0,
        )?;
    }

    // Equation 2: normal-operation load per UPS.
    for u in topo.ups_ids() {
        let cap_kw = topo.ups(u).expect("ups in room").capacity().as_kw();
        let existing = state.ups_allocated(u).as_kw();
        let mut terms = Vec::new();
        for (pi, p) in pairs.iter().enumerate() {
            if !topo.pdu_pair(*p).expect("pair in room").is_fed_by(u) {
                continue;
            }
            for (di, d) in batch.iter().enumerate() {
                terms.push((p_vars[di][pi], 0.5 * d.total_power().as_kw()));
            }
        }
        model.add_constraint(
            format!("eq2_{}", u.0),
            terms,
            Relation::Le,
            cap_kw - existing,
        )?;
    }

    // Equation 4: post-action load per (survivor u, failed f).
    for f in topo.ups_ids() {
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let cap_kw = topo.ups(u).expect("ups in room").capacity().as_kw();
            let existing = state.failover_cap_load(u, f).as_kw();
            let mut terms = Vec::new();
            for (pi, p) in pairs.iter().enumerate() {
                let pair = topo.pdu_pair(*p).expect("pair in room");
                if !pair.is_fed_by(u) {
                    continue;
                }
                let share = if pair.is_fed_by(f) { 1.0 } else { 0.5 };
                for (di, d) in batch.iter().enumerate() {
                    let cap_pow = d.cap_power().as_kw();
                    if cap_pow > 0.0 {
                        terms.push((p_vars[di][pi], share * cap_pow));
                    }
                }
            }
            model.add_constraint(
                format!("eq4_{}_{}", u.0, f.0),
                terms,
                Relation::Le,
                cap_kw - existing,
            )?;
        }
    }

    // Soft throttling balance, min-max form: for each (survivor u,
    // failed f), the *throttling need* surrogate is N(u,f) = (worst-case
    // failover load − shutdown-recoverable SR power) / capacity — only
    // non-software-redundant deployments contribute. A continuous M ≥
    // every N(u,f), and the objective pays `IMBALANCE_WEIGHT` kW per
    // unit of M: minimizing the worst need both evens the Figure 10
    // metric and preserves failover headroom.
    let big_m = model.add_continuous("imb_max", 0.0, 4.0, -IMBALANCE_WEIGHT)?;
    for f in topo.ups_ids() {
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let cap_kw = topo.ups(u).expect("ups in room").capacity().as_kw();
            let existing = (state.failover_full_load(u, f)
                - state.failover_shutdown_recoverable(u, f))
            .as_kw();
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for (pi, p) in pairs.iter().enumerate() {
                let pair = topo.pdu_pair(*p).expect("pair in room");
                if !pair.is_fed_by(u) {
                    continue;
                }
                let share = if pair.is_fed_by(f) { 1.0 } else { 0.5 };
                for (di, d) in batch.iter().enumerate() {
                    if d.category() != WorkloadCategory::SoftwareRedundant {
                        let pow = d.total_power().as_kw();
                        terms.push((p_vars[di][pi], share * pow / cap_kw));
                    }
                }
            }
            // M ≥ existing/cap + Σ terms  ⇔  Σ terms − M ≤ −existing/cap
            let mut up = terms;
            up.push((big_m, -1.0));
            model.add_constraint(
                format!("imbM_{}_{}", u.0, f.0),
                up,
                Relation::Le,
                -existing / cap_kw,
            )?;
        }
    }

    // Warm start: greedy first-fit-decreasing refined by ruin-and-recreate
    // local search. Guarantees the solver returns at least this quality
    // even on a tight time budget, and usually starts near-optimal.
    // Warm-start only over the *real* demand: phantom forecast demand
    // must not be pre-packed at full weight.
    let real = &batch[..real_count];
    let greedy = greedy_assignment(state, real);
    // Multi-start LNS: independent replicas on seeded streams, one
    // `flex_sim::par` worker per core; branch-and-bound below uses the
    // same count. Both outcomes are identical at any thread count (see
    // `lns::refine_parallel` and `SolveConfig::threads`), so solver
    // results stay machine-independent.
    let threads = flex_sim::par::workers();
    let lns_seed = 0x5EED_F1E_Cu64 ^ (batch.len() as u64) << 7;
    let warm = crate::lns::refine_parallel(
        state,
        real,
        &greedy,
        &crate::lns::LnsConfig::default(),
        lns_seed,
        4,
        threads,
    );
    // If local search already placed the entire (pure, no-lookahead)
    // batch, the power objective is at its ceiling and the LNS already
    // minimized the imbalance surrogate — skip the exact solver.
    if warm.len() == batch.len() {
        let placed_kw = batch
            .iter()
            .take(real_count)
            .map(|d| d.total_power().as_kw())
            .sum();
        return Ok(BatchOutcome {
            assignments: warm,
            placed_kw,
            proved_optimal: true,
            nodes_explored: 0,
        });
    }
    let mut warm_values = vec![0.0; model.var_count()];
    for &(di, pair) in &warm {
        let pi = pairs
            .iter()
            .position(|&p| p == pair)
            .expect("greedy uses room pairs");
        warm_values[p_vars[di][pi].index()] = 1.0;
    }
    // Set the min-max auxiliary to the warm-start state's actual
    // worst throttling-need fraction so the start is feasible.
    let mut scratch = state.clone();
    for &(di, pair) in &warm {
        scratch.place(&batch[di], pair);
    }
    let mut max_r: f64 = 0.0;
    for f in topo.ups_ids() {
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let cap = topo.ups(u).expect("ups in room").capacity();
            let r = (scratch.failover_full_load(u, f)
                - scratch.failover_shutdown_recoverable(u, f))
                / cap;
            max_r = max_r.max(r);
        }
    }
    warm_values[big_m.index()] = max_r.clamp(0.0, 4.0);

    let solve_config = SolveConfig {
        time_limit: config.time_limit,
        relative_gap: RELATIVE_GAP,
        threads,
        ..SolveConfig::default()
    };
    let solution = model.solve_with_warm_start(&solve_config, Some(&warm_values))?;

    let mut out = Vec::new();
    let mut placed_kw = 0.0;
    for (di, row) in p_vars.iter().enumerate() {
        for (pi, &v) in row.iter().enumerate() {
            if solution.is_one(v) {
                out.push((di, pairs[pi]));
                if di < real_count {
                    placed_kw += batch[di].total_power().as_kw();
                }
                break;
            }
        }
    }
    Ok(BatchOutcome {
        assignments: out,
        placed_kw,
        proved_optimal: solution.status == flex_milp::SolveStatus::Optimal,
        nodes_explored: solution.nodes_explored,
    })
}

/// First-fit-decreasing greedy placement used as the solver's warm start:
/// deployments in descending power order, each placed under the feasible
/// pair with the most remaining allocated-power headroom (spreading load,
/// which is what the failover constraints reward).
fn greedy_assignment(
    state: &RoomState,
    batch: &[DeploymentRequest],
) -> Vec<(usize, PduPairId)> {
    let mut scratch = state.clone();
    let topo = scratch.room().topology().clone();
    let pairs: Vec<PduPairId> = topo.pdu_pairs().iter().map(|p| p.id()).collect();
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by(|&a, &b| {
        batch[b]
            .total_power()
            .as_w()
            .total_cmp(&batch[a].total_power().as_w())
    });
    let mut out = Vec::new();
    for di in order {
        let d = &batch[di];
        let mut best: Option<(PduPairId, f64)> = None;
        for &p in &pairs {
            if !scratch.fits(d, p) {
                continue;
            }
            // Headroom: how lightly loaded this pair's UPSes are.
            let (a, b) = topo.pdu_pair(p).expect("pair in room").upstream();
            let headroom = [a, b]
                .iter()
                .map(|&u| {
                    let cap = topo.ups(u).expect("ups in room").capacity();
                    (cap - scratch.ups_allocated(u)).as_kw()
                })
                .sum::<f64>();
            match best {
                Some((_, h)) if h >= headroom => {}
                _ => best = Some((p, headroom)),
            }
        }
        if let Some((p, _)) = best {
            scratch.place(d, p);
            out.push((di, p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Room, RoomConfig, RoomState};
    use flex_power::{Fraction, Watts};
    use flex_workload::{DeploymentId, DeploymentRequest};

    fn room() -> Room {
        RoomConfig::paper_placement_room().build().unwrap()
    }

    fn dep(id: usize, cat: WorkloadCategory, racks: usize, kw: f64) -> DeploymentRequest {
        let flex = match cat {
            WorkloadCategory::CapAble => Some(Fraction::new(0.8).unwrap()),
            _ => None,
        };
        DeploymentRequest::new(DeploymentId(id), format!("d{id}"), cat, racks, Watts::from_kw(kw), flex)
            .unwrap()
    }

    #[test]
    fn empty_batch_is_trivial() {
        let r = room();
        let s = RoomState::new(&r);
        let out = solve_batch(&s, &[], &IlpConfig::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_deployment_is_placed() {
        let r = room();
        let s = RoomState::new(&r);
        let batch = vec![dep(0, WorkloadCategory::CapAble, 20, 15.0)];
        let out = solve_batch(&s, &batch, &IlpConfig::default()).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn solution_respects_room_state_feasibility() {
        let r = room();
        let mut s = RoomState::new(&r);
        let batch: Vec<DeploymentRequest> = (0..12)
            .map(|i| {
                let cat = match i % 3 {
                    0 => WorkloadCategory::SoftwareRedundant,
                    1 => WorkloadCategory::CapAble,
                    _ => WorkloadCategory::NonCapAble,
                };
                dep(i, cat, 20, 16.0)
            })
            .collect();
        let out = solve_batch(&s, &batch, &IlpConfig::default()).unwrap();
        // Apply through the independently-checked RoomState.
        for &(di, pair) in &out {
            assert!(s.fits(&batch[di], pair), "ILP chose an unsafe placement");
            s.place(&batch[di], pair);
        }
        assert!(s.verify_safety(&batch).is_empty());
        // 12 × 320 kW = 3.84 MW demand in a 9.6 MW room: all must fit.
        assert_eq!(out.len(), 12, "all deployments should be placed");
    }

    #[test]
    fn overcommitted_batch_places_subset_preferring_power() {
        let r = room();
        let s = RoomState::new(&r);
        // Far more power than the room: the ILP must pick a subset and
        // prefer filling the room densely.
        let batch: Vec<DeploymentRequest> = (0..45)
            .map(|i| {
                let cat = match i % 3 {
                    0 => WorkloadCategory::SoftwareRedundant,
                    1 => WorkloadCategory::CapAble,
                    _ => WorkloadCategory::NonCapAble,
                };
                dep(i, cat, 20, 17.2)
            })
            .collect();
        let config = IlpConfig {
            time_limit: Duration::from_secs(8),
        };
        let out = solve_batch(&s, &batch, &config).unwrap();
        assert!(!out.is_empty());
        let mut state = RoomState::new(&r);
        for &(di, pair) in &out {
            assert!(state.fits(&batch[di], pair));
            state.place(&batch[di], pair);
        }
        // A good packing strands little; require < 15% here (the full
        // evaluation harness measures the paper's < 4%).
        let stranded = state.stranded_power() / r.provisioned_power();
        assert!(stranded < 0.15, "stranded fraction {stranded}");
        assert!(state.verify_safety(&batch).is_empty());
    }

    #[test]
    fn non_capable_only_batch_respects_failover_budget() {
        let r = room();
        let s = RoomState::new(&r);
        // Only non-cap-able workloads: nothing can be shaved, so at most
        // the conventional failover budget (7.2 MW) is placeable.
        let batch: Vec<DeploymentRequest> = (0..40)
            .map(|i| dep(i, WorkloadCategory::NonCapAble, 20, 17.2))
            .collect();
        let config = IlpConfig {
            time_limit: Duration::from_secs(8),
        };
        let out = solve_batch(&s, &batch, &config).unwrap();
        let placed_power: Watts = out.iter().map(|&(di, _)| batch[di].total_power()).sum();
        assert!(
            !placed_power.exceeds(r.failover_budget()),
            "placed {placed_power} exceeds failover budget {}",
            r.failover_budget()
        );
    }
}
