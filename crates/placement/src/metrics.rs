//! The Figure 9/10 evaluation metrics.

use crate::RoomState;

/// Stranded power as a fraction of the room's provisioned power
/// (Equation 5, normalized as in Figure 9). Lower is better.
pub fn stranded_fraction(state: &RoomState) -> f64 {
    state.stranded_power() / state.room().provisioned_power()
}

/// Throttling imbalance (Figure 10). For every failover scenario `f` and
/// surviving UPS `u`, compute the worst-case power that must be recovered
/// **through throttling** — the 100%-utilization failover overdraw that
/// remains after shutting down every software-redundant rack — as a
/// fraction `r(u,f)` of the UPS's capacity. The imbalance is
/// `max r − min r` over all `(u, f)`; 0 means every maintenance event
/// spreads throttling pain evenly. Lower is better.
pub fn throttling_imbalance(state: &RoomState) -> f64 {
    let topo = state.room().topology();
    let mut max_r = f64::NEG_INFINITY;
    let mut min_r = f64::INFINITY;
    for f in topo.ups_ids() {
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let cap = topo.ups(u).expect("ups in room").capacity();
            let full = state.failover_full_load(u, f);
            let sr = state.failover_shutdown_recoverable(u, f);
            let need = (full - cap - sr).clamp_non_negative();
            let r = need / cap;
            max_r = max_r.max(r);
            min_r = min_r.min(r);
        }
    }
    if max_r.is_finite() {
        max_r - min_r
    } else {
        0.0
    }
}

/// Sum over all (survivor, failed) scenarios of the squared throttling
/// need fraction — a smooth surrogate for [`throttling_imbalance`] that
/// local search can descend without plateauing on the max.
pub fn sum_squared_throttling_need(state: &RoomState) -> f64 {
    let topo = state.room().topology();
    let mut sum = 0.0;
    for f in topo.ups_ids() {
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let cap = topo.ups(u).expect("ups in room").capacity();
            let full = state.failover_full_load(u, f);
            let sr = state.failover_shutdown_recoverable(u, f);
            let need = (full - cap - sr).clamp_non_negative() / cap;
            sum += need * need;
        }
    }
    sum
}

/// Sum over all (survivor, failed) scenarios of the squared Equation-4
/// load fraction — the smooth headroom surrogate.
pub fn sum_squared_failover_cap(state: &RoomState) -> f64 {
    let topo = state.room().topology();
    let mut sum = 0.0;
    for f in topo.ups_ids() {
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let cap = topo.ups(u).expect("ups in room").capacity();
            let frac = state.failover_cap_load(u, f) / cap;
            sum += frac * frac;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoomConfig, RoomState};
    use flex_power::{Fraction, Watts};
    use flex_workload::{DeploymentId, DeploymentRequest, WorkloadCategory};

    fn state_with(
        deps: &[(WorkloadCategory, usize, f64, usize)], // (cat, racks, kw, pair index)
    ) -> (RoomState, Vec<DeploymentRequest>) {
        let room = RoomConfig::paper_placement_room().build().unwrap();
        let mut state = RoomState::new(&room);
        let mut trace = Vec::new();
        for (i, &(cat, racks, kw, pair)) in deps.iter().enumerate() {
            let flex = match cat {
                WorkloadCategory::CapAble => Some(Fraction::new(0.5).unwrap()),
                _ => None,
            };
            let d = DeploymentRequest::new(
                DeploymentId(i),
                format!("d{i}"),
                cat,
                racks,
                Watts::from_kw(kw),
                flex,
            )
            .unwrap()
            .with_cfm_per_watt(0.01); // dense test racks: liquid-cooled
            let p = room.topology().pdu_pairs()[pair].id();
            state.place(&d, p);
            trace.push(d);
        }
        (state, trace)
    }

    #[test]
    fn stranded_fraction_of_empty_room_is_one() {
        let room = RoomConfig::paper_placement_room().build().unwrap();
        let state = RoomState::new(&room);
        assert!((stranded_fraction(&state) - 1.0).abs() < 1e-12);
        assert_eq!(throttling_imbalance(&state), 0.0);
    }

    #[test]
    fn balanced_sr_needs_no_throttling() {
        // Modest software-redundant load on every pair: failover overdraw
        // is fully covered by shutdowns, so throttling need is 0
        // everywhere and imbalance is 0.
        let deps: Vec<(WorkloadCategory, usize, f64, usize)> = (0..6)
            .map(|p| (WorkloadCategory::SoftwareRedundant, 20, 16.0, p))
            .collect();
        let (state, _) = state_with(&deps);
        assert_eq!(throttling_imbalance(&state), 0.0);
    }

    #[test]
    fn unbalanced_capable_creates_imbalance() {
        // Heavy cap-able demand concentrated on UPS 0's pairs: failover
        // of UPS 1 overloads UPS 0 (full 2.4 MW from the shared pair plus
        // half of the other), requiring throttling there but nowhere
        // else -> nonzero imbalance. Pairs: idx 0 = (0,1), idx 1 = (0,2).
        let deps = vec![
            (WorkloadCategory::CapAble, 60, 40.0, 0), // 2.4 MW on (0,1)
            (WorkloadCategory::CapAble, 60, 40.0, 1), // 2.4 MW on (0,2)
        ];
        let (state, _) = state_with(&deps);
        let imb = throttling_imbalance(&state);
        // Failover of UPS 1: UPS 0 carries 2.4 + 1.2 = 3.6 MW full load,
        // 1.2 MW above capacity with no SR to shut down: r = 0.5.
        assert!((imb - 0.5).abs() < 1e-9, "imbalance {imb} (min need is 0)");
    }

    #[test]
    fn spreading_capable_reduces_imbalance() {
        let concentrated = vec![
            (WorkloadCategory::CapAble, 60, 40.0, 0),
            (WorkloadCategory::CapAble, 60, 40.0, 1),
        ];
        // The same 4.8 MW spread evenly over all six pairs.
        let spread: Vec<(WorkloadCategory, usize, f64, usize)> = (0..6)
            .map(|p| (WorkloadCategory::CapAble, 20, 40.0, p))
            .collect();
        let (s_conc, _) = state_with(&concentrated);
        let (s_spread, _) = state_with(&spread);
        assert!(
            throttling_imbalance(&s_spread) < throttling_imbalance(&s_conc),
            "spreading must reduce imbalance: {} vs {}",
            throttling_imbalance(&s_spread),
            throttling_imbalance(&s_conc)
        );
    }
}
