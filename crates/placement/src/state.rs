//! Incremental placement state shared by all policies.
//!
//! [`RoomState`] tracks, per PDU-pair and per UPS, the allocated power
//! (`Pow`, Equation 2), the post-corrective-action power (`CapPow`,
//! Equations 3/4), and the throttle-recoverable power, so that checking
//! whether one more deployment fits under a pair costs O(x) where x is the
//! UPS count.

use flex_power::{PduPairId, UpsId, Watts};
use flex_workload::{DeploymentId, DeploymentRequest, WorkloadCategory};

use crate::Room;

/// The outcome of running a placement policy over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Accepted deployments and their chosen PDU-pair.
    pub assignments: Vec<(DeploymentId, PduPairId)>,
    /// Deployments that could not be placed (routed to other rooms).
    pub rejected: Vec<DeploymentId>,
}

/// Mutable placement state over a room.
#[derive(Debug, Clone)]
pub struct RoomState {
    room: Room,
    /// Remaining rack slots per pair.
    free_slots: Vec<usize>,
    /// Remaining cooling airflow (CFM) per pair.
    free_cooling: Vec<f64>,
    /// Allocated (`Pow`) power per pair.
    pair_alloc: Vec<Watts>,
    /// Normal-operation allocated load per UPS (half of each pair).
    ups_normal: Vec<Watts>,
    /// Post-action (`CapPow`) load per UPS under normal split.
    cap_normal: Vec<Watts>,
    /// `cap_shared[u][f]`: extra `CapPow` that UPS `u` absorbs when UPS
    /// `f` fails (half the CapPow of every pair bridging u and f).
    cap_shared: Vec<Vec<Watts>>,
    /// Shutdown-recoverable (software-redundant) analogues.
    sr_normal: Vec<Watts>,
    sr_shared: Vec<Vec<Watts>>,
    /// Full allocated-load analogues for failover at 100% utilization.
    full_shared: Vec<Vec<Watts>>,
    assignments: Vec<(DeploymentId, PduPairId)>,
    rejected: Vec<DeploymentId>,
}

impl RoomState {
    /// An empty state over a room.
    pub fn new(room: &Room) -> Self {
        let pairs = room.topology().pdu_pairs().len();
        let upses = room.topology().ups_count();
        let free_slots = room
            .topology()
            .pdu_pairs()
            .iter()
            .map(|p| room.slots_of_pair(p.id()))
            .collect();
        let free_cooling = room
            .topology()
            .pdu_pairs()
            .iter()
            .map(|p| room.cooling_of_pair(p.id()))
            .collect();
        RoomState {
            room: room.clone(),
            free_slots,
            free_cooling,
            pair_alloc: vec![Watts::ZERO; pairs],
            ups_normal: vec![Watts::ZERO; upses],
            cap_normal: vec![Watts::ZERO; upses],
            cap_shared: vec![vec![Watts::ZERO; upses]; upses],
            sr_normal: vec![Watts::ZERO; upses],
            sr_shared: vec![vec![Watts::ZERO; upses]; upses],
            full_shared: vec![vec![Watts::ZERO; upses]; upses],
            assignments: Vec::new(),
            rejected: Vec::new(),
        }
    }

    /// The room being filled.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// Remaining rack slots under a pair.
    pub fn free_slots(&self, pair: PduPairId) -> usize {
        self.free_slots[pair.0]
    }

    /// Remaining cooling airflow (CFM) under a pair.
    pub fn free_cooling(&self, pair: PduPairId) -> f64 {
        self.free_cooling[pair.0]
    }

    /// Allocated power under a pair.
    pub fn pair_allocated(&self, pair: PduPairId) -> Watts {
        self.pair_alloc[pair.0]
    }

    /// Normal-operation allocated load on a UPS (Equation 2 LHS).
    pub fn ups_allocated(&self, ups: UpsId) -> Watts {
        self.ups_normal[ups.0]
    }

    /// Total allocated power in the room.
    pub fn total_allocated(&self) -> Watts {
        self.pair_alloc.iter().sum()
    }

    /// Stranded power (Equation 5): provisioned minus allocated.
    pub fn stranded_power(&self) -> Watts {
        (self.room.provisioned_power() - self.total_allocated()).clamp_non_negative()
    }

    /// Post-corrective-action load on `ups` when `failed` is out
    /// (Equation 4 LHS).
    pub fn failover_cap_load(&self, ups: UpsId, failed: UpsId) -> Watts {
        self.cap_normal[ups.0] + self.cap_shared[ups.0][failed.0]
    }

    /// Full allocated load on `ups` when `failed` is out (worst-case
    /// 100% utilization, before corrective actions).
    pub fn failover_full_load(&self, ups: UpsId, failed: UpsId) -> Watts {
        self.ups_normal[ups.0] + self.full_shared[ups.0][failed.0]
    }

    /// Shutdown-recoverable (software-redundant) power on `ups` during
    /// failover of `failed`.
    pub fn failover_shutdown_recoverable(&self, ups: UpsId, failed: UpsId) -> Watts {
        self.sr_normal[ups.0] + self.sr_shared[ups.0][failed.0]
    }

    /// Whether placing `d` under `pair` keeps the room safe: enough rack
    /// slots, Equation 2 on both feeding UPSes, and Equation 4 for every
    /// failover scenario.
    pub fn fits(&self, d: &DeploymentRequest, pair: PduPairId) -> bool {
        if self.free_slots[pair.0] < d.racks() {
            return false;
        }
        if d.cooling_cfm() > self.free_cooling[pair.0] + 1e-6 {
            return false;
        }
        if let Some(rating) = self.room.pdu_pair_capacity() {
            if (self.pair_alloc[pair.0] + d.total_power()).exceeds(rating) {
                return false;
            }
        }
        let topo = self.room.topology();
        let (a, b) = topo
            .pdu_pair(pair)
            .expect("pair belongs to room")
            .upstream();
        let pow_half = d.total_power() * 0.5;
        let cap_half = d.cap_power() * 0.5;
        // Equation 2: normal operation on both feeding UPSes.
        for u in [a, b] {
            let cap_u = topo.ups(u).expect("ups belongs to room").capacity();
            if (self.ups_normal[u.0] + pow_half).exceeds(cap_u) {
                return false;
            }
        }
        // Equation 4: every failover scenario f, on every surviving UPS.
        // Only the two feeding UPSes' loads change, so checking (u, f)
        // for u in {a, b} and all f ≠ u suffices.
        for u in [a, b] {
            let cap_u = topo.ups(u).expect("ups belongs to room").capacity();
            let partner = if u == a { b } else { a };
            for f in topo.ups_ids() {
                if f == u {
                    continue;
                }
                let extra = if f == partner {
                    cap_half + cap_half // carries the pair's full CapPow
                } else {
                    cap_half
                };
                let load = self.cap_normal[u.0] + self.cap_shared[u.0][f.0] + extra;
                if load.exceeds(cap_u) {
                    return false;
                }
            }
        }
        true
    }

    /// Places a deployment under a pair, updating all accounting.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not fit — call [`RoomState::fits`]
    /// first (policies always do).
    pub fn place(&mut self, d: &DeploymentRequest, pair: PduPairId) {
        assert!(self.fits(d, pair), "placement of {} under {pair} does not fit", d.id());
        let topo = self.room.topology();
        let (a, b) = topo
            .pdu_pair(pair)
            .expect("pair belongs to room")
            .upstream();
        let pow = d.total_power();
        let cap = d.cap_power();
        let sr = if d.category() == WorkloadCategory::SoftwareRedundant {
            pow
        } else {
            Watts::ZERO
        };
        self.free_slots[pair.0] -= d.racks();
        self.free_cooling[pair.0] -= d.cooling_cfm();
        self.pair_alloc[pair.0] += pow;
        for (u, f) in [(a, b), (b, a)] {
            self.ups_normal[u.0] += pow * 0.5;
            self.cap_normal[u.0] += cap * 0.5;
            self.cap_shared[u.0][f.0] += cap * 0.5;
            self.sr_normal[u.0] += sr * 0.5;
            self.sr_shared[u.0][f.0] += sr * 0.5;
            self.full_shared[u.0][f.0] += pow * 0.5;
        }
        self.assignments.push((d.id(), pair));
    }

    /// Removes a previously placed deployment (decommissioning, or a
    /// local-search "ruin" step), exactly reversing [`RoomState::place`].
    ///
    /// # Panics
    ///
    /// Panics if `(d.id(), pair)` is not among the current assignments.
    pub fn unplace(&mut self, d: &DeploymentRequest, pair: PduPairId) {
        let pos = self
            .assignments
            .iter()
            .position(|&(id, p)| id == d.id() && p == pair)
            .expect("unplace requires an existing assignment");
        self.assignments.swap_remove(pos);
        let topo = self.room.topology();
        let (a, b) = topo
            .pdu_pair(pair)
            .expect("pair belongs to room")
            .upstream();
        let pow = d.total_power();
        let cap = d.cap_power();
        let sr = if d.category() == WorkloadCategory::SoftwareRedundant {
            pow
        } else {
            Watts::ZERO
        };
        self.free_slots[pair.0] += d.racks();
        self.free_cooling[pair.0] += d.cooling_cfm();
        self.pair_alloc[pair.0] -= pow;
        for (u, f) in [(a, b), (b, a)] {
            self.ups_normal[u.0] -= pow * 0.5;
            self.cap_normal[u.0] -= cap * 0.5;
            self.cap_shared[u.0][f.0] -= cap * 0.5;
            self.sr_normal[u.0] -= sr * 0.5;
            self.sr_shared[u.0][f.0] -= sr * 0.5;
            self.full_shared[u.0][f.0] -= pow * 0.5;
        }
    }

    /// Records a deployment as rejected (no feasible pair).
    pub fn reject(&mut self, id: DeploymentId) {
        self.rejected.push(id);
    }

    /// Finalizes into a [`Placement`].
    pub fn into_placement(self) -> Placement {
        Placement {
            assignments: self.assignments,
            rejected: self.rejected,
        }
    }

    /// The assignments so far.
    pub fn assignments(&self) -> &[(DeploymentId, PduPairId)] {
        &self.assignments
    }

    /// Verifies every safety constraint of the current state from
    /// scratch; returns human-readable violations (empty = safe). This is
    /// the independent checker used by tests — it does not reuse the
    /// incremental sums.
    pub fn verify_safety(&self, trace: &[DeploymentRequest]) -> Vec<String> {
        let topo = self.room.topology();
        let mut violations = Vec::new();
        let by_id = |id: DeploymentId| {
            trace
                .iter()
                .find(|d| d.id() == id)
                .expect("assignment references trace deployment")
        };
        // Recompute from assignments.
        let upses = topo.ups_count();
        let mut normal = vec![Watts::ZERO; upses];
        let mut cap_load = vec![vec![Watts::ZERO; upses]; upses]; // [u][f]
        let mut slots_used = vec![0usize; topo.pdu_pairs().len()];
        let mut cooling_used = vec![0.0f64; topo.pdu_pairs().len()];
        for &(id, pair) in &self.assignments {
            let d = by_id(id);
            let (a, b) = topo.pdu_pair(pair).expect("pair in room").upstream();
            slots_used[pair.0] += d.racks();
            cooling_used[pair.0] += d.cooling_cfm();
            for u in [a, b] {
                normal[u.0] += d.total_power() * 0.5;
            }
            for f in topo.ups_ids() {
                for u in [a, b] {
                    if u == f {
                        continue;
                    }
                    let share = if (f == a || f == b) && u != f {
                        d.cap_power() // survivor carries the whole pair
                    } else {
                        d.cap_power() * 0.5
                    };
                    cap_load[u.0][f.0] += share;
                }
            }
        }
        for p in topo.pdu_pairs() {
            let cap = self.room.slots_of_pair(p.id());
            if slots_used[p.id().0] > cap {
                violations.push(format!(
                    "space: {} uses {} of {} slots",
                    p.id(),
                    slots_used[p.id().0],
                    cap
                ));
            }
            let cfm_cap = self.room.cooling_of_pair(p.id());
            if cooling_used[p.id().0] > cfm_cap + 1e-6 {
                violations.push(format!(
                    "cooling: {} uses {:.0} of {:.0} CFM",
                    p.id(),
                    cooling_used[p.id().0],
                    cfm_cap
                ));
            }
            if let Some(rating) = self.room.pdu_pair_capacity() {
                if self.pair_alloc[p.id().0].exceeds(rating) {
                    violations.push(format!(
                        "pdu: {} allocated {} over its {} rating",
                        p.id(),
                        self.pair_alloc[p.id().0],
                        rating
                    ));
                }
            }
        }
        for u in topo.ups_ids() {
            let cap = topo.ups(u).expect("ups in room").capacity();
            if normal[u.0].exceeds(cap) {
                violations.push(format!("eq2: {u} normal load {} > {cap}", normal[u.0]));
            }
            for f in topo.ups_ids() {
                if f == u {
                    continue;
                }
                if cap_load[u.0][f.0].exceeds(cap) {
                    violations.push(format!(
                        "eq4: {u} post-action load {} > {cap} during failover of {f}",
                        cap_load[u.0][f.0]
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoomConfig;
    use flex_power::Fraction;

    fn room() -> Room {
        RoomConfig::paper_placement_room().build().unwrap()
    }

    fn dep(id: usize, cat: WorkloadCategory, racks: usize, kw: f64, flex: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            DeploymentId(id),
            format!("d{id}"),
            cat,
            racks,
            Watts::from_kw(kw),
            Some(Fraction::new(flex).unwrap()),
        )
        .unwrap()
        // The power-limit tests use unrealistically dense racks; treat
        // them as liquid-cooled so the cooling constraint stays slack.
        .with_cfm_per_watt(0.01)
    }

    #[test]
    fn empty_state_accounting() {
        let r = room();
        let s = RoomState::new(&r);
        assert_eq!(s.total_allocated(), Watts::ZERO);
        assert!(s.stranded_power().approx_eq(Watts::from_mw(9.6), 1e-6));
        for p in r.topology().pdu_pairs() {
            assert_eq!(s.free_slots(p.id()), 100);
        }
    }

    #[test]
    fn placement_updates_loads() {
        let r = room();
        let mut s = RoomState::new(&r);
        let d = dep(0, WorkloadCategory::CapAble, 20, 15.0, 0.8);
        let pair = r.topology().pdu_pairs()[0];
        assert!(s.fits(&d, pair.id()));
        s.place(&d, pair.id());
        let (a, b) = pair.upstream();
        // 300 kW total: 150 kW per UPS normally.
        assert!(s.ups_allocated(a).approx_eq(Watts::from_kw(150.0), 1e-6));
        assert!(s.ups_allocated(b).approx_eq(Watts::from_kw(150.0), 1e-6));
        assert_eq!(s.free_slots(pair.id()), 80);
        // Failover of b: a carries full CapPow = 240 kW.
        assert!(s
            .failover_cap_load(a, b)
            .approx_eq(Watts::from_kw(240.0), 1e-6));
        // Failover of an unrelated UPS: a still carries its half CapPow.
        let other = r.topology().ups_ids().find(|&u| u != a && u != b).unwrap();
        assert!(s
            .failover_cap_load(a, other)
            .approx_eq(Watts::from_kw(120.0), 1e-6));
        assert!(s.verify_safety(&[d]).is_empty());
    }

    #[test]
    fn space_limit_rejects() {
        let r = room();
        let mut s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        // Tiny power, huge rack count: 6 × 20 = 120 > 100 slots.
        for i in 0..5 {
            let d = dep(i, WorkloadCategory::SoftwareRedundant, 20, 1.0, 0.0);
            assert!(s.fits(&d, pair));
            s.place(&d, pair);
        }
        let d = dep(5, WorkloadCategory::SoftwareRedundant, 20, 1.0, 0.0);
        assert!(!s.fits(&d, pair), "101st+ rack must not fit");
    }

    #[test]
    fn eq2_normal_limit_rejects() {
        let r = room();
        let mut s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        // SR deployments are fully shave-able so Eq4 never binds; only
        // Eq2 does. One UPS sees half: 40 racks × 90 kW = 3.6 MW,
        // half = 1.8 MW < 2.4; adding another 40-rack chunk exceeds
        // space, so use bigger racks: 50 racks × 96 kW = 4.8 MW → half
        // 2.4 = exactly capacity. One more watt must fail.
        let d = dep(0, WorkloadCategory::SoftwareRedundant, 50, 96.0, 0.0);
        assert!(s.fits(&d, pair));
        s.place(&d, pair);
        let tiny = dep(1, WorkloadCategory::SoftwareRedundant, 1, 1.0, 0.0);
        assert!(!s.fits(&tiny, pair), "UPS at capacity must reject");
        // But a different pair that shares neither UPS... all pairs share
        // some UPS in 4N/3 with 6 pairs; the opposite pair (2,3) shares
        // none.
        let topo = r.topology();
        let (a, b) = topo.pdu_pair(pair).unwrap().upstream();
        let opposite = topo
            .pdu_pairs()
            .iter()
            .find(|p| !p.is_fed_by(a) && !p.is_fed_by(b))
            .unwrap();
        assert!(s.fits(&tiny, opposite.id()));
    }

    #[test]
    fn eq4_failover_limit_rejects_non_capable() {
        let r = room();
        let mut s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        // Non-cap-able: CapPow = Pow. Fill pair 0 with 48 racks × 75 kW
        // = 3.6 MW. Normal per UPS: 1.8 MW (fits). Failover of partner:
        // survivor carries 3.6 MW > 2.4 MW — must be rejected by Eq4.
        let d = dep(0, WorkloadCategory::NonCapAble, 48, 75.0, 1.0);
        assert!(!s.fits(&d, pair), "Eq4 must reject");
        // The same power as software-redundant is fine (CapPow = 0).
        let d_sr = dep(1, WorkloadCategory::SoftwareRedundant, 48, 75.0, 0.0);
        assert!(s.fits(&d_sr, pair));
        s.place(&d_sr, pair);
        assert!(s.verify_safety(&[d_sr]).is_empty());
    }

    #[test]
    fn capable_flex_power_governs_eq4() {
        let r = room();
        let s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        // Cap-able at flex 0.8: 40 racks × 75 kW = 3.0 MW, CapPow 2.4 MW.
        // Failover of partner: survivor carries full CapPow 2.4 = cap. OK.
        let d = dep(0, WorkloadCategory::CapAble, 40, 75.0, 0.8);
        assert!(s.fits(&d, pair));
        // At flex 0.9: CapPow 2.7 > 2.4. Rejected.
        let d2 = dep(1, WorkloadCategory::CapAble, 40, 75.0, 0.9);
        assert!(!s.fits(&d2, pair));
    }

    #[test]
    fn place_panics_when_unfit() {
        let r = room();
        let mut s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        let d = dep(0, WorkloadCategory::NonCapAble, 48, 75.0, 1.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.place(&d, pair);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn rejection_tracking() {
        let r = room();
        let mut s = RoomState::new(&r);
        s.reject(DeploymentId(7));
        let p = s.into_placement();
        assert_eq!(p.rejected, vec![DeploymentId(7)]);
        assert!(p.assignments.is_empty());
    }

    #[test]
    fn pdu_rating_limits_pair_concentration() {
        let mut config = RoomConfig::paper_placement_room();
        config.pdu_pair_capacity = Some(Watts::from_mw(1.0));
        let r = config.build().unwrap();
        let mut s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        // Two 600 kW software-redundant deployments: the second exceeds
        // the 1 MW pair rating even though power/space/cooling allow it.
        let d0 = dep(0, WorkloadCategory::SoftwareRedundant, 20, 30.0, 0.0);
        let d1 = dep(1, WorkloadCategory::SoftwareRedundant, 20, 30.0, 0.0);
        assert!(s.fits(&d0, pair));
        s.place(&d0, pair);
        assert!(!s.fits(&d1, pair), "PDU rating must reject");
        // A different pair still takes it.
        let other = r.topology().pdu_pairs()[5].id();
        assert!(s.fits(&d1, other));
        s.place(&d1, other);
        assert!(s.verify_safety(&[d0, d1]).is_empty());
    }

    #[test]
    fn cooling_limit_rejects_air_cooled_density() {
        let r = room();
        let mut s = RoomState::new(&r);
        let pair = r.topology().pdu_pairs()[0].id();
        // An air-cooled deployment (default 0.1 CFM/W) of 30 kW racks
        // needs 3,000 CFM per rack against the room's 2,500 CFM/slot:
        // space and power are fine, cooling is not (at full pair scale).
        let hot = DeploymentRequest::new(
            DeploymentId(0),
            "hot",
            WorkloadCategory::SoftwareRedundant,
            90,
            Watts::from_kw(30.0),
            None,
        )
        .unwrap();
        assert!(
            hot.cooling_cfm() > r.cooling_of_pair(pair),
            "test premise: cooling must bind"
        );
        assert!(!s.fits(&hot, pair), "cooling constraint must reject");
        // The same deployment liquid-cooled fits.
        let cooled = hot.clone().with_cfm_per_watt(0.01);
        assert!(s.fits(&cooled, pair));
        s.place(&cooled, pair);
        assert!(s.free_cooling(pair) > 0.0);
        assert!(s.verify_safety(std::slice::from_ref(&cooled)).is_empty());
    }
}
