//! The background firmware / reachability monitor (Section VI).
//!
//! Production lesson: actions fail when rack-manager or BMC firmware has
//! regressed or the management network is unreachable, so Microsoft runs
//! a background service that continuously probes every RM, injects fake
//! actions, and alerts operators before a real maintenance event hits a
//! broken path.

use flex_placement::RackId;
use flex_sim::SimTime;
use flex_telemetry::fault::{Component, FaultPlan};

/// Result of one probe sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// When the sweep ran.
    pub at: SimTime,
    /// RMs that did not answer the probe.
    pub unreachable: Vec<RackId>,
    /// RMs running firmware older than the fleet requirement.
    pub outdated_firmware: Vec<RackId>,
    /// RMs whose injected fake action failed to apply.
    pub failed_fake_action: Vec<RackId>,
}

impl ProbeReport {
    /// True when every RM is healthy.
    // flex-lint: allow(A1): the Section VI prober waits for the silent-enforcement chaos family (ROADMAP item 9) to call it
    pub fn all_healthy(&self) -> bool {
        self.unreachable.is_empty()
            && self.outdated_firmware.is_empty()
            && self.failed_fake_action.is_empty()
    }
}

/// The background prober: tracks firmware versions and probes
/// reachability against the shared fault plan.
#[derive(Debug, Clone)]
pub struct Prober {
    firmware: Vec<u32>,
    required_firmware: u32,
}

impl Prober {
    /// Creates a prober for `rack_count` RMs, all at `firmware` version.
    pub fn new(rack_count: usize, firmware: u32) -> Self {
        Prober {
            firmware: vec![firmware; rack_count],
            required_firmware: firmware,
        }
    }

    /// Records a firmware downgrade/regression on one RM (e.g. a server
    /// replaced after repair with stale firmware). A foreign rack id is
    /// ignored.
    // flex-lint: allow(A1): the Section VI prober waits for the silent-enforcement chaos family (ROADMAP item 9) to call it
    pub fn set_firmware(&mut self, rack: RackId, version: u32) {
        if let Some(slot) = self.firmware.get_mut(rack.0) {
            *slot = version;
        }
    }

    /// Raises the fleet-wide required firmware version.
    // flex-lint: allow(A1): the Section VI prober waits for the silent-enforcement chaos family (ROADMAP item 9) to call it
    pub fn set_required_firmware(&mut self, version: u32) {
        self.required_firmware = version;
    }

    /// Re-flashes an RM to the required version (the remediation the
    /// report triggers). A foreign rack id is ignored.
    // flex-lint: allow(A1): the Section VI prober waits for the silent-enforcement chaos family (ROADMAP item 9) to call it
    pub fn redeploy_firmware(&mut self, rack: RackId) {
        if let Some(slot) = self.firmware.get_mut(rack.0) {
            *slot = self.required_firmware;
        }
    }

    /// Runs one probe sweep: reachability (per the fault plan's
    /// [`Component::RackManager`] windows), firmware currency, and a fake action
    /// (which fails when the RM is unreachable or outdated).
    // flex-lint: allow(A1): the Section VI prober waits for the silent-enforcement chaos family (ROADMAP item 9) to call it
    pub fn sweep(&self, now: SimTime, faults: &FaultPlan) -> ProbeReport {
        let mut unreachable = Vec::new();
        let mut outdated = Vec::new();
        let mut failed_fake = Vec::new();
        for (i, &fw) in self.firmware.iter().enumerate() {
            let rack = RackId(i);
            let reachable = faults.is_up(Component::RackManager(i), now);
            if !reachable {
                unreachable.push(rack);
            }
            if fw < self.required_firmware {
                outdated.push(rack);
            }
            if !reachable || fw < self.required_firmware {
                failed_fake.push(rack);
            }
        }
        ProbeReport {
            at: now,
            unreachable,
            outdated_firmware: outdated,
            failed_fake_action: failed_fake,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_fleet_reports_clean() {
        let p = Prober::new(5, 3);
        let report = p.sweep(SimTime::ZERO, &FaultPlan::new());
        assert!(report.all_healthy());
    }

    #[test]
    fn detects_unreachable_and_outdated() {
        let mut p = Prober::new(5, 3);
        p.set_firmware(RackId(2), 1);
        let mut faults = FaultPlan::new();
        faults.add_outage(Component::RackManager(4), SimTime::ZERO, SimTime::from_secs_f64(10.0));
        let report = p.sweep(SimTime::from_secs_f64(5.0), &faults);
        assert_eq!(report.unreachable, vec![RackId(4)]);
        assert_eq!(report.outdated_firmware, vec![RackId(2)]);
        assert_eq!(report.failed_fake_action, vec![RackId(2), RackId(4)]);
        assert!(!report.all_healthy());
        // After the outage and a redeploy, the fleet is clean.
        p.redeploy_firmware(RackId(2));
        let later = p.sweep(SimTime::from_secs_f64(20.0), &faults);
        assert!(later.all_healthy());
    }

    #[test]
    fn raising_required_version_flags_whole_fleet() {
        let mut p = Prober::new(3, 3);
        p.set_required_firmware(4);
        let report = p.sweep(SimTime::ZERO, &FaultPlan::new());
        assert_eq!(report.outdated_firmware.len(), 3);
        for i in 0..3 {
            p.redeploy_firmware(RackId(i));
        }
        assert!(p.sweep(SimTime::ZERO, &FaultPlan::new()).all_healthy());
    }
}
