//! The three workload categories of Section II-B.

use std::fmt;

/// How a workload tolerates Flex's corrective actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadCategory {
    /// Replicated across availability zones; its racks may be **shut
    /// down** during a failover (load heals elsewhere). Example: Web
    /// search, data analytics.
    SoftwareRedundant,
    /// Not redundant, but its hardware supports power capping (e.g. RAPL)
    /// and the service tolerates throttling; racks may be **throttled**
    /// down to their flex power. Example: first-party IaaS VMs.
    CapAble,
    /// Neither redundant nor cap-able (GPU clusters, storage arrays,
    /// latency-critical third-party services); Flex must never touch its
    /// racks. Full power must be available to them even during failover.
    NonCapAble,
}

impl WorkloadCategory {
    /// All categories in the paper's presentation order.
    pub const ALL: [WorkloadCategory; 3] = [
        WorkloadCategory::SoftwareRedundant,
        WorkloadCategory::CapAble,
        WorkloadCategory::NonCapAble,
    ];

    /// May racks of this category be shut down during failover?
    pub fn can_shut_down(self) -> bool {
        matches!(self, WorkloadCategory::SoftwareRedundant)
    }

    /// May racks of this category be throttled to their flex power?
    pub fn can_throttle(self) -> bool {
        matches!(self, WorkloadCategory::CapAble)
    }

    /// May Flex-Online act on this category at all?
    pub fn is_actionable(self) -> bool {
        self.can_shut_down() || self.can_throttle()
    }

    /// Short label used in tables and traces.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadCategory::SoftwareRedundant => "software-redundant",
            WorkloadCategory::CapAble => "cap-able",
            WorkloadCategory::NonCapAble => "non-cap-able",
        }
    }
}

impl fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_legality_matches_paper() {
        use WorkloadCategory::*;
        assert!(SoftwareRedundant.can_shut_down());
        assert!(!SoftwareRedundant.can_throttle());
        assert!(!CapAble.can_shut_down());
        assert!(CapAble.can_throttle());
        assert!(!NonCapAble.can_shut_down());
        assert!(!NonCapAble.can_throttle());
        assert!(SoftwareRedundant.is_actionable());
        assert!(CapAble.is_actionable());
        assert!(!NonCapAble.is_actionable());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = WorkloadCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(format!("{}", WorkloadCategory::CapAble), "cap-able");
    }
}
