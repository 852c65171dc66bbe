//! Deployment requests: the unit of short-term capacity growth.

use std::fmt;

use flex_power::{Fraction, PowerError, Watts};

use crate::WorkloadCategory;

/// Identifier of a deployment request within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeploymentId(pub usize);

impl fmt::Display for DeploymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// A deployment request (Section II-C): `racks` racks of one workload,
/// placed as an unbreakable unit under a single PDU-pair (the networking
/// constraint), each rack allocated `power_per_rack`.
///
/// The *flex fraction* is the lowest power cap (as a fraction of the
/// per-rack allocation) that may be installed on the deployment's racks:
/// the paper uses 75–85% for cap-able workloads, and by construction 0 for
/// software-redundant (rack can be shut off entirely) and 1 for
/// non-cap-able (no power can be recovered).
///
/// ```
/// use flex_workload::{DeploymentRequest, WorkloadCategory, DeploymentId};
/// use flex_power::{Watts, Fraction};
///
/// let d = DeploymentRequest::new(
///     DeploymentId(0),
///     "search-frontend",
///     WorkloadCategory::CapAble,
///     20,
///     Watts::from_kw(17.2),
///     Some(Fraction::new(0.8)?),
/// )?;
/// assert_eq!(d.total_power(), Watts::from_kw(344.0));
/// // 20% of each rack's power can be shaved via throttling.
/// assert!(d.shaveable_power().approx_eq(Watts::from_kw(68.8), 1e-6));
/// # Ok::<(), flex_power::PowerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentRequest {
    id: DeploymentId,
    name: String,
    category: WorkloadCategory,
    racks: usize,
    power_per_rack: Watts,
    flex_fraction: Fraction,
    /// Cooling airflow requirement in CFM per watt (Section VI: rack
    /// cooling requirements are placement constraints in production).
    cfm_per_watt: f64,
}

/// Default cooling requirement: ~0.1 CFM/W, typical of modern air-cooled
/// servers (the paper notes CFM/W has dropped significantly as airflow
/// and heatsink designs improved).
pub const DEFAULT_CFM_PER_WATT: f64 = 0.10;

impl DeploymentRequest {
    /// Creates a deployment request.
    ///
    /// `flex_fraction` is honored only for [`WorkloadCategory::CapAble`];
    /// software-redundant deployments always use 0 and non-cap-able always
    /// use 1 (pass `None` to take the category default; for cap-able,
    /// `None` defaults to 1, i.e. "cap-able but no cap installed").
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NonPositiveCapacity`] if `racks == 0` or
    /// `power_per_rack <= 0`.
    pub fn new(
        id: DeploymentId,
        name: impl Into<String>,
        category: WorkloadCategory,
        racks: usize,
        power_per_rack: Watts,
        flex_fraction: Option<Fraction>,
    ) -> Result<Self, PowerError> {
        if racks == 0 || power_per_rack.as_w() <= 0.0 {
            return Err(PowerError::NonPositiveCapacity(
                power_per_rack.as_w().min(racks as f64),
            ));
        }
        let flex_fraction = match category {
            WorkloadCategory::SoftwareRedundant => Fraction::ZERO,
            WorkloadCategory::NonCapAble => Fraction::ONE,
            WorkloadCategory::CapAble => flex_fraction.unwrap_or(Fraction::ONE),
        };
        Ok(DeploymentRequest {
            id,
            name: name.into(),
            category,
            racks,
            power_per_rack,
            flex_fraction,
            cfm_per_watt: DEFAULT_CFM_PER_WATT,
        })
    }

    /// Overrides the cooling airflow requirement (CFM per watt).
    ///
    /// # Panics
    ///
    /// Panics unless `cfm_per_watt` is positive and finite.
    pub fn with_cfm_per_watt(mut self, cfm_per_watt: f64) -> Self {
        assert!(
            cfm_per_watt > 0.0 && cfm_per_watt.is_finite(),
            "CFM/W must be positive"
        );
        self.cfm_per_watt = cfm_per_watt;
        self
    }

    /// The cooling requirement in CFM per watt.
    pub fn cfm_per_watt(&self) -> f64 {
        self.cfm_per_watt
    }

    /// Total cooling airflow required by the deployment (CFM).
    pub fn cooling_cfm(&self) -> f64 {
        self.total_power().as_w() * self.cfm_per_watt
    }

    /// The request id.
    pub fn id(&self) -> DeploymentId {
        self.id
    }

    /// Workload name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload's category.
    pub fn category(&self) -> WorkloadCategory {
        self.category
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Allocated power per rack.
    pub fn power_per_rack(&self) -> Watts {
        self.power_per_rack
    }

    /// The flex-power floor as a fraction of the per-rack allocation.
    pub fn flex_fraction(&self) -> Fraction {
        self.flex_fraction
    }

    /// Total allocated power (`Pow_d` in the ILP).
    pub fn total_power(&self) -> Watts {
        self.power_per_rack * self.racks as f64
    }

    /// Per-rack flex power: the lowest cap installable on one rack.
    pub fn flex_power_per_rack(&self) -> Watts {
        self.power_per_rack * self.flex_fraction
    }

    /// Post-corrective-action power (`CapPow_d`, Equation 3): 0 for
    /// software-redundant, flex power for cap-able, full power for
    /// non-cap-able.
    pub fn cap_power(&self) -> Watts {
        self.total_power() * self.flex_fraction
    }

    /// Worst-case power recoverable from this deployment
    /// (`Pow_d − CapPow_d`).
    pub fn shaveable_power(&self) -> Watts {
        self.total_power() - self.cap_power()
    }

    /// Splits this deployment into chunks of at most `max_racks` racks
    /// (the paper's deployment-size sensitivity study). Ids are reassigned
    /// by the caller via `renumber`.
    ///
    /// # Panics
    ///
    /// Panics if `max_racks == 0`.
    pub fn split_max_racks(&self, max_racks: usize) -> Vec<DeploymentRequest> {
        assert!(max_racks > 0, "max_racks must be positive");
        if self.racks <= max_racks {
            return vec![self.clone()];
        }
        let mut out = Vec::new();
        let mut left = self.racks;
        let mut part = 0;
        while left > 0 {
            let take = left.min(max_racks);
            out.push(DeploymentRequest {
                id: self.id,
                name: format!("{}#{}", self.name, part),
                category: self.category,
                racks: take,
                power_per_rack: self.power_per_rack,
                flex_fraction: self.flex_fraction,
                cfm_per_watt: self.cfm_per_watt,
            });
            left -= take;
            part += 1;
        }
        out
    }

    /// Returns a copy with a new id (used after splitting/shuffling).
    pub fn with_id(&self, id: DeploymentId) -> DeploymentRequest {
        DeploymentRequest {
            id,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(category: WorkloadCategory, flex: Option<f64>) -> DeploymentRequest {
        DeploymentRequest::new(
            DeploymentId(1),
            "w",
            category,
            10,
            Watts::from_kw(14.4),
            flex.map(|f| Fraction::new(f).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn cap_power_follows_equation_3() {
        let sr = dep(WorkloadCategory::SoftwareRedundant, Some(0.8));
        assert_eq!(sr.cap_power(), Watts::ZERO); // flex ignored for SR
        assert!(sr.shaveable_power().approx_eq(Watts::from_kw(144.0), 1e-6));

        let cap = dep(WorkloadCategory::CapAble, Some(0.75));
        assert!(cap.cap_power().approx_eq(Watts::from_kw(108.0), 1e-6));
        assert!(cap.shaveable_power().approx_eq(Watts::from_kw(36.0), 1e-6));

        let non = dep(WorkloadCategory::NonCapAble, Some(0.5));
        assert!(non.cap_power().approx_eq(non.total_power(), 1e-9));
        assert_eq!(non.shaveable_power(), Watts::ZERO);
    }

    #[test]
    fn capable_default_flex_is_one() {
        let cap = dep(WorkloadCategory::CapAble, None);
        assert_eq!(cap.flex_fraction(), Fraction::ONE);
        assert_eq!(cap.shaveable_power(), Watts::ZERO);
    }

    #[test]
    fn validation() {
        assert!(DeploymentRequest::new(
            DeploymentId(0),
            "w",
            WorkloadCategory::CapAble,
            0,
            Watts::from_kw(14.4),
            None
        )
        .is_err());
        assert!(DeploymentRequest::new(
            DeploymentId(0),
            "w",
            WorkloadCategory::CapAble,
            5,
            Watts::ZERO,
            None
        )
        .is_err());
    }

    #[test]
    fn split_preserves_totals() {
        let d = DeploymentRequest::new(
            DeploymentId(3),
            "big",
            WorkloadCategory::CapAble,
            20,
            Watts::from_kw(17.2),
            Some(Fraction::new(0.8).unwrap()),
        )
        .unwrap();
        let parts = d.split_max_racks(10);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.iter().map(|p| p.racks()).sum::<usize>(), 20);
        let total: Watts = parts.iter().map(|p| p.total_power()).sum();
        assert!(total.approx_eq(d.total_power(), 1e-6));
        // Uneven split.
        let parts = d.split_max_racks(8);
        assert_eq!(
            parts.iter().map(|p| p.racks()).collect::<Vec<_>>(),
            vec![8, 8, 4]
        );
        // No split needed.
        assert_eq!(d.split_max_racks(20).len(), 1);
    }

    #[test]
    fn with_id_renames_only_id() {
        let d = dep(WorkloadCategory::CapAble, Some(0.8));
        let e = d.with_id(DeploymentId(9));
        assert_eq!(e.id(), DeploymentId(9));
        assert_eq!(e.name(), d.name());
        assert_eq!(e.total_power(), d.total_power());
    }
}
