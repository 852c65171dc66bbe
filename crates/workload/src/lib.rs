//! Workload models for Flex datacenters.
//!
//! Section II-B of the paper divides cloud workloads into three categories
//! — *software-redundant* (SaaS built to survive losing an availability
//! zone), *non-redundant but cap-able* (e.g. first-party VMs that tolerate
//! throttling), and *non-redundant non-cap-able* (GPU/storage hardware or
//! services that tolerate neither). This crate models:
//!
//! - [`WorkloadCategory`] and per-rack action legality;
//! - [`impact::ImpactFunction`] — the piecewise-linear performance /
//!   availability impact curves of Figures 8 and 11, plus the four
//!   evaluation scenarios ([`impact::scenarios`]);
//! - [`DeploymentRequest`] — the unit of capacity growth (Section II-C): a
//!   block of racks with per-rack power, a category, and a *flex power*
//!   floor for cap-able racks;
//! - [`trace::TraceGenerator`] — short-term demand traces matching the
//!   distributions the paper evaluates with (20-rack deployments,
//!   13%/56%/31% category mix, 14.4–17.2 kW racks, 115% of provisioned
//!   power);
//! - [`power_model::RackPowerModel`] — stochastic rack power draws with
//!   diurnal structure, used to build controller input snapshots;
//! - [`mix`] — the Figure 3 per-region category mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod category;
mod deployment;
pub mod impact;
pub mod mix;
pub mod power_model;
pub mod trace;

pub use category::WorkloadCategory;
pub use deployment::{DeploymentId, DeploymentRequest};
