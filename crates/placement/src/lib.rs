//! Flex-Offline: workload placement for zero-reserved-power rooms.
//!
//! Section IV-B of the paper: given a batch of deployment requests, choose
//! a PDU-pair for each so that
//!
//! 1. normal-operation load on every UPS stays within its capacity
//!    (Equation 2),
//! 2. for **every** possible UPS failover, the post-corrective-action load
//!    (software-redundant racks shut down, cap-able racks at flex power —
//!    Equation 3) on every surviving UPS stays within capacity even at
//!    100% utilization (Equation 4), and
//! 3. stranded power — provisioned capacity that cannot be allocated —
//!    is minimized (Equation 5).
//!
//! The crate provides:
//!
//! - [`Room`] / [`RoomConfig`] — a server room: an xN/y topology plus rows
//!   of rack slots wired to PDU-pairs;
//! - [`RoomState`] — incremental placement state with O(x) feasibility
//!   checks, shared by all policies;
//! - [`policies`] — the evaluated placement policies: [`policies::Random`],
//!   [`policies::FirstFit`], [`policies::BalancedRoundRobin`], and the ILP
//!   batch policy [`policies::FlexOffline`] in its Short/Long/Oracle
//!   variants;
//! - [`ilp`] — the MILP formulation solved per batch (via [`flex_milp`]);
//! - [`metrics`] — stranded power and throttling imbalance (the Figure
//!   9/10 metrics);
//! - [`PlacedRoom`] — the materialized rack-level placement consumed by
//!   Flex-Online.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forecast;
pub mod ilp;
pub mod lns;
pub mod metrics;
mod placed;
pub mod policies;
mod room;
mod state;

pub use placed::{PlacedRack, PlacedRoom, RackId};
pub use policies::PlacementPolicy;
pub use room::{Room, RoomConfig, Row, RowId};
pub use state::{Placement, RoomState};
