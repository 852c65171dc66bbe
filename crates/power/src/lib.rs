//! Electrical model of a distributed-redundant datacenter power hierarchy.
//!
//! This crate is the physical substrate underneath the Flex system
//! (Zhang et al., *Flex: High-Availability Datacenters With Zero Reserved
//! Power*, ISCA 2021). It models:
//!
//! - the **xN/y distributed-redundant topology** of Section II-A: `x` UPS
//!   devices, PDU-pairs dual-corded to distinct UPS pairs in active-active
//!   mode, racks hanging off PDU-pairs ([`Topology`]);
//! - **instantaneous failover load transfer**: when a UPS drops out of
//!   service, each PDU-pair that it fed shifts its full load onto the
//!   surviving partner UPS ([`FeedState`], [`LoadModel`]);
//! - **UPS overload tolerance** (the paper's Figure 6): an inverse-time
//!   trip-curve model (end- and beginning-of-life curves) and a thermal
//!   accumulator that decides *when* an overloaded device trips
//!   ([`trip_curve::TripCurve`], [`trip_curve::OverloadAccumulator`]).
//!   A trip is one more failed UPS, so its load shifts onward the same
//!   way; `flex-online`'s room simulator steps the accumulators over
//!   time, and that is where a cascade to blackout plays out.
//!
//! The model is purely computational — no wall-clock time, no I/O — so the
//! rest of the workspace can drive it from a discrete-event simulator,
//! property tests, or benchmarks.
//!
//! # Example
//!
//! ```
//! use flex_power::{Topology, Watts, FeedState, LoadModel};
//!
//! // A 4N/3 room: 4 UPSes of 2.4 MW, one PDU-pair per UPS combination.
//! let topo = Topology::distributed_redundant(4, Watts::from_kw(2400.0))?;
//! assert_eq!(topo.pdu_pairs().len(), 6);
//!
//! // Load every PDU-pair with 700 kW and fail UPS 0.
//! let mut load = LoadModel::new(&topo);
//! for pair in topo.pdu_pairs() {
//!     load.set_pair_load(pair.id(), Watts::from_kw(700.0));
//! }
//! let normal = load.ups_loads(&FeedState::all_online(&topo));
//! let first = topo.ups_ids().next().unwrap();
//! let failed = load.ups_loads(&FeedState::with_failed(&topo, [first]));
//! // Survivors pick up the failed UPS's share.
//! assert!(failed[1] > normal[1]);
//! # Ok::<(), flex_power::PowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod feed;
mod load;
pub mod meter;
mod topology;
pub mod trip_curve;
mod units;

pub use error::PowerError;
pub use feed::{FeedState, PairFeed};
pub use load::{LoadModel, UpsLoads};
pub use topology::{PduPair, PduPairId, Topology, TopologyBuilder, Ups, UpsId};
pub use units::{Fraction, Watts};
