//! Flex-Online: runtime power management for zero-reserved-power rooms.
//!
//! When a UPS fails in a fully allocated room, the survivors carry up to
//! 133% of rated load and will trip within seconds (Figure 6). Flex-Online
//! must detect the overdraw from power telemetry alone and shed load below
//! rated capacity inside that window, touching as few racks — and as
//! low-impact racks — as possible. This crate implements:
//!
//! - [`policy`] — **Algorithm 1**: the greedy impact-function-driven
//!   selection of racks to shut down (software-redundant) or throttle
//!   (cap-able), with failover-state inference from UPS power readings.
//!   [`policy::decide`] runs it incrementally: the overloaded set only
//!   shrinks within a call, so each workload's candidates are sorted
//!   once and walked by a forward cursor, for O(racks · log racks) plus
//!   O(workloads + UPSes) per selected action;
//! - [`ImpactRegistry`] — per-deployment impact functions with the
//!   paper's default ordering (act on software-redundant workloads only
//!   after cap-able ones) when none are registered;
//! - [`Controller`] — a stateful multi-primary controller instance:
//!   consumes telemetry deliveries, triggers decisions, tracks its action
//!   log, and lifts actions once the failover clears (with hysteresis).
//!   Everything its decisions depend on is one [`ControllerState`];
//!   [`Controller::restarted`] is the blank restart into a new epoch.
//!   A delivery costs what is new in it: a snapshot writes no slot when
//!   every slot of its kind holds data measured at or after it (an
//!   empty or pruned slot counts as −∞), and once every slot holds the
//!   newest poll, ingest skips its redeliveries in O(1). Decision rounds
//!   refill buffers the controller owns, so a delivery that does not
//!   shed allocates nothing;
//! - [`Actuator`] — the out-of-band rack-manager/BMC path: latency,
//!   unreachability, idempotent command application, epoch fencing;
//! - [`recovery`] — deterministic crash recovery: the
//!   [`RecoverySnapshot`] a restarted instance rebuilds from, the
//!   [`CatchUpBuffer`] of recent telemetry, and the snapshot's
//!   flight-recorder codec;
//! - [`prober::Prober`] — the background firmware/reachability monitor
//!   from the production-lessons section (VI);
//! - [`replay`] — standalone reconstruction of a controller's decision
//!   sequence from a `flex-obs` flight-recorder dump;
//! - [`sim`] — the integrated discrete-event room simulation that wires
//!   placement, telemetry, controllers, actuation, and the UPS overload
//!   accumulators together (the engine behind the Figure 13 end-to-end
//!   experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actuation;
mod controller;
mod error;
mod impact_registry;
pub mod policy;
pub mod prober;
pub mod recovery;
pub mod replay;
pub mod sim;

pub use actuation::{Actuator, ActuatorConfig, PendingCommand, RackPowerState, Submission};
pub use controller::{Command, Controller, ControllerConfig, ControllerState};
pub use recovery::{CatchUpBuffer, RecoverySnapshot};
pub use error::OnlineError;
pub use impact_registry::ImpactRegistry;
pub use policy::{Action, ActionKind, ActionSummary, DecisionInput, DecisionOutcome, PolicyConfig};
