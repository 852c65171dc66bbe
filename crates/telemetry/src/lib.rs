//! The highly available power telemetry pipeline (Section IV-C).
//!
//! Flex-Online's safety depends on seeing UPS overdraw within the
//! overload-tolerance window, so the paper builds a pipeline with **no
//! single point of failure**: every UPS is measured by three *logical
//! meters* (UPS output ≈ IT aggregate ≈ site total − mechanical), wired
//! through diverse management switches, polled by independent pollers on
//! separate fault domains, and published through independent pub/sub
//! systems to the controllers. A consensus over the three normalized
//! meter values masks one failed or misreading meter.
//!
//! This crate reproduces that structure as a deterministic, passively
//! driven model:
//!
//! - [`MeterBank`] — per-device meters with noise, stuck-reading, and
//!   drop faults ([`MeterFaults`]);
//! - [`Pipeline`] — the poller/switch/pub-sub fabric: each *poll tick*
//!   reads every reachable meter, applies the 3-way consensus for UPS
//!   devices, and returns the [`Delivery`] batches that will arrive at
//!   subscribers (with sampled network/processing latencies);
//! - [`TelemetryPayload`] — one poll's readings, built once in the
//!   flight recorder's `flex_obs::Readings` layout and shared by every
//!   copy of the delivery, the controllers' catch-up buffer and the
//!   recorded event; consumers read them typed through
//!   [`TelemetryPayload::readings`];
//! - [`fault`] — up/down schedules ([`fault::FaultPlan`]) for the
//!   room's typed control-plane parts ([`fault::Component`]): the
//!   pipeline's pollers, switch groups, pub/sub instances and logical
//!   meters, which this crate counts ([`POLLERS`], [`SWITCH_GROUPS`],
//!   [`PUBSUB_INSTANCES`]), plus the rack managers and controller
//!   instances that `flex-online` takes down from the same plan, so
//!   experiments can knock out any subset.
//!
//! The embedding simulation (see `flex-online`) schedules the poll ticks
//! on its event loop and forwards each delivery at its `arrive_at` time;
//! the same [`Delivery`] record then feeds the controllers, the flight
//! recorder and crash-recovery catch-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod fault;
mod meter;
mod pipeline;

pub use config::{PipelineConfig, POLLERS, PUBSUB_INSTANCES, SWITCH_GROUPS};
pub use meter::{MeterBank, MeterFaults};
pub use pipeline::{Delivery, Pipeline, TelemetryPayload};
