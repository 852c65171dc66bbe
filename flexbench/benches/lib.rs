//! The workloads of `flexbench`, their per-layer probes, and the
//! measurement code they share. The `flexbench` binary drives them; the
//! self-test calls them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod common;
pub mod layers;
pub mod placement;
pub mod room;
