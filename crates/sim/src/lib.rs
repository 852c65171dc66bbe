//! A small, deterministic discrete-event simulation kernel.
//!
//! Flex-Online is a distributed system (telemetry pipeline, multi-primary
//! controllers, out-of-band actuation) whose evaluation depends on *timing*:
//! can it detect a failover and shed power inside the UPS overload-tolerance
//! window? This crate provides the substrate to answer that reproducibly:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time;
//! - [`Sim`] — an event loop over a user world type `W` and an
//!   [`Event`] type: boxed closures by default ([`BoxedEvent`]), or the
//!   caller's own enum, dispatched by one `match` with no allocation per
//!   event. Events are totally ordered by `(time, sequence)`, so runs are
//!   bit-for-bit deterministic;
//! - [`rng::RngPool`] — named, independently seeded random streams, so
//!   adding a consumer never perturbs another's draws;
//! - [`dist`] — the distributions the workload and telemetry models need
//!   (normal, lognormal, exponential, truncated normal, …) implemented on
//!   top of `rand` to keep the dependency footprint small;
//! - [`stats`] — online mean/variance, exact percentiles, and time-weighted
//!   series used by every experiment harness;
//! - [`fault`] — component up/down schedules and MTBF/MTTR window
//!   generation for failure injection.
//!
//! # Example
//!
//! ```
//! use flex_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0u32); // world = a counter
//! sim.schedule_in(SimDuration::from_secs(1), |w: &mut u32, ctx| {
//!     *w += 1;
//!     // Events can schedule follow-ups.
//!     ctx.schedule_in(SimDuration::from_secs(1), |w: &mut u32, _| *w += 10);
//! });
//! sim.run_until_idle();
//! assert_eq!(*sim.world(), 11);
//! assert_eq!(sim.now().as_secs_f64(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod engine;
pub mod fault;
pub mod rng;
pub mod stats;
mod time;

pub use engine::{BoxedEvent, Ctx, Event, Sim};
pub use time::{SimDuration, SimTime};
