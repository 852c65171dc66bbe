//! `flex-obs`: deterministic observability for the Flex control path.
//!
//! Three pieces behind one cheap handle ([`Obs`]):
//!
//! - a **metrics registry** — [`Counter`]s, last-write-wins
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s whose
//!   snapshot is byte-deterministic ([`MetricsSnapshot`]);
//! - **spans** ([`Span`]) — histograms of *sim-time* durations, so the
//!   detect-to-shed budget (telemetry measure → arrive, submit → apply,
//!   failure → first command) is queryable without ever touching the
//!   wall clock (lint rule D1 holds crate-wide);
//! - a **flight recorder** — a bounded ring of structured
//!   [`FlightEvent`]s carrying the controller's full inputs and
//!   decisions, dumpable as JSON ([`ObsDump`]) and replayable
//!   standalone to reproduce the decision sequence bit-identically
//!   (`flex_online::replay`).
//!
//! An [`Obs`] is either *recording* (backed by shared state) or *noop*
//! (`Obs::noop()`, the default): every handle minted from a noop `Obs`
//! is a `None` discriminant check on the hot path, so disabled
//! observability costs nothing and — because recording never touches
//! RNG streams, event ordering, or scheduling — instrumented and
//! uninstrumented runs produce bit-identical simulation outcomes.
//!
//! The `flex-obs` binary pretty-prints, diffs, and summarizes dumps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
mod metrics;
mod recorder;

use std::sync::Arc;

use flex_sim::SimTime;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Span};
pub use recorder::{FlightEvent, ObsDump, Readings, RecoveredState, DEFAULT_RING_CAPACITY};

/// The observability handle threaded through the control path.
///
/// Cloning shares the underlying registry and recorder; a default or
/// [`Obs::noop`] handle disables everything at near-zero cost.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    registry: metrics::Registry,
    recorder: recorder::Recorder,
}

impl Obs {
    /// A disabled handle: all minted instruments are noop, `record` is
    /// a branch on a `None`.
    pub fn noop() -> Self {
        Obs { inner: None }
    }

    /// A recording handle with the default flight-recorder capacity.
    pub fn recording() -> Self {
        Obs::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recording handle with an explicit ring capacity (≥ 1).
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                registry: metrics::Registry::default(),
                recorder: recorder::Recorder::with_capacity(ring_capacity),
            })),
        }
    }

    /// Mints a counter handle for `name` (noop when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::noop, |i| i.registry.counter(name))
    }

    /// Mints a gauge handle for `name` (noop when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::noop, |i| i.registry.gauge(name))
    }

    /// Mints a histogram handle for `name` (noop when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::noop, |i| i.registry.histogram(name))
    }

    /// Mints a span (sim-time duration histogram) for `name`.
    pub fn span(&self, name: &str) -> Span {
        Span::from_histogram(self.histogram(name))
    }

    /// Appends an event to the flight recorder at sim instant `at`.
    #[inline]
    pub fn record(&self, at: SimTime, event: FlightEvent) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(at.as_nanos(), event);
        }
    }

    /// Appends an event built lazily — the closure only runs when the
    /// handle records, so noop call sites skip payload allocation too.
    #[inline]
    pub fn record_with(&self, at: SimTime, event: impl FnOnce() -> FlightEvent) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(at.as_nanos(), event());
        }
    }

    /// A deterministic snapshot of the metrics registry (empty when
    /// disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |i| i.registry.snapshot())
    }

    /// A full dump: metrics snapshot plus the recorder window (empty
    /// when disabled).
    pub fn dump(&self) -> ObsDump {
        match &self.inner {
            None => ObsDump::default(),
            Some(inner) => {
                let (events, dropped) = inner.recorder.drain_view();
                ObsDump {
                    metrics: inner.registry.snapshot(),
                    events,
                    dropped,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_sim::SimDuration;

    #[test]
    fn noop_obs_yields_empty_dump() {
        let obs = Obs::noop();
        obs.counter("x").inc();
        obs.record(SimTime::ZERO, FlightEvent::UpsFailed { ups: 0 });
        assert_eq!(obs.dump(), ObsDump::default());
    }

    #[test]
    fn record_with_skips_closure_when_disabled() {
        let obs = Obs::noop();
        let mut ran = false;
        obs.record_with(SimTime::ZERO, || {
            ran = true;
            FlightEvent::UpsFailed { ups: 0 }
        });
        assert!(!ran);
        let obs = Obs::recording();
        obs.record_with(SimTime::ZERO, || {
            ran = true;
            FlightEvent::UpsFailed { ups: 0 }
        });
        assert!(ran);
        assert_eq!(obs.dump().events.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::recording();
        let c1 = obs.counter("shared");
        let c2 = obs.clone().counter("shared");
        c1.add(2);
        c2.add(3);
        assert_eq!(obs.snapshot().counters.get("shared"), Some(&5));
        let span = obs.span("lag");
        span.record(SimDuration::from_millis(7));
        let snap = obs.snapshot();
        let h = snap.histograms.get("lag").expect("span registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.max, Some(7_000_000));
    }

    #[test]
    fn dump_serialization_is_stable() {
        let build = || {
            let obs = Obs::recording();
            obs.counter("a").add(41);
            obs.gauge("g").set(1.25);
            obs.span("s").record(SimDuration::from_nanos(300_000));
            obs.record(
                SimTime::from_nanos(5),
                FlightEvent::CommandApplied { rack: 3, state: 1 },
            );
            obs.dump().to_json()
        };
        assert_eq!(build(), build());
    }
}
