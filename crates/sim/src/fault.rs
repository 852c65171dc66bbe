//! Failure injection: up/down schedules for named components.
//!
//! The telemetry pipeline and controller evaluations need to knock out
//! meters, switches, pollers, pub/sub instances, and controllers on
//! schedules. A plan only stores windows, hand-written (worst-case
//! scenarios) or sampled elsewhere: the chaos harness draws its
//! MTBF/MTTR outages itself and adds them with [`FaultPlan::add_outage`].
//!
//! Queries are hot (every poller × component × tick), so outages are
//! indexed per component with sorted, merged windows and answered by
//! binary search. Hot loops go one step further and [`FaultPlan::resolve`]
//! their fixed component list once, then ask a [`ResolvedPlan`] by
//! position, with no name lookup per query.

use std::collections::BTreeMap;

use crate::{SimDuration, SimTime};

/// The shared fault-component name registry.
///
/// Every subsystem that consults a [`FaultPlan`] derives its component
/// names from these constructors, so a chaos harness, the telemetry
/// pipeline, and the actuation path can never disagree on spelling.
pub mod names {
    /// Telemetry poller `i` (`"poller/{i}"`).
    pub fn poller(i: usize) -> String {
        format!("poller/{i}")
    }

    /// Management switch group `g` (`"switch/{g}"`).
    pub fn switch(g: usize) -> String {
        format!("switch/{g}")
    }

    /// Pub/sub instance `k` (`"pubsub/{k}"`).
    pub fn pubsub(k: usize) -> String {
        format!("pubsub/{k}")
    }

    /// Logical UPS meter of kind `kind` on UPS `u`
    /// (`"meter/ups{u}/{kind}"`); `kind` is the `Debug` rendering of
    /// the meter kind, e.g. `UpsOutput`.
    pub fn ups_meter(u: usize, kind: &str) -> String {
        format!("meter/ups{u}/{kind}")
    }

    /// Rack manager of rack `r` (`"rm/{r}"`).
    pub fn rack_manager(r: usize) -> String {
        format!("rm/{r}")
    }

    /// Multi-primary controller instance `i` (`"controller/{i}"`).
    pub fn controller(i: usize) -> String {
        format!("controller/{i}")
    }
}

/// A half-open outage window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Start of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive).
    pub until: SimTime,
}

impl Outage {
    /// Creates an outage window.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "outage must have positive duration");
        Outage { from, until }
    }

    /// True if `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }

    /// Window length.
    pub fn duration(&self) -> SimDuration {
        self.until - self.from
    }
}

/// Up/down schedule for a set of named components.
///
/// Windows are stored per component, sorted by start and merged when they
/// touch or overlap, so [`FaultPlan::is_up`] is a binary search rather
/// than a scan of every outage in the plan.
///
/// ```
/// use flex_sim::fault::FaultPlan;
/// use flex_sim::SimTime;
///
/// let mut plan = FaultPlan::new();
/// plan.add_outage("poller/0", SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(20.0));
/// assert!(plan.is_up("poller/0", SimTime::from_secs_f64(5.0)));
/// assert!(!plan.is_up("poller/0", SimTime::from_secs_f64(15.0)));
/// assert!(plan.is_up("poller/1", SimTime::from_secs_f64(15.0))); // unlisted = always up
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-component outage windows, sorted by `from` and
    /// non-overlapping (merged at insertion).
    outages: BTreeMap<String, Vec<Outage>>,
}

impl FaultPlan {
    /// An empty plan: everything is always up.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan contains no outages at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// Adds an outage window for a component. Overlapping or touching
    /// windows for the same component are merged.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn add_outage(&mut self, component: &str, from: SimTime, until: SimTime) -> &mut Self {
        let new = Outage::new(from, until);
        let windows = self.outages.entry(component.to_owned()).or_default();
        // Insert keeping windows sorted by `from`, merging overlaps so a
        // point query touches exactly one candidate window.
        let idx = windows.partition_point(|o| o.from < new.from);
        windows.insert(idx, new);
        let mut merged: Vec<Outage> = Vec::with_capacity(windows.len());
        for &o in windows.iter() {
            match merged.last_mut() {
                Some(last) if o.from <= last.until => {
                    last.until = last.until.max(o.until);
                }
                _ => merged.push(o),
            }
        }
        *windows = merged;
        self
    }

    /// True if the component is up at time `t`. Components without any
    /// outage are always up.
    pub fn is_up(&self, component: &str, t: SimTime) -> bool {
        self.outages.get(component).is_none_or(|w| up_at(w, t))
    }

    /// The windows of `components`, in order, for by-position queries:
    /// [`ResolvedPlan::is_up`]`(i, t)` answers what
    /// [`is_up`](Self::is_up) would for the `i`-th component.
    pub fn resolve<S: AsRef<str>>(&self, components: impl IntoIterator<Item = S>) -> ResolvedPlan {
        ResolvedPlan {
            windows: components
                .into_iter()
                .map(|c| self.outages_of(c.as_ref()))
                .collect(),
        }
    }

    /// All outage windows for a component, sorted by start and merged.
    pub fn outages_of(&self, component: &str) -> Vec<Outage> {
        self.outages.get(component).cloned().unwrap_or_default()
    }
}

/// True unless `t` falls in one of `windows` (sorted by start,
/// non-overlapping).
fn up_at(windows: &[Outage], t: SimTime) -> bool {
    // The only window that can contain `t` is the last one starting at
    // or before it.
    let idx = windows.partition_point(|o| o.from <= t);
    match idx.checked_sub(1).and_then(|i| windows.get(i)) {
        Some(o) => !o.contains(t),
        None => true,
    }
}

/// A [`FaultPlan`] resolved for a fixed list of components (see
/// [`FaultPlan::resolve`]). The default has no components: everything
/// is up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolvedPlan {
    windows: Vec<Vec<Outage>>,
}

impl ResolvedPlan {
    /// True if component `i` of the resolved list is up at `t`. An
    /// index past the list reads as up, like an unlisted name.
    pub fn is_up(&self, i: usize, t: SimTime) -> bool {
        self.windows.get(i).is_none_or(|w| up_at(w, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn outage_window_semantics() {
        let o = Outage::new(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(2.0));
        assert!(o.contains(SimTime::from_secs_f64(1.0)));
        assert!(o.contains(SimTime::from_secs_f64(1.999)));
        assert!(!o.contains(SimTime::from_secs_f64(2.0)));
        assert_eq!(o.duration(), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_length_outage_panics() {
        let t = SimTime::from_secs_f64(1.0);
        let _ = Outage::new(t, t);
    }

    #[test]
    fn plan_overlapping_outages() {
        let mut plan = FaultPlan::new();
        plan.add_outage("x", SimTime::from_secs_f64(0.0), SimTime::from_secs_f64(10.0));
        plan.add_outage("x", SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(15.0));
        assert!(!plan.is_up("x", SimTime::from_secs_f64(7.0)));
        assert!(!plan.is_up("x", SimTime::from_secs_f64(12.0)));
        assert!(plan.is_up("x", SimTime::from_secs_f64(15.0)));
        // Overlapping windows merge into one.
        assert_eq!(plan.outages_of("x").len(), 1);
    }

    #[test]
    fn disjoint_windows_stay_separate_and_searchable() {
        let mut plan = FaultPlan::new();
        // Inserted out of order on purpose.
        plan.add_outage("x", SimTime::from_secs_f64(40.0), SimTime::from_secs_f64(50.0));
        plan.add_outage("x", SimTime::from_secs_f64(0.0), SimTime::from_secs_f64(10.0));
        plan.add_outage("x", SimTime::from_secs_f64(20.0), SimTime::from_secs_f64(30.0));
        assert_eq!(plan.outages_of("x").len(), 3);
        for (t, up) in [
            (5.0, false),
            (15.0, true),
            (25.0, false),
            (35.0, true),
            (45.0, false),
            (50.0, true),
        ] {
            assert_eq!(plan.is_up("x", SimTime::from_secs_f64(t)), up, "t={t}");
        }
    }

    #[test]
    fn components_listing() {
        let mut plan = FaultPlan::new();
        plan.add_outage("b", SimTime::ZERO, SimTime::from_secs_f64(1.0));
        plan.add_outage("a", SimTime::ZERO, SimTime::from_secs_f64(1.0));
        plan.add_outage("a", SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(3.0));
        assert_eq!(plan.outages_of("a").len(), 2);
        assert_eq!(plan.outages_of("b").len(), 1);
        assert!(plan.outages_of("c").is_empty());
    }

    #[test]
    fn name_registry_matches_wire_format() {
        assert_eq!(names::poller(0), "poller/0");
        assert_eq!(names::switch(3), "switch/3");
        assert_eq!(names::pubsub(1), "pubsub/1");
        assert_eq!(names::ups_meter(2, "UpsOutput"), "meter/ups2/UpsOutput");
        assert_eq!(names::rack_manager(41), "rm/41");
        assert_eq!(names::controller(2), "controller/2");
    }

    #[test]
    fn indexed_is_up_agrees_with_linear_scan() {
        // Regression for the index rewrite: compare against the obvious
        // O(n) implementation over a messy random plan.
        let mut rng = SmallRng::seed_from_u64(99);
        let mut plan = FaultPlan::new();
        let mut raw: Vec<(String, Outage)> = Vec::new();
        for i in 0..200 {
            let comp = format!("c/{}", i % 7);
            let from = SimTime::from_secs_f64(rng.gen_range(0.0..500.0));
            let until = from + SimDuration::from_secs_f64(rng.gen_range(0.1..40.0));
            plan.add_outage(&comp, from, until);
            raw.push((comp, Outage { from, until }));
        }
        // The resolved list also names a component the plan lacks, and
        // one position past its end is queried too.
        let listed: Vec<String> = (0..8).rev().map(|c| format!("c/{c}")).collect();
        let resolved = plan.resolve(&listed);
        for i in 0..1000 {
            let t = SimTime::from_secs_f64(i as f64 * 0.55);
            for (k, comp) in listed.iter().enumerate() {
                let linear = !raw.iter().any(|(n, o)| n == comp && o.contains(t));
                assert_eq!(plan.is_up(comp, t), linear, "{comp} at {t}");
                assert_eq!(resolved.is_up(k, t), linear, "resolved {comp} at {t}");
            }
            assert!(resolved.is_up(listed.len(), t), "past the list at {t}");
        }
    }
}
