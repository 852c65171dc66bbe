//! Failure injection: up/down schedules for the room's control-plane
//! components.
//!
//! Flex's availability argument is that the loss of any one part of the
//! control plane — a poller, a switch group, a pub/sub instance, a
//! logical meter, a rack manager, a controller instance — never
//! silences it. A [`FaultPlan`] knocks such parts out on schedules. It
//! only stores windows, hand-written (worst-case scenarios) or sampled
//! elsewhere: the chaos harness draws its MTBF/MTTR outages itself and
//! adds them with [`FaultPlan::add_outage`].
//!
//! A part is a typed [`Component`]. Its one text form (`"poller/0"`,
//! `"rm/12"`, `"meter/ups1/UpsOutput"`) exists for scenario files and
//! reports: [`Component::parse`] accepts exactly what `Display` prints.
//!
//! Queries are hot (every poller × component × tick), so windows live in
//! dense per-class tables indexed by the component's number, sorted and
//! merged, and a query is one index plus a binary search.

use std::fmt;

use flex_power::meter::MeterKind;
use flex_sim::SimTime;

/// One part of the room's control plane that a [`FaultPlan`] can take
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Telemetry poller `i` (`"poller/{i}"`).
    Poller(usize),
    /// Management switch group `g` (`"switch/{g}"`).
    Switch(usize),
    /// Pub/sub instance `k` (`"pubsub/{k}"`).
    PubSub(usize),
    /// The `kind` logical meter of UPS `ups` (`"meter/ups{ups}/{kind:?}"`,
    /// e.g. `"meter/ups2/UpsOutput"`).
    UpsMeter {
        /// UPS index.
        ups: usize,
        /// Which of the UPS's three logical meters.
        kind: MeterKind,
    },
    /// Rack manager of rack `r` (`"rm/{r}"`).
    RackManager(usize),
    /// Multi-primary controller instance `i` (`"controller/{i}"`).
    Controller(usize),
}

impl Component {
    /// The component `text` spells, or `None` unless `text` is exactly
    /// what `Display` prints for it: no leading zero or sign, no
    /// trailing characters, a meter kind in its `Debug` spelling.
    pub fn parse(text: &str) -> Option<Self> {
        let (class, rest) = text.split_once('/')?;
        let number = |digits: &str| digits.parse::<usize>().ok();
        let component = match class {
            "poller" => Component::Poller(number(rest)?),
            "switch" => Component::Switch(number(rest)?),
            "pubsub" => Component::PubSub(number(rest)?),
            "rm" => Component::RackManager(number(rest)?),
            "controller" => Component::Controller(number(rest)?),
            "meter" => {
                let (ups, kind) = rest.strip_prefix("ups")?.split_once('/')?;
                let kind = MeterKind::ALL
                    .into_iter()
                    .find(|k| format!("{k:?}") == kind)?;
                Component::UpsMeter {
                    ups: number(ups)?,
                    kind,
                }
            }
            _ => return None,
        };
        // `usize::from_str` also takes "+1" and "01"; one spelling only.
        (component.to_string() == text).then_some(component)
    }

    /// The component's table in a [`FaultPlan`] and its row there.
    fn slot(self) -> (usize, usize) {
        match self {
            Component::Poller(i) => (0, i),
            Component::Switch(g) => (1, g),
            Component::PubSub(k) => (2, k),
            Component::UpsMeter { ups, kind } => (3, ups * MeterKind::ALL.len() + kind as usize),
            Component::RackManager(r) => (4, r),
            Component::Controller(i) => (5, i),
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::Poller(i) => write!(f, "poller/{i}"),
            Component::Switch(g) => write!(f, "switch/{g}"),
            Component::PubSub(k) => write!(f, "pubsub/{k}"),
            Component::UpsMeter { ups, kind } => write!(f, "meter/ups{ups}/{kind:?}"),
            Component::RackManager(r) => write!(f, "rm/{r}"),
            Component::Controller(i) => write!(f, "controller/{i}"),
        }
    }
}

/// A half-open outage window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outage {
    from: SimTime,
    until: SimTime,
}

impl Outage {
    fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// Up/down schedule for the room's components.
///
/// Windows are stored per component, sorted by start and merged when they
/// touch or overlap, so [`FaultPlan::is_up`] is a binary search rather
/// than a scan of every outage in the plan.
///
/// ```
/// use flex_sim::SimTime;
/// use flex_telemetry::fault::{Component, FaultPlan};
///
/// let mut plan = FaultPlan::new();
/// let poller = Component::Poller(0);
/// plan.add_outage(poller, SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(20.0));
/// assert!(plan.is_up(poller, SimTime::from_secs_f64(5.0)));
/// assert!(!plan.is_up(poller, SimTime::from_secs_f64(15.0)));
/// assert!(plan.is_up(Component::Poller(1), SimTime::from_secs_f64(15.0))); // unlisted = always up
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// One table per component class, in [`Component::slot`] order, each
    /// indexed by the component's row: that component's windows, sorted
    /// by `from` and non-overlapping (merged at insertion). A table ends
    /// at its last row with an outage.
    tables: [Vec<Vec<Outage>>; 6],
}

impl FaultPlan {
    /// An empty plan: everything is always up.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an outage window for a component. Overlapping or touching
    /// windows for the same component are merged. The component's table
    /// grows to its row, so callers add only components of the room.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn add_outage(&mut self, component: Component, from: SimTime, until: SimTime) -> &mut Self {
        assert!(until > from, "outage must have positive duration");
        let new = Outage { from, until };
        let (table, row) = component.slot();
        let Some(rows) = self.tables.get_mut(table) else {
            return self;
        };
        if rows.len() <= row {
            rows.resize_with(row + 1, Vec::new);
        }
        let Some(windows) = rows.get_mut(row) else {
            return self;
        };
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
    pub fn is_up(&self, component: Component, t: SimTime) -> bool {
        let (table, row) = component.slot();
        self.tables
            .get(table)
            .and_then(|rows| rows.get(row))
            .is_none_or(|windows| up_at(windows, t))
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

#[cfg(test)]
mod tests {
    use super::*;
    use flex_sim::SimDuration;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const X: Component = Component::RackManager(3);

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Every component of a room with `ups` UPSes, `racks` racks and
    /// `controllers` controller instances, on the pipeline's fabric.
    fn room(ups: usize, racks: usize, controllers: usize) -> Vec<Component> {
        let mut all: Vec<Component> = (0..crate::POLLERS).map(Component::Poller).collect();
        all.extend((0..crate::SWITCH_GROUPS).map(Component::Switch));
        all.extend((0..crate::PUBSUB_INSTANCES).map(Component::PubSub));
        for u in 0..ups {
            all.extend(MeterKind::ALL.map(|kind| Component::UpsMeter { ups: u, kind }));
        }
        all.extend((0..racks).map(Component::RackManager));
        all.extend((0..controllers).map(Component::Controller));
        all
    }

    #[test]
    fn outage_window_semantics() {
        let o = Outage { from: secs(1.0), until: secs(2.0) };
        assert!(o.contains(secs(1.0)));
        assert!(o.contains(secs(1.999)));
        assert!(!o.contains(secs(2.0)));
        assert!(!o.contains(secs(0.999)));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_length_outage_panics() {
        FaultPlan::new().add_outage(X, secs(1.0), secs(1.0));
    }

    #[test]
    fn plan_overlapping_outages() {
        let mut plan = FaultPlan::new();
        plan.add_outage(X, secs(0.0), secs(10.0));
        plan.add_outage(X, secs(5.0), secs(15.0));
        assert!(!plan.is_up(X, secs(7.0)));
        assert!(!plan.is_up(X, secs(12.0)));
        assert!(plan.is_up(X, secs(15.0)));
        // Overlapping windows merge into one.
        assert_eq!(plan.tables[4][3].len(), 1);
    }

    #[test]
    fn disjoint_windows_stay_separate_and_searchable() {
        let mut plan = FaultPlan::new();
        // Inserted out of order on purpose.
        plan.add_outage(X, secs(40.0), secs(50.0));
        plan.add_outage(X, secs(0.0), secs(10.0));
        plan.add_outage(X, secs(20.0), secs(30.0));
        assert_eq!(plan.tables[4][3].len(), 3);
        for (t, up) in [
            (5.0, false),
            (15.0, true),
            (25.0, false),
            (35.0, true),
            (45.0, false),
            (50.0, true),
        ] {
            assert_eq!(plan.is_up(X, secs(t)), up, "t={t}");
        }
    }

    #[test]
    fn components_listing() {
        // Windows belong to their own component only, across classes
        // and within one.
        let (a, b) = (Component::Poller(1), Component::Controller(1));
        let mut plan = FaultPlan::new();
        plan.add_outage(b, SimTime::ZERO, secs(1.0));
        plan.add_outage(a, SimTime::ZERO, secs(1.0));
        plan.add_outage(a, secs(2.0), secs(3.0));
        for (c, down) in [(a, [true, true]), (b, [true, false])] {
            assert_eq!(!plan.is_up(c, secs(0.5)), down[0], "{c}");
            assert_eq!(!plan.is_up(c, secs(2.5)), down[1], "{c}");
        }
        for c in [Component::Poller(0), Component::Switch(1), Component::RackManager(1)] {
            assert!(plan.is_up(c, secs(0.5)) && plan.is_up(c, secs(2.5)), "{c}");
        }
    }

    #[test]
    fn display_matches_wire_format() {
        let meter = Component::UpsMeter { ups: 2, kind: MeterKind::UpsOutput };
        assert_eq!(Component::Poller(0).to_string(), "poller/0");
        assert_eq!(Component::Switch(3).to_string(), "switch/3");
        assert_eq!(Component::PubSub(1).to_string(), "pubsub/1");
        assert_eq!(meter.to_string(), "meter/ups2/UpsOutput");
        assert_eq!(Component::RackManager(41).to_string(), "rm/41");
        assert_eq!(Component::Controller(2).to_string(), "controller/2");
    }

    #[test]
    fn text_form_round_trips_and_refuses_near_misses() {
        // The chaos room: 4 UPSes, 40 racks, 3 controllers.
        for c in room(4, 40, 3) {
            assert_eq!(Component::parse(&c.to_string()), Some(c), "{c}");
        }
        for text in [
            "",
            "poler/1",
            "poller/",
            "poller/01",
            "poller/+1",
            "rm/-1",
            "controller/0/",
            "meter/ups0/upsoutput",
            "meter/ups+0/UpsOutput",
            "meter/0/UpsOutput",
            "pubsub/18446744073709551616",
        ] {
            assert_eq!(Component::parse(text), None, "{text:?}");
        }
    }

    #[test]
    fn components_of_one_room_never_share_a_slot() {
        let all = room(4, 40, 3);
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert_ne!(a.slot(), b.slot(), "{a} and {b}");
            }
        }
    }

    #[test]
    fn indexed_is_up_agrees_with_linear_scan() {
        // Regression for the index: compare against the obvious O(n)
        // implementation over a messy random plan. Two components of
        // the room have no outage at all.
        let all = room(2, 4, 3);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut plan = FaultPlan::new();
        let mut raw: Vec<(Component, Outage)> = Vec::new();
        for i in 0..200 {
            let comp = all[i % (all.len() - 2)];
            let from = secs(rng.gen_range(0.0..500.0));
            let until = from + SimDuration::from_secs_f64(rng.gen_range(0.1..40.0));
            plan.add_outage(comp, from, until);
            raw.push((comp, Outage { from, until }));
        }
        for i in 0..1000 {
            let t = secs(i as f64 * 0.55);
            for &comp in &all {
                let linear = !raw.iter().any(|&(c, o)| c == comp && o.contains(t));
                assert_eq!(plan.is_up(comp, t), linear, "{comp} at {t}");
            }
        }
    }
}
