//! The event loop: a time-ordered queue of events over a world type `W`.
//!
//! An event is any value implementing [`Event`]: firing consumes it and
//! hands it the world plus a [`Ctx`] for scheduling follow-ups. The
//! default event type, [`BoxedEvent`], is a boxed one-shot closure, so
//! ad-hoc simulations schedule plain closures; a hot loop can instead
//! declare its events as an enum and dispatch them with one `match`,
//! which costs no allocation per event. Both run on the same kernel.
//!
//! The queue is a binary heap of small `(time, sequence, slot)` entries;
//! the events wait in a reusable slot table, so reordering the heap
//! never moves a payload-carrying event. The follow-up buffer each
//! [`Ctx`] fills is reused across steps as well: after warm-up, a run
//! of enum events allocates nothing in the kernel.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::{SimDuration, SimTime};

/// Something that happens at one instant of virtual time.
pub trait Event<W>: Sized {
    /// Fires the event: mutates the world and schedules any follow-ups
    /// through `ctx`.
    fn fire(self, world: &mut W, ctx: &mut Ctx<W, Self>);
}

/// A one-shot closure over the world and the scheduling context.
type EventFn<W> = dyn FnOnce(&mut W, &mut Ctx<W>);

/// The default event type: a boxed one-shot closure over the world and
/// the scheduling context.
pub struct BoxedEvent<W>(Box<EventFn<W>>);

impl<W> BoxedEvent<W> {
    /// Boxes a closure as an event.
    pub fn new<F>(f: F) -> Self
    where
        F: FnOnce(&mut W, &mut Ctx<W>) + 'static,
    {
        BoxedEvent(Box::new(f))
    }
}

impl<W> Event<W> for BoxedEvent<W> {
    fn fire(self, world: &mut W, ctx: &mut Ctx<W>) {
        (self.0)(world, ctx)
    }
}

/// A queued event's place in the order. The event itself waits in
/// `Sim::slots[slot]`, so the heap moves these small entries, not events.
struct Entry {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first; ties
        // break by insertion sequence for determinism.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Scheduling context passed to every event, used to enqueue follow-ups.
///
/// Events scheduled through the context are merged into the simulator's
/// queue, in scheduling order, when the current event returns.
pub struct Ctx<W, E = BoxedEvent<W>> {
    now: SimTime,
    pending: Vec<(SimTime, E)>,
    world: PhantomData<fn(&mut W)>,
}

impl<W, E> Ctx<W, E> {
    /// The current virtual time (the firing event's timestamp).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.pending.push((at, event));
    }

    /// Schedules an event after a relative delay.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.pending.push((at, event));
    }
}

impl<W> Ctx<W> {
    /// Schedules a closure at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Ctx<W>) + 'static,
    {
        self.schedule_event_at(at, BoxedEvent::new(f));
    }

    /// Schedules a closure after a relative delay.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Ctx<W>) + 'static,
    {
        self.schedule_event_in(delay, BoxedEvent::new(f));
    }
}

/// A deterministic discrete-event simulator over a world `W` and an
/// event type `E` (boxed closures unless chosen otherwise).
///
/// Ties in firing time resolve in scheduling order, so identical inputs
/// produce identical runs. See the crate docs for an example.
pub struct Sim<W, E = BoxedEvent<W>> {
    world: W,
    queue: BinaryHeap<Entry>,
    /// Queued events, by [`Entry::slot`]; `None` marks a free slot,
    /// listed in `free` for reuse.
    slots: Vec<Option<E>>,
    free: Vec<usize>,
    /// The follow-up buffer lent to each firing event's [`Ctx`]; empty
    /// between events, kept only so its allocation is reused.
    pending: Vec<(SimTime, E)>,
    now: SimTime,
    seq: u64,
    executed: u64,
}

impl<W> Sim<W> {
    /// Creates a simulator at time zero whose events are boxed
    /// closures.
    pub fn new(world: W) -> Self {
        Sim::with_world(world)
    }

    /// Schedules a closure at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Ctx<W>) + 'static,
    {
        self.schedule_event_at(at, BoxedEvent::new(f));
    }

    /// Schedules a closure after a relative delay.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Ctx<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }
}

impl<W, E: Event<W>> Sim<W, E> {
    /// Creates a simulator at time zero around the given world, for any
    /// event type.
    pub fn with_world(world: W) -> Self {
        Sim {
            world,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            pending: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (between events).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, event);
    }

    /// Schedules an event after a relative delay.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at(self.now + delay, event);
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        self.queue.push(Entry { time, seq, slot });
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.time)
    }

    /// Executes the next event, advancing time to it. Returns `false` when
    /// the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        let event = self.slots[entry.slot]
            .take()
            .expect("a queued entry's slot holds its event");
        self.free.push(entry.slot);
        self.now = entry.time;
        let mut ctx = Ctx {
            now: self.now,
            pending: std::mem::take(&mut self.pending),
            world: PhantomData,
        };
        event.fire(&mut self.world, &mut ctx);
        self.executed += 1;
        let mut pending = ctx.pending;
        for (at, event) in pending.drain(..) {
            self.push(at, event);
        }
        self.pending = pending;
        true
    }

    /// Runs events with firing time `<= deadline`, then advances the clock
    /// to exactly `deadline`. Events scheduled later stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.executed;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        self.executed - start
    }
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Sim<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_nanos(30), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut Vec<u32>, _| w.push(2));
        while sim.step() {}
        assert_eq!(sim.world(), &vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            sim.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        while sim.step() {}
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_events() {
        let mut sim = Sim::new(0u64);
        sim.schedule_in(SimDuration::from_secs(1), |w: &mut u64, ctx| {
            *w += 1;
            ctx.schedule_in(SimDuration::from_secs(2), |w: &mut u64, ctx| {
                *w += 10;
                ctx.schedule_in(SimDuration::from_secs(3), |w: &mut u64, _| *w += 100);
            });
        });
        let mut executed = 0;
        while sim.step() {
            executed += 1;
        }
        assert_eq!(*sim.world(), 111);
        assert_eq!(sim.now(), SimTime::from_secs_f64(6.0));
        assert_eq!(executed, 3);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(0u32);
        for i in 1..=10 {
            sim.schedule_at(SimTime::from_secs_f64(i as f64), |w: &mut u32, _| *w += 1);
        }
        let executed = sim.run_until(SimTime::from_secs_f64(4.5));
        assert_eq!(executed, 4);
        assert_eq!(*sim.world(), 4);
        assert_eq!(sim.now(), SimTime::from_secs_f64(4.5));
        while sim.step() {}
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime::from_secs_f64(5.0), |_, _| {});
        while sim.step() {}
        sim.schedule_at(SimTime::from_secs_f64(1.0), |_, _| {});
    }

    #[test]
    fn periodic_self_rescheduling_pattern() {
        // The idiom used by pollers/controllers: an event that re-arms
        // itself.
        fn tick(w: &mut u32, ctx: &mut Ctx<u32>) {
            *w += 1;
            if *w < 5 {
                ctx.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::ZERO, tick);
        while sim.step() {}
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_secs_f64(4.0));
    }

    #[test]
    fn determinism_across_runs() {
        fn run() -> (Vec<u32>, SimTime) {
            let mut sim = Sim::new(Vec::new());
            for i in 0..100u32 {
                let t = SimTime::from_nanos(((i * 37) % 50) as u64);
                sim.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
            }
            while sim.step() {}
            (sim.world().clone(), sim.now())
        }
        assert_eq!(run(), run());
    }

    /// The world of the ordering property: a log of `(fire time, event
    /// id)` and the next id to hand out.
    #[derive(Default)]
    struct Log {
        fired: Vec<(SimTime, u32)>,
        next_id: u32,
    }

    /// Deepest follow-up generation an event may schedule.
    const MAX_DEPTH: u8 = 3;

    /// Fires event `id` at `now`: logs it and returns its follow-ups as
    /// `(delay, id, depth)`, a pure function of the id, so every engine
    /// and the reference see the same schedule. Delays of zero collide
    /// with the firing instant itself.
    fn fire_node(log: &mut Log, now: SimTime, id: u32, depth: u8) -> Vec<(SimDuration, u32, u8)> {
        log.fired.push((now, id));
        if depth >= MAX_DEPTH {
            return Vec::new();
        }
        let mix = id.wrapping_mul(0x9E37_79B9).rotate_left(7);
        (0..mix % 3)
            .map(|k| {
                let delay = SimDuration::from_nanos(u64::from((mix >> (4 * k + 2)) % 3));
                log.next_id += 1;
                (delay, log.next_id, depth + 1)
            })
            .collect()
    }

    /// The same schedule as an enum event type.
    enum Node {
        Fire { id: u32, depth: u8 },
    }

    impl Event<Log> for Node {
        fn fire(self, log: &mut Log, ctx: &mut Ctx<Log, Node>) {
            let Node::Fire { id, depth } = self;
            for (delay, id, depth) in fire_node(log, ctx.now(), id, depth) {
                ctx.schedule_event_in(delay, Node::Fire { id, depth });
            }
        }
    }

    /// The same schedule as boxed closures.
    fn boxed_node(id: u32, depth: u8) -> impl FnOnce(&mut Log, &mut Ctx<Log>) {
        move |log, ctx| {
            for (delay, id, depth) in fire_node(log, ctx.now(), id, depth) {
                ctx.schedule_in(delay, boxed_node(id, depth));
            }
        }
    }

    /// A schedule: initial events `(time, injected after step)`; an
    /// event with `after = k` is scheduled from outside between steps
    /// `k` and `k + 1` (at the current time plus its `time`), the rest
    /// before the run.
    type Schedule = Vec<(u64, usize)>;

    /// The reference model: a list kept sorted by `(time, insertion
    /// order)`, drained from the front.
    fn reference(schedule: &Schedule) -> Vec<(SimTime, u32)> {
        let mut log = Log::default();
        let mut queue: Vec<(SimTime, u64, u32, u8)> = Vec::new();
        let mut seq = 0u64;
        let mut push = |queue: &mut Vec<(SimTime, u64, u32, u8)>, at, id, depth| {
            queue.push((at, seq, id, depth));
            seq += 1;
            queue.sort_by_key(|&(t, s, _, _)| (t, s));
        };
        for (i, &(t, after)) in schedule.iter().enumerate() {
            if after == 0 {
                push(&mut queue, SimTime::from_nanos(t), i as u32, 0);
            }
        }
        log.next_id = schedule.len() as u32;
        let mut step = 0;
        while !queue.is_empty() {
            let (now, _, id, depth) = queue.remove(0);
            for (delay, child, depth) in fire_node(&mut log, now, id, depth) {
                push(&mut queue, now + delay, child, depth);
            }
            step += 1;
            for (i, &(t, after)) in schedule.iter().enumerate() {
                if after == step {
                    push(&mut queue, now + SimDuration::from_nanos(t), i as u32, 0);
                }
            }
        }
        log.fired
    }

    /// Drives `sim` through `schedule` one step at a time.
    fn drive<E: Event<Log>>(
        mut sim: Sim<Log, E>,
        schedule: &Schedule,
        make: impl Fn(u32) -> E,
    ) -> Vec<(SimTime, u32)> {
        for (i, &(t, after)) in schedule.iter().enumerate() {
            if after == 0 {
                sim.schedule_event_at(SimTime::from_nanos(t), make(i as u32));
            }
        }
        sim.world_mut().next_id = schedule.len() as u32;
        let mut step = 0;
        while sim.step() {
            step += 1;
            for (i, &(t, after)) in schedule.iter().enumerate() {
                if after == step {
                    sim.schedule_event_in(SimDuration::from_nanos(t), make(i as u32));
                }
            }
        }
        std::mem::take(&mut sim.world_mut().fired)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn events_fire_in_time_then_insertion_order(
            schedule in proptest::collection::vec((0u64..6, 0usize..12), 1..40)
        ) {
            let expected = reference(&schedule);
            let typed = drive(Sim::with_world(Log::default()), &schedule, |id| Node::Fire {
                id,
                depth: 0,
            });
            let boxed = drive(Sim::new(Log::default()), &schedule, |id| {
                BoxedEvent::new(boxed_node(id, 0))
            });
            // Equal logs also rule out leaks: a follow-up left behind in
            // the reused pending buffer would be queued again by a later
            // step, out of its order.
            prop_assert_eq!(&typed, &expected, "enum events");
            prop_assert_eq!(&boxed, &expected, "boxed events");
        }
    }
}
