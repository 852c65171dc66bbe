//! Criterion: `flex_sim::Sim` dispatch cost per event.
//!
//! The six recurring ticks of `RoomSimConfig::default()` (UPS poll,
//! rack poll, demand resample, overload step, stats, watchdog) re-arm
//! themselves with near-empty bodies, so one iteration — one
//! `Sim::step` — times the kernel alone: queue pop, dispatch, and the
//! follow-up push. Two event types run the same schedule:
//!
//! - `boxed`: the default event type, a boxed closure per event;
//! - `enum`: a `Copy` enum dispatched by one `match`, the shape
//!   `RoomSim` uses, with no allocation per event.

use criterion::{criterion_group, criterion_main, Criterion};
use flex_core::online::sim::RoomSimConfig;
use flex_core::sim::{Ctx, Event, Sim, SimDuration, SimTime};

/// The six ticks as `(first firing in ns, period)`, in the order
/// `RoomSim::new` schedules them.
fn cadences() -> [(u64, SimDuration); 6] {
    let config = RoomSimConfig::default();
    [
        (0, config.pipeline.ups_poll_interval),
        (1, config.pipeline.rack_poll_interval),
        (2, config.demand_update_interval),
        (3, config.overload_step),
        (4, config.stats_interval),
        (5, config.watchdog_poll_interval),
    ]
}

/// Firing counts per tick.
type Counts = [u64; 6];

fn boxed_tick(kind: usize, every: SimDuration) -> impl FnOnce(&mut Counts, &mut Ctx<Counts>) {
    move |w, ctx| {
        if let Some(n) = w.get_mut(kind) {
            *n += 1;
        }
        ctx.schedule_in(every, boxed_tick(kind, every));
    }
}

/// The same ticks as an enum; each carries its own period.
#[derive(Clone, Copy)]
enum Tick {
    Ups(SimDuration),
    Rack(SimDuration),
    Demand(SimDuration),
    Overload(SimDuration),
    Stats(SimDuration),
    Watchdog(SimDuration),
}

impl Event<Counts> for Tick {
    fn fire(self, w: &mut Counts, ctx: &mut Ctx<Counts, Tick>) {
        let (kind, every) = match self {
            Tick::Ups(every) => (0, every),
            Tick::Rack(every) => (1, every),
            Tick::Demand(every) => (2, every),
            Tick::Overload(every) => (3, every),
            Tick::Stats(every) => (4, every),
            Tick::Watchdog(every) => (5, every),
        };
        if let Some(n) = w.get_mut(kind) {
            *n += 1;
        }
        ctx.schedule_event_in(every, self);
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/dispatch");
    let ticks = cadences();

    let mut boxed = Sim::new([0u64; 6]);
    for (kind, &(offset, every)) in ticks.iter().enumerate() {
        boxed.schedule_at(SimTime::from_nanos(offset), boxed_tick(kind, every));
    }
    group.bench_function("boxed", |b| b.iter(|| boxed.step()));

    let mut typed = Sim::with_world([0u64; 6]);
    let kinds = [
        Tick::Ups,
        Tick::Rack,
        Tick::Demand,
        Tick::Overload,
        Tick::Stats,
        Tick::Watchdog,
    ];
    for (make, &(offset, every)) in kinds.iter().zip(&ticks) {
        typed.schedule_event_at(SimTime::from_nanos(offset), make(every));
    }
    group.bench_function("enum", |b| b.iter(|| typed.step()));
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
