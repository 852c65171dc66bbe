//! Exact heap-allocation counts on the controller's delivery path and
//! per chaos scenario: a cost gate that timing noise cannot move.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed`
//! and `realloc` call of the current thread, so the counts do not
//! depend on `nproc` or on what other test threads do. Every scenario
//! here runs on the calling thread.
//!
//! The mean over the recording chaos scenarios `generate(0xC4A05,
//! 0..40)` was 1,686.425 allocations (67,457 in all) when every
//! delivery still built its own UPS view, online mask, rack view and
//! decision maps, and 1,268.775 (50,751) with the controller's reused
//! buffers and the incremental Algorithm 1. Each poll's readings are
//! now read into a buffer the pipeline keeps and copied once into the
//! layout the flight recorder stores, and `Topology::ups_ids` is an
//! iterator rather than a fresh `Vec`: the mean is 893.15 (35,726 in
//! all), in debug and release builds alike, and the gate allows 900.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flex_chaos::scenario::{fresh_controllers, generate, run_scenario_obs, Scenario};
use flex_obs::Obs;
use flex_power::{UpsId, Watts};
use flex_sim::SimTime;
use flex_telemetry::TelemetryPayload;

/// The system allocator, counting the calls of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns and how many allocations this thread made in it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The campaign's default seed.
const CAMPAIGN_SEED: u64 = 0xC4A05;

/// A controller of the chaos room, with the flight recorder attached,
/// and healthy telemetry for it: every rack at 2.5 kW, every UPS at
/// 60 kW of its 150 kW.
fn controller_and_payloads() -> (flex_online::Controller, TelemetryPayload, TelemetryPayload) {
    let scenario: Scenario = generate(CAMPAIGN_SEED, 0);
    let mut controller = fresh_controllers(&scenario).swap_remove(0);
    controller.set_obs(&Obs::recording());
    let racks = controller.state().rack_power.len();
    let upses = controller.state().ups_power.len();
    let rack_snapshot = TelemetryPayload::racks((0..racks).map(|i| (i, Watts::from_kw(2.5))));
    let ups_snapshot = TelemetryPayload::ups((0..upses).map(|u| (UpsId(u), Watts::from_kw(60.0))));
    (controller, rack_snapshot, ups_snapshot)
}

#[test]
fn a_redundant_rack_snapshot_allocates_nothing() {
    let (mut c, racks, _) = controller_and_payloads();
    let t = SimTime::from_secs_f64(1.0);
    let first = c
        .on_delivery(t, t, &racks)
        .expect("rack snapshots never error");
    assert!(first.is_empty());
    // Pub/sub copies of the same poll, then a late copy of an older one.
    for (now, measured_at) in [(1.1, 1.0), (1.2, 1.0), (2.0, 0.5)] {
        let (commands, n) = allocations(|| {
            c.on_delivery(
                SimTime::from_secs_f64(now),
                SimTime::from_secs_f64(measured_at),
                &racks,
            )
        });
        assert!(commands.expect("rack snapshots never error").is_empty());
        assert_eq!(n, 0, "a redelivery measured at {measured_at} s allocated");
    }
}

#[test]
fn a_healthy_ups_delivery_allocates_nothing() {
    let (mut c, racks, ups) = controller_and_payloads();
    let t = SimTime::from_secs_f64(1.0);
    let _ = c
        .on_delivery(t, t, &racks)
        .expect("rack snapshots never error");
    // The first fresh UPS snapshot, a later one and a redelivery: each
    // runs (or skips) a decision round over a healthy room.
    for (now, measured_at) in [(1.5, 1.2), (3.0, 2.7), (3.1, 2.7)] {
        let (commands, n) = allocations(|| {
            c.on_delivery(
                SimTime::from_secs_f64(now),
                SimTime::from_secs_f64(measured_at),
                &ups,
            )
        });
        assert!(commands.expect("a healthy room decides cleanly").is_empty());
        assert_eq!(
            n, 0,
            "the UPS delivery measured at {measured_at} s allocated"
        );
    }
    assert!(!c.state().engaged);
}

#[test]
fn a_recording_chaos_scenario_allocates_at_most_900_times_on_average() {
    const SCENARIOS: u64 = 40;
    let mut total = 0;
    for i in 0..SCENARIOS {
        let scenario = generate(CAMPAIGN_SEED, i);
        let obs = Obs::recording();
        let (_, n) = allocations(|| run_scenario_obs(&scenario, &obs));
        total += n;
    }
    let mean = total as f64 / SCENARIOS as f64;
    println!("allocations per scenario: {mean} ({total} over {SCENARIOS} scenarios)");
    assert!(
        mean <= 900.0,
        "{mean} allocations per recording chaos scenario"
    );
}
