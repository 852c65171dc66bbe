//! `flex-obs` integration properties over the room simulation:
//!
//! 1. **Zero-perturbation** — a recording [`Obs`] attached to the sim
//!    must not change a single simulation outcome relative to the noop
//!    handle (recording never touches RNG streams or scheduling).
//! 2. **Determinism** — two instrumented runs at the same seed produce
//!    byte-identical dumps, and metric handles fed from any number of
//!    threads produce the same snapshot.
//! 3. **Replay fidelity** — feeding the flight-recorder dump back into
//!    fresh controllers reproduces the recorded command sequence
//!    bit-identically (`flex_online::replay`).

mod common;

use common::{registry_for, small_room};
use flex_obs::{FlightEvent, Obs};
use flex_online::replay::{recorded_commands, replay_decisions};
use flex_online::sim::{DemandFn, RoomSim, RoomSimConfig};
use flex_online::Controller;
use flex_power::UpsId;
use flex_sim::SimTime;
use rand::rngs::SmallRng;
use rand::Rng;

/// Runs a high-utilization failover to 60 s and returns the finished
/// sim. With `util` ≈ 0.95 the survivors land on the trip curve and the
/// controllers must shed, so commands, retries, and watchdog paths all
/// light up.
fn run_failover(obs: &Obs) -> RoomSim {
    run_failover_with(obs, RoomSimConfig::default().controllers)
}

/// [`run_failover`] with `controllers` multi-primary instances.
fn run_failover_with(obs: &Obs, controllers: usize) -> RoomSim {
    let placed = small_room(7);
    let registry = registry_for(&placed);
    let demand: DemandFn = Box::new(move |rack, _, rng: &mut SmallRng| {
        rack.provisioned * rng.gen_range(0.93..0.97)
    });
    let config = RoomSimConfig {
        controllers,
        seed: 0xB5,
        obs: obs.clone(),
        ..RoomSimConfig::default()
    };
    let mut sim = RoomSim::new(&placed, registry, demand, config);
    sim.fail_ups_at(SimTime::from_secs_f64(20.0), UpsId(1));
    sim.run_until(SimTime::from_secs_f64(60.0));
    sim
}

/// The outcome fingerprint an observer must never change: the full
/// event log, every detection latency, and the final total power.
fn fingerprint(sim: &RoomSim) -> String {
    let w = sim.world();
    format!(
        "{:?} | {:?} | {:?}",
        w.stats.events,
        w.stats.detection_latency,
        w.stats.total_power.points().last()
    )
}

#[test]
fn recording_never_perturbs_the_simulation() {
    let noop = run_failover(&Obs::noop());
    let recorded = run_failover(&Obs::recording());
    assert_eq!(
        fingerprint(&noop),
        fingerprint(&recorded),
        "attaching a recorder changed simulation outcomes"
    );
    assert!(
        noop.world().obs().dump().events.is_empty(),
        "noop handle must record nothing"
    );
}

#[test]
fn instrumented_runs_are_byte_deterministic() {
    let a = run_failover(&Obs::recording());
    let b = run_failover(&Obs::recording());
    let dump_a = a.world().obs().dump();
    let dump_b = b.world().obs().dump();
    assert!(
        !dump_a.events.is_empty(),
        "the failover must leave flight events behind"
    );
    assert_eq!(
        dump_a.to_json(),
        dump_b.to_json(),
        "same seed, different dump bytes"
    );
    assert_eq!(
        a.world().obs().snapshot().to_value().to_json(),
        b.world().obs().snapshot().to_value().to_json(),
        "same seed, different metrics snapshot"
    );
    // The headline span exists and saw the failover.
    let snap = a.world().obs().snapshot();
    let detect = snap
        .histograms
        .get("span/detect/failure_to_first_command")
        .expect("detect span registered");
    assert!(detect.count >= 1, "no detect-to-shed sample recorded");
    // The latency spans are the only in-process latency record: each
    // holds one sample per event its paired counter counts.
    for (span, counter) in [
        ("span/telemetry/measure_to_arrive", "telemetry/deliveries"),
        ("span/actuate/submit_to_apply", "actuation/submissions"),
    ] {
        let samples = snap.histograms.get(span).map_or(0, |h| h.count);
        let events = snap.counters.get(counter).copied().unwrap_or(0);
        assert!(samples > 0, "{span} recorded nothing");
        assert_eq!(samples, events, "{span} samples vs {counter}");
    }
}

#[test]
fn concurrent_writers_snapshot_identically_across_thread_counts() {
    let run_with = |threads: u64| {
        let obs = Obs::recording();
        let mut handles = Vec::new();
        for t in 0..threads {
            let counter = obs.counter("work/items");
            let hist = obs.histogram("work/sizes");
            handles.push(std::thread::spawn(move || {
                // Each thread contributes a fixed, thread-count-
                //-independent share of the total workload.
                for i in (t..120).step_by(threads as usize) {
                    counter.inc();
                    hist.observe(i * 17 + 3);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        obs.snapshot().to_value().to_json()
    };
    let one = run_with(1);
    assert_eq!(one, run_with(4), "1-thread vs 4-thread snapshots differ");
}

/// Fresh controllers for [`run_failover`]'s room, built exactly like
/// `RoomSim::new` builds them.
fn fresh_controllers(count: usize) -> Vec<Controller> {
    let placed = small_room(7);
    let topo = placed.room().topology().clone();
    let registry = registry_for(&placed);
    let config = RoomSimConfig::default();
    (0..count)
        .map(|i| {
            Controller::new(
                i,
                topo.clone(),
                placed.racks().to_vec(),
                registry.clone(),
                config.controller,
            )
        })
        .collect()
}

#[test]
fn replay_from_dump_reproduces_the_decision_sequence() {
    let obs = Obs::recording();
    let sim = run_failover(&obs);
    let dump = sim.world().obs().dump();
    assert_eq!(dump.dropped, 0, "ring overflowed; grow the capacity");

    let recorded = recorded_commands(&dump.events);
    assert!(
        !recorded.is_empty(),
        "the failover must have provoked commands"
    );

    let mut controllers = fresh_controllers(RoomSimConfig::default().controllers);
    let replayed = replay_decisions(&mut controllers, &dump.events);
    assert_eq!(
        replayed, recorded,
        "replaying the dump diverged from the recorded decision sequence"
    );

    // The dump must also survive a JSON round trip and still replay.
    let text = dump.to_json();
    let parsed = flex_obs::ObsDump::from_value(
        &flex_obs::json::parse(&text).expect("dump JSON parses"),
    )
    .expect("dump JSON decodes");
    assert_eq!(parsed.events, dump.events, "events changed in transit");

    // Sanity: the recorded stream carries the input kinds replay needs.
    let has = |f: fn(&FlightEvent) -> bool| dump.events.iter().any(|(_, e)| f(e));
    assert!(has(|e| matches!(e, FlightEvent::UpsDelivery { .. })));
    assert!(has(|e| matches!(e, FlightEvent::FailoverAlarm { .. })));
    assert!(has(|e| matches!(e, FlightEvent::CommandIssued { .. })));
}

#[test]
fn rooms_past_the_receiver_mask_run_and_replay() {
    // A delivery's receiver mask is a `u32`, so instance 32 of a
    // 33-instance room has no bit and must never receive telemetry: not
    // panic on the shift, and not act on deliveries the recorded mask
    // says nobody else received, which replay could not reproduce.
    let controllers = 33;
    let obs = Obs::recording();
    let sim = run_failover_with(&obs, controllers);
    let dump = sim.world().obs().dump();
    assert_eq!(dump.dropped, 0, "ring overflowed; grow the capacity");
    let recorded = recorded_commands(&dump.events);
    assert!(
        !recorded.is_empty(),
        "the failover must have provoked commands"
    );
    let replayed = replay_decisions(&mut fresh_controllers(controllers), &dump.events);
    assert_eq!(
        replayed, recorded,
        "replay diverged from the live command stream"
    );
}
