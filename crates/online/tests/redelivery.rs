//! Property: the closed loop is idempotent under pub/sub duplication
//! and reordering.
//!
//! Telemetry deliveries are keyed by `measured_at`, so a duplicated
//! copy (same measurement, later arrival) or a stale copy arriving
//! after a newer one must change nothing: the controller's non-empty
//! command batches — and the whole simulated room's event stream — must
//! be bit-identical to a run without the chaos.

mod common;

use common::{registry_for, small_room};
use flex_online::sim::{DeliveryChaos, DemandFn, RoomSim, RoomSimConfig};
use flex_online::{Command, Controller, ControllerConfig};
use flex_placement::PlacedRoom;
use flex_power::{FeedState, UpsId, Watts};
use flex_sim::{SimDuration, SimTime};
use flex_telemetry::TelemetryPayload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn controller_for(placed: &PlacedRoom) -> Controller {
    let registry = registry_for(placed);
    Controller::new(
        0,
        placed.room().topology().clone(),
        placed.racks().to_vec(),
        registry,
        ControllerConfig::default(),
    )
}

/// The scripted base sequence: healthy snapshots, then a failover at
/// 20 s whose overloaded snapshots repeat on the telemetry cadence.
fn base_sequence(placed: &PlacedRoom, util: f64, seed: u64) -> Vec<(f64, f64, TelemetryPayload)> {
    let topo = placed.room().topology().clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    let draws: Vec<Watts> = placed
        .racks()
        .iter()
        .map(|r| r.provisioned * rng.gen_range((util - 0.02)..(util + 0.02)))
        .collect();
    let mut out = Vec::new();
    let push = |t: f64, feed: &FeedState, out: &mut Vec<(f64, f64, TelemetryPayload)>| {
        let loads = placed.ups_loads(&draws, feed);
        let ups = TelemetryPayload::ups(
            topo.ups_ids().map(|u| (u, loads.load(u))),
        );
        let racks = TelemetryPayload::racks(
            draws.iter().enumerate().map(|(i, &w)| (i, w)),
        );
        out.push((t, t, racks));
        out.push((t, t, ups));
    };
    let healthy = FeedState::all_online(&topo);
    let failed = FeedState::with_failed(&topo, [UpsId(1)]);
    let mut t = 1.0;
    while t < 20.0 {
        push(t, &healthy, &mut out);
        t += 1.5;
    }
    while t < 60.0 {
        push(t, &failed, &mut out);
        t += 1.5;
    }
    out
}

/// Runs the sequence through a fresh controller; when `chaos_seed` is
/// `Some`, random earlier deliveries are replayed after their
/// successors (duplication + reordering). Returns the non-empty command
/// batches.
fn run_sequence(
    placed: &PlacedRoom,
    seq: &[(f64, f64, TelemetryPayload)],
    chaos_seed: Option<u64>,
) -> Vec<(String, Vec<Command>)> {
    let mut controller = controller_for(placed);
    let mut chaos = chaos_seed.map(SmallRng::seed_from_u64);
    let mut log = Vec::new();
    let mut deliver = |c: &mut Controller, now: f64, measured: f64, p: &TelemetryPayload| {
        let cmds = c
            .on_delivery(
                SimTime::from_secs_f64(now),
                SimTime::from_secs_f64(measured),
                p,
            )
            .unwrap();
        if !cmds.is_empty() {
            log.push((format!("{measured:.3}"), cmds));
        }
    };
    for (i, (now, measured, payload)) in seq.iter().enumerate() {
        deliver(&mut controller, *now, *measured, payload);
        if let Some(rng) = chaos.as_mut() {
            // Replay an arbitrary earlier delivery: a duplicate of the
            // current one, or a stale message arriving out of order.
            if rng.gen_bool(0.5) {
                let j = rng.gen_range(0..=i);
                let (_, stale_measured, stale_payload) = &seq[j];
                deliver(&mut controller, *now + 0.050, *stale_measured, stale_payload);
            }
        }
    }
    log
}

#[test]
fn duplicated_and_reordered_deliveries_change_nothing() {
    let placed = small_room(7);
    let mut exercised = 0;
    for case in 0..16u64 {
        let util = 0.80 + 0.01 * case as f64;
        let seq = base_sequence(&placed, util, 100 + case);
        let clean = run_sequence(&placed, &seq, None);
        let noisy = run_sequence(&placed, &seq, Some(900 + case));
        assert_eq!(
            clean, noisy,
            "case {case}: duplication/reordering changed the command stream"
        );
        if !clean.is_empty() {
            exercised += 1;
        }
    }
    assert!(
        exercised >= 8,
        "only {exercised} of 16 cases provoked commands — the property is vacuous"
    );
}

/// End-to-end variant: the full room simulation with pub/sub
/// duplication produces the identical event stream to a chaos-free run.
#[test]
fn room_event_stream_is_identical_under_duplication() {
    for case in 0..4u64 {
        let placed = small_room(20 + case);
        let build = |chaos: DeliveryChaos| {
            let registry = registry_for(&placed);
            let demand: DemandFn = Box::new(|rack, _, rng: &mut SmallRng| {
                rack.provisioned * rng.gen_range(0.86..0.90)
            });
            let config = RoomSimConfig {
                delivery_chaos: chaos,
                seed: 31 + case,
                ..RoomSimConfig::default()
            };
            let mut sim = RoomSim::new(&placed, registry, demand, config);
            sim.fail_ups_at(SimTime::from_secs_f64(20.0), UpsId(1));
            sim.run_until(SimTime::from_secs_f64(60.0));
            let events: Vec<String> = sim
                .world()
                .stats
                .events
                .iter()
                .map(|(t, e)| format!("{:.6}s {e:?}", t.as_secs_f64()))
                .collect();
            events
        };
        let clean = build(DeliveryChaos::off());
        let noisy = build(DeliveryChaos {
            duplicate_period: 2 + case % 3,
            duplicate_delay: SimDuration::from_millis(700),
            delay_period: 0,
            delay_by: SimDuration::ZERO,
        });
        assert!(
            clean.iter().any(|e| e.contains("Applied")),
            "case {case}: the failover must provoke enforcement"
        );
        assert_eq!(
            clean, noisy,
            "case {case}: duplicated deliveries altered the room's event stream"
        );
    }
}
