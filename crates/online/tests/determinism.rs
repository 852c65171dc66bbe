//! Regression: the online controller is deterministic. Two controllers
//! fed the identical telemetry sequence must emit bit-identical command
//! sequences — the property rule D2 (no hash collections on the control
//! path) exists to protect.

use flex_online::{Command, Controller, ControllerConfig, ImpactRegistry};
use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
use flex_placement::{PlacedRoom, RoomConfig};
use flex_power::{FeedState, Fraction, UpsId, Watts};
use flex_sim::SimTime;
use flex_telemetry::TelemetryPayload;
use flex_workload::impact::scenarios;
use flex_workload::power_model::RackPowerModel;
use flex_workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn scenario() -> (PlacedRoom, Vec<Watts>) {
    let room = RoomConfig::paper_emulation_room().build().unwrap();
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut rng = SmallRng::seed_from_u64(11);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
    let placed = PlacedRoom::materialize(&room, &trace, &placement);
    let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
    let mut rng = SmallRng::seed_from_u64(12);
    let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
        &provisioned,
        Fraction::clamped(0.84),
        &mut rng,
    );
    (placed, draws)
}

fn snapshots(placed: &PlacedRoom, draws: &[Watts], feed: &FeedState) -> (TelemetryPayload, TelemetryPayload) {
    let loads = placed.ups_loads(draws, feed);
    let ups = TelemetryPayload::ups(
        placed
            .room()
            .topology()
            .ups_ids()
            .map(|u| (u, loads.load(u))),
    );
    let racks =
        TelemetryPayload::racks(draws.iter().enumerate().map(|(i, &w)| (i, w)));
    (ups, racks)
}

/// Drives one fresh controller through a scripted failover and records
/// every (time, command-batch) pair it emits.
fn run_once(placed: &PlacedRoom, draws: &[Watts]) -> Vec<String> {
    let topo = placed.room().topology().clone();
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    let mut controller = Controller::new(
        0,
        topo.clone(),
        placed.racks().to_vec(),
        registry,
        ControllerConfig::default(),
    );
    let mut log = Vec::new();
    let mut record = |t: SimTime, cmds: Vec<Command>| {
        if !cmds.is_empty() {
            log.push(format!("{:.3}s {:?}", t.as_secs_f64(), cmds));
        }
    };

    // Healthy room, then UPS 0 trips at t = 20 s; the overloaded
    // snapshot repeats on the telemetry cadence for a minute.
    let healthy = FeedState::all_online(&topo);
    let (ups, racks) = snapshots(placed, draws, &healthy);
    let t0 = SimTime::from_secs_f64(1.0);
    record(t0, controller.on_delivery(t0, t0, &racks).unwrap());
    record(t0, controller.on_delivery(t0, t0, &ups).unwrap());

    let failed = FeedState::with_failed(&topo, [UpsId(0)]);
    let (ups, racks) = snapshots(placed, draws, &failed);
    let mut t = 20.0;
    while t < 80.0 {
        let now = SimTime::from_secs_f64(t);
        record(now, controller.on_delivery(now, now, &racks).unwrap());
        record(now, controller.on_delivery(now, now, &ups).unwrap());
        t += 1.5;
    }
    log
}

#[test]
fn controller_command_sequence_is_identical_across_runs() {
    let (placed, draws) = scenario();
    let first = run_once(&placed, &draws);
    let second = run_once(&placed, &draws);
    assert!(
        !first.is_empty(),
        "the scripted failover must provoke at least one command batch"
    );
    assert_eq!(
        first, second,
        "same telemetry, different decisions — the control path lost determinism"
    );
}

#[test]
fn controller_action_log_is_identical_across_runs() {
    let (placed, draws) = scenario();
    let topo = placed.room().topology().clone();
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    let build = || {
        Controller::new(
            0,
            topo.clone(),
            placed.racks().to_vec(),
            registry.clone(),
            ControllerConfig::default(),
        )
    };
    let failed = FeedState::with_failed(&topo, [UpsId(0)]);
    let (ups, racks) = snapshots(&placed, &draws, &failed);
    let mut a = build();
    let mut b = build();
    for step in 0..10 {
        let now = SimTime::from_secs_f64(20.0 + 1.5 * step as f64);
        let ca = a.on_delivery(now, now, &racks).unwrap();
        let cb = b.on_delivery(now, now, &racks).unwrap();
        assert_eq!(ca, cb, "rack snapshot at {now:?} diverged");
        let ca = a.on_delivery(now, now, &ups).unwrap();
        let cb = b.on_delivery(now, now, &ups).unwrap();
        assert_eq!(ca, cb, "ups snapshot at {now:?} diverged");
    }
    assert_eq!(
        a.action_log(),
        b.action_log(),
        "the engaged-action maps must match entry for entry"
    );
    assert!(a.state().engaged, "the overload must have engaged the controller");
}
