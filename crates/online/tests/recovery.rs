//! Crash-recovery properties of the multi-primary controller:
//!
//! 1. **Twin equivalence** — a restarted instance that bootstraps from
//!    a [`RecoverySnapshot`] plus the bounded catch-up replay reaches a
//!    state bit-identical to an instance that never crashed, and the
//!    two issue identical commands for identical post-restart inputs.
//!    Driven directly (no RNG anywhere), so the property is exact.
//! 2. **Multi-primary convergence** — instances fed divergent delivery
//!    subsets (including one that crashes and recovers mid-stream)
//!    converge to identical state once a common stream resumes.
//! 3. **In-flight actuation across restart** — a command whose issuer
//!    crashed before its apply-time still applies, and the recovered
//!    issuer owns the rack (restores it at heal); without recovery the
//!    same scenario silently orphans the rack.

mod common;

use common::{registry_for, small_room};
use flex_online::recovery::{CatchUpBuffer, RecoverySnapshot};
use flex_online::sim::{DemandFn, RoomSim, RoomSimConfig, SimEvent};
use flex_online::{
    Command, Controller, ControllerConfig, ControllerState, ImpactRegistry, RackPowerState,
};
use flex_placement::PlacedRoom;
use flex_power::{FeedState, LoadModel, UpsId, Watts};
use flex_sim::{SimDuration, SimTime};
use flex_telemetry::fault::{Component, FaultPlan};
use flex_telemetry::{Delivery, TelemetryPayload};
use rand::rngs::SmallRng;
use rand::Rng;

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A deterministic stand-in for the room: per-rack demand, enacted rack
/// states, and the electrical mapping onto UPS devices. Commands apply
/// instantly, so the controller's view and the "physics" never race —
/// exactly the setting where twin equivalence must be exact.
struct MiniWorld {
    placed: PlacedRoom,
    base: Vec<Watts>,
    demand: Vec<Watts>,
    states: Vec<RackPowerState>,
    failed: Option<UpsId>,
}

impl MiniWorld {
    fn new(placed: PlacedRoom, util: f64) -> Self {
        let base: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned * util).collect();
        let n = placed.racks().len();
        MiniWorld {
            placed,
            demand: base.clone(),
            base,
            states: vec![RackPowerState::Normal; n],
            failed: None,
        }
    }

    fn apply(&mut self, cmd: &Command) {
        match *cmd {
            Command::Act { rack, kind } => {
                let flex = self.placed.racks()[rack.0].flex_power;
                match kind {
                    flex_online::ActionKind::Shutdown => {
                        self.demand[rack.0] = Watts::ZERO;
                        self.states[rack.0] = RackPowerState::Off;
                    }
                    flex_online::ActionKind::Throttle => {
                        self.demand[rack.0] = self.demand[rack.0].min(flex);
                        self.states[rack.0] = RackPowerState::Throttled;
                    }
                }
            }
            Command::Restore { rack } => {
                self.demand[rack.0] = self.base[rack.0];
                self.states[rack.0] = RackPowerState::Normal;
            }
        }
    }

    fn ups_payload(&self) -> TelemetryPayload {
        let topo = self.placed.room().topology();
        let mut lm = LoadModel::new(topo);
        for (i, r) in self.placed.racks().iter().enumerate() {
            lm.add_pair_load(r.pdu_pair, self.demand[i]).unwrap();
        }
        let mut feed = FeedState::all_online(topo);
        if let Some(u) = self.failed {
            feed.fail(u).unwrap();
        }
        let loads = lm.ups_loads(&feed);
        TelemetryPayload::ups(
            topo.upses().iter().map(|u| (u.id(), loads.load(u.id()))),
        )
    }

    fn rack_payload(&self) -> TelemetryPayload {
        TelemetryPayload::racks(
            self.demand.iter().enumerate().map(|(i, &w)| (i, w)),
        )
    }
}

fn controller_for(placed: &PlacedRoom, registry: &ImpactRegistry, config: ControllerConfig) -> Controller {
    Controller::new(
        0,
        placed.room().topology().clone(),
        placed.racks().to_vec(),
        registry.clone(),
        config,
    )
}

const STEP_MS: u64 = 500;
const ALARM_MS: u64 = 10_250;

/// Feeds one round (UPS snapshot then rack snapshot) to every listed
/// controller, mirrors the deliveries into the catch-up buffer, and
/// returns each controller's emitted commands for the round.
fn feed_round(
    controllers: &mut [&mut Controller],
    world: &MiniWorld,
    buffer: &mut CatchUpBuffer,
    seq: &mut u64,
    t_ms: u64,
) -> Vec<Vec<Command>> {
    let now = at_ms(t_ms);
    let measured = at_ms(t_ms - 150);
    let mut out = vec![Vec::new(); controllers.len()];
    for payload in [world.ups_payload(), world.rack_payload()] {
        *seq += 1;
        buffer.push(Delivery {
            seq: *seq,
            pubsub: 0,
            arrive_at: now,
            measured_at: measured,
            payload: payload.clone(),
        });
        for (i, c) in controllers.iter_mut().enumerate() {
            let cmds = c.on_delivery(now, measured, &payload).expect("decision");
            out[i].extend(cmds);
        }
    }
    out
}

#[test]
fn recovered_instance_is_bit_identical_to_a_never_crashed_twin() {
    for seed in [3u64, 7, 11, 23] {
        let placed = small_room(seed);
        let registry = registry_for(&placed);
        let config = ControllerConfig::default();
        let mut live = controller_for(&placed, &registry, config);
        let mut world = MiniWorld::new(small_room(seed), 0.94);
        let mut buffer = CatchUpBuffer::new();
        let mut seq = 0u64;
        let alarm_at = at_ms(ALARM_MS);

        let mut shed_any = false;
        let mut t_ms = STEP_MS;
        // The shed at 10.5 s is followed by partial-relief lifts, at
        // most one per reflect window, until 22.5 s (seed 11). The
        // episode has quiesced well before the crash at 30.25 s: the
        // reflect window must have drained by then for the snapshot
        // (which carries no `recent` history) to be complete.
        while t_ms <= 30_000 {
            if t_ms == 10_500 {
                world.failed = Some(UpsId(1));
                live.on_failover_alarm(alarm_at, UpsId(1));
            }
            let cmds = feed_round(&mut [&mut live], &world, &mut buffer, &mut seq, t_ms);
            for cmd in &cmds[0] {
                shed_any = true;
                world.apply(cmd);
            }
            t_ms += STEP_MS;
        }
        assert!(shed_any, "seed {seed}: the failover must provoke a shed");
        assert!(
            live.state().recent.is_empty(),
            "seed {seed}: reflect window must have drained before the crash"
        );

        // The instance "crashes" at 30.25 s. A new incarnation
        // bootstraps from actuation ground truth plus the catch-up
        // buffer — and must be bit-identical to the survivor.
        let restart = at_ms(30_250);
        let snapshot = RecoverySnapshot {
            epoch: live.epoch(),
            rack_states: world.states.clone(),
            inflight: Vec::new(),
            alarmed: vec![(UpsId(1), alarm_at)],
            last_seq: vec![seq; placed.room().topology().ups_count()],
        };
        let base = controller_for(&placed, &registry, config);
        let mut recovered = Controller::recover(&base, &snapshot, &buffer.items(), restart)
            .expect("recovery must succeed");
        assert_eq!(
            recovered.state(),
            live.state(),
            "seed {seed}: recovered state differs from the never-crashed twin"
        );

        // And the twins stay locked: identical post-restart deliveries
        // produce identical commands and identical states, every round.
        let mut t_ms = 30_500;
        while t_ms <= 38_000 {
            let outs = feed_round(
                &mut [&mut live, &mut recovered],
                &world,
                &mut buffer,
                &mut seq,
                t_ms,
            );
            assert_eq!(
                outs[0], outs[1],
                "seed {seed}: twins diverged in commands at {t_ms} ms"
            );
            for cmd in &outs[0] {
                world.apply(cmd);
            }
            assert_eq!(
                recovered.state(),
                live.state(),
                "seed {seed}: twins diverged in state at {t_ms} ms"
            );
            t_ms += STEP_MS;
        }
    }
}

/// Epoch is an identity stamp, not a view: normalize it away when
/// comparing instances that restarted a different number of times.
fn view(state: &ControllerState) -> ControllerState {
    ControllerState {
        epoch: 0,
        ..state.clone()
    }
}

#[test]
fn divergent_instances_converge_to_identical_state_after_catch_up() {
    let placed = small_room(5);
    let registry = registry_for(&placed);
    let config = ControllerConfig::default();
    let mut a = controller_for(&placed, &registry, config);
    let mut b = controller_for(&placed, &registry, config);
    let mut c = controller_for(&placed, &registry, config);
    // Low enough that the healthy room needs no action (phase 1 must
    // be decision-free for the divergence to be a pure view skew), yet
    // one UPS failure still overloads the survivors.
    let mut world = MiniWorld::new(small_room(5), 0.80);
    let mut buffer = CatchUpBuffer::new();
    let mut seq = 0u64;

    // Phase 1: divergent subsets. `b` misses every even-numbered
    // delivery, `c` every third — three different views of the room.
    let mut t_ms = STEP_MS;
    while t_ms <= 9_000 {
        let now = at_ms(t_ms);
        let measured = at_ms(t_ms - 150);
        for payload in [world.ups_payload(), world.rack_payload()] {
            seq += 1;
            buffer.push(Delivery {
                seq,
                pubsub: 0,
                arrive_at: now,
                measured_at: measured,
                payload: payload.clone(),
            });
            let quiet = a.on_delivery(now, measured, &payload).expect("a");
            assert!(quiet.is_empty(), "healthy room must stay decision-free");
            if seq % 2 != 0 {
                let _ = b.on_delivery(now, measured, &payload).expect("b");
            }
            if seq % 3 != 0 {
                let _ = c.on_delivery(now, measured, &payload).expect("c");
            }
        }
        t_ms += STEP_MS;
    }

    // `c` additionally crashes and rebuilds via snapshot + catch-up,
    // coming back in a bumped epoch.
    let snapshot = RecoverySnapshot {
        epoch: 1,
        rack_states: world.states.clone(),
        inflight: Vec::new(),
        alarmed: Vec::new(),
        last_seq: vec![seq; placed.room().topology().ups_count()],
    };
    let base = controller_for(&placed, &registry, config);
    c = Controller::recover(&base, &snapshot, &buffer.items(), at_ms(9_400))
        .expect("recovery must succeed");

    // One common, decision-free round: the catch-up. After it every
    // instance holds the same latest reading for every UPS and rack
    // (notably `b`, whose skip pattern had starved it of every rack
    // snapshot so far), so the views have provably converged.
    let outs = feed_round(&mut [&mut a, &mut b, &mut c], &world, &mut buffer, &mut seq, 9_500);
    assert!(
        outs.iter().all(Vec::is_empty),
        "healthy catch-up round must stay decision-free"
    );

    // Phase 2: a failover plus a common delivery stream. All three must
    // issue identical commands and converge to identical state.
    world.failed = Some(UpsId(1));
    let alarm_at = at_ms(ALARM_MS);
    a.on_failover_alarm(alarm_at, UpsId(1));
    b.on_failover_alarm(alarm_at, UpsId(1));
    c.on_failover_alarm(alarm_at, UpsId(1));
    let mut shed_any = false;
    let mut t_ms = 10_500;
    while t_ms <= 20_000 {
        let outs = feed_round(
            &mut [&mut a, &mut b, &mut c],
            &world,
            &mut buffer,
            &mut seq,
            t_ms,
        );
        assert_eq!(outs[0], outs[1], "a vs b diverged at {t_ms} ms");
        assert_eq!(outs[0], outs[2], "a vs c diverged at {t_ms} ms");
        for cmd in &outs[0] {
            shed_any = true;
            world.apply(cmd);
        }
        t_ms += STEP_MS;
    }
    assert!(shed_any, "the failover must provoke a shed");
    assert_eq!(view(&a.state()), view(&b.state()), "a vs b final state");
    assert_eq!(view(&a.state()), view(&c.state()), "a vs c final state");
    assert_eq!(c.epoch(), 1, "the recovered instance keeps its bumped epoch");
}

/// Runs a single-instance room through a failover with an optional
/// scripted controller crash window.
fn run_room(crash: Option<(SimTime, SimTime)>, recovery: bool) -> RoomSim {
    let placed = small_room(7);
    let registry = registry_for(&placed);
    let demand: DemandFn = Box::new(move |rack, _, rng: &mut SmallRng| {
        rack.provisioned * rng.gen_range(0.93..0.97)
    });
    let config = RoomSimConfig {
        seed: 0xF11,
        controllers: 1,
        recovery,
        ..RoomSimConfig::default()
    };
    let mut sim = RoomSim::new(&placed, registry, demand, config);
    if let Some((from, until)) = crash {
        let mut plan = FaultPlan::new();
        plan.add_outage(Component::Controller(0), from, until);
        sim.world_mut().set_fault_plan(plan);
    }
    sim.fail_ups_at(SimTime::from_secs_f64(20.0), UpsId(1));
    sim.restore_ups_at(SimTime::from_secs_f64(45.0), UpsId(1));
    sim.run_until(SimTime::from_secs_f64(85.0));
    sim
}

#[test]
fn inflight_command_applies_across_issuer_crash_and_nothing_is_orphaned() {
    // Find when the (only) instance issues its first command, then
    // re-run the identical room with a crash window opening 1 ms after
    // it: the accepted command's apply-time falls inside the window, so
    // it must take effect while its issuer is down.
    let baseline = run_room(None, true);
    let first = baseline
        .world()
        .stats
        .events
        .iter()
        .find_map(|(at, e)| matches!(e, SimEvent::FirstCommand { .. }).then_some(*at))
        .expect("the failover must provoke a command");
    let from = first + SimDuration::from_millis(1);
    let until = from + SimDuration::from_secs(4);

    let sim = run_room(Some((from, until)), true);
    let applied_while_down = sim
        .world()
        .stats
        .events
        .iter()
        .any(|(at, e)| matches!(e, SimEvent::Applied { .. }) && *at > from && *at < until);
    assert!(
        applied_while_down,
        "a command accepted before the crash must still apply while its issuer is down"
    );
    assert!(
        sim.world()
            .rack_states()
            .iter()
            .any(|s| *s != RackPowerState::Normal),
        "the shed must leave enacted racks behind for the ownership check to bite"
    );
    assert_eq!(
        orphans(&sim),
        0,
        "every acted-on rack must be owned by the recovered issuer"
    );

    // Determinism gate: the crashing run is bit-reproducible.
    let again = run_room(Some((from, until)), true);
    assert_eq!(
        format!("{:?}", sim.world().stats.events),
        format!("{:?}", again.world().stats.events),
        "crash-recovery run is not deterministic"
    );

    // Ablation: with recovery off the restarted blank instance forgets
    // the racks it acted on — the silent-orphan regression this test
    // pins down.
    let blank = run_room(Some((from, until)), false);
    assert!(
        orphans(&blank) >= 1,
        "expected the no-recovery ablation to orphan at least one rack"
    );
}

/// Racks left acted-on with no live controller owning the action and no
/// in-flight enforcement — the chaos oracle's "orphaned rack" notion.
fn orphans(sim: &RoomSim) -> usize {
    sim.world()
        .rack_states()
        .iter()
        .enumerate()
        .filter(|&(r, s)| {
            let rack = flex_placement::RackId(r);
            *s != RackPowerState::Normal
                && !sim.world().pending_enforcement(rack)
                && !sim
                    .world()
                    .controllers()
                    .any(|c| c.state().action_log.contains_key(&rack))
        })
        .count()
}
