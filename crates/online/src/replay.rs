//! Standalone decision replay from a flight-recorder dump.
//!
//! The flight recorder captures every input a controller instance acted
//! on: telemetry deliveries with their full readings, out-of-band
//! failover alarms and clears, armed watchdog ticks, and enforcement
//! failures. Feeding those events back into fresh [`Controller`]
//! instances re-derives the decision sequence bit-identically — without
//! re-running the room simulation, the telemetry RNG, or the actuation
//! path. This is the crash-forensics loop: a failing chaos scenario
//! embeds its dump in the report, and `flex-obs print` plus this module
//! reconstruct exactly what each controller saw and why it acted.
//!
//! The recorded stream is a strict subset of the calls the simulation
//! made, pruned to what decisions depend on: watchdog ticks short of
//! the blackout deadline are provably no-ops and are not recorded, and
//! stale-vs-fresh acceptance is not recorded because a replayed
//! controller re-derives it from the delivery stream itself.

use flex_obs::FlightEvent;
use flex_placement::RackId;
use flex_power::UpsId;
use flex_sim::SimTime;
use flex_telemetry::{Delivery, TelemetryPayload};

use crate::recovery::{CatchUpBuffer, RecoverySnapshot};
use crate::{Command, Controller};

/// One replayed (or recorded) command: when, by which instance, what.
pub type TimedCommand = (SimTime, usize, Command);

/// Feeds one recorded delivery to every masked instance in ascending
/// index order — the same order the room simulation iterates its
/// controllers, so the replayed command sequence lines up with the
/// recording.
fn deliver(controllers: &mut [Controller], mask: u32, d: &Delivery, out: &mut Vec<TimedCommand>) {
    for idx in 0..32usize {
        if mask & (1 << idx) == 0 {
            continue;
        }
        let Some(c) = controllers.get_mut(idx) else {
            continue;
        };
        // The simulation treats an erroring instance as contributing
        // no commands; replay must mirror that.
        let commands = c
            .on_delivery(d.arrive_at, d.measured_at, &d.payload)
            .unwrap_or_default();
        out.extend(commands.into_iter().map(|cmd| (d.arrive_at, idx, cmd)));
    }
}

/// Re-drives `controllers` with the inputs captured in `events` and
/// returns every command they issue, in execution order.
///
/// The controllers must be fresh instances built with the same
/// topology, placement, registry, and configuration as the recorded
/// run (a [`Controller`] is deterministic given its inputs, so nothing
/// else matters). Events addressed to instances outside the slice are
/// skipped — a dump from a 3-controller room replays fine against a
/// single instance if only instance 0 is of interest.
pub fn replay_decisions(
    controllers: &mut [Controller],
    events: &[(u64, FlightEvent)],
) -> Vec<TimedCommand> {
    let mut out = Vec::new();
    // Mirror of the room's catch-up buffer, rebuilt from the recorded
    // delivery stream (which includes mask-0 arrivals for exactly this
    // purpose). The pipeline sequence and pub/sub instance are not
    // recorded; recovery reads neither, so zero placeholders change
    // nothing.
    let mut buffer = CatchUpBuffer::new();
    for (t_ns, event) in events {
        let now = SimTime::from_nanos(*t_ns);
        match event {
            FlightEvent::UpsDelivery {
                controllers: mask,
                measured_at_ns,
                readings,
            }
            | FlightEvent::RackDelivery {
                controllers: mask,
                measured_at_ns,
                readings,
            } => {
                // The recorded readings are the payload's own buffer.
                let payload = if matches!(event, FlightEvent::UpsDelivery { .. }) {
                    TelemetryPayload::UpsSnapshot(readings.clone())
                } else {
                    TelemetryPayload::RackSnapshot(readings.clone())
                };
                let d = Delivery {
                    seq: 0,
                    pubsub: 0,
                    measured_at: SimTime::from_nanos(*measured_at_ns),
                    arrive_at: now,
                    payload,
                };
                deliver(controllers, *mask, &d, &mut out);
                // Buffered after the feed, as in the room: the feed
                // never reads the buffer.
                buffer.push(d);
            }
            FlightEvent::FailoverAlarm { controller, ups } => {
                if let Some(c) = controllers.get_mut(*controller as usize) {
                    c.on_failover_alarm(now, UpsId(*ups as usize));
                }
            }
            FlightEvent::AlarmCleared { controller, ups } => {
                if let Some(c) = controllers.get_mut(*controller as usize) {
                    c.on_ups_restored(now, UpsId(*ups as usize));
                }
            }
            FlightEvent::WatchdogTick { controller } => {
                let Some(c) = controllers.get_mut(*controller as usize) else {
                    continue;
                };
                let commands = c.on_tick(now).unwrap_or_default();
                let idx = *controller as usize;
                out.extend(commands.into_iter().map(|cmd| (now, idx, cmd)));
            }
            FlightEvent::EnforcementDropped { controller, rack } => {
                if let Some(c) = controllers.get_mut(*controller as usize) {
                    c.on_enforcement_failed(RackId(*rack as usize));
                }
            }
            // An epoch bump supersedes the incarnation: blank restart
            // in the new epoch. This alone reproduces the ablated
            // (no-recovery) mode; with recovery on, the room records a
            // RecoveryCompleted right after (crash restart) or at the
            // next refresh (isolation), and the instance is fed nothing
            // in between — so overlaying the rebuild then is faithful.
            FlightEvent::EpochBump { controller, epoch } => {
                if let Some(c) = controllers.get_mut(*controller as usize) {
                    *c = c.restarted(*epoch);
                }
            }
            // The embedded snapshot plus the buffer mirror re-derive
            // the recovered state exactly as the room did.
            FlightEvent::RecoveryCompleted { .. } => {
                let Some((idx, snapshot)) = RecoverySnapshot::from_event(event) else {
                    continue;
                };
                let Some(c) = controllers.get_mut(idx) else {
                    continue;
                };
                let items = buffer.items();
                // A malformed snapshot degrades to a blank restart, as
                // in the room.
                *c = Controller::recover(c, &snapshot, items, now)
                    .unwrap_or_else(|_| c.restarted(snapshot.epoch));
            }
            // Everything else (command/apply/trip/fence bookkeeping and
            // recovery-start markers) is an *output* of the control
            // loop, not an input to it.
            _ => {}
        }
    }
    out
}

/// The command sequence a recording captured: every `CommandIssued`
/// event, decoded into the same shape [`replay_decisions`] returns.
/// Equality of the two is the replay fidelity check.
pub fn recorded_commands(events: &[(u64, FlightEvent)]) -> Vec<TimedCommand> {
    let mut out = Vec::new();
    for (t_ns, event) in events {
        let FlightEvent::CommandIssued {
            controller,
            rack,
            action,
        } = event
        else {
            continue;
        };
        let cmd = Command::from_code(RackId(*rack as usize), *action);
        out.push((SimTime::from_nanos(*t_ns), *controller as usize, cmd));
    }
    out
}
