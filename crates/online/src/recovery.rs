//! Deterministic controller crash recovery.
//!
//! A restarted instance must not come back blank: a cold restart
//! forgets issued-but-unreflected commands (orphaning enforced racks)
//! and the darkness state the watchdog depends on. The recovery
//! protocol rebuilds a replacement instance from two sources:
//!
//! 1. a [`RecoverySnapshot`] — ground truth queried from the actuation
//!    layer (rack power states and the in-flight command set), the
//!    alarm registry, and the last-accepted telemetry sequence per UPS;
//! 2. a bounded telemetry catch-up replay from a [`CatchUpBuffer`] —
//!    the recent window of pipeline [`Delivery`]s, each stamped with
//!    the instant it actually arrived, re-ingested (without evaluating)
//!    so the instance's telemetry view matches what it would hold had
//!    it never crashed.
//!
//! Because a [`crate::Controller`]'s [`crate::ControllerState`] is a
//! pure function of its inputs, and the buffer horizon
//! ([`CATCH_UP_HORIZON`]) exceeds the controller's staleness limit,
//! the recovered instance is *bit-identical* to a never-crashed twin
//! given the same post-restart deliveries — the property
//! `tests/recovery.rs` drives. See `Controller::recover` for the
//! rebuild itself: it starts from [`crate::Controller::restarted`],
//! the blank state in the new epoch, which is also what a restart
//! without recovery (or a malformed snapshot) produces.
//!
//! The room records each rebuild as a `RecoveryCompleted` flight
//! event ([`RecoverySnapshot::to_event`]); replay decodes it
//! ([`RecoverySnapshot::from_event`]) and re-runs the same rebuild
//! against its mirror of the catch-up buffer.

use std::collections::VecDeque;

use flex_obs::{FlightEvent, RecoveredState};
use flex_placement::RackId;
use flex_power::UpsId;
use flex_sim::{SimDuration, SimTime};
use flex_telemetry::Delivery;

use crate::actuation::{PendingCommand, RackPowerState};

/// Most deliveries a [`CatchUpBuffer`] retains. Generous: the 4-UPS
/// room produces ~8 deliveries per 1.5 s poll round, so the horizon
/// binds long before the capacity does.
pub const CATCH_UP_CAPACITY: usize = 512;

/// How far back catch-up replay reaches. Strictly longer than the
/// controller's staleness limit (15 s, checked below): everything old
/// enough to fall outside the buffer is stale on a never-crashed
/// instance too (eagerly pruned at ingest), so the horizon loses no
/// state that could distinguish the recovered instance from its twin.
pub const CATCH_UP_HORIZON: SimDuration = SimDuration::from_secs(20);
const _: () = assert!(
    CATCH_UP_HORIZON.as_nanos() > crate::controller::STALENESS_LIMIT.as_nanos(),
    "the catch-up horizon must exceed the staleness limit"
);

/// What a restarted instance bootstraps from (besides catch-up).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySnapshot {
    /// The epoch the instance restarts into (already bumped).
    pub epoch: u64,
    /// Per-rack enforced power state, queried from actuation (index =
    /// rack id). Off/Throttled racks are adopted into the action log —
    /// including racks a *different* dead instance enforced, which is
    /// what heals cross-instance orphans.
    pub rack_states: Vec<RackPowerState>,
    /// Commands accepted by the actuation layer but not yet applied,
    /// with their scheduled apply times.
    pub inflight: Vec<PendingCommand>,
    /// UPSes with a standing failover alarm and when each was raised.
    pub alarmed: Vec<(UpsId, SimTime)>,
    /// Highest delivered telemetry sequence per UPS at snapshot time.
    /// Advisory: catch-up re-ingests the whole buffer unconditionally
    /// (ingest is idempotent and monotone, and the dead incarnation's
    /// state is gone, so skipping "already consumed" items would lose
    /// data); the cursor exists for diagnostics and cross-checking.
    pub last_seq: Vec<u64>,
}

impl RecoverySnapshot {
    /// The flight-recorder event marking instance `controller`'s
    /// rebuild from this snapshot. Replay decodes it with
    /// [`from_event`](Self::from_event) and re-runs the rebuild.
    pub fn to_event(&self, controller: usize) -> FlightEvent {
        FlightEvent::RecoveryCompleted {
            controller: controller as u32,
            epoch: self.epoch,
            recovered: Box::new(RecoveredState {
                rack_states: self.rack_states.iter().map(|s| s.code()).collect(),
                inflight: self
                    .inflight
                    .iter()
                    .map(|p| (p.rack.0 as u32, p.new_state.code(), p.apply_at.as_nanos()))
                    .collect(),
                alarmed: self
                    .alarmed
                    .iter()
                    .map(|&(u, t)| (u.0 as u32, t.as_nanos()))
                    .collect(),
                last_seq: self.last_seq.clone(),
            }),
        }
    }

    /// Decodes a [`FlightEvent::RecoveryCompleted`] into the recovering
    /// instance and its snapshot (`None` for any other event). The dump
    /// does not track an in-flight command's issuer, epoch or
    /// staleness: they decode as the recovering instance, the snapshot's
    /// epoch and not stale. Recovery reads only rack, state and apply
    /// time, so the rebuild is the same.
    pub fn from_event(event: &FlightEvent) -> Option<(usize, RecoverySnapshot)> {
        let FlightEvent::RecoveryCompleted {
            controller,
            epoch,
            recovered,
        } = event
        else {
            return None;
        };
        let RecoveredState {
            rack_states,
            inflight,
            alarmed,
            last_seq,
        } = &**recovered;
        let controller = *controller as usize;
        let snapshot = RecoverySnapshot {
            epoch: *epoch,
            rack_states: rack_states.iter().map(|&s| RackPowerState::from_code(s)).collect(),
            inflight: inflight
                .iter()
                .map(|&(r, s, at_ns)| PendingCommand {
                    rack: RackId(r as usize),
                    new_state: RackPowerState::from_code(s),
                    apply_at: SimTime::from_nanos(at_ns),
                    issuer: controller,
                    epoch: *epoch,
                    stale: false,
                })
                .collect(),
            alarmed: alarmed
                .iter()
                .map(|&(u, t_ns)| (UpsId(u as usize), SimTime::from_nanos(t_ns)))
                .collect(),
            last_seq: last_seq.clone(),
        };
        Some((controller, snapshot))
    }
}

/// A bounded window of recent deliveries, pruned by
/// [`CATCH_UP_HORIZON`] and capped at [`CATCH_UP_CAPACITY`]. Each
/// delivery's `arrive_at` is when it reached the controllers, and
/// catch-up re-ingests it at that instant. Pushes must arrive in
/// nondecreasing `arrive_at` order (the simulation's event loop
/// guarantees it).
#[derive(Debug, Clone, Default)]
pub struct CatchUpBuffer {
    items: VecDeque<Delivery>,
}

impl CatchUpBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        CatchUpBuffer {
            items: VecDeque::with_capacity(64),
        }
    }

    /// Appends a delivery, evicting anything beyond the horizon or the
    /// capacity (oldest first).
    pub fn push(&mut self, item: Delivery) {
        let newest = item.arrive_at;
        self.items.push_back(item);
        while self.items.len() > CATCH_UP_CAPACITY {
            self.items.pop_front();
        }
        while self
            .items
            .front()
            .is_some_and(|d| newest.saturating_since(d.arrive_at) > CATCH_UP_HORIZON)
        {
            self.items.pop_front();
        }
    }

    /// The retained window, oldest first, borrowed in place: the ring
    /// may be rearranged to make it contiguous, but no delivery is
    /// cloned.
    pub fn items(&mut self) -> &[Delivery] {
        self.items.make_contiguous()
    }

    /// Number of retained deliveries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use flex_telemetry::TelemetryPayload;

    fn item(seq: u64, at_secs: u64) -> Delivery {
        Delivery {
            seq,
            pubsub: 0,
            arrive_at: SimTime::from_nanos(at_secs * 1_000_000_000),
            measured_at: SimTime::from_nanos(at_secs * 1_000_000_000),
            payload: TelemetryPayload::ups([]),
        }
    }

    #[test]
    fn snapshot_round_trips_through_its_flight_event() {
        let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        let pending = |rack: usize, new_state, ms| PendingCommand {
            rack: RackId(rack),
            new_state,
            apply_at: at(ms),
            issuer: 2,
            epoch: 3,
            stale: false,
        };
        // In-flight commands carry the fields the dump does not track
        // (issuer, epoch, staleness) as they decode: the recovering
        // instance, the snapshot's epoch, not stale.
        let snapshot = RecoverySnapshot {
            epoch: 3,
            rack_states: vec![
                RackPowerState::Normal,
                RackPowerState::Throttled,
                RackPowerState::Off,
            ],
            inflight: vec![
                pending(0, RackPowerState::Off, 1_250),
                pending(1, RackPowerState::Normal, 1_500),
                pending(2, RackPowerState::Throttled, 900),
            ],
            alarmed: vec![(UpsId(1), at(700)), (UpsId(3), at(800))],
            last_seq: vec![4, 0, 9, 2],
        };
        let event = snapshot.to_event(2);
        assert_eq!(
            RecoverySnapshot::from_event(&event),
            Some((2, snapshot.clone()))
        );
        // An untracked field is lost: a command from another issuer
        // decodes as the recovering instance's.
        let mut foreign = snapshot.clone();
        if let Some(p) = foreign.inflight.first_mut() {
            p.issuer = 0;
        }
        assert_eq!(
            RecoverySnapshot::from_event(&foreign.to_event(2)),
            Some((2, snapshot))
        );
        assert_eq!(
            RecoverySnapshot::from_event(&FlightEvent::WatchdogTick { controller: 2 }),
            None
        );
    }

    #[test]
    fn horizon_evicts_old_deliveries() {
        let mut b = CatchUpBuffer::new();
        b.push(item(0, 1));
        b.push(item(1, 5));
        b.push(item(2, 30));
        // 30 − 1 > 20 s: the first item is out; 30 − 5 > 20 too.
        assert_eq!(
            b.items().iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![2]
        );
        b.push(item(3, 45));
        assert_eq!(
            b.items().iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut b = CatchUpBuffer::new();
        for i in 0..(CATCH_UP_CAPACITY as u64 + 10) {
            // All within the horizon: same arrival second.
            b.push(item(i, 100));
        }
        assert_eq!(b.len(), CATCH_UP_CAPACITY);
        assert_eq!(b.items().first().map(|d| d.seq), Some(10));
    }
}
