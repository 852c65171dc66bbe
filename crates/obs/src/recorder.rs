//! The flight recorder: a bounded ring of structured control-path
//! events, dumpable as deterministic JSON and replayable standalone.
//!
//! Events carry only primitive fields (ids as `u32`, watts as `f64`,
//! sim-time as `u64` nanoseconds) so the recorder has no dependency on
//! the crates it observes; the online crate interprets a dump back
//! into its own types when replaying a decision trace.
//!
//! When the ring is full the **oldest** events are overwritten and the
//! `dropped` counter records how many; a dump therefore always holds
//! the most recent window leading up to whatever went wrong — exactly
//! what a crash-forensics recorder is for.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::json::{obj, Value};
use crate::metrics::{lock, MetricsSnapshot};

/// Default ring capacity: comfortably holds a full chaos-scenario run
/// of the 4-UPS room (a few thousand events) with room to spare.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// One telemetry snapshot's readings as `(id, watts)` pairs: a UPS id
/// or a rack index with its power. It is also the telemetry payload's
/// own layout: built once per poll, then shared by every copy of the
/// delivery and by the delivery events that record them.
pub type Readings = Arc<[(u32, f64)]>;

/// One structured control-path event. Action and power-state codes:
/// `action` 0 = shutdown, 1 = throttle, 2 = restore; `state` 0 =
/// normal, 1 = throttled, 2 = off.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A UPS-power snapshot arrived at a set of controllers (delivery
    /// payload included, so a replay can feed identical input). One
    /// event covers every live instance that received the delivery —
    /// bit *i* of `controllers` set means instance *i* got it — because
    /// all instances see the same payload at the same instant; folding
    /// them keeps the hot path to one ring append per delivery.
    UpsDelivery {
        /// Bitmask of receiving controller indices.
        controllers: u32,
        /// When the snapshot was measured, sim nanoseconds.
        measured_at_ns: u64,
        /// Per-UPS readings as `(ups id, watts)`.
        readings: Readings,
    },
    /// A rack-power snapshot arrived at a set of controllers (same
    /// bitmask convention as [`FlightEvent::UpsDelivery`]).
    RackDelivery {
        /// Bitmask of receiving controller indices.
        controllers: u32,
        /// When the snapshot was measured, sim nanoseconds.
        measured_at_ns: u64,
        /// Per-rack readings as `(rack id, watts)`.
        readings: Readings,
    },
    /// The out-of-band failover alarm reached a controller.
    FailoverAlarm {
        /// Controller index.
        controller: u32,
        /// Alarmed UPS id.
        ups: u32,
    },
    /// A UPS restoration cleared its alarm at a controller.
    AlarmCleared {
        /// Controller index.
        controller: u32,
        /// Restored UPS id.
        ups: u32,
    },
    /// The watchdog poll that fired: the room was dark past the
    /// blackout deadline. Earlier polls are provably no-ops and are
    /// not recorded; replay drives `on_tick` from these alone.
    WatchdogTick {
        /// Controller index.
        controller: u32,
    },
    /// The blackout watchdog fired: blind shed against synthetic view.
    WatchdogFired {
        /// Controller index.
        controller: u32,
    },
    /// A controller issued a command toward the actuation layer.
    CommandIssued {
        /// Issuing controller index.
        controller: u32,
        /// Target rack id.
        rack: u32,
        /// 0 = shutdown, 1 = throttle, 2 = restore.
        action: u8,
    },
    /// The actuator accepted a command and scheduled its apply.
    CommandSubmitted {
        /// Target rack id.
        rack: u32,
        /// Power state being applied (0/1/2).
        state: u8,
        /// Scheduled apply instant, sim nanoseconds.
        apply_at_ns: u64,
    },
    /// A rejected submission was scheduled for retry.
    CommandRetried {
        /// Target rack id.
        rack: u32,
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// A rack power state actually changed.
    CommandApplied {
        /// Target rack id.
        rack: u32,
        /// Power state applied (0/1/2).
        state: u8,
    },
    /// All retries exhausted; the issuing controller was told.
    EnforcementDropped {
        /// Controller index that learns of the failure.
        controller: u32,
        /// Target rack id.
        rack: u32,
    },
    /// A UPS was failed by the scenario.
    UpsFailed {
        /// UPS id.
        ups: u32,
    },
    /// A UPS returned to service.
    UpsRestored {
        /// UPS id.
        ups: u32,
    },
    /// A UPS breaker tripped on accumulated overload.
    UpsTripped {
        /// UPS id.
        ups: u32,
    },
    /// Trip-curve accumulator state while damage is nonzero.
    TripMargin {
        /// UPS id.
        ups: u32,
        /// Accumulated damage in [0, 1]; 1 trips.
        damage: f64,
    },
    /// A controller instance's epoch advanced (cold restart or
    /// watchdog-declared isolation). Replay treats this as a cold
    /// restart of the instance unless a `RecoveryCompleted` follows.
    EpochBump {
        /// Controller index.
        controller: u32,
        /// The new epoch.
        epoch: u64,
    },
    /// The actuation layer rejected a command carrying an epoch older
    /// than the newest it has seen from that instance.
    CommandFenced {
        /// Issuing controller index.
        controller: u32,
        /// Target rack id.
        rack: u32,
        /// The stale epoch the command carried.
        epoch: u64,
        /// The newest epoch the actuator has seen for this instance.
        latest: u64,
    },
    /// A restarted instance began its recovery protocol.
    RecoveryStarted {
        /// Controller index.
        controller: u32,
        /// The epoch the instance restarts into.
        epoch: u64,
    },
    /// Recovery finished: the full `RecoverySnapshot` the instance
    /// bootstrapped from, so a replay can rebuild the identical state.
    RecoveryCompleted {
        /// Controller index.
        controller: u32,
        /// The epoch the instance recovered into.
        epoch: u64,
        /// The snapshot's contents. Boxed: every ring slot is as large
        /// as the largest variant, and this is the only rare one with
        /// four vectors.
        recovered: Box<RecoveredState>,
    },
}

/// The vectors of a [`FlightEvent::RecoveryCompleted`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredState {
    /// Per-rack power-state codes (0/1/2) queried from actuation.
    pub rack_states: Vec<u8>,
    /// In-flight commands as `(rack id, state code, apply ns)`.
    pub inflight: Vec<(u32, u8, u64)>,
    /// Standing failover alarms as `(ups id, since ns)`.
    pub alarmed: Vec<(u32, u64)>,
    /// Last-accepted telemetry sequence per UPS (advisory cursor).
    pub last_seq: Vec<u64>,
}

impl FlightEvent {
    /// Short kind tag used in serialization and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::UpsDelivery { .. } => "ups_delivery",
            FlightEvent::RackDelivery { .. } => "rack_delivery",
            FlightEvent::FailoverAlarm { .. } => "failover_alarm",
            FlightEvent::AlarmCleared { .. } => "alarm_cleared",
            FlightEvent::WatchdogTick { .. } => "watchdog_tick",
            FlightEvent::WatchdogFired { .. } => "watchdog_fired",
            FlightEvent::CommandIssued { .. } => "command_issued",
            FlightEvent::CommandSubmitted { .. } => "command_submitted",
            FlightEvent::CommandRetried { .. } => "command_retried",
            FlightEvent::CommandApplied { .. } => "command_applied",
            FlightEvent::EnforcementDropped { .. } => "enforcement_dropped",
            FlightEvent::UpsFailed { .. } => "ups_failed",
            FlightEvent::UpsRestored { .. } => "ups_restored",
            FlightEvent::UpsTripped { .. } => "ups_tripped",
            FlightEvent::TripMargin { .. } => "trip_margin",
            FlightEvent::EpochBump { .. } => "epoch_bump",
            FlightEvent::CommandFenced { .. } => "command_fenced",
            FlightEvent::RecoveryStarted { .. } => "recovery_started",
            FlightEvent::RecoveryCompleted { .. } => "recovery_completed",
        }
    }

    /// As a JSON object (short field keys keep embedded dumps compact).
    pub fn to_value(&self) -> Value {
        let num = |v: u64| Value::Num(v as f64);
        let readings_value = |r: &[(u32, f64)]| {
            Value::Arr(
                r.iter()
                    .map(|&(id, w)| Value::Arr(vec![num(id as u64), Value::Num(w)]))
                    .collect(),
            )
        };
        let mut fields: Vec<(&str, Value)> = vec![("k", Value::Str(self.kind().to_string()))];
        match self {
            FlightEvent::UpsDelivery {
                controllers,
                measured_at_ns,
                readings,
            }
            | FlightEvent::RackDelivery {
                controllers,
                measured_at_ns,
                readings,
            } => {
                fields.push(("cs", num(*controllers as u64)));
                fields.push(("m", Value::Str(measured_at_ns.to_string())));
                fields.push(("r", readings_value(readings)));
            }
            FlightEvent::WatchdogTick { controller }
            | FlightEvent::WatchdogFired { controller } => {
                fields.push(("c", num(*controller as u64)));
            }
            FlightEvent::FailoverAlarm { controller, ups }
            | FlightEvent::AlarmCleared { controller, ups } => {
                fields.push(("c", num(*controller as u64)));
                fields.push(("u", num(*ups as u64)));
            }
            FlightEvent::CommandIssued {
                controller,
                rack,
                action,
            } => {
                fields.push(("c", num(*controller as u64)));
                fields.push(("rk", num(*rack as u64)));
                fields.push(("a", num(*action as u64)));
            }
            FlightEvent::CommandSubmitted {
                rack,
                state,
                apply_at_ns,
            } => {
                fields.push(("rk", num(*rack as u64)));
                fields.push(("s", num(*state as u64)));
                fields.push(("at", Value::Str(apply_at_ns.to_string())));
            }
            FlightEvent::CommandRetried { rack, attempt } => {
                fields.push(("rk", num(*rack as u64)));
                fields.push(("n", num(*attempt as u64)));
            }
            FlightEvent::CommandApplied { rack, state } => {
                fields.push(("rk", num(*rack as u64)));
                fields.push(("s", num(*state as u64)));
            }
            FlightEvent::EnforcementDropped { controller, rack } => {
                fields.push(("c", num(*controller as u64)));
                fields.push(("rk", num(*rack as u64)));
            }
            FlightEvent::UpsFailed { ups }
            | FlightEvent::UpsRestored { ups }
            | FlightEvent::UpsTripped { ups } => {
                fields.push(("u", num(*ups as u64)));
            }
            FlightEvent::TripMargin { ups, damage } => {
                fields.push(("u", num(*ups as u64)));
                fields.push(("d", Value::Num(*damage)));
            }
            FlightEvent::EpochBump { controller, epoch }
            | FlightEvent::RecoveryStarted { controller, epoch } => {
                fields.push(("c", num(*controller as u64)));
                fields.push(("e", num(*epoch)));
            }
            FlightEvent::CommandFenced {
                controller,
                rack,
                epoch,
                latest,
            } => {
                fields.push(("c", num(*controller as u64)));
                fields.push(("rk", num(*rack as u64)));
                fields.push(("e", num(*epoch)));
                fields.push(("le", num(*latest)));
            }
            FlightEvent::RecoveryCompleted {
                controller,
                epoch,
                recovered,
            } => {
                let RecoveredState {
                    rack_states,
                    inflight,
                    alarmed,
                    last_seq,
                } = &**recovered;
                fields.push(("c", num(*controller as u64)));
                fields.push(("e", num(*epoch)));
                fields.push((
                    "rs",
                    Value::Arr(rack_states.iter().map(|&s| num(s as u64)).collect()),
                ));
                fields.push((
                    "inf",
                    Value::Arr(
                        inflight
                            .iter()
                            .map(|&(rk, s, at)| {
                                Value::Arr(vec![
                                    num(rk as u64),
                                    num(s as u64),
                                    Value::Str(at.to_string()),
                                ])
                            })
                            .collect(),
                    ),
                ));
                fields.push((
                    "al",
                    Value::Arr(
                        alarmed
                            .iter()
                            .map(|&(u, since)| {
                                Value::Arr(vec![num(u as u64), Value::Str(since.to_string())])
                            })
                            .collect(),
                    ),
                ));
                fields.push((
                    "ls",
                    Value::Arr(last_seq.iter().map(|&s| num(s)).collect()),
                ));
            }
        }
        obj(fields)
    }

    /// Parses an object produced by [`FlightEvent::to_value`]. Every
    /// integer decodes checked: an id past `u32::MAX` or an action or
    /// state code outside 0–2 makes the event malformed (`None`) rather
    /// than wrapping onto another id or code.
    pub fn from_value(v: &Value) -> Option<Self> {
        let u32_of = |x: &Value| u32::try_from(x.as_u64()?).ok();
        let code_of = |x: &Value| u8::try_from(x.as_u64()?).ok().filter(|&c| c <= 2);
        let ns = |x: &Value| x.as_str()?.parse::<u64>().ok();
        let arr = |key: &str| v.get(key)?.as_arr();
        let c = || u32_of(v.get("c")?);
        let u = || u32_of(v.get("u")?);
        let rk = || u32_of(v.get("rk")?);
        let readings = || {
            arr("r")?
                .iter()
                .map(|pair| {
                    let items = pair.as_arr()?;
                    Some((u32_of(items.first()?)?, items.get(1)?.as_num()?))
                })
                .collect::<Option<Readings>>()
        };
        Some(match v.get("k")?.as_str()? {
            "ups_delivery" => FlightEvent::UpsDelivery {
                controllers: u32_of(v.get("cs")?)?,
                measured_at_ns: ns(v.get("m")?)?,
                readings: readings()?,
            },
            "rack_delivery" => FlightEvent::RackDelivery {
                controllers: u32_of(v.get("cs")?)?,
                measured_at_ns: ns(v.get("m")?)?,
                readings: readings()?,
            },
            "failover_alarm" => FlightEvent::FailoverAlarm {
                controller: c()?,
                ups: u()?,
            },
            "alarm_cleared" => FlightEvent::AlarmCleared {
                controller: c()?,
                ups: u()?,
            },
            "watchdog_tick" => FlightEvent::WatchdogTick { controller: c()? },
            "watchdog_fired" => FlightEvent::WatchdogFired { controller: c()? },
            "command_issued" => FlightEvent::CommandIssued {
                controller: c()?,
                rack: rk()?,
                action: code_of(v.get("a")?)?,
            },
            "command_submitted" => FlightEvent::CommandSubmitted {
                rack: rk()?,
                state: code_of(v.get("s")?)?,
                apply_at_ns: ns(v.get("at")?)?,
            },
            "command_retried" => FlightEvent::CommandRetried {
                rack: rk()?,
                attempt: u32_of(v.get("n")?)?,
            },
            "command_applied" => FlightEvent::CommandApplied {
                rack: rk()?,
                state: code_of(v.get("s")?)?,
            },
            "enforcement_dropped" => FlightEvent::EnforcementDropped {
                controller: c()?,
                rack: rk()?,
            },
            "ups_failed" => FlightEvent::UpsFailed { ups: u()? },
            "ups_restored" => FlightEvent::UpsRestored { ups: u()? },
            "ups_tripped" => FlightEvent::UpsTripped { ups: u()? },
            "trip_margin" => FlightEvent::TripMargin {
                ups: u()?,
                damage: v.get("d")?.as_num()?,
            },
            "epoch_bump" => FlightEvent::EpochBump {
                controller: c()?,
                epoch: v.get("e")?.as_u64()?,
            },
            "command_fenced" => FlightEvent::CommandFenced {
                controller: c()?,
                rack: rk()?,
                epoch: v.get("e")?.as_u64()?,
                latest: v.get("le")?.as_u64()?,
            },
            "recovery_started" => FlightEvent::RecoveryStarted {
                controller: c()?,
                epoch: v.get("e")?.as_u64()?,
            },
            "recovery_completed" => FlightEvent::RecoveryCompleted {
                controller: c()?,
                epoch: v.get("e")?.as_u64()?,
                recovered: Box::new(RecoveredState {
                    rack_states: arr("rs")?.iter().map(code_of).collect::<Option<Vec<_>>>()?,
                    inflight: arr("inf")?
                        .iter()
                        .map(|row| {
                            let items = row.as_arr()?;
                            Some((
                                u32_of(items.first()?)?,
                                code_of(items.get(1)?)?,
                                ns(items.get(2)?)?,
                            ))
                        })
                        .collect::<Option<Vec<_>>>()?,
                    alarmed: arr("al")?
                        .iter()
                        .map(|row| {
                            let items = row.as_arr()?;
                            Some((u32_of(items.first()?)?, ns(items.get(1)?)?))
                        })
                        .collect::<Option<Vec<_>>>()?,
                    last_seq: arr("ls")?
                        .iter()
                        .map(Value::as_u64)
                        .collect::<Option<Vec<_>>>()?,
                }),
            },
            _ => return None,
        })
    }
}

/// The bounded event ring.
#[derive(Debug)]
pub(crate) struct Recorder {
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<(u64, FlightEvent)>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            ring: Mutex::new(Ring {
                // Reserving a typical scenario's worth up front keeps
                // growth reallocations off the record path without
                // committing the full (possibly huge) ring capacity.
                events: VecDeque::with_capacity(capacity.min(2_048)),
                capacity,
                dropped: 0,
            }),
        }
    }

    pub(crate) fn record(&self, at_ns: u64, event: FlightEvent) {
        let mut ring = lock(&self.ring);
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back((at_ns, event));
    }

    pub(crate) fn drain_view(&self) -> (Vec<(u64, FlightEvent)>, u64) {
        let ring = lock(&self.ring);
        (ring.events.iter().cloned().collect(), ring.dropped)
    }
}

/// A complete observability dump: merged metrics plus the recorder
/// window. Byte-deterministic for a fixed seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsDump {
    /// Registry snapshot at dump time.
    pub metrics: MetricsSnapshot,
    /// `(sim nanoseconds, event)` in record order (oldest first).
    pub events: Vec<(u64, FlightEvent)>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

impl ObsDump {
    /// As a JSON tree.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("dropped", Value::Num(self.dropped as f64)),
            (
                "events",
                Value::Arr(
                    self.events
                        .iter()
                        .map(|(t, e)| {
                            let mut entry = e.to_value();
                            if let Value::Obj(map) = &mut entry {
                                map.insert("t".to_string(), Value::Str(t.to_string()));
                            }
                            entry
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_value()),
        ])
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a tree produced by [`ObsDump::to_value`].
    pub fn from_value(v: &Value) -> Option<Self> {
        let events = v
            .get("events")?
            .as_arr()?
            .iter()
            .map(|e| {
                let t = e.get("t")?.as_str()?.parse::<u64>().ok()?;
                Some((t, FlightEvent::from_value(e)?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ObsDump {
            metrics: MetricsSnapshot::from_value(v.get("metrics")?)?,
            events,
            dropped: v.get("dropped")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<FlightEvent> {
        vec![
            FlightEvent::UpsDelivery {
                controllers: 0b101,
                measured_at_ns: 1_500_000_000,
                readings: vec![(0, 120_000.25), (1, 119_999.75)].into(),
            },
            FlightEvent::FailoverAlarm { controller: 1, ups: 2 },
            FlightEvent::WatchdogTick { controller: 1 },
            FlightEvent::WatchdogFired { controller: 1 },
            FlightEvent::CommandIssued { controller: 1, rack: 7, action: 0 },
            FlightEvent::CommandSubmitted { rack: 7, state: 2, apply_at_ns: 9_000_000_123 },
            FlightEvent::CommandRetried { rack: 7, attempt: 2 },
            FlightEvent::CommandApplied { rack: 7, state: 2 },
            FlightEvent::EnforcementDropped { controller: 1, rack: 9 },
            FlightEvent::UpsFailed { ups: 2 },
            FlightEvent::UpsRestored { ups: 2 },
            FlightEvent::UpsTripped { ups: 3 },
            FlightEvent::TripMargin { ups: 3, damage: 0.73125 },
            FlightEvent::RackDelivery {
                controllers: 0b100,
                measured_at_ns: 3,
                readings: vec![(12, 4_321.0)].into(),
            },
            FlightEvent::AlarmCleared { controller: 1, ups: 2 },
            FlightEvent::EpochBump { controller: 0, epoch: 3 },
            FlightEvent::CommandFenced { controller: 0, rack: 11, epoch: 2, latest: 3 },
            FlightEvent::RecoveryStarted { controller: 2, epoch: 1 },
            FlightEvent::RecoveryCompleted {
                controller: 2,
                epoch: 1,
                recovered: Box::new(RecoveredState {
                    rack_states: vec![0, 2, 1, 0],
                    inflight: vec![(7, 2, 21_500_000_333), (9, 1, 22_000_000_000)],
                    alarmed: vec![(1, 20_200_000_000)],
                    last_seq: vec![41, 0, 41, 39],
                }),
            },
        ]
    }

    #[test]
    fn ring_slots_stay_small() {
        // Every recording handle reserves ring slots of this size up
        // front; a new variant that grows it should box its payload.
        assert_eq!(std::mem::size_of::<FlightEvent>(), 32);
        assert_eq!(std::mem::size_of::<(u64, FlightEvent)>(), 40);
    }

    #[test]
    fn events_roundtrip_through_json() {
        for (i, e) in sample_events().into_iter().enumerate() {
            let text = e.to_value().to_json();
            let back = FlightEvent::from_value(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, e, "event {i}: {text}");
        }
    }

    #[test]
    fn integers_past_their_field_are_malformed() {
        let parse = |text: &str| FlightEvent::from_value(&crate::json::parse(text).unwrap());
        let rack = |id: &str| format!(r#"{{"k":"rack_delivery","cs":1,"m":"0","r":[[{id},1.5]]}}"#);
        assert_eq!(
            parse(&rack("4294967295")),
            Some(FlightEvent::RackDelivery {
                controllers: 1,
                measured_at_ns: 0,
                readings: vec![(u32::MAX, 1.5)].into(),
            })
        );
        assert_eq!(parse(&rack("4294967296")), None);
        assert_eq!(
            parse(r#"{"k":"ups_failed","u":4294967295}"#),
            Some(FlightEvent::UpsFailed { ups: u32::MAX })
        );
        assert_eq!(parse(r#"{"k":"ups_failed","u":4294967296}"#), None);
        // `as` would read these as controller 1 and action 2.
        assert_eq!(
            parse(r#"{"k":"command_issued","c":1,"rk":7,"a":2}"#),
            Some(FlightEvent::CommandIssued {
                controller: 1,
                rack: 7,
                action: 2
            })
        );
        assert_eq!(
            parse(r#"{"k":"command_issued","c":4294967297,"rk":7,"a":2}"#),
            None
        );
        assert_eq!(
            parse(r#"{"k":"command_issued","c":1,"rk":7,"a":258}"#),
            None
        );
        assert_eq!(parse(r#"{"k":"command_applied","rk":7,"s":3}"#), None);
        let recovered = |rs: &str, inf: &str| {
            parse(&format!(
                r#"{{"k":"recovery_completed","c":0,"e":1,"rs":[{rs}],"inf":[{inf}],"al":[],"ls":[]}}"#
            ))
        };
        assert!(recovered("2", r#"[4294967295,2,"5"]"#).is_some());
        assert_eq!(recovered("3", ""), None);
        assert_eq!(recovered("", r#"[4294967296,2,"5"]"#), None);
        assert_eq!(recovered("", r#"[0,3,"5"]"#), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let r = Recorder::with_capacity(4);
        for i in 0..10u64 {
            r.record(i, FlightEvent::WatchdogTick { controller: i as u32 });
        }
        let (events, dropped) = r.drain_view();
        assert_eq!(dropped, 6);
        assert_eq!(events.len(), 4);
        assert_eq!(events.first().map(|(t, _)| *t), Some(6));
        assert_eq!(events.last().map(|(t, _)| *t), Some(9));
    }

    #[test]
    fn dump_roundtrips_through_json() {
        let dump = ObsDump {
            metrics: MetricsSnapshot::default(),
            events: sample_events()
                .into_iter()
                .enumerate()
                .map(|(i, e)| (i as u64 * 1_000, e))
                .collect(),
            dropped: 5,
        };
        let text = dump.to_json();
        let back = ObsDump::from_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.to_json(), text);
    }
}
