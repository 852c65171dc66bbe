//! The poller / switch / pub-sub fabric and the 3-meter consensus.

use flex_obs::{Counter, Obs, Span};
use flex_power::meter::{GroundTruth, MeterKind};
use flex_power::{UpsId, Watts};
use flex_sim::dist::{LogNormal, Sample};
use flex_sim::fault::{names, FaultPlan, ResolvedPlan};
use flex_sim::rng::RngPool;
use flex_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;

use crate::{MeterBank, MeterFaults, PipelineConfig};

/// Data carried by one published message.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryPayload {
    /// Consensus IT power per UPS (absent entries had no reachable
    /// meter).
    UpsSnapshot(Vec<(UpsId, Watts)>),
    /// Raw rack power per rack index (absent entries were dropped).
    RackSnapshot(Vec<(usize, Watts)>),
}

/// One message en route to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Publication sequence number, strictly increasing per pipeline
    /// across both UPS and rack deliveries. Recovery catch-up uses it as
    /// an advisory cursor (see `flex_online::recovery`); duplicates
    /// injected downstream share the original's number.
    pub seq: u64,
    /// Which poller produced it.
    pub poller: usize,
    /// Which pub/sub instance carries it.
    pub pubsub: usize,
    /// When the underlying meters were read.
    pub measured_at: SimTime,
    /// When subscribers receive it.
    pub arrive_at: SimTime,
    /// The readings.
    pub payload: TelemetryPayload,
}

impl Delivery {
    /// End-to-end data latency of this delivery.
    pub fn latency(&self) -> SimDuration {
        self.arrive_at - self.measured_at
    }
}

/// The telemetry pipeline: meters + redundant pollers, switches, and
/// pub/sub instances.
///
/// Drive it by calling [`Pipeline::poll_upses`] every
/// [`PipelineConfig::ups_poll_interval`] and [`Pipeline::poll_racks`]
/// every [`PipelineConfig::rack_poll_interval`]; deliver each returned
/// [`Delivery`] to all subscribers at its `arrive_at` time.
///
/// Component availability is governed by the attached [`FaultPlan`] with
/// component names `"poller/{i}"`, `"switch/{g}"`, `"pubsub/{k}"`, and
/// `"meter/ups{u}/{kind:?}"`. Logical meter `k` of a UPS routes through
/// switch group `k % switch_groups`, reproducing the paper's network
/// diversity (one switch loss removes at most one meter per UPS, which
/// consensus masks).
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    meters: MeterBank,
    latency_rng: SmallRng,
    latency_dist: LogNormal,
    next_seq: u64,
    // The fault plan, resolved per component class when attached:
    // availability is checked per component per poll tick, so by
    // position rather than by name (see benches/fault_plan.rs). UPS
    // meters resolve per UPS, in `MeterKind::ALL` order.
    poller_faults: ResolvedPlan,
    switch_faults: ResolvedPlan,
    pubsub_faults: ResolvedPlan,
    ups_meter_faults: Vec<ResolvedPlan>,
    // Observability (all noop unless attached via `set_obs`).
    ups_polls: Counter,
    rack_polls: Counter,
    deliveries: Counter,
    measure_to_arrive: Span,
}

impl Pipeline {
    /// Builds a pipeline for `ups_count` UPSes and `rack_count` racks.
    pub fn new(config: PipelineConfig, ups_count: usize, rack_count: usize, pool: &RngPool) -> Self {
        let meter_faults = MeterFaults {
            noise_rel: config.meter_noise_rel,
            stuck_probability: config.stuck_probability,
            stuck_duration: config.stuck_duration,
            drop_probability: config.drop_probability,
        };
        Pipeline {
            meters: MeterBank::new(ups_count, rack_count, meter_faults, pool),
            latency_rng: pool.stream("pipeline/latency"),
            latency_dist: LogNormal::from_median(
                config.hop_latency_median_ms.max(1e-3),
                config.hop_latency_sigma.max(1e-6),
            ),
            next_seq: 0,
            poller_faults: ResolvedPlan::default(),
            switch_faults: ResolvedPlan::default(),
            pubsub_faults: ResolvedPlan::default(),
            ups_meter_faults: Vec::new(),
            ups_polls: Counter::noop(),
            rack_polls: Counter::noop(),
            deliveries: Counter::noop(),
            measure_to_arrive: Span::noop(),
            config,
        }
    }

    /// Attaches observability. `telemetry/ups_polls` / `rack_polls`
    /// count poll ticks, `telemetry/deliveries` published messages, and
    /// `span/telemetry/measure_to_arrive` histograms the end-to-end data
    /// latency of every delivery — the first leg of the detect-to-shed
    /// budget. Recording reads already-sampled arrival times and never
    /// touches the latency RNG, so instrumented runs deliver identically.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.ups_polls = obs.counter("telemetry/ups_polls");
        self.rack_polls = obs.counter("telemetry/rack_polls");
        self.deliveries = obs.counter("telemetry/deliveries");
        self.measure_to_arrive = obs.span("span/telemetry/measure_to_arrive");
        self.meters.set_obs(obs);
    }

    /// Attaches a fault plan (replacing any previous one).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let c = &self.config;
        self.poller_faults = plan.resolve((0..c.pollers).map(names::poller));
        self.switch_faults = plan.resolve((0..c.switch_groups.max(1)).map(names::switch));
        self.pubsub_faults = plan.resolve((0..c.pubsub_instances).map(names::pubsub));
        self.ups_meter_faults = (0..self.meters.ups_count())
            .map(|u| {
                plan.resolve(MeterKind::ALL.map(|kind| names::ups_meter(u, &format!("{kind:?}"))))
            })
            .collect();
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Mutable access to the meter bank (targeted fault injection).
    pub fn meters_mut(&mut self) -> &mut MeterBank {
        &mut self.meters
    }

    // Availability checks against the resolved plan; unknown indices
    // (never produced by the poll loops) degrade to "up".
    fn poller_up(&self, i: usize, now: SimTime) -> bool {
        self.poller_faults.is_up(i, now)
    }

    fn switch_up(&self, g: usize, now: SimTime) -> bool {
        self.switch_faults.is_up(g, now)
    }

    fn pubsub_up(&self, k: usize, now: SimTime) -> bool {
        self.pubsub_faults.is_up(k, now)
    }

    fn ups_meter_up(&self, u: usize, k: usize, now: SimTime) -> bool {
        self.ups_meter_faults
            .get(u)
            .is_none_or(|row| row.is_up(k, now))
    }

    fn sample_delivery_time(&mut self, now: SimTime) -> SimTime {
        // Three hops: meter→poller, poller→pub/sub, pub/sub→subscriber,
        // plus the logical-meter windowing delay.
        let mut total_ms = 0.0;
        for _ in 0..3 {
            total_ms += self.latency_dist.sample(&mut self.latency_rng);
        }
        now + self.config.windowing_delay + SimDuration::from_secs_f64(total_ms / 1_000.0)
    }

    /// Runs one UPS poll tick at `now` against ground truth. Returns the
    /// deliveries produced by every live (poller × pub/sub) combination.
    pub fn poll_upses(&mut self, now: SimTime, truth: &GroundTruth) -> Vec<Delivery> {
        self.ups_polls.inc();
        let ups_count = self.meters.ups_count();
        let mut deliveries = Vec::new();
        for poller in 0..self.config.pollers {
            if !self.poller_up(poller, now) {
                continue;
            }
            // Consensus per UPS over the reachable logical meters.
            let mut snapshot: Vec<(UpsId, Watts)> = Vec::with_capacity(ups_count);
            for u in 0..ups_count {
                let ups = UpsId(u);
                let mut normalized = [0.0; MeterKind::ALL.len()];
                let mut read = 0;
                for (k, kind) in MeterKind::ALL.into_iter().enumerate() {
                    let switch = k % self.config.switch_groups.max(1);
                    if !self.switch_up(switch, now) {
                        continue;
                    }
                    if !self.ups_meter_up(u, k, now) {
                        continue;
                    }
                    if let Some(raw) = self.meters.read_ups(ups, kind, now, truth.it_power(ups)) {
                        if let Some(slot) = normalized.get_mut(read) {
                            *slot = kind.normalize(raw).as_w();
                            read += 1;
                        }
                    }
                }
                if let Some(consensus) = normalized.get_mut(..read).and_then(median) {
                    snapshot.push((ups, Watts::new(consensus)));
                }
            }
            if snapshot.is_empty() {
                continue;
            }
            self.publish(
                now,
                poller,
                snapshot,
                TelemetryPayload::UpsSnapshot,
                &mut deliveries,
            );
        }
        deliveries
    }

    /// Runs one rack poll tick at `now` against true rack draws
    /// (indexed by rack number).
    pub fn poll_racks(&mut self, now: SimTime, rack_truth: &[Watts]) -> Vec<Delivery> {
        self.rack_polls.inc();
        let mut deliveries = Vec::new();
        for poller in 0..self.config.pollers {
            if !self.poller_up(poller, now) {
                continue;
            }
            // Rack meters route through the switch group matching the
            // poller (each poller has an independent network path).
            let switch = poller % self.config.switch_groups.max(1);
            if !self.switch_up(switch, now) {
                continue;
            }
            let mut snapshot: Vec<(usize, Watts)> = Vec::with_capacity(rack_truth.len());
            for (rack, &truth) in rack_truth.iter().enumerate() {
                if let Some(w) = self.meters.read_rack(rack, now, truth) {
                    snapshot.push((rack, w));
                }
            }
            if snapshot.is_empty() {
                continue;
            }
            self.publish(
                now,
                poller,
                snapshot,
                TelemetryPayload::RackSnapshot,
                &mut deliveries,
            );
        }
        deliveries
    }

    /// Publishes one poller's snapshot on every live pub/sub instance,
    /// in instance order. The last delivery takes the snapshot; only the
    /// ones before it get a copy.
    fn publish<T: Clone>(
        &mut self,
        now: SimTime,
        poller: usize,
        snapshot: Vec<T>,
        wrap: fn(Vec<T>) -> TelemetryPayload,
        deliveries: &mut Vec<Delivery>,
    ) {
        let start = deliveries.len();
        for pubsub in 0..self.config.pubsub_instances {
            if !self.pubsub_up(pubsub, now) {
                continue;
            }
            let arrive_at = self.sample_delivery_time(now);
            self.deliveries.inc();
            self.measure_to_arrive.record_between(now, arrive_at);
            let seq = self.next_seq;
            self.next_seq += 1;
            deliveries.push(Delivery {
                seq,
                poller,
                pubsub,
                measured_at: now,
                arrive_at,
                // Filled in below, once the last live instance is known.
                payload: wrap(Vec::new()),
            });
        }
        if let Some((last, rest)) = deliveries.get_mut(start..).and_then(|d| d.split_last_mut()) {
            for d in rest {
                d.payload = wrap(snapshot.clone());
            }
            last.payload = wrap(snapshot);
        }
    }
}

fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let mid = values.get(n / 2)?;
    if n % 2 == 1 {
        Some(*mid)
    } else {
        // n is even and non-zero here, so n/2 - 1 is in range.
        values.get(n / 2 - 1).map(|lo| 0.5 * (lo + mid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_power::{FeedState, LoadModel, Topology};

    fn truth_at(kw_per_pair: f64) -> (Topology, GroundTruth) {
        let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
        let mut load = LoadModel::new(&topo);
        for p in topo.pdu_pairs() {
            load.set_pair_load(p.id(), Watts::from_kw(kw_per_pair));
        }
        let feed = FeedState::all_online(&topo);
        let gt = GroundTruth::capture(&load, &feed);
        (topo, gt)
    }

    fn pipeline(config: PipelineConfig) -> Pipeline {
        Pipeline::new(config, 4, 10, &RngPool::new(5))
    }

    #[test]
    fn ideal_pipeline_reports_exact_consensus() {
        let (_, truth) = truth_at(600.0);
        let mut p = pipeline(PipelineConfig::ideal());
        let deliveries = p.poll_upses(SimTime::ZERO, &truth);
        // 2 pollers × 2 pub/sub = 4 deliveries.
        assert_eq!(deliveries.len(), 4);
        for d in &deliveries {
            let TelemetryPayload::UpsSnapshot(snap) = &d.payload else {
                panic!("expected UPS snapshot");
            };
            assert_eq!(snap.len(), 4);
            for &(ups, w) in snap {
                assert!(w.approx_eq(truth.it_power(ups), 1e-6), "{ups}: {w}");
            }
            assert!(d.arrive_at > d.measured_at);
        }
    }

    #[test]
    fn consensus_masks_one_bad_meter() {
        let (_, truth) = truth_at(600.0);
        let mut p = pipeline(PipelineConfig::ideal());
        // Prime meters, then freeze one at a bogus value by reading it
        // once with different truth and forcing it stuck.
        let _ = p
            .meters_mut()
            .read_ups(UpsId(0), MeterKind::UpsOutput, SimTime::ZERO, Watts::from_kw(9_999.0));
        p.meters_mut().force_stuck(
            UpsId(0),
            MeterKind::UpsOutput,
            SimTime::from_secs_f64(100.0),
        );
        let deliveries = p.poll_upses(SimTime::from_secs_f64(1.5), &truth);
        for d in deliveries {
            let TelemetryPayload::UpsSnapshot(snap) = d.payload else {
                panic!("expected UPS snapshot");
            };
            let (_, w) = snap.iter().find(|(u, _)| *u == UpsId(0)).unwrap();
            // Median of {bogus, correct, correct} = correct.
            assert!(
                w.approx_eq(truth.it_power(UpsId(0)), 1e-6),
                "consensus failed: {w}"
            );
        }
    }

    #[test]
    fn no_single_point_of_failure() {
        let (_, truth) = truth_at(600.0);
        for component in ["poller/0", "switch/0", "pubsub/1", "meter/ups0/ItAggregate"] {
            let mut p = pipeline(PipelineConfig::ideal());
            let mut plan = FaultPlan::new();
            plan.add_outage(component, SimTime::ZERO, SimTime::from_secs_f64(1e6));
            p.set_fault_plan(plan);
            let ups = p.poll_upses(SimTime::from_secs_f64(1.0), &truth);
            assert!(
                !ups.is_empty(),
                "killing {component} must not silence UPS telemetry"
            );
            // Every delivered snapshot still covers all four UPSes.
            for d in &ups {
                let TelemetryPayload::UpsSnapshot(snap) = &d.payload else {
                    panic!("expected UPS snapshot");
                };
                assert_eq!(snap.len(), 4, "lost UPS coverage after {component}");
            }
            let racks = p.poll_racks(SimTime::from_secs_f64(1.0), &[Watts::from_kw(10.0); 10]);
            assert!(
                !racks.is_empty(),
                "killing {component} must not silence rack telemetry"
            );
        }
    }

    #[test]
    fn killing_everything_silences_the_pipeline() {
        let (_, truth) = truth_at(600.0);
        let mut p = pipeline(PipelineConfig::ideal());
        let mut plan = FaultPlan::new();
        plan.add_outage("poller/0", SimTime::ZERO, SimTime::from_secs_f64(1e6));
        plan.add_outage("poller/1", SimTime::ZERO, SimTime::from_secs_f64(1e6));
        p.set_fault_plan(plan);
        assert!(p.poll_upses(SimTime::from_secs_f64(1.0), &truth).is_empty());
        assert!(p
            .poll_racks(SimTime::from_secs_f64(1.0), &[Watts::from_kw(10.0); 10])
            .is_empty());
    }

    #[test]
    fn rack_snapshots_carry_all_racks() {
        let mut p = pipeline(PipelineConfig::ideal());
        let rack_truth: Vec<Watts> = (0..10).map(|i| Watts::from_kw(10.0 + i as f64)).collect();
        let deliveries = p.poll_racks(SimTime::ZERO, &rack_truth);
        assert_eq!(deliveries.len(), 4);
        for d in deliveries {
            let TelemetryPayload::RackSnapshot(snap) = d.payload else {
                panic!("expected rack snapshot");
            };
            assert_eq!(snap.len(), 10);
            assert_eq!(snap[3].1, Watts::from_kw(13.0));
        }
    }

    #[test]
    fn production_latency_is_subsecond_p999() {
        let (_, truth) = truth_at(600.0);
        let mut p = pipeline(PipelineConfig::production());
        let mut latencies: Vec<f64> = (0..2000)
            .flat_map(|i| p.poll_upses(SimTime::from_secs_f64(1.5 * i as f64), &truth))
            .map(|d| (d.arrive_at - d.measured_at).as_secs_f64())
            .collect();
        latencies.sort_by(f64::total_cmp);
        let quantile = |q: f64| latencies[(q * (latencies.len() - 1) as f64).ceil() as usize];
        let p999 = quantile(0.999);
        assert!(
            p999 < 1.5,
            "p99.9 data latency {p999}s violates the paper's 1.5 s"
        );
        let p50 = quantile(0.5);
        assert!(p50 > 0.1, "median {p50}s should include windowing");
    }

    #[test]
    fn deliveries_are_deterministic_per_seed() {
        let (_, truth) = truth_at(600.0);
        let run = || {
            let mut p = pipeline(PipelineConfig::production());
            let mut out = Vec::new();
            for i in 0..5 {
                out.extend(p.poll_upses(SimTime::from_secs_f64(1.5 * i as f64), &truth));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
        assert_eq!(median(&mut [5.0, 1.0]), Some(3.0));
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), Some(5.0));
    }
}
