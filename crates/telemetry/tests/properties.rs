//! Property tests: the pipeline's redundancy claims hold under random
//! fault combinations.

use flex_power::meter::{GroundTruth, MeterKind};
use flex_power::{FeedState, LoadModel, Topology, UpsId, Watts};
use flex_sim::rng::RngPool;
use flex_sim::{SimDuration, SimTime};
use flex_telemetry::fault::{Component, FaultPlan};
use flex_telemetry::{Pipeline, PipelineConfig, TelemetryPayload};
use proptest::prelude::*;

fn ground_truth(kw_per_pair: f64) -> GroundTruth {
    let topo = Topology::distributed_redundant(4, Watts::from_mw(2.4)).unwrap();
    let mut load = LoadModel::new(&topo);
    for p in topo.pdu_pairs() {
        load.set_pair_load(p.id(), Watts::from_kw(kw_per_pair));
    }
    GroundTruth::capture(&load, &FeedState::all_online(&topo))
}

/// A noiseless, fault-free pipeline configuration.
fn ideal() -> PipelineConfig {
    PipelineConfig {
        meter_noise_rel: 0.0,
        stuck_probability: 0.0,
        drop_probability: 0.0,
        hop_latency_median_ms: 10.0,
        hop_latency_sigma: 0.01,
        windowing_delay: SimDuration::ZERO,
        ..PipelineConfig::production()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any *single* component failure leaves UPS telemetry flowing with
    /// full coverage and accurate consensus.
    #[test]
    fn single_fault_never_silences(
        component_class in 0usize..4,
        instance in 0usize..2,
        kw in 100.0f64..1500.0,
        seed in 0u64..1000,
    ) {
        let component = match component_class {
            0 => Component::Poller(instance),
            1 => Component::PubSub(instance),
            2 => Component::Switch(instance),
            _ => Component::UpsMeter { ups: instance, kind: MeterKind::ItAggregate },
        };
        let truth = ground_truth(kw);
        let mut p = Pipeline::new(ideal(), 4, 8, &RngPool::new(seed));
        let mut plan = FaultPlan::new();
        plan.add_outage(component, SimTime::ZERO, SimTime::from_secs_f64(1e9));
        p.set_fault_plan(plan);
        let deliveries = p.poll_upses(SimTime::from_secs_f64(1.5), &truth);
        prop_assert!(!deliveries.is_empty(), "{component} silenced the pipeline");
        for d in &deliveries {
            prop_assert!(matches!(d.payload, TelemetryPayload::UpsSnapshot(_)));
            prop_assert_eq!(d.payload.readings().count(), 4, "lost coverage after {}", component);
            for (ups, w) in d.payload.readings() {
                let ups = UpsId(ups);
                prop_assert!(
                    w.approx_eq(truth.it_power(ups), truth.it_power(ups).as_w() * 1e-6 + 1.0),
                    "{}: consensus {} vs truth {}", ups, w, truth.it_power(ups)
                );
            }
            prop_assert!(d.arrive_at > d.measured_at);
        }
    }

    /// Consensus tracks truth within noise bounds even with per-poll
    /// noise enabled, for every UPS and every delivery.
    #[test]
    fn consensus_tracks_truth_under_noise(kw in 100.0f64..1500.0, seed in 0u64..1000) {
        let truth = ground_truth(kw);
        let config = PipelineConfig {
            meter_noise_rel: 0.01,
            ..ideal()
        };
        let mut p = Pipeline::new(config, 4, 0, &RngPool::new(seed));
        for i in 0..20 {
            let now = SimTime::from_secs_f64(1.5 * (i + 1) as f64);
            for d in p.poll_upses(now, &truth) {
                prop_assert!(matches!(d.payload, TelemetryPayload::UpsSnapshot(_)));
                for (ups, w) in d.payload.readings() {
                    let t = truth.it_power(UpsId(ups));
                    let rel = (w.as_w() - t.as_w()).abs() / t.as_w().max(1.0);
                    prop_assert!(rel < 0.05, "{ups}: consensus off by {rel}");
                }
            }
        }
    }

    /// Delivery counts follow the live (poller × pub/sub) product.
    #[test]
    fn delivery_fanout_matches_live_components(
        kill_poller in proptest::bool::ANY,
        kill_pubsub in proptest::bool::ANY,
    ) {
        let truth = ground_truth(500.0);
        let mut p = Pipeline::new(ideal(), 4, 0, &RngPool::new(7));
        let mut plan = FaultPlan::new();
        let mut pollers = 2;
        let mut pubsubs = 2;
        if kill_poller {
            plan.add_outage(Component::Poller(0), SimTime::ZERO, SimTime::from_secs_f64(1e9));
            pollers -= 1;
        }
        if kill_pubsub {
            plan.add_outage(Component::PubSub(0), SimTime::ZERO, SimTime::from_secs_f64(1e9));
            pubsubs -= 1;
        }
        p.set_fault_plan(plan);
        let deliveries = p.poll_upses(SimTime::from_secs_f64(1.0), &truth);
        prop_assert_eq!(deliveries.len(), pollers * pubsubs);
    }
}
