//! Section VI performance characteristics: data latency, action latency,
//! and end-to-end detection across repeated failover episodes, with and
//! without telemetry component faults.
//!
//! Paper (production): p99.9 data latency < 1.5 s; action latency ~2 s
//! p99.9 for a ~10 MW room; end-to-end 3.5 s ≪ the 10 s device budget.

use flex_core::online::sim::{DemandFn, RoomSim, RoomSimConfig};
use flex_core::online::ImpactRegistry;
use flex_core::placement::policies::{BalancedRoundRobin, PlacementPolicy};
use flex_core::placement::{PlacedRoom, RoomConfig};
use flex_core::power::meter::GroundTruth;
use flex_core::power::{FeedState, LoadModel, UpsId, Watts};
use flex_core::sim::rng::RngPool;
use flex_core::sim::stats::Percentiles;
use flex_core::sim::{SimDuration, SimTime};
use flex_core::telemetry::{Pipeline, PipelineConfig};
use flex_core::workload::impact::scenarios;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn data_latency_study() {
    // Drive the pipeline alone for many ticks and report data latency.
    let room = RoomConfig::paper_placement_room().build().expect("room");
    let topo = room.topology().clone();
    let mut load = LoadModel::new(&topo);
    for p in topo.pdu_pairs() {
        load.set_pair_load(p.id(), Watts::from_kw(1200.0));
    }
    let truth = GroundTruth::capture(&load, &FeedState::all_online(&topo));
    let mut pipeline = Pipeline::new(
        PipelineConfig::production(),
        topo.ups_count(),
        600,
        &RngPool::new(61),
    );
    let ticks = if flex_bench::fast_mode() { 2_000 } else { 20_000 };
    let mut stats: Percentiles = (0..ticks)
        .flat_map(|i| pipeline.poll_upses(SimTime::from_secs_f64(1.5 * i as f64), &truth))
        .map(|d| (d.arrive_at - d.measured_at).as_secs_f64())
        .collect();
    let (p50, p95, p99, p999) = stats.summary().expect("latencies recorded");
    println!("data latency (meter -> subscriber, {ticks} poll ticks):");
    println!("  p50 {p50:.3}s  p95 {p95:.3}s  p99 {p99:.3}s  p99.9 {p999:.3}s   (paper: p99.9 < 1.5 s)");
}

fn end_to_end_study(label: &str, episodes: usize, fault_pollers: bool) {
    let mut detection = Percentiles::new();
    let mut action = Percentiles::new();
    let mut containment = Percentiles::new();
    for ep in 0..episodes {
        let room = RoomConfig::paper_emulation_room().build().expect("room");
        let config = TraceConfig::microsoft(room.provisioned_power());
        let mut rng = SmallRng::seed_from_u64(1000 + ep as u64);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        let registry = ImpactRegistry::from_scenario(
            placed.racks().iter().map(|r| (r.deployment, r.category)),
            &scenarios::realistic_1(),
        );
        let demand: DemandFn =
            Box::new(|rack, _, rng: &mut SmallRng| rack.provisioned * rng.gen_range(0.76..0.86));
        let sim_config = RoomSimConfig {
            seed: 7000 + ep as u64,
            ..RoomSimConfig::default()
        };
        let mut sim = RoomSim::new(&placed, registry, demand, sim_config);
        if fault_pollers {
            let mut plan = flex_core::sim::fault::FaultPlan::new();
            plan.add_outage("poller/0", SimTime::ZERO, SimTime::from_secs_f64(1e7));
            plan.add_outage("pubsub/1", SimTime::ZERO, SimTime::from_secs_f64(1e7));
            sim.world_mut().set_pipeline_fault_plan(plan);
        }
        let ups = UpsId((ep % 4) as usize);
        sim.fail_ups_at(SimTime::from_secs_f64(20.0), ups);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let w = sim.world();
        assert!(!w.stats.cascaded(), "episode {ep} cascaded");
        // Only measure detection when the failover actually produced an
        // overdraw emergency (survivor above the buffered limit within
        // 5 s); low-draw episodes have nothing to detect.
        let fail_t = SimTime::from_secs_f64(20.0);
        let emergency = w.stats.ups_fraction.iter().any(|s| {
            s.max_over(fail_t, fail_t + SimDuration::from_secs(5))
                .unwrap_or(0.0)
                > 0.98
        });
        if emergency {
            if let Some(d) = w.stats.detection_latency.first() {
                detection.record(d.as_secs_f64());
            }
        }
        // Failure -> first enforcement (the paper's "latency to take
        // corrective actions").
        if emergency {
            if let Some(first) = w
                .stats
                .events
                .iter()
                .filter_map(|(at, e)| match e {
                    flex_core::online::sim::SimEvent::Applied { .. } => Some(at.as_secs_f64()),
                    _ => None,
                })
                .find(|&t| t >= 20.0)
            {
                action.record(first - 20.0);
            }
        }
        // Failure -> containment: first instant every surviving UPS is
        // back at or under rated capacity.
        let contained = (21..60).find(|&sec| {
            w.stats
                .ups_fraction
                .iter()
                .all(|s| s.value_at(SimTime::from_secs_f64(sec as f64)).unwrap_or(0.0) <= 1.0)
        });
        if let Some(sec) = contained {
            containment.record(sec as f64 - 20.0);
        }
    }
    let (d50, d95, d99, d999) = detection.summary().expect("detections recorded");
    println!("\n{label} ({episodes} failover episodes):");
    println!("  failure -> first command:     p50 {d50:.2}s  p95 {d95:.2}s  p99 {d99:.2}s  p99.9 {d999:.2}s");
    if let Some((a50, a95, _, a999)) = action.summary() {
        println!(
            "  failure -> first enforcement: p50 {a50:.2}s  p95 {a95:.2}s  p99.9 {a999:.2}s   (paper e2e: 3.5 s p99.9)"
        );
    }
    if let Some((c50, c95, _, c999)) = containment.summary() {
        println!(
            "  failure -> containment:       p50 {c50:.0}s  p95 {c95:.0}s  p99.9 {c999:.0}s   (budget: 10 s, 1 s sampling)"
        );
    }
}

/// Ablation: 3-logical-meter consensus vs a single meter, under the
/// paper's observed stuck-meter behavior (readings repeat for up to 5 s).
fn consensus_ablation() {
    use flex_core::power::meter::MeterKind;
    use flex_core::telemetry::{MeterBank, MeterFaults};

    let faults = MeterFaults {
        noise_rel: 0.004,
        stuck_probability: 0.02, // exaggerated to make the effect visible
        stuck_duration: SimDuration::from_secs(5),
        drop_probability: 0.005,
    };
    let mut bank = MeterBank::new(1, 0, faults, &RngPool::new(99));
    let ups = UpsId(0);
    let n = 20_000;
    let mut single_bad = 0usize;
    let mut consensus_bad = 0usize;
    for i in 0..n {
        let now = SimTime::from_secs_f64(1.5 * i as f64);
        // Truth ramps so a stuck meter is actually wrong.
        let truth = Watts::from_kw(1_000.0 + 300.0 * ((i as f64 / 40.0).sin()));
        let mut normalized = Vec::new();
        for kind in MeterKind::ALL {
            if let Some(raw) = bank.read_ups(ups, kind, now, truth) {
                normalized.push(kind.normalize(raw).as_kw());
            }
        }
        let tolerance = (truth * 0.02).as_kw();
        if let Some(&first) = normalized.first() {
            if (first - truth.as_kw()).abs() > tolerance {
                single_bad += 1;
            }
        }
        if !normalized.is_empty() {
            normalized.sort_by(f64::total_cmp);
            let median = normalized[normalized.len() / 2];
            if (median - truth.as_kw()).abs() > tolerance {
                consensus_bad += 1;
            }
        }
    }
    println!("\nmeter-consensus ablation (2% stuck probability, ±2% error threshold):");
    println!(
        "  single meter wrong: {:.2}% of readings; 3-meter consensus wrong: {:.2}%",
        single_bad as f64 / n as f64 * 100.0,
        consensus_bad as f64 / n as f64 * 100.0
    );
    println!("  consensus masks any one failed/stuck/misreading meter (Section IV-C).");
}

fn main() {
    println!("Section VI — performance characteristics\n");
    data_latency_study();
    consensus_ablation();
    let episodes = if flex_bench::fast_mode() { 4 } else { 24 };
    end_to_end_study("end-to-end, healthy pipeline", episodes, false);
    end_to_end_study(
        "end-to-end, one poller and one pub/sub down",
        episodes,
        true,
    );
}
