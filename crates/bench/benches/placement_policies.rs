//! Criterion: wall-clock cost of each placement policy on the paper's
//! 9.6 MW room (the Flex-Offline variants are dominated by LNS + ILP).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flex_core::placement::ilp::IlpConfig;
use flex_core::placement::policies::{
    BalancedRoundRobin, FirstFit, FlexOffline, PlacementPolicy, Random,
};
use flex_core::placement::RoomConfig;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_policies(c: &mut Criterion) {
    let room = RoomConfig::paper_placement_room().build().unwrap();
    let config = TraceConfig::microsoft(room.provisioned_power());
    let trace = TraceGenerator::new(config).generate(&mut SmallRng::seed_from_u64(1));
    let fast_ilp = IlpConfig {
        time_limit: Duration::from_millis(500),
    };

    let mut group = c.benchmark_group("placement");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("policy", "random"), |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            Random.place(&room, &trace, &mut rng)
        })
    });
    group.bench_function(BenchmarkId::new("policy", "first-fit"), |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            FirstFit.place(&room, &trace, &mut rng)
        })
    });
    group.bench_function(BenchmarkId::new("policy", "balanced-round-robin"), |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            BalancedRoundRobin.place(&room, &trace, &mut rng)
        })
    });
    group.bench_function(BenchmarkId::new("policy", "flex-offline-short"), |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            FlexOffline::short()
                .with_config(fast_ilp.clone())
                .place(&room, &trace, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
