//! Criterion: the electrical substrate — failover load transfer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flex_core::power::{FeedState, LoadModel, Topology, UpsId, Watts};

fn loaded_model(x: usize) -> LoadModel {
    let topo = Topology::distributed_redundant(x, Watts::from_mw(2.4)).unwrap();
    let mut load = LoadModel::new(&topo);
    for p in topo.pdu_pairs() {
        load.set_pair_load(p.id(), Watts::from_kw(1500.0));
    }
    load
}

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("power/ups-loads");
    for x in [4usize, 6] {
        let model = loaded_model(x);
        let topo = model.topology().clone();
        let feed = FeedState::with_failed(&topo, [UpsId(0)]);
        group.bench_with_input(BenchmarkId::from_parameter(x), &x, |b, _| {
            b.iter(|| model.ups_loads(&feed))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transfer);
criterion_main!(benches);
