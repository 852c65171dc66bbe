//! Criterion: simplex and branch-and-bound scaling on knapsack-shaped
//! models (the Gurobi stand-in's core loop), and warm node LPs alone.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flex_core::milp::simplex::{solve_relaxation, LpBuffers};
use flex_core::milp::{Model, Relation, Sense, SolveConfig, WarmContext};

fn knapsack(n: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_binary(format!("x{i}"), ((i * 37 + 11) % 50 + 1) as f64))
        .collect();
    m.add_constraint(
        "cap",
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 53 + 7) % 30 + 1) as f64)),
        Relation::Le,
        (4 * n) as f64,
    )
    .unwrap();
    // A few side constraints to mimic the placement structure.
    for k in 0..6 {
        m.add_constraint(
            format!("side{k}"),
            vars.iter()
                .enumerate()
                .filter(|(i, _)| i % 6 == k)
                .map(|(_, &v)| (v, 1.0)),
            Relation::Le,
            (n / 8).max(1) as f64,
        )
        .unwrap();
    }
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp/lp-relaxation");
    for n in [30usize, 60, 120, 240] {
        let m = knapsack(n);
        let bounds: Vec<(f64, f64)> = (0..m.var_count()).map(|_| (0.0, 1.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| solve_relaxation(&m, &bounds).unwrap())
        });
    }
    group.finish();
}

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp/branch-and-bound");
    group.sample_size(10);
    for n in [20usize, 40, 80] {
        let m = knapsack(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| m.solve(&SolveConfig::default()).unwrap())
        });
    }
    group.finish();
}

/// A placement-shaped instance: `deps × pairs` assignment binaries,
/// one at-most-one row per deployment and one capacity row per PDU
/// pair — the structure `flex-placement` hands the solver, at the
/// paper's batch scale (~200 binaries for 40 deployments × 5 pairs).
fn placement_like(deps: usize, pairs: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let power: Vec<f64> = (0..deps).map(|d| ((d * 37 + 11) % 50 + 10) as f64).collect();
    let x: Vec<Vec<_>> = (0..deps)
        .map(|d| {
            (0..pairs)
                .map(|p| m.add_binary(format!("x{d}_{p}"), power[d]))
                .collect()
        })
        .collect();
    for (d, row) in x.iter().enumerate() {
        m.add_constraint(
            format!("assign{d}"),
            row.iter().map(|&v| (v, 1.0)),
            Relation::Le,
            1.0,
        )
        .unwrap();
    }
    // Pair capacity sized so ~80% of total power fits: the solver has to
    // choose what to strand, like a tight placement batch.
    let total: f64 = power.iter().sum();
    let cap = total * 0.8 / pairs as f64;
    for p in 0..pairs {
        m.add_constraint(
            format!("cap{p}"),
            (0..deps).map(|d| (x[d][p], power[d])),
            Relation::Le,
            cap,
        )
        .unwrap();
    }
    m
}

/// Thread-count matrix on the ~200-binary placement-shaped instance,
/// plus a one-shot solver-counter report per thread count. The node
/// budget (not the wall clock) bounds each solve so configurations do
/// the same work and throughput is the comparable number. Every thread
/// count explores the single-thread tree, so the report panics if the
/// nodes or pivots differ between thread counts.
fn bench_thread_matrix(c: &mut Criterion) {
    let m = placement_like(40, 5);
    let make_cfg = |threads: usize| SolveConfig {
        threads,
        max_nodes: 2_000,
        time_limit: Duration::from_secs(30),
        ..SolveConfig::default()
    };

    let mut group = c.benchmark_group("milp/threads-200bin");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        let cfg = make_cfg(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &cfg, |b, cfg| {
            b.iter(|| m.solve(cfg).unwrap())
        });
    }
    group.finish();

    println!("\nmilp/threads-200bin node throughput:");
    let mut trees = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let start = Instant::now();
        let sol = m.solve(&make_cfg(threads)).unwrap();
        let secs = start.elapsed().as_secs_f64();
        println!(
            "  threads={threads}: nodes={} lp_iterations={}, {:.0} nodes/s ({sol} in {secs:.3}s)",
            sol.nodes_explored,
            sol.lp_iterations,
            sol.nodes_explored as f64 / secs.max(1e-9),
        );
        trees.push((threads, sol.nodes_explored, sol.lp_iterations));
    }
    let (_, nodes, iters) = trees[0];
    for &(threads, n, it) in &trees[1..] {
        assert!(
            (n, it) == (nodes, iters),
            "threads={threads} explored {n} nodes in {it} pivots, threads=1 {nodes} in {iters}",
        );
    }
}

/// Branch-and-bound node LPs on their own, on the ~200-binary
/// placement-shaped instance. `fix-one-200bin`: a warm child re-solve
/// from the root basis with the root's most fractional binary fixed to
/// 1. `dive-8`: eight successive warm re-solves, each fixing the most
/// fractional binary of the solve before at its nearer integer and
/// starting from that solve's basis, through one kept set of buffers
/// as a search thread does; its dual pivots drive columns that left
/// the basis back in. This times the per-node simplex kernel (tableau
/// refactor, dual restore, primal polish) apart from the search, then
/// prints the pivot counts.
fn bench_warm_node(c: &mut Criterion) {
    let m = placement_like(40, 5);
    let ctx = WarmContext::new(&m);
    let root_bounds = vec![(0.0, 1.0); m.var_count()];
    let root = ctx.solve_relaxation(&root_bounds, None).unwrap();
    let frac = |v: f64| (v - v.round()).abs();
    let branch = (0..root.values.len())
        .max_by(|&a, &b| frac(root.values[a]).total_cmp(&frac(root.values[b])))
        .unwrap();
    let mut child = root_bounds.clone();
    child[branch] = (1.0, 1.0);

    let mut dive = Vec::new();
    let (mut bounds, mut at) = (root_bounds.clone(), root.clone());
    for _ in 0..8 {
        let j = (0..at.values.len())
            .max_by(|&a, &b| frac(at.values[a]).total_cmp(&frac(at.values[b])))
            .unwrap();
        assert!(frac(at.values[j]) > 0.0, "the dive reached an integral solution");
        let v = at.values[j].round();
        bounds[j] = (v, v);
        at = ctx.solve_relaxation(&bounds, Some(&at.basis)).unwrap();
        assert!(at.warmed, "a dive step fell back to a cold solve");
        dive.push((bounds.clone(), at.iterations));
    }

    let mut group = c.benchmark_group("milp/warm-node");
    group.bench_function("fix-one-200bin", |b| {
        b.iter(|| ctx.solve_relaxation(&child, Some(&root.basis)).unwrap())
    });
    group.bench_function("dive-8", |b| {
        let mut bufs = LpBuffers::default();
        b.iter(|| {
            let mut basis = root.basis.clone();
            for (bounds, _) in &dive {
                basis = ctx.solve_relaxation_in(bounds, Some(&basis), &mut bufs).unwrap().basis;
            }
            basis
        })
    });
    group.finish();

    let node = ctx.solve_relaxation(&child, Some(&root.basis)).unwrap();
    assert!(node.warmed, "the child re-solve fell back to a cold solve");
    println!(
        "\nmilp/warm-node: x{branch} = {:.3} fixed to 1, {} pivots per re-solve; \
         dive-8 pivots per step {:?}",
        root.values[branch],
        node.iterations,
        dive.iter().map(|(_, iters)| iters).collect::<Vec<_>>(),
    );
}

criterion_group!(
    benches,
    bench_simplex,
    bench_branch_and_bound,
    bench_thread_matrix,
    bench_warm_node
);
criterion_main!(benches);
