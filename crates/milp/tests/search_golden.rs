//! Search-trace golden: pins the exact branch-and-bound trace of a few
//! small placement-shaped models, at `threads` 1, 2 and 4 alike.
//!
//! The enumeration properties only check that the optimum is right; a
//! change that keeps optima but moves the search (a different branching
//! order, a changed pivot, a lost warm start) passes them. This test
//! fails on any such change: node count, pivots, warm and cold
//! relaxations and the objective's bits must match the recorded values.
//! A deliberate change to the search re-records them and says so.
//!
//! Every thread count explores the `threads: 1` tree (helper threads
//! only solve node relaxations ahead of the committing loop), so one
//! set of values holds for all of them.

use flex_milp::{Model, Relation, Sense, SolveConfig, SolveStatus, VarKind};

/// SplitMix64: a tiny, dependency-free generator, so the models cannot
/// drift with a change to any RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A placement-shaped batch: `deps × pairs` assignment binaries with one
/// at-most-one row per deployment, and one capacity row per PDU pair
/// that also holds a general-integer spare count (0..=3) for the pair
/// and a shared continuous flex fraction. Capacity covers 60–90% of the
/// batch, so the solver must choose what to strand.
fn placement_model(seed: u64) -> Model {
    let mut r = SplitMix(seed);
    let deps = r.range(6, 16);
    let pairs = r.range(2, 5);
    let mut m = Model::new(Sense::Maximize);
    let power: Vec<f64> = (0..deps)
        .map(|_| 10.0 + (r.unit() * 50.0).round())
        .collect();
    let x: Vec<Vec<_>> = (0..deps)
        .map(|d| {
            (0..pairs)
                .map(|p| m.add_binary(format!("x{d}_{p}"), power[d] * (1.0 + 0.01 * p as f64)))
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
    let spare: Vec<_> = (0..pairs)
        .map(|p| {
            m.add_var(
                format!("spare{p}"),
                VarKind::Integer,
                0.0,
                3.0,
                7.5 + r.unit(),
            )
            .unwrap()
        })
        .collect();
    let flex = m.add_continuous("flex", 0.0, 1.0, 3.0).unwrap();
    let total: f64 = power.iter().sum();
    let cap = total * (0.6 + 0.3 * r.unit()) / pairs as f64;
    for p in 0..pairs {
        let terms: Vec<_> = (0..deps)
            .map(|d| (x[d][p], power[d]))
            .chain([(spare[p], 11.0), (flex, 5.0)])
            .collect();
        m.add_constraint(format!("cap{p}"), terms, Relation::Le, cap)
            .unwrap();
    }
    m
}

/// One recorded solve: `(seed, objective bits, nodes_explored,
/// lp_iterations, warm_starts, cold_starts)`.
type Golden = (u64, u64, u64, u64, u64, u64);

const GOLDEN: [Golden; 5] = [
    (5, 0x4060_c178_a553_e2c7, 167, 359, 186, 1),
    (6, 0x405b_8932_94d4_75b7, 567, 1253, 597, 1),
    (7, 0x406c_04d6_6512_6f81, 338, 741, 364, 1),
    (10, 0x405a_aa29_a0f9_49d9, 64, 175, 88, 1),
    (12, 0x4058_f423_44d7_fb6e, 1252, 2585, 1320, 1),
];

/// Checks every golden solve at `threads`.
fn check_golden(threads: usize) {
    let config = SolveConfig {
        threads,
        ..SolveConfig::default()
    };
    for &golden in &GOLDEN {
        let seed = golden.0;
        let m = placement_model(seed);
        let sol = m.solve(&config).unwrap();
        assert_eq!(
            sol.status,
            SolveStatus::Optimal,
            "seed {seed}, threads {threads}"
        );
        assert_eq!(sol.relaxation_failures, 0, "seed {seed}, threads {threads}");
        let got = (
            seed,
            sol.objective.to_bits(),
            sol.nodes_explored,
            sol.lp_iterations,
            sol.warm_starts,
            sol.cold_starts,
        );
        assert_eq!(got, golden, "seed {seed}, threads {threads}: {sol}");
        assert!(
            m.is_feasible(&sol.values, 1e-6),
            "seed {seed}, threads {threads}"
        );
    }
}

#[test]
fn single_thread_search_trace_matches_golden() {
    check_golden(1);
}

#[test]
fn two_thread_search_trace_matches_golden() {
    check_golden(2);
}

#[test]
fn four_thread_search_trace_matches_golden() {
    check_golden(4);
}
