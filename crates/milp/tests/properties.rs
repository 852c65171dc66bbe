//! Property tests: the MILP solver against brute force and its own LP bound.

use flex_milp::simplex::{solve_relaxation, LpBuffers};
use flex_milp::{
    MilpError, MilpSolution, Model, Relation, Sense, SolveConfig, SolveStatus, VarKind, WarmContext,
};
use proptest::prelude::*;

/// Builds a random feasible maximize-LP: non-negative variables with upper
/// bounds and `Σ aᵢxᵢ ≤ b` rows with non-negative coefficients (so x = 0
/// is always feasible).
fn arb_lp() -> impl Strategy<Value = Model> {
    let var = (0.1f64..10.0, 0.5f64..20.0); // (objective, upper bound)
    let vars = proptest::collection::vec(var, 1..6);
    let rows = proptest::collection::vec(
        (
            proptest::collection::vec(0.0f64..5.0, 6),
            1.0f64..40.0,
        ),
        0..5,
    );
    (vars, rows).prop_map(|(vars, rows)| {
        let mut m = Model::new(Sense::Maximize);
        let ids: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, (obj, ub))| {
                m.add_continuous(format!("x{i}"), 0.0, *ub, *obj).unwrap()
            })
            .collect();
        for (k, (coeffs, rhs)) in rows.iter().enumerate() {
            let terms: Vec<_> = ids
                .iter()
                .zip(coeffs)
                .map(|(&id, &c)| (id, c))
                .collect();
            m.add_constraint(format!("r{k}"), terms, Relation::Le, *rhs)
                .unwrap();
        }
        m
    })
}

/// A random knapsack small enough for exhaustive search.
fn arb_knapsack() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
    (1usize..=10).prop_flat_map(|n| {
        (
            proptest::collection::vec(1.0f64..50.0, n..=n),
            proptest::collection::vec(1.0f64..20.0, n..=n),
            10.0f64..60.0,
        )
    })
}

fn brute_force_knapsack(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let n = values.len();
    let mut best = 0.0_f64;
    for mask in 0u32..(1 << n) {
        let mut v = 0.0;
        let mut w = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                v += values[i];
                w += weights[i];
            }
        }
        if w <= cap {
            best = best.max(v);
        }
    }
    best
}

/// A random mixed-integer maximize model: a blend of integer and
/// continuous variables, `Σ aᵢxᵢ ≤ b` rows with non-negative
/// coefficients (x = 0 always feasible, so every model solves). Comes
/// with each variable's integer upper bound (`None` for continuous
/// variables; all lower bounds are 0), which enumeration needs.
fn arb_mip() -> impl Strategy<Value = (Model, Vec<Option<u32>>)> {
    // (is_integer, objective, upper bound)
    let var = (proptest::bool::ANY, 0.1f64..10.0, 1.0f64..4.0);
    let vars = proptest::collection::vec(var, 2..8);
    let rows = proptest::collection::vec(
        (proptest::collection::vec(0.0f64..5.0, 8), 2.0f64..30.0),
        1..5,
    );
    (vars, rows).prop_map(|(vars, rows)| {
        let mut m = Model::new(Sense::Maximize);
        let int_upper: Vec<Option<u32>> = vars
            .iter()
            .map(|(is_int, _, ub)| is_int.then(|| ub.round().max(1.0) as u32))
            .collect();
        let ids: Vec<_> = vars
            .iter()
            .zip(&int_upper)
            .enumerate()
            .map(|(i, ((_, obj, ub), int_ub))| match int_ub {
                Some(u) => m
                    .add_var(format!("z{i}"), VarKind::Integer, 0.0, f64::from(*u), *obj)
                    .unwrap(),
                None => m.add_continuous(format!("x{i}"), 0.0, *ub, *obj).unwrap(),
            })
            .collect();
        for (k, (coeffs, rhs)) in rows.iter().enumerate() {
            let terms: Vec<_> = ids.iter().zip(coeffs).map(|(&id, &c)| (id, c)).collect();
            m.add_constraint(format!("r{k}"), terms, Relation::Le, *rhs)
                .unwrap();
        }
        (m, int_upper)
    })
}

/// Enumeration cap: keeps the debug-mode suite fast.
const MAX_ASSIGNMENTS: u64 = 1_024;

/// How many integer assignments [`enumerate_optimum`] visits.
fn assignment_count(int_upper: &[Option<u32>]) -> u64 {
    int_upper.iter().flatten().map(|&u| u64::from(u) + 1).product()
}

/// Bound overrides pinning every integer variable to assignment `k`
/// (a mixed-radix number over the integer ranges); continuous
/// variables keep their model bounds.
fn assignment_bounds(int_upper: &[Option<u32>], mut k: u64) -> Vec<(f64, f64)> {
    int_upper
        .iter()
        .map(|u| match u {
            Some(u) => {
                let radix = u64::from(*u) + 1;
                let v = (k % radix) as f64;
                k /= radix;
                (v, v)
            }
            None => (0.0, f64::MAX),
        })
        .collect()
}

/// The optimum of a maximize model by exhaustive enumeration: every
/// integer assignment, with the continuous rest solved by the cold LP
/// under those pinned bounds. Shares no code with branch-and-bound.
fn enumerate_optimum(m: &Model, int_upper: &[Option<u32>]) -> f64 {
    (0..assignment_count(int_upper))
        .filter_map(|k| match solve_relaxation(m, &assignment_bounds(int_upper, k)) {
            Ok((obj, _)) => Some(obj),
            Err(MilpError::Infeasible) => None,
            Err(e) => panic!("enumeration LP failed: {e}"),
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

fn config_for(threads: usize) -> SolveConfig {
    SolveConfig {
        threads,
        ..SolveConfig::default()
    }
}

/// A solution's status and counters, with its floats as bit patterns
/// (objective, best bound, values) for exact comparison.
type SolutionBits = (SolveStatus, u64, u64, Vec<u64>, [u64; 5]);

fn solution_bits(sol: &MilpSolution) -> SolutionBits {
    (
        sol.status,
        sol.objective.to_bits(),
        sol.best_bound.to_bits(),
        sol.values.iter().map(|v| v.to_bits()).collect(),
        [
            sol.nodes_explored,
            sol.lp_iterations,
            sol.warm_starts,
            sol.cold_starts,
            sol.relaxation_failures,
        ],
    )
}

/// Regression for a phase-1 bug: rows whose initial residual is negative
/// (e.g. `Σ terms − M ≤ −e` with all variables starting at 0) previously
/// produced a non-identity artificial basis and false infeasibility.
#[test]
fn negative_residual_rows_are_feasible() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_binary("x", 10.0);
    let big = m.add_continuous("M", 0.0, 2.0, -1.0).unwrap();
    let small = m.add_continuous("m", 0.0, 2.0, 1.0).unwrap();
    // 0.4·x − M ≤ −0.25  (forces M ≥ 0.25 + 0.4 x)
    m.add_constraint("up", vec![(x, 0.4), (big, -1.0)], Relation::Le, -0.25)
        .unwrap();
    // 0.4·x − m ≥ −0.25  (m ≤ 0.25 + 0.4 x)
    m.add_constraint("down", vec![(x, 0.4), (small, -1.0)], Relation::Ge, -0.25)
        .unwrap();
    let sol = m.solve(&SolveConfig::default()).unwrap();
    // Optimal: x = 1 (10 pts), M = m = 0.65 (spread cost 0).
    assert!(sol.is_one(x), "x should be selected: {sol:?}");
    assert!((sol.objective - 10.0).abs() < 1e-6, "objective {}", sol.objective);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimal LP solutions are feasible and report their own objective.
    #[test]
    fn lp_solutions_are_feasible(m in arb_lp()) {
        let bounds: Vec<(f64, f64)> = (0..m.var_count())
            .map(|_| (0.0, f64::MAX))
            .collect();
        // Use the model's own bounds (intersection keeps them).
        let (obj, vals) = solve_relaxation(&m, &bounds).unwrap();
        prop_assert!(m.is_feasible(&vals, 1e-5) || {
            // Continuous model: integrality can't fail, so feasibility must hold.
            false
        }, "infeasible LP solution: {vals:?}");
        prop_assert!((m.objective_value(&vals) - obj).abs() < 1e-5,
            "objective mismatch: {} vs {}", m.objective_value(&vals), obj);
    }

    /// MILP knapsack matches exhaustive search.
    #[test]
    fn knapsack_matches_brute_force((values, weights, cap) in arb_knapsack()) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, v)| m.add_binary(format!("x{i}"), *v))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)),
            Relation::Le,
            cap,
        )
        .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        let best = brute_force_knapsack(&values, &weights, cap);
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "milp {} vs brute force {}", sol.objective, best);
        prop_assert!(m.is_feasible(&sol.values, 1e-6));
    }

    /// The integer optimum never exceeds the LP relaxation bound
    /// (maximize), and the solver's reported best_bound brackets it.
    #[test]
    fn milp_bounded_by_relaxation((values, weights, cap) in arb_knapsack()) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, v)| m.add_binary(format!("x{i}"), *v))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)),
            Relation::Le,
            cap,
        )
        .unwrap();
        let bounds: Vec<(f64, f64)> = (0..m.var_count()).map(|_| (0.0, 1.0)).collect();
        let (lp_obj, _) = solve_relaxation(&m, &bounds).unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        prop_assert!(sol.objective <= lp_obj + 1e-6,
            "integer {} exceeds relaxation {}", sol.objective, lp_obj);
        prop_assert!(sol.best_bound + 1e-6 >= sol.objective);
    }

    /// Every thread count explores the single-thread tree: at 2 and 4
    /// threads the solution is bit-identical to the one-thread solve —
    /// values, objective and bound bits, and every counter.
    #[test]
    fn parallel_solver_matches_single_thread((m, _) in arb_mip()) {
        let reference = m.solve(&config_for(1)).unwrap();
        for threads in [2usize, 4] {
            let sol = m.solve(&config_for(threads)).unwrap();
            prop_assert_eq!(
                solution_bits(&sol),
                solution_bits(&reference),
                "threads={}: {} vs {}", threads, sol, reference
            );
            prop_assert_eq!(sol.relaxation_failures, 0);
        }
    }

    /// Branch-and-bound is optimal: at 1 and 4 workers the solve
    /// reaches the enumeration optimum with a feasible point and no
    /// dropped nodes.
    #[test]
    fn solver_matches_enumeration((m, int_upper) in arb_mip()) {
        prop_assume!(assignment_count(&int_upper) <= MAX_ASSIGNMENTS);
        let best = enumerate_optimum(&m, &int_upper);
        for threads in [1usize, 4] {
            let sol = m.solve(&config_for(threads)).unwrap();
            prop_assert!(
                (sol.objective - best).abs() < 1e-6,
                "threads={threads}: {} vs enumeration {best}", sol.objective
            );
            prop_assert!(m.is_feasible(&sol.values, 1e-6));
            prop_assert_eq!(sol.relaxation_failures, 0);
        }
    }

    /// Warm-started relaxations change the work done, never the answer:
    /// at every integer assignment, a dual-simplex re-solve from the
    /// root basis agrees with the cold two-phase solve — the same
    /// objective, or both infeasible.
    #[test]
    fn warm_starts_match_cold_starts((m, int_upper) in arb_mip()) {
        prop_assume!(assignment_count(&int_upper) <= MAX_ASSIGNMENTS);
        let ctx = WarmContext::new(&m);
        let mut bufs = LpBuffers::default();
        let root_bounds: Vec<(f64, f64)> = int_upper
            .iter()
            .map(|u| (0.0, u.map_or(f64::MAX, f64::from)))
            .collect();
        let root = ctx.solve_relaxation_in(&root_bounds, None, &mut bufs).unwrap();
        for k in 0..assignment_count(&int_upper) {
            let bounds = assignment_bounds(&int_upper, k);
            let warm = ctx.solve_relaxation_in(&bounds, Some(&root.basis), &mut bufs);
            match (solve_relaxation(&m, &bounds), warm) {
                (Ok((cold, _)), Ok(warm)) => prop_assert!(
                    (warm.objective - cold).abs() < 1e-6,
                    "assignment {k}: warm {} vs cold {cold}", warm.objective
                ),
                (Err(MilpError::Infeasible), Err(MilpError::Infeasible)) => {}
                (cold, warm) => prop_assert!(
                    false,
                    "assignment {k}: cold {:?} vs warm {:?}",
                    cold.map(|(obj, _)| obj),
                    warm.map(|r| r.objective)
                ),
            }
        }
    }
}
