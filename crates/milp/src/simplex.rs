//! Dense two-phase primal simplex with bounded variables.
//!
//! Solves `minimize cᵀx  s.t.  Ax = b,  l ≤ x ≤ u` where every structural
//! variable has finite bounds (slack variables may be unbounded above).
//! Inequality constraints are converted to equalities with slack columns by
//! [`LpProblem::from_model`]; phase 1 starts from an all-artificial basis.
//!
//! Nonbasic variables rest at one of their bounds (the *bounded-variable*
//! rule), so variable upper bounds cost nothing extra in tableau size —
//! important because the placement ILP has hundreds of binaries.
//! Branch-and-bound nodes re-solve warm instead, with the dual simplex
//! from the parent's basis ([`WarmContext`]).

use crate::model::{Model, Relation, Sense, VarKind};
use crate::MilpError;

/// Pricing tolerance: reduced costs within this of zero are "optimal".
const PRICE_EPS: f64 = 1e-9;
/// Pivot-element tolerance.
const PIVOT_EPS: f64 = 1e-9;
/// Feasibility tolerance for phase-1 success and ratio tests.
const FEAS_EPS: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERACY_GUARD: u32 = 64;

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (for the internal minimize form).
    Unbounded,
    /// Iteration limit hit (numerical trouble); treat as a failed solve.
    IterationLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status; `objective`/`values` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Optimal objective of the *minimize* form.
    pub objective: f64,
    /// Values for all columns (structural first, then slacks).
    pub values: Vec<f64>,
}

/// Where a model variable landed in the LP: a live column, or eliminated
/// as a constant because its effective bounds pin it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColRef {
    /// The variable is LP column `i`.
    Col(usize),
    /// The variable is fixed at this value (folded into RHS/objective).
    Fixed(f64),
}

/// A standard-form LP: minimize over equality rows with bounded columns.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Per-column objective coefficients (minimize).
    pub costs: Vec<f64>,
    /// Per-column lower bounds (finite).
    pub lower: Vec<f64>,
    /// Per-column upper bounds (`f64::INFINITY` allowed).
    pub upper: Vec<f64>,
    /// Sparse equality rows over the columns.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Right-hand sides.
    pub rhs: Vec<f64>,
    /// Number of structural (model) columns at the front.
    pub structural: usize,
    /// Mapping from model variables to LP columns. Fixed variables are
    /// eliminated — this keeps branch-and-bound node LPs small as more
    /// binaries get pinned.
    pub var_map: Vec<ColRef>,
    /// Constant added to the objective (from eliminated variables).
    pub objective_offset: f64,
}

impl LpProblem {
    /// Builds the LP relaxation of a model, with per-variable bound
    /// overrides (used by branch-and-bound; pass the model's own bounds
    /// for the root relaxation). Maximize models are negated into
    /// minimize form; callers flip the objective sign back.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len()` differs from the model's variable count
    /// or any override is inverted/non-finite.
    pub fn from_model(model: &Model, bounds: &[(f64, f64)]) -> LpProblem {
        Self::build(model, bounds, true)
    }

    /// Like [`LpProblem::from_model`], but never eliminates fixed
    /// variables, so the column layout depends only on the model — not on
    /// which bounds happen to be pinned. A stable layout is what lets a
    /// [`BasisSnapshot`] taken at one branch-and-bound node be re-applied
    /// at another after only the `lower`/`upper` vectors change.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LpProblem::from_model`].
    pub fn from_model_dense(model: &Model, bounds: &[(f64, f64)]) -> LpProblem {
        Self::build(model, bounds, false)
    }

    fn build(model: &Model, bounds: &[(f64, f64)], eliminate: bool) -> LpProblem {
        assert_eq!(bounds.len(), model.var_count(), "bounds length mismatch");
        let sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        // Map variables to live columns, eliminating fixed ones.
        let mut var_map = Vec::with_capacity(model.var_count());
        let mut costs: Vec<f64> = Vec::new();
        let mut lower: Vec<f64> = Vec::new();
        let mut upper: Vec<f64> = Vec::new();
        let mut objective_offset = 0.0;
        for (v, &(lo, hi)) in model.vars.iter().zip(bounds) {
            assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad bounds");
            // Intersect model bounds with overrides defensively.
            let l = lo.max(v.lower);
            let u = hi.min(v.upper);
            debug_assert!(l <= u + 1e-9, "override disjoint from model bounds");
            if eliminate && u - l < 1e-12 {
                var_map.push(ColRef::Fixed(l));
                objective_offset += sign * v.objective * l;
            } else {
                var_map.push(ColRef::Col(costs.len()));
                costs.push(sign * v.objective);
                lower.push(l);
                upper.push(u);
            }
        }
        let structural = costs.len();
        let mut rows = Vec::with_capacity(model.constraints.len());
        let mut rhs = Vec::with_capacity(model.constraints.len());
        for c in &model.constraints {
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
            let mut b = c.rhs;
            for &(i, a) in &c.terms {
                match var_map[i] {
                    ColRef::Col(col) => row.push((col, a)),
                    ColRef::Fixed(v) => b -= a * v,
                }
            }
            match c.relation {
                Relation::Le => {
                    let slack = costs.len();
                    costs.push(0.0);
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                    row.push((slack, 1.0));
                }
                Relation::Ge => {
                    let surplus = costs.len();
                    costs.push(0.0);
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                    row.push((surplus, -1.0));
                }
                Relation::Eq => {}
            }
            rows.push(row);
            rhs.push(b);
        }
        LpProblem {
            costs,
            lower,
            upper,
            rows,
            rhs,
            structural,
            var_map,
            objective_offset,
        }
    }

    /// Number of columns (structural + slack).
    pub fn col_count(&self) -> usize {
        self.costs.len()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
}

/// Reduced-cost pricing: fills `d` with `d_j = c_j − c_Bᵀ·tab[:,j]` for
/// every tableau column. [`Tableau::reduced_costs`] is the one the solver
/// uses; the parameter lets tests run the column-wise reference.
type Pricing = fn(&Tableau, &[f64], &mut Vec<f64>);

struct Tableau {
    /// m × ncols dense matrix, current B⁻¹A.
    tab: Vec<Vec<f64>>,
    /// Basic-variable values per row.
    xb: Vec<f64>,
    /// Column in the basis for each row.
    basis: Vec<usize>,
    /// Per-column status and bounds: one entry for every problem
    /// column, artificials included, even when the tableau is narrower.
    status: Vec<ColStatus>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    m: usize,
    /// Tableau width: the columns priced and pivoted. Columns past it
    /// are artificials a warm tableau leaves out; they stay nonbasic,
    /// pinned at [0, 0].
    ncols: usize,
}

impl Tableau {
    /// Current value of every column.
    fn values(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .status
            .iter()
            .enumerate()
            .map(|(j, s)| match s {
                ColStatus::Basic => 0.0,
                ColStatus::AtLower => self.lower[j],
                ColStatus::AtUpper => self.upper[j],
            })
            .collect();
        for (i, &b) in self.basis.iter().enumerate() {
            v[b] = self.xb[i];
        }
        v
    }

    /// Runs the primal simplex for the given cost vector. Returns
    /// `Ok(objective)` at optimality. Each pivot or bound flip adds one
    /// to `iters`.
    fn optimize(
        &mut self,
        costs: &[f64],
        max_iters: u64,
        iters: &mut u64,
        price: Pricing,
    ) -> Result<f64, LpStatus> {
        let mut degenerate_streak: u32 = 0;
        let mut reduced = Vec::with_capacity(self.ncols);
        for _ in 0..max_iters {
            price(self, costs, &mut reduced);
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, sigma)
            let use_bland = degenerate_streak >= DEGENERACY_GUARD;
            for j in 0..self.ncols {
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                if self.upper[j] - self.lower[j] < PIVOT_EPS {
                    continue; // fixed column can never improve
                }
                let d = reduced[j];
                let sigma = match self.status[j] {
                    ColStatus::AtLower if d < -PRICE_EPS => 1.0,
                    ColStatus::AtUpper if d > PRICE_EPS => -1.0,
                    _ => continue,
                };
                if use_bland {
                    entering = Some((j, d.abs(), sigma));
                    break;
                }
                match entering {
                    Some((_, best, _)) if d.abs() <= best => {}
                    _ => entering = Some((j, d.abs(), sigma)),
                }
            }
            let Some((j, _, sigma)) = entering else {
                // Optimal: compute objective.
                let obj = self
                    .values()
                    .iter()
                    .zip(costs)
                    .map(|(x, c)| x * c)
                    .sum::<f64>();
                return Ok(obj);
            };
            *iters += 1;

            // Ratio test: how far can x_j move (by t ≥ 0 in direction sigma)?
            let own_limit = self.upper[j] - self.lower[j]; // bound flip distance
            let mut t_max = own_limit;
            let mut leaving: Option<(usize, ColStatus)> = None; // (row, bound hit)
            for i in 0..self.m {
                let a = sigma * self.tab[i][j];
                if a > PIVOT_EPS {
                    // Basic value decreases toward its lower bound.
                    let room = self.xb[i] - self.lower[self.basis[i]];
                    let t = room.max(0.0) / a;
                    if t < t_max {
                        t_max = t;
                        leaving = Some((i, ColStatus::AtLower));
                    }
                } else if a < -PIVOT_EPS {
                    // Basic value increases toward its upper bound.
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() {
                        let room = ub - self.xb[i];
                        let t = room.max(0.0) / (-a);
                        if t < t_max {
                            t_max = t;
                            leaving = Some((i, ColStatus::AtUpper));
                        }
                    }
                }
            }
            if t_max.is_infinite() {
                return Err(LpStatus::Unbounded);
            }
            if t_max <= FEAS_EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            // Apply the move to basic values.
            for i in 0..self.m {
                self.xb[i] -= sigma * t_max * self.tab[i][j];
            }
            match leaving {
                None => {
                    // Bound flip: j moves to its opposite bound.
                    self.status[j] = match self.status[j] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        ColStatus::Basic => unreachable!("entering var was nonbasic"),
                    };
                }
                Some((row, bound_hit)) => {
                    let start = match self.status[j] {
                        ColStatus::AtLower => self.lower[j],
                        ColStatus::AtUpper => self.upper[j],
                        ColStatus::Basic => unreachable!("entering var was nonbasic"),
                    };
                    let new_value = start + sigma * t_max;
                    let leaving_col = self.basis[row];
                    self.status[leaving_col] = bound_hit;
                    // Snap the leaving variable exactly onto its bound.
                    self.basis[row] = j;
                    self.status[j] = ColStatus::Basic;
                    self.xb[row] = new_value;
                    self.pivot(row, j);
                }
            }
        }
        Err(LpStatus::IterationLimit)
    }

    /// Bounded-variable dual simplex: drives out basic variables that
    /// violate their bounds, starting from a (near) dual-feasible basis —
    /// exactly the state a parent node's optimal basis is in after
    /// branch-and-bound tightens one variable's bounds.
    ///
    /// Returns `Ok(())` once every basic variable is within bounds.
    /// `Err(Infeasible)` is a sound infeasibility certificate: the
    /// violated row admits no further movement within the remaining
    /// columns' bounds.
    fn dual_restore(
        &mut self,
        costs: &[f64],
        max_iters: u64,
        iters: &mut u64,
        price: Pricing,
    ) -> Result<(), LpStatus> {
        let mut reduced = Vec::with_capacity(self.ncols);
        for _ in 0..max_iters {
            // Leaving row: the worst bound violation among basic vars.
            let mut leave: Option<(usize, f64, f64)> = None; // (row, signed delta, violation)
            for i in 0..self.m {
                let b = self.basis[i];
                let above = self.xb[i] - self.upper[b];
                let below = self.lower[b] - self.xb[i];
                let viol = above.max(below);
                if viol > FEAS_EPS {
                    // delta = xb − violated bound (positive above, negative below).
                    let delta = if above >= below { above } else { -below };
                    match leave {
                        Some((_, _, best)) if best >= viol => {}
                        _ => leave = Some((i, delta, viol)),
                    }
                }
            }
            let Some((r, delta, _)) = leave else {
                return Ok(()); // primal feasible
            };
            let case_above = delta > 0.0;

            // Entering column: minimizes |reduced cost / pivot| among the
            // columns whose admissible movement reduces the violation
            // (keeps the basis dual feasible); ties prefer a larger
            // pivot magnitude for numerical stability.
            price(self, costs, &mut reduced);
            let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..self.ncols {
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                if self.upper[j] - self.lower[j] < PIVOT_EPS {
                    continue; // fixed column cannot move
                }
                let a = self.tab[r][j];
                let eligible = if case_above {
                    (self.status[j] == ColStatus::AtLower && a > PIVOT_EPS)
                        || (self.status[j] == ColStatus::AtUpper && a < -PIVOT_EPS)
                } else {
                    (self.status[j] == ColStatus::AtLower && a < -PIVOT_EPS)
                        || (self.status[j] == ColStatus::AtUpper && a > PIVOT_EPS)
                };
                if !eligible {
                    continue;
                }
                let ratio = (reduced[j] / a).abs();
                let better = match enter {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - 1e-12 || (ratio <= br + 1e-12 && a.abs() > ba)
                    }
                };
                if better {
                    enter = Some((j, ratio, a.abs()));
                }
            }
            let Some((j, _, _)) = enter else {
                return Err(LpStatus::Infeasible);
            };
            *iters += 1;

            // Pivot: the entering variable moves by exactly enough to put
            // the leaving variable on its violated bound.
            let step = delta / self.tab[r][j];
            let start = match self.status[j] {
                ColStatus::AtLower => self.lower[j],
                ColStatus::AtUpper => self.upper[j],
                ColStatus::Basic => unreachable!("entering var was nonbasic"),
            };
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= self.tab[i][j] * step;
                }
            }
            let leaving_col = self.basis[r];
            self.status[leaving_col] = if case_above {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
            self.basis[r] = j;
            self.status[j] = ColStatus::Basic;
            self.xb[r] = start + step;
            self.pivot(r, j);
        }
        Err(LpStatus::IterationLimit)
    }

    /// Row-wise pricing: `d = c`, then for each basis row `i` in
    /// ascending order with `c_B[i] ≠ 0`, `d -= c_B[i]·tab[i]`. Every
    /// column sees the same operations in the same order as a per-column
    /// dot product over the rows, so the values are bit-identical to
    /// it; the contiguous inner loop vectorizes.
    fn reduced_costs(&self, costs: &[f64], d: &mut Vec<f64>) {
        d.clear();
        d.extend_from_slice(&costs[..self.ncols]);
        for (row, &b) in self.tab.iter().zip(&self.basis) {
            let cb = costs[b];
            if cb != 0.0 {
                for (dj, &a) in d.iter_mut().zip(row) {
                    *dj -= cb * a;
                }
            }
        }
    }

    /// Gauss–Jordan pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.tab[row][col];
        debug_assert!(p.abs() > PIVOT_EPS, "pivot on ~zero element");
        let inv = 1.0 / p;
        for v in &mut self.tab[row] {
            *v *= inv;
        }
        let pivot_row = self.tab[row].clone();
        for (i, r) in self.tab.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let f = r[col];
            if f != 0.0 {
                for (v, pv) in r.iter_mut().zip(&pivot_row) {
                    *v -= f * pv;
                }
                r[col] = 0.0; // kill residual rounding
            }
        }
    }
}

/// A reusable snapshot of a solved simplex state: which columns were
/// basic and where every nonbasic column rested. Together with the
/// (layout-stable) [`LpProblem`] it was taken from, this is enough to
/// refactor `B⁻¹A` from scratch and resume optimization after a bound
/// change — the warm-start handoff between branch-and-bound nodes.
///
/// Open branch-and-bound nodes hold their parent's snapshot, so it is
/// packed: `u32` basis columns and one byte per column status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Basis columns (tableau column indices, artificials included).
    basis: Box<[u32]>,
    /// Per-column rest status, `ncols` entries.
    status: Box<[ColStatus]>,
}

impl BasisSnapshot {
    /// Captures the basis and statuses of a solved tableau.
    ///
    /// # Panics
    ///
    /// Panics on a column index past `u32::MAX`; a dense tableau that
    /// wide could not have been allocated.
    fn of(tableau: &Tableau) -> BasisSnapshot {
        BasisSnapshot {
            basis: tableau
                .basis
                .iter()
                .map(|&c| u32::try_from(c).expect("tableau column index fits in u32"))
                .collect(),
            status: tableau.status.as_slice().into(),
        }
    }

    /// The basis columns as tableau column indices.
    fn columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.basis.iter().map(|&c| c as usize)
    }
}

/// Solves a standard-form LP (minimize). Returns column values for the
/// problem's columns (structural + slack), artificials excluded.
pub fn solve(problem: &LpProblem) -> LpSolution {
    let mut iters = 0;
    solve_two_phase(problem, &problem.lower, &problem.upper, &mut iters, false).0
}

/// Cold two-phase solve under explicit column bounds (`col_lower` /
/// `col_upper` cover structural + slack columns; artificials are
/// appended internally). The pivot sequence is exactly the seed
/// algorithm's — `iters` counting and basis capture are observational.
fn solve_two_phase(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    iters: &mut u64,
    want_basis: bool,
) -> (LpSolution, Option<BasisSnapshot>) {
    let m = problem.row_count();
    let n = problem.col_count();
    let ncols = n + m; // + artificials
    let max_iters = 200 * (m as u64 + ncols as u64) + 20_000;

    // Nonbasic start: every column at the bound of smaller magnitude
    // (lower, unless upper is finite and |upper| < |lower|).
    let mut status = vec![ColStatus::AtLower; ncols];
    for j in 0..n {
        if col_upper[j].is_finite() && col_upper[j].abs() < col_lower[j].abs() {
            status[j] = ColStatus::AtUpper;
        }
    }
    let start_value = |j: usize| -> f64 {
        match status[j] {
            ColStatus::AtLower => col_lower[j],
            ColStatus::AtUpper => col_upper[j],
            ColStatus::Basic => 0.0,
        }
    };

    // Dense rows and residuals r = b − A·x_start.
    let mut dense = vec![vec![0.0_f64; ncols]; m];
    let mut resid = problem.rhs.clone();
    for (i, row) in problem.rows.iter().enumerate() {
        for &(j, a) in row {
            dense[i][j] = a;
            resid[i] -= a * start_value(j);
        }
    }
    // Rows with a negative residual are negated (multiplying an equality
    // by −1 is harmless) so every artificial can enter with coefficient
    // +1 and the initial basis is exactly the identity.
    let mut lower = col_lower.to_vec();
    let mut upper = col_upper.to_vec();
    let mut basis = Vec::with_capacity(m);
    let mut xb = Vec::with_capacity(m);
    for i in 0..m {
        if resid[i] < 0.0 {
            for v in &mut dense[i] {
                *v = -*v;
            }
            resid[i] = -resid[i];
        }
        let col = n + i;
        dense[i][col] = 1.0;
        lower.push(0.0);
        upper.push(f64::INFINITY);
        status[col] = ColStatus::Basic;
        basis.push(col);
        xb.push(resid[i]);
    }

    let mut tableau = Tableau {
        tab: dense,
        xb,
        basis,
        status,
        lower,
        upper,
        m,
        ncols,
    };

    // Phase 1: minimize the sum of artificials.
    let mut phase1_costs = vec![0.0; ncols];
    for c in phase1_costs.iter_mut().skip(n) {
        *c = 1.0;
    }
    match tableau.optimize(&phase1_costs, max_iters, iters, Tableau::reduced_costs) {
        Ok(w) => {
            if w > FEAS_EPS * (1.0 + problem.rhs.iter().map(|r| r.abs()).sum::<f64>()) {
                return (
                    LpSolution {
                        status: LpStatus::Infeasible,
                        objective: 0.0,
                        values: Vec::new(),
                    },
                    None,
                );
            }
        }
        Err(LpStatus::Unbounded) => unreachable!("phase 1 objective is bounded below"),
        Err(s) => {
            return (
                LpSolution {
                    status: s,
                    objective: 0.0,
                    values: Vec::new(),
                },
                None,
            )
        }
    }
    // Fix artificials at zero for phase 2 (basic-at-zero artificials may
    // remain; being fixed, they can never carry value again).
    for j in n..ncols {
        tableau.lower[j] = 0.0;
        tableau.upper[j] = 0.0;
        if tableau.status[j] != ColStatus::Basic {
            tableau.status[j] = ColStatus::AtLower;
        }
    }

    // Phase 2: the real objective.
    let mut phase2_costs = vec![0.0; ncols];
    phase2_costs[..n].copy_from_slice(&problem.costs);
    match tableau.optimize(&phase2_costs, max_iters, iters, Tableau::reduced_costs) {
        Ok(obj) => {
            let mut values = tableau.values();
            values.truncate(n);
            let snapshot = want_basis.then(|| BasisSnapshot::of(&tableau));
            (
                LpSolution {
                    status: LpStatus::Optimal,
                    objective: obj + problem.objective_offset,
                    values,
                },
                snapshot,
            )
        }
        Err(s) => (
            LpSolution {
                status: s,
                objective: 0.0,
                values: Vec::new(),
            },
            None,
        ),
    }
}

/// Rebuilds a [`Tableau`] of `width` columns from a basis snapshot under
/// new column bounds: refactors `B⁻¹A` by Gauss–Jordan, assigning each
/// snapshot basis column the remaining row with the largest pivot.
/// Returns `None` when the snapshot does not fit this problem or the
/// basis is numerically singular — callers fall back to a cold solve.
///
/// `width` is `n` (structural + slack columns) or `n + m` (artificials
/// too); status and bounds always cover all `n + m` columns. Row
/// scaling from the cold path's sign flips is immaterial: `B⁻¹A` is
/// invariant under row scaling of `[A | b]`, so artificial columns are
/// laid down as `+eᵢ` unconditionally here.
fn warm_tableau(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    snap: &BasisSnapshot,
    width: usize,
) -> Option<Tableau> {
    let m = problem.row_count();
    let n = problem.col_count();
    let ncols = n + m;
    if snap.basis.len() != m || snap.status.len() != ncols {
        return None;
    }

    let mut dense = vec![vec![0.0_f64; width]; m];
    for (i, row) in problem.rows.iter().enumerate() {
        for &(j, a) in row {
            dense[i][j] = a;
        }
        if width > n {
            dense[i][n + i] = 1.0;
        }
    }
    let mut rhs = problem.rhs.clone();

    // Factor the basis: give each basis column a pivot row (largest
    // remaining magnitude), eliminating it from all other rows and the
    // transformed RHS.
    let mut assigned = vec![false; m];
    let mut row_of = vec![usize::MAX; m];
    for (k, c) in snap.columns().enumerate() {
        if c >= width {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (r, &used) in assigned.iter().enumerate() {
            if used {
                continue;
            }
            let a = dense[r][c].abs();
            if best.map_or(true, |(_, ba)| a > ba) {
                best = Some((r, a));
            }
        }
        let (r, mag) = best?;
        if mag <= 1e-8 {
            return None; // singular basis: cold fallback
        }
        let inv = 1.0 / dense[r][c];
        for v in &mut dense[r] {
            *v *= inv;
        }
        rhs[r] *= inv;
        let prow = dense[r].clone();
        let prhs = rhs[r];
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = dense[i][c];
            if f != 0.0 {
                for (v, pv) in dense[i].iter_mut().zip(&prow) {
                    *v -= f * pv;
                }
                dense[i][c] = 0.0;
                rhs[i] -= f * prhs;
            }
        }
        assigned[r] = true;
        row_of[k] = r;
    }

    // Column bounds in tableau layout; artificials stay pinned at zero
    // (they were fixed after phase 1 of the solve the snapshot came from).
    let mut lower = col_lower.to_vec();
    let mut upper = col_upper.to_vec();
    lower.resize(ncols, 0.0);
    upper.resize(ncols, 0.0);

    // Statuses: basis membership wins; other columns keep their snapshot
    // rest bound, re-read against the *new* bounds — that re-read is the
    // entire warm start. Inconsistent snapshot rows degrade gracefully.
    let mut in_basis = vec![false; ncols];
    let mut basis = vec![0usize; m];
    for (k, c) in snap.columns().enumerate() {
        in_basis[c] = true;
        basis[row_of[k]] = c;
    }
    let mut status = Vec::with_capacity(ncols);
    for j in 0..ncols {
        let s = if in_basis[j] {
            ColStatus::Basic
        } else {
            match snap.status[j] {
                ColStatus::AtUpper if upper[j].is_finite() => ColStatus::AtUpper,
                _ => ColStatus::AtLower,
            }
        };
        status.push(s);
    }

    // Basic values: xb = B⁻¹b − Σ (B⁻¹A)ⱼ·xⱼ over nonbasic columns
    // (columns past `width` rest at zero and add nothing).
    let mut xb = rhs;
    for j in 0..width {
        let v = match status[j] {
            ColStatus::Basic => continue,
            ColStatus::AtLower => lower[j],
            ColStatus::AtUpper => upper[j],
        };
        if v != 0.0 {
            for i in 0..m {
                let a = dense[i][j];
                if a != 0.0 {
                    xb[i] -= a * v;
                }
            }
        }
    }

    Some(Tableau {
        tab: dense,
        xb,
        basis,
        status,
        lower,
        upper,
        m,
        ncols: width,
    })
}

/// Warm solve: rebuilds the parent basis under new bounds, restores
/// primal feasibility with the dual simplex, then polishes with the
/// primal simplex. `None` means "fall back to a cold solve" (singular
/// rebuild or iteration trouble); `Some` carries a definitive answer —
/// including a sound `Infeasible` from the dual ratio test.
///
/// The tableau leaves the artificial columns out unless the snapshot
/// keeps one basic. Warm solves pin artificials at [0, 0], so pricing
/// skips them as fixed and the `xb` sum skips their zero rest value:
/// no entry of a nonbasic artificial column is ever read. Gauss–Jordan
/// row operations act on each column independently, so dropping those
/// columns leaves every other entry, and so every answer, pivot and
/// snapshot, bit-identical.
fn solve_warm(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    snap: &BasisSnapshot,
    iters: &mut u64,
) -> Option<(LpSolution, Option<BasisSnapshot>)> {
    let n = problem.col_count();
    let width = if snap.columns().any(|c| c >= n) {
        n + problem.row_count()
    } else {
        n
    };
    let tableau = warm_tableau(problem, col_lower, col_upper, snap, width)?;
    resume_warm(problem, tableau, iters, Tableau::reduced_costs)
}

/// The dual-restore and primal-polish half of [`solve_warm`], from a
/// refactored tableau.
fn resume_warm(
    problem: &LpProblem,
    mut tableau: Tableau,
    iters: &mut u64,
    price: Pricing,
) -> Option<(LpSolution, Option<BasisSnapshot>)> {
    let m = problem.row_count();
    let n = problem.col_count();
    let ncols = n + m;

    // Costs cover all `n + m` columns, whatever the tableau width, so the
    // objective sums the same terms as a full-width solve.
    let mut phase2_costs = vec![0.0; ncols];
    phase2_costs[..n].copy_from_slice(&problem.costs);

    // Dual repair should take a handful of pivots; a long fight means the
    // parent basis was a bad start, and a cold solve is the better spend.
    let dual_cap = 100 * m as u64 + 1_000;
    match tableau.dual_restore(&phase2_costs, dual_cap, iters, price) {
        Ok(()) => {}
        Err(LpStatus::Infeasible) => {
            return Some((
                LpSolution {
                    status: LpStatus::Infeasible,
                    objective: 0.0,
                    values: Vec::new(),
                },
                None,
            ))
        }
        Err(_) => return None,
    }

    // The cap counts the problem's `n + m` columns, not the tableau
    // width, so a narrow tableau keeps the cold path's iteration limit.
    let max_iters = 200 * (m as u64 + ncols as u64) + 20_000;
    match tableau.optimize(&phase2_costs, max_iters, iters, price) {
        Ok(obj) => {
            let mut values = tableau.values();
            values.truncate(n);
            let next = BasisSnapshot::of(&tableau);
            Some((
                LpSolution {
                    status: LpStatus::Optimal,
                    objective: obj + problem.objective_offset,
                    values,
                },
                Some(next),
            ))
        }
        Err(_) => None,
    }
}

/// Convenience: solve the LP relaxation of a model under bound overrides,
/// returning structural-variable values and the objective in the model's
/// own sense. Always a cold two-phase solve over the eliminating
/// [`LpProblem::from_model`] layout: the reference the warm path
/// ([`WarmContext::solve_relaxation`]) is tested against.
///
/// # Errors
///
/// Maps non-optimal statuses onto [`MilpError`].
pub fn solve_relaxation(model: &Model, bounds: &[(f64, f64)]) -> Result<(f64, Vec<f64>), MilpError> {
    let problem = LpProblem::from_model(model, bounds);
    let (sol, _) = solve_two_phase(&problem, &problem.lower, &problem.upper, &mut 0, false);
    match sol.status {
        LpStatus::Optimal => {
            let sign = match model.sense() {
                Sense::Minimize => 1.0,
                Sense::Maximize => -1.0,
            };
            // Reassemble model-space values from live columns and
            // eliminated constants.
            let mut values: Vec<f64> = problem
                .var_map
                .iter()
                .map(|r| match *r {
                    ColRef::Col(i) => sol.values[i],
                    ColRef::Fixed(v) => v,
                })
                .collect();
            // Snap integers that are within tolerance of a bound.
            for (v, x) in model.vars.iter().zip(values.iter_mut()) {
                if v.kind == VarKind::Integer {
                    let r = x.round();
                    if (*x - r).abs() < 1e-7 {
                        *x = r;
                    }
                }
            }
            Ok((sign * sol.objective, values))
        }
        LpStatus::Infeasible => Err(MilpError::Infeasible),
        LpStatus::Unbounded => Err(MilpError::Unbounded),
        LpStatus::IterationLimit => Err(MilpError::IterationLimit),
    }
}

/// Outcome of one relaxation solve under a [`WarmContext`].
#[derive(Debug, Clone)]
pub struct RelaxSolve {
    /// Objective in the model's own sense.
    pub objective: f64,
    /// Model-space variable values (integers snapped when within 1e-7).
    pub values: Vec<f64>,
    /// Basis to warm-start child nodes from.
    pub basis: BasisSnapshot,
    /// Simplex pivots spent on this solve (dual + primal).
    pub iterations: u64,
    /// Whether the warm path produced the answer (`false`: cold solve,
    /// either by request or after a warm-path fallback).
    pub warmed: bool,
}

/// A model's relaxation with a *bound-independent* column layout, built
/// once per branch-and-bound run. Unlike [`LpProblem::from_model`], no
/// variable is ever eliminated, so the same [`BasisSnapshot`] indexes
/// stay valid across nodes — only `lower`/`upper` change. This is the
/// warm-start engine room: a child node re-solves from its parent's
/// basis via the dual simplex instead of two cold phases.
#[derive(Debug, Clone)]
pub struct WarmContext {
    problem: LpProblem,
    /// +1 for minimize models, −1 for maximize (internal form minimizes).
    sign: f64,
    /// Model variable count (== structural column count).
    nvars: usize,
    /// Model variables of integer kind (for value snapping).
    int_vars: Vec<usize>,
}

impl WarmContext {
    /// Builds the dense relaxation context from the model's own bounds.
    pub fn new(model: &Model) -> WarmContext {
        let root: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let problem = LpProblem::from_model_dense(model, &root);
        let sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let int_vars = model
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(i, _)| i)
            .collect();
        WarmContext {
            problem,
            sign,
            nvars: model.var_count(),
            int_vars,
        }
    }

    /// Solves the relaxation under `bounds`, warm-starting from `basis`
    /// when given (falling back to a cold solve on numerical failure —
    /// correctness never depends on the warm path).
    ///
    /// # Errors
    ///
    /// Maps non-optimal LP statuses onto [`MilpError`].
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len()` differs from the model's variable count.
    pub fn solve_relaxation(
        &self,
        bounds: &[(f64, f64)],
        basis: Option<&BasisSnapshot>,
    ) -> Result<RelaxSolve, MilpError> {
        assert_eq!(bounds.len(), self.nvars, "bounds length mismatch");
        // Structural columns map 1:1 onto model variables (dense layout);
        // intersect node bounds with model bounds defensively, then keep
        // slack bounds as built.
        let mut col_lower = self.problem.lower.clone();
        let mut col_upper = self.problem.upper.clone();
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            col_lower[i] = lo.max(self.problem.lower[i]);
            col_upper[i] = hi.min(self.problem.upper[i]);
        }

        let mut iters = 0;
        let mut warmed = false;
        let outcome = basis
            .and_then(|snap| {
                let out = solve_warm(&self.problem, &col_lower, &col_upper, snap, &mut iters);
                warmed = out.is_some();
                out
            })
            .unwrap_or_else(|| {
                let (sol, snap) =
                    solve_two_phase(&self.problem, &col_lower, &col_upper, &mut iters, true);
                (sol, snap)
            });
        let (sol, snapshot) = outcome;

        match sol.status {
            LpStatus::Optimal => {
                let mut values = sol.values;
                values.truncate(self.nvars);
                for &j in &self.int_vars {
                    let r = values[j].round();
                    if (values[j] - r).abs() < 1e-7 {
                        values[j] = r;
                    }
                }
                Ok(RelaxSolve {
                    objective: self.sign * sol.objective,
                    values,
                    basis: snapshot.expect("optimal solve returns a basis"),
                    iterations: iters,
                    warmed,
                })
            }
            LpStatus::Infeasible => Err(MilpError::Infeasible),
            LpStatus::Unbounded => Err(MilpError::Unbounded),
            LpStatus::IterationLimit => Err(MilpError::IterationLimit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation, Sense};
    use proptest::prelude::*;

    fn model_bounds(m: &Model) -> Vec<(f64, f64)> {
        m.vars.iter().map(|v| (v.lower, v.upper)).collect()
    }

    #[test]
    fn basic_two_var_lp() {
        // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 10.
        // Optimum at (4, 0): objective 12.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 10.0, 3.0).unwrap();
        let y = m.add_continuous("y", 0.0, 10.0, 2.0).unwrap();
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], Relation::Le, 6.0)
            .unwrap();
        let (obj, vals) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        assert!((obj - 12.0).abs() < 1e-6, "objective {obj}");
        assert!((vals[0] - 4.0).abs() < 1e-6);
        assert!(vals[1].abs() < 1e-6);
    }

    #[test]
    fn interior_optimum_lp() {
        // maximize x + y s.t. 2x + y <= 10, x + 3y <= 15 -> (3, 4), obj 7.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 100.0, 1.0).unwrap();
        let y = m.add_continuous("y", 0.0, 100.0, 1.0).unwrap();
        m.add_constraint("c1", vec![(x, 2.0), (y, 1.0)], Relation::Le, 10.0)
            .unwrap();
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], Relation::Le, 15.0)
            .unwrap();
        let (obj, vals) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        assert!((obj - 7.0).abs() < 1e-6);
        assert!((vals[0] - 3.0).abs() < 1e-6);
        assert!((vals[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn minimize_with_ge_constraints() {
        // minimize 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> (7, 3): 23.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 2.0, 100.0, 2.0).unwrap();
        let y = m.add_continuous("y", 3.0, 100.0, 3.0).unwrap();
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        let (obj, vals) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        assert!((obj - 23.0).abs() < 1e-6, "objective {obj}");
        assert!((vals[0] - 7.0).abs() < 1e-6);
        assert!((vals[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + 2y = 8, x - y = 2 -> (4, 2): 6.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", -100.0, 100.0, 1.0).unwrap();
        let y = m.add_continuous("y", -100.0, 100.0, 1.0).unwrap();
        m.add_constraint("c1", vec![(x, 1.0), (y, 2.0)], Relation::Eq, 8.0)
            .unwrap();
        m.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], Relation::Eq, 2.0)
            .unwrap();
        let (obj, vals) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        assert!((obj - 6.0).abs() < 1e-6);
        assert!((vals[0] - 4.0).abs() < 1e-6);
        assert!((vals[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0, 1.0).unwrap();
        m.add_constraint("c", vec![(x, 1.0)], Relation::Ge, 5.0)
            .unwrap();
        assert_eq!(
            solve_relaxation(&m, &model_bounds(&m)),
            Err(MilpError::Infeasible)
        );
    }

    #[test]
    fn variable_bounds_bind_without_constraints() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_continuous("x", -1.5, 2.5, 1.0).unwrap();
        let (obj, vals) = solve_relaxation(&m, &[(-1.5, 2.5)]).unwrap();
        assert!((obj - 2.5).abs() < 1e-9);
        assert!((vals[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // minimize x with x in [-5, 5], x + y >= -3, y in [0, 1].
        // x can go to -3 - y; with y = 1, x = -4.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", -5.0, 5.0, 1.0).unwrap();
        let y = m.add_continuous("y", 0.0, 1.0, 0.0).unwrap();
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Relation::Ge, -3.0)
            .unwrap();
        let (obj, _) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        assert!((obj - (-4.0)).abs() < 1e-6, "objective {obj}");
    }

    #[test]
    fn bound_overrides_tighten() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_continuous("x", 0.0, 10.0, 1.0).unwrap();
        let (obj, _) = solve_relaxation(&m, &[(0.0, 4.0)]).unwrap();
        assert!((obj - 4.0).abs() < 1e-9);
        // Fixing via overrides.
        let (obj, vals) = solve_relaxation(&m, &[(2.0, 2.0)]).unwrap();
        assert!((obj - 2.0).abs() < 1e-9);
        assert!((vals[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 10.0, 1.0).unwrap();
        let y = m.add_continuous("y", 0.0, 10.0, 1.0).unwrap();
        for k in 1..=10 {
            m.add_constraint(
                format!("c{k}"),
                vec![(x, k as f64), (y, k as f64)],
                Relation::Le,
                4.0 * k as f64,
            )
            .unwrap();
        }
        let (obj, _) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        assert!((obj - 4.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_relaxation_of_knapsack() {
        // Binary knapsack relaxation: values 6, 10, 12; weights 1, 2, 3;
        // cap 4 -> LP takes items 2 and 3rd fractionally.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 6.0);
        let b = m.add_binary("b", 10.0);
        let c = m.add_binary("c", 12.0);
        m.add_constraint("cap", vec![(a, 1.0), (b, 2.0), (c, 3.0)], Relation::Le, 4.0)
            .unwrap();
        let (obj, vals) = solve_relaxation(&m, &model_bounds(&m)).unwrap();
        // LP optimum: a=1, b=1, c=1/3 -> 6 + 10 + 4 = 20.
        assert!((obj - 20.0).abs() < 1e-6, "objective {obj}");
        assert!((vals[2] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_model_solves() {
        let m = Model::new(Sense::Maximize);
        let (obj, vals) = solve_relaxation(&m, &[]).unwrap();
        assert_eq!(obj, 0.0);
        assert!(vals.is_empty());
    }

    /// A small knapsack-shaped maximize model for warm-start tests.
    fn warm_test_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 6.0);
        let b = m.add_binary("b", 10.0);
        let c = m.add_binary("c", 12.0);
        let x = m.add_continuous("x", 0.0, 2.0, 1.0).unwrap();
        m.add_constraint(
            "cap",
            vec![(a, 1.0), (b, 2.0), (c, 3.0), (x, 1.0)],
            Relation::Le,
            4.0,
        )
        .unwrap();
        m.add_constraint("mix", vec![(a, 1.0), (x, 1.0)], Relation::Le, 2.5)
            .unwrap();
        m
    }

    #[test]
    fn warm_solve_matches_cold_after_tightening() {
        let m = warm_test_model();
        let ctx = WarmContext::new(&m);
        let root = model_bounds(&m);
        let parent = ctx.solve_relaxation(&root, None).unwrap();
        assert!(!parent.warmed);

        // Branch on every binary in both directions; warm objective must
        // equal the cold objective at each child.
        for j in 0..3 {
            for fixed in [0.0, 1.0] {
                let mut child = root.clone();
                child[j] = (fixed, fixed);
                let warm = ctx.solve_relaxation(&child, Some(&parent.basis)).unwrap();
                let (cold_obj, _) = solve_relaxation(&m, &child).unwrap();
                assert!(
                    (warm.objective - cold_obj).abs() < 1e-6,
                    "var {j} fixed {fixed}: warm {} vs cold {cold_obj}",
                    warm.objective
                );
            }
        }
    }

    #[test]
    fn warm_solve_detects_infeasible_child() {
        // x + y = 1 with both fixed to 0 is infeasible.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 2.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let ctx = WarmContext::new(&m);
        let root = model_bounds(&m);
        let parent = ctx.solve_relaxation(&root, None).unwrap();
        let child = vec![(0.0, 0.0), (0.0, 0.0)];
        assert_eq!(
            ctx.solve_relaxation(&child, Some(&parent.basis)).map(|_| ()),
            Err(MilpError::Infeasible)
        );
    }

    #[test]
    fn warm_chain_stays_consistent() {
        // Fix binaries one at a time, warm-starting each child from its
        // parent — the realistic branch-and-bound dive pattern.
        let m = warm_test_model();
        let ctx = WarmContext::new(&m);
        let mut bounds = model_bounds(&m);
        let mut relax = ctx.solve_relaxation(&bounds, None).unwrap();
        for (j, fixed) in [(2usize, 1.0), (1usize, 0.0), (0usize, 1.0)] {
            bounds[j] = (fixed, fixed);
            relax = match ctx.solve_relaxation(&bounds, Some(&relax.basis)) {
                Ok(r) => r,
                Err(e) => panic!("chain step ({j}, {fixed}) failed: {e}"),
            };
            let (cold_obj, _) = solve_relaxation(&m, &bounds).unwrap();
            assert!(
                (relax.objective - cold_obj).abs() < 1e-6,
                "step ({j}, {fixed}): warm {} vs cold {cold_obj}",
                relax.objective
            );
        }
    }

    #[test]
    fn warm_solve_cheaper_than_cold_on_bigger_lp() {
        // A 40-binary knapsack with side constraints: warm re-solve after
        // one branching change should need far fewer pivots than cold.
        let n = 40usize;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), ((i * 31 + 7) % 23 + 1) as f64))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i * 17 + 3) % 9 + 1) as f64)),
            Relation::Le,
            55.0,
        )
        .unwrap();
        for k in 0..4 {
            m.add_constraint(
                format!("side{k}"),
                vars.iter()
                    .enumerate()
                    .filter(|(i, _)| (i + k) % 3 == 0)
                    .map(|(_, &v)| (v, 1.0)),
                Relation::Le,
                7.0,
            )
            .unwrap();
        }
        let ctx = WarmContext::new(&m);
        let root: Vec<(f64, f64)> = m.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let parent = ctx.solve_relaxation(&root, None).unwrap();

        let mut child = root.clone();
        child[n / 2] = (1.0, 1.0);
        let warm = ctx.solve_relaxation(&child, Some(&parent.basis)).unwrap();
        let cold = ctx.solve_relaxation(&child, None).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.warmed);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} pivots vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    /// Reference pricing for [`Tableau::reduced_costs`]: one strided dot
    /// product per column, the form the row-wise loop replaced.
    fn colwise_reduced_costs(t: &Tableau, costs: &[f64], d: &mut Vec<f64>) {
        let cb: Vec<f64> = t.basis.iter().map(|&b| costs[b]).collect();
        d.clear();
        d.extend((0..t.ncols).map(|j| {
            let mut dj = costs[j];
            for (row, &c) in t.tab.iter().zip(&cb) {
                if c != 0.0 {
                    dj -= c * row[j];
                }
            }
            dj
        }));
    }

    type WarmOutcome = Option<(LpSolution, Option<BasisSnapshot>)>;

    /// Reference warm solve: a full-width tableau, artificial columns
    /// included, priced column by column. [`solve_warm`] must match it
    /// bit for bit.
    fn solve_warm_reference(
        problem: &LpProblem,
        col_lower: &[f64],
        col_upper: &[f64],
        snap: &BasisSnapshot,
        iters: &mut u64,
    ) -> WarmOutcome {
        let width = problem.col_count() + problem.row_count();
        let tableau = warm_tableau(problem, col_lower, col_upper, snap, width)?;
        resume_warm(problem, tableau, iters, colwise_reduced_costs)
    }

    /// An outcome with its floats as bit patterns, for exact comparison.
    fn outcome_bits(out: &WarmOutcome) -> Option<(LpStatus, u64, Vec<u64>, Option<BasisSnapshot>)> {
        out.as_ref().map(|(sol, snap)| {
            (
                sol.status,
                sol.objective.to_bits(),
                sol.values.iter().map(|v| v.to_bits()).collect(),
                snap.clone(),
            )
        })
    }

    /// Runs a branch-and-bound-style chain of warm re-solves through the
    /// fast path and the reference side by side. Each step tightens one
    /// integer column's bound around the previous solve's value (`up`
    /// raises the lower bound, otherwise the upper bound drops) and
    /// re-solves from the previous basis. Fails unless every step agrees
    /// bit for bit: objective, values, snapshot and pivot count. Returns
    /// the snapshot each compared step started from.
    fn check_warm_chain(
        problem: &LpProblem,
        int_cols: &[usize],
        chain: &[(usize, bool)],
    ) -> Result<Vec<BasisSnapshot>, String> {
        let mut lower = problem.lower.clone();
        let mut upper = problem.upper.clone();
        let (root, root_snap) = solve_two_phase(problem, &lower, &upper, &mut 0, true);
        let Some(mut snap) = root_snap else {
            return Err(format!("root solve ended {:?}", root.status));
        };
        let mut values = root.values;
        let mut starts = Vec::new();
        let full = problem.col_count() + problem.row_count();
        for (step, &(pick, up)) in chain.iter().enumerate() {
            let j = int_cols[pick % int_cols.len()];
            if up {
                lower[j] = values[j].ceil().max(lower[j] + 1.0).min(upper[j]);
            } else {
                upper[j] = values[j].floor().min(upper[j] - 1.0).max(lower[j]);
            }
            // Pricing alone, on the full-width tableau this step starts from.
            if let Some(t) = warm_tableau(problem, &lower, &upper, &snap, full) {
                let mut costs = problem.costs.clone();
                costs.resize(full, 0.0);
                let (mut by_row, mut by_col) = (Vec::new(), Vec::new());
                t.reduced_costs(&costs, &mut by_row);
                colwise_reduced_costs(&t, &costs, &mut by_col);
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if bits(&by_row) != bits(&by_col) {
                    return Err(format!(
                        "step {step}: row-wise {by_row:?} vs column-wise {by_col:?}"
                    ));
                }
            }
            let (mut fast_iters, mut ref_iters) = (0, 0);
            let fast = solve_warm(problem, &lower, &upper, &snap, &mut fast_iters);
            let reference = solve_warm_reference(problem, &lower, &upper, &snap, &mut ref_iters);
            if fast_iters != ref_iters || outcome_bits(&fast) != outcome_bits(&reference) {
                return Err(format!(
                    "step {step} (column {j}): fast {fast:?} in {fast_iters} pivots, \
                     reference {reference:?} in {ref_iters} pivots"
                ));
            }
            starts.push(snap);
            match fast {
                Some((sol, Some(next))) => {
                    snap = next;
                    values = sol.values;
                }
                _ => break, // infeasible child or cold fallback: the dive ends
            }
        }
        Ok(starts)
    }

    /// Random mixed-integer maximize models of the same shape as
    /// `arb_mip` in `tests/properties.rs`, with their integer columns.
    fn arb_mip() -> impl Strategy<Value = (Model, Vec<usize>)> {
        // (is_integer, objective, upper bound)
        let var = (proptest::bool::ANY, 0.1f64..10.0, 1.0f64..4.0);
        let vars = proptest::collection::vec(var, 2..8);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(0.0f64..5.0, 8), 2.0f64..30.0),
            1..5,
        );
        (vars, rows).prop_map(|(vars, rows)| {
            let mut m = Model::new(Sense::Maximize);
            let mut int_cols = Vec::new();
            let ids: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &(is_int, obj, ub))| {
                    if is_int {
                        int_cols.push(i);
                        let ub = ub.round().max(1.0);
                        m.add_var(format!("z{i}"), VarKind::Integer, 0.0, ub, obj)
                            .unwrap()
                    } else {
                        m.add_continuous(format!("x{i}"), 0.0, ub, obj).unwrap()
                    }
                })
                .collect();
            for (k, (coeffs, rhs)) in rows.iter().enumerate() {
                let terms: Vec<_> = ids.iter().zip(coeffs).map(|(&id, &c)| (id, c)).collect();
                m.add_constraint(format!("r{k}"), terms, Relation::Le, *rhs)
                    .unwrap();
            }
            (m, int_cols)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The narrow, row-priced warm solve is bit-identical to the
        /// full-width, column-priced reference over dives of 3–6 warm
        /// re-solves.
        #[test]
        fn warm_solves_match_full_width_reference_bitwise(
            (m, int_cols) in arb_mip(),
            chain in proptest::collection::vec((0usize..8, proptest::bool::ANY), 3..=6),
        ) {
            prop_assume!(!int_cols.is_empty());
            let problem = LpProblem::from_model_dense(&m, &model_bounds(&m));
            check_warm_chain(&problem, &int_cols, &chain).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn basic_artificial_keeps_full_width_and_matches_reference() {
        // The second row is twice the first, so the basis can hold only
        // one of them: an artificial stays basic (at zero) through phase
        // 2 and every warm re-solve, and the warm tableau keeps all its
        // columns.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 3.0, 3.0).unwrap();
        let y = m.add_var("y", VarKind::Integer, 0.0, 3.0, 2.0).unwrap();
        let z = m.add_continuous("z", 0.0, 2.0, 1.0).unwrap();
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 3.5)
            .unwrap();
        m.add_constraint(
            "twice",
            vec![(x, 2.0), (y, 2.0), (z, 2.0)],
            Relation::Eq,
            7.0,
        )
        .unwrap();
        m.add_constraint("mix", vec![(x, 2.0), (y, 1.0)], Relation::Le, 4.5)
            .unwrap();
        let problem = LpProblem::from_model_dense(&m, &model_bounds(&m));
        let n = problem.col_count();
        let chain = [(0, false), (1, true), (0, true), (1, false)];
        let starts = check_warm_chain(&problem, &[0, 1], &chain).unwrap();
        assert!(starts.len() >= 3, "dive ended after {} steps", starts.len());
        for snap in &starts {
            assert!(
                snap.columns().any(|c| c >= n),
                "no artificial basic in {snap:?}"
            );
        }
    }
}
