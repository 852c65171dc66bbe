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

/// Reduced-cost pricing of every tableau column: fills `d` with
/// `d_k = c_j − c_Bᵀ·tab[:,k]`, where `j` is the problem column of
/// tableau column `k`. [`Tableau::reduced_costs`] is the one the
/// solver uses; the parameter lets tests run the column-wise reference.
type Pricing = fn(&Tableau<'_>, &[f64], &mut Vec<f64>);

/// The solver's pricing: [`Tableau::reduced_costs`].
const ROW_WISE: Pricing = |t, costs, d| t.reduced_costs(costs, d);

struct Tableau<'a> {
    /// m × `cols.len()` dense matrix, current B⁻¹A over the tableau
    /// columns, row-major in one buffer that the caller reuses across
    /// solves.
    tab: &'a mut [f64],
    /// Basic-variable values per row.
    xb: Vec<f64>,
    /// Problem column in the basis for each row.
    basis: Vec<usize>,
    /// Per-column status and bounds: one entry for every problem
    /// column, artificials included, whether or not the tableau holds it.
    status: Vec<ColStatus>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    m: usize,
    /// Problem column of each tableau column, ascending: the columns
    /// priced and pivoted. Problem columns missing from it are ones a
    /// warm tableau leaves out; they stay nonbasic, pinned at [0, 0].
    cols: Vec<usize>,
}

impl Tableau<'_> {
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

    /// Entry (row `i`, tableau column `k`).
    fn at(&self, i: usize, k: usize) -> f64 {
        self.tab[i * self.cols.len() + k]
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
        let mut reduced = Vec::with_capacity(self.cols.len());
        for _ in 0..max_iters {
            price(self, costs, &mut reduced);
            let mut entering: Option<(usize, f64, f64)> = None; // (tableau col, |d|, sigma)
            let use_bland = degenerate_streak >= DEGENERACY_GUARD;
            for (k, &j) in self.cols.iter().enumerate() {
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                if self.upper[j] - self.lower[j] < PIVOT_EPS {
                    continue; // fixed column can never improve
                }
                let d = reduced[k];
                let sigma = match self.status[j] {
                    ColStatus::AtLower if d < -PRICE_EPS => 1.0,
                    ColStatus::AtUpper if d > PRICE_EPS => -1.0,
                    _ => continue,
                };
                if use_bland {
                    entering = Some((k, d.abs(), sigma));
                    break;
                }
                match entering {
                    Some((_, best, _)) if d.abs() <= best => {}
                    _ => entering = Some((k, d.abs(), sigma)),
                }
            }
            let Some((k, _, sigma)) = entering else {
                // Optimal: compute objective.
                let obj = self
                    .values()
                    .iter()
                    .zip(costs)
                    .map(|(x, c)| x * c)
                    .sum::<f64>();
                return Ok(obj);
            };
            let j = self.cols[k];
            *iters += 1;

            // Ratio test: how far can x_j move (by t ≥ 0 in direction sigma)?
            let own_limit = self.upper[j] - self.lower[j]; // bound flip distance
            let mut t_max = own_limit;
            let mut leaving: Option<(usize, ColStatus)> = None; // (row, bound hit)
            for i in 0..self.m {
                let a = sigma * self.at(i, k);
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
                self.xb[i] -= sigma * t_max * self.at(i, k);
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
                    self.pivot(row, k);
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
    /// Only the columns that pass the ratio test's sign check are
    /// priced, each column by column ([`Tableau::reduced_cost`]); a
    /// `price` given instead prices every column per iteration, the
    /// reference the tests compare against.
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
        price: Option<Pricing>,
    ) -> Result<(), LpStatus> {
        let mut reduced = Vec::new();
        let mut basic_costs = Vec::with_capacity(self.m);
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
            match price {
                Some(price) => price(self, costs, &mut reduced),
                None => self.basic_costs(costs, &mut basic_costs),
            }
            let mut enter: Option<(usize, f64, f64)> = None; // (tableau col, ratio, |alpha|)
            for (k, &j) in self.cols.iter().enumerate() {
                if self.status[j] == ColStatus::Basic {
                    continue;
                }
                if self.upper[j] - self.lower[j] < PIVOT_EPS {
                    continue; // fixed column cannot move
                }
                let a = self.at(r, k);
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
                let d = match price {
                    Some(_) => reduced[k],
                    None => self.reduced_cost(&basic_costs, costs[j], k),
                };
                let ratio = (d / a).abs();
                let better = match enter {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - 1e-12 || (ratio <= br + 1e-12 && a.abs() > ba)
                    }
                };
                if better {
                    enter = Some((k, ratio, a.abs()));
                }
            }
            let Some((k, _, _)) = enter else {
                return Err(LpStatus::Infeasible);
            };
            let j = self.cols[k];
            *iters += 1;

            // Pivot: the entering variable moves by exactly enough to put
            // the leaving variable on its violated bound.
            let step = delta / self.at(r, k);
            let start = match self.status[j] {
                ColStatus::AtLower => self.lower[j],
                ColStatus::AtUpper => self.upper[j],
                ColStatus::Basic => unreachable!("entering var was nonbasic"),
            };
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= self.at(i, k) * step;
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
            self.pivot(r, k);
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
        d.extend(self.cols.iter().map(|&j| costs[j]));
        if d.is_empty() {
            return;
        }
        for (row, &b) in self.tab.chunks_exact(d.len()).zip(&self.basis) {
            let cb = costs[b];
            if cb != 0.0 {
                for (dj, &a) in d.iter_mut().zip(row) {
                    *dj -= cb * a;
                }
            }
        }
    }

    /// Fills `out` with `(offset of row i, c_B[i])` for each basis row
    /// `i`, in ascending order, whose basic cost is nonzero: the rows
    /// [`Tableau::reduced_cost`] reads.
    fn basic_costs(&self, costs: &[f64], out: &mut Vec<(usize, f64)>) {
        let w = self.cols.len();
        out.clear();
        out.extend(
            self.basis
                .iter()
                .enumerate()
                .filter(|&(_, &b)| costs[b] != 0.0)
                .map(|(i, &b)| (i * w, costs[b])),
        );
    }

    /// Column-wise reduced cost of tableau column `k` with cost `c`:
    /// `c`, less `c_B[i]·tab[i][k]` for each row of `basic_costs` (see
    /// [`Tableau::basic_costs`]) in order — the operations
    /// [`Tableau::reduced_costs`] applies to that column, so the same
    /// bits.
    fn reduced_cost(&self, basic_costs: &[(usize, f64)], c: f64, k: usize) -> f64 {
        let mut d = c;
        for &(row, cb) in basic_costs {
            d -= cb * self.tab[row + k];
        }
        d
    }

    /// Gauss–Jordan pivot on (row, tableau column `col`).
    fn pivot(&mut self, row: usize, col: usize) {
        eliminate(self.tab, self.cols.len(), row, col, |_, _| {});
    }
}

/// A reusable snapshot of a solved simplex state: which columns were
/// basic and where every nonbasic column rested. Together with the
/// (layout-stable) [`LpProblem`] it was taken from, this is enough to
/// refactor `B⁻¹A` from scratch and resume optimization after a bound
/// change — the warm-start handoff between branch-and-bound nodes.
///
/// Open branch-and-bound nodes hold their parent's snapshot, so it is
/// packed: `u32` basis columns and one bit per column, since a column
/// the basis does not hold rests at its lower or its upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Basis columns (problem column indices, artificials included).
    basis: Box<[u32]>,
    /// One bit per problem column (`n + m`, column `j` at bit `j % 8` of
    /// byte `j / 8`), set when the column is nonbasic at its upper bound.
    at_upper: Box<[u8]>,
}

impl BasisSnapshot {
    /// Captures the basis and statuses of a solved tableau.
    ///
    /// # Panics
    ///
    /// Panics on a column index past `u32::MAX`; a dense tableau that
    /// wide could not have been allocated.
    fn of(tableau: &Tableau<'_>) -> BasisSnapshot {
        BasisSnapshot {
            basis: tableau
                .basis
                .iter()
                .map(|&c| u32::try_from(c).expect("tableau column index fits in u32"))
                .collect(),
            at_upper: tableau
                .status
                .chunks(8)
                .map(|byte| {
                    byte.iter()
                        .enumerate()
                        .filter(|&(_, &s)| s == ColStatus::AtUpper)
                        .fold(0u8, |bits, (b, _)| bits | 1 << b)
                })
                .collect(),
        }
    }

    /// Whether column `j` rested at its upper bound.
    fn at_upper(&self, j: usize) -> bool {
        self.at_upper[j / 8] & 1 << (j % 8) != 0
    }

    /// The basis columns as problem column indices.
    fn columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.basis.iter().map(|&c| c as usize)
    }
}

/// Solves a standard-form LP (minimize). Returns column values for the
/// problem's columns (structural + slack), artificials excluded.
pub fn solve(problem: &LpProblem) -> LpSolution {
    let mut iters = 0;
    let (lower, upper) = (&problem.lower, &problem.upper);
    solve_two_phase(problem, lower, upper, &mut iters, false, &mut Vec::new()).0
}

/// Gauss–Jordan elimination on (`row`, `col`) of the row-major,
/// `w`-wide matrix `tab`: scales the pivot row to a unit pivot, then
/// subtracts it from every other row with a nonzero entry in `col`,
/// calling `on_row(i, f)` with that row's index and factor. The scaled
/// pivot row is read in place, not copied.
fn eliminate(
    tab: &mut [f64],
    w: usize,
    row: usize,
    col: usize,
    mut on_row: impl FnMut(usize, f64),
) {
    let (above, rest) = tab.split_at_mut(row * w);
    let (prow, below) = rest.split_at_mut(w);
    let p = prow[col];
    debug_assert!(p.abs() > PIVOT_EPS, "pivot on ~zero element");
    let inv = 1.0 / p;
    for v in prow.iter_mut() {
        *v *= inv;
    }
    let others = above.chunks_exact_mut(w).enumerate().chain(
        below
            .chunks_exact_mut(w)
            .enumerate()
            .map(|(i, r)| (row + 1 + i, r)),
    );
    for (i, r) in others {
        let f = r[col];
        if f != 0.0 {
            for (v, pv) in r.iter_mut().zip(prow.iter()) {
                *v -= f * pv;
            }
            r[col] = 0.0; // kill residual rounding
            on_row(i, f);
        }
    }
}

/// Cold two-phase solve under explicit column bounds (`col_lower` /
/// `col_upper` cover structural + slack columns; artificials are
/// appended internally), with the tableau in `buf`. The pivot sequence
/// is exactly the seed algorithm's — `iters` counting and basis capture
/// are observational.
fn solve_two_phase(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    iters: &mut u64,
    want_basis: bool,
    buf: &mut Vec<f64>,
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
    buf.clear();
    buf.resize(m * ncols, 0.0);
    let mut resid = problem.rhs.clone();
    for (i, row) in problem.rows.iter().enumerate() {
        for &(j, a) in row {
            buf[i * ncols + j] = a;
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
        let dense = &mut buf[i * ncols..(i + 1) * ncols];
        if resid[i] < 0.0 {
            for v in dense.iter_mut() {
                *v = -*v;
            }
            resid[i] = -resid[i];
        }
        let col = n + i;
        dense[col] = 1.0;
        lower.push(0.0);
        upper.push(f64::INFINITY);
        status[col] = ColStatus::Basic;
        basis.push(col);
        xb.push(resid[i]);
    }

    let mut tableau = Tableau {
        tab: buf,
        xb,
        basis,
        status,
        lower,
        upper,
        m,
        cols: (0..ncols).collect(),
    };

    // Phase 1: minimize the sum of artificials.
    let mut phase1_costs = vec![0.0; ncols];
    for c in phase1_costs.iter_mut().skip(n) {
        *c = 1.0;
    }
    match tableau.optimize(&phase1_costs, max_iters, iters, ROW_WISE) {
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
    match tableau.optimize(&phase2_costs, max_iters, iters, ROW_WISE) {
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

/// What a thread keeps from one LP solve to the next: the tableau
/// buffer, and the last warm factorization with what it came from.
///
/// The factor (`B⁻¹A` over the live columns, and `B⁻¹b`) depends on the
/// problem, the snapshot's basis columns in order, and which columns
/// are live, and on nothing else. The two children of a node share
/// their parent's snapshot and differ only in the bounds of the
/// variable branched on, which is basic in that snapshot, so they have
/// the same live columns and the same factor; the second one, usually
/// solved right after the first, copies it instead of refactoring. A
/// copy has the same bits as a refactor. One `LpBuffers` serves one
/// [`WarmContext`]: the cache does not record the problem.
#[derive(Debug, Default)]
pub(crate) struct LpBuffers {
    tab: Vec<f64>,
    factor: Factor,
}

/// A kept factorization (see [`LpBuffers`]).
#[derive(Debug, Default)]
struct Factor {
    /// The snapshot basis columns, in order; empty when nothing is kept.
    basis: Vec<u32>,
    /// The live columns.
    cols: Vec<usize>,
    /// `B⁻¹A` over `cols`, row-major.
    tab: Vec<f64>,
    /// `B⁻¹b`.
    rhs: Vec<f64>,
    /// The pivot row of each snapshot basis column, in snapshot order.
    row_of: Vec<usize>,
}

/// Rebuilds a [`Tableau`] in `bufs` from a basis snapshot under new
/// column bounds: refactors `B⁻¹A` by Gauss–Jordan, assigning each
/// snapshot basis column the remaining row with the largest pivot, or
/// copies the factor `bufs` kept when it came from the same basis and
/// live columns. Returns `None` when the snapshot does not fit this
/// problem or the basis is numerically singular — callers fall back to
/// a cold solve.
///
/// With `live_only`, the tableau leaves out every column that is
/// nonbasic in the snapshot and pinned at [0, 0] by the new bounds:
/// every artificial the snapshot does not keep basic, and every binary
/// that branching fixed at 0. Otherwise it holds all `n + m` columns.
/// Status and bounds always cover all `n + m` columns. Row scaling from
/// the cold path's sign flips is immaterial: `B⁻¹A` is invariant under
/// row scaling of `[A | b]`, so artificial columns are laid down as
/// `+eᵢ` unconditionally here.
fn warm_tableau<'a>(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    snap: &BasisSnapshot,
    live_only: bool,
    bufs: &'a mut LpBuffers,
) -> Option<Tableau<'a>> {
    let m = problem.row_count();
    let n = problem.col_count();
    let ncols = n + m;
    if snap.basis.len() != m || snap.at_upper.len() != ncols.div_ceil(8) {
        return None;
    }

    // Column bounds in problem layout; artificials stay pinned at zero
    // (they were fixed after phase 1 of the solve the snapshot came from).
    let mut lower = col_lower.to_vec();
    let mut upper = col_upper.to_vec();
    lower.resize(ncols, 0.0);
    upper.resize(ncols, 0.0);

    let mut in_basis = vec![false; ncols];
    for c in snap.columns() {
        *in_basis.get_mut(c)? = true;
    }
    // The tableau's columns, and each problem column's place among them
    // (`usize::MAX`: left out).
    let mut pos = vec![usize::MAX; ncols];
    let mut cols = Vec::with_capacity(ncols);
    for j in 0..ncols {
        if !live_only || in_basis[j] || lower[j] != 0.0 || upper[j] != 0.0 {
            pos[j] = cols.len();
            cols.push(j);
        }
    }
    let w = cols.len();
    let LpBuffers { tab: buf, factor } = bufs;
    let (rhs, row_of) = if factor.basis[..] == snap.basis[..] && factor.cols == cols {
        buf.clone_from(&factor.tab);
        (factor.rhs.clone(), factor.row_of.clone())
    } else {
        factor.basis.clear();
        let (rhs, row_of) = factor_basis(problem, snap, &pos, w, buf)?;
        factor.basis.extend_from_slice(&snap.basis);
        factor.cols.clone_from(&cols);
        factor.tab.clone_from(buf);
        factor.rhs.clone_from(&rhs);
        factor.row_of.clone_from(&row_of);
        (rhs, row_of)
    };

    // Statuses: basis membership wins; other columns keep their snapshot
    // rest bound, re-read against the *new* bounds — that re-read is the
    // entire warm start. Inconsistent snapshot rows degrade gracefully.
    let mut basis = vec![0usize; m];
    for (kk, c) in snap.columns().enumerate() {
        basis[row_of[kk]] = c;
    }
    let status: Vec<ColStatus> = (0..ncols)
        .map(|j| {
            if in_basis[j] {
                ColStatus::Basic
            } else if snap.at_upper(j) && upper[j].is_finite() {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            }
        })
        .collect();

    // Basic values: xb = B⁻¹b − Σ (B⁻¹A)ⱼ·xⱼ over nonbasic columns
    // (columns left out rest at zero and add nothing).
    let mut xb = rhs;
    for (k, &j) in cols.iter().enumerate() {
        let v = match status[j] {
            ColStatus::Basic => continue,
            ColStatus::AtLower => lower[j],
            ColStatus::AtUpper => upper[j],
        };
        if v != 0.0 {
            for (x, row) in xb.iter_mut().zip(buf.chunks_exact(w)) {
                let a = row[k];
                if a != 0.0 {
                    *x -= a * v;
                }
            }
        }
    }

    Some(Tableau {
        tab: buf,
        xb,
        basis,
        status,
        lower,
        upper,
        m,
        cols,
    })
}

/// Lays the problem rows over the `w` tableau columns (`pos` maps each
/// problem column to its tableau column, `usize::MAX` if left out) into
/// `buf` and factors the snapshot's basis: each basis column gets a
/// pivot row (largest remaining magnitude) and is eliminated from all
/// other rows and the transformed RHS. Returns `B⁻¹b` and each basis
/// column's pivot row, or `None` for a numerically singular basis.
fn factor_basis(
    problem: &LpProblem,
    snap: &BasisSnapshot,
    pos: &[usize],
    w: usize,
    buf: &mut Vec<f64>,
) -> Option<(Vec<f64>, Vec<usize>)> {
    let m = problem.row_count();
    let n = problem.col_count();
    buf.clear();
    buf.resize(m * w, 0.0);
    for (i, row) in problem.rows.iter().enumerate() {
        let dense = &mut buf[i * w..(i + 1) * w];
        for &(j, a) in row {
            if pos[j] != usize::MAX {
                dense[pos[j]] = a;
            }
        }
        if pos[n + i] != usize::MAX {
            dense[pos[n + i]] = 1.0;
        }
    }
    let mut rhs = problem.rhs.clone();
    let mut assigned = vec![false; m];
    let mut row_of = vec![usize::MAX; m];
    for (kk, c) in snap.columns().enumerate() {
        let k = pos[c]; // basis columns are always held
        let mut best: Option<(usize, f64)> = None;
        for (r, &used) in assigned.iter().enumerate() {
            if used {
                continue;
            }
            let a = buf[r * w + k].abs();
            if best.is_none_or(|(_, ba)| a > ba) {
                best = Some((r, a));
            }
        }
        let (r, mag) = best?;
        if mag <= 1e-8 {
            return None; // singular basis: cold fallback
        }
        rhs[r] *= 1.0 / buf[r * w + k];
        let prhs = rhs[r];
        eliminate(buf, w, r, k, |i, f| rhs[i] -= f * prhs);
        assigned[r] = true;
        row_of[kk] = r;
    }
    Some((rhs, row_of))
}

/// Warm solve: rebuilds the parent basis under new bounds, restores
/// primal feasibility with the dual simplex, then polishes with the
/// primal simplex. `None` means "fall back to a cold solve" (singular
/// rebuild or iteration trouble); `Some` carries a definitive answer —
/// including a sound `Infeasible` from the dual ratio test.
///
/// The tableau holds the live columns only (see [`warm_tableau`]). A
/// left-out column is nonbasic and pinned at [0, 0], so pricing skips
/// it as fixed, it never enters, and the `xb` sum skips its zero rest
/// value: no entry of it is ever read. Gauss–Jordan row operations act
/// on each column independently, so leaving it out changes no other
/// entry, and every answer, pivot and snapshot is bit-identical to a
/// full-width solve.
fn solve_warm(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    snap: &BasisSnapshot,
    iters: &mut u64,
    bufs: &mut LpBuffers,
) -> Option<(LpSolution, Option<BasisSnapshot>)> {
    let tableau = warm_tableau(problem, col_lower, col_upper, snap, true, bufs)?;
    resume_warm(problem, tableau, iters, None)
}

/// The dual-restore and primal-polish half of [`solve_warm`], from a
/// refactored tableau. `price`, when given, replaces the solver's own
/// pricing in both phases (tests pass the column-wise reference).
fn resume_warm(
    problem: &LpProblem,
    mut tableau: Tableau<'_>,
    iters: &mut u64,
    price: Option<Pricing>,
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
    let price = price.unwrap_or(ROW_WISE);
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
    let (lower, upper) = (&problem.lower, &problem.upper);
    let (sol, _) = solve_two_phase(&problem, lower, upper, &mut 0, false, &mut Vec::new());
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
        self.solve_relaxation_in(bounds, basis, &mut LpBuffers::default())
    }

    /// [`WarmContext::solve_relaxation`] with the dense tableau built in
    /// `bufs`, which a search thread keeps across its solves of this
    /// context's problem: it allocates its tableau once, and a node's
    /// sibling copies the node's factorization (see [`LpBuffers`]). The
    /// buffers never change a result's bits.
    pub(crate) fn solve_relaxation_in(
        &self,
        bounds: &[(f64, f64)],
        basis: Option<&BasisSnapshot>,
        bufs: &mut LpBuffers,
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
                let out = solve_warm(
                    &self.problem,
                    &col_lower,
                    &col_upper,
                    snap,
                    &mut iters,
                    bufs,
                );
                warmed = out.is_some();
                out
            })
            .unwrap_or_else(|| {
                let (lower, upper) = (&col_lower, &col_upper);
                solve_two_phase(&self.problem, lower, upper, &mut iters, true, &mut bufs.tab)
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

    /// Reference pricing for [`Tableau::reduced_costs`] and
    /// [`Tableau::reduced_cost`]: one strided dot product per column.
    fn colwise_reduced_costs(t: &Tableau<'_>, costs: &[f64], d: &mut Vec<f64>) {
        let cb: Vec<f64> = t.basis.iter().map(|&b| costs[b]).collect();
        d.clear();
        d.extend(t.cols.iter().enumerate().map(|(k, &j)| {
            let mut dj = costs[j];
            for (i, &c) in cb.iter().enumerate() {
                if c != 0.0 {
                    dj -= c * t.at(i, k);
                }
            }
            dj
        }));
    }

    type WarmOutcome = Option<(LpSolution, Option<BasisSnapshot>)>;

    /// Reference warm solve: a tableau of all `n + m` columns,
    /// artificials and pinned columns included, priced column by column
    /// over every column in both phases. [`solve_warm`] must match it
    /// bit for bit.
    fn solve_warm_reference(
        problem: &LpProblem,
        col_lower: &[f64],
        col_upper: &[f64],
        snap: &BasisSnapshot,
        iters: &mut u64,
    ) -> WarmOutcome {
        let mut bufs = LpBuffers::default();
        let tableau = warm_tableau(problem, col_lower, col_upper, snap, false, &mut bufs)?;
        resume_warm(problem, tableau, iters, Some(colwise_reduced_costs))
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

    /// One compared step of [`check_warm_chain`].
    struct ChainStep {
        /// The snapshot the step started from.
        start: BasisSnapshot,
        /// The problem columns of the step's live-column tableau.
        live: Vec<usize>,
        /// The column the step tightened, and its value if that pinned it.
        column: usize,
        pinned_at: Option<f64>,
        /// Whether the step's sibling had the same live columns, so that
        /// its solve copied the step's factorization.
        sibling_shares_factor: bool,
    }

    /// Runs a branch-and-bound-style chain of warm re-solves through the
    /// fast path and the reference side by side. Each step tightens one
    /// integer column's bound around the previous solve's value (`up`
    /// raises the lower bound, otherwise the upper bound drops) and
    /// re-solves from the previous basis; then the step's sibling, with
    /// the bound tightened the other way, re-solves from the same basis
    /// through the same buffers. Fails unless every solve agrees bit for
    /// bit: objective, values, snapshot and pivot count. Returns the
    /// steps compared.
    fn check_warm_chain(
        problem: &LpProblem,
        int_cols: &[usize],
        chain: &[(usize, bool)],
    ) -> Result<Vec<ChainStep>, String> {
        let mut lower = problem.lower.clone();
        let mut upper = problem.upper.clone();
        let (root, root_snap) =
            solve_two_phase(problem, &lower, &upper, &mut 0, true, &mut Vec::new());
        let Some(mut snap) = root_snap else {
            return Err(format!("root solve ended {:?}", root.status));
        };
        let mut values = root.values;
        let mut steps = Vec::new();
        let mut bufs = LpBuffers {
            tab: vec![f64::NAN; 7], // stale contents must not leak into a solve
            ..LpBuffers::default()
        };
        for (step, &(pick, up)) in chain.iter().enumerate() {
            let j = int_cols[pick % int_cols.len()];
            // The other child of this step's parent: `j` tightened the
            // other way.
            let (mut other_lower, mut other_upper) = (lower.clone(), upper.clone());
            let raise = |lo: &mut [f64], hi: &[f64]| {
                lo[j] = values[j].ceil().max(lo[j] + 1.0).min(hi[j]);
            };
            let drop = |lo: &[f64], hi: &mut [f64]| {
                hi[j] = values[j].floor().min(hi[j] - 1.0).max(lo[j]);
            };
            if up {
                raise(&mut lower, &upper);
                drop(&other_lower, &mut other_upper);
            } else {
                drop(&lower, &mut upper);
                raise(&mut other_lower, &other_upper);
            }
            // Pricing alone, on the full-width tableau this step starts
            // from: row-wise, and the dual's one column at a time, against
            // the column-wise reference.
            let mut full_bufs = LpBuffers::default();
            if let Some(t) = warm_tableau(problem, &lower, &upper, &snap, false, &mut full_bufs) {
                let mut costs = problem.costs.clone();
                costs.resize(t.cols.len(), 0.0);
                let (mut by_row, mut by_col) = (Vec::new(), Vec::new());
                t.reduced_costs(&costs, &mut by_row);
                colwise_reduced_costs(&t, &costs, &mut by_col);
                let mut basic_costs = Vec::new();
                t.basic_costs(&costs, &mut basic_costs);
                let one_by_one: Vec<f64> = (0..t.cols.len())
                    .map(|k| t.reduced_cost(&basic_costs, costs[k], k))
                    .collect();
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if bits(&by_row) != bits(&by_col) || bits(&one_by_one) != bits(&by_col) {
                    return Err(format!(
                        "step {step}: row-wise {by_row:?}, one by one {one_by_one:?}, \
                         column-wise {by_col:?}"
                    ));
                }
            }
            let live_cols = |lo: &[f64], hi: &[f64]| {
                warm_tableau(problem, lo, hi, &snap, true, &mut LpBuffers::default())
                    .map_or_else(Vec::new, |t| t.cols.clone())
            };
            let live = live_cols(&lower, &upper);
            let (mut fast_iters, mut ref_iters) = (0, 0);
            let fast = solve_warm(problem, &lower, &upper, &snap, &mut fast_iters, &mut bufs);
            let reference = solve_warm_reference(problem, &lower, &upper, &snap, &mut ref_iters);
            if fast_iters != ref_iters || outcome_bits(&fast) != outcome_bits(&reference) {
                return Err(format!(
                    "step {step} (column {j}): fast {fast:?} in {fast_iters} pivots, \
                     reference {reference:?} in {ref_iters} pivots"
                ));
            }
            // The sibling, solved next with the same buffers: it copies
            // the step's factorization when its live columns are the same.
            let (mut fast_iters, mut ref_iters) = (0, 0);
            let (lo, hi) = (&other_lower, &other_upper);
            let sibling = solve_warm(problem, lo, hi, &snap, &mut fast_iters, &mut bufs);
            let reference = solve_warm_reference(problem, lo, hi, &snap, &mut ref_iters);
            if fast_iters != ref_iters || outcome_bits(&sibling) != outcome_bits(&reference) {
                return Err(format!(
                    "step {step} sibling (column {j}): fast {sibling:?} in {fast_iters} \
                     pivots, reference {reference:?} in {ref_iters} pivots"
                ));
            }
            steps.push(ChainStep {
                sibling_shares_factor: !live.is_empty() && live_cols(lo, hi) == live,
                start: snap,
                live,
                column: j,
                pinned_at: (lower[j] == upper[j]).then_some(lower[j]),
            });
            match fast {
                Some((sol, Some(next))) => {
                    snap = next;
                    values = sol.values;
                }
                _ => break, // infeasible child or cold fallback: the dive ends
            }
        }
        Ok(steps)
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

    /// What the chains of [`warm_solves_match_full_width_reference_bitwise`]
    /// exercised, summed over its cases.
    #[derive(Debug, Default, Clone, Copy)]
    struct ChainCoverage {
        /// Steps that pinned a binary at 0, and at 1.
        binary_at_0: u32,
        binary_at_1: u32,
        /// Steps whose live-column tableau left out a structural column.
        dropped_pinned: u32,
        /// Steps whose sibling copied the step's factorization.
        factor_reused: u32,
    }

    /// The live-column warm solve, priced row-wise in the primal and
    /// only over the ratio-test-eligible columns in the dual, is
    /// bit-identical to the full-width, column-priced reference over
    /// dives of 3–6 warm re-solves. The check is not vacuous: across
    /// the cases, steps pin binaries at both 0 and 1, and some step's
    /// tableau leaves a pinned structural column out.
    #[test]
    fn warm_solves_match_full_width_reference_bitwise() {
        let total = std::cell::Cell::new(ChainCoverage::default());
        let strategy = (
            arb_mip(),
            proptest::collection::vec((0usize..8, proptest::bool::ANY), 3..=6),
        );
        proptest::test_runner::run(
            &ProptestConfig::with_cases(128),
            "warm_solves_match_full_width_reference_bitwise",
            strategy,
            |((m, int_cols), chain)| -> TestCaseResult {
                prop_assume!(!int_cols.is_empty());
                let problem = LpProblem::from_model_dense(&m, &model_bounds(&m));
                let n = problem.col_count();
                let steps =
                    check_warm_chain(&problem, &int_cols, &chain).map_err(TestCaseError::fail)?;
                let mut c = total.get();
                for s in &steps {
                    let binary = problem.lower[s.column] == 0.0 && problem.upper[s.column] == 1.0;
                    match s.pinned_at {
                        Some(v) if binary && v == 0.0 => c.binary_at_0 += 1,
                        Some(v) if binary && v == 1.0 => c.binary_at_1 += 1,
                        _ => {}
                    }
                    if !s.live.is_empty() && s.live.iter().filter(|&&j| j < n).count() < n {
                        c.dropped_pinned += 1;
                    }
                    c.factor_reused += u32::from(s.sibling_shares_factor);
                }
                total.set(c);
                Ok(())
            },
        );
        let c = total.get();
        assert!(
            c.binary_at_0 > 0 && c.binary_at_1 > 0 && c.dropped_pinned > 0 && c.factor_reused > 0,
            "vacuous chains: {c:?}"
        );
    }

    #[test]
    fn basic_artificial_stays_live_and_matches_reference() {
        // The second row is twice the first, so the basis can hold only
        // one of them: an artificial stays basic (at zero) through phase
        // 2 and every warm re-solve. The live-column tableau keeps that
        // artificial and leaves the other ones out.
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
        let steps = check_warm_chain(&problem, &[0, 1], &chain).unwrap();
        assert!(steps.len() >= 3, "dive ended after {} steps", steps.len());
        for s in &steps {
            let artificials: Vec<usize> = s.start.columns().filter(|&c| c >= n).collect();
            assert!(
                !artificials.is_empty(),
                "no artificial basic in {:?}",
                s.start
            );
            let live_artificials: Vec<usize> = s.live.iter().copied().filter(|&c| c >= n).collect();
            assert_eq!(live_artificials, artificials, "live columns {:?}", s.live);
        }
    }
}
