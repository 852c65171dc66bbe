//! Two-phase primal simplex with bounded variables, on a dense tableau
//! of the nonbasic columns only (`B⁻¹N`): a basic column is implicit in
//! its pivot entry.
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

/// A bounded-variable simplex tableau that stores `B⁻¹N`: the nonbasic
/// columns only. A basic column holds its scaled pivot entry `diag[i]`
/// in its own row `i` and zero in every other row, so it is implicit.
///
/// A pivot puts the leaving column's values, which it derives from
/// `diag`, into the entering column's slot, so slots are not in problem
/// column order; `order` lists them in that order, and every loop whose
/// result depends on visiting order walks it. Each search thread keeps
/// one `Tableau` in its [`LpBuffers`] and refills it for every LP.
#[derive(Debug, Default)]
struct Tableau {
    /// `m` rows of stride `w`, row-major: slot `k` of row `i` is
    /// `tab[i * w + k]`, and slots `[0, cols.len())` hold `B⁻¹N`. A
    /// refactor needs the basis columns' slots too (`w` is then the
    /// number of live columns); after it the rest of each row is dead.
    tab: Vec<f64>,
    w: usize,
    /// Problem column of each nonbasic slot.
    cols: Vec<usize>,
    /// The slots in ascending problem-column order.
    order: Vec<usize>,
    /// Per basis row, the entry its basic column holds in that row.
    diag: Vec<f64>,
    /// Basic-variable values per row.
    xb: Vec<f64>,
    /// Problem column in the basis for each row.
    basis: Vec<usize>,
    /// Per-column status and bounds: one entry for every problem
    /// column, artificials included, whether or not a slot holds it.
    /// Problem columns in no slot and not basic are the ones a warm
    /// tableau leaves out; they stay nonbasic, pinned at [0, 0].
    status: Vec<ColStatus>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    m: usize,
    /// Pricing scratch: reduced costs per slot, and the
    /// `(row offset, c_B[i])` pairs [`Tableau::reduced_cost`] reads.
    reduced: Vec<f64>,
    basic_costs: Vec<(usize, f64)>,
    /// Refactor scratch: each problem column's slot (`usize::MAX`: none).
    slot_of: Vec<usize>,
}

impl Tableau {
    /// Current value of every column, `−0.0` read as `+0.0`.
    fn values(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .status
            .iter()
            .enumerate()
            .map(|(j, s)| match s {
                ColStatus::Basic => 0.0,
                ColStatus::AtLower => self.lower[j] + 0.0,
                ColStatus::AtUpper => self.upper[j] + 0.0,
            })
            .collect();
        for (i, &b) in self.basis.iter().enumerate() {
            v[b] = self.xb[i] + 0.0;
        }
        v
    }

    /// Entry (row `i`, slot `k`).
    fn at(&self, i: usize, k: usize) -> f64 {
        self.tab[i * self.w + k]
    }

    /// Runs the primal simplex for the given cost vector, to optimality
    /// (`Ok`). Each pivot or bound flip adds one to `iters`.
    fn optimize(&mut self, costs: &[f64], max_iters: u64, iters: &mut u64) -> Result<(), LpStatus> {
        let mut degenerate_streak: u32 = 0;
        for _ in 0..max_iters {
            self.price(costs);
            let mut entering: Option<(usize, f64, f64)> = None; // (slot, |d|, sigma)
            let use_bland = degenerate_streak >= DEGENERACY_GUARD;
            for &k in &self.order {
                let j = self.cols[k];
                if self.upper[j] - self.lower[j] < PIVOT_EPS {
                    continue; // fixed column can never improve
                }
                let d = self.reduced[k];
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
                return Ok(());
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
                    self.pivot(row, k, leaving_col);
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
    /// priced, each column by column ([`Tableau::reduced_cost`]).
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
    ) -> Result<(), LpStatus> {
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
            self.fill_basic_costs(costs);
            let mut enter: Option<(usize, f64, f64)> = None; // (slot, ratio, |alpha|)
            for &k in &self.order {
                let j = self.cols[k];
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
                let ratio = (self.reduced_cost(costs[j], k) / a).abs();
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
            self.pivot(r, k, leaving_col);
        }
        Err(LpStatus::IterationLimit)
    }

    /// Row-wise pricing into `reduced`: `d = c` per slot, then for each
    /// basis row `i` in ascending order with `c_B[i] ≠ 0`,
    /// `d -= c_B[i]·tab[i]`. Every column sees the same operations in
    /// the same order as a per-column dot product over the rows, so the
    /// values are bit-identical to it; the contiguous inner loop
    /// vectorizes. A basic column's reduced cost is zero by definition
    /// and is never read, so none is computed.
    fn price(&mut self, costs: &[f64]) {
        let Tableau {
            tab,
            w,
            cols,
            basis,
            reduced,
            ..
        } = self;
        reduced.clear();
        reduced.extend(cols.iter().map(|&j| costs[j]));
        let nb = reduced.len();
        if nb == 0 {
            return;
        }
        for (row, &b) in tab.chunks_exact(*w).zip(basis.iter()) {
            let cb = costs[b];
            if cb != 0.0 {
                for (dj, &a) in reduced.iter_mut().zip(&row[..nb]) {
                    *dj -= cb * a;
                }
            }
        }
    }

    /// Fills `basic_costs` with `(offset of row i, c_B[i])` for each
    /// basis row `i`, in ascending order, whose basic cost is nonzero:
    /// the rows [`Tableau::reduced_cost`] reads.
    fn fill_basic_costs(&mut self, costs: &[f64]) {
        let w = self.w;
        self.basic_costs.clear();
        self.basic_costs.extend(
            self.basis
                .iter()
                .enumerate()
                .filter(|&(_, &b)| costs[b] != 0.0)
                .map(|(i, &b)| (i * w, costs[b])),
        );
    }

    /// Column-wise reduced cost of slot `k` with cost `c`: `c`, less
    /// `c_B[i]·tab[i][k]` for each row of `basic_costs` in order — the
    /// operations [`Tableau::price`] applies to that slot, so the same
    /// bits.
    fn reduced_cost(&self, c: f64, k: usize) -> f64 {
        let mut d = c;
        for &(row, cb) in &self.basic_costs {
            d -= cb * self.tab[row + k];
        }
        d
    }

    /// Pivots the column in slot `k` into the basis at row `r`, in place
    /// of `leaving`, which takes over slot `k`: Gauss–Jordan over the
    /// nonbasic slots only, with the leaving column's values derived
    /// from `diag[r]`.
    fn pivot(&mut self, r: usize, k: usize, leaving: usize) {
        let nb = self.cols.len();
        self.diag[r] = eliminate(&mut self.tab, self.w, nb, r, k, self.diag[r], |_, _| {});
        self.cols[k] = leaving;
        let from = self
            .order
            .iter()
            .position(|&s| s == k)
            .expect("every slot is ordered");
        self.order.remove(from);
        let to = self.order.partition_point(|&s| self.cols[s] < leaving);
        self.order.insert(to, k);
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
    /// Captures a basis (problem column per row) and every column's
    /// status.
    ///
    /// # Panics
    ///
    /// Panics on a column index past `u32::MAX`; a tableau that wide
    /// could not have been allocated.
    fn new(basis: &[usize], status: &[ColStatus]) -> BasisSnapshot {
        BasisSnapshot {
            basis: basis
                .iter()
                .map(|&c| u32::try_from(c).expect("tableau column index fits in u32"))
                .collect(),
            at_upper: status
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

    /// Captures the basis and statuses of a solved tableau.
    fn of(tableau: &Tableau) -> BasisSnapshot {
        BasisSnapshot::new(&tableau.basis, &tableau.status)
    }

    /// Whether column `j` rested at its upper bound.
    fn at_upper(&self, j: usize) -> bool {
        self.at_upper[j / 8] & 1 << (j % 8) != 0
    }

    /// The basis columns as problem column indices.
    fn columns(&self) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.basis.iter().map(|&c| c as usize)
    }
}

/// Solves a standard-form LP (minimize). Returns column values for the
/// problem's columns (structural + slack), artificials excluded.
pub fn solve(problem: &LpProblem) -> LpSolution {
    let mut iters = 0;
    let (lower, upper) = (&problem.lower, &problem.upper);
    let mut tableau = Tableau::default();
    solve_two_phase(problem, lower, upper, &mut iters, false, &mut tableau).0
}

/// Gauss–Jordan elimination on (`row`, `col`) over the first `len`
/// slots of each `w`-wide row of `tab`. Scales the pivot row by
/// `1/p`, then puts `fill/p` in its slot `col`, and subtracts it from
/// every other row with a nonzero entry `f` in `col`, calling
/// `on_row(i, f)` with that row's index and factor. Slot `col` of every
/// other row ends as `0 − f·(fill/p)`, or `+0.0` where `f` is zero.
/// Returns `p·(1/p)`, the entry the pivot column keeps in its row. The
/// scaled pivot row is read in place, not copied.
///
/// A pivot passes the leaving basic column's own entry as `fill`, so
/// `col` ends up holding the leaving column, with the values the
/// full-width elimination gives it (the signs of zeros aside); a
/// refactor passes `0.0`.
fn eliminate(
    tab: &mut [f64],
    w: usize,
    len: usize,
    row: usize,
    col: usize,
    fill: f64,
    mut on_row: impl FnMut(usize, f64),
) -> f64 {
    let (above, rest) = tab.split_at_mut(row * w);
    let (prow, below) = rest.split_at_mut(w);
    let prow = &mut prow[..len];
    let p = prow[col];
    debug_assert!(p.abs() > PIVOT_EPS, "pivot on ~zero element");
    let inv = 1.0 / p;
    for v in prow.iter_mut() {
        *v *= inv;
    }
    let kept = prow[col];
    prow[col] = fill * inv;
    let others = above.chunks_exact_mut(w).enumerate().chain(
        below
            .chunks_exact_mut(w)
            .enumerate()
            .map(|(i, r)| (row + 1 + i, r)),
    );
    for (i, r) in others {
        let r = &mut r[..len];
        let f = r[col];
        r[col] = 0.0;
        if f != 0.0 {
            for (v, pv) in r.iter_mut().zip(prow.iter()) {
                *v -= f * pv;
            }
            on_row(i, f);
        }
    }
    kept
}

/// `Σ values[j]·costs[j]`, with `−0.0` read as `+0.0`.
fn objective(values: &[f64], costs: &[f64]) -> f64 {
    values.iter().zip(costs).map(|(x, c)| x * c).sum::<f64>() + 0.0
}

/// The outcome of a failed solve.
fn failed(status: LpStatus) -> LpSolution {
    LpSolution {
        status,
        objective: 0.0,
        values: Vec::new(),
    }
}

/// Cold two-phase solve under explicit column bounds (`col_lower` /
/// `col_upper` cover structural + slack columns; artificials are
/// appended internally), in `t`. The starting basis of artificials is
/// the identity, so every structural and slack column starts in a
/// nonbasic slot, in problem order, and every `diag` is `1.0`. The
/// pivot sequence is exactly the seed algorithm's — `iters` counting
/// and basis capture are observational.
fn solve_two_phase(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    iters: &mut u64,
    want_basis: bool,
    t: &mut Tableau,
) -> (LpSolution, Option<BasisSnapshot>) {
    let m = problem.row_count();
    let n = problem.col_count();
    let ncols = n + m; // + artificials
    let max_iters = 200 * (m as u64 + ncols as u64) + 20_000;

    // Nonbasic start: every column at the bound of smaller magnitude
    // (lower, unless upper is finite and |upper| < |lower|).
    t.status.clear();
    t.status.extend((0..n).map(|j| {
        if col_upper[j].is_finite() && col_upper[j].abs() < col_lower[j].abs() {
            ColStatus::AtUpper
        } else {
            ColStatus::AtLower
        }
    }));
    t.status.resize(ncols, ColStatus::Basic);

    // Dense rows and residuals r = b − A·x_start. Rows with a negative
    // residual are negated (multiplying an equality by −1 is harmless)
    // so every artificial enters with coefficient +1 and the initial
    // basis is exactly the identity.
    t.tab.clear();
    t.tab.resize(m * n, 0.0);
    t.xb.clone_from(&problem.rhs);
    for (i, row) in problem.rows.iter().enumerate() {
        let dense = &mut t.tab[i * n..(i + 1) * n];
        for &(j, a) in row {
            dense[j] = a;
            let start = match t.status[j] {
                ColStatus::AtUpper => col_upper[j],
                _ => col_lower[j],
            };
            t.xb[i] -= a * start;
        }
        if t.xb[i] < 0.0 {
            for v in dense.iter_mut() {
                *v = -*v;
            }
            t.xb[i] = -t.xb[i];
        }
    }
    t.w = n;
    t.m = m;
    t.lower.clear();
    t.lower.extend_from_slice(col_lower);
    t.lower.resize(ncols, 0.0);
    t.upper.clear();
    t.upper.extend_from_slice(col_upper);
    t.upper.resize(ncols, f64::INFINITY);
    t.basis.clear();
    t.basis.extend(n..ncols);
    t.diag.clear();
    t.diag.resize(m, 1.0);
    t.cols.clear();
    t.cols.extend(0..n);
    t.order.clear();
    t.order.extend(0..n);

    // Phase 1: minimize the sum of artificials.
    let mut costs = vec![0.0; ncols];
    costs[n..].fill(1.0);
    match t.optimize(&costs, max_iters, iters) {
        Ok(()) => {
            let w = objective(&t.values(), &costs);
            if w > FEAS_EPS * (1.0 + problem.rhs.iter().map(|r| r.abs()).sum::<f64>()) {
                return (failed(LpStatus::Infeasible), None);
            }
        }
        Err(LpStatus::Unbounded) => unreachable!("phase 1 objective is bounded below"),
        Err(s) => return (failed(s), None),
    }
    // Fix artificials at zero for phase 2 (basic-at-zero artificials may
    // remain; being fixed, they can never carry value again).
    for j in n..ncols {
        t.lower[j] = 0.0;
        t.upper[j] = 0.0;
        if t.status[j] != ColStatus::Basic {
            t.status[j] = ColStatus::AtLower;
        }
    }

    // Phase 2: the real objective.
    costs[..n].copy_from_slice(&problem.costs);
    costs[n..].fill(0.0);
    match t.optimize(&costs, max_iters, iters) {
        Ok(()) => {
            let mut values = t.values();
            let obj = objective(&values, &costs);
            values.truncate(n);
            let snapshot = want_basis.then(|| BasisSnapshot::of(t));
            (
                LpSolution {
                    status: LpStatus::Optimal,
                    objective: obj + problem.objective_offset,
                    values,
                },
                snapshot,
            )
        }
        Err(s) => (failed(s), None),
    }
}

/// What a thread keeps from one LP solve to the next for one
/// [`WarmContext`]: the node's column bounds, the tableau with its
/// scratch, and the last warm factorization with what it came from.
/// Pass the same buffers to every [`WarmContext::solve_relaxation_in`]
/// call of one context; they never change a result's bits.
///
/// The factor (`B⁻¹N` and `diag` over the live columns, and `B⁻¹b`)
/// depends on the problem, the snapshot's basis columns in order, and
/// which columns are live, and on nothing else. The two children of a
/// node share their parent's snapshot and differ only in the bounds of
/// the variable branched on, which is basic in that snapshot, so they
/// have the same live columns and the same factor; the second one,
/// usually solved right after the first, copies it instead of
/// refactoring. A copy has the same bits as a refactor. One
/// `LpBuffers` serves one [`WarmContext`]: the cache does not record
/// the problem.
#[derive(Debug, Default)]
pub struct LpBuffers {
    lower: Vec<f64>,
    upper: Vec<f64>,
    tableau: Tableau,
    factor: Factor,
}

/// A kept factorization (see [`LpBuffers`]).
#[derive(Debug, Default)]
struct Factor {
    /// The snapshot basis columns, in order; empty when nothing is kept.
    basis: Vec<u32>,
    /// The problem column of each refactor slot.
    cols: Vec<usize>,
    /// The refactored tableau rows, `B⁻¹b`, `diag`, and the basis
    /// column of each row.
    tab: Vec<f64>,
    rhs: Vec<f64>,
    diag: Vec<f64>,
    rows: Vec<usize>,
}

/// Rebuilds `t` from a basis snapshot under new column bounds: refactors
/// `B⁻¹N` by Gauss–Jordan ([`factor_basis`]), or copies the factor
/// `factor` kept when it came from the same basis and live columns.
/// Returns `None` when the snapshot does not fit this problem or the
/// basis is numerically singular — callers fall back to a cold solve.
///
/// The tableau leaves out every column that is nonbasic in the snapshot
/// and pinned at [0, 0] by the new bounds: every artificial the
/// snapshot does not keep basic, and every binary that branching fixed
/// at 0. Status and bounds always cover all `n + m` columns. Row scaling
/// from the cold path's sign flips is immaterial: `B⁻¹A` is invariant
/// under row scaling of `[A | b]`, so artificial columns are laid down
/// as `+eᵢ` unconditionally here.
fn warm_tableau(
    problem: &LpProblem,
    col_lower: &[f64],
    col_upper: &[f64],
    snap: &BasisSnapshot,
    t: &mut Tableau,
    factor: &mut Factor,
) -> Option<()> {
    let m = problem.row_count();
    let n = problem.col_count();
    let ncols = n + m;
    if snap.basis.len() != m || snap.at_upper.len() != ncols.div_ceil(8) {
        return None;
    }

    // Column bounds in problem layout; artificials stay pinned at zero
    // (they were fixed after phase 1 of the solve the snapshot came from).
    t.lower.clear();
    t.lower.extend_from_slice(col_lower);
    t.lower.resize(ncols, 0.0);
    t.upper.clear();
    t.upper.extend_from_slice(col_upper);
    t.upper.resize(ncols, 0.0);

    // Statuses: basis membership wins; other columns keep their snapshot
    // rest bound, re-read against the *new* bounds — that re-read is the
    // entire warm start.
    t.status.clear();
    t.status.extend((0..ncols).map(|j| {
        if snap.at_upper(j) && t.upper[j].is_finite() {
            ColStatus::AtUpper
        } else {
            ColStatus::AtLower
        }
    }));
    for c in snap.columns() {
        if std::mem::replace(t.status.get_mut(c)?, ColStatus::Basic) == ColStatus::Basic {
            return None; // a column twice in the basis: singular
        }
    }

    // Refactor slots: the nonbasic live columns in ascending order, then
    // the basis columns in reverse snapshot order.
    t.cols.clear();
    t.cols.extend(
        (0..ncols).filter(|&j| {
            t.status[j] != ColStatus::Basic && (t.lower[j] != 0.0 || t.upper[j] != 0.0)
        }),
    );
    let nb = t.cols.len();
    t.cols.extend(snap.columns().rev());
    t.w = t.cols.len();
    t.m = m;
    if factor.basis[..] == snap.basis[..] && factor.cols == t.cols {
        t.tab.clone_from(&factor.tab);
        t.xb.clone_from(&factor.rhs);
        t.diag.clone_from(&factor.diag);
        t.basis.clone_from(&factor.rows);
    } else {
        factor.basis.clear();
        factor_basis(problem, t)?;
        factor.basis.extend_from_slice(&snap.basis);
        factor.cols.clone_from(&t.cols);
        factor.tab.clone_from(&t.tab);
        factor.rhs.clone_from(&t.xb);
        factor.diag.clone_from(&t.diag);
        factor.rows.clone_from(&t.basis);
    }
    t.cols.truncate(nb);
    t.order.clear();
    t.order.extend(0..nb);

    // Basic values: xb = B⁻¹b − Σ (B⁻¹A)ⱼ·xⱼ over nonbasic columns in
    // ascending order (columns left out rest at zero and add nothing).
    let Tableau {
        tab,
        w,
        cols,
        order,
        xb,
        status,
        lower,
        upper,
        ..
    } = t;
    for &k in order.iter() {
        let j = cols[k];
        let v = match status[j] {
            ColStatus::Basic => continue,
            ColStatus::AtLower => lower[j],
            ColStatus::AtUpper => upper[j],
        };
        if v != 0.0 {
            for (x, row) in xb.iter_mut().zip(tab.chunks_exact(*w)) {
                let a = row[k];
                if a != 0.0 {
                    *x -= a * v;
                }
            }
        }
    }
    Some(())
}

/// Lays the problem rows over the refactor slots of `t` (`t.cols`,
/// with the basis columns last in reverse snapshot order) and factors
/// the basis: step `s` gives basis column `s`, in slot `w − 1 − s`, the
/// remaining row with the largest pivot, and eliminates it from all
/// other rows and the transformed RHS over slots `[0, w − s)` only —
/// the slots of already-processed basis columns hold their `diag` and
/// zeros, which the step would leave as they are. Fills `t.xb` with
/// `B⁻¹b`, `t.basis` and `t.diag`; `None` for a numerically singular
/// basis.
fn factor_basis(problem: &LpProblem, t: &mut Tableau) -> Option<()> {
    let m = problem.row_count();
    let n = problem.col_count();
    let w = t.w;
    let Tableau {
        tab,
        cols,
        diag,
        xb,
        basis,
        slot_of,
        ..
    } = t;
    slot_of.clear();
    slot_of.resize(n + m, usize::MAX);
    for (k, &j) in cols.iter().enumerate() {
        slot_of[j] = k;
    }
    tab.clear();
    tab.resize(m * w, 0.0);
    for (i, row) in problem.rows.iter().enumerate() {
        let dense = &mut tab[i * w..(i + 1) * w];
        for &(j, a) in row {
            if slot_of[j] != usize::MAX {
                dense[slot_of[j]] = a;
            }
        }
        if slot_of[n + i] != usize::MAX {
            dense[slot_of[n + i]] = 1.0;
        }
    }
    xb.clone_from(&problem.rhs);
    diag.clear();
    diag.resize(m, 0.0);
    basis.clear();
    basis.resize(m, usize::MAX); // usize::MAX: no pivot yet
    for s in 0..m {
        let k = w - 1 - s;
        let mut best: Option<(usize, f64)> = None;
        for (r, &b) in basis.iter().enumerate() {
            if b != usize::MAX {
                continue;
            }
            let a = tab[r * w + k].abs();
            if best.is_none_or(|(_, ba)| a > ba) {
                best = Some((r, a));
            }
        }
        let (r, mag) = best?;
        if mag <= 1e-8 {
            return None; // singular basis: cold fallback
        }
        xb[r] *= 1.0 / tab[r * w + k];
        let prhs = xb[r];
        diag[r] = eliminate(tab, w, k + 1, r, k, 0.0, |i, f| xb[i] -= f * prhs);
        basis[r] = cols[k];
    }
    Some(())
}

/// Warm solve under the column bounds in `bufs`: rebuilds the parent
/// basis under them, restores
/// primal feasibility with the dual simplex, then polishes with the
/// primal simplex. `None` means "fall back to a cold solve" (singular
/// rebuild or iteration trouble); `Some` carries a definitive answer —
/// including a sound `Infeasible` from the dual ratio test.
///
/// `costs` covers all `n + m` columns (artificials at zero), so the
/// objective sums the same terms as a full-width solve. The tableau
/// holds the live columns only (see [`warm_tableau`]). A left-out
/// column is nonbasic and pinned at [0, 0], so pricing would skip it
/// as fixed, it never enters, and the `xb` sum skips its zero rest
/// value: no entry of it is ever read. Gauss–Jordan row operations act
/// on each column independently, so leaving it out changes no other
/// entry, and every answer, pivot and snapshot is bit-identical to a
/// full-width solve.
fn solve_warm(
    problem: &LpProblem,
    costs: &[f64],
    snap: &BasisSnapshot,
    iters: &mut u64,
    bufs: &mut LpBuffers,
) -> Option<(LpSolution, Option<BasisSnapshot>)> {
    let LpBuffers {
        lower,
        upper,
        tableau: t,
        factor,
    } = bufs;
    warm_tableau(problem, lower, upper, snap, t, factor)?;
    let m = problem.row_count();
    let n = problem.col_count();

    // Dual repair should take a handful of pivots; a long fight means the
    // parent basis was a bad start, and a cold solve is the better spend.
    let dual_cap = 100 * m as u64 + 1_000;
    match t.dual_restore(costs, dual_cap, iters) {
        Ok(()) => {}
        Err(LpStatus::Infeasible) => return Some((failed(LpStatus::Infeasible), None)),
        Err(_) => return None,
    }

    // The cap counts the problem's `n + m` columns, not the tableau
    // width, so a narrow tableau keeps the cold path's iteration limit.
    let max_iters = 200 * (m as u64 + (n + m) as u64) + 20_000;
    t.optimize(costs, max_iters, iters).ok()?;
    let mut values = t.values();
    let obj = objective(&values, costs);
    values.truncate(n);
    Some((
        LpSolution {
            status: LpStatus::Optimal,
            objective: obj + problem.objective_offset,
            values,
        },
        Some(BasisSnapshot::of(t)),
    ))
}

/// Convenience: solve the LP relaxation of a model under bound overrides,
/// returning structural-variable values and the objective in the model's
/// own sense. Always a cold two-phase solve over the eliminating
/// [`LpProblem::from_model`] layout: the reference the warm path
/// ([`WarmContext::solve_relaxation_in`]) is tested against.
///
/// # Errors
///
/// Maps non-optimal statuses onto [`MilpError`].
// flex-lint: allow(A1): the cold, eliminating-layout reference that the simplex unit tests and tests/properties.rs check the warm path against
pub fn solve_relaxation(
    model: &Model,
    bounds: &[(f64, f64)],
) -> Result<(f64, Vec<f64>), MilpError> {
    let problem = LpProblem::from_model(model, bounds);
    let sol = solve(&problem);
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
    /// The phase-2 costs over all `n + m` columns (artificials at zero).
    costs: Vec<f64>,
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
        let mut costs = problem.costs.clone();
        costs.resize(problem.col_count() + problem.row_count(), 0.0);
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
            costs,
            sign,
            nvars: model.var_count(),
            int_vars,
        }
    }

    /// Solves the relaxation under `bounds`, warm-starting from `basis`
    /// when given (falling back to a cold solve on numerical failure —
    /// correctness never depends on the warm path). `bufs` is what a
    /// caller keeps across its solves of this context's problem: the
    /// tableau and its scratch are allocated once, and a node's sibling
    /// copies the node's factorization (see [`LpBuffers`]). The buffers
    /// never change a result's bits.
    ///
    /// # Errors
    ///
    /// Maps non-optimal LP statuses onto [`MilpError`].
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len()` differs from the model's variable count.
    pub fn solve_relaxation_in(
        &self,
        bounds: &[(f64, f64)],
        basis: Option<&BasisSnapshot>,
        bufs: &mut LpBuffers,
    ) -> Result<RelaxSolve, MilpError> {
        assert_eq!(bounds.len(), self.nvars, "bounds length mismatch");
        let p = &self.problem;
        // Structural columns map 1:1 onto model variables (dense layout);
        // intersect node bounds with model bounds defensively, then keep
        // slack bounds as built.
        bufs.lower.clone_from(&p.lower);
        bufs.upper.clone_from(&p.upper);
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            bufs.lower[i] = lo.max(p.lower[i]);
            bufs.upper[i] = hi.min(p.upper[i]);
        }

        let mut iters = 0;
        let mut warmed = false;
        let outcome = basis
            .and_then(|snap| {
                let out = solve_warm(p, &self.costs, snap, &mut iters, bufs);
                warmed = out.is_some();
                out
            })
            .unwrap_or_else(|| {
                let LpBuffers {
                    lower,
                    upper,
                    tableau,
                    ..
                } = bufs;
                solve_two_phase(p, lower, upper, &mut iters, true, tableau)
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

/// The dense full-width simplex, kept as a test reference for the
/// condensed [`Tableau`]: its tableau holds `B⁻¹A` over
/// all `n + m` columns, artificials, basic and pinned columns included,
/// eliminates across every column, and prices each column as one
/// strided dot product over the rows. Its outputs get the same `−0.0`
/// normalization as the solver's, so the two must agree bit for bit.
///
/// It also records what each solve did ([`Trace`]), so the tests can
/// show that their cases reach the paths the condensed layout changes.
#[cfg(test)]
mod reference {
    use super::{
        failed, objective, BasisSnapshot, ColStatus, LpProblem, LpSolution, LpStatus,
        DEGENERACY_GUARD, FEAS_EPS, PIVOT_EPS, PRICE_EPS,
    };

    /// What one reference solve did.
    #[derive(Debug, Default, Clone, Copy)]
    pub(super) struct Trace {
        /// Pivots of the dual simplex.
        pub dual_pivots: u64,
        /// Pivots whose entering column had left the basis earlier in the
        /// same solve: the condensed tableau reads a column it derived from
        /// `diag`.
        pub reentries: u32,
        /// Artificial columns that left the basis.
        pub artificials_left: u32,
        /// Output values and objectives that were `−0.0` before
        /// normalization.
        pub negative_zeros: u32,
    }

    struct Dense {
        /// m × `w` row-major `B⁻¹A`, column `j` at tableau column `j`.
        tab: Vec<f64>,
        w: usize,
        xb: Vec<f64>,
        basis: Vec<usize>,
        status: Vec<ColStatus>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        /// Artificial columns start here.
        artificial: usize,
        /// Columns that have left the basis in this solve.
        left: Vec<bool>,
        trace: Trace,
    }

    /// The full-width Gauss–Jordan step: scales the whole pivot row, and
    /// subtracts it from every other row with a nonzero entry in `col`,
    /// whose entry in `col` is then set to zero.
    fn eliminate(
        tab: &mut [f64],
        w: usize,
        row: usize,
        col: usize,
        mut on_row: impl FnMut(usize, f64),
    ) {
        let p = tab[row * w + col];
        let inv = 1.0 / p;
        for v in &mut tab[row * w..(row + 1) * w] {
            *v *= inv;
        }
        let prow = tab[row * w..(row + 1) * w].to_vec();
        for (i, r) in tab.chunks_exact_mut(w).enumerate() {
            if i == row {
                continue;
            }
            let f = r[col];
            if f != 0.0 {
                for (v, pv) in r.iter_mut().zip(&prow) {
                    *v -= f * pv;
                }
                r[col] = 0.0;
                on_row(i, f);
            }
        }
    }

    impl Dense {
        fn at(&self, i: usize, k: usize) -> f64 {
            self.tab[i * self.w + k]
        }

        fn raw_values(&self) -> Vec<f64> {
            let mut v: Vec<f64> = (0..self.w)
                .map(|j| match self.status[j] {
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

        /// The normalized values and objective, counting the `−0.0`s that
        /// the raw ones would have had.
        fn finish(&mut self, costs: &[f64]) -> (Vec<f64>, f64) {
            let raw = self.raw_values();
            let raw_obj = raw.iter().zip(costs).map(|(x, c)| x * c).sum::<f64>();
            let is_neg_zero = |v: &f64| *v == 0.0 && v.is_sign_negative();
            self.trace.negative_zeros += (raw.iter().filter(|v| is_neg_zero(v)).count()
                + usize::from(is_neg_zero(&raw_obj)))
                as u32;
            let values: Vec<f64> = raw.iter().map(|v| v + 0.0).collect();
            let obj = objective(&values, costs);
            (values, obj)
        }

        /// `c_j − c_Bᵀ·tab[:, j]`, over the rows in order.
        fn reduced_cost(&self, costs: &[f64], j: usize) -> f64 {
            let mut d = costs[j];
            for (i, &b) in self.basis.iter().enumerate() {
                let cb = costs[b];
                if cb != 0.0 {
                    d -= cb * self.at(i, j);
                }
            }
            d
        }

        fn pivot(&mut self, r: usize, j: usize) {
            let leaving = self.basis[r];
            self.trace.reentries += u32::from(self.left[j]);
            self.left[leaving] = true;
            self.trace.artificials_left += u32::from(leaving >= self.artificial);
            eliminate(&mut self.tab, self.w, r, j, |_, _| {});
        }

        fn optimize(
            &mut self,
            costs: &[f64],
            max_iters: u64,
            iters: &mut u64,
        ) -> Result<(), LpStatus> {
            let mut degenerate_streak: u32 = 0;
            for _ in 0..max_iters {
                let mut entering: Option<(usize, f64, f64)> = None;
                let use_bland = degenerate_streak >= DEGENERACY_GUARD;
                for j in 0..self.w {
                    if self.status[j] == ColStatus::Basic
                        || self.upper[j] - self.lower[j] < PIVOT_EPS
                    {
                        continue;
                    }
                    let d = self.reduced_cost(costs, j);
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
                    return Ok(());
                };
                *iters += 1;
                let mut t_max = self.upper[j] - self.lower[j];
                let mut leaving: Option<(usize, ColStatus)> = None;
                for i in 0..self.basis.len() {
                    let a = sigma * self.at(i, j);
                    if a > PIVOT_EPS {
                        let room = self.xb[i] - self.lower[self.basis[i]];
                        let t = room.max(0.0) / a;
                        if t < t_max {
                            t_max = t;
                            leaving = Some((i, ColStatus::AtLower));
                        }
                    } else if a < -PIVOT_EPS {
                        let ub = self.upper[self.basis[i]];
                        if ub.is_finite() {
                            let t = (ub - self.xb[i]).max(0.0) / (-a);
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
                for i in 0..self.basis.len() {
                    self.xb[i] -= sigma * t_max * self.at(i, j);
                }
                let start = match self.status[j] {
                    ColStatus::AtLower => self.lower[j],
                    ColStatus::AtUpper => self.upper[j],
                    ColStatus::Basic => unreachable!(),
                };
                match leaving {
                    None => {
                        self.status[j] = match self.status[j] {
                            ColStatus::AtLower => ColStatus::AtUpper,
                            _ => ColStatus::AtLower,
                        };
                    }
                    Some((row, bound_hit)) => {
                        let leaving_col = self.basis[row];
                        self.status[leaving_col] = bound_hit;
                        self.pivot(row, j);
                        self.basis[row] = j;
                        self.status[j] = ColStatus::Basic;
                        self.xb[row] = start + sigma * t_max;
                    }
                }
            }
            Err(LpStatus::IterationLimit)
        }

        fn dual_restore(
            &mut self,
            costs: &[f64],
            max_iters: u64,
            iters: &mut u64,
        ) -> Result<(), LpStatus> {
            for _ in 0..max_iters {
                let mut leave: Option<(usize, f64, f64)> = None;
                for i in 0..self.basis.len() {
                    let b = self.basis[i];
                    let above = self.xb[i] - self.upper[b];
                    let below = self.lower[b] - self.xb[i];
                    let viol = above.max(below);
                    if viol > FEAS_EPS {
                        let delta = if above >= below { above } else { -below };
                        match leave {
                            Some((_, _, best)) if best >= viol => {}
                            _ => leave = Some((i, delta, viol)),
                        }
                    }
                }
                let Some((r, delta, _)) = leave else {
                    return Ok(());
                };
                let case_above = delta > 0.0;
                let mut enter: Option<(usize, f64, f64)> = None;
                for j in 0..self.w {
                    if self.status[j] == ColStatus::Basic
                        || self.upper[j] - self.lower[j] < PIVOT_EPS
                    {
                        continue;
                    }
                    let a = self.at(r, j);
                    let (lo, up) = (
                        self.status[j] == ColStatus::AtLower,
                        self.status[j] == ColStatus::AtUpper,
                    );
                    let eligible = if case_above {
                        (lo && a > PIVOT_EPS) || (up && a < -PIVOT_EPS)
                    } else {
                        (lo && a < -PIVOT_EPS) || (up && a > PIVOT_EPS)
                    };
                    if !eligible {
                        continue;
                    }
                    let ratio = (self.reduced_cost(costs, j) / a).abs();
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
                self.trace.dual_pivots += 1;
                let step = delta / self.at(r, j);
                let start = match self.status[j] {
                    ColStatus::AtLower => self.lower[j],
                    ColStatus::AtUpper => self.upper[j],
                    ColStatus::Basic => unreachable!(),
                };
                for i in 0..self.basis.len() {
                    if i != r {
                        self.xb[i] -= self.at(i, j) * step;
                    }
                }
                let leaving_col = self.basis[r];
                self.status[leaving_col] = if case_above {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
                self.pivot(r, j);
                self.basis[r] = j;
                self.status[j] = ColStatus::Basic;
                self.xb[r] = start + step;
            }
            Err(LpStatus::IterationLimit)
        }
    }

    /// The reference cold two-phase solve, from the all-artificial basis;
    /// it always returns the final basis.
    pub(super) fn solve_cold(
        problem: &LpProblem,
        col_lower: &[f64],
        col_upper: &[f64],
        iters: &mut u64,
    ) -> (LpSolution, Option<BasisSnapshot>, Trace) {
        let m = problem.row_count();
        let n = problem.col_count();
        let w = n + m;
        let max_iters = 200 * (m as u64 + w as u64) + 20_000;
        let mut status = vec![ColStatus::Basic; w];
        for j in 0..n {
            status[j] = if col_upper[j].is_finite() && col_upper[j].abs() < col_lower[j].abs() {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
        }
        let mut tab = vec![0.0; m * w];
        let mut xb = problem.rhs.clone();
        for (i, row) in problem.rows.iter().enumerate() {
            for &(j, a) in row {
                tab[i * w + j] = a;
                let start = if status[j] == ColStatus::AtUpper {
                    col_upper[j]
                } else {
                    col_lower[j]
                };
                xb[i] -= a * start;
            }
            if xb[i] < 0.0 {
                for v in &mut tab[i * w..(i + 1) * w] {
                    *v = -*v;
                }
                xb[i] = -xb[i];
            }
            tab[i * w + n + i] = 1.0;
        }
        let mut lower = col_lower.to_vec();
        lower.resize(w, 0.0);
        let mut upper = col_upper.to_vec();
        upper.resize(w, f64::INFINITY);
        let mut t = Dense {
            tab,
            w,
            xb,
            basis: (n..w).collect(),
            status,
            lower,
            upper,
            artificial: n,
            left: vec![false; w],
            trace: Trace::default(),
        };
        let mut costs = vec![0.0; w];
        costs[n..].fill(1.0);
        match t.optimize(&costs, max_iters, iters) {
            Ok(()) => {
                let wsum = objective(&t.raw_values(), &costs);
                if wsum > FEAS_EPS * (1.0 + problem.rhs.iter().map(|r| r.abs()).sum::<f64>()) {
                    return (failed(LpStatus::Infeasible), None, t.trace);
                }
            }
            Err(s) => return (failed(s), None, t.trace),
        }
        for j in n..w {
            t.lower[j] = 0.0;
            t.upper[j] = 0.0;
            if t.status[j] != ColStatus::Basic {
                t.status[j] = ColStatus::AtLower;
            }
        }
        costs[..n].copy_from_slice(&problem.costs);
        costs[n..].fill(0.0);
        match t.optimize(&costs, max_iters, iters) {
            Ok(()) => {
                let (mut values, obj) = t.finish(&costs);
                values.truncate(n);
                let snap = BasisSnapshot::new(&t.basis, &t.status);
                let sol = LpSolution {
                    status: LpStatus::Optimal,
                    objective: obj + problem.objective_offset,
                    values,
                };
                (sol, Some(snap), t.trace)
            }
            Err(s) => (failed(s), None, t.trace),
        }
    }

    /// The reference warm solve from `snap`: a full-width refactor, the
    /// dual simplex, then the primal polish.
    pub(super) fn solve_warm(
        problem: &LpProblem,
        col_lower: &[f64],
        col_upper: &[f64],
        snap: &BasisSnapshot,
        iters: &mut u64,
    ) -> (Option<(LpSolution, Option<BasisSnapshot>)>, Trace) {
        let m = problem.row_count();
        let n = problem.col_count();
        let w = n + m;
        let trace = Trace::default();
        if snap.basis.len() != m || snap.at_upper.len() != w.div_ceil(8) {
            return (None, trace);
        }
        let mut lower = col_lower.to_vec();
        lower.resize(w, 0.0);
        let mut upper = col_upper.to_vec();
        upper.resize(w, 0.0);
        let mut tab = vec![0.0; m * w];
        for (i, row) in problem.rows.iter().enumerate() {
            for &(j, a) in row {
                tab[i * w + j] = a;
            }
            tab[i * w + n + i] = 1.0;
        }
        let mut xb = problem.rhs.clone();
        let mut basis = vec![usize::MAX; m];
        let mut status: Vec<ColStatus> = (0..w)
            .map(|j| {
                if snap.at_upper(j) && upper[j].is_finite() {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                }
            })
            .collect();
        for c in snap.columns() {
            if c >= w || status[c] == ColStatus::Basic {
                return (None, trace);
            }
            status[c] = ColStatus::Basic;
            let mut best: Option<(usize, f64)> = None;
            for r in (0..m).filter(|&r| basis[r] == usize::MAX) {
                let a = tab[r * w + c].abs();
                if best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((r, a));
                }
            }
            let Some((r, mag)) = best else {
                return (None, trace);
            };
            if mag <= 1e-8 {
                return (None, trace);
            }
            xb[r] *= 1.0 / tab[r * w + c];
            let prhs = xb[r];
            eliminate(&mut tab, w, r, c, |i, f| xb[i] -= f * prhs);
            basis[r] = c;
        }
        for j in 0..w {
            let v = match status[j] {
                ColStatus::Basic => continue,
                ColStatus::AtLower => lower[j],
                ColStatus::AtUpper => upper[j],
            };
            if v != 0.0 {
                for (x, row) in xb.iter_mut().zip(tab.chunks_exact(w)) {
                    let a = row[j];
                    if a != 0.0 {
                        *x -= a * v;
                    }
                }
            }
        }
        let mut t = Dense {
            tab,
            w,
            xb,
            basis,
            status,
            lower,
            upper,
            artificial: n,
            left: vec![false; w],
            trace,
        };
        let mut costs = problem.costs.clone();
        costs.resize(w, 0.0);
        match t.dual_restore(&costs, 100 * m as u64 + 1_000, iters) {
            Ok(()) => {}
            Err(LpStatus::Infeasible) => {
                return (Some((failed(LpStatus::Infeasible), None)), t.trace)
            }
            Err(_) => return (None, t.trace),
        }
        let max_iters = 200 * (m as u64 + w as u64) + 20_000;
        if t.optimize(&costs, max_iters, iters).is_err() {
            return (None, t.trace);
        }
        let (mut values, obj) = t.finish(&costs);
        values.truncate(n);
        let snap = BasisSnapshot::new(&t.basis, &t.status);
        let sol = LpSolution {
            status: LpStatus::Optimal,
            objective: obj + problem.objective_offset,
            values,
        };
        (Some((sol, Some(snap))), t.trace)
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
        let mut bufs = LpBuffers::default();
        let root = model_bounds(&m);
        let parent = ctx.solve_relaxation_in(&root, None, &mut bufs).unwrap();
        assert!(!parent.warmed);

        // Branch on every binary in both directions; warm objective must
        // equal the cold objective at each child.
        for j in 0..3 {
            for fixed in [0.0, 1.0] {
                let mut child = root.clone();
                child[j] = (fixed, fixed);
                let warm = ctx
                    .solve_relaxation_in(&child, Some(&parent.basis), &mut bufs)
                    .unwrap();
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
        let mut bufs = LpBuffers::default();
        let root = model_bounds(&m);
        let parent = ctx.solve_relaxation_in(&root, None, &mut bufs).unwrap();
        let child = vec![(0.0, 0.0), (0.0, 0.0)];
        assert_eq!(
            ctx.solve_relaxation_in(&child, Some(&parent.basis), &mut bufs)
                .map(|_| ()),
            Err(MilpError::Infeasible)
        );
    }

    #[test]
    fn warm_chain_stays_consistent() {
        // Fix binaries one at a time, warm-starting each child from its
        // parent — the realistic branch-and-bound dive pattern.
        let m = warm_test_model();
        let ctx = WarmContext::new(&m);
        let mut bufs = LpBuffers::default();
        let mut bounds = model_bounds(&m);
        let mut relax = ctx.solve_relaxation_in(&bounds, None, &mut bufs).unwrap();
        for (j, fixed) in [(2usize, 1.0), (1usize, 0.0), (0usize, 1.0)] {
            bounds[j] = (fixed, fixed);
            relax = match ctx.solve_relaxation_in(&bounds, Some(&relax.basis), &mut bufs) {
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
        let mut bufs = LpBuffers::default();
        let root: Vec<(f64, f64)> = m.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let parent = ctx.solve_relaxation_in(&root, None, &mut bufs).unwrap();

        let mut child = root.clone();
        child[n / 2] = (1.0, 1.0);
        let warm = ctx
            .solve_relaxation_in(&child, Some(&parent.basis), &mut bufs)
            .unwrap();
        let cold = ctx.solve_relaxation_in(&child, None, &mut bufs).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.warmed);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} pivots vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    /// A placement-shaped model: `deps × pairs` assignment binaries, an
    /// at-most-one row per deployment and a capacity row per PDU pair
    /// that fits about 80% of the total power, the structure
    /// flex-placement hands the solver.
    fn placement_like(deps: usize, pairs: usize) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let power: Vec<f64> = (0..deps)
            .map(|d| ((d * 37 + 11) % 50 + 10) as f64)
            .collect();
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
        let cap = power.iter().sum::<f64>() * 0.8 / pairs as f64;
        for p in 0..pairs {
            let terms = x.iter().zip(&power).map(|(row, &w)| (row[p], w));
            m.add_constraint(format!("cap{p}"), terms, Relation::Le, cap)
                .unwrap();
        }
        m
    }

    #[test]
    fn warm_dive_never_falls_back_cold() {
        // Eight successive re-solves through one kept set of buffers, as
        // a search thread dives: each fixes the most fractional binary
        // of the solve before at its nearer integer and starts from that
        // solve's basis. Every step must stay on the warm path and agree
        // with the cold reference.
        let m = placement_like(40, 5);
        let ctx = WarmContext::new(&m);
        let mut bufs = LpBuffers::default();
        let mut bounds = model_bounds(&m);
        let mut at = ctx.solve_relaxation_in(&bounds, None, &mut bufs).unwrap();
        let frac = |v: f64| (v - v.round()).abs();
        for step in 0..8 {
            let j = (0..at.values.len())
                .max_by(|&a, &b| frac(at.values[a]).total_cmp(&frac(at.values[b])))
                .unwrap();
            assert!(
                frac(at.values[j]) > 0.0,
                "step {step}: the dive reached an integral solution"
            );
            let v = at.values[j].round();
            bounds[j] = (v, v);
            at = ctx
                .solve_relaxation_in(&bounds, Some(&at.basis), &mut bufs)
                .unwrap();
            assert!(
                at.warmed,
                "step {step}: the re-solve fell back to a cold solve"
            );
            let (cold_obj, _) = solve_relaxation(&m, &bounds).unwrap();
            assert!(
                (at.objective - cold_obj).abs() < 1e-6,
                "step {step}: warm {} vs cold {cold_obj}",
                at.objective
            );
        }
    }

    type WarmOutcome = Option<(LpSolution, Option<BasisSnapshot>)>;

    /// The solver's warm solve under explicit bounds, in `bufs`.
    fn fast_warm(
        problem: &LpProblem,
        (lower, upper): (&[f64], &[f64]),
        snap: &BasisSnapshot,
        iters: &mut u64,
        bufs: &mut LpBuffers,
    ) -> WarmOutcome {
        let mut costs = problem.costs.clone();
        costs.resize(problem.col_count() + problem.row_count(), 0.0);
        bufs.lower = lower.to_vec();
        bufs.upper = upper.to_vec();
        solve_warm(problem, &costs, snap, iters, bufs)
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

    /// The live columns of the warm tableau `snap` gives under the
    /// bounds: its nonbasic slots and its basis, ascending; empty when
    /// the refactor fails.
    fn live_columns(
        problem: &LpProblem,
        lower: &[f64],
        upper: &[f64],
        snap: &BasisSnapshot,
    ) -> Vec<usize> {
        let mut b = LpBuffers::default();
        let (t, f) = (&mut b.tableau, &mut b.factor);
        if warm_tableau(problem, lower, upper, snap, t, f).is_none() {
            return Vec::new();
        }
        let mut live: Vec<usize> = t.cols.iter().chain(&t.basis).copied().collect();
        live.sort_unstable();
        live
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

    /// What the reference solves of one [`check_warm_chain`] run did.
    #[derive(Debug, Default)]
    struct ChainTrace {
        /// Summed over every reference solve, warm and cold.
        total: reference::Trace,
        /// Warm solves that took at least two dual pivots.
        multi_dual: u32,
    }

    impl ChainTrace {
        fn add(&mut self, t: reference::Trace, warm: bool) {
            self.total.dual_pivots += t.dual_pivots;
            self.total.reentries += t.reentries;
            self.total.artificials_left += t.artificials_left;
            self.total.negative_zeros += t.negative_zeros;
            self.multi_dual += u32::from(warm && t.dual_pivots >= 2);
        }
    }

    /// Solves cold in `bufs` and with the reference, and fails unless
    /// both agree bit for bit. Returns the solution and its basis when
    /// the solve was optimal.
    fn check_cold(
        problem: &LpProblem,
        (lower, upper): (&[f64], &[f64]),
        bufs: &mut LpBuffers,
        trace: &mut ChainTrace,
        what: &str,
    ) -> Result<Option<(LpSolution, BasisSnapshot)>, String> {
        let (mut fast_iters, mut ref_iters) = (0, 0);
        let t = &mut bufs.tableau;
        let fast = Some(solve_two_phase(
            problem,
            lower,
            upper,
            &mut fast_iters,
            true,
            t,
        ));
        let (sol, snap, t) = reference::solve_cold(problem, lower, upper, &mut ref_iters);
        trace.add(t, false);
        let reference = Some((sol, snap));
        if fast_iters != ref_iters || outcome_bits(&fast) != outcome_bits(&reference) {
            return Err(format!(
                "{what} cold: solver {fast:?} in {fast_iters} pivots, reference {reference:?} \
                 in {ref_iters} pivots"
            ));
        }
        Ok(fast.and_then(|(sol, snap)| Some((sol, snap?))))
    }

    /// Runs a branch-and-bound-style chain of warm re-solves through the
    /// solver and the dense reference side by side. Each step tightens
    /// one integer column's bound around the previous solve's value
    /// (`up` raises the lower bound, otherwise the upper bound drops)
    /// and re-solves from the previous basis; then the step's sibling,
    /// with the bound tightened the other way, re-solves from the same
    /// basis through the same buffers, and both also solve cold. Fails
    /// unless every solve agrees bit for bit with the reference:
    /// objective, values, snapshot and pivot count. Returns the steps
    /// compared.
    fn check_warm_chain(
        problem: &LpProblem,
        int_cols: &[usize],
        chain: &[(usize, bool)],
    ) -> Result<(Vec<ChainStep>, ChainTrace), String> {
        let mut trace = ChainTrace::default();
        let mut bufs = LpBuffers::default();
        bufs.tableau.tab = vec![f64::NAN; 7]; // stale contents must not leak into a solve
        let mut lower = problem.lower.clone();
        let mut upper = problem.upper.clone();
        let Some((root, mut snap)) =
            check_cold(problem, (&lower, &upper), &mut bufs, &mut trace, "root")?
        else {
            return Ok((Vec::new(), trace));
        };
        let mut values = root.values;
        let mut steps = Vec::new();
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
            // Pricing alone, on the tableau this step starts from:
            // row-wise, and the dual's one slot at a time, against a
            // column-wise dot product.
            let mut scratch = LpBuffers::default();
            let (t, f) = (&mut scratch.tableau, &mut scratch.factor);
            if warm_tableau(problem, &lower, &upper, &snap, t, f).is_some() {
                let mut costs = problem.costs.clone();
                costs.resize(t.status.len(), 0.0);
                t.price(&costs);
                t.fill_basic_costs(&costs);
                let by_col: Vec<f64> = t
                    .cols
                    .iter()
                    .enumerate()
                    .map(|(k, &jj)| {
                        let mut d = costs[jj];
                        for (i, &b) in t.basis.iter().enumerate() {
                            if costs[b] != 0.0 {
                                d -= costs[b] * t.at(i, k);
                            }
                        }
                        d
                    })
                    .collect();
                let one_by_one: Vec<f64> = t
                    .cols
                    .iter()
                    .enumerate()
                    .map(|(k, &jj)| t.reduced_cost(costs[jj], k))
                    .collect();
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if bits(&t.reduced) != bits(&by_col) || bits(&one_by_one) != bits(&by_col) {
                    return Err(format!(
                        "step {step}: row-wise {:?}, one by one {one_by_one:?}, column-wise {by_col:?}",
                        t.reduced
                    ));
                }
            }
            let live = live_columns(problem, &lower, &upper, &snap);
            let mut next = None;
            for (which, lo, hi) in [
                ("step", &lower, &upper),
                ("sibling", &other_lower, &other_upper),
            ] {
                // The sibling is solved right after the step, with the
                // same buffers: it copies the step's factorization when
                // its live columns are the same.
                let (mut fast_iters, mut ref_iters) = (0, 0);
                let fast = fast_warm(problem, (lo, hi), &snap, &mut fast_iters, &mut bufs);
                let (reference, t) = reference::solve_warm(problem, lo, hi, &snap, &mut ref_iters);
                trace.add(t, true);
                if fast_iters != ref_iters || outcome_bits(&fast) != outcome_bits(&reference) {
                    return Err(format!(
                        "step {step} {which} (column {j}): solver {fast:?} in {fast_iters} \
                         pivots, reference {reference:?} in {ref_iters} pivots"
                    ));
                }
                check_cold(
                    problem,
                    (lo, hi),
                    &mut bufs,
                    &mut trace,
                    &format!("step {step} {which}"),
                )?;
                next = next.or(Some(fast));
            }
            steps.push(ChainStep {
                sibling_shares_factor: !live.is_empty()
                    && live_columns(problem, &other_lower, &other_upper, &snap) == live,
                start: snap,
                live,
                column: j,
                pinned_at: (lower[j] == upper[j]).then_some(lower[j]),
            });
            match next.flatten() {
                Some((sol, Some(s))) => {
                    snap = s;
                    values = sol.values;
                }
                _ => break, // infeasible child or cold fallback: the dive ends
            }
        }
        Ok((steps, trace))
    }

    /// Random mixed-integer maximize models of the same shape as
    /// `arb_mip` in `tests/properties.rs`, with their integer columns.
    /// Half of them have unit objectives and round the rest of their
    /// data to small integers, so reduced costs and dual ratios tie
    /// exactly and the tie-breaks, which depend on visiting order,
    /// decide pivots.
    fn arb_mip() -> impl Strategy<Value = (Model, Vec<usize>)> {
        // (is_integer, objective, upper bound)
        let var = (proptest::bool::ANY, 0.1f64..10.0, 1.0f64..4.0);
        let vars = proptest::collection::vec(var, 2..8);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(0.0f64..5.0, 8), 2.0f64..30.0),
            1..5,
        );
        (vars, rows, proptest::bool::ANY).prop_map(|(vars, rows, tied)| {
            let data = |v: f64, unit: f64| if tied { (v / unit).round() } else { v };
            let mut m = Model::new(Sense::Maximize);
            let mut int_cols = Vec::new();
            let ids: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &(is_int, obj, ub))| {
                    let obj = if tied { 1.0 } else { obj };
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
                let terms: Vec<_> = ids
                    .iter()
                    .zip(coeffs)
                    .map(|(&id, &c)| (id, data(c, 2.5)))
                    .collect();
                m.add_constraint(format!("r{k}"), terms, Relation::Le, data(*rhs, 1.0))
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
        /// Pivots whose entering column had left the basis earlier in
        /// the same solve, so the solver read a column it derived from
        /// `diag`.
        reentries: u32,
        /// Warm solves with at least two dual pivots.
        multi_dual: u32,
        /// Cold phase-1 artificials that left the basis.
        artificials_left: u32,
    }

    /// The condensed warm solve (priced row-wise in the primal and only
    /// over the ratio-test-eligible slots in the dual), and the cold
    /// solves at each node, are bit-identical to the dense full-width
    /// reference over dives of 3–6 warm re-solves. The check is not
    /// vacuous: across the cases, steps pin binaries at both 0 and 1,
    /// some step's tableau leaves a pinned structural column out, some
    /// sibling copies a factorization, some column re-enters the basis
    /// it left within one solve, some warm solve takes two or more dual
    /// pivots, and cold phase-1 artificials leave the basis.
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
                let (steps, trace) =
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
                c.reentries += trace.total.reentries;
                c.multi_dual += trace.multi_dual;
                c.artificials_left += trace.total.artificials_left;
                total.set(c);
                Ok(())
            },
        );
        let c = total.get();
        let counts = [
            c.binary_at_0,
            c.binary_at_1,
            c.dropped_pinned,
            c.factor_reused,
            c.reentries,
            c.multi_dual,
            c.artificials_left,
        ];
        assert!(counts.iter().all(|&k| k > 0), "vacuous chains: {c:?}");
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
        let (steps, _) = check_warm_chain(&problem, &[0, 1], &chain).unwrap();
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

    /// A one-row tableau whose two nonbasic slots are out of problem
    /// order, as after a pivot: slot 0 holds column 3, slot 1 column 1,
    /// both with entry 1 and cost −1 (column 0 is basic, column 2 left
    /// out). Columns 1 and 3 tie in both the primal's and the dual's
    /// choice, and the lower problem column must win, as in the
    /// full-width scan.
    fn out_of_order_tableau(xb: f64) -> Tableau {
        Tableau {
            tab: vec![1.0, 1.0],
            w: 2,
            cols: vec![3, 1],
            order: vec![1, 0],
            diag: vec![1.0],
            xb: vec![xb],
            basis: vec![0],
            status: vec![
                ColStatus::Basic,
                ColStatus::AtLower,
                ColStatus::AtLower,
                ColStatus::AtLower,
            ],
            lower: vec![0.0; 4],
            upper: vec![1.0, 1.0, 0.0, 1.0],
            m: 1,
            ..Tableau::default()
        }
    }

    #[test]
    fn ties_break_by_problem_column_not_slot() {
        let costs = [0.0, -1.0, 0.0, -1.0];
        // Primal: column 0 at 0.5 is feasible; 1 and 3 price at −1.
        let mut t = out_of_order_tableau(0.5);
        t.optimize(&costs, 10, &mut 0).unwrap();
        assert_eq!(t.basis, [1], "primal entering choice");
        // Dual: column 0 at 2 is above its bound; 1 and 3 have ratio 1
        // and pivot 1.
        let mut t = out_of_order_tableau(2.0);
        t.dual_restore(&costs, 10, &mut 0).unwrap();
        assert_eq!(t.basis, [1], "dual entering choice");
    }

    #[test]
    fn solutions_never_carry_negative_zero() {
        // maximize y − x s.t. y − 2x ≤ 0: the root puts y at 1 and x,
        // basic, at 0.5. Re-solved with y pinned at 0, the refactor
        // scales the row's zero right-hand side by 1/(−2), so x's raw
        // value is −0.0, and so is the raw objective; the solver's
        // outputs read +0.0.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 4.0, -1.0).unwrap();
        let y = m.add_binary("y", 1.0);
        m.add_constraint("c", vec![(y, 1.0), (x, -2.0)], Relation::Le, 0.0)
            .unwrap();
        let problem = LpProblem::from_model_dense(&m, &model_bounds(&m));
        let (steps, trace) = check_warm_chain(&problem, &[1], &[(0, false)]).unwrap();
        assert_eq!(steps.len(), 1);
        assert!(
            trace.total.negative_zeros > 0,
            "no raw −0.0 to normalize: {trace:?}"
        );
        let is_neg_zero = |v: f64| v == 0.0 && v.is_sign_negative();
        let mut lower = problem.lower.clone();
        let mut upper = problem.upper.clone();
        let mut bufs = LpBuffers::default();
        let (root, snap) =
            solve_two_phase(&problem, &lower, &upper, &mut 0, true, &mut bufs.tableau);
        (lower[1], upper[1]) = (0.0, 0.0);
        let (child, _) = fast_warm(
            &problem,
            (&lower, &upper),
            &snap.unwrap(),
            &mut 0,
            &mut bufs,
        )
        .expect("warm child solves");
        let cold = solve(&LpProblem::from_model_dense(&m, &[(0.0, 4.0), (0.0, 0.0)]));
        for sol in [&root, &child, &cold] {
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!(
                !is_neg_zero(sol.objective) && !sol.values.iter().any(|&v| is_neg_zero(v)),
                "−0.0 in {sol:?}"
            );
        }
    }
}
