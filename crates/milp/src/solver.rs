//! Branch-and-bound over the LP relaxation.
//!
//! One engine: a worker pool over a shared best-first queue. Each node
//! carries its parent's optimal basis ([`BasisSnapshot`]); child
//! relaxations re-solve via the dual simplex from that basis instead of
//! restarting phase 1, falling back to a cold solve on numerical
//! trouble. Workers prune against a shared incumbent and stop on a
//! global gap/budget/exhaustion condition. With `threads == 1` the
//! engine is fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flex_obs::{Counter, Histogram, Obs};
use parking_lot::{Condvar, Mutex};

use crate::model::{Model, Sense, VarKind};
use crate::simplex::{BasisSnapshot, RelaxSolve, WarmContext};
use crate::MilpError;

/// Integrality tolerance: LP values this close to an integer count as
/// integral.
const INT_EPS: f64 = 1e-6;

/// Solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveConfig {
    /// Wall-clock budget. The paper caps Gurobi at 5 minutes for the
    /// Oracle policy; harnesses here default much lower.
    pub time_limit: Duration,
    /// Stop when `(best_bound − incumbent) / max(|incumbent|, 1)` falls
    /// below this relative gap.
    pub relative_gap: f64,
    /// Hard cap on explored branch-and-bound nodes (global across
    /// workers; may overshoot by at most the worker count).
    pub max_nodes: u64,
    /// Worker threads for the branch-and-bound search. `0` means use
    /// [`std::thread::available_parallelism`]. `1` is deterministic:
    /// nodes are processed in exactly the best-first heap order. Every
    /// count runs the same warm-started engine; more workers change the
    /// node order, never the optimal objective.
    pub threads: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            time_limit: Duration::from_secs(30),
            relative_gap: 1e-6,
            max_nodes: 200_000,
            threads: 0,
        }
    }
}

impl SolveConfig {
    /// The worker count this configuration resolves to on this machine.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// How the solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal within the gap tolerance.
    Optimal,
    /// Feasible incumbent returned, but optimality was not proven —
    /// the time/node budget expired, or nodes were dropped after LP
    /// failures (see [`MilpSolution::relaxation_failures`]).
    Feasible,
}

/// A feasible MILP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Termination status.
    pub status: SolveStatus,
    /// Objective of `values` in the model's own sense.
    pub objective: f64,
    /// One value per model variable; integers are exactly integral.
    pub values: Vec<f64>,
    /// The best LP bound at termination (equals `objective` when optimal).
    pub best_bound: f64,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: u64,
    /// Simplex pivots spent on node relaxations that reached an optimum
    /// (warm + cold; heuristic dives included, failed/infeasible LPs
    /// excluded).
    pub lp_iterations: u64,
    /// Node relaxations answered from the parent basis via the dual
    /// simplex.
    pub warm_starts: u64,
    /// Node relaxations solved cold (two-phase from scratch), including
    /// warm-path fallbacks.
    pub cold_starts: u64,
    /// Nodes dropped because their relaxation failed for a reason other
    /// than infeasibility (iteration limit, unboundedness). Non-zero
    /// means parts of the tree went unexplored: the status is capped at
    /// [`SolveStatus::Feasible`] rather than claiming optimality.
    pub relaxation_failures: u64,
}

impl MilpSolution {
    /// Value of a variable in this solution.
    ///
    /// # Panics
    ///
    /// Panics on a foreign variable id.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.0]
    }

    /// True if the binary/integer variable rounds to 1.
    ///
    /// # Panics
    ///
    /// Panics on a foreign variable id.
    pub fn is_one(&self, var: crate::VarId) -> bool {
        // flex-lint: allow(F1): round() yields an exact integer-valued float, so == is exact
        self.values[var.0].round() == 1.0
    }
}

impl fmt::Display for MilpSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = match self.status {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Feasible => "feasible",
        };
        write!(
            f,
            "{status} objective={:.6} bound={:.6} nodes={} lp_iters={} warm={} cold={}",
            self.objective,
            self.best_bound,
            self.nodes_explored,
            self.lp_iterations,
            self.warm_starts,
            self.cold_starts,
        )?;
        if self.relaxation_failures > 0 {
            write!(f, " relaxation_failures={}", self.relaxation_failures)?;
        }
        Ok(())
    }
}

/// A branch-and-bound node: bound overrides relative to the model.
#[derive(Debug, Clone)]
struct Node {
    bounds: Vec<(f64, f64)>,
    /// LP bound inherited from the parent (in internal maximize terms).
    bound: f64,
    depth: u32,
    /// Parent's optimal basis for warm-starting this node's relaxation
    /// (shared between siblings).
    basis: Arc<BasisSnapshot>,
}

/// Heap ordering: best bound first, deeper first on ties (dives toward
/// integer solutions).
struct HeapNode(Node);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound && self.0.depth == other.0.depth
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .bound
            .total_cmp(&other.0.bound)
            .then(self.0.depth.cmp(&other.0.depth))
    }
}

/// `flex-obs` hooks for the solver: per-relaxation pivot accounting and
/// warm/cold/failure counters. All noop unless minted from a recording
/// handle via [`Model::solve_observed`]; the handles are lock-free
/// atomics, so workers update them without extra synchronization.
struct MilpHooks {
    nodes: Counter,
    warm_starts: Counter,
    cold_starts: Counter,
    relaxation_failures: Counter,
    pivots_per_node: Histogram,
}

impl MilpHooks {
    fn noop() -> Self {
        MilpHooks {
            nodes: Counter::noop(),
            warm_starts: Counter::noop(),
            cold_starts: Counter::noop(),
            relaxation_failures: Counter::noop(),
            pivots_per_node: Histogram::noop(),
        }
    }

    fn new(obs: &Obs) -> Self {
        MilpHooks {
            nodes: obs.counter("milp/nodes"),
            warm_starts: obs.counter("milp/warm_starts"),
            cold_starts: obs.counter("milp/cold_starts"),
            relaxation_failures: obs.counter("milp/relaxation_failures"),
            pivots_per_node: obs.histogram("milp/pivots_per_node"),
        }
    }

    /// One LP relaxation solved: `iters` simplex pivots, warm or cold.
    fn lp(&self, iters: u64, warmed: bool) {
        self.pivots_per_node.observe(iters);
        if warmed {
            self.warm_starts.inc();
        } else {
            self.cold_starts.inc();
        }
    }
}

impl Model {
    /// Solves the model by branch-and-bound.
    ///
    /// Returns the best integer-feasible solution found. With an empty
    /// integer set this is a single LP solve.
    ///
    /// # Errors
    ///
    /// - [`MilpError::Infeasible`] if no integer-feasible point exists
    ///   (proven before the budget expires);
    /// - [`MilpError::Unbounded`] if the root relaxation is unbounded;
    /// - [`MilpError::TimeLimitNoSolution`] if the budget expired before
    ///   any feasible solution was found;
    /// - [`MilpError::IterationLimit`] on simplex breakdown.
    pub fn solve(&self, config: &SolveConfig) -> Result<MilpSolution, MilpError> {
        self.solve_with_warm_start(config, None)
    }

    /// Like [`Model::solve`], but seeds branch-and-bound with a known
    /// feasible assignment (e.g. from a greedy heuristic). The warm start
    /// is validated; an infeasible one is silently ignored. Guarantees
    /// that a time-limited solve returns at least the warm-start quality.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with_warm_start(
        &self,
        config: &SolveConfig,
        warm_start: Option<&[f64]>,
    ) -> Result<MilpSolution, MilpError> {
        self.solve_inner(config, warm_start, &MilpHooks::noop())
    }

    /// Like [`Model::solve`], but streams per-node LP accounting
    /// (nodes, warm/cold relaxations, pivots per relaxation, numerical
    /// failures) into `obs` under the `milp/` metric namespace. The
    /// search itself is unaffected: hooks never branch on recorded
    /// state, so an observed solve explores the identical tree.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_observed(
        &self,
        config: &SolveConfig,
        obs: &Obs,
    ) -> Result<MilpSolution, MilpError> {
        self.solve_inner(config, None, &MilpHooks::new(obs))
    }

    /// The branch-and-bound engine: a pool of worker threads over a
    /// shared best-first queue with warm-started relaxations. With
    /// `threads == 1`, processing order is deterministic.
    fn solve_inner(
        &self,
        config: &SolveConfig,
        warm_start: Option<&[f64]>,
        hooks: &MilpHooks,
    ) -> Result<MilpSolution, MilpError> {
        let threads = config.resolved_threads().max(1);
        let start = Instant::now();
        let internal = |obj: f64| match self.sense {
            Sense::Maximize => obj,
            Sense::Minimize => -obj,
        };
        let external = internal; // involution

        let root_bounds: Vec<(f64, f64)> = self.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let int_vars: Vec<usize> = self
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(i, _)| i)
            .collect();

        let ctx = WarmContext::new(self);
        // Root relaxation failures abort the solve: there is no tree to
        // fall back on yet.
        let root = ctx.solve_relaxation(&root_bounds, None)?;
        hooks.nodes.inc();
        hooks.lp(root.iterations, root.warmed);

        let shared = Shared {
            model: self,
            ctx,
            int_vars,
            deadline: start + config.time_limit,
            relative_gap: config.relative_gap,
            max_nodes: config.max_nodes,
            queue: Mutex::new(SearchQueue {
                heap: BinaryHeap::new(),
                in_flight: vec![None; threads],
                stop: None,
                stop_bound: f64::NEG_INFINITY,
            }),
            work_cv: Condvar::new(),
            incumbent: Mutex::new(None),
            failed_bound: Mutex::new(f64::NEG_INFINITY),
            nodes_explored: AtomicU64::new(1),
            lp_iterations: AtomicU64::new(root.iterations),
            warm_starts: AtomicU64::new(0),
            cold_starts: AtomicU64::new(1),
            relaxation_failures: AtomicU64::new(0),
            hooks,
        };

        if let Some(ws) = warm_start {
            if ws.len() == self.vars.len() && self.is_feasible(ws, 1e-6) {
                let snapped = rounded(ws, &shared.int_vars);
                shared.consider(&snapped);
            }
        }

        let collect = |status: SolveStatus, objective: f64, values: Vec<f64>, best_bound: f64| {
            MilpSolution {
                status,
                objective,
                values,
                best_bound,
                nodes_explored: shared.nodes_explored.load(AtomicOrdering::Relaxed),
                lp_iterations: shared.lp_iterations.load(AtomicOrdering::Relaxed),
                warm_starts: shared.warm_starts.load(AtomicOrdering::Relaxed),
                cold_starts: shared.cold_starts.load(AtomicOrdering::Relaxed),
                relaxation_failures: shared.relaxation_failures.load(AtomicOrdering::Relaxed),
            }
        };

        // Integral root: optimal outright (if it validates).
        if is_integral(&root.values, &shared.int_vars) {
            let snapped = rounded(&root.values, &shared.int_vars);
            shared.consider(&snapped);
            let inc = shared.incumbent.lock().take();
            if let Some((obj, values)) = inc {
                let e = external(obj);
                return Ok(collect(SolveStatus::Optimal, e, values, e));
            }
        }
        // Root heuristics: rounding, then a warm LP-guided dive.
        let snapped = rounded(&root.values, &shared.int_vars);
        shared.consider(&snapped);
        if let Some(dived) = shared.dive_warm(&root_bounds, &root.basis) {
            shared.consider(&dived);
        }

        let root_bound = internal(root.objective);
        shared.queue.lock().heap.push(HeapNode(Node {
            bounds: root_bounds,
            bound: root_bound,
            depth: 0,
            basis: Arc::new(root.basis),
        }));

        crossbeam::thread::scope(|s| {
            for w in 0..threads {
                let shared = &shared;
                s.spawn(move |_| shared.worker(w));
            }
        })
        .expect("branch-and-bound worker panicked");

        let (stop, stop_bound) = {
            let q = shared.queue.lock();
            (q.stop.unwrap_or(Stop::Exhausted), q.stop_bound)
        };
        let incumbent = shared.incumbent.lock().take();
        let failures = shared.relaxation_failures.load(AtomicOrdering::Relaxed);
        let failed_bound = *shared.failed_bound.lock();

        match stop {
            Stop::GapReached => {
                let (obj, values) = incumbent.expect("gap stop implies an incumbent");
                Ok(collect(
                    SolveStatus::Optimal,
                    external(obj),
                    values,
                    external(stop_bound.max(obj)),
                ))
            }
            Stop::Budget => match incumbent {
                Some((obj, values)) => Ok(collect(
                    SolveStatus::Feasible,
                    external(obj),
                    values,
                    external(stop_bound.max(obj)),
                )),
                None => Err(MilpError::TimeLimitNoSolution),
            },
            Stop::Exhausted => match incumbent {
                Some((obj, values)) => {
                    // With dropped nodes the tree has holes: optimality
                    // cannot be claimed, and the bound must cover them.
                    if failures > 0 {
                        Ok(collect(
                            SolveStatus::Feasible,
                            external(obj),
                            values,
                            external(failed_bound.max(obj)),
                        ))
                    } else {
                        let e = external(obj);
                        Ok(collect(SolveStatus::Optimal, e, values, e))
                    }
                }
                None if failures > 0 => Err(MilpError::IterationLimit),
                None => Err(MilpError::Infeasible),
            },
        }
    }
}

/// Why the parallel search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Global bound closed to within the relative gap of the incumbent.
    GapReached,
    /// Time limit or node cap hit.
    Budget,
    /// Queue drained with no work in flight.
    Exhausted,
}

/// Queue state shared by the worker pool, guarded by one mutex.
struct SearchQueue {
    heap: BinaryHeap<HeapNode>,
    /// Per-worker bound of the node currently being processed; `None`
    /// when idle. Together with the heap top this yields the global
    /// best bound (children never exceed their parent's bound).
    in_flight: Vec<Option<f64>>,
    stop: Option<Stop>,
    /// Global bound recorded by whichever worker set `stop`.
    stop_bound: f64,
}

/// Everything the workers share, borrowed for the scope of the solve.
struct Shared<'a> {
    model: &'a Model,
    ctx: WarmContext,
    int_vars: Vec<usize>,
    deadline: Instant,
    relative_gap: f64,
    max_nodes: u64,
    queue: Mutex<SearchQueue>,
    work_cv: Condvar,
    /// Best integer-feasible point, internal (maximize) objective.
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    /// Highest bound among nodes dropped after LP failures; NEG_INFINITY
    /// when none. Keeps `best_bound` honest when the tree has holes.
    failed_bound: Mutex<f64>,
    nodes_explored: AtomicU64,
    lp_iterations: AtomicU64,
    warm_starts: AtomicU64,
    cold_starts: AtomicU64,
    relaxation_failures: AtomicU64,
    hooks: &'a MilpHooks,
}

impl Shared<'_> {
    fn internal(&self, obj: f64) -> f64 {
        match self.model.sense {
            Sense::Maximize => obj,
            Sense::Minimize => -obj,
        }
    }

    /// Offers a candidate to the shared incumbent (validating
    /// feasibility), keeping the better of the two.
    fn consider(&self, vals: &[f64]) {
        if !self.model.is_feasible(vals, 1e-6) {
            return;
        }
        let obj = self.internal(self.model.objective_value(vals));
        let mut inc = self.incumbent.lock();
        match &*inc {
            Some((best, _)) if *best >= obj => {}
            _ => *inc = Some((obj, vals.to_vec())),
        }
    }

    fn incumbent_objective(&self) -> Option<f64> {
        self.incumbent.lock().as_ref().map(|(o, _)| *o)
    }

    /// Marks worker `w` idle; declares exhaustion when nothing is queued
    /// or running. Always wakes waiters (a pushed child or the final
    /// stop both need the nudge).
    fn finish_node(&self, w: usize) {
        let mut q = self.queue.lock();
        q.in_flight[w] = None;
        if q.stop.is_none() && q.heap.is_empty() && q.in_flight.iter().all(Option::is_none) {
            q.stop = Some(Stop::Exhausted);
        }
        self.work_cv.notify_all();
    }

    fn request_stop(&self, w: usize, stop: Stop, bound: f64) {
        let mut q = self.queue.lock();
        if q.stop.is_none() {
            q.stop = Some(stop);
            q.stop_bound = bound;
        }
        q.in_flight[w] = None;
        self.work_cv.notify_all();
    }

    /// One counted LP solve for the dive.
    fn dive_lp(&self, bounds: &[(f64, f64)], basis: &BasisSnapshot) -> Option<RelaxSolve> {
        let relax = self.ctx.solve_relaxation(bounds, Some(basis)).ok()?;
        self.lp_iterations
            .fetch_add(relax.iterations, AtomicOrdering::Relaxed);
        if relax.warmed {
            self.warm_starts.fetch_add(1, AtomicOrdering::Relaxed);
        } else {
            self.cold_starts.fetch_add(1, AtomicOrdering::Relaxed);
        }
        self.hooks.lp(relax.iterations, relax.warmed);
        Some(relax)
    }

    /// LP-guided diving heuristic: starting from `bounds`, repeatedly fix
    /// a batch of near-integral variables (at least the least fractional
    /// one) to their nearest integers and re-solve from the previous
    /// step's basis. An infeasible batch fix backtracks to a
    /// single-variable fix (either side) before the dive gives up —
    /// incumbents come almost entirely from dives, so a fragile dive
    /// starves the whole search.
    fn dive_warm(&self, bounds: &[(f64, f64)], basis: &BasisSnapshot) -> Option<Vec<f64>> {
        let mut b = bounds.to_vec();
        let mut relax = self.dive_lp(&b, basis)?;
        for _ in 0..(self.int_vars.len() + 1) {
            if Instant::now() >= self.deadline {
                return None;
            }
            let vals = &relax.values;
            let mut fractional: Vec<(usize, f64, f64)> = self
                .int_vars
                .iter()
                .filter_map(|&j| {
                    let dist = (vals[j] - vals[j].round()).abs();
                    (dist > INT_EPS).then_some((j, vals[j], dist))
                })
                .collect();
            if fractional.is_empty() {
                let snapped = rounded(vals, &self.int_vars);
                return self.model.is_feasible(&snapped, 1e-6).then_some(snapped);
            }
            fractional.sort_by(|a, b| a.2.total_cmp(&b.2));
            let &(j0, x0, _) = fractional.first().expect("nonempty");
            // Fix attempts, most to least aggressive: the near-integral
            // batch, then the least-fractional variable alone (nearest
            // side, then the other side).
            let mut advanced = false;
            for attempt in 0..3u8 {
                let mut nb = b.clone();
                let mut fixed_any = false;
                match attempt {
                    0 => {
                        for &(j, x, dist) in &fractional {
                            if nb[j].0 != nb[j].1 && (dist <= 0.1 || !fixed_any) {
                                let (lo, hi) = nb[j];
                                let v = x.round().clamp(lo, hi);
                                nb[j] = (v, v);
                                fixed_any = true;
                            }
                        }
                    }
                    1 | 2 => {
                        if b[j0].0 != b[j0].1 {
                            let (lo, hi) = b[j0];
                            let near = x0.round();
                            let v = if attempt == 1 {
                                near
                            } else if near >= x0 {
                                x0.floor()
                            } else {
                                x0.ceil()
                            }
                            .clamp(lo, hi);
                            nb[j0] = (v, v);
                            fixed_any = true;
                        }
                    }
                    _ => unreachable!(),
                }
                if !fixed_any || nb == b {
                    continue;
                }
                if let Some(r) = self.dive_lp(&nb, &relax.basis) {
                    b = nb;
                    relax = r;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return None;
            }
        }
        None
    }

    /// One worker's search loop.
    fn worker(&self, w: usize) {
        loop {
            // Pull the best node; compute the global bound while holding
            // the lock so in-flight peers are accounted for.
            let (node, global_bound) = {
                let mut q = self.queue.lock();
                loop {
                    if q.stop.is_some() {
                        return;
                    }
                    if let Some(HeapNode(node)) = q.heap.pop() {
                        q.in_flight[w] = Some(node.bound);
                        let mut g = node.bound;
                        for b in q.in_flight.iter().flatten() {
                            g = g.max(*b);
                        }
                        if let Some(top) = q.heap.peek() {
                            g = g.max(top.0.bound);
                        }
                        break (node, g);
                    }
                    if q.in_flight.iter().all(Option::is_none) {
                        q.stop = Some(Stop::Exhausted);
                        self.work_cv.notify_all();
                        return;
                    }
                    // Peers are still expanding; wait for pushes (with a
                    // timeout so deadline expiry cannot strand us).
                    self.work_cv.wait_for(&mut q, Duration::from_millis(20));
                }
            };

            let inc_obj = self.incumbent_objective();
            if let Some(inc) = inc_obj {
                let gap = (global_bound - inc) / inc.abs().max(1.0);
                if gap <= self.relative_gap {
                    self.request_stop(w, Stop::GapReached, global_bound);
                    return;
                }
            }
            if Instant::now() >= self.deadline
                || self.nodes_explored.load(AtomicOrdering::Relaxed) >= self.max_nodes
            {
                self.request_stop(w, Stop::Budget, global_bound);
                return;
            }
            if let Some(inc) = inc_obj {
                if node.bound <= inc + self.relative_gap * inc.abs().max(1.0) {
                    self.finish_node(w); // pruned by bound
                    continue;
                }
            }

            // Solve this node's relaxation warm from the parent basis
            // (`solve_relaxation` falls back cold itself).
            let relax = match self.ctx.solve_relaxation(&node.bounds, Some(&node.basis)) {
                Ok(r) => r,
                Err(MilpError::Infeasible) => {
                    self.finish_node(w);
                    continue;
                }
                Err(_) => {
                    // Numerical failure: drop the node but record the
                    // hole so the final status/bound stay honest.
                    self.relaxation_failures
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    self.hooks.relaxation_failures.inc();
                    let mut fb = self.failed_bound.lock();
                    *fb = fb.max(node.bound);
                    drop(fb);
                    self.finish_node(w);
                    continue;
                }
            };
            self.lp_iterations
                .fetch_add(relax.iterations, AtomicOrdering::Relaxed);
            if relax.warmed {
                self.warm_starts.fetch_add(1, AtomicOrdering::Relaxed);
            } else {
                self.cold_starts.fetch_add(1, AtomicOrdering::Relaxed);
            }
            self.hooks.lp(relax.iterations, relax.warmed);
            let explored = self.nodes_explored.fetch_add(1, AtomicOrdering::Relaxed) + 1;
            self.hooks.nodes.inc();

            let node_bound = self.internal(relax.objective);
            if let Some(inc) = self.incumbent_objective() {
                if node_bound <= inc + self.relative_gap * inc.abs().max(1.0) {
                    self.finish_node(w); // pruned by bound
                    continue;
                }
            }

            // Find the most fractional integer variable.
            let vals = &relax.values;
            let mut branch_var: Option<(usize, f64)> = None;
            for &j in &self.int_vars {
                let frac = (vals[j] - vals[j].round()).abs();
                if frac > INT_EPS {
                    let score = (vals[j] - vals[j].floor() - 0.5).abs();
                    match branch_var {
                        Some((_, best)) if best <= score => {}
                        _ => branch_var = Some((j, score)),
                    }
                }
            }
            match branch_var {
                None => {
                    // Integer feasible.
                    let snapped = rounded(vals, &self.int_vars);
                    self.consider(&snapped);
                }
                Some((j, _)) => {
                    // Dive eagerly until a first incumbent exists (without
                    // one, nothing prunes and a budgeted solve can end
                    // empty-handed), occasionally afterwards.
                    let cadence = if self.incumbent_objective().is_none() {
                        16
                    } else {
                        128
                    };
                    if explored % cadence == 0 {
                        if let Some(dived) = self.dive_warm(&node.bounds, &relax.basis) {
                            self.consider(&dived);
                        }
                    }
                    let snapped = rounded(vals, &self.int_vars);
                    self.consider(&snapped);

                    let x = vals[j];
                    let (lo, hi) = node.bounds[j];
                    let child_basis = Arc::new(relax.basis);
                    let mut children = Vec::with_capacity(2);
                    // Down branch: x <= floor.
                    let down_hi = x.floor();
                    if down_hi >= lo - INT_EPS {
                        let mut b = node.bounds.clone();
                        b[j] = (lo, down_hi.max(lo));
                        children.push(HeapNode(Node {
                            bounds: b,
                            bound: node_bound,
                            depth: node.depth + 1,
                            basis: Arc::clone(&child_basis),
                        }));
                    }
                    // Up branch: x >= ceil.
                    let up_lo = x.ceil();
                    if up_lo <= hi + INT_EPS {
                        let mut b = node.bounds.clone();
                        b[j] = (up_lo.min(hi), hi);
                        children.push(HeapNode(Node {
                            bounds: b,
                            bound: node_bound,
                            depth: node.depth + 1,
                            basis: child_basis,
                        }));
                    }
                    if !children.is_empty() {
                        let mut q = self.queue.lock();
                        for c in children {
                            q.heap.push(c);
                        }
                    }
                }
            }
            self.finish_node(w);
        }
    }
}

fn is_integral(vals: &[f64], int_vars: &[usize]) -> bool {
    int_vars
        .iter()
        .all(|&j| (vals[j] - vals[j].round()).abs() <= INT_EPS)
}

fn rounded(vals: &[f64], int_vars: &[usize]) -> Vec<f64> {
    let mut out = vals.to_vec();
    for &j in int_vars {
        out[j] = out[j].round();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Relation;

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 5.0, 2.0).unwrap();
        m.add_constraint("c", vec![(x, 1.0)], Relation::Le, 3.0)
            .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn knapsack_optimum() {
        // Classic: values 60/100/120, weights 10/20/30, cap 50 -> 220.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 60.0);
        let b = m.add_binary("b", 100.0);
        let c = m.add_binary("c", 120.0);
        m.add_constraint(
            "cap",
            vec![(a, 10.0), (b, 20.0), (c, 30.0)],
            Relation::Le,
            50.0,
        )
        .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 220.0).abs() < 1e-6);
        assert!(!sol.is_one(a) && sol.is_one(b) && sol.is_one(c));
    }

    #[test]
    fn observed_solve_matches_and_records() {
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let a = m.add_binary("a", 60.0);
            let b = m.add_binary("b", 100.0);
            let c = m.add_binary("c", 120.0);
            m.add_constraint(
                "cap",
                vec![(a, 10.0), (b, 20.0), (c, 30.0)],
                Relation::Le,
                50.0,
            )
            .unwrap();
            m
        };
        // One thread keeps node processing deterministic, so plain and
        // observed runs are comparable tree for tree.
        let config = SolveConfig {
            threads: 1,
            ..SolveConfig::default()
        };
        let plain = build().solve(&config).unwrap();
        let obs = Obs::recording();
        let observed = build().solve_observed(&config, &obs).unwrap();
        // Hooks never branch the search: identical solution and tree.
        assert_eq!(observed.status, plain.status);
        assert!((observed.objective - plain.objective).abs() < 1e-9);
        assert_eq!(observed.values, plain.values);
        assert_eq!(observed.nodes_explored, plain.nodes_explored);
        // The hooks mirrored the solution's own accounting.
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters.get("milp/nodes").copied(),
            Some(plain.nodes_explored)
        );
        assert_eq!(
            snap.counters.get("milp/warm_starts").copied().unwrap_or(0)
                + snap.counters.get("milp/cold_starts").copied().unwrap_or(0),
            plain.warm_starts + plain.cold_starts
        );
        let pivots = snap
            .histograms
            .get("milp/pivots_per_node")
            .expect("pivot histogram registered");
        assert_eq!(pivots.sum, plain.lp_iterations);
    }

    #[test]
    fn minimize_set_cover() {
        // Cover {1,2,3} with sets A={1,2} cost 2, B={2,3} cost 2,
        // C={1,2,3} cost 3 -> pick C (cost 3) vs A+B (cost 4).
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("A", 2.0);
        let b = m.add_binary("B", 2.0);
        let c = m.add_binary("C", 3.0);
        m.add_constraint("e1", vec![(a, 1.0), (c, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        m.add_constraint("e2", vec![(a, 1.0), (b, 1.0), (c, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        m.add_constraint("e3", vec![(b, 1.0), (c, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!(sol.is_one(c));
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix with known optimum 5 (1+1+3... build
        // explicitly): costs[i][j].
        let costs = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut vars = [[None; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                vars[i][j] = Some(m.add_binary(format!("x{i}{j}"), costs[i][j]));
            }
        }
        for i in 0..3 {
            m.add_constraint(
                format!("row{i}"),
                (0..3).map(|j| (vars[i][j].unwrap(), 1.0)),
                Relation::Eq,
                1.0,
            )
            .unwrap();
            m.add_constraint(
                format!("col{i}"),
                (0..3).map(|j| (vars[j][i].unwrap(), 1.0)),
                Relation::Eq,
                1.0,
            )
            .unwrap();
        }
        let sol = m.solve(&SolveConfig::default()).unwrap();
        // Optimal: (0,1)=1, (1,0)=2, (2,2)=2 -> 5.
        assert!((sol.objective - 5.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn infeasible_integer_model() {
        // x + y = 1.5 with x, y binary has no integer solution but a
        // feasible relaxation.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Relation::Eq, 1.5)
            .unwrap();
        assert_eq!(m.solve(&SolveConfig::default()), Err(MilpError::Infeasible));
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // maximize 5a + x  s.t. 3a + x <= 4, x in [0, 2], a binary.
        // a=1, x=1 -> 6.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 5.0);
        let x = m.add_continuous("x", 0.0, 2.0, 1.0).unwrap();
        m.add_constraint("c", vec![(a, 3.0), (x, 1.0)], Relation::Le, 4.0)
            .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-6);
        assert!(sol.is_one(a));
        assert!((sol.value(x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn general_integers_branch_correctly() {
        // maximize x + y, 2x + 3y <= 12, x,y integer in [0, 5].
        // Optimum: x=5, y=0 -> 5? 2*5=10<=12, y can be 0; x=4,y=1: 11<=12
        // obj 5; x=3,y=2: 12<=12 obj 5. So 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 5.0, 1.0).unwrap();
        let y = m.add_var("y", VarKind::Integer, 0.0, 5.0, 1.0).unwrap();
        m.add_constraint("c", vec![(x, 2.0), (y, 3.0)], Relation::Le, 12.0)
            .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn larger_knapsack_matches_dp() {
        // 20-item knapsack with deterministic pseudo-random data; verify
        // against dynamic programming.
        let n = 20usize;
        let values: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 50 + 1) as f64).collect();
        let weights: Vec<usize> = (0..n).map(|i| (i * 53 + 7) % 30 + 1).collect();
        let cap = 80usize;
        // DP.
        let mut dp = vec![0.0_f64; cap + 1];
        for i in 0..n {
            for w in (weights[i]..=cap).rev() {
                dp[w] = dp[w].max(dp[w - weights[i]] + values[i]);
            }
        }
        let best = dp[cap];
        // MILP.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), values[i]))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().enumerate().map(|(i, &v)| (v, weights[i] as f64)),
            Relation::Le,
            cap as f64,
        )
        .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective - best).abs() < 1e-6,
            "milp {} vs dp {}",
            sol.objective,
            best
        );
    }

    #[test]
    fn time_limit_returns_feasible_or_error() {
        // A stress model with an immediate rounding incumbent: tiny time
        // limit must still return *something* sensible.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..30)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for k in 0..10 {
            m.add_constraint(
                format!("c{k}"),
                vars.iter()
                    .enumerate()
                    .filter(|(i, _)| (i + k) % 3 != 0)
                    .map(|(i, &v)| (v, 1.0 + (i % 5) as f64)),
                Relation::Le,
                17.0,
            )
            .unwrap();
        }
        let config = SolveConfig {
            time_limit: Duration::from_millis(1),
            ..SolveConfig::default()
        };
        match m.solve(&config) {
            Ok(sol) => assert!(m.is_feasible(&sol.values, 1e-6)),
            Err(MilpError::TimeLimitNoSolution) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn best_bound_brackets_objective() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 3.0);
        let b = m.add_binary("b", 4.0);
        m.add_constraint("c", vec![(a, 2.0), (b, 3.0)], Relation::Le, 4.0)
            .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        assert!(sol.best_bound >= sol.objective - 1e-6);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-6);
    }

    /// Binaries in [`parity_model`].
    const PARITY_N: usize = 16;

    fn parity_value(i: usize) -> f64 {
        ((i * 29 + 13) % 31 + 1) as f64
    }

    fn parity_weight(i: usize) -> f64 {
        ((i * 19 + 5) % 11 + 1) as f64
    }

    /// A mid-sized mixed model for optimality tests: `PARITY_N`
    /// binaries plus one continuous `y` sharing the capacity row.
    fn parity_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..PARITY_N)
            .map(|i| m.add_binary(format!("x{i}"), parity_value(i)))
            .collect();
        let y = m.add_continuous("y", 0.0, 3.0, 0.5).unwrap();
        m.add_constraint(
            "cap",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, parity_weight(i)))
                .chain(std::iter::once((y, 2.0))),
            Relation::Le,
            31.0,
        )
        .unwrap();
        for k in 0..3 {
            m.add_constraint(
                format!("side{k}"),
                vars.iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == k)
                    .map(|(_, &v)| (v, 1.0)),
                Relation::Le,
                4.0,
            )
            .unwrap();
        }
        m
    }

    /// The optimum of [`parity_model`] by brute force over every binary
    /// assignment. Given the binaries, `y` has a closed form: it takes
    /// all remaining capacity (`2y ≤ 31 − Σ wᵢxᵢ`) up to its bound 3.
    fn parity_brute_force() -> f64 {
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << PARITY_N) {
            let on = |i: usize| mask & (1 << i) != 0;
            if (0..3).any(|k| (0..PARITY_N).filter(|&i| i % 3 == k && on(i)).count() > 4) {
                continue;
            }
            let weight: f64 = (0..PARITY_N).filter(|&i| on(i)).map(parity_weight).sum();
            if weight > 31.0 {
                continue;
            }
            let y = ((31.0 - weight) / 2.0).min(3.0);
            let value: f64 = (0..PARITY_N).filter(|&i| on(i)).map(parity_value).sum();
            best = best.max(value + 0.5 * y);
        }
        best
    }

    #[test]
    fn engines_agree_on_objective() {
        let m = parity_model();
        let best = parity_brute_force();
        for threads in [1usize, 4] {
            let sol = m
                .solve(&SolveConfig {
                    threads,
                    ..SolveConfig::default()
                })
                .unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert!(
                (sol.objective - best).abs() < 1e-6,
                "threads={threads}: {} vs brute force {best}",
                sol.objective
            );
            assert!(m.is_feasible(&sol.values, 1e-6));
        }
    }

    #[test]
    fn warm_engine_reports_warm_starts() {
        let m = parity_model();
        let cfg = SolveConfig {
            threads: 1,
            ..SolveConfig::default()
        };
        let sol = m.solve(&cfg).unwrap();
        assert!(
            sol.warm_starts > 0,
            "expected warm starts, got {sol}",
        );
        assert_eq!(sol.relaxation_failures, 0);
    }

    #[test]
    fn display_summarizes_solution() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 3.0);
        m.add_constraint("c", vec![(a, 1.0)], Relation::Le, 1.0)
            .unwrap();
        let sol = m.solve(&SolveConfig::default()).unwrap();
        let text = sol.to_string();
        assert!(text.starts_with("optimal"), "{text}");
        assert!(text.contains("nodes="), "{text}");
        assert!(!text.contains("relaxation_failures"), "{text}");
    }

    #[test]
    fn parallel_respects_max_nodes() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..24)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 5) as f64))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
            Relation::Le,
            13.0,
        )
        .unwrap();
        let cfg = SolveConfig {
            threads: 4,
            max_nodes: 16,
            ..SolveConfig::default()
        };
        match m.solve(&cfg) {
            Ok(sol) => {
                // Overshoot is bounded by the worker count.
                assert!(sol.nodes_explored <= 16 + 4, "nodes {}", sol.nodes_explored);
                assert!(m.is_feasible(&sol.values, 1e-6));
            }
            Err(MilpError::TimeLimitNoSolution) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
