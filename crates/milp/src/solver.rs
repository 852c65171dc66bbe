//! Branch-and-bound over the LP relaxation.
//!
//! One search at every thread count: a committing loop pops nodes from
//! a best-first heap and processes each in turn. Each node carries its
//! parent's optimal basis ([`BasisSnapshot`]); child relaxations
//! re-solve via the dual simplex from that basis instead of restarting
//! phase 1, falling back to a cold solve on numerical trouble. With
//! more than one thread, helpers solve the relaxations of the best open
//! nodes ahead of the committer. A relaxation depends only on its
//! node's bounds and its parent's basis, so a helper's answer is the
//! one the committer would have computed, and only the committer
//! consumes answers: every thread count explores the `threads: 1` tree
//! and returns its solution, bit for bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::model::{Model, Sense, VarKind};
use crate::simplex::{BasisSnapshot, LpBuffers, RelaxSolve, WarmContext};
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
    /// Hard cap on explored branch-and-bound nodes.
    pub max_nodes: u64,
    /// Threads for the branch-and-bound search (default `1`; `0` counts
    /// as `1`). One thread commits nodes in exactly the best-first heap
    /// order; the others only solve node relaxations ahead of it. Every
    /// count explores the same tree and returns the same solution,
    /// counters included, so the wall-clock `time_limit` is the only
    /// input that can make two solves differ.
    pub threads: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            time_limit: Duration::from_secs(30),
            relative_gap: 1e-6,
            max_nodes: 200_000,
            threads: 1,
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

/// A branch-and-bound node. Its bounds are the root bounds with every
/// decision on its `branch` path applied; threads rebuild them with
/// [`node_bounds`] when they solve the node, so an open node costs a
/// few words rather than a full bounds vector.
#[derive(Debug, Clone)]
struct Node {
    /// The decision that made this node; `None` at the root.
    branch: Option<Arc<Branch>>,
    /// LP bound inherited from the parent (in internal maximize terms).
    bound: f64,
    depth: u32,
    /// Names the node's relaxation among results solved ahead of the
    /// committer; [`NO_ID`] once the ids run out.
    id: u32,
    /// Parent's optimal basis for warm-starting this node's relaxation
    /// (shared between siblings).
    basis: Arc<BasisSnapshot>,
}

/// The id of nodes that are never solved ahead: issued once `u32` ids
/// run out, so an id never names two nodes.
const NO_ID: u32 = u32::MAX;

/// One branching decision, `var ∈ [lo, hi]`, linked to the decision
/// above it. Siblings share their ancestors' links, so a child costs
/// one small allocation whatever the model width.
#[derive(Debug)]
struct Branch {
    var: usize,
    lo: f64,
    hi: f64,
    parent: Option<Arc<Branch>>,
}

impl Drop for Branch {
    /// Unlinks the chain iteratively: the default drop would recurse
    /// once per ancestor this branch held the last reference to.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut b| b.parent.take());
        }
    }
}

/// Rebuilds the bounds of the node whose last decision is `branch` into
/// `out`: the root bounds, then every decision on the path applied root
/// first, so a later decision on the same variable wins. `path` is
/// scratch space, reused across calls like `out`.
fn node_bounds(
    root: &[(f64, f64)],
    branch: Option<&Branch>,
    path: &mut Vec<(usize, f64, f64)>,
    out: &mut Vec<(f64, f64)>,
) {
    path.clear();
    let mut link = branch;
    while let Some(b) = link {
        path.push((b.var, b.lo, b.hi));
        link = b.parent.as_deref();
    }
    out.clear();
    out.extend_from_slice(root);
    for &(var, lo, hi) in path.iter().rev() {
        out[var] = (lo, hi);
    }
}

/// Heap ordering: best bound first, deeper first on ties (dives toward
/// integer solutions).
struct HeapNode(Node);

impl PartialEq for HeapNode {
    /// Equal exactly when [`Ord`] says so (`0.0` and `-0.0` bounds
    /// differ under `total_cmp`, as `==` would not).
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
    /// The committing loop runs on this thread, with `threads − 1`
    /// helpers solving relaxations ahead of it.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with_warm_start(
        &self,
        config: &SolveConfig,
        warm_start: Option<&[f64]>,
    ) -> Result<MilpSolution, MilpError> {
        let helpers = config.threads.max(1) - 1;
        let start = Instant::now();
        let root_bounds: Vec<(f64, f64)> = self.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let shared = Shared {
            ctx: WarmContext::new(self),
            root_bounds,
            frontier: Mutex::new(Frontier {
                prune_at: f64::NEG_INFINITY,
                ..Frontier::default()
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        };
        let mut search = Search {
            shared: &shared,
            model: self,
            int_vars: self
                .vars
                .iter()
                .enumerate()
                .filter(|(_, v)| v.kind == VarKind::Integer)
                .map(|(i, _)| i)
                .collect(),
            deadline: start + config.time_limit,
            relative_gap: config.relative_gap,
            max_nodes: config.max_nodes,
            helpers,
            incumbent: None,
            failed_bound: f64::NEG_INFINITY,
            nodes_explored: 1,
            lp_iterations: 0,
            warm_starts: 0,
            cold_starts: 1,
            relaxation_failures: 0,
            next_id: 0,
            reserved: None,
            bufs: Buffers::default(),
        };

        // Root relaxation failures abort the solve: there is no tree to
        // fall back on yet.
        let root =
            shared
                .ctx
                .solve_relaxation_in(&shared.root_bounds, None, &mut search.bufs.lp)?;
        search.lp_iterations = root.iterations;

        if let Some(ws) = warm_start {
            if ws.len() == self.vars.len() && self.is_feasible(ws, 1e-6) {
                let snapped = rounded(ws, &search.int_vars);
                search.consider(&snapped);
            }
        }

        // Integral root: optimal outright (if it validates).
        if is_integral(&root.values, &search.int_vars) {
            let snapped = rounded(&root.values, &search.int_vars);
            search.consider(&snapped);
            if let Some((obj, values)) = search.incumbent.take() {
                let e = search.external(obj);
                return Ok(search.solution(SolveStatus::Optimal, e, values, e));
            }
        }
        // Root heuristics: rounding, then a warm LP-guided dive.
        let snapped = rounded(&root.values, &search.int_vars);
        search.consider(&snapped);
        if let Some(dived) = search.dive_warm(&shared.root_bounds, &root.basis) {
            search.consider(&dived);
        }

        let root_node = Node {
            branch: None,
            bound: search.internal(root.objective),
            depth: 0,
            id: search.next_id(),
            basis: Arc::new(root.basis),
        };
        shared.lock_frontier().heap.push(HeapNode(root_node));

        let (stop, stop_bound) = std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| shared.help());
            }
            // Helpers return once the search is over, also when the
            // committing loop panics.
            let _release = ReleaseHelpers(&shared);
            search.run()
        });

        let incumbent = search.incumbent.take();
        let failures = search.relaxation_failures;
        match stop {
            Stop::GapReached => {
                let (obj, values) = incumbent.expect("gap stop implies an incumbent");
                let bound = search.external(stop_bound.max(obj));
                Ok(search.solution(SolveStatus::Optimal, search.external(obj), values, bound))
            }
            Stop::Budget => match incumbent {
                Some((obj, values)) => {
                    let bound = search.external(stop_bound.max(obj));
                    Ok(search.solution(SolveStatus::Feasible, search.external(obj), values, bound))
                }
                None => Err(MilpError::TimeLimitNoSolution),
            },
            Stop::Exhausted => match incumbent {
                Some((obj, values)) => {
                    // With dropped nodes the tree has holes: optimality
                    // cannot be claimed, and the bound must cover them.
                    if failures > 0 {
                        let bound = search.external(search.failed_bound.max(obj));
                        Ok(search.solution(
                            SolveStatus::Feasible,
                            search.external(obj),
                            values,
                            bound,
                        ))
                    } else {
                        let e = search.external(obj);
                        Ok(search.solution(SolveStatus::Optimal, e, values, e))
                    }
                }
                None if failures > 0 => Err(MilpError::IterationLimit),
                None => Err(MilpError::Infeasible),
            },
        }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Global bound closed to within the relative gap of the incumbent.
    GapReached,
    /// Time limit or node cap hit.
    Budget,
    /// Heap drained.
    Exhausted,
}

/// Relaxations solved ahead of the committer, ready or in progress,
/// kept at most: helpers wait rather than claim past it, which bounds
/// the memory the results hold. Large enough that a helper keeps busy
/// through the committer's dives.
const MAX_AHEAD: usize = 32;

/// Heap slots helpers look through for a node to claim: the top five
/// levels of the binary heap, where the next nodes to pop sit.
const SCAN_SLOTS: usize = 31;

/// A node LP's outcome.
type LpResult = Result<RelaxSolve, MilpError>;

/// The open nodes and the bookkeeping of relaxations solved ahead of
/// the committer, under one mutex.
#[derive(Default)]
struct Frontier {
    /// Open nodes, best first. Only the committer pushes and pops.
    heap: BinaryHeap<HeapNode>,
    /// Ids of nodes whose relaxation a thread is solving ahead.
    claimed: Vec<u32>,
    /// Relaxations solved ahead and not yet taken.
    ready: Vec<Ready>,
    /// Helper results the committer has copied, for a helper to free.
    returned: Vec<LpResult>,
    /// Claimed nodes the committer pruned unsolved: their results are
    /// dropped on delivery.
    pruned: Vec<u32>,
    /// The committer prunes nodes whose bound is at or below this, so
    /// helpers skip them (NEG_INFINITY until there is an incumbent).
    prune_at: f64,
    /// Helpers blocked on `work_cv`.
    idle_helpers: usize,
    /// Whether the committer is blocked on `done_cv`.
    committer_waiting: bool,
    /// Set when the search is over: helpers return.
    done: bool,
}

/// A relaxation solved ahead of the committer.
struct Ready {
    id: u32,
    result: LpResult,
    /// Solved on a helper thread, not by the committer.
    by_helper: bool,
}

/// A node claimed for solving ahead: what its relaxation depends on.
struct Task {
    id: u32,
    branch: Option<Arc<Branch>>,
    basis: Arc<BasisSnapshot>,
}

/// Claimed nodes a thread solves back to back: a node, and its sibling
/// when that was claimable too, whose LP then starts from the node's
/// factorization (see [`LpBuffers`]).
type Claim = (Task, Option<Task>);

impl Frontier {
    /// Whether a thread may claim `n`: it has an id, no result ready or
    /// coming, and the incumbent does not prune it.
    fn claimable(&self, n: &Node) -> bool {
        n.id != NO_ID
            && n.bound > self.prune_at
            && !self.claimed.contains(&n.id)
            && !self.ready.iter().any(|r| r.id == n.id)
    }

    fn has_room(&self) -> bool {
        self.ready.len() + self.claimed.len() < MAX_AHEAD
    }

    fn claim_node(&mut self, n: &Node) -> Task {
        self.claimed.push(n.id);
        Task {
            id: n.id,
            branch: n.branch.clone(),
            basis: Arc::clone(&n.basis),
        }
    }

    /// Claims the sibling of `of` (the open node that shares its parent's
    /// snapshot) if it sits among the top heap slots and is claimable.
    fn claim_sibling(&mut self, of: &Node) -> Option<Task> {
        if !self.has_room() {
            return None;
        }
        let HeapNode(sibling) = self.heap.iter().take(SCAN_SLOTS).find(|HeapNode(n)| {
            n.id != of.id && Arc::ptr_eq(&n.basis, &of.basis) && self.claimable(n)
        })?;
        let sibling = sibling.clone();
        Some(self.claim_node(&sibling))
    }

    /// Claims the best claimable node among the top heap slots, with its
    /// sibling when that is claimable too; `None` when there is none or
    /// `MAX_AHEAD` results are outstanding.
    fn claim(&mut self) -> Option<Claim> {
        if !self.has_room() {
            return None;
        }
        let HeapNode(node) = self
            .heap
            .iter()
            .take(SCAN_SLOTS)
            .filter(|HeapNode(n)| self.claimable(n))
            .max()?;
        let node = node.clone();
        let first = self.claim_node(&node);
        Some((first, self.claim_sibling(&node)))
    }
}

/// Per-thread buffers for node relaxations: the rebuilt bounds, the
/// decision path, and the LP's buffers, all reused node to node.
#[derive(Default)]
struct Buffers {
    bounds: Vec<(f64, f64)>,
    path: Vec<(usize, f64, f64)>,
    lp: LpBuffers,
}

/// What the committer and its helpers share, borrowed for the solve.
struct Shared {
    ctx: WarmContext,
    /// The model's own variable bounds: every node's starting point.
    root_bounds: Vec<(f64, f64)>,
    frontier: Mutex<Frontier>,
    /// Helpers wait here for a node to claim.
    work_cv: Condvar,
    /// The committer waits here for a helper's result.
    done_cv: Condvar,
}

/// Ends the search for the helpers when dropped.
struct ReleaseHelpers<'a>(&'a Shared);

impl Drop for ReleaseHelpers<'_> {
    fn drop(&mut self) {
        self.0.lock_frontier().done = true;
        self.0.work_cv.notify_all();
    }
}

impl Shared {
    /// Locks the frontier, poisoned or not: a panic while the lock is
    /// held unwinds the whole search, and [`ReleaseHelpers`] still takes
    /// the lock on the way out to end the helpers.
    fn lock_frontier(&self) -> MutexGuard<'_, Frontier> {
        self.frontier.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Solves the relaxation of the node `branch` leads to, warm from
    /// its parent's `basis` (`solve_relaxation_in` falls back cold
    /// itself). The node's bounds are left in `bufs.bounds`.
    fn solve_node(
        &self,
        branch: Option<&Branch>,
        basis: &BasisSnapshot,
        bufs: &mut Buffers,
    ) -> LpResult {
        node_bounds(&self.root_bounds, branch, &mut bufs.path, &mut bufs.bounds);
        self.ctx
            .solve_relaxation_in(&bufs.bounds, Some(basis), &mut bufs.lp)
    }

    /// Solves claimed nodes in order, handing each result over as soon
    /// as it is done.
    fn solve_ahead(&self, (first, second): Claim, bufs: &mut Buffers, by_helper: bool) {
        for Task { id, branch, basis } in std::iter::once(first).chain(second) {
            let result = self.solve_node(branch.as_deref(), &basis, bufs);
            // Let go of the node's links while the committer still holds
            // the node, so a helper never frees the committer's
            // allocations.
            drop((branch, basis));
            let mut f = self.lock_frontier();
            f.claimed.retain(|&c| c != id);
            if let Some(i) = f.pruned.iter().position(|&p| p == id) {
                f.pruned.swap_remove(i);
            } else {
                f.ready.push(Ready {
                    id,
                    result,
                    by_helper,
                });
            }
            if f.committer_waiting {
                self.done_cv.notify_one();
            }
        }
    }

    /// A helper's loop: claim the best unclaimed node near the heap
    /// top, solve it, hand the result over, until the search is done.
    /// Along the way it frees the results the committer gave back.
    fn help(&self) {
        let mut bufs = Buffers::default();
        let mut trash = Vec::new();
        loop {
            let task = {
                let mut f = self.lock_frontier();
                std::mem::swap(&mut trash, &mut f.returned);
                loop {
                    if f.done {
                        return;
                    }
                    if let Some(task) = f.claim() {
                        break task;
                    }
                    f.idle_helpers += 1;
                    f = self.work_cv.wait(f).unwrap_or_else(PoisonError::into_inner);
                    f.idle_helpers -= 1;
                }
            };
            trash.clear();
            self.solve_ahead(task, &mut bufs, true);
        }
    }

    /// Wakes idle helpers after the committer changed the heap or freed
    /// a result slot.
    fn wake_helpers(&self, f: &Frontier) {
        if f.idle_helpers > 0 {
            self.work_cv.notify_all();
        }
    }

    /// The committer's side of solving ahead: takes the result for node
    /// `id` if one is ready; while a helper is still solving it, solves
    /// another claimable pair ahead in the meantime, or waits. `None`
    /// when no thread has claimed the node.
    ///
    /// A helper's result comes back as a copy in the committer's own
    /// allocations, and the original goes back for a helper to free:
    /// with the allocator's per-thread caches, a thread that frees
    /// another's memory reuses it for its own, and the basis snapshots
    /// that open nodes keep would then pin pages of a helper's arena
    /// (the crate README gives the peak memory measured both ways).
    fn take_result(&self, id: u32, bufs: &mut Buffers) -> Option<LpResult> {
        loop {
            let task = {
                let mut f = self.lock_frontier();
                loop {
                    if let Some(i) = f.ready.iter().position(|r| r.id == id) {
                        let ready = f.ready.swap_remove(i);
                        self.wake_helpers(&f);
                        if !ready.by_helper {
                            return Some(ready.result);
                        }
                        let own = ready.result.clone();
                        f.returned.push(ready.result);
                        return Some(own);
                    }
                    if !f.claimed.contains(&id) {
                        return None;
                    }
                    if let Some(task) = f.claim() {
                        break task;
                    }
                    f.committer_waiting = true;
                    f = self.done_cv.wait(f).unwrap_or_else(PoisonError::into_inner);
                    f.committer_waiting = false;
                }
            };
            self.solve_ahead(task, bufs, false);
        }
    }

    /// Forgets any result for a node the committer pruned unsolved.
    fn forget(&self, id: u32) {
        let mut f = self.lock_frontier();
        if let Some(i) = f.ready.iter().position(|r| r.id == id) {
            let ready = f.ready.swap_remove(i);
            if ready.by_helper {
                f.returned.push(ready.result);
            }
            self.wake_helpers(&f);
        } else if f.claimed.contains(&id) {
            f.pruned.push(id);
        }
    }
}

/// The committing loop: everything that decides the tree. It is the
/// whole search at `threads: 1`, and the same search at any other
/// thread count: only it takes relaxation results, offers incumbents,
/// dives, pushes children and counts.
struct Search<'a> {
    shared: &'a Shared,
    model: &'a Model,
    int_vars: Vec<usize>,
    deadline: Instant,
    relative_gap: f64,
    max_nodes: u64,
    /// Helper threads solving relaxations ahead (0: none).
    helpers: usize,
    /// Best integer-feasible point, internal (maximize) objective.
    incumbent: Option<(f64, Vec<f64>)>,
    /// Highest bound among nodes dropped after LP failures; NEG_INFINITY
    /// when none. Keeps `best_bound` honest when the tree has holes.
    failed_bound: f64,
    nodes_explored: u64,
    lp_iterations: u64,
    warm_starts: u64,
    cold_starts: u64,
    relaxation_failures: u64,
    /// The id the next pushed node gets.
    next_id: u32,
    /// The sibling of the node being processed, claimed so that no
    /// helper takes it before the next pop.
    reserved: Option<u32>,
    bufs: Buffers,
}

impl Search<'_> {
    fn internal(&self, obj: f64) -> f64 {
        match self.model.sense {
            Sense::Maximize => obj,
            Sense::Minimize => -obj,
        }
    }

    /// Internal → model sense (the map is an involution).
    fn external(&self, obj: f64) -> f64 {
        self.internal(obj)
    }

    fn solution(
        &self,
        status: SolveStatus,
        objective: f64,
        values: Vec<f64>,
        best_bound: f64,
    ) -> MilpSolution {
        MilpSolution {
            status,
            objective,
            values,
            best_bound,
            nodes_explored: self.nodes_explored,
            lp_iterations: self.lp_iterations,
            warm_starts: self.warm_starts,
            cold_starts: self.cold_starts,
            relaxation_failures: self.relaxation_failures,
        }
    }

    fn next_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = id.saturating_add(1);
        id
    }

    /// Offers a candidate to the incumbent (validating feasibility),
    /// keeping the better of the two.
    fn consider(&mut self, vals: &[f64]) {
        if !self.model.is_feasible(vals, 1e-6) {
            return;
        }
        let obj = self.internal(self.model.objective_value(vals));
        match &self.incumbent {
            Some((best, _)) if *best >= obj => {}
            _ => {
                self.incumbent = Some((obj, vals.to_vec()));
                if self.helpers > 0 {
                    let cut = obj + self.relative_gap * obj.abs().max(1.0);
                    self.shared.lock_frontier().prune_at = cut;
                }
            }
        }
    }

    fn incumbent_objective(&self) -> Option<f64> {
        self.incumbent.as_ref().map(|(o, _)| *o)
    }

    /// Counts one relaxation the search used.
    fn count_lp(&mut self, relax: &RelaxSolve) {
        self.lp_iterations += relax.iterations;
        if relax.warmed {
            self.warm_starts += 1;
        } else {
            self.cold_starts += 1;
        }
    }

    /// One counted LP solve for the dive.
    fn dive_lp(&mut self, bounds: &[(f64, f64)], basis: &BasisSnapshot) -> Option<RelaxSolve> {
        let relax = self
            .shared
            .ctx
            .solve_relaxation_in(bounds, Some(basis), &mut self.bufs.lp)
            .ok()?;
        self.count_lp(&relax);
        Some(relax)
    }

    /// LP-guided diving heuristic: starting from `bounds`, repeatedly fix
    /// a batch of near-integral variables (at least the least fractional
    /// one) to their nearest integers and re-solve from the previous
    /// step's basis. An infeasible batch fix backtracks to a
    /// single-variable fix (either side) before the dive gives up —
    /// incumbents come almost entirely from dives, so a fragile dive
    /// starves the whole search.
    fn dive_warm(&mut self, bounds: &[(f64, f64)], basis: &BasisSnapshot) -> Option<Vec<f64>> {
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

    /// The node's relaxation: a helper's result when one is ready or
    /// coming, else solved here. Either way the node's bounds end up in
    /// `self.bufs.bounds`.
    fn relaxation(&mut self, node: &Node) -> LpResult {
        let shared = self.shared;
        if self.helpers > 0 && node.id != NO_ID {
            if let Some(result) = shared.take_result(node.id, &mut self.bufs) {
                let s = &mut self.bufs;
                node_bounds(
                    &shared.root_bounds,
                    node.branch.as_deref(),
                    &mut s.path,
                    &mut s.bounds,
                );
                return result;
            }
        }
        shared.solve_node(node.branch.as_deref(), &node.basis, &mut self.bufs)
    }

    /// The committing loop: pops nodes best first and processes each
    /// exactly as a lone thread would. Returns why it stopped and the
    /// global bound at that point.
    fn run(&mut self) -> (Stop, f64) {
        let shared = self.shared;
        loop {
            let (node, global_bound) = {
                let mut f = shared.lock_frontier();
                let Some(HeapNode(node)) = f.heap.pop() else {
                    return (Stop::Exhausted, f64::NEG_INFINITY);
                };
                // The last node's reserved sibling: solved here if it is
                // this node, else left to the helpers.
                if let Some(id) = self.reserved.take() {
                    f.claimed.retain(|&c| c != id);
                }
                // Children never exceed their parent's bound, so the
                // popped node and the heap top bound every open node.
                let top = f.heap.peek().map_or(node.bound, |t| t.0.bound);
                // A node no thread has taken is solved here. Its sibling
                // often pops next and then starts from this node's
                // factorization, so it stays reserved until the next pop:
                // no helper splits the pair.
                if self.helpers > 0 && f.claimable(&node) {
                    self.reserved = f.claim_sibling(&node).map(|task| task.id);
                }
                shared.wake_helpers(&f);
                let global_bound = node.bound.max(top);
                (node, global_bound)
            };

            let inc_obj = self.incumbent_objective();
            if let Some(inc) = inc_obj {
                let gap = (global_bound - inc) / inc.abs().max(1.0);
                if gap <= self.relative_gap {
                    return (Stop::GapReached, global_bound);
                }
            }
            if Instant::now() >= self.deadline || self.nodes_explored >= self.max_nodes {
                return (Stop::Budget, global_bound);
            }
            if let Some(inc) = inc_obj {
                if node.bound <= inc + self.relative_gap * inc.abs().max(1.0) {
                    if self.helpers > 0 {
                        shared.forget(node.id); // pruned by bound
                    }
                    continue;
                }
            }

            let relax = match self.relaxation(&node) {
                Ok(r) => r,
                Err(MilpError::Infeasible) => continue,
                Err(_) => {
                    // Numerical failure: drop the node but record the
                    // hole so the final status/bound stay honest.
                    self.relaxation_failures += 1;
                    self.failed_bound = self.failed_bound.max(node.bound);
                    continue;
                }
            };
            self.count_lp(&relax);
            self.nodes_explored += 1;
            let explored = self.nodes_explored;

            let node_bound = self.internal(relax.objective);
            if let Some(inc) = self.incumbent_objective() {
                if node_bound <= inc + self.relative_gap * inc.abs().max(1.0) {
                    continue; // pruned by bound
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
            let Some((j, _)) = branch_var else {
                // Integer feasible.
                let snapped = rounded(vals, &self.int_vars);
                self.consider(&snapped);
                continue;
            };
            let x = vals[j];
            let (lo, hi) = self.bufs.bounds[j];
            // Dive eagerly until a first incumbent exists (without one,
            // nothing prunes and a budgeted solve can end empty-handed),
            // occasionally afterwards.
            let cadence = if self.incumbent.is_none() { 16 } else { 128 };
            if explored.is_multiple_of(cadence) {
                let bounds = std::mem::take(&mut self.bufs.bounds);
                if let Some(dived) = self.dive_warm(&bounds, &relax.basis) {
                    self.consider(&dived);
                }
                self.bufs.bounds = bounds;
            }
            let snapped = rounded(&relax.values, &self.int_vars);
            self.consider(&snapped);

            let child_basis = Arc::new(relax.basis);
            let mut children = [None, None];
            // Down branch: x <= floor.
            let down_hi = x.floor();
            if down_hi >= lo - INT_EPS {
                children[0] = Some((lo, down_hi.max(lo)));
            }
            // Up branch: x >= ceil.
            let up_lo = x.ceil();
            if up_lo <= hi + INT_EPS {
                children[1] = Some((up_lo.min(hi), hi));
            }
            let children = children.map(|bounds| {
                bounds.map(|(lo, hi)| Node {
                    branch: Some(Arc::new(Branch {
                        var: j,
                        lo,
                        hi,
                        parent: node.branch.clone(),
                    })),
                    bound: node_bound,
                    depth: node.depth + 1,
                    id: self.next_id(),
                    basis: Arc::clone(&child_basis),
                })
            });
            // One push each, down first: the heap's layout, and so its
            // order among equal keys, is the single-thread search's.
            let mut f = shared.lock_frontier();
            for child in children.into_iter().flatten() {
                f.heap.push(HeapNode(child));
            }
            shared.wake_helpers(&f);
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
    use proptest::prelude::*;

    #[test]
    fn open_nodes_stay_compact() {
        // A bound, a depth, an id and two pointers: the bounds
        // themselves live on the shared `Branch` chain.
        let size = std::mem::size_of::<Node>();
        assert!(size <= 32, "Node is {size} bytes");
    }

    /// A heap entry with the given bound and depth (the basis is any
    /// valid one; ordering never reads it).
    fn heap_node(bound: f64, depth: u32) -> HeapNode {
        let mut m = Model::new(Sense::Maximize);
        m.add_binary("x", 1.0);
        let basis = WarmContext::new(&m)
            .solve_relaxation_in(&[(0.0, 1.0)], None, &mut LpBuffers::default())
            .unwrap()
            .basis;
        HeapNode(Node {
            branch: None,
            bound,
            depth,
            id: 0,
            basis: Arc::new(basis),
        })
    }

    #[test]
    fn heap_equality_agrees_with_ordering_on_signed_zero() {
        let (neg, pos) = (heap_node(-0.0, 3), heap_node(0.0, 3));
        assert_eq!(neg.cmp(&pos), Ordering::Less);
        assert!(neg != pos, "-0.0 and 0.0 bounds order apart");
        assert!(neg == heap_node(-0.0, 3));
        assert!(pos == heap_node(0.0, 3));
        assert!(pos != heap_node(0.0, 4));
    }

    #[test]
    fn later_decision_on_a_variable_wins() {
        // Repeated branching on one general integer, ending in a
        // decision that is not nested in the one before it.
        let root = [(0.0, 10.0), (0.0, 1.0)];
        let mut link = None;
        for (var, lo, hi) in [(0, 3.0, 10.0), (1, 1.0, 1.0), (0, 3.0, 6.0), (0, 7.0, 8.0)] {
            link = Some(Arc::new(Branch {
                var,
                lo,
                hi,
                parent: link,
            }));
        }
        let (mut path, mut out) = (Vec::new(), Vec::new());
        node_bounds(&root, link.as_deref(), &mut path, &mut out);
        assert_eq!(out, [(7.0, 8.0), (1.0, 1.0)]);
        node_bounds(&root, None, &mut path, &mut out);
        assert_eq!(out, root);
    }

    #[test]
    fn long_branch_chain_drops_without_recursion() {
        let mut link = None;
        for i in 0..1_000_000 {
            link = Some(Arc::new(Branch {
                var: i % 7,
                lo: 0.0,
                hi: 1.0,
                parent: link,
            }));
        }
        drop(link);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rebuilt bounds equal the full bounds vector each node would
        /// have stored, over random trees whose nodes branch from any
        /// earlier node (so siblings share ancestors) on few variables
        /// (so one variable is decided again and again, not always
        /// nested in its earlier decision).
        #[test]
        fn node_bounds_match_explicit_bounds_vectors(
            nvars in 1usize..6,
            steps in proptest::collection::vec((0usize..64, 0usize..6, 0u8..11, 0u8..11), 1..40),
        ) {
            let root: Vec<(f64, f64)> = (0..nvars).map(|i| (0.0, 10.0 + i as f64)).collect();
            // Each node's decision chain and the bounds vector it stood for.
            let mut nodes = vec![(None::<Arc<Branch>>, root.clone())];
            for (parent, var, a, b) in steps {
                let (link, mut bounds) = nodes[parent % nodes.len()].clone();
                let var = var % nvars;
                let (lo, hi) = (f64::from(a.min(b)), f64::from(a.max(b)));
                bounds[var] = (lo, hi);
                let branch = Branch { var, lo, hi, parent: link };
                nodes.push((Some(Arc::new(branch)), bounds));
            }
            let (mut path, mut out) = (Vec::new(), Vec::new());
            for (link, expected) in &nodes {
                node_bounds(&root, link.as_deref(), &mut path, &mut out);
                prop_assert_eq!(&out, expected);
            }
        }
    }

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
                // Only the committer counts nodes: no overshoot.
                assert!(sol.nodes_explored <= 16, "nodes {}", sol.nodes_explored);
                assert!(m.is_feasible(&sol.values, 1e-6));
            }
            Err(MilpError::TimeLimitNoSolution) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
