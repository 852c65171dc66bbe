//! Mixed-integer linear programming, from scratch.
//!
//! The paper solves the Flex-Offline placement ILP (Section IV-B) with
//! Gurobi. This crate is the reproduction's stand-in: a self-contained
//! MILP solver sized for that problem class (a few hundred binaries, a few
//! hundred rows) —
//!
//! - [`Model`] — a mutable model builder: variables (continuous or
//!   integer/binary, with bounds), linear constraints, and a linear
//!   objective;
//! - [`simplex`] — a two-phase bounded-variable simplex over the LP
//!   relaxation, on a tableau that stores only the nonbasic columns
//!   (`B⁻¹N`; each basic column is implicit in its pivot entry), with
//!   a dual simplex for warm re-solves;
//! - branch-and-bound ([`Model::solve`]) — best-first search on the LP
//!   bound with most-fractional branching, warm-started node
//!   relaxations (dual simplex from the parent basis, see
//!   [`simplex::WarmContext`]), rounding and diving incumbent
//!   heuristics, a relative-gap stop, and a wall-clock time limit
//!   (mirroring the paper's 5-minute Gurobi cap).
//!   [`SolveConfig::threads`] sets how many threads solve node
//!   relaxations; one of them commits nodes in the single-thread
//!   order, so every thread count explores the same tree and returns
//!   the same solution. See `crates/milp/README.md` for the engine
//!   architecture.
//!
//! # Example: a tiny knapsack
//!
//! ```
//! use flex_milp::{Model, Sense, Relation, SolveConfig};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let items = [(60.0, 10.0), (100.0, 20.0), (120.0, 30.0)];
//! let vars: Vec<_> = items
//!     .iter()
//!     .enumerate()
//!     .map(|(i, (value, _))| m.add_binary(format!("item{i}"), *value))
//!     .collect();
//! let weights: Vec<_> = vars.iter().zip(&items).map(|(&v, (_, w))| (v, *w)).collect();
//! m.add_constraint("capacity", weights, Relation::Le, 50.0)?;
//! let sol = m.solve(&SolveConfig::default())?;
//! assert_eq!(sol.objective.round(), 220.0); // items 1 and 2
//! # Ok::<(), flex_milp::MilpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod model;
pub mod simplex;
mod solver;

pub use error::MilpError;
pub use model::{ConstraintId, Model, Relation, Sense, VarId, VarKind};
pub use simplex::{BasisSnapshot, RelaxSolve, WarmContext};
pub use solver::{MilpSolution, SolveConfig, SolveStatus};
