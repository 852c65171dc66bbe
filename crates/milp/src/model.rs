//! The model-building API: variables, constraints, objective.

use std::fmt;

use crate::MilpError;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Variable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (binaries are integers in `[0,1]`).
    Integer,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Less than or equal.
    Le,
    /// Greater than or equal.
    Ge,
    /// Equality.
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The variable's dense index (its position in solution value
    /// vectors and warm starts).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a model constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub(crate) name: String,
    pub(crate) kind: VarKind,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) objective: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintDef {
    /// Terms with coefficients, deduplicated by variable.
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A mixed-integer linear program under construction.
///
/// See the crate-level example. Variables carry their objective
/// coefficient at creation; constraints are added afterwards. Solve with
/// [`Model::solve`].
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvertedBounds`] if `lower > upper`, or
    /// [`MilpError::NonFiniteValue`] if a bound or the objective
    /// coefficient is NaN (infinite bounds are rejected too: the paper's
    /// ILP is fully bounded, and bounded variables keep the simplex
    /// conversion simple).
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> Result<VarId, MilpError> {
        let name = name.into();
        if !lower.is_finite() || !upper.is_finite() {
            return Err(MilpError::NonFiniteValue(format!("bounds of {name}")));
        }
        if !objective.is_finite() {
            return Err(MilpError::NonFiniteValue(format!(
                "objective coefficient of {name}"
            )));
        }
        if lower > upper {
            return Err(MilpError::InvertedBounds { lower, upper });
        }
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name,
            kind,
            lower,
            upper,
            objective,
        });
        Ok(id)
    }

    /// Adds a binary (0/1) variable with the given objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is not finite.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_var(name, VarKind::Integer, 0.0, 1.0, objective)
            .expect("binary bounds are always valid")
    }

    /// Adds a continuous variable.
    ///
    /// # Errors
    ///
    /// See [`Model::add_var`].
    pub fn add_continuous(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> Result<VarId, MilpError> {
        self.add_var(name, VarKind::Continuous, lower, upper, objective)
    }

    /// Adds a linear constraint `Σ coeff·var (relation) rhs`. Terms with
    /// the same variable are summed.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::UnknownVariable`] for a foreign variable id or
    /// [`MilpError::NonFiniteValue`] for a NaN/infinite coefficient or rhs.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> Result<ConstraintId, MilpError> {
        let name = name.into();
        if !rhs.is_finite() {
            return Err(MilpError::NonFiniteValue(format!("rhs of {name}")));
        }
        let mut dense: Vec<f64> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        for (var, coeff) in terms {
            if var.0 >= self.vars.len() {
                return Err(MilpError::UnknownVariable(var.0));
            }
            if !coeff.is_finite() {
                return Err(MilpError::NonFiniteValue(format!(
                    "coefficient of {} in {name}",
                    self.vars[var.0].name
                )));
            }
            if dense.len() <= var.0 {
                dense.resize(var.0 + 1, 0.0);
            }
            // flex-lint: allow(F1): exact structural-zero test on a zero-initialized accumulator
            if dense[var.0] == 0.0 {
                touched.push(var.0);
            }
            dense[var.0] += coeff;
        }
        touched.sort_unstable();
        let terms: Vec<(usize, f64)> = touched
            .into_iter()
            .map(|i| (i, dense[i]))
            // flex-lint: allow(F1): exact-zero sparsity filter; an epsilon would change the model
            .filter(|(_, c)| *c != 0.0)
            .collect();
        let id = ConstraintId(self.constraints.len());
        self.constraints.push(ConstraintDef {
            terms,
            relation,
            rhs,
        });
        Ok(id)
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Evaluates the objective for a full assignment (used by tests and
    /// heuristics).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the variable count.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.vars.len(), "assignment length mismatch");
        self.vars
            .iter()
            .zip(values)
            .map(|(v, x)| v.objective * x)
            .sum()
    }

    /// Checks whether a full assignment satisfies every constraint and
    /// bound within `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the variable count.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        assert_eq!(values.len(), self.vars.len(), "assignment length mismatch");
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if v.kind == VarKind::Integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, a)| a * values[i]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_validation() {
        let mut m = Model::new(Sense::Maximize);
        assert!(m
            .add_var("x", VarKind::Continuous, 1.0, 0.0, 0.0)
            .is_err());
        assert!(m
            .add_var("x", VarKind::Continuous, f64::NEG_INFINITY, 0.0, 0.0)
            .is_err());
        assert!(m
            .add_var("x", VarKind::Continuous, 0.0, 1.0, f64::NAN)
            .is_err());
        let id = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 2.0).unwrap();
        assert_eq!(m.vars[id.0].name, "x");
        assert_eq!(m.var_count(), 1);
    }

    #[test]
    fn constraint_merges_duplicate_terms() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 1.0);
        let c = m
            .add_constraint("c", vec![(x, 2.0), (x, 3.0)], Relation::Le, 4.0)
            .unwrap();
        assert_eq!(c, ConstraintId(0));
        assert_eq!(m.constraints[0].terms, vec![(0, 5.0)]);
    }

    #[test]
    fn constraint_drops_cancelled_terms() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("c", vec![(x, 2.0), (x, -2.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        assert_eq!(m.constraints[0].terms, vec![(1, 1.0)]);
    }

    #[test]
    fn constraint_validation() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 1.0);
        assert!(m
            .add_constraint("c", vec![(VarId(9), 1.0)], Relation::Le, 1.0)
            .is_err());
        assert!(m
            .add_constraint("c", vec![(x, f64::INFINITY)], Relation::Le, 1.0)
            .is_err());
        assert!(m
            .add_constraint("c", vec![(x, 1.0)], Relation::Le, f64::NAN)
            .is_err());
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m
            .add_continuous("y", 0.0, 10.0, 1.0)
            .unwrap();
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0)
            .unwrap();
        assert!(m.is_feasible(&[1.0, 4.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 5.0], 1e-9)); // violates c
        assert!(!m.is_feasible(&[0.5, 1.0], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[0.0, 11.0], 1e-9)); // bound violation
        assert_eq!(m.objective_value(&[1.0, 4.0]), 5.0);
    }
}
