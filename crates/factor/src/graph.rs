//! The factor-graph structure: a bipartite graph of variables and factors.

use crate::belief::Belief;
use crate::factor::Factor;
use std::fmt;

/// Identifier of a variable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub usize);

/// Identifier of a factor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactorId(pub usize);

impl fmt::Display for VariableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for FactorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A variable node: a binary variable plus bookkeeping.
#[derive(Debug, Clone)]
struct VariableNode {
    name: String,
    factors: Vec<FactorId>,
}

/// A factor node: the factor function plus the ordered list of variables it touches.
#[derive(Debug, Clone)]
struct FactorNode {
    factor: Factor,
}

/// A factor graph over binary variables.
///
/// Variables and factors are added once and never removed; the sum-product engine and
/// the exact-inference baseline operate on an immutable borrow.
#[derive(Debug, Clone, Default)]
pub struct FactorGraph {
    variables: Vec<VariableNode>,
    factors: Vec<FactorNode>,
}

impl FactorGraph {
    /// Creates an empty factor graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named binary variable.
    pub fn add_variable(&mut self, name: impl Into<String>) -> VariableId {
        let id = VariableId(self.variables.len());
        self.variables.push(VariableNode {
            name: name.into(),
            factors: Vec::new(),
        });
        id
    }

    /// Adds a factor. The factor's scope must reference variables already added.
    ///
    /// # Panics
    /// Panics if the factor references an unknown variable.
    pub fn add_factor(&mut self, factor: Factor) -> FactorId {
        for v in factor.scope() {
            assert!(
                v.0 < self.variables.len(),
                "factor references unknown variable {v}"
            );
        }
        let id = FactorId(self.factors.len());
        for v in factor.scope() {
            self.variables[v.0].factors.push(id);
        }
        self.factors.push(FactorNode { factor });
        id
    }

    /// Convenience: adds a single-variable prior factor with `P(correct) = p`.
    pub fn add_prior(&mut self, variable: VariableId, p_correct: f64) -> FactorId {
        self.add_factor(Factor::prior(variable, Belief::from_probability(p_correct)))
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// All variable ids.
    pub fn variables(&self) -> impl Iterator<Item = VariableId> {
        (0..self.variables.len()).map(VariableId)
    }

    /// All factor ids.
    pub fn factors(&self) -> impl Iterator<Item = FactorId> {
        (0..self.factors.len()).map(FactorId)
    }

    /// Name of a variable.
    pub fn variable_name(&self, v: VariableId) -> &str {
        &self.variables[v.0].name
    }

    /// Looks up a variable by name (linear scan; graphs are small).
    pub fn variable_by_name(&self, name: &str) -> Option<VariableId> {
        self.variables
            .iter()
            .position(|v| v.name == name)
            .map(VariableId)
    }

    /// Factors adjacent to a variable.
    pub fn factors_of(&self, v: VariableId) -> &[FactorId] {
        &self.variables[v.0].factors
    }

    /// The factor function of a factor node.
    pub fn factor(&self, f: FactorId) -> &Factor {
        &self.factors[f.0].factor
    }

    /// Variables in the scope of a factor, in scope order.
    pub fn scope_of(&self, f: FactorId) -> &[VariableId] {
        self.factors[f.0].factor.scope()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::Factor;

    #[test]
    fn variables_and_factors_are_registered() {
        let mut g = FactorGraph::new();
        let a = g.add_variable("m12");
        let b = g.add_variable("m23");
        g.add_prior(a, 0.7);
        g.add_prior(b, 0.7);
        let f = g.add_factor(Factor::feedback(vec![a, b], true, 0.1));
        assert_eq!(g.variable_count(), 2);
        assert_eq!(g.factors().count(), 3);
        assert_eq!(g.factors_of(a).len(), 2);
        assert_eq!(g.scope_of(f), &[a, b]);
    }

    #[test]
    fn variable_lookup_by_name() {
        let mut g = FactorGraph::new();
        let a = g.add_variable("m12");
        assert_eq!(g.variable_by_name("m12"), Some(a));
        assert_eq!(g.variable_by_name("nope"), None);
        assert_eq!(g.variable_name(a), "m12");
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn factor_with_unknown_variable_panics() {
        let mut g = FactorGraph::new();
        g.add_factor(Factor::prior(VariableId(3), Belief::uniform()));
    }
}
