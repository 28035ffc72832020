//! Exact marginal computation by exhaustive enumeration.
//!
//! Loopy belief propagation only approximates marginals on cyclic factor graphs
//! (Section 3.1); the paper quantifies the approximation error against "a global
//! inference process" (Figure 9). This module is that global reference: it enumerates
//! every joint assignment of the variables, multiplies all factors, and normalises.
//! The cost is `O(2^n · f)`, fine for the evaluation graphs (a handful to a few dozen
//! variables) and deliberately simple so it can serve as the trusted oracle in tests.

use crate::graph::FactorGraph;

/// Maximum number of variables accepted by [`exact_marginals`]. Beyond this the
/// enumeration would exceed ~2^24 joint states and the caller almost certainly wants
/// the iterative engine instead.
pub const MAX_EXACT_VARIABLES: usize = 24;

/// Computes the exact posterior `P(correct)` of every variable.
///
/// Returns one probability per variable, indexed by `VariableId.0`. Variables not
/// covered by any factor come out as 0.5.
///
/// # Panics
/// Panics if the graph has more than [`MAX_EXACT_VARIABLES`] variables.
pub fn exact_marginals(graph: &FactorGraph) -> Vec<f64> {
    let n = graph.variable_count();
    assert!(
        n <= MAX_EXACT_VARIABLES,
        "exact inference limited to {MAX_EXACT_VARIABLES} variables, got {n}"
    );
    if n == 0 {
        return Vec::new();
    }
    let mut correct_mass = vec![0.0f64; n];
    let mut total_mass = 0.0f64;
    let states = 1usize << n;
    let mut assignment = vec![0usize; n];
    let mut scratch: Vec<usize> = Vec::new();
    for code in 0..states {
        for (i, a) in assignment.iter_mut().enumerate() {
            *a = (code >> i) & 1;
        }
        let mut weight = 1.0f64;
        for f in graph.factors() {
            scratch.clear();
            scratch.extend(graph.scope_of(f).iter().map(|v| assignment[v.0]));
            weight *= graph.factor(f).evaluate(&scratch);
            if weight == 0.0 {
                break;
            }
        }
        if weight == 0.0 {
            continue;
        }
        total_mass += weight;
        for (i, a) in assignment.iter().enumerate() {
            if *a == 0 {
                correct_mass[i] += weight;
            }
        }
    }
    if total_mass <= f64::EPSILON {
        // Fully contradictory evidence: fall back to the uninformative answer.
        return vec![0.5; n];
    }
    correct_mass.iter().map(|m| m / total_mass).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belief::Belief;
    use crate::factor::Factor;

    #[test]
    fn single_prior_is_returned_as_is() {
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        g.add_prior(x, 0.8);
        let m = exact_marginals(&g);
        assert!((m[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn two_independent_variables_do_not_interact() {
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        let y = g.add_variable("y");
        g.add_prior(x, 0.9);
        g.add_prior(y, 0.2);
        let m = exact_marginals(&g);
        assert!((m[x.0] - 0.9).abs() < 1e-12);
        assert!((m[y.0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn positive_feedback_on_a_two_cycle_raises_both_posteriors() {
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        let y = g.add_variable("y");
        g.add_prior(x, 0.5);
        g.add_prior(y, 0.5);
        g.add_factor(Factor::feedback(vec![x, y], true, 0.1));
        let m = exact_marginals(&g);
        // By hand: states (c,c)=1*0.25, (i,c)=(c,i)=0, (i,i)=0.1*0.25.
        // P(x=c) = 0.25 / 0.275 ≈ 0.9091.
        assert!((m[x.0] - 0.25 / 0.275).abs() < 1e-12);
        assert!((m[y.0] - 0.25 / 0.275).abs() < 1e-12);
    }

    #[test]
    fn negative_feedback_on_a_two_cycle_lowers_both_posteriors() {
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        let y = g.add_variable("y");
        g.add_prior(x, 0.5);
        g.add_prior(y, 0.5);
        g.add_factor(Factor::feedback(vec![x, y], false, 0.1));
        let m = exact_marginals(&g);
        // States: (c,c)=0, (i,c)=(c,i)=1*0.25, (i,i)=0.9*0.25.
        // P(x=c) = 0.25 / 0.725 ≈ 0.3448.
        assert!((m[x.0] - 0.25 / 0.725).abs() < 1e-12);
    }

    #[test]
    fn contradictory_evidence_falls_back_to_uniform() {
        // A prior of 1.0 on "correct" combined with a hard negative observation on a
        // single-mapping cycle gives zero total mass.
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        g.add_factor(Factor::prior(x, Belief::from_probability(1.0)));
        g.add_factor(Factor::feedback(vec![x], false, 0.0));
        let m = exact_marginals(&g);
        assert!((m[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_yields_empty_result() {
        let g = FactorGraph::new();
        assert!(exact_marginals(&g).is_empty());
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_variables_panic() {
        let mut g = FactorGraph::new();
        for i in 0..=MAX_EXACT_VARIABLES {
            g.add_variable(format!("v{i}"));
        }
        exact_marginals(&g);
    }
}
