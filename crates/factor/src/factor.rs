//! Factor functions over binary variables.
//!
//! Two kinds of factors occur in PDMS factor graphs:
//!
//! * **prior factors** — single-variable factors carrying the peer's prior belief on
//!   the correctness of one mapping (top layer of Figure 4/5);
//! * **feedback factors** — the conditional probability of having observed positive or
//!   negative feedback on a cycle / parallel path given the correctness of the
//!   mappings involved (Section 3.2.1). These have a special structure (the value
//!   depends only on *how many* mappings are incorrect), which
//!   [`crate::feedback_factor`] exploits for O(n) message computation;

use crate::belief::Belief;
use crate::feedback_factor::{feedback_message, feedback_value, FeedbackSign};
use crate::graph::VariableId;

#[derive(Debug, Clone)]
enum FactorBody {
    Prior(Belief),
    Feedback { sign: FeedbackSign, delta: f64 },
}

/// A factor: a non-negative function over the joint states of its scope.
///
/// States are encoded as `0 = correct`, `1 = incorrect`; a joint assignment is a slice
/// of states aligned with the scope.
#[derive(Debug, Clone)]
pub struct Factor {
    scope: Vec<VariableId>,
    body: FactorBody,
}

impl Factor {
    /// Single-variable prior factor.
    pub fn prior(variable: VariableId, belief: Belief) -> Self {
        Self {
            scope: vec![variable],
            body: FactorBody::Prior(belief),
        }
    }

    /// Feedback factor over the mappings of one cycle or parallel path.
    ///
    /// `positive` selects which observation was made; `delta` is the compensating-error
    /// probability Δ.
    ///
    /// # Panics
    /// Panics if the scope is empty or `delta` is outside `[0, 1]`.
    pub fn feedback(scope: Vec<VariableId>, positive: bool, delta: f64) -> Self {
        assert!(!scope.is_empty(), "feedback factor needs a non-empty scope");
        assert!((0.0..=1.0).contains(&delta), "delta {delta} outside [0, 1]");
        Self {
            scope,
            body: FactorBody::Feedback {
                sign: if positive {
                    FeedbackSign::Positive
                } else {
                    FeedbackSign::Negative
                },
                delta,
            },
        }
    }

    /// The variables this factor touches, in scope order.
    pub fn scope(&self) -> &[VariableId] {
        &self.scope
    }

    /// Evaluates the factor on a joint assignment (one state per scope variable).
    ///
    /// # Panics
    /// Panics if the assignment length does not match the scope or a state is not 0/1.
    pub fn evaluate(&self, assignment: &[usize]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.scope.len(),
            "assignment/scope mismatch"
        );
        assert!(assignment.iter().all(|s| *s < 2), "states must be 0 or 1");
        match &self.body {
            FactorBody::Prior(belief) => belief.weight(assignment[0]),
            FactorBody::Feedback { sign, delta } => {
                let incorrect = assignment.iter().filter(|s| **s == 1).count();
                feedback_value(*sign, incorrect, *delta)
            }
        }
    }

    /// Computes the sum-product message from this factor to the variable at scope
    /// position `to_position`, given the incoming variable→factor messages for every
    /// scope variable (the entry at `to_position` is ignored, matching the
    /// `n(f) \ {x}` product of the update rule).
    ///
    /// Prior factors return their belief; feedback factors use the closed-form O(n)
    /// computation.
    pub fn message_to(&self, to_position: usize, incoming: &[Belief]) -> Belief {
        assert!(to_position < self.scope.len(), "position out of scope");
        assert_eq!(incoming.len(), self.scope.len(), "incoming/scope mismatch");
        match &self.body {
            FactorBody::Prior(belief) => *belief,
            FactorBody::Feedback { sign, delta } => {
                feedback_message(*sign, *delta, to_position, incoming)
            }
        }
    }

    /// Reference implementation of the factor→variable message by explicit enumeration
    /// of the joint states of the other scope variables. Exponential in the scope size;
    /// the test oracle for the feedback closed form.
    pub fn message_by_enumeration(&self, to_position: usize, incoming: &[Belief]) -> Belief {
        let n = self.scope.len();
        let mut out = [0.0f64; 2];
        let mut assignment = vec![0usize; n];
        // Iterate over all joint assignments of the scope; accumulate by the state of
        // the target variable, weighting by the incoming messages of the *other* vars.
        let total = 1usize << n;
        for code in 0..total {
            for (pos, state) in assignment.iter_mut().enumerate() {
                *state = (code >> pos) & 1;
            }
            let mut weight = self.evaluate(&assignment);
            if weight == 0.0 {
                continue;
            }
            for (pos, state) in assignment.iter().enumerate() {
                if pos != to_position {
                    weight *= incoming[pos].weight(*state);
                }
            }
            out[assignment[to_position]] += weight;
        }
        Belief::from_weights(out[0], out[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: usize) -> Vec<VariableId> {
        (0..n).map(VariableId).collect()
    }

    #[test]
    fn prior_factor_evaluates_to_belief_weights() {
        let f = Factor::prior(VariableId(0), Belief::from_probability(0.8));
        assert!((f.evaluate(&[0]) - 0.8).abs() < 1e-12);
        assert!((f.evaluate(&[1]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn feedback_factor_matches_paper_cpt() {
        let f = Factor::feedback(vars(3), true, 0.1);
        assert_eq!(f.evaluate(&[0, 0, 0]), 1.0); // all correct
        assert_eq!(f.evaluate(&[1, 0, 0]), 0.0); // exactly one incorrect
        assert_eq!(f.evaluate(&[1, 1, 0]), 0.1); // two incorrect
        assert_eq!(f.evaluate(&[1, 1, 1]), 0.1); // three incorrect
    }

    #[test]
    fn negative_feedback_is_complement() {
        let plus = Factor::feedback(vars(3), true, 0.1);
        let minus = Factor::feedback(vars(3), false, 0.1);
        for code in 0..8usize {
            let assignment = [code & 1, (code >> 1) & 1, (code >> 2) & 1];
            let sum = plus.evaluate(&assignment) + minus.evaluate(&assignment);
            assert!((sum - 1.0).abs() < 1e-12, "CPT rows must sum to 1");
        }
    }

    #[test]
    fn feedback_message_matches_enumeration() {
        let f = Factor::feedback(vars(4), true, 0.07);
        let incoming = vec![
            Belief::from_probability(0.9),
            Belief::from_probability(0.4),
            Belief::from_weights(2.0, 1.0),
            Belief::from_probability(0.55),
        ];
        for pos in 0..4 {
            let fast = f.message_to(pos, &incoming).normalized();
            let slow = f.message_by_enumeration(pos, &incoming).normalized();
            assert!(
                (fast.probability_correct() - slow.probability_correct()).abs() < 1e-10,
                "position {pos}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn negative_feedback_message_matches_enumeration() {
        let f = Factor::feedback(vars(3), false, 0.1);
        let incoming = vec![
            Belief::from_probability(0.8),
            Belief::from_probability(0.8),
            Belief::from_probability(0.8),
        ];
        for pos in 0..3 {
            let fast = f.message_to(pos, &incoming).normalized();
            let slow = f.message_by_enumeration(pos, &incoming).normalized();
            assert!((fast.probability_correct() - slow.probability_correct()).abs() < 1e-10);
        }
    }

    #[test]
    fn prior_message_ignores_incoming() {
        let f = Factor::prior(VariableId(0), Belief::from_probability(0.3));
        let msg = f.message_to(0, &[Belief::from_probability(0.99)]);
        assert!((msg.probability_correct() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "assignment/scope mismatch")]
    fn evaluate_with_wrong_arity_panics() {
        let f = Factor::feedback(vars(2), true, 0.1);
        f.evaluate(&[0, 1, 0]);
    }
}
