//! Closed-form evaluation of cycle / parallel-path feedback factors.
//!
//! The conditional probability of observing positive feedback given the correctness of
//! the `n` mappings in a cycle (Section 3.2.1) depends only on the *number* of
//! incorrect mappings:
//!
//! ```text
//! P(f⁺ | #incorrect = 0) = 1
//! P(f⁺ | #incorrect = 1) = 0
//! P(f⁺ | #incorrect ≥ 2) = Δ
//! ```
//!
//! and `P(f⁻ | ·) = 1 − P(f⁺ | ·)`. Because of this counting structure the sum-product
//! message from the factor to one of its variables does not require enumerating the
//! `2^(n−1)` joint states of the other variables: it is enough to know, for the other
//! variables, the total mass of "all correct", "exactly one incorrect" and "two or
//! more incorrect" under the incoming messages — three numbers computable in O(n).
//! This is what makes the scheme practical for long cycles and what the
//! `feedback_factor` Criterion bench quantifies against the naive enumeration.

use crate::belief::Belief;

/// Whether the cycle / parallel path produced positive or negative feedback.
///
/// Neutral feedback (the `⊥` case) never becomes a factor: the paper treats it as
/// carrying no information about semantic agreement, so no factor is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeedbackSign {
    /// The attribute returned unchanged: `aj = ai`.
    Positive,
    /// The attribute returned as a different attribute: `aj ≠ ai`.
    Negative,
}

impl FeedbackSign {
    /// Builds the sign from a boolean (`true` = positive).
    pub fn from_positive(positive: bool) -> Self {
        if positive {
            FeedbackSign::Positive
        } else {
            FeedbackSign::Negative
        }
    }
}

/// The conditional probability table entry for a given number of incorrect mappings.
pub fn feedback_value(sign: FeedbackSign, incorrect_count: usize, delta: f64) -> f64 {
    let positive = match incorrect_count {
        0 => 1.0,
        1 => 0.0,
        _ => delta,
    };
    match sign {
        FeedbackSign::Positive => positive,
        FeedbackSign::Negative => 1.0 - positive,
    }
}

/// Mass of the "all correct" (`p0`), "exactly one incorrect" (`p1`) and total
/// configurations of a set of independent binary messages.
///
/// Returns `(p0, p1, total)`. The mass of "two or more incorrect" is
/// `total − p0 − p1` (clamped at zero against floating-point cancellation).
fn count_masses(incoming: &[Belief], skip: usize) -> (f64, f64, f64) {
    let mut p0 = 1.0f64; // all others correct
    let mut p1 = 0.0f64; // exactly one other incorrect
    let mut total = 1.0f64;
    for (pos, msg) in incoming.iter().enumerate() {
        if pos == skip {
            continue;
        }
        let a = msg.correct();
        let b = msg.incorrect();
        // Update in the usual dynamic-programming order: p1 before p0.
        p1 = p1 * a + p0 * b;
        p0 *= a;
        total *= a + b;
    }
    (p0, p1, total)
}

/// Closed-form factor→variable message for a feedback factor.
///
/// `to_position` indexes the destination variable inside the factor scope; `incoming`
/// holds the variable→factor messages for every scope position (the destination's
/// entry is ignored).
pub fn feedback_message(
    sign: FeedbackSign,
    delta: f64,
    to_position: usize,
    incoming: &[Belief],
) -> Belief {
    let (p0, p1, total) = count_masses(incoming, to_position);
    let p2_plus = (total - p0 - p1).max(0.0);
    // If the destination variable is correct, the total number of incorrect mappings
    // equals the count among the others; if it is incorrect, the count is one higher.
    let (correct, incorrect) = match sign {
        FeedbackSign::Positive => (
            1.0 * p0 + 0.0 * p1 + delta * p2_plus,
            0.0 * p0 + delta * (p1 + p2_plus),
        ),
        FeedbackSign::Negative => (
            0.0 * p0 + 1.0 * p1 + (1.0 - delta) * p2_plus,
            1.0 * p0 + (1.0 - delta) * (p1 + p2_plus),
        ),
    };
    Belief::from_weights(correct.max(0.0), incorrect.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpt_values_match_the_paper() {
        assert_eq!(feedback_value(FeedbackSign::Positive, 0, 0.1), 1.0);
        assert_eq!(feedback_value(FeedbackSign::Positive, 1, 0.1), 0.0);
        assert_eq!(feedback_value(FeedbackSign::Positive, 2, 0.1), 0.1);
        assert_eq!(feedback_value(FeedbackSign::Positive, 7, 0.1), 0.1);
        assert_eq!(feedback_value(FeedbackSign::Negative, 0, 0.1), 0.0);
        assert_eq!(feedback_value(FeedbackSign::Negative, 1, 0.1), 1.0);
        assert!((feedback_value(FeedbackSign::Negative, 3, 0.1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn two_mapping_positive_cycle_pulls_towards_correct() {
        // Both other mappings believed correct with p=0.5; positive feedback should
        // favour `correct` for the destination.
        let incoming = vec![Belief::uniform(), Belief::uniform()];
        let msg = feedback_message(FeedbackSign::Positive, 0.1, 0, &incoming);
        assert!(msg.probability_correct() > 0.5);
    }

    #[test]
    fn negative_feedback_pushes_towards_incorrect() {
        let incoming = vec![
            Belief::from_probability(0.9),
            Belief::from_probability(0.9),
            Belief::from_probability(0.9),
        ];
        let msg = feedback_message(FeedbackSign::Negative, 0.1, 1, &incoming);
        assert!(msg.probability_correct() < 0.5);
    }

    #[test]
    fn count_masses_partition_total() {
        let incoming = vec![
            Belief::from_probability(0.3),
            Belief::from_probability(0.8),
            Belief::from_probability(0.6),
            Belief::from_probability(0.95),
        ];
        let (p0, p1, total) = count_masses(&incoming, 2);
        assert!(p0 > 0.0 && p1 > 0.0);
        assert!(p0 + p1 <= total + 1e-12);
        // With normalised messages the total mass is 1.
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_variable_feedback_degenerates_cleanly() {
        // A "cycle" of one mapping: positive feedback means the mapping must be correct
        // (no compensation possible), negative feedback means it must be incorrect.
        let incoming = vec![Belief::uniform()];
        let pos = feedback_message(FeedbackSign::Positive, 0.1, 0, &incoming);
        assert!((pos.probability_correct() - 1.0).abs() < 1e-12);
        let neg = feedback_message(FeedbackSign::Negative, 0.1, 0, &incoming);
        assert!((neg.probability_correct() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn longer_cycles_give_weaker_evidence() {
        // Section 5.1.2 / Figure 10: with uniform priors the posterior pulled by a
        // single positive feedback factor weakens towards 0.5 as the cycle grows.
        // (With Δ = 0.1 the evidence vanishes around ten mappings, which is exactly
        // the paper's argument for bounding the probe TTL.)
        let mut previous = 1.0;
        for n in 2..=10usize {
            let incoming = vec![Belief::uniform(); n];
            let msg = feedback_message(FeedbackSign::Positive, 0.1, 0, &incoming);
            let p = msg.probability_correct();
            assert!(p <= previous + 1e-12, "cycle length {n}: {p} > {previous}");
            assert!(p > 0.5, "cycle length {n}: {p}");
            previous = p;
        }
        // With a smaller Δ (bigger schemas) even longer cycles still carry evidence.
        let incoming = vec![Belief::uniform(); 15];
        let msg = feedback_message(FeedbackSign::Positive, 0.01, 0, &incoming);
        assert!(msg.probability_correct() > 0.5);
    }

    proptest::proptest! {
        /// The closed form must agree with naive enumeration for any scope size and any
        /// incoming messages — this is the central correctness property of the fast path.
        #[test]
        fn closed_form_matches_enumeration(
            probs in proptest::collection::vec(0.01f64..0.99, 2..7),
            delta in 0.0f64..1.0,
            positive in proptest::bool::ANY,
            to_position_seed in 0usize..6,
        ) {
            use crate::factor::Factor;
            use crate::graph::VariableId;
            let n = probs.len();
            let to_position = to_position_seed % n;
            let incoming: Vec<Belief> = probs.iter().map(|p| Belief::from_probability(*p)).collect();
            let scope: Vec<VariableId> = (0..n).map(VariableId).collect();
            let factor = Factor::feedback(scope, positive, delta);
            let fast = factor.message_to(to_position, &incoming).normalized();
            let slow = factor.message_by_enumeration(to_position, &incoming).normalized();
            proptest::prop_assert!(
                (fast.probability_correct() - slow.probability_correct()).abs() < 1e-9
            );
        }
    }
}
