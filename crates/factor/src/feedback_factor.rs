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
//! This is what makes the scheme practical for long cycles; the tests compare it with
//! the naive enumeration, `Factor::message_by_enumeration`.
//!
//! [`feedback_message`] evaluates one destination position. [`feedback_row`] evaluates
//! every position of one factor in O(n) as well, by combining the masses of each
//! position's prefix and suffix, so a whole row costs O(n) like one message.

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

/// Masses `[p0, p1, total]` of a set of independent binary messages: "all correct",
/// "exactly one incorrect" and every configuration. The mass of "two or more
/// incorrect" is `total − p0 − p1` (clamped at zero against floating-point
/// cancellation).
type Masses = [f64; 3];

/// The masses of the empty set of messages.
const NO_MESSAGES: Masses = [1.0, 0.0, 1.0];

/// Extends `masses` by one more message (the usual dynamic-programming step, `p1`
/// before `p0`).
fn absorb([p0, p1, total]: Masses, message: Belief) -> Masses {
    let (a, b) = (message.correct(), message.incorrect());
    [p0 * a, p1 * a + p0 * b, total * (a + b)]
}

/// The masses of every message in `incoming` except the one at `skip`.
fn count_masses(incoming: &[Belief], skip: usize) -> Masses {
    incoming
        .iter()
        .enumerate()
        .filter(|&(pos, _)| pos != skip)
        .fold(NO_MESSAGES, |masses, (_, &message)| absorb(masses, message))
}

/// The closed-form step shared by [`feedback_message`] and [`feedback_row`]: the
/// unchecked factor→variable message, given the masses of every other position.
///
/// Only negative rounding is clamped to zero: a NaN from overflowing masses stays NaN,
/// so the caller's check rejects it instead of serving a uniform message.
fn closed_form(sign: FeedbackSign, delta: f64, [p0, p1, total]: Masses) -> Belief {
    let clamp = |x: f64| if x < 0.0 { 0.0 } else { x };
    let p2_plus = clamp(total - p0 - p1);
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
    Belief::from_weights_unchecked(clamp(correct), clamp(incorrect))
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
    closed_form(sign, delta, count_masses(incoming, to_position)).checked()
}

/// Every normalised factor→variable message of one feedback factor, in O(n):
/// `out[k]` is `feedback_message(sign, delta, k, incoming).normalized()` up to the
/// rounding of the products, for every position `k` of `incoming`.
///
/// A backward pass stores the masses `[p0, p1, total]` of each position's suffix in
/// `scratch` (resized to the row, so a reused buffer allocates nothing); a forward
/// pass combines them with the running prefix masses. Like [`feedback_message`],
/// `out[k]` never reads `incoming[k]`. Each output is checked once, before it is
/// stored.
///
/// # Panics
/// Panics if `out` and `incoming` differ in length, or if a message overflows, which
/// normalised inputs cannot cause.
pub fn feedback_row(
    sign: FeedbackSign,
    delta: f64,
    incoming: &[Belief],
    scratch: &mut Vec<[f64; 3]>,
    out: &mut [Belief],
) {
    assert_eq!(out.len(), incoming.len(), "one output per scope position");
    scratch.clear();
    scratch.resize(incoming.len(), NO_MESSAGES);
    let mut suffix = NO_MESSAGES;
    for (k, &message) in incoming.iter().enumerate().rev() {
        scratch[k] = suffix;
        suffix = absorb(suffix, message);
    }
    let mut prefix = NO_MESSAGES;
    for ((slot, &message), &[s0, s1, st]) in out.iter_mut().zip(incoming).zip(scratch.iter()) {
        let [p0, p1, pt] = prefix;
        let others = [p0 * s0, p1 * s0 + p0 * s1, pt * st];
        *slot = closed_form(sign, delta, others).normalized().checked();
        prefix = absorb(prefix, message);
    }
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
        let [p0, p1, total] = count_masses(&incoming, 2);
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

    /// Unnormalised inputs whose masses overflow: the negative sign's message gets an
    /// infinite weight, the positive sign's a NaN one.
    fn overflowing() -> [Belief; 3] {
        [Belief::from_weights(1e200, 1e200); 3]
    }

    fn row_of(sign: FeedbackSign) {
        let mut out = [Belief::unit(); 3];
        feedback_row(sign, 0.1, &overflowing(), &mut Vec::new(), &mut out);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn feedback_row_checks_what_it_stores() {
        let negative = std::panic::catch_unwind(|| row_of(FeedbackSign::Negative));
        assert!(negative.is_err(), "an infinite weight was stored");
        row_of(FeedbackSign::Positive);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn feedback_message_rejects_a_nan_weight() {
        feedback_message(FeedbackSign::Positive, 0.1, 0, &overflowing());
    }

    /// A message with weights in `[0.05, 1)`, or exactly zero in one component (what
    /// single-variable feedback produces).
    fn message_strategy() -> impl proptest::Strategy<Value = Belief> {
        use proptest::Strategy;
        (0.05f64..1.0, 0.05f64..1.0, 0usize..5).prop_map(|(a, b, kind)| match kind {
            0 => Belief::from_weights(0.0, b),
            1 => Belief::from_weights(a, 0.0),
            _ => Belief::from_weights(a, b),
        })
    }

    fn assert_close(label: &str, got: Belief, want: Belief) {
        assert!(
            (got.correct() - want.correct()).abs() <= 1e-12
                && (got.incorrect() - want.incorrect()).abs() <= 1e-12,
            "{label}: row {got:?} vs {want:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// One row pass gives every position's message, as one `feedback_message` per
        /// position and, up to arity 8, the 2ⁿ enumeration do.
        #[test]
        fn feedback_row_matches_every_single_position_message(
            incoming in proptest::collection::vec(message_strategy(), 1..=16),
            delta_index in 0usize..4,
            positive in proptest::bool::ANY,
        ) {
            use crate::factor::Factor;
            use crate::graph::VariableId;
            let delta = [0.0, 0.1, 0.5, 1.0][delta_index];
            let sign = FeedbackSign::from_positive(positive);
            let mut out = vec![Belief::unit(); incoming.len()];
            let mut scratch = vec![[7.0; 3]; 20];
            feedback_row(sign, delta, &incoming, &mut scratch, &mut out);
            let factor = Factor::feedback((0..incoming.len()).map(VariableId).collect(), positive, delta);
            for (k, &row) in out.iter().enumerate() {
                let label = format!("position {k} of {}, {sign:?}, delta {delta}", incoming.len());
                assert_close(&label, row, feedback_message(sign, delta, k, &incoming).normalized());
                if incoming.len() <= 8 {
                    let enumerated = factor.message_by_enumeration(k, &incoming).normalized();
                    assert_close(&label, row, enumerated);
                }
            }
        }
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
