//! Two-state beliefs: the messages and marginals of the binary factor graph.
//!
//! Every variable in the PDMS factor graph is binary — a mapping is either `correct` or
//! `incorrect` for the attribute under consideration. Messages exchanged by the
//! sum-product algorithm, priors, and posterior marginals are therefore all elements of
//! the 1-simplex, represented here as a pair `[p_correct, p_incorrect]`.

use std::fmt;
use std::ops::{Mul, MulAssign};

/// Index of the `correct` state in a [`Belief`].
const CORRECT: usize = 0;
/// Index of the `incorrect` state in a [`Belief`].
const INCORRECT: usize = 1;

/// A (not necessarily normalised) non-negative measure over `{correct, incorrect}`.
///
/// Beliefs behave multiplicatively, matching the product steps of the sum-product
/// algorithm: `a * b` is the component-wise product. [`Belief::normalized`] rescales so
/// the components sum to one (the `α` factor in the paper's posterior equation).
///
/// # Invariant
///
/// Both weights are finite and non-negative. Every public constructor and the public
/// product ([`Belief::product`], `*`, `*=`) check it, because a product of
/// unnormalised beliefs can overflow to infinity. [`Belief::normalized`] does not
/// re-check: a valid belief divided by a mass above `f64::EPSILON` stays valid. The
/// kernel helpers of this crate ([`cavity_products`], [`posterior_product`] and
/// [`crate::feedback_factor::feedback_row`]) multiply without checking and check each
/// value once, where they write it, so no unchecked belief leaves the crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Belief {
    values: [f64; 2],
}

impl Belief {
    /// Builds a belief from raw (non-negative) weights.
    ///
    /// # Panics
    /// Panics if a weight is negative, infinite or NaN.
    pub fn from_weights(correct: f64, incorrect: f64) -> Self {
        Self::from_weights_unchecked(correct, incorrect).checked()
    }

    /// A belief that has not been checked yet: the caller checks it with
    /// [`Belief::checked`] before it leaves the crate.
    pub(crate) fn from_weights_unchecked(correct: f64, incorrect: f64) -> Self {
        Self {
            values: [correct, incorrect],
        }
    }

    /// Returns `self` after checking the invariant (finite, non-negative weights).
    ///
    /// # Panics
    /// Panics if a weight is negative, infinite or NaN.
    pub(crate) fn checked(self) -> Self {
        let [correct, incorrect] = self.values;
        assert!(
            correct >= 0.0 && incorrect >= 0.0 && correct.is_finite() && incorrect.is_finite(),
            "belief weights must be finite and non-negative, got [{correct}, {incorrect}]"
        );
        self
    }

    /// Builds the normalised belief with `P(correct) = p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn from_probability(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        Self::from_weights(p, 1.0 - p)
    }

    /// The unit (uninformative) message: `[1, 1]`. This is what peers assume they have
    /// received from everyone else before the first real message arrives (Section 4.3).
    pub fn unit() -> Self {
        Self::from_weights(1.0, 1.0)
    }

    /// The maximum-entropy prior `P(correct) = 0.5` (Section 4.4).
    pub fn uniform() -> Self {
        Self::from_probability(0.5)
    }

    /// Weight of the `correct` state (unnormalised).
    pub fn correct(&self) -> f64 {
        self.values[CORRECT]
    }

    /// Weight of the `incorrect` state (unnormalised).
    pub fn incorrect(&self) -> f64 {
        self.values[INCORRECT]
    }

    /// Weight of a state by index (0 = correct, 1 = incorrect).
    pub fn weight(&self, state: usize) -> f64 {
        self.values[state]
    }

    /// Total mass.
    pub fn sum(&self) -> f64 {
        self.values[0] + self.values[1]
    }

    /// Normalised copy; a zero-mass belief normalises to the uniform distribution so
    /// the algorithm degrades gracefully instead of dividing by zero (this can happen
    /// transiently when a feedback factor assigns probability zero to every consistent
    /// configuration).
    ///
    /// Nothing is re-checked: each weight of a valid belief divided by a mass above
    /// `f64::EPSILON` lies in `[0, 1]`, so the result is valid too.
    pub fn normalized(&self) -> Self {
        let s = self.sum();
        if s <= f64::EPSILON {
            Self::uniform()
        } else {
            Self::from_weights_unchecked(self.values[0] / s, self.values[1] / s)
        }
    }

    /// `P(correct)` of the normalised belief.
    pub fn probability_correct(&self) -> f64 {
        self.normalized().correct()
    }

    /// Component-wise product, the message-combination step of sum-product.
    ///
    /// # Panics
    /// Panics if the product overflows to infinity.
    pub fn product(&self, other: &Self) -> Self {
        self.product_unchecked(*other).checked()
    }

    /// Component-wise product without the check, for products of normalised messages
    /// (mass ≤ 1, so they cannot overflow); the caller checks what it stores.
    pub(crate) fn product_unchecked(self, other: Self) -> Self {
        Self::from_weights_unchecked(
            self.values[0] * other.values[0],
            self.values[1] * other.values[1],
        )
    }

    /// Damped interpolation towards `target`: `(1-λ)·self + λ·target`, applied on the
    /// normalised distributions. Damping (λ < 1) is a standard stabiliser for loopy BP.
    pub fn damped_towards(&self, target: &Self, lambda: f64) -> Self {
        let a = self.normalized();
        let b = target.normalized();
        let l = lambda.clamp(0.0, 1.0);
        Self::from_weights(
            (1.0 - l) * a.values[0] + l * b.values[0],
            (1.0 - l) * a.values[1] + l * b.values[1],
        )
    }
}

/// Every leave-one-out product of a row of messages, in one forward and one backward
/// pass: for each position `i` of `slots`, writes into `out[slots[i]]` the normalised
/// product of `prior` and every `messages[slots[t]]` with `t ≠ i`.
///
/// This is the variable→factor message of sum-product (the paper's remote message
/// `µ_{p0→fa_k}(m_i) = Π_{fa∈n(m_i)\{fa_k}} µ_{fa→m_i}(m_i)`, Section 4.3) for all of a
/// variable's factors at once. The forward pass stores the running prefix
/// `prior · Π_{t<i} messages[slots[t]]` in the output slots and the backward pass
/// multiplies each by the running suffix, so a variable of degree `d` costs `O(d)`
/// products instead of `O(d²)`, nothing is divided (exact zeros are fine) and
/// nothing is allocated. A row of length one yields the normalised prior.
///
/// Each output slot must appear once in `slots`; `messages` and `out` are indexed by
/// the same slot numbers. The running products are not checked; each normalised
/// output is, once, before it is stored.
///
/// # Panics
/// Panics if a leave-one-out product overflows, which normalised messages cannot cause.
pub fn cavity_products<I>(prior: Belief, slots: I, messages: &[Belief], out: &mut [Belief])
where
    I: DoubleEndedIterator<Item = usize> + Clone,
{
    let mut prefix = prior;
    for slot in slots.clone() {
        out[slot] = prefix;
        prefix = prefix.product_unchecked(messages[slot]);
    }
    let mut suffix = Belief::unit();
    for slot in slots.rev() {
        out[slot] = out[slot].product_unchecked(suffix).normalized().checked();
        suffix = suffix.product_unchecked(messages[slot]);
    }
}

/// The normalised product of `prior` and every `messages[slot]` for `slot` in `slots`:
/// a variable's posterior `α · prior · Π µ_{fa→m}` (Section 4.3), multiplied in the
/// order of `slots`. The running product is not checked; the result is, once.
///
/// # Panics
/// Panics if the product overflows, which normalised messages cannot cause.
pub fn posterior_product<I>(prior: Belief, slots: I, messages: &[Belief]) -> Belief
where
    I: IntoIterator<Item = usize>,
{
    slots
        .into_iter()
        .fold(prior, |belief, slot| {
            belief.product_unchecked(messages[slot])
        })
        .normalized()
        .checked()
}

impl Default for Belief {
    fn default() -> Self {
        Self::unit()
    }
}

impl Mul for Belief {
    type Output = Belief;
    fn mul(self, rhs: Belief) -> Belief {
        self.product(&rhs)
    }
}

impl MulAssign for Belief {
    fn mul_assign(&mut self, rhs: Belief) {
        *self = self.product(&rhs);
    }
}

impl fmt::Display for Belief {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.normalized();
        write!(f, "P(correct)={:.4}", n.correct())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_probability_normalises() {
        let b = Belief::from_probability(0.7);
        assert!((b.correct() - 0.7).abs() < 1e-12);
        assert!((b.incorrect() - 0.3).abs() < 1e-12);
        assert!((b.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn probability_out_of_range_panics() {
        Belief::from_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        Belief::from_weights(-1.0, 0.5);
    }

    /// Three valid but unnormalised messages whose product overflows to infinity:
    /// the unchecked products must not reach a stored value.
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn cavity_products_check_what_they_store() {
        let row = [Belief::from_weights(1e200, 1e200); 3];
        cavity_products(Belief::unit(), 0..3, &row, &mut [Belief::unit(); 3]);
    }

    /// As above, for the posterior product.
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn posterior_product_checks_what_it_returns() {
        let row = [Belief::from_weights(1e200, 1e200); 3];
        posterior_product(Belief::unit(), 0..3, &row);
    }

    #[test]
    fn product_is_componentwise() {
        let a = Belief::from_weights(0.5, 2.0);
        let b = Belief::from_weights(4.0, 0.25);
        let c = a * b;
        assert!((c.correct() - 2.0).abs() < 1e-12);
        assert!((c.incorrect() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unit_is_multiplicative_identity() {
        let a = Belief::from_weights(0.3, 0.9);
        let c = a * Belief::unit();
        assert_eq!(a, c);
    }

    #[test]
    fn zero_mass_normalises_to_uniform() {
        let z = Belief::from_weights(0.0, 0.0);
        assert_eq!(z.normalized(), Belief::uniform());
        assert!((z.probability_correct() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn damping_interpolates() {
        let a = Belief::from_probability(0.0);
        let b = Belief::from_probability(1.0);
        let mid = a.damped_towards(&b, 0.5);
        assert!((mid.probability_correct() - 0.5).abs() < 1e-12);
        let none = a.damped_towards(&b, 0.0);
        assert!((none.probability_correct() - 0.0).abs() < 1e-12);
        let full = a.damped_towards(&b, 1.0);
        assert!((full.probability_correct() - 1.0).abs() < 1e-12);
    }

    /// A message weight in `[0.5, 1.5)`, or exactly zero in one component: rows of
    /// up to 128 such messages stay far from underflow, and single-variable feedback
    /// produces the exact zeros.
    fn message_strategy() -> impl proptest::Strategy<Value = Belief> {
        use proptest::Strategy;
        (0.5f64..1.5, 0.5f64..1.5, 0usize..6).prop_map(|(a, b, kind)| match kind {
            0 => Belief::from_weights(0.0, b),
            1 => Belief::from_weights(a, 0.0),
            _ => Belief::from_weights(a, b),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn cavity_products_match_the_naive_leave_one_out_product(
            prior in (0.01f64..4.0, 0.01f64..4.0),
            row in proptest::collection::vec(message_strategy(), 0..=128),
        ) {
            // The row sits in the odd slots of an arena whose even slots must be
            // neither read nor written.
            let prior = Belief::from_weights(prior.0, prior.1);
            let unused = Belief::from_weights(7.0, 0.0);
            let arena: Vec<Belief> = row.iter().flat_map(|&m| [unused, m]).collect();
            let mut out = vec![unused; arena.len()];
            cavity_products(prior, (0..row.len()).map(|i| 2 * i + 1), &arena, &mut out);
            for (i, pair) in out.chunks(2).enumerate() {
                let naive = row
                    .iter()
                    .enumerate()
                    .filter(|&(t, _)| t != i)
                    .fold(prior, |product, (_, &m)| product * m)
                    .normalized();
                proptest::prop_assert_eq!(pair[0], unused);
                proptest::prop_assert!(
                    (pair[1].correct() - naive.correct()).abs() <= 1e-12
                        && (pair[1].incorrect() - naive.incorrect()).abs() <= 1e-12,
                    "slot {} of {}: cavity {:?} vs naive {:?}",
                    i,
                    row.len(),
                    pair[1],
                    naive
                );
            }
            if row.len() == 1 {
                proptest::prop_assert_eq!(out[1], prior.normalized());
            }
        }
    }

    #[test]
    fn display_shows_probability() {
        assert_eq!(
            Belief::from_probability(0.25).to_string(),
            "P(correct)=0.2500"
        );
    }
}
