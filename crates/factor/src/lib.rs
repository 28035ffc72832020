//! Factor graphs and sum-product message passing over binary variables.
//!
//! The paper models the network of mappings as a factor graph (Section 3): one binary
//! variable per mapping ("is this mapping correct for attribute *a*?"), one single-
//! variable *prior* factor per mapping, and one *feedback* factor per mapping cycle or
//! parallel path, whose conditional probability table is
//!
//! ```text
//! P(f⁺ | m0 … mn-1) = 1  if all mappings correct
//!                     0  if exactly one mapping incorrect
//!                     Δ  if two or more mappings incorrect  (compensating errors)
//! ```
//!
//! Marginal posteriors are then computed with the sum-product algorithm — exactly on
//! trees, approximately (loopy belief propagation) on graphs with cycles.
//!
//! This crate is a self-contained implementation of that machinery:
//!
//! * [`belief`] — normalised two-state distributions and message arithmetic,
//!   including the leave-one-out and posterior products of a variable's incoming
//!   messages;
//! * [`factor`] — the two factor types, single-variable priors and feedback factors,
//!   the latter with a closed-form message computation that avoids the 2ⁿ table and
//!   evaluates a whole factor row in O(n) ([`feedback_factor`]);
//! * [`graph`] — the bipartite factor-graph structure;
//! * [`sum_product`] — synchronous, random-order, and residual schedules of loopy
//!   belief propagation, with damping and convergence detection;
//! * [`exact`] — brute-force exact marginals, the one exact oracle (the reference
//!   for Figure 9).
//!
//! The crate is independent of PDMS concepts; `pdms-core` maps mappings and feedback
//! onto these structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod belief;
pub mod exact;
pub mod factor;
pub mod feedback_factor;
pub mod graph;
pub mod sum_product;

pub use belief::{cavity_products, posterior_product, Belief};
pub use exact::exact_marginals;
pub use factor::Factor;
pub use feedback_factor::{feedback_message, feedback_row, FeedbackSign};
pub use graph::{FactorGraph, FactorId, VariableId};
pub use sum_product::{run_sum_product, Schedule, SumProduct, SumProductConfig, SumProductReport};
