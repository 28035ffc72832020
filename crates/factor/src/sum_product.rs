//! Iterative sum-product (loopy belief propagation) over a [`FactorGraph`].
//!
//! The engine implements the two update rules of Section 3.1:
//!
//! ```text
//! variable → factor:  µ_{x→f}(x) = ∏_{h ∈ n(x) \ {f}} µ_{h→x}(x)
//! factor   → variable: µ_{f→x}(x) = Σ_{~x} f(X) ∏_{y ∈ n(f) \ {x}} µ_{y→f}(y)
//! ```
//!
//! All messages start as the unit function (Section 4.3's bootstrap for cyclic graphs),
//! and the posterior of a variable is the normalised product of its incoming
//! factor→variable messages. On cycle-free graphs the result is exact after two
//! iterations; on cyclic graphs the iteration converges to the usual loopy-BP
//! approximation, which Section 5 shows to be within a few percent of exact inference
//! for PDMS factor graphs.
//!
//! Two schedules are provided: synchronous flooding and random sequential order. Every
//! message update is applied; message loss (the fault-tolerance experiment of Figure 11)
//! is simulated by `pdms-core`'s `DecentralizedRun` over the lossy network transport.

use crate::belief::Belief;
use crate::graph::{FactorGraph, FactorId, VariableId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Message-update ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// All messages are recomputed from the previous iteration's values ("flooding").
    /// This mirrors the periodic schedule of Section 4.3.1.
    Synchronous,
    /// Edges are updated one at a time in a random order, immediately using fresh
    /// values; often converges in fewer iterations on loopy graphs.
    RandomSequential,
}

/// Configuration of the iterative solver.
#[derive(Debug, Clone)]
pub struct SumProductConfig {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on the L∞ change of any posterior between iterations.
    pub tolerance: f64,
    /// Damping factor λ ∈ (0, 1]: 1 means undamped updates.
    pub damping: f64,
    /// Update ordering.
    pub schedule: Schedule,
    /// RNG seed of the random schedule.
    pub seed: u64,
    /// Record the posterior of every variable after every iteration (needed by the
    /// convergence figure; costs memory on large graphs).
    pub record_history: bool,
}

impl Default for SumProductConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            tolerance: 1e-6,
            damping: 1.0,
            schedule: Schedule::Synchronous,
            seed: 7,
            record_history: true,
        }
    }
}

/// Result of a sum-product run.
#[derive(Debug, Clone)]
pub struct SumProductReport {
    /// Posterior `P(correct)` per variable, indexed by `VariableId.0`.
    pub posteriors: Vec<f64>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iterations`.
    pub converged: bool,
    /// Posterior trajectory: `history[it][var]`, recorded when
    /// [`SumProductConfig::record_history`] is set (the initial state is included as
    /// iteration 0).
    pub history: Vec<Vec<f64>>,
}

impl SumProductReport {
    /// Posterior of one variable.
    pub fn posterior(&self, v: VariableId) -> f64 {
        self.posteriors[v.0]
    }
}

/// The iterative sum-product engine. Holds the message tables between calls so callers
/// can also drive it iteration by iteration (the embedded scheme does).
#[derive(Debug, Clone)]
pub struct SumProduct<'g> {
    graph: &'g FactorGraph,
    config: SumProductConfig,
    /// `var_to_factor[f.0][k]` is µ_{scope[k] → f}.
    var_to_factor: Vec<Vec<Belief>>,
    /// `factor_to_var[f.0][k]` is µ_{f → scope[k]}.
    factor_to_var: Vec<Vec<Belief>>,
    /// Double buffer for the synchronous schedule: the "next" tables are allocated
    /// once here and swapped with the live tables every iteration, so the per-round
    /// whole-table clones the schedule used to pay are gone.
    var_to_factor_next: Vec<Vec<Belief>>,
    factor_to_var_next: Vec<Vec<Belief>>,
    rng: StdRng,
}

impl<'g> SumProduct<'g> {
    /// Creates an engine with all messages initialised to the unit function.
    pub fn new(graph: &'g FactorGraph, config: SumProductConfig) -> Self {
        let var_to_factor: Vec<Vec<Belief>> = graph
            .factors()
            .map(|f| vec![Belief::unit(); graph.scope_of(f).len()])
            .collect();
        let factor_to_var: Vec<Vec<Belief>> = graph
            .factors()
            .map(|f| vec![Belief::unit(); graph.scope_of(f).len()])
            .collect();
        let var_to_factor_next = var_to_factor.clone();
        let factor_to_var_next = factor_to_var.clone();
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            graph,
            config,
            var_to_factor,
            factor_to_var,
            var_to_factor_next,
            factor_to_var_next,
            rng,
        }
    }

    /// Current posterior `P(correct)` of a variable: normalised product of incoming
    /// factor→variable messages.
    pub fn posterior(&self, v: VariableId) -> f64 {
        let mut belief = Belief::unit();
        for &f in self.graph.factors_of(v) {
            let pos = self.position_in_scope(f, v);
            belief *= self.factor_to_var[f.0][pos];
        }
        belief.probability_correct()
    }

    /// Posterior of every variable.
    pub fn posteriors(&self) -> Vec<f64> {
        self.graph.variables().map(|v| self.posterior(v)).collect()
    }

    /// Runs one full iteration (every edge updated once in each direction, in the
    /// order of the schedule). Returns the maximum posterior change.
    pub fn iterate(&mut self) -> f64 {
        let before = self.posteriors();
        match self.config.schedule {
            Schedule::Synchronous => self.iterate_synchronous(),
            Schedule::RandomSequential => self.iterate_random_sequential(),
        }
        let after = self.posteriors();
        before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn position_in_scope(&self, f: FactorId, v: VariableId) -> usize {
        self.graph
            .scope_of(f)
            .iter()
            .position(|s| *s == v)
            .expect("variable must be in factor scope")
    }

    /// Variable→factor message computed from the *current* factor→variable table.
    fn compute_var_to_factor(&self, v: VariableId, excluding: FactorId) -> Belief {
        let mut belief = Belief::unit();
        for &other in self.graph.factors_of(v) {
            if other == excluding {
                continue;
            }
            let pos = self.position_in_scope(other, v);
            belief *= self.factor_to_var[other.0][pos];
        }
        // Rescale to avoid underflow on long products; messages are scale-invariant.
        belief.normalized()
    }

    fn iterate_synchronous(&mut self) {
        // Phase 1: recompute all variable→factor messages from the old factor→variable
        // table. The "next" table is a once-allocated double buffer: refreshing it
        // with `clone_from` reuses every inner allocation, and the swap afterwards is
        // O(1) — no whole-table clone per iteration.
        self.var_to_factor_next.clone_from(&self.var_to_factor);
        for f in self.graph.factors() {
            for (pos, &v) in self.graph.scope_of(f).iter().enumerate() {
                let msg = self.compute_var_to_factor(v, f);
                self.var_to_factor_next[f.0][pos] = msg;
            }
        }
        std::mem::swap(&mut self.var_to_factor, &mut self.var_to_factor_next);
        // Phase 2: recompute all factor→variable messages from the fresh
        // variable→factor table.
        self.factor_to_var_next.clone_from(&self.factor_to_var);
        for f in self.graph.factors() {
            #[allow(clippy::needless_range_loop)]
            for pos in 0..self.graph.scope_of(f).len() {
                let incoming = &self.var_to_factor[f.0];
                let msg = self.graph.factor(f).message_to(pos, incoming).normalized();
                let old = self.factor_to_var_next[f.0][pos];
                self.factor_to_var_next[f.0][pos] = old.damped_towards(&msg, self.config.damping);
            }
        }
        std::mem::swap(&mut self.factor_to_var, &mut self.factor_to_var_next);
    }

    fn iterate_random_sequential(&mut self) {
        let mut edges: Vec<(FactorId, usize, VariableId)> = Vec::new();
        for f in self.graph.factors() {
            for (pos, &v) in self.graph.scope_of(f).iter().enumerate() {
                edges.push((f, pos, v));
            }
        }
        edges.shuffle(&mut self.rng);
        for (f, pos, v) in edges {
            // Refresh the variable→factor message for this edge, then the
            // factor→variable message, immediately visible to later edges.
            self.var_to_factor[f.0][pos] = self.compute_var_to_factor(v, f);
            let msg = {
                let incoming = &self.var_to_factor[f.0];
                self.graph.factor(f).message_to(pos, incoming).normalized()
            };
            let old = self.factor_to_var[f.0][pos];
            self.factor_to_var[f.0][pos] = old.damped_towards(&msg, self.config.damping);
        }
    }

    /// Runs until convergence or the iteration cap and reports the result.
    pub fn run(&mut self) -> SumProductReport {
        let mut history = Vec::new();
        if self.config.record_history {
            history.push(self.posteriors());
        }
        let mut converged = false;
        let mut iterations = 0;
        for _ in 0..self.config.max_iterations {
            let delta = self.iterate();
            iterations += 1;
            if self.config.record_history {
                history.push(self.posteriors());
            }
            if delta < self.config.tolerance {
                converged = true;
                break;
            }
        }
        SumProductReport {
            posteriors: self.posteriors(),
            iterations,
            converged,
            history,
        }
    }
}

/// Convenience wrapper: build the engine, run it, return the report.
pub fn run_sum_product(graph: &FactorGraph, config: SumProductConfig) -> SumProductReport {
    SumProduct::new(graph, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_marginals;
    use crate::factor::Factor;

    /// prior(0.7) — x — feedback⁺ — y — prior(0.7): a tree.
    fn tree_graph() -> FactorGraph {
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        let y = g.add_variable("y");
        g.add_prior(x, 0.7);
        g.add_prior(y, 0.7);
        g.add_factor(Factor::feedback(vec![x, y], true, 0.1));
        g
    }

    /// The paper's example factor graph (Figure 4): five mappings, three cycles.
    fn paper_example(priors: f64, delta: f64) -> FactorGraph {
        let mut g = FactorGraph::new();
        let m12 = g.add_variable("m12");
        let m23 = g.add_variable("m23");
        let m34 = g.add_variable("m34");
        let m41 = g.add_variable("m41");
        let m24 = g.add_variable("m24");
        for v in [m12, m23, m34, m41, m24] {
            g.add_prior(v, priors);
        }
        // f1+: m12-m23-m34-m41, f2-: m12-m24-m41, f3-: m23-m34-m24
        g.add_factor(Factor::feedback(vec![m12, m23, m34, m41], true, delta));
        g.add_factor(Factor::feedback(vec![m12, m24, m41], false, delta));
        g.add_factor(Factor::feedback(vec![m23, m34, m24], false, delta));
        g
    }

    #[test]
    fn exact_on_trees_in_two_iterations() {
        let g = tree_graph();
        let exact = exact_marginals(&g);
        let mut engine = SumProduct::new(
            &g,
            SumProductConfig {
                max_iterations: 2,
                tolerance: 0.0,
                ..Default::default()
            },
        );
        engine.iterate();
        engine.iterate();
        for v in g.variables() {
            assert!(
                (engine.posterior(v) - exact[v.0]).abs() < 1e-9,
                "{v}: {} vs {}",
                engine.posterior(v),
                exact[v.0]
            );
        }
    }

    #[test]
    fn loopy_graph_converges_close_to_exact() {
        // Figure 9 reports the relative error of the iterative scheme against global
        // inference for the mappings of the (grown) cycle — the correct mappings stay
        // within a few percent; the faulty one (m24) is pushed further down by loopy
        // double-counting but keeps the same classification.
        let g = paper_example(0.8, 0.1);
        let report = run_sum_product(&g, SumProductConfig::default());
        assert!(report.converged, "did not converge in 50 iterations");
        let exact = exact_marginals(&g);
        let m24 = g.variable_by_name("m24").unwrap();
        for v in g.variables() {
            if v == m24 {
                assert!(report.posterior(v) < 0.5 && exact[v.0] < 0.5);
                continue;
            }
            let err = (report.posterior(v) - exact[v.0]).abs() / exact[v.0];
            assert!(
                err < 0.06,
                "{}: relative error {err} (paper reports < 6%)",
                g.variable_name(v)
            );
        }
    }

    #[test]
    fn faulty_mapping_is_singled_out() {
        // With f1 positive and f2, f3 negative, m24 is the mapping consistent with all
        // three observations being explained by a single error: its posterior must be
        // the lowest and below 0.5, while the four others stay above 0.5.
        let g = paper_example(0.7, 0.1);
        let report = run_sum_product(&g, SumProductConfig::default());
        let m24 = g.variable_by_name("m24").unwrap();
        for v in g.variables() {
            if v == m24 {
                assert!(report.posterior(v) < 0.5, "m24 should look faulty");
            } else {
                assert!(
                    report.posterior(v) > 0.5,
                    "{} should look correct, got {}",
                    g.variable_name(v),
                    report.posterior(v)
                );
            }
        }
    }

    #[test]
    fn convergence_within_about_ten_iterations() {
        // Section 5.1.1: "our embedded message passing scheme converges to approximate
        // results in ten iterations usually".
        let g = paper_example(0.7, 0.1);
        let report = run_sum_product(
            &g,
            SumProductConfig {
                tolerance: 1e-2,
                ..Default::default()
            },
        );
        assert!(report.converged);
        assert!(
            report.iterations <= 15,
            "took {} iterations",
            report.iterations
        );
    }

    #[test]
    fn random_sequential_schedule_agrees_with_synchronous() {
        let g = paper_example(0.8, 0.1);
        let sync = run_sum_product(&g, SumProductConfig::default());
        let seq = run_sum_product(
            &g,
            SumProductConfig {
                schedule: Schedule::RandomSequential,
                ..Default::default()
            },
        );
        for v in g.variables() {
            assert!(
                (sync.posterior(v) - seq.posterior(v)).abs() < 1e-3,
                "{}: {} vs {}",
                g.variable_name(v),
                sync.posterior(v),
                seq.posterior(v)
            );
        }
    }

    #[test]
    fn history_records_initial_state_and_iterations() {
        let g = tree_graph();
        let report = run_sum_product(
            &g,
            SumProductConfig {
                max_iterations: 5,
                tolerance: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(report.history.len(), report.iterations + 1);
        // Iteration 0 (before any message) has uniform posteriors.
        assert!(report.history[0].iter().all(|p| (p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn damping_does_not_change_the_fixpoint() {
        let g = paper_example(0.7, 0.1);
        let undamped = run_sum_product(&g, SumProductConfig::default());
        let damped = run_sum_product(
            &g,
            SumProductConfig {
                damping: 0.5,
                max_iterations: 200,
                ..Default::default()
            },
        );
        assert!(damped.converged);
        for v in g.variables() {
            assert!((undamped.posterior(v) - damped.posterior(v)).abs() < 1e-3);
        }
    }

    #[test]
    fn variable_without_factors_stays_uniform() {
        let mut g = FactorGraph::new();
        let x = g.add_variable("x");
        let y = g.add_variable("orphan");
        g.add_prior(x, 0.9);
        let report = run_sum_product(&g, SumProductConfig::default());
        assert!((report.posterior(y) - 0.5).abs() < 1e-12);
        assert!((report.posterior(x) - 0.9).abs() < 1e-9);
    }
}
