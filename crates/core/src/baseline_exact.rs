//! Centralized exact-inference baseline.
//!
//! The "global inference process" the paper compares against in Figure 9: gather the
//! whole factor graph in one place and compute exact marginals. It is not a PDMS
//! algorithm (it needs central coordination and its cost is exponential in the number
//! of mapping variables), but it is the gold standard the decentralized approximation
//! is measured against.

use crate::local_graph::{MappingModel, VariableKey};
use pdms_factor::exact_marginals;
use std::collections::BTreeMap;

/// Runs exact inference on the global factor graph of the model.
///
/// Returns the exact posterior per model variable. Panics (inside the factor crate)
/// when the model exceeds [`pdms_factor::exact::MAX_EXACT_VARIABLES`] variables.
pub fn exact_posteriors(
    model: &MappingModel,
    priors: &BTreeMap<VariableKey, f64>,
    default_prior: f64,
) -> Vec<f64> {
    let graph = model.global_factor_graph(priors, default_prior);
    let marginals = exact_marginals(&graph);
    // The global factor graph adds variables in model order, so indices line up.
    marginals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
    use crate::embedded::{run_embedded, EmbeddedConfig};
    use crate::local_graph::Granularity;
    use pdms_schema::{AttributeId, Catalog, PeerId};

    fn ring_catalog(n: usize, faulty: Option<usize>) -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..n)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        for i in 0..n {
            cat.add_mapping(peers[i], peers[(i + 1) % n], |m| {
                if Some(i) == faulty {
                    m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                } else {
                    m.correct(AttributeId(0), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                }
            });
        }
        cat
    }

    #[test]
    fn exact_posteriors_line_up_with_model_variables() {
        let cat = ring_catalog(4, None);
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let exact = exact_posteriors(&model, &BTreeMap::new(), 0.5);
        assert_eq!(exact.len(), model.variable_count());
        // Everything is correct and feedback positive: every posterior above 0.5.
        assert!(exact.iter().all(|p| *p > 0.5));
    }

    #[test]
    fn embedded_stays_within_a_few_percent_of_exact() {
        // This is the Figure 9 claim at the unit-test scale.
        let cat = ring_catalog(5, Some(2));
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let priors = BTreeMap::new();
        let exact = exact_posteriors(&model, &priors, 0.8);
        let embedded = run_embedded(&model, &priors, 0.8, EmbeddedConfig::default());
        // |approx − exact| / exact, or the absolute error where the exact value is 0.
        let errors: Vec<f64> = exact
            .iter()
            .zip(&embedded.posteriors)
            .map(|(e, a)| {
                if e.abs() < 1e-12 {
                    (a - e).abs()
                } else {
                    (a - e).abs() / e
                }
            })
            .collect();
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 0.06, "mean relative error {mean}");
    }
}
