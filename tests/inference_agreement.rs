//! Agreement of loopy belief propagation with the exact oracle.
//!
//! Brute-force enumeration (`exact_marginals`) is the one exact oracle of the
//! workspace. On tree-structured factor graphs sum-product is exact, so the two must
//! agree to numerical precision; on the cyclic graphs of a mapping ring the loopy
//! approximation must stay close to it (the property Figure 9 measures).

use pdms::core::{AnalysisConfig, CycleAnalysis, Granularity, MappingModel};
use pdms::factor::{
    exact_marginals, run_sum_product, Factor, FactorGraph, SumProductConfig, VariableId,
};
use pdms::schema::{AttributeId, Catalog, PeerId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a ring catalog of `peers` peers over `attributes` attributes, with the listed
/// `(mapping index, attribute)` pairs corrupted.
fn ring_catalog(peers: usize, attributes: usize, errors: &[(usize, usize)]) -> Catalog {
    let mut catalog = Catalog::new();
    let ids: Vec<PeerId> = (0..peers)
        .map(|i| {
            catalog.add_peer_with_schema(format!("p{i}"), |schema| {
                for a in 0..attributes {
                    schema.attribute(format!("attr{a}"));
                }
            })
        })
        .collect();
    for i in 0..peers {
        let source = ids[i];
        let target = ids[(i + 1) % peers];
        catalog.add_mapping(source, target, |mut m| {
            for a in 0..attributes {
                let attr = AttributeId(a);
                let corrupted = errors.contains(&(i, a));
                m = if corrupted {
                    m.erroneous(attr, AttributeId((a + 1) % attributes), attr)
                } else {
                    m.correct(attr, attr)
                };
            }
            m
        });
    }
    catalog
}

#[test]
fn loopy_bp_stays_close_to_exact_on_the_ring() {
    // 5 peers x 3 attributes: 15 variables, within the enumeration cap.
    let catalog = ring_catalog(5, 3, &[(1, 0)]);
    let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
    let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, 0.1);
    let graph = model.global_factor_graph(&BTreeMap::new(), 0.7);
    let exact = exact_marginals(&graph);
    let loopy = run_sum_product(&graph, SumProductConfig::default());
    assert!(loopy.converged);
    assert_eq!(exact.len(), loopy.posteriors.len());
    for (e, l) in exact.iter().zip(&loopy.posteriors) {
        assert!(
            (e - l).abs() < 0.1,
            "loopy {l} strays too far from exact {e} (Figure 9 bound is a few percent)"
        );
    }
}

/// Variable cap of the random trees.
const MAX_TREE_VARIABLES: usize = 8;

/// Grows a tree-structured factor graph: variable 0 first, then one feedback factor
/// per `(anchor, width, positive, delta)` step joining one existing variable to
/// `width` new ones, until `MAX_TREE_VARIABLES` are placed. Every new factor touches
/// exactly one existing variable, so no cycle can form. Every variable carries a
/// prior; single-variable feedback factors are added on top (unary factors keep it a
/// tree).
fn tree_graph(
    priors: &[f64],
    steps: &[(usize, usize, bool, f64)],
    unary: &[(usize, bool, f64)],
) -> FactorGraph {
    let mut graph = FactorGraph::new();
    let first = graph.add_variable("v0");
    graph.add_prior(first, priors[0]);
    for &(anchor, width, positive, delta) in steps {
        let placed = graph.variable_count();
        if placed >= MAX_TREE_VARIABLES {
            break;
        }
        let mut scope = vec![VariableId(anchor % placed)];
        for _ in 0..width.min(MAX_TREE_VARIABLES - placed) {
            let v = graph.add_variable(format!("v{}", graph.variable_count()));
            graph.add_prior(v, priors[v.0]);
            scope.push(v);
        }
        graph.add_factor(Factor::feedback(scope, positive, delta));
    }
    let placed = graph.variable_count();
    for &(variable, positive, delta) in unary {
        graph.add_factor(Factor::feedback(
            vec![VariableId(variable % placed)],
            positive,
            delta,
        ));
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sum-product is exact on trees, so it must reproduce the oracle's marginals on
    /// random tree-structured graphs of priors and feedback factors.
    #[test]
    fn exact_marginals_match_sum_product_on_random_trees(
        priors in prop::collection::vec(0.05f64..0.95, MAX_TREE_VARIABLES),
        steps in prop::collection::vec(
            (0usize..MAX_TREE_VARIABLES, 1usize..4, prop::bool::ANY, 0.05f64..0.5),
            0..MAX_TREE_VARIABLES,
        ),
        unary in prop::collection::vec(
            (0usize..MAX_TREE_VARIABLES, prop::bool::ANY, 0.05f64..0.5),
            0..3,
        ),
    ) {
        let graph = tree_graph(&priors, &steps, &unary);
        prop_assert!(graph.variable_count() <= MAX_TREE_VARIABLES);
        let exact = exact_marginals(&graph);
        let report = run_sum_product(
            &graph,
            SumProductConfig {
                max_iterations: 64,
                tolerance: 1e-12,
                record_history: false,
                ..Default::default()
            },
        );
        prop_assert!(report.converged);
        for (e, s) in exact.iter().zip(&report.posteriors) {
            prop_assert!((e - s).abs() < 1e-9, "exact {} vs sum-product {}", e, s);
        }
    }
}
