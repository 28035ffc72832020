//! Integration tests spanning the whole workspace: catalog → analysis → factor graph →
//! inference → routing → evaluation, exercised through the public facade crate.

use pdms::core::{
    AnalysisConfig, EmbeddedBackend, Engine, InferenceBackend, RoutingPolicy, VotingBackend,
};
use pdms::graph::GeneratorConfig;
use pdms::schema::{AttributeId, PeerId, Predicate, Query};
use pdms::workloads::example::{intro_network, CREATOR, ITEM};
use pdms::workloads::{
    generate_ontology_suite, OntologySuiteConfig, SyntheticConfig, SyntheticNetwork,
};
use std::sync::Arc;

#[test]
fn intro_network_end_to_end() {
    let (catalog, mappings) = intro_network();
    let session = Engine::builder().build(catalog);
    assert!(session.converged());

    // Classification: only m24/Creator is below 0.5.
    let faulty = session
        .posteriors()
        .probability_ignoring_bottom(mappings.m24, CREATOR);
    assert!(faulty < 0.5);
    for good in [mappings.m12, mappings.m23, mappings.m34, mappings.m41] {
        assert!(
            session
                .posteriors()
                .probability_ignoring_bottom(good, CREATOR)
                > 0.5
        );
    }

    // Routing: the introductory query reaches all other peers without false positives.
    let query = Query::new()
        .project(CREATOR)
        .select(ITEM, Predicate::Contains("river".into()));
    let outcome = session.route(PeerId(1), &query, &RoutingPolicy::uniform(0.5));
    assert_eq!(outcome.reached.len(), 3);
    assert!(outcome.tainted.is_empty());

    // Evaluation: perfect precision at θ = 0.5 on this example.
    let eval = session.evaluate(0.5);
    assert_eq!(eval.false_positives, 0);
    assert_eq!(eval.true_positives, 1);
}

#[test]
fn synthetic_network_detection_beats_random_guessing() {
    let network = SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::small_world(16, 2, 0.2, 31),
        attributes: 10,
        error_rate: 0.15,
        seed: 13,
    });
    let error_rate = network.effective_error_rate();
    assert!(error_rate > 0.05, "workload should contain errors");
    let session = Engine::builder()
        .delta(0.1)
        .analysis(AnalysisConfig {
            max_cycle_len: 5,
            max_path_len: 3,
            include_parallel_paths: true,
            ..Default::default()
        })
        .build(network.catalog.clone());
    let eval = session.evaluate(0.5);
    // Random guessing at θ = 0.5 would have precision ≈ the error rate; the engine
    // should do clearly better while finding a useful share of the errors.
    assert!(
        eval.precision() > 2.0 * error_rate,
        "precision {} vs error rate {error_rate}",
        eval.precision()
    );
    assert!(eval.recall() > 0.2, "recall {}", eval.recall());
}

#[test]
fn ontology_alignment_scenario_runs_and_detects_errors() {
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    assert!(suite.erroneous_correspondences > 0);
    let session = Engine::builder()
        .delta(0.1)
        .analysis(AnalysisConfig {
            max_cycle_len: 3,
            max_path_len: 2,
            include_parallel_paths: true,
            ..Default::default()
        })
        .build(suite.catalog.clone());
    let eval = session.evaluate(0.4);
    assert!(
        eval.precision() > suite.error_rate(),
        "precision {} should beat the base error rate {}",
        eval.precision(),
        suite.error_rate()
    );
    assert!(eval.true_positives > 0);
}

#[test]
fn inference_backends_are_interchangeable() {
    // The engine can swap inference backends without touching the rest of the
    // pipeline; all of them must at least flag the faulty mapping of the example.
    let backends: [Arc<dyn InferenceBackend>; 2] = [
        Arc::new(EmbeddedBackend::default()),
        Arc::new(VotingBackend),
    ];
    for backend in backends {
        let name = backend.name();
        let (catalog, mappings) = intro_network();
        let session = Engine::builder()
            .backend_arc(backend)
            .delta(0.1)
            .build(catalog);
        let p = session
            .posteriors()
            .probability_ignoring_bottom(mappings.m24, CREATOR);
        assert!(p < 0.5, "{name}: m24 posterior {p}");
    }
}

#[test]
fn bottom_rule_zeroes_unmapped_attributes_across_the_stack() {
    let (catalog, mappings) = intro_network();
    let session = Engine::builder().build(catalog);
    // Attribute 99 does not exist in any mapping: the posterior table returns 0 via the
    // ⊥ rule, so a query touching it is never forwarded.
    let p = session
        .posteriors()
        .probability(session.catalog(), mappings.m12, AttributeId(99));
    assert_eq!(p, 0.0);
    let query = Query::new().project(AttributeId(99));
    let outcome = session.route(PeerId(0), &query, &RoutingPolicy::uniform(0.1));
    assert!(outcome.reached.is_empty());
}
