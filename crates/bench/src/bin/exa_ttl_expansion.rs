//! Adaptive probe-TTL expansion (Section 5.1.2) on clustered topologies.
//!
//! Prints, for an SRS-style clustered network and for the ontology-alignment workload,
//! how much evidence each TTL adds, how much the posteriors move, and where the
//! expansion stops. The paper's claim is that the threshold "always remains low (five
//! to ten) for dense graphs".

use pdms_bench::{print_header, print_kv, print_table, Series};
use pdms_core::{expand_ttl, TtlExpansionConfig};
use pdms_schema::Catalog;
use pdms_workloads::{generate_ontology_suite, OntologySuiteConfig, SrsConfig, SrsNetwork};

fn run(label: &str, catalog: &Catalog, max_ttl: usize) {
    let expansion = expand_ttl(
        catalog,
        &TtlExpansionConfig {
            start_ttl: 2,
            max_ttl,
            epsilon: 0.01,
            patience: 1,
            ..Default::default()
        },
    );
    println!("{label}:");
    let evidence: Vec<(f64, f64)> = expansion
        .steps
        .iter()
        .map(|s| (s.ttl as f64, s.evidence_count as f64))
        .collect();
    let variables: Vec<(f64, f64)> = expansion
        .steps
        .iter()
        .map(|s| (s.ttl as f64, s.variable_count as f64))
        .collect();
    let change: Vec<(f64, f64)> = expansion
        .steps
        .iter()
        .map(|s| (s.ttl as f64, s.max_posterior_change.unwrap_or(0.0)))
        .collect();
    print_table(
        "ttl",
        &[
            Series::new("evidence paths", evidence),
            Series::new("variables", variables),
            Series::new("max |Δposterior|", change),
        ],
    );
    print_kv("chosen TTL", expansion.chosen_ttl);
    print_kv("stopped by the ε-criterion", expansion.converged);
    print_kv("rounds at the chosen TTL", expansion.final_session.rounds());
    println!();
}

fn main() {
    print_header(
        "Section 5.1.2",
        "Adaptive probe-TTL expansion: evidence and posterior change per TTL",
        "epsilon = 0.01, patience = 1, priors = 0.5",
    );
    let srs = SrsNetwork::generate(SrsConfig {
        peers: 24,
        ..Default::default()
    });
    run(
        &format!(
            "SRS-style clustered network ({} peers, {} mappings, clustering {:.2})",
            srs.catalog.peer_count(),
            srs.catalog.mapping_count(),
            srs.clustering_coefficient
        ),
        &srs.catalog,
        6,
    );

    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    run(
        &format!(
            "ontology-alignment workload ({} peers, {} mappings)",
            suite.catalog.peer_count(),
            suite.catalog.mapping_count()
        ),
        &suite.catalog,
        5,
    );

    println!(
        "Expected shape: evidence keeps growing with the TTL, but the posteriors stop moving\n\
         after TTL ≈ 4-6, so the expansion halts well below the budget — the longer cycles\n\
         would not have changed any decision (Figure 10 explains why)."
    );
}
