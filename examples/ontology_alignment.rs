//! Real-world-style scenario: automatically align six bibliographic ontologies, then
//! let the message-passing scheme find the alignment errors (the Figure 12 workload).
//!
//! Run with `cargo run --release --example ontology_alignment`.

use pdms::core::{AnalysisConfig, EmbeddedConfig, Engine};
use pdms::workloads::{generate_ontology_suite, OntologySuiteConfig};

fn main() {
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    println!(
        "generated {} ontologies, {} mappings, {} attribute correspondences ({} erroneous, {:.1}%)",
        suite.catalog.peer_count(),
        suite.catalog.mapping_count(),
        suite.total_correspondences,
        suite.erroneous_correspondences,
        100.0 * suite.error_rate()
    );
    for peer in suite.catalog.peers() {
        let schema = suite.catalog.peer_schema(peer);
        println!(
            "  {:<14} {} concepts",
            schema.name(),
            schema.attribute_count()
        );
    }

    let session = Engine::builder()
        .delta(0.1)
        .analysis(AnalysisConfig {
            max_cycle_len: 4,
            max_path_len: 3,
            include_parallel_paths: true,
            ..Default::default()
        })
        .embedded(EmbeddedConfig {
            max_rounds: 30,
            record_history: false,
            ..Default::default()
        })
        .build(suite.catalog.clone());
    println!(
        "\nanalysis: {} evidence paths, model: {} variables, {} feedback factors, {} rounds",
        session.analysis().evidences.len(),
        session.model().variable_count(),
        session.model().evidence_count(),
        session.rounds(),
    );

    println!("\nprecision / recall of erroneous-correspondence detection:");
    println!(
        "{:>8} {:>10} {:>8} {:>9}",
        "theta", "precision", "recall", "flagged"
    );
    for theta in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let eval = session.evaluate(theta);
        println!(
            "{theta:>8.2} {:>10.3} {:>8.3} {:>9}",
            eval.precision(),
            eval.recall(),
            eval.flagged()
        );
    }
    println!(
        "\nAs in the paper's Figure 12, low thresholds flag few but almost always genuinely\n\
         erroneous correspondences; raising the threshold finds more of them at the cost of\n\
         precision, with the useful operating points below θ ≈ 0.6."
    );
}
