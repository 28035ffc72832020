//! Large-scale synthetic simulation: a clustered, scale-free-ish mapping network with
//! injected errors, analysed end to end — the kind of "larger automatically-generated
//! PDMS settings" the paper's conclusion mentions as ongoing work.
//!
//! Run with `cargo run --release --example large_scale`.

use pdms::core::{AnalysisConfig, EmbeddedConfig, Engine};
use pdms::graph::{clustering_coefficient, GeneratorConfig};
use pdms::workloads::{SyntheticConfig, SyntheticNetwork};

fn main() {
    let network = SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::small_world(40, 3, 0.15, 2024),
        attributes: 10,
        error_rate: 0.15,
        seed: 99,
    });
    let topology = pdms::core::cycle_analysis::build_topology(&network.catalog);
    println!(
        "synthetic network: {} peers, {} mappings, clustering coefficient {:.3}",
        network.catalog.peer_count(),
        network.catalog.mapping_count(),
        clustering_coefficient(&topology)
    );
    println!(
        "injected errors: {} of {} correspondences ({:.1}%)",
        network.error_count(),
        network.correspondence_count(),
        100.0 * network.effective_error_rate()
    );

    let session = Engine::builder()
        .delta(0.1)
        .analysis(AnalysisConfig {
            max_cycle_len: 5,
            max_path_len: 3,
            include_parallel_paths: true,
            ..Default::default()
        })
        .embedded(EmbeddedConfig {
            max_rounds: 30,
            record_history: false,
            ..Default::default()
        })
        .build(network.catalog.clone());
    println!(
        "\nevidence paths: {}, model variables: {}, feedback factors: {}, rounds: {}",
        session.analysis().evidences.len(),
        session.model().variable_count(),
        session.model().evidence_count(),
        session.rounds()
    );

    println!("\ndetection quality vs. threshold:");
    println!(
        "{:>8} {:>10} {:>8} {:>6} {:>9}",
        "theta", "precision", "recall", "f1", "flagged"
    );
    for theta in [0.2, 0.3, 0.4, 0.5, 0.6] {
        let eval = session.evaluate(theta);
        println!(
            "{theta:>8.2} {:>10.3} {:>8.3} {:>6.3} {:>9}",
            eval.precision(),
            eval.recall(),
            eval.f1(),
            eval.flagged()
        );
    }
}
