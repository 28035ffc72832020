//! Communication overhead of the message-passing schedules (Section 4.3).
//!
//! For the introductory network, the EON-substitute ontology workload, and synthetic
//! clustered networks of growing size, prints the paper's per-peer bound
//! Σ_cᵢ (l_cᵢ − 1) and the per-round message count under per-neighbour batching (one
//! message per distinct remote peer sharing evidence). `DecentralizedRun` does not
//! batch: it sends one belief message per (variable, evidence) slot and other position
//! of the evidence, and its lazy schedule sends the same standalone belief messages,
//! only in the rounds in which a query passes through the peer. The paper's lazy
//! schedule adds no messages because it piggybacks beliefs on queries, which
//! `DecentralizedRun` does not simulate.

use pdms_bench::{print_header, print_kv, print_table, Series};
use pdms_core::{communication_overhead, AnalysisConfig, CycleAnalysis, Granularity, MappingModel};
use pdms_graph::GeneratorConfig;
use pdms_schema::Catalog;
use pdms_workloads::{
    generate_ontology_suite, intro_network, OntologySuiteConfig, SyntheticConfig, SyntheticNetwork,
};

fn profile(catalog: &Catalog, config: &AnalysisConfig) -> (usize, usize, f64) {
    let analysis = CycleAnalysis::analyze(catalog, config);
    let model = MappingModel::build(catalog, &analysis, Granularity::Fine, 0.1);
    let overhead = communication_overhead(catalog, &analysis, &model);
    (
        overhead.total_paper_bound,
        overhead.total_messages_per_round,
        overhead.mean_messages_per_peer(),
    )
}

fn main() {
    print_header(
        "Section 4.3",
        "Communication overhead: periodic schedule bound vs. per-neighbour batching",
        "fine granularity, delta = 0.1, default analysis bounds",
    );

    let config = AnalysisConfig::default();

    let (intro_catalog, _mappings) = intro_network();
    let (bound, actual, mean) = profile(&intro_catalog, &config);
    println!("introductory network (4 peers, 5 mappings):");
    print_kv("paper bound, messages per round", bound);
    print_kv("per-neighbour batching, per round", actual);
    print_kv("mean messages per peer per round", format!("{mean:.2}"));
    println!();

    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    let eon_config = AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        include_parallel_paths: true,
        ..Default::default()
    };
    let (bound, actual, mean) = profile(&suite.catalog, &eon_config);
    println!(
        "ontology-alignment workload ({} peers, {} mappings, cycles ≤ 4):",
        suite.catalog.peer_count(),
        suite.catalog.mapping_count()
    );
    print_kv("paper bound, messages per round", bound);
    print_kv("per-neighbour batching, per round", actual);
    print_kv("mean messages per peer per round", format!("{mean:.2}"));
    println!();

    // Scaling: synthetic clustered networks of growing size.
    let sizes = [8usize, 12, 16, 20, 24];
    let mut bound_series = Vec::new();
    let mut actual_series = Vec::new();
    let mut per_peer_series = Vec::new();
    for &peers in &sizes {
        let network = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::small_world(peers, 2, 0.2, 5),
            attributes: 10,
            error_rate: 0.1,
            seed: 9,
        });
        let scale_config = AnalysisConfig {
            max_cycle_len: 5,
            max_path_len: 3,
            include_parallel_paths: true,
            ..Default::default()
        };
        let (bound, actual, mean) = profile(&network.catalog, &scale_config);
        bound_series.push((peers as f64, bound as f64));
        actual_series.push((peers as f64, actual as f64));
        per_peer_series.push((peers as f64, mean));
    }
    println!("synthetic clustered networks (cycles ≤ 5, parallel paths ≤ 3):");
    print_table(
        "peers",
        &[
            Series::new("paper bound", bound_series),
            Series::new("per-neighbour batching", actual_series),
            Series::new("mean per peer", per_peer_series),
        ],
    );
    println!();
    println!(
        "Expected shape: per-neighbour batching stays well below the paper's bound because\n\
         one physical message carries every belief destined to the same neighbour.\n\
         DecentralizedRun does not batch, and its lazy schedule sends standalone belief\n\
         messages too, only in the rounds in which a query passes through the peer."
    );
}
