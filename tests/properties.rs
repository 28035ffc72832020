//! Cross-crate property-based tests: invariants of the inference pipeline that must
//! hold for arbitrary small mapping networks.

use pdms::core::{
    run_embedded, AnalysisConfig, CycleAnalysis, DecentralizedConfig, DecentralizedRun,
    EmbeddedConfig, Granularity, MappingModel,
};
use pdms::factor::exact_marginals;
use pdms::schema::{AttributeId, Catalog, PeerId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a ring catalog of `peers` peers and `attrs` attributes per schema, where each
/// mapping misroutes attribute 0 according to the corresponding flag.
fn ring_catalog(peers: usize, attrs: usize, faulty: &[bool]) -> Catalog {
    let mut catalog = Catalog::new();
    let ids: Vec<PeerId> = (0..peers)
        .map(|i| {
            catalog.add_peer_with_schema(format!("p{i}"), |schema| {
                for a in 0..attrs {
                    schema.attribute(format!("attr{a}"));
                }
            })
        })
        .collect();
    for i in 0..peers {
        let is_faulty = faulty.get(i).copied().unwrap_or(false);
        catalog.add_mapping(ids[i], ids[(i + 1) % peers], |mut m| {
            for a in 0..attrs {
                let attr = AttributeId(a);
                m = if a == 0 && is_faulty && attrs > 1 {
                    m.erroneous(attr, AttributeId(1), attr)
                } else {
                    m.correct(attr, attr)
                };
            }
            m
        });
    }
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Posteriors are probabilities and the embedded scheme always terminates.
    #[test]
    fn posteriors_are_probabilities(
        peers in 3usize..7,
        attrs in 2usize..5,
        faulty_mask in proptest::collection::vec(proptest::bool::ANY, 0..7),
        prior in 0.2f64..0.8,
    ) {
        let catalog = ring_catalog(peers, attrs, &faulty_mask);
        let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
        let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, 0.1);
        let report = run_embedded(&model, &BTreeMap::new(), prior, EmbeddedConfig {
            record_history: false,
            ..Default::default()
        });
        for p in &report.posteriors {
            prop_assert!(p.is_finite());
            prop_assert!((0.0..=1.0).contains(p), "posterior {p}");
        }
    }

    /// On a single cycle the factor graph is a tree per attribute, so the embedded
    /// scheme must agree with exact inference to numerical precision.
    #[test]
    fn embedded_is_exact_on_single_cycles(
        peers in 3usize..6,
        prior in 0.3f64..0.8,
        delta in 0.01f64..0.5,
    ) {
        let catalog = ring_catalog(peers, 2, &[]);
        let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig {
            max_cycle_len: peers,
            max_path_len: 2,
            include_parallel_paths: false,
            ..Default::default()
        });
        let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, delta);
        prop_assume!(model.variable_count() <= 20);
        let priors = BTreeMap::new();
        let embedded = run_embedded(&model, &priors, prior, EmbeddedConfig {
            record_history: false,
            ..Default::default()
        });
        let exact = exact_marginals(&model.global_factor_graph(&priors, prior));
        for (a, b) in embedded.posteriors.iter().zip(&exact) {
            prop_assert!((a - b).abs() < 1e-6, "embedded {a} vs exact {b}");
        }
    }

    /// Message loss on the simulated transport never changes the classification
    /// reached by the reliable embedded kernel (it only slows convergence down),
    /// provided enough rounds are allowed.
    #[test]
    fn message_loss_preserves_classification(
        send_probability in 0.3f64..1.0,
        seed in 0u64..1000,
    ) {
        let faulty = [false, true, false, false];
        let catalog = ring_catalog(4, 3, &faulty);
        let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
        let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, 0.1);
        let priors = BTreeMap::new();
        let reliable = run_embedded(&model, &priors, 0.6, EmbeddedConfig {
            record_history: false,
            ..Default::default()
        });
        let config = DecentralizedConfig::lossy(send_probability, seed, 3000);
        let mut lossy = DecentralizedRun::new(&catalog, &model, &priors, 0.6, config);
        let (lossy, settled) = lossy.run_settled(1e-4);
        prop_assert!(settled < 3000, "never settled");
        for (a, b) in reliable.posteriors.iter().zip(&lossy) {
            prop_assert_eq!(*a < 0.5, *b < 0.5, "reliable {} vs lossy {}", a, b);
        }
    }

    /// Work-stealing enumeration is bit-identical to the serial enumeration — cycles
    /// and parallel paths, contents *and* order — for arbitrary scale-free (hub-heavy)
    /// topologies, worker counts, and steal configurations.
    #[test]
    fn work_stealing_enumeration_is_deterministic(
        peers in 8usize..28,
        attachment in 1usize..4,
        topo_seed in 0u64..500,
        workers in 2usize..6,
        heavy_threshold in 1usize..6,
        granularity in 1usize..4,
    ) {
        use pdms::graph::{
            enumerate_cycles, enumerate_cycles_scheduled, enumerate_parallel_paths,
            enumerate_parallel_paths_scheduled, GeneratorConfig, StealConfig,
        };
        let graph = GeneratorConfig::scale_free_skewed(peers, attachment, 1.6, topo_seed)
            .generate();
        let steal = StealConfig {
            heavy_origin_threshold: heavy_threshold,
            steal_granularity: granularity,
        };
        let serial_cycles = enumerate_cycles(&graph, 5);
        let stolen_cycles = enumerate_cycles_scheduled(&graph, 5, workers, &steal);
        prop_assert_eq!(serial_cycles, stolen_cycles);
        let serial_paths = enumerate_parallel_paths(&graph, 3);
        let stolen_paths = enumerate_parallel_paths_scheduled(&graph, 3, workers, &steal);
        prop_assert_eq!(serial_paths, stolen_paths);
    }

    /// The full evidence analysis — evidence ids included — does not depend on the
    /// worker count or the steal knobs, so a session built at any parallelism serves
    /// the same posteriors.
    #[test]
    fn evidence_ids_survive_any_schedule(
        peers in 6usize..16,
        topo_seed in 0u64..200,
        workers in 2usize..5,
        granularity in 1usize..3,
    ) {
        use pdms::graph::GeneratorConfig;
        use pdms::workloads::{SyntheticConfig, SyntheticNetwork};
        let network = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::scale_free_skewed(peers, 2, 1.5, topo_seed),
            attributes: 3,
            error_rate: 0.1,
            seed: topo_seed,
        });
        let serial = CycleAnalysis::analyze(&network.catalog, &AnalysisConfig {
            max_cycle_len: 4,
            max_path_len: 3,
            include_parallel_paths: true,
            parallelism: 1,
            ..Default::default()
        });
        let scheduled = CycleAnalysis::analyze(&network.catalog, &AnalysisConfig {
            max_cycle_len: 4,
            max_path_len: 3,
            include_parallel_paths: true,
            parallelism: workers,
            heavy_origin_threshold: 2,
            steal_granularity: granularity,
            ..Default::default()
        });
        prop_assert_eq!(&serial.evidences, &scheduled.evidences);
        prop_assert_eq!(serial.observations.len(), scheduled.observations.len());
    }

    /// The overhead report's distinct remote peers per peer equal a brute-force
    /// count: the owners, other than the peer, of every variable of every evidence
    /// that touches one of the peer's variables.
    #[test]
    fn overhead_counts_the_peers_each_peer_shares_evidence_with(
        peers in 3usize..9,
        edge_probability in 0.15f64..0.5,
        seed in 0u64..500,
        coarse in proptest::bool::ANY,
    ) {
        use pdms::core::communication_overhead;
        use pdms::graph::GeneratorConfig;
        use pdms::workloads::{SyntheticConfig, SyntheticNetwork};
        use std::collections::BTreeSet;
        let catalog = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::erdos_renyi(peers, edge_probability, seed),
            attributes: 3,
            error_rate: 0.2,
            seed: seed + 1,
        })
        .catalog;
        let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
        let granularity = if coarse { Granularity::Coarse } else { Granularity::Fine };
        let model = MappingModel::build(&catalog, &analysis, granularity, 0.1);
        let report = communication_overhead(&catalog, &analysis, &model);
        for peer in catalog.peers() {
            let mut remotes = BTreeSet::new();
            for variable in 0..model.variable_count() {
                if model.owner(variable) != peer {
                    continue;
                }
                for evidence in model.evidences.iter().filter(|e| e.variables.contains(&variable)) {
                    for &other in &evidence.variables {
                        if model.owner(other) != peer {
                            remotes.insert(model.owner(other));
                        }
                    }
                }
            }
            prop_assert_eq!(report.peer(peer).distinct_remote_peers, remotes.len(), "{:?}", peer);
        }
    }

    /// The incrementally maintained weak-component partition equals a from-scratch
    /// BFS decomposition after every merge/split of an arbitrary add/remove
    /// schedule — the invariant the sharded engine's whole shard lifecycle (and
    /// therefore the splice path's donor selection) rests on.
    #[test]
    fn incremental_components_match_recompute_under_random_churn(
        nodes in 2usize..24,
        schedule in proptest::collection::vec((0u64..u64::MAX, proptest::bool::ANY), 1..120),
    ) {
        use pdms::graph::{connected_components, DiGraph, EdgeId, IncrementalComponents, NodeId};
        let mut graph = DiGraph::with_nodes(nodes);
        let mut incremental = IncrementalComponents::from_graph(&graph);
        let mut live: Vec<EdgeId> = Vec::new();
        for (step, (draw, prefer_remove)) in schedule.into_iter().enumerate() {
            if prefer_remove && !live.is_empty() {
                let edge = live.swap_remove(draw as usize % live.len());
                let endpoints = graph.edge(edge).unwrap();
                graph.remove_edge(edge);
                incremental.split(&graph, endpoints.source, endpoints.target);
            } else {
                let a = NodeId(draw as usize % nodes);
                let b = NodeId((draw >> 32) as usize % nodes);
                live.push(graph.add_edge(a, b));
                incremental.merge(a, b);
            }
            prop_assert_eq!(
                incremental.partitions(),
                connected_components(&graph),
                "diverged at step {}", step
            );
        }
        // Node growth after churn keeps the partition aligned too: the new node
        // must appear as its own singleton component.
        let added = graph.add_node();
        incremental.add_node();
        prop_assert_eq!(incremental.component_size(added), 1);
        prop_assert_eq!(incremental.partitions(), connected_components(&graph));
    }
}
