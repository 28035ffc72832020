//! Ready-made experiment scenarios: one function per figure of the paper's evaluation.
//!
//! Each scenario assembles the workload, runs the relevant part of the engine, and
//! returns a [`ScenarioResult`] — a small named bundle of series and scalar notes that
//! the `pdms-bench` binaries print and that integration tests assert on. Keeping the
//! computation here (rather than in the binaries) means the figures are reproducible
//! from library code and covered by `cargo test`.

use crate::example::{growing_cycle, intro_network, simple_cycle, CREATOR, ITEM};
use crate::ontology::{generate_ontology_suite, OntologySuiteConfig};
use crate::synthetic::{SyntheticConfig, SyntheticNetwork};
use pdms_core::cycle_analysis::build_topology;
use pdms_core::{
    exact_posteriors, run_embedded, AnalysisConfig, CycleAnalysis, DecentralizedConfig,
    DecentralizedRun, EmbeddedBackend, EmbeddedConfig, Engine, Granularity, InferenceBackend,
    MappingModel, PriorStore, RoutingPolicy, VariableKey, VotingBackend,
};
use pdms_graph::GeneratorConfig;
use pdms_schema::{PeerId, Predicate, Query};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named experiment output: series of `(x, y)` points plus free-form notes.
#[derive(Debug, Clone, Default)]
pub struct ScenarioResult {
    /// Scenario name (e.g. `"figure-07-convergence"`).
    pub name: String,
    /// Labelled series.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// Scalar observations worth reporting (`(label, value)`).
    pub notes: Vec<(String, String)>,
}

impl ScenarioResult {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push((label.into(), points));
    }

    /// Adds a note.
    pub fn note(&mut self, label: impl Into<String>, value: impl ToString) {
        self.notes.push((label.into(), value.to_string()));
    }

    /// Looks up a series by label.
    pub fn series_named(&self, label: &str) -> Option<&[(f64, f64)]> {
        self.series
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, points)| points.as_slice())
    }
}

/// Identifier of a reproducible scenario (used by harness front-ends to enumerate them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Figure 7: convergence of the iterative message passing on the example graph.
    Figure7Convergence,
    /// Figure 9: relative error of the embedded scheme vs. exact inference as the long
    /// cycle grows.
    Figure9RelativeError,
    /// Figure 10: impact of the cycle length on the posterior, for several Δ.
    Figure10CycleLength,
    /// Figure 11: robustness against lost messages.
    Figure11FaultTolerance,
    /// Figure 12: precision vs. threshold θ on the ontology-alignment workload.
    Figure12Precision,
    /// Section 4.5: the worked introductory example.
    IntroExample,
    /// Section 6: comparison with the cycle-voting heuristic.
    BaselineComparison,
    /// Scale-free (hub-heavy) network: how unevenly evidence is spread over origin
    /// peers, with worker-count invariance of the enumeration checked in-scenario.
    HubHeavyEnumeration,
    /// Island federation under merge-heavy churn: epochs keep bridging previously
    /// separate islands (plus ordinary correspondence churn), driving the sharded
    /// engine's warm splice path (`perfbench`'s `island_rewire` workload times
    /// recurring merges and splits).
    MergeHeavyChurn,
}

impl Scenario {
    /// All scenarios in paper order.
    pub fn all() -> [Scenario; 9] {
        [
            Scenario::Figure7Convergence,
            Scenario::Figure9RelativeError,
            Scenario::Figure10CycleLength,
            Scenario::Figure11FaultTolerance,
            Scenario::Figure12Precision,
            Scenario::IntroExample,
            Scenario::BaselineComparison,
            Scenario::HubHeavyEnumeration,
            Scenario::MergeHeavyChurn,
        ]
    }

    /// Runs the scenario with its default (paper) parameters.
    pub fn run(&self) -> ScenarioResult {
        match self {
            Scenario::Figure7Convergence => figure7_convergence(0.7, 0.1),
            Scenario::Figure9RelativeError => figure9_relative_error(6, 0.8, 0.1, 10),
            Scenario::Figure10CycleLength => figure10_cycle_length(20, &[0.1, 0.05, 0.01]),
            Scenario::Figure11FaultTolerance => {
                figure11_fault_tolerance(&[1.0, 0.9, 0.7, 0.5, 0.3, 0.2, 0.1], 0.8, 0.1)
            }
            Scenario::Figure12Precision => {
                figure12_precision(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
            }
            Scenario::IntroExample => intro_example(),
            Scenario::BaselineComparison => baseline_comparison(),
            Scenario::HubHeavyEnumeration => hub_heavy_enumeration(48, 2, 1.6, 2006),
            Scenario::MergeHeavyChurn => merge_heavy_churn(4, 8, 8, 0.8, 2006),
        }
    }
}

/// Builds the hub-heavy (super-linear preferential attachment) synthetic network
/// used by the enumeration-balance scenario.
pub fn hub_heavy_network(
    peers: usize,
    attachment: usize,
    hub_exponent: f64,
    seed: u64,
) -> SyntheticNetwork {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::scale_free_skewed(peers, attachment, hub_exponent, seed),
        attributes: 4,
        error_rate: 0.08,
        seed,
    })
}

/// A federation of independent PDMS communities: `islands` disjoint Erdős–Rényi
/// islands of `peers_per_island` peers each, one weakly connected component per
/// island. The natural workload for the component-sharded engine
/// (`pdms_core::ShardedSession`): every island is one shard, and evidence never
/// crosses island boundaries, so per-shard assessment is exact.
pub fn multi_component_network(
    islands: usize,
    peers_per_island: usize,
    probability: f64,
    seed: u64,
) -> SyntheticNetwork {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::islands(islands, peers_per_island, probability, seed),
        attributes: 5,
        error_rate: 0.08,
        seed,
    })
}

/// Scale-free PDMS: how unevenly the evidence is distributed over origin peers —
/// a hub origin is one enumeration task, so it sets the parallel enumeration's
/// tail — plus an in-scenario check that evidence ids and observations are
/// identical at 1, 2, 3 and 4 workers.
pub fn hub_heavy_enumeration(
    peers: usize,
    attachment: usize,
    hub_exponent: f64,
    seed: u64,
) -> ScenarioResult {
    let network = hub_heavy_network(peers, attachment, hub_exponent, seed);
    let serial_config = AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        include_parallel_paths: true,
        parallelism: 1,
        ..Default::default()
    };
    let analysis = CycleAnalysis::analyze(&network.catalog, &serial_config);
    let mut identical = true;
    for workers in [2usize, 3, 4] {
        let parallel = CycleAnalysis::analyze(
            &network.catalog,
            &AnalysisConfig {
                parallelism: workers,
                ..serial_config.clone()
            },
        );
        identical &= parallel.evidences == analysis.evidences
            && parallel.observations == analysis.observations;
    }

    let topology = build_topology(&network.catalog);
    let mut result = ScenarioResult::new("hub-heavy-enumeration");
    // Degree distribution: the scale-free signature (x = degree, y = peer count).
    let mut by_degree: BTreeMap<usize, usize> = BTreeMap::new();
    for node in topology.nodes() {
        *by_degree.entry(topology.degree(node)).or_default() += 1;
    }
    result.push_series(
        "degree distribution",
        by_degree
            .iter()
            .map(|(d, c)| (*d as f64, *c as f64))
            .collect(),
    );
    // Evidence mass per origin peer, descending: the per-origin imbalance a static
    // partition inherits directly as its per-worker tail.
    let mut per_origin = vec![0usize; network.catalog.peer_count()];
    for evidence in &analysis.evidences {
        let origin = match evidence.source {
            pdms_core::EvidenceSource::Cycle { origin } => origin.0,
            pdms_core::EvidenceSource::ParallelPaths { source, .. } => source.0,
        };
        per_origin[origin] += 1;
    }
    let mut shares: Vec<usize> = per_origin.clone();
    shares.sort_unstable_by(|a, b| b.cmp(a));
    result.push_series(
        "evidence per origin (descending)",
        shares
            .iter()
            .enumerate()
            .map(|(rank, count)| (rank as f64, *count as f64))
            .collect(),
    );
    let total_evidence: usize = per_origin.iter().sum();
    let max_degree = topology
        .nodes()
        .map(|n| topology.degree(n))
        .max()
        .unwrap_or(0);
    let mean_degree = if peers > 0 {
        topology.nodes().map(|n| topology.degree(n)).sum::<usize>() as f64 / peers as f64
    } else {
        0.0
    };
    result.note("peers", peers);
    result.note("mappings", network.catalog.mapping_count());
    result.note("hub exponent", hub_exponent);
    result.note("max degree", max_degree);
    result.note("mean degree", format!("{mean_degree:.2}"));
    result.note("evidence paths", analysis.evidences.len());
    if total_evidence > 0 {
        result.note(
            "top-origin evidence share",
            format!("{:.3}", shares[0] as f64 / total_evidence as f64),
        );
    }
    result.note("identical evidence at 1/2/3/4 workers", identical);
    result
}

/// Island federation under merge-heavy churn: every epoch has probability
/// `merge_rate` of adding an island-bridging mapping on top of the ordinary
/// correspondence churn, so the sharded engine keeps merging components — the
/// structural event the warm splice path (`pdms_core::ShardedSession`) exists
/// for. Reports per-epoch shard counts and splice activity, plus their totals.
pub fn merge_heavy_churn(
    islands: usize,
    peers_per_island: usize,
    epochs: usize,
    merge_rate: f64,
    seed: u64,
) -> ScenarioResult {
    use crate::churn::{ChurnConfig, ChurnGenerator};
    let network = multi_component_network(islands, peers_per_island, 0.18, seed);
    let mut session = pdms_core::Engine::builder()
        .analysis(AnalysisConfig {
            max_cycle_len: 4,
            max_path_len: 3,
            ..Default::default()
        })
        .embedded(EmbeddedConfig {
            record_history: false,
            ..Default::default()
        })
        .delta(0.1)
        .build_sharded(network.catalog.clone());
    let mut generator = ChurnGenerator::new(ChurnConfig {
        merge_rate,
        seed,
        ..Default::default()
    });
    let mut result = ScenarioResult::new("merge-heavy-churn");
    let mut shards_series = Vec::with_capacity(epochs);
    let mut spliced_series = Vec::with_capacity(epochs);
    let mut bridge_evidence_series = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let events = generator.epoch_events(session.catalog());
        let report = session.apply_batch(&events);
        shards_series.push((epoch as f64, session.shard_count() as f64));
        spliced_series.push((epoch as f64, report.shards_spliced as f64));
        bridge_evidence_series.push((epoch as f64, report.splice_evidence_added as f64));
    }
    result.push_series("shards per epoch", shards_series);
    result.push_series("shards spliced per epoch", spliced_series);
    result.push_series("bridge evidence per epoch", bridge_evidence_series);
    let stats = session.stats();
    result.note("islands", islands);
    result.note("peers per island", peers_per_island);
    result.note("merge rate", merge_rate);
    result.note("epochs", epochs);
    result.note("merges", stats.merges);
    result.note("splits", stats.splits);
    result.note("shards spliced", stats.shards_spliced);
    result.note("bridge evidence added", stats.splice_evidence_added);
    result.note("cold shard rebuilds", stats.shard_rebuilds);
    result.note("final shard count", session.shard_count());
    result.note("final evidence paths", session.evidence_count());
    result
}

fn intro_model(delta: f64) -> (pdms_schema::Catalog, MappingModel, CycleAnalysis) {
    let (catalog, _) = intro_network();
    let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
    let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, delta);
    (catalog, model, analysis)
}

/// Figure 7: posterior of every mapping (for the `Creator` attribute) per iteration of
/// the embedded message passing on the example graph, priors `prior`, compensation Δ.
pub fn figure7_convergence(prior: f64, delta: f64) -> ScenarioResult {
    let (_catalog, model, _) = intro_model(delta);
    let report = run_embedded(
        &model,
        &BTreeMap::new(),
        prior,
        EmbeddedConfig {
            max_rounds: 30,
            tolerance: 0.0, // run the full horizon so the trajectory is visible
            ..Default::default()
        },
    );
    let mut result = ScenarioResult::new("figure-07-convergence");
    for (index, key) in model.variables.iter().enumerate() {
        if key.attribute != Some(CREATOR) {
            continue;
        }
        let points = report
            .history
            .iter()
            .enumerate()
            .map(|(round, row)| (round as f64, row[index]))
            .collect();
        result.push_series(key.name(), points);
    }
    result.note("priors", prior);
    result.note("delta", delta);
    result.note("rounds", report.rounds);
    result
}

/// Figure 9: relative error (embedded vs. exact) on the mappings of the long cycle as
/// extra peers are spliced into it. `iterations` bounds the embedded rounds, matching
/// the paper's "10 iterations".
pub fn figure9_relative_error(
    max_extra: usize,
    prior: f64,
    delta: f64,
    iterations: usize,
) -> ScenarioResult {
    let mut result = ScenarioResult::new("figure-09-relative-error");
    let mut points_cycle = Vec::new();
    let mut points_mean = Vec::new();
    for extra in 0..=max_extra {
        let (catalog, _m) = growing_cycle(extra);
        let analysis = CycleAnalysis::analyze(
            &catalog,
            &AnalysisConfig {
                max_cycle_len: 6 + max_extra,
                max_path_len: 4 + max_extra,
                include_parallel_paths: true,
                ..Default::default()
            },
        );
        // Restrict to the Creator attribute so the exact enumeration (2^n joint states)
        // stays tractable as the cycle grows; the paper's figure tracks one attribute.
        let analysis = CycleAnalysis {
            evidences: analysis.evidences.clone(),
            observations: analysis
                .observations
                .iter()
                .filter(|o| o.origin_attribute == CREATOR)
                .cloned()
                .collect(),
        };
        let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, delta);
        let priors = BTreeMap::new();
        let embedded = run_embedded(
            &model,
            &priors,
            prior,
            EmbeddedConfig {
                max_rounds: iterations,
                tolerance: 0.0,
                ..Default::default()
            },
        );
        let exact = exact_posteriors(&model, &priors, prior);
        // Relative error averaged over the correct mappings of the long cycle
        // (attribute Creator), the quantity Figure 9 tracks.
        let mut errors = Vec::new();
        for (i, key) in model.variables.iter().enumerate() {
            if key.attribute != Some(CREATOR) {
                continue;
            }
            let is_faulty_pair = !_m.m24.eq(&key.mapping);
            if !is_faulty_pair {
                continue;
            }
            if exact[i] > 0.0 {
                errors.push((embedded.posteriors[i] - exact[i]).abs() / exact[i]);
            }
        }
        let cycle_len = 4 + extra;
        let max_err = errors.iter().copied().fold(0.0f64, f64::max);
        let mean_err = if errors.is_empty() {
            0.0
        } else {
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        points_cycle.push((cycle_len as f64, max_err));
        points_mean.push((cycle_len as f64, mean_err));
    }
    result.push_series("max relative error (correct mappings)", points_cycle);
    result.push_series("mean relative error (correct mappings)", points_mean);
    result.note("priors", prior);
    result.note("delta", delta);
    result.note("iterations", iterations);
    result
}

/// Figure 10: posterior induced by one positive cycle of growing length, for several Δ,
/// with uniform priors and the minimal two iterations (the factor graph is a tree).
pub fn figure10_cycle_length(max_len: usize, deltas: &[f64]) -> ScenarioResult {
    let mut result = ScenarioResult::new("figure-10-cycle-length");
    for &delta in deltas {
        let mut points = Vec::new();
        for n in 2..=max_len {
            let catalog = simple_cycle(n);
            let analysis = CycleAnalysis::analyze(
                &catalog,
                &AnalysisConfig {
                    max_cycle_len: max_len + 1,
                    max_path_len: 2,
                    include_parallel_paths: false,
                    ..Default::default()
                },
            );
            let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, delta);
            let report = run_embedded(
                &model,
                &BTreeMap::new(),
                0.5,
                EmbeddedConfig {
                    max_rounds: 2,
                    tolerance: 0.0,
                    ..Default::default()
                },
            );
            // All mappings are symmetric; report the posterior of the first Creator
            // variable.
            let idx = model
                .variables
                .iter()
                .position(|k| k.attribute == Some(CREATOR))
                .expect("creator variable exists");
            points.push((n as f64, report.posteriors[idx]));
        }
        result.push_series(format!("delta={delta}"), points);
    }
    result.note("priors", 0.5);
    result.note("iterations", 2);
    result
}

/// Figure 11: rounds the example graph needs to settle as the per-message delivery
/// probability `P(send)` varies.
///
/// Each `P(send)` runs the periodic schedule over the lossy `pdms_network`
/// transport ([`DecentralizedRun`], transport seed 23) for a fixed 2,000 rounds and
/// reports the settled round: the number of rounds after which no posterior ever
/// again moves 1e-4 or more from its final value. A round that loses every message
/// leaves the posteriors still, so stopping at the first quiet round would stop early
/// exactly where loss is heaviest. The deviation series compares the final
/// posteriors with a reliable run of the embedded kernel.
pub fn figure11_fault_tolerance(
    send_probabilities: &[f64],
    prior: f64,
    delta: f64,
) -> ScenarioResult {
    let (catalog, model, _) = intro_model(delta);
    let mut result = ScenarioResult::new("figure-11-fault-tolerance");
    let mut rounds_points = Vec::new();
    let mut deviation_points = Vec::new();
    let reference = run_embedded(&model, &BTreeMap::new(), prior, EmbeddedConfig::default());
    for &p in send_probabilities {
        let config = DecentralizedConfig::lossy(p, 23, FIGURE11_ROUNDS);
        let mut run = DecentralizedRun::new(&catalog, &model, &BTreeMap::new(), prior, config);
        let (posteriors, settled) = run.run_settled(1e-4);
        let deviation = posteriors
            .iter()
            .zip(&reference.posteriors)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        rounds_points.push((p, settled as f64));
        deviation_points.push((p, deviation));
    }
    result.push_series("rounds to convergence", rounds_points);
    result.push_series("max posterior deviation vs reliable run", deviation_points);
    result.note("priors", prior);
    result.note("delta", delta);
    result.note("rounds run per P(send)", FIGURE11_ROUNDS);
    result
}

/// Rounds [`figure11_fault_tolerance`] runs at every `P(send)`.
const FIGURE11_ROUNDS: u64 = 2000;

/// Figure 12: precision of erroneous-mapping detection vs. threshold θ on the
/// ontology-alignment workload (the EON substitute), priors 0.5, Δ = 0.1, one run.
pub fn figure12_precision(thetas: &[f64]) -> ScenarioResult {
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
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
    let mut result = ScenarioResult::new("figure-12-precision");
    let mut precision_points = Vec::new();
    let mut recall_points = Vec::new();
    let mut flagged_points = Vec::new();
    for &theta in thetas {
        let eval = session.evaluate(theta);
        precision_points.push((theta, eval.precision()));
        recall_points.push((theta, eval.recall()));
        flagged_points.push((theta, eval.flagged() as f64));
    }
    result.push_series("precision", precision_points);
    result.push_series("recall", recall_points);
    result.push_series("flagged", flagged_points);
    result.note("total correspondences", suite.total_correspondences);
    result.note("erroneous correspondences", suite.erroneous_correspondences);
    result.note("error rate", format!("{:.3}", suite.error_rate()));
    result.note("rounds", session.rounds());
    result
}

/// Section 4.5: the worked example — posteriors of p2's two outgoing mappings for the
/// Creator attribute, the prior update, and the routing outcome of query q1.
pub fn intro_example() -> ScenarioResult {
    let (catalog, mappings) = intro_network();
    // Record the 0.5 starting belief as an explicit observation so the prior update
    // matches the paper's arithmetic.
    let mut priors = PriorStore::uninformed();
    for key in [
        VariableKey {
            mapping: mappings.m23,
            attribute: Some(CREATOR),
        },
        VariableKey {
            mapping: mappings.m24,
            attribute: Some(CREATOR),
        },
    ] {
        priors.set_initial(key, 0.5);
    }
    let mut session = Engine::builder().delta(0.1).priors(priors).build(catalog);
    session.update_priors();
    let mut result = ScenarioResult::new("intro-example");
    let p23 = session
        .posteriors()
        .probability_ignoring_bottom(mappings.m23, CREATOR);
    let p24 = session
        .posteriors()
        .probability_ignoring_bottom(mappings.m24, CREATOR);
    result.note("posterior m23 Creator (paper: 0.59)", format!("{p23:.3}"));
    result.note("posterior m24 Creator (paper: 0.30)", format!("{p24:.3}"));
    let key23 = VariableKey {
        mapping: mappings.m23,
        attribute: Some(CREATOR),
    };
    let key24 = VariableKey {
        mapping: mappings.m24,
        attribute: Some(CREATOR),
    };
    result.note(
        "updated prior m23 (paper: 0.55)",
        format!("{:.3}", session.priors().prior(&key23)),
    );
    result.note(
        "updated prior m24 (paper: 0.40)",
        format!("{:.3}", session.priors().prior(&key24)),
    );
    // Route the introductory query q1 from p2 with θ = 0.5.
    let query = Query::new()
        .project(CREATOR)
        .select(ITEM, Predicate::Contains("river".into()));
    let outcome = session.route(PeerId(1), &query, &RoutingPolicy::uniform(0.5));
    result.note("peers reached", outcome.reached.len());
    result.note("false-positive peers", outcome.tainted.len());
    result.note(
        "m24 used for forwarding",
        outcome.forwarded_mappings().contains(&mappings.m24),
    );
    result
}

/// Section 6: the factor-graph approach vs. the cycle-voting heuristic on the
/// introductory example — how many correct mappings each wrongly condemns.
pub fn baseline_comparison() -> ScenarioResult {
    let mut result = ScenarioResult::new("baseline-comparison");
    let backends: [(&str, Arc<dyn InferenceBackend>); 2] = [
        ("probabilistic", Arc::new(EmbeddedBackend::default())),
        ("cycle-voting", Arc::new(VotingBackend)),
    ];
    for (label, backend) in backends {
        let (catalog, mappings) = intro_network();
        let session = Engine::builder()
            .delta(0.1)
            .backend_arc(backend)
            .build(catalog);
        let eval = session.evaluate(0.55);
        result.note(format!("{label}: flagged"), eval.flagged());
        result.note(format!("{label}: true positives"), eval.true_positives);
        result.note(format!("{label}: false positives"), eval.false_positives);
        result.note(
            format!("{label}: precision"),
            format!("{:.3}", eval.precision()),
        );
        let p24 = session
            .posteriors()
            .probability_ignoring_bottom(mappings.m24, CREATOR);
        result.note(format!("{label}: m24 Creator score"), format!("{p24:.3}"));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_trajectories_converge_and_separate_the_faulty_mapping() {
        let result = figure7_convergence(0.7, 0.1);
        assert_eq!(result.series.len(), 5, "one series per mapping");
        for (label, points) in &result.series {
            assert_eq!(points.len(), 31, "{label} should have 31 samples");
            let last = points.last().unwrap().1;
            if label.starts_with("m4@") {
                assert!(last < 0.5, "{label} should converge below 0.5, got {last}");
            } else {
                assert!(last > 0.5, "{label} should converge above 0.5, got {last}");
            }
        }
    }

    #[test]
    fn figure9_error_stays_small_and_decreases_with_cycle_length() {
        let result = figure9_relative_error(4, 0.8, 0.1, 10);
        let series = result
            .series_named("max relative error (correct mappings)")
            .unwrap();
        assert_eq!(series.len(), 5);
        for (len, err) in series {
            assert!(*err < 0.06, "cycle length {len}: relative error {err}");
        }
        assert!(series.last().unwrap().1 <= series.first().unwrap().1 + 1e-9);
    }

    #[test]
    fn figure10_posterior_decays_with_cycle_length_and_delta() {
        let result = figure10_cycle_length(12, &[0.1, 0.01]);
        let strong = result.series_named("delta=0.01").unwrap();
        let weak = result.series_named("delta=0.1").unwrap();
        // Monotone decay for both, and the smaller Δ retains more evidence.
        for window in weak.windows(2) {
            assert!(window[1].1 <= window[0].1 + 1e-9);
        }
        for (w, s) in weak.iter().zip(strong) {
            assert!(
                s.1 >= w.1 - 1e-9,
                "delta=0.01 should dominate at length {}",
                w.0
            );
        }
        // Short cycles carry strong evidence, very long ones almost none.
        assert!(weak.first().unwrap().1 > 0.85);
        assert!(weak.last().unwrap().1 < 0.6);
    }

    #[test]
    fn figure11_loss_increases_rounds_but_not_the_fixpoint() {
        let result = figure11_fault_tolerance(&[1.0, 0.5, 0.2], 0.8, 0.1);
        let rounds = result.series_named("rounds to convergence").unwrap();
        // Loss slows convergence: every lossy run needs at least as many rounds as
        // the reliable one. (The ordering *between* two lossy runs is stochastic —
        // a particular loss pattern can happen to help — so it is not asserted.)
        assert!(rounds[0].1 <= rounds[1].1);
        assert!(rounds[0].1 <= rounds[2].1);
        let deviation = result
            .series_named("max posterior deviation vs reliable run")
            .unwrap();
        for (p, d) in deviation {
            assert!(*d < 0.05, "P(send)={p}: deviation {d}");
        }
    }

    #[test]
    fn intro_example_matches_the_worked_numbers() {
        let result = intro_example();
        let get = |label: &str| -> f64 {
            result
                .notes
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .map(|(_, v)| v.parse::<f64>().unwrap())
                .unwrap()
        };
        let p23 = get("posterior m23");
        let p24 = get("posterior m24");
        assert!((0.5..=0.7).contains(&p23), "m23 posterior {p23}");
        assert!((0.15..=0.42).contains(&p24), "m24 posterior {p24}");
        let reached = get("peers reached");
        assert_eq!(reached as usize, 3);
        assert_eq!(get("false-positive peers") as usize, 0);
    }

    #[test]
    fn baseline_comparison_shows_voting_over_penalising() {
        let result = baseline_comparison();
        let get = |label: &str| -> f64 {
            result
                .notes
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| v.parse::<f64>().unwrap())
                .unwrap()
        };
        assert!(get("cycle-voting: false positives") > get("probabilistic: false positives"));
        assert!(get("probabilistic: precision") >= get("cycle-voting: precision"));
    }

    #[test]
    fn hub_heavy_enumeration_is_skewed_and_worker_invariant() {
        let result = hub_heavy_enumeration(40, 2, 1.6, 7);
        let get = |label: &str| -> String {
            result
                .notes
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing note {label}"))
        };
        assert_eq!(get("identical evidence at 1/2/3/4 workers"), "true");
        let max_degree: f64 = get("max degree").parse().unwrap();
        let mean_degree: f64 = get("mean degree").parse().unwrap();
        assert!(
            max_degree > 2.0 * mean_degree,
            "expected hubs: max {max_degree}, mean {mean_degree}"
        );
        let shares = result
            .series_named("evidence per origin (descending)")
            .unwrap();
        assert!(!shares.is_empty());
        // The heaviest origin carries strictly more evidence than the median one —
        // the imbalance that motivates splitting hub origins.
        let median = shares[shares.len() / 2].1;
        assert!(shares[0].1 > median, "top {} median {median}", shares[0].1);
    }

    #[test]
    fn all_scenarios_run() {
        // Smoke-test the enumeration (Figure 12 is the slow one; keep it but with the
        // default parameters it stays in test-friendly territory).
        for scenario in Scenario::all() {
            let result = scenario.run();
            assert!(!result.name.is_empty());
            assert!(!result.series.is_empty() || !result.notes.is_empty());
        }
    }
}
