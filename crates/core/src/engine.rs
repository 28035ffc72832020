//! The batch engine façade: analysis, model construction, inference, prior updates,
//! routing and evaluation in one call.
//!
//! [`Engine`] is the one-shot entry point — it recomputes everything from scratch on
//! every [`Engine::run`]. For evolving networks and query-heavy workloads prefer the
//! incremental [`crate::session::EngineSession`], constructed with
//! [`Engine::builder`]; the batch engine remains for single-shot experiments and as
//! the reference the incremental path is validated against. Both drive inference
//! exclusively through the [`crate::backend::InferenceBackend`] trait.
//!
//! ```
//! use pdms_core::engine::{Engine, EngineConfig};
//! use pdms_schema::{AttributeId, Catalog};
//!
//! // Two peers, one correct and one faulty mapping between them and back.
//! let mut catalog = Catalog::new();
//! let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
//! let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
//! catalog.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
//! catalog.add_mapping(b, a, |m| m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0)));
//!
//! let mut engine = Engine::new(catalog, EngineConfig::default());
//! let report = engine.run();
//! // The cycle a -> b -> a returns attribute y instead of x: negative feedback, both
//! // mappings become suspicious (no other evidence distinguishes them).
//! assert!(report.posteriors.mapping_probability(pdms_schema::MappingId(0)) < 0.5);
//! ```

use crate::backend::{EmbeddedBackend, InferenceBackend, InferenceTask};
use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
use crate::delta::estimate_delta_for_catalog;
use crate::embedded::EmbeddedConfig;
use crate::local_graph::{Granularity, MappingModel};
use crate::metrics::{precision_recall, EvaluationReport};
use crate::posterior::PosteriorTable;
use crate::priors::PriorStore;
use crate::routing::{route_query, RoutingOutcome, RoutingPolicy};
use crate::session::EngineBuilder;
use pdms_schema::{Catalog, PeerId, Query};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Cycle / parallel-path discovery bounds.
    pub analysis: AnalysisConfig,
    /// Variable granularity.
    pub granularity: Granularity,
    /// Compensating-error probability; `None` estimates it from the catalog's schema
    /// sizes (Section 4.5's `1/(k−1)` rule).
    pub delta: Option<f64>,
    /// Embedded message-passing parameters (consumed by the default
    /// [`crate::backend::EmbeddedBackend`]; ignored when `backend` is set).
    pub embedded: EmbeddedConfig,
    /// The inference backend. `None` builds the default [`EmbeddedBackend`] from
    /// `embedded`.
    pub backend: Option<Arc<dyn InferenceBackend>>,
}

impl EngineConfig {
    /// The backend this configuration selects: the explicit trait object if set,
    /// otherwise an [`EmbeddedBackend`] built from `embedded`.
    pub fn resolve_backend(&self) -> Arc<dyn InferenceBackend> {
        self.backend
            .clone()
            .unwrap_or_else(|| Arc::new(EmbeddedBackend::new(self.embedded.clone())))
    }
}

/// What one engine run produces.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The discovered evidence and feedback.
    pub analysis: CycleAnalysis,
    /// The probabilistic model that was built.
    pub model: MappingModel,
    /// Posterior mapping-quality table.
    pub posteriors: PosteriorTable,
    /// Raw posterior per model variable.
    pub variable_posteriors: Vec<f64>,
    /// Iterations/rounds used (0 for the non-iterative backends).
    pub rounds: usize,
    /// Whether the iterative backend converged.
    pub converged: bool,
    /// Δ actually used.
    pub delta: f64,
}

/// The engine.
#[derive(Debug, Clone)]
pub struct Engine {
    catalog: Catalog,
    config: EngineConfig,
    priors: PriorStore,
}

impl Engine {
    /// Creates an engine over a catalog with maximum-entropy priors.
    ///
    /// Deprecated-ish: this remains the batch entry point, but evolving networks and
    /// query-heavy workloads should use [`Engine::builder`] to obtain an incremental
    /// [`crate::session::EngineSession`] instead of re-running the full pipeline.
    pub fn new(catalog: Catalog, config: EngineConfig) -> Self {
        Self {
            catalog,
            config,
            priors: PriorStore::uninformed(),
        }
    }

    /// Starts a builder for an incremental [`crate::session::EngineSession`]:
    ///
    /// ```
    /// use pdms_core::engine::Engine;
    /// use pdms_core::backend::ExactBackend;
    /// use pdms_core::local_graph::Granularity;
    /// use pdms_schema::{AttributeId, Catalog};
    ///
    /// let mut catalog = Catalog::new();
    /// let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
    /// let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
    /// catalog.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
    /// catalog.add_mapping(b, a, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///
    /// let session = Engine::builder()
    ///     .granularity(Granularity::Fine)
    ///     .backend(ExactBackend)
    ///     .delta(0.1)
    ///     .build(catalog);
    /// assert!(session.posteriors().mapping_probability(pdms_schema::MappingId(0)) > 0.5);
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Creates an engine with a caller-provided prior store (e.g. default prior 0.7
    /// when the mappings come from an aligner of known quality).
    pub fn with_priors(catalog: Catalog, config: EngineConfig, priors: PriorStore) -> Self {
        Self {
            catalog,
            config,
            priors,
        }
    }

    /// The catalog the engine operates on.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current prior store.
    pub fn priors(&self) -> &PriorStore {
        &self.priors
    }

    /// Mutable access to the prior store (e.g. to pin expert-validated mappings to 1.0).
    pub fn priors_mut(&mut self) -> &mut PriorStore {
        &mut self.priors
    }

    /// Δ used by the engine: the configured value or the schema-size estimate.
    pub fn delta(&self) -> f64 {
        self.config
            .delta
            .unwrap_or_else(|| estimate_delta_for_catalog(&self.catalog))
    }

    /// Runs cycle / parallel-path discovery only.
    pub fn analyze(&self) -> CycleAnalysis {
        CycleAnalysis::analyze(&self.catalog, &self.config.analysis)
    }

    /// Runs the full pipeline: analysis → model → inference (through the configured
    /// [`InferenceBackend`]) → posterior table.
    pub fn run(&mut self) -> EngineReport {
        let delta = self.delta();
        let analysis = self.analyze();
        let model = MappingModel::build(&self.catalog, &analysis, self.config.granularity, delta);
        let prior_map = self.priors.snapshot();
        let default_prior = self.priors.default_prior();
        let backend = self.config.resolve_backend();
        let outcome = backend.infer(&InferenceTask {
            model: &model,
            analysis: &analysis,
            priors: &prior_map,
            default_prior,
            warm_start: None,
        });
        let posteriors = PosteriorTable::from_model(&model, &outcome.posteriors, default_prior);
        EngineReport {
            analysis,
            model,
            posteriors,
            variable_posteriors: outcome.posteriors,
            rounds: outcome.rounds,
            converged: outcome.converged,
            delta,
        }
    }

    /// Runs the pipeline and folds the resulting posteriors back into the priors
    /// (Section 4.4), so the next run starts from the accumulated evidence.
    pub fn run_and_update_priors(&mut self) -> EngineReport {
        let report = self.run();
        let as_map = report.posteriors.as_variable_map(&report.model);
        self.priors.update_all(&as_map);
        report
    }

    /// Routes a query from `origin` using the posteriors of `report`.
    pub fn route(
        &self,
        report: &EngineReport,
        origin: PeerId,
        query: &Query,
        policy: &RoutingPolicy,
    ) -> RoutingOutcome {
        route_query(&self.catalog, &report.posteriors, origin, query, policy)
    }

    /// Evaluates erroneous-mapping detection at threshold θ against ground truth.
    pub fn evaluate(&self, report: &EngineReport, theta: f64) -> EvaluationReport {
        precision_recall(&self.catalog, &report.posteriors, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExactBackend, VotingBackend};
    use pdms_schema::{AttributeId, MappingId, Predicate};

    fn intro_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    // Eleven attributes, as in the worked example, so Δ ≈ 0.1.
                    s.attributes([
                        "Creator",
                        "Item",
                        "CreatedOn",
                        "Title",
                        "Subject",
                        "Medium",
                        "Height",
                        "Width",
                        "Location",
                        "Owner",
                        "Licence",
                    ]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            let mut m = m;
            for a in 0..11 {
                m = m.correct(AttributeId(a), AttributeId(a));
            }
            m
        };
        cat.add_mapping(peers[0], peers[1], correct); // m12
        cat.add_mapping(peers[1], peers[2], correct); // m23
        cat.add_mapping(peers[2], peers[3], correct); // m34
        cat.add_mapping(peers[3], peers[0], correct); // m41
        cat.add_mapping(peers[1], peers[3], |m| {
            let mut m = m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0));
            for a in 1..11 {
                m = m.correct(AttributeId(a), AttributeId(a));
            }
            m
        }); // m24
        cat
    }

    #[test]
    fn delta_is_estimated_from_schema_sizes() {
        let engine = Engine::new(intro_catalog(), EngineConfig::default());
        assert!((engine.delta() - 0.1).abs() < 1e-12);
        let engine = Engine::new(
            intro_catalog(),
            EngineConfig {
                delta: Some(0.01),
                ..Default::default()
            },
        );
        assert_eq!(engine.delta(), 0.01);
    }

    #[test]
    fn full_pipeline_detects_the_faulty_mapping_and_routes_around_it() {
        let mut engine = Engine::new(intro_catalog(), EngineConfig::default());
        let report = engine.run();
        assert!(report.converged);
        assert!(report.rounds > 0);
        // m24 flagged for Creator, others fine.
        let p_m24 = report
            .posteriors
            .probability(engine.catalog(), MappingId(4), AttributeId(0));
        assert!(p_m24 < 0.5, "m24 Creator posterior {p_m24}");
        for m in 0..4 {
            let p = report
                .posteriors
                .probability(engine.catalog(), MappingId(m), AttributeId(0));
            assert!(p > 0.5, "mapping {m} posterior {p}");
        }
        // Routing the introductory query from p2 avoids m24 and reaches every peer.
        let query = Query::new()
            .project(AttributeId(0))
            .select(AttributeId(1), Predicate::Contains("river".into()));
        let outcome = engine.route(&report, PeerId(1), &query, &RoutingPolicy::uniform(0.5));
        assert_eq!(outcome.reached.len(), 3);
        assert!(outcome.tainted.is_empty());
        assert!(!outcome.forwarded_mappings().contains(&MappingId(4)));
        // Evaluation: precision 1.0 at θ = 0.5 (only the truly faulty pair is flagged).
        let eval = engine.evaluate(&report, 0.5);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.false_positives, 0);
        assert_eq!(eval.precision(), 1.0);
    }

    /// A three-attribute variant of the intro network, small enough for the exact
    /// backend (the fine-granularity model stays under the 24-variable enumeration
    /// limit).
    fn intro_catalog_small() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    s.attributes(["Creator", "Item", "CreatedOn"]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            m.correct(AttributeId(0), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        };
        cat.add_mapping(peers[0], peers[1], correct);
        cat.add_mapping(peers[1], peers[2], correct);
        cat.add_mapping(peers[2], peers[3], correct);
        cat.add_mapping(peers[3], peers[0], correct);
        cat.add_mapping(peers[1], peers[3], |m| {
            m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        });
        cat
    }

    #[test]
    fn exact_and_embedded_backends_agree_on_classification() {
        // Δ is pinned to the paper's 0.1: the three-attribute schemas would otherwise
        // estimate Δ = 0.5, which makes all the evidence too weak to classify.
        let mut embedded = Engine::new(
            intro_catalog_small(),
            EngineConfig {
                delta: Some(0.1),
                ..Default::default()
            },
        );
        let mut exact = Engine::new(
            intro_catalog_small(),
            EngineConfig {
                backend: Some(Arc::new(ExactBackend)),
                delta: Some(0.1),
                ..Default::default()
            },
        );
        let re = embedded.run();
        let rx = exact.run();
        for m in 0..5 {
            let pe = re.posteriors.mapping_probability(MappingId(m));
            let px = rx.posteriors.mapping_probability(MappingId(m));
            assert_eq!(pe < 0.5, px < 0.5, "mapping {m}: embedded {pe} exact {px}");
        }
    }

    #[test]
    fn voting_backend_over_penalises() {
        let mut voting = Engine::new(
            intro_catalog(),
            EngineConfig {
                backend: Some(Arc::new(VotingBackend)),
                ..Default::default()
            },
        );
        let report = voting.run();
        // The voting heuristic cannot exonerate correct mappings that share a negative
        // cycle with the faulty one: their score is dragged down to the break-even 0.5,
        // so a slightly cautious threshold (0.55) wrongly flags them too — exactly the
        // weakness Section 6 describes — while the probabilistic engine keeps them
        // above 0.5 (see `full_pipeline_detects_the_faulty_mapping_and_routes_around_it`).
        let eval = voting.evaluate(&report, 0.55);
        assert!(eval.flagged() > 1, "flagged {}", eval.flagged());
        assert!(eval.precision() < 1.0);
    }

    #[test]
    fn prior_update_accumulates_between_runs() {
        let mut engine = Engine::new(intro_catalog(), EngineConfig::default());
        let first = engine.run_and_update_priors();
        let m24_key = crate::local_graph::VariableKey {
            mapping: MappingId(4),
            attribute: Some(AttributeId(0)),
        };
        let prior_after = engine.priors().prior(&m24_key);
        assert!(prior_after < 0.5, "prior after update {prior_after}");
        // A second run starting from the updated priors pushes the posterior further.
        let second = engine.run();
        let p1 = first
            .posteriors
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        let p2 = second
            .posteriors
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        assert!(
            p2 <= p1 + 1e-9,
            "second run {p2} should not exceed first run {p1}"
        );
    }

    #[test]
    fn analyze_exposes_feedback_counts() {
        let engine = Engine::new(intro_catalog(), EngineConfig::default());
        let analysis = engine.analyze();
        let (pos, neg, _neutral) = analysis.feedback_counts();
        assert!(pos > 0);
        assert!(neg > 0);
    }
}
