//! Incremental engine sessions: builder-constructed, delta-driven, batch-routing.
//!
//! An [`EngineSession`] is the engine's one pipeline — cycle enumeration, model
//! construction, inference, posterior publication — kept alive across network
//! changes, so an epoch that edits a handful of mappings out of thousands does not
//! pay for a full recomputation:
//!
//! * **built once** from a catalog via the builder
//!   (`Engine::builder().granularity(..).backend(..).build(catalog)`), running the
//!   full pipeline a single time;
//! * **updated by deltas**: [`EngineSession::apply`] consumes
//!   [`NetworkEvent`]s (peer/mapping additions, removals, corruptions, repairs — the
//!   Section 4.4 dynamics) and invalidates only the cycles and parallel paths that
//!   touch the changed mappings. Additions search just the paths through the new
//!   edge, removals drop just the paths through the dead edge, correspondence edits
//!   re-observe just the paths through the edited mapping — everything else is
//!   reused verbatim;
//! * **warm-started**: iterative backends restart message passing from the previous
//!   posteriors ([`crate::embedded::EmbeddedMessagePassing::warm_start`]), so
//!   inference after a local change takes a fraction of the cold-start rounds;
//! * **batch-routing**: [`EngineSession::route_all`] answers a whole query workload
//!   against one cached posterior snapshot instead of rebuilding the posterior table
//!   per query.
//!
//! The session always reaches the same posteriors as a fresh build over the mutated
//! catalog (exactly for one-shot backends, to convergence tolerance for iterative
//! ones) — `tests/session_incremental.rs` asserts this round trip.

use crate::backend::{EmbeddedBackend, InferenceBackend, InferenceTask};
use crate::cycle_analysis::{build_topology, AnalysisConfig, AnalysisDelta, CycleAnalysis};
use crate::delta::estimate_delta_for_catalog;
use crate::dynamics::{apply_event_traced, EventEffect, NetworkEvent};
use crate::embedded::EmbeddedConfig;
use crate::local_graph::{Granularity, MappingModel, VariableKey};
use crate::metrics::{precision_recall, EvaluationReport};
use crate::posterior::PosteriorTable;
use crate::priors::PriorStore;
use crate::routing::{route_query, RoutingOutcome, RoutingPolicy};
use pdms_graph::{DiGraph, EdgeId, NodeId};
use pdms_schema::{Catalog, PeerId, Query};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builder for [`EngineSession`]s (obtained from [`crate::engine::Engine::builder`]).
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    pub(crate) analysis: AnalysisConfig,
    granularity: Granularity,
    delta: Option<f64>,
    embedded: EmbeddedConfig,
    backend: Option<Arc<dyn InferenceBackend>>,
    priors: Option<PriorStore>,
}

impl EngineBuilder {
    /// A builder with the paper's defaults (fine granularity, embedded backend,
    /// estimated Δ, maximum-entropy priors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cycle / parallel-path discovery bounds.
    pub fn analysis(mut self, analysis: AnalysisConfig) -> Self {
        self.analysis = analysis;
        self
    }

    /// Sets the worker count for full evidence enumerations (`0` = every
    /// available core, `1` = serial). Shorthand for setting
    /// [`AnalysisConfig::parallelism`]; results are identical at every setting.
    ///
    /// ```
    /// use pdms_core::Engine;
    ///
    /// let catalog = {
    ///     let mut c = pdms_schema::Catalog::new();
    ///     let a = c.add_peer_with_schema("a", |s| { s.attributes(["x"]); });
    ///     let b = c.add_peer_with_schema("b", |s| { s.attributes(["x"]); });
    ///     use pdms_schema::AttributeId;
    ///     c.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///     c.add_mapping(b, a, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///     c
    /// };
    /// // The worker count never changes the evidence — only how it is scheduled.
    /// let threaded = Engine::builder().parallelism(4).build(catalog.clone());
    /// let serial = Engine::builder().parallelism(1).build(catalog);
    /// assert_eq!(threaded.analysis().evidences, serial.analysis().evidences);
    /// ```
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.analysis.parallelism = parallelism;
        self
    }

    /// Sets the worker count a [`crate::sharding::ShardedSession`] dispatches its
    /// component shards over (`0` = every available core, `1` = serial).
    /// Shorthand for [`AnalysisConfig::shard_parallelism`]; scheduling only,
    /// posteriors are identical at every setting. Ignored by
    /// [`EngineBuilder::build`].
    pub fn shard_parallelism(mut self, workers: usize) -> Self {
        self.analysis.shard_parallelism = workers;
        self
    }

    /// Sets the ingestion batch size of a [`crate::sharding::ShardedSession`]
    /// (`0` = one batch per submitted slice). Shorthand for
    /// [`AnalysisConfig::batch_size`]. Ignored by [`EngineBuilder::build`].
    pub fn batch_size(mut self, events: usize) -> Self {
        self.analysis.batch_size = events;
        self
    }

    /// Pins the warm shard-splice path of a [`crate::sharding::ShardedSession`] on
    /// or off (unset = on). Shorthand for [`AnalysisConfig::splice`]; results
    /// are identical either way — disabling it falls back to cold shard rebuilds
    /// on component merges and splits. Ignored by [`EngineBuilder::build`].
    pub fn splice(mut self, enabled: bool) -> Self {
        self.analysis.splice = Some(enabled);
        self
    }

    /// Sets the variable granularity (Section 4.1).
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Pins the compensating-error probability Δ (Section 4.5); unset, Δ is estimated
    /// from the catalog's schema sizes.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Sets the inference backend.
    pub fn backend(mut self, backend: impl InferenceBackend + 'static) -> Self {
        self.backend = Some(Arc::new(backend));
        self
    }

    /// Sets an already-shared inference backend.
    pub fn backend_arc(mut self, backend: Arc<dyn InferenceBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the embedded message-passing parameters consumed by the default
    /// [`EmbeddedBackend`] (ignored when an explicit backend is set, in either
    /// call order).
    pub fn embedded(mut self, embedded: EmbeddedConfig) -> Self {
        self.embedded = embedded;
        self
    }

    /// Starts from an explicit prior store (e.g. default prior 0.7 for mappings from
    /// an aligner of known quality, or pinned expert-validated mappings).
    pub fn priors(mut self, priors: PriorStore) -> Self {
        self.priors = Some(priors);
        self
    }

    /// Builds the session: runs the full pipeline once over `catalog` and caches
    /// analysis, model and posteriors for incremental maintenance.
    pub fn build(self, catalog: Catalog) -> EngineSession {
        let backend = self.resolve_backend();
        let mut session = EngineSession {
            catalog,
            analysis_config: self.analysis,
            granularity: self.granularity,
            delta_override: self.delta,
            backend,
            priors: self.priors.unwrap_or_default(),
            topology: DiGraph::default(),
            analysis: CycleAnalysis::default(),
            model: MappingModel::default(),
            variable_posteriors: BTreeMap::new(),
            posteriors: PosteriorTable::new(0.5),
            rounds: 0,
            converged: true,
            stats: SessionStats::default(),
        };
        session.rebuild_from_scratch();
        session
    }

    /// The explicit backend if one was set, otherwise the default [`EmbeddedBackend`]
    /// built from the embedded configuration.
    fn resolve_backend(&self) -> Arc<dyn InferenceBackend> {
        self.backend
            .clone()
            .unwrap_or_else(|| Arc::new(EmbeddedBackend::new(self.embedded.clone())))
    }

    /// Builds a component-sharded session instead: the catalog is partitioned into
    /// weakly-connected-component shards, each running its own incremental
    /// [`EngineSession`], dispatched in parallel over
    /// [`AnalysisConfig::shard_parallelism`] workers. Exact by construction —
    /// evidence paths never cross component boundaries. See
    /// [`crate::sharding::ShardedSession`].
    pub fn build_sharded(self, catalog: Catalog) -> crate::sharding::ShardedSession {
        crate::sharding::ShardedSession::build(self, catalog)
    }

    /// The accumulated analysis configuration (consumed by
    /// [`crate::sharding::ShardedSession::build`]).
    pub(crate) fn into_parts(self) -> ShardSeedParts {
        let backend = self.resolve_backend();
        ShardSeedParts {
            analysis: self.analysis,
            granularity: self.granularity,
            delta: self.delta,
            backend,
            priors: self.priors.unwrap_or_default(),
        }
    }
}

/// The builder state a [`crate::sharding::ShardedSession`] needs to construct and
/// re-construct per-shard sessions.
pub(crate) struct ShardSeedParts {
    pub(crate) analysis: AnalysisConfig,
    pub(crate) granularity: Granularity,
    pub(crate) delta: Option<f64>,
    pub(crate) backend: Arc<dyn InferenceBackend>,
    pub(crate) priors: PriorStore,
}

/// Everything a shard splice (see `crate::sharding`) assembles *before* inference:
/// the merged sub-catalog, its live topology mirror, the spliced evidence analysis,
/// and the donors' converged posteriors keyed by the new shard-local variables.
/// [`EngineSession::from_spliced_parts`] turns this into a running session without
/// ever paying the full enumeration pipeline.
pub(crate) struct SplicedParts {
    pub(crate) catalog: Catalog,
    pub(crate) topology: DiGraph,
    pub(crate) analysis: CycleAnalysis,
    /// Warm-start posteriors for the variables untouched by the splice (donor
    /// variables not on a bridging or edited mapping). Variables absent here
    /// restart from the unit message, exactly like [`EngineSession::apply`] treats
    /// added or edited mappings.
    pub(crate) warm: BTreeMap<VariableKey, f64>,
}

/// Scans a batch for additions that a later event of the *same* batch withdraws
/// again — either an explicit [`NetworkEvent::RemoveMapping`] naming the id the
/// addition will receive (ids are allocated sequentially from
/// [`Catalog::mapping_slot_count`], so batch authors can know them), or a
/// [`NetworkEvent::RemovePeer`] covering one of its endpoints. Such pairs are
/// *coalesced*: the slot is allocated and tombstoned for id stability, but evidence
/// discovery is skipped on both sides.
pub(crate) fn doomed_additions(
    catalog: &Catalog,
    events: &[NetworkEvent],
) -> std::collections::BTreeSet<pdms_schema::MappingId> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut next = catalog.mapping_slot_count();
    // Peer count as of each event: an addition naming a peer not yet allocated is
    // ignored by `apply_event_traced` and allocates no mapping id.
    let mut peers = catalog.peer_count();
    let mut pending: BTreeMap<pdms_schema::MappingId, (PeerId, PeerId)> = BTreeMap::new();
    let mut doomed = BTreeSet::new();
    for event in events {
        match event {
            NetworkEvent::AddPeer { .. } => peers += 1,
            NetworkEvent::AddMapping {
                source,
                target,
                correspondences,
            } if !correspondences.is_empty() && source.0 < peers && target.0 < peers => {
                pending.insert(pdms_schema::MappingId(next), (*source, *target));
                next += 1;
            }
            NetworkEvent::RemoveMapping { mapping } if pending.remove(mapping).is_some() => {
                doomed.insert(*mapping);
            }
            NetworkEvent::RemovePeer { peer } => {
                let dead: Vec<pdms_schema::MappingId> = pending
                    .iter()
                    .filter(|(_, (source, target))| source == peer || target == peer)
                    .map(|(mapping, _)| *mapping)
                    .collect();
                for mapping in dead {
                    pending.remove(&mapping);
                    doomed.insert(mapping);
                }
            }
            _ => {}
        }
    }
    doomed
}

/// What one [`EngineSession::apply`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApplyReport {
    /// Events that actually changed the catalog.
    pub events_applied: usize,
    /// Events that were no-ops (repair without ground truth, drop of a missing
    /// correspondence, removal of a removed mapping, empty mapping) or named an
    /// unknown peer or mapping id.
    pub events_ignored: usize,
    /// Mappings that were added *and* removed within this same batch. Their
    /// catalog/topology slots are still allocated (and tombstoned) so identifiers
    /// line up with per-event application, but evidence discovery and removal were
    /// skipped entirely — the batch-coalescing rule (see `docs/SHARDING.md`).
    pub mappings_coalesced: usize,
    /// What the incremental analysis maintenance did.
    pub analysis: AnalysisDelta,
    /// Rounds the (warm-started) inference used after the update — 0 when the batch
    /// touched no evidence and inference was skipped entirely.
    pub rounds: usize,
    /// Whether inference converged after the update.
    pub converged: bool,
}

/// Cumulative maintenance statistics of a session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Full from-scratch pipeline runs (1 after `build`).
    pub full_builds: usize,
    /// Incremental `apply` calls.
    pub incremental_applies: usize,
    /// Inference rounds summed over the session's lifetime.
    pub total_rounds: usize,
    /// Evidence paths discovered incrementally.
    pub evidences_added: usize,
    /// Evidence paths dropped incrementally.
    pub evidences_removed: usize,
    /// Evidence paths re-observed in place.
    pub evidences_reobserved: usize,
}

/// A stateful, incrementally maintained inference session over an evolving catalog.
#[derive(Debug, Clone)]
pub struct EngineSession {
    catalog: Catalog,
    analysis_config: AnalysisConfig,
    granularity: Granularity,
    delta_override: Option<f64>,
    backend: Arc<dyn InferenceBackend>,
    priors: PriorStore,
    /// Live mirror of the catalog's mapping network: one node per peer, one edge per
    /// mapping slot (edge ids == mapping ids, tombstones aligned). Maintained
    /// event-by-event so incremental evidence discovery never pays a
    /// [`build_topology`] rebuild.
    topology: DiGraph,
    analysis: CycleAnalysis,
    model: MappingModel,
    variable_posteriors: BTreeMap<VariableKey, f64>,
    posteriors: PosteriorTable,
    rounds: usize,
    converged: bool,
    stats: SessionStats,
}

impl EngineSession {
    /// Builds a session from pre-spliced parts: the analysis is taken as given (the
    /// splice already appended the evidence through the bridging mappings), so the
    /// only work left is one warm-started inference pass. The splice counterpart of
    /// [`EngineBuilder::build`]; `delta` is always pinned (shard sub-catalogs must
    /// not re-estimate it from their own schemas).
    pub(crate) fn from_spliced_parts(
        analysis_config: AnalysisConfig,
        granularity: Granularity,
        delta: f64,
        backend: Arc<dyn InferenceBackend>,
        priors: PriorStore,
        parts: SplicedParts,
    ) -> EngineSession {
        let mut session = EngineSession {
            catalog: parts.catalog,
            analysis_config,
            granularity,
            delta_override: Some(delta),
            backend,
            priors,
            topology: parts.topology,
            analysis: parts.analysis,
            model: MappingModel::default(),
            variable_posteriors: BTreeMap::new(),
            posteriors: PosteriorTable::new(0.5),
            rounds: 0,
            converged: true,
            stats: SessionStats::default(),
        };
        let warm = parts.warm;
        session.reinfer((!warm.is_empty()).then_some(&warm));
        session
    }

    /// The posterior of every model variable as of the most recent inference run —
    /// the warm state a shard splice carries into the merged shard.
    pub(crate) fn variable_posteriors(&self) -> &BTreeMap<VariableKey, f64> {
        &self.variable_posteriors
    }

    /// The catalog in its current (post-deltas) state.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cached evidence analysis.
    pub fn analysis(&self) -> &CycleAnalysis {
        &self.analysis
    }

    /// The live topology mirror of the catalog (edge ids == mapping ids; tombstoned
    /// mappings are tombstoned edges). Maintained incrementally across
    /// [`EngineSession::apply`] calls.
    pub fn topology(&self) -> &DiGraph {
        &self.topology
    }

    /// The cached probabilistic model.
    pub fn model(&self) -> &MappingModel {
        &self.model
    }

    /// The cached posterior snapshot all routing and evaluation runs against.
    pub fn posteriors(&self) -> &PosteriorTable {
        &self.posteriors
    }

    /// The accumulated prior store.
    pub fn priors(&self) -> &PriorStore {
        &self.priors
    }

    /// Mutable prior access (e.g. to pin expert-validated mappings).
    pub fn priors_mut(&mut self) -> &mut PriorStore {
        &mut self.priors
    }

    /// Name of the inference backend in use.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Rounds the most recent inference run used.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the most recent inference run converged.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Cumulative maintenance statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Δ in effect: the pinned value or the schema-size estimate over the current
    /// catalog.
    pub fn delta(&self) -> f64 {
        self.delta_override
            .unwrap_or_else(|| estimate_delta_for_catalog(&self.catalog))
    }

    /// Applies a batch of network events, invalidating only the evidence touching
    /// the changed mappings, then re-runs inference warm-started from the previous
    /// posteriors.
    ///
    /// Add/remove pairs that cancel within the batch are *coalesced*: the mapping's
    /// id slot (and its tombstoned topology edge) is still allocated, so every
    /// identifier matches per-event application exactly, but no evidence is ever
    /// searched for or dropped through it. The final analysis, posterior and id
    /// state is identical to applying the events one at a time.
    pub fn apply(&mut self, events: &[NetworkEvent]) -> ApplyReport {
        // `analysis.evidences_reused` is recounted exactly at the end of the batch;
        // everything else accumulates through `AnalysisDelta::merge`.
        let mut report = ApplyReport::default();
        let doomed = doomed_additions(&self.catalog, events);
        // Events are processed strictly in order: each incremental analysis update
        // sees the catalog exactly as of its own event, so a batch adding two
        // mappings discovers a cycle using both exactly once (from the second edge).
        // Correspondence-level edits only mark their mapping: re-observation is
        // deferred and deduplicated, so a batch corrupting five attributes of one
        // mapping re-observes its evidence once, not five times.
        let mut edited: std::collections::BTreeSet<pdms_schema::MappingId> =
            std::collections::BTreeSet::new();
        let mut added: std::collections::BTreeSet<pdms_schema::MappingId> =
            std::collections::BTreeSet::new();
        for event in events {
            // `retired` is non-empty only for RemovePeer: the mappings its single
            // PeerRetired effect withdrew.
            match apply_event_traced(&mut self.catalog, event) {
                None => report.events_ignored += 1,
                Some((effect, retired)) => {
                    report.events_applied += 1;
                    match effect {
                        EventEffect::PeerAdded(_) => {
                            // Keep the topology mirror's node set aligned with the
                            // catalog's peer ids.
                            let node = self.topology.add_node();
                            debug_assert_eq!(node.0 + 1, self.catalog.peer_count());
                        }
                        EventEffect::MappingAdded(mapping) => {
                            let (source, target) = self.catalog.mapping_endpoints(mapping);
                            let edge = self.topology.add_edge(NodeId(source.0), NodeId(target.0));
                            debug_assert_eq!(edge.0, mapping.0, "mirror edge ids = mapping ids");
                            if doomed.contains(&mapping) {
                                // The same batch removes this mapping again: tombstone
                                // the mirror edge now so later in-batch searches never
                                // route evidence through it, and skip the discovery
                                // pass outright.
                                self.topology.remove_edge(edge);
                            } else {
                                let delta = self.analysis.add_mapping_incremental_in(
                                    &self.catalog,
                                    &self.topology,
                                    mapping,
                                    &self.analysis_config,
                                );
                                report.analysis.merge(delta);
                                added.insert(mapping);
                            }
                        }
                        EventEffect::MappingRemoved(mapping) => {
                            self.remove_one_mapping(
                                mapping,
                                &doomed,
                                &mut report,
                                &mut edited,
                                &mut added,
                            );
                        }
                        EventEffect::PeerRetired(_) => {
                            for mapping in retired {
                                self.remove_one_mapping(
                                    mapping,
                                    &doomed,
                                    &mut report,
                                    &mut edited,
                                    &mut added,
                                );
                            }
                        }
                        EventEffect::MappingChanged(mapping) => {
                            edited.insert(mapping);
                        }
                    }
                }
            }
        }
        if !edited.is_empty() {
            let edited_list: Vec<pdms_schema::MappingId> = edited.iter().copied().collect();
            let delta = self
                .analysis
                .reobserve_mappings(&self.catalog, &edited_list);
            report.analysis.merge(delta);
        }
        // Exact reuse count: the evidence paths still present that go through no
        // added or edited mapping were left completely untouched by this batch.
        // (The per-delta min-merge undercounts or overcounts when a batch mixes
        // additions with edits, because each delta measures against a different
        // evidence total.)
        report.analysis.evidences_reused = self
            .analysis
            .evidences
            .iter()
            .filter(|e| {
                !edited.iter().any(|m| e.contains(*m)) && !added.iter().any(|m| e.contains(*m))
            })
            .count();
        let analysis_changed = report.analysis.evidences_added > 0
            || report.analysis.evidences_removed > 0
            || report.analysis.evidences_reobserved > 0;
        // Events that applied but touched no evidence (an isolated AddPeer, a new
        // mapping on a peer with no return paths yet) leave the model — and thus the
        // posteriors — bit-identical, so inference is skipped entirely.
        if analysis_changed {
            // Warm-start only the variables of untouched mappings: their messages sit
            // at (or near) the fixpoint. Variables on changed or added mappings
            // restart from the unit message — seeding them with stale posteriors
            // would anchor the iteration at the pre-change fixpoint and slow
            // convergence down.
            let warm: BTreeMap<VariableKey, f64> = self
                .variable_posteriors
                .iter()
                .filter(|(key, _)| !edited.contains(&key.mapping) && !added.contains(&key.mapping))
                .map(|(key, p)| (*key, *p))
                .collect();
            self.reinfer(Some(&warm));
            report.rounds = self.rounds;
        }
        // When inference was skipped, rounds stays 0: no inference ran for this
        // update. `converged` always describes the posteriors currently served.
        report.converged = self.converged;
        self.stats.incremental_applies += 1;
        self.stats.evidences_added += report.analysis.evidences_added;
        self.stats.evidences_removed += report.analysis.evidences_removed;
        self.stats.evidences_reobserved += report.analysis.evidences_reobserved;
        report
    }

    /// Processes one mapping removal: drops the mirror edge and the evidence through
    /// the mapping — unless the mapping was added by this very batch (coalesced), in
    /// which case the edge is already tombstoned and no evidence ever existed.
    fn remove_one_mapping(
        &mut self,
        mapping: pdms_schema::MappingId,
        doomed: &std::collections::BTreeSet<pdms_schema::MappingId>,
        report: &mut ApplyReport,
        edited: &mut std::collections::BTreeSet<pdms_schema::MappingId>,
        added: &mut std::collections::BTreeSet<pdms_schema::MappingId>,
    ) {
        if doomed.contains(&mapping) {
            report.mappings_coalesced += 1;
        } else {
            self.topology.remove_edge(EdgeId(mapping.0));
            let delta = self.analysis.remove_mapping_incremental(mapping);
            report.analysis.merge(delta);
        }
        edited.remove(&mapping);
        added.remove(&mapping);
    }

    /// Folds the current posteriors back into the priors (the Section 4.4 update), so
    /// subsequent inference starts from the accumulated evidence.
    pub fn update_priors(&mut self) {
        let as_map = self.posteriors.as_variable_map(&self.model);
        self.priors.update_all(&as_map);
    }

    /// Routes one query from `origin` against the cached posterior snapshot.
    pub fn route(&self, origin: PeerId, query: &Query, policy: &RoutingPolicy) -> RoutingOutcome {
        route_query(&self.catalog, &self.posteriors, origin, query, policy)
    }

    /// Routes a whole workload of `(origin, query)` pairs against one cached
    /// posterior snapshot — the batch entry point that avoids any per-query posterior
    /// rebuild.
    pub fn route_all(
        &self,
        requests: &[(PeerId, Query)],
        policy: &RoutingPolicy,
    ) -> Vec<RoutingOutcome> {
        requests
            .iter()
            .map(|(origin, query)| {
                route_query(&self.catalog, &self.posteriors, *origin, query, policy)
            })
            .collect()
    }

    /// Evaluates erroneous-mapping detection at threshold θ against ground truth,
    /// using the cached posteriors.
    pub fn evaluate(&self, theta: f64) -> EvaluationReport {
        precision_recall(&self.catalog, &self.posteriors, theta)
    }

    /// Discards every cache and recomputes the full pipeline (the non-incremental
    /// path; also useful to bound warm-start drift in very long sessions).
    pub fn rebuild_from_scratch(&mut self) {
        self.topology = build_topology(&self.catalog);
        self.analysis = CycleAnalysis::analyze(&self.catalog, &self.analysis_config);
        self.reinfer(None);
        self.stats.full_builds += 1;
    }

    /// Rebuilds the model from the cached analysis and re-runs inference, optionally
    /// warm-starting iterative backends from the given previous posteriors.
    fn reinfer(&mut self, warm_start: Option<&BTreeMap<VariableKey, f64>>) {
        let delta = self.delta();
        self.model = MappingModel::build(&self.catalog, &self.analysis, self.granularity, delta);
        let prior_map = self.priors.snapshot();
        let default_prior = self.priors.default_prior();
        let warm_start = warm_start.filter(|map| !map.is_empty());
        let outcome = self.backend.infer(&InferenceTask {
            model: &self.model,
            analysis: &self.analysis,
            priors: &prior_map,
            default_prior,
            warm_start,
        });
        self.rounds = outcome.rounds;
        self.converged = outcome.converged;
        self.stats.total_rounds += outcome.rounds;
        self.variable_posteriors = self
            .model
            .variables
            .iter()
            .zip(&outcome.posteriors)
            .map(|(key, p)| (*key, *p))
            .collect();
        self.posteriors =
            PosteriorTable::from_model(&self.model, &outcome.posteriors, default_prior);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactBackend;
    use crate::engine::Engine;
    use pdms_schema::{AttributeId, MappingId, Predicate};

    /// Four peers, ring plus chord, three attributes (small enough for exact).
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

    fn exact_session() -> EngineSession {
        Engine::builder()
            .backend(ExactBackend)
            .delta(0.1)
            .build(intro_catalog_small())
    }

    #[test]
    fn builder_runs_the_full_pipeline_once() {
        let session = exact_session();
        assert_eq!(session.stats().full_builds, 1);
        assert_eq!(session.backend_name(), "exact");
        assert!(session.converged());
        assert!(session.posteriors().mapping_probability(MappingId(4)) < 0.5);
        assert!(session.posteriors().mapping_probability(MappingId(0)) > 0.5);
        assert_eq!(session.delta(), 0.1);
        // Unpinned, Δ is estimated from the schema sizes: 1/(3 − 1) for three attributes.
        let estimated = Engine::builder()
            .backend(ExactBackend)
            .build(intro_catalog_small());
        assert!((estimated.delta() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn apply_reports_reuse_and_invalidation() {
        let mut session = exact_session();
        let evidences_before = session.analysis().evidences.len();
        // Corrupting the ring mapping m23 only re-observes the paths through it.
        let report = session.apply(&[NetworkEvent::Corrupt {
            mapping: MappingId(1),
            attribute: AttributeId(1),
            wrong_target: AttributeId(0),
        }]);
        assert_eq!(report.events_applied, 1);
        assert_eq!(report.analysis.evidences_removed, 0);
        assert_eq!(report.analysis.evidences_added, 0);
        assert!(report.analysis.evidences_reobserved > 0);
        assert!(report.analysis.evidences_reused < evidences_before);
        assert_eq!(session.analysis().evidences.len(), evidences_before);
        // The corruption is visible in the posterior snapshot.
        assert!(
            session
                .posteriors()
                .probability_ignoring_bottom(MappingId(1), AttributeId(1))
                < 0.5
        );
    }

    #[test]
    fn remove_mapping_drops_only_its_evidence() {
        let mut session = exact_session();
        let through_chord = session.analysis().evidences_through(MappingId(4)).len();
        assert!(through_chord > 0);
        let before = session.analysis().evidences.len();
        let report = session.apply(&[NetworkEvent::RemoveMapping {
            mapping: MappingId(4),
        }]);
        assert_eq!(report.analysis.evidences_removed, through_chord);
        assert_eq!(session.analysis().evidences.len(), before - through_chord);
        assert!(session
            .analysis()
            .evidences_through(MappingId(4))
            .is_empty());
        // Evidence ids stay dense and aligned with observations.
        for (i, evidence) in session.analysis().evidences.iter().enumerate() {
            assert_eq!(evidence.id, i);
        }
        for observation in &session.analysis().observations {
            assert!(observation.evidence < session.analysis().evidences.len());
        }
        // Removing it again is a no-op event.
        let report = session.apply(&[NetworkEvent::RemoveMapping {
            mapping: MappingId(4),
        }]);
        assert_eq!(report.events_applied, 0);
        assert_eq!(report.events_ignored, 1);
    }

    #[test]
    fn add_peer_then_mapping_grows_the_evidence() {
        let mut session = exact_session();
        let before = session.analysis().evidences.len();
        let report = session.apply(&[NetworkEvent::AddPeer {
            name: "p5".into(),
            attributes: vec!["Creator".into(), "Item".into(), "CreatedOn".into()],
        }]);
        assert_eq!(report.events_applied, 1);
        assert_eq!(report.analysis.evidences_added, 0);
        assert_eq!(session.catalog().peer_count(), 5);
        // Close a new cycle p4 -> p5 -> p1.
        let correspondences: Vec<_> = (0..3)
            .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
            .collect();
        let report = session.apply(&[
            NetworkEvent::AddMapping {
                source: PeerId(3),
                target: PeerId(4),
                correspondences: correspondences.clone(),
            },
            NetworkEvent::AddMapping {
                source: PeerId(4),
                target: PeerId(0),
                correspondences,
            },
        ]);
        assert_eq!(report.events_applied, 2);
        assert!(report.analysis.evidences_added > 0);
        assert!(session.analysis().evidences.len() > before);
    }

    #[test]
    fn route_all_reuses_one_snapshot() {
        let session = exact_session();
        let query = Query::new()
            .project(AttributeId(0))
            .select(AttributeId(1), Predicate::Contains("river".into()));
        let requests: Vec<(PeerId, Query)> = (0..4).map(|p| (PeerId(p), query.clone())).collect();
        let outcomes = session.route_all(&requests, &RoutingPolicy::uniform(0.5));
        assert_eq!(outcomes.len(), 4);
        // Each batched outcome matches the per-query entry point.
        for ((origin, query), batched) in requests.iter().zip(&outcomes) {
            let single = session.route(*origin, query, &RoutingPolicy::uniform(0.5));
            assert_eq!(single.reached, batched.reached);
            assert_eq!(single.tainted, batched.tainted);
        }
        // Routing from p2 avoids the faulty chord.
        assert!(!outcomes[1]
            .decisions
            .iter()
            .any(|d| d.mapping == MappingId(4) && d.forwarded));
    }

    #[test]
    fn update_priors_then_rebuild_moves_the_faulty_mapping_no_higher() {
        let mut session = exact_session();
        session.update_priors();
        let key = VariableKey {
            mapping: MappingId(4),
            attribute: Some(AttributeId(0)),
        };
        assert!(session.priors().prior(&key) < 0.5);
        // A second build starting from the updated priors moves m24 no higher.
        let second = Engine::builder()
            .backend(ExactBackend)
            .delta(0.1)
            .priors(session.priors().clone())
            .build(intro_catalog_small());
        let p1 = session
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        let p2 = second
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        assert!(
            p2 <= p1 + 1e-9,
            "second build {p2} should not exceed first build {p1}"
        );
    }

    #[test]
    fn builder_backend_and_embedded_compose_in_either_order() {
        // Two rounds are not enough to converge on the intro network (the default
        // would run to ~12), so rounds() == 2 proves the embedded config reached the
        // default backend; an explicit backend wins whichever call came first.
        let capped = EmbeddedConfig {
            max_rounds: 2,
            record_history: false,
            ..Default::default()
        };
        let default_backend = Engine::builder()
            .embedded(capped.clone())
            .delta(0.1)
            .build(intro_catalog_small());
        assert_eq!(default_backend.backend_name(), "embedded");
        assert_eq!(default_backend.rounds(), 2);
        assert!(!default_backend.converged());
        let backend_first = Engine::builder()
            .backend(ExactBackend)
            .embedded(capped.clone())
            .delta(0.1)
            .build(intro_catalog_small());
        let embedded_first = Engine::builder()
            .embedded(capped)
            .backend(ExactBackend)
            .delta(0.1)
            .build(intro_catalog_small());
        assert_eq!(backend_first.backend_name(), "exact");
        assert_eq!(embedded_first.backend_name(), "exact");
    }

    #[test]
    fn topology_mirror_tracks_the_catalog_through_churn() {
        use crate::cycle_analysis::build_topology;
        let mut session = exact_session();
        let assert_mirrors = |session: &EngineSession| {
            let rebuilt = build_topology(session.catalog());
            let mirror = session.topology();
            assert_eq!(mirror.node_count(), rebuilt.node_count());
            assert_eq!(mirror.edge_count(), rebuilt.edge_count());
            let mirror_edges: Vec<_> = mirror.edges().collect();
            let rebuilt_edges: Vec<_> = rebuilt.edges().collect();
            assert_eq!(mirror_edges, rebuilt_edges);
        };
        assert_mirrors(&session);
        session.apply(&[NetworkEvent::AddPeer {
            name: "p5".into(),
            attributes: vec!["Creator".into(), "Item".into(), "CreatedOn".into()],
        }]);
        assert_mirrors(&session);
        let correspondences: Vec<_> = (0..3)
            .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
            .collect();
        session.apply(&[
            NetworkEvent::AddMapping {
                source: PeerId(3),
                target: PeerId(4),
                correspondences: correspondences.clone(),
            },
            NetworkEvent::AddMapping {
                source: PeerId(4),
                target: PeerId(0),
                correspondences,
            },
            NetworkEvent::RemoveMapping {
                mapping: MappingId(4),
            },
        ]);
        assert_mirrors(&session);
        // A full rebuild resynchronises from scratch and still matches.
        session.rebuild_from_scratch();
        assert_mirrors(&session);
    }

    #[test]
    fn parallelism_knob_does_not_change_the_session_result() {
        let serial = Engine::builder()
            .backend(ExactBackend)
            .delta(0.1)
            .parallelism(1)
            .build(intro_catalog_small());
        let threaded = Engine::builder()
            .backend(ExactBackend)
            .delta(0.1)
            .parallelism(4)
            .build(intro_catalog_small());
        assert_eq!(
            serial.analysis().evidences.len(),
            threaded.analysis().evidences.len()
        );
        for (a, b) in serial
            .analysis()
            .evidences
            .iter()
            .zip(&threaded.analysis().evidences)
        {
            assert_eq!(a, b, "evidence ids must not depend on the worker count");
        }
        for m in 0..5 {
            assert_eq!(
                serial.posteriors().mapping_probability(MappingId(m)),
                threaded.posteriors().mapping_probability(MappingId(m))
            );
        }
    }

    #[test]
    fn peer_only_batches_skip_reinference() {
        // Embedded backend: every inference run adds rounds to the total, so a
        // stable total proves the backend never ran.
        let mut session = Engine::builder().delta(0.1).build(intro_catalog_small());
        let rounds_before = session.stats().total_rounds;
        assert!(rounds_before > 0);
        let report = session.apply(&[NetworkEvent::AddPeer {
            name: "lurker".into(),
            attributes: vec!["Creator".into()],
        }]);
        assert_eq!(report.events_applied, 1);
        // No evidence changed, so inference was skipped entirely.
        assert_eq!(session.stats().total_rounds, rounds_before);
        assert_eq!(
            report.analysis.evidences_reused,
            session.analysis().evidences.len()
        );
    }
}
