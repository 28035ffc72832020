//! Component-sharded engine sessions with batched event ingestion.
//!
//! All structural evidence of the paper's model — directed mapping cycles
//! (Section 3.2.1) and pairs of edge-disjoint parallel paths — is a *connected*
//! subgraph of the mapping network, so no evidence path can ever cross a weakly
//! connected component boundary. Partitioning the catalog into its weak components
//! and running one independent [`EngineSession`] per component is therefore
//! **exact**, not an approximation: every factor of the global model lives entirely
//! inside one shard, per-shard inference sees exactly the factors the global model
//! would connect to its variables, and posteriors merge by (globally unique) mapping
//! id. `tests/sharded_session.rs` asserts bit-identical posteriors against the
//! single-session engine.
//!
//! A [`ShardedSession`] owns:
//!
//! * the **global catalog** and a live topology mirror (edge ids = mapping ids);
//! * an incrementally maintained weak-component partition
//!   ([`pdms_graph::IncrementalComponents`]): mapping additions union two
//!   components in near-constant time, removals re-check connectivity of the
//!   affected component only;
//! * one [`EngineSession`] per component, built over a **sub-catalog** whose peers
//!   and live mappings are inserted in ascending global-id order — which makes
//!   shard-local evidence enumeration order-isomorphic to the global enumeration
//!   restricted to the shard.
//!
//! [`ShardedSession::apply_batch`] is the batched ingestion path: events are
//! applied to the global catalog in order, **coalesced** (a mapping added and
//! removed inside one batch never has evidence searched for it), **grouped by
//! destination shard**, and dispatched — one incremental inference pass per touched
//! shard instead of one per event, in parallel over the
//! [`AnalysisConfig::shard_parallelism`] worker pool. Untouched shards are not
//! visited at all.
//!
//! Shards whose component **merges or splits** take the *warm splice path* instead
//! of a cold rebuild: the donor shards' cached [`crate::cycle_analysis::CycleAnalysis`]
//! state is remapped onto the new shard's local ids (every donor evidence path
//! survives a merge verbatim, and survives a split exactly when all of its mappings
//! stayed on the same side), only the evidence through the *bridging* mappings is
//! searched — the targeted per-edge DFS of [`pdms_graph::cycles_through_edge`] /
//! [`pdms_graph::parallel_paths_through_edge`], never a full re-enumeration — and
//! inference warm-starts from the donors' converged posteriors so only the new
//! evidence's neighborhood re-activates. An edge between two previously separate
//! peer islands is the dominant structural event in a growing PDMS; splicing makes
//! it cost the bridge, not the islands.
//! [`crate::session::EngineBuilder::splice`]`(false)` falls back to cold rebuilds;
//! results are identical either way. See `docs/SHARDING.md` for the lifecycle, the
//! exactness argument and a worked event trace.

use crate::backend::InferenceBackend;
use crate::cycle_analysis::{build_topology, AnalysisConfig, CycleAnalysis};
use crate::cycle_analysis::{EvidencePath, EvidenceSource};
use crate::delta::estimate_delta_for_catalog;
use crate::dynamics::{apply_event_traced, EventEffect, NetworkEvent};
use crate::feedback::FeedbackObservation;
use crate::local_graph::{Granularity, VariableKey};
use crate::metrics::{precision_recall, EvaluationReport};
use crate::posterior::PosteriorTable;
use crate::priors::PriorStore;
use crate::routing::{route_query, RoutingOutcome, RoutingPolicy};
use crate::session::{doomed_additions, EngineBuilder, EngineSession, SplicedParts};
use pdms_graph::{
    effective_parallelism, run_stealing, DiGraph, EdgeId, IncrementalComponents, MergeOutcome,
    NodeId, SplitOutcome,
};
use pdms_schema::{Catalog, MappingId, PeerId, Query};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything needed to build (and re-build, after merges and splits) the
/// per-component [`EngineSession`]s, plus the scheduling knobs resolved once at
/// [`ShardedSession::build`] time.
struct ShardSeed {
    analysis: AnalysisConfig,
    /// Shard-dispatch workers ([`AnalysisConfig::shard_parallelism`], `0`
    /// resolved to the available cores).
    workers: usize,
    /// [`AnalysisConfig::batch_size`] (`0` = one batch per submitted slice).
    batch_size: usize,
    /// [`AnalysisConfig::splice`] (`None` = on).
    splice: bool,
    granularity: Granularity,
    backend: Arc<dyn InferenceBackend>,
    /// The builder-provided prior store; shard builds remap its snapshot onto
    /// shard-local mapping ids.
    priors: PriorStore,
    /// The compensating-error probability Δ, pinned at
    /// [`ShardedSession::build`] time (the builder override, else the estimate
    /// over the initial global catalog). Sub-catalogs must not re-estimate Δ from
    /// their own schemas, or per-shard posteriors would diverge from the global
    /// model's.
    delta: f64,
}

/// One connected-component shard: the peers it covers and the incremental session
/// running on its sub-catalog.
///
/// Shard-local identifiers are dense: local peer `k` is the `k`-th smallest global
/// peer id of the component, and local mapping slots are allocated in ascending
/// global-mapping-id order at build time (then in arrival order for mappings added
/// later). The translation tables are exposed read-only.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Global peer ids covered by this shard, ascending.
    peers: Vec<PeerId>,
    /// The incremental engine session over the shard's sub-catalog.
    session: EngineSession,
    /// Local mapping slot → global mapping id.
    to_global_mapping: Vec<MappingId>,
    /// Global mapping id → local mapping id (live mappings only).
    to_local_mapping: BTreeMap<MappingId, MappingId>,
}

impl Shard {
    /// Global peer ids covered by this shard, ascending.
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// The shard's engine session (identifiers inside are shard-local).
    pub fn session(&self) -> &EngineSession {
        &self.session
    }

    /// Translates a shard-local mapping id to its global id.
    pub fn global_mapping(&self, local: MappingId) -> MappingId {
        self.to_global_mapping[local.0]
    }

    /// Translates a shard-local peer id to its global id.
    fn global_peer(&self, local: PeerId) -> PeerId {
        self.peers[local.0]
    }

    /// Translates a global peer id to this shard's local id, if the peer belongs to
    /// the shard.
    fn local_peer(&self, global: PeerId) -> Option<PeerId> {
        self.peers.binary_search(&global).ok().map(PeerId)
    }
}

/// What one [`ShardedSession::apply_batch`] call did, accumulated over its chunks.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchReport {
    /// Batches the submitted slice was split into ([`AnalysisConfig::batch_size`]).
    pub batches: usize,
    /// Events that actually changed the catalog.
    pub events_applied: usize,
    /// Events that were no-ops or named an unknown peer or mapping id.
    pub events_ignored: usize,
    /// Mappings added *and* removed within one batch: slots were allocated and
    /// tombstoned for id stability, but no evidence work was done for them.
    pub mappings_coalesced: usize,
    /// Component merges (a mapping arrived between two shards).
    pub merges: usize,
    /// Component splits (the last connecting mapping left).
    pub splits: usize,
    /// Shards that received an incremental apply (one inference pass each).
    pub shards_touched: usize,
    /// Shards rebuilt cold from the final catalog (a fresh component with no donor
    /// state, or any merge/split while splicing is disabled).
    pub shards_rebuilt: usize,
    /// Shards assembled by the warm splice path (donor analyses remapped, bridge
    /// evidence searched, inference warm-started from the donors' posteriors).
    pub shards_spliced: usize,
    /// Evidence paths discovered through the bridging mappings during splices —
    /// the only enumeration work a splice performs.
    pub splice_evidence_added: usize,
    /// Inference rounds summed over every dispatched shard.
    pub rounds: usize,
    /// Dispatched shards whose inference hit the round cap: they serve posteriors
    /// that are not a fixpoint.
    pub shards_unconverged: usize,
    /// Inference rounds of the dispatched shard that ran the most (the worst
    /// shard's round count; equal to the cap when some shard did not converge).
    pub max_shard_rounds: usize,
    /// Wall time summed over every dispatched shard's apply/splice/rebuild work
    /// (serial-equivalent cost; with parallel dispatch the batch finishes sooner).
    pub shard_time: Duration,
    /// Wall time of the slowest single shard in the batch (the dispatch tail).
    pub slowest_shard: Duration,
}

impl BatchReport {
    fn absorb(&mut self, other: BatchReport) {
        self.batches += other.batches;
        self.events_applied += other.events_applied;
        self.events_ignored += other.events_ignored;
        self.mappings_coalesced += other.mappings_coalesced;
        self.merges += other.merges;
        self.splits += other.splits;
        self.shards_touched += other.shards_touched;
        self.shards_rebuilt += other.shards_rebuilt;
        self.shards_spliced += other.shards_spliced;
        self.splice_evidence_added += other.splice_evidence_added;
        self.rounds += other.rounds;
        self.shards_unconverged += other.shards_unconverged;
        self.max_shard_rounds = self.max_shard_rounds.max(other.max_shard_rounds);
        self.shard_time += other.shard_time;
        self.slowest_shard = self.slowest_shard.max(other.slowest_shard);
    }
}

/// Cumulative statistics of a sharded session.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedStats {
    /// Batches ingested over the session's lifetime.
    pub batches: usize,
    /// Events that changed the catalog.
    pub events_applied: usize,
    /// Coalesced add/remove pairs.
    pub mappings_coalesced: usize,
    /// Component merges observed.
    pub merges: usize,
    /// Component splits observed.
    pub splits: usize,
    /// Incremental shard applies dispatched.
    pub shard_applies: usize,
    /// Cold shard rebuilds dispatched.
    pub shard_rebuilds: usize,
    /// Warm shard splices dispatched (merges and splits served from donor state).
    pub shards_spliced: usize,
    /// Evidence paths discovered through bridging mappings across all splices.
    pub splice_evidence_added: usize,
}

/// One pending unit of shard work inside a batch dispatch.
enum ShardTask {
    /// Untouched shard: carried over as-is.
    Keep(Shard),
    /// Intact shard with queued (already shard-local) events: one incremental
    /// apply.
    Apply(Shard, Vec<NetworkEvent>),
    /// Component whose shard must be (re)built cold from the final global catalog
    /// (no donor state exists, or splicing is disabled).
    Build(Vec<PeerId>),
    /// Component assembled warm from donor shards: donor analyses and posteriors
    /// are remapped, only the listed bridging mappings are searched for evidence,
    /// and the listed edited mappings are re-observed.
    Splice {
        /// The component's peers, ascending global ids.
        peers: Vec<PeerId>,
        /// Indices (into the batch's surviving old-shard slots) of the donors,
        /// ordered by their smallest peer covered by the component.
        donors: Vec<usize>,
        /// Mappings added by this batch whose source lies in the component,
        /// ascending global ids (their evidence is the only enumeration work).
        new_mappings: Vec<MappingId>,
        /// Mappings whose correspondences this batch edited, restricted to the
        /// component (their evidence is re-observed in place).
        edited: Vec<MappingId>,
    },
}

/// How a dispatched shard task was served — the per-shard accounting behind
/// [`BatchReport`].
enum ShardWork {
    Kept,
    Applied,
    Rebuilt,
    Spliced {
        /// Evidence paths discovered through the bridging mappings.
        evidence_added: usize,
    },
}

/// One dispatched shard task's result.
struct ShardOutcome {
    shard: Shard,
    /// Inference rounds the task ran (0 for kept shards).
    rounds: usize,
    /// Whether the shard's served posteriors are a fixpoint (true for kept shards).
    converged: bool,
    work: ShardWork,
    /// Wall time of the task on its worker.
    elapsed: Duration,
}

/// Per-batch scratch reused across [`ShardedSession::apply_batch`] calls: the
/// shard-local event queues and structural-damage flags are indexed by the
/// current shard index and cleared through explicit touch lists, replacing the
/// per-batch `BTreeMap`/`BTreeSet` grouping state (one tree-node allocation per
/// queued shard and broken flag) with flat reusable tables. Queues handed to an
/// `Apply` task are moved out (the worker needs ownership), so a dispatched
/// shard's event buffer is rebuilt next batch; everything else retains its
/// capacity.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Queued shard-local events, indexed by shard.
    queued: Vec<Vec<NetworkEvent>>,
    /// Shards with a non-empty queue (drain list for cheap clearing).
    queued_touched: Vec<usize>,
    /// Structural-damage flag per shard (the shard's component merged or split).
    broken: Vec<bool>,
    /// Shards flagged broken (drain list for cheap clearing).
    broken_list: Vec<usize>,
}

impl BatchScratch {
    /// Sizes the per-shard tables for a batch over `shards` shards and clears any
    /// state a previous batch left behind (buffers keep their capacity).
    fn begin_batch(&mut self, shards: usize) {
        if self.queued.len() < shards {
            self.queued.resize_with(shards, Vec::new);
        }
        if self.broken.len() < shards {
            self.broken.resize(shards, false);
        }
        for idx in self.queued_touched.drain(..) {
            self.queued[idx].clear();
        }
        for idx in self.broken_list.drain(..) {
            self.broken[idx] = false;
        }
    }

    /// Queues one shard-local event.
    fn queue(&mut self, shard: usize, event: NetworkEvent) {
        if self.queued[shard].is_empty() {
            self.queued_touched.push(shard);
        }
        self.queued[shard].push(event);
    }

    /// Flags a shard as structurally damaged.
    fn mark_broken(&mut self, shard: usize) {
        if !self.broken[shard] {
            self.broken[shard] = true;
            self.broken_list.push(shard);
        }
    }
}

/// A component-sharded incremental inference session over an evolving catalog.
///
/// Built with [`crate::engine::Engine::builder`]`.build_sharded(catalog)`. Exact by
/// construction: evidence paths never cross weak-component boundaries, so
/// per-shard inference reproduces the single-session posteriors (bit-identically
/// under deterministic backend configurations — see `docs/SHARDING.md`).
///
/// ```
/// use pdms_core::{Engine, NetworkEvent};
/// use pdms_schema::{AttributeId, Catalog, MappingId};
///
/// // Two independent two-peer islands: two weakly connected components.
/// let mut catalog = Catalog::new();
/// let identity = |mut m: pdms_schema::MappingBuilder| {
///     for i in 0..3 {
///         m = m.correct(AttributeId(i), AttributeId(i));
///     }
///     m
/// };
/// for island in ["a", "b"] {
///     let x = catalog.add_peer_with_schema(format!("{island}0"), |s| {
///         s.attributes(["x", "y", "z"]);
///     });
///     let y = catalog.add_peer_with_schema(format!("{island}1"), |s| {
///         s.attributes(["x", "y", "z"]);
///     });
///     catalog.add_mapping(x, y, identity);
///     catalog.add_mapping(y, x, identity);
/// }
///
/// let mut session = Engine::builder().delta(0.1).build_sharded(catalog);
/// assert_eq!(session.shard_count(), 2);
///
/// // Batched ingestion: the corruption touches only the first island, so exactly
/// // one shard runs an inference pass — the other is never visited.
/// let report = session.apply_batch(&[NetworkEvent::Corrupt {
///     mapping: MappingId(0),
///     attribute: AttributeId(0),
///     wrong_target: AttributeId(1),
/// }]);
/// assert_eq!(report.shards_touched, 1);
/// assert_eq!(report.shards_rebuilt, 0);
/// assert!(session.posteriors().mapping_probability(MappingId(0)) < 0.5);
/// assert!(session.posteriors().mapping_probability(MappingId(2)) > 0.5);
/// ```
#[derive(Debug)]
pub struct ShardedSession {
    catalog: Catalog,
    /// Live mirror of the global mapping network (edge ids = mapping ids,
    /// tombstones aligned).
    topology: DiGraph,
    components: IncrementalComponents,
    /// Shards ordered by their smallest global peer id.
    shards: Vec<Shard>,
    /// Global peer id → index into `shards`.
    peer_shard: Vec<usize>,
    /// Global (live) mapping id → index into `shards`.
    mapping_shard: BTreeMap<MappingId, usize>,
    seed: ShardSeed,
    /// Posterior snapshot merged over all shards, keyed by global ids.
    merged: PosteriorTable,
    stats: ShardedStats,
    /// Reusable per-batch grouping state (see [`BatchScratch`]).
    scratch: BatchScratch,
}

impl std::fmt::Debug for ShardSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSeed")
            .field("granularity", &self.granularity)
            .field("delta", &self.delta)
            .field("backend", &self.backend.name())
            .finish_non_exhaustive()
    }
}

impl ShardedSession {
    /// Builds the session: partitions `catalog` into weak components and builds one
    /// engine session per component, dispatched in parallel.
    pub(crate) fn build(builder: EngineBuilder, catalog: Catalog) -> ShardedSession {
        let parts = builder.into_parts();
        let delta = parts
            .delta
            .unwrap_or_else(|| estimate_delta_for_catalog(&catalog));
        let seed = ShardSeed {
            workers: effective_parallelism(parts.analysis.shard_parallelism),
            batch_size: parts.analysis.batch_size,
            splice: parts.analysis.splice.unwrap_or(true),
            analysis: parts.analysis,
            granularity: parts.granularity,
            backend: parts.backend,
            priors: parts.priors,
            delta,
        };
        let topology = build_topology(&catalog);
        let components = IncrementalComponents::from_graph(&topology);
        let partitions: Vec<Vec<PeerId>> = components
            .partitions()
            .into_iter()
            .map(|nodes| nodes.into_iter().map(|n| PeerId(n.0)).collect())
            .collect();
        let catalog_ref = &catalog;
        let seed_ref = &seed;
        let shards = run_stealing(seed.workers, partitions.len(), |i| {
            build_shard(catalog_ref, &partitions[i], seed_ref)
        });
        let mut session = ShardedSession {
            catalog,
            topology,
            components,
            shards,
            peer_shard: Vec::new(),
            mapping_shard: BTreeMap::new(),
            seed,
            merged: PosteriorTable::new(0.5),
            stats: ShardedStats::default(),
            scratch: BatchScratch::default(),
        };
        session.reindex();
        session.remerge();
        session
    }

    /// The catalog in its current (post-batches) state, with global identifiers.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The live global topology mirror (edge ids = mapping ids).
    pub fn topology(&self) -> &DiGraph {
        &self.topology
    }

    /// Number of shards (= weakly connected components, including isolated peers).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, ordered by their smallest global peer id.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard covering a peer.
    pub fn shard_of(&self, peer: PeerId) -> &Shard {
        &self.shards[self.peer_shard[peer.0]]
    }

    /// The merged posterior snapshot, keyed by global mapping ids — what routing
    /// and evaluation run against. Identical to the table a single
    /// [`EngineSession`] over the whole catalog serves.
    pub fn posteriors(&self) -> &PosteriorTable {
        &self.merged
    }

    /// Δ in effect: pinned at build time (builder override, else the estimate over
    /// the initial catalog). Unlike [`EngineSession::delta`], the value does not
    /// track later schema growth — shard rebuilds must agree with the sessions
    /// built before them.
    pub fn delta(&self) -> f64 {
        self.seed.delta
    }

    /// Name of the inference backend every shard runs.
    pub fn backend_name(&self) -> &'static str {
        self.seed.backend.name()
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> &ShardedStats {
        &self.stats
    }

    /// Evidence paths summed over all shards (each path lives in exactly one).
    pub fn evidence_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.session.analysis().evidences.len())
            .sum()
    }

    /// The evidence paths of every shard, translated to global identifiers and
    /// re-numbered into the canonical global order: every cycle first (stably
    /// ordered by origin peer), then every parallel-path pair (stably ordered by
    /// source peer).
    ///
    /// On a freshly built (or rebuilt) session this is **exactly** the enumeration
    /// order — and therefore the evidence ids — of a single-session engine over the
    /// same catalog: the global enumerators emit per-origin blocks in ascending
    /// origin order, shard-local enumeration preserves each block verbatim, and the
    /// stable merge re-interleaves the blocks of different shards. After
    /// incremental churn, evidence a shard appended later sorts into its origin's
    /// block (the single session appends at its global tail instead), so the view
    /// stays deterministic but id-for-id equality is only guaranteed for freshly
    /// built states — compare churned sessions as sets.
    pub fn merged_evidences(&self) -> Vec<EvidencePath> {
        let mut cycles: Vec<(PeerId, EvidencePath)> = Vec::new();
        let mut paths: Vec<(PeerId, EvidencePath)> = Vec::new();
        for shard in &self.shards {
            for evidence in &shard.session.analysis().evidences {
                let mappings = evidence
                    .mappings
                    .iter()
                    .map(|m| shard.global_mapping(*m))
                    .collect();
                match evidence.source {
                    EvidenceSource::Cycle { origin } => {
                        let origin = shard.global_peer(origin);
                        cycles.push((
                            origin,
                            EvidencePath {
                                id: 0,
                                source: EvidenceSource::Cycle { origin },
                                mappings,
                                split: evidence.split,
                            },
                        ));
                    }
                    EvidenceSource::ParallelPaths {
                        source,
                        destination,
                    } => {
                        let source = shard.global_peer(source);
                        paths.push((
                            source,
                            EvidencePath {
                                id: 0,
                                source: EvidenceSource::ParallelPaths {
                                    source,
                                    destination: shard.global_peer(destination),
                                },
                                mappings,
                                split: evidence.split,
                            },
                        ));
                    }
                }
            }
        }
        cycles.sort_by_key(|(origin, _)| *origin);
        paths.sort_by_key(|(source, _)| *source);
        let mut out = Vec::with_capacity(cycles.len() + paths.len());
        for (_, mut evidence) in cycles.into_iter().chain(paths) {
            evidence.id = out.len();
            out.push(evidence);
        }
        out
    }

    /// Applies a batch of network events: coalesces add/remove pairs, groups the
    /// rest by destination shard, and triggers **one** analysis/inference pass per
    /// touched shard (instead of one per event), dispatching shards in parallel
    /// over [`AnalysisConfig::shard_parallelism`] workers. Components that merge or
    /// split are rebuilt from the final catalog; shards no event touches are not
    /// visited.
    ///
    /// Slices longer than the resolved [`AnalysisConfig::batch_size`] are split
    /// into consecutive batches; the returned report accumulates over them.
    ///
    /// ```
    /// use pdms_core::{Engine, NetworkEvent};
    /// use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};
    ///
    /// let mut catalog = Catalog::new();
    /// for name in ["a", "b"] {
    ///     catalog.add_peer_with_schema(name, |s| { s.attributes(["x", "y"]); });
    /// }
    /// let mut session = Engine::builder().delta(0.1).build_sharded(catalog);
    /// assert_eq!(session.shard_count(), 2); // two isolated peers
    ///
    /// // One batch: connect the peers both ways (a component merge), and add +
    /// // remove a throwaway mapping, which coalesces to no evidence work at all.
    /// let link = |s: usize, t: usize| NetworkEvent::AddMapping {
    ///     source: PeerId(s),
    ///     target: PeerId(t),
    ///     correspondences: vec![
    ///         (AttributeId(0), AttributeId(0), Some(AttributeId(0))),
    ///         (AttributeId(1), AttributeId(1), Some(AttributeId(1))),
    ///     ],
    /// };
    /// let report = session.apply_batch(&[
    ///     link(0, 1),
    ///     link(1, 0),
    ///     link(0, 1),                                      // will get MappingId(2)
    ///     NetworkEvent::RemoveMapping { mapping: MappingId(2) },
    /// ]);
    /// assert_eq!(report.merges, 1);
    /// assert_eq!(report.mappings_coalesced, 1);
    /// assert_eq!(session.shard_count(), 1); // the islands merged into one shard
    /// assert!(session.posteriors().mapping_probability(MappingId(0)) > 0.5);
    /// ```
    pub fn apply_batch(&mut self, events: &[NetworkEvent]) -> BatchReport {
        let size = self.seed.batch_size;
        let mut report = BatchReport::default();
        if size == 0 || events.len() <= size {
            report.absorb(self.apply_chunk(events));
        } else {
            for chunk in events.chunks(size) {
                report.absorb(self.apply_chunk(chunk));
            }
        }
        report
    }

    /// Folds every shard's posteriors back into its priors (the Section 4.4
    /// update), shard by shard.
    pub fn update_priors(&mut self) {
        for shard in &mut self.shards {
            shard.session.update_priors();
        }
    }

    /// The prior currently in effect for a global `(mapping, attribute)` variable.
    pub fn prior(&self, key: &VariableKey) -> f64 {
        match self.mapping_shard.get(&key.mapping) {
            Some(&idx) => {
                let shard = &self.shards[idx];
                let local = VariableKey {
                    mapping: shard.to_local_mapping[&key.mapping],
                    attribute: key.attribute,
                };
                shard.session.priors().prior(&local)
            }
            None => self.seed.priors.default_prior(),
        }
    }

    /// Routes one query from `origin` against the merged posterior snapshot — the
    /// global catalog and global identifiers, exactly like
    /// [`EngineSession::route`].
    pub fn route(&self, origin: PeerId, query: &Query, policy: &RoutingPolicy) -> RoutingOutcome {
        route_query(&self.catalog, &self.merged, origin, query, policy)
    }

    /// Routes a whole workload against one merged posterior snapshot.
    pub fn route_all(
        &self,
        requests: &[(PeerId, Query)],
        policy: &RoutingPolicy,
    ) -> Vec<RoutingOutcome> {
        requests
            .iter()
            .map(|(origin, query)| route_query(&self.catalog, &self.merged, *origin, query, policy))
            .collect()
    }

    /// Evaluates erroneous-mapping detection at threshold θ against ground truth,
    /// using the merged posteriors.
    pub fn evaluate(&self, theta: f64) -> EvaluationReport {
        precision_recall(&self.catalog, &self.merged, theta)
    }

    /// Discards every shard and rebuilds the whole partition from the current
    /// catalog (the non-incremental path).
    pub fn rebuild_from_scratch(&mut self) {
        self.topology = build_topology(&self.catalog);
        self.components = IncrementalComponents::from_graph(&self.topology);
        let partitions: Vec<Vec<PeerId>> = self
            .components
            .partitions()
            .into_iter()
            .map(|nodes| nodes.into_iter().map(|n| PeerId(n.0)).collect())
            .collect();
        let catalog = &self.catalog;
        let seed = &self.seed;
        self.shards = run_stealing(seed.workers, partitions.len(), |i| {
            build_shard(catalog, &partitions[i], seed)
        });
        self.stats.shard_rebuilds += self.shards.len();
        self.reindex();
        self.remerge();
    }

    /// One ingestion batch: sequential global application + shard routing, then
    /// parallel dispatch.
    fn apply_chunk(&mut self, events: &[NetworkEvent]) -> BatchReport {
        let mut report = BatchReport {
            batches: 1,
            ..BatchReport::default()
        };
        let doomed = doomed_additions(&self.catalog, events);
        // Shard-local event queues and structural damage live in the persistent
        // scratch, keyed by the shard's *current* index. Queued events are
        // translated eagerly; a shard that later turns out broken simply leaves
        // its queue behind (the splice or rebuild reads the final catalog, which
        // already contains every change).
        self.scratch.begin_batch(self.shards.len());
        // Structural delta of this batch, the input of the splice path: mappings
        // added (non-coalesced ones survive the batch by construction of `doomed`;
        // event order = ascending global-id order) and mappings whose
        // correspondences were edited.
        let mut added: Vec<MappingId> = Vec::new();
        let mut edited: BTreeSet<MappingId> = BTreeSet::new();
        for event in events {
            // `retired` is non-empty only for RemovePeer: the mappings its single
            // PeerRetired effect withdrew.
            let Some((effect, retired)) = apply_event_traced(&mut self.catalog, event) else {
                report.events_ignored += 1;
                continue;
            };
            report.events_applied += 1;
            match effect {
                EventEffect::PeerAdded(_) => {
                    let node = self.topology.add_node();
                    self.components.add_node();
                    // The new singleton component gets its shard in the dispatch
                    // phase; no existing shard is concerned.
                    self.peer_shard.push(usize::MAX);
                    debug_assert_eq!(node.0 + 1, self.catalog.peer_count());
                }
                EventEffect::MappingAdded(mapping) => {
                    let (source, target) = self.catalog.mapping_endpoints(mapping);
                    let edge = self.topology.add_edge(NodeId(source.0), NodeId(target.0));
                    debug_assert_eq!(edge.0, mapping.0, "mirror edge ids = mapping ids");
                    if doomed.contains(&mapping) {
                        // A later event of this batch removes the mapping again:
                        // tombstone the edge now so no in-batch discovery routes
                        // evidence through it, and skip all shard work for it.
                        self.topology.remove_edge(edge);
                        continue;
                    }
                    added.push(mapping);
                    match self.components.merge(NodeId(source.0), NodeId(target.0)) {
                        MergeOutcome::AlreadyJoined => {
                            self.queue_add(mapping, source, event);
                        }
                        MergeOutcome::Merged { .. } => {
                            report.merges += 1;
                            for endpoint in [source, target] {
                                let idx = self.peer_shard[endpoint.0];
                                if idx != usize::MAX {
                                    self.scratch.mark_broken(idx);
                                }
                            }
                        }
                    }
                }
                EventEffect::MappingRemoved(mapping) => {
                    self.unqueue_removal(mapping, &doomed, &mut edited, &mut report);
                }
                EventEffect::PeerRetired(_) => {
                    for mapping in retired {
                        self.unqueue_removal(mapping, &doomed, &mut edited, &mut report);
                    }
                }
                EventEffect::MappingChanged(mapping) => {
                    edited.insert(mapping);
                    if let Some(&idx) = self.mapping_shard.get(&mapping) {
                        if !self.scratch.broken[idx] {
                            let local = self.shards[idx].to_local_mapping[&mapping];
                            self.scratch
                                .queue(idx, retarget_mapping_event(event, local));
                        }
                    }
                }
            }
        }

        // Reconcile the final partition against the surviving shards and dispatch.
        let splice_enabled = self.seed.splice;
        let partitions: Vec<Vec<PeerId>> = self
            .components
            .partitions()
            .into_iter()
            .map(|nodes| nodes.into_iter().map(|n| PeerId(n.0)).collect())
            .collect();
        let old_shards = std::mem::take(&mut self.shards);
        let mut old_by_first: BTreeMap<PeerId, usize> = BTreeMap::new();
        for (i, shard) in old_shards.iter().enumerate() {
            old_by_first.insert(shard.peers[0], i);
        }
        let old_shard_count = old_shards.len();
        let mut old_slots: Vec<Option<Shard>> = old_shards.into_iter().map(Some).collect();
        let tasks: Vec<ShardTask> = partitions
            .into_iter()
            .map(|peers| match old_by_first.get(&peers[0]) {
                Some(&oi)
                    if !self.scratch.broken[oi]
                        && old_slots[oi].as_ref().is_some_and(|s| s.peers == peers) =>
                {
                    let shard = old_slots[oi].take().expect("matched shard present");
                    if self.scratch.queued[oi].is_empty() {
                        ShardTask::Keep(shard)
                    } else {
                        ShardTask::Apply(shard, std::mem::take(&mut self.scratch.queued[oi]))
                    }
                }
                _ => self.structural_task(peers, &old_slots, splice_enabled, &added, &edited),
            })
            .collect();
        let slots: Vec<Mutex<Option<ShardTask>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let catalog = &self.catalog;
        let seed = &self.seed;
        // Broken shards were never taken out of `old_slots`, so splice tasks can
        // read their donors through this shared view while dispatch runs.
        let donor_pool = &old_slots;
        let results: Vec<ShardOutcome> = run_stealing(seed.workers, slots.len(), |i| {
            let task = slots[i]
                .lock()
                .expect("shard task lock")
                .take()
                .expect("each task taken once");
            let start = Instant::now();
            match task {
                ShardTask::Keep(shard) => ShardOutcome {
                    shard,
                    rounds: 0,
                    converged: true,
                    work: ShardWork::Kept,
                    elapsed: Duration::ZERO,
                },
                ShardTask::Apply(mut shard, events) => {
                    let apply = shard.session.apply(&events);
                    ShardOutcome {
                        shard,
                        rounds: apply.rounds,
                        converged: apply.converged,
                        work: ShardWork::Applied,
                        elapsed: start.elapsed(),
                    }
                }
                ShardTask::Build(peers) => {
                    let shard = build_shard(catalog, &peers, seed);
                    let (rounds, converged) = (shard.session.rounds(), shard.session.converged());
                    ShardOutcome {
                        shard,
                        rounds,
                        converged,
                        work: ShardWork::Rebuilt,
                        elapsed: start.elapsed(),
                    }
                }
                ShardTask::Splice {
                    peers,
                    donors,
                    new_mappings,
                    edited,
                } => {
                    let donor_shards: Vec<&Shard> = donors
                        .iter()
                        .map(|&d| {
                            donor_pool[d]
                                .as_ref()
                                .expect("donor shards survive until dispatch")
                        })
                        .collect();
                    let (shard, evidence_added) =
                        splice_shard(catalog, &peers, &donor_shards, &new_mappings, &edited, seed);
                    let (rounds, converged) = (shard.session.rounds(), shard.session.converged());
                    ShardOutcome {
                        shard,
                        rounds,
                        converged,
                        work: ShardWork::Spliced { evidence_added },
                        elapsed: start.elapsed(),
                    }
                }
            }
        });
        // Snapshot maintenance is proportional to the *changed* shards, not the
        // catalog: entries of every mapping a discarded or changed shard covered
        // are cleared, then re-filled from the changed shards' fresh tables.
        // Untouched shards keep their (disjoint-keyed) entries verbatim.
        let mut dirty_mappings: BTreeSet<MappingId> = BTreeSet::new();
        for discarded in old_slots.into_iter().flatten() {
            dirty_mappings.extend(discarded.to_global_mapping.iter().copied());
        }
        let mut changed: Vec<usize> = Vec::new();
        self.shards = Vec::with_capacity(results.len());
        for outcome in results {
            report.rounds += outcome.rounds;
            report.shards_unconverged += usize::from(!outcome.converged);
            report.max_shard_rounds = report.max_shard_rounds.max(outcome.rounds);
            report.shard_time += outcome.elapsed;
            report.slowest_shard = report.slowest_shard.max(outcome.elapsed);
            let refresh = match outcome.work {
                ShardWork::Kept => false,
                ShardWork::Applied => {
                    report.shards_touched += 1;
                    true
                }
                ShardWork::Rebuilt => {
                    report.shards_rebuilt += 1;
                    true
                }
                ShardWork::Spliced { evidence_added } => {
                    report.shards_spliced += 1;
                    report.splice_evidence_added += evidence_added;
                    true
                }
            };
            if refresh {
                dirty_mappings.extend(outcome.shard.to_global_mapping.iter().copied());
                changed.push(self.shards.len());
            }
            self.shards.push(outcome.shard);
        }
        report.mappings_coalesced = doomed.len();
        // Shard indices only shift when the partition itself changed — every
        // partition change goes through a splice or rebuild, so a batch without
        // either keeps the peer/mapping indices valid as incrementally maintained
        // above.
        if report.shards_rebuilt > 0
            || report.shards_spliced > 0
            || self.shards.len() != old_shard_count
        {
            self.reindex();
        }
        for mapping in &dirty_mappings {
            self.merged.clear_mapping(*mapping);
        }
        for &i in &changed {
            fill_from_shard(&mut self.merged, &self.shards[i]);
        }
        self.stats.batches += 1;
        self.stats.events_applied += report.events_applied;
        self.stats.mappings_coalesced += report.mappings_coalesced;
        self.stats.merges += report.merges;
        self.stats.splits += report.splits;
        self.stats.shard_applies += report.shards_touched;
        self.stats.shard_rebuilds += report.shards_rebuilt;
        self.stats.shards_spliced += report.shards_spliced;
        self.stats.splice_evidence_added += report.splice_evidence_added;
        report
    }

    /// Builds the dispatch task for a component whose shard changed structurally
    /// this batch: the warm splice when donor state exists (and splicing is
    /// enabled), else a cold build.
    fn structural_task(
        &self,
        peers: Vec<PeerId>,
        old_slots: &[Option<Shard>],
        splice_enabled: bool,
        added: &[MappingId],
        edited: &BTreeSet<MappingId>,
    ) -> ShardTask {
        if !splice_enabled {
            return ShardTask::Build(peers);
        }
        // Donors: every surviving old shard covering one of the component's peers.
        // Scanning the peers ascending orders donors by their smallest covered
        // peer, which keeps the spliced evidence order deterministic. (Shards
        // matched as Keep/Apply can never appear here: their peer set equals a
        // different — disjoint — partition.)
        let mut donors: Vec<usize> = Vec::new();
        for peer in &peers {
            let idx = self.peer_shard[peer.0];
            if idx == usize::MAX
                || donors.contains(&idx)
                || old_slots.get(idx).is_none_or(|slot| slot.is_none())
            {
                continue;
            }
            donors.push(idx);
        }
        if donors.is_empty() {
            // A component made purely of this batch's new peers: nothing warm to
            // carry over, the cold build is the incremental path.
            return ShardTask::Build(peers);
        }
        let in_partition = |peer: PeerId| peers.binary_search(&peer).is_ok();
        let new_mappings: Vec<MappingId> = added
            .iter()
            .copied()
            .filter(|m| in_partition(self.catalog.mapping_endpoints(*m).0))
            .collect();
        let edited: Vec<MappingId> = edited
            .iter()
            .copied()
            .filter(|m| {
                !self.catalog.is_mapping_removed(*m)
                    && in_partition(self.catalog.mapping_endpoints(*m).0)
            })
            .collect();
        ShardTask::Splice {
            peers,
            donors,
            new_mappings,
            edited,
        }
    }

    /// Queues an intra-component mapping addition on its shard, registering the
    /// predicted local slot so later events of the batch can name the mapping.
    fn queue_add(&mut self, mapping: MappingId, source: PeerId, event: &NetworkEvent) {
        let idx = self.peer_shard[source.0];
        if idx == usize::MAX || self.scratch.broken[idx] {
            // Component created in this batch (new peers) or a shard already due
            // for a splice/rebuild: the dispatch phase reads the final catalog.
            return;
        }
        let NetworkEvent::AddMapping {
            source: _,
            target,
            correspondences,
        } = event
        else {
            unreachable!("MappingAdded comes from AddMapping events");
        };
        // Queued additions allocate shard-local slots in queue order, right after
        // the slots the sub-catalog already has.
        let pending_adds = self.scratch.queued[idx]
            .iter()
            .filter(|e| matches!(e, NetworkEvent::AddMapping { .. }))
            .count();
        let shard = &mut self.shards[idx];
        let local_source = shard
            .local_peer(source)
            .expect("shard covers the mapping source");
        let local_target = shard
            .local_peer(*target)
            .expect("shard covers the mapping target");
        let local_id = MappingId(shard.session.catalog().mapping_slot_count() + pending_adds);
        shard.to_global_mapping.push(mapping);
        debug_assert_eq!(shard.to_global_mapping.len() - 1, local_id.0);
        shard.to_local_mapping.insert(mapping, local_id);
        self.mapping_shard.insert(mapping, idx);
        self.scratch.queue(
            idx,
            NetworkEvent::AddMapping {
                source: local_source,
                target: local_target,
                correspondences: correspondences.clone(),
            },
        );
    }

    /// Processes one (non-coalesced) mapping removal: topology + component
    /// maintenance, then either queues the shard-local removal or marks the shard
    /// broken when the component split.
    fn unqueue_removal(
        &mut self,
        mapping: MappingId,
        doomed: &BTreeSet<MappingId>,
        edited: &mut BTreeSet<MappingId>,
        report: &mut BatchReport,
    ) {
        edited.remove(&mapping);
        if doomed.contains(&mapping) {
            // Added by this very batch: the mirror edge is already tombstoned and
            // no shard ever saw the mapping.
            return;
        }
        let (source, target) = self.catalog.mapping_endpoints(mapping);
        self.topology.remove_edge(EdgeId(mapping.0));
        let split = self
            .components
            .split(&self.topology, NodeId(source.0), NodeId(target.0));
        let idx = self.mapping_shard.remove(&mapping);
        match split {
            SplitOutcome::StillConnected => {
                if let Some(idx) = idx {
                    if !self.scratch.broken[idx] {
                        let local = self.shards[idx]
                            .to_local_mapping
                            .remove(&mapping)
                            .expect("shard tracks its live mappings");
                        self.scratch
                            .queue(idx, NetworkEvent::RemoveMapping { mapping: local });
                    }
                }
            }
            SplitOutcome::Split { .. } => {
                report.splits += 1;
                if let Some(idx) = idx {
                    self.scratch.mark_broken(idx);
                }
            }
        }
    }

    /// Rebuilds the peer → shard and global-mapping → shard indices.
    fn reindex(&mut self) {
        self.peer_shard = vec![usize::MAX; self.catalog.peer_count()];
        self.mapping_shard.clear();
        for (i, shard) in self.shards.iter().enumerate() {
            for peer in &shard.peers {
                self.peer_shard[peer.0] = i;
            }
            for global in shard.to_local_mapping.keys() {
                self.mapping_shard.insert(*global, i);
            }
        }
    }

    /// Rebuilds the merged posterior snapshot from the shard tables (global keys;
    /// deterministic, since keys are disjoint across shards).
    fn remerge(&mut self) {
        let mut merged = PosteriorTable::new(self.seed.priors.default_prior());
        for shard in &self.shards {
            fill_from_shard(&mut merged, shard);
        }
        self.merged = merged;
    }
}

/// Copies one shard's posterior entries into a merged table under global mapping
/// ids. Order matters: coarse entries must land before fine ones, because
/// [`PosteriorTable::set`] min-folds each fine value into the coarse slot — a
/// no-op once the shard's own (already min-folded) coarse value is in place, but
/// corrupting if fine values arrived first against a stale or missing coarse
/// entry.
fn fill_from_shard(merged: &mut PosteriorTable, shard: &Shard) {
    let table = shard.session.posteriors();
    for (local, p) in table.coarse_entries() {
        merged.set_coarse(shard.global_mapping(local), p);
    }
    for (local, attribute, p) in table.fine_entries() {
        merged.set(shard.global_mapping(local), attribute, p);
    }
}

/// Replicates a component's peers into a fresh sub-catalog: shard-local peer `k`
/// is the `k`-th smallest global peer id of the component.
fn build_sub_peers(catalog: &Catalog, peers: &[PeerId]) -> Catalog {
    let mut sub = Catalog::new();
    for &peer in peers {
        let names: Vec<String> = catalog
            .peer_schema(peer)
            .attributes()
            .map(|a| a.name.clone())
            .collect();
        sub.add_peer_with_schema(catalog.peer_name(peer).to_string(), |schema| {
            for name in names {
                schema.attribute(name);
            }
        });
    }
    sub
}

/// Copies one live global mapping into a shard sub-catalog, translating its
/// endpoints to shard-local peer ids. Returns the allocated shard-local mapping
/// id (always the next slot).
fn copy_mapping_into(
    sub: &mut Catalog,
    catalog: &Catalog,
    peers: &[PeerId],
    mapping: MappingId,
) -> MappingId {
    let local_peer = |global: PeerId| {
        PeerId(
            peers
                .binary_search(&global)
                .expect("mapping endpoint belongs to the component"),
        )
    };
    let (source, target) = catalog.mapping_endpoints(mapping);
    let global = catalog.mapping(mapping);
    sub.add_mapping(local_peer(source), local_peer(target), |mut builder| {
        for (attribute, correspondence) in global.correspondences() {
            builder = match correspondence.expected {
                Some(expected) if expected == correspondence.target => {
                    builder.correct(attribute, correspondence.target)
                }
                Some(expected) => builder.erroneous(attribute, correspondence.target, expected),
                None => builder.unjudged(attribute, correspondence.target),
            };
        }
        builder
    })
}

/// Remaps the builder-provided prior store onto shard-local mapping ids.
fn remap_priors(seed: &ShardSeed, to_local_mapping: &BTreeMap<MappingId, MappingId>) -> PriorStore {
    let mut priors = PriorStore::with_default(seed.priors.default_prior());
    for (key, p) in seed.priors.snapshot() {
        if let Some(&local) = to_local_mapping.get(&key.mapping) {
            priors.set_initial(
                VariableKey {
                    mapping: local,
                    attribute: key.attribute,
                },
                p,
            );
        }
    }
    priors
}

/// Builds one shard cold from the global catalog: the sub-catalog replicates the
/// component's peers (ascending global id) and live mappings (ascending global
/// mapping id), which makes shard-local enumeration order-isomorphic to the global
/// one restricted to the component.
fn build_shard(catalog: &Catalog, peers: &[PeerId], seed: &ShardSeed) -> Shard {
    let mut sub = build_sub_peers(catalog, peers);
    let mut to_global_mapping = Vec::new();
    let mut to_local_mapping = BTreeMap::new();
    for mapping in catalog.mappings() {
        let (source, _) = catalog.mapping_endpoints(mapping);
        if peers.binary_search(&source).is_err() {
            continue;
        }
        let local = copy_mapping_into(&mut sub, catalog, peers, mapping);
        debug_assert_eq!(local.0, to_global_mapping.len());
        to_global_mapping.push(mapping);
        to_local_mapping.insert(mapping, local);
    }
    let priors = remap_priors(seed, &to_local_mapping);
    let session = EngineBuilder::new()
        .analysis(seed.analysis.clone())
        .granularity(seed.granularity)
        .delta(seed.delta)
        .backend_arc(seed.backend.clone())
        .priors(priors)
        .build(sub);
    Shard {
        peers: peers.to_vec(),
        session,
        to_global_mapping,
        to_local_mapping,
    }
}

/// Assembles one component's shard **warm** from donor shards.
///
/// The merged sub-catalog is built exactly like a cold shard's (peers and live
/// mappings ascending by global id), but the expensive pipeline never runs:
///
/// 1. the donors' cached evidence analyses are remapped onto the merged local ids
///    ([`splice_donor_analysis`] — a merge keeps every donor path, a split keeps
///    exactly the surviving side's, removals drop only the paths through the dead
///    mapping);
/// 2. the mappings this batch added are appended **one at a time** against the
///    growing topology mirror and searched with the targeted per-edge DFS — the
///    same sequential semantics as per-event application, so evidence through
///    several new edges is discovered exactly once, and the only enumeration paid
///    is the bridge's neighborhood;
/// 3. evidence through edited mappings is re-observed in place;
/// 4. inference warm-starts from the donors' converged posteriors — only
///    variables on bridging or edited mappings restart from the unit message,
///    mirroring [`EngineSession::apply`]'s warm-start rule — so the message
///    passing re-activates only around the new evidence.
///
/// Returns the shard and the number of evidence paths the bridge searches found.
fn splice_shard(
    catalog: &Catalog,
    peers: &[PeerId],
    donors: &[&Shard],
    new_mappings: &[MappingId],
    edited: &[MappingId],
    seed: &ShardSeed,
) -> (Shard, usize) {
    let new_set: BTreeSet<MappingId> = new_mappings.iter().copied().collect();
    let mut sub = build_sub_peers(catalog, peers);
    let mut to_global_mapping = Vec::new();
    let mut to_local_mapping = BTreeMap::new();
    // Pre-existing live mappings first, ascending global id. The batch's new
    // mappings hold the highest global ids of all live mappings, so appending
    // them afterwards (also ascending) reproduces the exact slot assignment a
    // cold build would produce.
    for mapping in catalog.mappings() {
        let (source, _) = catalog.mapping_endpoints(mapping);
        if peers.binary_search(&source).is_err() || new_set.contains(&mapping) {
            continue;
        }
        let local = copy_mapping_into(&mut sub, catalog, peers, mapping);
        debug_assert_eq!(local.0, to_global_mapping.len());
        to_global_mapping.push(mapping);
        to_local_mapping.insert(mapping, local);
    }
    let mut topology = build_topology(&sub);
    let mut analysis = CycleAnalysis::default();
    for donor in donors {
        splice_donor_analysis(&mut analysis, donor, peers, &to_local_mapping);
    }
    let mut evidence_added = 0usize;
    let mut new_locals: Vec<MappingId> = Vec::with_capacity(new_mappings.len());
    for &global in new_mappings {
        let local = copy_mapping_into(&mut sub, catalog, peers, global);
        let (source, target) = sub.mapping_endpoints(local);
        let edge = topology.add_edge(NodeId(source.0), NodeId(target.0));
        debug_assert_eq!(edge.0, local.0, "mirror edge ids = mapping ids");
        debug_assert_eq!(local.0, to_global_mapping.len());
        to_global_mapping.push(global);
        to_local_mapping.insert(global, local);
        let delta = analysis.add_mapping_incremental_in(&sub, &topology, local, &seed.analysis);
        evidence_added += delta.evidences_added;
        new_locals.push(local);
    }
    let edited_locals: Vec<MappingId> = edited
        .iter()
        .filter_map(|m| to_local_mapping.get(m).copied())
        .collect();
    if !edited_locals.is_empty() {
        analysis.reobserve_mappings(&sub, &edited_locals);
    }
    // Warm state: every surviving donor variable that is not on a bridging or
    // edited mapping carries its converged posterior over.
    let restart: BTreeSet<MappingId> = new_locals
        .iter()
        .chain(edited_locals.iter())
        .copied()
        .collect();
    let mut warm: BTreeMap<VariableKey, f64> = BTreeMap::new();
    for donor in donors {
        for (key, p) in donor.session.variable_posteriors() {
            let global = donor.to_global_mapping[key.mapping.0];
            let Some(&local) = to_local_mapping.get(&global) else {
                continue; // removed, or stranded on the other side of a split
            };
            if restart.contains(&local) {
                continue;
            }
            warm.insert(
                VariableKey {
                    mapping: local,
                    attribute: key.attribute,
                },
                p,
            );
        }
    }
    let priors = remap_priors(seed, &to_local_mapping);
    let session = EngineSession::from_spliced_parts(
        seed.analysis.clone(),
        seed.granularity,
        seed.delta,
        seed.backend.clone(),
        priors,
        SplicedParts {
            catalog: sub,
            topology,
            analysis,
            warm,
        },
    );
    (
        Shard {
            peers: peers.to_vec(),
            session,
            to_global_mapping,
            to_local_mapping,
        },
        evidence_added,
    )
}

/// Appends one donor's surviving evidence paths (and their observations) to a
/// spliced analysis, remapped onto the merged shard's local identifiers.
///
/// An evidence path survives iff every one of its mappings is still live and
/// inside the new component: a merge keeps every donor path verbatim, a split
/// keeps exactly the paths whose mappings all stayed on this side (evidence is a
/// connected subgraph, so it can never straddle the cut), and paths through a
/// removed mapping are dropped — the same invalidation
/// [`CycleAnalysis::remove_mapping_incremental`] performs, expressed as a filter.
fn splice_donor_analysis(
    analysis: &mut CycleAnalysis,
    donor: &Shard,
    peers: &[PeerId],
    to_local_mapping: &BTreeMap<MappingId, MappingId>,
) {
    let donor_analysis = donor.session.analysis();
    let remap_mapping = |donor_local: MappingId| -> Option<MappingId> {
        to_local_mapping
            .get(&donor.to_global_mapping[donor_local.0])
            .copied()
    };
    let remap_peer = |donor_local: PeerId| -> PeerId {
        PeerId(
            peers
                .binary_search(&donor.peers[donor_local.0])
                .expect("peers of surviving evidence lie in the component"),
        )
    };
    // Donor observations grouped per evidence: incremental donor churn appends
    // re-observations out of evidence order, and the splice re-normalises to the
    // grouped-by-evidence shape a cold analysis produces.
    let mut obs_of: Vec<Vec<&FeedbackObservation>> =
        vec![Vec::new(); donor_analysis.evidences.len()];
    for observation in &donor_analysis.observations {
        obs_of[observation.evidence].push(observation);
    }
    for evidence in &donor_analysis.evidences {
        let Some(mappings) = evidence
            .mappings
            .iter()
            .map(|m| remap_mapping(*m))
            .collect::<Option<Vec<MappingId>>>()
        else {
            continue;
        };
        let id = analysis.evidences.len();
        let source = match evidence.source {
            EvidenceSource::Cycle { origin } => EvidenceSource::Cycle {
                origin: remap_peer(origin),
            },
            EvidenceSource::ParallelPaths {
                source,
                destination,
            } => EvidenceSource::ParallelPaths {
                source: remap_peer(source),
                destination: remap_peer(destination),
            },
        };
        analysis.evidences.push(EvidencePath {
            id,
            source,
            mappings,
            split: evidence.split,
        });
        for observation in &obs_of[evidence.id] {
            analysis.observations.push(FeedbackObservation {
                evidence: id,
                origin_attribute: observation.origin_attribute,
                feedback: observation.feedback,
                steps: observation
                    .steps
                    .iter()
                    .map(|(m, a)| {
                        (
                            remap_mapping(*m).expect("observation steps stay within the evidence"),
                            *a,
                        )
                    })
                    .collect(),
                dropped_by: observation
                    .dropped_by
                    .map(|m| remap_mapping(m).expect("dropping mapping stays within the evidence")),
            });
        }
    }
}

/// Re-targets a correspondence-level event at a shard-local mapping id.
fn retarget_mapping_event(event: &NetworkEvent, local: MappingId) -> NetworkEvent {
    match event {
        NetworkEvent::Corrupt {
            attribute,
            wrong_target,
            ..
        } => NetworkEvent::Corrupt {
            mapping: local,
            attribute: *attribute,
            wrong_target: *wrong_target,
        },
        NetworkEvent::Repair { attribute, .. } => NetworkEvent::Repair {
            mapping: local,
            attribute: *attribute,
        },
        NetworkEvent::Drop { attribute, .. } => NetworkEvent::Drop {
            mapping: local,
            attribute: *attribute,
        },
        other => unreachable!("not a correspondence-level event: {other:?}"),
    }
}
