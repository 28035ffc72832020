//! Discovery of evidence paths (cycles and parallel paths) and feedback extraction.
//!
//! The analysis mirrors what the peers of a real PDMS would do with TTL-bounded probe
//! messages (Section 3.2.1): enumerate the mapping cycles and, in the directed case,
//! the pairs of edge-disjoint parallel paths, then push every attribute of the origin
//! schema through the transitive closure of the mappings involved and compare.
//!
//! The directed reading is used throughout: as the paper observes (end of Section 3.3),
//! undirected and directed mapping networks produce structurally identical factor
//! graphs, an undirected cycle simply showing up as either a directed cycle or a pair
//! of parallel paths depending on the edge orientations.

use crate::feedback::{Feedback, FeedbackObservation};
use pdms_graph::{
    cycles_through_edge, effective_parallelism, enumerate_cycles_scheduled,
    enumerate_parallel_paths_scheduled, parallel_paths_through_edge, DiGraph, EdgeId, NodeId,
};
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};

/// Where an evidence path comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceSource {
    /// A directed mapping cycle; feedback is evaluated from `origin`'s schema.
    Cycle {
        /// The peer at which the cycle starts and ends.
        origin: PeerId,
    },
    /// A pair of edge-disjoint directed paths sharing source and destination.
    ParallelPaths {
        /// Common source peer (whose schema provides the compared attributes).
        source: PeerId,
        /// Common destination peer (where the two translations are compared).
        destination: PeerId,
    },
}

/// One structural evidence path: the mappings of a cycle, or of both branches of a
/// parallel-path pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidencePath {
    /// Index of this evidence within the analysis.
    pub id: usize,
    /// Cycle or parallel paths.
    pub source: EvidenceSource,
    /// For a cycle: the mappings in traversal order. For parallel paths: the left
    /// branch followed by the right branch (see `split` for the boundary).
    pub mappings: Vec<MappingId>,
    /// For parallel paths, the number of mappings belonging to the left branch;
    /// `None` for cycles.
    pub split: Option<usize>,
}

impl EvidencePath {
    /// Number of mappings involved.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// True when the path involves no mapping (never produced by the analysis).
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// True if the evidence involves the given mapping.
    pub fn contains(&self, mapping: MappingId) -> bool {
        self.mappings.contains(&mapping)
    }
}

/// Configuration of the analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Maximum cycle length considered (the probe TTL). Section 5.1.2 argues 5–10 is
    /// enough in practice because longer cycles carry almost no evidence.
    pub max_cycle_len: usize,
    /// Maximum length of each branch of a parallel-path pair.
    pub max_path_len: usize,
    /// Also enumerate parallel paths (directed networks). Disable for workloads that
    /// only want cycle feedback.
    pub include_parallel_paths: bool,
    /// Worker threads for the full cycle / parallel-path enumerations: `0` = auto
    /// (every available core), `1` = serial, `n` = exactly `n` workers. Results
    /// are identical at every setting — each origin is one task and the merge runs
    /// in deterministic origin order (see [`pdms_graph::effective_parallelism`]).
    pub parallelism: usize,
    /// Unused: each origin is one enumeration task. Kept so existing struct
    /// literals build.
    pub heavy_origin_threshold: usize,
    /// Unused: each origin is one enumeration task. Kept so existing struct
    /// literals build.
    pub steal_granularity: usize,
    /// Worker threads a [`crate::sharding::ShardedSession`] dispatches its
    /// component shards over: `0` = auto (every available core), `1` = serial,
    /// `n` = exactly `n` workers. Distinct from [`AnalysisConfig::parallelism`],
    /// which fans out *within* one enumeration. Scheduling only — per-shard
    /// results merge by global mapping id, so posteriors are identical at every
    /// setting. Ignored by non-sharded sessions.
    pub shard_parallelism: usize,
    /// Ingestion batch size of a [`crate::sharding::ShardedSession`]: event slices
    /// longer than this are split into consecutive batches of at most this many
    /// events, each triggering one inference pass per touched shard. `0` = one
    /// batch per submitted slice. Ignored by non-sharded sessions.
    pub batch_size: usize,
    /// Warm shard splicing of a [`crate::sharding::ShardedSession`]: on a component
    /// merge or split, splice the donor shards' cached analyses and converged
    /// posteriors into the new shard — searching only the evidence through the
    /// bridging mappings — instead of rebuilding the touched shards cold. `None`
    /// = on, `Some(v)` pins it. The knob never changes results (exact evidence
    /// sets; posteriors within the warm-restart ulp envelope, bit-identical on
    /// cold comparison points — see `docs/SHARDING.md`); it exists as a cost
    /// comparison and fallback. Ignored by non-sharded sessions.
    pub splice: Option<bool>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            max_cycle_len: 6,
            max_path_len: 4,
            include_parallel_paths: true,
            parallelism: 0,
            heavy_origin_threshold: 0,
            steal_granularity: 0,
            shard_parallelism: 0,
            batch_size: 0,
            splice: None,
        }
    }
}

/// The result of analysing a catalog: the evidence paths and, per evidence and per
/// origin attribute, the feedback observation.
#[derive(Debug, Clone, Default)]
pub struct CycleAnalysis {
    /// All structural evidence paths found.
    pub evidences: Vec<EvidencePath>,
    /// All per-attribute observations (positive, negative and neutral).
    pub observations: Vec<FeedbackObservation>,
}

impl CycleAnalysis {
    /// Runs the analysis over a catalog.
    ///
    /// The cycle and parallel-path enumerations fan out across
    /// [`AnalysisConfig::parallelism`] workers, resolved once for both; the merge
    /// order is deterministic, so evidence ids do not depend on the worker count.
    pub fn analyze(catalog: &Catalog, config: &AnalysisConfig) -> Self {
        let graph = build_topology(catalog);
        let workers = effective_parallelism(config.parallelism);
        let mut evidences = Vec::new();
        // Directed cycles. Edge ids and mapping ids coincide by construction.
        for cycle in enumerate_cycles_scheduled(&graph, config.max_cycle_len, workers) {
            let origin = PeerId(cycle.nodes[0].0);
            evidences.push(EvidencePath {
                id: evidences.len(),
                source: EvidenceSource::Cycle { origin },
                mappings: cycle.edges.iter().map(|e| MappingId(e.0)).collect(),
                split: None,
            });
        }
        if config.include_parallel_paths {
            for pp in enumerate_parallel_paths_scheduled(&graph, config.max_path_len, workers) {
                let mut mappings: Vec<MappingId> = pp.left.iter().map(|e| MappingId(e.0)).collect();
                let split = mappings.len();
                mappings.extend(pp.right.iter().map(|e| MappingId(e.0)));
                evidences.push(EvidencePath {
                    id: evidences.len(),
                    source: EvidenceSource::ParallelPaths {
                        source: PeerId(pp.source.0),
                        destination: PeerId(pp.destination.0),
                    },
                    mappings,
                    split: Some(split),
                });
            }
        }
        let mut observations = Vec::new();
        for evidence in &evidences {
            observations.extend(observe(catalog, evidence));
        }
        Self {
            evidences,
            observations,
        }
    }

    /// Observations that carry information (positive or negative feedback).
    pub fn informative_observations(&self) -> impl Iterator<Item = &FeedbackObservation> {
        self.observations
            .iter()
            .filter(|o| o.feedback.is_informative())
    }

    /// Evidence paths through a given mapping.
    pub fn evidences_through(&self, mapping: MappingId) -> Vec<&EvidencePath> {
        self.evidences
            .iter()
            .filter(|e| e.contains(mapping))
            .collect()
    }

    /// Counts of (positive, negative, neutral) observations.
    pub fn feedback_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for o in &self.observations {
            match o.feedback {
                Feedback::Positive => counts.0 += 1,
                Feedback::Negative => counts.1 += 1,
                Feedback::Neutral => counts.2 += 1,
            }
        }
        counts
    }

    /// Incorporates a mapping just added to `catalog` without re-enumerating the whole
    /// network: only the cycles and parallel-path pairs through the new mapping's edge
    /// are searched (every other evidence path is untouched — an edge addition cannot
    /// create or destroy evidence that does not use it).
    ///
    /// `graph` must mirror `catalog` exactly — one edge per mapping slot, edge ids
    /// equal to mapping ids, tombstoned mappings as tombstoned edges — and already
    /// contain the edge of `mapping`. [`build_topology`] produces such a mirror from
    /// scratch; an [`crate::session::EngineSession`] keeps one alive across events
    /// so each `AddMapping` costs only the targeted search, not a topology rebuild.
    pub fn add_mapping_incremental_in(
        &mut self,
        catalog: &Catalog,
        graph: &DiGraph,
        mapping: MappingId,
        config: &AnalysisConfig,
    ) -> AnalysisDelta {
        // The invariant targeted searches rely on is *id alignment*: one edge slot
        // per mapping slot, tombstones included. Live counts may legitimately
        // differ transiently — a batch-coalesced add/remove pair tombstones its
        // mirror edge while the catalog still counts the mapping live until the
        // removal event is reached.
        debug_assert_eq!(
            graph.edge_slot_count(),
            catalog.mapping_slot_count(),
            "topology mirror out of sync with the catalog"
        );
        let edge = EdgeId(mapping.0);
        let reused = self.evidences.len();
        for cycle in cycles_through_edge(graph, edge, config.max_cycle_len) {
            let origin = PeerId(cycle.nodes[0].0);
            self.evidences.push(EvidencePath {
                id: self.evidences.len(),
                source: EvidenceSource::Cycle { origin },
                mappings: cycle.edges.iter().map(|e| MappingId(e.0)).collect(),
                split: None,
            });
        }
        if config.include_parallel_paths {
            for pp in parallel_paths_through_edge(graph, edge, config.max_path_len) {
                let mut mappings: Vec<MappingId> = pp.left.iter().map(|e| MappingId(e.0)).collect();
                let split = mappings.len();
                mappings.extend(pp.right.iter().map(|e| MappingId(e.0)));
                self.evidences.push(EvidencePath {
                    id: self.evidences.len(),
                    source: EvidenceSource::ParallelPaths {
                        source: PeerId(pp.source.0),
                        destination: PeerId(pp.destination.0),
                    },
                    mappings,
                    split: Some(split),
                });
            }
        }
        let added = self.evidences.len() - reused;
        for evidence in &self.evidences[reused..] {
            self.observations.extend(observe(catalog, evidence));
        }
        AnalysisDelta {
            evidences_added: added,
            evidences_removed: 0,
            evidences_reobserved: 0,
            evidences_reused: reused,
        }
    }

    /// Drops every evidence path using a removed mapping, compacting evidence ids (an
    /// edge removal cannot affect evidence that does not use it).
    pub fn remove_mapping_incremental(&mut self, mapping: MappingId) -> AnalysisDelta {
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.evidences.len());
        let mut kept = 0usize;
        for evidence in &self.evidences {
            if evidence.contains(mapping) {
                remap.push(None);
            } else {
                remap.push(Some(kept));
                kept += 1;
            }
        }
        let removed = self.evidences.len() - kept;
        if removed == 0 {
            return AnalysisDelta {
                evidences_added: 0,
                evidences_removed: 0,
                evidences_reobserved: 0,
                evidences_reused: kept,
            };
        }
        self.evidences.retain(|e| remap[e.id].is_some());
        for evidence in &mut self.evidences {
            evidence.id = remap[evidence.id].expect("retained evidence has a slot");
        }
        self.observations.retain(|o| remap[o.evidence].is_some());
        for observation in &mut self.observations {
            observation.evidence = remap[observation.evidence].expect("retained observation");
        }
        AnalysisDelta {
            evidences_added: 0,
            evidences_removed: removed,
            evidences_reobserved: 0,
            evidences_reused: kept,
        }
    }

    /// Recomputes the observations of every evidence path through the mappings whose
    /// correspondences changed (corruption, repair, or a dropped correspondence). The
    /// evidence structure itself is untouched: correspondence edits do not change the
    /// network topology. An evidence path through several changed mappings is
    /// re-observed exactly once.
    pub fn reobserve_mappings(
        &mut self,
        catalog: &Catalog,
        mappings: &[MappingId],
    ) -> AnalysisDelta {
        let affected: Vec<usize> = self
            .evidences
            .iter()
            .filter(|e| mappings.iter().any(|m| e.contains(*m)))
            .map(|e| e.id)
            .collect();
        if affected.is_empty() {
            return AnalysisDelta {
                evidences_added: 0,
                evidences_removed: 0,
                evidences_reobserved: 0,
                evidences_reused: self.evidences.len(),
            };
        }
        let affected_set: std::collections::BTreeSet<usize> = affected.iter().copied().collect();
        self.observations
            .retain(|o| !affected_set.contains(&o.evidence));
        for &id in &affected {
            let fresh = observe(catalog, &self.evidences[id]);
            self.observations.extend(fresh);
        }
        AnalysisDelta {
            evidences_added: 0,
            evidences_removed: 0,
            evidences_reobserved: affected.len(),
            evidences_reused: self.evidences.len() - affected.len(),
        }
    }
}

/// What one incremental analysis update did — the bookkeeping behind the session's
/// maintenance statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisDelta {
    /// Evidence paths newly discovered (through an added mapping).
    pub evidences_added: usize,
    /// Evidence paths dropped (through a removed mapping).
    pub evidences_removed: usize,
    /// Evidence paths whose observations were recomputed in place.
    pub evidences_reobserved: usize,
    /// Evidence paths left completely untouched.
    pub evidences_reused: usize,
}

impl AnalysisDelta {
    /// Merges the added/removed/re-observed counters of two consecutive updates.
    ///
    /// `evidences_reused` is deliberately left untouched: each update measures it
    /// against a different evidence total, so no pairwise combination of the two
    /// values is meaningful. Callers merging deltas across a batch must recount the
    /// untouched evidence at the end (as [`crate::session::EngineSession::apply`]
    /// does).
    pub fn merge(&mut self, other: AnalysisDelta) {
        self.evidences_added += other.evidences_added;
        self.evidences_removed += other.evidences_removed;
        self.evidences_reobserved += other.evidences_reobserved;
    }
}

/// Builds the mapping-network topology of a catalog. Edge ids coincide with mapping
/// ids: every mapping slot becomes an edge, and tombstoned (removed) mappings become
/// tombstoned edges, so the alignment survives network evolution.
pub fn build_topology(catalog: &Catalog) -> DiGraph {
    let mut graph = DiGraph::with_nodes(catalog.peer_count());
    for slot in 0..catalog.mapping_slot_count() {
        let mapping = MappingId(slot);
        let (source, target) = catalog.mapping_endpoints(mapping);
        let edge = graph.add_edge(NodeId(source.0), NodeId(target.0));
        debug_assert_eq!(edge.0, mapping.0, "edge ids must mirror mapping ids");
        if catalog.is_mapping_removed(mapping) {
            graph.remove_edge(edge);
        }
    }
    graph
}

/// Computes the feedback observations of one evidence path, one per attribute of the
/// origin schema.
fn observe(catalog: &Catalog, evidence: &EvidencePath) -> Vec<FeedbackObservation> {
    match evidence.source {
        EvidenceSource::Cycle { origin } => observe_cycle(catalog, evidence, origin),
        EvidenceSource::ParallelPaths { source, .. } => observe_parallel(catalog, evidence, source),
    }
}

/// Pushes `attribute` through a chain of mappings, recording `(mapping, input)` steps.
/// Returns the steps plus the final attribute (or `None` if dropped, with the dropping
/// mapping recorded as the last step).
fn push_through(
    catalog: &Catalog,
    chain: &[MappingId],
    attribute: AttributeId,
) -> (Vec<(MappingId, AttributeId)>, Option<AttributeId>) {
    let mut steps = Vec::with_capacity(chain.len());
    let mut current = attribute;
    for &mapping_id in chain {
        let mapping = catalog.mapping(mapping_id);
        steps.push((mapping_id, current));
        match mapping.apply(current) {
            Some(next) => current = next,
            None => return (steps, None),
        }
    }
    (steps, Some(current))
}

fn observe_cycle(
    catalog: &Catalog,
    evidence: &EvidencePath,
    origin: PeerId,
) -> Vec<FeedbackObservation> {
    let schema = catalog.peer_schema(origin);
    let mut out = Vec::with_capacity(schema.attribute_count());
    for attr in schema.attributes() {
        let (steps, returned) = push_through(catalog, &evidence.mappings, attr.id);
        let feedback = Feedback::from_comparison(attr.id, returned);
        let dropped_by = if returned.is_none() {
            steps.last().map(|(m, _)| *m)
        } else {
            None
        };
        out.push(FeedbackObservation {
            evidence: evidence.id,
            origin_attribute: attr.id,
            feedback,
            steps,
            dropped_by,
        });
    }
    out
}

fn observe_parallel(
    catalog: &Catalog,
    evidence: &EvidencePath,
    source: PeerId,
) -> Vec<FeedbackObservation> {
    let split = evidence.split.expect("parallel evidence has a split point");
    let (left, right) = evidence.mappings.split_at(split);
    let schema = catalog.peer_schema(source);
    let mut out = Vec::with_capacity(schema.attribute_count());
    for attr in schema.attributes() {
        let (left_steps, left_result) = push_through(catalog, left, attr.id);
        let (right_steps, right_result) = push_through(catalog, right, attr.id);
        let feedback = Feedback::from_parallel(left_result, right_result);
        let mut steps = left_steps;
        steps.extend(right_steps);
        let dropped_by = match (left_result, right_result) {
            (None, _) | (_, None) => steps.last().map(|(m, _)| *m),
            _ => None,
        };
        // For neutral parallel feedback the dropping mapping is whichever branch ended
        // early; recompute it precisely.
        let dropped_by = if feedback == Feedback::Neutral {
            if left_result.is_none() {
                left.get(steps.len().min(left.len()).saturating_sub(1))
                    .copied()
                    .or(dropped_by)
            } else {
                dropped_by
            }
        } else {
            None
        };
        out.push(FeedbackObservation {
            evidence: evidence.id,
            origin_attribute: attr.id,
            feedback,
            steps,
            dropped_by,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_schema::AttributeId;

    /// A three-peer directed ring where every schema has two attributes and every
    /// mapping is correct for attribute 0 but drops attribute 1 at the last hop.
    fn ring_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        for i in 0..3 {
            let from = peers[i];
            let to = peers[(i + 1) % 3];
            cat.add_mapping(from, to, |m| {
                let m = m.correct(AttributeId(0), AttributeId(0));
                if i < 2 {
                    m.correct(AttributeId(1), AttributeId(1))
                } else {
                    m
                }
            });
        }
        cat
    }

    /// Ring where one mapping misroutes attribute 0 to attribute 1.
    fn faulty_ring_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        for i in 0..3 {
            let from = peers[i];
            let to = peers[(i + 1) % 3];
            cat.add_mapping(from, to, |m| {
                if i == 1 {
                    m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                } else {
                    m.correct(AttributeId(0), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                }
            });
        }
        cat
    }

    #[test]
    fn topology_mirrors_catalog() {
        let cat = ring_catalog();
        let g = build_topology(&cat);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn ring_produces_one_cycle_evidence() {
        let cat = ring_catalog();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        assert_eq!(analysis.evidences.len(), 1);
        assert_eq!(analysis.evidences[0].len(), 3);
        assert!(matches!(
            analysis.evidences[0].source,
            EvidenceSource::Cycle { .. }
        ));
    }

    #[test]
    fn correct_cycle_gives_positive_feedback_and_drop_gives_neutral() {
        let cat = ring_catalog();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let (pos, neg, neutral) = analysis.feedback_counts();
        // Attribute 0 survives the cycle (positive); attribute 1 is dropped by the last
        // mapping (neutral). One cycle, two attributes.
        assert_eq!((pos, neg, neutral), (1, 0, 1));
        let neutral_obs = analysis
            .observations
            .iter()
            .find(|o| o.feedback == Feedback::Neutral)
            .unwrap();
        assert_eq!(neutral_obs.dropped_by, Some(MappingId(2)));
    }

    #[test]
    fn faulty_mapping_produces_negative_feedback() {
        let cat = faulty_ring_catalog();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let (pos, neg, _neutral) = analysis.feedback_counts();
        // Attribute 0: the error at mapping 1 sends it to attribute 1, which then maps
        // to attribute 1 at the origin -> negative. Attribute 1 survives -> positive.
        assert_eq!(pos, 1);
        assert_eq!(neg, 1);
        let negative = analysis
            .observations
            .iter()
            .find(|o| o.feedback == Feedback::Negative)
            .unwrap();
        assert_eq!(negative.origin_attribute, AttributeId(0));
        assert_eq!(negative.steps.len(), 3);
        // The second step hands attribute 0 to the faulty mapping, the third step hands
        // the wrong attribute 1 onward.
        assert_eq!(negative.steps[1], (MappingId(1), AttributeId(0)));
        assert_eq!(negative.steps[2], (MappingId(2), AttributeId(1)));
    }

    #[test]
    fn parallel_paths_are_detected_in_diamond_topologies() {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta", "gamma"]);
                })
            })
            .collect();
        // p0 -> p1 -> p3 and p0 -> p2 -> p3, all correct for alpha.
        for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            cat.add_mapping(peers[a], peers[b], |m| {
                m.correct(AttributeId(0), AttributeId(0))
            });
        }
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let parallel: Vec<&EvidencePath> = analysis
            .evidences
            .iter()
            .filter(|e| matches!(e.source, EvidenceSource::ParallelPaths { .. }))
            .collect();
        assert_eq!(parallel.len(), 1);
        assert_eq!(parallel[0].len(), 4);
        // Alpha agrees on both branches -> positive; beta and gamma are dropped by the
        // very first mappings -> neutral.
        let obs: Vec<&FeedbackObservation> = analysis
            .observations
            .iter()
            .filter(|o| o.evidence == parallel[0].id)
            .collect();
        assert_eq!(obs.len(), 3);
        assert_eq!(
            obs.iter()
                .filter(|o| o.feedback == Feedback::Positive)
                .count(),
            1
        );
        assert_eq!(
            obs.iter()
                .filter(|o| o.feedback == Feedback::Neutral)
                .count(),
            2
        );
    }

    #[test]
    fn parallel_paths_disagreeing_give_negative_feedback() {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        // Two direct mappings p0 -> p1 that disagree on alpha, plus nothing else.
        cat.add_mapping(peers[0], peers[1], |m| {
            m.correct(AttributeId(0), AttributeId(0))
        });
        cat.add_mapping(peers[0], peers[1], |m| {
            m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
        });
        let _ = peers[2];
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let (pos, neg, _) = analysis.feedback_counts();
        assert_eq!(pos, 0);
        assert_eq!(neg, 1);
    }

    #[test]
    fn cycle_length_bound_is_respected() {
        let cat = ring_catalog();
        let analysis = CycleAnalysis::analyze(
            &cat,
            &AnalysisConfig {
                max_cycle_len: 2,
                ..Default::default()
            },
        );
        assert!(analysis.evidences.is_empty());
    }
}
