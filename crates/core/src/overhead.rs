//! Communication-overhead accounting for the message-passing schedules (Section 4.3).
//!
//! The paper bounds the cost of the periodic schedule at "a maximum of Σ_cᵢ (l_cᵢ − 1)
//! messages per peer every τ", where the sum ranges over the mapping cycles through the
//! peer and l_cᵢ is the cycle length; the paper's lazy schedule eliminates that
//! overhead entirely by piggybacking on query traffic. This module computes both the
//! paper's per-peer bound and the tighter count of per-neighbour batching (one message
//! per distinct remote peer per shared evidence factor), so the schedules can be
//! compared quantitatively (see the `exa_overhead` binary). `DecentralizedRun` batches
//! nothing and piggybacks nothing: under both schedules it sends one standalone belief
//! message per (slot, other position of the evidence).

use crate::cycle_analysis::CycleAnalysis;
use crate::local_graph::MappingModel;
use pdms_schema::{Catalog, PeerId};
use std::collections::BTreeSet;

/// Communication profile of one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerOverhead {
    /// The peer.
    pub peer: PeerId,
    /// Number of evidence paths (cycles or parallel paths) involving one of the peer's
    /// outgoing mappings.
    pub evidence_paths: usize,
    /// The paper's bound: Σ over those evidence paths of (length − 1).
    pub paper_bound_per_round: usize,
    /// Messages per round under per-neighbour batching: one per distinct remote peer
    /// sharing an evidence factor with this peer (deduplicated across factors — a
    /// single physical message can carry every belief destined to the same
    /// neighbour).
    pub distinct_remote_peers: usize,
}

/// Aggregate communication profile of a catalog under the different schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Per-peer profiles, indexed by peer id.
    pub peers: Vec<PeerOverhead>,
    /// Σ of the paper bound over all peers (upper bound on messages per periodic round).
    pub total_paper_bound: usize,
    /// Σ of the deduplicated per-peer counts (messages per periodic round under
    /// per-neighbour batching).
    pub total_messages_per_round: usize,
}

impl OverheadReport {
    /// Profile of one peer.
    pub fn peer(&self, peer: PeerId) -> &PeerOverhead {
        &self.peers[peer.0]
    }

    /// Mean messages per peer per round under the periodic schedule.
    pub fn mean_messages_per_peer(&self) -> f64 {
        if self.peers.is_empty() {
            0.0
        } else {
            self.total_messages_per_round as f64 / self.peers.len() as f64
        }
    }
}

/// Computes the communication profile of a catalog from its cycle analysis and the
/// probabilistic model built over it.
pub fn communication_overhead(
    catalog: &Catalog,
    analysis: &CycleAnalysis,
    model: &MappingModel,
) -> OverheadReport {
    let mut peers: Vec<PeerOverhead> = catalog
        .peers()
        .map(|peer| PeerOverhead {
            peer,
            evidence_paths: 0,
            paper_bound_per_round: 0,
            distinct_remote_peers: 0,
        })
        .collect();

    // The paper's bound, from the raw evidence paths.
    for evidence in &analysis.evidences {
        let mut involved: Vec<PeerId> = evidence
            .mappings
            .iter()
            .map(|m| catalog.mapping_endpoints(*m).0)
            .collect();
        involved.sort_unstable();
        involved.dedup();
        for peer in involved {
            peers[peer.0].evidence_paths += 1;
            peers[peer.0].paper_bound_per_round += evidence.len().saturating_sub(1);
        }
    }

    // The implementation's count, from the model: for each peer, the union of the other
    // owners across every evidence factor touching one of its variables — in one pass
    // over the evidences, each adding its owners to one another's sets.
    let mut remotes: Vec<BTreeSet<PeerId>> = vec![BTreeSet::new(); peers.len()];
    for evidence in 0..model.evidence_count() {
        let owners = model.peers_of_evidence(evidence);
        for &peer in &owners {
            remotes[peer.0].extend(owners.iter().filter(|&&other| other != peer));
        }
    }
    for (profile, remote) in peers.iter_mut().zip(&remotes) {
        profile.distinct_remote_peers = remote.len();
    }

    let total_paper_bound = peers.iter().map(|p| p.paper_bound_per_round).sum();
    let total_messages_per_round = peers.iter().map(|p| p.distinct_remote_peers).sum();
    OverheadReport {
        peers,
        total_paper_bound,
        total_messages_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::AnalysisConfig;
    use crate::local_graph::Granularity;
    use pdms_schema::AttributeId;

    /// A directed triangle: every peer sits on exactly one 3-cycle.
    fn triangle() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["x", "y", "z"]);
                })
            })
            .collect();
        for i in 0..3 {
            cat.add_mapping(peers[i], peers[(i + 1) % 3], |m| {
                m.correct(AttributeId(0), AttributeId(0))
            });
        }
        cat
    }

    fn analyse(cat: &Catalog) -> (CycleAnalysis, MappingModel) {
        let analysis = CycleAnalysis::analyze(cat, &AnalysisConfig::default());
        let model = MappingModel::build(cat, &analysis, Granularity::Fine, 0.1);
        (analysis, model)
    }

    #[test]
    fn triangle_matches_the_paper_formula() {
        let cat = triangle();
        let (analysis, model) = analyse(&cat);
        let report = communication_overhead(&cat, &analysis, &model);
        // One cycle of length 3 through every peer: bound = 3 − 1 = 2 per peer.
        for peer in &report.peers {
            assert_eq!(peer.evidence_paths, 1);
            assert_eq!(peer.paper_bound_per_round, 2);
            assert_eq!(peer.distinct_remote_peers, 2);
        }
        assert_eq!(report.total_paper_bound, 6);
        assert_eq!(report.total_messages_per_round, 6);
        assert!((report.mean_messages_per_peer() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deduplication_makes_the_implementation_count_no_larger_than_the_bound() {
        // The intro-style network with overlapping cycles: the same neighbour appears in
        // several cycles, so the deduplicated count is strictly below the paper bound.
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["x"]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| m.correct(AttributeId(0), AttributeId(0));
        cat.add_mapping(peers[0], peers[1], correct);
        cat.add_mapping(peers[1], peers[2], correct);
        cat.add_mapping(peers[2], peers[3], correct);
        cat.add_mapping(peers[3], peers[0], correct);
        cat.add_mapping(peers[1], peers[3], correct);
        let (analysis, model) = analyse(&cat);
        let report = communication_overhead(&cat, &analysis, &model);
        for peer in &report.peers {
            assert!(
                peer.distinct_remote_peers <= peer.paper_bound_per_round,
                "{:?}",
                peer
            );
        }
        assert!(report.total_messages_per_round < report.total_paper_bound);
        // Peer p1 sits on two cycles and one parallel path; it talks to every other peer.
        assert_eq!(report.peer(PeerId(1)).distinct_remote_peers, 3);
    }

    #[test]
    fn acyclic_catalogs_need_no_messages() {
        let mut cat = Catalog::new();
        let a = cat.add_peer_with_schema("a", |s| {
            s.attributes(["x"]);
        });
        let b = cat.add_peer_with_schema("b", |s| {
            s.attributes(["x"]);
        });
        cat.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
        let (analysis, model) = analyse(&cat);
        let report = communication_overhead(&cat, &analysis, &model);
        assert_eq!(report.total_paper_bound, 0);
        assert_eq!(report.total_messages_per_round, 0);
        assert_eq!(report.mean_messages_per_peer(), 0.0);
    }
}
