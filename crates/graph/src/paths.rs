//! Enumeration of parallel mapping paths in directed PDMS networks.
//!
//! In a directed mapping network two edge-disjoint directed paths that share the same
//! source and destination peer ("parallel paths", Section 3.3) play the role that
//! undirected cycles play in the undirected case: the destination peer receives the
//! same query through both paths and can compare the two translations, producing
//! positive, negative or neutral feedback on the union of the mappings involved.

use crate::adjacency::{DiGraph, EdgeId, NodeId};
use crate::parallelism::{effective_parallelism, run_stealing};
use std::collections::{BTreeMap, HashSet};

/// A pair of edge-disjoint directed paths with common endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParallelPaths {
    /// Common source peer.
    pub source: NodeId,
    /// Common destination peer.
    pub destination: NodeId,
    /// First path, as an ordered list of edges.
    pub left: Vec<EdgeId>,
    /// Second path, as an ordered list of edges.
    pub right: Vec<EdgeId>,
}

impl ParallelPaths {
    /// Total number of mappings involved (both paths).
    pub fn mapping_count(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// All edges of both paths.
    pub fn all_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.left.iter().chain(self.right.iter()).copied()
    }

    /// True if either path uses the given edge.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.left.contains(&edge) || self.right.contains(&edge)
    }

    fn canonical_key(&self) -> (NodeId, NodeId, Vec<EdgeId>, Vec<EdgeId>) {
        let mut a = self.left.clone();
        let mut b = self.right.clone();
        if b < a {
            std::mem::swap(&mut a, &mut b);
        }
        (self.source, self.destination, a, b)
    }
}

/// Enumerates all simple directed paths from `source` of length `1..=max_len`.
///
/// Returns `(destination, edge path)` tuples. Paths do not revisit nodes.
pub fn simple_paths_from(
    graph: &DiGraph,
    source: NodeId,
    max_len: usize,
) -> Vec<(NodeId, Vec<EdgeId>)> {
    let mut out = Vec::new();
    if !graph.contains_node(source) {
        return out;
    }
    let mut on_path = vec![false; graph.node_count()];
    on_path[source.0] = true;
    paths_rec(
        graph,
        source,
        max_len,
        &mut Vec::new(),
        &mut on_path,
        &mut out,
    );
    out
}

fn paths_rec(
    graph: &DiGraph,
    current: NodeId,
    remaining: usize,
    path: &mut Vec<EdgeId>,
    on_path: &mut [bool],
    out: &mut Vec<(NodeId, Vec<EdgeId>)>,
) {
    if remaining == 0 {
        return;
    }
    for e in graph.outgoing(current) {
        if on_path[e.target.0] || path.contains(&e.id) {
            continue;
        }
        path.push(e.id);
        out.push((e.target, path.clone()));
        on_path[e.target.0] = true;
        paths_rec(graph, e.target, remaining - 1, path, on_path, out);
        on_path[e.target.0] = false;
        path.pop();
    }
}

/// Enumerates pairs of edge-disjoint parallel paths between every (source, destination)
/// pair, with each individual path of length at most `max_len`.
///
/// Pairs are deduplicated (the pair `{A, B}` equals `{B, A}`). Two paths that share an
/// edge are not reported: feedback over them would not be independent evidence for the
/// shared mapping. Paths of length 1 (a direct mapping) are allowed — comparing a direct
/// mapping with a two-hop route is exactly the `f3⇒ : m21 ∥ m24→m41` case of Figure 5.
pub fn enumerate_parallel_paths(graph: &DiGraph, max_len: usize) -> Vec<ParallelPaths> {
    collect_parallel_paths(graph, graph.nodes(), max_len, None)
}

/// [`enumerate_parallel_paths`] across `parallelism` workers (`0` = every
/// available core).
///
/// Each source is one task — enumerate its simple paths, then pair them — and idle
/// workers take the next source from one shared injector ([`run_stealing`]). The
/// per-source results are merged in source order with the serial deduplication, so
/// contents *and* order are bit-identical at every worker count.
pub fn enumerate_parallel_paths_scheduled(
    graph: &DiGraph,
    max_len: usize,
    parallelism: usize,
) -> Vec<ParallelPaths> {
    let workers = effective_parallelism(parallelism).min(graph.node_count().max(1));
    if workers <= 1 {
        return enumerate_parallel_paths(graph, max_len);
    }
    let sources: Vec<NodeId> = graph.nodes().collect();
    dedup_merge(run_stealing(workers, sources.len(), |i| {
        pairs_from_source(graph, sources[i], max_len, None)
    }))
}

/// Merges per-source candidate groups in order, deduplicating by canonical key —
/// the single definition of the merge rule shared by the serial collection and the
/// parallel fan-out (both must dedup identically or evidence ids drift).
fn dedup_merge(groups: impl IntoIterator<Item = Vec<ParallelPaths>>) -> Vec<ParallelPaths> {
    let mut found = Vec::new();
    let mut seen: HashSet<(NodeId, NodeId, Vec<EdgeId>, Vec<EdgeId>)> = HashSet::new();
    for group in groups {
        for pp in group {
            if seen.insert(pp.canonical_key()) {
                found.push(pp);
            }
        }
    }
    found
}

/// All edge-disjoint pairs rooted at one source, in deterministic (destination,
/// discovery) order — the per-worker unit of the enumeration. Destinations are
/// grouped in a `BTreeMap` so the order never depends on hash seeding: evidence ids
/// derived from this enumeration must be reproducible across runs and worker counts.
/// Within a destination group every `i < j` pair of edge-disjoint paths is reported
/// in discovery order, optionally filtered to pairs using `required_edge`.
fn pairs_from_source(
    graph: &DiGraph,
    source: NodeId,
    max_len: usize,
    required_edge: Option<EdgeId>,
) -> Vec<ParallelPaths> {
    let paths = simple_paths_from(graph, source, max_len);
    let mut by_dest: BTreeMap<NodeId, Vec<&Vec<EdgeId>>> = BTreeMap::new();
    for (dest, path) in &paths {
        if *dest == source {
            continue; // that's a cycle, handled elsewhere
        }
        by_dest.entry(*dest).or_default().push(path);
    }
    let mut out = Vec::new();
    for (dest, group) in by_dest {
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                let a = group[i];
                let b = group[j];
                if let Some(edge) = required_edge {
                    if !a.contains(&edge) && !b.contains(&edge) {
                        continue;
                    }
                }
                if a.iter().any(|e| b.contains(e)) {
                    continue; // must be edge-disjoint
                }
                out.push(ParallelPaths {
                    source,
                    destination: dest,
                    left: a.clone(),
                    right: b.clone(),
                });
            }
        }
    }
    out
}

/// The shared pairing core of [`enumerate_parallel_paths`] and
/// [`parallel_paths_through_edge`]: both entry points must group, pair, filter and
/// deduplicate identically — the incremental/batch equivalence of the evidence
/// analysis depends on it — so the rules live in exactly one place
/// ([`pairs_from_source`] + [`dedup_merge`]).
fn collect_parallel_paths(
    graph: &DiGraph,
    sources: impl Iterator<Item = NodeId>,
    max_len: usize,
    required_edge: Option<EdgeId>,
) -> Vec<ParallelPaths> {
    dedup_merge(sources.map(|source| pairs_from_source(graph, source, max_len, required_edge)))
}

/// Enumerates the parallel-path pairs in which at least one branch uses `edge`.
///
/// This is the parallel-path counterpart of
/// [`crate::cycles::cycles_through_edge`]: when a mapping is added to the network,
/// the evidence it creates is exactly the pairs through its edge, so incremental
/// maintenance only searches from the sources that can reach the edge at all
/// (bounded reverse reachability) instead of from every node. Pairs not using
/// `edge` are filtered out; deduplication matches [`enumerate_parallel_paths`].
pub fn parallel_paths_through_edge(
    graph: &DiGraph,
    edge: EdgeId,
    max_len: usize,
) -> Vec<ParallelPaths> {
    let Some(edge_ref) = graph.edge(edge) else {
        return Vec::new();
    };
    if max_len == 0 {
        return Vec::new();
    }
    // Sources that can reach the edge's source within max_len - 1 hops (the edge
    // itself consumes one hop of the branch that uses it).
    let mut frontier = vec![edge_ref.source];
    let mut reachable = vec![false; graph.node_count()];
    reachable[edge_ref.source.0] = true;
    for _ in 0..max_len.saturating_sub(1) {
        let mut next = Vec::new();
        for &node in &frontier {
            for e in graph.incoming(node) {
                if !reachable[e.source.0] {
                    reachable[e.source.0] = true;
                    next.push(e.source);
                }
            }
        }
        frontier = next;
    }
    collect_parallel_paths(
        graph,
        graph.nodes().filter(|n| reachable[n.0]),
        max_len,
        Some(edge),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_figure5() -> (DiGraph, Vec<EdgeId>) {
        let mut g = DiGraph::with_nodes(4);
        let p = |i: usize| NodeId(i);
        let m12 = g.add_edge(p(0), p(1));
        let m21 = g.add_edge(p(1), p(0));
        let m23 = g.add_edge(p(1), p(2));
        let m34 = g.add_edge(p(2), p(3));
        let m41 = g.add_edge(p(3), p(0));
        let m24 = g.add_edge(p(1), p(3));
        (g, vec![m12, m21, m23, m34, m41, m24])
    }

    #[test]
    fn simple_paths_respect_length_bound() {
        let (g, _) = paper_figure5();
        let paths = simple_paths_from(&g, NodeId(0), 2);
        assert!(paths.iter().all(|(_, p)| p.len() <= 2));
        assert!(!paths.is_empty());
    }

    #[test]
    fn diamond_has_one_parallel_path_pair() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let pps = enumerate_parallel_paths(&g, 3);
        assert_eq!(pps.len(), 1);
        assert_eq!(pps[0].source, NodeId(0));
        assert_eq!(pps[0].destination, NodeId(3));
        assert_eq!(pps[0].mapping_count(), 4);
    }

    #[test]
    fn paper_figure5_has_three_parallel_path_pairs() {
        // The paper lists f3: m21 || m24->m41, f4: m24 || m23->m34 and
        // f5: m21 || m23->m34->m41.
        let (g, m) = paper_figure5();
        let pps = enumerate_parallel_paths(&g, 3);
        assert_eq!(pps.len(), 3, "got {pps:?}");
        let has = |edges: &[EdgeId]| {
            pps.iter().any(|pp| {
                let mut all: Vec<EdgeId> = pp.all_edges().collect();
                all.sort_unstable();
                let mut want = edges.to_vec();
                want.sort_unstable();
                all == want
            })
        };
        assert!(has(&[m[1], m[5], m[4]]), "f3: m21 || m24->m41");
        assert!(has(&[m[5], m[2], m[3]]), "f4: m24 || m23->m34");
        assert!(has(&[m[1], m[2], m[3], m[4]]), "f5: m21 || m23->m34->m41");
    }

    #[test]
    fn shared_edge_paths_are_not_parallel() {
        // 0->1->3 and 0->1->2->3 share edge 0->1, so no pair with source 0 is reported.
        // The edge-disjoint pair 1->3 || 1->2->3 (source 1) is legitimate and reported.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let pps = enumerate_parallel_paths(&g, 3);
        assert!(pps.iter().all(|pp| pp.source != NodeId(0)), "got {pps:?}");
        assert_eq!(pps.len(), 1);
        assert_eq!(pps[0].source, NodeId(1));
        assert_eq!(pps[0].destination, NodeId(3));
    }

    #[test]
    fn two_direct_parallel_mappings_are_reported() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let pps = enumerate_parallel_paths(&g, 2);
        assert_eq!(pps.len(), 1);
        assert_eq!(pps[0].mapping_count(), 2);
    }

    #[test]
    fn parallel_paths_through_edge_match_filtered_enumeration() {
        let (g, m) = paper_figure5();
        for &edge in &m {
            for max_len in 1..=4 {
                let mut targeted: Vec<_> = parallel_paths_through_edge(&g, edge, max_len)
                    .iter()
                    .map(ParallelPaths::canonical_key)
                    .collect();
                let mut filtered: Vec<_> = enumerate_parallel_paths(&g, max_len)
                    .iter()
                    .filter(|pp| pp.contains_edge(edge))
                    .map(ParallelPaths::canonical_key)
                    .collect();
                targeted.sort();
                filtered.sort();
                assert_eq!(targeted, filtered, "edge {edge} max_len {max_len}");
            }
        }
    }

    #[test]
    fn parallel_paths_through_removed_edge_are_empty() {
        let (mut g, m) = paper_figure5();
        g.remove_edge(m[5]);
        assert!(parallel_paths_through_edge(&g, m[5], 3).is_empty());
    }

    #[test]
    fn parallel_fanout_is_identical_to_serial_at_every_worker_count() {
        // The paper's Figure 5 network, and a hub-heavy graph: node 0 fans out to
        // everyone and several return routes exist.
        let (figure5, _) = paper_figure5();
        let mut hub = DiGraph::with_nodes(7);
        for i in 1..7 {
            hub.add_edge(NodeId(0), NodeId(i));
        }
        for i in 1..6 {
            hub.add_edge(NodeId(i), NodeId(i + 1));
        }
        hub.add_edge(NodeId(6), NodeId(1));
        for (name, g) in [("figure 5", figure5), ("hub", hub)] {
            for max_len in 1..=4 {
                let serial = enumerate_parallel_paths(&g, max_len);
                for workers in [1, 2, 3, 4, 16] {
                    assert_eq!(
                        enumerate_parallel_paths_scheduled(&g, max_len, workers),
                        serial,
                        "{name}, max_len {max_len}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn no_parallel_paths_in_a_plain_ring() {
        let mut g = DiGraph::with_nodes(4);
        for i in 0..4 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 4));
        }
        assert!(enumerate_parallel_paths(&g, 4).is_empty());
    }
}
