//! Bounded enumeration of simple mapping cycles.
//!
//! Cycles of mappings are the primary source of feedback in the paper: forwarding a
//! query around a cycle and comparing the result with the original query reveals
//! whether the composed mappings preserve attribute semantics (Section 3.2.1).
//!
//! Cycle enumeration is bounded by a maximum length because (a) probe messages carry a
//! TTL and (b) long cycles contribute almost no evidence (Section 5.1.2, Figure 10),
//! so there is no value in paying the exponential cost of finding them all.

use crate::adjacency::{DiGraph, EdgeId, NodeId};
use crate::parallelism::{effective_parallelism, run_stealing};

/// A simple directed cycle in the mapping graph.
///
/// `nodes[i]` is connected to `nodes[(i+1) % len]` by `edges[i]`, traversed
/// source→target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cycle {
    /// Peers along the cycle, starting at the smallest node id on the cycle.
    pub nodes: Vec<NodeId>,
    /// Mapping edges along the cycle, aligned with `nodes`.
    pub edges: Vec<EdgeId>,
}

impl Cycle {
    /// Number of mappings in the cycle.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the cycle contains no edges (never produced by the enumerators).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// True if the cycle uses the given edge.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }

    /// True if the cycle passes through the given node.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Canonical form used for deduplication: the edge set, sorted.
    fn canonical_edges(&self) -> Vec<EdgeId> {
        let mut e = self.edges.clone();
        e.sort_unstable();
        e
    }

    /// Rotates the cycle so it starts at its smallest node id. Direction is preserved.
    fn normalize(&mut self) {
        if self.nodes.is_empty() {
            return;
        }
        let (start, _) = self
            .nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| **n)
            .expect("non-empty");
        self.nodes.rotate_left(start);
        self.edges.rotate_left(start);
    }
}

/// Enumerates all simple directed cycles of length `2..=max_len`.
///
/// Each cycle is reported exactly once regardless of which node it was discovered from;
/// duplicates that differ only by rotation are merged. Self-loops (length 1) are
/// ignored: a mapping from a schema to itself provides no cross-peer evidence.
pub fn enumerate_cycles(graph: &DiGraph, max_len: usize) -> Vec<Cycle> {
    enumerate_impl(graph, max_len, 1)
}

/// [`enumerate_cycles`] across `parallelism` workers (`0` = every available core).
///
/// Each origin is one task; idle workers take the next origin from one shared
/// injector ([`run_stealing`]). Results are merged in origin order and deduplicated
/// exactly like the serial enumeration, so contents *and* order — and therefore
/// downstream evidence ids — are bit-identical at every worker count.
pub fn enumerate_cycles_scheduled(
    graph: &DiGraph,
    max_len: usize,
    parallelism: usize,
) -> Vec<Cycle> {
    enumerate_impl(graph, max_len, parallelism)
}

/// Simple cycles through `origin`, in DFS discovery order. Each is found once from
/// this origin (a DFS path fixes its edge sequence), but again from every other node
/// on it; the cross-origin merge removes those repeats.
fn search_from_origin(graph: &DiGraph, origin: NodeId, max_len: usize) -> Vec<Cycle> {
    let mut found = Vec::new();
    let mut on_path = vec![false; graph.node_count()];
    on_path[origin.0] = true;
    search(
        graph,
        origin,
        origin,
        max_len,
        &mut vec![origin],
        &mut Vec::new(),
        &mut on_path,
        &mut found,
    );
    found
}

/// Merges one origin's candidate list into the running result, deduplicating by
/// canonical edge set — the single definition of the merge rule; applying it origin
/// by origin in ascending order is byte-for-byte the serial enumeration.
fn merge_into(
    candidates: Vec<Cycle>,
    seen: &mut std::collections::HashSet<Vec<EdgeId>>,
    found: &mut Vec<Cycle>,
) {
    for cycle in candidates {
        let key = cycle.canonical_edges();
        if seen.insert(key) {
            found.push(cycle);
        }
    }
}

fn enumerate_impl(graph: &DiGraph, max_len: usize, parallelism: usize) -> Vec<Cycle> {
    if max_len < 2 {
        return Vec::new();
    }
    let workers = effective_parallelism(parallelism).min(graph.node_count().max(1));
    let mut found: Vec<Cycle> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<EdgeId>> = std::collections::HashSet::new();
    if workers <= 1 {
        // Stream origin by origin: only one origin's candidates are buffered at a
        // time.
        for origin in graph.nodes() {
            merge_into(
                search_from_origin(graph, origin, max_len),
                &mut seen,
                &mut found,
            );
        }
        return found;
    }
    let origins: Vec<NodeId> = graph.nodes().collect();
    let results = run_stealing(workers, origins.len(), |i| {
        search_from_origin(graph, origins[i], max_len)
    });
    for candidates in results {
        merge_into(candidates, &mut seen, &mut found);
    }
    found
}

#[allow(clippy::too_many_arguments)]
fn search(
    graph: &DiGraph,
    origin: NodeId,
    current: NodeId,
    remaining: usize,
    node_path: &mut Vec<NodeId>,
    edge_path: &mut Vec<EdgeId>,
    on_path: &mut [bool],
    found: &mut Vec<Cycle>,
) {
    if remaining == 0 {
        return;
    }
    for e in graph.outgoing(current) {
        let (edge, next) = (e.id, e.target);
        if next == current {
            // Self-loop: skip.
            continue;
        }
        if next == origin {
            // A cycle closes; it has length >= 2 because self-loops are skipped.
            // Deduplication (the same cycle reachable from several origins) happens
            // in `merge_into`, keeping per-origin searches independent.
            let mut cycle = Cycle {
                nodes: node_path.clone(),
                edges: {
                    let mut e = edge_path.clone();
                    e.push(edge);
                    e
                },
            };
            cycle.normalize();
            found.push(cycle);
            continue;
        }
        if on_path[next.0] {
            continue;
        }
        node_path.push(next);
        edge_path.push(edge);
        on_path[next.0] = true;
        search(
            graph,
            origin,
            next,
            remaining - 1,
            node_path,
            edge_path,
            on_path,
            found,
        );
        on_path[next.0] = false;
        edge_path.pop();
        node_path.pop();
    }
}

/// Directed cycles passing through a specific edge.
///
/// This is a *targeted* search — a simple cycle through `e = (u, v)` is exactly a
/// simple directed path `v ⇝ u` of length `≤ max_len − 1` closed by `e` — so its cost
/// is bounded by the paths near the edge rather than by the whole graph. This is the
/// workhorse of incremental evidence maintenance: adding one mapping only pays for the
/// cycles that mapping creates.
pub fn cycles_through_edge(graph: &DiGraph, edge: EdgeId, max_len: usize) -> Vec<Cycle> {
    let Some(edge_ref) = graph.edge(edge) else {
        return Vec::new();
    };
    if max_len < 2 || edge_ref.source == edge_ref.target {
        return Vec::new();
    }
    let mut found = Vec::new();
    let mut node_path = vec![edge_ref.target];
    let mut edge_path = Vec::new();
    let mut on_path = vec![false; graph.node_count()];
    on_path[edge_ref.target.0] = true;
    close_paths(
        graph,
        edge_ref.source,
        edge_ref.target,
        edge,
        max_len - 1,
        &mut node_path,
        &mut edge_path,
        &mut on_path,
        &mut found,
    );
    found
}

/// Extends a simple path from `current` towards `goal`; every arrival at `goal` closes
/// one cycle through `closing_edge`.
#[allow(clippy::too_many_arguments)]
fn close_paths(
    graph: &DiGraph,
    goal: NodeId,
    current: NodeId,
    closing_edge: EdgeId,
    remaining: usize,
    node_path: &mut Vec<NodeId>,
    edge_path: &mut Vec<EdgeId>,
    on_path: &mut [bool],
    found: &mut Vec<Cycle>,
) {
    if remaining == 0 {
        return;
    }
    for e in graph.outgoing(current) {
        if e.id == closing_edge || edge_path.contains(&e.id) || e.target == current {
            continue;
        }
        if e.target == goal {
            // The path closes the cycle: [closing_edge, path edges..., e] starting at
            // the closing edge's target.
            let mut cycle = Cycle {
                nodes: node_path.clone(),
                edges: {
                    let mut edges = edge_path.clone();
                    edges.push(e.id);
                    edges.push(closing_edge);
                    edges
                },
            };
            cycle.nodes.push(goal);
            cycle.normalize();
            found.push(cycle);
            continue;
        }
        if on_path[e.target.0] {
            continue;
        }
        node_path.push(e.target);
        edge_path.push(e.id);
        on_path[e.target.0] = true;
        close_paths(
            graph,
            goal,
            e.target,
            closing_edge,
            remaining - 1,
            node_path,
            edge_path,
            on_path,
            found,
        );
        on_path[e.target.0] = false;
        edge_path.pop();
        node_path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_directed_example() -> (DiGraph, Vec<EdgeId>) {
        // Figure 5: p1..p4 with m12, m21, m23, m34, m41, m24.
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
    fn directed_ring_has_one_cycle() {
        let mut g = DiGraph::with_nodes(5);
        for i in 0..5 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 5));
        }
        let cycles = enumerate_cycles(&g, 5);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 5);
    }

    #[test]
    fn max_len_excludes_long_cycles() {
        let mut g = DiGraph::with_nodes(5);
        for i in 0..5 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 5));
        }
        assert!(enumerate_cycles(&g, 4).is_empty());
    }

    #[test]
    fn paper_figure5_has_two_directed_cycles() {
        // The paper lists f1: m12->m23->m34->m41 and f2: m12->m24->m41 as the directed
        // cycles (plus the 2-cycle m12-m21 which the paper does not use as feedback but
        // which is still a structural cycle).
        let (g, m) = paper_directed_example();
        let cycles = enumerate_cycles(&g, 4);
        let lens: Vec<usize> = {
            let mut l: Vec<usize> = cycles.iter().map(Cycle::len).collect();
            l.sort_unstable();
            l
        };
        assert_eq!(lens, vec![2, 3, 4]);
        assert!(cycles.iter().any(|c| c.len() == 4
            && c.contains_edge(m[0])
            && c.contains_edge(m[2])
            && c.contains_edge(m[3])
            && c.contains_edge(m[4])));
        assert!(cycles.iter().any(|c| c.len() == 3
            && c.contains_edge(m[0])
            && c.contains_edge(m[5])
            && c.contains_edge(m[4])));
    }

    #[test]
    fn cycles_are_not_duplicated_by_rotation() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        let cycles = enumerate_cycles(&g, 10);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].nodes[0], NodeId(0));
    }

    #[test]
    fn two_antiparallel_edges_form_a_directed_two_cycle() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
        let cycles = enumerate_cycles(&g, 5);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn cycles_through_edge_filters_correctly() {
        let (g, m) = paper_directed_example();
        let through_m24 = cycles_through_edge(&g, m[5], 4);
        assert_eq!(through_m24.len(), 1);
        assert_eq!(through_m24[0].len(), 3);
    }

    #[test]
    fn targeted_search_matches_filtered_enumeration_on_every_edge() {
        let (g, m) = paper_directed_example();
        for &edge in &m {
            for max_len in 2..=5 {
                let mut targeted: Vec<Vec<EdgeId>> = cycles_through_edge(&g, edge, max_len)
                    .iter()
                    .map(Cycle::canonical_edges)
                    .collect();
                let mut filtered: Vec<Vec<EdgeId>> = enumerate_cycles(&g, max_len)
                    .into_iter()
                    .filter(|c| c.contains_edge(edge))
                    .map(|c| c.canonical_edges())
                    .collect();
                targeted.sort();
                filtered.sort();
                assert_eq!(targeted, filtered, "edge {edge} max_len {max_len}");
            }
        }
    }

    #[test]
    fn targeted_search_normalizes_like_the_enumerator() {
        let (g, m) = paper_directed_example();
        let targeted = cycles_through_edge(&g, m[5], 4);
        let from_enumeration: Vec<Cycle> = enumerate_cycles(&g, 4)
            .into_iter()
            .filter(|c| c.contains_edge(m[5]))
            .collect();
        assert_eq!(targeted, from_enumeration);
    }

    #[test]
    fn targeted_search_on_removed_edge_is_empty() {
        let (mut g, m) = paper_directed_example();
        g.remove_edge(m[5]);
        assert!(cycles_through_edge(&g, m[5], 5).is_empty());
    }

    #[test]
    fn removed_edges_do_not_appear_in_cycles() {
        let (mut g, m) = paper_directed_example();
        g.remove_edge(m[0]); // remove m12
        let cycles = enumerate_cycles(&g, 4);
        assert!(cycles.iter().all(|c| !c.contains_edge(m[0])));
        // Only the 2-cycle disappears along with the two cycles using m12: remaining is none
        // since every listed cycle used m12 except none. Actually f3-like path is not a directed cycle.
        assert!(cycles.is_empty());
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = DiGraph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(0));
        assert!(enumerate_cycles(&g, 5).is_empty());
    }

    #[test]
    fn parallel_enumeration_is_identical_to_serial_at_every_worker_count() {
        // The paper's Figure 5 network, and a hub-and-ring graph whose node 0 is a
        // high-degree hub that occupies one worker while the others drain the ring.
        let (figure5, _) = paper_directed_example();
        let mut hub = DiGraph::with_nodes(8);
        for i in 0..8 {
            hub.add_edge(NodeId(i), NodeId((i + 1) % 8));
        }
        for i in 1..8 {
            hub.add_edge(NodeId(0), NodeId(i));
            hub.add_edge(NodeId(i), NodeId(0));
        }
        for (name, g) in [("figure 5", figure5), ("hub and ring", hub)] {
            for max_len in 2..=6 {
                let serial = enumerate_cycles(&g, max_len);
                for workers in [1, 2, 3, 4, 16] {
                    assert_eq!(
                        enumerate_cycles_scheduled(&g, max_len, workers),
                        serial,
                        "{name}, max_len {max_len}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_enumeration_handles_more_workers_than_nodes() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        let cycles = enumerate_cycles_scheduled(&g, 10, 64);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles, enumerate_cycles(&g, 10));
    }
}
