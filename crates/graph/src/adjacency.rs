//! Directed multigraph with stable node and edge identifiers.
//!
//! The structure is an adjacency-list multigraph: parallel edges between the same pair
//! of nodes are allowed (two independent mappings can exist between the same two peers)
//! and edges are never re-indexed once inserted, so `EdgeId`s remain valid handles for
//! the lifetime of the graph. Removal is supported through tombstones; iteration skips
//! removed entries.

use std::fmt;

/// Identifier of a node (a peer in the PDMS interpretation).
///
/// Node ids are dense indices assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a directed edge (a schema mapping in the PDMS interpretation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A lightweight view of one edge: its id and endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Stable identifier of the edge.
    pub id: EdgeId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
}

#[derive(Debug, Clone)]
struct EdgeSlot {
    source: NodeId,
    target: NodeId,
    alive: bool,
}

/// Directed multigraph with adjacency lists in both directions.
///
/// The graph stores no payloads; callers keep side tables indexed by [`NodeId`] /
/// [`EdgeId`]. This keeps the structure reusable for mapping networks, factor graphs
/// and simulator topologies alike.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    edges: Vec<EdgeSlot>,
    outgoing: Vec<Vec<EdgeId>>,
    incoming: Vec<Vec<EdgeId>>,
    live_edges: usize,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Adds a node and returns its identifier.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.outgoing.len());
        self.outgoing.push(Vec::new());
        self.incoming.push(Vec::new());
        id
    }

    /// Number of nodes ever added (removed nodes are not supported; peers leaving the
    /// network are modelled by removing their incident edges).
    pub fn node_count(&self) -> usize {
        self.outgoing.len()
    }

    /// Number of live (non-removed) edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Returns `true` if `node` is a valid identifier for this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.0 < self.outgoing.len()
    }

    /// Adds a directed edge from `source` to `target` and returns its identifier.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId) -> EdgeId {
        assert!(self.contains_node(source), "unknown source node {source}");
        assert!(self.contains_node(target), "unknown target node {target}");
        let id = EdgeId(self.edges.len());
        self.edges.push(EdgeSlot {
            source,
            target,
            alive: true,
        });
        self.outgoing[source.0].push(id);
        self.incoming[target.0].push(id);
        self.live_edges += 1;
        id
    }

    /// Number of edge id slots ever allocated, including tombstoned (removed)
    /// edges. Mirrors of external id spaces (a catalog's mapping slots) compare
    /// against this to assert id alignment regardless of which edges are live.
    pub fn edge_slot_count(&self) -> usize {
        self.edges.len()
    }

    /// Removes an edge. Removing an already-removed edge is a no-op.
    pub fn remove_edge(&mut self, edge: EdgeId) {
        if let Some(slot) = self.edges.get_mut(edge.0) {
            if slot.alive {
                slot.alive = false;
                self.live_edges -= 1;
            }
        }
    }

    /// Returns the endpoints of a live edge, or `None` if the edge was removed or never
    /// existed.
    pub fn edge(&self, edge: EdgeId) -> Option<EdgeRef> {
        self.edges.get(edge.0).and_then(|slot| {
            slot.alive.then_some(EdgeRef {
                id: edge,
                source: slot.source,
                target: slot.target,
            })
        })
    }

    /// Iterates over all live edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, slot)| {
            slot.alive.then_some(EdgeRef {
                id: EdgeId(i),
                source: slot.source,
                target: slot.target,
            })
        })
    }

    /// Iterates over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// Live outgoing edges of `node`.
    pub fn outgoing(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.outgoing
            .get(node.0)
            .into_iter()
            .flatten()
            .filter_map(|&e| self.edge(e))
    }

    /// Live incoming edges of `node`.
    pub fn incoming(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.incoming
            .get(node.0)
            .into_iter()
            .flatten()
            .filter_map(|&e| self.edge(e))
    }

    /// Out-degree of `node` counting live edges only.
    fn out_degree(&self, node: NodeId) -> usize {
        self.outgoing(node).count()
    }

    /// In-degree of `node` counting live edges only.
    fn in_degree(&self, node: NodeId) -> usize {
        self.incoming(node).count()
    }

    /// Total degree (in + out) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node) + self.in_degree(node)
    }

    /// Undirected neighbours: nodes connected to `node` by a live edge in either
    /// direction (deduplicated, excludes `node` itself unless there is a self-loop).
    pub fn neighbors_undirected(&self, node: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .outgoing(node)
            .map(|e| e.target)
            .chain(self.incoming(node).map(|e| e.source))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Returns any live edge from `source` to `target`, if one exists.
    pub fn find_edge(&self, source: NodeId, target: NodeId) -> Option<EdgeId> {
        self.outgoing(source)
            .find(|e| e.target == target)
            .map(|e| e.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph, Vec<NodeId>) {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::with_nodes(4);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[2], n[3]);
        (g, n)
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, n) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(n[0]), 2);
        assert_eq!(g.in_degree(n[3]), 2);
        assert_eq!(g.degree(n[1]), 2);
    }

    #[test]
    fn edge_lookup_returns_endpoints() {
        let mut g = DiGraph::with_nodes(2);
        let e = g.add_edge(NodeId(0), NodeId(1));
        let r = g.edge(e).expect("edge must exist");
        assert_eq!(r.source, NodeId(0));
        assert_eq!(r.target, NodeId(1));
    }

    #[test]
    fn removal_is_tombstoned() {
        let (mut g, n) = diamond();
        let e = g.find_edge(n[0], n[1]).unwrap();
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 3);
        assert!(g.edge(e).is_none());
        assert!(g.find_edge(n[0], n[1]).is_none());
        // Double removal is a no-op.
        g.remove_edge(e);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = DiGraph::with_nodes(2);
        let a = g.add_edge(NodeId(0), NodeId(1));
        let b = g.add_edge(NodeId(0), NodeId(1));
        assert_ne!(a, b);
        assert_eq!(
            g.outgoing(NodeId(0))
                .filter(|e| e.target == NodeId(1))
                .count(),
            2
        );
    }

    #[test]
    fn undirected_neighbours_merge_both_directions() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(0));
        assert_eq!(
            g.neighbors_undirected(NodeId(0)),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn adding_edge_with_unknown_node_panics() {
        let mut g = DiGraph::with_nodes(1);
        g.add_edge(NodeId(5), NodeId(0));
    }
}
