//! Weakly connected components of the mapping network, maintained incrementally.
//!
//! *Weakly* connected components (edge direction ignored) bound **all** structural
//! evidence at once: a directed cycle and both branches of a parallel-path pair are
//! connected subgraphs, so neither can cross a weak-component boundary. A
//! component-partitioned engine is therefore *exact*, not an approximation — the
//! premise of `pdms_core`'s sharded sessions. [`IncrementalComponents`] maintains the
//! weak-component partition as edges come and go: additions union two components in
//! near-constant time, removals re-check connectivity of only the affected component.

use crate::adjacency::{DiGraph, NodeId};
use std::collections::VecDeque;

/// What one [`IncrementalComponents::merge`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// Both endpoints were already in the same component; nothing changed.
    AlreadyJoined,
    /// Two components were united: `absorbed` no longer exists, its nodes now answer
    /// with `into`.
    Merged {
        /// Component id that survives the union.
        into: usize,
        /// Component id that was dissolved into `into`.
        absorbed: usize,
    },
}

/// What one [`IncrementalComponents::split`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitOutcome {
    /// The endpoints are still connected (a redundant edge was removed); the
    /// partition is unchanged.
    StillConnected,
    /// The component broke in two: the nodes still reachable from the removed
    /// edge's source were re-rooted on one id, the rest on another.
    Split {
        /// The component id now holding the source-side nodes.
        kept: usize,
        /// The component id now holding the target-side nodes.
        created: usize,
        /// The nodes that moved to `created`, sorted ascending.
        moved: Vec<NodeId>,
    },
}

/// Incrementally maintained *weakly* connected components of an evolving graph.
///
/// A union-find (disjoint-set forest with union by size and path compression)
/// answers `component_of` in near-constant amortised time and absorbs edge
/// *additions* via [`IncrementalComponents::merge`]. Union-find cannot un-merge, so
/// edge *removals* go through [`IncrementalComponents::split`], which re-checks
/// connectivity with a breadth-first search confined to the affected component and
/// re-labels the smaller-by-discovery side only when the component genuinely broke.
///
/// Component ids are arbitrary but stable between structural changes: a node's id
/// only changes when its component merges or splits. Use
/// [`IncrementalComponents::partitions`] for a deterministic, id-independent view
/// (components ordered by smallest member, members ascending) — the order
/// `pdms_core`'s sharded sessions shard by.
///
/// ```
/// use pdms_graph::{DiGraph, IncrementalComponents, MergeOutcome, NodeId, SplitOutcome};
///
/// let mut graph = DiGraph::with_nodes(4);
/// let mut components = IncrementalComponents::from_graph(&graph);
/// assert_eq!(components.count(), 4);
///
/// // Adding an edge unions the two endpoint components.
/// let ab = graph.add_edge(NodeId(0), NodeId(1));
/// assert!(matches!(components.merge(NodeId(0), NodeId(1)), MergeOutcome::Merged { .. }));
/// assert_eq!(components.count(), 3);
/// assert!(components.same_component(NodeId(0), NodeId(1)));
///
/// // Removing the only connecting edge splits them again.
/// graph.remove_edge(ab);
/// let outcome = components.split(&graph, NodeId(0), NodeId(1));
/// assert!(matches!(outcome, SplitOutcome::Split { .. }));
/// assert!(!components.same_component(NodeId(0), NodeId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalComponents {
    /// Union-find parent per node; a root's parent is itself.
    parent: Vec<usize>,
    /// Component size per root (garbage for non-roots).
    size: Vec<usize>,
    /// Scratch for the split BFS: per-node visit stamps. A node is visited by the
    /// current search iff its stamp equals `visit_epoch`, so the buffer never
    /// needs clearing — bumping the epoch invalidates every stamp at once.
    visit_mark: Vec<u64>,
    /// Stamp of the most recent BFS (0 = no search has run yet).
    visit_epoch: u64,
    /// Scratch: BFS frontier, reused across [`IncrementalComponents::split`]
    /// calls so the churn hot loop allocates nothing once warmed up.
    queue: VecDeque<usize>,
    /// Scratch: the nodes the most recent BFS reached, in discovery order.
    reached: Vec<usize>,
}

impl IncrementalComponents {
    /// A partition of `n` isolated nodes (every node its own component).
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
            visit_mark: vec![0; n],
            visit_epoch: 0,
            queue: VecDeque::new(),
            reached: Vec::new(),
        }
    }

    /// The weak-component partition of an existing graph (tombstoned edges ignored).
    pub fn from_graph(graph: &DiGraph) -> Self {
        let mut components = Self::new(graph.node_count());
        for edge in graph.edges() {
            components.merge(edge.source, edge.target);
        }
        components
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        (0..self.parent.len())
            .filter(|&n| self.find(n) == n)
            .count()
    }

    /// Registers a new isolated node (mirroring [`DiGraph::add_node`]) and returns
    /// its singleton component id.
    pub fn add_node(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.size.push(1);
        self.visit_mark.push(0);
        id
    }

    /// The component id of a node. Stable until the node's component merges or
    /// splits.
    pub fn component_of(&self, node: NodeId) -> usize {
        self.find(node.0)
    }

    /// True when both nodes currently share a component.
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a.0) == self.find(b.0)
    }

    /// Number of nodes in the component of `node`.
    pub fn component_size(&self, node: NodeId) -> usize {
        self.size[self.find(node.0)]
    }

    /// Records an edge addition between `a` and `b`, unioning their components.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> MergeOutcome {
        let ra = self.find_compress(a.0);
        let rb = self.find_compress(b.0);
        if ra == rb {
            return MergeOutcome::AlreadyJoined;
        }
        // Union by size: the larger component's root survives, so bulk loads stay
        // near-linear.
        let (into, absorbed) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[absorbed] = into;
        self.size[into] += self.size[absorbed];
        MergeOutcome::Merged { into, absorbed }
    }

    /// Records an edge removal between `a` and `b`. Call **after** the edge has been
    /// removed from `graph`; the search must not see it.
    ///
    /// Re-checks whether `b` is still reachable from `a` through the remaining
    /// (undirected) edges of their component. When it is not, the nodes reachable
    /// from `a` are re-rooted at `a` and everything else in the component at `b` —
    /// both halves get fresh component ids. The cost is bounded by the affected
    /// component (two BFS passes over it) — every other component is untouched and
    /// no whole-graph scan or allocation is performed.
    pub fn split(&mut self, graph: &DiGraph, a: NodeId, b: NodeId) -> SplitOutcome {
        debug_assert_eq!(
            self.find(a.0),
            self.find(b.0),
            "split endpoints share a component"
        );
        // BFS from `a` over the component's remaining edges, into the persistent
        // stamp/queue scratch (no per-call allocation once the buffers are warm).
        self.bfs_into_scratch(graph, a);
        if self.visit_mark[b.0] == self.visit_epoch {
            return SplitOutcome::StillConnected;
        }
        // The component broke. Every old member is reachable from `a` or from `b`
        // (its old path to `a` either avoids the removed edge or can be truncated
        // at the first crossing), so one more BFS from `b` yields the other half —
        // no scan over unrelated components' nodes is needed.
        let side_a_len = self.reached.len();
        for i in 0..side_a_len {
            let n = self.reached[i];
            self.parent[n] = a.0;
        }
        self.size[a.0] = side_a_len;
        self.bfs_into_scratch(graph, b);
        self.reached.sort_unstable();
        let mut moved: Vec<NodeId> = Vec::with_capacity(self.reached.len());
        for i in 0..self.reached.len() {
            let n = self.reached[i];
            self.parent[n] = b.0;
            moved.push(NodeId(n));
        }
        self.size[b.0] = self.reached.len();
        SplitOutcome::Split {
            kept: a.0,
            created: b.0,
            moved,
        }
    }

    /// Undirected BFS from `start` into the reusable scratch buffers: stamps every
    /// reached node with a fresh `visit_epoch` and collects it into `reached`.
    fn bfs_into_scratch(&mut self, graph: &DiGraph, start: NodeId) {
        if self.visit_mark.len() < self.parent.len() {
            self.visit_mark.resize(self.parent.len(), 0);
        }
        self.visit_epoch += 1;
        let epoch = self.visit_epoch;
        self.reached.clear();
        self.queue.clear();
        self.visit_mark[start.0] = epoch;
        self.reached.push(start.0);
        self.queue.push_back(start.0);
        while let Some(node) = self.queue.pop_front() {
            // Outgoing and incoming edges walked directly: the visit stamps already
            // deduplicate, so the allocating, sorting `neighbors_undirected` view
            // is unnecessary here.
            let neighbors = graph
                .outgoing(NodeId(node))
                .map(|e| e.target)
                .chain(graph.incoming(NodeId(node)).map(|e| e.source));
            for nb in neighbors {
                if self.visit_mark[nb.0] != epoch {
                    self.visit_mark[nb.0] = epoch;
                    self.reached.push(nb.0);
                    self.queue.push_back(nb.0);
                }
            }
        }
    }

    /// The full partition in deterministic order: components sorted by their
    /// smallest member, members ascending. Component *ids* (the `usize` keys of
    /// [`IncrementalComponents::component_of`]) do not appear — this is the
    /// id-agnostic view used to compare against [`crate::connected_components`].
    pub fn partitions(&self) -> Vec<Vec<NodeId>> {
        let mut by_root: std::collections::BTreeMap<usize, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for n in 0..self.parent.len() {
            by_root.entry(self.find(n)).or_default().push(NodeId(n));
        }
        let mut out: Vec<Vec<NodeId>> = by_root.into_values().collect();
        // Members are pushed in ascending node order already; order components by
        // their smallest member.
        out.sort_by_key(|members| members[0]);
        out
    }

    /// Root lookup without mutation (no path compression).
    fn find(&self, mut node: usize) -> usize {
        while self.parent[node] != node {
            node = self.parent[node];
        }
        node
    }

    /// Root lookup with full path compression.
    fn find_compress(&mut self, node: usize) -> usize {
        let root = self.find(node);
        let mut cursor = node;
        while self.parent[cursor] != root {
            let next = self.parent[cursor];
            self.parent[cursor] = root;
            cursor = next;
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_components_track_a_growing_graph() {
        let mut g = DiGraph::with_nodes(6);
        let mut inc = IncrementalComponents::from_graph(&g);
        assert_eq!(inc.count(), 6);
        assert_eq!(inc.partitions().len(), 6);

        for (a, b) in [(0, 1), (2, 3), (4, 5)] {
            g.add_edge(NodeId(a), NodeId(b));
            assert!(matches!(
                inc.merge(NodeId(a), NodeId(b)),
                MergeOutcome::Merged { .. }
            ));
        }
        assert_eq!(inc.count(), 3);
        assert_eq!(inc.component_size(NodeId(0)), 2);
        // A redundant edge inside a component merges nothing.
        g.add_edge(NodeId(1), NodeId(0));
        assert_eq!(inc.merge(NodeId(1), NodeId(0)), MergeOutcome::AlreadyJoined);
        assert_eq!(inc.count(), 3);
        // The incremental partition matches the from-scratch BFS decomposition.
        assert_eq!(inc.partitions(), crate::traversal::connected_components(&g));
    }

    #[test]
    fn incremental_split_detects_bridges_and_ignores_redundant_edges() {
        // Triangle 0-1-2 bridged to pair 3-4.
        let mut g = DiGraph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4)] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let bridge = g.add_edge(NodeId(2), NodeId(3));
        let mut inc = IncrementalComponents::from_graph(&g);
        assert_eq!(inc.count(), 1);

        // Removing a triangle edge keeps everything connected.
        let redundant = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        g.remove_edge(redundant);
        assert_eq!(
            inc.split(&g, NodeId(0), NodeId(1)),
            SplitOutcome::StillConnected
        );
        assert_eq!(inc.count(), 1);

        // Removing the bridge splits {0,1,2} from {3,4}.
        g.remove_edge(bridge);
        match inc.split(&g, NodeId(2), NodeId(3)) {
            SplitOutcome::Split { moved, .. } => {
                assert_eq!(moved, vec![NodeId(3), NodeId(4)]);
            }
            other => panic!("expected a split, got {other:?}"),
        }
        assert_eq!(inc.count(), 2);
        assert!(inc.same_component(NodeId(0), NodeId(2)));
        assert!(inc.same_component(NodeId(3), NodeId(4)));
        assert!(!inc.same_component(NodeId(2), NodeId(3)));
        assert_eq!(inc.partitions(), crate::traversal::connected_components(&g));
    }

    #[test]
    fn incremental_add_node_creates_singletons() {
        let g = DiGraph::with_nodes(2);
        let mut inc = IncrementalComponents::from_graph(&g);
        let id = inc.add_node();
        assert_eq!(inc.node_count(), 3);
        assert_eq!(inc.component_of(NodeId(2)), id);
        assert_eq!(inc.component_size(NodeId(2)), 1);
    }

    #[test]
    fn incremental_partition_matches_bfs_under_random_churn() {
        // Deterministic pseudo-random add/remove schedule; after every structural
        // change the incremental partition must equal the from-scratch one.
        let n = 24;
        let mut g = DiGraph::with_nodes(n);
        let mut inc = IncrementalComponents::from_graph(&g);
        let mut live: Vec<crate::adjacency::EdgeId> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        for step in 0..200 {
            let remove = !live.is_empty() && step % 3 == 2;
            if remove {
                let pick = next(live.len());
                let edge = live.swap_remove(pick);
                let endpoints = g.edge(edge).unwrap();
                g.remove_edge(edge);
                inc.split(&g, endpoints.source, endpoints.target);
            } else {
                let a = NodeId(next(n));
                let b = NodeId(next(n));
                live.push(g.add_edge(a, b));
                inc.merge(a, b);
            }
            assert_eq!(
                inc.partitions(),
                crate::traversal::connected_components(&g),
                "diverged at step {step}"
            );
        }
    }
}
