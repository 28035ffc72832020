//! Weakly connected components of the mapping network, computed from scratch.
//!
//! [`crate::IncrementalComponents`] maintains the same partition under edge churn;
//! this breadth-first decomposition is the reference it is checked against.

use crate::adjacency::{DiGraph, NodeId};
use std::collections::VecDeque;

/// Weakly connected components of the graph (edge direction ignored).
///
/// Returns one vector of node ids per component, each sorted ascending; components are
/// ordered by their smallest node id.
pub fn connected_components(graph: &DiGraph) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let mut component = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        component[start] = next;
        queue.push_back(NodeId(start));
        while let Some(node) = queue.pop_front() {
            for nb in graph.neighbors_undirected(node) {
                if component[nb.0] == usize::MAX {
                    component[nb.0] = next;
                    queue.push_back(nb);
                }
            }
        }
        next += 1;
    }
    let mut out = vec![Vec::new(); next];
    for (i, &c) in component.iter().enumerate() {
        out[c].push(NodeId(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_split_disconnected_graphs() {
        let mut g = DiGraph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
    }

    #[test]
    fn components_ignore_direction() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(1), NodeId(0));
        g.add_edge(NodeId(1), NodeId(2));
        assert_eq!(connected_components(&g).len(), 1);
    }
}
