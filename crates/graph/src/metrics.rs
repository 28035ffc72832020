//! Topology metrics: clustering coefficient and degree statistics.
//!
//! These metrics let workloads check that generated networks resemble the semantic
//! overlay networks the paper describes (Section 3.2.1: highly clustered, with hub
//! peers; clustering coefficient around 0.5 for the SRS network).

use crate::adjacency::{DiGraph, NodeId};

/// Computes the local clustering coefficient of each node (undirected) and averages it.
///
/// The local coefficient of a node with fewer than two neighbours is defined as zero,
/// matching the convention used in the measurement the paper cites.
pub fn clustering_coefficient(graph: &DiGraph) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for node in graph.nodes() {
        total += local_clustering(graph, node);
    }
    total / n as f64
}

/// Local clustering coefficient of one node: fraction of neighbour pairs that are
/// themselves connected (in either direction).
fn local_clustering(graph: &DiGraph, node: NodeId) -> f64 {
    let neighbours = graph.neighbors_undirected(node);
    let k = neighbours.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            let a = neighbours[i];
            let b = neighbours[j];
            if graph.find_edge(a, b).is_some() || graph.find_edge(b, a).is_some() {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Degree statistics of a graph (total degree, i.e. in + out).
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// `histogram[d]` is the number of nodes of total degree `d`.
    pub histogram: Vec<usize>,
    /// Mean total degree.
    pub mean: f64,
    /// Maximum total degree.
    pub max: usize,
    /// Fraction of nodes whose degree is at least twice the mean ("hubs", the signature
    /// of scale-free topologies).
    pub hub_fraction: f64,
}

/// Computes the degree histogram and summary statistics.
pub fn degree_stats(graph: &DiGraph) -> DegreeStats {
    let n = graph.node_count();
    if n == 0 {
        return DegreeStats {
            histogram: Vec::new(),
            mean: 0.0,
            max: 0,
            hub_fraction: 0.0,
        };
    }
    let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mut histogram = vec![0usize; max + 1];
    for &d in &degrees {
        histogram[d] += 1;
    }
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let hubs = degrees
        .iter()
        .filter(|&&d| (d as f64) >= 2.0 * mean && d > 0)
        .count();
    DegreeStats {
        histogram,
        mean,
        max,
        hub_fraction: hubs as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_has_clustering_one() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_clustering_zero() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn local_clustering_of_isolated_node_is_zero() {
        let g = DiGraph::with_nodes(1);
        assert_eq!(local_clustering(&g, NodeId(0)), 0.0);
    }

    #[test]
    fn degree_stats_on_a_star() {
        // Star: node 0 points to 1..=4.
        let mut g = DiGraph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i));
        }
        let stats = degree_stats(&g);
        assert_eq!(stats.max, 4);
        assert!((stats.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(stats.histogram[1], 4);
        assert_eq!(stats.histogram[4], 1);
        // Only the hub has degree ≥ 2 × mean.
        assert!((stats.hub_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_on_empty_graph() {
        let stats = degree_stats(&DiGraph::new());
        assert_eq!(stats.max, 0);
        assert_eq!(stats.mean, 0.0);
        assert!(stats.histogram.is_empty());
    }
}
