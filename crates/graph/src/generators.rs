//! Random topology generators for synthetic PDMS networks.
//!
//! Section 3.2.1 of the paper observes that real semantic overlay networks are not
//! random: they show exponential degree distributions and unusually high clustering
//! coefficients (0.54 for the SRS biological schema network), i.e. scale-free-like
//! topologies with many short cycles. The evaluation therefore needs generators that
//! can produce (a) simple rings and example graphs for controlled experiments and
//! (b) clustered / scale-free networks for the large-scale simulations mentioned in
//! Section 7.

use crate::adjacency::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Family of topologies the generator can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A single directed ring `p0 → p1 → … → p0`.
    Ring,
    /// Every ordered pair of distinct peers is connected independently with
    /// probability `p` (Erdős–Rényi G(n, p)).
    ErdosRenyi,
    /// Preferential attachment: each new peer connects to `m` existing peers chosen
    /// proportionally to their current degree (Barabási–Albert), producing scale-free
    /// degree distributions.
    ScaleFree,
    /// A ring lattice where each peer is connected to its `k` nearest clockwise
    /// neighbours, with each edge rewired with probability `p` (Watts–Strogatz-like),
    /// producing the high clustering coefficients observed in real schema networks.
    ClusteredSmallWorld,
    /// `islands` disjoint Erdős–Rényi sub-networks of `peers` nodes each, with no
    /// edge between islands — the multi-component shape of a federation of
    /// independent PDMS communities. Exercises component-sharded engines: every
    /// island is one weakly connected component (and one shard).
    Islands,
}

/// A topology to generate; [`GeneratorConfig::generate`] builds it.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Which family of topology to generate.
    pub kind: TopologyKind,
    /// Number of peers.
    pub peers: usize,
    /// Edge probability (Erdős–Rényi) or rewiring probability (small-world). Ignored
    /// by the other families.
    pub probability: f64,
    /// Edges attached per new node (scale-free) or nearest neighbours (small-world).
    pub attachment: usize,
    /// Preferential-attachment exponent α for [`TopologyKind::ScaleFree`]: a new
    /// peer attaches to an existing peer with probability ∝ degree^α. `1.0` is the
    /// classic Barabási–Albert model; `α > 1` (super-linear attachment) concentrates
    /// edges on ever fewer hubs, producing extreme hub-heavy topologies. Ignored by
    /// the other families.
    pub hub_exponent: f64,
    /// Number of disjoint islands for [`TopologyKind::Islands`] (`peers` nodes
    /// each). Ignored by the other families.
    pub islands: usize,
    /// RNG seed so every experiment is reproducible.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            kind: TopologyKind::Ring,
            peers: 8,
            probability: 0.2,
            attachment: 2,
            hub_exponent: 1.0,
            islands: 1,
            seed: 42,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor for a directed ring of `peers` nodes.
    pub fn ring(peers: usize) -> Self {
        Self {
            kind: TopologyKind::Ring,
            peers,
            ..Self::default()
        }
    }

    /// Convenience constructor for an Erdős–Rényi graph.
    pub fn erdos_renyi(peers: usize, probability: f64, seed: u64) -> Self {
        Self {
            kind: TopologyKind::ErdosRenyi,
            peers,
            probability,
            seed,
            ..Self::default()
        }
    }

    /// Convenience constructor for a Barabási–Albert scale-free graph.
    pub fn scale_free(peers: usize, attachment: usize, seed: u64) -> Self {
        Self {
            kind: TopologyKind::ScaleFree,
            peers,
            attachment,
            seed,
            ..Self::default()
        }
    }

    /// Convenience constructor for a hub-accentuated scale-free graph: preferential
    /// attachment with super-linear exponent `hub_exponent` (> 1 concentrates the
    /// degree distribution on a handful of hub peers — the realistic worst case for
    /// per-origin enumeration balance).
    pub fn scale_free_skewed(
        peers: usize,
        attachment: usize,
        hub_exponent: f64,
        seed: u64,
    ) -> Self {
        Self {
            kind: TopologyKind::ScaleFree,
            peers,
            attachment,
            hub_exponent,
            seed,
            ..Self::default()
        }
    }

    /// Convenience constructor for a multi-component topology: `islands` disjoint
    /// Erdős–Rényi islands of `peers` nodes each (edge probability `probability`).
    /// Every island ends up a separate weakly connected component, so a
    /// component-sharded engine runs one shard per island.
    pub fn islands(islands: usize, peers: usize, probability: f64, seed: u64) -> Self {
        Self {
            kind: TopologyKind::Islands,
            peers,
            probability,
            islands,
            seed,
            ..Self::default()
        }
    }

    /// Convenience constructor for a clustered small-world graph.
    pub fn small_world(peers: usize, neighbours: usize, rewire: f64, seed: u64) -> Self {
        Self {
            kind: TopologyKind::ClusteredSmallWorld,
            peers,
            attachment: neighbours,
            probability: rewire,
            seed,
            ..Self::default()
        }
    }

    /// Generates the topology described by this configuration.
    pub fn generate(&self) -> DiGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.kind {
            TopologyKind::Ring => ring(self.peers),
            TopologyKind::ErdosRenyi => erdos_renyi(self.peers, self.probability, &mut rng),
            TopologyKind::ScaleFree => scale_free(
                self.peers,
                self.attachment.max(1),
                self.hub_exponent,
                &mut rng,
            ),
            TopologyKind::ClusteredSmallWorld => small_world(
                self.peers,
                self.attachment.max(1),
                self.probability,
                &mut rng,
            ),
            TopologyKind::Islands => {
                islands(self.islands.max(1), self.peers, self.probability, self.seed)
            }
        }
    }
}

/// `islands` disjoint Erdős–Rényi islands of `peers` nodes each. Island `i` occupies
/// the node-id range `[i * peers, (i + 1) * peers)`; its edges are drawn from an RNG
/// derived from `(seed, i)`, so the contents of island `i` do not depend on how many
/// islands follow it.
fn islands(islands: usize, peers: usize, probability: f64, seed: u64) -> DiGraph {
    let mut g = DiGraph::with_nodes(islands * peers);
    for island in 0..islands {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (island as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let base = island * peers;
        for i in 0..peers {
            for j in 0..peers {
                if i != j && rng.gen_bool(probability.clamp(0.0, 1.0)) {
                    g.add_edge(NodeId(base + i), NodeId(base + j));
                }
            }
        }
    }
    g
}

/// Directed ring of `n` peers.
fn ring(n: usize) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    if n < 2 {
        return g;
    }
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n));
    }
    g
}

fn erdos_renyi(n: usize, p: f64, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    g
}

fn scale_free(n: usize, m: usize, alpha: f64, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    if n == 0 {
        return g;
    }
    // Repeated-node list for preferential attachment: a node appears once per incident
    // edge endpoint, so sampling uniformly from the list is degree-proportional. For
    // the classic α = 1 model the list *is* the distribution; for α ≠ 1 an explicit
    // `max(degree, 1)^α` weight per *existing* node (the `max(…, 1)` floor keeps
    // isolated bootstrap nodes reachable) is maintained incrementally alongside its
    // running sum, so each draw costs one scan and no allocation.
    let mut endpoints: Vec<usize> = Vec::new();
    let mut degrees: Vec<f64> = vec![0.0; n];
    let mut weights: Vec<f64> = vec![0.0; n];
    let mut weight_total = 0.0f64;
    let classic = (alpha - 1.0).abs() < 1e-12;
    let weight_of = |degree: f64| degree.max(1.0).powf(alpha);
    let seed_nodes = m.min(n.saturating_sub(1)).max(1);
    // Fully connect the first few nodes (in one direction) to bootstrap.
    for i in 0..seed_nodes.min(n) {
        for j in 0..i {
            g.add_edge(NodeId(i), NodeId(j));
            endpoints.push(i);
            endpoints.push(j);
            degrees[i] += 1.0;
            degrees[j] += 1.0;
        }
    }
    if endpoints.is_empty() && n > 1 {
        g.add_edge(NodeId(0), NodeId(1));
        endpoints.push(0);
        endpoints.push(1);
        degrees[0] += 1.0;
        degrees[1] += 1.0;
    }
    if !classic {
        // Seed nodes are the candidate pool for the first attachment round.
        for j in 0..seed_nodes.min(n) {
            weights[j] = weight_of(degrees[j]);
            weight_total += weights[j];
        }
    }
    for i in seed_nodes..n {
        let mut targets: Vec<usize> = Vec::new();
        let mut guard = 0;
        while targets.len() < m.min(i) && guard < 100 * m {
            guard += 1;
            let candidate = if classic {
                *endpoints.choose(rng).expect("non-empty endpoint list")
            } else {
                weighted_draw(&weights[..i], weight_total, rng)
            };
            if candidate != i && !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for t in targets {
            // Orient the mapping randomly: real mapping networks contain mappings in
            // both directions.
            if rng.gen_bool(0.5) {
                g.add_edge(NodeId(i), NodeId(t));
            } else {
                g.add_edge(NodeId(t), NodeId(i));
            }
            endpoints.push(i);
            endpoints.push(t);
            degrees[i] += 1.0;
            degrees[t] += 1.0;
            if !classic {
                let updated = weight_of(degrees[t]);
                weight_total += updated - weights[t];
                weights[t] = updated;
            }
        }
        if !classic {
            // Node i joins the candidate pool for the next attachment round.
            weights[i] = weight_of(degrees[i]);
            weight_total += weights[i];
        }
    }
    g
}

/// Samples an index of `weights` with probability ∝ its weight, given the
/// precomputed sum of the slice — one linear scan, no allocation.
fn weighted_draw(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    debug_assert!(!weights.is_empty());
    debug_assert!(
        (weights.iter().sum::<f64>() - total).abs() <= 1e-6 * total.max(1.0),
        "weight total out of sync with the weights"
    );
    let mut draw = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (index, w) in weights.iter().enumerate() {
        if draw < *w {
            return index;
        }
        draw -= w;
    }
    weights.len() - 1
}

fn small_world(n: usize, k: usize, rewire: f64, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::with_nodes(n);
    if n < 2 {
        return g;
    }
    let k = k.min(n - 1);
    for i in 0..n {
        for offset in 1..=k {
            let mut j = (i + offset) % n;
            if rng.gen_bool(rewire.clamp(0.0, 1.0)) {
                // Rewire to a uniformly random other node, avoiding self-loops and
                // duplicate edges where possible.
                let mut guard = 0;
                loop {
                    let candidate = rng.gen_range(0..n);
                    guard += 1;
                    if candidate != i
                        && (g.find_edge(NodeId(i), NodeId(candidate)).is_none() || guard > 20)
                    {
                        j = candidate;
                        break;
                    }
                }
            }
            if i != j && g.find_edge(NodeId(i), NodeId(j)).is_none() {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::clustering_coefficient;

    #[test]
    fn islands_are_disjoint_components_and_independent_of_island_count() {
        let config = GeneratorConfig::islands(4, 8, 0.25, 9);
        let g = config.generate();
        assert_eq!(g.node_count(), 32);
        let components = crate::traversal::connected_components(&g);
        // No edge crosses an island boundary.
        for edge in g.edges() {
            assert_eq!(edge.source.0 / 8, edge.target.0 / 8);
        }
        // Dense-enough islands come out as exactly one component each.
        assert_eq!(components.len(), 4);
        // Island contents do not depend on how many islands follow: the first two
        // islands of a 2-island graph equal those of the 4-island graph.
        let smaller = GeneratorConfig::islands(2, 8, 0.25, 9).generate();
        let prefix: Vec<_> = g.edges().filter(|e| e.source.0 < 16).collect();
        let all_smaller: Vec<_> = smaller.edges().collect();
        assert_eq!(prefix, all_smaller);
        // Determinism under the seed.
        let again = GeneratorConfig::islands(4, 8, 0.25, 9).generate();
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            again.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ring_has_n_edges_and_one_cycle() {
        let g = ring(7);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        let cycles = crate::cycles::enumerate_cycles(&g, 7);
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn tiny_rings_are_degenerate() {
        assert_eq!(ring(0).edge_count(), 0);
        assert_eq!(ring(1).edge_count(), 0);
        assert_eq!(ring(2).edge_count(), 2);
    }

    #[test]
    fn erdos_renyi_is_reproducible() {
        let a = GeneratorConfig::erdos_renyi(20, 0.15, 7).generate();
        let b = GeneratorConfig::erdos_renyi(20, 0.15, 7).generate();
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().map(|e| (e.source, e.target)).collect();
        let eb: Vec<_> = b.edges().map(|e| (e.source, e.target)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn erdos_renyi_density_tracks_probability() {
        let g = GeneratorConfig::erdos_renyi(50, 0.1, 3).generate();
        let possible = 50.0 * 49.0;
        let density = g.edge_count() as f64 / possible;
        assert!(density > 0.05 && density < 0.15, "density {density}");
    }

    #[test]
    fn scale_free_produces_hubs() {
        let g = GeneratorConfig::scale_free(200, 2, 11).generate();
        assert!(g.edge_count() >= 200);
        let max_degree = g.nodes().map(|n| g.degree(n)).max().unwrap();
        let mean_degree = g.nodes().map(|n| g.degree(n)).sum::<usize>() as f64 / 200.0;
        assert!(
            max_degree as f64 > 3.0 * mean_degree,
            "expected hub nodes: max {max_degree}, mean {mean_degree}"
        );
    }

    #[test]
    fn scale_free_is_seed_deterministic() {
        for exponent in [1.0, 1.5] {
            let a = GeneratorConfig::scale_free_skewed(120, 2, exponent, 77).generate();
            let b = GeneratorConfig::scale_free_skewed(120, 2, exponent, 77).generate();
            let ea: Vec<_> = a.edges().map(|e| (e.source, e.target)).collect();
            let eb: Vec<_> = b.edges().map(|e| (e.source, e.target)).collect();
            assert_eq!(ea, eb, "exponent {exponent}");
            let c = GeneratorConfig::scale_free_skewed(120, 2, exponent, 78).generate();
            let ec: Vec<_> = c.edges().map(|e| (e.source, e.target)).collect();
            assert_ne!(ea, ec, "different seeds must differ (exponent {exponent})");
        }
    }

    #[test]
    fn scale_free_degree_distribution_is_heavy_tailed() {
        let g = GeneratorConfig::scale_free(300, 2, 13).generate();
        let mut degrees: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = degrees.iter().sum();
        // Attachment preserved: every non-seed node brought ~m edges.
        assert!(g.edge_count() >= 298 * 2 / 2);
        // Heavy tail: the top 10% of peers hold well over their uniform share (10%)
        // of the degree mass, and the median degree sits near the attachment floor.
        let top_decile: usize = degrees.iter().take(30).sum();
        assert!(
            top_decile as f64 > 0.25 * total as f64,
            "top decile holds {top_decile} of {total}"
        );
        let median = degrees[degrees.len() / 2];
        assert!(median <= 4, "median degree {median}");
    }

    #[test]
    fn super_linear_attachment_is_more_hub_concentrated() {
        let classic = GeneratorConfig::scale_free_skewed(200, 2, 1.0, 11).generate();
        let skewed = GeneratorConfig::scale_free_skewed(200, 2, 1.8, 11).generate();
        let max_share = |g: &DiGraph| {
            let total: usize = g.nodes().map(|n| g.degree(n)).sum();
            let max = g.nodes().map(|n| g.degree(n)).max().unwrap();
            max as f64 / total as f64
        };
        let classic_share = max_share(&classic);
        let skewed_share = max_share(&skewed);
        assert!(
            skewed_share > classic_share,
            "super-linear attachment should concentrate degree mass: \
             alpha=1.8 share {skewed_share:.3} vs alpha=1 share {classic_share:.3}"
        );
        // And the skew is substantial: the biggest hub touches a large slice of all
        // edge endpoints.
        assert!(skewed_share > 0.1, "hub share {skewed_share:.3}");
    }

    #[test]
    fn small_world_with_no_rewiring_is_highly_clustered() {
        let g = GeneratorConfig::small_world(40, 4, 0.0, 5).generate();
        let cc = clustering_coefficient(&g);
        assert!(cc > 0.4, "clustering coefficient {cc}");
    }

    #[test]
    fn generators_do_not_create_self_loops() {
        for cfg in [
            GeneratorConfig::erdos_renyi(30, 0.2, 1),
            GeneratorConfig::scale_free(30, 2, 2),
            GeneratorConfig::small_world(30, 3, 0.3, 3),
        ] {
            let g = cfg.generate();
            assert!(g.edges().all(|e| e.source != e.target), "{:?}", cfg.kind);
        }
    }

    #[test]
    fn small_world_rewiring_changes_structure() {
        let regular = GeneratorConfig::small_world(60, 3, 0.0, 9).generate();
        let rewired = GeneratorConfig::small_world(60, 3, 0.8, 9).generate();
        let cc_regular = clustering_coefficient(&regular);
        let cc_rewired = clustering_coefficient(&rewired);
        assert!(cc_rewired < cc_regular, "{cc_rewired} !< {cc_regular}");
    }
}
