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
use crate::parallelism::{effective_parallelism, run_stealing, timed, StealConfig, SubtaskCost};

/// Whether a cycle was found following edge directions or ignoring them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleKind {
    /// All edges traversed source→target.
    Directed,
    /// Edges traversed in either direction (undirected mapping network, Section 3.2).
    Undirected,
}

/// A simple cycle in the mapping graph.
///
/// `nodes[i]` is connected to `nodes[(i+1) % len]` by `edges[i]`. For undirected cycles
/// the edge may be traversed against its stored direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cycle {
    /// Peers along the cycle, starting at the smallest node id on the cycle.
    pub nodes: Vec<NodeId>,
    /// Mapping edges along the cycle, aligned with `nodes`.
    pub edges: Vec<EdgeId>,
    /// Directed or undirected traversal.
    pub kind: CycleKind,
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
    enumerate_impl(
        graph,
        max_len,
        CycleKind::Directed,
        1,
        &StealConfig::default(),
    )
}

/// Enumerates all simple undirected cycles of length `3..=max_len`.
///
/// In the undirected reading of the mapping network two antiparallel edges between the
/// same pair of peers do not constitute a meaningful cycle, and a cycle of length 2
/// using the same edge twice is impossible, so the minimum reported length is 3.
/// Length-2 cycles made of two *distinct* parallel or antiparallel edges are reported,
/// as they do represent two independent mappings that can be compared.
pub fn enumerate_undirected_cycles(graph: &DiGraph, max_len: usize) -> Vec<Cycle> {
    enumerate_impl(
        graph,
        max_len,
        CycleKind::Undirected,
        1,
        &StealConfig::default(),
    )
}

/// [`enumerate_cycles`] under an explicit work-stealing schedule.
///
/// Origins whose first-hop degree reaches the heavy-origin threshold are split into
/// `steal_granularity`-sized first-hop slices; all subtasks go through one shared
/// injector that idle workers steal from, so a hub peer no longer pins a single
/// worker while the rest drain their light origins and idle. Results are merged in
/// deterministic origin-then-subtask order and deduplicated exactly like the serial
/// enumeration, so contents *and* order — and therefore downstream evidence ids —
/// are bit-identical at every `(parallelism, steal)` setting.
pub fn enumerate_cycles_scheduled(
    graph: &DiGraph,
    max_len: usize,
    parallelism: usize,
    steal: &StealConfig,
) -> Vec<Cycle> {
    enumerate_impl(graph, max_len, CycleKind::Directed, parallelism, steal)
}

/// [`enumerate_undirected_cycles`] under an explicit work-stealing schedule (see
/// [`enumerate_cycles_scheduled`]).
pub fn enumerate_undirected_cycles_scheduled(
    graph: &DiGraph,
    max_len: usize,
    parallelism: usize,
    steal: &StealConfig,
) -> Vec<Cycle> {
    enumerate_impl(graph, max_len, CycleKind::Undirected, parallelism, steal)
}

/// The first hops a cycle search from `origin` iterates, in the exact order the
/// serial DFS visits them (outgoing, then — undirected only — incoming). Subtask
/// ranges index into this list, which is what makes slice-wise concatenation
/// reproduce the serial discovery order.
fn first_hops(graph: &DiGraph, origin: NodeId, kind: CycleKind) -> Vec<(EdgeId, NodeId)> {
    match kind {
        CycleKind::Directed => graph.outgoing(origin).map(|e| (e.id, e.target)).collect(),
        CycleKind::Undirected => graph
            .outgoing(origin)
            .map(|e| (e.id, e.target))
            .chain(graph.incoming(origin).map(|e| (e.id, e.source)))
            .collect(),
    }
}

/// Raw cycle candidates discovered from `origin` through the first hops in
/// `hop_range` (indices into [`first_hops`]), in DFS discovery order, *without*
/// any deduplication — the stealable unit of the enumeration. Concatenating the
/// candidates of an origin's subtask ranges in range order reproduces the full
/// origin search byte for byte, because the first-hop loop is the outermost level
/// of the DFS.
fn search_from_origin_hops(
    graph: &DiGraph,
    origin: NodeId,
    hop_range: std::ops::Range<usize>,
    max_len: usize,
    kind: CycleKind,
) -> Vec<Cycle> {
    let mut found = Vec::new();
    if max_len == 0 {
        return found;
    }
    let hops = first_hops(graph, origin, kind);
    let mut node_path = vec![origin];
    let mut edge_path = Vec::new();
    let mut on_path = vec![false; graph.node_count()];
    on_path[origin.0] = true;
    for &(edge, next) in &hops[hop_range.start.min(hops.len())..hop_range.end.min(hops.len())] {
        if next == origin {
            // Self-loop (the only way a first hop returns to the origin): skip, as
            // the serial search does.
            continue;
        }
        node_path.push(next);
        edge_path.push(edge);
        on_path[next.0] = true;
        search(
            graph,
            origin,
            next,
            max_len - 1,
            kind,
            &mut node_path,
            &mut edge_path,
            &mut on_path,
            &mut found,
        );
        on_path[next.0] = false;
        edge_path.pop();
        node_path.pop();
    }
    found
}

/// Simple cycles through `origin` (as the rotation start), in DFS discovery order,
/// deduplicated *within* the origin (an undirected cycle is otherwise discovered
/// once per traversal direction) but not across origins. Origin-local dedup keeps
/// the buffered candidate lists proportional to the origin's unique cycles;
/// first-discovery order is preserved, so the cross-origin merge still reproduces
/// the serial enumeration exactly.
fn search_from_origin(
    graph: &DiGraph,
    origin: NodeId,
    max_len: usize,
    kind: CycleKind,
) -> Vec<Cycle> {
    let hop_count = match kind {
        CycleKind::Directed => graph.out_degree(origin),
        CycleKind::Undirected => graph.degree(origin),
    };
    dedup_within_origin(search_from_origin_hops(
        graph,
        origin,
        0..hop_count,
        max_len,
        kind,
    ))
}

/// The origin-local half of the deduplication (see [`search_from_origin`]).
fn dedup_within_origin(mut found: Vec<Cycle>) -> Vec<Cycle> {
    let mut local_seen: std::collections::HashSet<Vec<EdgeId>> =
        std::collections::HashSet::with_capacity(found.len());
    found.retain(|cycle| local_seen.insert(cycle.canonical_edges()));
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

/// The work-stealing task list of one enumeration: `(origin, first-hop range)`
/// pairs in origin-then-subtask order — the deterministic merge order.
fn cycle_tasks(
    graph: &DiGraph,
    kind: CycleKind,
    workers: usize,
    steal: &StealConfig,
) -> Vec<(NodeId, std::ops::Range<usize>)> {
    let mut tasks = Vec::with_capacity(graph.node_count());
    for origin in graph.nodes() {
        let hop_count = match kind {
            CycleKind::Directed => graph.out_degree(origin),
            CycleKind::Undirected => graph.degree(origin),
        };
        for range in steal.subtask_ranges(hop_count, workers) {
            tasks.push((origin, range));
        }
    }
    tasks
}

fn enumerate_impl(
    graph: &DiGraph,
    max_len: usize,
    kind: CycleKind,
    parallelism: usize,
    steal: &StealConfig,
) -> Vec<Cycle> {
    if max_len < 2 {
        return Vec::new();
    }
    let node_count = graph.node_count();
    let workers = effective_parallelism(parallelism).min(node_count.max(1));
    let mut found: Vec<Cycle> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<EdgeId>> = std::collections::HashSet::new();
    if workers <= 1 {
        // Stream origin by origin: only one origin's candidates are buffered at a
        // time, matching the pre-refactor single-pass memory profile.
        for origin in graph.nodes() {
            merge_into(
                search_from_origin(graph, origin, max_len, kind),
                &mut seen,
                &mut found,
            );
        }
        return found;
    }
    // Split heavy origins into first-hop subtasks and let idle workers steal them.
    let tasks = cycle_tasks(graph, kind, workers, steal);
    let results = run_stealing(workers, tasks.len(), |i| {
        let (origin, ref range) = tasks[i];
        search_from_origin_hops(graph, origin, range.clone(), max_len, kind)
    });
    // Merge in origin-then-subtask order: concatenating one origin's subtask
    // results in range order reproduces the serial per-origin discovery order, so
    // applying the same origin-local dedup followed by the same cross-origin merge
    // yields byte-for-byte the serial enumeration.
    let mut results = results.into_iter();
    let mut index = 0;
    while index < tasks.len() {
        let origin = tasks[index].0;
        let mut candidates = Vec::new();
        while index < tasks.len() && tasks[index].0 == origin {
            candidates.extend(results.next().expect("one result per task"));
            index += 1;
        }
        merge_into(dedup_within_origin(candidates), &mut seen, &mut found);
    }
    found
}

/// Measures the serial cost of every work-stealing subtask of a directed-cycle
/// enumeration, as it would be decomposed for `workers` workers.
///
/// Subtasks run one at a time on the calling thread, so each [`SubtaskCost`] is an
/// uncontended per-subtask CPU cost. The tail-latency bench replays these costs
/// under the static per-origin split and the work-stealing schedule to quantify how
/// much a hub origin's tail shrinks — a measurement that stays meaningful on
/// single-core hosts, where wall-clock speedups cannot show.
pub fn cycle_subtask_costs(
    graph: &DiGraph,
    max_len: usize,
    workers: usize,
    steal: &StealConfig,
) -> Vec<SubtaskCost> {
    let tasks = cycle_tasks(graph, CycleKind::Directed, workers, steal);
    let mut costs = Vec::with_capacity(tasks.len());
    let mut subtask = 0;
    let mut previous_origin = None;
    for (origin, range) in tasks {
        if previous_origin != Some(origin) {
            subtask = 0;
            previous_origin = Some(origin);
        }
        let (candidates, cost) =
            timed(|| search_from_origin_hops(graph, origin, range, max_len, CycleKind::Directed));
        std::hint::black_box(candidates.len());
        costs.push(SubtaskCost {
            origin: origin.0,
            subtask,
            cost,
        });
        subtask += 1;
    }
    costs
}

#[allow(clippy::too_many_arguments)]
fn search(
    graph: &DiGraph,
    origin: NodeId,
    current: NodeId,
    remaining: usize,
    kind: CycleKind,
    node_path: &mut Vec<NodeId>,
    edge_path: &mut Vec<EdgeId>,
    on_path: &mut [bool],
    found: &mut Vec<Cycle>,
) {
    if remaining == 0 {
        return;
    }
    let hops: Vec<(EdgeId, NodeId)> = match kind {
        CycleKind::Directed => graph.outgoing(current).map(|e| (e.id, e.target)).collect(),
        CycleKind::Undirected => graph
            .outgoing(current)
            .map(|e| (e.id, e.target))
            .chain(graph.incoming(current).map(|e| (e.id, e.source)))
            .collect(),
    };
    for (edge, next) in hops {
        if edge_path.contains(&edge) {
            continue;
        }
        if next == current {
            // Self-loop: skip.
            continue;
        }
        if next == origin {
            // A cycle closes. Only report from the smallest node to avoid duplicates,
            // and require length >= 2.
            if edge_path.is_empty() {
                // single-edge "cycle" impossible here since next != current
            }
            let mut cycle = Cycle {
                nodes: node_path.clone(),
                edges: {
                    let mut e = edge_path.clone();
                    e.push(edge);
                    e
                },
                kind,
            };
            if cycle.len() >= 2 {
                // For undirected cycles require length >= 3 unless the two edges are distinct
                // parallel/antiparallel edges (they always are distinct by the contains check),
                // which we do allow. Deduplication (the same cycle reachable from
                // several origins, or traversed in both directions) happens in
                // `merge_deduplicated`, keeping per-origin searches independent.
                cycle.normalize();
                found.push(cycle);
            }
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
            kind,
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

/// Cycles passing through a specific edge.
///
/// The directed case is a *targeted* search — a simple cycle through `e = (u, v)` is
/// exactly a simple directed path `v ⇝ u` of length `≤ max_len − 1` closed by `e` — so
/// its cost is bounded by the paths near the edge rather than by the whole graph. This
/// is the workhorse of incremental evidence maintenance: adding one mapping only pays
/// for the cycles that mapping creates. The undirected case falls back to filtering the
/// full enumeration.
pub fn cycles_through_edge(
    graph: &DiGraph,
    edge: EdgeId,
    max_len: usize,
    directed: bool,
) -> Vec<Cycle> {
    if !directed {
        return enumerate_undirected_cycles(graph, max_len)
            .into_iter()
            .filter(|c| c.contains_edge(edge))
            .collect();
    }
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
                kind: CycleKind::Directed,
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
        assert_eq!(cycles[0].kind, CycleKind::Directed);
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
    fn paper_figure4_undirected_has_three_cycles() {
        // Figure 4: undirected mappings m12, m23, m34, m41, m24 -> cycles f1 (len 4),
        // f2 (m12, m24, m41) and f3 (m23, m34, m24).
        let mut g = DiGraph::with_nodes(4);
        let p = |i: usize| NodeId(i);
        let m12 = g.add_edge(p(0), p(1));
        let m23 = g.add_edge(p(1), p(2));
        let m34 = g.add_edge(p(2), p(3));
        let m41 = g.add_edge(p(3), p(0));
        let m24 = g.add_edge(p(1), p(3));
        let cycles = enumerate_undirected_cycles(&g, 4);
        assert_eq!(cycles.len(), 3);
        let mut lens: Vec<usize> = cycles.iter().map(Cycle::len).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![3, 3, 4]);
        assert!(cycles.iter().any(|c| c.len() == 3
            && c.contains_edge(m12)
            && c.contains_edge(m24)
            && c.contains_edge(m41)));
        assert!(cycles.iter().any(|c| c.len() == 3
            && c.contains_edge(m23)
            && c.contains_edge(m34)
            && c.contains_edge(m24)));
        assert!(cycles.iter().any(|c| c.len() == 4
            && c.contains_edge(m12)
            && c.contains_edge(m23)
            && c.contains_edge(m34)
            && c.contains_edge(m41)));
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
        let through_m24 = cycles_through_edge(&g, m[5], 4, true);
        assert_eq!(through_m24.len(), 1);
        assert_eq!(through_m24[0].len(), 3);
    }

    #[test]
    fn targeted_search_matches_filtered_enumeration_on_every_edge() {
        let (g, m) = paper_directed_example();
        for &edge in &m {
            for max_len in 2..=5 {
                let mut targeted: Vec<Vec<EdgeId>> = cycles_through_edge(&g, edge, max_len, true)
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
        let targeted = cycles_through_edge(&g, m[5], 4, true);
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
        assert!(cycles_through_edge(&g, m[5], 5, true).is_empty());
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
        let (g, _) = paper_directed_example();
        for max_len in 2..=6 {
            let serial = enumerate_cycles(&g, max_len);
            let serial_undirected = enumerate_undirected_cycles(&g, max_len);
            for workers in [1, 2, 3, 4, 16] {
                assert_eq!(
                    enumerate_cycles_scheduled(&g, max_len, workers, &StealConfig::default()),
                    serial,
                    "directed, max_len {max_len}, {workers} workers"
                );
                assert_eq!(
                    enumerate_undirected_cycles_scheduled(
                        &g,
                        max_len,
                        workers,
                        &StealConfig::default()
                    ),
                    serial_undirected,
                    "undirected, max_len {max_len}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn work_stealing_schedule_is_identical_to_serial_for_every_steal_config() {
        // A hub-and-ring graph: node 0 is a high-degree hub whose search gets split
        // into first-hop subtasks at aggressive steal settings.
        let mut g = DiGraph::with_nodes(8);
        for i in 0..8 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 8));
        }
        for i in 1..8 {
            g.add_edge(NodeId(0), NodeId(i));
            g.add_edge(NodeId(i), NodeId(0));
        }
        for max_len in [3, 5] {
            let serial = enumerate_cycles(&g, max_len);
            let serial_undirected = enumerate_undirected_cycles(&g, max_len);
            for workers in [2, 3, 8] {
                for (threshold, granularity) in [(1, 1), (2, 3), (4, 2), (100, 1)] {
                    let steal = StealConfig {
                        heavy_origin_threshold: threshold,
                        steal_granularity: granularity,
                    };
                    assert_eq!(
                        enumerate_cycles_scheduled(&g, max_len, workers, &steal),
                        serial,
                        "directed, max_len {max_len}, {workers} workers, steal {steal:?}"
                    );
                    assert_eq!(
                        enumerate_undirected_cycles_scheduled(&g, max_len, workers, &steal),
                        serial_undirected,
                        "undirected, max_len {max_len}, {workers} workers, steal {steal:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn subtask_costs_cover_every_origin_and_split_the_hub() {
        let mut g = DiGraph::with_nodes(6);
        for i in 1..6 {
            g.add_edge(NodeId(0), NodeId(i));
            g.add_edge(NodeId(i), NodeId((i % 5) + 1));
        }
        let steal = StealConfig {
            heavy_origin_threshold: 3,
            steal_granularity: 1,
        };
        let costs = cycle_subtask_costs(&g, 5, 4, &steal);
        // Origin 0 has out-degree 5 >= threshold 3, so it contributes 5 subtasks.
        let hub_subtasks = costs.iter().filter(|c| c.origin == 0).count();
        assert_eq!(hub_subtasks, 5);
        // Every origin appears, and subtask indices are dense per origin.
        for origin in 0..6 {
            let per_origin: Vec<_> = costs.iter().filter(|c| c.origin == origin).collect();
            assert!(!per_origin.is_empty(), "origin {origin} missing");
            for (i, entry) in per_origin.iter().enumerate() {
                assert_eq!(entry.subtask, i);
            }
        }
    }

    #[test]
    fn parallel_enumeration_handles_more_workers_than_nodes() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        let cycles = enumerate_cycles_scheduled(&g, 10, 64, &StealConfig::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles, enumerate_cycles(&g, 10));
    }
}
