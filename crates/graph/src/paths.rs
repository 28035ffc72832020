//! Enumeration of parallel mapping paths in directed PDMS networks.
//!
//! In a directed mapping network two edge-disjoint directed paths that share the same
//! source and destination peer ("parallel paths", Section 3.3) play the role that
//! undirected cycles play in the undirected case: the destination peer receives the
//! same query through both paths and can compare the two translations, producing
//! positive, negative or neutral feedback on the union of the mappings involved.

use crate::adjacency::{DiGraph, EdgeId, NodeId};
use crate::parallelism::{effective_parallelism, run_stealing, timed, StealConfig, SubtaskCost};
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
    simple_paths_from_hops(graph, source, 0..usize::MAX, max_len)
}

/// [`simple_paths_from`] restricted to paths whose *first* edge has an index in
/// `hop_range` within `source`'s outgoing-edge order — the stealable unit of the
/// parallel-path enumeration. Concatenating the results of an origin's hop ranges
/// in range order reproduces [`simple_paths_from`] exactly, because the first-hop
/// loop is the outermost level of the DFS.
fn simple_paths_from_hops(
    graph: &DiGraph,
    source: NodeId,
    hop_range: std::ops::Range<usize>,
    max_len: usize,
) -> Vec<(NodeId, Vec<EdgeId>)> {
    let mut out = Vec::new();
    if !graph.contains_node(source) || max_len == 0 {
        return out;
    }
    let mut on_path = vec![false; graph.node_count()];
    on_path[source.0] = true;
    let mut path = Vec::new();
    for (hop, e) in graph.outgoing(source).enumerate() {
        if hop < hop_range.start || hop >= hop_range.end {
            continue;
        }
        if on_path[e.target.0] {
            continue; // self-loop back to the source
        }
        path.push(e.id);
        out.push((e.target, path.clone()));
        on_path[e.target.0] = true;
        paths_rec(
            graph,
            e.target,
            max_len - 1,
            &mut path,
            &mut on_path,
            &mut out,
        );
        on_path[e.target.0] = false;
        path.pop();
    }
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

/// One stealable unit of a parallel-path enumeration.
///
/// A light source is enumerated *and* paired inside one task ([`PathTask::Whole`]),
/// so its simple-path list lives and dies on the worker that ran it — exactly the
/// memory profile of the pre-split per-source fan-out. Only split (hub) sources
/// buffer their first-hop slices across the phase barrier, because pairing needs
/// every path of the source at once (the serial enumeration has the same
/// per-source requirement).
enum PathTask {
    /// Enumerate and pair one whole source in a single task.
    Whole(NodeId),
    /// Enumerate one first-hop slice of a split (hub) source.
    Slice(NodeId, std::ops::Range<usize>),
}

impl PathTask {
    fn source(&self) -> NodeId {
        match self {
            PathTask::Whole(source) => *source,
            PathTask::Slice(source, _) => *source,
        }
    }
}

/// What one [`PathTask`] produced.
enum PathTaskResult {
    /// A whole source's finished pairs.
    Pairs(Vec<ParallelPaths>),
    /// One slice's simple paths, to be paired after the barrier.
    Paths(Vec<(NodeId, Vec<EdgeId>)>),
}

/// The work-stealing task list of one parallel-path enumeration, in
/// source-then-subtask order.
fn path_tasks(graph: &DiGraph, workers: usize, steal: &StealConfig) -> Vec<PathTask> {
    let steal = steal.pinned();
    let mut tasks = Vec::with_capacity(graph.node_count());
    for source in graph.nodes() {
        let ranges = steal.subtask_ranges(graph.out_degree(source), workers);
        if ranges.len() <= 1 {
            tasks.push(PathTask::Whole(source));
        } else {
            for range in ranges {
                tasks.push(PathTask::Slice(source, range));
            }
        }
    }
    tasks
}

/// [`enumerate_parallel_paths`] under an explicit work-stealing schedule.
///
/// The exponential part of the work — enumerating every simple path from a source —
/// is cut at hub sources into first-hop slices that idle workers steal from a
/// shared injector; light sources are enumerated and paired inside one stolen task
/// (phase 1). Only the split hub sources cross the barrier into phase 2, where
/// their slices — reassembled in first-hop order, the serial `simple_paths_from`
/// order — are paired one destination group at a time. Grouping, pairing,
/// filtering and deduplication are byte-for-byte the serial enumeration at every
/// `(parallelism, steal)` setting.
pub fn enumerate_parallel_paths_scheduled(
    graph: &DiGraph,
    max_len: usize,
    parallelism: usize,
    steal: &StealConfig,
) -> Vec<ParallelPaths> {
    let node_count = graph.node_count();
    let workers = effective_parallelism(parallelism).min(node_count.max(1));
    if workers <= 1 {
        return enumerate_parallel_paths(graph, max_len);
    }
    // Phase 1: light sources produce pairs directly; hub slices produce paths.
    let tasks = path_tasks(graph, workers, steal);
    let results = run_stealing(workers, tasks.len(), |i| match &tasks[i] {
        PathTask::Whole(source) => {
            PathTaskResult::Pairs(pairs_from_source(graph, *source, max_len, None))
        }
        PathTask::Slice(source, range) => PathTaskResult::Paths(simple_paths_from_hops(
            graph,
            *source,
            range.clone(),
            max_len,
        )),
    });
    // Regroup per source in task order; buffer paths only for the split sources.
    let mut per_source_pairs: Vec<Vec<ParallelPaths>> = vec![Vec::new(); node_count];
    let mut split_paths: Vec<Vec<(NodeId, Vec<EdgeId>)>> = vec![Vec::new(); node_count];
    let mut is_split = vec![false; node_count];
    let mut split_sources: Vec<NodeId> = Vec::new();
    for (task, result) in tasks.iter().zip(results) {
        match result {
            PathTaskResult::Pairs(pairs) => per_source_pairs[task.source().0] = pairs,
            PathTaskResult::Paths(paths) => {
                let source = task.source();
                if !is_split[source.0] {
                    is_split[source.0] = true;
                    split_sources.push(source);
                }
                split_paths[source.0].extend(paths);
            }
        }
    }
    // Phase 2: steal the pairing of the split (hub) sources, one destination
    // group at a time — the finest grain that preserves the serial output order —
    // so not even a hub's pairing can pin a single worker.
    let split_groups: Vec<(NodeId, DestGroups<'_>)> = split_sources
        .iter()
        .map(|source| {
            (
                *source,
                group_paths_by_dest(*source, &split_paths[source.0]),
            )
        })
        .collect();
    let pairing_tasks: Vec<(usize, NodeId, &[&Vec<EdgeId>])> = split_groups
        .iter()
        .enumerate()
        .flat_map(|(slot, (_, by_dest))| {
            by_dest
                .iter()
                .map(move |(dest, group)| (slot, *dest, group.as_slice()))
        })
        .collect();
    let pairing_tasks = &pairing_tasks;
    let group_pairs = run_stealing(workers, pairing_tasks.len(), |i| {
        let (slot, dest, group) = pairing_tasks[i];
        pair_dest_group(split_groups[slot].0, dest, group, None)
    });
    // Concatenate each split source's destination groups in (source, dest) order —
    // byte-for-byte the serial `pair_paths` output.
    for ((slot, _, _), pairs) in pairing_tasks.iter().zip(group_pairs) {
        per_source_pairs[split_groups[*slot].0 .0].extend(pairs);
    }
    dedup_merge(per_source_pairs)
}

/// Measures the serial cost of every work-stealing subtask of a parallel-path
/// enumeration, as it would be decomposed for `workers` workers.
///
/// Returns the two scheduling pools **separately**, mirroring the two
/// `run_stealing` barriers of [`enumerate_parallel_paths_scheduled`]: first the
/// phase-1 tasks (whole light sources — enumeration *and* pairing fused — plus the
/// hub sources' first-hop slices), then the phase-2 pairing of the split sources.
/// A schedule replay must respect that barrier — phase 2 cannot start before
/// phase 1 completes — so the pools must not be pooled together. Subtasks run one
/// at a time on the calling thread, so the costs are clean inputs for replaying
/// schedules — see [`crate::cycles::cycle_subtask_costs`].
pub fn parallel_path_subtask_costs(
    graph: &DiGraph,
    max_len: usize,
    workers: usize,
    steal: &StealConfig,
) -> (Vec<SubtaskCost>, Vec<SubtaskCost>) {
    let tasks = path_tasks(graph, workers, steal);
    let mut phase1_costs = Vec::with_capacity(tasks.len());
    let mut pairing_costs = Vec::new();
    let mut split_paths: Vec<Vec<(NodeId, Vec<EdgeId>)>> = vec![Vec::new(); graph.node_count()];
    let mut is_split = vec![false; graph.node_count()];
    let mut split_sources: Vec<NodeId> = Vec::new();
    let mut per_source_subtasks = vec![0usize; graph.node_count()];
    for task in tasks {
        let source = task.source();
        let cost = match task {
            PathTask::Whole(source) => {
                let (pairs, cost) = timed(|| pairs_from_source(graph, source, max_len, None));
                std::hint::black_box(pairs.len());
                cost
            }
            PathTask::Slice(source, range) => {
                let (chunk, cost) = timed(|| simple_paths_from_hops(graph, source, range, max_len));
                if !is_split[source.0] {
                    is_split[source.0] = true;
                    split_sources.push(source);
                }
                split_paths[source.0].extend(chunk);
                cost
            }
        };
        phase1_costs.push(SubtaskCost {
            origin: source.0,
            subtask: per_source_subtasks[source.0],
            cost,
        });
        per_source_subtasks[source.0] += 1;
    }
    for source in split_sources {
        // Mirror phase 2's grain: one pairing subtask per destination group.
        for (subtask, (dest, group)) in group_paths_by_dest(source, &split_paths[source.0])
            .into_iter()
            .enumerate()
        {
            let (pairs, cost) = timed(|| pair_dest_group(source, dest, &group, None));
            std::hint::black_box(pairs.len());
            pairing_costs.push(SubtaskCost {
                origin: source.0,
                subtask,
                cost,
            });
        }
    }
    (phase1_costs, pairing_costs)
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
fn pairs_from_source(
    graph: &DiGraph,
    source: NodeId,
    max_len: usize,
    required_edge: Option<EdgeId>,
) -> Vec<ParallelPaths> {
    pair_paths(
        source,
        &simple_paths_from(graph, source, max_len),
        required_edge,
    )
}

/// Pairs an already-enumerated list of simple paths from `source` into
/// edge-disjoint parallel-path pairs — the second half of [`pairs_from_source`],
/// shared with the work-stealing phase 2 so both schedule exactly the serial
/// grouping, pairing and filtering rules over the same path order.
fn pair_paths(
    source: NodeId,
    paths: &[(NodeId, Vec<EdgeId>)],
    required_edge: Option<EdgeId>,
) -> Vec<ParallelPaths> {
    let mut out = Vec::new();
    for (dest, group) in group_paths_by_dest(source, paths) {
        out.extend(pair_dest_group(source, dest, &group, required_edge));
    }
    out
}

/// A source's simple paths grouped by destination, in destination order.
type DestGroups<'a> = BTreeMap<NodeId, Vec<&'a Vec<EdgeId>>>;

/// Groups a source's simple paths by destination, in destination order — a
/// `BTreeMap` so the order never depends on hash seeding. Paths looping back to
/// the source are cycles, handled elsewhere.
fn group_paths_by_dest<'a>(source: NodeId, paths: &'a [(NodeId, Vec<EdgeId>)]) -> DestGroups<'a> {
    let mut by_dest: BTreeMap<NodeId, Vec<&Vec<EdgeId>>> = BTreeMap::new();
    for (dest, path) in paths {
        if *dest == source {
            continue; // that's a cycle, handled elsewhere
        }
        by_dest.entry(*dest).or_default().push(path);
    }
    by_dest
}

/// Pairs one destination group: every `i < j` pair of edge-disjoint paths (in
/// discovery order), optionally filtered to pairs using `required_edge`. One
/// destination group is the finest unit the pairing can be split at without
/// changing the serial output order — the work-stealing phase 2 schedules hub
/// pairing at exactly this grain.
fn pair_dest_group(
    source: NodeId,
    dest: NodeId,
    group: &[&Vec<EdgeId>],
    required_edge: Option<EdgeId>,
) -> Vec<ParallelPaths> {
    let mut out = Vec::new();
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
        let (g, _) = paper_figure5();
        for max_len in 1..=4 {
            let serial = enumerate_parallel_paths(&g, max_len);
            for workers in [1, 2, 3, 4, 16] {
                assert_eq!(
                    enumerate_parallel_paths_scheduled(
                        &g,
                        max_len,
                        workers,
                        &StealConfig::default()
                    ),
                    serial,
                    "max_len {max_len}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn work_stealing_schedule_is_identical_to_serial_for_every_steal_config() {
        // Hub-heavy: node 0 fans out to everyone, several return routes exist.
        let mut g = DiGraph::with_nodes(7);
        for i in 1..7 {
            g.add_edge(NodeId(0), NodeId(i));
        }
        for i in 1..6 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        g.add_edge(NodeId(6), NodeId(1));
        for max_len in [2, 3, 4] {
            let serial = enumerate_parallel_paths(&g, max_len);
            for workers in [2, 4, 16] {
                for (threshold, granularity) in [(1, 1), (2, 2), (4, 3), (100, 1)] {
                    let steal = StealConfig {
                        heavy_origin_threshold: threshold,
                        steal_granularity: granularity,
                    };
                    assert_eq!(
                        enumerate_parallel_paths_scheduled(&g, max_len, workers, &steal),
                        serial,
                        "max_len {max_len}, {workers} workers, steal {steal:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn path_subtask_costs_split_enumeration_and_pairing_pools() {
        let mut g = DiGraph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i));
            g.add_edge(NodeId(i), NodeId(0));
        }
        let steal = StealConfig {
            heavy_origin_threshold: 2,
            steal_granularity: 1,
        };
        let (phase1, pairing) = parallel_path_subtask_costs(&g, 3, 4, &steal);
        // Source 0 (out-degree 4 >= threshold 2): 4 enumeration slices.
        assert_eq!(phase1.iter().filter(|c| c.origin == 0).count(), 4);
        // Sources 1..4 (out-degree 1): one fused enumerate-and-pair task each.
        for source in 1..5 {
            assert_eq!(phase1.iter().filter(|c| c.origin == source).count(), 1);
        }
        // Only the split source crosses the barrier into the pairing pool — one
        // subtask per destination group (source 0 reaches 4 destinations).
        assert_eq!(pairing.len(), 4);
        assert!(pairing.iter().all(|c| c.origin == 0));
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
