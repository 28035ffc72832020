//! Graph substrate for Peer Data Management Systems.
//!
//! A PDMS is, structurally, a graph: peers are nodes and pairwise schema mappings are
//! (directed or undirected) edges. The probabilistic message-passing technique of
//! Cudré-Mauroux et al. (ICDE 2006) consumes two structural features of that graph:
//!
//! * **mapping cycles** — simple cycles `p0 → p1 → … → p0`, whose transitive closure of
//!   mapping operations yields feedback on the constituent mappings, and
//! * **parallel paths** (directed case) — pairs of edge-disjoint directed paths sharing
//!   the same source and destination peer.
//!
//! This crate provides the graph data structures, bounded enumeration of both features
//! (serial, or parallel under a work-stealing schedule that splits hub origins into
//! stealable first-hop subtasks — see [`parallelism`]), TTL-bounded flooding used by
//! probe messages, topology metrics (clustering coefficient, degree distribution) and
//! the random generators used by the evaluation (rings, Erdős–Rényi, Barabási–Albert
//! scale-free — optionally with super-linear preferential attachment for extra-skewed
//! hub-heavy networks — and clustered small-world graphs).
//!
//! The crate is deliberately free of any PDMS-specific notion: nodes and edges carry
//! opaque indices so the same structures back the mapping network, the factor graph
//! layout, and the simulator topology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod components;
pub mod cycles;
pub mod generators;
pub mod loops;
pub mod metrics;
pub mod parallelism;
pub mod paths;
pub mod traversal;

pub use adjacency::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use components::{
    condensation_edges, strongly_connected_components, Condensation, IncrementalComponents,
    MergeOutcome, SplitOutcome,
};
pub use cycles::{
    cycle_subtask_costs, cycles_through_edge, enumerate_cycles, enumerate_cycles_scheduled,
    enumerate_undirected_cycles, enumerate_undirected_cycles_scheduled, Cycle, CycleKind,
};
pub use generators::{GeneratorConfig, TopologyKind};
pub use loops::{
    degree_stats, distance_stats, hop_distances, loop_census, DegreeStats, DistanceStats,
    LoopCensus,
};
pub use metrics::{clustering_coefficient, degree_distribution, GraphMetrics};
pub use parallelism::{
    effective_batch_size, effective_parallelism, effective_shard_parallelism, effective_splice,
    run_stealing, StealConfig, SubtaskCost, BATCH_SIZE_ENV, DEFAULT_HEAVY_ORIGIN_THRESHOLD,
    DEFAULT_STEAL_GRANULARITY, HEAVY_ORIGIN_THRESHOLD_ENV, PARALLELISM_ENV, SHARD_PARALLELISM_ENV,
    SPLICE_ENV, STEAL_GRANULARITY_ENV,
};
pub use paths::{
    enumerate_parallel_paths, enumerate_parallel_paths_scheduled, parallel_path_subtask_costs,
    parallel_paths_through_edge, ParallelPaths,
};
pub use traversal::{bfs_order, connected_components, flood, FloodRecord};
