//! Graph substrate for Peer Data Management Systems.
//!
//! A PDMS is, structurally, a graph: peers are nodes and pairwise schema mappings are
//! directed edges. The probabilistic message-passing technique of Cudré-Mauroux et
//! al. (ICDE 2006) consumes two structural features of that graph:
//!
//! * **mapping cycles** — simple directed cycles `p0 → p1 → … → p0`, whose
//!   transitive closure of mapping operations yields feedback on the constituent
//!   mappings, and
//! * **parallel paths** — pairs of edge-disjoint directed paths sharing the same
//!   source and destination peer.
//!
//! This crate provides the graph data structures, bounded enumeration of both features
//! (serial, or parallel with one stealable task per origin — see [`parallelism`]),
//! weakly connected components (from scratch, or maintained under churn), the
//! clustering coefficient and degree statistics, and the random generators used by
//! the evaluation (rings, Erdős–Rényi, Barabási–Albert scale-free — optionally with
//! super-linear preferential attachment for extra-skewed hub-heavy networks — and
//! clustered small-world graphs).
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
pub mod metrics;
pub mod parallelism;
pub mod paths;
pub mod traversal;

pub use adjacency::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use components::{IncrementalComponents, MergeOutcome, SplitOutcome};
pub use cycles::{cycles_through_edge, enumerate_cycles, enumerate_cycles_scheduled, Cycle};
pub use generators::{GeneratorConfig, TopologyKind};
pub use metrics::{clustering_coefficient, degree_stats, DegreeStats};
pub use parallelism::{
    effective_parallelism, run_stealing, DEFAULT_HEAVY_ORIGIN_THRESHOLD, DEFAULT_STEAL_GRANULARITY,
};
pub use paths::{
    enumerate_parallel_paths, enumerate_parallel_paths_scheduled, parallel_paths_through_edge,
    ParallelPaths,
};
pub use traversal::connected_components;
