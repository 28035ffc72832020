//! Core contribution of the paper: probabilistic message passing for assessing the
//! quality of schema mappings in Peer Data Management Systems.
//!
//! Given a catalog of peers, schemas and (possibly faulty) mappings, this crate
//!
//! 1. enumerates mapping **cycles** and **parallel paths** up to a TTL bound
//!    ([`cycle_analysis`]), and maintains them **incrementally** as the network
//!    evolves — additions search only the paths through the new edge, removals drop
//!    only the paths through the dead edge;
//! 2. computes per-attribute **feedback** (positive / negative / neutral) by pushing
//!    the attribute through the transitive closure of the mappings involved
//!    ([`feedback`]);
//! 3. builds, for each peer, the **local factor graph** of Section 4.1 covering its
//!    outgoing mappings ([`local_graph`]);
//! 4. estimates posterior mapping quality through a pluggable
//!    [`backend::InferenceBackend`]: the paper's **embedded message passing**
//!    ([`backend::EmbeddedBackend`], [`embedded`], with decentralized schedules in
//!    [`schedules`]), **centralized exact inference** ([`backend::ExactBackend`]),
//!    or the earlier **cycle-voting heuristic** ([`backend::VotingBackend`]) — and
//!    any caller-provided implementation of the trait;
//! 5. updates **prior beliefs** with the EM-style running average of Section 4.4
//!    ([`priors`]);
//! 6. exposes posterior tables and uses them for **query routing** with
//!    per-attribute thresholds θ ([`posterior`], [`routing`]);
//! 7. and evaluates the result against ground truth ([`metrics`]).
//!
//! The primary entry point is the incremental **engine session** ([`session`]):
//!
//! ```
//! use pdms_core::{Engine, Granularity, NetworkEvent};
//! use pdms_schema::{AttributeId, Catalog};
//!
//! let mut catalog = Catalog::new();
//! let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
//! let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
//! let identity = |mut m: pdms_schema::MappingBuilder| {
//!     for i in 0..3 {
//!         m = m.correct(AttributeId(i), AttributeId(i));
//!     }
//!     m
//! };
//! catalog.add_mapping(a, b, identity);
//! catalog.add_mapping(b, a, identity);
//!
//! let mut session = Engine::builder()
//!     .granularity(Granularity::Fine)
//!     .delta(0.1)
//!     .build(catalog);
//! // The network evolves; only the affected evidence is recomputed and the
//! // message passing restarts warm.
//! session.apply(&[NetworkEvent::Corrupt {
//!     mapping: pdms_schema::MappingId(0),
//!     attribute: AttributeId(0),
//!     wrong_target: AttributeId(1),
//! }]);
//! assert!(session.posteriors().mapping_probability(pdms_schema::MappingId(0)) < 0.5);
//! ```
//!
//! There is one pipeline: a one-shot experiment builds a session and reads it, and
//! the incremental path is validated against a fresh build of the mutated catalog.
//! [`dynamics::DynamicPdms`] layers epoch-based evaluation on top. The crate also
//! provides the paper's operational extensions: adaptive probe-TTL expansion
//! ([`ttl_expansion`]), communication-overhead accounting ([`overhead`]), and the
//! evolving-network machinery ([`dynamics`]). `pdms-workloads` produces catalogs to
//! feed it and `pdms-bench` regenerates every figure of the paper's evaluation
//! section on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod baseline_exact;
pub mod baseline_voting;
pub mod cycle_analysis;
pub mod delta;
pub mod dynamics;
pub mod embedded;
pub mod embedded_baseline;
pub mod engine;
pub mod feedback;
pub mod local_graph;
pub mod metrics;
pub mod overhead;
pub mod posterior;
pub mod priors;
pub mod routing;
pub mod schedules;
pub mod session;
pub mod sharding;
pub mod ttl_expansion;

pub use backend::{
    EmbeddedBackend, ExactBackend, InferenceBackend, InferenceOutcome, InferenceTask, VotingBackend,
};
pub use baseline_exact::{
    exact_posterior_table, exact_posteriors, mean_relative_error, relative_errors,
};
pub use baseline_voting::VotingBaseline;
pub use cycle_analysis::{
    AnalysisConfig, AnalysisDelta, CycleAnalysis, EvidencePath, EvidenceSource,
};
pub use delta::{estimate_delta, estimate_delta_for_sizes, DEFAULT_DELTA};
pub use dynamics::{
    apply_event, apply_event_traced, incident_live_mappings, DynamicPdms, DynamicsConfig,
    EpochReport, EventEffect, NetworkEvent,
};
pub use embedded::{run_embedded, EmbeddedConfig, EmbeddedMessagePassing, EmbeddedReport};
pub use embedded_baseline::{run_embedded_baseline, BaselineMessagePassing};
pub use engine::Engine;
pub use feedback::{Feedback, FeedbackObservation};
pub use local_graph::{Granularity, MappingModel, ModelEvidence, VariableKey};
pub use metrics::{precision_recall, DetectionOutcome, EvaluationReport};
pub use overhead::{communication_overhead, OverheadReport, PeerOverhead};
pub use posterior::PosteriorTable;
pub use priors::PriorStore;
pub use routing::{route_query, RoutingDecision, RoutingOutcome, RoutingPolicy};
pub use schedules::{DecentralizedConfig, DecentralizedRun, PeerInferenceLogic, ScheduleKind};
pub use session::{ApplyReport, EngineBuilder, EngineSession, SessionStats};
pub use sharding::{BatchReport, Shard, ShardedSession, ShardedStats};
pub use ttl_expansion::{
    expand_ttl, expand_ttl_with_priors, TtlExpansionConfig, TtlExpansionReport, TtlExpansionStep,
};
