//! # pdms — Probabilistic Message Passing in Peer Data Management Systems
//!
//! Facade crate for the reproduction of Cudré-Mauroux, Aberer and Feher,
//! *"Probabilistic Message Passing in Peer Data Management Systems"*, ICDE 2006.
//!
//! A Peer Data Management System (PDMS) answers queries over a network of autonomous
//! databases connected by pairwise schema mappings; some of those mappings are wrong.
//! The paper — and this workspace — detects the faulty ones without any central
//! component, by turning mapping cycles and parallel paths into feedback observations
//! over a factor graph and running decentralized loopy belief propagation embedded in
//! normal PDMS query traffic.
//!
//! ## The session API
//!
//! The paper's pitch is *incremental* assessment riding on normal traffic, and the
//! public API mirrors that. An [`core::EngineSession`] is built once, then kept
//! up to date with [`core::NetworkEvent`] deltas; only the evidence touching the
//! changed mappings is recomputed, and iterative inference restarts warm:
//!
//! ```no_run
//! use pdms::core::{Engine, Granularity, NetworkEvent, RoutingPolicy};
//! # let catalog = pdms::workloads::intro_network().0;
//! # let events: Vec<NetworkEvent> = Vec::new();
//! # let queries: Vec<(pdms::schema::PeerId, pdms::schema::Query)> = Vec::new();
//!
//! let mut session = Engine::builder()
//!     .granularity(Granularity::Fine)
//!     .delta(0.1)
//!     .build(catalog);
//!
//! session.apply(&events);                 // network churn: incremental update
//! session.route_all(&queries, &RoutingPolicy::uniform(0.5)); // batch routing
//! session.update_priors();                // Section 4.4 evidence accumulation
//! ```
//!
//! Inference is pluggable through the [`core::InferenceBackend`] trait
//! (embedded message passing, centralized exact, cycle voting, or your own). A
//! one-shot experiment builds a session and reads it; there is no separate batch
//! runner. `MIGRATION.md` at the workspace root maps the removed batch `Engine` API
//! onto the builder.
//!
//! At federation scale, `Engine::builder()…build_sharded(catalog)` returns a
//! [`core::ShardedSession`]: the catalog is partitioned into its weakly connected
//! components — evidence never crosses a component boundary, so the partition is
//! exact — with one incremental session per component,
//! [`core::ShardedSession::apply_batch`] batched ingestion (add/remove pairs
//! coalesce, one inference pass per touched shard), and parallel shard dispatch.
//! See `docs/SHARDING.md`.
//!
//! ## Crate map
//!
//! The functionality lives in the member crates, re-exported here:
//!
//! * [`graph`] — mapping-network topology, cycle and parallel-path enumeration
//!   (including the targeted per-edge searches behind incremental maintenance),
//!   random generators;
//! * [`schema`] — schemas, attributes, queries, mappings (with tombstoned removal),
//!   query translation;
//! * [`factor`] — factor graphs and sum-product (loopy BP) inference;
//! * [`network`] — the wire of the decentralized PDMS: messages and a lossy transport;
//! * [`core`] — the paper's contribution: cycle analysis with incremental
//!   invalidation, local factor graphs, pluggable inference backends, engine
//!   sessions, component-sharded sessions with batched ingestion, prior updates,
//!   posterior-driven routing, baselines, plus the adaptive TTL expansion, overhead
//!   accounting, and network-dynamics machinery of the later sections;
//! * [`workloads`] — the introductory example network, synthetic topologies, the
//!   EON-style ontology alignment scenario, SRS-style clustered topologies, and churn
//!   generators;
//! * [`rdf`] — OWL / RDF-XML / alignment-document import and export (the Section 5.2
//!   tool), so real ontology files can be turned into a PDMS catalog and back.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment-by-experiment reproduction notes.

pub use pdms_core as core;
pub use pdms_factor as factor;
pub use pdms_graph as graph;
pub use pdms_network as network;
pub use pdms_rdf as rdf;
pub use pdms_schema as schema;
pub use pdms_workloads as workloads;
