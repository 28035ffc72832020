//! Workload generators for the PDMS message-passing evaluation.
//!
//! These modules back the paper's evaluation section:
//!
//! * [`example`] — the hand-built networks used throughout the paper: the four-peer art
//!   network of the introduction (Figures 1, 4 and 5), the growing-cycle variant of
//!   Figure 8, and the simple positive cycle of Figure 10;
//! * [`synthetic`] — parametric random PDMS networks: a topology (ring, Erdős–Rényi,
//!   scale-free, clustered), per-peer schemas of configurable size, correct mappings
//!   along every edge, and a configurable fraction of injected mapping errors;
//! * [`ontology`] + [`aligner`] — the "real-world schemas" scenario: six bibliographic
//!   ontologies of ~30 concepts whose names are realistic variants of a shared
//!   vocabulary, aligned pairwise by a string-similarity matcher, reproducing the
//!   structure of the EON Ontology Alignment Contest experiment of Figure 12 (see
//!   DESIGN.md for the substitution rationale);
//! * [`srs`] — topologies with the SRS signature reported in Section 3.2.1 (dense
//!   clusters, hub peers, clustering coefficient near 0.54);
//! * [`churn`] — reproducible streams of network-evolution events that drive the
//!   dynamics machinery of `pdms-core` (Sections 4.4 and 7);
//! * [`scenarios`] — one function per figure of the evaluation, which the
//!   `pdms-bench` binaries print, plus the hub-heavy and multi-component
//!   (island) synthetic networks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligner;
pub mod churn;
pub mod example;
pub mod ontology;
pub mod scenarios;
pub mod srs;
pub mod synthetic;

pub use aligner::{align_schemas, AlignerConfig};
pub use churn::{ChurnConfig, ChurnGenerator};
pub use example::{figure5_directed, growing_cycle, intro_network, simple_cycle};
pub use ontology::{generate_ontology_suite, OntologySuite, OntologySuiteConfig};
pub use scenarios::{hub_heavy_network, multi_component_network, ScenarioResult};
pub use srs::{SrsConfig, SrsNetwork};
pub use synthetic::{SyntheticConfig, SyntheticNetwork};
