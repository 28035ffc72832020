//! Schema, query, and mapping substrate for Peer Data Management Systems.
//!
//! The paper is deliberately agnostic about the data model (Section 2): peers only need
//! to store information with respect to *attributes* (relational attributes, XML
//! elements/attributes, RDF classes/properties), queries are compositions of selection
//! and projection operations over attributes, and a pairwise schema mapping connects
//! semantically similar attributes of two schemas — possibly incorrectly.
//!
//! This crate provides exactly that substrate:
//!
//! * [`attribute`] / [`schema`] — attributes with a kind (element, class, property, …)
//!   and schemas as named collections of attributes;
//! * [`document`] — a small semi-structured document model plus generation helpers so
//!   example applications can actually run queries over data;
//! * [`query`] — selection/projection queries over attributes;
//! * [`mapping`] — attribute-level pairwise mappings between schemas, with ground-truth
//!   bookkeeping for evaluation, composition, and inversion;
//! * [`translate`] — query translation through a mapping and through chains of mappings,
//!   reporting per-attribute outcomes (preserved / substituted / dropped), which is the
//!   raw material of cycle feedback;
//! * [`catalog`] — a registry tying peers, schemas, and mappings together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod catalog;
pub mod document;
pub mod mapping;
pub mod query;
pub mod schema;
pub mod translate;

pub use attribute::{AttributeId, AttributeKind, AttributeRef};
pub use catalog::{Catalog, PeerId};
pub use document::{Document, Value};
pub use mapping::{Mapping, MappingBuilder, MappingId};
pub use query::{Operation, Predicate, Query};
pub use schema::{Schema, SchemaBuilder, SchemaId};
pub use translate::{translate_query, AttributeOutcome, TranslationReport};
