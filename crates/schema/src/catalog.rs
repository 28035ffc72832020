//! The catalog: peers, their schemas, and the mappings connecting them.
//!
//! A [`Catalog`] is the logical content of a PDMS: which peers exist, which schema each
//! peer exposes, and which pairwise mappings have been declared. It is a passive data
//! structure — the network simulator and the inference engine hold their own views
//! (message queues, factor graphs) keyed by the identifiers defined here.

use crate::mapping::{Mapping, MappingBuilder, MappingId};
use crate::schema::{Schema, SchemaBuilder, SchemaId};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a peer database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub usize);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Registry of peers, schemas and mappings.
///
/// Mapping removal is tombstoned: a removed mapping keeps its [`MappingId`] slot (so
/// identifiers held by analyses, posterior tables and priors stay valid) but stops
/// appearing in [`Catalog::mappings`] and the derived views. This mirrors the
/// tombstoned edge removal of the graph crate, keeping mapping ids and topology edge
/// ids aligned across network evolution.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    peer_names: Vec<String>,
    peer_schemas: Vec<SchemaId>,
    schemas: Vec<Schema>,
    mappings: Vec<Mapping>,
    mapping_endpoints: Vec<(PeerId, PeerId)>,
    removed: Vec<bool>,
    by_endpoints: BTreeMap<(PeerId, PeerId), Vec<MappingId>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a schema built by the given closure and returns its id.
    fn add_schema(
        &mut self,
        name: impl Into<String>,
        build: impl FnOnce(&mut SchemaBuilder),
    ) -> SchemaId {
        let id = SchemaId(self.schemas.len());
        let mut builder = SchemaBuilder::new(id, name);
        build(&mut builder);
        self.schemas.push(builder.build());
        id
    }

    /// Registers a peer exposing an existing schema and returns its id.
    ///
    /// # Panics
    /// Panics if the schema id is unknown.
    fn add_peer(&mut self, name: impl Into<String>, schema: SchemaId) -> PeerId {
        assert!(schema.0 < self.schemas.len(), "unknown schema {schema}");
        let id = PeerId(self.peer_names.len());
        self.peer_names.push(name.into());
        self.peer_schemas.push(schema);
        id
    }

    /// Registers a peer with a freshly built schema of the same name.
    pub fn add_peer_with_schema(
        &mut self,
        name: impl Into<String> + Clone,
        build: impl FnOnce(&mut SchemaBuilder),
    ) -> PeerId {
        let schema = self.add_schema(name.clone(), build);
        self.add_peer(name, schema)
    }

    /// Declares a mapping from `source` peer to `target` peer, built by the closure.
    ///
    /// # Panics
    /// Panics if either peer is unknown.
    pub fn add_mapping(
        &mut self,
        source: PeerId,
        target: PeerId,
        build: impl FnOnce(MappingBuilder) -> MappingBuilder,
    ) -> MappingId {
        assert!(source.0 < self.peer_names.len(), "unknown peer {source}");
        assert!(target.0 < self.peer_names.len(), "unknown peer {target}");
        let id = MappingId(self.mappings.len());
        let builder =
            MappingBuilder::new(id, self.peer_schemas[source.0], self.peer_schemas[target.0]);
        self.mappings.push(build(builder).build());
        self.mapping_endpoints.push((source, target));
        self.removed.push(false);
        self.by_endpoints
            .entry((source, target))
            .or_default()
            .push(id);
        id
    }

    /// Removes a mapping (tombstoned: the id slot survives so other identifiers stay
    /// stable). Returns `false` when the mapping was already removed or never existed.
    pub fn remove_mapping(&mut self, id: MappingId) -> bool {
        match self.removed.get_mut(id.0) {
            Some(removed) if !*removed => {
                *removed = true;
                let endpoints = self.mapping_endpoints[id.0];
                if let Some(ids) = self.by_endpoints.get_mut(&endpoints) {
                    ids.retain(|m| *m != id);
                }
                true
            }
            _ => false,
        }
    }

    /// True when the mapping id refers to a removed (tombstoned) mapping.
    pub fn is_mapping_removed(&self, id: MappingId) -> bool {
        self.removed.get(id.0).copied().unwrap_or(false)
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peer_names.len()
    }

    /// Number of live mappings.
    pub fn mapping_count(&self) -> usize {
        self.removed.iter().filter(|r| !**r).count()
    }

    /// Number of mapping id slots ever allocated, including tombstones. Topology
    /// builders iterate slots so graph edge ids mirror mapping ids exactly.
    pub fn mapping_slot_count(&self) -> usize {
        self.mappings.len()
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.peer_names.len()).map(PeerId)
    }

    /// Peer name.
    pub fn peer_name(&self, peer: PeerId) -> &str {
        &self.peer_names[peer.0]
    }

    /// Schema exposed by a peer.
    pub fn peer_schema(&self, peer: PeerId) -> &Schema {
        &self.schemas[self.peer_schemas[peer.0].0]
    }

    /// Mapping by id.
    pub fn mapping(&self, id: MappingId) -> &Mapping {
        &self.mappings[id.0]
    }

    /// Mutable access to a mapping (used by workload generators to inject or repair
    /// errors after construction).
    pub fn mapping_mut(&mut self, id: MappingId) -> &mut Mapping {
        &mut self.mappings[id.0]
    }

    /// All live mapping ids.
    pub fn mappings(&self) -> impl Iterator<Item = MappingId> + '_ {
        (0..self.mappings.len())
            .filter(|i| !self.removed[*i])
            .map(MappingId)
    }

    /// Source and target peer of a mapping.
    pub fn mapping_endpoints(&self, id: MappingId) -> (PeerId, PeerId) {
        self.mapping_endpoints[id.0]
    }

    /// Mappings departing from a peer (the ones it stores locally, Section 4.1).
    pub fn outgoing_mappings(&self, peer: PeerId) -> Vec<MappingId> {
        self.mappings()
            .filter(|m| self.mapping_endpoints(*m).0 == peer)
            .collect()
    }

    /// Mappings arriving at a peer.
    pub fn incoming_mappings(&self, peer: PeerId) -> Vec<MappingId> {
        self.mappings()
            .filter(|m| self.mapping_endpoints(*m).1 == peer)
            .collect()
    }

    /// Mappings between a specific ordered pair of peers.
    pub fn mappings_between(&self, source: PeerId, target: PeerId) -> &[MappingId] {
        self.by_endpoints
            .get(&(source, target))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of live mappings whose ground truth says they are (at least partly)
    /// erroneous.
    pub fn erroneous_mapping_count(&self) -> usize {
        self.mappings()
            .filter(|m| !self.mappings[m.0].is_correct())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeId;

    fn tiny_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let p0 = cat.add_peer_with_schema("Photoshop", |s| {
            s.attributes(["GUID", "Creator", "Subject"]);
        });
        let p1 = cat.add_peer_with_schema("WinFS", |s| {
            s.attributes(["GUID", "DisplayName", "Keyword"]);
        });
        cat.add_mapping(p0, p1, |m| {
            m.correct(AttributeId(0), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
        });
        cat.add_mapping(p1, p0, |m| {
            m.correct(AttributeId(0), AttributeId(0)).erroneous(
                AttributeId(1),
                AttributeId(2),
                AttributeId(1),
            )
        });
        cat
    }

    #[test]
    fn catalog_counts_are_consistent() {
        let cat = tiny_catalog();
        assert_eq!(cat.peer_count(), 2);
        assert_eq!(cat.mapping_count(), 2);
        assert_eq!(cat.erroneous_mapping_count(), 1);
    }

    #[test]
    fn peer_schema_lookup_works() {
        let cat = tiny_catalog();
        assert_eq!(cat.peer_schema(PeerId(0)).name(), "Photoshop");
        assert_eq!(cat.peer_name(PeerId(1)), "WinFS");
        assert_eq!(cat.peer_schema(PeerId(1)).attribute_count(), 3);
    }

    #[test]
    fn outgoing_and_incoming_mappings() {
        let cat = tiny_catalog();
        assert_eq!(cat.outgoing_mappings(PeerId(0)), vec![MappingId(0)]);
        assert_eq!(cat.incoming_mappings(PeerId(0)), vec![MappingId(1)]);
        assert_eq!(cat.mappings_between(PeerId(0), PeerId(1)), &[MappingId(0)]);
        assert!(cat.mappings_between(PeerId(1), PeerId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown peer")]
    fn mapping_with_unknown_peer_panics() {
        let mut cat = tiny_catalog();
        cat.add_mapping(PeerId(0), PeerId(9), |m| m);
    }

    #[test]
    fn removal_is_tombstoned_and_keeps_ids_stable() {
        let mut cat = tiny_catalog();
        assert!(cat.remove_mapping(MappingId(0)));
        assert!(
            !cat.remove_mapping(MappingId(0)),
            "double removal is a no-op"
        );
        assert!(cat.is_mapping_removed(MappingId(0)));
        assert_eq!(cat.mapping_count(), 1);
        assert_eq!(cat.mapping_slot_count(), 2);
        assert_eq!(cat.mappings().collect::<Vec<_>>(), vec![MappingId(1)]);
        assert!(cat.mappings_between(PeerId(0), PeerId(1)).is_empty());
        assert!(cat.outgoing_mappings(PeerId(0)).is_empty());
        // The tombstoned slot still answers lookups (posterior tables may hold its id).
        assert_eq!(cat.mapping_endpoints(MappingId(0)), (PeerId(0), PeerId(1)));
        // The erroneous mapping is still counted; removing it clears the count.
        assert_eq!(cat.erroneous_mapping_count(), 1);
        assert!(cat.remove_mapping(MappingId(1)));
        assert_eq!(cat.erroneous_mapping_count(), 0);
        // New mappings allocate fresh slots after the tombstones.
        let id = cat.add_mapping(PeerId(0), PeerId(1), |m| {
            m.correct(AttributeId(0), AttributeId(0))
        });
        assert_eq!(id, MappingId(2));
        assert_eq!(cat.mapping_count(), 1);
    }

    #[test]
    fn mapping_mut_allows_error_injection() {
        let mut cat = tiny_catalog();
        // The first mapping is fully correct; no mutation needed to check access works.
        assert!(cat.mapping(MappingId(0)).is_correct());
        let _ = cat.mapping_mut(MappingId(0));
    }
}
