//! Schemas: named collections of attributes owned by one peer (or one cluster of
//! databases sharing a structure, as the paper allows).

use crate::attribute::{AttributeId, AttributeKind, AttributeRef};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a schema within a [`crate::catalog::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaId(pub usize);

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A schema: an ordered set of attributes with unique names.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    id: SchemaId,
    name: String,
    attributes: Vec<AttributeRef>,
    by_name: HashMap<String, AttributeId>,
}

impl Schema {
    /// The schema's human-readable name (e.g. `"WinFS"` or `"bibtex-umbc"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    ///
    /// The paper uses this as the basis for the compensating-error probability Δ:
    /// with `k` attributes, a second random mapping error cancels a previous one with
    /// probability roughly `1/(k-1)`.
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Iterates over the attributes in insertion order.
    pub fn attributes(&self) -> impl Iterator<Item = &AttributeRef> {
        self.attributes.iter()
    }

    /// Looks up an attribute by id.
    pub fn attribute(&self, id: AttributeId) -> Option<&AttributeRef> {
        self.attributes.get(id.0)
    }

    /// Looks up an attribute by exact name.
    pub fn attribute_by_name(&self, name: &str) -> Option<&AttributeRef> {
        self.by_name.get(name).and_then(|id| self.attribute(*id))
    }
}

/// Builder for [`Schema`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    id: SchemaId,
    name: String,
    attributes: Vec<AttributeRef>,
    by_name: HashMap<String, AttributeId>,
}

impl SchemaBuilder {
    /// Starts a schema with the given identifier and name.
    pub fn new(id: SchemaId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            attributes: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds an attribute with an explicit kind and returns its id.
    ///
    /// # Panics
    /// Panics if an attribute with the same name already exists: attribute names are
    /// the join key for mappings and must be unambiguous within one schema.
    pub fn attribute_with_kind(
        &mut self,
        name: impl Into<String>,
        kind: AttributeKind,
    ) -> AttributeId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate attribute name `{name}` in schema `{}`",
            self.name
        );
        let id = AttributeId(self.attributes.len());
        self.by_name.insert(name.clone(), id);
        self.attributes.push(AttributeRef::new(id, name, kind));
        id
    }

    /// Adds an element-kind attribute and returns its id.
    pub fn attribute(&mut self, name: impl Into<String>) -> AttributeId {
        self.attribute_with_kind(name, AttributeKind::Element)
    }

    /// Adds many element-kind attributes at once.
    pub fn attributes<I, S>(&mut self, names: I) -> Vec<AttributeId>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        names.into_iter().map(|n| self.attribute(n)).collect()
    }

    /// Finalises the schema.
    pub fn build(self) -> Schema {
        Schema {
            id: self.id,
            name: self.name,
            attributes: self.attributes,
            by_name: self.by_name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art_schema() -> Schema {
        let mut b = SchemaBuilder::new(SchemaId(0), "ArtDatabank");
        b.attributes(["Creator", "Item", "Title", "CreatedOn"]);
        b.build()
    }

    #[test]
    fn attributes_get_dense_ids() {
        let s = art_schema();
        assert_eq!(s.attribute_count(), 4);
        assert_eq!(s.attribute(AttributeId(0)).unwrap().name, "Creator");
        assert_eq!(s.attribute(AttributeId(3)).unwrap().name, "CreatedOn");
    }

    #[test]
    fn lookup_by_name_round_trips() {
        let s = art_schema();
        let a = s.attribute_by_name("Item").unwrap();
        assert_eq!(s.attribute(a.id).unwrap().name, "Item");
        assert!(s.attribute_by_name("NoSuch").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_panic() {
        let mut b = SchemaBuilder::new(SchemaId(1), "dup");
        b.attribute("Creator");
        b.attribute("Creator");
    }

    #[test]
    fn kinds_are_preserved() {
        let mut b = SchemaBuilder::new(SchemaId(2), "rdf");
        let c = b.attribute_with_kind("Person", AttributeKind::Class);
        let p = b.attribute_with_kind("hasName", AttributeKind::Property);
        let s = b.build();
        assert_eq!(s.attribute(c).unwrap().kind, AttributeKind::Class);
        assert_eq!(s.attribute(p).unwrap().kind, AttributeKind::Property);
    }
}
