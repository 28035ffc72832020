//! Attributes: the atomic semantic unit of the PDMS model.
//!
//! A peer's schema is a set of attributes. A mapping connects attributes of one schema
//! to attributes of another; a query selects and projects attributes. The paper does
//! not care whether the attribute is a relational column, an XML element, or an RDF
//! property, so the kind is carried only as metadata.

use std::fmt;

/// Identifier of an attribute *within its schema*.
///
/// Attribute ids are dense per-schema indices, so `(SchemaId, AttributeId)` is globally
/// unique and mappings can be stored as dense per-attribute tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttributeId(pub usize);

impl fmt::Display for AttributeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The modelling construct the attribute came from.
///
/// The paper's examples use XML elements (`/Creator`), XML paths
/// (`/Author/DisplayName`), and OWL classes/properties; relational columns are the
/// obvious third family. The kind does not influence inference; it is kept so that
/// workloads and examples can round-trip realistic schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttributeKind {
    /// An XML element or element path.
    #[default]
    Element,
    /// An XML attribute node.
    XmlAttribute,
    /// A relational column.
    Column,
    /// An RDF/OWL class.
    Class,
    /// An RDF/OWL property.
    Property,
}

impl fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttributeKind::Element => "element",
            AttributeKind::XmlAttribute => "xml-attribute",
            AttributeKind::Column => "column",
            AttributeKind::Class => "class",
            AttributeKind::Property => "property",
        };
        f.write_str(s)
    }
}

/// Full description of one attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeRef {
    /// Identifier within the owning schema.
    pub id: AttributeId,
    /// Human-readable name, e.g. `"Creator"` or `"/Author/DisplayName"`.
    pub name: String,
    /// Modelling construct.
    pub kind: AttributeKind,
}

impl AttributeRef {
    /// Creates a new attribute description.
    pub fn new(id: AttributeId, name: impl Into<String>, kind: AttributeKind) -> Self {
        Self {
            id,
            name: name.into(),
            kind,
        }
    }
}

impl fmt::Display for AttributeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind() {
        let a = AttributeRef::new(AttributeId(1), "Creator", AttributeKind::Property);
        assert_eq!(a.to_string(), "Creator (property)");
    }

    #[test]
    fn attribute_ids_order_by_index() {
        assert!(AttributeId(1) < AttributeId(2));
    }

    #[test]
    fn default_kind_is_element() {
        assert_eq!(AttributeKind::default(), AttributeKind::Element);
    }
}
