//! Pairwise schema mappings.
//!
//! A mapping `m : S → T` connects attributes of a source schema to attributes of a
//! target schema. Following the paper's fundamental assumption, a mapping *may be
//! incorrect*: it may connect an attribute to a semantically irrelevant attribute of
//! the target (like the `Creator → CreatedOn` error of the introductory example), or it
//! may have no correspondence at all for an attribute (the `⊥` case).
//!
//! For evaluation purposes each correspondence optionally records the ground-truth
//! target attribute. Ground truth is never consulted by the inference machinery — only
//! by the precision/recall metrics and by workload generators when they inject errors.

use crate::attribute::AttributeId;
use crate::schema::SchemaId;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a mapping within a [`crate::catalog::Catalog`].
///
/// Mapping ids coincide with the edge ids of the mapping-network graph, which keeps the
/// correspondence between the catalog and the topology trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MappingId(pub usize);

impl fmt::Display for MappingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One attribute-level correspondence inside a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correspondence {
    /// Attribute of the target schema the source attribute is mapped onto.
    pub target: AttributeId,
    /// Ground-truth target, when known. `None` means "no semantically correct
    /// counterpart exists in the target schema".
    pub expected: Option<AttributeId>,
}

impl Correspondence {
    /// True when the actual target equals the ground-truth target.
    ///
    /// A correspondence with unknown ground truth is treated as correct — the common
    /// case for hand-validated mappings.
    pub fn is_correct(&self) -> bool {
        match self.expected {
            Some(expected) => self.target == expected,
            None => true,
        }
    }
}

/// A directed pairwise schema mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    id: MappingId,
    source: SchemaId,
    target: SchemaId,
    correspondences: BTreeMap<AttributeId, Correspondence>,
}

impl Mapping {
    /// Source schema.
    pub fn source(&self) -> SchemaId {
        self.source
    }

    /// Target schema.
    pub fn target(&self) -> SchemaId {
        self.target
    }

    /// Applies the mapping to a source attribute. `None` is the `⊥` outcome: the
    /// mapping has no correspondence for this attribute.
    pub fn apply(&self, attribute: AttributeId) -> Option<AttributeId> {
        self.correspondences.get(&attribute).map(|c| c.target)
    }

    /// Number of attribute correspondences.
    pub fn correspondence_count(&self) -> usize {
        self.correspondences.len()
    }

    /// Iterates over `(source attribute, correspondence)` pairs.
    pub fn correspondences(&self) -> impl Iterator<Item = (AttributeId, &Correspondence)> {
        self.correspondences.iter().map(|(a, c)| (*a, c))
    }

    /// Ground truth: is the correspondence for `attribute` semantically correct?
    ///
    /// Returns `None` when the mapping has no correspondence for the attribute.
    pub fn is_correct_for(&self, attribute: AttributeId) -> Option<bool> {
        self.correspondences
            .get(&attribute)
            .map(Correspondence::is_correct)
    }

    /// Ground truth at mapping granularity: a mapping is considered correct when every
    /// correspondence it defines is correct. This is the "coarse granularity" view of
    /// Section 4.1.
    pub fn is_correct(&self) -> bool {
        self.correspondences
            .values()
            .all(Correspondence::is_correct)
    }

    /// Number of incorrect correspondences (for reporting).
    pub fn error_count(&self) -> usize {
        self.correspondences
            .values()
            .filter(|c| !c.is_correct())
            .count()
    }

    /// Inserts or replaces a correspondence after construction. This is the mutation
    /// hook used by workload generators and by the network-dynamics simulation
    /// (mappings being modified is one of the evolution events of Section 4.4).
    pub fn set_correspondence(
        &mut self,
        source_attr: AttributeId,
        target_attr: AttributeId,
        expected: Option<AttributeId>,
    ) {
        self.correspondences.insert(
            source_attr,
            Correspondence {
                target: target_attr,
                expected,
            },
        );
    }

    /// Removes the correspondence for a source attribute (the attribute becomes `⊥`
    /// under this mapping). Returns `true` when a correspondence was present.
    pub fn remove_correspondence(&mut self, source_attr: AttributeId) -> bool {
        self.correspondences.remove(&source_attr).is_some()
    }
}

/// Builder for [`Mapping`].
#[derive(Debug, Clone)]
pub struct MappingBuilder {
    id: MappingId,
    source: SchemaId,
    target: SchemaId,
    correspondences: BTreeMap<AttributeId, Correspondence>,
}

impl MappingBuilder {
    /// Starts a mapping from `source` to `target`.
    pub fn new(id: MappingId, source: SchemaId, target: SchemaId) -> Self {
        Self {
            id,
            source,
            target,
            correspondences: BTreeMap::new(),
        }
    }

    /// Declares a correct correspondence: the actual and expected targets coincide.
    pub fn correct(mut self, source_attr: AttributeId, target_attr: AttributeId) -> Self {
        self.correspondences.insert(
            source_attr,
            Correspondence {
                target: target_attr,
                expected: Some(target_attr),
            },
        );
        self
    }

    /// Declares an erroneous correspondence: the mapping routes `source_attr` to
    /// `actual_target` although the semantically right answer is `expected_target`.
    pub fn erroneous(
        mut self,
        source_attr: AttributeId,
        actual_target: AttributeId,
        expected_target: AttributeId,
    ) -> Self {
        self.correspondences.insert(
            source_attr,
            Correspondence {
                target: actual_target,
                expected: Some(expected_target),
            },
        );
        self
    }

    /// Declares a correspondence without ground truth (e.g. produced by an automatic
    /// aligner before any human judgement).
    pub fn unjudged(mut self, source_attr: AttributeId, target_attr: AttributeId) -> Self {
        self.correspondences.insert(
            source_attr,
            Correspondence {
                target: target_attr,
                expected: None,
            },
        );
        self
    }

    /// Finalises the mapping.
    pub fn build(self) -> Mapping {
        Mapping {
            id: self.id,
            source: self.source,
            target: self.target,
            correspondences: self.correspondences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: usize, s: usize, t: usize) -> MappingBuilder {
        MappingBuilder::new(MappingId(id), SchemaId(s), SchemaId(t))
    }

    #[test]
    fn apply_returns_target_or_bottom() {
        let map = m(0, 0, 1).correct(AttributeId(0), AttributeId(3)).build();
        assert_eq!(map.apply(AttributeId(0)), Some(AttributeId(3)));
        assert_eq!(map.apply(AttributeId(1)), None);
    }

    #[test]
    fn correctness_tracks_ground_truth() {
        let map = m(0, 0, 1)
            .correct(AttributeId(0), AttributeId(0))
            .erroneous(AttributeId(1), AttributeId(2), AttributeId(1))
            .unjudged(AttributeId(2), AttributeId(2))
            .build();
        assert_eq!(map.is_correct_for(AttributeId(0)), Some(true));
        assert_eq!(map.is_correct_for(AttributeId(1)), Some(false));
        assert_eq!(map.is_correct_for(AttributeId(2)), Some(true));
        assert_eq!(map.is_correct_for(AttributeId(3)), None);
        assert!(!map.is_correct());
        assert_eq!(map.error_count(), 1);
    }

    #[test]
    fn post_construction_mutation_updates_ground_truth() {
        let mut map = m(0, 0, 1)
            .correct(AttributeId(0), AttributeId(0))
            .correct(AttributeId(1), AttributeId(1))
            .build();
        assert!(map.is_correct());
        // Corrupt attribute 0: route it to attribute 2 although 0 is right.
        map.set_correspondence(AttributeId(0), AttributeId(2), Some(AttributeId(0)));
        assert!(!map.is_correct());
        assert_eq!(map.error_count(), 1);
        assert_eq!(map.apply(AttributeId(0)), Some(AttributeId(2)));
        // Repair it again.
        map.set_correspondence(AttributeId(0), AttributeId(0), Some(AttributeId(0)));
        assert!(map.is_correct());
        // Remove attribute 1 entirely: it becomes ⊥.
        assert!(map.remove_correspondence(AttributeId(1)));
        assert!(!map.remove_correspondence(AttributeId(1)));
        assert_eq!(map.apply(AttributeId(1)), None);
        assert_eq!(map.correspondence_count(), 1);
    }

    #[test]
    fn redeclaring_a_correspondence_replaces_it() {
        let map = m(0, 0, 1)
            .correct(AttributeId(0), AttributeId(1))
            .correct(AttributeId(0), AttributeId(2))
            .build();
        assert_eq!(map.apply(AttributeId(0)), Some(AttributeId(2)));
        assert_eq!(map.correspondence_count(), 1);
    }
}
