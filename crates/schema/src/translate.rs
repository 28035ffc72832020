//! Query translation through mappings and chains of mappings.
//!
//! Translating a query `q` posed against the schema of peer `p0` through a chain of
//! mappings `m0, m1, …, mn-1` produces the query `q' = mn-1(…(m0(q)))`. When the chain
//! closes a cycle (it ends back at `p0`'s schema), `q` and `q'` can be compared
//! attribute by attribute; the three possible per-attribute outcomes of Section 3.2.1 —
//! preserved, substituted, dropped — are the feedback observations that feed the
//! probabilistic model.

use crate::attribute::AttributeId;
use crate::mapping::Mapping;
use crate::query::{Operation, Query};
use std::collections::BTreeMap;

/// Outcome of pushing one attribute through a chain of mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeOutcome {
    /// The attribute survived the whole chain and maps to the given attribute of the
    /// final schema. When the chain is a cycle and the result equals the original
    /// attribute this is the *positive feedback* case (`aj = ai`).
    Mapped(AttributeId),
    /// Some mapping along the chain had no correspondence for the (current image of
    /// the) attribute — the `⊥` case. The index tells which mapping dropped it.
    Dropped {
        /// Position in the chain (0-based) of the mapping that had no correspondence.
        at_step: usize,
    },
}

impl AttributeOutcome {
    /// The final attribute if the chain preserved one.
    pub fn mapped(&self) -> Option<AttributeId> {
        match self {
            AttributeOutcome::Mapped(a) => Some(*a),
            AttributeOutcome::Dropped { .. } => None,
        }
    }

    /// True when the outcome is the `⊥` case.
    fn is_dropped(&self) -> bool {
        matches!(self, AttributeOutcome::Dropped { .. })
    }
}

/// Per-attribute report of a query translation through a chain of mappings.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationReport {
    /// Outcome per original attribute.
    pub outcomes: BTreeMap<AttributeId, AttributeOutcome>,
    /// The translated query expressed over the final schema. Operations whose attribute
    /// was dropped do not appear.
    pub query: Query,
}

impl TranslationReport {
    /// Outcome for one attribute (`None` if the attribute was not part of the query).
    pub fn outcome(&self, attribute: AttributeId) -> Option<&AttributeOutcome> {
        self.outcomes.get(&attribute)
    }

    /// True when every attribute of the original query survived the chain.
    pub fn is_complete(&self) -> bool {
        self.outcomes.values().all(|o| !o.is_dropped())
    }
}

/// Pushes a single attribute through a chain of mappings, returning the outcome.
///
/// The chain must be schema-compatible (`mappings[i].target() == mappings[i+1].source()`);
/// this is asserted in debug builds and silently assumed otherwise since callers obtain
/// chains from cycle enumeration, which guarantees it.
fn translate_attribute(attribute: AttributeId, mappings: &[&Mapping]) -> AttributeOutcome {
    let mut current = attribute;
    for (step, mapping) in mappings.iter().enumerate() {
        if step > 0 {
            debug_assert_eq!(
                mappings[step - 1].target(),
                mapping.source(),
                "mapping chain does not connect at step {step}"
            );
        }
        match mapping.apply(current) {
            Some(next) => current = next,
            None => return AttributeOutcome::Dropped { at_step: step },
        }
    }
    AttributeOutcome::Mapped(current)
}

/// Translates a whole query through a chain of mappings.
///
/// Every operation whose attribute survives the chain is rewritten onto the final
/// schema's attribute; operations on dropped attributes are removed from the translated
/// query (the receiving peer simply cannot evaluate them), but their outcome is still
/// reported so the caller can generate neutral feedback or refuse to forward.
pub fn translate_query(query: &Query, mappings: &[&Mapping]) -> TranslationReport {
    let mut outcomes = BTreeMap::new();
    for attribute in query.attributes() {
        outcomes.insert(attribute, translate_attribute(attribute, mappings));
    }
    let mut translated = Query::new();
    for op in query.operations() {
        let attr = op.attribute();
        if let Some(AttributeOutcome::Mapped(target)) = outcomes.get(&attr) {
            translated = match op {
                Operation::Project(_) => translated.project(*target),
                Operation::Select(_, pred) => translated.select(*target, pred.clone()),
            };
        }
    }
    TranslationReport {
        outcomes,
        query: translated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{MappingBuilder, MappingId};
    use crate::query::Predicate;
    use crate::schema::SchemaId;

    /// Three-schema chain: S0 --m0--> S1 --m1--> S2, and a closing m2 back to S0.
    fn chain() -> (Mapping, Mapping, Mapping) {
        let m0 = MappingBuilder::new(MappingId(0), SchemaId(0), SchemaId(1))
            .correct(AttributeId(0), AttributeId(10))
            .correct(AttributeId(1), AttributeId(11))
            .build();
        let m1 = MappingBuilder::new(MappingId(1), SchemaId(1), SchemaId(2))
            .correct(AttributeId(10), AttributeId(20))
            // attribute 11 has no correspondence: dropped at step 1
            .build();
        let m2 = MappingBuilder::new(MappingId(2), SchemaId(2), SchemaId(0))
            .correct(AttributeId(20), AttributeId(0))
            .build();
        (m0, m1, m2)
    }

    #[test]
    fn attribute_preserved_around_a_correct_cycle() {
        let (m0, m1, m2) = chain();
        let outcome = translate_attribute(AttributeId(0), &[&m0, &m1, &m2]);
        assert_eq!(outcome, AttributeOutcome::Mapped(AttributeId(0)));
    }

    #[test]
    fn attribute_dropped_records_the_step() {
        let (m0, m1, m2) = chain();
        let outcome = translate_attribute(AttributeId(1), &[&m0, &m1, &m2]);
        assert_eq!(outcome, AttributeOutcome::Dropped { at_step: 1 });
        assert!(outcome.is_dropped());
        assert_eq!(outcome.mapped(), None);
    }

    #[test]
    fn erroneous_mapping_changes_the_returned_attribute() {
        // m0 erroneously maps 0 -> 11 (should be 10); the cycle then returns a
        // different attribute than it started from: negative feedback material.
        let m0 = MappingBuilder::new(MappingId(0), SchemaId(0), SchemaId(1))
            .erroneous(AttributeId(0), AttributeId(11), AttributeId(10))
            .build();
        let m1 = MappingBuilder::new(MappingId(1), SchemaId(1), SchemaId(0))
            .correct(AttributeId(10), AttributeId(0))
            .correct(AttributeId(11), AttributeId(3))
            .build();
        let outcome = translate_attribute(AttributeId(0), &[&m0, &m1]);
        assert_eq!(outcome, AttributeOutcome::Mapped(AttributeId(3)));
    }

    #[test]
    fn query_translation_rewrites_operations() {
        let (m0, m1, m2) = chain();
        let q = Query::new()
            .project(AttributeId(0))
            .select(AttributeId(1), Predicate::Contains("river".into()));
        let report = translate_query(&q, &[&m0, &m1, &m2]);
        assert!(!report.is_complete());
        // Only the projection survives (attribute 0 -> 0 around the cycle).
        assert_eq!(report.query.len(), 1);
        assert_eq!(
            report.query.operations()[0],
            Operation::Project(AttributeId(0))
        );
        assert_eq!(
            report.outcome(AttributeId(1)),
            Some(&AttributeOutcome::Dropped { at_step: 1 })
        );
    }

    #[test]
    fn single_hop_translation_matches_mapping_table() {
        let (m0, _, _) = chain();
        let q = Query::new().project(AttributeId(0)).project(AttributeId(1));
        let report = translate_query(&q, &[&m0]);
        assert!(report.is_complete());
        assert_eq!(report.query.attributes().len(), 2);
        assert_eq!(
            report.outcome(AttributeId(0)),
            Some(&AttributeOutcome::Mapped(AttributeId(10)))
        );
    }

    #[test]
    fn empty_chain_is_identity() {
        let q = Query::new().project(AttributeId(5));
        let report = translate_query(&q, &[]);
        assert!(report.is_complete());
        assert_eq!(
            report.outcome(AttributeId(5)),
            Some(&AttributeOutcome::Mapped(AttributeId(5)))
        );
    }
}
