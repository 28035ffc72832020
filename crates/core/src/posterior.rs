//! Posterior mapping-quality tables.
//!
//! The output of an inference run, indexed the way the rest of the system consumes it:
//! `P(mapping m preserves attribute a)`. The table also implements the paper's `⊥`
//! rule — "the probability on the correctness of a mapping link drops to zero for a
//! specific attribute if the mapping does not provide any mapping for the attribute"
//! (Section 3.2.1) — and falls back from fine to coarse granularity when an attribute
//! was never exercised by any cycle.

use crate::local_graph::{MappingModel, VariableKey};
use pdms_schema::{AttributeId, Catalog, MappingId};
use std::collections::BTreeMap;

/// Posterior probabilities of correctness, per mapping and per attribute.
#[derive(Debug, Clone, Default)]
pub struct PosteriorTable {
    fine: BTreeMap<(MappingId, AttributeId), f64>,
    coarse: BTreeMap<MappingId, f64>,
    /// Probability returned when nothing at all is known about a mapping/attribute.
    default: f64,
}

impl PosteriorTable {
    /// Creates an empty table with the given default probability (0.5 expresses
    /// complete ignorance, the maximum-entropy choice of Section 4.4).
    pub fn new(default: f64) -> Self {
        Self {
            fine: BTreeMap::new(),
            coarse: BTreeMap::new(),
            default,
        }
    }

    /// Builds a table from a model and the posteriors of its variables (the vectors
    /// produced by the embedded scheme, loopy BP, or exact inference).
    ///
    /// Coarse entries are filled with the minimum over the fine entries of the same
    /// mapping — the conservative aggregation: a mapping is only as good as its worst
    /// attribute.
    pub fn from_model(model: &MappingModel, posteriors: &[f64], default: f64) -> Self {
        assert_eq!(
            model.variable_count(),
            posteriors.len(),
            "posterior/variable mismatch"
        );
        let mut table = Self::new(default);
        for (key, p) in model.variables.iter().zip(posteriors) {
            match key.attribute {
                Some(attr) => {
                    table.fine.insert((key.mapping, attr), *p);
                    let entry = table.coarse.entry(key.mapping).or_insert(f64::INFINITY);
                    *entry = entry.min(*p);
                }
                None => {
                    table.coarse.insert(key.mapping, *p);
                }
            }
        }
        // Normalise infinities left by the min-fold (cannot happen unless a mapping has
        // no fine entry, in which case the coarse entry was set directly).
        for value in table.coarse.values_mut() {
            if !value.is_finite() {
                *value = default;
            }
        }
        table
    }

    /// Sets the fine-granularity posterior of `(mapping, attribute)`.
    pub fn set(&mut self, mapping: MappingId, attribute: AttributeId, probability: f64) {
        self.fine.insert((mapping, attribute), probability);
        let entry = self.coarse.entry(mapping).or_insert(probability);
        *entry = entry.min(probability);
    }

    /// Sets the coarse-granularity posterior of a mapping.
    pub fn set_coarse(&mut self, mapping: MappingId, probability: f64) {
        self.coarse.insert(mapping, probability);
    }

    /// Removes every entry (fine and coarse) of a mapping, returning lookups for it
    /// to the default probability. Used by callers that maintain a merged table
    /// incrementally (e.g. the sharded session patching only changed shards).
    pub fn clear_mapping(&mut self, mapping: MappingId) {
        let keys: Vec<(MappingId, AttributeId)> = self
            .fine
            .range((mapping, AttributeId(0))..=(mapping, AttributeId(usize::MAX)))
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            self.fine.remove(&key);
        }
        self.coarse.remove(&mapping);
    }

    /// Posterior that `mapping` preserves `attribute`, applying the `⊥` rule against
    /// the catalog: a mapping with no correspondence for the attribute has probability
    /// zero of preserving it.
    pub fn probability(
        &self,
        catalog: &Catalog,
        mapping: MappingId,
        attribute: AttributeId,
    ) -> f64 {
        if catalog.mapping(mapping).apply(attribute).is_none() {
            return 0.0;
        }
        self.probability_ignoring_bottom(mapping, attribute)
    }

    /// Posterior lookup without consulting the catalog (no `⊥` rule): fine entry if
    /// present, else the mapping's coarse entry, else the default.
    pub fn probability_ignoring_bottom(&self, mapping: MappingId, attribute: AttributeId) -> f64 {
        if let Some(p) = self.fine.get(&(mapping, attribute)) {
            return *p;
        }
        self.coarse.get(&mapping).copied().unwrap_or(self.default)
    }

    /// Coarse posterior of a mapping (worst attribute seen, or the default).
    pub fn mapping_probability(&self, mapping: MappingId) -> f64 {
        self.coarse.get(&mapping).copied().unwrap_or(self.default)
    }

    /// All fine-granularity entries.
    pub fn fine_entries(&self) -> impl Iterator<Item = (MappingId, AttributeId, f64)> + '_ {
        self.fine.iter().map(|((m, a), p)| (*m, *a, *p))
    }

    /// All coarse-granularity entries.
    pub fn coarse_entries(&self) -> impl Iterator<Item = (MappingId, f64)> + '_ {
        self.coarse.iter().map(|(m, p)| (*m, *p))
    }

    /// Number of fine entries.
    pub fn len(&self) -> usize {
        self.fine.len()
    }

    /// True when no fine entry is present.
    pub fn is_empty(&self) -> bool {
        self.fine.is_empty()
    }

    /// Largest absolute difference between the fine-granularity posteriors of two
    /// tables, over the union of their entries: an entry present in only one table is
    /// compared against the other table's fallback lookup
    /// ([`PosteriorTable::probability_ignoring_bottom`]). Symmetric.
    pub fn max_abs_difference(&self, other: &PosteriorTable) -> f64 {
        let one_way = |a: &PosteriorTable, b: &PosteriorTable| {
            a.fine_entries()
                .map(|(mapping, attribute, p)| {
                    (p - b.probability_ignoring_bottom(mapping, attribute)).abs()
                })
                .fold(0.0f64, f64::max)
        };
        one_way(self, other).max(one_way(other, self))
    }

    /// Convenience used by prior updates: extracts the posterior of every model
    /// variable into the key→probability shape that [`crate::priors::PriorStore`] and
    /// [`MappingModel::global_factor_graph`] consume.
    pub fn as_variable_map(&self, model: &MappingModel) -> BTreeMap<VariableKey, f64> {
        let mut out = BTreeMap::new();
        for key in &model.variables {
            let p = match key.attribute {
                Some(attr) => self.probability_ignoring_bottom(key.mapping, attr),
                None => self.mapping_probability(key.mapping),
            };
            out.insert(*key, p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
    use crate::local_graph::Granularity;
    use pdms_schema::PeerId;

    fn two_peer_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let p0 = cat.add_peer_with_schema("a", |s| {
            s.attributes(["x", "y"]);
        });
        let p1 = cat.add_peer_with_schema("b", |s| {
            s.attributes(["x", "y"]);
        });
        // Mapping 0 covers only attribute 0; attribute 1 is ⊥.
        cat.add_mapping(p0, p1, |m| m.correct(AttributeId(0), AttributeId(0)));
        cat.add_mapping(p1, p0, |m| {
            m.correct(AttributeId(0), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
        });
        cat
    }

    #[test]
    fn bottom_rule_forces_zero() {
        let cat = two_peer_catalog();
        let table = PosteriorTable::new(0.5);
        assert_eq!(table.probability(&cat, MappingId(0), AttributeId(1)), 0.0);
        assert_eq!(table.probability(&cat, MappingId(0), AttributeId(0)), 0.5);
    }

    #[test]
    fn fine_entries_take_precedence_over_coarse() {
        let mut table = PosteriorTable::new(0.5);
        table.set_coarse(MappingId(3), 0.9);
        table.set(MappingId(3), AttributeId(1), 0.2);
        assert_eq!(
            table.probability_ignoring_bottom(MappingId(3), AttributeId(1)),
            0.2
        );
        assert_eq!(
            table.probability_ignoring_bottom(MappingId(3), AttributeId(7)),
            0.2
        );
    }

    #[test]
    fn coarse_is_minimum_of_fine() {
        let mut table = PosteriorTable::new(0.5);
        table.set(MappingId(0), AttributeId(0), 0.8);
        table.set(MappingId(0), AttributeId(1), 0.3);
        assert!((table.mapping_probability(MappingId(0)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn from_model_round_trips_posteriors() {
        let cat = {
            let mut cat = Catalog::new();
            let peers: Vec<PeerId> = (0..3)
                .map(|i| {
                    cat.add_peer_with_schema(format!("p{i}"), |s| {
                        s.attributes(["alpha"]);
                    })
                })
                .collect();
            for i in 0..3 {
                cat.add_mapping(peers[i], peers[(i + 1) % 3], |m| {
                    m.correct(AttributeId(0), AttributeId(0))
                });
            }
            cat
        };
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let posteriors: Vec<f64> = (0..model.variable_count())
            .map(|i| 0.6 + i as f64 * 0.1)
            .collect();
        let table = PosteriorTable::from_model(&model, &posteriors, 0.5);
        assert_eq!(table.len(), model.variable_count());
        for (i, key) in model.variables.iter().enumerate() {
            let attr = key.attribute.unwrap();
            assert!((table.probability(&cat, key.mapping, attr) - posteriors[i]).abs() < 1e-12);
        }
        let map = table.as_variable_map(&model);
        assert_eq!(map.len(), model.variable_count());
    }

    #[test]
    fn max_abs_difference_covers_entries_only_one_table_has() {
        let mut a = PosteriorTable::new(0.5);
        a.set(MappingId(0), AttributeId(0), 0.9);
        a.set(MappingId(0), AttributeId(1), 0.8);
        let mut b = PosteriorTable::new(0.5);
        b.set(MappingId(0), AttributeId(0), 0.7);
        // b lacks (m0, a1) and falls back to its coarse m0 entry, 0.7: |0.8 − 0.7|.
        // b also has (m1, a0), which a lacks and looks up at its default 0.5:
        // |0.1 − 0.5| = 0.4 is the largest difference.
        b.set(MappingId(1), AttributeId(0), 0.1);
        assert!((a.max_abs_difference(&b) - 0.4).abs() < 1e-12);
        assert_eq!(a.max_abs_difference(&b), b.max_abs_difference(&a));
        assert_eq!(a.max_abs_difference(&a), 0.0);
    }

    #[test]
    fn unknown_mappings_fall_back_to_default() {
        let table = PosteriorTable::new(0.42);
        assert_eq!(table.mapping_probability(MappingId(99)), 0.42);
        assert_eq!(
            table.probability_ignoring_bottom(MappingId(99), AttributeId(0)),
            0.42
        );
        assert!(table.is_empty());
    }
}
