//! Cycle-voting baseline ("Chatty Web"-style heuristics, references [2, 3] of the paper).
//!
//! The paper's own earlier approach analysed cycles without a probabilistic model:
//! every cycle casts a vote on all of its mappings — positive feedback is a good vote,
//! negative feedback a bad vote — and a mapping is disqualified when its bad-vote share
//! crosses a threshold. Because the votes ignore the interdependencies between cycles,
//! a single faulty mapping drags down every correct mapping that happens to share a
//! cycle with it; Section 6 points out that on the introductory example this heuristic
//! disqualifies all three left-hand mappings while only one of them is wrong. This
//! module implements that heuristic so the improvement of the factor-graph approach can
//! be quantified.

use crate::cycle_analysis::CycleAnalysis;
use crate::feedback::Feedback;
use pdms_schema::{AttributeId, MappingId};
use std::collections::BTreeMap;

/// Vote tallies for one `(mapping, attribute)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct VoteTally {
    /// Number of cycles/parallel paths with positive feedback containing the mapping.
    pub positive: usize,
    /// Number with negative feedback.
    pub negative: usize,
}

impl VoteTally {
    /// Fraction of good votes; 0.5 when there is no vote at all (ignorance).
    pub fn score(&self) -> f64 {
        let total = self.positive + self.negative;
        if total == 0 {
            0.5
        } else {
            self.positive as f64 / total as f64
        }
    }
}

/// The cycle-voting baseline.
#[derive(Debug, Clone, Default)]
pub struct VotingBaseline {
    tallies: BTreeMap<(MappingId, AttributeId), VoteTally>,
}

impl VotingBaseline {
    /// Tallies votes from an analysis: every informative observation votes on every
    /// `(mapping, attribute-it-was-given)` pair along its path.
    pub fn from_analysis(analysis: &CycleAnalysis) -> Self {
        let mut tallies: BTreeMap<(MappingId, AttributeId), VoteTally> = BTreeMap::new();
        for obs in analysis.informative_observations() {
            for (mapping, attribute) in &obs.steps {
                let tally = tallies.entry((*mapping, *attribute)).or_default();
                match obs.feedback {
                    Feedback::Positive => tally.positive += 1,
                    Feedback::Negative => tally.negative += 1,
                    Feedback::Neutral => {}
                }
            }
        }
        Self { tallies }
    }

    /// The tally of one `(mapping, attribute)` pair.
    fn tally(&self, mapping: MappingId, attribute: AttributeId) -> VoteTally {
        self.tallies
            .get(&(mapping, attribute))
            .copied()
            .unwrap_or_default()
    }

    /// Score (good-vote fraction) of one pair.
    pub fn score(&self, mapping: MappingId, attribute: AttributeId) -> f64 {
        self.tally(mapping, attribute).score()
    }

    /// Worst (minimum) per-attribute score among the attributes of `mapping` that
    /// received at least one vote, or `None` when nothing voted on the mapping — the
    /// conservative coarse-granularity aggregate (a mapping is only as good as its
    /// worst attribute).
    pub fn mapping_score(&self, mapping: MappingId) -> Option<f64> {
        self.tallies
            .range((mapping, AttributeId(0))..=(mapping, AttributeId(usize::MAX)))
            .map(|(_, tally)| tally.score())
            .fold(None, |worst, score| {
                Some(worst.map_or(score, |w: f64| w.min(score)))
            })
    }

    /// Pairs whose score falls strictly below `threshold` — the mappings the heuristic
    /// disqualifies.
    pub fn disqualified(&self, threshold: f64) -> Vec<(MappingId, AttributeId)> {
        self.tallies
            .iter()
            .filter(|(_, t)| t.score() < threshold)
            .map(|((m, a), _)| (*m, *a))
            .collect()
    }

    /// Number of `(mapping, attribute)` pairs with at least one vote.
    pub fn len(&self) -> usize {
        self.tallies.len()
    }

    /// True when no vote has been tallied.
    pub fn is_empty(&self) -> bool {
        self.tallies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::AnalysisConfig;
    use crate::embedded::{run_embedded, EmbeddedConfig};
    use crate::local_graph::{Granularity, MappingModel, VariableKey};
    use pdms_schema::{Catalog, PeerId};

    /// The introductory example: the faulty m24 shares cycles with correct mappings.
    fn intro_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    s.attributes(["Creator", "Item", "CreatedOn"]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            m.correct(AttributeId(0), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        };
        cat.add_mapping(peers[0], peers[1], correct);
        cat.add_mapping(peers[1], peers[2], correct);
        cat.add_mapping(peers[2], peers[3], correct);
        cat.add_mapping(peers[3], peers[0], correct);
        cat.add_mapping(peers[1], peers[3], |m| {
            m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        });
        cat
    }

    #[test]
    fn votes_are_tallied_per_mapping_and_attribute() {
        let cat = intro_catalog();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let baseline = VotingBaseline::from_analysis(&analysis);
        assert!(!baseline.is_empty());
        // m24 on Creator only appears in negative evidence.
        let tally = baseline.tally(MappingId(4), AttributeId(0));
        assert_eq!(tally.positive, 0);
        assert!(tally.negative >= 1);
        assert_eq!(tally.score(), 0.0);
    }

    #[test]
    fn voting_disqualifies_correct_mappings_that_share_cycles_with_the_faulty_one() {
        // The Section 6 comparison: the heuristic punishes every mapping appearing in a
        // negative cycle, so some correct mappings fall below 0.5 too, whereas the
        // factor-graph approach isolates m24.
        let cat = intro_catalog();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let baseline = VotingBaseline::from_analysis(&analysis);
        // The faulty pair is nailed to a score of zero…
        assert!(baseline
            .disqualified(0.5)
            .contains(&(MappingId(4), AttributeId(0))));
        // …but the correct mapping m12, which shares the negative cycle f2 with m24 on
        // Creator, is stuck at the break-even score 0.5: the vote count cannot
        // exonerate it, so any cautious threshold (here 0.55) wrongly disqualifies it
        // as well.
        assert_eq!(baseline.score(MappingId(0), AttributeId(0)), 0.5);
        let disqualified = baseline.disqualified(0.55);
        let wrongly_disqualified = disqualified
            .iter()
            .filter(|(m, a)| cat.mapping(*m).is_correct_for(*a).unwrap_or(true))
            .count();
        assert!(
            wrongly_disqualified > 0,
            "the voting heuristic should over-penalise correct mappings on this example"
        );

        // The probabilistic approach, in contrast, keeps every correct Creator mapping
        // above 0.5.
        let model = MappingModel::build(&cat, &analysis, Granularity::Fine, 0.1);
        let report = run_embedded(&model, &BTreeMap::new(), 0.5, EmbeddedConfig::default());
        let creator_correct_ok = model.variables.iter().enumerate().all(|(i, key)| {
            if key.attribute != Some(AttributeId(0)) || key.mapping == MappingId(4) {
                true
            } else {
                report.posterior(i) > 0.5
            }
        });
        assert!(creator_correct_ok);
        let m24 = model
            .variable_index(&VariableKey {
                mapping: MappingId(4),
                attribute: Some(AttributeId(0)),
            })
            .unwrap();
        assert!(report.posterior(m24) < 0.5);
    }

    #[test]
    fn score_defaults_to_half_without_votes() {
        let baseline = VotingBaseline::default();
        assert_eq!(baseline.score(MappingId(9), AttributeId(9)), 0.5);
        assert!(baseline.disqualified(0.5).is_empty());
    }

    #[test]
    fn mapping_score_is_the_minimum_over_voted_attributes() {
        let cat = intro_catalog();
        let analysis = CycleAnalysis::analyze(&cat, &AnalysisConfig::default());
        let baseline = VotingBaseline::from_analysis(&analysis);
        // m24 has a 0.0 score on Creator, positive votes elsewhere: min is 0.0.
        assert_eq!(baseline.mapping_score(MappingId(4)), Some(0.0));
        // m12's worst voted attribute is the break-even Creator tally.
        assert_eq!(baseline.mapping_score(MappingId(0)), Some(0.5));
        // A mapping nothing voted on has no score at all.
        assert_eq!(baseline.mapping_score(MappingId(17)), None);
        // The minimum never exceeds any individual attribute score.
        for (mapping, attribute) in baseline.tallies.keys() {
            let aggregate = baseline.mapping_score(*mapping).unwrap();
            assert!(aggregate <= baseline.score(*mapping, *attribute) + 1e-12);
        }
    }
}
