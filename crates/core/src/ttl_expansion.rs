//! Adaptive probe-TTL expansion (Section 5.1.2).
//!
//! Longer cycles carry exponentially less evidence (Figure 10), so peers should not pay
//! for discovering them. The paper proposes a concrete strategy: start with probes of
//! low TTL, gradually raise the TTL, monitor how much the newly discovered cycles move
//! the posteriors, and stop as soon as the change becomes insignificant — at that point
//! the most pertinent cycles have been found. This module implements that strategy
//! by building one [`EngineSession`] per probed TTL and reports the whole trajectory
//! so the trade-off can be inspected (and benchmarked — see the `ttl_expansion`
//! harness).

use crate::cycle_analysis::AnalysisConfig;
use crate::priors::PriorStore;
use crate::session::{EngineBuilder, EngineSession};
use pdms_schema::Catalog;

/// Configuration of the expansion process.
#[derive(Debug, Clone)]
pub struct TtlExpansionConfig {
    /// First TTL probed (cycles shorter than 2 cannot exist).
    pub start_ttl: usize,
    /// Last TTL probed if convergence is never declared.
    pub max_ttl: usize,
    /// Expansion stops once the largest posterior change produced by a TTL increase is
    /// below this threshold.
    pub epsilon: f64,
    /// Number of consecutive insignificant expansions required before stopping (1
    /// reproduces the paper's description; higher values are more conservative).
    pub patience: usize,
    /// Engine settings applied at every step (their analysis bounds are overridden by
    /// the TTL being probed, their priors by the expansion's priors).
    pub engine: EngineBuilder,
}

impl Default for TtlExpansionConfig {
    fn default() -> Self {
        Self {
            start_ttl: 2,
            max_ttl: 10,
            epsilon: 0.01,
            patience: 1,
            engine: EngineBuilder::default(),
        }
    }
}

/// What one TTL step observed.
#[derive(Debug, Clone)]
pub struct TtlExpansionStep {
    /// The TTL probed at this step.
    pub ttl: usize,
    /// Evidence paths (cycles + parallel paths) discovered within this TTL.
    pub evidence_count: usize,
    /// Model variables covered by that evidence.
    pub variable_count: usize,
    /// Largest absolute posterior change relative to the previous step (`None` for the
    /// first step — there is nothing to compare against).
    pub max_posterior_change: Option<f64>,
    /// Iterations used by the inference backend at this step.
    pub rounds: usize,
}

/// The full expansion trajectory.
#[derive(Debug, Clone)]
pub struct TtlExpansionReport {
    /// One entry per TTL probed, in increasing TTL order.
    pub steps: Vec<TtlExpansionStep>,
    /// The TTL at which expansion stopped.
    pub chosen_ttl: usize,
    /// Whether the stop was triggered by the ε-criterion (as opposed to hitting
    /// `max_ttl`).
    pub converged: bool,
    /// The session built at the final step (posteriors at the chosen TTL).
    pub final_session: EngineSession,
}

impl TtlExpansionReport {
    /// Number of TTL steps actually probed.
    pub fn probes(&self) -> usize {
        self.steps.len()
    }
}

/// Runs the adaptive TTL expansion on a catalog.
///
/// # Panics
/// Panics if `start_ttl < 2`, `max_ttl < start_ttl`, or `patience == 0`.
pub fn expand_ttl(catalog: &Catalog, config: &TtlExpansionConfig) -> TtlExpansionReport {
    expand_ttl_with_priors(catalog, config, PriorStore::uninformed())
}

/// [`expand_ttl`] with caller-provided priors.
pub fn expand_ttl_with_priors(
    catalog: &Catalog,
    config: &TtlExpansionConfig,
    priors: PriorStore,
) -> TtlExpansionReport {
    assert!(config.start_ttl >= 2, "cycles need at least two mappings");
    assert!(
        config.max_ttl >= config.start_ttl,
        "max_ttl below start_ttl"
    );
    assert!(config.patience >= 1, "patience must be at least 1");

    let mut steps: Vec<TtlExpansionStep> = Vec::new();
    let mut previous: Option<EngineSession> = None;
    let mut quiet_steps = 0usize;
    let mut converged = false;
    let mut chosen_ttl = config.start_ttl;

    for ttl in config.start_ttl..=config.max_ttl {
        let session = config
            .engine
            .clone()
            .analysis(AnalysisConfig {
                max_cycle_len: ttl,
                max_path_len: ttl.saturating_sub(1).max(1),
                ..config.engine.analysis.clone()
            })
            .priors(priors.clone())
            .build(catalog.clone());
        let change = previous
            .as_ref()
            .map(|prev| prev.posteriors().max_abs_difference(session.posteriors()));
        steps.push(TtlExpansionStep {
            ttl,
            evidence_count: session.analysis().evidences.len(),
            variable_count: session.model().variable_count(),
            max_posterior_change: change,
            rounds: session.rounds(),
        });
        chosen_ttl = ttl;
        let done = match change {
            Some(delta) if delta < config.epsilon => {
                quiet_steps += 1;
                quiet_steps >= config.patience
            }
            Some(_) => {
                quiet_steps = 0;
                false
            }
            None => false,
        };
        previous = Some(session);
        if done {
            converged = true;
            break;
        }
    }

    TtlExpansionReport {
        steps,
        chosen_ttl,
        converged,
        final_session: previous.expect("at least one TTL step ran"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_schema::{AttributeId, PeerId};

    /// The introductory network: cycles of length 3 and 4 plus a parallel path. All the
    /// useful evidence lives at TTL ≤ 4, so expansion should stop early.
    fn intro_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    s.attributes([
                        "Creator",
                        "Item",
                        "CreatedOn",
                        "Title",
                        "Subject",
                        "Medium",
                        "Height",
                        "Width",
                        "Location",
                        "Owner",
                        "Licence",
                    ]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            let mut m = m;
            for a in 0..11 {
                m = m.correct(AttributeId(a), AttributeId(a));
            }
            m
        };
        cat.add_mapping(peers[0], peers[1], correct);
        cat.add_mapping(peers[1], peers[2], correct);
        cat.add_mapping(peers[2], peers[3], correct);
        cat.add_mapping(peers[3], peers[0], correct);
        cat.add_mapping(peers[1], peers[3], |m| {
            let mut m = m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0));
            for a in 1..11 {
                m = m.correct(AttributeId(a), AttributeId(a));
            }
            m
        });
        cat
    }

    #[test]
    fn expansion_stops_before_the_maximum_ttl_on_the_intro_network() {
        let report = expand_ttl(&intro_catalog(), &TtlExpansionConfig::default());
        assert!(report.converged, "expansion should hit the ε criterion");
        assert!(report.chosen_ttl < 10, "chosen TTL {}", report.chosen_ttl);
        assert!(report.chosen_ttl >= 4, "all evidence needs TTL ≥ 4");
        // The trajectory is monotone in discovered evidence.
        for w in report.steps.windows(2) {
            assert!(w[1].evidence_count >= w[0].evidence_count);
            assert!(w[1].ttl == w[0].ttl + 1);
        }
        assert_eq!(report.probes(), report.steps.len());
    }

    #[test]
    fn final_session_matches_a_direct_build_at_the_chosen_ttl() {
        let catalog = intro_catalog();
        let expansion = expand_ttl(&catalog, &TtlExpansionConfig::default());
        let direct = crate::engine::Engine::builder()
            .analysis(AnalysisConfig {
                max_cycle_len: expansion.chosen_ttl,
                max_path_len: expansion.chosen_ttl - 1,
                ..AnalysisConfig::default()
            })
            .build(catalog);
        for (mapping, attribute, p) in expansion.final_session.posteriors().fine_entries() {
            let q = direct
                .posteriors()
                .probability_ignoring_bottom(mapping, attribute);
            assert!((p - q).abs() < 1e-9, "{mapping} {attribute}: {p} vs {q}");
        }
    }

    #[test]
    fn first_step_has_no_change_measurement() {
        let report = expand_ttl(&intro_catalog(), &TtlExpansionConfig::default());
        assert!(report.steps[0].max_posterior_change.is_none());
        for step in &report.steps[1..] {
            assert!(step.max_posterior_change.is_some());
        }
    }

    #[test]
    fn higher_patience_probes_at_least_as_far() {
        let catalog = intro_catalog();
        let eager = expand_ttl(
            &catalog,
            &TtlExpansionConfig {
                patience: 1,
                ..Default::default()
            },
        );
        let cautious = expand_ttl(
            &catalog,
            &TtlExpansionConfig {
                patience: 3,
                ..Default::default()
            },
        );
        assert!(cautious.chosen_ttl >= eager.chosen_ttl);
    }

    #[test]
    fn acyclic_networks_stop_as_soon_as_nothing_changes() {
        // A chain has no cycles at any TTL: every step discovers nothing, the change is
        // 0 from the second step on, so the ε-criterion fires immediately (there is
        // simply nothing more to learn).
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..3)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
                    s.attributes(["x"]);
                })
            })
            .collect();
        cat.add_mapping(peers[0], peers[1], |m| {
            m.correct(AttributeId(0), AttributeId(0))
        });
        cat.add_mapping(peers[1], peers[2], |m| {
            m.correct(AttributeId(0), AttributeId(0))
        });
        let report = expand_ttl(&cat, &TtlExpansionConfig::default());
        assert!(report.converged);
        assert_eq!(report.final_session.model().variable_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two mappings")]
    fn start_ttl_below_two_panics() {
        expand_ttl(
            &intro_catalog(),
            &TtlExpansionConfig {
                start_ttl: 1,
                ..Default::default()
            },
        );
    }
}
