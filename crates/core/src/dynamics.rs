//! Evolving mapping networks: the maintenance-versus-relevance trade-off (Sections 4.4
//! and 7).
//!
//! PDMS are not static: mappings get created, corrupted, repaired and deleted as
//! schemas evolve. The paper's prior-update rule (Section 4.4) exists precisely so the
//! evidence gathered before a change is not thrown away, and its conclusions call out
//! the "tradeoff between the efforts required to maintain the probabilistic network in
//! a coherent state and the potential gain in terms of relevance of results" as an open
//! question. This module provides the machinery to study that trade-off: a
//! [`DynamicPdms`] owns an evolving catalog, applies [`NetworkEvent`]s, re-runs the
//! inference engine epoch by epoch with prior carry-over, and records per-epoch
//! detection quality, posterior drift, and maintenance cost.

use crate::metrics::EvaluationReport;
use crate::overhead::communication_overhead;
use crate::posterior::PosteriorTable;
use crate::priors::PriorStore;
use crate::session::EngineBuilder;
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};

/// One change applied to the mapping network between two epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkEvent {
    /// A new peer joins the network with its own schema. The peer is isolated until
    /// mappings to or from it are declared.
    AddPeer {
        /// Name of the new peer (also used as its schema name).
        name: String,
        /// Attribute names of the peer's schema.
        attributes: Vec<String>,
    },
    /// A new mapping is declared between two existing peers. Each correspondence is
    /// `(source attribute, proposed target, ground-truth target if known)`.
    AddMapping {
        /// Peer the mapping departs from.
        source: PeerId,
        /// Peer the mapping arrives at.
        target: PeerId,
        /// The attribute correspondences of the new mapping.
        correspondences: Vec<(AttributeId, AttributeId, Option<AttributeId>)>,
    },
    /// A mapping is withdrawn entirely (peer departure or administrative removal).
    /// The id slot is tombstoned so other identifiers stay stable.
    RemoveMapping {
        /// The mapping to remove.
        mapping: MappingId,
    },
    /// A peer leaves the network: every live mapping departing from or arriving at
    /// it is withdrawn (tombstoned). The peer id slot itself survives, as an
    /// isolated node, so peer identifiers stay stable — rejoining is modelled by
    /// declaring new mappings to or from the same peer. The event is a no-op when
    /// the peer has no live mappings.
    RemovePeer {
        /// The peer leaving the network.
        peer: PeerId,
    },
    /// An existing correspondence is corrupted: the attribute is re-routed to a wrong
    /// target (the previous ground truth is preserved so the corruption is detectable).
    Corrupt {
        /// The mapping being corrupted.
        mapping: MappingId,
        /// The source attribute whose correspondence changes.
        attribute: AttributeId,
        /// The (wrong) target the attribute now maps to.
        wrong_target: AttributeId,
    },
    /// A corrupted correspondence is repaired back to its ground-truth target. The
    /// event is ignored when no ground truth is recorded.
    Repair {
        /// The mapping being repaired.
        mapping: MappingId,
        /// The source attribute to repair.
        attribute: AttributeId,
    },
    /// A correspondence is deleted; the attribute becomes `⊥` under the mapping.
    Drop {
        /// The mapping losing a correspondence.
        mapping: MappingId,
        /// The source attribute dropped.
        attribute: AttributeId,
    },
}

/// What applying one [`NetworkEvent`] to a catalog actually changed — the signal the
/// incremental session uses to invalidate only the affected evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventEffect {
    /// A peer (and its schema) was added; no evidence is affected until mappings
    /// arrive.
    PeerAdded(PeerId),
    /// A mapping was added: new evidence paths may run through its edge.
    MappingAdded(MappingId),
    /// A mapping was removed: every evidence path through it is gone.
    MappingRemoved(MappingId),
    /// A peer left: all of its incident live mappings were removed at once.
    /// Callers that need the exact list, like the incremental sessions, apply the
    /// event through [`apply_event_traced`], which returns it.
    PeerRetired(PeerId),
    /// A mapping's correspondences changed: evidence structure is intact but the
    /// observations through the mapping must be recomputed.
    MappingChanged(MappingId),
}

impl EventEffect {
    /// The mapping the effect concerns, if any.
    pub fn mapping(&self) -> Option<MappingId> {
        match self {
            EventEffect::PeerAdded(_) | EventEffect::PeerRetired(_) => None,
            EventEffect::MappingAdded(m)
            | EventEffect::MappingRemoved(m)
            | EventEffect::MappingChanged(m) => Some(*m),
        }
    }
}

/// Applies one event to a catalog, reporting what changed. Returns `None` when the
/// event had no effect (repair without ground truth, drop of a missing
/// correspondence, removal of an already-removed mapping, empty new mapping) or
/// names a peer or mapping id the catalog never allocated.
///
/// This is the single source of truth for event semantics, shared by the epoch-based
/// [`DynamicPdms`] and the incremental [`crate::session::EngineSession`]. Callers
/// that need the mappings a [`NetworkEvent::RemovePeer`] withdrew should use
/// [`apply_event_traced`] instead of re-scanning the catalog.
pub fn apply_event(catalog: &mut Catalog, event: &NetworkEvent) -> Option<EventEffect> {
    apply_event_traced(catalog, event).map(|(effect, _)| effect)
}

/// [`apply_event`], additionally returning the mappings the event withdrew —
/// non-empty only for [`NetworkEvent::RemovePeer`], whose single
/// [`EventEffect::PeerRetired`] effect stands for one removal per incident live
/// mapping (ascending). The incremental sessions consume this list to tombstone
/// topology edges and drop evidence without re-scanning the catalog.
pub fn apply_event_traced(
    catalog: &mut Catalog,
    event: &NetworkEvent,
) -> Option<(EventEffect, Vec<MappingId>)> {
    let known_peer = |peer: &PeerId| peer.0 < catalog.peer_count();
    let known_ids = match event {
        NetworkEvent::AddPeer { .. } => true,
        NetworkEvent::AddMapping { source, target, .. } => known_peer(source) && known_peer(target),
        NetworkEvent::RemovePeer { peer } => known_peer(peer),
        NetworkEvent::RemoveMapping { mapping }
        | NetworkEvent::Corrupt { mapping, .. }
        | NetworkEvent::Repair { mapping, .. }
        | NetworkEvent::Drop { mapping, .. } => mapping.0 < catalog.mapping_slot_count(),
    };
    if !known_ids {
        return None;
    }
    if let NetworkEvent::RemovePeer { peer } = event {
        let incident = incident_live_mappings(catalog, *peer);
        if incident.is_empty() {
            return None;
        }
        for mapping in &incident {
            catalog.remove_mapping(*mapping);
        }
        return Some((EventEffect::PeerRetired(*peer), incident));
    }
    let effect = match event {
        NetworkEvent::AddPeer { name, attributes } => {
            let peer = catalog.add_peer_with_schema(name.clone(), |schema| {
                for attribute in attributes {
                    schema.attribute(attribute.clone());
                }
            });
            Some(EventEffect::PeerAdded(peer))
        }
        NetworkEvent::AddMapping {
            source,
            target,
            correspondences,
        } => {
            if correspondences.is_empty() {
                return None;
            }
            let correspondences = correspondences.clone();
            let id = catalog.add_mapping(*source, *target, |mut m| {
                for (source_attr, target_attr, expected) in &correspondences {
                    m = match expected {
                        Some(expected) if expected == target_attr => {
                            m.correct(*source_attr, *target_attr)
                        }
                        Some(expected) => m.erroneous(*source_attr, *target_attr, *expected),
                        None => m.unjudged(*source_attr, *target_attr),
                    };
                }
                m
            });
            Some(EventEffect::MappingAdded(id))
        }
        NetworkEvent::RemoveMapping { mapping } => catalog
            .remove_mapping(*mapping)
            .then_some(EventEffect::MappingRemoved(*mapping)),
        NetworkEvent::RemovePeer { .. } => unreachable!("handled above"),
        NetworkEvent::Corrupt {
            mapping,
            attribute,
            wrong_target,
        } => {
            if catalog.is_mapping_removed(*mapping) {
                return None;
            }
            let current = catalog
                .mapping(*mapping)
                .correspondences()
                .find(|(a, _)| a == attribute)
                .map(|(_, c)| *c);
            let expected = match current {
                Some(c) => c.expected.or(Some(c.target)),
                // Corrupting a correspondence that does not exist yet: the ground
                // truth is unknown, record the proposal as wrong against nothing.
                None => None,
            };
            catalog
                .mapping_mut(*mapping)
                .set_correspondence(*attribute, *wrong_target, expected);
            Some(EventEffect::MappingChanged(*mapping))
        }
        NetworkEvent::Repair { mapping, attribute } => {
            if catalog.is_mapping_removed(*mapping) {
                return None;
            }
            let expected = catalog
                .mapping(*mapping)
                .correspondences()
                .find(|(a, _)| a == attribute)
                .and_then(|(_, c)| c.expected);
            match expected {
                Some(expected) => {
                    catalog.mapping_mut(*mapping).set_correspondence(
                        *attribute,
                        expected,
                        Some(expected),
                    );
                    Some(EventEffect::MappingChanged(*mapping))
                }
                None => None,
            }
        }
        NetworkEvent::Drop { mapping, attribute } => {
            if catalog.is_mapping_removed(*mapping) {
                return None;
            }
            catalog
                .mapping_mut(*mapping)
                .remove_correspondence(*attribute)
                .then_some(EventEffect::MappingChanged(*mapping))
        }
    };
    Some((effect?, Vec::new()))
}

/// The live mappings departing from or arriving at a peer, ascending and
/// deduplicated (a self-mapping appears once) — exactly the set a
/// [`NetworkEvent::RemovePeer`] withdraws.
fn incident_live_mappings(catalog: &Catalog, peer: PeerId) -> Vec<MappingId> {
    catalog
        .mappings()
        .filter(|m| {
            let (source, target) = catalog.mapping_endpoints(*m);
            source == peer || target == peer
        })
        .collect()
}

/// Configuration of a dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Detection threshold θ used for the per-epoch evaluation.
    pub theta: f64,
    /// Engine settings used at every epoch (their priors are replaced by the
    /// accumulated prior store).
    pub engine: EngineBuilder,
    /// Whether posteriors are folded back into the priors after each epoch (the
    /// Section 4.4 update). Disabling it gives the memory-less ablation.
    pub update_priors: bool,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        Self {
            theta: 0.5,
            engine: EngineBuilder::default(),
            update_priors: true,
        }
    }
}

/// What one epoch (inference run over the current catalog) observed.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0 for the first run).
    pub epoch: usize,
    /// Events applied since the previous epoch.
    pub events_applied: usize,
    /// Mappings in the catalog at this epoch.
    pub mappings: usize,
    /// Mappings whose ground truth says they contain at least one error.
    pub erroneous_mappings: usize,
    /// Evidence paths (cycles + parallel paths) discovered.
    pub evidence_paths: usize,
    /// Iterations used by the inference backend.
    pub rounds: usize,
    /// Detection quality at the configured θ.
    pub evaluation: EvaluationReport,
    /// Largest absolute posterior change relative to the previous epoch (0 for the
    /// first epoch).
    pub posterior_drift: f64,
    /// Maintenance cost: belief messages per periodic round implied by the current
    /// evidence structure.
    pub messages_per_round: usize,
}

/// An evolving PDMS: catalog + accumulated priors + epoch history.
#[derive(Debug, Clone)]
pub struct DynamicPdms {
    catalog: Catalog,
    priors: PriorStore,
    config: DynamicsConfig,
    pending_events: usize,
    previous_posteriors: Option<PosteriorTable>,
    history: Vec<EpochReport>,
}

impl DynamicPdms {
    /// Starts a dynamic run over an initial catalog with uninformed priors.
    pub fn new(catalog: Catalog, config: DynamicsConfig) -> Self {
        Self {
            catalog,
            priors: PriorStore::uninformed(),
            config,
            pending_events: 0,
            previous_posteriors: None,
            history: Vec::new(),
        }
    }

    /// The current catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The accumulated prior store.
    pub fn priors(&self) -> &PriorStore {
        &self.priors
    }

    /// The per-epoch history so far.
    pub fn history(&self) -> &[EpochReport] {
        &self.history
    }

    /// Applies a batch of events to the catalog, returning how many actually changed
    /// something (a repair without ground truth or a drop of a missing correspondence
    /// does not count).
    pub fn apply(&mut self, events: &[NetworkEvent]) -> usize {
        let mut applied = 0usize;
        for event in events {
            if self.apply_one(event) {
                applied += 1;
            }
        }
        self.pending_events += applied;
        applied
    }

    fn apply_one(&mut self, event: &NetworkEvent) -> bool {
        apply_event(&mut self.catalog, event).is_some()
    }

    /// Runs one inference epoch over the current catalog: cycle analysis, inference with
    /// the accumulated priors, evaluation at θ, and (optionally) the Section 4.4 prior
    /// update. Returns the epoch report (also appended to [`DynamicPdms::history`]).
    pub fn run_epoch(&mut self) -> &EpochReport {
        let mut session = self
            .config
            .engine
            .clone()
            .priors(self.priors.clone())
            .build(self.catalog.clone());
        let evaluation = session.evaluate(self.config.theta);

        // Maintenance cost of the current evidence structure.
        let overhead = communication_overhead(&self.catalog, session.analysis(), session.model());

        // Posterior drift against the previous epoch.
        let drift = match &self.previous_posteriors {
            Some(previous) => previous.max_abs_difference(session.posteriors()),
            None => 0.0,
        };

        // Prior carry-over.
        if self.config.update_priors {
            session.update_priors();
            self.priors = session.priors().clone();
        }

        let epoch = EpochReport {
            epoch: self.history.len(),
            events_applied: self.pending_events,
            mappings: self.catalog.mapping_count(),
            erroneous_mappings: self.catalog.erroneous_mapping_count(),
            evidence_paths: session.analysis().evidences.len(),
            rounds: session.rounds(),
            evaluation,
            posterior_drift: drift,
            messages_per_round: overhead.total_messages_per_round,
        };
        self.pending_events = 0;
        self.previous_posteriors = Some(session.posteriors().clone());
        self.history.push(epoch);
        self.history.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean four-peer ring plus a chord: plenty of cycle evidence, no errors.
    fn clean_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{i}"), |s| {
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
        cat.add_mapping(peers[1], peers[3], correct);
        cat
    }

    #[test]
    fn corruption_is_detected_in_the_next_epoch_and_repair_clears_it() {
        // Prior carry-over is disabled here so the corrupted epoch is judged on its own
        // evidence; the interaction between saturated carried-over priors and fresh
        // negative evidence is exercised separately below.
        let mut pdms = DynamicPdms::new(
            clean_catalog(),
            DynamicsConfig {
                update_priors: false,
                ..Default::default()
            },
        );
        let baseline = pdms.run_epoch().clone();
        assert_eq!(baseline.erroneous_mappings, 0);
        assert_eq!(baseline.evaluation.flagged(), 0);
        assert_eq!(baseline.posterior_drift, 0.0);

        // Corrupt Creator on the chord mapping m4 (p1 → p3).
        let applied = pdms.apply(&[NetworkEvent::Corrupt {
            mapping: MappingId(4),
            attribute: AttributeId(0),
            wrong_target: AttributeId(2),
        }]);
        assert_eq!(applied, 1);
        let corrupted = pdms.run_epoch().clone();
        assert_eq!(corrupted.events_applied, 1);
        assert_eq!(corrupted.erroneous_mappings, 1);
        assert_eq!(corrupted.evaluation.true_positives, 1);
        assert_eq!(corrupted.evaluation.false_positives, 0);
        assert!(
            corrupted.posterior_drift > 0.1,
            "drift {}",
            corrupted.posterior_drift
        );

        // Repair it; the error disappears from the ground truth and the posterior
        // recovers (the prior keeps some memory of the accusation, so recovery is
        // gradual rather than instantaneous).
        let applied = pdms.apply(&[NetworkEvent::Repair {
            mapping: MappingId(4),
            attribute: AttributeId(0),
        }]);
        assert_eq!(applied, 1);
        let repaired = pdms.run_epoch().clone();
        assert_eq!(repaired.erroneous_mappings, 0);
        assert_eq!(repaired.evaluation.true_positives, 0);
        assert!(repaired.posterior_drift > 0.0);
        assert_eq!(pdms.history().len(), 3);
    }

    #[test]
    fn adding_a_mapping_creates_new_evidence_and_raises_maintenance_cost() {
        let mut pdms = DynamicPdms::new(clean_catalog(), DynamicsConfig::default());
        let before = pdms.run_epoch().clone();
        let correspondences: Vec<_> = (0..11)
            .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
            .collect();
        pdms.apply(&[NetworkEvent::AddMapping {
            source: PeerId(2),
            target: PeerId(0),
            correspondences,
        }]);
        let after = pdms.run_epoch().clone();
        assert_eq!(after.mappings, before.mappings + 1);
        assert!(after.evidence_paths > before.evidence_paths);
        assert!(after.messages_per_round >= before.messages_per_round);
    }

    #[test]
    fn dropping_a_correspondence_is_idempotent() {
        let mut pdms = DynamicPdms::new(clean_catalog(), DynamicsConfig::default());
        let drop = NetworkEvent::Drop {
            mapping: MappingId(0),
            attribute: AttributeId(5),
        };
        assert_eq!(pdms.apply(std::slice::from_ref(&drop)), 1);
        assert_eq!(
            pdms.apply(&[drop]),
            0,
            "second drop finds nothing to remove"
        );
        assert_eq!(
            pdms.catalog().mapping(MappingId(0)).apply(AttributeId(5)),
            None
        );
    }

    #[test]
    fn repair_without_ground_truth_is_ignored() {
        let mut cat = Catalog::new();
        let a = cat.add_peer_with_schema("a", |s| {
            s.attributes(["x", "y"]);
        });
        let b = cat.add_peer_with_schema("b", |s| {
            s.attributes(["x", "y"]);
        });
        cat.add_mapping(a, b, |m| m.unjudged(AttributeId(0), AttributeId(1)));
        let mut pdms = DynamicPdms::new(cat, DynamicsConfig::default());
        let applied = pdms.apply(&[NetworkEvent::Repair {
            mapping: MappingId(0),
            attribute: AttributeId(0),
        }]);
        assert_eq!(applied, 0);
        // Adding an empty mapping is also a no-op.
        let applied = pdms.apply(&[NetworkEvent::AddMapping {
            source: PeerId(0),
            target: PeerId(1),
            correspondences: Vec::new(),
        }]);
        assert_eq!(applied, 0);
    }

    #[test]
    fn prior_carry_over_remembers_the_accusation_after_a_repair() {
        // Observe the network while it is corrupted, repair it, observe again: the
        // Section 4.4 update folds the accusation into the prior, so the prior stays
        // below the maximum-entropy value even though the repaired epoch's evidence is
        // all positive — the memory the paper's maintenance/relevance discussion is
        // about. The memory-less ablation (update_priors = false) never moves the prior
        // at all.
        let mut pdms = DynamicPdms::new(clean_catalog(), DynamicsConfig::default());
        pdms.apply(&[NetworkEvent::Corrupt {
            mapping: MappingId(4),
            attribute: AttributeId(0),
            wrong_target: AttributeId(2),
        }]);
        let corrupted = pdms.run_epoch().clone();
        assert_eq!(corrupted.evaluation.true_positives, 1);
        let key = crate::local_graph::VariableKey {
            mapping: MappingId(4),
            attribute: Some(AttributeId(0)),
        };
        let prior_after_accusation = pdms.priors().prior(&key);
        assert!(
            prior_after_accusation < 0.5,
            "prior {prior_after_accusation}"
        );

        pdms.apply(&[NetworkEvent::Repair {
            mapping: MappingId(4),
            attribute: AttributeId(0),
        }]);
        let repaired = pdms.run_epoch().clone();
        assert_eq!(repaired.erroneous_mappings, 0);
        // The posterior recovers (all evidence is positive again)…
        let recovered = pdms
            .previous_posteriors
            .as_ref()
            .expect("two epochs ran")
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        assert!(recovered > 0.5, "recovered posterior {recovered}");
        // …while the prior, a running average over both epochs, still remembers the
        // accusation: it sits strictly below the posterior it would have adopted had
        // the corrupted epoch never happened.
        let prior_after_repair = pdms.priors().prior(&key);
        assert!(prior_after_repair > prior_after_accusation);
        assert!(prior_after_repair < recovered);

        // Memory-less ablation: the prior never moves.
        let mut ablation = DynamicPdms::new(
            clean_catalog(),
            DynamicsConfig {
                update_priors: false,
                ..Default::default()
            },
        );
        ablation.run_epoch();
        assert_eq!(ablation.priors().prior(&key), 0.5);
    }

    #[test]
    fn peers_join_and_mappings_retire_between_epochs() {
        let mut pdms = DynamicPdms::new(clean_catalog(), DynamicsConfig::default());
        let before = pdms.run_epoch().clone();

        // A peer joins and a ring mapping is withdrawn.
        let applied = pdms.apply(&[
            NetworkEvent::AddPeer {
                name: "p4".into(),
                attributes: vec!["Creator".into(), "Item".into()],
            },
            NetworkEvent::RemoveMapping {
                mapping: MappingId(4),
            },
        ]);
        assert_eq!(applied, 2);
        let after = pdms.run_epoch().clone();
        assert_eq!(pdms.catalog().peer_count(), 5);
        assert_eq!(after.mappings, before.mappings - 1);
        assert!(after.evidence_paths < before.evidence_paths);
        // Removing an already-removed mapping is a no-op.
        assert_eq!(
            pdms.apply(&[NetworkEvent::RemoveMapping {
                mapping: MappingId(4),
            }]),
            0
        );
        // Correspondence events against the tombstoned mapping are ignored too.
        assert_eq!(
            pdms.apply(&[NetworkEvent::Corrupt {
                mapping: MappingId(4),
                attribute: AttributeId(0),
                wrong_target: AttributeId(1),
            }]),
            0
        );
    }

    #[test]
    fn remove_peer_withdraws_every_incident_mapping() {
        let mut pdms = DynamicPdms::new(clean_catalog(), DynamicsConfig::default());
        let before = pdms.run_epoch().clone();
        // p1 (PeerId(1)) touches m0 (p0→p1), m1 (p1→p2) and m4 (p1→p3).
        let incident = incident_live_mappings(pdms.catalog(), PeerId(1));
        assert_eq!(incident, vec![MappingId(0), MappingId(1), MappingId(4)]);
        let applied = pdms.apply(&[NetworkEvent::RemovePeer { peer: PeerId(1) }]);
        assert_eq!(applied, 1);
        assert_eq!(pdms.catalog().mapping_count(), before.mappings - 3);
        for mapping in incident {
            assert!(pdms.catalog().is_mapping_removed(mapping));
        }
        // The peer id slot survives as an isolated node.
        assert_eq!(pdms.catalog().peer_count(), 4);
        // Removing it again is a no-op: no live incident mappings remain.
        assert_eq!(
            pdms.apply(&[NetworkEvent::RemovePeer { peer: PeerId(1) }]),
            0
        );
        let after = pdms.run_epoch().clone();
        assert!(after.evidence_paths < before.evidence_paths);
    }

    #[test]
    fn event_effects_name_what_changed() {
        let mut catalog = clean_catalog();
        let effect = apply_event(
            &mut catalog,
            &NetworkEvent::AddPeer {
                name: "new".into(),
                attributes: vec!["a".into()],
            },
        );
        assert_eq!(effect, Some(EventEffect::PeerAdded(PeerId(4))));
        assert_eq!(effect.unwrap().mapping(), None);

        let effect = apply_event(
            &mut catalog,
            &NetworkEvent::Corrupt {
                mapping: MappingId(0),
                attribute: AttributeId(0),
                wrong_target: AttributeId(1),
            },
        );
        assert_eq!(effect, Some(EventEffect::MappingChanged(MappingId(0))));
        assert_eq!(effect.unwrap().mapping(), Some(MappingId(0)));

        let effect = apply_event(
            &mut catalog,
            &NetworkEvent::RemoveMapping {
                mapping: MappingId(0),
            },
        );
        assert_eq!(effect, Some(EventEffect::MappingRemoved(MappingId(0))));
    }

    #[test]
    fn epoch_indices_and_event_counters_advance() {
        let mut pdms = DynamicPdms::new(clean_catalog(), DynamicsConfig::default());
        pdms.run_epoch();
        pdms.apply(&[
            NetworkEvent::Drop {
                mapping: MappingId(0),
                attribute: AttributeId(1),
            },
            NetworkEvent::Drop {
                mapping: MappingId(1),
                attribute: AttributeId(1),
            },
        ]);
        pdms.run_epoch();
        let history = pdms.history();
        assert_eq!(history[0].epoch, 0);
        assert_eq!(history[1].epoch, 1);
        assert_eq!(history[0].events_applied, 0);
        assert_eq!(history[1].events_applied, 2);
    }
}
