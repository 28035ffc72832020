//! The incremental session must be indistinguishable from batch recomputation.
//!
//! `EngineSession::apply` maintains the evidence analysis and posteriors under
//! network deltas; these tests drive a session through peer/mapping additions,
//! removals, corruptions, repairs and drops, and assert after every batch that its
//! posteriors match a fresh `Engine::builder()…build(catalog)` on the identically
//! mutated catalog — the cold pipeline, with no evidence or posteriors carried over. The exact backend is used so agreement is to numerical precision, with
//! no iterative-convergence tolerance in the way.

use pdms::core::{
    apply_event, EmbeddedBackend, Engine, ExactBackend, InferenceBackend, NetworkEvent,
    VotingBackend,
};
use pdms::schema::{AttributeId, Catalog, MappingId, PeerId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Four peers in a ring plus a chord, three attributes each — small enough for the
/// exact backend at fine granularity.
fn base_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let peers: Vec<PeerId> = (0..4)
        .map(|i| {
            cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                s.attributes(["Creator", "Item", "CreatedOn"]);
            })
        })
        .collect();
    let correct = |m: pdms::schema::MappingBuilder| {
        m.correct(AttributeId(0), AttributeId(0))
            .correct(AttributeId(1), AttributeId(1))
            .correct(AttributeId(2), AttributeId(2))
    };
    cat.add_mapping(peers[0], peers[1], correct);
    cat.add_mapping(peers[1], peers[2], correct);
    cat.add_mapping(peers[2], peers[3], correct);
    cat.add_mapping(peers[3], peers[0], correct);
    cat.add_mapping(peers[1], peers[3], correct);
    cat
}

/// Builds a fresh session over `catalog` and returns posteriors keyed by variable
/// (variable order differs between incremental and batch analyses, so the comparison
/// must be key-based).
fn batch_posteriors(catalog: &Catalog) -> BTreeMap<pdms::core::VariableKey, f64> {
    let fresh = Engine::builder()
        .backend(ExactBackend)
        .delta(0.1)
        .build(catalog.clone());
    fresh.posteriors().as_variable_map(fresh.model())
}

/// Asserts that the session posteriors equal a from-scratch run on its catalog.
fn assert_matches_batch(session: &pdms::core::EngineSession, context: &str) {
    let expected = batch_posteriors(session.catalog());
    let actual = session.posteriors().as_variable_map(session.model());
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        actual.keys().collect::<Vec<_>>(),
        "{context}: variable sets differ"
    );
    for (key, p) in &expected {
        let q = actual[key];
        assert!(
            (p - q).abs() < 1e-9,
            "{context}: {key:?} batch {p} vs incremental {q}"
        );
    }
}

#[test]
fn incremental_session_round_trips_against_batch_runs() {
    let mut session = Engine::builder()
        .backend(ExactBackend)
        .delta(0.1)
        .build(base_catalog());
    assert_matches_batch(&session, "after build");

    // Batch 1: corrupt the chord on Creator.
    session.apply(&[NetworkEvent::Corrupt {
        mapping: MappingId(4),
        attribute: AttributeId(0),
        wrong_target: AttributeId(2),
    }]);
    assert_matches_batch(&session, "after corruption");
    assert!(
        session
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0))
            < 0.5
    );

    // Batch 2: a new peer joins and closes a second ring through it.
    let identity: Vec<_> = (0..3)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    session.apply(&[
        NetworkEvent::AddPeer {
            name: "p5".into(),
            attributes: vec!["Creator".into(), "Item".into(), "CreatedOn".into()],
        },
        NetworkEvent::AddMapping {
            source: PeerId(2),
            target: PeerId(4),
            correspondences: identity.clone(),
        },
        NetworkEvent::AddMapping {
            source: PeerId(4),
            target: PeerId(1),
            correspondences: identity,
        },
    ]);
    assert_matches_batch(&session, "after peer + mapping additions");

    // Batch 3: repair the chord, drop a correspondence elsewhere.
    session.apply(&[
        NetworkEvent::Repair {
            mapping: MappingId(4),
            attribute: AttributeId(0),
        },
        NetworkEvent::Drop {
            mapping: MappingId(0),
            attribute: AttributeId(2),
        },
    ]);
    assert_matches_batch(&session, "after repair + drop");

    // Batch 4: remove a ring mapping entirely.
    session.apply(&[NetworkEvent::RemoveMapping {
        mapping: MappingId(2),
    }]);
    assert_matches_batch(&session, "after removal");

    // The session did exactly one full build; everything else was incremental.
    assert_eq!(session.stats().full_builds, 1);
    assert_eq!(session.stats().incremental_applies, 4);
    assert!(session.stats().evidences_added > 0);
    assert!(session.stats().evidences_removed > 0);
    assert!(session.stats().evidences_reobserved > 0);
}

#[test]
fn incremental_session_matches_batch_under_random_churn() {
    // A longer adversarial schedule: every mutation kind, interleaved, with the
    // catalog checked against batch recomputation after every single event.
    let mut session = Engine::builder()
        .backend(ExactBackend)
        .delta(0.1)
        .build(base_catalog());
    let schedule = vec![
        NetworkEvent::Corrupt {
            mapping: MappingId(1),
            attribute: AttributeId(1),
            wrong_target: AttributeId(0),
        },
        NetworkEvent::Drop {
            mapping: MappingId(3),
            attribute: AttributeId(1),
        },
        NetworkEvent::RemoveMapping {
            mapping: MappingId(4),
        },
        NetworkEvent::AddMapping {
            source: PeerId(1),
            target: PeerId(3),
            correspondences: vec![
                (AttributeId(0), AttributeId(0), Some(AttributeId(0))),
                (AttributeId(1), AttributeId(2), Some(AttributeId(1))),
            ],
        },
        NetworkEvent::Repair {
            mapping: MappingId(1),
            attribute: AttributeId(1),
        },
        NetworkEvent::Corrupt {
            mapping: MappingId(0),
            attribute: AttributeId(2),
            wrong_target: AttributeId(0),
        },
    ];
    for (i, event) in schedule.into_iter().enumerate() {
        session.apply(&[event]);
        assert_matches_batch(&session, &format!("after event {i}"));
    }
}

#[test]
fn mutated_catalogs_agree_between_session_and_shared_event_application() {
    // apply_event is the shared semantics: a catalog mutated directly must equal the
    // session's.
    let mut catalog = base_catalog();
    let mut session = Engine::builder()
        .backend(ExactBackend)
        .delta(0.1)
        .build(catalog.clone());
    let events = vec![
        NetworkEvent::Corrupt {
            mapping: MappingId(2),
            attribute: AttributeId(0),
            wrong_target: AttributeId(1),
        },
        NetworkEvent::RemoveMapping {
            mapping: MappingId(0),
        },
    ];
    for event in &events {
        apply_event(&mut catalog, event);
    }
    session.apply(&events);
    assert_eq!(catalog.mapping_count(), session.catalog().mapping_count());
    assert_eq!(
        catalog.erroneous_mapping_count(),
        session.catalog().erroneous_mapping_count()
    );
    assert_eq!(
        catalog.mappings().collect::<Vec<_>>(),
        session.catalog().mappings().collect::<Vec<_>>()
    );
}

#[test]
fn every_backend_is_a_send_sync_trait_object() {
    fn require_send_sync<T: Send + Sync + ?Sized>() {}
    require_send_sync::<dyn InferenceBackend>();
    require_send_sync::<EmbeddedBackend>();
    require_send_sync::<ExactBackend>();
    require_send_sync::<VotingBackend>();

    // Trait objects built every way the API offers them are usable across threads.
    let backends: Vec<Arc<dyn InferenceBackend>> = vec![
        Arc::new(EmbeddedBackend::default()),
        Arc::new(ExactBackend),
        Arc::new(VotingBackend),
    ];
    let mut handles: Vec<_> = backends
        .into_iter()
        .map(|backend| std::thread::spawn(move || backend.name().to_string()))
        .collect();
    // The default backend, as a default-built session resolves it.
    let session = Engine::builder().build(base_catalog());
    handles.push(std::thread::spawn(move || {
        session.backend_name().to_string()
    }));
    let names: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(names, vec!["embedded", "exact", "voting", "embedded"]);
}

#[test]
fn session_with_embedded_backend_agrees_with_batch_classification() {
    // The iterative backend round-trips to convergence tolerance: classification
    // (faulty vs. correct) must match batch recomputation after a delta.
    let mut session = Engine::builder().delta(0.1).build(base_catalog());
    assert_eq!(session.backend_name(), "embedded");
    session.apply(&[NetworkEvent::Corrupt {
        mapping: MappingId(4),
        attribute: AttributeId(0),
        wrong_target: AttributeId(2),
    }]);
    let batch = Engine::builder()
        .delta(0.1)
        .build(session.catalog().clone());
    for mapping in session.catalog().mappings() {
        let incremental = session.posteriors().mapping_probability(mapping);
        let from_scratch = batch.posteriors().mapping_probability(mapping);
        assert_eq!(
            incremental < 0.5,
            from_scratch < 0.5,
            "mapping {mapping}: incremental {incremental} vs batch {from_scratch}"
        );
    }
}

/// Analysis bounds of perfbench's `dense_edit` island.
fn island_bounds() -> pdms::core::AnalysisConfig {
    pdms::core::AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        include_parallel_paths: true,
        ..Default::default()
    }
}

/// Batch `i` of a churn stream over a catalog of `peers` peers with five attributes:
/// two correspondence edits, the removal of mapping `i` (the lowest ids go first, so
/// live ids soon reach past `Catalog::mapping_count`), and one new mapping.
fn churn_batch(i: usize, peers: usize, slots: usize) -> Vec<NetworkEvent> {
    let mapping = |k: usize| MappingId((i * 7 + k * 13) % slots);
    let correspondences = (0..5)
        .map(|a| (AttributeId(a), AttributeId(a), Some(AttributeId(a))))
        .collect();
    vec![
        NetworkEvent::Corrupt {
            mapping: mapping(0),
            attribute: AttributeId(i % 5),
            wrong_target: AttributeId((i + 1) % 5),
        },
        NetworkEvent::Repair {
            mapping: mapping(1),
            attribute: AttributeId((i + 2) % 5),
        },
        NetworkEvent::RemoveMapping {
            mapping: MappingId(i),
        },
        NetworkEvent::AddMapping {
            source: PeerId((i * 5) % peers),
            target: PeerId((i * 5 + 3) % peers),
            correspondences,
        },
    ]
}

#[test]
fn in_place_model_rebuild_equals_a_cold_build_through_churn() {
    use pdms::core::{Granularity, MappingModel, VariableKey};
    use pdms::workloads::multi_component_network;
    for granularity in [Granularity::Fine, Granularity::Coarse] {
        let island = multi_component_network(1, 14, 0.2, 62).catalog;
        let mut session = Engine::builder()
            .analysis(island_bounds())
            .granularity(granularity)
            .delta(0.1)
            .build(island);
        let mut past_live_count = false;
        for i in 0..12 {
            let (peers, slots) = (
                session.catalog().peer_count(),
                session.catalog().mapping_slot_count(),
            );
            let previous = session.model().variables.clone();
            session.apply(&churn_batch(i, peers, slots));
            let context = format!("{granularity:?}, batch {i}");
            let model = session.model();
            let cold = MappingModel::build(session.catalog(), session.analysis(), granularity, 0.1);
            assert_eq!(model.variables, cold.variables, "{context}: variables");
            for key in &previous {
                let (got, want) = (model.variable_index(key), cold.variable_index(key));
                assert_eq!(got, want, "{context}: previous {key:?}");
            }
            assert_eq!(model.evidences, cold.evidences, "{context}: evidences");
            for (v, key) in cold.variables.iter().enumerate() {
                assert_eq!(model.owner(v), cold.owner(v), "{context}: owner of {v}");
                assert_eq!(model.variable_index(key), Some(v), "{context}: {key:?}");
                // The other granularity's key of the same mapping is not a variable.
                let other = VariableKey {
                    mapping: key.mapping,
                    attribute: match key.attribute {
                        Some(_) => None,
                        None => Some(AttributeId(0)),
                    },
                };
                assert_eq!(model.variable_index(&other), None, "{context}: {other:?}");
            }
            let live = session.catalog().mapping_count();
            past_live_count |= cold.variables.iter().any(|key| key.mapping.0 >= live);
        }
        assert!(
            past_live_count,
            "{granularity:?}: the stream must put variables on ids past mapping_count()"
        );
    }
}

/// An embedded backend that, on every call, also drives `EmbeddedMessagePassing` by
/// hand (`new`, `warm_start`, then `round()` until the tolerance or the cap) and
/// records whether the two agree bit for bit.
#[derive(Debug, Default)]
struct HandDrivenCheck {
    backend: EmbeddedBackend,
    /// `(warm-started, agreed)` per call.
    calls: std::sync::Mutex<Vec<(bool, bool)>>,
}

impl InferenceBackend for HandDrivenCheck {
    fn name(&self) -> &'static str {
        "hand-driven-check"
    }

    fn infer(&self, task: &pdms::core::InferenceTask<'_>) -> pdms::core::InferenceOutcome {
        let outcome = self.backend.infer(task);
        let config = &self.backend.config;
        let mut machine = pdms::core::EmbeddedMessagePassing::new(
            task.model,
            task.priors,
            task.default_prior,
            config.clone(),
        );
        if let Some(previous) = task.warm_start {
            machine.warm_start(previous);
        }
        let (mut rounds, mut converged) = (0, false);
        while !converged && rounds < config.max_rounds {
            converged = machine.round() < config.tolerance;
            rounds += 1;
        }
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let agreed = bits(&machine.posteriors()) == bits(&outcome.posteriors)
            && rounds == outcome.rounds
            && converged == outcome.converged;
        self.calls
            .lock()
            .unwrap()
            .push((task.warm_start.is_some(), agreed));
        outcome
    }
}

#[test]
fn embedded_backend_equals_a_hand_driven_round_loop_on_an_incremental_session() {
    // perfbench's traced run replays `EmbeddedBackend::infer` this way and relies on
    // the two agreeing bit for bit.
    let check = Arc::new(HandDrivenCheck::default());
    let island = pdms::workloads::multi_component_network(1, 14, 0.2, 62).catalog;
    let slots = island.mapping_slot_count();
    let mut session = Engine::builder()
        .analysis(island_bounds())
        .delta(0.1)
        .backend_arc(check.clone())
        .build(island);
    for i in 0..16 {
        session.apply(&[NetworkEvent::Corrupt {
            mapping: MappingId((i * 11) % slots),
            attribute: AttributeId(i % 5),
            wrong_target: AttributeId((i + 2) % 5),
        }]);
    }
    let calls = check.calls.lock().unwrap();
    assert!(calls.len() > 1 && calls.iter().skip(1).all(|&(warm, _)| warm));
    for (i, &(_, agreed)) in calls.iter().enumerate() {
        assert!(agreed, "call {i}: infer differs from the hand-driven loop");
    }
}
