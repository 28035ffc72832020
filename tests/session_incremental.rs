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
