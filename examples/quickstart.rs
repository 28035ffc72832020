//! Quickstart: build a tiny PDMS session, detect the faulty mapping, route a query
//! around it, then watch the session absorb a network change incrementally.
//!
//! Run with `cargo run --example quickstart`.

use pdms::core::{Engine, Granularity, NetworkEvent, RoutingPolicy};
use pdms::schema::{AttributeId, Catalog, PeerId, Predicate, Query};

fn main() {
    // 1. Describe the PDMS: four art databases, five pairwise schema mappings.
    //    Every schema has the same eleven attributes here for brevity; in general each
    //    peer brings its own schema and mappings connect semantically similar
    //    attributes.
    let attribute_names = [
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
    ];
    let mut catalog = Catalog::new();
    let peers: Vec<PeerId> = (1..=4)
        .map(|i| {
            catalog.add_peer_with_schema(format!("p{i}"), |schema| {
                schema.attributes(attribute_names);
            })
        })
        .collect();
    let creator = AttributeId(0);
    let item = AttributeId(1);
    let created_on = AttributeId(2);
    let all_correct = |mut m: pdms::schema::MappingBuilder| {
        for a in 0..attribute_names.len() {
            m = m.correct(AttributeId(a), AttributeId(a));
        }
        m
    };
    catalog.add_mapping(peers[0], peers[1], all_correct); // m12
    catalog.add_mapping(peers[1], peers[2], all_correct); // m23
    catalog.add_mapping(peers[2], peers[3], all_correct); // m34
    catalog.add_mapping(peers[3], peers[0], all_correct); // m41
                                                          // m24 was generated automatically and erroneously maps Creator onto CreatedOn.
    catalog.add_mapping(peers[1], peers[3], |mut m| {
        m = m.erroneous(creator, created_on, creator);
        for a in 1..attribute_names.len() {
            m = m.correct(AttributeId(a), AttributeId(a));
        }
        m
    });

    // 2. Build an engine session. The builder chooses the paper's defaults (fine
    //    granularity, embedded message passing, Δ estimated from the schema sizes);
    //    `.backend(..)` would swap in exact inference or a custom implementation of
    //    the `InferenceBackend` trait. Building runs the full pipeline once: cycle and
    //    parallel-path discovery, factor-graph construction, and message passing.
    let mut session = Engine::builder()
        .granularity(Granularity::Fine)
        .build(catalog);
    println!(
        "backend `{}` converged after {} rounds (delta = {:.2})\n",
        session.backend_name(),
        session.rounds(),
        session.delta()
    );
    println!("posterior P(mapping preserves Creator):");
    for mapping in session.catalog().mappings().collect::<Vec<_>>() {
        let (from, to) = session.catalog().mapping_endpoints(mapping);
        let p = session
            .posteriors()
            .probability(session.catalog(), mapping, creator);
        println!(
            "  {} -> {}  {mapping}: {p:.3}{}",
            session.catalog().peer_name(from),
            session.catalog().peer_name(to),
            if p < 0.5 {
                "   <-- flagged as faulty"
            } else {
                ""
            }
        );
    }

    // 3. Pose the introductory query at p2 ("names of all artists having created a
    //    piece of work related to some river") and let the cached posteriors steer
    //    routing. `route_all` answers a whole workload against one posterior
    //    snapshot — no per-query recomputation.
    let query = Query::new()
        .project(creator)
        .select(item, Predicate::Contains("river".into()));
    let outcome = &session.route_all(&[(peers[1], query)], &RoutingPolicy::uniform(0.5))[0];
    println!("\nquery routed from p2:");
    println!("  peers reached:        {}", outcome.reached.len());
    println!("  false-positive peers: {}", outcome.tainted.len());
    for decision in &outcome.decisions {
        println!(
            "  {} {} -> {}: {}",
            decision.mapping,
            decision.from,
            decision.to,
            if decision.forwarded {
                "forwarded"
            } else {
                "blocked"
            }
        );
    }

    // 4. The network evolves: p2's administrator repairs m24. The session applies the
    //    delta incrementally — only the evidence paths through m24 are re-observed,
    //    everything else is reused, and message passing restarts warm from the
    //    previous posteriors.
    let report = session.apply(&[NetworkEvent::Repair {
        mapping: pdms::schema::MappingId(4),
        attribute: creator,
    }]);
    let p_repaired =
        session
            .posteriors()
            .probability(session.catalog(), pdms::schema::MappingId(4), creator);
    println!(
        "\nafter repairing m24: {} evidence paths re-observed, {} reused, \
         {} warm rounds; P(m24 preserves Creator) = {p_repaired:.3}",
        report.analysis.evidences_reobserved, report.analysis.evidences_reused, report.rounds,
    );

    // 5. At scale, evidence discovery parallelizes. Realistic PDMS topologies are
    //    scale-free — a few hub peers carry most mappings. Each origin peer is one
    //    enumeration task that idle workers take from a shared queue. The worker
    //    count only affects scheduling; evidence ids and posteriors are
    //    bit-identical at every setting (0 = every available core).
    let hub_network = pdms::workloads::hub_heavy_network(32, 2, 1.6, 42);
    let hub_session = Engine::builder()
        .parallelism(0) // auto worker count
        .build(hub_network.catalog);
    println!(
        "\nhub-heavy network (32 peers, scale-free): {} evidence paths, {} rounds \
         — same ids at any worker count",
        hub_session.analysis().evidences.len(),
        hub_session.rounds(),
    );
}
