//! The paper's introductory example, end to end: the four-peer art network, probe-based
//! cycle discovery, the decentralized run over a lossy simulated network, prior
//! updates, and posterior-driven query routing with real documents.
//!
//! Run with `cargo run --example art_network`.

use pdms::core::{
    AnalysisConfig, CycleAnalysis, DecentralizedConfig, DecentralizedRun, Engine, Granularity,
    MappingModel, PriorStore, RoutingPolicy, VariableKey,
};
use pdms::schema::{Document, Predicate, Query};
use pdms::workloads::example::{intro_network, CREATOR, ITEM};
use std::collections::BTreeMap;

fn main() {
    let (catalog, mappings) = intro_network();

    // --- Cycle discovery (what TTL-bounded probe flooding would find) -------------
    let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
    let (positive, negative, neutral) = analysis.feedback_counts();
    println!("evidence paths discovered: {}", analysis.evidences.len());
    println!(
        "feedback observations: {positive} positive, {negative} negative, {neutral} neutral\n"
    );

    // --- Decentralized message passing over a lossy network ------------------------
    let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, 0.1);
    let priors = BTreeMap::new();
    let mut run = DecentralizedRun::new(
        &catalog,
        &model,
        &priors,
        0.5,
        // 20% of belief messages are lost.
        DecentralizedConfig::lossy(0.8, 42, 120),
    );
    let posteriors = run.run();
    println!("decentralized run over the simulator (20% message loss):");
    for (index, key) in model.variables.iter().enumerate() {
        if key.attribute == Some(CREATOR) {
            println!(
                "  P({} correct for Creator) = {:.3}",
                key.mapping, posteriors[index]
            );
        }
    }
    println!("{}", run.stats().summary());

    // --- The engine session: posteriors, prior update, routing --------------------
    let mut priors = PriorStore::uninformed();
    priors.set_initial(
        VariableKey {
            mapping: mappings.m24,
            attribute: Some(CREATOR),
        },
        0.5,
    );
    let mut session = Engine::builder().priors(priors).build(catalog);
    session.update_priors();
    let updated = session.priors().prior(&VariableKey {
        mapping: mappings.m24,
        attribute: Some(CREATOR),
    });
    println!("updated prior on m24/Creator after one round of evidence: {updated:.3}\n");

    // Store a couple of documents at p3 and evaluate the translated query there, to
    // show the full query pipeline on instance data.
    let schema = session.catalog().peer_schema(pdms::schema::PeerId(2));
    let mut doc = Document::new();
    doc.set(CREATOR, "Henry Peach Robinson");
    doc.push(ITEM, "A view on the river Medway");
    let query = Query::new()
        .project(CREATOR)
        .select(ITEM, Predicate::Contains("river".into()));
    let answers = query.evaluate([&doc]);
    println!("documents matching q1 at p3: {}", answers.len());
    println!("{}\n", answers[0].render(schema));

    let outcome = session.route(
        pdms::schema::PeerId(1),
        &query,
        &RoutingPolicy::uniform(0.5),
    );
    println!(
        "query from p2 reached {} peers with {} false positives; the faulty mapping was {}",
        outcome.reached.len(),
        outcome.tainted.len(),
        if outcome.forwarded_mappings().contains(&mappings.m24) {
            "used (unexpected!)"
        } else {
            "ignored, as in the paper"
        }
    );
}
