//! Golden posteriors: the embedded message-passing kernel stays inside an explicit
//! envelope of committed reference runs, and the parallel evidence enumerators
//! reproduce the serial evidence ids exactly.
//!
//! `data/golden_posteriors.txt` holds the posteriors of the ring(5), diamond and
//! random fixtures under reliable delivery and a warm start, plus the trajectory of
//! a mid-run warm start on a frozen network, as f64 bit patterns. They were captured
//! from the per-pair remote-message kernel the one-pass cavity kernel replaced. The
//! envelope is `|Δp| ≤ 1e-12` per posterior, with the round count, `converged` and
//! the delivered counter equal (and the dropped column 0): the two kernels multiply
//! the same messages in a different order, so they differ in the last ulps only, and
//! no message comparison changes. The comparison with exact inference on small
//! models lives in `pdms_core::embedded`'s tests.

use pdms::core::{
    run_embedded, AnalysisConfig, CycleAnalysis, DecentralizedConfig, DecentralizedRun,
    EmbeddedConfig, EmbeddedMessagePassing, EmbeddedReport, Granularity, MappingModel,
};
use pdms::graph::GeneratorConfig;
use pdms::schema::{AttributeId, Catalog, PeerId};
use pdms::workloads::{multi_component_network, SyntheticConfig, SyntheticNetwork};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Largest posterior gap allowed between the kernel and a golden run.
const ENVELOPE: f64 = 1e-12;

const GOLDEN: &str = include_str!("data/golden_posteriors.txt");

/// The values on the golden line `name`: the tokens after the name.
fn golden(name: &str) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no golden line {name}"))
        .split_whitespace()
        .collect()
}

fn f64s(hex: &[&str]) -> Vec<f64> {
    hex.iter()
        .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex bit pattern")))
        .collect()
}

fn assert_within_envelope(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: variable count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= ENVELOPE,
            "{label}: variable {i} is {g}, golden {w} (gap {:e})",
            (g - w).abs()
        );
    }
}

/// Compares a report with the golden run `name`.
fn assert_golden_run(name: &str, report: &EmbeddedReport) {
    let values = golden(name);
    // The kernel delivers every message, so the reference's dropped column is 0.
    let counters = format!(
        "{} {} {} 0",
        report.rounds, report.converged, report.messages_delivered
    );
    assert_eq!(
        counters,
        values[..4].join(" "),
        "{name}: rounds, converged, delivered, dropped"
    );
    assert_within_envelope(name, &report.posteriors, &f64s(&values[4..]));
}

/// A directed ring of `peers` peers; mapping 1 misroutes attribute 0.
fn ring_catalog(peers: usize) -> Catalog {
    let mut cat = Catalog::new();
    let ids: Vec<PeerId> = (0..peers)
        .map(|i| {
            cat.add_peer_with_schema(format!("p{i}"), |s| {
                s.attributes(["alpha", "beta", "gamma"]);
            })
        })
        .collect();
    for i in 0..peers {
        cat.add_mapping(ids[i], ids[(i + 1) % peers], |m| {
            if i == 1 {
                m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0))
                    .correct(AttributeId(1), AttributeId(1))
                    .correct(AttributeId(2), AttributeId(2))
            } else {
                m.correct(AttributeId(0), AttributeId(0))
                    .correct(AttributeId(1), AttributeId(1))
                    .correct(AttributeId(2), AttributeId(2))
            }
        });
    }
    cat
}

/// A diamond with a closing edge: two parallel branches p0→p1→p3 / p0→p2→p3 plus
/// p3→p0, producing both parallel-path and cycle evidence. One branch is faulty.
fn diamond_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let ids: Vec<PeerId> = (0..4)
        .map(|i| {
            cat.add_peer_with_schema(format!("p{i}"), |s| {
                s.attributes(["alpha", "beta", "gamma"]);
            })
        })
        .collect();
    let correct = |m: pdms::schema::MappingBuilder| {
        m.correct(AttributeId(0), AttributeId(0))
            .correct(AttributeId(1), AttributeId(1))
            .correct(AttributeId(2), AttributeId(2))
    };
    cat.add_mapping(ids[0], ids[1], correct);
    cat.add_mapping(ids[1], ids[3], |m| {
        m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0))
            .correct(AttributeId(1), AttributeId(1))
            .correct(AttributeId(2), AttributeId(2))
    });
    cat.add_mapping(ids[0], ids[2], correct);
    cat.add_mapping(ids[2], ids[3], correct);
    cat.add_mapping(ids[3], ids[0], correct);
    cat
}

/// A random Erdős–Rényi catalog with injected errors.
fn random_catalog() -> Catalog {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::erdos_renyi(14, 0.18, 9),
        attributes: 5,
        error_rate: 0.12,
        seed: 21,
    })
    .catalog
}

fn model_of(catalog: &Catalog) -> MappingModel {
    let analysis = CycleAnalysis::analyze(catalog, &AnalysisConfig::default());
    MappingModel::build(catalog, &analysis, Granularity::Fine, 0.1)
}

fn fixtures() -> [(&'static str, Catalog); 3] {
    [
        ("ring5", ring_catalog(5)),
        ("diamond", diamond_catalog()),
        ("random", random_catalog()),
    ]
}

#[test]
fn golden_posteriors_on_ring_diamond_and_random_catalogs() {
    for (name, catalog) in fixtures() {
        let model = model_of(&catalog);
        assert!(model.evidence_count() > 0, "fixture must produce evidence");
        let reliable = run_embedded(&model, &BTreeMap::new(), 0.6, EmbeddedConfig::default());
        assert_golden_run(&format!("{name}/reliable"), &reliable);
    }
}

#[test]
fn golden_posteriors_survive_warm_start() {
    for (name, catalog) in fixtures() {
        let model = model_of(&catalog);
        let cold = run_embedded(&model, &BTreeMap::new(), 0.6, EmbeddedConfig::default());
        let previous: BTreeMap<_, _> = model
            .variables
            .iter()
            .enumerate()
            .map(|(i, key)| (*key, cold.posterior(i)))
            .collect();
        let mut warm =
            EmbeddedMessagePassing::new(&model, &BTreeMap::new(), 0.6, EmbeddedConfig::default());
        warm.warm_start(&previous);
        assert_golden_run(&format!("{name}/warm"), &warm.run());
    }
}

/// Asserts that a reliable period-1 `DecentralizedRun` reproduces the kernel bit for
/// bit: under reliable delivery every replica of an evidence holds the kernel's
/// remote-message row, so the run's posteriors after step t are the kernel's after
/// round t + 1 (the kernel's first round needs no delivery).
fn assert_decentralized_run_is_the_kernel(name: &str, catalog: &Catalog, model: &MappingModel) {
    let priors = BTreeMap::new();
    let mut kernel = EmbeddedMessagePassing::new(model, &priors, 0.6, EmbeddedConfig::default());
    let mut run =
        DecentralizedRun::new(catalog, model, &priors, 0.6, DecentralizedConfig::default());
    assert_eq!(run.posteriors(), kernel.posteriors(), "{name}: priors");
    for t in 0..=60 {
        kernel.round();
        run.step();
        assert_eq!(run.posteriors(), kernel.posteriors(), "{name}: step {t}");
    }
}

#[test]
fn reliable_decentralized_run_is_the_kernel_one_round_later() {
    for (name, catalog) in fixtures() {
        assert_decentralized_run_is_the_kernel(name, &catalog, &model_of(&catalog));
    }
}

#[test]
fn reliable_decentralized_run_is_the_kernel_on_a_perfbench_sized_island() {
    // The island of perfbench's `dense_edit` workload, under its analysis bounds.
    let island = multi_component_network(1, 14, 0.2, 62).catalog;
    let analysis = CycleAnalysis::analyze(
        &island,
        &AnalysisConfig {
            max_cycle_len: 4,
            max_path_len: 3,
            include_parallel_paths: true,
            ..Default::default()
        },
    );
    let model = MappingModel::build(&island, &analysis, Granularity::Fine, 0.1);
    assert_decentralized_run_is_the_kernel("island", &island, &model);
}

#[test]
fn mid_run_warm_start_matches_the_golden_trajectory_on_a_frozen_network() {
    // This Erdős–Rényi network reaches its *exact* message fixpoint within a few
    // rounds, so after 30 rounds every variable is inactive and a round does no
    // work. Seeding exactly one variable then rewrites its remote-message slots and
    // marks it active: phase 2 must recompute its cached messages and send the ones
    // that differ from the seeded values, and a kernel that left the seeded variable
    // inactive would leave the golden trajectory.
    let catalog = SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::erdos_renyi(32, 0.09, 3),
        attributes: 6,
        error_rate: 0.05,
        seed: 7,
    })
    .catalog;
    let analysis = CycleAnalysis::analyze(
        &catalog,
        &AnalysisConfig {
            max_cycle_len: 5,
            max_path_len: 3,
            ..Default::default()
        },
    );
    let model = MappingModel::build(&catalog, &analysis, Granularity::Fine, 0.1);
    let mut machine =
        EmbeddedMessagePassing::new(&model, &BTreeMap::new(), 0.6, EmbeddedConfig::default());
    let mut frozen = false;
    for _ in 0..30 {
        frozen = machine.round() == 0.0;
    }
    // The premise of the scenario: the network is at its exact fixpoint, so every
    // variable is inactive before the warm start.
    assert!(
        frozen,
        "fixture must reach its exact fixpoint within 30 rounds"
    );
    let mut warm: BTreeMap<_, f64> = BTreeMap::new();
    warm.insert(model.variables[0], 0.17);
    machine.warm_start(&warm);
    let mut deltas = Vec::new();
    for round in 0..12 {
        deltas.push(machine.round());
        if matches!(round, 0 | 1 | 11) {
            assert_within_envelope(
                &format!("round {round}"),
                &machine.posteriors(),
                &f64s(&golden(&format!("frozen/round{round}"))),
            );
        }
    }
    assert_within_envelope("round deltas", &deltas, &f64s(&golden("frozen/deltas")));
}

#[test]
fn parallel_enumeration_reproduces_serial_evidence_ids_exactly() {
    for catalog in [ring_catalog(6), diamond_catalog(), random_catalog()] {
        let serial = CycleAnalysis::analyze(
            &catalog,
            &AnalysisConfig {
                parallelism: 1,
                ..Default::default()
            },
        );
        for workers in [2usize, 4, 16] {
            let parallel = CycleAnalysis::analyze(
                &catalog,
                &AnalysisConfig {
                    parallelism: workers,
                    ..Default::default()
                },
            );
            assert_eq!(
                serial.evidences, parallel.evidences,
                "{workers} workers: evidence ids / ordering diverged"
            );
            assert_eq!(
                serial.observations.len(),
                parallel.observations.len(),
                "{workers} workers: observation counts diverged"
            );
            for (a, b) in serial.observations.iter().zip(&parallel.observations) {
                assert_eq!(a.evidence, b.evidence);
                assert_eq!(a.origin_attribute, b.origin_attribute);
                assert_eq!(a.feedback, b.feedback);
                assert_eq!(a.steps, b.steps);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Arbitrary schedules are deterministic (a hand-stepped rerun reproduces every
    /// posterior bit of every round), account for every remote message, and report
    /// `converged` exactly when the last round moved less than the tolerance.
    #[test]
    fn arbitrary_schedules_are_deterministic_and_account_every_message(
        seed in 0u64..1000,
        max_rounds in 1usize..80,
        peers in 4usize..10,
        edge_probability in 0.15f64..0.4,
    ) {
        let catalog = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::erdos_renyi(peers, edge_probability, seed),
            attributes: 4,
            error_rate: 0.15,
            seed: seed.wrapping_add(1),
        })
        .catalog;
        let model = model_of(&catalog);
        let config = EmbeddedConfig {
            max_rounds,
            tolerance: 1e-6,
            record_history: true,
            ..Default::default()
        };
        let report = run_embedded(&model, &BTreeMap::new(), 0.55, config.clone());
        let mut machine = EmbeddedMessagePassing::new(&model, &BTreeMap::new(), 0.55, config);
        let per_round = machine.messages_per_round() as u64;
        let mut last_delta = f64::INFINITY;
        for round in 1..=report.rounds {
            last_delta = machine.round();
            prop_assert_eq!(&machine.posteriors(), &report.history[round]);
        }
        prop_assert_eq!(report.history.len(), report.rounds + 1);
        prop_assert_eq!(report.converged, last_delta < 1e-6);
        prop_assert!(report.converged || report.rounds == max_rounds);
        prop_assert_eq!(report.messages_delivered, per_round * report.rounds as u64);
    }
}
