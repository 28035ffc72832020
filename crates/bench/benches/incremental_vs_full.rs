//! Criterion bench: incremental session delta-apply vs. full recompute under the
//! synthetic churn workload — the cost argument behind `EngineSession`.
//!
//! For each network size, one epoch of churn events is drawn once; the
//! `full_recompute` series replays the events onto a catalog and builds a fresh
//! session over it (cycle and parallel-path enumeration, model build, cold
//! inference), the `delta_apply` series applies the identical events to a pre-built
//! session (targeted per-edge evidence maintenance, warm-started change-driven
//! inference). The `light` rows are the paper's Section 4.4 regime — a handful of
//! localized changes per epoch — where incremental maintenance pays most; the
//! `heavy` rows rewrite a large fraction of the network, the worst case for reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdms_core::{
    apply_event, AnalysisConfig, EmbeddedConfig, Engine, EngineBuilder, EngineSession, NetworkEvent,
};
use pdms_graph::GeneratorConfig;
use pdms_schema::Catalog;
use pdms_workloads::{ChurnConfig, ChurnGenerator, SyntheticConfig, SyntheticNetwork};

fn engine() -> EngineBuilder {
    Engine::builder()
        .analysis(AnalysisConfig {
            max_cycle_len: 5,
            max_path_len: 3,
            include_parallel_paths: true,
            ..Default::default()
        })
        .embedded(EmbeddedConfig {
            record_history: false,
            max_rounds: 100,
            ..Default::default()
        })
        .delta(0.1)
}

fn network(peers: usize) -> SyntheticNetwork {
    SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::small_world(peers, 2, 0.2, 7),
        attributes: 8,
        error_rate: 0.05,
        seed: 7,
    })
}

/// Localized churn: a few corruptions/repairs per epoch (the Section 4.4 regime).
fn light_churn(catalog: &Catalog, seed: u64) -> Vec<NetworkEvent> {
    let mut generator = ChurnGenerator::new(ChurnConfig {
        corrupt_rate: 0.004,
        repair_rate: 0.08,
        drop_rate: 0.001,
        new_mappings_per_epoch: 0.3,
        new_mapping_error_rate: 0.1,
        seed,
        ..Default::default()
    });
    generator.epoch_events(catalog)
}

/// Canonical churn rates: touches a sizeable fraction of the mappings per epoch.
fn heavy_churn(catalog: &Catalog, seed: u64) -> Vec<NetworkEvent> {
    let mut generator = ChurnGenerator::new(ChurnConfig {
        seed,
        ..Default::default()
    });
    generator.epoch_events(catalog)
}

fn bench_pair(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    base: &SyntheticNetwork,
    session: &EngineSession,
    events: &[NetworkEvent],
) {
    group.bench_with_input(
        BenchmarkId::new("full_recompute", label),
        &events.len(),
        |b, _| {
            b.iter(|| {
                let mut catalog = base.catalog.clone();
                for event in events {
                    apply_event(&mut catalog, event);
                }
                engine().build(catalog)
            })
        },
    );
    // The session is cloned per iteration so every measurement starts from the same
    // converged state; cloning is cheap next to analysis + inference.
    group.bench_with_input(
        BenchmarkId::new("delta_apply", label),
        &events.len(),
        |b, _| {
            b.iter(|| {
                let mut session = session.clone();
                session.apply(events);
                session.posteriors().len()
            })
        },
    );
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_vs_full");
    group.sample_size(20);
    for &peers in &[16usize, 24, 32] {
        let base = network(peers);
        let session = engine().build(base.catalog.clone());
        let light = light_churn(&base.catalog, 11 + peers as u64);
        bench_pair(
            &mut group,
            &format!("light/{peers}"),
            &base,
            &session,
            &light,
        );
        if peers == 32 {
            let heavy = heavy_churn(&base.catalog, 11 + peers as u64);
            bench_pair(
                &mut group,
                &format!("heavy/{peers}"),
                &base,
                &session,
                &heavy,
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_full);
criterion_main!(benches);
