//! Criterion bench: fine vs. coarse variable granularity (Section 4.1 ablation).
//!
//! Fine granularity tracks one variable per `(mapping, attribute)` pair and therefore
//! builds a much larger model than coarse granularity (one variable per mapping); this
//! bench quantifies the end-to-end cost difference on the ontology-alignment workload,
//! which is the workload where the difference matters most (≈ 30 attributes per peer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdms_core::{AnalysisConfig, EmbeddedConfig, Engine, Granularity};
use pdms_workloads::{generate_ontology_suite, OntologySuiteConfig};

fn bench_granularity(c: &mut Criterion) {
    let suite = generate_ontology_suite(&OntologySuiteConfig::default());
    let mut group = c.benchmark_group("granularity");
    group.sample_size(10);
    for (label, granularity) in [("fine", Granularity::Fine), ("coarse", Granularity::Coarse)] {
        group.bench_with_input(
            BenchmarkId::new("engine_run", label),
            &granularity,
            |b, &granularity| {
                let builder = Engine::builder()
                    .granularity(granularity)
                    .delta(0.1)
                    .analysis(AnalysisConfig {
                        max_cycle_len: 4,
                        max_path_len: 3,
                        include_parallel_paths: true,
                        ..Default::default()
                    })
                    .embedded(EmbeddedConfig {
                        record_history: false,
                        max_rounds: 20,
                        ..Default::default()
                    });
                b.iter(|| builder.clone().build(suite.catalog.clone()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_granularity);
criterion_main!(benches);
