//! Shared fixtures and measurement loops for the embedded-round / enumeration
//! throughput comparison.
//!
//! Used by two entry points that must agree on methodology:
//!
//! * the `round_throughput` Criterion bench (`benches/round_throughput.rs`), for
//!   interactive `cargo bench` runs;
//! * the `bench_round_throughput` binary, which writes the committed
//!   `BENCH_round_throughput.json` before/after record tracking the perf trajectory
//!   of the flat-arena refactor.
//!
//! "Before" is the preserved nested-`Vec` engine
//! ([`pdms_core::embedded_baseline`]); "after" is the flat-arena engine
//! ([`pdms_core::embedded`]). Both are driven round by round from a cold start with
//! convergence checks disabled (`tolerance = 0`), so each measurement covers the
//! identical sequence of message updates.
//!
//! The window is [`ROUNDS_PER_SAMPLE`] rounds of the paper's *periodic schedule*:
//! peers keep exchanging rounds at every period whether or not the network has
//! converged (Section 4.3.1), so a serving deployment spends the bulk of its rounds
//! at or near the fixpoint. The fixtures are Erdős–Rényi networks chosen to reach
//! the exact message fixpoint inside the window (round ~5 / ~24 / ~43 for the three
//! sizes), which exercises both the hot convergence phase and the converged steady
//! state where change-driven caching is supposed to make rounds nearly free.

use pdms_core::cycle_analysis::build_topology;
use pdms_core::{
    AnalysisConfig, BaselineMessagePassing, CycleAnalysis, EmbeddedConfig, EmbeddedMessagePassing,
    Granularity, MappingModel,
};
use pdms_graph::{
    enumerate_cycles_scheduled, enumerate_parallel_paths_scheduled, DiGraph, GeneratorConfig,
    StealConfig,
};
use pdms_workloads::{SyntheticConfig, SyntheticNetwork};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One benchmark network: the generated catalog plus the evidence analysis and the
/// probabilistic model derived from it.
pub struct Fixture {
    /// Short fixture label (`small_world_24` etc.).
    pub name: String,
    /// Number of peers.
    pub peers: usize,
    /// The mapping-network topology (edge ids == mapping ids).
    pub topology: DiGraph,
    /// The evidence analysis the model is built from.
    pub analysis: CycleAnalysis,
    /// The assembled model the engines run on.
    pub model: MappingModel,
    /// The analysis bounds used (also drives the enumeration measurement).
    pub analysis_config: AnalysisConfig,
}

/// Rounds each engine is driven for per timing sample.
pub const ROUNDS_PER_SAMPLE: usize = 200;

/// The embedded-engine configuration used by every measurement: convergence checks
/// are disabled so both engines execute exactly [`ROUNDS_PER_SAMPLE`] rounds.
pub fn bench_embedded_config() -> EmbeddedConfig {
    EmbeddedConfig {
        max_rounds: ROUNDS_PER_SAMPLE,
        tolerance: 0.0,
        send_probability: 1.0,
        seed: 11,
        record_history: false,
    }
}

/// Builds the three standard fixtures: Erdős–Rényi networks of 32, 64 and 128
/// peers (mean out-degree ≈ 3, 6-attribute schemas, 5% injected error rate), each
/// verified to reach its exact message fixpoint within the measurement window.
pub fn standard_fixtures() -> Vec<Fixture> {
    [(32usize, 0.09, 3u64), (64, 0.045, 3), (128, 0.025, 5)]
        .into_iter()
        .map(|(peers, probability, seed)| fixture(peers, probability, seed))
        .collect()
}

/// Builds one Erdős–Rényi fixture.
pub fn fixture(peers: usize, probability: f64, topology_seed: u64) -> Fixture {
    let analysis_config = AnalysisConfig {
        max_cycle_len: 5,
        max_path_len: 3,
        include_parallel_paths: true,
        parallelism: 1,
        ..Default::default()
    };
    let network = SyntheticNetwork::generate(SyntheticConfig {
        topology: GeneratorConfig::erdos_renyi(peers, probability, topology_seed),
        attributes: 6,
        error_rate: 0.05,
        seed: 7,
    });
    let topology = build_topology(&network.catalog);
    let analysis = CycleAnalysis::analyze(&network.catalog, &analysis_config);
    let model = MappingModel::build(&network.catalog, &analysis, Granularity::Fine, 0.1);
    Fixture {
        name: format!("erdos_renyi_{peers}"),
        peers,
        topology,
        analysis,
        model,
        analysis_config,
    }
}

/// Drives the flat-arena engine for [`ROUNDS_PER_SAMPLE`] rounds from cold and
/// returns the wall time.
pub fn time_flat_rounds(model: &MappingModel) -> Duration {
    let mut machine =
        EmbeddedMessagePassing::new(model, &BTreeMap::new(), 0.6, bench_embedded_config());
    let start = Instant::now();
    for _ in 0..ROUNDS_PER_SAMPLE {
        std::hint::black_box(machine.round());
    }
    start.elapsed()
}

/// Drives the nested-`Vec` baseline engine for [`ROUNDS_PER_SAMPLE`] rounds from
/// cold and returns the wall time.
pub fn time_baseline_rounds(model: &MappingModel) -> Duration {
    let mut machine =
        BaselineMessagePassing::new(model, &BTreeMap::new(), 0.6, bench_embedded_config());
    let start = Instant::now();
    for _ in 0..ROUNDS_PER_SAMPLE {
        std::hint::black_box(machine.round());
    }
    start.elapsed()
}

/// Times one full evidence enumeration (cycles + parallel paths) at the given
/// worker count.
pub fn time_enumeration(fixture: &Fixture, parallelism: usize) -> Duration {
    let start = Instant::now();
    let steal = StealConfig::default();
    let cycles = enumerate_cycles_scheduled(
        &fixture.topology,
        fixture.analysis_config.max_cycle_len,
        parallelism,
        &steal,
    );
    let paths = enumerate_parallel_paths_scheduled(
        &fixture.topology,
        fixture.analysis_config.max_path_len,
        parallelism,
        &steal,
    );
    std::hint::black_box((cycles.len(), paths.len()));
    start.elapsed()
}

/// Best-of-`repeats` wrapper: benchmarks report the minimum wall time, the standard
/// noise-robust statistic for single-process comparisons.
pub fn best_of<F: FnMut() -> Duration>(repeats: usize, mut f: F) -> Duration {
    (0..repeats.max(1))
        .map(|_| f())
        .min()
        .expect("at least one repeat")
}

/// Rounds/sec from a per-sample wall time.
pub fn rounds_per_sec(elapsed: Duration) -> f64 {
    ROUNDS_PER_SAMPLE as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_nontrivial_and_engines_agree() {
        let fixture = fixture(32, 0.09, 3);
        assert!(fixture.model.variable_count() > 0);
        assert!(fixture.model.evidence_count() > 0);
        // The two engines the bench compares must produce identical posteriors on
        // the bench fixture itself, otherwise the comparison is meaningless.
        let config = bench_embedded_config();
        let mut flat =
            EmbeddedMessagePassing::new(&fixture.model, &BTreeMap::new(), 0.6, config.clone());
        let mut baseline =
            BaselineMessagePassing::new(&fixture.model, &BTreeMap::new(), 0.6, config);
        for _ in 0..5 {
            flat.round();
            baseline.round();
        }
        assert_eq!(flat.posteriors(), baseline.posteriors());
    }
}
