//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <dense_edit|island_rewire|route_mix> --seed <n>
//!           [--seconds <s>] [--trace <0|1>] [--size <full|tiny>]
//! ```
//!
//! One closed-loop client in one thread drives a `ShardedSession` through a
//! workload's pre-generated stream of writes (`apply_batch`) and reads
//! (`route`). Each pass runs the whole stream on a freshly built session, and
//! passes repeat while another one fits in `--seconds`. `--trace 0` prints the
//! end-to-end metrics. `--trace 1` spends half the time on untraced passes,
//! then runs one pass through the instrumented backend of `trace.rs` and
//! prints the per-layer metrics. Both check the answers. The last line of
//! stdout is one JSON object, and a failed check exits non-zero. `README.md`
//! beside this crate describes the workloads and every metric.

mod stats;
mod trace;
mod workload;

use pdms_core::{
    AnalysisConfig, BatchReport, CycleAnalysis, EmbeddedBackend, EmbeddedConfig, Engine,
    Granularity, InferenceBackend, RoutingPolicy, ShardedSession,
};
use pdms_graph::{DEFAULT_HEAVY_ORIGIN_THRESHOLD, DEFAULT_STEAL_GRANULARITY};
use pdms_schema::{Catalog, MappingId, PeerId};
use stats::{median, ms, quantile, ratio, Metric};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layers, TracingBackend};
use workload::{Fixture, Op, OpKind, Step, Workload};

const USAGE: &str = "usage: perfbench --workload <dense_edit|island_rewire|route_mix> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--size <full|tiny>]";

/// Δ, pinned rather than estimated from the schemas.
const DELTA: f64 = 0.1;
/// Detection and routing threshold θ.
const THETA: f64 = 0.5;
/// Cold builds timed before the first pass; every pass adds one more.
const SETUP_BUILDS: usize = 4;
/// Largest gap allowed between incremental and rebuilt posteriors on converged
/// shards. Warm and cold inference stop at the 1e-4 round tolerance from
/// different starting messages, so they agree to within a few tolerances, not
/// bit for bit.
const REBUILD_ENVELOPE: f64 = 1e-2;
/// Posteriors this close to θ are undecided: warm and cold runs may leave them
/// on either side of it without that counting as a classification flip.
const UNDECIDED: f64 = 1e-3;

/// The analysis bounds and scheduling knobs, all pinned so that no `PDMS_*`
/// environment variable can change them: the bounds of
/// `pdms_bench::shard_scaling::bench_analysis` (cycles of at most 4 mappings,
/// parallel paths of at most 3), one enumeration worker, one shard-dispatch
/// worker, splicing on, and a batch size above the largest op, so that every op
/// is one batch.
fn analysis_config() -> AnalysisConfig {
    AnalysisConfig {
        max_cycle_len: 4,
        max_path_len: 3,
        include_parallel_paths: true,
        parallelism: 1,
        heavy_origin_threshold: DEFAULT_HEAVY_ORIGIN_THRESHOLD,
        steal_granularity: DEFAULT_STEAL_GRANULARITY,
        shard_parallelism: 1,
        batch_size: 64,
        splice: Some(true),
    }
}

/// Message passing as `pdms_bench::merge_splice::bench_embedded` sets it up: a
/// 60-round cap, tolerance 1e-4, reliable delivery, history off.
fn embedded_config() -> EmbeddedConfig {
    EmbeddedConfig {
        max_rounds: 60,
        tolerance: 1e-4,
        send_probability: 1.0,
        seed: 11,
        record_history: false,
    }
}

/// Builds a workload's session with the pinned set-up.
fn build(catalog: Catalog, backend: Arc<dyn InferenceBackend>) -> ShardedSession {
    Engine::builder()
        .analysis(analysis_config())
        .granularity(Granularity::Fine)
        .delta(DELTA)
        .backend_arc(backend)
        .build_sharded(catalog)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut trace, mut tiny) = (10.0, false, false);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match (flag.as_str(), value.as_str()) {
            ("--workload", name) => workload = Some(Workload::parse(name).ok_or_else(bad)?),
            ("--seed", n) => seed = Some(n.parse::<u64>().map_err(|_| bad())?),
            ("--seconds", s) => {
                seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(bad)?;
            }
            ("--trace", "0") => trace = false,
            ("--trace", "1") => trace = true,
            ("--size", "full") => tiny = false,
            ("--size", "tiny") => tiny = true,
            ("--trace" | "--size", _) => return Err(bad()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny,
    })
}

/// What one pass over a workload's stream measured.
#[derive(Debug, Default)]
struct Pass {
    /// Every cold `build_sharded` of the pass, in seconds.
    setup_s: Vec<f64>,
    /// Write latencies, in stream order.
    apply_ms: Vec<f64>,
    /// Read latencies, in stream order.
    route_us: Vec<f64>,
    events: usize,
    /// Writes after which a shard the op touched served unconverged posteriors.
    unconverged: usize,
    /// Writes with an event the engine ignored.
    failed: usize,
    merges: usize,
    splits: usize,
    rebuilt: usize,
    decisions: usize,
    reached: usize,
    /// The posteriors served at the end, bit for bit.
    posteriors: Vec<u64>,
}

impl Pass {
    /// A cold `build_sharded` of the initial catalog, timed as a set-up sample.
    /// A traced pass's set-up inference belongs to no op, so its records are
    /// dropped.
    fn build(
        &mut self,
        fixture: &Fixture,
        backend: &Arc<dyn InferenceBackend>,
        tracer: Option<&TracingBackend>,
    ) -> ShardedSession {
        let catalog = fixture.catalog.clone();
        let start = Instant::now();
        let session = build(catalog, backend.clone());
        self.setup_s.push(start.elapsed().as_secs_f64());
        if let Some(tracer) = tracer {
            tracer.drain();
        }
        session
    }

    fn record_write(
        &mut self,
        op: &Op,
        wall: Duration,
        report: &BatchReport,
        session: &ShardedSession,
    ) {
        self.apply_ms.push(ms(wall));
        self.events += report.events_applied;
        self.failed += usize::from(report.events_ignored > 0);
        let unconverged = op
            .endpoints
            .iter()
            .any(|peer| !session.shard_of(*peer).session().converged());
        self.unconverged += usize::from(unconverged);
        self.merges += report.merges;
        self.splits += report.splits;
        self.rebuilt += report.shards_rebuilt;
    }
}

/// Builds a fresh session and drives the whole stream through it. A traced
/// pass also hands every write to the per-layer bookkeeping. A checked pass
/// runs the gate at the end of every episode, outside the timed calls.
fn run_pass(
    fixture: &Fixture,
    backend: Arc<dyn InferenceBackend>,
    mut traced: Option<(&TracingBackend, &mut Layers)>,
    mut gate: Option<&mut Gate>,
) -> (ShardedSession, Pass) {
    let mut pass = Pass::default();
    let mut session = pass.build(
        fixture,
        &backend,
        traced.as_ref().map(|(tracer, _)| *tracer),
    );
    let policy = RoutingPolicy::uniform(THETA);
    for step in &fixture.steps {
        match step {
            Step::Restart => {
                if let Some(gate) = gate.as_mut() {
                    gate.episode(&mut session);
                }
                session = pass.build(
                    fixture,
                    &backend,
                    traced.as_ref().map(|(tracer, _)| *tracer),
                );
            }
            Step::Write(op) => {
                let marks = match traced {
                    Some(_) => trace::marks(&session),
                    None => Vec::new(),
                };
                let start = Instant::now();
                let report = session.apply_batch(&op.events);
                let wall = start.elapsed();
                pass.record_write(op, wall, &report, &session);
                if let Some((tracer, layers)) = traced.as_mut() {
                    layers.record_write(tracer.drain(), &session, &marks, wall, &report);
                }
            }
            Step::Read(origin, query) => {
                let start = Instant::now();
                let outcome = session.route(*origin, query, &policy);
                pass.route_us.push(start.elapsed().as_secs_f64() * 1e6);
                pass.decisions += outcome.decisions.len();
                pass.reached += outcome.reached.len();
            }
        }
    }
    pass.posteriors = snapshot(&session);
    if let Some(gate) = gate {
        gate.episode(&mut session);
    }
    (session, pass)
}

/// The served posteriors, bit for bit: every fine entry, then every coarse one.
fn snapshot(session: &ShardedSession) -> Vec<u64> {
    let table = session.posteriors();
    let fine = table
        .fine_entries()
        .flat_map(|(m, a, p)| [m.0 as u64, a.0 as u64, p.to_bits()]);
    let coarse = table
        .coarse_entries()
        .flat_map(|(m, p)| [m.0 as u64, p.to_bits()]);
    fine.chain(coarse).collect()
}

/// Checks that the checked pass exercised the layer its workload exists for.
fn workload_checks(fixture: &Fixture, pass: &Pass, gate: &Gate) -> Vec<String> {
    let mut failures = Vec::new();
    match fixture.workload {
        Workload::DenseEdit => {
            let (added, removed) = (gate.evidences_added, gate.evidences_removed);
            if added + removed + pass.merges + pass.splits > 0 {
                failures.push(format!(
                    "dense_edit must leave evidence and partition alone, but added {added} \
                     and removed {removed} evidences in {} merges and {} splits",
                    pass.merges, pass.splits
                ));
            }
        }
        Workload::IslandRewire => {
            let ops = |kind| fixture.writes().filter(|op| op.kind == kind).count();
            let merges = ops(OpKind::Merge).min(20);
            let splits = ops(OpKind::Split).min(10);
            if pass.merges < merges || pass.splits < splits || pass.rebuilt > 0 {
                failures.push(format!(
                    "island_rewire needs at least {merges} merges and {splits} splits, all \
                     spliced; it made {} merges, {} splits and {} cold rebuilds",
                    pass.merges, pass.splits, pass.rebuilt
                ));
            }
        }
        Workload::RouteMix => {
            let (reads, writes) = (pass.route_us.len(), pass.apply_ms.len());
            if reads * 10 < (reads + writes) * 9 {
                failures.push(format!(
                    "route_mix reads must be at least 90% of the ops: {reads} of {}",
                    reads + writes
                ));
            }
        }
    }
    failures
}

/// The global mapping ids of every shard whose inference run converged, one
/// list per shard, labelled with the shard's first peer.
fn converged_shards(session: &ShardedSession) -> Vec<(PeerId, Vec<MappingId>)> {
    session
        .shards()
        .iter()
        .filter(|shard| shard.session().converged())
        .map(|shard| {
            let mappings = shard.session().catalog().mappings();
            let global = mappings.map(|local| shard.global_mapping(local)).collect();
            (shard.peers()[0], global)
        })
        .collect()
}

/// The incremental-versus-rebuild gate, run at the end of every episode of
/// the checked pass. It snapshots the served posteriors, rebuilds every shard
/// from scratch and compares, shard by shard, the fine posteriors of every
/// shard that converged both times. A shard agrees when no posterior moved by
/// more than `REBUILD_ENVELOPE` and none crossed θ with both values decided.
/// Saturated posteriors (0 or 1) and the uniform 0.5 of an underflowed belief
/// are compared like any other.
///
/// Loopy message passing can have more than one fixpoint, and a warm start
/// from the previous posteriors can settle in another one than a cold start:
/// the shard then converges both times yet disagrees. The gate counts such
/// shards and fails when there are more than `Workload::known_fixpoint_splits`,
/// the number the engine shows on the workload's fixed episodes today. The
/// gate also sums the shards' `SessionStats` and checks that the episode
/// returned to the initial mapping and shard counts.
#[derive(Debug)]
struct Gate {
    /// Mapping and shard count of the initial catalog.
    start: (usize, usize),
    allowed_splits: usize,
    episodes: usize,
    /// Episodes that ended away from the initial mapping or shard count.
    drifted: usize,
    evidences_added: usize,
    evidences_removed: usize,
    compared: usize,
    /// The largest gap between incremental and rebuilt posteriors on the
    /// shards that agree.
    gap: f64,
    /// `(episode, first peer, largest gap, flips)` of every disagreeing shard.
    splits: Vec<(usize, PeerId, f64, usize)>,
}

impl Gate {
    fn new(start: (usize, usize), allowed_splits: usize) -> Self {
        Gate {
            start,
            allowed_splits,
            episodes: 0,
            drifted: 0,
            evidences_added: 0,
            evidences_removed: 0,
            compared: 0,
            gap: 0.0,
            splits: Vec::new(),
        }
    }

    fn episode(&mut self, session: &mut ShardedSession) {
        self.episodes += 1;
        for shard in session.shards() {
            let stats = shard.session().stats();
            self.evidences_added += stats.evidences_added;
            self.evidences_removed += stats.evidences_removed;
        }
        if (session.catalog().mapping_count(), session.shard_count()) != self.start {
            self.drifted += 1;
        }
        let incremental = session.posteriors().clone();
        let converged = converged_shards(session);
        session.rebuild_from_scratch();
        let still_converged: BTreeSet<PeerId> = converged_shards(session)
            .into_iter()
            .map(|(first, _)| first)
            .collect();
        for (first, mappings) in converged {
            if !still_converged.contains(&first) {
                continue;
            }
            let (mut gap, mut flips) = (0.0f64, 0);
            for &mapping in &mappings {
                for (attribute, _) in session.catalog().mapping(mapping).correspondences() {
                    let p = incremental.probability_ignoring_bottom(mapping, attribute);
                    let q = session
                        .posteriors()
                        .probability_ignoring_bottom(mapping, attribute);
                    gap = gap.max((p - q).abs());
                    let decided = (p - THETA).abs().min((q - THETA).abs()) > UNDECIDED;
                    flips += usize::from((p < THETA) != (q < THETA) && decided);
                    self.compared += 1;
                }
            }
            if gap > REBUILD_ENVELOPE || flips > 0 {
                self.splits.push((self.episodes, first, gap, flips));
            } else {
                self.gap = self.gap.max(gap);
            }
        }
    }

    /// The gate's lines in the output.
    fn summary(&self) -> String {
        let mut summary = format!(
            "{} episodes, {} converged fine posteriors compared, max gap {:.3e} on \
             agreeing shards (envelope {REBUILD_ENVELOPE}), {} disagreeing shards \
             (allowed {}), {} episodes drifted",
            self.episodes,
            self.compared,
            self.gap,
            self.splits.len(),
            self.allowed_splits,
            self.drifted
        );
        for (episode, first, gap, flips) in &self.splits {
            summary += &format!(
                "\n#   episode {episode}, shard of peer {}: gap {gap:.3e}, {flips} flips at θ = {THETA}",
                first.0
            );
        }
        summary
    }

    fn passed(&self) -> bool {
        self.splits.len() <= self.allowed_splits && self.drifted == 0
    }
}

fn print_header(args: &Args, fixture: &Fixture, session: &ShardedSession) {
    let analysis = analysis_config();
    let embedded = embedded_config();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut variables, mut max_degree, mut sum_deg2) = (0usize, 0usize, 0u64);
    for shard in session.shards() {
        let model = shard.session().model();
        let mut degree = vec![0usize; model.variable_count()];
        for evidence in &model.evidences {
            for &variable in &evidence.variables {
                degree[variable] += 1;
            }
        }
        variables += degree.len();
        max_degree = max_degree.max(degree.iter().copied().max().unwrap_or(0));
        sum_deg2 += degree.iter().map(|&d| (d * d) as u64).sum::<u64>();
    }
    let writes = fixture.writes().count();
    let events: usize = fixture.writes().map(|op| op.events.len()).sum();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!("# host nproc={nproc}");
    println!(
        "# knobs parallelism={} shard_parallelism={} splice={:?} batch_size={} \
         granularity=fine delta={DELTA} max_cycle_len={} max_path_len={} \
         embedded.max_rounds={} embedded.tolerance={} embedded.send_probability={} \
         embedded.record_history={}",
        analysis.parallelism,
        analysis.shard_parallelism,
        analysis.splice,
        analysis.batch_size,
        analysis.max_cycle_len,
        analysis.max_path_len,
        embedded.max_rounds,
        embedded.tolerance,
        embedded.send_probability,
        embedded.record_history
    );
    println!(
        "# shape peers={} mappings={} shards={} evidences={} variables={variables} \
         max_var_degree={max_degree} sum_deg2={sum_deg2}",
        session.catalog().peer_count(),
        session.catalog().mapping_count(),
        session.shard_count(),
        session.evidence_count()
    );
    println!(
        "# stream writes={writes} events={events} reads={} load=closed-loop clients=1 threads=1",
        fixture.reads()
    );
}

/// Each sample's median over the passes. Every pass replays the same stream,
/// so this is the op's typical latency: a host that slows part of one pass
/// down, or speeds it up, moves no figure.
fn typical(passes: &[Pass], samples: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    (0..samples(&passes[0]).len())
        .map(|index| {
            let values: Vec<f64> = passes.iter().map(|pass| samples(pass)[index]).collect();
            median(&values)
        })
        .collect()
}

/// Apply latency per op kind, from the typical write latencies.
fn print_kind_table(fixture: &Fixture, apply_ms: &[f64]) {
    println!(
        "# {:<20} {:>6} {:>10} {:>10}",
        "op_kind", "n", "p50_ms", "p90_ms"
    );
    for kind in OpKind::ALL {
        let samples: Vec<f64> = fixture
            .writes()
            .zip(apply_ms)
            .filter(|(op, _)| op.kind == kind)
            .map(|(_, ms)| *ms)
            .collect();
        if !samples.is_empty() {
            println!(
                "# {:<20} {:>6} {:>10.3} {:>10.3}",
                kind.label(),
                samples.len(),
                median(&samples),
                quantile(&samples, 0.9)
            );
        }
    }
}

/// The end-to-end metrics: latencies and rates from the typical latency of
/// each op and each read, the convergence share from the checked pass, the median set-up.
fn end_to_end(passes: &[Pass], checked: &Pass, setup_s: &[f64], detect_f1: f64) -> Vec<Metric> {
    let apply_ms = typical(passes, |pass| &pass.apply_ms);
    let route_us = typical(passes, |pass| &pass.route_us);
    println!(
        "# samples per pass: apply={} route={}; passes={} setup={}",
        apply_ms.len(),
        route_us.len(),
        passes.len(),
        setup_s.len()
    );
    let write_s = apply_ms.iter().sum::<f64>() / 1e3;
    let read_s = route_us.iter().sum::<f64>() / 1e6;
    vec![
        ("apply_ms_p50", median(&apply_ms), "ms"),
        ("apply_ms_p90", quantile(&apply_ms, 0.9), "ms"),
        ("events_per_s", checked.events as f64 / write_s, "1/s"),
        ("route_us_p50", median(&route_us), "us"),
        ("route_us_p99", quantile(&route_us, 0.99), "us"),
        ("queries_per_s", route_us.len() as f64 / read_s, "1/s"),
        (
            "converged_frac",
            1.0 - ratio(checked.unconverged, checked.apply_ms.len()),
            "ratio",
        ),
        ("detect_f1", detect_f1, "ratio"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ("setup_s", median(setup_s), "s"),
    ]
}

/// The traced half of a `--trace 1` run: one pass through the instrumented
/// backend, which must serve the untraced passes' posteriors bit for bit, and
/// the per-layer metrics it yields.
fn trace_layers(
    fixture: &Fixture,
    passes: &[Pass],
    checked: &Pass,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    print_kind_table(fixture, &typical(passes, |pass| &pass.apply_ms));
    let tracer = Arc::new(TracingBackend::new(embedded_config()));
    let mut layers = Layers::default();
    let (_, pass) = run_pass(
        fixture,
        tracer.clone(),
        Some((tracer.as_ref(), &mut layers)),
        None,
    );
    if pass.posteriors != checked.posteriors {
        failures.push("the traced pass served other posteriors than the untraced passes".into());
    }
    let analyze_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(CycleAnalysis::analyze(&fixture.catalog, &analysis_config()));
            ms(start.elapsed())
        })
        .collect();
    let untraced: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.apply_ms.iter().copied())
        .collect();
    layers.metrics(
        &untraced,
        median(&analyze_ms),
        pass.route_us.len(),
        pass.decisions,
        pass.reached,
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fixture = workload::generate(args.workload, args.seed, args.tiny);
    let embedded: Arc<dyn InferenceBackend> = Arc::new(EmbeddedBackend::new(embedded_config()));

    let mut setup_s = Vec::new();
    let mut start_shards = 0;
    for build_index in 0..SETUP_BUILDS {
        let catalog = fixture.catalog.clone();
        let start = Instant::now();
        let session = build(catalog, embedded.clone());
        setup_s.push(start.elapsed().as_secs_f64());
        if build_index == 0 {
            print_header(&args, &fixture, &session);
            start_shards = session.shard_count();
        }
    }

    // An untimed pass that runs the gate after every episode also warms the
    // process up. Timed passes then fill the run, or its first half when
    // tracing.
    let start = (fixture.catalog.mapping_count(), start_shards);
    let mut gate = Gate::new(start, args.workload.known_fixpoint_splits(args.tiny));
    let (_, checked) = run_pass(&fixture, embedded.clone(), None, Some(&mut gate));
    let share = if args.trace { 0.5 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * share);
    let clock = Instant::now();
    let mut passes = Vec::new();
    let session = loop {
        let pass_start = Instant::now();
        let (session, pass) = run_pass(&fixture, embedded.clone(), None, None);
        setup_s.extend_from_slice(&pass.setup_s);
        passes.push(pass);
        if clock.elapsed() + pass_start.elapsed() > budget {
            break session;
        }
    };

    let mut failures = workload_checks(&fixture, &checked, &gate);
    println!("# gate rebuild_from_scratch: {}", gate.summary());
    if !gate.passed() {
        failures.push(format!("incremental vs rebuild: {}", gate.summary()));
    }
    if passes
        .iter()
        .any(|pass| pass.posteriors != checked.posteriors)
    {
        failures.push("repeated passes served different posteriors".into());
    }
    let failed = checked.failed + passes.iter().map(|pass| pass.failed).sum::<usize>();
    if failed > 0 {
        failures.push(format!(
            "{failed} writes carried an event the engine ignored"
        ));
    }
    let metrics = if args.trace {
        trace_layers(&fixture, &passes, &checked, &mut failures)
    } else {
        end_to_end(&passes, &checked, &setup_s, session.evaluate(THETA).f1())
    };
    let attempted = passes
        .iter()
        .map(|pass| pass.apply_ms.len() + pass.route_us.len())
        .sum();
    for failure in &failures {
        eprintln!("check failed: {failure}");
    }
    stats::print_table(&metrics);
    stats::print_result(failures.is_empty(), attempted, failed, &metrics);
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
