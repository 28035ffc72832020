//! The traced run's instruments. [`TracingBackend`] stands in for
//! `EmbeddedBackend` and times each public call it makes; [`Layers`] turns
//! those timings, timed replays of the model build and the posterior
//! publication, and each op's `BatchReport` into the per-layer metrics.

use crate::stats::{mean, median, ms, quantile, ratio, Metric};
use pdms_core::{
    BatchReport, EmbeddedConfig, EmbeddedMessagePassing, EngineSession, Granularity,
    InferenceBackend, InferenceOutcome, InferenceTask, MappingModel, PosteriorTable, SessionStats,
    ShardedSession,
};
use pdms_schema::PeerId;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timings of one `infer` call.
#[derive(Debug, Clone)]
pub struct InferRecord {
    /// The whole call.
    total: Duration,
    /// `EmbeddedMessagePassing::new` plus `warm_start`: the arena build.
    arena: Duration,
    /// Every `round()` call, in order.
    rounds: Vec<Duration>,
    /// False when the round cap, not the tolerance, ended the run.
    converged: bool,
}

/// Embedded message passing driven call for call as `EmbeddedBackend::infer`
/// drives it, with each call timed. Its posteriors are bit-identical to
/// `EmbeddedBackend`'s; the traced run checks that.
#[derive(Debug)]
pub struct TracingBackend {
    config: EmbeddedConfig,
    log: Mutex<Vec<InferRecord>>,
}

impl TracingBackend {
    pub fn new(config: EmbeddedConfig) -> Self {
        Self {
            config,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Takes every record logged since the last call.
    pub fn drain(&self) -> Vec<InferRecord> {
        std::mem::take(&mut *self.log.lock().expect("trace log lock"))
    }
}

impl InferenceBackend for TracingBackend {
    fn name(&self) -> &'static str {
        "embedded"
    }

    fn infer(&self, task: &InferenceTask<'_>) -> InferenceOutcome {
        let start = Instant::now();
        let mut machine = EmbeddedMessagePassing::new(
            task.model,
            task.priors,
            task.default_prior,
            self.config.clone(),
        );
        if let Some(previous) = task.warm_start {
            machine.warm_start(previous);
        }
        let arena = start.elapsed();
        let mut rounds = Vec::new();
        let mut converged = false;
        while !converged && rounds.len() < self.config.max_rounds {
            let round = Instant::now();
            converged = machine.round() < self.config.tolerance;
            rounds.push(round.elapsed());
        }
        let outcome = InferenceOutcome {
            posteriors: machine.posteriors(),
            rounds: rounds.len(),
            converged,
        };
        let record = InferRecord {
            total: start.elapsed(),
            arena,
            rounds,
            converged,
        };
        self.log.lock().expect("trace log lock").push(record);
        outcome
    }
}

/// A shard before an op: enough to tell afterwards whether the op applied to
/// it, replaced it, or left it alone.
#[derive(Debug, Clone, Copy)]
pub struct ShardMark {
    first: PeerId,
    peers: usize,
    stats: SessionStats,
}

/// Marks every shard of the session.
pub fn marks(session: &ShardedSession) -> Vec<ShardMark> {
    session
        .shards()
        .iter()
        .map(|shard| ShardMark {
            first: shard.peers()[0],
            peers: shard.peers().len(),
            stats: *shard.session().stats(),
        })
        .collect()
}

/// The traced pass's per-layer samples and counts, over its writes.
#[derive(Debug, Default)]
pub struct Layers {
    apply_ms: Vec<f64>,
    infer_ms: Vec<f64>,
    arena_ms: Vec<f64>,
    round_ms: Vec<f64>,
    capped: usize,
    model_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    variables: Vec<f64>,
    factors: Vec<f64>,
    shard_ms: Vec<f64>,
    dispatch_ms: Vec<f64>,
    slowest_ms: Vec<f64>,
    upkeep_ms: Vec<f64>,
    merge_op_ms: Vec<f64>,
    split_op_ms: Vec<f64>,
    /// Infer, model build and publish time, summed over the writes.
    attributed_ms: f64,
    evidences_added: usize,
    evidences_removed: usize,
    evidences_reobserved: usize,
    merges: usize,
    splits: usize,
    shards_touched: usize,
    shards_spliced: usize,
    shards_rebuilt: usize,
    splice_evidence_added: usize,
}

impl Layers {
    /// Books one write: the inference calls it made, replays on every shard it
    /// re-inferred, its `BatchReport` and its wall time.
    pub fn record_write(
        &mut self,
        infers: Vec<InferRecord>,
        session: &ShardedSession,
        before: &[ShardMark],
        wall: Duration,
        report: &BatchReport,
    ) {
        let mut layer_ms = 0.0;
        for record in infers {
            layer_ms += ms(record.total);
            self.infer_ms.push(ms(record.total));
            self.arena_ms.push(ms(record.arena));
            self.round_ms
                .extend(record.rounds.iter().map(|round| ms(*round)));
            self.capped += usize::from(!record.converged);
        }
        for shard in session.shards() {
            let stats = shard.session().stats();
            let mark = before
                .iter()
                .find(|mark| mark.first == shard.peers()[0] && mark.peers == shard.peers().len());
            // A shard with no mark is new: a splice or a rebuild, which always
            // runs inference.
            if let Some(mark) = mark {
                if stats.incremental_applies == mark.stats.incremental_applies {
                    continue; // left alone
                }
                self.evidences_added += stats
                    .evidences_added
                    .saturating_sub(mark.stats.evidences_added);
                self.evidences_removed += stats
                    .evidences_removed
                    .saturating_sub(mark.stats.evidences_removed);
                self.evidences_reobserved += stats
                    .evidences_reobserved
                    .saturating_sub(mark.stats.evidences_reobserved);
                if stats.total_rounds == mark.stats.total_rounds {
                    continue; // applied, but no evidence changed: no inference
                }
            }
            layer_ms += self.replay(shard.session());
        }
        let (wall_ms, shard_ms) = (ms(wall), ms(report.shard_time));
        self.apply_ms.push(wall_ms);
        self.shard_ms.push(shard_ms);
        self.dispatch_ms.push(wall_ms - shard_ms);
        self.slowest_ms.push(ms(report.slowest_shard));
        self.upkeep_ms.push(shard_ms - layer_ms);
        self.attributed_ms += layer_ms;
        if report.merges > 0 {
            self.merge_op_ms.push(wall_ms);
        }
        if report.splits > 0 {
            self.split_op_ms.push(wall_ms);
        }
        self.merges += report.merges;
        self.splits += report.splits;
        self.shards_touched += report.shards_touched;
        self.shards_spliced += report.shards_spliced;
        self.shards_rebuilt += report.shards_rebuilt;
        self.splice_evidence_added += report.splice_evidence_added;
    }

    /// Replays, on a shard's post-op state, the model build and the posterior
    /// publication its inference pass ran inside `apply`, timing each. Returns
    /// their sum in ms.
    fn replay(&mut self, session: &EngineSession) -> f64 {
        let start = Instant::now();
        let model = MappingModel::build(
            session.catalog(),
            session.analysis(),
            Granularity::Fine,
            session.delta(),
        );
        let model_ms = ms(start.elapsed());
        let served = session.posteriors();
        let posteriors: Vec<f64> = model
            .variables
            .iter()
            .map(|key| match key.attribute {
                Some(attribute) => served.probability_ignoring_bottom(key.mapping, attribute),
                None => served.mapping_probability(key.mapping),
            })
            .collect();
        let start = Instant::now();
        let table =
            PosteriorTable::from_model(&model, &posteriors, session.priors().default_prior());
        let publish_ms = ms(start.elapsed());
        std::hint::black_box(table);
        self.model_ms.push(model_ms);
        self.publish_ms.push(publish_ms);
        self.variables.push(model.variable_count() as f64);
        self.factors.push(model.evidence_count() as f64);
        model_ms + publish_ms
    }

    /// The per-layer metrics. `untraced_apply_ms` are the untraced passes'
    /// write latencies; the routing counts are the traced pass's.
    pub fn metrics(
        &self,
        untraced_apply_ms: &[f64],
        analyze_ms: f64,
        queries: usize,
        decisions: usize,
        reached: usize,
    ) -> Vec<Metric> {
        let count = |n: usize| n as f64;
        vec![
            ("embedded.infer_ms_p50", median(&self.infer_ms), "ms"),
            ("embedded.arena_build_ms_p50", median(&self.arena_ms), "ms"),
            ("embedded.round_ms_p50", median(&self.round_ms), "ms"),
            (
                "embedded.rounds_per_infer",
                ratio(self.round_ms.len(), self.infer_ms.len()),
                "count",
            ),
            ("embedded.infers", count(self.infer_ms.len()), "count"),
            ("embedded.capped_infers", count(self.capped), "count"),
            (
                "local_graph.model_build_ms_p50",
                median(&self.model_ms),
                "ms",
            ),
            ("local_graph.variables", median(&self.variables), "count"),
            ("local_graph.factors", median(&self.factors), "count"),
            ("posterior.publish_ms_p50", median(&self.publish_ms), "ms"),
            ("cycle_analysis.analyze_ms", analyze_ms, "ms"),
            (
                "cycle_analysis.evidences_added",
                count(self.evidences_added),
                "count",
            ),
            (
                "cycle_analysis.evidences_removed",
                count(self.evidences_removed),
                "count",
            ),
            (
                "cycle_analysis.evidences_reobserved",
                count(self.evidences_reobserved),
                "count",
            ),
            ("sharding.shard_ms_p50", median(&self.shard_ms), "ms"),
            ("sharding.dispatch_ms_p50", median(&self.dispatch_ms), "ms"),
            (
                "sharding.slowest_shard_ms_p90",
                quantile(&self.slowest_ms, 0.9),
                "ms",
            ),
            ("sharding.merge_op_ms_p50", median(&self.merge_op_ms), "ms"),
            ("sharding.split_op_ms_p50", median(&self.split_op_ms), "ms"),
            ("sharding.merges", count(self.merges), "count"),
            ("sharding.splits", count(self.splits), "count"),
            (
                "sharding.shards_touched",
                count(self.shards_touched),
                "count",
            ),
            (
                "sharding.shards_spliced",
                count(self.shards_spliced),
                "count",
            ),
            (
                "sharding.shards_rebuilt",
                count(self.shards_rebuilt),
                "count",
            ),
            (
                "sharding.splice_evidence_added",
                count(self.splice_evidence_added),
                "count",
            ),
            ("session.upkeep_ms_p50", median(&self.upkeep_ms), "ms"),
            (
                "routing.decisions_per_query",
                ratio(decisions, queries),
                "count",
            ),
            (
                "routing.reached_per_query",
                ratio(reached, queries),
                "count",
            ),
            (
                "trace.overhead_frac",
                mean(&self.apply_ms) / mean(untraced_apply_ms) - 1.0,
                "ratio",
            ),
            (
                "trace.coverage_frac",
                self.attributed_ms / self.apply_ms.iter().sum::<f64>(),
                "ratio",
            ),
        ]
    }
}
