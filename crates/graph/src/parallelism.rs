//! Worker-count resolution and the work-stealing scheduler behind the parallel
//! enumerators.
//!
//! Evidence enumeration (cycles, parallel paths) is embarrassingly parallel *per
//! origin* — but origins are wildly unequal in realistic PDMS topologies. Scale-free
//! mapping networks (the kind Section 3.2.1 of the paper observes in practice)
//! concentrate most of the DFS work on a handful of hub peers, so a static
//! per-origin partition leaves one worker grinding through the hub while the rest
//! sit idle: the per-worker *tail* dominates wall-clock time.
//!
//! This module therefore provides two things:
//!
//! 1. **Worker-count resolution** ([`effective_parallelism`]): one place where the
//!    `0 = auto` / `PDMS_PARALLELISM` / explicit-count semantics live, so every
//!    layer — the enumerators, the analysis configuration in `pdms-core`, the engine
//!    builder — agrees.
//! 2. **A work-stealing scheduler** ([`run_stealing`]): enumeration work is cut into
//!    *subtasks* (a whole light origin, or one first-hop slice of a heavy origin —
//!    see [`StealConfig`]), all subtasks are pushed through one shared injector, and
//!    idle workers steal the next subtask the moment they finish their current one.
//!    No worker can be left holding a hub origin while others idle, because the hub
//!    was split before scheduling started.
//!
//! Scheduling never changes results: subtasks are indexed, results are reassembled
//! in deterministic origin-then-subtask order, and the enumerators apply the exact
//! deduplication the serial pass applies — so evidence ids are bit-identical at
//! every worker count, steal granularity, and heavy-origin threshold. The proptest
//! suite in `tests/properties.rs` and the unit tests of [`crate::cycles`] /
//! [`crate::paths`] assert this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Environment variable overriding the "auto" worker count.
pub const PARALLELISM_ENV: &str = "PDMS_PARALLELISM";

/// Environment variable overriding the "auto" worker count for dispatching
/// component shards (`pdms_core`'s sharded sessions) — distinct from
/// [`PARALLELISM_ENV`], which fans out *within* one enumeration.
pub const SHARD_PARALLELISM_ENV: &str = "PDMS_SHARD_PARALLELISM";

/// Environment variable overriding the "auto" ingestion batch size of
/// `pdms_core`'s sharded sessions (`0` / unset = process each submitted event
/// slice as one batch).
pub const BATCH_SIZE_ENV: &str = "PDMS_BATCH_SIZE";

/// Environment variable toggling the warm shard-splice path of `pdms_core`'s
/// sharded sessions: set to `0`, `false`, `off` or `no` to force cold shard
/// rebuilds on component merges and splits (the pre-splice fallback). Results
/// are identical either way — the knob exists so both paths stay exercised and
/// comparable.
pub const SPLICE_ENV: &str = "PDMS_SPLICE";

/// Resolves the shard-splice knob: an explicit setting wins, else
/// [`SPLICE_ENV`] (`0` / `false` / `off` / `no` disable), else enabled.
pub fn effective_splice(requested: Option<bool>) -> bool {
    if let Some(explicit) = requested {
        return explicit;
    }
    match std::env::var(SPLICE_ENV) {
        Ok(value) => !matches!(
            value.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

/// Resolves the shard-dispatch parallelism knob (`0` = auto) to a concrete worker
/// count (>= 1): an explicit request wins, else [`SHARD_PARALLELISM_ENV`], else
/// [`std::thread::available_parallelism`]. Scheduling only — shard dispatch order
/// never affects results.
pub fn effective_shard_parallelism(requested: usize) -> usize {
    resolve_workers(requested, SHARD_PARALLELISM_ENV)
}

/// Resolves the ingestion batch-size knob (`0` = auto): an explicit request wins,
/// else [`BATCH_SIZE_ENV`], else `0` (meaning "one batch per submitted slice").
pub fn effective_batch_size(requested: usize) -> usize {
    if requested >= 1 {
        return requested;
    }
    env_positive(BATCH_SIZE_ENV).unwrap_or(0)
}

/// Default heavy-origin threshold when the configuration does not pin one: origins
/// with at least this many first-hop edges are split.
pub const DEFAULT_HEAVY_ORIGIN_THRESHOLD: usize = 4;

/// Default steal granularity when the configuration does not pin one: each stolen
/// subtask of a heavy origin covers this many first-hop edges.
pub const DEFAULT_STEAL_GRANULARITY: usize = 1;

/// Resolves a parallelism knob (`0` = auto) to a concrete worker count (>= 1).
///
/// * `requested >= 1`: exactly that many workers (`1` = fully serial, no threads
///   spawned — the mode CI pins with `PDMS_PARALLELISM=1`);
/// * `requested == 0` ("auto"): the `PDMS_PARALLELISM` environment variable if set
///   to a positive integer, otherwise [`std::thread::available_parallelism`].
pub fn effective_parallelism(requested: usize) -> usize {
    resolve_workers(requested, PARALLELISM_ENV)
}

/// The shared `0 = auto` worker-count resolution: explicit request, else the
/// given environment variable, else [`std::thread::available_parallelism`].
fn resolve_workers(requested: usize, env: &str) -> usize {
    if requested >= 1 {
        return requested;
    }
    if let Some(n) = env_positive(env) {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Reads a positive integer from the environment, if present and parsable.
fn env_positive(name: &str) -> Option<usize> {
    let value = std::env::var(name).ok()?;
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// How enumeration work is cut into stealable subtasks.
///
/// `0` in either knob selects its built-in default ([`DEFAULT_HEAVY_ORIGIN_THRESHOLD`],
/// [`DEFAULT_STEAL_GRANULARITY`]). The knobs only affect *scheduling*, never results
/// — the merge is performed in deterministic origin-then-subtask order at every
/// setting.
///
/// ```
/// use pdms_graph::StealConfig;
///
/// // The defaults resolve to usable positive values.
/// let (threshold, granularity) = StealConfig::default().resolved();
/// assert!(threshold >= 1 && granularity >= 1);
///
/// // Explicit settings win over the defaults.
/// let pinned = StealConfig { heavy_origin_threshold: 8, steal_granularity: 2 };
/// assert_eq!(pinned.resolved(), (8, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealConfig {
    /// First-hop degree at which an origin counts as *heavy* and is split into
    /// per-first-hop subtasks instead of being scheduled whole. `0` =
    /// [`DEFAULT_HEAVY_ORIGIN_THRESHOLD`].
    pub heavy_origin_threshold: usize,
    /// Number of first-hop edges each stolen subtask of a heavy origin covers.
    /// Smaller values flatten the tail harder at the cost of more scheduling
    /// overhead. `0` = [`DEFAULT_STEAL_GRANULARITY`].
    pub steal_granularity: usize,
}

impl StealConfig {
    /// Resolves both knobs to concrete positive values
    /// (`(heavy_origin_threshold, steal_granularity)`).
    pub fn resolved(&self) -> (usize, usize) {
        let or_default = |value: usize, default: usize| if value >= 1 { value } else { default };
        (
            or_default(self.heavy_origin_threshold, DEFAULT_HEAVY_ORIGIN_THRESHOLD),
            or_default(self.steal_granularity, DEFAULT_STEAL_GRANULARITY),
        )
    }

    /// Splits `hop_count` first-hop edges of one origin into subtask ranges.
    ///
    /// Light origins (fewer than the heavy threshold, or a single worker) stay one
    /// subtask; heavy origins are cut into `steal_granularity`-sized slices. An
    /// origin with no first hops still yields one (empty) subtask so every origin
    /// has a deterministic slot in the merge order.
    pub fn subtask_ranges(&self, hop_count: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
        let (threshold, granularity) = self.resolved();
        if workers <= 1 || hop_count < threshold {
            let whole: std::ops::Range<usize> = 0..hop_count;
            return vec![whole];
        }
        let mut ranges = Vec::with_capacity(hop_count.div_ceil(granularity));
        let mut start = 0;
        while start < hop_count {
            let end = (start + granularity).min(hop_count);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }
}

/// Runs `task_count` independent subtasks across `workers` threads through a shared
/// injector, returning the results in task order.
///
/// The injector is a single atomic cursor over the task indices: a worker "steals"
/// the next unclaimed index the moment it finishes its current subtask, so load
/// balances dynamically no matter how skewed the per-task costs are. With
/// `workers <= 1` (or fewer than two tasks) everything runs inline on the calling
/// thread — no threads are spawned, matching the serial enumeration exactly.
///
/// The output is indexed by task, not by worker, so the caller's merge order — and
/// therefore every downstream evidence id — is independent of which worker ran
/// what:
///
/// ```
/// use pdms_graph::parallelism::run_stealing;
///
/// let squares = run_stealing(4, 10, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// // Same result serially: scheduling never changes contents or order.
/// assert_eq!(run_stealing(1, 10, |i| i * i), squares);
/// ```
pub fn run_stealing<T, F>(workers: usize, task_count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || task_count <= 1 {
        return (0..task_count).map(run).collect();
    }
    let run = &run;
    let injector = AtomicUsize::new(0);
    let injector = &injector;
    let workers = workers.min(task_count);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(task_count).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let task = injector.fetch_add(1, Ordering::Relaxed);
                        if task >= task_count {
                            break;
                        }
                        out.push((task, run(task)));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (task, result) in handle.join().expect("work-stealing worker panicked") {
                slots[task] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task index was claimed exactly once"))
        .collect()
}

/// The measured cost of one enumeration subtask, as reported by the costed
/// enumerators ([`crate::cycles::cycle_subtask_costs`],
/// [`crate::paths::parallel_path_subtask_costs`]).
///
/// Costs are measured serially (one subtask at a time on the calling thread), so
/// they are clean per-subtask CPU costs a scheduling model can replay — the
/// tail-latency bench uses them to compare the static per-origin split against the
/// work-stealing schedule without needing a multi-core host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtaskCost {
    /// Origin (cycle start / path source) node index the subtask belongs to.
    pub origin: usize,
    /// Subtask index within the origin (first-hop slice, or a pairing stage).
    pub subtask: usize,
    /// Measured serial execution time.
    pub cost: Duration,
}

/// Times one closure, returning its result and wall-clock duration.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(effective_parallelism(1), 1);
        assert_eq!(effective_parallelism(7), 7);
    }

    #[test]
    fn auto_is_at_least_one() {
        // Whatever the environment says, auto resolves to a usable worker count.
        assert!(effective_parallelism(0) >= 1);
    }

    #[test]
    fn steal_config_resolves_to_positive_values() {
        let (threshold, granularity) = StealConfig::default().resolved();
        assert!(threshold >= 1);
        assert!(granularity >= 1);
        let pinned = StealConfig {
            heavy_origin_threshold: 9,
            steal_granularity: 3,
        };
        assert_eq!(pinned.resolved(), (9, 3));
    }

    #[test]
    fn light_origins_are_one_subtask() {
        let config = StealConfig {
            heavy_origin_threshold: 5,
            steal_granularity: 1,
        };
        assert_eq!(config.subtask_ranges(3, 8), vec![0..3]);
        // A single worker never splits, whatever the degree.
        assert_eq!(config.subtask_ranges(100, 1), vec![0..100]);
        // Zero first hops still occupy one (empty) slot in the merge order.
        assert_eq!(config.subtask_ranges(0, 8), vec![0..0]);
    }

    #[test]
    fn heavy_origins_split_into_granularity_sized_slices() {
        let config = StealConfig {
            heavy_origin_threshold: 4,
            steal_granularity: 2,
        };
        assert_eq!(config.subtask_ranges(5, 4), vec![0..2, 2..4, 4..5]);
        let fine = StealConfig {
            heavy_origin_threshold: 4,
            steal_granularity: 1,
        };
        assert_eq!(fine.subtask_ranges(4, 2), vec![0..1, 1..2, 2..3, 3..4]);
    }

    #[test]
    fn run_stealing_preserves_task_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_stealing(workers, 37, |i| i * 2);
            assert_eq!(
                out,
                (0..37).map(|i| i * 2).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn run_stealing_handles_empty_and_single_task_lists() {
        assert_eq!(run_stealing(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_stealing(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn run_stealing_with_skewed_costs_still_matches() {
        // One "hub" task dwarfs the rest; contents and order must be unaffected.
        let expensive = |i: usize| {
            let rounds = if i == 0 { 2000 } else { 10 };
            (0..rounds).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        };
        let serial: Vec<u64> = (0..16).map(expensive).collect();
        assert_eq!(run_stealing(4, 16, expensive), serial);
    }
}
