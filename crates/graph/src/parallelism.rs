//! Worker-count resolution and the work-stealing scheduler behind the parallel
//! enumerators and the sharded session's shard dispatch.
//!
//! Evidence enumeration (cycles, parallel paths) is embarrassingly parallel *per
//! origin*. Every origin is one task; all tasks go through one shared injector
//! ([`run_stealing`]), and an idle worker takes the next origin the moment it
//! finishes its current one, so a hub origin occupies one worker while the others
//! keep draining the light origins.
//!
//! Scheduling never changes results: tasks are indexed, results are reassembled in
//! deterministic origin order, and the enumerators apply the exact deduplication
//! the serial pass applies — so evidence ids are bit-identical at every worker
//! count. The proptest suite in `tests/properties.rs` and the unit tests of
//! [`crate::cycles`] / [`crate::paths`] assert this.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Unused: each origin is one enumeration task. Kept so existing imports build.
pub const DEFAULT_HEAVY_ORIGIN_THRESHOLD: usize = 4;

/// Unused: each origin is one enumeration task. Kept so existing imports build.
pub const DEFAULT_STEAL_GRANULARITY: usize = 1;

/// Resolves a worker-count knob (`0` = auto) to a concrete worker count (>= 1).
///
/// * `requested >= 1`: exactly that many workers (`1` = fully serial, no threads
///   spawned);
/// * `requested == 0` ("auto"): [`std::thread::available_parallelism`].
///
/// The auto case is a system call, so callers resolve once per enumeration or
/// per session rather than once per task.
pub fn effective_parallelism(requested: usize) -> usize {
    if requested >= 1 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `task_count` independent tasks across `workers` threads through a shared
/// injector, returning the results in task order.
///
/// The injector is a single atomic cursor over the task indices: a worker "steals"
/// the next unclaimed index the moment it finishes its current task, so load
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
        assert!(effective_parallelism(0) >= 1);
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
