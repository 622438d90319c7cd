//! The worker pool and deterministic lane folding for parallel recovery
//! across shards.
//!
//! Recovery parallelism in this codebase has two halves with different
//! determinism requirements:
//!
//! * **Execution** — independent jobs (one crashed shard each, or one
//!   figure-sweep cell) really do run on OS threads; inside a shard,
//!   recovery is one serial rebuild. [`map_with`] is the one worker pool:
//!   workers claim jobs off a single shared `AtomicUsize` cursor, which is
//!   all the balancing a handful of coarse jobs needs.
//! * **Reporting** — every exported number must be byte-identical no matter
//!   how many threads the host actually ran. [`fold_lanes`] therefore
//!   *models* the parallel schedule: per-region costs are assigned to
//!   `lanes` modeled workers longest-processing-time-first (the balance a
//!   greedy list scheduler reaches), and the makespan is the max lane.
//!   Real thread count affects wall clock only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard cap on recovery worker threads.
pub const MAX_WORKERS: usize = 8;

/// Deterministic longest-processing-time-first fold of per-region costs
/// onto `lanes` modeled workers: regions sorted by descending cost (index
/// tiebreak) each go to the currently least-loaded lane (lowest index
/// tiebreak). Returns the per-lane load sums. This is the schedule of a
/// pool that hands out the longest job first, computed without running one —
/// the folded numbers are byte-identical regardless of host parallelism.
pub fn fold_lanes(costs: &[u64], lanes: usize) -> Vec<u64> {
    let lanes = lanes.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut load = vec![0u64; lanes];
    for i in order {
        let best = (0..lanes)
            .min_by_key(|&l| (load[l], l))
            .expect("lanes >= 1");
        load[best] += costs[i];
    }
    load
}

/// Modeled makespan of [`fold_lanes`]: the max lane load (0 for no regions).
pub fn makespan(costs: &[u64], lanes: usize) -> u64 {
    fold_lanes(costs, lanes).into_iter().max().unwrap_or(0)
}

/// Applies `f` to every job on up to `workers` OS threads, returning the
/// results in job order. Workers claim jobs off one shared cursor; one
/// worker (or one job) runs inline on the calling thread. `f` must be
/// independent across jobs, so results do not depend on which thread ran
/// which job.
///
/// A panic in `f` (e.g. an armed [`steins_nvm::CrashTripped`] inside one
/// region's recovery) is re-raised with its original payload, from the
/// first panicked worker, after every worker has stopped.
pub fn map_with<T, R, F>(workers: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return jobs.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    // The cursor only hands out indices; jobs and results
                    // travel through their mutexes.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // No job runs under a lock, so neither mutex can be
                    // poisoned by a panicking region.
                    let job = jobs[i].lock().expect("unpoisoned").take();
                    let r = f(job.expect("each job is claimed once"));
                    *results[i].lock().expect("unpoisoned") = Some(r);
                })
            })
            .collect();
        // Join by hand: letting the scope propagate a worker's panic would
        // replace its payload with a generic one.
        let mut panic = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("unpoisoned")
                .expect("workers ran every job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_lanes_is_deterministic_and_balanced() {
        let costs = [100u64, 1, 1, 1, 97, 3, 50, 49];
        assert_eq!(fold_lanes(&costs, 1), vec![302]);
        let l4 = fold_lanes(&costs, 4);
        assert_eq!(l4, fold_lanes(&costs, 4), "same inputs, same fold");
        assert_eq!(l4.iter().sum::<u64>(), 302);
        assert_eq!(makespan(&costs, 4), *l4.iter().max().unwrap());
        // LPT on this set is near-perfect: 302/4 = 75.5, max lane = 100.
        assert_eq!(makespan(&costs, 4), 100);
        // Monotone: more lanes never increases the makespan.
        assert!(makespan(&costs, 8) <= makespan(&costs, 4));
        assert!(makespan(&costs, 4) <= makespan(&costs, 2));
    }

    #[test]
    fn map_with_returns_results_in_job_order() {
        for workers in [1usize, 2, 4, 8] {
            let out = map_with(workers, (0..37).collect(), |j: usize| j * j);
            assert_eq!(out, (0..37).map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_with_matches_sequential() {
        let jobs: Vec<u64> = (0..37).collect();
        let seq = map_with(1, jobs.clone(), |x| x * x);
        let par = map_with(4, jobs, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn map_with_contended_threads_cover_all_jobs() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let out = map_with(4, (0..200u64).collect(), |j| {
            hits.fetch_add(1, Ordering::Relaxed);
            // Skewed job costs keep the light tail contended.
            let spin = if j < 50 { 2000 } else { 10 };
            let mut acc = j;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (j, acc)
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        for (j, (got, _)) in out.iter().enumerate() {
            assert_eq!(*got, j as u64);
        }
    }

    #[test]
    fn map_with_reraises_the_original_panic_payload() {
        for workers in [1usize, 4] {
            let r = std::panic::catch_unwind(|| {
                map_with(workers, (0..16).collect(), |j: usize| {
                    if j == 11 {
                        panic!("region {j} tripped");
                    }
                    j
                })
            });
            let payload = r.expect_err("a tripped region must unwind the pool");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("region 11 tripped"),
                "{workers} workers: the caller sees the region's own payload"
            );
        }
    }
}
