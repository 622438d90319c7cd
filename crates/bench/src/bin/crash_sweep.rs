//! Exhaustive persist-boundary crash sweep — every scheme × counter mode.
//!
//! For each supported combination, replays a fixed op stream once to
//! enumerate every durable-state transition (64 B line writes and in-place
//! ADR updates), then for every transition `k` replays the stream with the
//! NVM device armed to lose power the instant transition `k` completes,
//! runs the scheme's recovery, and verifies the full tree plus a read-back
//! of every acknowledged write. WB is swept against its contract instead:
//! it must *refuse* recovery at every point. ASIT-SC and STAR-SC are
//! skipped — those baselines are general-counter-only by design (their
//! recovery needs self-increasing parent counters).
//!
//! Phase two tears the writes: every selected 64 B line-write boundary is
//! re-crashed under partial word masks (NVM guarantees 8 B, not 64 B,
//! atomicity) — a dropped write, a one-word prefix, a half line, and two
//! sparse patterns. The contract per (point, mask): strict recovery
//! succeeds with the torn line failing closed, or the lenient scrub
//! salvages every other acknowledged line without panicking.
//!
//! Phase three nests the crashes: at selected outer boundaries (whole-line
//! and torn), the second crash is armed at a persist point *recovery
//! itself* fires — journal updates, record/shadow rewrites, scrub pokes —
//! and the doubly-crashed machine must recover again, restartably, off the
//! ADR recovery journal.
//!
//! Phase four runs the same harness through the sharded front-end: the
//! stream routes across `STEINS_SHARD_SWEEP_SHARDS` controllers and the
//! crash (whole-line and torn) is armed on one target shard at a time,
//! with its neighbors required to keep serving and to report pristine
//! journals afterwards. A nested leg re-crashes each target shard during
//! its own recovery, and a worker-crash leg crashes the worker rebuilding
//! the target's region in a 2-worker whole-engine parallel recovery.
//!
//! Env knobs: `STEINS_SWEEP_OPS` (stream length, default 150),
//! `STEINS_TORN_POINTS` (line-write boundaries torn per combo, default 48),
//! `STEINS_NESTED_OUTER` (outer boundaries nested per combo, default 12),
//! `STEINS_NESTED_INNER` (recovery-time points per outer crash, default 6),
//! `STEINS_SHARD_SWEEP_SHARDS` (shard count of phase four, default 2),
//! `STEINS_SHARD_POINTS` (points per target shard, default 4),
//! `STEINS_SHARD_NESTED` (outer × inner nested points per shard, default 2),
//! `STEINS_THREADS` (worker pool size).

use steins_bench::par;
use steins_core::{CounterMode, CrashSweep, PointSelection, SchemeKind};

/// Torn-word masks swept at every selected line-write boundary: dropped,
/// one-word prefix, half-line prefix, sparse even words, sparse odd words.
const TORN_MASKS: [u8; 5] = [0x00, 0x01, 0x0F, 0x55, 0xAA];

/// Outer masks of the nested sweep: the classic whole-line crash plus a
/// half-line tear (which forces the scrub leg under a second crash).
const NESTED_OUTER_MASKS: [u8; 2] = [0xFF, 0x0F];

/// Inner masks re-armed against recovery's own writes.
const NESTED_INNER_MASKS: [u8; 2] = [0xFF, 0x0F];

/// Torn mask of the sharded phase, beside the whole-line crash: a
/// half-line tear (exercising the per-shard scrub leg).
const SHARD_TORN_MASK: u8 = 0x0F;

/// Worker threads of the sharded phase's parallel-rebuild leg.
const REBUILD_WORKERS: usize = 2;

/// Prints one result row plus up to three repros; returns whether it was
/// clean.
fn row(
    label: &str,
    tested: usize,
    failures: &[steins_core::CrashRepro],
    ok: &str,
    bad: &str,
) -> bool {
    let verdict = if failures.is_empty() { ok } else { bad };
    println!("{label:>10}  {tested:>8}  {:>8}  {verdict}", failures.len());
    for repro in failures.iter().take(3) {
        println!("{repro}");
    }
    failures.is_empty()
}

fn main() {
    let env = |name: &str, default: usize| -> usize {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let ops = env("STEINS_SWEEP_OPS", 150);
    let torn_points = env("STEINS_TORN_POINTS", 48);
    let nested_outer = env("STEINS_NESTED_OUTER", 12);
    let nested_inner = env("STEINS_NESTED_INNER", 6);
    let shard_shards = env("STEINS_SHARD_SWEEP_SHARDS", 2);
    let shard_points = env("STEINS_SHARD_POINTS", 4);
    let shard_nested = env("STEINS_SHARD_NESTED", 2);
    let combos = [
        (SchemeKind::WriteBack, CounterMode::General),
        (SchemeKind::WriteBack, CounterMode::Split),
        (SchemeKind::Asit, CounterMode::General),
        (SchemeKind::Star, CounterMode::General),
        (SchemeKind::Steins, CounterMode::General),
        (SchemeKind::Steins, CounterMode::Split),
    ];
    let mut all_clean = true;

    println!(
        "Crash sweep: {ops}-op stream, every persist point, {} workers",
        par::threads()
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "points", "failed");
    for (scheme, mode) in combos {
        let sweep = CrashSweep::small(scheme, mode, 1, ops, PointSelection::All);
        let points = match sweep.points() {
            Ok(p) => p,
            Err(e) => {
                println!("{:>10}  baseline run failed: {e}", scheme.label(mode));
                all_clean = false;
                continue;
            }
        };
        let tested = points.len();
        let failures: Vec<_> = par::map(points, |(s, k)| sweep.probe_point(s, k))
            .into_iter()
            .flatten()
            .collect();
        all_clean &= row(
            &scheme.label(mode),
            tested,
            &failures,
            "all points recovered & verified",
            "UNRECOVERABLE POINTS",
        );
    }
    println!("{:>10}  skipped: general-counter-only baseline", "Asit-SC");
    println!("{:>10}  skipped: general-counter-only baseline", "Star-SC");

    println!(
        "\nTorn-write sweep: {} masks × ≤{torn_points} line-write boundaries per combo",
        TORN_MASKS.len()
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "torn", "failed");
    for (scheme, mode) in combos {
        let sweep = CrashSweep::small(scheme, mode, 1, ops, PointSelection::AtMost(torn_points));
        let points = match sweep.tearable_points() {
            Ok(p) => p,
            Err(e) => {
                println!("{:>10}  baseline run failed: {e}", scheme.label(mode));
                all_clean = false;
                continue;
            }
        };
        let jobs: Vec<(usize, u64, u8)> = points
            .iter()
            .flat_map(|&(s, k)| TORN_MASKS.iter().map(move |&m| (s, k, m)))
            .collect();
        let tested = jobs.len();
        let failures: Vec<_> = par::map(jobs, |(s, k, m)| sweep.probe_point_torn(s, k, m))
            .into_iter()
            .flatten()
            .collect();
        all_clean &= row(
            &scheme.label(mode),
            tested,
            &failures,
            "all torn points recovered or scrubbed",
            "TORN CONTRACT VIOLATIONS",
        );
    }

    println!(
        "\nNested sweep: crash during recovery, ≤{nested_outer} outer × ≤{nested_inner} \
         recovery-time points per combo, outer masks {NESTED_OUTER_MASKS:02x?}, \
         inner masks {NESTED_INNER_MASKS:02x?}"
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "nested", "failed");
    for (scheme, mode) in combos {
        let sweep = CrashSweep::small(scheme, mode, 1, ops, PointSelection::AtMost(nested_outer));
        let jobs = match sweep.nested_jobs(
            &NESTED_OUTER_MASKS,
            &NESTED_INNER_MASKS,
            PointSelection::AtMost(nested_inner),
        ) {
            Ok(j) => j,
            Err(e) => {
                println!("{:>10}  baseline run failed: {e}", scheme.label(mode));
                all_clean = false;
                continue;
            }
        };
        let tested = jobs.len();
        let failures: Vec<_> = par::map(jobs, |job| sweep.probe_point_nested(job))
            .into_iter()
            .flatten()
            .collect();
        all_clean &= row(
            &scheme.label(mode),
            tested,
            &failures,
            "all nested points re-recovered",
            "NESTED CONTRACT VIOLATIONS",
        );
    }

    println!(
        "\nSharded sweep: {shard_shards} shards, crash+torn ≤{shard_points} points per target \
         shard (masks [ff, {SHARD_TORN_MASK:02x}]), nested and worker-crash ≤{shard_nested}×{shard_nested}"
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "tested", "failed");
    for (scheme, mode) in combos {
        let label = scheme.label(mode);
        let sweep = CrashSweep::small(
            scheme,
            mode,
            shard_shards,
            ops,
            PointSelection::AtMost(shard_points),
        );
        let nested_sweep = CrashSweep::small(
            scheme,
            mode,
            shard_shards,
            ops,
            PointSelection::AtMost(shard_nested),
        );
        let inner = PointSelection::AtMost(shard_nested);
        let enumerated = sweep.points().and_then(|points| {
            let tearable = sweep.tearable_points()?;
            let jobs = nested_sweep.nested_jobs(&[0xFF], &[0xFF], inner)?;
            Ok((points, tearable, jobs))
        });
        let (points, tearable, jobs) = match enumerated {
            Ok(e) => e,
            Err(e) => {
                println!("{:>10}  baseline run failed: {e}", label);
                all_clean = false;
                continue;
            }
        };
        let torn: Vec<(usize, u64, u8)> = points
            .iter()
            .map(|&(s, k)| (s, k, 0xFF))
            .chain(tearable.iter().map(|&(s, k)| (s, k, SHARD_TORN_MASK)))
            .collect();
        let tested = torn.len();
        let failures: Vec<_> = par::map(torn, |(s, k, m)| sweep.probe_point_torn(s, k, m))
            .into_iter()
            .flatten()
            .collect();
        all_clean &= row(
            &label,
            tested,
            &failures,
            "all shards recovered, neighbors kept serving",
            "SHARDED CONTRACT VIOLATIONS",
        );
        let failures: Vec<_> = par::map(jobs.clone(), |job| nested_sweep.probe_point_nested(job))
            .into_iter()
            .flatten()
            .collect();
        all_clean &= row(
            &format!("{label}*"),
            jobs.len(),
            &failures,
            "all shards re-recovered, neighbors pristine",
            "SHARDED CONTRACT VIOLATIONS",
        );
        let failures: Vec<_> = par::map(jobs.clone(), |job| {
            nested_sweep.probe_point_worker_crash(job.shard, job.outer, job.inner, REBUILD_WORKERS)
        })
        .into_iter()
        .flatten()
        .collect();
        all_clean &= row(
            &format!("{label}+"),
            jobs.len(),
            &failures,
            "only the crashed worker's region restarted",
            "SHARDED CONTRACT VIOLATIONS",
        );
    }
    println!("{:>10}  (* = nested crash-during-recovery leg)", "");
    println!(
        "{:>10}  (+ = worker crash during a {REBUILD_WORKERS}-worker parallel rebuild)",
        ""
    );

    if !all_clean {
        std::process::exit(1);
    }
}
