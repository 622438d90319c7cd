//! Cross-cutting contracts of recovery across shards and across crashes.
//!
//! * **Worker-count determinism** — the number of OS workers a sharded
//!   recovery runs with decides only the modeled fold, never what any
//!   shard's recovery computes: 1, 2, 4 and 8 workers produce
//!   byte-identical per-shard metric exports, read counts, recovered data
//!   and terminal journals, for all three recoverable schemes (WB refuses
//!   at every worker count).
//! * **Resume** — an attempt interrupted mid-rebuild resumes off the
//!   journal's high-water mark with exactly one restart recorded (no
//!   spurious extras), and a *completed* journal resumes with zero
//!   restarts. The journal an engine-wide recovery leaves when one shard's
//!   region is interrupted under N workers resumes under M workers: the
//!   worker count, like the lane count of the modeled fold, is never
//!   written to the journal.

use std::panic::{catch_unwind, AssertUnwindSafe};

use steins_core::recovery::journal;
use steins_core::{
    par, CounterMode, CrashedSystem, RecoveryReport, SchemeKind, SecureNvmSystem, ShardedEngine,
    SystemConfig,
};

const LINES: u64 = 48;

fn payload(i: u64) -> [u8; 64] {
    let mut d = [0u8; 64];
    d[0] = i as u8;
    d[1] = (i >> 8) as u8;
    d[63] = !(i as u8);
    d
}

fn dirty_system(scheme: SchemeKind) -> SecureNvmSystem {
    let cfg = SystemConfig::small_for_tests(scheme, CounterMode::General);
    let mut sys = SecureNvmSystem::new(cfg);
    for i in 0..LINES {
        sys.write(i * 64, &payload(i)).unwrap();
    }
    // A second pass over a prefix leaves a mix of clean and re-dirtied
    // metadata, which is what makes the rebuild non-trivial.
    for i in 0..LINES / 3 {
        sys.write(i * 64, &payload(i ^ 0x55)).unwrap();
    }
    sys
}

fn expected(i: u64) -> [u8; 64] {
    if i < LINES / 3 {
        payload(i ^ 0x55)
    } else {
        payload(i)
    }
}

const SHARDS: usize = 4;

/// A dirtied `SHARDS`-shard engine of `scheme`.
fn dirty_engine(scheme: SchemeKind) -> ShardedEngine {
    let cfg = SystemConfig::small_for_tests(scheme, CounterMode::General);
    let engine = ShardedEngine::new(cfg, SHARDS);
    for i in 0..LINES {
        engine.write(i * 64, &payload(i)).unwrap();
    }
    for i in 0..LINES / 3 {
        engine.write(i * 64, &payload(i ^ 0x55)).unwrap();
    }
    engine
}

/// Crashes and recovers a dirtied engine with `workers` OS workers and
/// returns everything an observer could compare across worker counts.
fn recovered_state(
    scheme: SchemeKind,
    workers: usize,
) -> Vec<(String, u64, steins_nvm::RecoveryJournal)> {
    let engine = dirty_engine(scheme);
    let images = engine.crash_all();
    let pr = engine.recover_all(images, workers).unwrap();
    for i in 0..LINES {
        assert_eq!(
            engine.read(i * 64).unwrap(),
            expected(i),
            "line {i} diverged"
        );
    }
    pr.reports
        .iter()
        .enumerate()
        .map(|(s, r)| {
            let journal = engine.with_shard(s, |sys| sys.ctrl.nvm().recovery_journal());
            (
                r.metrics.to_json_deterministic().pretty(),
                r.nvm_reads,
                journal,
            )
        })
        .collect()
}

#[test]
fn worker_count_is_invisible_in_recovery_reports() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        let one = recovered_state(scheme, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                one,
                recovered_state(scheme, workers),
                "{scheme:?}: per-shard recovery diverges at {workers} workers"
            );
        }
        for (_, _, j) in &one {
            assert_eq!(j.phase, journal::DONE);
        }
    }
}

#[test]
fn wb_refuses_recovery_at_every_lane_count() {
    // The lane count here is the worker count of the modeled fold.
    for workers in [1usize, 4] {
        let engine = dirty_engine(SchemeKind::WriteBack);
        let images = engine.crash_all();
        assert!(
            matches!(
                engine.recover_all(images, workers),
                Err(steins_core::IntegrityError::RecoveryUnsupported)
            ),
            "WB must refuse recovery with {workers} workers"
        );
    }
}

/// Enumerates the absolute persist points a recovery of `scheme`'s crashed
/// image fires (on a sacrificial replay of the same deterministic scenario).
fn recovery_points(scheme: SchemeKind) -> Vec<u64> {
    let mut probe = dirty_system(scheme).crash();
    probe.nvm_mut().journal_points(true);
    let mut slot = None;
    probe.recover_into(&mut slot).unwrap();
    let sys = slot.expect("recovery parks the rebuilt system");
    sys.ctrl
        .nvm()
        .point_journal()
        .iter()
        .map(|p| p.seq)
        .collect()
}

/// Interrupts a recovery at its `frac`-th durable write, then finishes the
/// job off the journal the interrupted attempt left.
fn interrupt_then_resume(scheme: SchemeKind, frac: f64) {
    let points = recovery_points(scheme);
    assert!(!points.is_empty(), "{scheme:?}: recovery fires no points");
    let j = points[((points.len() - 1) as f64 * frac) as usize];

    let mut crashed = dirty_system(scheme).crash();
    crashed.nvm_mut().arm_crash_torn(j, 0xFF);
    let mut slot = None;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crashed.recover_into(&mut slot)
    }));
    let Err(payload) = outcome else {
        panic!("{scheme:?}: inner point {j} never tripped");
    };
    assert!(payload.is::<steins_nvm::CrashTripped>());
    let partial = slot.take().expect("recovery parks before durable writes");
    let interrupted = partial.ctrl.nvm().recovery_journal();
    let mut crashed2: CrashedSystem = partial.crash();
    crashed2.nvm_mut().disarm_crash();
    let was_in_progress = journal::in_progress(interrupted.phase);
    let (mut sys, report) = crashed2
        .recover()
        .unwrap_or_else(|e| panic!("{scheme:?}: resume after point {j} failed: {e}"));
    let restarts = report
        .metrics
        .counter("core.recovery.restarts")
        .unwrap_or(0);
    if was_in_progress {
        assert_eq!(
            restarts, 1,
            "{scheme:?}: resume after point {j} must record exactly one restart"
        );
    } else {
        assert_eq!(restarts, 0, "{scheme:?}: finished journals restart nothing");
    }
    for i in 0..LINES {
        assert_eq!(sys.read(i * 64).unwrap(), expected(i), "line {i} diverged");
    }
    assert_eq!(sys.ctrl.nvm().recovery_journal().phase, journal::DONE);
}

#[test]
fn interrupted_rebuild_resumes_with_one_restart() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume(scheme, frac);
        }
    }
}

#[test]
fn completed_journal_resumes_with_zero_restarts() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        let (sys, _report) = dirty_system(scheme).crash().recover().unwrap();
        // Crash again right away: the ADR journal still reads DONE from the
        // first recovery.
        let (_sys, report) = sys.crash().recover().unwrap();
        assert_eq!(
            report
                .metrics
                .counter("core.recovery.restarts")
                .unwrap_or(0),
            0,
            "{scheme:?}: a DONE journal is not an interrupted attempt"
        );
    }
}

fn restarts(report: &RecoveryReport) -> u64 {
    report
        .metrics
        .counter("core.recovery.restarts")
        .unwrap_or(0)
}

/// The shard whose region the cross-worker resume tests interrupt.
const TARGET: usize = 1;

/// Enumerates the absolute persist points shard `TARGET`'s recovery fires
/// after a whole-engine crash of [`dirty_engine`] (on a sacrificial replay
/// of the same deterministic scenario).
fn shard_recovery_points(scheme: SchemeKind) -> Vec<u64> {
    let mut probe = dirty_engine(scheme).crash_all().swap_remove(TARGET);
    probe.nvm_mut().journal_points(true);
    let mut slot = None;
    probe.recover_into(&mut slot).unwrap();
    let sys = slot.expect("recovery parks the rebuilt system");
    sys.ctrl
        .nvm()
        .point_journal()
        .iter()
        .map(|p| p.seq)
        .collect()
}

/// Recovers a crashed `SHARDS`-shard engine on `first` workers with a
/// second crash armed at the `frac`-th durable write of shard `TARGET`'s
/// rebuild, then crashes the whole engine again and finishes the job with
/// [`ShardedEngine::recover_all`] on `second` workers. Only the interrupted
/// region may record a restart, and it records exactly one.
fn interrupt_then_resume_across_workers(
    scheme: SchemeKind,
    first: usize,
    second: usize,
    frac: f64,
) {
    let points = shard_recovery_points(scheme);
    assert!(!points.is_empty(), "{scheme:?}: recovery fires no points");
    let j = points[((points.len() - 1) as f64 * frac) as usize];

    let engine = dirty_engine(scheme);
    let mut images = engine.crash_all();
    images[TARGET].nvm_mut().arm_crash_torn(j, 0xFF);
    let outcomes = par::map_with(first, images, |img| {
        let mut slot = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| img.recover_into(&mut slot)));
        (outcome, slot)
    });

    let mut partial = None;
    for (s, (outcome, slot)) in outcomes.into_iter().enumerate() {
        match outcome {
            Err(payload) if s == TARGET => {
                assert!(payload.is::<steins_nvm::CrashTripped>());
                let mut sys = slot.expect("recovery parks before durable writes");
                sys.ctrl.nvm_mut().disarm_crash();
                partial = Some(sys);
            }
            Err(_) => panic!("{scheme:?}: crash armed on shard {TARGET} tripped region {s}"),
            Ok(report) => {
                assert_ne!(s, TARGET, "{scheme:?}: inner point {j} never tripped");
                let report = report.unwrap_or_else(|e| panic!("{scheme:?}: region {s}: {e}"));
                assert_eq!(restarts(&report), 0, "{scheme:?}: region {s} restarted");
                engine.put_shard(s, slot.expect("recovery parks the rebuilt system"));
            }
        }
    }
    let partial = partial.expect("the target region tripped");
    let was_in_progress = journal::in_progress(partial.ctrl.nvm().recovery_journal().phase);

    let mut partial = Some(partial);
    let images: Vec<CrashedSystem> = (0..SHARDS)
        .map(|s| {
            if s == TARGET {
                partial.take().expect("one interrupted region").crash()
            } else {
                engine.crash_shard(s)
            }
        })
        .collect();
    let pr = engine.recover_all(images, second).unwrap_or_else(|e| {
        panic!("{scheme:?}: resume {first}→{second} workers after point {j} failed: {e}")
    });
    for (s, report) in pr.reports.iter().enumerate() {
        let want = u64::from(s == TARGET && was_in_progress);
        assert_eq!(
            restarts(report),
            want,
            "{scheme:?}: {first}→{second} workers: shard {s} restart count"
        );
        let phase = engine.with_shard(s, |sys| sys.ctrl.nvm().recovery_journal().phase);
        assert_eq!(phase, journal::DONE);
    }
    for i in 0..LINES {
        assert_eq!(
            engine.read(i * 64).unwrap(),
            expected(i),
            "line {i} diverged"
        );
    }
}

// The lane count in these names is the worker count of the modeled fold.
#[test]
fn one_lane_journal_resumes_under_four_lanes() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume_across_workers(scheme, 1, 4, frac);
        }
    }
}

#[test]
fn four_lane_journal_resumes_under_one_lane() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume_across_workers(scheme, 4, 1, frac);
        }
    }
}

/// Whole-engine parallel recovery exercised through the public front-end:
/// the same crash recovered by 1 and by 4 workers yields identical
/// per-shard reports and identical modeled totals; only the fold changes.
#[test]
fn sharded_parallel_recovery_is_worker_count_deterministic() {
    let run = |workers: usize| {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let engine = ShardedEngine::new(cfg, 4);
        for i in 0..96u64 {
            engine.write(i * 64, &payload(i)).unwrap();
        }
        let images = engine.crash_all();
        let pr = engine.recover_all(images, workers).unwrap();
        for i in 0..96u64 {
            assert_eq!(engine.read(i * 64).unwrap(), payload(i));
        }
        pr
    };
    let serial = run(1);
    let quad = run(4);
    assert_eq!(serial.total_reads, quad.total_reads);
    assert!(quad.makespan_reads < serial.makespan_reads);
    let per_shard = |pr: &steins_core::ParallelRecovery| {
        pr.reports
            .iter()
            .map(|r| r.metrics.to_json_deterministic().pretty())
            .collect::<Vec<_>>()
    };
    assert_eq!(per_shard(&serial), per_shard(&quad));
}
