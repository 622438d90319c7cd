//! Pins what the crash harness enumerates.
//!
//! At one shard the harness must enumerate exactly the persist points a
//! bare [`SecureNvmSystem`] replay of the same stream produces: the total,
//! the tearable line writes, and the whole-line nested jobs (outer points
//! from the replay's point journal, inner points from a bare recovery's).
//! At two shards the per-target counts are pinned to recorded constants,
//! so a change to routing or to the shard split shows up here first.

use std::panic::{catch_unwind, AssertUnwindSafe};

use steins_core::{
    CounterMode, CrashSweep, NestedJob, PointSelection, SchemeKind, SecureNvmSystem, SweepOp,
    SystemConfig,
};
use steins_nvm::{CrashTripped, PersistKind, PersistPoint};

const COMBOS: [(SchemeKind, CounterMode); 6] = [
    (SchemeKind::WriteBack, CounterMode::General),
    (SchemeKind::WriteBack, CounterMode::Split),
    (SchemeKind::Asit, CounterMode::General),
    (SchemeKind::Star, CounterMode::General),
    (SchemeKind::Steins, CounterMode::General),
    (SchemeKind::Steins, CounterMode::Split),
];

/// Length of the `small` stream the pins are taken on.
const OPS: usize = 60;

/// The stream `CrashSweep::small` replays for `OPS` ops.
fn small_stream() -> Vec<SweepOp> {
    SweepOp::stream(0x5EED ^ OPS as u64, 192, OPS)
}

fn apply(sys: &mut SecureNvmSystem, op: SweepOp) {
    let run = match op {
        SweepOp::Write { line, tag } => sys.write(line * 64, &SweepOp::payload(line, tag)),
        SweepOp::Read { line } => sys.read(line * 64).map(|_| ()),
    };
    run.expect("the small stream runs clean");
}

/// The crash-free replay's point journal.
fn bare_journal(cfg: &SystemConfig) -> Vec<PersistPoint> {
    let mut sys = SecureNvmSystem::new(cfg.clone());
    sys.ctrl.nvm_mut().journal_points(true);
    for op in small_stream() {
        apply(&mut sys, op);
    }
    assert_eq!(
        sys.ctrl.nvm().persist_seq(),
        sys.ctrl.nvm().point_journal().len() as u64
    );
    sys.ctrl.nvm().point_journal().to_vec()
}

/// The points a bare strict recovery fires after a whole-line crash at `k`
/// (empty when the scheme refuses recovery).
fn bare_recovery_points(cfg: &SystemConfig, k: u64) -> Vec<PersistPoint> {
    let mut sys = SecureNvmSystem::new(cfg.clone());
    sys.ctrl.nvm_mut().arm_crash(k);
    let tripped = small_stream().into_iter().any(|op| {
        match catch_unwind(AssertUnwindSafe(|| apply(&mut sys, op))) {
            Ok(()) => false,
            Err(payload) => {
                assert!(payload.is::<CrashTripped>());
                true
            }
        }
    });
    assert!(tripped, "point {k} lies inside the stream");
    sys.ctrl.nvm_mut().disarm_crash();
    let mut crashed = sys.crash();
    crashed.nvm_mut().trace_pokes(true);
    crashed.nvm_mut().journal_points(true);
    let mut slot = None;
    match crashed.recover_into(&mut slot) {
        Ok(_) => slot.unwrap().ctrl.nvm().point_journal().to_vec(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn one_shard_enumeration_matches_a_bare_replay() {
    let (outer_sel, inner_sel) = (PointSelection::AtMost(8), PointSelection::AtMost(4));
    for (scheme, mode) in COMBOS {
        let label = scheme.label(mode);
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let journal = bare_journal(&cfg);

        let all = CrashSweep::small(scheme, mode, 1, OPS, PointSelection::All);
        assert_eq!(all.total_points().unwrap(), journal.len() as u64, "{label}");
        let tearable: Vec<(usize, u64)> = journal
            .iter()
            .filter(|p| p.kind == PersistKind::LineWrite)
            .map(|p| (0, p.seq))
            .collect();
        assert_eq!(all.tearable_points().unwrap(), tearable, "{label}");

        let bounded = CrashSweep::small(scheme, mode, 1, OPS, outer_sel);
        let jobs = bounded.nested_jobs(&[0xFF], &[0xFF], inner_sel).unwrap();
        let mut want = Vec::new();
        for k in outer_sel.apply(journal.iter().map(|p| p.seq).collect()) {
            let inner: Vec<u64> = match bare_recovery_points(&cfg, k) {
                pts if pts.is_empty() => vec![k + 1],
                pts => inner_sel.apply(pts).iter().map(|p| p.seq).collect(),
            };
            want.extend(inner.into_iter().map(|j| NestedJob {
                shard: 0,
                outer: k,
                outer_mask: 0xFF,
                inner: j,
                inner_mask: 0xFF,
            }));
        }
        assert_eq!(jobs, want, "{label}");
    }
}

/// One target shard's counts in the 2-shard sweep on the small stream.
struct TargetPin {
    /// Persist points enumerated.
    points: u64,
    /// Whole-line + half-tear probes at `AtMost(3)`.
    probed: usize,
    /// Whole-line nested jobs at `AtMost(2)` × `AtMost(2)`.
    nested: usize,
}

const fn pin(points: u64, probed: usize, nested: usize) -> TargetPin {
    TargetPin {
        points,
        probed,
        nested,
    }
}

/// The pinned counts: they move only when routing, the shard split or the
/// engine's persist points do.
const TWO_SHARD_PINS: [(&str, [TargetPin; 2]); 6] = [
    ("WB-GC", [pin(20, 6, 2), pin(24, 6, 2)]),
    ("WB-SC", [pin(20, 6, 2), pin(24, 6, 2)]),
    ("ASIT-GC", [pin(40, 6, 4), pin(48, 6, 4)]),
    ("STAR-GC", [pin(38, 6, 4), pin(42, 6, 4)]),
    ("Steins-GC", [pin(29, 6, 4), pin(33, 6, 4)]),
    ("Steins-SC", [pin(22, 6, 4), pin(26, 6, 4)]),
];

#[test]
fn two_shard_per_target_counts_are_pinned() {
    for ((scheme, mode), (label, pins)) in COMBOS.into_iter().zip(TWO_SHARD_PINS) {
        assert_eq!(scheme.label(mode), label);
        let count = |points: &[(usize, u64)], target: usize| {
            points.iter().filter(|p| p.0 == target).count()
        };
        let all = CrashSweep::small(scheme, mode, 2, OPS, PointSelection::All)
            .points()
            .unwrap();
        let probed = CrashSweep::small(scheme, mode, 2, OPS, PointSelection::AtMost(3))
            .points()
            .unwrap();
        let nested = CrashSweep::small(scheme, mode, 2, OPS, PointSelection::AtMost(2))
            .nested_jobs(&[0xFF], &[0xFF], PointSelection::AtMost(2))
            .unwrap();
        for (target, want) in pins.iter().enumerate() {
            assert_eq!(
                count(&all, target) as u64,
                want.points,
                "{label} shard {target}"
            );
            assert_eq!(
                count(&probed, target) * 2,
                want.probed,
                "{label} shard {target}"
            );
            assert_eq!(
                nested.iter().filter(|j| j.shard == target).count(),
                want.nested,
                "{label} shard {target}"
            );
        }
    }
}
