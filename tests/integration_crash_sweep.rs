//! Bounded persist-boundary crash sweep, run as part of the tier-1 suite.
//!
//! The full sweep (every crash point of a long stream, all combos) lives in
//! the `crash_sweep` bench binary; this test keeps CI honest with a
//! deterministic, strided sample per combo — first point, last point, and
//! evenly spaced points in between — sized to finish well under 30 s.

use steins::prelude::*;

/// Every (scheme, mode) whose recovery must succeed at *any* crash point.
fn swept_cells() -> Vec<(SchemeKind, CounterMode)> {
    vec![
        (SchemeKind::Asit, CounterMode::General),
        (SchemeKind::Star, CounterMode::General),
        (SchemeKind::Steins, CounterMode::General),
        (SchemeKind::Steins, CounterMode::Split),
    ]
}

#[test]
fn bounded_sweep_every_recoverable_combo_is_clean() {
    for (scheme, mode) in swept_cells() {
        let sweep = CrashSweep::small(scheme, mode, 1, 60, PointSelection::AtMost(20));
        let report = sweep.run();
        assert!(report.total_points > 0, "{scheme:?}/{mode:?}");
        assert!(report.clean(), "{scheme:?}/{mode:?}:\n{report}");
    }
}

#[test]
fn bounded_sweep_wb_refuses_recovery_at_every_point() {
    // WB's contract is the inverse: recovery must *fail* everywhere, which
    // the harness scores as a pass (RecoveryUnsupported).
    for mode in [CounterMode::General, CounterMode::Split] {
        let sweep = CrashSweep::small(
            SchemeKind::WriteBack,
            mode,
            1,
            40,
            PointSelection::AtMost(12),
        );
        let report = sweep.run();
        assert!(report.clean(), "{mode:?}:\n{report}");
    }
}

#[test]
fn sweep_is_deterministic_across_runs() {
    let run = || {
        let sweep = CrashSweep::small(
            SchemeKind::Steins,
            CounterMode::General,
            1,
            30,
            PointSelection::AtMost(8),
        );
        let r = sweep.run();
        (r.total_points, r.tested_points, r.failures.len())
    };
    assert_eq!(run(), run());
}
