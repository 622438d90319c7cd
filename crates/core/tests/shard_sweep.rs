//! Bounded sharded crash/torn/nested sweeps across every scheme.
//!
//! Mirrors the single-controller sweeps, but replays the stream through
//! the 2-shard [`CrashSweep`]: the crash is armed on one target shard at a
//! time while its neighbor keeps serving the rest of the stream. Point
//! selections are strided samples so the full matrix stays cheap; the
//! exhaustive runs live in the `crash_sweep` bench binary.

use steins_core::{CounterMode, CrashSweep, PointSelection, SchemeKind};

const MASKS: [u8; 2] = [0xFF, 0x0F];

fn sweep(scheme: SchemeKind, mode: CounterMode) {
    let sweep = CrashSweep::small(scheme, mode, 2, 28, PointSelection::AtMost(3));
    let report = sweep.run();
    assert!(report.clean(), "{report}");
    let torn = sweep.run_torn(&[0x0F]);
    assert!(torn.clean(), "{torn}");
    let sweep = CrashSweep::small(scheme, mode, 2, 28, PointSelection::AtMost(2));
    let nested = sweep.run_nested(&MASKS, &MASKS, PointSelection::AtMost(2));
    assert!(nested.clean(), "{nested}");
}

#[test]
fn wb_general_sharded_sweep_refuses_cleanly() {
    sweep(SchemeKind::WriteBack, CounterMode::General);
}

#[test]
fn asit_general_sharded_sweep_is_clean() {
    sweep(SchemeKind::Asit, CounterMode::General);
}

#[test]
fn star_general_sharded_sweep_is_clean() {
    sweep(SchemeKind::Star, CounterMode::General);
}

#[test]
fn steins_general_sharded_sweep_is_clean() {
    sweep(SchemeKind::Steins, CounterMode::General);
}

#[test]
fn steins_split_sharded_sweep_is_clean() {
    sweep(SchemeKind::Steins, CounterMode::Split);
}
