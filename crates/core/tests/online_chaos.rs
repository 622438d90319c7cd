//! Online-service chaos properties (§III-H hardening, service edition).
//!
//! Two contracts for the online integrity service under fire:
//!
//! 1. **Seeded determinism.** A chaos run is a function of its seed alone:
//!    the event log, alarm log, metrics, and modeled makespan are
//!    byte-identical no matter how many host worker threads serve the
//!    shards (the worker pool reorders *wall-clock* execution, never the
//!    per-shard modeled streams).
//! 2. **Monotone escalation.** The background scrub running concurrently
//!    with writes only ever escalates: the quarantine set grows
//!    monotonically, alarms are never retracted, and a line the service
//!    quarantined stays failed-closed until explicitly cleared — ordinary
//!    traffic can never whitewash a detection.

use std::collections::BTreeSet;

use steins_core::campaign::{run_chaos, ChaosConfig};
use steins_core::{CounterMode, OnlinePolicy, SchemeKind, SecureNvmSystem, SystemConfig};
use steins_trace::rng::SmallRng;

#[test]
fn chaos_reports_are_byte_identical_across_worker_counts() {
    let base = ChaosConfig {
        seed: 0x0DD5_EED0,
        ops_per_shard: 64,
        faults_per_shard: 4,
        ..ChaosConfig::default()
    };
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            run_chaos(&ChaosConfig {
                threads,
                ..base.clone()
            })
        })
        .collect();
    let reference = &runs[0];
    assert_eq!(reference.unwinds, 0, "panics escaped:\n{reference}");
    assert_eq!(reference.silent_wrong, 0, "wrong acks:\n{reference}");
    for r in &runs[1..] {
        assert_eq!(reference.events, r.events, "event logs diverged");
        assert_eq!(
            reference.alarms.to_json().pretty(),
            r.alarms.to_json().pretty(),
            "alarm logs diverged"
        );
        assert_eq!(
            reference.metrics().to_json_deterministic().pretty(),
            r.metrics().to_json_deterministic().pretty(),
            "metrics diverged"
        );
        assert_eq!(reference.makespan_cycles, r.makespan_cycles);
        assert_eq!(reference.degraded_shards, r.degraded_shards);
    }
}

/// Snapshot of the service's escalation state: quarantine set + alarm count.
fn escalation(sys: &SecureNvmSystem) -> (BTreeSet<u64>, usize) {
    let svc = sys.online().expect("service enabled");
    (svc.quarantined().collect(), svc.alarms().len())
}

#[test]
fn scrub_under_concurrent_writes_escalates_monotonically() {
    for mode in [CounterMode::General, CounterMode::Split] {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, mode);
        let mut sys = SecureNvmSystem::new(cfg);
        sys.enable_online(OnlinePolicy {
            scrub_period_ops: u64::MAX, // stepped manually below
            scrub_batch_lines: 16,
            throttle_occupancy: 1.0,
            ..OnlinePolicy::default()
        });
        let mut rng = SmallRng::seed_from_u64(0x5C2B_0000 ^ mode as u64);
        let lines = 96u64;
        let (mut prev_q, mut prev_alarms) = escalation(&sys);
        for round in 0..48u64 {
            // Concurrent traffic: a few writes between every scrub step.
            for _ in 0..4 {
                let line = rng.next_u64() % lines;
                let _ = sys.write(line * 64, &[(round as u8) ^ 0x3C; 64]);
            }
            // Periodic faults the scrub must pick up mid-traffic.
            if round % 6 == 0 {
                let line = rng.next_u64() % lines;
                match rng.next_u64() % 3 {
                    0 => sys
                        .ctrl
                        .nvm_mut()
                        .inject_bit_flip(line * 64, (round % 64) as usize, 1),
                    1 => sys.ctrl.nvm_mut().inject_unreadable(line * 64),
                    _ => sys
                        .ctrl
                        .nvm_mut()
                        .inject_transient_unreadable(line * 64, 64),
                }
            }
            sys.online_step();
            let (q, alarms) = escalation(&sys);
            assert!(
                q.is_superset(&prev_q),
                "{mode:?} round {round}: quarantine retracted {:?}",
                prev_q.difference(&q).collect::<Vec<_>>()
            );
            assert!(
                alarms >= prev_alarms,
                "{mode:?} round {round}: alarms shrank {prev_alarms} -> {alarms}"
            );
            // Quarantined lines stay failed-closed for ordinary traffic.
            for &addr in q.iter().take(2) {
                assert!(sys.read(addr).is_err(), "{mode:?}: quarantined read Ok");
                assert!(
                    sys.write(addr, &[0u8; 64]).is_err(),
                    "{mode:?}: quarantined write Ok"
                );
            }
            prev_q = q;
            prev_alarms = alarms;
        }
        // Drain pass: every permanent fault must now be classified.
        sys.online_scrub_pass();
        let (q, _) = escalation(&sys);
        assert!(q.is_superset(&prev_q), "{mode:?}: drain pass retracted");
        assert!(!q.is_empty(), "{mode:?}: no fault was ever quarantined");
    }
}
