//! Behavioural tests of the per-scheme tracking structures: what each
//! scheme actually persists while running — the observable difference
//! between WB, ASIT, STAR and Steins.

use steins_core::{CounterMode, SchemeKind, SecureNvmSystem, SystemConfig};

fn sys(scheme: SchemeKind, mode: CounterMode) -> SecureNvmSystem {
    SecureNvmSystem::new(SystemConfig::small_for_tests(scheme, mode))
}

#[test]
fn steins_records_name_exactly_the_dirty_nodes() {
    let mut s = sys(SchemeKind::Steins, CounterMode::General);
    for i in 0..120u64 {
        s.write((i * 9 % 1024) * 64, &[i as u8; 64]).unwrap();
    }
    let dirty_in_cache: std::collections::BTreeSet<u64> =
        s.ctrl.meta_dirty_offsets().into_iter().collect();
    let crashed = s.crash();
    let recorded: std::collections::BTreeSet<u64> =
        crashed.recorded_dirty_offsets().into_iter().collect();
    // Records may over-approximate (clean-marked nodes are harmless,
    // §III-H) but must never miss a dirty node.
    for off in &dirty_in_cache {
        assert!(
            recorded.contains(off),
            "dirty node {off} missing from the records"
        );
    }
}

#[test]
fn asit_shadow_table_mirrors_dirty_nodes() {
    let mut s = sys(SchemeKind::Asit, CounterMode::General);
    for i in 0..80u64 {
        s.write((i * 5 % 512) * 64, &[i as u8; 64]).unwrap();
    }
    let dirty = s.ctrl.meta_dirty_offsets();
    assert!(!dirty.is_empty());
    let crashed = s.crash();
    // Every dirty node's content must sit in some shadow slot.
    let slots = crashed.config().meta_cache.slots();
    let mut shadowed = 0;
    for slot in 0..slots {
        if crashed.nvm().peek(crashed.shadow_probe(slot)) != [0u8; 64] {
            shadowed += 1;
        }
    }
    assert!(
        shadowed as usize >= dirty.len(),
        "{shadowed} shadow entries < {} dirty nodes",
        dirty.len()
    );
}

#[test]
fn wb_persists_no_tracking_state() {
    let mut s = sys(SchemeKind::WriteBack, CounterMode::General);
    for i in 0..80u64 {
        s.write((i * 5 % 512) * 64, &[i as u8; 64]).unwrap();
    }
    let crashed = s.crash();
    // WB writes neither shadow entries nor (meaningful) records.
    let slots = crashed.config().meta_cache.slots();
    for slot in 0..slots {
        assert_eq!(
            crashed.nvm().peek(crashed.shadow_probe(slot)),
            [0u8; 64],
            "WB must not touch the shadow region"
        );
    }
}

#[test]
fn steins_nv_buffer_bounded_by_config() {
    let mut cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
    cfg.nv_buffer_bytes = 32; // 2 entries
    let mut s = SecureNvmSystem::new(cfg);
    // Heavy eviction traffic: parked entries must never exceed capacity
    // (drains keep it bounded) and the system stays correct.
    for i in 0..600u64 {
        s.write((i * 31 % 2048) * 64, &[i as u8; 64]).unwrap();
    }
    for i in (0..2048u64).step_by(97) {
        let _ = s.read(i * 64).unwrap();
    }
    let (mut rec, _) = s.crash().recover().expect("recovery verifies");
    let _ = rec.read(0).unwrap();
}

#[test]
fn mac_record_mode_stores_counters_with_data() {
    let mut s = sys(SchemeKind::Steins, CounterMode::General);
    for i in 0..50u64 {
        s.write((i % 20) * 64, &[i as u8; 64]).unwrap();
    }
    // Line 0 was written ⌈50/20⌉-ish times; its record carries the counter.
    let rec = s.ctrl.data_mac_record(0);
    let (ctr, minor) = steins_core::cme::MacRecord::unpack_recovery(rec.recovery);
    assert!(ctr >= 1);
    assert_eq!(minor, 0, "GC mode has no minors");
}

#[test]
fn split_mode_records_major_and_minor() {
    let mut s = sys(SchemeKind::Steins, CounterMode::Split);
    for _ in 0..5 {
        s.write(0, &[9; 64]).unwrap();
    }
    let rec = s.ctrl.data_mac_record(0);
    let (major, minor) = steins_core::cme::MacRecord::unpack_recovery(rec.recovery);
    assert_eq!(major, 0, "no overflow in 5 writes");
    assert_eq!(minor, 5, "five writes, five minor increments");
}
