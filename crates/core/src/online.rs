//! Online integrity service: incremental background scrub, epoch
//! re-encryption, wear rotation, and attack-detection alarms — running
//! concurrently with serving traffic instead of stop-the-world.
//!
//! The post-crash lenient scrub ([`crate::scrub`]) verifies the whole
//! machine in one pass while nothing else runs. This module converts that
//! pass into a *resumable, cursor-driven* background service a live
//! [`crate::SecureNvmSystem`] (and, per shard, a
//! [`crate::ShardedEngine`]) runs between serving requests:
//!
//! * **Incremental scrub** — every `scrub_period_ops` served operations,
//!   the service verifies the next `scrub_batch_lines` data lines: a timed
//!   background read (charging device bank occupancy — the serving cost
//!   the throttle bounds — and driving the device's bounded
//!   exponential-backoff retry schedule, which heals short transient
//!   faults), then the data MAC against the line's
//!   [`MacRecord`]. The cursor is stamped into the ADR recovery
//!   journal's `hwm` (phase [`journal::ONLINE`]), so a crash mid-pass
//!   resumes the pass instead of rescanning from zero.
//! * **Throttle negotiation** — a scrub step first consults the live
//!   write-queue occupancy; above `throttle_occupancy` the step yields to
//!   serving traffic (alarm draining still runs — detections are never
//!   throttled).
//! * **Quarantine** — a line that fails its MAC, stays unreadable after
//!   the retry budget, or exhausts its transient re-reads is parked in a
//!   per-region quarantine: subsequent reads *and* writes fail typed with
//!   [`IntegrityError::Quarantined`](crate::IntegrityError::Quarantined) until an operator clears it. The ack
//!   is never silently wrong.
//! * **Epoch re-encryption** — split-counter leaves whose major counter
//!   reaches `epoch_threshold` are re-encrypted under a fresh epoch
//!   (`SecureMemoryController::epoch_reencrypt`), after every covered
//!   line verifies — re-encrypting an unverified line would launder
//!   garbage under a fresh MAC.
//! * **Wear rotation** — once per pass, if the wear telemetry's hottest
//!   line exceeds `wear_rotation_writes`, the line is refreshed through
//!   the secure read+write path (modeling a start-gap-style remap copy)
//!   and counted.
//! * **Alarms** — MAC mismatches, replay suspicion (LInc drift),
//!   unreadable regions, and exhausted retries surface as typed
//!   [`Alarm`]s through the obs alarm channel; the sharded engine adds
//!   `ShardDegraded` and `TornWrite` lifecycle alarms.

use std::collections::BTreeSet;

use steins_metadata::CounterMode;
use steins_nvm::RecoveryJournal;
use steins_obs::{Alarm, AlarmKind, AlarmLog, MetricRegistry};

use crate::cme::MacRecord;
use crate::engine::SecureNvmSystem;
use crate::recovery::journal;

/// Runtime policy knobs of the online integrity service (Triad-NVM-style:
/// the operator trades scrub latency against serving throughput).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlinePolicy {
    /// Served operations between scrub steps (the scrub period).
    pub scrub_period_ops: u64,
    /// Data lines verified per scrub step (the scrub batch).
    pub scrub_batch_lines: u64,
    /// Write-queue occupancy fraction above which a scrub step yields to
    /// serving traffic (alarm draining still runs).
    pub throttle_occupancy: f64,
    /// Split-counter major value that triggers an epoch re-encryption
    /// sweep of the covering leaf. `u64::MAX` disables epoch sweeps.
    pub epoch_threshold: u64,
    /// Hottest-line write count that triggers a wear-rotation refresh at
    /// the end of a pass. `u64::MAX` disables rotation.
    pub wear_rotation_writes: u64,
}

impl Default for OnlinePolicy {
    /// The default patrols slowly — two lines every 128 served ops — so
    /// enabling the service costs under 10% serving throughput (gated by
    /// the `chaos` bench); chaos/soak configs crank the period down.
    fn default() -> Self {
        OnlinePolicy {
            scrub_period_ops: 128,
            scrub_batch_lines: 2,
            throttle_occupancy: 0.5,
            epoch_threshold: u64::MAX,
            wear_rotation_writes: u64::MAX,
        }
    }
}

/// How one line's background verification resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LineVerdict {
    /// Never written or already quarantined.
    Skipped,
    /// Readable and the data MAC verified.
    Verified,
    /// Unreadable after the device's full retry budget.
    Unreadable,
    /// Readable bytes, wrong MAC: tampering or silent corruption.
    Mismatch,
}

/// The per-system online integrity service: scrub cursor, quarantine set,
/// alarm log, and telemetry counters. Owned by a
/// [`SecureNvmSystem`] (one per shard under a
/// [`ShardedEngine`](crate::ShardedEngine)); all state advances only
/// through modeled events, so every counter and alarm is deterministic.
#[derive(Clone, Debug)]
pub struct OnlineService {
    policy: OnlinePolicy,
    /// Next data line the scrub will verify.
    cursor: u64,
    /// Completed full passes over the data region.
    passes: u64,
    ops_since_step: u64,
    /// Quarantined line addresses (local byte addresses, 64 B aligned).
    quarantine: BTreeSet<u64>,
    pub(crate) alarms: AlarmLog,
    // Telemetry.
    steps: u64,
    throttled: u64,
    scanned: u64,
    verified: u64,
    healed: u64,
    quarantine_events: u64,
    /// Quarantine releases (operator clears + supervised heals).
    cleared: u64,
    retry_exhausted: u64,
    reencrypted_leaves: u64,
    rotations: u64,
    replay_suspected: u64,
}

impl OnlineService {
    /// A fresh service under `policy`, cursor at line zero.
    pub fn new(policy: OnlinePolicy) -> Self {
        OnlineService {
            policy,
            cursor: 0,
            passes: 0,
            ops_since_step: 0,
            quarantine: BTreeSet::new(),
            alarms: AlarmLog::new(),
            steps: 0,
            throttled: 0,
            scanned: 0,
            verified: 0,
            healed: 0,
            quarantine_events: 0,
            cleared: 0,
            retry_exhausted: 0,
            reencrypted_leaves: 0,
            rotations: 0,
            replay_suspected: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &OnlinePolicy {
        &self.policy
    }

    /// Replaces the policy knobs (takes effect at the next step).
    pub fn set_policy(&mut self, policy: OnlinePolicy) {
        self.policy = policy;
    }

    /// The scrub cursor (next data line to verify).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Repositions the scrub cursor — used to resume an interrupted pass
    /// from a crashed image's [`journal::ONLINE`] journal (see
    /// [`Self::resume_cursor`]).
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }

    /// Completed full passes.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Audited quarantine releases so far (operator clears, supervised
    /// heals, post-repair replays).
    pub fn cleared(&self) -> u64 {
        self.cleared
    }

    /// Whether `addr`'s line is quarantined.
    pub fn is_quarantined(&self, addr: u64) -> bool {
        self.quarantine.contains(&(addr & !63))
    }

    /// The quarantined line addresses, in address order.
    pub fn quarantined(&self) -> impl Iterator<Item = u64> + '_ {
        self.quarantine.iter().copied()
    }

    /// Releases `addr`'s line from quarantine, raising an auditable
    /// [`AlarmKind::QuarantineCleared`] alarm when it was actually held —
    /// the quarantine set never shrinks silently. Returns whether it was
    /// quarantined. The scrub will re-quarantine the line on the next pass
    /// if the underlying fault persists. `shard`/`cycle` stamp the alarm
    /// (shard-local modeled time keeps the log deterministic).
    pub fn clear_quarantine(&mut self, shard: u16, addr: u64, cycle: u64) -> bool {
        let removed = self.quarantine.remove(&(addr & !63));
        if removed {
            self.cleared += 1;
            self.raise(AlarmKind::QuarantineCleared, shard, Some(addr & !63), cycle);
        }
        removed
    }

    /// Removes `addr` from the set without an alarm — the heal-write
    /// probe's temporary lift; the audited outcome ([`Self::note_heal`] or
    /// [`Self::requarantine`]) always follows before control returns to
    /// the caller.
    pub(crate) fn remove_quarantined(&mut self, addr: u64) {
        self.quarantine.remove(&(addr & !63));
    }

    /// Re-quarantines a line whose heal probe failed: the fault persists,
    /// so the re-detection alarm is raised again (same kind as a fresh
    /// scrub hit).
    pub(crate) fn requarantine(&mut self, shard: u16, addr: u64, cycle: u64) {
        self.quarantine_line(AlarmKind::MacMismatch, shard, addr, cycle);
    }

    /// Records a successful supervised heal: the verify-after-write
    /// round-trip proved the line sound, so the release is audited as a
    /// [`AlarmKind::QuarantineCleared`] event.
    pub(crate) fn note_heal(&mut self, shard: u16, addr: u64, cycle: u64) {
        self.cleared += 1;
        self.raise(AlarmKind::QuarantineCleared, shard, Some(addr & !63), cycle);
    }

    /// The alarm log (drain through
    /// [`SecureNvmSystem::drain_alarms`](crate::SecureNvmSystem::drain_alarms)).
    pub fn alarms(&self) -> &AlarmLog {
        &self.alarms
    }

    /// Counts one served operation; true when a scrub step is due.
    pub(crate) fn note_op(&mut self) -> bool {
        self.ops_since_step += 1;
        self.ops_since_step >= self.policy.scrub_period_ops
    }

    /// The cursor a crashed image's journal proves the interrupted pass
    /// had reached over `lines` data lines, when the journal is in the
    /// [`journal::ONLINE`] phase.
    pub fn resume_cursor(j: &RecoveryJournal, lines: u64) -> Option<u64> {
        (j.phase == journal::ONLINE).then(|| j.hwm.min(lines) % lines.max(1))
    }

    fn raise(&mut self, kind: AlarmKind, shard: u16, addr: Option<u64>, cycle: u64) {
        self.alarms.raise(Alarm {
            kind,
            shard,
            addr,
            cycle,
        });
    }

    fn quarantine_line(&mut self, kind: AlarmKind, shard: u16, addr: u64, cycle: u64) {
        if self.quarantine.insert(addr & !63) {
            self.quarantine_events += 1;
            self.raise(kind, shard, Some(addr & !63), cycle);
        }
    }

    /// Drains the device's exhausted-retry promotions into typed alarms
    /// and quarantine. Never throttled: a fault the serving path already
    /// hit must surface immediately.
    fn drain_retry_exhausted(&mut self, sys: &mut SecureNvmSystem) {
        let shard = sys.ctrl.nvm.shard();
        for (addr, cycle) in sys.ctrl.nvm.take_retry_exhausted() {
            self.retry_exhausted += 1;
            if sys.ctrl.layout.is_data(addr) {
                self.quarantine_line(AlarmKind::RetryExhausted, shard, addr, cycle);
            } else {
                // Metadata-region exhaustion: alarm (recovery's problem to
                // classify), but the data-plane quarantine does not apply.
                self.raise(AlarmKind::RetryExhausted, shard, Some(addr), cycle);
            }
        }
    }

    /// Verifies one data line in the background. Reads through the timed
    /// device path (charging bank occupancy, driving the retry/backoff
    /// schedule), then checks the data MAC against the line's record.
    fn verify_line(&mut self, sys: &mut SecureNvmSystem, d: u64) -> LineVerdict {
        let daddr = sys.ctrl.layout.data_base + d * 64;
        if self.quarantine.contains(&daddr) {
            return LineVerdict::Skipped;
        }
        // Never-written lines still get the media probe below (a patrol
        // scrub reads the whole region, and faults land anywhere); only
        // the MAC check is skipped for them.
        self.scanned += 1;
        let was_bad = !sys.ctrl.nvm.is_readable(daddr);
        let t = sys.ctrl.front_free;
        let (ct, done) = sys.ctrl.nvm.read(t, daddr);
        // The patrol read occupies the controller front like any other
        // access — this is exactly the throughput cost the throttle knob
        // trades against scrub latency.
        sys.ctrl.front_free = sys.ctrl.front_free.max(done);
        // The read may have promoted an exhausted transient — surface it.
        self.drain_retry_exhausted(sys);
        if !sys.ctrl.nvm.is_readable(daddr) {
            let shard = sys.ctrl.nvm.shard();
            let cycle = sys.sim_cycles();
            self.quarantine_line(AlarmKind::UnreadableRegion, shard, daddr, cycle);
            return LineVerdict::Unreadable;
        }
        if was_bad {
            self.healed += 1;
        }
        let rec = sys.ctrl.data_mac_record(d);
        if rec == MacRecord::default() && ct == [0u8; 64] {
            return LineVerdict::Skipped; // never-written: defined zeros
        }
        let (major, minor) = MacRecord::unpack_recovery(rec.recovery);
        if sys.ctrl.data_mac_probe(daddr, &ct, major, minor) == rec.mac {
            self.verified += 1;
            LineVerdict::Verified
        } else {
            let shard = sys.ctrl.nvm.shard();
            let cycle = sys.sim_cycles();
            self.quarantine_line(AlarmKind::MacMismatch, shard, daddr, cycle);
            LineVerdict::Mismatch
        }
    }

    /// Epoch check for the line just verified: when its recorded major
    /// counter has reached the policy threshold, verify every sibling the
    /// covering leaf spans and re-encrypt the leaf under a fresh epoch.
    /// Any sibling that fails verification is quarantined instead (and
    /// vetoes the sweep — re-encrypting it would launder garbage).
    fn maybe_epoch_sweep(&mut self, sys: &mut SecureNvmSystem, d: u64) {
        if self.policy.epoch_threshold == u64::MAX || sys.cfg.mode != CounterMode::Split {
            return;
        }
        let rec = sys.ctrl.data_mac_record(d);
        let (major, _) = MacRecord::unpack_recovery(rec.recovery);
        if major < self.policy.epoch_threshold {
            return;
        }
        let (leaf, _) = sys.ctrl.layout.geometry.leaf_of_data(d);
        let siblings = sys.ctrl.layout.geometry.data_of_leaf(leaf);
        let all_clean = siblings.iter().all(|&s| {
            !matches!(
                self.verify_line(sys, s),
                LineVerdict::Unreadable | LineVerdict::Mismatch
            )
        });
        if all_clean && sys.ctrl.epoch_reencrypt(leaf).unwrap_or(false) {
            self.reencrypted_leaves += 1;
        }
    }

    /// End-of-pass work: LInc drift check (replay suspicion) and wear
    /// rotation.
    fn end_of_pass(&mut self, sys: &mut SecureNvmSystem) {
        self.passes += 1;
        // Replay suspicion: the trusted LInc registers must equal a
        // recomputation from the cache + NV-buffer state. Drift means the
        // durable counters no longer account for the trusted increments —
        // the signature replay detection keys on (§III-D).
        if let (Some(have), Some(want)) = (sys.ctrl.lincs(), sys.ctrl.recompute_lincs()) {
            if have != want {
                self.replay_suspected += 1;
                let shard = sys.ctrl.nvm.shard();
                let cycle = sys.sim_cycles();
                self.raise(AlarmKind::Replay, shard, None, cycle);
            }
        }
        // Wear rotation: refresh the hottest data line through the secure
        // read+write path (modeling a start-gap remap copy) when telemetry
        // says it crossed the endurance budget. The scan is over data lines
        // only (record/metadata lines are inherently hotter and are the
        // device's problem, not remappable user content), lowest address
        // winning ties so the choice is deterministic.
        if self.policy.wear_rotation_writes == u64::MAX {
            return;
        }
        let mut best_count = 0u64;
        let mut best_addr = None;
        for d in 0..sys.ctrl.layout.data_lines {
            let a = sys.ctrl.layout.data_base + d * 64;
            if self.quarantine.contains(&a) {
                continue;
            }
            let c = sys.ctrl.nvm.wear().of(a);
            if c >= self.policy.wear_rotation_writes && c > best_count {
                best_count = c;
                best_addr = Some(a);
            }
        }
        let Some(hot) = best_addr else {
            return;
        };
        let t = sys.ctrl.front_free;
        match sys.ctrl.read_data(t, hot) {
            Ok((pt, t2)) => {
                if sys.ctrl.write_data(t2, hot, &pt).is_ok() {
                    self.rotations += 1;
                }
            }
            Err(_) => {
                let shard = sys.ctrl.nvm.shard();
                let cycle = sys.sim_cycles();
                self.quarantine_line(AlarmKind::MacMismatch, shard, hot, cycle);
            }
        }
    }

    /// One scrub step: drain promotions, negotiate the throttle against
    /// live write-queue occupancy, verify the next batch of lines, stamp
    /// the cursor into the journal's `hwm`.
    pub(crate) fn step(&mut self, sys: &mut SecureNvmSystem) {
        self.steps += 1;
        self.ops_since_step = 0;
        self.drain_retry_exhausted(sys);
        let now = sys.ctrl.front_free;
        let occ = sys.ctrl.wq.occupancy(now) as f64 / sys.ctrl.wq.capacity().max(1) as f64;
        if occ > self.policy.throttle_occupancy {
            self.throttled += 1;
            return;
        }
        let lines = sys.ctrl.layout.data_lines;
        if lines == 0 {
            return;
        }
        for _ in 0..self.policy.scrub_batch_lines.min(lines) {
            let d = self.cursor;
            self.cursor += 1;
            if self.cursor >= lines {
                self.cursor = 0;
            }
            if matches!(self.verify_line(sys, d), LineVerdict::Verified) {
                self.maybe_epoch_sweep(sys, d);
            }
            if self.cursor == 0 {
                self.end_of_pass(sys);
            }
        }
        // Stamp the cursor (a cheap ADR persist): a crash between steps
        // resumes the pass from it instead of line zero.
        sys.ctrl.journal_write(RecoveryJournal {
            phase: journal::ONLINE,
            restarts: self.passes.min(u64::from(u32::MAX)) as u32,
            hwm: self.cursor,
        });
    }

    /// One full drain pass over every data line, ignoring the period and
    /// throttle — the operator's "finish the scrub now" lever, and the
    /// chaos harness's end-of-run settling pass.
    pub(crate) fn full_pass(&mut self, sys: &mut SecureNvmSystem) {
        self.drain_retry_exhausted(sys);
        let lines = sys.ctrl.layout.data_lines;
        for d in 0..lines {
            if matches!(self.verify_line(sys, d), LineVerdict::Verified) {
                self.maybe_epoch_sweep(sys, d);
            }
        }
        self.cursor = 0;
        if lines > 0 {
            self.end_of_pass(sys);
        }
    }

    /// Exports the service's telemetry under `core.online.` plus the
    /// alarm counters (`obs.alarms.*`).
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter_add("core.online.steps", self.steps);
        reg.counter_add("core.online.throttled", self.throttled);
        reg.counter_add("core.online.passes", self.passes);
        reg.counter_add("core.online.scanned", self.scanned);
        reg.counter_add("core.online.verified", self.verified);
        reg.counter_add("core.online.healed", self.healed);
        reg.counter_add("core.online.quarantine_events", self.quarantine_events);
        reg.counter_add("core.online.quarantine_cleared", self.cleared);
        reg.counter_add("core.online.retry_exhausted", self.retry_exhausted);
        reg.counter_add("core.online.reencrypted_leaves", self.reencrypted_leaves);
        reg.counter_add("core.online.rotations", self.rotations);
        reg.counter_add("core.online.replay_suspected", self.replay_suspected);
        reg.gauge_set("core.online.quarantined", self.quarantine.len() as f64);
        reg.gauge_set("core.online.cursor", self.cursor as f64);
        reg.merge(&self.alarms.metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeKind, SystemConfig};
    use crate::engine::synth_data;
    use crate::error::IntegrityError;

    fn sys(mode: CounterMode) -> SecureNvmSystem {
        SecureNvmSystem::new(SystemConfig::small_for_tests(SchemeKind::Steins, mode))
    }

    fn active_policy() -> OnlinePolicy {
        OnlinePolicy {
            scrub_period_ops: 8,
            scrub_batch_lines: 8,
            throttle_occupancy: 1.0,
            ..OnlinePolicy::default()
        }
    }

    #[test]
    fn clean_traffic_scrubs_and_raises_no_alarms() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..64u64 {
            s.write(line * 64, &synth_data(line * 64, 1)).unwrap();
        }
        // Force enough steps to complete at least one pass.
        let lines = s.ctrl.layout.data_lines;
        for _ in 0..=lines / 8 {
            s.online_step();
        }
        let svc = s.online().unwrap();
        assert!(svc.passes() >= 1, "cursor never wrapped");
        assert!(svc.verified >= 64, "verified {}", svc.verified);
        assert!(svc.alarms().is_empty());
        assert_eq!(svc.quarantined().count(), 0);
        // The journal carries the online phase with a resumable cursor.
        let j = s.ctrl.nvm.recovery_journal();
        assert_eq!(j.phase, journal::ONLINE);
        assert_eq!(
            OnlineService::resume_cursor(&j, lines),
            Some(svc.cursor()),
            "hwm must round-trip the cursor"
        );
    }

    #[test]
    fn tampered_line_is_quarantined_and_fails_typed() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..16u64 {
            s.write(line * 64, &synth_data(line * 64, 2)).unwrap();
        }
        let victim = 5 * 64;
        s.ctrl.nvm.inject_bit_flip(victim, 3, 1);
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert!(svc.is_quarantined(victim));
        assert_eq!(svc.alarms().count(AlarmKind::MacMismatch), 1);
        assert_eq!(
            s.read(victim),
            Err(IntegrityError::Quarantined { addr: victim })
        );
        assert_eq!(
            s.write(victim, &[0; 64]),
            Err(IntegrityError::Quarantined { addr: victim })
        );
        // Neighbors still serve.
        assert_eq!(s.read(6 * 64).unwrap(), synth_data(6 * 64, 2));
        // Operator clears the quarantine; the next pass re-detects.
        assert!(s.clear_quarantine(victim));
        s.online_scrub_pass();
        assert!(s.online().unwrap().is_quarantined(victim));
    }

    #[test]
    fn transient_fault_heals_and_permanent_fault_quarantines() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..8u64 {
            s.write(line * 64, &synth_data(line * 64, 3)).unwrap();
        }
        // Short transient: healed by the scrub read's backoff schedule.
        s.ctrl.nvm.inject_transient_unreadable(2 * 64, 2);
        // Permanent: quarantined with an alarm.
        s.ctrl.nvm.inject_unreadable(4 * 64);
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert!(svc.healed >= 1, "transient not healed");
        assert!(!svc.is_quarantined(2 * 64));
        assert!(svc.is_quarantined(4 * 64));
        assert_eq!(svc.alarms().count(AlarmKind::UnreadableRegion), 1);
        assert_eq!(s.read(2 * 64).unwrap(), synth_data(2 * 64, 3));
    }

    #[test]
    fn auto_stepping_follows_the_period_and_respects_throttle() {
        let mut s = sys(CounterMode::General);
        s.enable_online(OnlinePolicy {
            scrub_period_ops: 4,
            scrub_batch_lines: 2,
            throttle_occupancy: 0.0, // always throttled
            ..OnlinePolicy::default()
        });
        for line in 0..32u64 {
            s.write(line * 64, &synth_data(line * 64, 4)).unwrap();
        }
        let svc = s.online().unwrap();
        assert!(svc.steps >= 32 / 4, "steps {}", svc.steps);
        assert_eq!(svc.scanned, 0, "a fully-throttled scrub scans nothing");
        assert_eq!(svc.throttled, svc.steps);
    }

    #[test]
    fn epoch_sweep_reencrypts_hot_split_leaves() {
        let mut s = sys(CounterMode::Split);
        s.enable_online(OnlinePolicy {
            epoch_threshold: 1,
            ..active_policy()
        });
        // Hammer one line until its leaf's major counter crosses the
        // threshold (minor overflow advances the major).
        for v in 0..300u64 {
            s.write(0, &synth_data(0, v)).unwrap();
        }
        for line in 1..4u64 {
            s.write(line * 64, &synth_data(line * 64, 1)).unwrap();
        }
        s.online_scrub_pass();
        let before = s.online().unwrap().reencrypted_leaves;
        assert!(before >= 1, "no epoch sweep ran");
        // The swept lines still read back correctly.
        assert_eq!(s.read(0).unwrap(), synth_data(0, 299));
        for line in 1..4u64 {
            assert_eq!(s.read(line * 64).unwrap(), synth_data(line * 64, 1));
        }
        // And the sweep is convergent: majors were reset below the
        // threshold only if threshold > post-sweep major; with threshold 1
        // a re-scan may sweep again, but reads must stay correct.
        s.online_scrub_pass();
        assert_eq!(s.read(0).unwrap(), synth_data(0, 299));
    }

    #[test]
    fn wear_rotation_refreshes_the_hottest_line() {
        let mut s = sys(CounterMode::General);
        s.enable_online(OnlinePolicy {
            wear_rotation_writes: 8,
            ..active_policy()
        });
        for v in 0..32u64 {
            s.write(3 * 64, &synth_data(3 * 64, v)).unwrap();
        }
        for line in 0..4u64 {
            s.write(line * 64, &synth_data(line * 64, 100)).unwrap();
        }
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert!(svc.rotations >= 1, "hot line never rotated");
        assert_eq!(s.read(3 * 64).unwrap(), synth_data(3 * 64, 100));
    }

    #[test]
    fn linc_drift_raises_a_replay_alarm() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..8u64 {
            s.write(line * 64, &synth_data(line * 64, 5)).unwrap();
        }
        // Sabotage the trusted register directly: the recomputation no
        // longer matches, which is exactly what a replayed counter causes.
        s.ctrl.scheme.steins().lincs.add(0, 7);
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert_eq!(svc.replay_suspected, 1);
        assert_eq!(svc.alarms().count(AlarmKind::Replay), 1);
    }

    #[test]
    fn retry_exhaustion_surfaces_via_alarm_and_quarantine() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..8u64 {
            s.write(line * 64, &synth_data(line * 64, 6)).unwrap();
        }
        // More pending failures than the retry budget: the serving read
        // path promotes the fault; the service must surface it.
        s.ctrl.nvm.inject_transient_unreadable(64, 100);
        assert!(matches!(s.read(64), Err(IntegrityError::Unreadable { .. })));
        s.online_step();
        let svc = s.online().unwrap();
        assert!(svc.retry_exhausted >= 1);
        assert!(svc.is_quarantined(64));
        assert_eq!(svc.alarms().count(AlarmKind::RetryExhausted), 1);
        assert_eq!(s.read(64), Err(IntegrityError::Quarantined { addr: 64 }));
    }

    #[test]
    fn metrics_export_is_deterministic_and_prefixed() {
        let run = || {
            let mut s = sys(CounterMode::General);
            s.enable_online(active_policy());
            for line in 0..16u64 {
                s.write(line * 64, &synth_data(line * 64, 7)).unwrap();
            }
            s.ctrl.nvm.inject_unreadable(2 * 64);
            s.online_scrub_pass();
            s.report().metrics.to_json_deterministic().pretty()
        };
        let a = run();
        assert_eq!(a, run(), "online metrics must be deterministic");
        assert!(a.contains("core.online.steps"));
        assert!(a.contains("obs.alarms.total"));
    }
}
