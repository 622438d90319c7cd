//! The sharded multi-controller front-end.
//!
//! [`ShardedEngine`] splits the protected data-line space across N
//! independent [`SecureNvmSystem`] instances — each with its own SIT,
//! metadata cache, write queue, NVM device, and ADR recovery-journal line —
//! and routes every request by address through a pure
//! [`steins_metadata::ShardMap`]. Shards share nothing: the only
//! cross-shard structure is the routing function itself, so N shards
//! accept requests from N threads with no coordination beyond one
//! per-shard mutex.
//!
//! Each shard crashes and recovers off its own journal line. The device
//! stamps the journal with its owner ([`steins_nvm::NvmDevice::journal_owner`]);
//! recovering a shard off a line stamped by another shard is a routing bug
//! and fails loudly. The crash harness ([`crate::CrashSweep`]) replays its
//! op stream through this engine at every shard count and checks the rest:
//! a crash on one shard never touches another, neighbours keep serving
//! while the target recovers, and a second crash during one shard's
//! recovery restarts only that shard.

use std::sync::{Mutex, MutexGuard};

use steins_metadata::{ShardMap, StripeMode};
use steins_obs::{Alarm, AlarmKind, AlarmLog, MetricRegistry};

use crate::config::SystemConfig;
use crate::crash::CrashedSystem;
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::online::OnlinePolicy;
use crate::par;
use crate::recovery::{journal, RecoveryReport};
use crate::scrub::ScrubReport;

/// Repair attempts a shard may consume before it is parked permanently.
const MAX_REPAIR_ATTEMPTS: u32 = 3;

/// Base of the exponential retry backoff: after failed attempt `k`
/// (1-based) the next attempt is gated until
/// `now + REPAIR_BACKOFF_BASE_CYCLES << (k - 1)` modeled cycles.
const REPAIR_BACKOFF_BASE_CYCLES: u64 = 1024;

/// Where a shard stands in the serve/repair lifecycle. Every change goes
/// through [`ShardedEngine::transition`].
///
/// `Serving → Degraded` on any park, `Degraded → Rebuilding` when a repair
/// attempt claims the shard, `Rebuilding → Serving` when the rebuilt
/// system is re-admitted, `Rebuilding → Degraded` when an attempt fails
/// (retryable after backoff), and `Degraded | Rebuilding → Parked` once
/// the attempt budget is spent or nothing is left to rebuild from.
/// Installing a system returns any state to `Serving`; it is the only way
/// out of `Parked`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lifecycle {
    Serving,
    Degraded,
    Rebuilding,
    Parked,
}

/// What happened to a shard, as [`ShardedEngine::transition`] sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// A holder died mid-operation, an explicit park, or a scrub that
    /// could not rebuild a system.
    Degrade,
    /// A repair attempt claims the shard.
    Claim,
    /// A repair attempt failed and may be retried after backoff.
    Retry,
    /// The attempt budget is spent, or nothing is left to rebuild from.
    Park,
    /// A system was installed into the slot.
    Install,
}

/// What one [`ShardedEngine::repair_shard`] attempt did.
#[derive(Debug)]
pub enum RepairOutcome {
    /// The shard was rebuilt, re-verified, and is `Serving` again. The
    /// report is the lenient scrub's verdict over the rebuilt image.
    Restored(ScrubReport),
    /// The backoff gate is still closed: no attempt was consumed, the
    /// image (if any was supplied) is stashed for the retry at `until`.
    Backoff {
        /// Modeled cycle at which the next attempt may run.
        until: u64,
    },
    /// The attempt ran and could not rebuild a system; the shard is back
    /// in `Degraded` awaiting the next (backoff-gated) attempt.
    Failed {
        /// Attempts consumed so far, including this one.
        attempts: u32,
    },
    /// The attempt budget is spent (or there is nothing left to rebuild
    /// from): the shard is parked permanently pending operator action.
    Parked,
    /// The shard is serving, or another attempt is rebuilding it; there is
    /// nothing for this call to repair.
    NotDegraded,
}

/// A crashed image plus the quarantine set captured before the plug was
/// pulled, parked between repair attempts.
type StashedImage = (CrashedSystem, Vec<u64>);

/// One shard's slot: its system and every piece of its lifecycle state,
/// all under the one lock that serializes the shard's operations.
struct Shard {
    /// The live system; empty while crashed, taken or rebuilding.
    sys: Option<SecureNvmSystem>,
    life: Lifecycle,
    /// "Operation in flight": the engine's own poison flag. Raised around
    /// every call into the system; a panic unwinding through the call
    /// leaves it set, and the next [`ShardedEngine::guard`] parks the
    /// shard `Degraded`. Unlike `std`'s sticky mutex poison (whose
    /// `clear_poison` needs Rust 1.77, above this crate's MSRV), it is
    /// cleared when a system is installed.
    mid_op: bool,
    /// Repair attempts consumed since the last install.
    attempts: u32,
    /// Modeled cycle before which the next repair attempt is refused.
    next_repair_at: u64,
    /// Crashed image + captured quarantine set kept between attempts (a
    /// refused attempt parks its inputs here so the retry does not need
    /// the caller to re-supply them).
    stash: Option<StashedImage>,
    /// The policy most recently installed by
    /// [`ShardedEngine::enable_online`]; a repaired system re-arms with it
    /// (the pre-crash service state is volatile and lost).
    online: OnlinePolicy,
}

impl Shard {
    fn new(sys: SecureNvmSystem) -> Self {
        Shard {
            sys: Some(sys),
            life: Lifecycle::Serving,
            mid_op: false,
            attempts: 0,
            next_repair_at: 0,
            stash: None,
            online: OnlinePolicy::default(),
        }
    }

    /// Runs `f` on the live system with the mid-op marker raised, or
    /// returns `None` when the slot is empty.
    fn run<R>(&mut self, f: impl FnOnce(&mut SecureNvmSystem) -> R) -> Option<R> {
        let sys = self.sys.as_mut()?;
        self.mid_op = true;
        let r = f(sys);
        self.mid_op = false;
        Some(r)
    }
}

/// N independent secure-memory controllers behind one address space.
///
/// Routing: a global byte address maps to `(shard, local address)` via the
/// [`ShardMap`]; the shard's own [`SecureNvmSystem`] — built over
/// `data_lines / N` lines with a `1/N` slice of the metadata-cache budget —
/// serves the request under its own mutex. All methods take `&self`, so
/// any number of threads may drive disjoint shards concurrently.
///
/// A shard out of service (crashed, taken, parked `Degraded` after a torn
/// operation, or in the repair loop) fails requests with
/// [`IntegrityError::ShardDegraded`] instead of serving or panicking.
pub struct ShardedEngine {
    map: ShardMap,
    shard_cfg: SystemConfig,
    shards: Vec<Mutex<Shard>>,
    /// Engine-level lifecycle alarms: the alarms [`Self::transition`]
    /// raises, plus harness-observed events recorded via
    /// [`Self::raise_alarm`] (e.g. torn writes in the chaos campaign).
    /// Per-shard *service* alarms live inside each shard's
    /// [`crate::online::OnlineService`]; [`Self::drain_alarms`] merges
    /// both in deterministic order.
    alarms: Mutex<AlarmLog>,
}

impl ShardedEngine {
    /// Builds `shards` interleaved (bank-style) shards over `cfg`'s data
    /// space. A `cfg.data_lines` that does not divide evenly is rounded
    /// down to the nearest multiple (shards are identical machines; the
    /// remainder lines are simply not addressable through the front-end).
    pub fn new(cfg: SystemConfig, shards: usize) -> Self {
        Self::with_mode(cfg, shards, StripeMode::Interleave)
    }

    /// [`Self::new`] with an explicit striping mode.
    pub fn with_mode(mut cfg: SystemConfig, shards: usize, mode: StripeMode) -> Self {
        assert!(shards >= 1, "need at least one shard");
        cfg.data_lines -= cfg.data_lines % shards as u64;
        let map = ShardMap::new(mode, shards, cfg.data_lines);
        let shard_cfg = Self::split_config(&cfg, shards);
        let shards = (0..shards)
            .map(|i| {
                let mut sys = SecureNvmSystem::new(shard_cfg.clone());
                sys.ctrl.nvm.set_shard(i as u16);
                Mutex::new(Shard::new(sys))
            })
            .collect();
        ShardedEngine {
            map,
            shard_cfg,
            shards,
            alarms: Mutex::new(AlarmLog::new()),
        }
    }

    /// The per-shard configuration a global `cfg` splits into: `1/N` of the
    /// data lines and `1/N` of the metadata-cache capacity (floored at one
    /// set), everything else identical.
    pub fn split_config(cfg: &SystemConfig, shards: usize) -> SystemConfig {
        assert!(shards >= 1, "need at least one shard");
        let mut c = cfg.clone();
        c.data_lines = cfg.data_lines / shards as u64;
        c.meta_cache = cfg.meta_cache.split(shards);
        c
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The routing function.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The configuration each shard runs with.
    pub fn shard_config(&self) -> &SystemConfig {
        &self.shard_cfg
    }

    /// Locks shard `s`'s slot, recovering the guard if a previous holder
    /// panicked (the crash harness unwinds `CrashTripped` through these
    /// locks by design; the slot holds exactly what the power cut left).
    fn lock(&self, s: usize) -> MutexGuard<'_, Shard> {
        self.shards[s].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// [`Self::lock`], parking the shard `Degraded` first if the previous
    /// holder died mid-operation: until a system is reinstated
    /// ([`Self::put_shard`]) it must fail typed rather than serve suspect
    /// state — and must never panic a *neighbor's* request.
    fn guard(&self, s: usize) -> MutexGuard<'_, Shard> {
        let mut g = self.lock(s);
        // Checked under the lock, so a set marker can only mean a previous
        // holder unwound mid-call — not a concurrent op in progress.
        if g.mid_op {
            self.transition(s, &mut g, Event::Degrade);
        }
        g
    }

    /// The one lifecycle transition: applies `event` to shard `s`'s slot
    /// and raises the alarm its edge carries — `ShardDegraded` on
    /// `Serving → Degraded`, `ShardRepairStarted` on
    /// `Degraded → Rebuilding`, `ShardRestored` on `Rebuilding → Serving`.
    /// An edge the lifecycle does not have leaves the state alone and
    /// raises nothing, so parking a shard already out of service is
    /// silent. `Install` also resets the repair state (mid-op marker,
    /// attempt count, backoff gate, stashed image) from any state.
    ///
    /// Lifecycle alarms carry cycle stamp 0: the engine has no global
    /// clock, and a constant stamp keeps the merged alarm log
    /// byte-identical across host thread schedules.
    fn transition(&self, s: usize, shard: &mut Shard, event: Event) {
        use Lifecycle::{Degraded, Parked, Rebuilding, Serving};
        let (next, alarm) = match (shard.life, event) {
            (Serving, Event::Degrade) => (Degraded, Some(AlarmKind::ShardDegraded)),
            (Degraded, Event::Claim) => (Rebuilding, Some(AlarmKind::ShardRepairStarted)),
            (Rebuilding, Event::Retry) => (Degraded, None),
            (Degraded | Rebuilding, Event::Park) => (Parked, None),
            (Rebuilding, Event::Install) => (Serving, Some(AlarmKind::ShardRestored)),
            (_, Event::Install) => (Serving, None),
            (life, _) => (life, None),
        };
        shard.life = next;
        if event == Event::Install {
            shard.mid_op = false;
            shard.attempts = 0;
            shard.next_repair_at = 0;
            shard.stash = None;
        }
        if let Some(kind) = alarm {
            self.raise_alarm(Alarm {
                kind,
                shard: s as u16,
                addr: None,
                cycle: 0,
            });
        }
    }

    /// Records an engine-level lifecycle alarm (see the `alarms` field).
    pub fn raise_alarm(&self, alarm: Alarm) {
        self.alarms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .raise(alarm);
    }

    /// Whether shard `s` is out of service: parked `Degraded` (torn
    /// operation, explicit park, or an unrecoverable scrub), in the repair
    /// loop, or permanently `Parked`.
    pub fn is_degraded(&self, s: usize) -> bool {
        self.lock(s).life != Lifecycle::Serving
    }

    /// Shards currently out of service, in shard order.
    pub fn degraded_shards(&self) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.is_degraded(s))
            .map(|s| s as u16)
            .collect()
    }

    /// Whether shard `s` is permanently `Parked`: its repair attempt
    /// budget is spent (or there was nothing left to rebuild from) and
    /// only an operator [`Self::put_shard`] revives it.
    pub fn is_parked(&self, s: usize) -> bool {
        self.lock(s).life == Lifecycle::Parked
    }

    /// Shards permanently `Parked`, in shard order.
    pub fn parked_shards(&self) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.is_parked(s))
            .map(|s| s as u16)
            .collect()
    }

    /// Parks shard `s` `Degraded`, returning its system (if the slot still
    /// held one) so the caller can crash/scrub it offline. Requests routed
    /// to the shard fail with [`IntegrityError::ShardDegraded`] until
    /// [`Self::put_shard`] reinstates a recovered system.
    pub fn park_degraded(&self, s: usize) -> Option<SecureNvmSystem> {
        let mut g = self.guard(s);
        self.transition(s, &mut g, Event::Degrade);
        g.sys.take()
    }

    /// Routes `addr` and runs `op` on the owning shard's system at the
    /// local address, with the mid-op marker raised. A request routed to
    /// a degraded or crashed/taken shard fails typed — a fault on one
    /// shard never panics traffic on the engine.
    fn serve<R>(
        &self,
        addr: u64,
        op: impl FnOnce(&mut SecureNvmSystem, u64) -> Result<R, IntegrityError>,
    ) -> Result<R, IntegrityError> {
        let (s, local) = self.map.route(addr);
        let mut g = self.guard(s);
        let served = match g.life {
            Lifecycle::Serving => g.run(|sys| op(sys, local)),
            _ => None,
        };
        served.unwrap_or(Err(IntegrityError::ShardDegraded { shard: s as u16 }))
    }

    /// Securely writes one 64 B line at a global address. A request routed
    /// to a degraded or crashed/taken shard fails typed — a fault on one
    /// shard never panics traffic on the engine.
    pub fn write(&self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        self.serve(addr, |sys, local| sys.write(local, data))
    }

    /// Securely reads one 64 B line at a global address. Degraded and
    /// crashed/taken shards fail typed, like [`Self::write`].
    pub fn read(&self, addr: u64) -> Result<[u8; 64], IntegrityError> {
        self.serve(addr, |sys, local| sys.read(local))
    }

    /// Supervised heal of a quarantined global address: routes to
    /// [`SecureNvmSystem::heal_write`], which lifts the quarantine only
    /// after the fresh data passes a verify-after-write round-trip (the
    /// audited alternative to a blind
    /// [`SecureNvmSystem::clear_quarantine`]). Degraded and crashed/taken
    /// shards fail typed, like [`Self::write`].
    pub fn heal_write(&self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        self.serve(addr, |sys, local| sys.heal_write(local, data))
    }

    /// Runs `f` against shard `s`'s live system under its lock. A panic
    /// unwinding out of `f` parks the shard `Degraded` (it died
    /// mid-operation), like [`Self::write`]/[`Self::read`].
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&mut SecureNvmSystem) -> R) -> R {
        self.guard(s)
            .run(f)
            .unwrap_or_else(|| panic!("shard {s} is crashed/taken"))
    }

    /// Removes shard `s`'s system from the engine (its slot stays empty
    /// until [`Self::put_shard`]; requests routed there fail typed
    /// meanwhile).
    pub fn take_shard(&self, s: usize) -> SecureNvmSystem {
        self.guard(s)
            .sys
            .take()
            .unwrap_or_else(|| panic!("shard {s} already crashed/taken"))
    }

    /// Reinstates a system into shard `s`'s empty slot. The system must
    /// carry `s`'s own device label — installing a machine built for a
    /// different shard is a routing bug.
    ///
    /// A freshly recovered/rebuilt system returns the shard to `Serving`
    /// from any lifecycle state. This is also the operator's escape hatch
    /// for a permanently `Parked` shard: installing a system resets the
    /// repair attempt budget, the backoff gate and the stashed image.
    pub fn put_shard(&self, s: usize, sys: SecureNvmSystem) {
        assert_eq!(
            sys.ctrl.nvm.shard(),
            s as u16,
            "installing shard {} machine into slot {s}",
            sys.ctrl.nvm.shard()
        );
        let mut g = self.guard(s);
        assert!(g.sys.is_none(), "shard {s} slot already occupied");
        g.sys = Some(sys);
        self.transition(s, &mut g, Event::Install);
    }

    /// Pulls the plug on shard `s` only. Every other shard keeps running.
    pub fn crash_shard(&self, s: usize) -> CrashedSystem {
        self.take_shard(s).crash()
    }

    /// Strictly recovers shard `s` from its crashed image and reinstates
    /// it. Validates journal ownership first: if the image's ADR journal
    /// line was ever written, it must have been stamped by shard `s`'s own
    /// controller. On error the slot stays empty (callers may fall back to
    /// [`Self::scrub_shard`]).
    pub fn recover_shard(
        &self,
        s: usize,
        crashed: CrashedSystem,
    ) -> Result<RecoveryReport, IntegrityError> {
        Self::check_journal_owner(s, &crashed);
        let (sys, report) = crashed.recover()?;
        self.put_shard(s, sys);
        Ok(report)
    }

    /// Leniently scrubs shard `s`'s crashed image, reinstating the rebuilt
    /// system when the scheme supports one. A scrub that cannot rebuild a
    /// system (WB has no metadata redundancy) leaves the slot empty and
    /// parks the shard `Degraded` — its verdict is unrecoverable at the
    /// shard level, so routing fails typed instead of panicking.
    pub fn scrub_shard(&self, s: usize, crashed: CrashedSystem) -> ScrubReport {
        Self::check_journal_owner(s, &crashed);
        let (sys, report) = crashed.recover_lenient();
        match sys {
            Some(sys) => self.put_shard(s, sys),
            None => self.transition(s, &mut self.guard(s), Event::Degrade),
        }
        report
    }

    fn check_journal_owner(s: usize, crashed: &CrashedSystem) {
        assert_eq!(
            crashed.nvm().shard(),
            s as u16,
            "crashed image labeled shard {} handed to slot {s}",
            crashed.nvm().shard()
        );
        let j = crashed.nvm().recovery_journal();
        if j.phase != journal::IDLE {
            assert_eq!(
                crashed.nvm().journal_owner(),
                s as u16,
                "shard {s}'s journal line was stamped by shard {}: cross-shard routing bug",
                crashed.nvm().journal_owner()
            );
        }
    }

    /// One attempt of the online shard-repair loop: sources a crashed
    /// image for degraded shard `s` and delegates to
    /// [`Self::repair_shard_from`].
    ///
    /// The image comes from, in order: the shard's own slot (a poisoned
    /// but still-present system — its volatile quarantine set is captured,
    /// then the plug is pulled), or a previously stashed image (a
    /// backoff-refused attempt). A degraded shard with neither has nothing
    /// left to rebuild from — no retry can ever succeed, so it is parked
    /// permanently right away.
    ///
    /// `now` is the caller's modeled-cycle clock for the backoff gate;
    /// pass `u64::MAX` to force the attempt (operator retry, or the chaos
    /// campaign, which must not read neighbor shards' clocks).
    pub fn repair_shard(&self, s: usize, now: u64) -> RepairOutcome {
        let (crashed, quarantine) = {
            let mut g = self.guard(s);
            match g.life {
                Lifecycle::Parked => return RepairOutcome::Parked,
                Lifecycle::Serving | Lifecycle::Rebuilding => return RepairOutcome::NotDegraded,
                Lifecycle::Degraded => {}
            }
            match g.sys.take() {
                Some(sys) => {
                    // The online service dies with the power: capture the
                    // quarantine set before pulling the plug so the rebuilt
                    // shard can replay it.
                    let q: Vec<u64> = sys
                        .online()
                        .map(|o| o.quarantined().collect())
                        .unwrap_or_default();
                    (sys.crash(), q)
                }
                None => match g.stash.take() {
                    Some(stashed) => stashed,
                    None => {
                        self.transition(s, &mut g, Event::Park);
                        return RepairOutcome::Parked;
                    }
                },
            }
        };
        self.repair_shard_from(s, crashed, &quarantine, now)
    }

    /// Runs one bounded, backoff-gated repair attempt for degraded shard
    /// `s` from a supplied crashed image, while neighbor shards keep
    /// serving (nothing here touches any other shard's lock, and the
    /// rebuild runs with `s`'s own lock released).
    ///
    /// `Degraded → Rebuilding`: the attempt claims the shard, raises
    /// `ShardRepairStarted` (lifecycle alarm, cycle 0), and runs the
    /// lenient scrub over the image. On success the rebuilt system is
    /// re-armed with the shard's online policy and re-verified end to end
    /// (a full online scrub pass re-quarantines, with fresh alarms, any
    /// line that is still bad), the captured `quarantine` set is replayed
    /// against it (lines the pass did *not* re-quarantine are provably
    /// clean now and released with an audited `QuarantineCleared`), and
    /// the system is atomically re-admitted (`→ Serving`, `ShardRestored`).
    /// On failure the shard returns to `Degraded` with an exponential
    /// backoff gate (1024 modeled cycles, doubling per failed attempt),
    /// and the third failed attempt parks it permanently (`→ Parked`).
    ///
    /// Determinism: lifecycle alarms carry cycle 0; replay releases are
    /// stamped with the rebuilt shard's *own* modeled clock. The attempt
    /// never reads another shard's clock, so concurrent repairs and host
    /// scheduling cannot perturb the exported alarm stream.
    pub fn repair_shard_from(
        &self,
        s: usize,
        crashed: CrashedSystem,
        quarantine: &[u64],
        now: u64,
    ) -> RepairOutcome {
        let (attempt, online) = {
            let mut g = self.guard(s);
            let refused = match g.life {
                // A parked shard keeps the image for the operator's
                // post-mortem.
                Lifecycle::Parked => Some(RepairOutcome::Parked),
                Lifecycle::Serving | Lifecycle::Rebuilding => Some(RepairOutcome::NotDegraded),
                Lifecycle::Degraded if now < g.next_repair_at => Some(RepairOutcome::Backoff {
                    until: g.next_repair_at,
                }),
                Lifecycle::Degraded => None,
            };
            if let Some(outcome) = refused {
                g.stash = Some((crashed, quarantine.to_vec()));
                return outcome;
            }
            g.attempts += 1;
            self.transition(s, &mut g, Event::Claim);
            (g.attempts, g.online)
        };
        Self::check_journal_owner(s, &crashed);
        let (sys, report) = crashed.recover_lenient();
        let Some(mut sys) = sys else {
            // The image is consumed; a retry needs a fresh one.
            let mut g = self.guard(s);
            if attempt >= MAX_REPAIR_ATTEMPTS {
                self.transition(s, &mut g, Event::Park);
                return RepairOutcome::Parked;
            }
            let shift = (attempt - 1).min(16);
            g.next_repair_at = now.saturating_add(REPAIR_BACKOFF_BASE_CYCLES << shift);
            self.transition(s, &mut g, Event::Retry);
            return RepairOutcome::Failed { attempts: attempt };
        };
        sys.enable_online(online);
        // Re-verify the rebuilt tree end to end before re-admitting the
        // shard: every line that is still bad is re-quarantined with a
        // fresh alarm trail.
        sys.online_scrub_pass();
        // Replay the captured quarantine set: anything the full pass did
        // not re-quarantine read back authentic from the rebuilt tree and
        // is released, audited.
        let shard = s as u16;
        let cycle = sys.sim_cycles();
        if let Some(svc) = sys.online_mut() {
            for &addr in quarantine {
                if !svc.is_quarantined(addr) {
                    svc.note_heal(shard, addr, cycle);
                }
            }
        }
        self.put_shard(s, sys);
        RepairOutcome::Restored(report)
    }

    /// Deterministic simulated-cycle makespan: the furthest any shard's
    /// clocks have advanced (empty slots contribute 0). With perfect
    /// balance this is `1/N` of the serial machine's clock — the quantity
    /// the stress bench's scaling gate is computed from.
    pub fn sim_cycles(&self) -> u64 {
        (0..self.shards())
            .map(|s| self.guard(s).sys.as_ref().map_or(0, |sys| sys.sim_cycles()))
            .max()
            .unwrap_or(0)
    }

    /// Merged metric registry: each shard's full registry appears twice —
    /// once under its own `shard.NN.` prefix (per-shard write-queue
    /// occupancy/stall histograms, cache hit rates, …) and once folded into
    /// the unprefixed aggregate (histograms merge bucket-wise; see
    /// [`MetricRegistry::fold_shard`]).
    pub fn report(&self) -> MetricRegistry {
        let mut agg = MetricRegistry::new();
        for s in 0..self.shards() {
            if let Some(sys) = self.guard(s).sys.as_ref() {
                let m = sys.report().metrics;
                agg.fold_shard(&format!("shard.{s:02}"), &m);
            }
        }
        agg.gauge_set("core.shards", self.shards() as f64);
        agg.gauge_set("core.shards.degraded", self.degraded_shards().len() as f64);
        agg.gauge_set("core.shards.parked", self.parked_shards().len() as f64);
        agg.gauge_set("core.engine.sim_cycles", self.sim_cycles() as f64);
        let lifecycle = self
            .alarms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .metrics();
        agg.merge(&lifecycle);
        agg
    }

    /// Enables the online integrity service on every live shard under one
    /// shared `policy` (see [`crate::online::OnlinePolicy`]) and records it
    /// in every slot, so a shard the repair loop rebuilds later re-arms
    /// with it. A system reinstated via [`Self::put_shard`] by any other
    /// path must be re-enabled by the caller.
    pub fn enable_online(&self, policy: OnlinePolicy) {
        for s in 0..self.shards() {
            let mut g = self.guard(s);
            g.online = policy;
            if let Some(sys) = g.sys.as_mut() {
                sys.enable_online(policy);
            }
        }
    }

    /// Runs one scrub step on every live, non-degraded shard (the
    /// per-shard period is bypassed; the occupancy throttle still
    /// applies). The engine-level analogue of
    /// [`SecureNvmSystem::online_step`].
    pub fn online_tick(&self) {
        for s in 0..self.shards() {
            let mut g = self.guard(s);
            if g.life == Lifecycle::Serving {
                g.run(|sys| sys.online_step());
            }
        }
    }

    /// Drains every pending alarm in deterministic order: the engine's
    /// lifecycle log first, then each shard's service log in shard order.
    /// Callers wanting a schedule-independent export sort the result with
    /// [`AlarmLog::canonical`].
    pub fn drain_alarms(&self) -> AlarmLog {
        let mut out = AlarmLog::new();
        for a in self
            .alarms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain()
        {
            out.raise(a);
        }
        for s in 0..self.shards() {
            if let Some(sys) = self.guard(s).sys.as_mut() {
                for a in sys.drain_alarms() {
                    out.raise(a);
                }
            }
        }
        out
    }

    /// Pulls the plug on the whole engine: every shard loses power at its
    /// current persist boundary (no op is in flight on any of them), and
    /// every slot is left empty until recovery reinstates it. Images come
    /// back in shard order.
    pub fn crash_all(&self) -> Vec<CrashedSystem> {
        (0..self.shards()).map(|s| self.crash_shard(s)).collect()
    }

    /// Runs `job` once per shard on that shard's crashed image, as
    /// independent region jobs on `workers` threads ([`par::map_with`]).
    /// Returns the results in shard order.
    fn per_image<T: Send>(
        &self,
        crashed: Vec<CrashedSystem>,
        workers: usize,
        job: impl Fn(usize, CrashedSystem) -> T + Sync,
    ) -> Vec<T> {
        assert_eq!(crashed.len(), self.shards(), "one crashed image per shard");
        let images = crashed.into_iter().enumerate().collect();
        par::map_with(workers, images, |(s, img)| job(s, img))
    }

    /// Recovers the whole engine in parallel: the per-shard crashed images
    /// are independent region jobs on `workers` threads (clamped to
    /// [`par::MAX_WORKERS`]). Each region recovers serially off its own ADR
    /// journal line and reinstates itself into its slot as soon as it
    /// finishes.
    ///
    /// Determinism: every number in the returned [`ParallelRecovery`] is
    /// computed from the per-shard reports and the *modeled* lane fold
    /// ([`par::fold_lanes`]) — byte-identical no matter how the host
    /// actually schedules the worker threads.
    ///
    /// On the first per-shard error the whole call errors; regions that
    /// already recovered stay installed and the failing slot stays empty
    /// (callers may fall back to [`Self::scrub_all`] on a replay).
    pub fn recover_all(
        &self,
        crashed: Vec<CrashedSystem>,
        workers: usize,
    ) -> Result<ParallelRecovery, IntegrityError> {
        let workers = workers.clamp(1, par::MAX_WORKERS);
        let results = self.per_image(crashed, workers, |s, img| self.recover_shard(s, img));
        let mut reports = Vec::with_capacity(results.len());
        for r in results {
            reports.push(r?);
        }

        let costs: Vec<u64> = reports.iter().map(|r| r.nvm_reads).collect();
        let loads = par::fold_lanes(&costs, workers);
        let makespan_reads = loads.iter().copied().max().unwrap_or(0);
        let total_reads: u64 = costs.iter().sum();
        let mut metrics = MetricRegistry::new();
        for (s, r) in reports.iter().enumerate() {
            metrics.fold_shard(&format!("shard.{s:02}"), &r.metrics);
        }
        metrics.gauge_set("core.par.workers", workers as f64);
        metrics.counter_add("core.par.makespan_reads", makespan_reads);
        metrics.counter_add("core.par.total_reads", total_reads);
        for (l, &load) in loads.iter().enumerate() {
            metrics.counter_add(&format!("par.lane.{l:02}.reads"), load);
        }
        Ok(ParallelRecovery {
            reports,
            workers,
            total_reads,
            makespan_reads,
            steals: 0,
            metrics,
        })
    }

    /// The lenient mirror of [`Self::recover_all`]: scrubs every region in
    /// parallel and merges the per-region verdicts ([`ScrubReport::merge`])
    /// into one whole-engine report whose `unrecoverable_addrs` are
    /// translated back into global byte addresses. Shards whose scheme
    /// yields a rebuilt system are reinstated; WB slots stay empty.
    pub fn scrub_all(
        &self,
        crashed: Vec<CrashedSystem>,
        workers: usize,
    ) -> (Vec<ScrubReport>, ScrubReport) {
        let workers = workers.clamp(1, par::MAX_WORKERS);
        let reports = self.per_image(crashed, workers, |s, img| self.scrub_shard(s, img));
        let mut merged = ScrubReport::empty(reports[0].scheme.clone(), 0, 0);
        for (s, r) in reports.iter().enumerate() {
            let mut global = r.clone();
            global.unrecoverable_addrs = r
                .unrecoverable_addrs
                .iter()
                .map(|&a| self.map.global_line(s, a / 64) * 64)
                .collect();
            merged.merge(&global);
        }
        (reports, merged)
    }
}

/// Outcome of a whole-engine parallel recovery ([`ShardedEngine::recover_all`]).
///
/// Everything here is a pure function of the per-shard recovery reports and
/// the requested worker count — the quantities the recovery ladder's
/// scaling gate and its byte-identical JSON artifact are built from.
pub struct ParallelRecovery {
    /// Per-shard recovery reports, in shard order.
    pub reports: Vec<RecoveryReport>,
    /// Worker/lane count the recovery (and its modeled fold) ran with.
    pub workers: usize,
    /// Sum of every region's recovery reads.
    pub total_reads: u64,
    /// Modeled makespan: the busiest lane's reads after the deterministic
    /// LPT fold of per-region costs onto `workers` lanes.
    pub makespan_reads: u64,
    /// Always 0: the worker pool no longer steals. Kept only because the
    /// benchmark still exports it as `par.steals`; the next change to the
    /// benchmark drops both.
    pub steals: u64,
    /// Folded registry: per-region `shard.NN.` prefixes, the unprefixed
    /// aggregate, `core.par.*` fold results, and per-lane `par.lane.NN.reads`.
    pub metrics: MetricRegistry,
}

impl ParallelRecovery {
    /// Modeled wall seconds for the fold: `makespan_reads` sequential NVM
    /// reads at `read_ns` nanoseconds each.
    pub fn est_seconds(&self, read_ns: f64) -> f64 {
        self.makespan_reads as f64 * read_ns * 1e-9
    }

    /// Modeled speedup of this fold over a baseline fold of the same work.
    pub fn speedup_over(&self, baseline: &ParallelRecovery) -> f64 {
        baseline.makespan_reads as f64 / self.makespan_reads.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::crash::{CrashSweep, PointSelection, SweepOp};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use steins_metadata::CounterMode;

    fn small(scheme: SchemeKind) -> SystemConfig {
        SystemConfig::small_for_tests(scheme, CounterMode::General)
    }

    #[test]
    fn routed_writes_read_back_across_shards() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 4);
        for line in 0..64u64 {
            let data = SweepOp::payload(line, 7);
            engine.write(line * 64, &data).unwrap();
        }
        for line in 0..64u64 {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 7));
        }
        // Every shard saw exactly its stripe.
        for s in 0..4 {
            let writes = engine.with_shard(s, |sys| sys.ctrl.nvm.stats().writes);
            assert!(writes > 0, "shard {s} never touched");
        }
    }

    #[test]
    fn split_config_divides_lines_and_cache() {
        let cfg = small(SchemeKind::Steins);
        let per = ShardedEngine::split_config(&cfg, 4);
        assert_eq!(per.data_lines, cfg.data_lines / 4);
        assert!(per.meta_cache.capacity_bytes <= cfg.meta_cache.capacity_bytes / 4);
    }

    #[test]
    fn crash_one_shard_neighbors_keep_serving() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..32u64 {
            engine.write(line * 64, &SweepOp::payload(line, 3)).unwrap();
        }
        let crashed = engine.crash_shard(0);
        // Shard 1 still serves reads and writes while shard 0 is down.
        let m = *engine.map();
        let line1 = (0..32u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 3));
        engine
            .write(line1 * 64, &SweepOp::payload(line1, 9))
            .unwrap();
        // Recover shard 0 and verify its stripe.
        engine.recover_shard(0, crashed).unwrap();
        for line in (0..32u64).filter(|&l| m.shard_of(l) == 0) {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 3));
        }
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 9));
    }

    #[test]
    fn recovery_report_carries_shard_gauge() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 1)).unwrap();
        }
        let crashed = engine.crash_shard(1);
        let report = engine.recover_shard(1, crashed).unwrap();
        assert_eq!(report.metrics.gauge("core.recovery.shard"), Some(1.0));
        engine.with_shard(1, |sys| {
            assert_eq!(sys.ctrl.nvm.journal_owner(), 1);
        });
        engine.with_shard(0, |sys| {
            assert_eq!(sys.ctrl.nvm.recovery_journal().phase, journal::IDLE);
        });
    }

    #[test]
    #[should_panic(expected = "into slot")]
    fn put_shard_rejects_foreign_machine() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        let sys = engine.take_shard(1);
        engine.put_shard(0, sys);
    }

    #[test]
    fn report_folds_per_shard_prefixes() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 1)).unwrap();
        }
        let m = engine.report();
        let agg = m.counter("nvm.device.writes").unwrap_or(0);
        let s0 = m.counter("shard.00.nvm.device.writes").unwrap_or(0);
        let s1 = m.counter("shard.01.nvm.device.writes").unwrap_or(0);
        assert!(s0 > 0 && s1 > 0);
        assert_eq!(agg, s0 + s1, "aggregate must be the sum of the shards");
    }

    #[test]
    fn sim_cycles_scale_down_with_shards() {
        let cfg = small(SchemeKind::Steins);
        let serial = ShardedEngine::new(cfg.clone(), 1);
        let quad = ShardedEngine::new(cfg, 4);
        for line in 0..256u64 {
            let data = SweepOp::payload(line, 5);
            serial.write(line * 64, &data).unwrap();
            quad.write(line * 64, &data).unwrap();
        }
        let (one, four) = (serial.sim_cycles(), quad.sim_cycles());
        assert!(one > 0 && four > 0);
        assert!(
            (one as f64) / (four as f64) >= 3.0,
            "4 shards must cut the makespan ≥3x: serial {one}, sharded {four}"
        );
    }

    /// The cross-shard smoke contract: crash each shard at sampled persist
    /// points while its neighbor is mid-write; both shards' recovered
    /// state verifies. (The full four-scheme sweep lives in the
    /// integration tests.)
    #[test]
    fn cross_shard_crash_smoke() {
        let cfg = small(SchemeKind::Steins);
        let ops = SweepOp::stream(11, cfg.data_lines.min(64), 40);
        let sweep = CrashSweep::new(cfg, 2, ops, PointSelection::AtMost(3));
        let points = sweep.points().unwrap();
        assert_eq!(points.len(), 6, "3 points on each of 2 target shards");
        for (target, k) in points {
            assert!(
                sweep.probe_point(target, k).is_none(),
                "shard {target} point {k} failed"
            );
        }
    }

    #[test]
    fn wb_refuses_sharded_recovery_at_every_point() {
        let cfg = small(SchemeKind::WriteBack);
        let ops = SweepOp::stream(5, cfg.data_lines.min(64), 24);
        let report = CrashSweep::new(cfg, 2, ops, PointSelection::AtMost(2)).run();
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }

    #[test]
    fn nested_crash_restarts_only_the_interrupted_shard() {
        let cfg = small(SchemeKind::Steins);
        let ops = SweepOp::stream(23, cfg.data_lines.min(64), 32);
        let sweep = CrashSweep::new(cfg, 2, ops, PointSelection::AtMost(2));
        let report = sweep.run_nested(&[0xFF], &[0xFF], PointSelection::AtMost(2));
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }

    fn dirtied(shards: usize, lines: u64) -> ShardedEngine {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), shards);
        for line in 0..lines {
            engine.write(line * 64, &SweepOp::payload(line, 6)).unwrap();
        }
        engine
    }

    #[test]
    fn parallel_recover_all_restores_every_shard() {
        let engine = dirtied(4, 64);
        let images = engine.crash_all();
        let pr = engine.recover_all(images, 4).unwrap();
        assert_eq!(pr.reports.len(), 4);
        assert_eq!(pr.workers, 4);
        assert_eq!(
            pr.total_reads,
            pr.reports.iter().map(|r| r.nvm_reads).sum::<u64>()
        );
        assert!(pr.makespan_reads <= pr.total_reads);
        assert!(pr.makespan_reads >= pr.total_reads.div_ceil(4));
        assert_eq!(
            pr.metrics.counter("core.par.makespan_reads"),
            Some(pr.makespan_reads)
        );
        for line in 0..64u64 {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 6));
        }
        for s in 0..4 {
            engine.with_shard(s, |sys| {
                assert_eq!(sys.ctrl.nvm.journal_owner(), s as u16);
                assert_eq!(sys.ctrl.nvm.recovery_journal().phase, journal::DONE);
            });
        }
    }

    #[test]
    fn worker_count_changes_makespan_but_not_shard_reports() {
        let run = |workers: usize| {
            let engine = dirtied(4, 96);
            let images = engine.crash_all();
            engine.recover_all(images, workers).unwrap()
        };
        let serial = run(1);
        let quad = run(4);
        assert_eq!(serial.makespan_reads, serial.total_reads);
        assert_eq!(serial.total_reads, quad.total_reads);
        assert!(
            quad.speedup_over(&serial) >= 3.0,
            "4 balanced regions must fold ≥3x: serial {} quad {}",
            serial.makespan_reads,
            quad.makespan_reads
        );
        // The per-shard reports — journals, verification work, exported
        // metrics — are identical whichever worker count rebuilt them.
        for (a, b) in serial.reports.iter().zip(&quad.reports) {
            assert_eq!(a.nvm_reads, b.nvm_reads);
            assert_eq!(
                a.metrics.to_json_deterministic().pretty(),
                b.metrics.to_json_deterministic().pretty()
            );
        }
    }

    #[test]
    fn parallel_scrub_all_merges_region_verdicts() {
        let engine = dirtied(4, 64);
        let images = engine.crash_all();
        let (reports, merged) = engine.scrub_all(images, 4);
        assert_eq!(reports.len(), 4);
        assert_eq!(
            merged.data_intact,
            reports.iter().map(|r| r.data_intact).sum::<u64>()
        );
        assert_eq!(merged.data_unrecoverable, 0, "{merged}");
        for line in 0..64u64 {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 6));
        }
    }

    #[test]
    fn requests_to_taken_shard_fail_typed_not_panicking() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 2)).unwrap();
        }
        let m = *engine.map();
        let _img = engine.crash_shard(0);
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(
            engine.write(line0 * 64, &[0; 64]),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        assert_eq!(
            engine.read(line0 * 64),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        // The neighbor is untouched by the typed failure.
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 2));
    }

    #[test]
    fn poisoned_shard_parks_degraded_and_recovers_via_scrub() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 4)).unwrap();
        }
        let m = *engine.map();
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        // Poison shard 0's mutex: a holder panics mid-operation.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.with_shard(0, |_| panic!("holder dies mid-op"));
        }));
        std::panic::set_hook(prev);
        assert!(unwound.is_err());
        // The next request parks the shard Degraded and fails typed — it
        // must not propagate the panic, and neighbors keep serving.
        assert_eq!(
            engine.read(line0 * 64),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        assert!(engine.is_degraded(0));
        assert_eq!(engine.degraded_shards(), vec![0]);
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 4));
        assert_eq!(engine.report().gauge("core.shards.degraded"), Some(1.0));
        // Operator path: park (taking the suspect system), scrub offline,
        // reinstate. put_shard clears the flag.
        let suspect = engine.park_degraded(0).expect("system still in slot");
        let report = engine.scrub_shard(0, suspect.crash());
        assert!(report.clean(), "{report}");
        assert!(!engine.is_degraded(0));
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 4));
    }

    #[test]
    fn unrebuildable_scrub_parks_shard_degraded() {
        let engine = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
        }
        let m = *engine.map();
        let crashed = engine.crash_shard(1);
        // WB has no metadata redundancy: the scrub classifies but cannot
        // rebuild, so the shard parks Degraded instead of panicking.
        let report = engine.scrub_shard(1, crashed);
        assert!(report.data_intact > 0);
        assert!(engine.is_degraded(1));
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(
            engine.read(line1 * 64),
            Err(IntegrityError::ShardDegraded { shard: 1 })
        );
        // Shard 0 never noticed.
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 8));
    }

    /// Poisons shard `s`'s mutex (a holder panics mid-operation) and
    /// triggers the park via the next routed request.
    fn poison_shard(engine: &ShardedEngine, s: usize) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.with_shard(s, |_| panic!("holder dies mid-op"));
        }));
        std::panic::set_hook(prev);
        assert!(unwound.is_err());
    }

    #[test]
    fn repair_restores_poisoned_shard_and_replays_quarantine() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 4)).unwrap();
        }
        engine.enable_online(OnlinePolicy::default());
        let m = *engine.map();
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        let (_, local0) = m.route(line0 * 64);
        // A serving shard has nothing to repair.
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::NotDegraded
        ));
        // Quarantine a (actually sound) line, then poison the shard: the
        // volatile quarantine set must survive the repair as an audited
        // replay, not silently evaporate with the power.
        engine.with_shard(0, |sys| {
            sys.online_mut().unwrap().requarantine(0, local0, 0);
        });
        assert!(matches!(
            engine.read(line0 * 64),
            Err(IntegrityError::Quarantined { .. })
        ));
        poison_shard(&engine, 0);
        assert_eq!(
            engine.read(line0 * 64),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        // Online repair: neighbors keep serving throughout.
        let outcome = engine.repair_shard(0, u64::MAX);
        let report = match outcome {
            RepairOutcome::Restored(r) => r,
            other => panic!("expected Restored, got {other:?}"),
        };
        assert!(report.clean(), "{report}");
        assert!(!engine.is_degraded(0));
        assert!(!engine.is_parked(0));
        // The replay found the line authentic in the rebuilt tree and
        // released it with an audited QuarantineCleared.
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 4));
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 4));
        engine.with_shard(0, |sys| {
            let svc = sys.online().unwrap();
            assert!(!svc.is_quarantined(local0));
            assert!(svc.cleared() >= 1);
        });
        let log = engine.drain_alarms();
        let kinds_s0: Vec<AlarmKind> = log
            .events()
            .iter()
            .filter(|a| a.shard == 0)
            .map(|a| a.kind)
            .collect();
        assert!(kinds_s0.contains(&AlarmKind::ShardDegraded));
        assert!(kinds_s0.contains(&AlarmKind::ShardRepairStarted));
        assert!(kinds_s0.contains(&AlarmKind::ShardRestored));
        assert!(kinds_s0.contains(&AlarmKind::QuarantineCleared));
        // Nothing left to repair.
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::NotDegraded
        ));
    }

    #[test]
    fn failed_repairs_back_off_exponentially_then_park_permanently() {
        // WB images cannot be rebuilt, so every attempt fails — the loop
        // must consume its bounded budget and park, never spin.
        let donor = || {
            let d = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
            for line in 0..16u64 {
                d.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
            }
            d.crash_shard(1)
        };
        let engine = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
        }
        let img = engine.park_degraded(1).unwrap().crash();
        // Attempt 1 fails and arms the backoff gate at base << 0.
        assert!(matches!(
            engine.repair_shard_from(1, img, &[], 0),
            RepairOutcome::Failed { attempts: 1 }
        ));
        match engine.repair_shard_from(1, donor(), &[], 100) {
            RepairOutcome::Backoff { until } => assert_eq!(until, 1024),
            other => panic!("expected Backoff, got {other:?}"),
        }
        // Past the gate, the stashed image feeds attempt 2; the gate
        // doubles (5000 + 1024 << 1).
        assert!(matches!(
            engine.repair_shard(1, 5_000),
            RepairOutcome::Failed { attempts: 2 }
        ));
        match engine.repair_shard_from(1, donor(), &[], 6_000) {
            RepairOutcome::Backoff { until } => assert_eq!(until, 7_048),
            other => panic!("expected Backoff, got {other:?}"),
        }
        // Attempt 3 spends the budget: permanently parked.
        assert!(matches!(
            engine.repair_shard(1, u64::MAX),
            RepairOutcome::Parked
        ));
        assert!(engine.is_parked(1));
        assert!(engine.is_degraded(1));
        assert_eq!(engine.parked_shards(), vec![1]);
        assert_eq!(engine.report().gauge("core.shards.parked"), Some(1.0));
        assert!(matches!(
            engine.repair_shard(1, u64::MAX),
            RepairOutcome::Parked
        ));
        let m = *engine.map();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(
            engine.read(line1 * 64),
            Err(IntegrityError::ShardDegraded { shard: 1 })
        );
        // Exact alarm trail: one park, three started attempts, no restore.
        let log = engine.drain_alarms();
        let kinds_s1: Vec<AlarmKind> = log
            .events()
            .iter()
            .filter(|a| a.shard == 1)
            .map(|a| a.kind)
            .collect();
        assert_eq!(
            kinds_s1,
            vec![
                AlarmKind::ShardDegraded,
                AlarmKind::ShardRepairStarted,
                AlarmKind::ShardRepairStarted,
                AlarmKind::ShardRepairStarted,
            ]
        );
        // Operator escape hatch: installing a fresh system un-parks the
        // shard and resets the repair lifecycle.
        let mut fresh = SecureNvmSystem::new(engine.shard_config().clone());
        fresh.ctrl.nvm.set_shard(1);
        engine.put_shard(1, fresh);
        assert!(!engine.is_parked(1));
        assert!(!engine.is_degraded(1));
        engine
            .write(line1 * 64, &SweepOp::payload(line1, 5))
            .unwrap();
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 5));
    }

    #[test]
    fn repair_with_nothing_to_rebuild_from_parks_immediately() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 3)).unwrap();
        }
        // The degraded shard's image is gone for good (dropped, not
        // stashed): no retry can ever succeed, so repair parks it on the
        // spot rather than burning attempts.
        drop(engine.park_degraded(0).unwrap());
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::Parked
        ));
        assert!(engine.is_parked(0));
        let log = engine.drain_alarms();
        let kinds_s0: Vec<AlarmKind> = log
            .events()
            .iter()
            .filter(|a| a.shard == 0)
            .map(|a| a.kind)
            .collect();
        assert_eq!(kinds_s0, vec![AlarmKind::ShardDegraded]);
    }

    #[test]
    fn heal_write_routes_and_clears_quarantine_audited() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 2)).unwrap();
        }
        engine.enable_online(OnlinePolicy::default());
        let m = *engine.map();
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let (_, local0) = m.route(line0 * 64);
        engine.with_shard(0, |sys| {
            sys.online_mut().unwrap().requarantine(0, local0, 0);
        });
        assert!(matches!(
            engine.read(line0 * 64),
            Err(IntegrityError::Quarantined { .. })
        ));
        // Supervised heal through the sharded front-end: fresh data plus a
        // verify-after-write round-trip releases the line.
        engine
            .heal_write(line0 * 64, &SweepOp::payload(line0, 9))
            .unwrap();
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 9));
        engine.with_shard(0, |sys| {
            let svc = sys.online().unwrap();
            assert!(!svc.is_quarantined(local0));
            assert!(svc.cleared() >= 1);
        });
        let log = engine.drain_alarms();
        assert!(log
            .events()
            .iter()
            .any(|a| a.kind == AlarmKind::QuarantineCleared && a.shard == 0));
    }

    /// Every (lifecycle × event) pair through the one transition function,
    /// reaching each start state through the function itself.
    #[test]
    fn lifecycle_transition_table() {
        use AlarmKind::{ShardDegraded, ShardRepairStarted, ShardRestored};
        use Event::{Claim, Degrade, Install, Park, Retry};
        use Lifecycle::{Degraded, Parked, Rebuilding, Serving};
        let path = |life| match life {
            Serving => vec![],
            Degraded => vec![Degrade],
            Rebuilding => vec![Degrade, Claim],
            Parked => vec![Degrade, Park],
        };
        #[rustfmt::skip]
        let table = [
            (Serving, Degrade, Degraded, Some(ShardDegraded)),
            (Serving, Claim, Serving, None),
            (Serving, Retry, Serving, None),
            (Serving, Park, Serving, None),
            (Serving, Install, Serving, None),
            (Degraded, Degrade, Degraded, None),
            (Degraded, Claim, Rebuilding, Some(ShardRepairStarted)),
            (Degraded, Retry, Degraded, None),
            (Degraded, Park, Parked, None),
            (Degraded, Install, Serving, None),
            (Rebuilding, Degrade, Rebuilding, None),
            (Rebuilding, Claim, Rebuilding, None),
            (Rebuilding, Retry, Degraded, None),
            (Rebuilding, Park, Parked, None),
            (Rebuilding, Install, Serving, Some(ShardRestored)),
            (Parked, Degrade, Parked, None),
            (Parked, Claim, Parked, None),
            (Parked, Retry, Parked, None),
            (Parked, Park, Parked, None),
            (Parked, Install, Serving, None),
        ];
        let cfg = small(SchemeKind::Steins);
        let engine = ShardedEngine::new(cfg.clone(), 1);
        let drain = || -> Vec<AlarmKind> {
            let mut log = engine.alarms.lock().unwrap();
            log.drain().into_iter().map(|a| a.kind).collect()
        };
        let mut slot = engine.lock(0);
        for (from, event, to, alarm) in table {
            for step in path(from) {
                engine.transition(0, &mut slot, step);
            }
            assert_eq!(slot.life, from);
            drain();
            slot.attempts = 2;
            slot.next_repair_at = 99;
            slot.stash = Some((SecureNvmSystem::new(cfg.clone()).crash(), vec![64]));
            engine.transition(0, &mut slot, event);
            assert_eq!(slot.life, to, "{from:?} x {event:?}");
            assert_eq!(drain(), Vec::from_iter(alarm), "{from:?} x {event:?}");
            // Only an install resets the repair state.
            let reset = event == Install;
            assert_eq!(slot.attempts == 0, reset, "{from:?} x {event:?}");
            assert_eq!(slot.next_repair_at == 0, reset, "{from:?} x {event:?}");
            assert_eq!(slot.stash.is_none(), reset, "{from:?} x {event:?}");
            engine.transition(0, &mut slot, Install);
        }
        drop(slot);
        drain();

        // The same edges through the public calls: a second park of a shard
        // already out of service is silent, repair of a serving shard is
        // refused, and an operator install un-parks and resets.
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::NotDegraded
        ));
        let sys = engine.park_degraded(0).expect("system in slot");
        engine.transition(0, &mut engine.lock(0), Claim);
        assert!(engine.park_degraded(0).is_none());
        assert!(engine.is_degraded(0) && !engine.is_parked(0));
        engine.transition(0, &mut engine.lock(0), Park);
        assert!(engine.park_degraded(0).is_none());
        assert!(engine.is_parked(0));
        assert_eq!(drain(), vec![ShardDegraded, ShardRepairStarted]);
        {
            let mut g = engine.lock(0);
            g.attempts = MAX_REPAIR_ATTEMPTS;
            g.next_repair_at = 7_048;
            g.stash = Some((SecureNvmSystem::new(cfg.clone()).crash(), vec![64]));
        }
        engine.put_shard(0, sys);
        let g = engine.lock(0);
        assert_eq!(g.life, Serving);
        assert_eq!((g.attempts, g.next_repair_at), (0, 0));
        assert!(g.stash.is_none() && !g.mid_op);
        drop(g);
        assert!(drain().is_empty(), "an operator install raises no alarm");
    }

    /// Same-shard race: writes, reads and online ticks on shard 0 while
    /// a fourth thread dies holding the shard and then drives the repair
    /// loop. Every call succeeds or fails typed, nothing unwinds out of
    /// the engine, and the repaired shard reads back every acknowledged
    /// write.
    #[test]
    fn same_shard_traffic_races_a_torn_holder_and_its_repair() {
        use std::collections::HashMap;
        use std::sync::{mpsc, Barrier};
        use steins_trace::rng::SmallRng;
        const OPS: usize = 240;
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        engine.enable_online(OnlinePolicy::default());
        let m = *engine.map();
        let lines: Vec<u64> = (0..256u64)
            .filter(|&l| m.shard_of(l) == 0)
            .take(24)
            .collect();
        let pick = |rng: &mut SmallRng| lines[rng.gen_range(0, lines.len() as u64) as usize];
        let typed = |e: IntegrityError| assert_eq!(e, IntegrityError::ShardDegraded { shard: 0 });
        let start = Barrier::new(4);
        let (warm_tx, warm_rx) = mpsc::channel();
        let acked = std::thread::scope(|sc| {
            let writer = sc.spawn(|| {
                let mut rng = SmallRng::seed_from_u64(0x5A3E_0001);
                let mut acked = HashMap::new();
                start.wait();
                for i in 0..OPS {
                    if i == OPS / 3 {
                        warm_tx.send(()).unwrap();
                    }
                    let line = pick(&mut rng);
                    let tag = (i % 250) as u8 + 1;
                    match engine.write(line * 64, &SweepOp::payload(line, tag)) {
                        Ok(()) => {
                            acked.insert(line, tag);
                        }
                        Err(e) => typed(e),
                    }
                }
                acked
            });
            let reader = sc.spawn(|| {
                let mut rng = SmallRng::seed_from_u64(0x5A3E_0002);
                start.wait();
                for _ in 0..OPS {
                    let line = pick(&mut rng);
                    match engine.read(line * 64) {
                        Ok(got) => assert!(
                            got == [0; 64] || got[..8] == line.to_le_bytes(),
                            "line {line} read back another line's data"
                        ),
                        Err(e) => typed(e),
                    }
                }
            });
            let ticker = sc.spawn(|| {
                start.wait();
                for _ in 0..OPS {
                    engine.online_tick();
                }
            });
            let (eng, gate) = (&engine, &start);
            let repairer = sc.spawn(move || {
                gate.wait();
                warm_rx.recv().unwrap();
                poison_shard(eng, 0);
                for _ in 0..MAX_REPAIR_ATTEMPTS {
                    match eng.repair_shard(0, u64::MAX) {
                        RepairOutcome::Restored(_) => return,
                        RepairOutcome::Failed { .. } => {}
                        other => panic!("repair of the torn shard: {other:?}"),
                    }
                }
                panic!("repair never restored the shard");
            });
            reader.join().expect("reader unwound");
            ticker.join().expect("ticker unwound");
            repairer.join().expect("repairer unwound");
            writer.join().expect("writer unwound")
        });
        assert!(!engine.is_degraded(0));
        for (&line, &tag) in &acked {
            assert_eq!(
                engine.read(line * 64).unwrap(),
                SweepOp::payload(line, tag),
                "line {line} lost its last acknowledged write"
            );
        }
        let kinds: Vec<AlarmKind> = engine
            .drain_alarms()
            .events()
            .iter()
            .filter(|a| a.shard == 0 && a.addr.is_none())
            .map(|a| a.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                AlarmKind::ShardDegraded,
                AlarmKind::ShardRepairStarted,
                AlarmKind::ShardRestored
            ]
        );
    }

    #[test]
    fn worker_crash_mid_parallel_rebuild_restarts_only_that_region() {
        let cfg = small(SchemeKind::Steins);
        let ops = SweepOp::stream(29, cfg.data_lines.min(64), 32);
        let sweep = CrashSweep::new(cfg, 2, ops, PointSelection::AtMost(2));
        let report = sweep.run_worker_crashes(PointSelection::AtMost(2), 4);
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }
}
