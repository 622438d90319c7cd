//! Crash injection: what survives a power failure and what does not.
//!
//! Lost: the metadata cache (all dirty nodes — the recovery problem), the
//! CPU caches (dirty user lines — an application-level loss the persistent
//! workloads avoid by flushing), and all volatile scheme state (cache-tree
//! intermediates).
//!
//! Survives: the NVM contents including every write the write queue had
//! accepted (the queue is in the ADR domain), the ADR-cached record/bitmap
//! lines (flushed with residual power), and the on-chip NV registers — the
//! SIT root, Steins' LIncs and NV buffer, ASIT/STAR's cache-tree root.

use crate::config::{SchemeKind, SystemConfig};
use crate::diagnose;
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::linc::LincBank;
use crate::nvbuffer::NvBuffer;
use crate::par;
use crate::recovery::journal;
use crate::scheme::SchemeState;
use crate::scrub::ScrubReport;
use crate::shard::ShardedEngine;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, Once};
use steins_crypto::{CryptoEngine, FxHashMap};
use steins_metadata::{CounterMode, MemoryLayout, RootNode};
use steins_nvm::{CrashTripped, NvmDevice, PersistKind, PersistPoint};
use steins_trace::rng::SmallRng;

/// Per-scheme non-volatile remnants.
pub enum NvState {
    /// WB keeps nothing (and can recover nothing).
    WriteBack,
    /// ASIT: cache-tree root register + shadow-table tags (non-volatile
    /// alongside the table; see `scheme::asit`).
    Asit {
        /// NV cache-tree root.
        nv_root: u64,
        /// slot → node offset for occupied shadow entries.
        shadow_tags: HashMap<u64, u64>,
        /// ADR-domain pre-image of an in-flight shadow update (None after a
        /// clean boundary; Some exactly when the crash landed inside the
        /// shadow write, where the line may have torn).
        inflight: Option<crate::scheme::asit::AsitInflight>,
    },
    /// STAR: cache-tree root register.
    Star {
        /// NV cache-tree root.
        nv_root: u64,
    },
    /// Steins: LInc register + NV parent-counter buffer.
    Steins {
        /// The per-level trust bases.
        lincs: LincBank,
        /// Parked parent updates.
        nv_buffer: NvBuffer,
    },
}

/// A machine that lost power: only non-volatile state remains.
pub struct CrashedSystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) layout: MemoryLayout,
    pub(crate) crypto: Box<dyn CryptoEngine>,
    pub(crate) nvm: NvmDevice,
    pub(crate) root: RootNode,
    pub(crate) nv: NvState,
    /// Ground truth restricted to lines whose latest value was persisted
    /// (CPU-dirty lines are genuinely lost).
    pub(crate) truth: FxHashMap<u64, [u8; 64]>,
    /// Lines whose latest stores were lost in the CPU caches.
    pub(crate) lost_lines: Vec<u64>,
}

impl SecureNvmSystem {
    /// Pulls the power plug. Consumes the system; only non-volatile state
    /// crosses into the [`CrashedSystem`].
    pub fn crash(mut self) -> CrashedSystem {
        // CPU-cache-resident dirty lines are lost: their last-stored values
        // never reached the controller.
        let lost_lines = self.hier.dirty_lines();
        let mut truth = self.truth;
        for addr in &lost_lines {
            truth.remove(addr);
        }

        // ADR flush: residual power pushes the controller's ADR-domain lines
        // into NVM. (Write-queue entries were applied to the device at
        // acceptance, so they are already durable.)
        let nv = match self.ctrl.scheme {
            SchemeState::WriteBack => NvState::WriteBack,
            SchemeState::Asit(st) => NvState::Asit {
                nv_root: st.nv_root,
                shadow_tags: st.shadow_tags,
                inflight: st.inflight,
            },
            SchemeState::Star(mut st) => {
                for (addr, line) in st.bitmap_cache.crash_flush() {
                    self.ctrl.nvm.poke(addr, &line);
                }
                NvState::Star {
                    nv_root: st.nv_root,
                }
            }
            SchemeState::Steins(mut st) => {
                for (addr, line) in st.record_cache.crash_flush() {
                    self.ctrl.nvm.poke(addr, &line);
                }
                NvState::Steins {
                    lincs: st.lincs,
                    nv_buffer: st.nv_buffer,
                }
            }
        };

        CrashedSystem {
            cfg: self.cfg,
            layout: self.ctrl.layout,
            crypto: self.ctrl.crypto,
            nvm: self.ctrl.nvm,
            root: self.ctrl.root,
            nv,
            truth,
            lost_lines,
        }
    }
}

impl CrashedSystem {
    /// The configuration the machine ran with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// A live system around this image's durable state — NVM device, root
    /// registers, ground truth and the crashed machine's own crypto
    /// engine — with fresh volatile state and the scheme's initial
    /// registers. Every recoverer builds its rebuilt system here and then
    /// installs the scheme state it reconstructed.
    pub(crate) fn into_live(self) -> SecureNvmSystem {
        let mut sys = SecureNvmSystem::with_engine(self.cfg, self.crypto);
        sys.ctrl.nvm = self.nvm;
        sys.ctrl.root = self.root;
        sys.truth = self.truth;
        sys
    }

    /// Whether the scheme can recover at all.
    pub fn recoverable(&self) -> bool {
        !matches!(self.cfg.scheme, SchemeKind::WriteBack)
    }

    /// Lines whose latest values were lost in the volatile CPU caches.
    pub fn lost_lines(&self) -> &[u64] {
        &self.lost_lines
    }

    /// Raw NVM view (used by tests and the attack helpers).
    pub fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }

    /// Mutable NVM view — the media-fault injection surface (bit flips,
    /// stuck-at lines, unreadable lines land on the crashed image here).
    pub fn nvm_mut(&mut self) -> &mut NvmDevice {
        &mut self.nvm
    }
}

// ————————————— Exhaustive persist-boundary fault injection —————————————
//
// The NVM device numbers every durable-state transition (each accepted 64 B
// line write, each in-place ADR-line update). [`CrashSweep`] replays a fixed
// op stream through a [`ShardedEngine`] of N shards — N = 1 is the single
// controller — once to enumerate every shard's points, then for every
// (target shard, point k) replays the stream with the target's device armed
// to lose power the instant transition k completes. Only the target loses
// power: it recovers and the whole address space verifies; then the rest of
// the stream runs across every shard, its reads checked against the acked
// writes, and the space verifies again. Verifying means every acknowledged
// write reads back (which re-verifies the whole ancestor chain of every
// populated tree path), every shard's LInc registers match a from-scratch
// recomputation (Steins), the target's journal carries its own owner stamp,
// and untouched neighbours keep a pristine journal. A failing point is
// shrunk to a minimal op stream and printed with the first divergent node
// and a MAC-probe diagnosis (`debug_repro` style).

/// One operation of the fixed, replayable stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOp {
    /// Persistent store of a recognizable payload to data line `line`.
    Write {
        /// Data line index.
        line: u64,
        /// Payload tag (mixed with the line index).
        tag: u8,
    },
    /// Verified read of data line `line`.
    Read {
        /// Data line index.
        line: u64,
    },
}

impl SweepOp {
    /// Deterministic mixed stream over `lines` data lines: ~2/3 writes, a
    /// quarter of the traffic concentrated on 8 hot lines so counters
    /// advance far enough to exercise minor-overflow re-encryption (SC) and
    /// NV-buffer churn.
    pub fn stream(seed: u64, lines: u64, len: usize) -> Vec<SweepOp> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let line = if rng.next_u64() % 4 == 0 {
                    rng.gen_range(0, 8.min(lines))
                } else {
                    rng.gen_range(0, lines)
                };
                if rng.next_u64() % 3 < 2 {
                    SweepOp::Write {
                        line,
                        tag: rng.next_u64() as u8,
                    }
                } else {
                    SweepOp::Read { line }
                }
            })
            .collect()
    }

    /// The plaintext a `Write` stores: tag-filled, line index in front.
    pub fn payload(line: u64, tag: u8) -> [u8; 64] {
        let mut data = [tag; 64];
        data[..8].copy_from_slice(&line.to_le_bytes());
        data
    }
}

/// Which crash points of the enumeration to test.
#[derive(Clone, Copy, Debug)]
pub enum PointSelection {
    /// Every point (the exhaustive sweep).
    All,
    /// At most `n` points, evenly strided across the enumeration (the
    /// bounded in-test sweep). Always includes point 1.
    AtMost(usize),
}

impl PointSelection {
    /// Applies the selection to a point list, striding by index so the
    /// first and last points survive bounding.
    pub fn apply<T: Copy>(self, points: Vec<T>) -> Vec<T> {
        match self {
            PointSelection::All => points,
            PointSelection::AtMost(n) if n >= points.len() => points,
            PointSelection::AtMost(n) => {
                let n = n.max(1) as u64;
                let last = (points.len() - 1) as u64;
                (0..n)
                    .map(|i| points[(i * last / (n - 1).max(1)) as usize])
                    .collect()
            }
        }
    }
}

/// One nested probe: an outer crash on `shard`, then a second crash armed
/// at a persist point that shard's *recovery itself* fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestedJob {
    /// The shard both crashes are armed on.
    pub shard: usize,
    /// Outer persist point (1-based, on the shard's own device).
    pub outer: u64,
    /// Word mask of the outer crash (`0xFF` = whole line).
    pub outer_mask: u8,
    /// Inner persist point: an absolute sequence number on the same
    /// device (its persist clock keeps counting across the crash).
    pub inner: u64,
    /// Word mask of the inner crash.
    pub inner_mask: u8,
}

/// A minimized failing crash point.
#[derive(Clone, Debug)]
pub struct CrashRepro {
    /// Scheme/mode label ("Steins-SC" …), plus the probe kind.
    pub label: String,
    /// The shard the crash was armed on (0 for a single controller).
    pub shard: usize,
    /// The minimized op stream that still fails.
    pub ops: Vec<SweepOp>,
    /// Index of the op in flight when the crash hit (or of the
    /// post-recovery op that failed).
    pub op_index: usize,
    /// The failing persist point (1-based) within the minimized stream.
    pub crash_point: u64,
    /// What the tripping transition wrote.
    pub point: Option<PersistPoint>,
    /// The recovery/verification error.
    pub error: String,
    /// First divergent node/line plus MAC-probe diagnosis.
    pub divergent: String,
}

impl fmt::Display for CrashRepro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: crash point {} on shard {} (op {} of {}) is unrecoverable",
            self.label,
            self.crash_point,
            self.shard,
            self.op_index,
            self.ops.len()
        )?;
        if let Some(p) = self.point {
            writeln!(f, "  tripped at {:?} of addr {:#x}", p.kind, p.addr)?;
        }
        writeln!(f, "  error: {}", self.error)?;
        writeln!(f, "  divergence: {}", self.divergent)?;
        write!(f, "  ops: {:?}", self.ops)
    }
}

/// Result of sweeping one scheme/mode.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Scheme/mode label.
    pub label: String,
    /// Crash points the sweep enumerated, across every target shard.
    pub total_points: u64,
    /// Points actually injected and verified.
    pub tested_points: u64,
    /// Minimized repros for every failing point class found (capped).
    pub failures: Vec<CrashRepro>,
}

impl SweepReport {
    /// True when every tested point recovered and verified.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>10}: {:>5}/{:<5} crash points recovered & verified",
            self.label,
            self.tested_points - self.failures.len() as u64,
            self.tested_points
        )?;
        if self.total_points != self.tested_points {
            write!(f, " (of {} enumerated)", self.total_points)?;
        }
        for repro in &self.failures {
            write!(f, "\n{repro}")?;
        }
        Ok(())
    }
}

/// How a single injected crash point failed.
pub(crate) struct PointFailure {
    pub(crate) op_index: usize,
    pub(crate) point: Option<PersistPoint>,
    pub(crate) error: String,
    pub(crate) divergent: String,
}

/// What one crash promised, carried through however many recoveries it
/// takes to the final verify: the engine (target slot empty until a
/// recovered machine is reinstated, neighbours live) and the ground truth
/// reconciled against the in-flight op and the sacrificial torn line.
pub(crate) struct CrashCtx {
    pub(crate) engine: ShardedEngine,
    pub(crate) target: usize,
    pub(crate) k: u64,
    pub(crate) op_index: usize,
    pub(crate) trip: Option<PersistPoint>,
    /// Global address → content of every line that must read back.
    pub(crate) expected: HashMap<u64, [u8; 64]>,
    /// Global address of a data line destroyed by the tear (an in-place
    /// overwrite mixed old and new words); reads of it must fail closed.
    pub(crate) sacrificed: Option<u64>,
}

impl CrashCtx {
    fn fail(&self, error: impl Into<String>, divergent: impl Into<String>) -> PointFailure {
        PointFailure {
            op_index: self.op_index,
            point: self.trip,
            error: error.into(),
            divergent: divergent.into(),
        }
    }
}

/// A replayed stream with its target shard crashed at a (possibly torn)
/// point.
pub(crate) struct TornCrash {
    /// The target shard's power-cut image (local addresses).
    pub(crate) crashed: CrashedSystem,
    pub(crate) ctx: CrashCtx,
}

/// Outcome of arming a second crash *inside* recovery of an outer crash.
pub(crate) enum NestedRun {
    /// The inner point lay beyond recovery's horizon: recovery finished
    /// first and produced a fully recovered system.
    Completed(Box<SecureNvmSystem>),
    /// Strict recovery failed cleanly before the inner point tripped (a
    /// torn outer line can legitimately defeat fail-stop recovery).
    StrictFailed(IntegrityError),
    /// The inner crash tripped mid-recovery; the partial system — parked in
    /// the caller's slot before recovery's first durable write — lost power
    /// again. The doubly-crashed machine.
    Crashed(Box<CrashedSystem>),
}

/// The journal state the non-target shards must show at verify time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Neighbours {
    /// Untouched by a single-shard outage: a pristine `IDLE` journal.
    Idle,
    /// Co-recovered in a whole-engine outage: a finished journal stamped
    /// by themselves.
    CoRecovered,
}

/// The exhaustive persist-boundary fault-injection driver: replays one op
/// stream through a [`ShardedEngine`] of N shards (N = 1 is the single
/// controller), crashes one target shard at an armed persist point,
/// recovers only that shard, and verifies the whole address space.
pub struct CrashSweep {
    cfg: SystemConfig,
    shards: usize,
    ops: Vec<SweepOp>,
    selection: PointSelection,
    /// Point-test budget for shrinking a failure (0 disables shrinking).
    pub shrink_budget: usize,
    /// Stop after this many distinct failing points (keeps a badly broken
    /// scheme from taking forever).
    pub max_failures: usize,
}

/// Silences the panic hook for the intentional [`CrashTripped`] unwinds the
/// sweep throws (thousands per run); every other panic still reports
/// through the previously installed hook.
pub(crate) fn silence_crash_trips() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashTripped>() {
                return;
            }
            prev(info);
        }));
    });
}

fn restarts(report: &crate::recovery::RecoveryReport) -> u64 {
    report
        .metrics
        .counter("core.recovery.restarts")
        .unwrap_or(0)
}

impl CrashSweep {
    /// A sweep of `ops` (global line addresses) against `cfg` split across
    /// `shards` interleaved shards, testing the `selection` of each target
    /// shard's points.
    pub fn new(
        cfg: SystemConfig,
        shards: usize,
        ops: Vec<SweepOp>,
        selection: PointSelection,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        CrashSweep {
            cfg,
            shards,
            ops,
            selection,
            shrink_budget: 2_000,
            max_failures: 3,
        }
    }

    /// Convenience: sweep the standard stream on the small test config.
    pub fn small(
        scheme: SchemeKind,
        mode: CounterMode,
        shards: usize,
        ops: usize,
        selection: PointSelection,
    ) -> Self {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let ops = SweepOp::stream(0x5EED ^ ops as u64, 192, ops);
        CrashSweep::new(cfg, shards, ops, selection)
    }

    fn label(&self) -> String {
        let base = self.cfg.scheme.label(self.cfg.mode);
        if self.shards == 1 {
            base
        } else {
            format!("{base} x{}", self.shards)
        }
    }

    fn engine(&self) -> ShardedEngine {
        ShardedEngine::new(self.cfg.clone(), self.shards)
    }

    fn apply_op(engine: &ShardedEngine, op: SweepOp) -> Result<(), IntegrityError> {
        match op {
            SweepOp::Write { line, tag } => engine.write(line * 64, &SweepOp::payload(line, tag)),
            SweepOp::Read { line } => engine.read(line * 64).map(|_| ()),
        }
    }

    /// Runs `ops` to completion (no crash) with point journaling on,
    /// returning every shard's persist points, in shard order.
    fn enumerate(&self, ops: &[SweepOp]) -> Result<Vec<Vec<PersistPoint>>, IntegrityError> {
        let engine = self.engine();
        for s in 0..self.shards {
            engine.with_shard(s, |sys| sys.ctrl.nvm.journal_points(true));
        }
        for &op in ops {
            Self::apply_op(&engine, op)?;
        }
        Ok((0..self.shards)
            .map(|s| engine.with_shard(s, |sys| sys.ctrl.nvm.point_journal().to_vec()))
            .collect())
    }

    /// The enumerated point count and the selected `(shard, k)` list; with
    /// `tearable` only 64 B line writes count (ADR updates are sub-word and
    /// never tear).
    fn select_points(&self, tearable: bool) -> Result<(u64, Vec<(usize, u64)>), IntegrityError> {
        let mut total = 0;
        let mut selected = Vec::new();
        for (s, journal) in self.enumerate(&self.ops)?.iter().enumerate() {
            let points: Vec<u64> = journal
                .iter()
                .filter(|p| !tearable || p.kind == PersistKind::LineWrite)
                .map(|p| p.seq)
                .collect();
            total += points.len() as u64;
            selected.extend(self.selection.apply(points).into_iter().map(|k| (s, k)));
        }
        Ok((total, selected))
    }

    /// Enumerates the stream's persist points across every shard with a
    /// crash-free baseline run.
    pub fn total_points(&self) -> Result<u64, IntegrityError> {
        Ok(self.select_points(false)?.0)
    }

    /// The selected crash points as `(target shard, k)`: the unit list for
    /// point-parallel sweeps via [`Self::probe_point`].
    pub fn points(&self) -> Result<Vec<(usize, u64)>, IntegrityError> {
        Ok(self.select_points(false)?.1)
    }

    /// The selected 64 B line-write points as `(target shard, k)`: the
    /// unit list for point-parallel torn sweeps via
    /// [`Self::probe_point_torn`].
    pub fn tearable_points(&self) -> Result<Vec<(usize, u64)>, IntegrityError> {
        Ok(self.select_points(true)?.1)
    }

    /// Replays `ops` with a (possibly torn) crash armed at persist point
    /// `k` of shard `target`, then reconciles ground truth. `Ok(None)` when
    /// `k` lies beyond that shard's horizon. Shared with the randomized
    /// fault campaign.
    pub(crate) fn crash_torn(
        &self,
        ops: &[SweepOp],
        target: usize,
        k: u64,
        word_mask: u8,
    ) -> Result<Option<TornCrash>, PointFailure> {
        silence_crash_trips();
        let engine = self.engine();
        engine.with_shard(target, |sys| sys.ctrl.nvm.arm_crash_torn(k, word_mask));

        // Replay until the armed point pulls the plug.
        let mut acked: HashMap<u64, [u8; 64]> = HashMap::new();
        let mut in_flight: Option<(usize, SweepOp)> = None;
        for (i, &op) in ops.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| Self::apply_op(&engine, op))) {
                Ok(Ok(())) => {
                    if let SweepOp::Write { line, tag } = op {
                        acked.insert(line * 64, SweepOp::payload(line, tag));
                    }
                }
                Ok(Err(e)) => {
                    return Err(PointFailure {
                        op_index: i,
                        point: None,
                        error: format!("integrity error before the crash: {e}"),
                        divergent: "runtime state diverged pre-crash".into(),
                    });
                }
                Err(payload) => {
                    if !payload.is::<CrashTripped>() {
                        std::panic::resume_unwind(payload);
                    }
                    in_flight = Some((i, op));
                    break;
                }
            }
        }
        let Some((op_index, op)) = in_flight else {
            // Armed beyond the target's horizon: nothing to test.
            return Ok(None);
        };
        let trip = engine.with_shard(target, |sys| {
            let t = sys.ctrl.nvm.tripped_at();
            sys.ctrl.nvm.disarm_crash();
            t
        });

        // Only the target loses power; neighbours keep their CPU-dirty
        // lines and queues. Reconcile ground truth for the op the crash
        // interrupted: its store is durable iff the tripping transition was
        // the data line's own *full* write (the MAC record rides the same
        // line's ECC bits, so the pair is atomic; a torn line is never an
        // acknowledged store). The trip address is local to the target.
        let map = *engine.map();
        let mut expected = acked.clone();
        let mut crashed = engine.crash_shard(target);
        if let SweepOp::Write { line, tag } = op {
            let addr = line * 64;
            let (_, local) = map.route(addr);
            let durable = word_mask == 0xFF
                && trip.is_some_and(|p| p.kind == PersistKind::LineWrite && p.addr == local);
            if durable {
                let data = SweepOp::payload(line, tag);
                crashed.truth.insert(local, data);
                expected.insert(addr, data);
            } else {
                match acked.get(&addr) {
                    Some(v) => {
                        crashed.truth.insert(local, *v);
                    }
                    None => {
                        crashed.truth.remove(&local);
                    }
                }
            }
        }

        // A partial tear of a *data* line destroys that line's previous
        // content too — the in-place overwrite mixed old and new words, an
        // inherent hazard of journal-free in-place data updates. The line is
        // sacrificial: it must fail closed (MAC mismatch), and every other
        // acked line must still read back.
        let mut sacrificed = None;
        if word_mask != 0xFF {
            if let Some(p) = trip {
                if p.kind == PersistKind::LineWrite && crashed.layout.is_data(p.addr) {
                    let addr = map.global_line(target, p.addr / 64) * 64;
                    sacrificed = Some(addr);
                    expected.remove(&addr);
                    crashed.truth.remove(&p.addr);
                }
            }
        }

        Ok(Some(TornCrash {
            crashed,
            ctx: CrashCtx {
                engine,
                target,
                k,
                op_index,
                trip,
                expected,
                sacrificed,
            },
        }))
    }

    /// WB has no recovery: under any injection its contract is to say so.
    fn refuses_recovery(crashed: CrashedSystem, ctx: &CrashCtx) -> Result<(), PointFailure> {
        match crashed.recover() {
            Err(IntegrityError::RecoveryUnsupported) => Ok(()),
            other => Err(ctx.fail(
                format!(
                    "WB must refuse recovery, got {:?}",
                    other.as_ref().err().map(|e| e.to_string())
                ),
                "n/a",
            )),
        }
    }

    /// Liveness after recovery: the rest of the stream (skipping the
    /// interrupted op, whose ack never reached the caller) runs across
    /// every shard — the recovered one included. Its reads of acked lines
    /// must return the acked content, and its writes join the expectations.
    fn continue_stream(ops: &[SweepOp], ctx: &mut CrashCtx) -> Result<(), PointFailure> {
        let trip = ctx.trip;
        let serving = "every shard must keep serving the stream after recovery";
        for (i, &op) in ops.iter().enumerate().skip(ctx.op_index + 1) {
            let fail = |error: String, divergent: &str| PointFailure {
                op_index: i,
                point: trip,
                error,
                divergent: divergent.into(),
            };
            match op {
                SweepOp::Write { line, tag } => {
                    let data = SweepOp::payload(line, tag);
                    ctx.engine
                        .write(line * 64, &data)
                        .map_err(|e| fail(format!("post-recovery op failed: {e}"), serving))?;
                    ctx.expected.insert(line * 64, data);
                }
                SweepOp::Read { line } => {
                    let addr = line * 64;
                    let got = ctx
                        .engine
                        .read(addr)
                        .map_err(|e| fail(format!("post-recovery op failed: {e}"), serving))?;
                    if let Some(want) = ctx.expected.get(&addr).filter(|&&want| want != got) {
                        return Err(fail(
                            format!("post-recovery read of {addr:#x} diverged"),
                            &format!("got {:02x?}…, want {:02x?}…", &got[..8], &want[..8]),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The whole-line contract once the target is reinstated: the space
    /// verifies as recovery left it, then the rest of the stream runs
    /// across every shard and the space verifies again. The first verify
    /// keeps a later overwrite from hiding a rolled-back ack.
    fn verify_and_continue(
        &self,
        ops: &[SweepOp],
        ctx: &mut CrashCtx,
        neighbours: Neighbours,
    ) -> Result<(), PointFailure> {
        self.verify(ops, ctx, neighbours)?;
        Self::continue_stream(ops, ctx)?;
        self.verify(ops, ctx, neighbours)
    }

    /// Verifies the whole engine once the target shard is reinstated:
    /// every expected line on every shard reads back through the router
    /// (which re-verifies the ancestor chain of every populated tree path),
    /// the sacrificed line fails closed, every shard's LInc registers match
    /// a from-scratch recomputation, the target's journal carries its own
    /// owner stamp, and the neighbours' journals are in the `neighbours`
    /// state.
    fn verify(
        &self,
        ops: &[SweepOp],
        ctx: &CrashCtx,
        neighbours: Neighbours,
    ) -> Result<(), PointFailure> {
        let map = ctx.engine.map();
        let mut lines: Vec<u64> = ctx.expected.keys().copied().collect();
        lines.sort_unstable();
        for addr in lines {
            let want = ctx.expected[&addr];
            let owner = map.shard_of(addr / 64);
            match ctx.engine.read(addr) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    return Err(ctx.fail(
                        format!("acked write at {addr:#x} diverged after recovery"),
                        format!(
                            "shard {owner} data line {}: got {:02x?}…, want {:02x?}…",
                            map.local_line(addr / 64),
                            &got[..8],
                            &want[..8]
                        ),
                    ));
                }
                Err(e) => {
                    let divergent = if owner == ctx.target {
                        self.diagnose_error(ops, ctx.target, ctx.k, &e)
                    } else {
                        format!("owned by neighbour shard {owner}")
                    };
                    return Err(ctx.fail(format!("read-back of {addr:#x} failed: {e}"), divergent));
                }
            }
        }

        if let Some(addr) = ctx.sacrificed {
            if ctx.engine.read(addr).is_ok() {
                return Err(ctx.fail(
                    format!("torn data line {addr:#x} read back Ok"),
                    "a torn line must fail its MAC, never return mixed words",
                ));
            }
        }

        for s in 0..self.shards {
            let bad = ctx.engine.with_shard(s, |sys| {
                if let (Some(stored), Some(expect)) = (sys.ctrl.lincs(), sys.ctrl.recompute_lincs())
                {
                    if stored != expect {
                        return Some((
                            "LInc registers inconsistent after recovery",
                            format!("shard {s} lincs stored {stored:?} != recomputed {expect:?}"),
                        ));
                    }
                }
                let owner = sys.ctrl.nvm.journal_owner();
                let phase = sys.ctrl.nvm.recovery_journal().phase;
                let state = format!(
                    "shard {s} journal phase {} stamped by shard {owner}",
                    journal::name(phase)
                );
                if s == ctx.target {
                    (owner != s as u16)
                        .then_some(("recovered journal stamped by another shard", state))
                } else {
                    match neighbours {
                        Neighbours::Idle => (phase != journal::IDLE)
                            .then_some(("untouched neighbour journal is not IDLE", state)),
                        Neighbours::CoRecovered => (journal::in_progress(phase)
                            || owner != s as u16)
                            .then_some(("co-recovered neighbour journal is unfinished", state)),
                    }
                }
            });
            if let Some((error, divergent)) = bad {
                return Err(ctx.fail(error, divergent));
            }
        }
        Ok(())
    }

    /// Injects a (possibly torn) crash at point `k` of shard `target` —
    /// only `word_mask`'s 8-byte words of the tripping line persist — and
    /// checks the contract: strict recovery of the target succeeds without
    /// a restart and the whole space verifies, the torn line failing
    /// closed; after a whole-line crash the rest of the stream then runs
    /// across every shard and the space verifies again. A tear may instead
    /// make strict recovery error cleanly, in which case the lenient scrub
    /// must salvage everything except the torn line itself, without
    /// panicking.
    fn test_point_torn(
        &self,
        ops: &[SweepOp],
        target: usize,
        k: u64,
        word_mask: u8,
    ) -> Result<(), PointFailure> {
        let Some(TornCrash { crashed, mut ctx }) = self.crash_torn(ops, target, k, word_mask)?
        else {
            return Ok(());
        };
        if !crashed.recoverable() {
            return Self::refuses_recovery(crashed, &ctx);
        }
        match ctx.engine.recover_shard(target, crashed) {
            Ok(report) => {
                let restarts = restarts(&report);
                if restarts != 0 {
                    return Err(ctx.fail(
                        format!("first recovery reported {restarts} restarts"),
                        "a single crash starts from an idle journal",
                    ));
                }
                if word_mask == 0xFF {
                    self.verify_and_continue(ops, &mut ctx, Neighbours::Idle)
                } else {
                    self.verify(ops, &ctx, Neighbours::Idle)
                }
            }
            // Whole-line persists must always recover strictly.
            Err(strict) if word_mask == 0xFF => Err(ctx.fail(
                strict.to_string(),
                self.diagnose_error(ops, target, k, &strict),
            )),
            Err(strict) => {
                // A torn line may defeat strict (fail-stop) recovery — e.g.
                // a torn in-place node flush fails its MAC exactly like
                // tampering. The lenient scrub must then rebuild everything
                // from the data plane.
                let Some(TornCrash { crashed, ctx }) =
                    self.crash_torn(ops, target, k, word_mask)?
                else {
                    return Err(ctx.fail("crash image not reproducible for the scrub", "n/a"));
                };
                self.scrub_and_verify(ops, crashed, &ctx, &strict, 0)
            }
        }
    }

    /// Scrubs a (possibly doubly-) crashed target image and checks the
    /// lenient contract against the outer crash's expectations.
    fn scrub_and_verify(
        &self,
        ops: &[SweepOp],
        crashed: CrashedSystem,
        ctx: &CrashCtx,
        strict: &IntegrityError,
        min_restarts: u64,
    ) -> Result<(), PointFailure> {
        match catch_unwind(AssertUnwindSafe(move || crashed.recover_lenient())) {
            Ok((sys, report)) => self.check_scrub(ops, ctx, sys, &report, strict, min_restarts),
            Err(_) => Err(ctx.fail(
                format!("scrub panicked (strict error: {strict})"),
                "lenient recovery must be total",
            )),
        }
    }

    /// The lenient contract: an interrupted prior pass is visible as a
    /// restart, nothing beyond the sacrificed line is lost, a system comes
    /// back, and — reinstated into the target slot — it verifies.
    fn check_scrub(
        &self,
        ops: &[SweepOp],
        ctx: &CrashCtx,
        sys: Option<SecureNvmSystem>,
        report: &ScrubReport,
        strict: &IntegrityError,
        min_restarts: u64,
    ) -> Result<(), PointFailure> {
        if report.restarts < min_restarts {
            return Err(ctx.fail(
                format!(
                    "scrub after an interrupted pass reported {} restarts, need ≥ {min_restarts}",
                    report.restarts
                ),
                "the ADR journal must record the interrupted attempt",
            ));
        }
        let map = ctx.engine.map();
        if let Some(bad) = report
            .unrecoverable_addrs
            .iter()
            .map(|&local| map.global_line(ctx.target, local / 64) * 64)
            .find(|&addr| Some(addr) != ctx.sacrificed)
        {
            return Err(ctx.fail(
                format!("scrub lost durable data at {bad:#x} (strict error: {strict})"),
                format!("{report}"),
            ));
        }
        let Some(sys) = sys else {
            return Err(ctx.fail(
                "scrub returned no system for a recoverable scheme",
                format!("{report}"),
            ));
        };
        ctx.engine.put_shard(ctx.target, sys);
        self.verify(ops, ctx, Neighbours::Idle)
    }

    /// Rebuilds the target's crashed image for point `k` and probes which
    /// counter the failing MAC actually corresponds to (`debug_repro`
    /// style).
    fn diagnose_error(&self, ops: &[SweepOp], target: usize, k: u64, e: &IntegrityError) -> String {
        let Ok(Some(TornCrash { crashed, ctx })) = self.crash_torn(ops, target, k, 0xFF) else {
            return "state not reproducible".into();
        };
        let probe = SecureNvmSystem::new(ctx.engine.shard_config().clone()); // same key/layout
        match *e {
            IntegrityError::NodeMac { node } => {
                let geo = &crashed.layout.geometry;
                let off = geo.offset_of(node);
                let line = crashed.nvm.peek(crashed.layout.node_addr(off));
                let n = steins_metadata::SitNode::from_line(self.cfg.mode, node.level, &line);
                let pc = match geo.parent_of(node) {
                    None => crashed.root.get(geo.root_slot(node)),
                    Some((pid, slot)) => {
                        let pline = crashed
                            .nvm
                            .peek(crashed.layout.node_addr(geo.offset_of(pid)));
                        steins_metadata::SitNode::general_from_line(&pline)
                            .counters
                            .as_general()
                            .get(slot)
                    }
                };
                format!(
                    "node {node:?}: {}",
                    diagnose::probe_node_mac(&probe.ctrl, &n, off, pc, 4096)
                )
            }
            IntegrityError::DataMac { addr } => {
                let dline = addr / 64;
                let (laddr, byte) = crashed.layout.mac_slot(dline);
                let rec = crate::cme::MacRecord::read_slot(&crashed.nvm.peek(laddr), byte / 16);
                let (mj, _) = crate::cme::MacRecord::unpack_recovery(rec.recovery);
                let data = crashed.nvm.peek(addr & !63);
                let span = self.cfg.mode.leaf_coverage().max(64);
                format!(
                    "data line {dline}: {}",
                    diagnose::probe_data_mac(&probe.ctrl, addr & !63, &data, rec.mac, mj, 8, span)
                )
            }
            IntegrityError::LIncMismatch {
                level,
                stored,
                recomputed,
            } => {
                format!("LInc level {level}: register {stored} vs recomputed {recomputed}")
            }
            ref other => format!("{other}"),
        }
    }

    /// Finds the first failing point of `ops` on shard `target`, spending
    /// at most `budget` point tests. Returns the point and its failure.
    fn first_failure(
        &self,
        ops: &[SweepOp],
        target: usize,
        budget: &mut usize,
    ) -> Option<(u64, PointFailure)> {
        let total = self.enumerate(ops).ok()?.get(target)?.len() as u64;
        for k in 1..=total {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            if let Err(fail) = self.test_point_torn(ops, target, k, 0xFF) {
                return Some((k, fail));
            }
        }
        None
    }

    /// Shrinks a failing (ops, point) pair: cut the ops past the failing
    /// one, then greedily drop earlier ops while *some* point still fails.
    fn shrink(&self, target: usize, k: u64, fail: PointFailure) -> CrashRepro {
        let mut budget = self.shrink_budget;
        let mut best_ops = self.ops.clone();
        // Later ops only matter through the post-recovery continuation, so
        // the cut usually still fails; keep it only if it does.
        let cut = &self.ops[..=fail.op_index];
        let mut best = (k, fail);
        if cut.len() < best_ops.len() {
            if let Some(found) = self.first_failure(cut, target, &mut budget) {
                best_ops = cut.to_vec();
                best = found;
            }
        }
        // Try dropping each earlier op, latest first (later ops are least
        // likely to be load-bearing for the corruption).
        let mut j = best_ops.len().saturating_sub(1);
        while j > 0 && budget > 0 {
            j -= 1;
            let mut candidate = best_ops.clone();
            candidate.remove(j);
            if let Some(found) = self.first_failure(&candidate, target, &mut budget) {
                best_ops = candidate;
                best = found;
            }
        }
        let (crash_point, fail) = best;
        CrashRepro {
            label: self.label(),
            shard: target,
            op_index: fail.op_index,
            crash_point,
            point: fail.point,
            error: fail.error,
            divergent: fail.divergent,
            ops: best_ops,
        }
    }

    /// A failure's repro (not greedily shrunk). With `cut` the ops past the
    /// failing op are dropped — sound only for probes that never run the
    /// stream past the crash.
    fn repro(
        &self,
        label: String,
        target: usize,
        k: u64,
        fail: PointFailure,
        cut: bool,
    ) -> CrashRepro {
        let ops = if cut {
            &self.ops[..=fail.op_index]
        } else {
            &self.ops[..]
        };
        CrashRepro {
            label,
            shard: target,
            ops: ops.to_vec(),
            op_index: fail.op_index,
            crash_point: k,
            point: fail.point,
            error: fail.error,
            divergent: fail.divergent,
        }
    }

    /// Injects a whole-line crash at point `k` of shard `target`, recovers
    /// and verifies; on failure returns the minimized repro. The unit of
    /// work for point-parallel sweeps (each call replays the stream from
    /// scratch).
    pub fn probe_point(&self, target: usize, k: u64) -> Option<CrashRepro> {
        self.test_point_torn(&self.ops, target, k, 0xFF)
            .err()
            .map(|fail| self.shrink(target, k, fail))
    }

    /// Torn variant of [`Self::probe_point`]: at point `k` only the 8-byte
    /// words selected by `word_mask` persist (bit *i* ⇒ word *i* durable;
    /// `0x00` drops the write, `0xFF` is the classic full persist). Failures
    /// are not greedily shrunk; a torn failure's ops end at the failing op
    /// (a torn probe never continues the stream).
    pub fn probe_point_torn(&self, target: usize, k: u64, word_mask: u8) -> Option<CrashRepro> {
        self.test_point_torn(&self.ops, target, k, word_mask)
            .err()
            .map(|fail| {
                let label = format!("{} torn {word_mask:#04x}", self.label());
                self.repro(label, target, k, fail, word_mask != 0xFF)
            })
    }

    /// Runs `probe` over an enumerated `(total, jobs)` list, stopping at
    /// [`Self::max_failures`]. A failed enumeration — the stream does not
    /// complete without a crash — is the report's only failure.
    fn run_jobs<J>(
        &self,
        label: String,
        enumerated: Result<(u64, Vec<J>), IntegrityError>,
        probe: impl Fn(J) -> Option<CrashRepro>,
    ) -> SweepReport {
        let (total_points, jobs) = match enumerated {
            Ok(e) => e,
            Err(e) => {
                return SweepReport {
                    label: label.clone(),
                    total_points: 0,
                    tested_points: 0,
                    failures: vec![CrashRepro {
                        label,
                        shard: 0,
                        ops: self.ops.clone(),
                        op_index: 0,
                        crash_point: 0,
                        point: None,
                        error: format!("baseline run failed: {e}"),
                        divergent: "stream does not complete without a crash".into(),
                    }],
                };
            }
        };
        let mut failures = Vec::new();
        let mut tested_points = 0u64;
        for job in jobs {
            tested_points += 1;
            if let Some(repro) = probe(job) {
                failures.push(repro);
                if failures.len() >= self.max_failures {
                    break;
                }
            }
        }
        SweepReport {
            label,
            total_points,
            tested_points,
            failures,
        }
    }

    /// Runs the sweep: the whole-line probe at every selected point of
    /// every target shard.
    pub fn run(&self) -> SweepReport {
        self.run_jobs(self.label(), self.select_points(false), |(s, k)| {
            self.probe_point(s, k)
        })
    }

    /// Sweeps torn-write variants: for each selected `LineWrite` persist
    /// point, re-runs the stream crashing there under every mask in
    /// `word_masks` (bit *i* ⇒ 8-byte word *i* persists). ADR updates are
    /// sub-word and never tear, so only line writes are enumerated.
    pub fn run_torn(&self, word_masks: &[u8]) -> SweepReport {
        let jobs = self.select_points(true).map(|(total, points)| {
            let jobs: Vec<(usize, u64, u8)> = points
                .into_iter()
                .flat_map(|(s, k)| word_masks.iter().map(move |&m| (s, k, m)))
                .collect();
            (total * word_masks.len() as u64, jobs)
        });
        self.run_jobs(format!("{} torn", self.label()), jobs, |(s, k, m)| {
            self.probe_point_torn(s, k, m)
        })
    }

    // ———————— Nested injection: crash *during* recovery ————————
    //
    // The recovery state machine journals its progress in the ADR domain
    // (`RecoveryJournal`), parks the partial system in the caller's slot
    // before its first durable write, and replays each phase re-entrantly.
    // These drivers prove it: reproduce an outer crash, re-arm the target's
    // device at a persist point *recovery itself* fires (journal updates,
    // record and shadow rewrites, scrub pokes — pokes are traced as
    // tearable points during injection), crash again, and require the
    // second recovery to converge on the same verified state.

    /// Enumerates the persist points recovery fires for the outer crash
    /// `(target, k, outer_mask)`: journal updates, record/shadow line
    /// writes, and — with poke tracing on — every in-place rewrite. When a
    /// torn outer defeats strict recovery the scrub's points are enumerated
    /// instead (that is the path a second crash would interrupt). Empty
    /// when `k` is beyond the horizon or the scheme cannot recover.
    pub(crate) fn recovery_points(
        &self,
        target: usize,
        k: u64,
        outer_mask: u8,
    ) -> Result<Vec<PersistPoint>, PointFailure> {
        let Some(TornCrash { mut crashed, .. }) =
            self.crash_torn(&self.ops, target, k, outer_mask)?
        else {
            return Ok(Vec::new());
        };
        if !crashed.recoverable() {
            return Ok(Vec::new());
        }
        crashed.nvm.trace_pokes(true);
        crashed.nvm.journal_points(true);
        let mut slot = None;
        if crashed.recover_into(&mut slot).is_ok() {
            let sys = slot.take().expect("recovery parks the rebuilt system");
            return Ok(sys.ctrl.nvm.point_journal().to_vec());
        }
        // Strict recovery refused (torn outer): the scrub is what a second
        // crash would interrupt — enumerate its points instead.
        let Some(TornCrash { mut crashed, .. }) =
            self.crash_torn(&self.ops, target, k, outer_mask)?
        else {
            return Ok(Vec::new());
        };
        crashed.nvm.trace_pokes(true);
        crashed.nvm.journal_points(true);
        let mut slot = None;
        let _report = crashed.recover_lenient_into(&mut slot);
        Ok(slot
            .map(|s| s.ctrl.nvm.point_journal().to_vec())
            .unwrap_or_default())
    }

    /// Reproduces the outer crash of `job`, re-arms the target's device at
    /// the job's inner point (torn by its inner mask for line writes) with
    /// poke tracing on, and runs strict recovery once. Returns how the
    /// nested run ended plus the outer crash's context. `Ok(None)` when the
    /// outer point lies beyond the target's horizon.
    pub(crate) fn crash_nested(
        &self,
        job: NestedJob,
    ) -> Result<Option<(NestedRun, CrashCtx)>, PointFailure> {
        let Some(TornCrash { mut crashed, ctx }) =
            self.crash_torn(&self.ops, job.shard, job.outer, job.outer_mask)?
        else {
            return Ok(None);
        };
        crashed.nvm.trace_pokes(true);
        crashed.nvm.arm_crash_torn(job.inner, job.inner_mask);
        let mut slot = None;
        let run = match catch_unwind(AssertUnwindSafe(|| crashed.recover_into(&mut slot))) {
            Ok(Ok(_report)) => {
                let Some(mut sys) = slot.take() else {
                    return Err(ctx.fail(
                        "recovery returned Ok without parking the system",
                        "recover_into must fill the caller's slot",
                    ));
                };
                sys.ctrl.nvm.disarm_crash();
                sys.ctrl.nvm.trace_pokes(false);
                NestedRun::Completed(Box::new(sys))
            }
            Ok(Err(e)) => NestedRun::StrictFailed(e),
            Err(payload) => {
                if !payload.is::<CrashTripped>() {
                    std::panic::resume_unwind(payload);
                }
                let Some(mut partial) = slot.take() else {
                    return Err(ctx.fail(
                        format!(
                            "inner crash at point {} tripped before recovery parked the system",
                            job.inner
                        ),
                        "recovery must park before its first durable write",
                    ));
                };
                partial.ctrl.nvm.disarm_crash();
                partial.ctrl.nvm.trace_pokes(false);
                NestedRun::Crashed(Box::new(partial.crash()))
            }
        };
        Ok(Some((run, ctx)))
    }

    /// Tests one nested point: the outer crash, a second crash at a
    /// recovery-time point, then a *second* recovery of the doubly-crashed
    /// target. The contract:
    /// * WB refuses recovery at every nested point;
    /// * if the inner point never tripped, the single recovery verifies;
    /// * if it tripped, recovery must have parked a partial system whose
    ///   second recovery verifies — reporting `core.recovery.restarts ≥ 1`
    ///   unless the journal already read `DONE` (the inner crash landed on
    ///   recovery's final durable write);
    /// * only a torn write may defeat the strict path, in which case the
    ///   lenient scrub must salvage everything but the sacrificed line —
    ///   including when the inner crash interrupts the scrub itself;
    /// * untouched neighbours keep a pristine journal throughout.
    fn test_point_nested(&self, job: NestedJob) -> Result<(), PointFailure> {
        let Some((run, ctx)) = self.crash_nested(job)? else {
            return Ok(());
        };
        if matches!(self.cfg.scheme, SchemeKind::WriteBack) {
            return match run {
                NestedRun::StrictFailed(IntegrityError::RecoveryUnsupported) => Ok(()),
                _ => Err(ctx.fail("WB must refuse recovery under nested injection", "n/a")),
            };
        }
        let (k, j) = (job.outer, job.inner);
        match run {
            NestedRun::Completed(sys) => {
                ctx.engine.put_shard(job.shard, *sys);
                self.verify(&self.ops, &ctx, Neighbours::Idle)
            }
            NestedRun::Crashed(crashed2) => {
                let finished = !journal::in_progress(crashed2.nvm.recovery_journal().phase);
                match ctx.engine.recover_shard(job.shard, *crashed2) {
                    Ok(report2) => {
                        if restarts(&report2) == 0 && !finished {
                            return Err(ctx.fail(
                                format!(
                                    "second recovery after inner crash at {j} reported no restart"
                                ),
                                "the shard's own ADR journal must record the interrupted attempt",
                            ));
                        }
                        self.verify(&self.ops, &ctx, Neighbours::Idle)
                    }
                    Err(strict) if job.outer_mask == 0xFF && job.inner_mask == 0xFF => Err(ctx
                        .fail(
                            format!("clean nested crash {k}>{j} failed second recovery: {strict}"),
                            "untorn nested crashes must recover strictly",
                        )),
                    Err(strict) => self.nested_scrub_leg(job, &ctx, &strict),
                }
            }
            // Whole-line outer persists must always recover strictly — the
            // inner crash never even fired here.
            NestedRun::StrictFailed(strict) if job.outer_mask == 0xFF => Err(ctx.fail(
                strict.to_string(),
                self.diagnose_error(&self.ops, job.shard, k, &strict),
            )),
            NestedRun::StrictFailed(strict) => self.nested_scrub_leg(job, &ctx, &strict),
        }
    }

    /// The lenient leg of a nested point: reproduces the nested run and
    /// scrubs whatever state the double fault left — the doubly-crashed
    /// partial machine, or the outer image with the inner crash re-armed
    /// against the scrub's own persist points (including a trip *during*
    /// the scrub, which must journal `SCRUB` and complete on the next
    /// lenient pass).
    fn nested_scrub_leg(
        &self,
        job: NestedJob,
        outer: &CrashCtx,
        strict: &IntegrityError,
    ) -> Result<(), PointFailure> {
        let Some((run, ctx)) = self.crash_nested(job)? else {
            return Err(outer.fail("nested crash not reproducible for the scrub", "n/a"));
        };
        match run {
            NestedRun::Completed(_) => Err(ctx.fail(
                "nested run is nondeterministic: completed on replay",
                format!("first attempt failed with: {strict}"),
            )),
            NestedRun::Crashed(crashed2) => {
                let phase = crashed2.nvm.recovery_journal().phase;
                let min_restarts = u64::from(journal::in_progress(phase));
                self.scrub_and_verify(&self.ops, *crashed2, &ctx, strict, min_restarts)
            }
            NestedRun::StrictFailed(_) => {
                // Strict recovery refused before the inner point tripped:
                // the scrub is what runs next, with the inner crash armed
                // against its own rewrites.
                let Some(TornCrash { mut crashed, ctx }) =
                    self.crash_torn(&self.ops, job.shard, job.outer, job.outer_mask)?
                else {
                    return Err(outer.fail("outer crash not reproducible for the scrub", "n/a"));
                };
                crashed.nvm.trace_pokes(true);
                crashed.nvm.arm_crash_torn(job.inner, job.inner_mask);
                let mut slot = None;
                match catch_unwind(AssertUnwindSafe(|| crashed.recover_lenient_into(&mut slot))) {
                    Ok(report) => {
                        // Inner point beyond the scrub's horizon: the plain
                        // scrub contract applies.
                        let mut sys = slot.take();
                        if let Some(sys) = sys.as_mut() {
                            sys.ctrl.nvm.disarm_crash();
                            sys.ctrl.nvm.trace_pokes(false);
                        }
                        self.check_scrub(&self.ops, &ctx, sys, &report, strict, 0)
                    }
                    Err(payload) => {
                        if !payload.is::<CrashTripped>() {
                            std::panic::resume_unwind(payload);
                        }
                        let Some(mut partial) = slot.take() else {
                            return Err(ctx.fail(
                                format!(
                                    "inner crash at {} tripped before the scrub parked the system",
                                    job.inner
                                ),
                                "the scrub must park before its first rewrite",
                            ));
                        };
                        partial.ctrl.nvm.disarm_crash();
                        partial.ctrl.nvm.trace_pokes(false);
                        let crashed3 = partial.crash();
                        // The interrupted scrub must be journaled: strict
                        // recovery is no longer sound on this image. A trip
                        // on the scrub's final write legitimately reads
                        // `DONE` — all durable work already landed.
                        let phase = crashed3.nvm.recovery_journal().phase;
                        if phase != journal::SCRUB && phase != journal::DONE {
                            return Err(ctx.fail(
                                "interrupted scrub left no SCRUB journal entry",
                                format!("journal phase {}", journal::name(phase)),
                            ));
                        }
                        let min_restarts = u64::from(journal::in_progress(phase));
                        self.scrub_and_verify(&self.ops, crashed3, &ctx, strict, min_restarts)
                    }
                }
            }
        }
    }

    /// Probes one nested point, returning the repro on failure (truncated
    /// to the failing op, not greedily shrunk).
    pub fn probe_point_nested(&self, job: NestedJob) -> Option<CrashRepro> {
        self.test_point_nested(job).err().map(|fail| {
            let label = format!(
                "{} nested {}>{} masks {:#04x}>{:#04x}",
                self.label(),
                job.outer,
                job.inner,
                job.outer_mask,
                job.inner_mask
            );
            self.repro(label, job.shard, job.outer, fail, true)
        })
    }

    /// Enumerates the nested sweep's jobs: for every target shard, every
    /// selected outer point × outer mask, the persist points *recovery
    /// itself* fires, bounded by `inner_sel`. ADR journal updates are
    /// sub-word and never tear, so torn inner masks only pair with line
    /// writes; torn outer masks restrict the outer list to line writes.
    /// When recovery fires no points (WB's refusal, or a pre-crash error)
    /// one synthetic beyond-horizon inner point keeps the contract checked.
    /// The unit list for point-parallel nested sweeps via
    /// [`Self::probe_point_nested`].
    pub fn nested_jobs(
        &self,
        outer_masks: &[u8],
        inner_masks: &[u8],
        inner_sel: PointSelection,
    ) -> Result<Vec<NestedJob>, IntegrityError> {
        let mut jobs = Vec::new();
        for (shard, journal) in self.enumerate(&self.ops)?.iter().enumerate() {
            for &outer_mask in outer_masks {
                let outer = self.selection.apply(
                    journal
                        .iter()
                        .filter(|p| outer_mask == 0xFF || p.kind == PersistKind::LineWrite)
                        .map(|p| p.seq)
                        .collect(),
                );
                for k in outer {
                    let inner = self
                        .recovery_points(shard, k, outer_mask)
                        .unwrap_or_default();
                    let inner = if inner.is_empty() {
                        vec![PersistPoint {
                            seq: k + 1,
                            kind: PersistKind::AdrUpdate,
                            addr: 0,
                        }]
                    } else {
                        inner_sel.apply(inner)
                    };
                    for p in &inner {
                        for &inner_mask in inner_masks {
                            if p.kind != PersistKind::LineWrite && inner_mask != 0xFF {
                                // ADR updates are sub-word: they never tear.
                                continue;
                            }
                            jobs.push(NestedJob {
                                shard,
                                outer: k,
                                outer_mask,
                                inner: p.seq,
                                inner_mask,
                            });
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// The nested sweep, serially: [`Self::nested_jobs`] × the per-point
    /// nested contract check.
    pub fn run_nested(
        &self,
        outer_masks: &[u8],
        inner_masks: &[u8],
        inner_sel: PointSelection,
    ) -> SweepReport {
        let jobs = self
            .nested_jobs(outer_masks, inner_masks, inner_sel)
            .map(|jobs| (jobs.len() as u64, jobs));
        self.run_jobs(format!("{} nested", self.label()), jobs, |job| {
            self.probe_point_nested(job)
        })
    }

    /// Probes one *worker* crash: a whole-line crash on `target` at `k`,
    /// then a whole-engine outage (neighbours power-cut at their own op
    /// boundaries), then a parallel [`ShardedEngine::recover_all`]-style
    /// rebuild by `workers` threads with a second crash armed at absolute
    /// persist point `j` on the target's device. The worker driving the
    /// target's region trips mid-rebuild and is caught in its region job;
    /// every other region must finish without a restart. The target is
    /// then crashed again and strictly re-recovered; its ADR journal (now
    /// carrying the interrupted attempt's mark) must report `core.recovery.restarts ≥ 1`
    /// unless the inner crash landed after `DONE`. Finally the whole space
    /// verifies, neighbours co-recovered, before and after the rest of the
    /// stream runs.
    pub fn probe_point_worker_crash(
        &self,
        target: usize,
        k: u64,
        j: u64,
        workers: usize,
    ) -> Option<CrashRepro> {
        self.test_point_worker_crash(target, k, j, workers)
            .err()
            .map(|fail| {
                let label = format!("{} worker-crash {k}>{j} w{workers}", self.label());
                self.repro(label, target, k, fail, false)
            })
    }

    fn test_point_worker_crash(
        &self,
        target: usize,
        k: u64,
        j: u64,
        workers: usize,
    ) -> Result<(), PointFailure> {
        enum Region {
            Done(u64),
            Tripped,
            Failed(String),
        }

        let Some(TornCrash {
            mut crashed,
            mut ctx,
        }) = self.crash_torn(&self.ops, target, k, 0xFF)?
        else {
            return Ok(());
        };
        if !crashed.recoverable() {
            return Self::refuses_recovery(crashed, &ctx);
        }

        // Whole-engine outage: the target crashed mid-op (already
        // reconciled); every neighbour loses power at its own op boundary.
        // The inner crash is armed on the target's device only.
        crashed.nvm.arm_crash_torn(j, 0xFF);
        let mut target_img = Some(crashed);
        let images: Vec<Mutex<Option<CrashedSystem>>> = (0..self.shards)
            .map(|s| {
                Mutex::new(Some(if s == target {
                    target_img.take().expect("one target image")
                } else {
                    ctx.engine.crash_shard(s)
                }))
            })
            .collect();

        let workers = workers.clamp(1, par::MAX_WORKERS);
        let partials: Vec<Mutex<Option<SecureNvmSystem>>> =
            (0..self.shards).map(|_| Mutex::new(None)).collect();
        let (outcomes, _steals) = par::run_regions(workers, self.shards, |s, _w| {
            let img = images[s]
                .lock()
                .unwrap()
                .take()
                .expect("each region runs exactly once");
            let mut slot = None;
            match catch_unwind(AssertUnwindSafe(|| img.recover_into(&mut slot))) {
                Ok(Ok(report)) => {
                    let Some(mut sys) = slot.take() else {
                        return Region::Failed("recovery returned Ok without parking".into());
                    };
                    sys.ctrl.nvm.disarm_crash();
                    ctx.engine.put_shard(s, sys);
                    Region::Done(restarts(&report))
                }
                Ok(Err(e)) => Region::Failed(format!("strict recovery failed: {e}")),
                Err(payload) => {
                    if !payload.is::<CrashTripped>() {
                        std::panic::resume_unwind(payload);
                    }
                    match slot.take() {
                        Some(mut partial) => {
                            partial.ctrl.nvm.disarm_crash();
                            *partials[s].lock().unwrap() = Some(partial);
                            Region::Tripped
                        }
                        None => Region::Failed(
                            "inner crash tripped before recovery parked the system".into(),
                        ),
                    }
                }
            }
        });

        let mut target_finished = true;
        for (s, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Region::Done(0) => {}
                Region::Done(restarts) => {
                    return Err(ctx.fail(
                        format!("uninterrupted region {s} reported {restarts} restarts"),
                        "only the crashed worker's region may restart",
                    ));
                }
                Region::Tripped if s == target => target_finished = false,
                Region::Tripped => {
                    return Err(ctx.fail(
                        format!("inner crash armed on shard {target} tripped region {s}"),
                        "regions recover off their own devices",
                    ));
                }
                Region::Failed(e) => {
                    return Err(ctx.fail(
                        format!("region {s}: {e}"),
                        "untorn parallel regions must recover strictly",
                    ));
                }
            }
        }

        if !target_finished {
            // Re-crash the interrupted worker's region and recover it
            // strictly; its journal must carry the interrupted attempt.
            let partial = partials[target]
                .lock()
                .unwrap()
                .take()
                .expect("tripped region parks its partial");
            let crashed2 = partial.crash();
            let finished = !journal::in_progress(crashed2.nvm.recovery_journal().phase);
            match ctx.engine.recover_shard(target, crashed2) {
                Ok(report2) if restarts(&report2) == 0 && !finished => {
                    return Err(ctx.fail(
                        format!("second recovery after worker crash at {j} reported no restart"),
                        "the worker's progress mark must survive in the shard's ADR journal",
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    return Err(ctx.fail(
                        format!("worker crash {k}>{j} failed second recovery: {e}"),
                        "untorn nested crashes must recover strictly",
                    ));
                }
            }
        }

        self.verify_and_continue(&self.ops, &mut ctx, Neighbours::CoRecovered)
    }

    /// The worker-crash sweep: every whole-line nested job (bounded by the
    /// sweep's selection and `inner_sel`) probed as a worker crash under a
    /// `workers`-thread parallel rebuild.
    pub fn run_worker_crashes(&self, inner_sel: PointSelection, workers: usize) -> SweepReport {
        let jobs = self
            .nested_jobs(&[0xFF], &[0xFF], inner_sel)
            .map(|jobs| (jobs.len() as u64, jobs));
        let label = format!("{} worker-crash w{workers}", self.label());
        self.run_jobs(label, jobs, |job| {
            self.probe_point_worker_crash(job.shard, job.outer, job.inner, workers)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_metadata::CounterMode;

    #[test]
    fn crash_preserves_persisted_truth_and_drops_cpu_dirty() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let mut sys = SecureNvmSystem::new(cfg);
        // write() flushes, so this line is persisted truth.
        sys.write(0x100 * 64, &[7; 64]).unwrap();
        let crashed = sys.crash();
        assert!(crashed.truth.contains_key(&(0x100 * 64)));
        assert!(crashed.recoverable());
    }

    #[test]
    fn wb_is_not_recoverable() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::WriteBack, CounterMode::General);
        let sys = SecureNvmSystem::new(cfg);
        assert!(!sys.crash().recoverable());
    }

    #[test]
    fn sweep_stream_is_deterministic_and_mixed() {
        let a = SweepOp::stream(42, 64, 200);
        let b = SweepOp::stream(42, 64, 200);
        assert_eq!(a, b);
        assert!(a.iter().any(|op| matches!(op, SweepOp::Write { .. })));
        assert!(a.iter().any(|op| matches!(op, SweepOp::Read { .. })));
        let c = SweepOp::stream(43, 64, 200);
        assert_ne!(a, c, "different seeds must give different streams");
    }

    fn single(scheme: SchemeKind, ops: usize, selection: PointSelection) -> CrashSweep {
        CrashSweep::small(scheme, CounterMode::General, 1, ops, selection)
    }

    #[test]
    fn steins_gc_sampled_points_all_recover() {
        let report = single(SchemeKind::Steins, 40, PointSelection::AtMost(24)).run();
        assert!(report.total_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// Regression: (Steins, GC, crash point 1). The sweep's minimal repro
    /// was a single `Write { line: 5, tag: 128 }` crashing at the very
    /// first persist event (the ADR drain-slot update): `L0Inc` was bumped
    /// before the data line + MacRecord were durable, so recovery
    /// recomputed 0 against a stored 1. Fixed by moving the LInc bump to
    /// ride the data push's persist event.
    #[test]
    fn steins_gc_point_1_single_write_recovers() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = vec![SweepOp::Write { line: 5, tag: 128 }];
        let sweep = CrashSweep::new(cfg, 1, ops, PointSelection::All);
        for (s, k) in sweep.points().unwrap() {
            assert!(sweep.probe_point(s, k).is_none(), "point {k} must recover");
        }
    }

    /// Regression: (ASIT, GC) — the sweep found 67/180 unrecoverable
    /// points from two bugs: the cache-tree register was committed *after*
    /// the shadow push's persist event (register and shadow could tear),
    /// and the shadow leaf legitimately runs one increment ahead of the
    /// data plane between the shadow push and the data push (reconciled
    /// against MacRecords at recovery). Both orderings live in
    /// `asit_slot_update` / `recover_asit`.
    #[test]
    fn asit_gc_sampled_points_all_recover() {
        let report = single(SchemeKind::Asit, 40, PointSelection::AtMost(24)).run();
        assert!(report.total_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// Regression: (STAR, GC) — the sweep found 46/136 unrecoverable
    /// points: at a clean→dirty transition the register covered the
    /// post-mutation node while recovery reconstructs the pre-mutation
    /// content, and the set-MAC included the HMAC field, which the flush
    /// path rewrites without any counter changing. Fixed by the pre-image
    /// substitution in `star_tree_update_with` (refresh deferred to the
    /// mutation's own persist event) and by zeroing `hmac` in the set-MAC
    /// on both the runtime and recovery sides.
    #[test]
    fn star_gc_sampled_points_all_recover() {
        let report = single(SchemeKind::Star, 40, PointSelection::AtMost(24)).run();
        assert!(report.total_points > 0);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn wb_sweep_passes_via_recovery_unsupported_contract() {
        let report = single(SchemeKind::WriteBack, 24, PointSelection::AtMost(12)).run();
        assert!(report.clean(), "{report}");
    }

    /// Batching stops at the crypto: for a fixed trace, the multi-lane
    /// (batched) crypto presentation must drive the *exact* durable-state
    /// transition sequence the serial presentation does — same persist
    /// events, same order, same addresses — or crash-point enumeration
    /// would silently change meaning between the two paths. Compared via a
    /// sequence hash (and the raw journals, for a readable diff on
    /// failure) across the schemes whose hot paths present batches.
    #[test]
    fn batched_flush_persist_sequence_matches_serial() {
        use steins_crypto::{RealCrypto, SerialPresentation};

        fn journal(
            scheme: SchemeKind,
            mode: CounterMode,
            serial: bool,
        ) -> (u64, Vec<PersistPoint>) {
            let cfg = SystemConfig::small_for_tests(scheme, mode);
            let mut sys = if serial {
                let eng = SerialPresentation(RealCrypto::new(cfg.secret_key()));
                SecureNvmSystem::with_engine(cfg, Box::new(eng))
            } else {
                SecureNvmSystem::new(cfg)
            };
            sys.ctrl.nvm.trace_pokes(true);
            sys.ctrl.nvm.journal_points(true);
            for op in SweepOp::stream(0xBA7C4ED, 64, 300) {
                let run = match op {
                    SweepOp::Write { line, tag } => {
                        sys.write(line * 64, &SweepOp::payload(line, tag))
                    }
                    SweepOp::Read { line } => sys.read(line * 64).map(|_| ()),
                };
                run.expect("trace must run clean");
            }
            let points = sys.ctrl.nvm.point_journal().to_vec();
            // FNV-1a over (seq, kind, addr) — the sequence hash.
            let mut h = 0xcbf29ce484222325u64;
            for p in &points {
                for w in [p.seq, p.kind as u64, p.addr] {
                    for b in w.to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                    }
                }
            }
            (h, points)
        }

        for (scheme, mode) in [
            (SchemeKind::Steins, CounterMode::General),
            (SchemeKind::Steins, CounterMode::Split), // minor overflow ⇒ batched re-encryption
            (SchemeKind::Asit, CounterMode::General), // cache-tree level batches
        ] {
            let (bh, bj) = journal(scheme, mode, false);
            let (sh, sj) = journal(scheme, mode, true);
            assert!(
                !bj.is_empty(),
                "{scheme:?}/{mode:?}: trace persisted nothing"
            );
            assert_eq!(bj, sj, "{scheme:?}/{mode:?}: persist sequences diverge");
            assert_eq!(bh, sh, "{scheme:?}/{mode:?}: sequence hash diverges");
        }
    }

    #[test]
    fn bounded_selection_covers_first_and_last_point() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = SweepOp::stream(7, 64, 20);
        let total = CrashSweep::new(cfg, 1, ops, PointSelection::All)
            .total_points()
            .unwrap();
        assert!(total > 16, "stream too short to exercise striding");
        // AtMost(n) with n < total must stride from 1 to total inclusive.
        let points = PointSelection::AtMost(8).apply((1..=total).collect());
        assert_eq!(points[0], 1);
        assert_eq!(*points.last().unwrap(), total);
        assert_eq!(points.len(), 8);
        assert!(points.windows(2).all(|w| w[0] < w[1]), "{points:?}");
    }

    /// Torn-write contract, sampled per recoverable scheme: at every
    /// selected line-write boundary, tearing the line (prefix, sparse,
    /// dropped) must leave every *other* acked line recoverable — strictly
    /// or via the scrub — with the torn line failing closed.
    fn torn_sweep(scheme: SchemeKind) {
        let report = single(scheme, 25, PointSelection::AtMost(10)).run_torn(&[0x00, 0x0F, 0x5A]);
        assert!(report.total_points > 0, "no tearable points enumerated");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn steins_gc_torn_points_recover_or_scrub() {
        torn_sweep(SchemeKind::Steins);
    }

    #[test]
    fn asit_gc_torn_points_recover_or_scrub() {
        torn_sweep(SchemeKind::Asit);
    }

    #[test]
    fn star_gc_torn_points_recover_or_scrub() {
        torn_sweep(SchemeKind::Star);
    }

    #[test]
    fn wb_torn_points_keep_refusing_recovery() {
        torn_sweep(SchemeKind::WriteBack);
    }

    #[test]
    fn full_mask_torn_sweep_matches_classic_contract() {
        // mask 0xFF through the torn driver must behave exactly like the
        // classic whole-line sweep: strict recovery at every point.
        let sweep = CrashSweep::small(
            SchemeKind::Steins,
            CounterMode::Split,
            1,
            20,
            PointSelection::AtMost(8),
        );
        let report = sweep.run_torn(&[0xFF]);
        assert!(report.clean(), "{report}");
    }

    /// Nested contract, sampled per scheme: crash at an outer point, crash
    /// *again* during recovery, and require the second recovery (or scrub)
    /// to converge — the recovery state machine is restartable.
    fn nested_sweep(scheme: SchemeKind) {
        let sweep = single(scheme, 18, PointSelection::AtMost(5));
        let report = sweep.run_nested(&[0xFF, 0x0F], &[0xFF, 0x0F], PointSelection::AtMost(4));
        assert!(report.tested_points > 0, "no nested points enumerated");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn steins_gc_nested_points_all_recover() {
        nested_sweep(SchemeKind::Steins);
    }

    #[test]
    fn asit_gc_nested_points_all_recover() {
        nested_sweep(SchemeKind::Asit);
    }

    #[test]
    fn star_gc_nested_points_all_recover() {
        nested_sweep(SchemeKind::Star);
    }

    #[test]
    fn wb_nested_points_keep_refusing_recovery() {
        nested_sweep(SchemeKind::WriteBack);
    }

    #[test]
    fn interrupted_recovery_reports_restart_metrics() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = SweepOp::stream(0xD0C5, 64, 20);
        let sweep = CrashSweep::new(cfg, 1, ops, PointSelection::All);
        let k = sweep.total_points().unwrap() / 2;
        let inner = sweep.recovery_points(0, k, 0xFF).ok().unwrap();
        assert!(!inner.is_empty(), "recovery fires no persist points");
        // Trip on recovery's very first durable write (the phase journal
        // update), then recover the doubly-crashed machine.
        let job = NestedJob {
            shard: 0,
            outer: k,
            outer_mask: 0xFF,
            inner: inner[0].seq,
            inner_mask: 0xFF,
        };
        let (run, _ctx) = sweep.crash_nested(job).ok().unwrap().unwrap();
        let NestedRun::Crashed(crashed2) = run else {
            panic!("inner point must trip mid-recovery");
        };
        assert!(
            journal::in_progress(crashed2.nvm.recovery_journal().phase),
            "interrupted recovery must leave an in-progress journal phase"
        );
        let (_sys, report) = crashed2.recover().unwrap();
        assert!(
            restarts(&report) >= 1,
            "second recovery must report a restart"
        );
        assert_eq!(
            report.metrics.counter("core.recovery.resumed"),
            Some(1),
            "second recovery must report it resumed a journaled attempt"
        );
    }

    #[test]
    fn crash_repro_display_names_the_point() {
        let repro = CrashRepro {
            label: "Steins-GC".into(),
            shard: 1,
            ops: vec![SweepOp::Write { line: 3, tag: 9 }],
            op_index: 0,
            crash_point: 17,
            point: Some(PersistPoint {
                seq: 17,
                kind: PersistKind::AdrUpdate,
                addr: 0x40,
            }),
            error: "LInc registers inconsistent after recovery".into(),
            divergent: "lincs stored [1] != recomputed [2]".into(),
        };
        let s = repro.to_string();
        assert!(s.contains("crash point 17 on shard 1"), "{s}");
        assert!(s.contains("AdrUpdate"), "{s}");
        assert!(s.contains("LInc"), "{s}");
    }

    // ———— Every verify check can fail: doctored cases ————

    /// A whole-line crash on `target` mid-stream, strictly recovered and
    /// reinstated, ready for a (doctored) verify.
    fn recovered(shards: usize, target: usize) -> (CrashSweep, CrashCtx) {
        let sweep = CrashSweep::small(
            SchemeKind::Steins,
            CounterMode::General,
            shards,
            80,
            PointSelection::All,
        );
        let points = sweep.points().unwrap();
        let k = points.iter().filter(|p| p.0 == target).count() as u64 / 2;
        let Ok(Some(TornCrash { crashed, ctx })) = sweep.crash_torn(&sweep.ops, target, k, 0xFF)
        else {
            panic!("point {k} lies inside the stream");
        };
        ctx.engine.recover_shard(target, crashed).unwrap();
        assert!(
            sweep.verify(&sweep.ops, &ctx, Neighbours::Idle).is_ok(),
            "the undoctored case verifies"
        );
        (sweep, ctx)
    }

    fn verify_error(sweep: &CrashSweep, ctx: &CrashCtx, neighbours: Neighbours) -> String {
        match sweep.verify(&sweep.ops, ctx, neighbours) {
            Ok(()) => panic!("doctored case verified"),
            Err(fail) => format!("{}: {}", fail.error, fail.divergent),
        }
    }

    #[test]
    fn verify_flags_acked_line_divergence() {
        let (sweep, mut ctx) = recovered(1, 0);
        let addr = *ctx.expected.keys().min().expect("acked lines");
        ctx.expected.get_mut(&addr).unwrap()[63] ^= 1;
        let err = verify_error(&sweep, &ctx, Neighbours::Idle);
        assert!(err.contains("diverged after recovery"), "{err}");
    }

    #[test]
    fn verify_flags_sacrificed_line_reading_back() {
        let (sweep, mut ctx) = recovered(1, 0);
        ctx.sacrificed = Some(*ctx.expected.keys().min().expect("acked lines"));
        let err = verify_error(&sweep, &ctx, Neighbours::Idle);
        assert!(
            err.contains("torn data line") && err.contains("read back Ok"),
            "{err}"
        );
    }

    #[test]
    fn verify_flags_neighbour_journal_not_idle() {
        let (sweep, ctx) = recovered(2, 0);
        let neighbour = ctx.engine.crash_shard(1);
        ctx.engine.recover_shard(1, neighbour).unwrap();
        let err = verify_error(&sweep, &ctx, Neighbours::Idle);
        assert!(err.contains("not IDLE") && err.contains("shard 1"), "{err}");
        // The same engine is what a whole-engine outage leaves behind.
        assert!(sweep
            .verify(&sweep.ops, &ctx, Neighbours::CoRecovered)
            .is_ok());
    }

    /// The first acked line whose first touch after the crash is a write
    /// (`write`) or a read.
    fn acked_line_touched_next_by(sweep: &CrashSweep, ctx: &CrashCtx, write: bool) -> u64 {
        let mut seen = std::collections::HashSet::new();
        sweep.ops[ctx.op_index + 1..]
            .iter()
            .find_map(|&op| {
                let (line, is_write) = match op {
                    SweepOp::Write { line, .. } => (line, true),
                    SweepOp::Read { line } => (line, false),
                };
                let addr = line * 64;
                (seen.insert(addr) && is_write == write && ctx.expected.contains_key(&addr))
                    .then_some(addr)
            })
            .expect("the rest of the stream touches an acked line")
    }

    /// Doctors a recovery that rolled an acked line back to its
    /// never-written content, under a valid MAC.
    fn roll_back(ctx: &CrashCtx, addr: u64) {
        ctx.engine.write(addr, &[0; 64]).unwrap();
    }

    #[test]
    fn rollback_hidden_by_a_later_overwrite_is_flagged() {
        let (sweep, mut ctx) = recovered(1, 0);
        let addr = acked_line_touched_next_by(&sweep, &ctx, true);
        roll_back(&ctx, addr);
        // Continuing first would hide the rollback behind the overwrite…
        assert!(CrashSweep::continue_stream(&sweep.ops, &mut ctx).is_ok());
        assert!(sweep.verify(&sweep.ops, &ctx, Neighbours::Idle).is_ok());
        // …so the whole-line contract verifies before it continues.
        let (sweep, mut ctx) = recovered(1, 0);
        roll_back(&ctx, addr);
        let err = match sweep.verify_and_continue(&sweep.ops, &mut ctx, Neighbours::Idle) {
            Ok(()) => panic!("rolled-back ack verified"),
            Err(fail) => fail.error,
        };
        assert!(
            err.contains(&format!("{addr:#x} diverged after recovery")),
            "{err}"
        );
    }

    #[test]
    fn continuation_flags_a_diverging_read() {
        let (sweep, mut ctx) = recovered(1, 0);
        let addr = acked_line_touched_next_by(&sweep, &ctx, false);
        roll_back(&ctx, addr);
        let err = match CrashSweep::continue_stream(&sweep.ops, &mut ctx) {
            Ok(()) => panic!("rolled-back read passed"),
            Err(fail) => fail.error,
        };
        assert!(
            err.contains(&format!("post-recovery read of {addr:#x} diverged")),
            "{err}"
        );
    }
}
