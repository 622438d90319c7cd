//! The three workloads and the checkpoint they share.
//!
//! Every workload drives a [`ShardedEngine`] through its public calls only
//! (`replay` uses one shard, so its single [`SecureNvmSystem`] is reached
//! with `with_shard`). A workload has a timed foreground — closed-loop
//! serving, trace replay, or fill-and-read-back rounds — and checkpoints:
//! crash every shard, recover them in parallel, read back every
//! acknowledged line, and run one full online scrub pass.

use std::time::{Duration, Instant};

use steins_core::engine::synth_data;
use steins_core::{OnlinePolicy, SchemeKind, SecureNvmSystem, ShardedEngine, SystemConfig};
use steins_crypto::engine::make_engine;
use steins_crypto::CryptoKind;
use steins_trace::rng::SmallRng;
use steins_trace::{OpKind, TraceOp, Workload as TraceWorkload, WorkloadKind};

use crate::stats::{best_decile, median, Counts, Latencies};
use crate::tracer::{tracer, TracedCrypto};

/// Worker threads for `recover_all`.
pub const RECOVERY_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Replay,
    Recover,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serve" => Some(Workload::Serve),
            "replay" => Some(Workload::Replay),
            "recover" => Some(Workload::Recover),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Replay => "replay",
            Workload::Recover => "recover",
        }
    }

    /// The system configuration and shard count the workload runs.
    pub fn config(self) -> (SystemConfig, usize) {
        match self {
            Workload::Serve | Workload::Recover => {
                let mut cfg =
                    SystemConfig::sweep(SchemeKind::Steins, steins_core::CounterMode::General);
                cfg.crypto = CryptoKind::Real;
                (cfg, 4)
            }
            Workload::Replay => (
                SystemConfig::sweep(SchemeKind::Steins, steins_core::CounterMode::Split),
                1,
            ),
        }
    }

    /// Span names of the foreground calls that per-op layer figures are
    /// attributed to.
    pub fn fg_roots(self) -> &'static [&'static str] {
        match self {
            Workload::Serve | Workload::Recover => &["core.shard.write", "core.shard.read"],
            Workload::Replay => &["core.run_trace"],
        }
    }

    /// The fixed amount of work one pass does with tracing on (the
    /// untraced and traced passes must do exactly the same work).
    pub fn traced_steps(self) -> u64 {
        match self {
            Workload::Serve => 30_000,
            Workload::Replay => 64,
            Workload::Recover => 3,
        }
    }
}

/// How much foreground work a pass does: host time, or a fixed count of
/// steps (serve: client ops; replay: trace segments; recover: rounds).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Time(Duration),
    Steps(u64),
}

/// A deliberate fault, for proving that each correctness check can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt the client's own record of some acknowledged values.
    ServeShadow,
    /// Flip a bit in the stored copy of served lines.
    ServeFlip,
    /// Flip a bit in one acknowledged line after recovery.
    ReadbackFlip,
    /// Flip a bit in acknowledged lines just before the scrub pass.
    ScrubFlip,
    /// Flip a bit in lines the trace stored, mid-replay.
    TraceFlip,
}

impl Inject {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-shadow" => Some(Inject::ServeShadow),
            "serve-flip" => Some(Inject::ServeFlip),
            "readback-flip" => Some(Inject::ReadbackFlip),
            "scrub-flip" => Some(Inject::ScrubFlip),
            "trace-flip" => Some(Inject::TraceFlip),
            _ => None,
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub setup_reps: usize,
    pub inject: Option<Inject>,
    pub traced: bool,
}

/// Correctness accounting: every checked operation is attempted; typed
/// errors, mismatches and failed checks count as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// One whole-engine crash and parallel recovery.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    pub crash_s: f64,
    pub recover_s: f64,
    /// Makespan reads at the configured per-read latency (Fig. 17).
    pub modeled_s: f64,
    pub reads: u64,
    pub nodes: u64,
    pub makespan_reads: u64,
    pub workers: usize,
    pub steals: u64,
}

/// One full online scrub pass over every shard.
#[derive(Clone, Debug, Default)]
pub struct Scrub {
    pub seconds: f64,
    pub scanned: u64,
}

/// One memory access of the foreground, for the standalone CPU-cache
/// replay: global address and kind.
pub type MemOp = (u64, OpKind);

/// Everything one pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    /// Foreground ops: client calls (serve), trace loads and stores
    /// (replay), fill writes and read-back reads (recover).
    pub fg_ops: u64,
    /// User line writes among them.
    pub fg_writes: u64,
    /// Host seconds spent in the timed foreground.
    pub fg_seconds: f64,
    /// `fg_ops` at the first crash, if there was one.
    pub ops_before_crash: Option<u64>,
    pub wlat: Latencies,
    pub rlat: Latencies,
    /// Foreground throughput per chunk of work (ops/s): every
    /// [`RATE_CHUNK`] client ops (serve), every `run_trace` segment
    /// (replay), every fill or read-back phase (recover).
    pub rates: Vec<f64>,
    /// Registry deltas over the foreground (plus `bench.sim_cycles`).
    pub fg: Counts,
    /// Registry figures over recoveries, scrubs and checkpoint read-backs.
    pub ck: Counts,
    pub recoveries: Vec<Recovery>,
    pub scrubs: Vec<Scrub>,
    /// Dirty metadata-cache nodes over slots, at each crash (serve, which
    /// never crashes: at the end of its foreground).
    pub dirty_occupancy: Vec<f64>,
    pub checks: Checks,
    /// Foreground memory accesses, recorded on traced passes only.
    pub mem_ops: Vec<MemOp>,
    pub shard_cfg: Option<SystemConfig>,
    pub shards: usize,
    pub workload: Option<Workload>,
}

impl Outcome {
    /// Median of `f` over the recoveries; `None` when nothing crashed.
    pub fn per_recovery(&self, f: impl Fn(&Recovery) -> f64) -> Option<f64> {
        let v: Vec<f64> = self.recoveries.iter().map(f).collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Host seconds per recovery, over the best tenth of the recoveries.
    pub fn recover_s(&self) -> Option<f64> {
        let v: Vec<f64> = self.recoveries.iter().map(|r| r.recover_s).collect();
        (!v.is_empty()).then(|| best_decile(&v, false))
    }

    /// Host seconds per full scrub pass, over the best tenth of passes.
    pub fn scrub_s(&self) -> f64 {
        best_decile(
            &self.scrubs.iter().map(|c| c.seconds).collect::<Vec<_>>(),
            false,
        )
    }

    /// Foreground ops per second, over the best tenth of the chunks.
    pub fn ops_per_s(&self) -> f64 {
        best_decile(&self.rates, true)
    }

    /// Mean modeled latency of the foreground's memory writes or reads
    /// (`core.write` / `core.read`). Defined only for a trace-driven
    /// foreground: the direct write/read API advances the controller's
    /// clock but not the core's, so each call's modeled latency counts
    /// from cycle 0 and grows with the run.
    pub fn sim_latency(&self, layer: &str) -> Option<f64> {
        (self.workload == Some(Workload::Replay))
            .then(|| self.fg.hist_mean(&format!("{layer}.latency_cycles")))
    }

    pub fn sim_exec_cycles_per_op(&self) -> f64 {
        self.fg.counter(SIM_CYCLES) as f64 / self.fg_ops.max(1) as f64
    }
}

/// Modeled makespan cycles accumulated over foreground sections.
const SIM_CYCLES: &str = "bench.sim_cycles";

/// Builds the engine. With `traced`, every shard's system is rebuilt
/// around a [`TracedCrypto`] wrapper of the engine it would have had and
/// swapped in, so the traced program differs only in the wrapper.
pub fn build_engine(cfg: &SystemConfig, shards: usize, traced: bool) -> ShardedEngine {
    let eng = ShardedEngine::new(cfg.clone(), shards);
    if traced {
        let scfg = eng.shard_config().clone();
        for s in 0..shards {
            drop(eng.take_shard(s));
            let crypto = Box::new(TracedCrypto(make_engine(scfg.crypto, scfg.secret_key())));
            let mut sys = SecureNvmSystem::with_engine(scfg.clone(), crypto);
            sys.ctrl.nvm_mut().set_shard(s as u16);
            eng.put_shard(s, sys);
        }
    }
    eng
}

fn dirty_nodes(eng: &ShardedEngine) -> u64 {
    (0..eng.shards())
        .map(|s| eng.with_shard(s, |sys| sys.ctrl.meta_dirty_offsets().len() as u64))
        .sum()
}

fn dirty_occupancy(eng: &ShardedEngine) -> f64 {
    let slots = eng.shard_config().meta_cache.slots() * eng.shards() as u64;
    dirty_nodes(eng) as f64 / slots as f64
}

/// Flips one bit of the stored copy of the line at global `addr`.
fn flip(eng: &ShardedEngine, addr: u64) {
    let (s, local) = eng.map().route(addr);
    eng.with_shard(s, |sys| sys.ctrl.nvm_mut().inject_bit_flip(local, 5, 3));
}

/// Runs `step` in batches of `batch` until the engine's dirty metadata
/// node count stops rising (grows by at most 1% over a batch, after at
/// least three batches; at most 64 batches). Returns the steps run.
fn level_off(eng: &ShardedEngine, batch: u64, mut step: impl FnMut()) -> u64 {
    let mut prev = 0u64;
    for b in 0..64u64 {
        for _ in 0..batch {
            step();
        }
        let d = dirty_nodes(eng);
        if b >= 2 && d as f64 <= prev as f64 * 1.01 {
            return (b + 1) * batch;
        }
        prev = d;
    }
    64 * batch
}

/// Last acknowledged value per line.
#[derive(Default)]
pub struct Shadow(Vec<Option<[u8; 64]>>);

impl Shadow {
    fn set(&mut self, line: u64, v: [u8; 64]) {
        let i = line as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(v);
    }

    fn get(&self, line: u64) -> Option<&[u8; 64]> {
        self.0.get(line as usize).and_then(|v| v.as_ref())
    }

    fn lines(&self) -> impl Iterator<Item = (u64, &[u8; 64])> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u64, v)))
    }

    fn len(&self) -> usize {
        self.0.iter().filter(|v| v.is_some()).count()
    }
}

fn payload(rng: &mut SmallRng) -> [u8; 64] {
    let mut p = [0u8; 64];
    for c in p.chunks_exact_mut(8) {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    p
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One checked write through the shard front.
fn write_line(
    eng: &ShardedEngine,
    shadow: &mut Shadow,
    checks: &mut Checks,
    lat: &mut Latencies,
    line: u64,
    data: [u8; 64],
) {
    checks.attempted += 1;
    let t = Instant::now();
    let r = {
        let _g = tracer().span("core.shard.write");
        eng.write(line * 64, &data)
    };
    lat.push(since(t));
    match r {
        Ok(()) => shadow.set(line, data),
        Err(e) => checks.fail(format!("write of line {line}: {e}")),
    }
}

/// One checked read through the shard front: the value must equal the
/// last acknowledged write (zeros for a line never written).
fn read_line(
    eng: &ShardedEngine,
    shadow: &Shadow,
    checks: &mut Checks,
    lat: &mut Latencies,
    span: &'static str,
    line: u64,
) {
    checks.attempted += 1;
    let t = Instant::now();
    let r = {
        let _g = tracer().span(span);
        eng.read(line * 64)
    };
    lat.push(since(t));
    let want = shadow.get(line).copied().unwrap_or([0u8; 64]);
    match r {
        Ok(got) if got == want => {}
        Ok(_) => checks.fail(format!("line {line} read back different bytes")),
        Err(e) => checks.fail(format!("read of line {line}: {e}")),
    }
}

/// A foreground section: registry delta and modeled makespan delta are
/// added to `counts`; returns the section's host seconds.
fn section(eng: &ShardedEngine, counts: &mut Counts, f: impl FnOnce()) -> f64 {
    let before = eng.report();
    let c0 = eng.sim_cycles();
    let t = Instant::now();
    f();
    let secs = t.elapsed().as_secs_f64();
    *counts.counters.entry(SIM_CYCLES.to_string()).or_insert(0) += eng.sim_cycles() - c0;
    counts.add_delta(&eng.report(), &before);
    secs
}

/// Crashes every shard and recovers them in parallel. An error leaves the
/// engine without systems, so it ends the pass.
fn crash_recover(eng: &ShardedEngine, o: &mut Outcome) -> Result<(), String> {
    o.dirty_occupancy.push(dirty_occupancy(eng));
    o.ops_before_crash.get_or_insert(o.fg_ops);
    let t = Instant::now();
    let images = {
        let _g = tracer().span("recovery.crash_all");
        eng.crash_all()
    };
    let crash_s = t.elapsed().as_secs_f64();
    for img in &images {
        if !img.lost_lines().is_empty() {
            return Err(format!(
                "{} acknowledged lines lost at the crash",
                img.lost_lines().len()
            ));
        }
    }
    let t = Instant::now();
    let r = tracer().span_across("recovery.recover_all", || {
        eng.recover_all(images, RECOVERY_WORKERS)
    });
    let recover_s = t.elapsed().as_secs_f64();
    let pr = r.map_err(|e| format!("recover_all: {e}"))?;
    o.ck.add(&pr.metrics);
    o.recoveries.push(Recovery {
        crash_s,
        recover_s,
        modeled_s: pr.est_seconds(eng.shard_config().recovery_read_ns),
        reads: pr.total_reads,
        nodes: pr.metrics.counter("core.recovery.nodes").unwrap_or(0),
        makespan_reads: pr.makespan_reads,
        workers: pr.workers,
        steals: pr.steals,
    });
    Ok(())
}

/// Reads back every acknowledged line after a recovery. Returns host
/// seconds; the registry delta goes to `counts`.
fn read_back(
    eng: &ShardedEngine,
    shadow: &Shadow,
    checks: &mut Checks,
    lat: &mut Latencies,
    counts: &mut Counts,
    span: &'static str,
) -> f64 {
    section(eng, counts, || {
        for (line, _) in shadow.lines() {
            read_line(eng, shadow, checks, lat, span, line);
        }
    })
}

/// Drains the engine's alarms and counts quarantined lines: a clean run
/// must have neither.
fn check_service(eng: &ShardedEngine, o: &mut Outcome, when: &str) {
    o.checks.attempted += 1;
    let alarms = eng.drain_alarms();
    if !alarms.is_empty() {
        o.checks.fail(format!(
            "{when}: {} alarms: {:?}",
            alarms.len(),
            alarms.events()
        ));
    }
    let quarantined: usize = (0..eng.shards())
        .map(|s| {
            eng.with_shard(s, |sys| {
                sys.online().map_or(0, |on| on.quarantined().count())
            })
        })
        .sum();
    if quarantined > 0 {
        o.checks
            .fail(format!("{when}: {quarantined} lines quarantined"));
    }
}

/// One full online scrub pass on every shard, under a fresh service with
/// the default policy. The service it replaces is checked first.
fn scrub(eng: &ShardedEngine, o: &mut Outcome) {
    check_service(eng, o, "before the scrub pass");
    eng.enable_online(OnlinePolicy::default());
    let before = eng.report();
    let t = Instant::now();
    for s in 0..eng.shards() {
        let _g = tracer().span("online.scrub_pass");
        tracer().muted(|| eng.with_shard(s, |sys| sys.online_scrub_pass()));
    }
    let seconds = t.elapsed().as_secs_f64();
    let after = eng.report();
    let scanned = after.counter("core.online.scanned").unwrap_or(0)
        - before.counter("core.online.scanned").unwrap_or(0);
    o.scrubs.push(Scrub { seconds, scanned });
    o.ck.add_delta(&after, &before);
    check_service(eng, o, "after the scrub pass");
}

/// Crash, recover, read back, scrub. The read-back's latencies and
/// registry delta go where the workload counts them.
fn checkpoint(
    eng: &ShardedEngine,
    shadow: &Shadow,
    o: &mut Outcome,
    inject: Option<Inject>,
    rb: ReadBackTo,
) -> Result<(), String> {
    crash_recover(eng, o)?;
    if inject == Some(Inject::ReadbackFlip) {
        if let Some((line, _)) = shadow.lines().next() {
            flip(eng, line * 64);
        }
    }
    match rb {
        ReadBackTo::Foreground => {
            let secs = read_back(
                eng,
                shadow,
                &mut o.checks,
                &mut o.rlat,
                &mut o.fg,
                "core.shard.read",
            );
            o.fg_seconds += secs;
            o.fg_ops += shadow.len() as u64;
            o.rates.push(shadow.len() as f64 / secs);
        }
        ReadBackTo::ReadSamples => {
            let mut counts = std::mem::take(&mut o.ck);
            read_back(
                eng,
                shadow,
                &mut o.checks,
                &mut o.rlat,
                &mut counts,
                "core.shard.read",
            );
            o.ck = counts;
        }
    }
    if inject == Some(Inject::ScrubFlip) {
        for (line, _) in shadow.lines().take(16) {
            flip(eng, line * 64);
        }
    }
    scrub(eng, o);
    Ok(())
}

/// Where a checkpoint's read-back is counted.
#[derive(Clone, Copy)]
enum ReadBackTo {
    /// Foreground: ops, time, latencies, registry (recover).
    Foreground,
    /// Read latencies only; registry to the checkpoint (replay).
    ReadSamples,
}

/// Runs the workload once. `Err` means the pass could not continue.
pub fn run(opts: &Opts) -> (Outcome, Result<(), String>) {
    let mut o = Outcome {
        workload: Some(opts.workload),
        ..Outcome::default()
    };
    let r = match opts.workload {
        Workload::Serve => serve(opts, &mut o),
        Workload::Replay => replay(opts, &mut o),
        Workload::Recover => recover(opts, &mut o),
    };
    (o, r)
}

fn deadline_passed(budget: Budget, start: Instant, steps: u64) -> bool {
    match budget {
        Budget::Time(d) => start.elapsed() >= d,
        Budget::Steps(n) => steps >= n,
    }
}

// ——— serve ———

/// Lines the serve and recover keys are drawn from: 16 MB, 8x the data
/// the 256 KB metadata cache covers.
const KEY_LINES: u64 = 256 << 10;
/// Fixed untimed ops after the occupancy warm-up.
const WARM_OPS: u64 = 1 << 17;
/// Client ops per throughput sample.
const RATE_CHUNK: u64 = 4096;
/// Serving rounds, each ending in a full scrub pass.
const SERVE_ROUNDS: u64 = 8;
/// Length of the pre-generated request stream (cycled).
const STREAM_LEN: usize = 1 << 20;

/// The request stream: a key line and whether the request writes.
fn request_stream(seed: u64) -> Vec<(u32, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E4E);
    (0..STREAM_LEN)
        .map(|_| {
            let r = rng.next_u64();
            ((r % KEY_LINES) as u32, (r >> 63) == 1)
        })
        .collect()
}

struct Client {
    stream: Vec<(u32, bool)>,
    pos: usize,
    rng: SmallRng,
    shadow: Shadow,
}

impl Client {
    fn op(&mut self, eng: &ShardedEngine, o: &mut Outcome, timed: bool, mem: bool) {
        let (line, write) = self.stream[self.pos % self.stream.len()];
        self.pos += 1;
        let line = line as u64;
        let mut scratch = Latencies::default();
        if write {
            let data = payload(&mut self.rng);
            let lat = if timed { &mut o.wlat } else { &mut scratch };
            write_line(eng, &mut self.shadow, &mut o.checks, lat, line, data);
            if mem {
                o.mem_ops.push((line * 64, OpKind::Store));
                o.mem_ops.push((line * 64, OpKind::Flush));
            }
        } else {
            let lat = if timed { &mut o.rlat } else { &mut scratch };
            read_line(
                eng,
                &self.shadow,
                &mut o.checks,
                lat,
                "core.shard.read",
                line,
            );
            if mem {
                o.mem_ops.push((line * 64, OpKind::Load));
            }
        }
        if timed {
            o.fg_ops += 1;
            o.fg_writes += write as u64;
        }
    }

    /// Untimed ops until the dirty metadata occupancy levels off, then
    /// [`WARM_OPS`] more, past the slower first seconds a fresh engine
    /// serves.
    fn warm(&mut self, eng: &ShardedEngine, o: &mut Outcome) {
        level_off(eng, 2048, || self.op(eng, o, false, false));
        for _ in 0..WARM_OPS {
            self.op(eng, o, false, false);
        }
    }
}

fn serve(opts: &Opts, o: &mut Outcome) -> Result<(), String> {
    let (cfg, shards) = opts.workload.config();
    let mut state: Option<(ShardedEngine, Client)> = None;
    for _ in 0..opts.setup_reps {
        drop(state.take());
        let t = Instant::now();
        let stream = request_stream(opts.seed);
        o.generate_s.push(t.elapsed().as_secs_f64());
        let eng = build_engine(&cfg, shards, opts.traced);
        eng.enable_online(OnlinePolicy::default());
        let mut client = Client {
            stream,
            pos: 0,
            rng: SmallRng::seed_from_u64(opts.seed ^ 0xDA7A),
            shadow: Shadow::default(),
        };
        // Every key exists before serving starts, so a read always
        // decrypts and verifies a written line.
        let mut scratch = Latencies::default();
        for line in 0..KEY_LINES {
            let data = payload(&mut client.rng);
            write_line(
                &eng,
                &mut client.shadow,
                &mut o.checks,
                &mut scratch,
                line,
                data,
            );
        }
        client.warm(&eng, o);
        o.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((eng, client));
    }
    let (eng, mut client) = state.expect("at least one set-up");
    o.shard_cfg = Some(eng.shard_config().clone());
    o.shards = shards;
    if opts.traced {
        tracer().enable();
    }
    if opts.inject == Some(Inject::ServeShadow) {
        let lines: Vec<u64> = client.shadow.lines().map(|(l, _)| l).collect();
        for l in lines.into_iter().step_by(8) {
            let mut v = *client.shadow.get(l).unwrap();
            v[0] ^= 1;
            client.shadow.set(l, v);
        }
    }
    if opts.inject == Some(Inject::ServeFlip) {
        for (l, _) in client.shadow.lines().step_by(4) {
            flip(&eng, l * 64);
        }
    }
    // Serving runs in rounds, each followed by one full scrub pass, so
    // the scrub passes are spread over the whole run.
    let round_budget = match opts.budget {
        Budget::Time(d) => Budget::Time(d / SERVE_ROUNDS as u32),
        Budget::Steps(n) => Budget::Steps(n / SERVE_ROUNDS),
    };
    for _ in 0..SERVE_ROUNDS {
        let start = Instant::now();
        let mut fg = std::mem::take(&mut o.fg);
        let secs = section(&eng, &mut fg, || {
            let mut n = 0u64;
            let mut chunk = Instant::now();
            while !n.is_multiple_of(256) || !deadline_passed(round_budget, start, n) {
                client.op(&eng, o, true, opts.traced);
                n += 1;
                if n.is_multiple_of(RATE_CHUNK) {
                    o.rates
                        .push(RATE_CHUNK as f64 / chunk.elapsed().as_secs_f64());
                    chunk = Instant::now();
                }
            }
            let tail = n % RATE_CHUNK;
            if tail > 0 {
                o.rates.push(tail as f64 / chunk.elapsed().as_secs_f64());
            }
        });
        o.fg = fg;
        o.fg_seconds += secs;
        o.dirty_occupancy.push(dirty_occupancy(&eng));
        if opts.inject == Some(Inject::ScrubFlip) {
            for (l, _) in client.shadow.lines().take(16) {
                flip(&eng, l * 64);
            }
        }
        scrub(&eng, o);
    }
    Ok(())
}

// ——— replay ———

/// Rounds a pass runs at least (replay: trace slice and checkpoint;
/// recover: fill and checkpoint); with a step budget, replay runs exactly
/// this many, splitting the steps between them.
const MIN_ROUNDS: u64 = 3;
/// Trace replay per replay round, with a time budget.
const REPLAY_SLICE: Duration = Duration::from_millis(500);

/// Loads and stores in the replayed trace (flushes ride along).
const TRACE_OPS: u64 = 1 << 20;
/// Trace ops per `run_trace` call (a segment never splits a store from
/// its flush).
const SEGMENT: usize = 4096;

fn segments(trace: &[TraceOp]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < trace.len() {
        let mut end = (start + SEGMENT).min(trace.len());
        while end < trace.len() && trace[end].kind == OpKind::Flush {
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out
}

fn replay(opts: &Opts, o: &mut Outcome) -> Result<(), String> {
    let (cfg, shards) = opts.workload.config();
    let mut state: Option<(ShardedEngine, Vec<TraceOp>)> = None;
    for _ in 0..opts.setup_reps {
        drop(state.take());
        let t = Instant::now();
        let eng = build_engine(&cfg, shards, opts.traced);
        let tg = Instant::now();
        let trace: Vec<TraceOp> = TraceWorkload::new(WorkloadKind::PHash, TRACE_OPS, opts.seed)
            .generate()
            .collect();
        o.generate_s.push(tg.elapsed().as_secs_f64());
        o.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((eng, trace));
    }
    let (eng, trace) = state.expect("at least one set-up");
    o.shard_cfg = Some(eng.shard_config().clone());
    o.shards = shards;
    let segs = segments(&trace);
    let mut shadow = Shadow::default();
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x4E57);
    // `run_trace` stores `synth_data(addr, k)` for the k-th store the
    // running system has taken; a recovered system counts afresh.
    let mut seq = 0u64;
    let mut n = 0u64;
    if opts.traced {
        tracer().enable();
    }
    // Rounds of trace replay, each followed by a checkpoint, so both are
    // sampled over the whole run; a rewrite of every stored line sits
    // between a checkpoint and the next round.
    let slice = match opts.budget {
        Budget::Time(_) => Budget::Time(REPLAY_SLICE),
        Budget::Steps(s) => Budget::Steps((s / MIN_ROUNDS).max(1)),
    };
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let slice_start = Instant::now();
        let mut fg = std::mem::take(&mut o.fg);
        let mut failure = None;
        section(&eng, &mut fg, || {
            let mut k = 0u64;
            while k == 0 || !deadline_passed(slice, slice_start, k) {
                let seg = &trace[segs[n as usize % segs.len()].clone()];
                let t = Instant::now();
                let r = {
                    let _g = tracer().span("core.run_trace");
                    eng.with_shard(0, |sys| sys.run_trace(seg.iter().copied()).map(|_| ()))
                };
                let secs = t.elapsed().as_secs_f64();
                o.checks.attempted += 1;
                if let Err(e) = r {
                    failure = Some(format!("run_trace: {e}"));
                    return;
                }
                let mut mem = 0u64;
                for op in seg {
                    match op.kind {
                        OpKind::Store => {
                            seq += 1;
                            shadow.set(op.addr / 64, synth_data(op.addr, seq));
                            o.fg_writes += 1;
                            mem += 1;
                        }
                        OpKind::Load => mem += 1,
                        OpKind::Flush => {}
                    }
                    if opts.traced {
                        o.mem_ops.push((op.addr, op.kind));
                    }
                }
                o.fg_ops += mem;
                o.fg_seconds += secs;
                o.rates.push(mem as f64 / secs);
                n += 1;
                k += 1;
                if n == 1 && opts.inject == Some(Inject::TraceFlip) {
                    for (line, _) in shadow.lines() {
                        flip(&eng, line * 64);
                    }
                }
            }
        });
        o.fg = fg;
        if let Some(f) = failure {
            return Err(f);
        }
        checkpoint(&eng, &shadow, o, opts.inject, ReadBackTo::ReadSamples)?;
        seq = 0;
        rounds += 1;
        let done = match opts.budget {
            Budget::Time(d) => rounds >= MIN_ROUNDS && start.elapsed() >= d,
            Budget::Steps(_) => rounds >= MIN_ROUNDS,
        };
        if done {
            return Ok(());
        }
        let lines: Vec<u64> = shadow.lines().map(|(l, _)| l).collect();
        let mut ck = std::mem::take(&mut o.ck);
        section(&eng, &mut ck, || {
            for l in lines {
                let data = payload(&mut rng);
                write_line(&eng, &mut shadow, &mut o.checks, &mut o.wlat, l, data);
            }
        });
        o.ck = ck;
    }
}

// ——— recover ———

fn recover(opts: &Opts, o: &mut Outcome) -> Result<(), String> {
    let (cfg, shards) = opts.workload.config();
    let mut state: Option<(ShardedEngine, Vec<(u32, bool)>)> = None;
    for _ in 0..opts.setup_reps {
        drop(state.take());
        let t = Instant::now();
        let stream = request_stream(opts.seed);
        o.generate_s.push(t.elapsed().as_secs_f64());
        let eng = build_engine(&cfg, shards, opts.traced);
        o.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((eng, stream));
    }
    let (eng, stream) = state.expect("at least one set-up");
    o.shard_cfg = Some(eng.shard_config().clone());
    o.shards = shards;
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xF111);
    let mut shadow = Shadow::default();
    let mut pos = 0usize;
    if opts.traced {
        tracer().enable();
    }
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let done = match opts.budget {
            Budget::Time(d) => round >= MIN_ROUNDS && start.elapsed() >= d,
            Budget::Steps(n) => round >= n,
        };
        if done {
            break;
        }
        // Fill: write until every shard's metadata cache stops gaining
        // dirty nodes.
        let mut fg = std::mem::take(&mut o.fg);
        let mut writes = 0u64;
        let secs = section(&eng, &mut fg, || {
            writes = level_off(&eng, 1024, || {
                let line = stream[pos % stream.len()].0 as u64;
                pos += 1;
                let data = payload(&mut rng);
                write_line(&eng, &mut shadow, &mut o.checks, &mut o.wlat, line, data);
                if opts.traced {
                    o.mem_ops.push((line * 64, OpKind::Store));
                    o.mem_ops.push((line * 64, OpKind::Flush));
                }
            });
        });
        o.fg = fg;
        o.fg_seconds += secs;
        o.fg_ops += writes;
        o.fg_writes += writes;
        o.rates.push(writes as f64 / secs);
        checkpoint(&eng, &shadow, o, opts.inject, ReadBackTo::Foreground)?;
        if opts.traced {
            for (line, _) in shadow.lines() {
                o.mem_ops.push((line * 64, OpKind::Load));
            }
        }
        round += 1;
    }
    Ok(())
}
