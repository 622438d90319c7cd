//! The repository benchmark: `serve`, `replay` and `recover` workloads over
//! the Steins engine, end-to-end metrics with tracing off and per-layer
//! metrics with tracing on.
//!
//! ```text
//! steins-perfbench --workload serve|replay|recover --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints a manifest line, a human-readable metric block (name,
//! value, unit, and `measured` / `modeled` / `count` label), and as its
//! last line one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check prints the failures
//! to stderr, a result line with `"correct": false` and no metrics, and
//! exits 1.
//!
//! With `--trace 1` the workload runs twice on the same fixed amount of
//! work: once untraced, once with spans recorded around every call into
//! the engine and every crypto call. The modeled metrics and registry
//! counts of the two passes must be identical. Spans are written to
//! `out/spans-<workload>-<seed>.tsv` beside this crate at exit.

mod bench;
mod metrics;
mod stats;
mod tracer;

use std::time::{Duration, Instant};

use steins_cache::CacheHierarchy;
use steins_crypto::engine::make_engine;
use steins_crypto::{wide_lanes_available, CryptoKind};
use steins_trace::OpKind;

use bench::{Budget, Inject, Opts, Outcome, Workload};
use metrics::{Def, END_TO_END, PER_LAYER};
use stats::{median, LAT_WINDOW};
use tracer::{tracer, Analysis, Tracer, CRYPTO_SPANS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steps: Option<u64>,
    inject: Option<Inject>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: steins-perfbench --workload serve|replay|recover --seed N --seconds S \
         --trace 0|1 [--steps N] [--inject KIND]"
    );
    std::process::exit(2);
}

fn bad_value(flag: &str, val: &str) -> ! {
    usage(&format!("bad value {val:?} for {flag}"))
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: Workload::Serve,
        seed: 1,
        seconds: 10.0,
        trace: false,
        steps: None,
        inject: None,
    };
    let mut have_workload = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(val).unwrap_or_else(|| bad_value(flag, val));
                have_workload = true;
            }
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| bad_value(flag, val)),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| bad_value(flag, val)),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad_value(flag, val),
                }
            }
            // Fixed work instead of a time budget (serve: client ops;
            // replay: trace segments; recover: rounds).
            "--steps" => a.steps = Some(val.parse().unwrap_or_else(|_| bad_value(flag, val))),
            // A deliberate fault, to show a correctness check failing.
            "--inject" => {
                a.inject = Some(Inject::parse(val).unwrap_or_else(|| bad_value(flag, val)))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !have_workload {
        usage("--workload is required");
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    a
}

// ——— host facts ———

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: CPUID is available on every x86_64 processor; the extended
    // brand-string leaves are read only after leaf 0x8000_0000 reports them.
    let bytes = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        let mut b = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for w in [r.eax, r.ebx, r.ecx, r.edx] {
                b.extend_from_slice(&w.to_le_bytes());
            }
        }
        b
    };
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

fn feature(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "aes" => std::arch::is_x86_feature_detected!("aes"),
            "sha" => std::arch::is_x86_feature_detected!("sha"),
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of this process in MB (Linux reports KiB).
fn peak_rss_mb() -> f64 {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` matches the C `struct rusage` layout on 64-bit Linux and
    // outlives the call; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    ru.maxrss as f64 / 1024.0
}

fn manifest(args: &Args, budget: Budget) -> String {
    let (cfg, shards) = args.workload.config();
    let split = steins_core::ShardedEngine::split_config(&cfg, shards);
    let crypto = make_engine(cfg.crypto, cfg.secret_key());
    let real_lanes = make_engine(CryptoKind::Real, cfg.secret_key()).mac_lanes();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"budget\": \"{:?}\", \"trace\": {}, \
         \"nproc\": {}, \"cpu_model\": \"{}\", \"aes_ni\": {}, \"sha_ni\": {}, \"avx2\": {}, \
         \"wide_lanes_available\": {}, \"crypto\": \"{:?}\", \"mac_lanes\": {}, \
         \"real_crypto_mac_lanes\": {}, \"shards\": {}, \"shard_data_lines\": {}, \
         \"shard_meta_slots\": {}, \"recovery_workers\": {}}}",
        args.workload.name(),
        args.seed,
        budget,
        args.trace as u8,
        nproc,
        cpu_model().replace('"', "'"),
        feature("aes"),
        feature("sha"),
        feature("avx2"),
        wide_lanes_available(),
        cfg.crypto,
        crypto.mac_lanes(),
        real_lanes,
        shards,
        split.data_lines,
        split.meta_cache.slots(),
        bench::RECOVERY_WORKERS,
    )
}

// ——— result printing ———

type Values = Vec<(&'static str, Option<f64>)>;

fn value(values: &Values, name: &str) -> Option<f64> {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} not computed"))
        .1
}

fn print_block(title: &str, defs: &[Def], values: &Values) {
    println!("{title}");
    for (name, unit, kind, _) in defs {
        match value(values, name) {
            Some(v) => println!("  {name:<38} {v:>16.6} {unit:<7} {}", kind.label()),
            None => println!("  {name:<38} {:>16} {unit:<7} {}", "n/a", kind.label()),
        }
    }
}

/// The last line: the result-line metrics of `defs`, or none on failure.
fn result_line(correct: bool, attempted: u64, failed: u64, defs: &[Def], values: &Values) {
    let metrics: Vec<String> = defs
        .iter()
        .filter(|d| correct && d.3)
        .map(|(name, unit, _, _)| {
            let v = value(values, name).unwrap_or_else(|| panic!("no value for {name}"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
}

fn fail_exit(attempted: u64, failed: u64, notes: &[String]) -> ! {
    for n in notes {
        eprintln!("check failed: {n}");
    }
    result_line(false, attempted, failed.max(1), &[], &Vec::new());
    std::process::exit(1);
}

/// Runs one pass; a pass that failed a check ends the process.
fn pass(opts: &Opts) -> Outcome {
    let (o, r) = bench::run(opts);
    let mut notes = o.checks.notes.clone();
    let mut failed = o.checks.failed;
    if let Err(e) = r {
        notes.push(e);
        failed += 1;
    }
    if failed > 0 {
        fail_exit(o.checks.attempted, failed, &notes);
    }
    o
}

fn end_to_end(o: &Outcome) -> Values {
    let attempted = o.checks.attempted.max(1) as f64;
    vec![
        ("setup_s", Some(median(&o.setup_s))),
        ("peak_rss_mb", Some(peak_rss_mb())),
        ("ops_per_s", Some(o.ops_per_s())),
        ("write_p50_us", Some(o.wlat.us(false))),
        ("write_p99_us", Some(o.wlat.us(true))),
        ("read_p50_us", Some(o.rlat.us(false))),
        ("read_p99_us", Some(o.rlat.us(true))),
        ("sim_write_latency_cycles", o.sim_latency("core.write")),
        ("sim_read_latency_cycles", o.sim_latency("core.read")),
        ("sim_exec_cycles_per_op", Some(o.sim_exec_cycles_per_op())),
        ("scrub_s", Some(o.scrub_s())),
        ("recover_s", o.recover_s()),
        ("recover_modeled_s", o.per_recovery(|r| r.modeled_s)),
        ("error_rate", Some(o.checks.failed as f64 / attempted)),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replays the traced pass's foreground accesses through standalone CPU
/// cache hierarchies (one per shard, interleaved like the engine), with
/// spans around each call. Returns the memory events the hierarchies emit.
fn cache_replay(o: &Outcome) -> u64 {
    let cfg = o.shard_cfg.as_ref().expect("pass ran");
    let shards = o.shards as u64;
    let mut hiers: Vec<CacheHierarchy> = (0..shards)
        .map(|_| CacheHierarchy::new(cfg.hierarchy))
        .collect();
    let mut events = 0u64;
    for &(addr, kind) in &o.mem_ops {
        let line = addr / 64;
        let (s, local) = ((line % shards) as usize, (line / shards) * 64);
        match kind {
            OpKind::Load | OpKind::Store => {
                let _g = tracer().span("cache.access");
                events += hiers[s].access(local, kind == OpKind::Store).events.len() as u64;
            }
            OpKind::Flush => {
                let _g = tracer().span("cache.flush_line");
                events += hiers[s].flush_line(local).is_some() as u64;
            }
        }
    }
    events
}

fn per_layer(
    w: Workload,
    plain: &Outcome,
    o: &Outcome,
    an: &Analysis,
    cache_events: u64,
    lanes: usize,
) -> Values {
    let roots = w.fg_roots();
    let ops = o.fg_ops.max(1) as f64;
    let writes = o.fg_writes.max(1) as f64;
    let (fg, ck) = (&o.fg, &o.ck);
    // Crypto splits use what ran before the first recovery ended (see
    // `Analysis::crypto_traced_until`), per-op figures the ops run before
    // the first crash.
    let traced_ops = o.ops_before_crash.unwrap_or(o.fg_ops).max(1) as f64;
    let crypto = an.stats_of(&CRYPTO_SPANS, roots, true);
    let front = an.stats_of(roots, &[], true);
    let batched = an.stats_of(&CRYPTO_SPANS[4..], &[], true);
    let self_us = |name| {
        let st = an.stats(name, &[], true);
        (st.calls > 0).then(|| st.self_ns as f64 / st.calls as f64 / 1e3)
    };
    let rec = an.stats("recovery.recover_all", &[], false);
    let rec_crypto = an.stats_of(&CRYPTO_SPANS, &["recovery.recover_all"], true);
    let scrub = an.stats("online.scrub_pass", &[], false);
    let cache = an.stats_of(&["cache.access", "cache.flush_line"], &[], false);
    let hit = |l: &str| {
        let h = fg.counter(&format!("{l}.hits")) as f64;
        ratio(h, h + fg.counter(&format!("{l}.misses")) as f64)
    };
    let row_hits = fg.counter("nvm.device.row_hits") as f64;
    let scanned = ck.counter("core.online.scanned") + fg.counter("core.online.scanned");
    let verified = ck.counter("core.online.verified") + fg.counter("core.online.verified");
    let scrub_scanned: u64 = o.scrubs.iter().map(|s| s.scanned).sum();
    // Recovery figures: means over the run's recoveries (None without one).
    let recs = &o.recoveries;
    let mean = |f: &dyn Fn(&bench::Recovery) -> f64| {
        (!recs.is_empty()).then(|| recs.iter().map(f).sum::<f64>() / recs.len() as f64)
    };
    let total = |f: &dyn Fn(&bench::Recovery) -> f64| recs.iter().map(f).sum::<f64>();
    let busy_lanes = total(&|r| (r.workers.min(o.shards) as u64 * r.makespan_reads) as f64);
    vec![
        (
            "crypto.calls_per_op",
            Some(crypto.calls as f64 / traced_ops),
        ),
        (
            "crypto.self_us_per_op",
            Some(crypto.self_ns as f64 / 1e3 / traced_ops),
        ),
        (
            "crypto.share",
            Some(ratio(crypto.total_ns as f64, front.total_ns as f64)),
        ),
        (
            "crypto.mac_calls_per_op",
            Some(fg.counter("core.engine.mac_calls") as f64 / ops),
        ),
        (
            "crypto.aes_ops_per_op",
            Some(fg.counter("core.engine.aes_ops") as f64 / ops),
        ),
        (
            "crypto.batch_msgs_per_call",
            Some(ratio(batched.msgs as f64, batched.calls as f64)),
        ),
        (
            "crypto.lane_fill",
            Some(ratio(batched.msgs as f64, batched.calls as f64) / lanes as f64),
        ),
        ("core.shard.write.self_us", self_us("core.shard.write")),
        ("core.shard.read.self_us", self_us("core.shard.read")),
        (
            "core.front.self_us_per_op",
            Some(front.self_ns as f64 / 1e3 / traced_ops),
        ),
        (
            "core.cpu.read_stall_cycles_per_op",
            Some(fg.counter("core.cpu.read_stall_cycles") as f64 / ops),
        ),
        (
            "core.cpu.write_stall_cycles_per_op",
            Some(fg.counter("core.cpu.write_stall_cycles") as f64 / ops),
        ),
        (
            "core.write.latency_p99_cycles",
            o.sim_latency("core.write")
                .map(|_| fg.hist_quantile("core.write.latency_cycles", 0.99) as f64),
        ),
        (
            "core.read.latency_p99_cycles",
            o.sim_latency("core.read")
                .map(|_| fg.hist_quantile("core.read.latency_cycles", 0.99) as f64),
        ),
        ("metadata.cache.hit_rate", Some(hit("meta.cache"))),
        (
            "metadata.cache.misses_per_op",
            Some(fg.counter("meta.cache.misses") as f64 / ops),
        ),
        (
            "metadata.flush_batch_nodes",
            Some(fg.hist_mean("meta.cache.flush_batch_nodes")),
        ),
        (
            "metadata.cache.dirty_occupancy",
            Some(median(&o.dirty_occupancy)),
        ),
        (
            "nvm.device.reads_per_op",
            Some(fg.counter("nvm.device.reads") as f64 / ops),
        ),
        (
            "nvm.device.writes_per_op",
            Some(fg.counter("nvm.device.writes") as f64 / ops),
        ),
        (
            "nvm.write_amplification",
            Some(fg.counter("nvm.device.writes") as f64 / writes),
        ),
        (
            "nvm.adr.persists_per_write",
            Some(
                (fg.counter("nvm.adr.persists.line_write")
                    + fg.counter("nvm.adr.persists.in_place")) as f64
                    / writes,
            ),
        ),
        (
            "nvm.device.row_hit_rate",
            Some(ratio(
                row_hits,
                row_hits + fg.counter("nvm.device.row_misses") as f64,
            )),
        ),
        (
            "nvm.write_queue.stall_cycles_per_op",
            Some(fg.counter("nvm.write_queue.stall_cycles") as f64 / ops),
        ),
        (
            "nvm.write_queue.occupancy_mean",
            Some(fg.hist_mean("nvm.write_queue.occupancy")),
        ),
        ("cache.l1.hit_rate", Some(hit("cache.l1"))),
        ("cache.l2.hit_rate", Some(hit("cache.l2"))),
        ("cache.l3.hit_rate", Some(hit("cache.l3"))),
        ("cache.mem_events_per_op", Some(cache_events as f64 / ops)),
        (
            "cache.access_ns",
            Some(ratio(cache.total_ns as f64, cache.calls as f64)),
        ),
        ("trace.generate_s", Some(median(&o.generate_s))),
        (
            "trace.overhead_share",
            Some((o.fg_seconds - plain.fg_seconds) / plain.fg_seconds),
        ),
        ("online.scanned", Some(scanned as f64)),
        ("online.verified", Some(verified as f64)),
        (
            "online.verified_ratio",
            Some(ratio(verified as f64, scanned as f64)),
        ),
        (
            "online.us_per_scanned_line",
            Some(ratio(scrub.total_ns as f64 / 1e3, scrub_scanned as f64)),
        ),
        ("online.steps", Some(fg.counter("core.online.steps") as f64)),
        ("recovery.reads", mean(&|r| r.reads as f64)),
        ("recovery.nodes", mean(&|r| r.nodes as f64)),
        ("par.makespan_reads", mean(&|r| r.makespan_reads as f64)),
        (
            "par.lane_balance",
            (!recs.is_empty()).then(|| ratio(total(&|r| r.reads as f64), busy_lanes)),
        ),
        (
            "recovery.us_per_read",
            (!recs.is_empty())
                .then(|| ratio(rec.total_ns as f64 / 1e3, total(&|r| r.reads as f64))),
        ),
        (
            "recovery.crypto_share",
            recs.first().map(|r| {
                let lanes = r.workers.min(o.shards) as f64;
                ratio(rec_crypto.total_ns as f64 / 1e9, r.recover_s * lanes)
            }),
        ),
        ("par.steals", mean(&|r| r.steals as f64)),
        ("recovery.crash_s", o.per_recovery(|r| r.crash_s)),
    ]
}

fn main() {
    let args = parse_args();
    let budget = match args.steps {
        Some(n) => Budget::Steps(n),
        None => Budget::Time(Duration::from_secs_f64(args.seconds)),
    };
    println!("manifest {}", manifest(&args, budget));
    let opts = |budget, traced, setup_reps| Opts {
        workload: args.workload,
        seed: args.seed,
        budget,
        setup_reps,
        inject: args.inject,
        traced,
    };

    if !args.trace {
        // Fixed-work runs (tests) set up once; timed runs take the median
        // of three set-ups.
        let o = pass(&opts(
            budget,
            false,
            if args.steps.is_some() { 1 } else { 3 },
        ));
        let values = end_to_end(&o);
        print_block("end-to-end", END_TO_END, &values);
        println!(
            "samples: {} write and {} read calls in {} and {} windows of {LAT_WINDOW}; \
             {} throughput chunks; {} recoveries; {} scrub passes; \
             {} foreground ops in {:.3} s",
            o.wlat.calls(),
            o.rlat.calls(),
            o.wlat.windows(),
            o.rlat.windows(),
            o.rates.len(),
            o.recoveries.len(),
            o.scrubs.len(),
            o.fg_ops,
            o.fg_seconds
        );
        result_line(true, o.checks.attempted, 0, END_TO_END, &values);
        return;
    }

    // Traced run: the same fixed work untraced, then traced.
    let steps = Budget::Steps(args.steps.unwrap_or(args.workload.traced_steps()));
    let t = Instant::now();
    let plain = pass(&opts(steps, false, 1));
    let plain_e2e = end_to_end(&plain);
    let o = pass(&opts(steps, true, 1));
    let e2e = end_to_end(&o);
    let mut attempted = plain.checks.attempted + o.checks.attempted;
    let mut notes = Vec::new();
    attempted += 1;
    for name in [
        "sim_write_latency_cycles",
        "sim_read_latency_cycles",
        "sim_exec_cycles_per_op",
        "recover_modeled_s",
    ] {
        let (a, b) = (value(&plain_e2e, name), value(&e2e, name));
        if a.map(f64::to_bits) != b.map(f64::to_bits) {
            notes.push(format!(
                "tracing changed {name}: {a:?} untraced, {b:?} traced"
            ));
        }
    }
    if plain.fg.canonical() != o.fg.canonical() || plain.ck.canonical() != o.ck.canonical() {
        notes.push("tracing changed the engine's registry counts".into());
    }
    let cache_events = cache_replay(&o);
    let spans = tracer().take();
    let an = Analysis::new(spans);
    attempted += 1;
    if let Err(e) = an.check_nesting() {
        notes.push(e);
    }
    if !notes.is_empty() {
        fail_exit(attempted, notes.len() as u64, &notes);
    }
    let (cfg, _) = args.workload.config();
    let lanes = make_engine(cfg.crypto, cfg.secret_key()).mac_lanes();
    let values = per_layer(args.workload, &plain, &o, &an, cache_events, lanes);
    print_block("per-layer (traced pass)", PER_LAYER, &values);
    println!(
        "tracing overhead: foreground {:.6} s untraced, {:.6} s traced ({:+.2}%); \
         {} spans; both passes in {:.1} s",
        plain.fg_seconds,
        o.fg_seconds,
        100.0 * (o.fg_seconds - plain.fg_seconds) / plain.fg_seconds,
        an.spans.len(),
        t.elapsed().as_secs_f64()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    match Tracer::write_tsv(&an.spans, &path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    result_line(true, attempted, 0, PER_LAYER, &values);
}
