//! The metric tables: every end-to-end and per-layer metric the benchmark
//! prints, with its unit and whether it is host time (`measured`), a
//! controller-model quantity (`modeled`), or a count or ratio taken from
//! the benchmark's own spans (`count`). `BENCHMARK.json` lists the metrics
//! marked for the result line, with the same names and units;
//! `metrics.json` beside this crate records the same labels and which
//! end-to-end metric each per-layer one should move, on which workload.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Measured,
    Modeled,
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
        }
    }
}

/// (name, unit, kind, in the result line). A metric stays out of the
/// result line when a benchmark workload cannot report it: the recovery
/// figures need a crash, which `serve` never takes, and the modeled
/// per-access latencies need the trace-driven core clock, which `serve`'s
/// direct calls do not advance; and the shard-front self times need
/// writes and reads before the first recovery, which `replay` never makes
/// (see `Analysis::crypto_traced_until`).
pub type Def = (&'static str, &'static str, Kind, bool);

use Kind::{Count, Measured, Modeled};

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", Measured, true),
    ("peak_rss_mb", "MB", Measured, true),
    ("ops_per_s", "1/s", Measured, true),
    ("write_p50_us", "us", Measured, true),
    ("write_p99_us", "us", Measured, true),
    ("read_p50_us", "us", Measured, true),
    ("read_p99_us", "us", Measured, true),
    ("sim_write_latency_cycles", "cycles", Modeled, false),
    ("sim_read_latency_cycles", "cycles", Modeled, false),
    ("sim_exec_cycles_per_op", "cycles", Modeled, true),
    ("scrub_s", "s", Measured, true),
    ("recover_s", "s", Measured, false),
    ("recover_modeled_s", "s", Modeled, false),
    // Must be 0: a run with any error or mismatch fails instead.
    ("error_rate", "1", Count, false),
];

/// Per-layer metrics, reported with tracing on.
pub const PER_LAYER: &[Def] = &[
    ("crypto.calls_per_op", "count", Count, true),
    ("crypto.self_us_per_op", "us", Measured, true),
    ("crypto.share", "ratio", Measured, true),
    ("crypto.mac_calls_per_op", "count", Modeled, true),
    ("crypto.aes_ops_per_op", "count", Modeled, true),
    ("crypto.batch_msgs_per_call", "count", Count, true),
    ("crypto.lane_fill", "ratio", Count, true),
    ("core.shard.write.self_us", "us", Measured, false),
    ("core.shard.read.self_us", "us", Measured, false),
    ("core.front.self_us_per_op", "us", Measured, true),
    ("core.cpu.read_stall_cycles_per_op", "cycles", Modeled, true),
    (
        "core.cpu.write_stall_cycles_per_op",
        "cycles",
        Modeled,
        true,
    ),
    ("core.write.latency_p99_cycles", "cycles", Modeled, false),
    ("core.read.latency_p99_cycles", "cycles", Modeled, false),
    ("metadata.cache.hit_rate", "ratio", Modeled, true),
    ("metadata.cache.misses_per_op", "count", Modeled, true),
    ("metadata.flush_batch_nodes", "count", Modeled, true),
    ("metadata.cache.dirty_occupancy", "ratio", Modeled, true),
    ("nvm.device.reads_per_op", "count", Modeled, true),
    ("nvm.device.writes_per_op", "count", Modeled, true),
    ("nvm.write_amplification", "ratio", Modeled, true),
    ("nvm.adr.persists_per_write", "count", Modeled, true),
    ("nvm.device.row_hit_rate", "ratio", Modeled, true),
    (
        "nvm.write_queue.stall_cycles_per_op",
        "cycles",
        Modeled,
        true,
    ),
    ("nvm.write_queue.occupancy_mean", "count", Modeled, true),
    ("cache.l1.hit_rate", "ratio", Modeled, true),
    ("cache.l2.hit_rate", "ratio", Modeled, true),
    ("cache.l3.hit_rate", "ratio", Modeled, true),
    ("cache.mem_events_per_op", "count", Modeled, true),
    ("cache.access_ns", "ns", Measured, true),
    ("trace.generate_s", "s", Measured, true),
    ("trace.overhead_share", "ratio", Measured, true),
    ("online.scanned", "count", Modeled, true),
    ("online.verified", "count", Modeled, true),
    ("online.verified_ratio", "ratio", Modeled, true),
    ("online.us_per_scanned_line", "us", Measured, true),
    ("online.steps", "count", Modeled, true),
    ("recovery.reads", "count", Modeled, false),
    ("recovery.nodes", "count", Modeled, false),
    ("par.makespan_reads", "count", Modeled, false),
    ("par.lane_balance", "ratio", Modeled, false),
    ("recovery.us_per_read", "us", Measured, false),
    ("recovery.crypto_share", "ratio", Measured, false),
    ("par.steals", "count", Count, false),
    ("recovery.crash_s", "s", Measured, false),
];
