//! CI gate: compares a freshly measured `results/BENCH_crypto.json`
//! against a committed baseline and fails on hot-path speedup regressions.
//!
//! Usage: `perf_gate <baseline.json> <fresh.json>` (defaults:
//! `results/BENCH_crypto_baseline.json results/BENCH_crypto.json`).
//! `STEINS_PERF_TOL` sets the relative tolerance (default 0.25). The
//! comparison itself, and what counts as a failure or a skip, is
//! [`steins_bench::perf_gate::compare`].

use steins_bench::perf_gate::{benches, compare, host_has, Bench};
use steins_obs::json::parse;

fn load(path: &str) -> Vec<Bench> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| die(&format!("{path}: invalid JSON: {e}")));
    benches(&doc).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("results/BENCH_crypto_baseline.json");
    let fresh_path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("results/BENCH_crypto.json");
    let tol: f64 = std::env::var("STEINS_PERF_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);

    let baseline = load(baseline_path);
    let report = compare(&baseline, &load(fresh_path), tol, host_has);
    println!("perf_gate: baseline {baseline_path}, fresh {fresh_path}, tol {tol}");
    println!(
        "{:<28}{:>10}{:>10}{:>10}{:>12}",
        "bench", "base", "fresh", "floor", "after_ns"
    );
    for line in report.lines.iter().chain(&report.skipped) {
        println!("{line}");
    }

    if report.failures.is_empty() {
        println!(
            "\nperf_gate: {} benches within tolerance, {} skipped",
            report.lines.len(),
            report.skipped.len()
        );
    } else {
        eprintln!("\nperf_gate: {} regression(s):", report.failures.len());
        for f in &report.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
