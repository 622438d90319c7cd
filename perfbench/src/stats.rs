//! Sample statistics and registry deltas.

use std::collections::BTreeMap;

use steins_obs::{Metric, MetricRegistry};

/// Nearest-rank quantile of unsorted samples (`q` in [0, 1]).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of floats (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the best tenth of `values` (the largest when
/// `higher_is_better`, else the smallest; at least one value).
///
/// Other tenants of a shared host slow memory-bound code down by up to 2x,
/// for seconds to minutes at a time, and never speed it up. The best
/// tenth of a run's chunks of work tracks the program as long as a tenth
/// of the run was uncontended; a median over all chunks would track how
/// long the neighbours were busy.
pub fn best_decile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if higher_is_better {
        v.reverse();
    }
    median(&v[..v.len().div_ceil(10)])
}

/// Consecutive calls per latency window.
pub const LAT_WINDOW: usize = 4096;

/// Per-call host latencies, summarized per window of [`LAT_WINDOW`]
/// consecutive calls, so memory stays flat however long a run lasts.
#[derive(Default)]
pub struct Latencies {
    /// Nanoseconds of the calls in the open window.
    open: Vec<u64>,
    /// p50 and p99 of each closed window, in microseconds.
    closed: Vec<[f64; 2]>,
    calls: u64,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.open.push(ns);
        self.calls += 1;
        if self.open.len() == LAT_WINDOW {
            let q = Self::p50_p99(&mut self.open);
            self.closed.push(q);
            self.open.clear();
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls
    }

    pub fn windows(&self) -> usize {
        self.closed.len()
    }

    fn p50_p99(ns: &mut [u64]) -> [f64; 2] {
        [0.5, 0.99].map(|q| quantile(ns, q) as f64 / 1e3)
    }

    /// The median (`p99 == false`) or 99th percentile in microseconds,
    /// taken per window and reported over the best tenth of the windows
    /// (over every call when there is less than one window).
    pub fn us(&self, p99: bool) -> f64 {
        let i = p99 as usize;
        if self.closed.is_empty() {
            return Self::p50_p99(&mut self.open.clone())[i];
        }
        best_decile(&self.closed.iter().map(|q| q[i]).collect::<Vec<_>>(), false)
    }
}

/// Counters and histogram buckets accumulated over measured sections.
///
/// A section's contribution is the difference between the engine's merged
/// registry at its end and at its start (`add_delta`), or a whole registry
/// when the engine was rebuilt in between (`add`). Only the unprefixed
/// aggregate paths are kept; `shard.NN.` copies are dropped. Everything in
/// here comes from the engine's modeled state, so for one seed and one op
/// count it is the same on every host and every run.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Counts {
    pub counters: BTreeMap<String, u64>,
    /// Histogram path -> (bucket high -> count), plus the value sum.
    pub hists: BTreeMap<String, (BTreeMap<u64, u64>, u128)>,
}

fn keep(path: &str) -> bool {
    !path.starts_with("shard.") && !path.starts_with("par.lane.")
}

impl Counts {
    pub fn add(&mut self, now: &MetricRegistry) {
        self.add_delta(now, &MetricRegistry::new());
    }

    pub fn add_delta(&mut self, now: &MetricRegistry, before: &MetricRegistry) {
        for (path, m) in now.iter() {
            if !keep(path) {
                continue;
            }
            match m {
                Metric::Counter(c) => {
                    let d = c - before.counter(path).unwrap_or(0);
                    *self.counters.entry(path.to_string()).or_insert(0) += d;
                }
                Metric::Hist(h) => {
                    let e = self.hists.entry(path.to_string()).or_default();
                    let mut prev: BTreeMap<u64, u64> = BTreeMap::new();
                    let mut prev_sum = 0u128;
                    if let Some(b) = before.hist(path) {
                        prev.extend(b.nonzero_buckets());
                        prev_sum = b.sum();
                    }
                    for (hi, c) in h.nonzero_buckets() {
                        let d = c - prev.get(&hi).copied().unwrap_or(0);
                        if d > 0 {
                            *e.0.entry(hi).or_insert(0) += d;
                        }
                    }
                    e.1 += h.sum() - prev_sum;
                }
                Metric::Gauge(_) => {}
            }
        }
    }

    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    pub fn hist_mean(&self, path: &str) -> f64 {
        match self.hists.get(path) {
            Some((b, sum)) => {
                let n: u64 = b.values().sum();
                if n == 0 {
                    0.0
                } else {
                    *sum as f64 / n as f64
                }
            }
            None => 0.0,
        }
    }

    /// Quantile from bucket representatives (the histogram's resolution).
    pub fn hist_quantile(&self, path: &str, q: f64) -> u64 {
        let Some((b, _)) = self.hists.get(path) else {
            return 0;
        };
        let n: u64 = b.values().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (&hi, &c) in b {
            seen += c;
            if seen >= rank {
                return hi;
            }
        }
        unreachable!("rank within count")
    }

    /// A canonical text rendering, for byte-for-byte comparison.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.counters {
            s.push_str(&format!("{k}={v}\n"));
        }
        for (k, (b, sum)) in &self.hists {
            s.push_str(&format!("{k}:sum={sum}"));
            for (hi, c) in b {
                s.push_str(&format!(" {hi}:{c}"));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(best_decile(&[5.0, 1.0, 2.0, 9.0], false), 1.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_decile(&v, true), 19.5);
        assert_eq!(best_decile(&v, false), 1.5);
    }

    #[test]
    fn deltas_subtract_the_section_start() {
        let mut before = MetricRegistry::new();
        before.counter_add("a", 5);
        before.record("h", 10);
        let mut now = before.clone();
        now.counter_add("a", 7);
        now.record("h", 10);
        now.record("h", 20);
        now.counter_add("shard.00.a", 1);
        let mut c = Counts::default();
        c.add_delta(&now, &before);
        assert_eq!(c.counter("a"), 7);
        assert_eq!(c.hist_quantile("h", 1.0), 20);
        assert_eq!(c.hist_mean("h"), 15.0);
        assert!(!c.counters.contains_key("shard.00.a"));
    }
}
