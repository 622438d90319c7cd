//! The perf-smoke gate: compares a freshly measured
//! `results/BENCH_crypto.json` against a committed baseline.
//!
//! Both documents carry per-bench `before_ns`/`after_ns` pairs measured on
//! the same machine in the same process, so the gated *speedup*
//! (`before_ns / after_ns`) is machine-independent: a fresh speedup may
//! fall below the baseline's by at most `tol` (relative). Absolute
//! nanoseconds are printed for context but never gated on.
//!
//! A baseline row that names a CPU feature (`"requires": "sha"`) was
//! measured with that feature in use, so a host without it cannot
//! reproduce the row's ratio: there the row is skipped and reported as
//! skipped, whether or not the fresh run has it. Any other bench present in
//! the baseline but missing from the fresh run fails. Extra fresh benches
//! are ignored (additions land with a new baseline).

use steins_obs::json::Json;

/// One row of a bench document.
#[derive(Debug)]
pub struct Bench {
    /// Row name, e.g. `hmac_mac64_72B`.
    pub name: String,
    /// `before_ns / after_ns`.
    pub speedup: f64,
    /// The optimized side's time, printed for context.
    pub after_ns: f64,
    /// CPU feature the row needs (`"sha"`), if any.
    pub requires: Option<String>,
}

/// Reads the `benches` array of a bench document.
pub fn benches(doc: &Json) -> Result<Vec<Bench>, String> {
    let arr = doc
        .get("benches")
        .and_then(|b| b.as_arr())
        .ok_or("no `benches` array")?;
    arr.iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("bench without a name")?;
            let ns = |key: &str| {
                b.get(key)
                    .and_then(|v| v.as_f64())
                    .ok_or(format!("{name} has no {key}"))
            };
            let after_ns = ns("after_ns")?;
            Ok(Bench {
                name: name.to_string(),
                speedup: ns("before_ns")? / after_ns,
                after_ns,
                requires: b.get("requires").and_then(|r| r.as_str()).map(String::from),
            })
        })
        .collect()
}

/// The gate's verdict on one baseline/fresh pair.
#[derive(Debug, Default)]
pub struct Report {
    /// One printable table line per gated bench.
    pub lines: Vec<String>,
    /// `"<bench>: skipped: host lacks <feature>"` per skipped bench.
    pub skipped: Vec<String>,
    /// One message per regression or missing bench; empty means pass.
    pub failures: Vec<String>,
}

/// Gates `fresh` against `baseline` at relative tolerance `tol`.
/// `host_has(feature)` says whether the running host has a CPU feature a
/// baseline row requires ([`host_has`] in the binary; tests inject one).
pub fn compare(
    baseline: &[Bench],
    fresh: &[Bench],
    tol: f64,
    host_has: impl Fn(&str) -> bool,
) -> Report {
    let mut report = Report::default();
    for base in baseline {
        let name = &base.name;
        if let Some(feature) = base.requires.as_deref().filter(|f| !host_has(f)) {
            report
                .skipped
                .push(format!("{name}: skipped: host lacks {feature}"));
            continue;
        }
        let floor = base.speedup * (1.0 - tol);
        match fresh.iter().find(|f| &f.name == name) {
            None => report.failures.push(format!(
                "{name}: present in baseline, missing from fresh run"
            )),
            Some(f) => {
                report.lines.push(format!(
                    "{name:<28}{:>10.2}{:>10.2}{floor:>10.2}{:>12.1}",
                    base.speedup, f.speedup, f.after_ns
                ));
                // `partial_cmp` so a NaN speedup counts as a regression.
                if f.speedup.partial_cmp(&floor) == Some(std::cmp::Ordering::Less)
                    || f.speedup.is_nan()
                {
                    report.failures.push(format!(
                        "{name}: speedup {:.2} below floor {floor:.2} (baseline {:.2}, tol {tol})",
                        f.speedup, base.speedup
                    ));
                }
            }
        }
    }
    report
}

/// Whether the running host has the CPU feature a bench row requires.
/// Unknown names count as present, so their rows are gated, never skipped.
pub fn host_has(feature: &str) -> bool {
    use steins_crypto::Backend;
    Backend::ALL
        .into_iter()
        .find(|b| b.requires() == Some(feature))
        .map_or(true, Backend::available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_obs::json::parse;

    /// A bench document in the microbench's format.
    fn doc(rows: &[(&str, f64, f64, Option<&str>)]) -> Json {
        let rows: Vec<String> = rows
            .iter()
            .map(|(name, before, after, requires)| {
                let req = requires.map_or(String::new(), |r| format!(", \"requires\": \"{r}\""));
                format!(
                    "{{\"name\": \"{name}\", \"before_ns\": {before}, \"after_ns\": {after}{req}}}"
                )
            })
            .collect();
        parse(&format!("{{\"benches\": [{}]}}", rows.join(", "))).unwrap()
    }

    const ROWS: [(&str, f64, f64, Option<&str>); 3] = [
        ("aes128_otp64", 692.4, 10.2, None),
        ("hmac_mac64_72B", 1308.2, 861.3, None),
        ("hmac_mac64_72B_shani", 870.0, 170.0, Some("sha")),
    ];

    fn gate(fresh: &[(&str, f64, f64, Option<&str>)], has_sha: bool) -> Report {
        let base = benches(&doc(&ROWS)).unwrap();
        let fresh = benches(&doc(fresh)).unwrap();
        compare(&base, &fresh, 0.25, |f| f != "sha" || has_sha)
    }

    #[test]
    fn identical_run_passes() {
        for has_sha in [false, true] {
            let r = gate(&ROWS, has_sha);
            assert!(r.failures.is_empty(), "{:?}", r.failures);
            assert_eq!(r.skipped.len(), usize::from(!has_sha));
            assert_eq!(r.lines.len() + r.skipped.len(), ROWS.len());
        }
    }

    /// The tripping mutant: a 4x slower HMAC must fail the gate.
    #[test]
    fn slowed_hmac_fails() {
        let mut fresh = ROWS;
        fresh[1].2 *= 4.0;
        let r = gate(&fresh, true);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].starts_with("hmac_mac64_72B: speedup"));
    }

    #[test]
    fn missing_row_fails() {
        let r = gate(&ROWS[1..], true);
        assert_eq!(
            r.failures,
            ["aes128_otp64: present in baseline, missing from fresh run"]
        );
    }

    /// A `requires: sha` row is skipped only where the host lacks SHA-NI
    /// (missing, or measured without it); a host with it gates the row
    /// (missing or slowed both fail).
    #[test]
    fn requires_sha_row_is_skipped_only_without_sha() {
        let mut slowed = ROWS;
        slowed[2].2 *= 4.0;
        for fresh in [&ROWS[..2], &slowed[..]] {
            let r = gate(fresh, false);
            assert!(r.failures.is_empty(), "{:?}", r.failures);
            assert_eq!(r.skipped, ["hmac_mac64_72B_shani: skipped: host lacks sha"]);
            assert_eq!(r.lines.len(), 2);
        }

        let r = gate(&ROWS[..2], true);
        assert!(r.skipped.is_empty());
        assert_eq!(
            r.failures,
            ["hmac_mac64_72B_shani: present in baseline, missing from fresh run"]
        );

        let r = gate(&slowed, true);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].starts_with("hmac_mac64_72B_shani: speedup"));
    }

    #[test]
    fn nan_speedup_fails() {
        let mut fresh = ROWS;
        fresh[0].1 = 0.0;
        fresh[0].2 = 0.0;
        assert_eq!(gate(&fresh, true).failures.len(), 1);
    }
}
