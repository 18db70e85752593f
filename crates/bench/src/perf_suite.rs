//! The tracked perf trajectory (`BENCH_*.json`): how fast the simulator
//! itself runs, per app × platform × mode, measured by `gh-perf`.
//!
//! ROADMAP item 2 wants regressions in *simulator* speed to be visible
//! across PRs the same way paper numbers are. This suite runs the
//! application matrix on every registered platform with the self-profiler
//! armed and writes a dated JSON snapshot at the repo root:
//!
//! * `BENCH_<date>.json` — per-row host wall-time, virtual time, the
//!   sim-speed ratio (virtual ns advanced per host ms), checksum, and the
//!   per-phase host breakdown; plus suite-level peak RSS and (when the
//!   driver exports `GH_BENCH_TEST_SECS`) the tier-1 test-suite time.
//! * `BENCH_<date>.folded` — merged folded-stack text, one flamegraph
//!   root per row, for `flamegraph.pl`-style tooling.
//!
//! `BENCH_baseline.json` is the committed reference; [`compare`] diffs a
//! fresh run against it, *warning* on >10% wall-time movement (shared
//! runners are noisy — CI uploads, humans judge) and *failing* on
//! checksum bit drift, because host-side profiling must never perturb
//! simulated results.

use gh_apps::{AppId, MemMode};
use gh_profiler::Csv;
use gh_sim::platform;
use gh_trace::json::{f64_value, quote_into, Value};

use std::fmt::Write as _;

/// Default regression tolerance for wall-time comparisons (fraction).
pub const TOLERANCE: f64 = 0.10;

/// One measured (app, platform, mode) cell.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Application name (`needle`, `hotspot`, ...).
    pub app: String,
    /// Platform registry name (`gh200`, `mi300a`).
    pub platform: String,
    /// Memory mode label (`system`, `managed`).
    pub mode: String,
    /// Host wall-clock for the run, in milliseconds.
    pub wall_ms: f64,
    /// Virtual time the run simulated, in milliseconds.
    pub sim_ms: f64,
    /// Sim-speed ratio: virtual ns advanced per host ms (0 when either
    /// clock did not tick — never expected in practice).
    pub sim_ns_per_host_ms: f64,
    /// The application's correctness checksum (bit-compared across runs).
    pub checksum: f64,
    /// Per-phase `(label, host_ns, sim_ns)` host-time breakdown.
    pub phases: Vec<(String, u64, u64)>,
    /// Folded-stack text for this row (paths rooted at phase labels).
    pub folded: String,
}

/// A full suite snapshot, ready to serialize.
#[derive(Debug, Clone)]
pub struct PerfSuite {
    /// Civil date (`YYYY-MM-DD`) the suite ran, from the host clock.
    pub date: String,
    /// Whether shrunk (`GH_FAST`) inputs were used.
    pub fast: bool,
    /// Process-wide peak RSS after the suite, in bytes.
    pub peak_rss_bytes: u64,
    /// Tier-1 test-suite wall time in seconds, when the invoking driver
    /// exported `GH_BENCH_TEST_SECS`; `None` otherwise.
    pub test_suite_secs: Option<f64>,
    /// All measured cells, in app × mode × platform order.
    pub rows: Vec<PerfRow>,
}

/// Runs the suite: every paper app × {system, managed} × every platform,
/// each run under its own session with the self-profiler armed. Serial
/// by default — the wall-time columns are the tracked signal, and
/// co-scheduled runs would perturb them — but `GH_JOBS=<n>` fans the
/// matrix over the `gh-jobs` executor for a quick (untracked) pass.
#[expect(
    clippy::disallowed_methods,
    reason = "the bench harness is the env boundary: GH_BENCH_TEST_SECS carries the test-suite time"
)]
pub fn run(fast: bool) -> PerfSuite {
    let so = gh_cuda::SessionOptions {
        perf: true,
        ..Default::default()
    };
    let workers = crate::util::jobs_requested(1);
    let mut specs = Vec::new();
    for app in AppId::ALL {
        for mode in [MemMode::System, MemMode::Managed] {
            for p in platform::all() {
                specs.push(gh_jobs::JobSpec {
                    app,
                    platform: p.caps().name.to_string(),
                    mode,
                    page_size: None,
                    small: fast,
                    session: so.clone(),
                });
            }
        }
    }
    let outcomes = gh_jobs::run_suite(&specs, workers, &gh_jobs::JobCache::new());
    let mut rows = Vec::new();
    for (spec, out) in specs.iter().zip(outcomes) {
        let out = out.expect("suite specs name registered platforms");
        let perf = out
            .perf
            .expect("fresh cache + perf session: every job simulates and profiles");
        let root = format!(
            "{}-{}-{}",
            spec.app.name(),
            spec.platform,
            spec.mode.label()
        );
        let mut folded = String::new();
        for line in gh_perf::export::folded(&perf).lines() {
            let _ = writeln!(folded, "{root};{line}");
        }
        rows.push(PerfRow {
            app: spec.app.name().to_string(),
            platform: spec.platform.clone(),
            mode: spec.mode.label().to_string(),
            wall_ms: perf.host_total_ns as f64 / 1e6,
            sim_ms: perf.sim_total_ns as f64 / 1e6,
            sim_ns_per_host_ms: perf.sim_speed().unwrap_or(0.0),
            checksum: out.report.checksum,
            phases: perf
                .phases
                .iter()
                .map(|ph| (ph.label.clone(), ph.host_ns, ph.sim_ns))
                .collect(),
            folded,
        });
    }
    PerfSuite {
        date: gh_perf::host_date(),
        fast,
        peak_rss_bytes: gh_perf::peak_rss_bytes(),
        test_suite_secs: std::env::var("GH_BENCH_TEST_SECS")
            .ok()
            .and_then(|s| s.parse().ok()),
        rows,
    }
}

impl PerfSuite {
    /// Serializes the snapshot (`schema: "gh-bench-perf/1"`).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\"schema\":\"gh-bench-perf/1\",\"date\":");
        quote_into(&mut o, &self.date);
        let _ = write!(
            o,
            ",\"fast\":{},\"peak_rss_bytes\":{}",
            self.fast, self.peak_rss_bytes,
        );
        // Canonical optional: the key is *omitted* when unmeasured, never
        // `null`, so two snapshots of the same suite are byte-identical
        // regardless of which serializer wrote them. The parser side
        // treats a missing key and `null` alike.
        if let Some(t) = self.test_suite_secs {
            let _ = write!(o, ",\"test_suite_secs\":{}", f64_value(t));
        }
        o.push_str(",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n  {\"app\":");
            quote_into(&mut o, &r.app);
            o.push_str(",\"platform\":");
            quote_into(&mut o, &r.platform);
            o.push_str(",\"mode\":");
            quote_into(&mut o, &r.mode);
            let _ = write!(
                o,
                ",\"wall_ms\":{},\"sim_ms\":{},\"sim_ns_per_host_ms\":{},\"checksum\":{},\
                 \"checksum_bits\":\"0x{:016x}\"",
                f64_value(r.wall_ms),
                f64_value(r.sim_ms),
                f64_value(r.sim_ns_per_host_ms),
                f64_value(r.checksum),
                r.checksum.to_bits(),
            );
            o.push_str(",\"phases\":[");
            for (j, (label, host_ns, sim_ns)) in r.phases.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str("{\"label\":");
                quote_into(&mut o, label);
                let _ = write!(o, ",\"host_ns\":{host_ns},\"sim_ns\":{sim_ns}}}");
            }
            o.push_str("]}");
        }
        o.push_str("\n]}");
        o
    }

    /// The merged folded-stack text across all rows.
    pub fn folded(&self) -> String {
        self.rows.iter().map(|r| r.folded.as_str()).collect()
    }

    /// Summary table for stdout.
    pub fn csv(&self) -> Csv {
        let mut csv = Csv::new([
            "app",
            "platform",
            "mode",
            "wall_ms",
            "sim_ms",
            "sim_ns_per_host_ms",
        ]);
        for r in &self.rows {
            csv.row(vec![
                r.app.clone(),
                r.platform.clone(),
                r.mode.clone(),
                format!("{:.3}", r.wall_ms),
                format!("{:.3}", r.sim_ms),
                format!("{:.0}", r.sim_ns_per_host_ms),
            ]);
        }
        csv
    }

    /// Writes `BENCH_<date>.json` + `BENCH_<date>.folded` at the repo
    /// root (`GH_BENCH_OUT=<dir>` overrides the directory) and returns
    /// the two paths.
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench harness is the env boundary: GH_BENCH_OUT names the output directory"
    )]
    pub fn write(&self) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
        let dir = std::env::var("GH_BENCH_OUT")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| repo_root());
        let json_path = dir.join(format!("BENCH_{}.json", self.date));
        let folded_path = dir.join(format!("BENCH_{}.folded", self.date));
        std::fs::write(&json_path, self.to_json())?;
        std::fs::write(&folded_path, self.folded())?;
        Ok((json_path, folded_path))
    }
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn repo_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Outcome of a baseline comparison: advisory warnings (wall-time noise)
/// and hard errors (simulated-output drift).
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// >tolerance wall-time movements and coverage gaps — advisory.
    pub warnings: Vec<String>,
    /// Checksum bit drift — profiling must never change simulated
    /// results, so these fail the suite.
    pub errors: Vec<String>,
}

impl Comparison {
    /// True when neither warnings nor errors were found.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty() && self.errors.is_empty()
    }
}

fn row_key(app: &str, platform: &str, mode: &str) -> String {
    format!("{app}/{platform}/{mode}")
}

/// Parses a `"0x%016x"` checksum-bits field back to the raw pattern.
fn parse_checksum_bits(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Diffs a fresh suite against a serialized baseline (`BENCH_*.json`
/// contents). Wall-time movement beyond `tolerance` (fractional, e.g.
/// 0.10) in *either* direction is a warning; checksum bit drift is an
/// error. Returns `Err` only when the baseline itself cannot be parsed.
pub fn compare(
    baseline_json: &str,
    current: &PerfSuite,
    tolerance: f64,
) -> Result<Comparison, String> {
    let base = Value::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    if base.get("schema").and_then(Value::as_str) != Some("gh-bench-perf/1") {
        return Err("baseline: not a gh-bench-perf/1 document".to_string());
    }
    let mut cmp = Comparison::default();
    let empty = Vec::new();
    let base_rows = base.get("rows").and_then(Value::as_arr).unwrap_or(&empty);
    let find = |key: &str| {
        base_rows.iter().find(|r| {
            let (Some(a), Some(p), Some(m)) = (
                r.get("app").and_then(Value::as_str),
                r.get("platform").and_then(Value::as_str),
                r.get("mode").and_then(Value::as_str),
            ) else {
                return false;
            };
            row_key(a, p, m) == key
        })
    };
    for r in &current.rows {
        let key = row_key(&r.app, &r.platform, &r.mode);
        let Some(b) = find(&key) else {
            cmp.warnings.push(format!("{key}: no baseline row"));
            continue;
        };
        // Bit-level checksum comparison. `checksum_bits` (the exact
        // `f64::to_bits` pattern, hex) is authoritative: the numeric
        // `checksum` field roundtrips through shortest-float formatting,
        // which serializes NaN as `null` — a baseline that drifted to NaN
        // would silently *pass* a numeric-only diff. An unreadable
        // baseline checksum is therefore an error, never a skip.
        let base_bits = b
            .get("checksum_bits")
            .and_then(Value::as_str)
            .and_then(parse_checksum_bits)
            .or_else(|| b.get("checksum").and_then(Value::as_f64).map(f64::to_bits));
        match base_bits {
            None => cmp.errors.push(format!(
                "{key}: baseline checksum is unreadable (no parseable \
                 checksum_bits and checksum is not a finite number); \
                 bitwise stability cannot be verified"
            )),
            Some(bb) if bb != r.checksum.to_bits() => cmp.errors.push(format!(
                "{key}: checksum drifted from baseline \
                 (0x{bb:016x} -> 0x{:016x}, {}); \
                 simulated output must be bitwise stable",
                r.checksum.to_bits(),
                r.checksum
            )),
            Some(_) => {}
        }
        let Some(base_wall) = b.get("wall_ms").and_then(Value::as_f64) else {
            continue;
        };
        if base_wall > 0.0 {
            let delta = (r.wall_ms - base_wall) / base_wall;
            if delta > tolerance {
                cmp.warnings.push(format!(
                    "{key}: wall time {:.3} ms is {:+.1}% vs baseline {:.3} ms",
                    r.wall_ms,
                    delta * 100.0,
                    base_wall
                ));
            } else if delta < -tolerance {
                cmp.warnings.push(format!(
                    "{key}: wall time {:.3} ms improved {:+.1}% vs baseline {:.3} ms \
                     (consider refreshing BENCH_baseline.json)",
                    r.wall_ms,
                    delta * 100.0,
                    base_wall
                ));
            }
        }
    }
    Ok(cmp)
}

/// Geometric-mean ratio of current to baseline wall time over the rows
/// present in both suites (`current / baseline`, so < 1.0 means the
/// simulator got faster). `Ok(None)` when no row overlaps or no baseline
/// row has a positive wall time.
pub fn geomean_wall_ratio(baseline_json: &str, current: &PerfSuite) -> Result<Option<f64>, String> {
    let base = Value::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let empty = Vec::new();
    let base_rows = base.get("rows").and_then(Value::as_arr).unwrap_or(&empty);
    let mut ln_sum = 0.0_f64;
    let mut n = 0u32;
    for r in &current.rows {
        let key = row_key(&r.app, &r.platform, &r.mode);
        let base_wall = base_rows.iter().find_map(|b| {
            let (Some(a), Some(p), Some(m)) = (
                b.get("app").and_then(Value::as_str),
                b.get("platform").and_then(Value::as_str),
                b.get("mode").and_then(Value::as_str),
            ) else {
                return None;
            };
            (row_key(a, p, m) == key).then(|| b.get("wall_ms").and_then(Value::as_f64))?
        });
        if let Some(bw) = base_wall {
            if bw > 0.0 && r.wall_ms > 0.0 {
                ln_sum += (r.wall_ms / bw).ln();
                n += 1;
            }
        }
    }
    Ok((n > 0).then(|| (ln_sum / f64::from(n)).exp()))
}

/// Convenience: compare `current` against the committed
/// `BENCH_baseline.json`, if present.
pub fn compare_to_baseline(current: &PerfSuite) -> Result<Option<Comparison>, String> {
    let path = repo_root().join("BENCH_baseline.json");
    match std::fs::read_to_string(&path) {
        Ok(s) => compare(&s, current, TOLERANCE).map(Some),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> PerfSuite {
        PerfSuite {
            date: "2026-01-01".into(),
            fast: true,
            peak_rss_bytes: 1 << 20,
            test_suite_secs: Some(12.5),
            rows: vec![PerfRow {
                app: "hotspot".into(),
                platform: "gh200".into(),
                mode: "system".into(),
                wall_ms: 10.0,
                sim_ms: 40.0,
                sim_ns_per_host_ms: 4_000_000.0,
                checksum: 1.25,
                phases: vec![("compute".into(), 9_000_000, 36_000_000)],
                folded: "hotspot-gh200-system;compute 9000000\n".into(),
            }],
        }
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let s = tiny_suite();
        let v = Value::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("gh-bench-perf/1")
        );
        assert_eq!(v.get("test_suite_secs").and_then(Value::as_f64), Some(12.5));
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("app").and_then(Value::as_str), Some("hotspot"));
        assert_eq!(
            rows[0].get("checksum_bits").and_then(Value::as_str),
            Some(format!("0x{:016x}", 1.25_f64.to_bits()).as_str())
        );
        assert_eq!(
            rows[0].get("sim_ns_per_host_ms").and_then(Value::as_f64),
            Some(4_000_000.0)
        );
        let phases = rows[0].get("phases").and_then(Value::as_arr).unwrap();
        assert_eq!(phases[0].get("host_ns").and_then(Value::as_f64), Some(9e6));
    }

    #[test]
    fn unmeasured_test_suite_secs_is_omitted_not_null() {
        let mut s = tiny_suite();
        s.test_suite_secs = None;
        let json = s.to_json();
        assert!(
            !json.contains("test_suite_secs"),
            "the canonical form omits the key entirely: {json}"
        );
        let v = Value::parse(&json).expect("valid JSON");
        // Missing key reads the same as the old `null` encoding did.
        assert_eq!(v.get("test_suite_secs").and_then(Value::as_f64), None);
    }

    #[test]
    fn checksum_diff_sees_through_lossy_float_roundtrip() {
        // A NaN checksum serializes as `null` under shortest-float
        // formatting; the numeric-only diff used to silently skip such
        // rows. The bit-pattern field must keep them comparable.
        let mut base = tiny_suite();
        base.rows[0].checksum = f64::NAN;
        let mut cur = tiny_suite();
        cur.rows[0].checksum = f64::NAN;
        let cmp = compare(&base.to_json(), &cur, TOLERANCE).unwrap();
        assert!(
            cmp.is_clean(),
            "identical NaN bits must compare clean: {cmp:?}"
        );

        // Same NaN-vs-finite drift must now *fail*, not skip.
        cur.rows[0].checksum = 1.25;
        let cmp = compare(&base.to_json(), &cur, TOLERANCE).unwrap();
        assert_eq!(cmp.errors.len(), 1, "{cmp:?}");
        assert!(cmp.errors[0].contains("checksum"), "{cmp:?}");

        // A legacy baseline with neither a parseable checksum_bits nor a
        // finite checksum is an error — never a silent pass.
        let legacy = base.to_json().replace(
            &format!("\"checksum_bits\":\"0x{:016x}\",", f64::NAN.to_bits()),
            "",
        );
        assert!(legacy.contains("\"checksum\":null"), "{legacy}");
        let cmp = compare(&legacy, &cur, TOLERANCE).unwrap();
        assert_eq!(cmp.errors.len(), 1, "{cmp:?}");
        assert!(cmp.errors[0].contains("unreadable"), "{cmp:?}");
    }

    #[test]
    fn geomean_wall_ratio_averages_overlapping_rows() {
        let base = tiny_suite();
        let mut cur = tiny_suite();
        cur.rows[0].wall_ms = 2.5; // 4x faster than the 10.0 baseline
        let g = geomean_wall_ratio(&base.to_json(), &cur).unwrap().unwrap();
        assert!((g - 0.25).abs() < 1e-12, "{g}");
        cur.rows[0].app = "srad".into(); // no overlap left
        assert_eq!(geomean_wall_ratio(&base.to_json(), &cur).unwrap(), None);
        assert!(geomean_wall_ratio("not json", &cur).is_err());
    }

    #[test]
    fn compare_is_clean_against_itself() {
        let s = tiny_suite();
        let cmp = compare(&s.to_json(), &s, TOLERANCE).unwrap();
        assert!(cmp.is_clean(), "{cmp:?}");
    }

    #[test]
    fn compare_warns_on_slowdown_and_errors_on_checksum_drift() {
        let base = tiny_suite();
        let mut cur = tiny_suite();
        cur.rows[0].wall_ms = 12.0; // +20% > 10% tolerance
        cur.rows[0].checksum = 1.26;
        let cmp = compare(&base.to_json(), &cur, TOLERANCE).unwrap();
        assert_eq!(cmp.warnings.len(), 1, "{cmp:?}");
        assert!(cmp.warnings[0].contains("+20.0%"), "{cmp:?}");
        assert_eq!(cmp.errors.len(), 1, "{cmp:?}");
        assert!(cmp.errors[0].contains("checksum"), "{cmp:?}");
    }

    #[test]
    fn compare_tolerates_noise_within_band() {
        let base = tiny_suite();
        let mut cur = tiny_suite();
        cur.rows[0].wall_ms = 10.9; // +9% < 10%
        let cmp = compare(&base.to_json(), &cur, TOLERANCE).unwrap();
        assert!(cmp.is_clean(), "{cmp:?}");
    }

    #[test]
    fn compare_flags_missing_rows_and_bad_baseline() {
        let base = tiny_suite();
        let mut cur = tiny_suite();
        cur.rows[0].app = "srad".into();
        let cmp = compare(&base.to_json(), &cur, TOLERANCE).unwrap();
        assert_eq!(cmp.warnings.len(), 1);
        assert!(cmp.warnings[0].contains("no baseline row"));
        assert!(compare("not json", &cur, TOLERANCE).is_err());
        assert!(compare("{\"schema\":\"other\"}", &cur, TOLERANCE).is_err());
    }

    #[test]
    fn fast_suite_measures_every_cell() {
        let s = run(true);
        let n_platforms = platform::all().len();
        assert_eq!(s.rows.len(), AppId::ALL.len() * 2 * n_platforms);
        for r in &s.rows {
            assert!(r.wall_ms > 0.0, "{}: host clock must tick", r.app);
            assert!(r.sim_ms > 0.0, "{}: virtual clock must tick", r.app);
            assert!(
                r.sim_ns_per_host_ms > 0.0,
                "{}/{}/{}: sim-speed ratio must be positive",
                r.app,
                r.platform,
                r.mode
            );
            assert!(!r.phases.is_empty(), "{}: phases recorded", r.app);
            assert!(
                r.phases.iter().any(|(_, host_ns, _)| *host_ns > 0),
                "{}: nonzero host-time phase spans",
                r.app
            );
            assert!(r.folded.contains(&r.app), "{}: folded stacks", r.app);
        }
        // Same app+mode must checksum identically across platforms.
        for r in &s.rows {
            let twin = s
                .rows
                .iter()
                .find(|t| t.app == r.app && t.mode == r.mode && t.platform != r.platform);
            if let Some(t) = twin {
                assert_eq!(
                    r.checksum.to_bits(),
                    t.checksum.to_bits(),
                    "{}/{}: checksum must be platform-independent",
                    r.app,
                    r.mode
                );
            }
        }
    }
}
