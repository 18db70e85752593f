//! Sample statistics and failure accounting.

use std::collections::BTreeMap;

/// A percentile is reported only when at least this many samples lie
/// above it; with fewer, the tail is too thin to rank.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The quantile `wall_s` takes of each op's times, in percent.
pub const WALL_PERCENTILE: f64 = 10.0;

/// Nearest-rank rank of the `p`-th percentile among `n` samples, counted
/// from 1 (`0 < p <= 100`).
fn rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).max(1)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest sample
/// with at least `p`% of the samples at or below it. Refused (`None`)
/// unless at least [`MIN_TAIL`] samples lie beyond the rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let s = sorted(samples);
    let r = rank(s.len(), p);
    (s.len() >= r + MIN_TAIL).then(|| s[r - 1])
}

/// Nearest-rank [`WALL_PERCENTILE`]th percentile, however few the
/// samples. `None` when there are none.
pub fn low_percentile(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    (!s.is_empty()).then(|| s[rank(s.len(), WALL_PERCENTILE) - 1])
}

/// A pass's wall time on a quiet host: `per_op[i]` holds op `i`'s time
/// in every pass, and the result sums each op's [`low_percentile`].
/// Other tenants of a shared host slow some passes by a third or more,
/// in stretches of a second or so; the low percentile reads the passes
/// they left alone.
pub fn sum_of_low_percentiles(per_op: &[Vec<f64>]) -> f64 {
    per_op.iter().filter_map(|t| low_percentile(t)).sum()
}

/// One timed outcome: the FNV-1a digest of a report's JSON, or why the
/// op produced no report (an `Err`, or a panic caught per op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Oracle key: outcomes with equal keys must have equal digests.
    pub key: String,
    /// The report digest, or the failure message.
    pub digest: Result<u64, String>,
    /// Served from the job cache without simulating.
    pub cached: bool,
}

/// Attempted and failed op counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Outcomes produced by the timed passes (cache hits included).
    pub attempted: u64,
    /// Outcomes that failed: an error, a panic, or a digest that differs
    /// from the oracle's.
    pub failed: u64,
}

impl Tally {
    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Checks every outcome of every pass against the oracle digests (the
/// reference-walk run of each distinct key). A digest that moves between
/// passes differs from the oracle in at least one of them, so it fails
/// there too. A key the oracle did not cover fails.
pub fn tally(passes: &[Vec<Outcome>], oracle: &BTreeMap<String, Result<u64, String>>) -> Tally {
    let mut t = Tally::default();
    for o in passes.iter().flatten() {
        t.attempted += 1;
        let ok = match (&o.digest, oracle.get(&o.key)) {
            (Ok(d), Some(Ok(want))) => d == want,
            _ => false,
        };
        if !ok {
            t.failed += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(key: &str, d: u64) -> Outcome {
        Outcome {
            key: key.into(),
            digest: Ok(d),
            cached: false,
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn wall_sums_each_ops_low_percentile() {
        // Op 0: 20 passes at 1.0..=2.9 s; its 10th percentile is the 2nd
        // fastest. Op 1: 3 passes, one of them stalled; rank 1 of 3.
        let op0: Vec<f64> = (10..30).rev().map(|t| f64::from(t) / 10.0).collect();
        let per_op = vec![op0, vec![2.2, 9.0, 2.0], vec![]];
        let w = sum_of_low_percentiles(&per_op);
        assert!((w - (1.1 + 2.0)).abs() < 1e-12, "{w}");
        // Slowing the slower 90% of an op's passes leaves it unchanged.
        let slowed = vec![(0..20).map(|i| if i < 2 { 1.0 } else { 5.0 }).collect::<Vec<f64>>()];
        assert!((sum_of_low_percentiles(&slowed) - 1.0).abs() < 1e-12);
        assert_eq!(low_percentile(&[3.0]), Some(3.0));
        assert_eq!(low_percentile(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn percentile_is_refused_without_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond: allowed.
        assert!(percentile(&s, 90.0).is_some());
        // p91 leaves 9: refused.
        assert_eq!(percentile(&s, 91.0), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&s, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        // The median needs 20 samples.
        assert_eq!(percentile(&s[..19], 50.0), None);
        assert_eq!(percentile(&s[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn every_failure_kind_counts_and_cache_hits_are_attempted() {
        let oracle: BTreeMap<String, Result<u64, String>> = [
            ("a".to_string(), Ok(1)),
            ("b".to_string(), Ok(2)),
            ("c".to_string(), Ok(3)),
        ]
        .into_iter()
        .collect();
        let clean = vec![
            ok("a", 1),
            Outcome {
                cached: true,
                ..ok("b", 2)
            },
            ok("c", 3),
        ];
        assert_eq!(
            tally(&[clean.clone(), clean.clone()], &oracle),
            Tally {
                attempted: 6,
                failed: 0
            },
            "a cache hit is attempted and, matching the oracle, passes"
        );

        let mut bad = clean.clone();
        bad[0].digest = Err("PlatformError: unknown platform".into());
        bad[1].digest = Err("panic: kernel access out of range".into());
        bad[2].digest = Ok(99); // injected mismatch against the oracle
        let t = tally(&[clean.clone(), bad], &oracle);
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed, 3);
        assert!((t.error_rate() - 0.5).abs() < 1e-12);

        // A digest that differs between passes fails in the pass that
        // disagrees with the oracle, even though each pass is
        // self-consistent.
        let mut moved = clean.clone();
        moved[1].digest = Ok(22);
        let t = tally(&[clean.clone(), moved], &oracle);
        assert_eq!(t.failed, 1);

        // An outcome the oracle never covered cannot be vouched for.
        let t = tally(&[vec![ok("zzz", 1)]], &oracle);
        assert_eq!(t.failed, 1);
        // Nor can one whose oracle run failed.
        let broken: BTreeMap<String, Result<u64, String>> =
            [("a".to_string(), Err("panic".into()))]
                .into_iter()
                .collect();
        assert_eq!(tally(&[vec![ok("a", 1)]], &broken).failed, 1);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
