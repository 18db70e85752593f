//! Sampling memory profiler.

use gh_mem::clock::Ns;

/// One observation of the process memory state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Virtual timestamp (ns).
    pub t: Ns,
    /// CPU resident set size in bytes.
    pub rss: u64,
    /// GPU used memory in bytes (includes the driver baseline, as
    /// `nvidia-smi` reports).
    pub gpu_used: u64,
}

/// Periodic sampler over a stream of state observations.
///
/// The simulator calls [`MemProfiler::observe`] whenever memory state may
/// have changed (after every clock advance). The profiler retains the
/// *latest* observation in each sampling period, emitting it when the
/// period rolls over — the same series a wall-clock poller produces.
#[derive(Debug, Clone)]
pub struct MemProfiler {
    period: Ns,
    samples: Vec<Sample>,
    pending: Option<Sample>,
    peak_rss: u64,
    peak_gpu: u64,
}

impl MemProfiler {
    /// Creates a profiler with the given sampling period. The paper uses
    /// 100 ms of wall time; experiments here typically use 100 µs of
    /// virtual time (the 1:1024 capacity scaling shortens everything).
    pub fn new(period: Ns) -> Self {
        assert!(period > 0, "sampling period must be positive");
        Self {
            period,
            samples: Vec::new(),
            pending: None,
            peak_rss: 0,
            peak_gpu: 0,
        }
    }

    /// Feeds the current state at virtual time `t`.
    pub fn observe(&mut self, t: Ns, rss: u64, gpu_used: u64) {
        self.peak_rss = self.peak_rss.max(rss);
        self.peak_gpu = self.peak_gpu.max(gpu_used);
        let s = Sample { t, rss, gpu_used };
        match self.pending {
            None => self.pending = Some(s),
            Some(p) => {
                if t / self.period > p.t / self.period {
                    // Period rolled over: commit the pending sample.
                    self.samples.push(p);
                    self.pending = Some(s);
                } else {
                    self.pending = Some(s);
                }
            }
        }
    }

    /// Flushes the trailing sample and returns the full series.
    pub fn finish(mut self) -> Vec<Sample> {
        if let Some(p) = self.pending.take() {
            self.samples.push(p);
        }
        self.samples
    }

    /// Samples collected so far (without the pending one).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Peak GPU usage over *every* observation (not just retained
    /// samples).
    pub fn peak_gpu(&self) -> u64 {
        self.peak_gpu
    }

    /// Peak RSS over every observation.
    pub fn peak_rss(&self) -> u64 {
        self.peak_rss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_latest_observation_per_period() {
        let mut p = MemProfiler::new(100);
        p.observe(10, 1, 0);
        p.observe(50, 2, 0);
        p.observe(150, 3, 0); // rolls over; commits the t=50 observation
        p.observe(260, 4, 0); // commits t=150
        let s = p.finish();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].rss, 2);
        assert_eq!(s[1].rss, 3);
        assert_eq!(s[2].rss, 4);
    }

    #[test]
    fn single_observation_is_flushed() {
        let mut p = MemProfiler::new(1000);
        p.observe(5, 7, 9);
        let s = p.finish();
        assert_eq!(
            s,
            vec![Sample {
                t: 5,
                rss: 7,
                gpu_used: 9
            }]
        );
    }

    #[test]
    fn empty_profiler_finishes_empty() {
        let p = MemProfiler::new(10);
        assert!(p.finish().is_empty());
    }

    #[test]
    fn peaks_include_pending() {
        let mut p = MemProfiler::new(1_000_000);
        p.observe(1, 10, 100);
        p.observe(2, 5, 200);
        assert_eq!(p.peak_rss(), 10);
        assert_eq!(p.peak_gpu(), 200);
    }

    #[test]
    fn timestamps_monotone_in_output() {
        let mut p = MemProfiler::new(7);
        for t in 0..100 {
            p.observe(t * 3, t, t);
        }
        let s = p.finish();
        assert!(s.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        MemProfiler::new(0);
    }
}
