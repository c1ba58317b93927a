//! Benchmark of the MPMD stack: end-to-end metrics from three workloads
//! and per-layer metrics from a traced run (see `perfbench/NOTES.md`).
//!
//! The benchmark drives the stack only through the crates' public
//! functions and times every call with its own clock; counters come from
//! the `Report` each run returns.

pub mod hist;
pub mod host;
pub mod ladder;
pub mod report;
pub mod rmi;
pub mod spans;
pub mod stream;
pub mod suite;

use hist::Hist;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Prefix of the progress lines a run prints before each batch of work.
pub const PROGRESS: &str = "#attempting ";

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);

/// Announce `ops` operations before they start. If the process dies while
/// running them, whoever reads the progress lines counts every announced
/// operation as attempted and failed.
pub fn announce(ops: u64) {
    let total = ATTEMPTED.fetch_add(ops, Ordering::SeqCst) + ops;
    println!("{PROGRESS}{total}");
}

/// Problem scale. `Quick` shrinks every workload for the smoke tests; the
/// benchmark command always runs `Paper`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Quick,
}

/// One run of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// Measurement time; a workload always finishes its current epoch or
    /// pass, and always runs at least one.
    pub time: Duration,
    pub scale: Scale,
    /// Deliberately corrupt one result, so tests can check that the
    /// output checks count it.
    pub corrupt: bool,
}

/// A named figure with its unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// What every workload measures end to end.
#[derive(Default)]
pub struct E2e {
    /// Latency of each operation in ns, one histogram per fabric run (or
    /// per simulator pass).
    pub epochs: Vec<Hist>,
    /// Time spent in the measured loops, excluding set-up and teardown.
    pub busy: Duration,
    /// Operations per second of each fabric run or pass.
    pub rates: Vec<f64>,
    /// Set-up time of each fabric or simulator start, s.
    pub setups: Vec<f64>,
    /// VmHWM after a fixed amount of work, MB.
    pub rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Fabric runs need this many samples for their own quantiles to count.
const EPOCH_SAMPLES: u64 = 100;

impl E2e {
    /// Every latency sample of the run.
    pub fn pooled(&self) -> Hist {
        let mut h = Hist::default();
        self.epochs.iter().for_each(|e| h.merge(e));
        h
    }

    /// The `q`-quantile of latency in ns: the mean of the middle half of
    /// the fabric runs' own quantiles, so one run the host disturbs moves
    /// it little. (A median would stick to the histogram's bucket edges,
    /// where many runs' quantiles fall, and read the same from run to
    /// run.) Simulator passes are single samples, so there it is the
    /// quantile of all passes.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.epochs.iter().all(|e| e.count() >= EPOCH_SAMPLES) {
            mid_mean(
                &self
                    .epochs
                    .iter()
                    .map(|e| e.quantile(q))
                    .collect::<Vec<_>>(),
            )
        } else {
            self.pooled().quantile(q)
        }
    }

    /// Read VmHWM when `done` units of work reach `after`. Memory that
    /// grows with the work done (see NOTES.md) then reads the same however
    /// fast the run goes; a run that ends sooner reads it at the end.
    pub fn note_rss(&mut self, done: u64, after: u64) {
        if done == after {
            self.rss_mb = Some(host::peak_rss_mb());
        }
    }

    /// Operations per second: the median of each fabric run's or pass's
    /// rate, so one run the host disturbs moves it little.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// The end-to-end metrics, under the names `BENCHMARK.json` declares.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.pooled().count();
        vec![
            Metric::new("op_p50_us", self.quantile(0.50) / 1e3, "us", n),
            Metric::new("op_p99_us", self.quantile(0.99) / 1e3, "us", n),
            Metric::new("ops_per_s", self.ops_per_s(), "1/s", n),
            Metric::new(
                "setup_s",
                median(&self.setups),
                "s",
                self.setups.len() as u64,
            ),
            Metric::new(
                "peak_rss_mb",
                self.rss_mb.unwrap_or_else(host::peak_rss_mb),
                "MB",
                1,
            ),
        ]
    }
}

/// The mean of the middle half of `v` (all of it below four values).
pub fn mid_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = &s[s.len() / 4..s.len() - s.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, a, b)`.
    pub fn derive(seed: u64, a: u64, b: u64) -> Self {
        let mut r = Rng(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F));
        let x = r.next_u64() ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        Rng(x)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_mean_drops_the_outer_quarters() {
        assert_eq!(mid_mean(&[100.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mid_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1e9]), 4.5);
        assert_eq!(mid_mean(&[7.0]), 7.0);
        assert_eq!(mid_mean(&[]), 0.0);
    }
}
