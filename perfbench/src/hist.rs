//! Benchmark-side latency histogram.
//!
//! Log-linear buckets: 16 equal-width sub-buckets per power of two, so a
//! bucket is never wider than 1/16 (6.25%) of its lower edge. Values below
//! 16 get a bucket each. Quantiles interpolate by rank inside the bucket
//! that holds them, which keeps two runs from reporting the same bucket
//! edge as an identical figure. Fixed size (976 counters), so recording
//! never allocates and the histogram does not grow the process's memory
//! with the run length.

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// `[lower, upper)` edges of bucket `i`.
fn edges(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        return (i as u64, i as u64 + 1);
    }
    let e = (i as u64 / SUB) as u32 + SUB_BITS - 1;
    let sub = i as u64 % SUB;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (SUB + sub) << (e - SUB_BITS);
    (lo, lo.saturating_add(width))
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(o.counts.iter()) {
            *a += b;
        }
        self.n += o.n;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (0..=1), interpolated inside its bucket and clamped
    /// to the observed range. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, hi) = edges(i);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                let v = lo as f64 + (hi - lo) as f64 * frac;
                return v.clamp(self.min as f64, self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_within_a_sixteenth() {
        for v in (0..20_000u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX / 3]) {
            let (lo, hi) = edges(index(v));
            assert!(lo <= v && v < hi.max(lo + 1), "v={v} lo={lo} hi={hi}");
            assert!((hi - lo) * SUB <= lo.max(SUB), "bucket too wide at {v}");
        }
    }

    #[test]
    fn quantiles_track_a_uniform_sample() {
        let mut h = Hist::default();
        for v in 1000..=2000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 1500.0).abs() / 1500.0 < 0.0625, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 1990.0).abs() / 1990.0 < 0.0625, "p99 {p99}");
        assert_eq!(h.count(), 1001);
    }
}
