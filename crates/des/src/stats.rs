//! Streaming statistics for experiment measurement.
//!
//! The paper reports the mean over 100 000 consecutive barriers; our harness
//! additionally reports spread so that calibration regressions show up. Both
//! accumulators are single-pass. `Summary` never allocates; `Histogram`
//! allocates only when a sample lands past every bin it has stored.

use crate::time::SimTime;
use crate::walk::Walk;

/// Streaming mean/min/max/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add one duration sample, in microseconds (the paper's reporting unit).
    pub fn record_time_us(&mut self, t: SimTime) {
        self.record(t.as_us_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Unbiased sample standard deviation (0 for n < 2).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width-bin histogram over `[0, bin_width * bins)` with separate
/// underflow (`x < 0`) and overflow (`x >= bin_width * bins`) buckets; used
/// for latency distributions in the testbed.
///
/// Underflow and overflow are tracked apart because they rank at opposite
/// ends of the distribution: a below-range sample sits *before* every
/// binned sample, an above-range sample *after*. Folding them together
/// (as an earlier version did) silently shifted every quantile upward
/// whenever a negative sample had been recorded.
///
/// Bins are stored lazily: a new histogram allocates nothing, and the
/// stored counts reach only as far as the highest bin recorded so far,
/// growing to the next power of two (capped at `bins`). A histogram thus
/// grows at most `ceil(log2(bins)) + 1` times over its life and never
/// again once its largest sample has been seen; bins past the stored length
/// read as 0. Every observable is the same as with all `bins` counts
/// allocated up front.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    bins: usize,
    /// Counts of bins `0..counts.len()`; every later bin is 0.
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

// Bins past the stored ones are zero and not visited.
crate::walk! {
    impl Walk for Histogram {
        bin_width, bins: scratch("fixed at construction"),
        counts: with(
            v => counts.iter().for_each(|&c| v.counter(None, c)),
            f => counts.iter_mut().for_each(f)
        ),
        underflow, overflow, total: counter,
    }
}

impl Histogram {
    /// `bins` buckets of width `bin_width`. Allocates nothing until the
    /// first in-range sample.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0 && bin_width.is_finite() && bins > 0);
        Histogram {
            bin_width,
            bins,
            counts: Vec::new(),
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Add a sample. Negative samples land in the underflow bucket,
    /// samples at or beyond `bin_width * bins` in the overflow bucket.
    /// Allocates only when the sample's bin lies past every bin stored so
    /// far.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.underflow += 1;
            return;
        }
        let idx = (x / self.bin_width) as usize;
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        } else if idx < self.bins {
            self.grow_to((idx + 1).next_power_of_two().min(self.bins));
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Extend the stored counts to exactly `len` bins.
    fn grow_to(&mut self, len: usize) {
        self.counts.reserve_exact(len - self.counts.len());
        self.counts.resize(len, 0);
    }

    /// Total samples recorded (in-range + underflow + overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples below the binned range (`x < 0`).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples above the binned range (`x >= bin_width * bins`).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= bins`, naming both.
    pub fn bucket(&self, i: usize) -> u64 {
        assert!(
            i < self.bins,
            "bucket {i} is out of range for a histogram of {} bins",
            self.bins
        );
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Merge another histogram into this one (per-node aggregation). Both
    /// sides must have the same bin width and bin count.
    ///
    /// Widths are compared by exact bit pattern (`f64::to_bits`), not by
    /// `==`: two histograms constructed from the same configuration carry
    /// bit-identical widths, and the bit comparison can never be confused
    /// by NaN or rounding-path differences the way a float `==` can.
    ///
    /// # Panics
    /// Panics if the bin widths or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bin_width.to_bits() == other.bin_width.to_bits(),
            "bin width mismatch: {} vs {}",
            self.bin_width,
            other.bin_width
        );
        assert_eq!(self.bins, other.bins, "bin count mismatch");
        if other.counts.len() > self.counts.len() {
            self.grow_to(other.counts.len());
        }
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += from;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate mean from bucket midpoints (`None` if no in-range
    /// samples). Underflow and overflow samples are excluded — out-of-range
    /// samples have no usable midpoint, so the mean describes the binned
    /// distribution only.
    pub fn mean(&self) -> Option<f64> {
        let in_range = self.total - self.underflow - self.overflow;
        if in_range == 0 {
            return None;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (i as f64 + 0.5) * self.bin_width)
            .sum();
        Some(sum / in_range as f64)
    }

    /// Approximate quantile (`q` in `[0,1]`) from bucket upper edges.
    ///
    /// The rank is taken over *all* samples: underflow samples rank below
    /// every bin (they count toward the rank but can't be the answer) and
    /// overflow samples rank above. Returns `None` if the histogram is
    /// empty or the requested quantile lands in the underflow or overflow
    /// bucket — the histogram cannot bound an out-of-range sample's value.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        if target <= self.underflow {
            return None; // the quantile is a below-range sample
        }
        let mut seen = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        None // the quantile is an above-range sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935299395).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn summary_merge_equals_single_stream() {
        let data: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        data[..40].iter().for_each(|&x| a.record(x));
        data[40..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(3.0);
        let before = a.mean();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn summary_record_time() {
        let mut s = Summary::new();
        s.record_time_us(SimTime::from_us(100));
        assert!((s.mean() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(10.0, 5);
        for x in [0.0, 5.0, 15.0, 49.9, 50.0, 1000.0, -1.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(4), 1);
        assert_eq!(h.overflow(), 2, "50.0 and 1000.0 are above range");
        assert_eq!(h.underflow(), 1, "-1.0 is below range");
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&median), "median={median}");
        assert!(h.quantile(1.0).unwrap() >= 99.0);
        assert!(Histogram::new(1.0, 4).quantile(0.5).is_none());
    }

    #[test]
    fn underflow_does_not_shift_quantiles_upward() {
        // The regression this fix exists for: a below-range sample used to
        // be filed with overflow, so it was invisible to the bin walk while
        // still inflating the rank target — every quantile shifted up.
        let mut with_under = Histogram::new(1.0, 100);
        with_under.record(-5.0);
        let mut without = Histogram::new(1.0, 100);
        for i in 0..99 {
            with_under.record(i as f64 + 0.5);
            without.record(i as f64 + 0.5);
        }
        // Ranked over all 100 samples, the median of `with_under` is the
        // 50th sample: the -5.0 underflow is rank 1, so the 50th is bin 48.
        let m_with = with_under.quantile(0.5).unwrap();
        let m_without = without.quantile(0.5).unwrap();
        assert!(
            (m_with - m_without).abs() <= 1.0,
            "underflow shifted the median: {m_with} vs {m_without}"
        );
    }

    #[test]
    fn quantile_landing_out_of_range_is_none() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-1.0);
        h.record(-2.0);
        h.record(1.5);
        h.record(100.0);
        // q=0.25 → rank 1 of 4 → an underflow sample: unanswerable.
        assert_eq!(h.quantile(0.25), None);
        // q=0.75 → rank 3 → the in-range 1.5 → bin 1's upper edge.
        assert_eq!(h.quantile(0.75), Some(2.0));
        // q=1.0 → rank 4 → the overflow sample: unanswerable.
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn quantile_boundary_ranks() {
        // q = 0 clamps to rank 1 (the minimum), never rank 0.
        let mut h = Histogram::new(1.0, 4);
        h.record(0.5);
        h.record(2.5);
        assert_eq!(h.quantile(0.0), Some(1.0));
        // q = 1.0 of an all-in-range histogram is the maximum's bin edge.
        assert_eq!(h.quantile(1.0), Some(3.0));

        // Rank landing exactly on the last underflow sample: unanswerable;
        // one rank past it: the first in-range bin.
        let mut u = Histogram::new(1.0, 4);
        u.record(-1.0);
        u.record(-1.0);
        u.record(0.5);
        u.record(1.5);
        // q = 0.5 → rank 2 of 4 → exactly the last underflow sample.
        assert_eq!(u.quantile(0.5), None);
        // q = 0.75 → rank 3 → the first in-range sample.
        assert_eq!(u.quantile(0.75), Some(1.0));

        // Rank landing exactly on the last in-range sample answers; the
        // next rank (the first overflow sample) does not.
        let mut o = Histogram::new(1.0, 4);
        o.record(0.5);
        o.record(1.5);
        o.record(99.0);
        o.record(99.0);
        // q = 0.5 → rank 2 of 4 → the last in-range sample.
        assert_eq!(o.quantile(0.5), Some(2.0));
        // q = 0.75 → rank 3 → the first overflow sample.
        assert_eq!(o.quantile(0.75), None);
    }

    #[test]
    fn quantile_of_single_sample_histograms() {
        // Every quantile of a one-sample histogram is that sample's bin.
        let mut h = Histogram::new(2.0, 8);
        h.record(5.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(6.0), "q={q}");
        }
        // A lone underflow or overflow sample is unanswerable at any q.
        let mut u = Histogram::new(2.0, 8);
        u.record(-1.0);
        let mut o = Histogram::new(2.0, 8);
        o.record(1e9);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(u.quantile(q), None, "underflow q={q}");
            assert_eq!(o.quantile(q), None, "overflow q={q}");
        }
    }

    #[test]
    fn mean_excludes_underflow_and_overflow() {
        let mut h = Histogram::new(1.0, 10);
        h.record(-3.0);
        h.record(4.5);
        h.record(99.0);
        // Only 4.5 is in range; its bucket midpoint is 4.5.
        assert!((h.mean().unwrap() - 4.5).abs() < 1e-12);
        let mut empty_in_range = Histogram::new(1.0, 10);
        empty_in_range.record(-1.0);
        assert_eq!(empty_in_range.mean(), None);
    }

    #[test]
    fn histogram_merge_sums_all_buckets() {
        let mut a = Histogram::new(2.0, 4);
        let mut b = Histogram::new(2.0, 4);
        for x in [-1.0, 1.0, 3.0] {
            a.record(x);
        }
        for x in [5.0, 100.0, -2.0] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.underflow(), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.bucket(0), 1);
        assert_eq!(a.bucket(1), 1);
        assert_eq!(a.bucket(2), 1);
    }

    #[test]
    fn same_config_histograms_always_merge() {
        // Widths from the same configuration are bit-identical even when
        // the value has no exact binary representation.
        let width = 0.1f64 * 3.0; // 0.30000000000000004
        let mut a = Histogram::new(width, 8);
        let b = Histogram::new(width, 8);
        a.merge(&b); // must not panic
        assert_eq!(a.total(), 0);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn different_widths_refuse_to_merge() {
        let mut a = Histogram::new(0.1, 8);
        a.merge(&Histogram::new(0.2, 8));
    }

    #[test]
    fn bins_are_stored_only_up_to_the_highest_recorded() {
        let mut h = Histogram::new(1.0, 256);
        assert_eq!(h.counts.capacity(), 0, "a new histogram allocates nothing");
        h.record(-1.0);
        h.record(1e9);
        assert_eq!(h.counts.capacity(), 0, "out-of-range samples store no bins");
        h.record(2.5);
        assert_eq!(h.counts.len(), 4, "bin 2 grows the store to 4");
        assert_eq!(h.counts.capacity(), 4);
        h.record(200.0);
        assert_eq!(h.counts.len(), 256, "capped at the bin count");
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.bucket(200), 1);
        assert_eq!(h.bucket(255), 0);
    }

    #[test]
    #[should_panic(expected = "bucket 4 is out of range for a histogram of 4 bins")]
    fn bucket_past_the_bin_count_panics_naming_both() {
        let mut h = Histogram::new(1.0, 4);
        h.record(0.5);
        h.bucket(4);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merging_different_bin_counts_panics() {
        // Neither side has stored a bin, so only the declared counts differ.
        let mut a = Histogram::new(1.0, 4);
        a.merge(&Histogram::new(1.0, 8));
    }
}
