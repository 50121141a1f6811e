//! Order statistics and the run fingerprint.

/// Sorted copy of `xs` (values are timings and counts, never NaN).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, averaging the middle pair for even counts (as Python's
/// `statistics.median`). `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here are the ones an outside checker recomputes. With
/// one sample all three are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of p90, p99, p99.9, p99.99 that still has at least ten
/// samples strictly beyond it — the tail a sample of this size supports —
/// as `(p, value)` with the nearest-rank value. `None` for fewer than 100
/// samples, where even p90 has fewer than ten beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    // p = num / den, in integers so the rank never suffers rounding.
    [(9999, 10_000), (999, 1000), (99, 100), (9, 10)]
        .into_iter()
        .find_map(|(num, den)| {
            let rank = (n * num).div_ceil(den).max(1);
            (rank <= n && n - rank >= 10).then(|| (num as f64 / den as f64, v[rank - 1]))
        })
}

/// FNV-1a accumulator behind `sim.fingerprint`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 99 samples: p90 is rank 90 with 9 beyond -> unsupported.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        // 100 samples: p90 = rank 90, 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.9, 90.0)));
        // 5000 samples: p99.9 has 5 beyond, p99 has 50.
        let xs: Vec<f64> = (1..=5000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.99, 4950.0)));
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let hash = |words: &[u64]| {
            let mut h = Fnv::new();
            words.iter().for_each(|&w| h.mix(w));
            h.finish()
        };
        assert_eq!(hash(&[1, 2]), hash(&[1, 2]));
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
    }
}
