//! Merge laws for the parallel-sweep accumulators: chopping a sample
//! stream into arbitrary consecutive chunks, summarizing each chunk, and
//! merging the partials must agree with summarizing the stream directly —
//! no matter how the chunks are grouped. This is what lets the sweep
//! engine combine per-worker partials in any order.

use gmsim_des::check::{forall, Gen};
use gmsim_des::{Histogram, Summary};

/// Split `samples` into consecutive chunks at random boundaries (empty
/// chunks allowed, to exercise the identity-element paths).
fn random_chunks<'a>(g: &mut Gen, samples: &'a [f64]) -> Vec<&'a [f64]> {
    let cuts = g.usize_in(0, 6);
    let mut bounds: Vec<usize> = (0..cuts).map(|_| g.usize_in(0, samples.len())).collect();
    bounds.push(0);
    bounds.push(samples.len());
    bounds.sort_unstable();
    bounds.windows(2).map(|w| &samples[w[0]..w[1]]).collect()
}

fn summarize(chunk: &[f64]) -> Summary {
    let mut s = Summary::new();
    for &x in chunk {
        s.record(x);
    }
    s
}

#[test]
fn summary_merge_agrees_with_direct_recording_under_arbitrary_splits() {
    forall(400, 0xace_0001, |g| {
        let samples = g.vec_of(0, 80, |g| g.f64_in(-10.0, 500.0));
        let direct = summarize(&samples);

        // Left-fold over one random split, and a nested two-level merge
        // over another: both must agree with the direct pass.
        for _ in 0..2 {
            let chunks = random_chunks(g, &samples);
            let mut folded = Summary::new();
            for c in &chunks {
                folded.merge(&summarize(c));
            }
            assert_eq!(folded.count(), direct.count());
            if direct.count() == 0 {
                continue;
            }
            // min/max take no rounding, so they must match exactly.
            assert_eq!(folded.min().to_bits(), direct.min().to_bits());
            assert_eq!(folded.max().to_bits(), direct.max().to_bits());
            // mean/stddev reassociate floating-point sums; agreement is up
            // to rounding, not bit-exact.
            assert!((folded.mean() - direct.mean()).abs() <= 1e-9 * direct.mean().abs().max(1.0));
            assert!((folded.stddev() - direct.stddev()).abs() <= 1e-7);
        }
    });
}

#[test]
fn summary_merge_grouping_does_not_change_the_result() {
    forall(400, 0xace_0002, |g| {
        let samples = g.vec_of(0, 60, |g| g.f64_in(0.0, 100.0));
        let chunks = random_chunks(g, &samples);
        let partials: Vec<Summary> = chunks.iter().map(|c| summarize(c)).collect();

        // (a ⊕ b) ⊕ c ⊕ ... vs a ⊕ (b ⊕ (c ⊕ ...)).
        let mut left = Summary::new();
        for p in &partials {
            left.merge(p);
        }
        let mut right = Summary::new();
        for p in partials.iter().rev() {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(left.count(), right.count());
        if left.count() > 0 {
            assert_eq!(left.min().to_bits(), right.min().to_bits());
            assert_eq!(left.max().to_bits(), right.max().to_bits());
            assert!((left.mean() - right.mean()).abs() <= 1e-9 * left.mean().abs().max(1.0));
            assert!((left.stddev() - right.stddev()).abs() <= 1e-7);
        }
    });
}

#[test]
fn histogram_merge_is_exactly_associative_under_arbitrary_splits() {
    forall(400, 0xace_0003, |g| {
        let bin_width = g.f64_in(0.5, 4.0);
        let bins = g.usize_in(1, 32);
        // Range chosen to populate underflow, the bins, and overflow.
        let span = bin_width * bins as f64;
        let samples = g.vec_of(0, 120, |g| g.f64_in(-span, 2.0 * span));

        let record_all = |chunk: &[f64]| {
            let mut h = Histogram::new(bin_width, bins);
            for &x in chunk {
                h.record(x);
            }
            h
        };
        let direct = record_all(&samples);

        for _ in 0..2 {
            let chunks = random_chunks(g, &samples);
            let mut merged = Histogram::new(bin_width, bins);
            for c in &chunks {
                merged.merge(&record_all(c));
            }
            // Histogram state is integer counts, so every observable must
            // match exactly, not approximately.
            assert_eq!(merged.total(), direct.total());
            assert_eq!(merged.underflow(), direct.underflow());
            assert_eq!(merged.overflow(), direct.overflow());
            for i in 0..bins {
                assert_eq!(merged.bucket(i), direct.bucket(i), "bucket {i}");
            }
            match (merged.mean(), direct.mean()) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
            for q in [0.0, 0.5, 0.95, 1.0] {
                match (merged.quantile(q), direct.quantile(q)) {
                    (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    });
}

/// The histogram as it was before bins were stored lazily: every one of
/// `bins` counts allocated and zeroed up front. Kept verbatim as the
/// reference model the lazy [`Histogram`] must agree with.
#[derive(Clone)]
struct EagerHistogram {
    bin_width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl EagerHistogram {
    fn new(bin_width: f64, bins: usize) -> Self {
        EagerHistogram {
            bin_width,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.underflow += 1;
            return;
        }
        let idx = (x / self.bin_width) as usize;
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    fn merge(&mut self, other: &EagerHistogram) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += from;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    fn mean(&self) -> Option<f64> {
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

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        if target <= self.underflow {
            return None;
        }
        let mut seen = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        None
    }
}

/// Quantile grid: both ends, every 1/20 between, and the ranks just off
/// the usual percentiles.
fn quantile_grid() -> Vec<f64> {
    let mut qs: Vec<f64> = (0..=20).map(|k| k as f64 / 20.0).collect();
    qs.extend([0.001, 0.499, 0.501, 0.99, 0.999]);
    qs
}

/// Assert every observable of `lazy` matches the reference, bit for bit.
fn assert_same(lazy: &Histogram, eager: &EagerHistogram) {
    assert_eq!(lazy.total(), eager.total);
    assert_eq!(lazy.underflow(), eager.underflow);
    assert_eq!(lazy.overflow(), eager.overflow);
    for (i, &c) in eager.counts.iter().enumerate() {
        assert_eq!(lazy.bucket(i), c, "bucket {i}");
    }
    assert_eq!(
        lazy.mean().map(f64::to_bits),
        eager.mean().map(f64::to_bits)
    );
    for q in quantile_grid() {
        assert_eq!(
            lazy.quantile(q).map(f64::to_bits),
            eager.quantile(q).map(f64::to_bits),
            "quantile {q}"
        );
    }
}

/// One sample from a mix that covers every recording path: below range,
/// in range (biased to a random prefix of the bins, so stored lengths
/// differ between histograms), exactly on the upper edge and one ulp below
/// it, far beyond it, and the non-finite values.
fn edge_sample(g: &mut Gen, bin_width: f64, bins: usize, reach: usize) -> f64 {
    let span = bin_width * bins as f64;
    match g.usize_in(0, 9) {
        0 => g.f64_in(-span, 0.0),
        1 => span,
        2 => f64::from_bits(span.to_bits() - 1),
        3 => g.f64_in(span, 1e12 * span),
        4 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 1e300][g.usize_in(0, 4)],
        5 => g.f64_in(0.0, span),
        _ => g.f64_in(0.0, bin_width * reach as f64),
    }
}

/// Record one random stream into a lazy and an eager histogram alike.
fn record_both(g: &mut Gen, bin_width: f64, bins: usize) -> (Histogram, EagerHistogram) {
    let reach = g.usize_in(1, bins);
    let in_range_only = g.chance(0.3);
    let mut lazy = Histogram::new(bin_width, bins);
    let mut eager = EagerHistogram::new(bin_width, bins);
    for _ in 0..g.usize_in(0, 60) {
        let x = if in_range_only {
            g.f64_in(0.0, bin_width * reach as f64)
        } else {
            edge_sample(g, bin_width, bins, reach)
        };
        lazy.record(x);
        eager.record(x);
    }
    (lazy, eager)
}

#[test]
fn lazy_histogram_matches_the_eager_reference() {
    forall(600, 0xace_0004, |g| {
        let bin_width = [0.25, 1.0, g.f64_in(0.01, 8.0)][g.usize_in(0, 2)];
        let bins = [1, 256, g.usize_in(1, 300)][g.usize_in(0, 2)];
        let (lazy, eager) = record_both(g, bin_width, bins);
        assert_same(&lazy, &eager);
    });
}

#[test]
fn lazy_histogram_merges_match_the_eager_reference_in_both_orders() {
    forall(600, 0xace_0005, |g| {
        let bin_width = [0.25, g.f64_in(0.01, 8.0)][g.usize_in(0, 1)];
        let bins = [256, g.usize_in(1, 300)][g.usize_in(0, 1)];
        // Independent streams with independent reaches, so the two sides
        // usually store different numbers of bins.
        let (a, ea) = record_both(g, bin_width, bins);
        let (b, eb) = record_both(g, bin_width, bins);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut eab = ea.clone();
        eab.merge(&eb);
        assert_same(&ab, &eab);

        let mut ba = b.clone();
        ba.merge(&a);
        let mut eba = eb.clone();
        eba.merge(&ea);
        assert_same(&ba, &eba);

        // Merging into and from an empty histogram is the identity.
        let mut into_empty = Histogram::new(bin_width, bins);
        into_empty.merge(&ab);
        assert_same(&into_empty, &eab);
        ab.merge(&Histogram::new(bin_width, bins));
        assert_same(&ab, &eab);
    });
}
