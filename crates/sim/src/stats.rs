//! Measurement primitives: streaming summaries and histograms.
//!
//! These are the building blocks behind every number reported in
//! `EXPERIMENTS.md`: packet-latency breakdowns (Fig 6/7), collision-rate
//! scatter plots (Fig 9), reply-latency distributions (Fig 5), and energy
//! tallies (Fig 8). For *labelled* metrics with a deterministic JSONL /
//! table export, wrap these primitives in [`crate::metrics::Registry`] —
//! report-building code should migrate there rather than accrete more
//! bespoke counter fields.

/// Streaming mean/variance/min/max over `f64` observations (Welford).
///
/// ```
/// use fsoi_sim::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Rebuilds a summary from its exact internal state, as captured by
    /// [`Summary::raw`] — the round-trip primitive behind byte-exact
    /// report (de)serialization in the cell cache.
    pub fn from_raw(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Summary {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// The exact internal state `(count, mean, m2, min, max)`;
    /// [`Summary::from_raw`] of this tuple reproduces the summary
    /// bit-for-bit (including the empty-state sentinels ±∞).
    pub fn raw(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over non-negative integers with fixed-width bins plus an
/// overflow bin; also tracks the exact mean.
///
/// Used for reply-latency distributions (Figure 5 uses buckets of cycles up
/// to a `>200` overflow bucket).
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Creates a histogram with `num_bins` bins of `bin_width` each; values
    /// at or above `num_bins * bin_width` land in the overflow bin.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0` or `num_bins == 0`.
    pub fn new(bin_width: u64, num_bins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            bins: vec![0; num_bins],
            overflow: 0,
            summary: Summary::new(),
        }
    }

    /// Records an observation.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.summary.record(value as f64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Exact mean of all observations.
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// The count in bin `idx` (bins are `[idx*w, (idx+1)*w)`).
    pub fn bin(&self, idx: usize) -> u64 {
        self.bins.get(idx).copied().unwrap_or(0)
    }

    /// Count of observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of regular bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Width of each regular bin.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Fraction of observations in bin `idx` (0.0 when empty).
    pub fn fraction(&self, idx: usize) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.bin(idx) as f64 / n as f64
        }
    }

    /// Approximate percentile (linear in bins): smallest value `v` such that
    /// at least `q` (in `[0,1]`) of the mass lies at or below `v`'s bin.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return (i as u64 + 1) * self.bin_width - 1;
            }
        }
        u64::MAX
    }

    /// Rebuilds a histogram from its exact internal state — the
    /// counterpart of [`Histogram::summary`] plus the bin accessors, used
    /// for byte-exact report (de)serialization in the cell cache.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0` or `bins` is empty (same contract as
    /// [`Histogram::new`]).
    pub fn from_raw(bin_width: u64, bins: Vec<u64>, overflow: u64, summary: Summary) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(!bins.is_empty(), "need at least one bin");
        Histogram {
            bin_width,
            bins,
            overflow,
            summary,
        }
    }

    /// The exact running summary over all observations.
    pub fn summary(&self) -> Summary {
        self.summary
    }

    /// Iterates `(bin_start, count)` pairs over the regular bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * self.bin_width, c))
    }
}

/// Computes the geometric mean of strictly positive values.
///
/// The paper reports all speedups as geometric means. Returns `None` for an
/// empty slice or if any value is non-positive.
///
/// ```
/// use fsoi_sim::stats::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_raw_round_trip_is_bit_exact() {
        let mut s = Summary::new();
        for x in [0.1, -3.25, 7.5e9, 0.0] {
            s.record(x);
        }
        let (count, mean, m2, min, max) = s.raw();
        let back = Summary::from_raw(count, mean, m2, min, max);
        assert_eq!(back, s);
        // Empty summaries round-trip their ±∞ sentinels too.
        let empty = Summary::new();
        let (c, me, m2, mi, ma) = empty.raw();
        assert_eq!(Summary::from_raw(c, me, m2, mi, ma), empty);
    }

    #[test]
    fn histogram_raw_round_trip_is_bit_exact() {
        let mut h = Histogram::new(10, 4);
        for v in [0, 9, 10, 39, 40, 1000] {
            h.record(v);
        }
        let back = Histogram::from_raw(
            h.bin_width(),
            (0..h.num_bins()).map(|i| h.bin(i)).collect(),
            h.overflow(),
            h.summary(),
        );
        assert_eq!(back.bin_width(), h.bin_width());
        assert_eq!(back.num_bins(), h.num_bins());
        assert_eq!(back.overflow(), h.overflow());
        assert_eq!(back.summary(), h.summary());
        assert_eq!(back.percentile(0.5), h.percentile(0.5));
    }

    #[test]
    fn summary_mean_var() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut all = Summary::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        // Merging an empty summary is a no-op.
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        h.record(1000); // overflow
        assert_eq!(h.bin(0), 2);
        assert_eq!(h.bin(1), 1);
        assert_eq!(h.bin(4), 1);
        assert_eq!(h.bin(99), 0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.num_bins(), 5);
        assert_eq!(h.bin_width(), 10);
        assert!((h.fraction(0) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 49);
        assert_eq!(h.percentile(1.0), 99);
        let empty = Histogram::new(1, 4);
        assert_eq!(empty.percentile(0.5), 0);
    }

    #[test]
    fn histogram_iter() {
        let mut h = Histogram::new(5, 3);
        h.record(7);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 0), (5, 1), (10, 0)]);
    }

    #[test]
    fn geomean() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        // Empty histogram: every quantile degenerates to zero.
        let empty = Histogram::new(10, 5);
        assert_eq!(empty.percentile(0.0), 0);
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.percentile(1.0), 0);

        // q = 0.0 on a non-empty histogram resolves to the first bin's
        // upper edge; q = 1.0 to the last occupied bin's.
        let mut h = Histogram::new(10, 5);
        for v in [0, 12, 27, 33] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 9);
        assert_eq!(h.percentile(1.0), 39);
        // Out-of-range quantiles clamp rather than panic or wrap.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));

        // Every observation in the overflow bin: no bin can reach a
        // positive target, so the sentinel reports "beyond the range"
        // (q = 0.0 still short-circuits at the first bin's upper edge).
        let mut over = Histogram::new(10, 2);
        for _ in 0..3 {
            over.record(1_000);
        }
        assert_eq!(over.percentile(0.5), u64::MAX);
        assert_eq!(over.percentile(1.0), u64::MAX);
        assert_eq!(over.percentile(0.0), 9);
    }

    #[test]
    fn summary_merge_with_an_empty_side() {
        let mut filled = Summary::new();
        for v in [1.0, 2.0, 3.0] {
            filled.record(v);
        }

        // Empty other side: the merge is a no-op.
        let mut a = filled;
        a.merge(&Summary::new());
        assert_eq!(a, filled);

        // Empty self: the merge adopts the other side wholesale (in
        // particular min/max must not keep the ±infinity sentinels).
        let mut b = Summary::new();
        b.merge(&filled);
        assert_eq!(b.count(), 3);
        assert_eq!(b.mean(), filled.mean());
        assert_eq!(b.min(), Some(1.0));
        assert_eq!(b.max(), Some(3.0));
        assert_eq!(b, filled);

        // Both sides empty: still empty, still no observations.
        let mut e = Summary::new();
        e.merge(&Summary::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
    }
}
