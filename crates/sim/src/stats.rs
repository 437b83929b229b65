//! Measurement primitives: the reply-latency histogram and the geometric
//! mean.
//!
//! [`Histogram`] carries the reply-latency distribution (Fig 5) as exact
//! integer counts and an integer sum; labelled metrics with a deterministic
//! export live in [`crate::metrics::Registry`]. (The Fig 6/7 latency
//! breakdown is exact integer sums over the deliveries too, folded by the
//! CMP report.)

/// A histogram over non-negative integers with fixed-width bins plus an
/// overflow bin, and the exact sum of its observations.
///
/// Used for reply-latency distributions (Figure 5 uses buckets of cycles up
/// to a `>200` overflow bucket).
///
/// ```
/// use fsoi_sim::stats::Histogram;
/// let mut h = Histogram::new(10, 2);
/// for v in [1, 2, 30] { h.record(v); }
/// assert_eq!((h.count(), h.sum(), h.overflow()), (3, 33, 1));
/// assert_eq!(h.mean(), 11.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
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
            count: 0,
            sum: 0,
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
        self.count += 1;
        self.sum += value;
    }

    /// Adds every observation of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms' bin geometries (width and count)
    /// differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.bin_width, self.bins.len()),
            (other.bin_width, other.bins.len()),
            "merged histograms must share one bin geometry"
        );
        for (bin, &c) in self.bins.iter_mut().zip(&other.bins) {
            *bin += c;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all observations, Σ / count correctly rounded (0.0 when
    /// empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bin `idx` (bins are `[idx*w, (idx+1)*w)`).
    pub(crate) fn bin(&self, idx: usize) -> u64 {
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

    /// Approximate percentile (linear in bins): the upper edge of the first
    /// bin at which at least `q` (in `[0,1]`) of the mass lies at or below
    /// it. `None` when the quantile falls in the overflow bin; `Some(0)` when
    /// the histogram is empty.
    pub(crate) fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return Some(0);
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i as u64 + 1) * self.bin_width - 1);
            }
        }
        None
    }

    /// Rebuilds a histogram from its exact state — the bin accessors,
    /// [`Histogram::overflow`] and [`Histogram::sum`] — for byte-exact
    /// report (de)serialization; the count is Σbins + overflow. `None`
    /// unless that state is one [`Histogram::new`] and
    /// [`Histogram::record`] could build: a zero `bin_width`, no bins, a
    /// count that overflows `u64` or a nonzero `sum` over no observations.
    pub(crate) fn from_raw(
        bin_width: u64,
        bins: Vec<u64>,
        overflow: u64,
        sum: u64,
    ) -> Option<Self> {
        let count = bins
            .iter()
            .try_fold(overflow, |acc, &c| acc.checked_add(c))?;
        if bin_width == 0 || bins.is_empty() || (count == 0 && sum != 0) {
            return None;
        }
        Some(Histogram {
            bin_width,
            bins,
            overflow,
            count,
            sum,
        })
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
    use crate::metrics::Registry;

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
            h.sum(),
        );
        assert_eq!(back, Some(h));
        let empty = Histogram::new(1, 1);
        assert_eq!(Histogram::from_raw(1, vec![0], 0, 0), Some(empty));
    }

    #[test]
    fn from_raw_rejects_what_record_cannot_build() {
        assert_eq!(Histogram::from_raw(0, vec![1], 0, 1), None, "zero width");
        assert_eq!(Histogram::from_raw(10, vec![], 1, 1), None, "no bins");
        assert_eq!(
            Histogram::from_raw(10, vec![u64::MAX, 2], 0, 5),
            None,
            "Σbins overflows"
        );
        assert_eq!(
            Histogram::from_raw(10, vec![u64::MAX], 2, 5),
            None,
            "Σbins + overflow overflows"
        );
        assert_eq!(
            Histogram::from_raw(10, vec![0, 0], 0, 7),
            None,
            "a sum over no observations"
        );
        let h = Histogram::from_raw(10, vec![u64::MAX - 1], 1, 0).expect("Σ fits");
        assert_eq!(h.count(), u64::MAX);
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
        assert_eq!(h.sum(), 1118);
        assert_eq!(h.num_bins(), 5);
        assert_eq!(h.bin_width(), 10);
        assert!((h.fraction(0) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn mean_is_the_correctly_rounded_quotient() {
        assert_eq!(Histogram::new(10, 20).mean(), 0.0);
        // The Figure 5 mesh row whose running mean drifted in the last
        // digits: 133 152 cycles over 2 044 replies.
        let mut h = Histogram::new(10, 20);
        for _ in 0..2_043 {
            h.record(65);
        }
        h.record(133_152 - 65 * 2_043);
        assert_eq!((h.sum(), h.count()), (133_152, 2_044));
        assert_eq!(h.mean(), 133_152.0 / 2_044.0);
        assert_eq!(h.mean().to_string(), "65.14285714285714");
    }

    #[test]
    fn merge_adds_every_bin_the_overflow_and_the_sum() {
        let (mut a, mut b, mut whole) = (
            Histogram::new(10, 3),
            Histogram::new(10, 3),
            Histogram::new(10, 3),
        );
        for v in [1, 12, 45, 300] {
            a.record(v);
            whole.record(v);
        }
        for v in [29, 30, 31] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.overflow(), 4);
        a.merge(&Histogram::new(10, 3));
        assert_eq!(a, whole, "merging an empty histogram is a no-op");
    }

    #[test]
    #[should_panic(expected = "one bin geometry")]
    fn merge_rejects_another_geometry() {
        Histogram::new(10, 3).merge(&Histogram::new(10, 4));
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), Some(49));
        assert_eq!(h.percentile(1.0), Some(99));
        let empty = Histogram::new(1, 4);
        assert_eq!(empty.percentile(0.5), Some(0));
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
        assert_eq!(empty.percentile(0.0), Some(0));
        assert_eq!(empty.percentile(0.5), Some(0));
        assert_eq!(empty.percentile(1.0), Some(0));

        // q = 0.0 on a non-empty histogram resolves to the first bin's
        // upper edge; q = 1.0 to the last occupied bin's.
        let mut h = Histogram::new(10, 5);
        for v in [0, 12, 27, 33] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(9));
        assert_eq!(h.percentile(1.0), Some(39));
        // Out-of-range quantiles clamp rather than panic or wrap.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));

        // Every observation in the overflow bin: no regular bin reaches a
        // positive target (q = 0.0 still short-circuits at the first bin's
        // upper edge).
        let mut over = Histogram::new(10, 2);
        for _ in 0..3 {
            over.record(1_000);
        }
        assert_eq!(over.percentile(0.5), None);
        assert_eq!(over.percentile(1.0), None);
        assert_eq!(over.percentile(0.0), Some(9));
    }

    #[test]
    fn a_quantile_in_the_overflow_bin_reads_none_and_renders_as_a_bound() {
        // 2 of 100 observations (more than 1 %) beyond the last bin.
        let mut h = Histogram::new(10, 20);
        for v in 0..98 {
            h.record(v);
        }
        h.record(200);
        h.record(5_000);
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.percentile(0.5), Some(49));
        let mut reg = Registry::new();
        reg.histogram("lat", &[], h);
        let table = reg.to_table();
        assert!(
            table.contains("n=100 mean=99.53 p50=49 p99=>=200 overflow=2"),
            "{table}"
        );
        assert!(!table.contains(&u64::MAX.to_string()), "{table}");
    }
}
