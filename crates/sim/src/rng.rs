//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the reproduction — workload generation,
//! back-off slot selection, Monte-Carlo collision studies — draws from the
//! generators here so that a given seed always reproduces the same
//! experiment bit-for-bit, on any platform.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, fast, used for seeding and for places where a
//!   64-bit state suffices;
//! * [`Xoshiro256StarStar`] — the workhorse generator (period `2^256 − 1`)
//!   used by simulators.

/// Sebastiano Vigna's SplitMix64 generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`], and as a lightweight per-component generator.
///
/// ```
/// use fsoi_sim::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator (Blackman & Vigna), period `2^256 − 1`.
///
/// This is the main generator used by all simulators in the workspace. It is
/// seeded via [`SplitMix64`], as its authors recommend, so a single `u64`
/// identifies a whole experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed, expanded with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is invalid; SplitMix64 cannot produce four
        // consecutive zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` using Lemire's rejection method
    /// (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// A Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Selects a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_below(slice.len() as u64) as usize])
        }
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        let u = self.next_f64();
        // 1 - u is in (0, 1]; ln of it is finite.
        -mean * (1.0 - u).ln()
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// node its own stream without correlation.
    pub fn fork(&mut self) -> Self {
        Xoshiro256StarStar::new(self.next_u64())
    }
}

/// A geometric distribution with its one logarithm taken up front: the
/// number of failures before the first success of a Bernoulli(`p`)
/// process (support `0, 1, 2, …`), drawn by inversion as
/// `⌊ln u / ln(1 − p)⌋`.
///
/// Used for the compute gaps of the synthetic workloads: a stream that
/// draws many gaps at one `p` builds this once, so each draw pays one `ln`.
///
/// ```
/// use fsoi_sim::rng::{Geometric, Xoshiro256StarStar};
/// let mut rng = Xoshiro256StarStar::new(3);
/// assert_eq!(Geometric::new(1.0).sample(&mut rng), 0);
/// let gap = Geometric::new(0.25);
/// let mean = (0..1000).map(|_| gap.sample(&mut rng)).sum::<u64>() as f64 / 1000.0;
/// assert!((mean - 3.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    ln_q: f64,
}

impl Geometric {
    /// The distribution with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        Geometric {
            ln_q: (1.0 - p).ln(),
        }
    }

    /// One draw; `p = 1` (`ln_q` = −∞) returns 0 without touching `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.ln_q == f64::NEG_INFINITY {
            return 0;
        }
        self.gap(rng.next_f64())
    }

    /// The draw for uniform `u ∈ [0, 1)`. `ln u` is negative and `ln_q`
    /// negative or (when `1 − p` rounds to 1) `+0.0`, so the quotient is
    /// positive or `−∞`: the saturating cast truncates toward zero, which
    /// is `floor` here, without a libm call.
    #[inline]
    fn gap(&self, u: f64) -> u64 {
        (u.max(f64::MIN_POSITIVE).ln() / self.ln_q) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference sequence for seed 1234567 from the public-domain
        // reference implementation.
        let mut r = SplitMix64::new(1234567);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(a, r2.next_u64());
        assert_eq!(b, r2.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic_and_forks_differ() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = Xoshiro256StarStar::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut f1 = a.fork();
        let mut f2 = a.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut r = Xoshiro256StarStar::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = Xoshiro256StarStar::new(11);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2_000 {
            let v = r.range_inclusive(3, 5);
            assert!((3..=5).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 5;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Xoshiro256StarStar::new(1);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_mean_close_to_p() {
        let mut r = Xoshiro256StarStar::new(99);
        let p = 0.3;
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bernoulli(p)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - p).abs() < 0.01, "mean {mean} too far from {p}");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut r = Xoshiro256StarStar::new(5);
        let p = 0.25;
        let n = 50_000;
        let gap = Geometric::new(p);
        let total: u64 = (0..n).map(|_| gap.sample(&mut r)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p; // 3.0
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
        let before = r.clone();
        assert_eq!(Geometric::new(1.0).sample(&mut r), 0);
        assert_eq!(r, before, "p = 1 draws nothing");
    }

    #[test]
    fn geometric_takes_the_per_draw_logarithm() {
        // `ln_q` is bit for bit the `(1 − p).ln()` each draw used to take,
        // at every `p = 1 / (mean_gap + 1)` for gaps 0 .. 1000 in eighths.
        for g in 0..8_000 {
            let p = 1.0 / (f64::from(g) / 8.0 + 1.0);
            let want = (1.0 - p).ln();
            assert_eq!(Geometric::new(p).ln_q.to_bits(), want.to_bits(), "p = {p}");
        }
    }

    #[test]
    fn geometric_truncation_equals_floor() {
        // The cast alone is bit for bit the `floor` the draw used to take.
        let floor = |g: &Geometric, u: f64| (u.max(f64::MIN_POSITIVE).ln() / g.ln_q).floor() as u64;
        let tiny = Geometric::new(1e-17); // 1 − p rounds to 1
        assert_eq!(tiny.ln_q, 0.0);
        let below_one = 1.0 - f64::EPSILON / 2.0; // the largest `next_f64`
        let mut r = Xoshiro256StarStar::new(11);
        for p in [1e-17, 1e-9, 0.001, 0.1, 0.25, 0.5, 0.9, 1.0 - 1e-12] {
            let g = Geometric::new(p);
            for u in [0.0, f64::MIN_POSITIVE, 1e-300, 0.5, below_one] {
                assert_eq!(g.gap(u), floor(&g, u), "p = {p}, u = {u}");
            }
            let mut before = r.clone();
            for _ in 0..20_000 {
                let want = floor(&g, before.next_f64());
                assert_eq!(g.sample(&mut r), want, "p = {p}");
            }
        }
        assert_eq!(tiny.gap(0.5), 0, "a −∞ quotient casts to 0");
        assert_eq!(
            Geometric::new(0.5).gap(0.0),
            1022,
            "u = 0 draws as MIN_POSITIVE"
        );
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1]")]
    fn geometric_rejects_p_zero() {
        Geometric::new(0.0);
    }

    #[test]
    fn exponential_mean_matches_theory() {
        let mut r = Xoshiro256StarStar::new(6);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| r.exponential(10.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = Xoshiro256StarStar::new(8);
        assert_eq!(r.choose::<u32>(&[]), None);
        let items = [1, 2, 3];
        for _ in 0..50 {
            assert!(items.contains(r.choose(&items).unwrap()));
        }
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        assert_ne!(v, orig, "shuffle of 100 elements should permute");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256StarStar::new(0).next_below(0);
    }
}
