//! The tuned exponential back-off of §4.3.2.
//!
//! After a collision, each involved sender retransmits in a random slot
//! within a window of `W` slots; the window for the `r`-th retry grows as
//! `W_r = W · B^(r−1)`. Classic Ethernet doubles (`B = 2`), but the paper
//! argues that is an over-correction for this network and derives the
//! optimum `W = 2.7, B = 1.1` from an analytical model (Figure 4) —
//! producing markedly lower common-case resolution delay while still
//! escaping the pathological all-to-one burst.
//!
//! A retry's back-off is one [`BackoffPolicy::draw_delay_slots`] call; the
//! network engine traces the retry number, the drawn delay and the
//! resulting ready cycle as a `backoff` event, so a flight-recorder dump
//! shows why a packet waited. The window is recomputable from the retry
//! number ([`BackoffPolicy::window_for_retry`]).

use fsoi_sim::rng::Xoshiro256StarStar;

/// An exponential back-off policy with (possibly non-integer) starting
/// window `W` and growth base `B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    initial_window: f64,
    base: f64,
}

impl BackoffPolicy {
    /// The paper's optimum: `W = 2.7, B = 1.1`.
    pub const PAPER_OPTIMUM: BackoffPolicy = BackoffPolicy {
        initial_window: 2.7,
        base: 1.1,
    };

    /// Classic binary exponential back-off (`W = 2.7, B = 2`) used as the
    /// paper's comparison point.
    pub const BINARY: BackoffPolicy = BackoffPolicy {
        initial_window: 2.7,
        base: 2.0,
    };

    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics unless `initial_window >= 1` and `base >= 1`.
    pub fn new(initial_window: f64, base: f64) -> Self {
        assert!(initial_window >= 1.0, "window must be at least one slot");
        assert!(base >= 1.0, "base must be at least 1 (non-shrinking)");
        BackoffPolicy {
            initial_window,
            base,
        }
    }

    /// A fixed-window policy (`B = 1`), the pathological case §4.3.2 warns
    /// about.
    pub fn fixed(window: f64) -> Self {
        BackoffPolicy::new(window, 1.0)
    }

    /// The starting window `W`.
    pub(crate) fn initial_window(&self) -> f64 {
        self.initial_window
    }

    /// The growth base `B`.
    pub(crate) fn base(&self) -> f64 {
        self.base
    }

    /// The (real-valued) window for the `r`-th retry, `r >= 1`:
    /// `W_r = W · B^(r−1)`, capped at 2¹⁶ slots to bound memory and delay.
    ///
    /// # Panics
    ///
    /// Panics if `retry == 0` (retries are 1-indexed).
    pub fn window_for_retry(&self, retry: u32) -> f64 {
        assert!(retry >= 1, "retries are 1-indexed");
        (self.initial_window * self.base.powi(retry as i32 - 1)).min(65_536.0)
    }

    /// Draws the slot delay (in whole slots, `>= 1`) for the `r`-th retry:
    /// uniform over the continuous window, rounded up so a draw of `u`
    /// slots means "transmit in the ⌈u⌉-th slot after detection". The
    /// non-integer window is honoured exactly in distribution: e.g. with
    /// `W_r = 2.7`, slots 1 and 2 are drawn with probability 1/2.7 each and
    /// slot 3 with probability 0.7/2.7.
    pub fn draw_delay_slots(&self, retry: u32, rng: &mut Xoshiro256StarStar) -> u64 {
        Self::draw_in_window(self.window_for_retry(retry), rng)
    }

    /// [`draw_delay_slots`](Self::draw_delay_slots) in a window already
    /// known.
    pub(crate) fn draw_in_window(window: f64, rng: &mut Xoshiro256StarStar) -> u64 {
        // `as` truncates toward zero and saturates below at 0, so it is
        // `floor` for every `u` (and needs no `floor` call).
        let u = rng.next_f64() * window;
        (u as u64) + 1
    }

    /// The mean of [`draw_delay_slots`](Self::draw_delay_slots) in slots,
    /// `(W_r + 1) / 2` for integer windows and the exact piecewise value in
    /// general — used by the analytical model of Figure 4.
    pub fn mean_delay_slots(&self, retry: u32) -> f64 {
        let w = self.window_for_retry(retry);
        // E[floor(U·w) + 1] for U uniform on [0,1):
        // sum over k of P(delay = k+1)·(k+1).
        let full = w.floor() as u64;
        let frac = w - full as f64;
        let mut e = 0.0;
        for k in 0..full {
            e += (k as f64 + 1.0) / w;
        }
        if frac > 0.0 {
            e += (full as f64 + 1.0) * frac / w;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_growth() {
        let p = BackoffPolicy::PAPER_OPTIMUM;
        assert!((p.window_for_retry(1) - 2.7).abs() < 1e-12);
        assert!((p.window_for_retry(2) - 2.97).abs() < 1e-12);
        assert!((p.window_for_retry(11) - 2.7 * 1.1f64.powi(10)).abs() < 1e-9);
        let b = BackoffPolicy::BINARY;
        assert!((b.window_for_retry(3) - 10.8).abs() < 1e-12);
    }

    #[test]
    fn window_is_capped() {
        let p = BackoffPolicy::BINARY;
        assert_eq!(p.window_for_retry(100), 65_536.0);
    }

    #[test]
    fn fixed_policy_never_grows() {
        let p = BackoffPolicy::fixed(3.0);
        assert_eq!(p.window_for_retry(1), 3.0);
        assert_eq!(p.window_for_retry(50), 3.0);
        assert_eq!(p.base(), 1.0);
    }

    #[test]
    fn draws_stay_in_window() {
        let p = BackoffPolicy::PAPER_OPTIMUM;
        let mut rng = Xoshiro256StarStar::new(1);
        for retry in 1..=5 {
            let w = p.window_for_retry(retry);
            for _ in 0..1000 {
                let d = p.draw_delay_slots(retry, &mut rng);
                assert!(d >= 1);
                assert!((d as f64) <= w.ceil(), "draw {d} beyond window {w}");
            }
        }
    }

    #[test]
    fn draw_distribution_matches_noninteger_window() {
        // W = 2.7: P(1) = P(2) = 1/2.7 ≈ 0.370, P(3) = 0.7/2.7 ≈ 0.259.
        let p = BackoffPolicy::PAPER_OPTIMUM;
        let mut rng = Xoshiro256StarStar::new(7);
        let n = 200_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let d = p.draw_delay_slots(1, &mut rng) as usize;
            counts[d.min(3)] += 1;
        }
        let f1 = counts[1] as f64 / n as f64;
        let f2 = counts[2] as f64 / n as f64;
        let f3 = counts[3] as f64 / n as f64;
        assert!((f1 - 1.0 / 2.7).abs() < 0.01, "P(1) = {f1}");
        assert!((f2 - 1.0 / 2.7).abs() < 0.01, "P(2) = {f2}");
        assert!((f3 - 0.7 / 2.7).abs() < 0.01, "P(3) = {f3}");
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn mean_delay_closed_form() {
        // Integer window w: mean = (w+1)/2.
        let p = BackoffPolicy::fixed(4.0);
        assert!((p.mean_delay_slots(1) - 2.5).abs() < 1e-12);
        // W = 2.7: 1·(1/2.7) + 2·(1/2.7) + 3·(0.7/2.7) = (1+2+2.1)/2.7.
        let q = BackoffPolicy::PAPER_OPTIMUM;
        let expect = (1.0 + 2.0 + 2.1) / 2.7;
        assert!((q.mean_delay_slots(1) - expect).abs() < 1e-12);
    }

    #[test]
    fn empirical_mean_matches_analytic() {
        let p = BackoffPolicy::PAPER_OPTIMUM;
        let mut rng = Xoshiro256StarStar::new(3);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| p.draw_delay_slots(2, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - p.mean_delay_slots(2)).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "window must be at least one slot")]
    fn tiny_window_panics() {
        BackoffPolicy::new(0.5, 1.1);
    }

    #[test]
    #[should_panic(expected = "retries are 1-indexed")]
    fn zero_retry_panics() {
        BackoffPolicy::PAPER_OPTIMUM.window_for_retry(0);
    }

    #[test]
    fn accessors() {
        let p = BackoffPolicy::new(3.5, 1.3);
        assert_eq!(p.initial_window(), 3.5);
        assert_eq!(p.base(), 1.3);
    }
}
