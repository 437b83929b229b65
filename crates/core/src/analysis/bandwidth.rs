//! Meta/data bandwidth allocation (§4.3.2, item 3).
//!
//! Splitting a fixed lane budget between meta and data traffic, the paper
//! models the expected overall packet latency as
//!
//! ```text
//! L(B_M) = C₁/B_M + C₂/B_M² + C₃/(1 − B_M) + C₄/(1 − B_M)²
//! ```
//!
//! where `B_M` is the fraction of bandwidth given to meta packets. The
//! `1/B` terms are basic transmission latencies (inversely proportional to
//! lane bandwidth) and the `1/B²` terms the collision-resolution
//! contributions (`P_c · L_r`, both factors inversely proportional to
//! bandwidth). The constants fold application statistics — packet mix,
//! critical-path weights, expected retries. With the paper's workload the
//! optimum lands at `B_M ≈ 0.285`, i.e. "about 30 % of the bandwidth
//! should be allocated to … meta packets", realized as 3 meta vs 6 data
//! VCSELs (3/9 ≈ 0.33 being the closest integer split).

/// The latency model `L(B_M)` with its four workload constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthAllocationModel {
    c: [f64; 4],
}

impl BandwidthAllocationModel {
    /// Creates a model from the constants `C₁..C₄`.
    ///
    /// # Panics
    ///
    /// Panics if any constant is negative or all are zero.
    pub(crate) fn new(c1: f64, c2: f64, c3: f64, c4: f64) -> Self {
        let c = [c1, c2, c3, c4];
        assert!(
            c.iter().all(|&x| x >= 0.0),
            "constants must be non-negative"
        );
        assert!(
            c.iter().any(|&x| x > 0.0),
            "at least one constant must be positive"
        );
        BandwidthAllocationModel { c }
    }

    /// Constants calibrated from the paper's workload statistics; the
    /// resulting optimum is `B_M = 0.285`. The dominant `C₃` reflects the
    /// data lane's 5-cycle serialization weighted by the fraction of data
    /// packets on the critical path; the small `C₂`/`C₄` are the
    /// collision-resolution products at the observed collision rates.
    pub fn paper_default() -> Self {
        BandwidthAllocationModel::new(1.0, 0.05, 8.364, 0.05)
    }

    /// The modelled mean latency (arbitrary units) at meta share `bm`.
    ///
    /// # Panics
    ///
    /// Panics unless `bm ∈ (0, 1)`.
    pub fn latency(&self, bm: f64) -> f64 {
        assert!(bm > 0.0 && bm < 1.0, "B_M must be strictly inside (0, 1)");
        let bd = 1.0 - bm;
        self.c[0] / bm + self.c[1] / (bm * bm) + self.c[2] / bd + self.c[3] / (bd * bd)
    }

    /// The optimal meta share, found by golden-section search (the model
    /// is strictly convex on (0, 1) for non-negative constants).
    pub fn optimal_bm(&self) -> f64 {
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let (mut lo, mut hi) = (1e-6, 1.0 - 1e-6);
        let mut x1 = hi - phi * (hi - lo);
        let mut x2 = lo + phi * (hi - lo);
        let (mut f1, mut f2) = (self.latency(x1), self.latency(x2));
        for _ in 0..200 {
            if f1 < f2 {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - phi * (hi - lo);
                f1 = self.latency(x1);
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + phi * (hi - lo);
                f2 = self.latency(x2);
            }
        }
        0.5 * (lo + hi)
    }

    /// Given a total of `total_vcsels` per destination, the integer
    /// meta/data split closest to the optimum (meta gets at least one).
    pub fn integer_split(&self, total_vcsels: usize) -> (usize, usize) {
        assert!(total_vcsels >= 2, "need at least one VCSEL per lane");
        let bm = self.optimal_bm();
        let meta = ((total_vcsels as f64 * bm).round() as usize).clamp(1, total_vcsels - 1);
        (meta, total_vcsels - meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimum_is_0_285() {
        let m = BandwidthAllocationModel::paper_default();
        let bm = m.optimal_bm();
        assert!((bm - 0.285).abs() < 0.005, "optimum B_M = {bm}");
    }

    #[test]
    fn optimum_is_a_minimum() {
        let m = BandwidthAllocationModel::paper_default();
        let bm = m.optimal_bm();
        let at = m.latency(bm);
        assert!(m.latency(bm - 0.05) > at);
        assert!(m.latency(bm + 0.05) > at);
        assert!(m.latency(0.05) > at);
        assert!(m.latency(0.9) > at);
    }

    #[test]
    fn paper_integer_split_is_3_of_9() {
        // 9 VCSELs at B_M = 0.285 → 2.6 ⇒ 3 meta, 6 data: the paper's
        // Table 3 lane widths.
        let m = BandwidthAllocationModel::paper_default();
        assert_eq!(m.integer_split(9), (3, 6));
    }

    #[test]
    fn symmetric_constants_give_half() {
        let m = BandwidthAllocationModel::new(1.0, 0.1, 1.0, 0.1);
        assert!((m.optimal_bm() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn heavier_data_term_pulls_optimum_down() {
        let light = BandwidthAllocationModel::new(1.0, 0.05, 4.0, 0.05);
        let heavy = BandwidthAllocationModel::new(1.0, 0.05, 16.0, 0.05);
        assert!(heavy.optimal_bm() < light.optimal_bm());
    }

    #[test]
    fn latency_blows_up_at_edges() {
        let m = BandwidthAllocationModel::paper_default();
        assert!(m.latency(0.001) > m.latency(0.285) * 10.0);
        assert!(m.latency(0.999) > m.latency(0.285) * 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn latency_rejects_boundary() {
        BandwidthAllocationModel::paper_default().latency(1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_constant_panics() {
        BandwidthAllocationModel::new(-1.0, 0.0, 1.0, 0.0);
    }
}
