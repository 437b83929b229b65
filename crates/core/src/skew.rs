//! Optical path-length skew and its compensation (paper footnote 2).
//!
//! Different node pairs fly different distances through the free-space
//! layer: a neighbour link might be 3 mm, the chip diagonal 20 mm. At the
//! speed of light that is a spread of tens of picoseconds — "equivalent
//! to about 3 communication cycles" at the 40 Gbps optical bit rate. The
//! paper keeps the whole chip synchronous by **padding the faster paths**
//! with extra serializer bits and fine-tuning with digital delay lines in
//! the transmitter.
//!
//! This module computes per-pair flight times from the floorplan geometry
//! and the padding schedule that equalizes them.

use crate::topology::NodeId;

/// Speed of light in vacuum, m/s (the free-space layer is air/vacuum).
const C: f64 = 2.997_924_58e8;

/// Geometric model of the free-space layer over a square tiled die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floorplan {
    /// Nodes per side (mesh width of the tiling).
    pub side: usize,
    /// Pitch between adjacent node centres, metres.
    pub pitch_m: f64,
    /// Extra vertical flight (up to the mirror layer and back), metres.
    pub vertical_m: f64,
}

impl Floorplan {
    /// The paper's 16-node die: 4×4 tiles on a ~2 cm-diagonal chip
    /// (≈ 4.7 mm pitch), with a ~5 mm round trip to the mirror layer.
    pub fn paper_16() -> Self {
        Floorplan {
            side: 4,
            pitch_m: 4.7e-3,
            vertical_m: 5.0e-3,
        }
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// Euclidean lateral distance between two nodes' centres, metres.
    pub(crate) fn lateral_distance_m(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = (a.0 % self.side, a.0 / self.side);
        let (bx, by) = (b.0 % self.side, b.0 / self.side);
        let dx = (ax as f64 - bx as f64) * self.pitch_m;
        let dy = (ay as f64 - by as f64) * self.pitch_m;
        (dx * dx + dy * dy).sqrt()
    }

    /// Total flight length of the mirror-guided path between two nodes.
    pub(crate) fn path_length_m(&self, a: NodeId, b: NodeId) -> f64 {
        self.lateral_distance_m(a, b) + self.vertical_m
    }

    /// One-way flight time, picoseconds.
    pub(crate) fn flight_time_ps(&self, a: NodeId, b: NodeId) -> f64 {
        self.path_length_m(a, b) / C * 1e12
    }

    /// The longest flight time over all pairs, picoseconds.
    pub fn max_flight_time_ps(&self) -> f64 {
        let n = self.nodes();
        let mut max = 0.0f64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    max = max.max(self.flight_time_ps(NodeId(a), NodeId(b)));
                }
            }
        }
        max
    }

    /// The chip-wide skew: spread between the fastest and slowest pair,
    /// picoseconds. The paper: "up to tens of picoseconds".
    pub fn max_skew_ps(&self) -> f64 {
        let n = self.nodes();
        let mut min = f64::INFINITY;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    min = min.min(self.flight_time_ps(NodeId(a), NodeId(b)));
                }
            }
        }
        self.max_flight_time_ps() - min
    }
}

/// The compensation schedule: whole optical bit times of serializer
/// padding per pair, plus the sub-bit residue trimmed by the digital
/// delay line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewCompensation {
    /// Whole padding bits prepended by the serializer.
    pub padding_bits: u32,
    /// Residual fine-tune for the delay line, picoseconds (< 1 bit).
    pub delay_line_ps: f64,
}

/// Computes the compensation aligning the pair `(a, b)` to the slowest
/// path, given the optical bit time (25 ps at 40 Gbps).
///
/// # Panics
///
/// Panics if `bit_time_ps` is not positive.
pub fn compensation(plan: &Floorplan, a: NodeId, b: NodeId, bit_time_ps: f64) -> SkewCompensation {
    assert!(bit_time_ps > 0.0, "bit time must be positive");
    let slack = plan.max_flight_time_ps() - plan.flight_time_ps(a, b);
    let bits = (slack / bit_time_ps).floor();
    SkewCompensation {
        padding_bits: bits as u32,
        delay_line_ps: slack - bits * bit_time_ps,
    }
}

/// Worst-case padding anywhere on the chip, in *communication cycles*
/// (optical bits). The paper: "up to … about 3 communication cycles".
pub fn max_padding_bits(plan: &Floorplan, bit_time_ps: f64) -> u32 {
    let n = plan.nodes();
    let mut max = 0;
    for a in 0..n {
        for b in 0..n {
            if a != b {
                max = max.max(compensation(plan, NodeId(a), NodeId(b), bit_time_ps).padding_bits);
            }
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 25 ps: one bit at 40 Gbps.
    const BIT_PS: f64 = 25.0;

    #[test]
    fn diagonal_is_the_longest_path() {
        let plan = Floorplan::paper_16();
        let diag = plan.flight_time_ps(NodeId(0), NodeId(15));
        assert!((plan.max_flight_time_ps() - diag).abs() < 1e-9);
        // 3·√2·4.7 mm ≈ 19.9 mm lateral + 5 mm vertical ≈ 83 ps.
        assert!((70.0..95.0).contains(&diag), "diagonal flight = {diag} ps");
    }

    #[test]
    fn skew_is_tens_of_picoseconds() {
        // Paper footnote 2: "delay differences … up to tens of
        // picoseconds, or equivalent to about 3 communication cycles".
        let plan = Floorplan::paper_16();
        let skew = plan.max_skew_ps();
        assert!((40.0..90.0).contains(&skew), "skew = {skew} ps");
        let max_bits = max_padding_bits(&plan, BIT_PS);
        assert!(
            (2..=4).contains(&max_bits),
            "≈3 communication cycles of padding, got {max_bits}"
        );
    }

    #[test]
    fn compensation_equalizes_all_paths() {
        let plan = Floorplan::paper_16();
        let target = plan.max_flight_time_ps();
        for a in 0..16 {
            for b in 0..16 {
                if a == b {
                    continue;
                }
                let c = compensation(&plan, NodeId(a), NodeId(b), BIT_PS);
                let aligned = plan.flight_time_ps(NodeId(a), NodeId(b))
                    + c.padding_bits as f64 * BIT_PS
                    + c.delay_line_ps;
                assert!(
                    (aligned - target).abs() < 1e-9,
                    "pair ({a},{b}) misaligned by {} ps",
                    aligned - target
                );
                assert!(c.delay_line_ps < BIT_PS, "residue fits the delay line");
            }
        }
    }

    #[test]
    fn slowest_pair_needs_no_padding() {
        let plan = Floorplan::paper_16();
        let c = compensation(&plan, NodeId(0), NodeId(15), BIT_PS);
        assert_eq!(c.padding_bits, 0);
        assert!(c.delay_line_ps < 1e-9);
    }

    #[test]
    fn geometry_basics() {
        let plan = Floorplan::paper_16();
        assert_eq!(plan.lateral_distance_m(NodeId(5), NodeId(5)), 0.0);
        let horiz = plan.lateral_distance_m(NodeId(0), NodeId(3));
        assert!((horiz - 3.0 * plan.pitch_m).abs() < 1e-12);
        let sym_ab = plan.flight_time_ps(NodeId(2), NodeId(13));
        let sym_ba = plan.flight_time_ps(NodeId(13), NodeId(2));
        assert!((sym_ab - sym_ba).abs() < 1e-12, "paths are symmetric");
    }

    #[test]
    #[should_panic(expected = "bit time must be positive")]
    fn zero_bit_time_panics() {
        compensation(&Floorplan::paper_16(), NodeId(0), NodeId(1), 0.0);
    }
}
