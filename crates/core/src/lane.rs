//! Lanes: per-destination VCSEL groups and their slotted timing.
//!
//! A *lane* is a multi-bit bus of VCSELs (paper §4.1). Each optical channel
//! runs at a multiple of the core clock — Table 3: a 40 GHz VCSEL carries
//! 12 bits per 3.3 GHz CPU cycle — so a lane of `w` VCSELs moves `12 w`
//! bits per cycle. The default configuration uses 6 data + 3 meta + 1
//! confirmation VCSELs per node: a 72-bit meta packet serializes in 2
//! cycles, a 360-bit data packet in 5 (§4.3.2).
//!
//! Transmissions are *slotted*: a packet of a given class may start only on
//! a multiple of its class's serialization latency, which halves the
//! vulnerability window between same-length packets (classic slotted-ALOHA
//! reasoning, paper's ref \[40\]).

use crate::packet::PacketClass;

/// Static description of one lane class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpec {
    /// Number of VCSELs (bits) in the lane.
    pub vcsels: usize,
    /// Packet length in bits carried by this lane.
    pub packet_bits: usize,
    /// Number of receivers for this lane class at each node.
    pub receivers: usize,
}

impl LaneSpec {
    /// Serialization latency in CPU cycles given the per-VCSEL bit rate.
    ///
    /// # Panics
    ///
    /// Panics if the lane has no VCSELs or the rate is zero.
    pub(crate) fn serialization_cycles(&self, bits_per_cycle_per_vcsel: usize) -> u64 {
        assert!(self.vcsels > 0, "lane must have at least one VCSEL");
        assert!(bits_per_cycle_per_vcsel > 0, "bit rate must be positive");
        let per_cycle = self.vcsels * bits_per_cycle_per_vcsel;
        (self.packet_bits as u64).div_ceil(per_cycle as u64)
    }

    /// The slot length equals the serialization latency: back-to-back
    /// packets of the same class never partially overlap.
    pub(crate) fn slot_cycles(&self, bits_per_cycle_per_vcsel: usize) -> u64 {
        self.serialization_cycles(bits_per_cycle_per_vcsel)
    }
}

/// The pair of lane specs (meta, data) of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    /// The meta lane.
    pub meta: LaneSpec,
    /// The data lane.
    pub data: LaneSpec,
    /// Bits each VCSEL carries per CPU cycle (optical rate / core clock).
    pub bits_per_cycle_per_vcsel: usize,
}

impl Lanes {
    /// The paper's default: 6-bit data lane, 3-bit meta lane, 12 bits per
    /// VCSEL per CPU cycle, 2 receivers for each lane class (Table 3).
    pub fn paper_default() -> Self {
        Lanes {
            meta: LaneSpec {
                vcsels: 3,
                packet_bits: 72,
                receivers: 2,
            },
            data: LaneSpec {
                vcsels: 6,
                packet_bits: 360,
                receivers: 2,
            },
            bits_per_cycle_per_vcsel: 12,
        }
    }

    /// The spec for a packet class.
    pub fn spec(&self, class: PacketClass) -> LaneSpec {
        match class {
            PacketClass::Meta => self.meta,
            PacketClass::Data => self.data,
        }
    }

    /// Serialization latency of a class, in cycles.
    pub fn serialization_cycles(&self, class: PacketClass) -> u64 {
        self.spec(class)
            .serialization_cycles(self.bits_per_cycle_per_vcsel)
    }

    /// Slot length of a class, in cycles.
    pub fn slot_cycles(&self, class: PacketClass) -> u64 {
        self.spec(class).slot_cycles(self.bits_per_cycle_per_vcsel)
    }

    /// Total transmit VCSELs per destination lane set (data + meta).
    pub(crate) fn lane_bits(&self) -> usize {
        self.meta.vcsels + self.data.vcsels
    }

    /// Scales both lanes' widths to model reduced-bandwidth configurations
    /// (the Figure 11 sensitivity study). `fraction` in `(0, 1]` scales the
    /// VCSEL counts, rounding half-up but keeping at least one VCSEL, and
    /// serialization latencies lengthen accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn scaled_bandwidth(&self, fraction: f64) -> Lanes {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "bandwidth fraction must be in (0, 1]"
        );
        let scale = |v: usize| (((v as f64) * fraction).round() as usize).max(1);
        Lanes {
            meta: LaneSpec {
                vcsels: scale(self.meta.vcsels),
                ..self.meta
            },
            data: LaneSpec {
                vcsels: scale(self.data.vcsels),
                ..self.data
            },
            bits_per_cycle_per_vcsel: self.bits_per_cycle_per_vcsel,
        }
    }

    /// The Figure 11 base configuration: both lanes widened to 6 VCSELs so
    /// meta serializes in 1 cycle and data in 5 — matching the mesh's flit
    /// timing (paper footnote 9).
    pub fn fig11_base() -> Self {
        Lanes {
            meta: LaneSpec {
                vcsels: 6,
                packet_bits: 72,
                receivers: 2,
            },
            data: LaneSpec {
                vcsels: 6,
                packet_bits: 360,
                receivers: 2,
            },
            bits_per_cycle_per_vcsel: 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_serialization_latencies() {
        let l = Lanes::paper_default();
        // 72 bits over 3 VCSELs × 12 b/cycle = 36 b/cycle → 2 cycles.
        assert_eq!(l.serialization_cycles(PacketClass::Meta), 2);
        // 360 bits over 6 VCSELs × 12 b/cycle = 72 b/cycle → 5 cycles.
        assert_eq!(l.serialization_cycles(PacketClass::Data), 5);
        assert_eq!(l.slot_cycles(PacketClass::Meta), 2);
        assert_eq!(l.slot_cycles(PacketClass::Data), 5);
        assert_eq!(l.lane_bits(), 9); // the paper's k = 9
    }

    #[test]
    fn fig11_base_matches_mesh_timing() {
        let l = Lanes::fig11_base();
        assert_eq!(l.serialization_cycles(PacketClass::Meta), 1);
        assert_eq!(l.serialization_cycles(PacketClass::Data), 5);
    }

    #[test]
    fn scaled_bandwidth_lengthens_serialization() {
        let l = Lanes::fig11_base();
        let half = l.scaled_bandwidth(0.5);
        assert_eq!(half.meta.vcsels, 3);
        assert_eq!(half.data.vcsels, 3);
        assert_eq!(half.serialization_cycles(PacketClass::Meta), 2);
        assert_eq!(half.serialization_cycles(PacketClass::Data), 10);
        // Receivers are unchanged.
        assert_eq!(half.meta.receivers, 2);
    }

    #[test]
    fn scaled_bandwidth_keeps_at_least_one_vcsel() {
        let l = Lanes::paper_default();
        let tiny = l.scaled_bandwidth(0.05);
        assert!(tiny.meta.vcsels >= 1);
        assert!(tiny.data.vcsels >= 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth fraction")]
    fn zero_fraction_panics() {
        Lanes::paper_default().scaled_bandwidth(0.0);
    }

    #[test]
    fn spec_lookup() {
        let l = Lanes::paper_default();
        assert_eq!(l.spec(PacketClass::Meta).vcsels, 3);
        assert_eq!(l.spec(PacketClass::Data).vcsels, 6);
    }

    #[test]
    fn odd_sizes_round_up() {
        let s = LaneSpec {
            vcsels: 4,
            packet_bits: 100,
            receivers: 1,
        };
        // 48 bits/cycle → ceil(100/48) = 3.
        assert_eq!(s.serialization_cycles(12), 3);
    }
}
