//! Packet classes and the PID/~PID collision-detecting header code.
//!
//! The network defines two packet lengths (paper §4.3.2): 72-bit *meta*
//! packets (requests, acknowledgments) and 360-bit *data* packets (cache
//! lines). The packets themselves are the workspace-wide
//! [`NetPacket`](fsoi_sim::packet::NetPacket). Because colliding OOK light
//! pulses OR together, each header carries both the sender id (PID) and
//! its bitwise complement (~PID); any collision makes at least one bit
//! position read 1 in *both* fields, which a receiver detects immediately.
//! The OR-ed header also yields a superset of the possible colliders,
//! which the data-lane hint optimization (§5.2) exploits.

use crate::topology::NodeId;

/// The two packet lengths every network in the workspace shares (on the
/// FSOI lanes: 2-cycle meta, 5-cycle data serialization).
pub use fsoi_sim::packet::PacketClass;

/// The PID/~PID header field pair as transmitted, and — after collisions —
/// as OR-ed at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeaderCode {
    /// OR of the senders' id fields.
    pub pid: u32,
    /// OR of the senders' complemented id fields (masked to the id width).
    pub pid_complement: u32,
    /// Width in bits of the id fields.
    pub width: u32,
}

impl HeaderCode {
    /// Bits needed to encode ids `0..nodes`.
    pub fn id_width(nodes: usize) -> u32 {
        assert!(nodes >= 2, "a network needs at least two nodes");
        usize::BITS - (nodes - 1).leading_zeros()
    }

    /// Encodes a single sender's header.
    pub fn encode(src: NodeId, nodes: usize) -> Self {
        let width = Self::id_width(nodes);
        let mask = (1u32 << width) - 1;
        let pid = src.0 as u32 & mask;
        HeaderCode {
            pid,
            pid_complement: !pid & mask,
            width,
        }
    }

    /// The OR-superposition of this header with another (what a shared
    /// receiver sees when packets collide).
    pub fn superpose(self, other: HeaderCode) -> HeaderCode {
        debug_assert_eq!(self.width, other.width, "mismatched header widths");
        HeaderCode {
            pid: self.pid | other.pid,
            pid_complement: self.pid_complement | other.pid_complement,
            width: self.width,
        }
    }

    /// Superposes the headers of all `senders`.
    pub fn superpose_all(senders: &[NodeId], nodes: usize) -> HeaderCode {
        senders.iter().map(|&s| HeaderCode::encode(s, nodes)).fold(
            HeaderCode {
                pid: 0,
                pid_complement: 0,
                width: Self::id_width(nodes),
            },
            HeaderCode::superpose,
        )
    }

    /// True if this header shows evidence of a collision: some bit position
    /// reads 1 in both PID and ~PID.
    pub fn is_collided(self) -> bool {
        self.pid & self.pid_complement != 0
    }

    /// Decodes a clean (non-collided) header back to the sender id.
    ///
    /// Returns `None` if the header is collided.
    pub fn decode(self) -> Option<NodeId> {
        if self.is_collided() {
            None
        } else {
            Some(NodeId(self.pid as usize))
        }
    }

    /// The superset of nodes that *could* have participated in the
    /// collision: node `j` is possible iff its PID bits are covered by the
    /// received PID field and its complement bits by the received
    /// complement field (OR only ever sets bits, never clears them).
    pub fn possible_senders(self, nodes: usize) -> Vec<NodeId> {
        let mask = (1u32 << self.width) - 1;
        (0..nodes)
            .filter(|&j| {
                let pid = j as u32 & mask;
                let comp = !pid & mask;
                pid & !self.pid == 0 && comp & !self.pid_complement == 0
            })
            .map(NodeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_width_values() {
        assert_eq!(HeaderCode::id_width(2), 1);
        assert_eq!(HeaderCode::id_width(16), 4);
        assert_eq!(HeaderCode::id_width(17), 5);
        assert_eq!(HeaderCode::id_width(64), 6);
    }

    #[test]
    fn clean_header_roundtrip() {
        for n in [2usize, 16, 64] {
            for i in 0..n {
                let h = HeaderCode::encode(NodeId(i), n);
                assert!(!h.is_collided());
                assert_eq!(h.decode(), Some(NodeId(i)));
            }
        }
    }

    #[test]
    fn any_two_distinct_senders_collide_detectably() {
        // The PID/~PID code guarantees detection of any 2-way collision:
        // differing ids differ in at least one bit, which reads 1 in both
        // fields after the OR.
        let n = 16;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let h =
                    HeaderCode::encode(NodeId(a), n).superpose(HeaderCode::encode(NodeId(b), n));
                assert!(h.is_collided(), "{a} + {b} must be detected");
                assert_eq!(h.decode(), None);
            }
        }
    }

    #[test]
    fn multiway_collisions_detected() {
        let h = HeaderCode::superpose_all(&[NodeId(1), NodeId(6), NodeId(11)], 16);
        assert!(h.is_collided());
    }

    #[test]
    fn possible_senders_is_superset_of_actual() {
        let n = 16;
        let actual = [NodeId(3), NodeId(12)];
        let h = HeaderCode::superpose_all(&actual, n);
        let possible = h.possible_senders(n);
        for a in actual {
            assert!(possible.contains(&a), "superset must contain {a}");
        }
        // 3 = 0011, 12 = 1100: OR pid = 1111, OR comp = 1111 ⇒ every node
        // is possible — the worst case the paper's footnote 7 mentions.
        assert_eq!(possible.len(), n);
    }

    #[test]
    fn possible_senders_can_be_tight() {
        let n = 16;
        // 8 = 1000 and 9 = 1001 share three bits: OR pid = 1001,
        // comp(8) = 0111, comp(9) = 0110, OR comp = 0111.
        let h = HeaderCode::superpose_all(&[NodeId(8), NodeId(9)], n);
        let possible = h.possible_senders(n);
        assert_eq!(possible, vec![NodeId(8), NodeId(9)]);
    }

    #[test]
    fn single_sender_possible_set_is_itself() {
        let h = HeaderCode::encode(NodeId(5), 16);
        assert_eq!(h.possible_senders(16), vec![NodeId(5)]);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_network_panics() {
        HeaderCode::id_width(1);
    }
}
