//! Node identity, receiver sharing, and VCSEL inventory.
//!
//! The FSOI fabric is a quasi-crossbar: every node owns a dedicated lane of
//! VCSELs per destination (small/medium systems) or a steerable phase array
//! (large systems), and a small number of shared receivers per lane kind.
//! With `R` receivers per node, the `N − 1` potential transmitters are
//! evenly divided among them (paper §4.3.1), so collisions only occur
//! between senders that share a receiver.

use core::fmt;

/// Identifies a node (a processor core / network endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Which of a destination's `R` receivers a given sender targets.
///
/// Senders are ranked by id with the destination itself excluded, then
/// dealt round-robin across receivers, which divides the `N − 1` potential
/// transmitters evenly (±1) among them.
///
/// # Panics
///
/// Panics if `src == dst`, either id is out of range, or `receivers == 0`.
pub fn receiver_index(src: NodeId, dst: NodeId, nodes: usize, receivers: usize) -> usize {
    assert!(receivers > 0, "need at least one receiver");
    assert!(src.0 < nodes && dst.0 < nodes, "node id out of range");
    assert_ne!(src, dst, "a node does not transmit to itself");
    // Rank of src among {0..nodes} \ {dst}.
    let rank = if src.0 < dst.0 { src.0 } else { src.0 - 1 };
    rank % receivers
}

/// The set of senders sharing receiver `rx` at `dst`.
pub fn senders_for_receiver(dst: NodeId, rx: usize, nodes: usize, receivers: usize) -> Vec<NodeId> {
    (0..nodes)
        .map(NodeId)
        .filter(|&s| s != dst && receiver_index(s, dst, nodes, receivers) == rx)
        .collect()
}

/// Total transmit VCSELs for a dedicated-lane (non-phase-array) system:
/// `N (N−1) k` where `k` is the per-destination lane width in bits, plus
/// one confirmation VCSEL per node.
///
/// The paper's example: `N = 16, k = 9` needs ≈ 2000 VCSELs.
pub fn dedicated_vcsel_count(nodes: usize, lane_bits: usize) -> usize {
    nodes * (nodes - 1) * lane_bits + nodes
}

/// Area of a 2-D VCSEL array with square devices of `device_um` on a pitch
/// of `device_um + spacing_um`, in mm².
///
/// The paper: 2000 devices of 20 µm with 30 µm spacing occupy ≈ 5 mm².
pub fn array_area_mm2(count: usize, device_um: f64, spacing_um: f64) -> f64 {
    let pitch = device_um + spacing_um; // µm
    count as f64 * pitch * pitch * 1e-6 // µm² → mm²
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let n: NodeId = 3usize.into();
        assert_eq!(n.0, 3);
        assert_eq!(n.to_string(), "node 3");
    }

    #[test]
    fn receiver_assignment_is_balanced() {
        let nodes = 16;
        let receivers = 2;
        for dst in 0..nodes {
            let mut counts = vec![0usize; receivers];
            for src in 0..nodes {
                if src == dst {
                    continue;
                }
                counts[receiver_index(NodeId(src), NodeId(dst), nodes, receivers)] += 1;
            }
            // 15 senders over 2 receivers: 8 and 7.
            assert!(counts.iter().all(|&c| c == 7 || c == 8), "{counts:?}");
            assert_eq!(counts.iter().sum::<usize>(), nodes - 1);
        }
    }

    #[test]
    fn receiver_assignment_is_stable() {
        let a = receiver_index(NodeId(3), NodeId(7), 16, 2);
        let b = receiver_index(NodeId(3), NodeId(7), 16, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn senders_for_receiver_partition() {
        let dst = NodeId(5);
        let s0 = senders_for_receiver(dst, 0, 16, 2);
        let s1 = senders_for_receiver(dst, 1, 16, 2);
        assert_eq!(s0.len() + s1.len(), 15);
        assert!(s0.iter().all(|s| !s1.contains(s)));
        assert!(!s0.contains(&dst) && !s1.contains(&dst));
    }

    #[test]
    fn single_receiver_takes_everyone() {
        let s = senders_for_receiver(NodeId(0), 0, 4, 1);
        assert_eq!(s, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "does not transmit to itself")]
    fn self_send_panics() {
        receiver_index(NodeId(2), NodeId(2), 16, 2);
    }

    #[test]
    fn paper_vcsel_inventory() {
        // N = 16, k = 9 bits (6 data + 3 meta): "approximately 2000 VCSELs".
        let count = dedicated_vcsel_count(16, 9);
        assert_eq!(count, 16 * 15 * 9 + 16);
        assert!((2000..2300).contains(&count), "count = {count}");
        // "2000 VCSELs occupy a total area of about 5 mm²" at 20 µm devices
        // with 30 µm spacing.
        let area = array_area_mm2(2000, 20.0, 30.0);
        assert!((area - 5.0).abs() < 0.1, "area = {area} mm²");
    }
}
