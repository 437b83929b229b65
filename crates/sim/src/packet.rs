//! The packet every network takes and the delivery record every network
//! hands back.
//!
//! The FSOI network, the electrical mesh, the idealized L0/Lr1/Lr2
//! networks and the destination-channel crossbars all carry the same two
//! packet lengths (paper §4.3.2): 72-bit *meta* packets (requests,
//! acknowledgments) and 360-bit *data* packets (cache lines). The payload
//! is abstracted to an opaque `tag` the client uses to recognize
//! deliveries; no network ever inspects it.

/// The two packet lengths. (The FSOI confirmation channel is a separate
/// single-bit mechanism, not a packet class.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PacketClass {
    /// 72-bit requests / acknowledgments.
    Meta,
    /// 360-bit cache-line transfers.
    Data,
}

impl PacketClass {
    /// Both classes, in lane order.
    pub const ALL: [PacketClass; 2] = [PacketClass::Meta, PacketClass::Data];

    /// A compact index (0 = meta, 1 = data) for per-lane arrays.
    #[inline]
    pub fn lane(self) -> usize {
        match self {
            PacketClass::Meta => 0,
            PacketClass::Data => 1,
        }
    }
}

/// A packet as a client injects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPacket {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Meta (72-bit) or data (360-bit).
    pub class: PacketClass,
    /// Opaque tag (the client's message-table index).
    pub tag: u64,
    /// Scheduling delay already applied by request spacing (for latency
    /// attribution).
    pub scheduling_delay: u64,
}

impl NetPacket {
    /// Creates a packet.
    pub fn new(src: usize, dst: usize, class: PacketClass, tag: u64) -> Self {
        NetPacket {
            src,
            dst,
            class,
            tag,
            scheduling_delay: 0,
        }
    }
}

/// A delivered packet: the packet as injected, and what its trip cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDelivery {
    /// The packet.
    pub packet: NetPacket,
    /// End-to-end latency in cycles, injection to delivery.
    pub latency: u64,
    /// Retransmissions the packet suffered (FSOI only; 0 elsewhere).
    pub retries: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_lane_indices() {
        assert_eq!(PacketClass::Meta.lane(), 0);
        assert_eq!(PacketClass::Data.lane(), 1);
        assert_eq!(PacketClass::ALL.map(PacketClass::lane), [0, 1]);
    }
}
