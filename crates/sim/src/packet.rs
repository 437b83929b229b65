//! The one network interface: the packet every network takes, the
//! delivery record every network hands back, and the [`Interconnect`]
//! trait every network implements in its own crate.
//!
//! The FSOI network, the electrical mesh, the idealized L0/Lr1/Lr2
//! networks and the destination-channel crossbars all carry the same two
//! packet lengths (paper §4.3.2): 72-bit *meta* packets (requests,
//! acknowledgments) and 360-bit *data* packets (cache lines). The payload
//! is abstracted to an opaque `tag` the client uses to recognize
//! deliveries; no network ever inspects it.
//!
//! The trait has three groups: driving (`inject`, `tick`, `drain`, `now`,
//! `is_idle`, `next_event_at`, `advance_to`, `name`), the FSOI hooks the
//! §5 optimizations call (`expect_data`, `clear_expected`,
//! `reserve_reply_slot`, `supports_confirmation_acks`; no-ops elsewhere),
//! and one read-only [`Interconnect::report`]. Everything a run report
//! takes from the network comes out of that one call as a [`NetReport`]:
//! a new network quantity is a `NetReport` field, not a trait method.

use crate::Cycle;

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

/// Mean per-packet latency attribution across a run (the Figure 6/7
/// stack).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyAttribution {
    /// Source queuing.
    pub queuing: f64,
    /// Deliberate scheduling (request spacing).
    pub scheduling: f64,
    /// Serialization + flight (or routers + links for the mesh).
    pub network: f64,
    /// Collision resolution (FSOI only).
    pub collision_resolution: f64,
}

impl LatencyAttribution {
    /// Total mean latency.
    pub fn total(&self) -> f64 {
        self.queuing + self.scheduling + self.network + self.collision_resolution
    }
}

/// What a network reports about a run so far: the network's half of a
/// CMP run report. Per-lane pairs are `[meta, data]`; a quantity a network
/// has no notion of stays 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetReport {
    /// Mean per-packet latency attribution.
    pub attribution: LatencyAttribution,
    /// First-transmission probability per node per slot (Figure 9's
    /// x-axis).
    pub tx_probability: [f64; 2],
    /// Fraction of transmissions that collided.
    pub collision_rate: [f64; 2],
    /// Mean collision-resolution delay of collided data packets, cycles.
    pub data_resolution_delay: f64,
    /// Fraction of issued data-lane hints whose winner was a true
    /// collider (§5.2).
    pub hint_accuracy: f64,
    /// Fraction of issued hints that made a non-collider believe it won.
    pub hint_wrong_rate: f64,
    /// Packets dropped by raw bit errors and recovered by retransmission.
    pub bit_error_drops: u64,
    /// Network energy over the reported span, joules.
    pub energy_j: f64,
}

/// The driving interface every network variant implements.
pub trait Interconnect: std::fmt::Debug {
    /// Injects a packet; `Err` hands it back on queue overflow.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local traffic never enters a network) or
    /// if either id is not below the network's node count.
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket>;
    /// Advances one cycle.
    fn tick(&mut self);
    /// Takes deliveries since the last drain.
    fn drain(&mut self) -> Vec<NetDelivery>;
    /// Current network time.
    fn now(&self) -> Cycle;
    /// True when nothing is queued or in flight.
    fn is_idle(&self) -> bool;
    /// Short human-readable name ("fsoi", "mesh", "L0"…).
    fn name(&self) -> &'static str;
    /// Everything the network measured so far, with energy charged over
    /// `cycles`.
    fn report(&self, cycles: u64) -> NetReport;

    /// The earliest cycle `>= now()` at which the network could do any
    /// work on its own — deliver, resolve a slot, drain a confirmation,
    /// start a transmission. `Some(Cycle(u64::MAX))` means "never without
    /// a new injection"; `None` means "unknown — drive me cycle by
    /// cycle". The default is the conservative pair: unknown while busy,
    /// never while idle.
    fn next_event_at(&self) -> Option<Cycle> {
        if self.is_idle() {
            Some(Cycle(u64::MAX))
        } else {
            None
        }
    }
    /// Advances the network to `target`, processing internal events at
    /// their exact cycles. The default ticks cycle by cycle; event-driven
    /// networks override it with a fast-forwarding implementation.
    fn advance_to(&mut self, target: Cycle) {
        while self.now() < target {
            self.tick();
        }
    }

    /// Registers that `dst` expects a data reply from `src` (FSOI hint
    /// optimization); default no-op.
    fn expect_data(&mut self, _dst: usize, _src: usize) {}
    /// Clears an expectation; default no-op.
    fn clear_expected(&mut self, _dst: usize, _src: usize) {}
    /// Reserves the reply slot predicted at `predicted_arrival` for
    /// `node`; returns the request delay in cycles (FSOI request spacing);
    /// default 0.
    fn reserve_reply_slot(&mut self, _node: usize, _predicted_arrival: Cycle) -> u64 {
        0
    }
    /// True when the network's confirmation channel can substitute for
    /// explicit acknowledgment packets (§5.1); default false.
    fn supports_confirmation_acks(&self) -> bool {
        false
    }
    /// [`NetReport::collision_rate`] on one lane (0 = meta, 1 = data).
    fn collision_rate(&self, lane: usize) -> f64 {
        self.report(self.now().as_u64()).collision_rate[lane]
    }
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
