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
//! and one read-only [`Interconnect::report`].
//!
//! A run report takes two things from a network. Per packet, each
//! [`NetDelivery`] carries its own trip: total latency, source queuing,
//! the request-spacing delay it was injected with, and collision
//! resolution; the network time is what is left ([`NetDelivery::network`]).
//! The client folds those records into the Figure 6/7 stack itself, so no
//! network keeps latency statistics. Per run, [`Interconnect::report`]
//! returns a [`NetReport`] with what only the network knows — collision
//! and transmission rates, hints, bit-error drops, energy. A new network
//! quantity is a `NetReport` field, not a trait method.

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
    /// Scheduling delay already applied by request spacing (FSOI counts
    /// it into the delivery's latency).
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
///
/// `latency` splits into four parts: `queuing`, the packet's
/// `scheduling_delay`, `resolution`, and the [`network`](Self::network)
/// time left over. The two narrow fields fit a 64-byte record; a run is
/// bounded far below 2³² cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDelivery {
    /// The packet.
    pub packet: NetPacket,
    /// End-to-end latency in cycles, injection to delivery. FSOI also
    /// counts the packet's scheduling delay, the wait its request spacing
    /// imposed before injection; no other network spaces requests, so
    /// their packets carry none.
    pub latency: u64,
    /// Retransmissions the packet suffered (FSOI only; 0 elsewhere).
    pub retries: u32,
    /// Cycles spent waiting at the source (FSOI: queue to first
    /// transmission; ring and crossbar: the arbitration wait; 0 on the
    /// mesh and the ideal networks).
    pub queuing: u32,
    /// Cycles lost to collisions and back-off, first transmission to the
    /// final one (FSOI only; 0 elsewhere).
    pub resolution: u32,
}

impl NetDelivery {
    /// Serialization and flight (routers and links on the mesh): the
    /// latency left after queuing, scheduling and resolution.
    pub fn network(&self) -> u64 {
        let waits =
            u64::from(self.queuing) + self.packet.scheduling_delay + u64::from(self.resolution);
        debug_assert!(waits <= self.latency, "components exceed latency: {self:?}");
        self.latency.saturating_sub(waits)
    }

    /// Narrows a cycle count to a `queuing` or `resolution` field.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` does not fit in 32 bits, which no bounded run
    /// reaches.
    #[expect(
        clippy::expect_used,
        reason = "P1: a run is capped far below 2^32 cycles, so a wider component is a network bug"
    )]
    pub fn narrow(cycles: u64) -> u32 {
        u32::try_from(cycles).expect("latency component exceeds u32 cycles")
    }
}

/// What a network reports about a run so far: the network's half of a
/// CMP run report, beside the per-packet [`NetDelivery`] records. Per-lane
/// pairs are `[meta, data]`; a quantity a network has no notion of stays 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetReport {
    /// First-transmission probability per node per slot (Figure 9's
    /// x-axis).
    pub tx_probability: [f64; 2],
    /// Fraction of transmissions that collided.
    pub collision_rate: [f64; 2],
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
    /// Takes the deliveries since the last drain, in delivery order.
    ///
    /// The iterator borrows the network's own delivery buffer, so the
    /// network keeps one buffer for the whole run and the caller allocates
    /// nothing; while it lives the network cannot be driven. Dropping it
    /// discards whatever was not read, and a second drain in the same
    /// cycle is empty.
    fn drain(&mut self) -> std::vec::Drain<'_, NetDelivery>;
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
    /// work on its own — deliver, resolve a slot, start a transmission.
    /// `Some(Cycle(u64::MAX))` means "never without a new injection";
    /// `None` means "unknown — drive me cycle by cycle". The default is
    /// the conservative pair: unknown while busy, never while idle.
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
    fn network_time_is_what_the_other_components_leave() {
        let d = NetDelivery {
            packet: NetPacket {
                scheduling_delay: 3,
                ..NetPacket::new(0, 1, PacketClass::Data, 0)
            },
            latency: 20,
            retries: 1,
            queuing: 4,
            resolution: 8,
        };
        assert_eq!(d.network(), 5);
        assert_eq!(NetDelivery::narrow(u64::from(u32::MAX)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn a_component_past_32_bits_is_rejected() {
        let _ = NetDelivery::narrow(1 << 32);
    }

    #[test]
    fn class_lane_indices() {
        assert_eq!(PacketClass::Meta.lane(), 0);
        assert_eq!(PacketClass::Data.lane(), 1);
        assert_eq!(PacketClass::ALL.map(PacketClass::lane), [0, 1]);
    }
}
