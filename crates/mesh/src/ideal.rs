//! The idealized comparison configurations of §7.1.
//!
//! * **L0** — transmission latency idealized to zero; a packet experiences
//!   only its serialization delay (1 cycle meta, 5 cycles data) and any
//!   queuing at the source node's output link. A loose upper bound on any
//!   interconnect.
//! * **Lr1 / Lr2** — L0 plus a per-hop cost of 1 link cycle and 1 or 2
//!   router cycles along the XY path, with no contention inside the
//!   network. Loose upper bounds for aggressively pipelined routers.

use crate::packet::FLITS;
use crate::routing::hop_distance;
use fsoi_sim::event::EventQueue;
use fsoi_sim::packet::{Interconnect, NetDelivery, NetPacket, NetReport};
use fsoi_sim::Cycle;

/// Which idealization to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdealKind {
    /// Serialization + source queuing only.
    L0,
    /// Plus `hops × (1 + 1)` cycles.
    Lr1,
    /// Plus `hops × (2 + 1)` cycles.
    Lr2,
}

impl IdealKind {
    /// Per-hop latency in cycles (0 for L0).
    pub(crate) fn per_hop_cycles(self) -> u64 {
        match self {
            IdealKind::L0 => 0,
            IdealKind::Lr1 => 2, // 1 router + 1 link
            IdealKind::Lr2 => 3, // 2 router + 1 link
        }
    }
}

/// A contention-free analytic network model.
#[derive(Debug)]
pub struct IdealNetwork {
    kind: IdealKind,
    width: usize,
    now: Cycle,
    /// Per-node time the output link frees up (serialization is the only
    /// shared resource).
    link_free_at: Vec<Cycle>,
    /// Packets in flight with their injection times, by arrival.
    deliveries: EventQueue<(NetPacket, Cycle)>,
    delivered: Vec<NetDelivery>,
}

impl IdealNetwork {
    /// Creates an ideal model over a `width × width` logical mesh (the
    /// width only matters for Lr1/Lr2 hop counts).
    pub fn new(kind: IdealKind, width: usize) -> Self {
        assert!(width >= 2);
        IdealNetwork {
            kind,
            width,
            now: Cycle::ZERO,
            link_free_at: vec![Cycle::ZERO; width * width],
            deliveries: EventQueue::new(),
            delivered: Vec::new(),
        }
    }
}

impl Interconnect for IdealNetwork {
    /// Computes the packet's delivery time on the spot. Never rejects
    /// (queues are unbounded in the idealization).
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        let nodes = self.link_free_at.len();
        assert!(
            packet.src < nodes && packet.dst < nodes,
            "node id out of range"
        );
        let ser = FLITS[packet.class.lane()] as u64;
        let start = self.link_free_at[packet.src].max(self.now);
        let done_serializing = start + ser;
        self.link_free_at[packet.src] = done_serializing;
        let hops = hop_distance(packet.src, packet.dst, self.width) as u64;
        let arrive = done_serializing + hops * self.kind.per_hop_cycles();
        self.deliveries.push(arrive, (packet, self.now));
        Ok(())
    }

    fn tick(&mut self) {
        self.now += 1;
        while let Some((at, (packet, enqueued_at))) = self.deliveries.pop_due(self.now) {
            // An upper bound attributes its whole latency to the network,
            // source queuing included.
            self.delivered.push(NetDelivery {
                packet,
                latency: at - enqueued_at,
                retries: 0,
                queuing: 0,
                resolution: 0,
            });
        }
    }

    fn drain(&mut self) -> std::vec::Drain<'_, NetDelivery> {
        self.delivered.drain(..)
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn is_idle(&self) -> bool {
        self.deliveries.is_empty()
    }

    fn name(&self) -> &'static str {
        match self.kind {
            IdealKind::L0 => "L0",
            IdealKind::Lr1 => "Lr1",
            IdealKind::Lr2 => "Lr2",
        }
    }

    fn report(&self, _cycles: u64) -> NetReport {
        NetReport::default() // idealized: no energy model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsoi_sim::packet::PacketClass;

    fn meta(src: usize, dst: usize, tag: u64) -> NetPacket {
        NetPacket::new(src, dst, PacketClass::Meta, tag)
    }

    fn data(src: usize, dst: usize, tag: u64) -> NetPacket {
        NetPacket::new(src, dst, PacketClass::Data, tag)
    }

    fn run_until_idle(net: &mut IdealNetwork, max: u64) -> Vec<NetDelivery> {
        let mut out = Vec::new();
        for _ in 0..max {
            net.tick();
            out.extend(net.drain());
            if net.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn l0_is_pure_serialization() {
        let mut net = IdealNetwork::new(IdealKind::L0, 4);
        net.inject(meta(0, 15, 0)).unwrap();
        net.inject(data(3, 12, 0)).unwrap();
        let out = run_until_idle(&mut net, 50);
        let latency = |class| {
            out.iter()
                .find(|d| d.packet.class == class)
                .unwrap()
                .latency
        };
        assert_eq!(out.len(), 2);
        assert_eq!(latency(PacketClass::Meta), 1);
        assert_eq!(latency(PacketClass::Data), 5);
    }

    #[test]
    fn source_queuing_still_counts_in_l0() {
        let mut net = IdealNetwork::new(IdealKind::L0, 4);
        net.inject(data(0, 15, 0)).unwrap();
        net.inject(data(0, 14, 1)).unwrap();
        let out = run_until_idle(&mut net, 50);
        let lats: Vec<u64> = out.iter().map(|d| d.latency).collect();
        assert!(lats.contains(&5) && lats.contains(&10), "{lats:?}");
    }

    #[test]
    fn lr_models_add_hop_latency() {
        for (kind, per_hop) in [(IdealKind::Lr1, 2u64), (IdealKind::Lr2, 3u64)] {
            let mut net = IdealNetwork::new(kind, 4);
            net.inject(meta(0, 15, 0)).unwrap(); // 6 hops
            let out = run_until_idle(&mut net, 100);
            assert_eq!(out[0].latency, 1 + 6 * per_hop, "{kind:?}");
        }
    }

    #[test]
    fn ordering_of_upper_bounds() {
        // L0 ≤ Lr1 ≤ Lr2 for identical traffic.
        let mut lat = Vec::new();
        for kind in [IdealKind::L0, IdealKind::Lr1, IdealKind::Lr2] {
            let mut net = IdealNetwork::new(kind, 4);
            for src in 0..8 {
                net.inject(data(src, 15 - src, 0)).unwrap();
            }
            let total: u64 = run_until_idle(&mut net, 200)
                .iter()
                .map(|d| d.latency)
                .sum();
            lat.push(total);
        }
        assert!(lat[0] <= lat[1] && lat[1] <= lat[2], "{lat:?}");
    }

    #[test]
    fn kind_accessors() {
        assert_eq!(IdealKind::L0.per_hop_cycles(), 0);
        assert_eq!(IdealKind::Lr1.per_hop_cycles(), 2);
        assert_eq!(IdealKind::Lr2.per_hop_cycles(), 3);
        let net = IdealNetwork::new(IdealKind::Lr1, 4);
        assert_eq!(net.kind, IdealKind::Lr1);
        assert_eq!(net.now(), Cycle::ZERO);
    }
}
