//! The interconnect abstraction the CMP system drives, with adapters for
//! the FSOI network, the electrical mesh, the idealized L0/Lr1/Lr2
//! configurations, and the destination-channel crossbars (Corona ring,
//! matrix crossbar).
//!
//! Coherence messages are carried opaquely: the system registers each
//! in-flight message in a table and sends only its index as the packet
//! `tag`; deliveries hand the tag back.

use fsoi_mesh::ideal::{IdealKind, IdealNetwork};
use fsoi_mesh::network::{MeshDelivered, MeshNetwork};
use fsoi_mesh::packet::MeshPacket;
use fsoi_mesh::power::MeshPowerModel;
use fsoi_net::network::FsoiNetwork;
use fsoi_net::packet::{Packet, PacketClass};
use fsoi_net::power::FsoiPowerModel;
use fsoi_net::topology::NodeId;
use fsoi_ring::network::{Arbitration, ChannelNetwork, RingPacket};
use fsoi_sim::Cycle;

/// A packet as the CMP system sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPacket {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Meta (72-bit) or data (360-bit).
    pub class: PacketClass,
    /// Opaque tag (message-table index).
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

/// A delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDelivery {
    /// The packet.
    pub packet: NetPacket,
    /// End-to-end latency in cycles.
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

/// The driving interface every network variant implements.
pub trait Interconnect: std::fmt::Debug {
    /// Injects a packet; `Err` hands it back on queue overflow.
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket>;
    /// Advances one cycle.
    fn tick(&mut self);
    /// Takes deliveries since the last drain.
    fn drain(&mut self) -> Vec<NetDelivery>;
    /// Current network time.
    fn now(&self) -> Cycle;
    /// True when nothing is queued or in flight.
    fn is_idle(&self) -> bool;
    /// Mean latency attribution so far.
    fn attribution(&self) -> LatencyAttribution;
    /// Network energy consumed over `cycles`, joules.
    fn energy_j(&mut self, cycles: u64) -> f64;
    /// Short human-readable name ("fsoi", "mesh", "L0"…).
    fn name(&self) -> &'static str;

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
    /// Fraction of transmissions that collided on a lane (0 = meta,
    /// 1 = data); 0.0 for collision-free networks.
    fn collision_rate(&self, _lane: usize) -> f64 {
        0.0
    }
    /// First-transmission probability per node per slot on a lane; 0.0
    /// where the concept does not apply.
    fn tx_probability(&self, _lane: usize) -> f64 {
        0.0
    }
    /// Data-lane hint statistics `(issued, correct, wrong)`.
    fn hint_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
    /// Mean collision-resolution delay of collided data packets, cycles.
    fn data_resolution_delay(&self) -> f64 {
        0.0
    }
    /// Packets dropped by raw bit errors and recovered by retransmission
    /// (FSOI only).
    fn bit_error_drops(&self) -> u64 {
        0
    }
}

/// FSOI adapter.
#[derive(Debug)]
pub struct FsoiAdapter {
    net: FsoiNetwork,
    power: FsoiPowerModel,
}

impl FsoiAdapter {
    /// Wraps an FSOI network with the paper's power model.
    pub fn new(net: FsoiNetwork) -> Self {
        FsoiAdapter {
            net,
            power: FsoiPowerModel::paper_default(),
        }
    }
}

impl Interconnect for FsoiAdapter {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        let p = Packet::new(
            NodeId(packet.src),
            NodeId(packet.dst),
            packet.class,
            packet.tag,
        )
        .with_scheduling_delay(packet.scheduling_delay);
        self.net.inject(p).map(|_| ()).map_err(|_| packet)
    }

    fn tick(&mut self) {
        self.net.tick();
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        self.net
            .drain_delivered()
            .into_iter()
            .map(|d| NetDelivery {
                packet: NetPacket {
                    src: d.packet.src.0,
                    dst: d.packet.dst.0,
                    class: d.packet.class,
                    tag: d.packet.tag,
                    scheduling_delay: d.packet.scheduling_delay,
                },
                latency: d.breakdown.total(),
                retries: d.packet.retries,
            })
            .collect()
    }

    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn is_idle(&self) -> bool {
        self.net.is_idle()
    }

    fn attribution(&self) -> LatencyAttribution {
        let s = self.net.stats();
        let weight = |lane: usize| s.latency[lane].count() as f64;
        let total = weight(0) + weight(1);
        if total == 0.0 {
            return LatencyAttribution::default();
        }
        let mix = |a: f64, b: f64| (a * weight(0) + b * weight(1)) / total;
        LatencyAttribution {
            queuing: mix(s.queuing[0].mean(), s.queuing[1].mean()),
            scheduling: mix(s.scheduling[0].mean(), s.scheduling[1].mean()),
            network: mix(s.network[0].mean(), s.network[1].mean()),
            collision_resolution: mix(s.resolution[0].mean(), s.resolution[1].mean()),
        }
    }

    fn energy_j(&mut self, cycles: u64) -> f64 {
        let lanes = self.net.config().lanes;
        let nodes = self.net.config().nodes;
        let conf = self.net.confirmations_sent();
        self.power
            .network_energy(self.net.stats(), &lanes, nodes, cycles, conf)
            .total_j()
    }

    fn name(&self) -> &'static str {
        "fsoi"
    }

    fn next_event_at(&self) -> Option<Cycle> {
        Some(self.net.next_event_at().unwrap_or(Cycle(u64::MAX)))
    }

    fn advance_to(&mut self, target: Cycle) {
        self.net.advance_to(target);
    }

    fn expect_data(&mut self, dst: usize, src: usize) {
        self.net.expect_data(NodeId(dst), NodeId(src));
    }

    fn clear_expected(&mut self, dst: usize, src: usize) {
        self.net.clear_expected(NodeId(dst), NodeId(src));
    }

    fn reserve_reply_slot(&mut self, node: usize, predicted_arrival: Cycle) -> u64 {
        if !self.net.config().request_spacing {
            return 0;
        }
        let slot = self.net.data_slot_len();
        self.net
            .reservations_mut(NodeId(node))
            .reserve(predicted_arrival, slot)
            .request_delay
    }

    fn supports_confirmation_acks(&self) -> bool {
        true
    }

    fn collision_rate(&self, lane: usize) -> f64 {
        self.net.stats().collision_rate(lane)
    }

    fn tx_probability(&self, lane: usize) -> f64 {
        let class = if lane == 0 {
            PacketClass::Meta
        } else {
            PacketClass::Data
        };
        let slots = self.net.slots_elapsed(class);
        let nodes = self.net.config().nodes;
        // First transmissions only: attempts minus retransmissions.
        let s = self.net.stats();
        let first = s.transmissions[lane].saturating_sub(s.retransmissions[lane]);
        if slots == 0 {
            0.0
        } else {
            first as f64 / (nodes as f64 * slots as f64)
        }
    }

    fn hint_stats(&self) -> (u64, u64, u64) {
        let s = self.net.stats();
        (s.hints_issued, s.hints_correct, s.hints_wrong)
    }

    fn data_resolution_delay(&self) -> f64 {
        self.net.stats().resolution_when_collided[1].mean()
    }

    fn bit_error_drops(&self) -> u64 {
        let s = self.net.stats();
        s.bit_error_drops[0] + s.bit_error_drops[1]
    }
}

/// A system packet as the mesh crate's networks (mesh, ideal) take it.
fn mesh_packet(packet: &NetPacket) -> MeshPacket {
    match packet.class {
        PacketClass::Meta => MeshPacket::meta(packet.src, packet.dst, packet.tag),
        PacketClass::Data => MeshPacket::data(packet.src, packet.dst, packet.tag),
    }
}

/// The mesh crate's deliveries as the system sees them.
fn mesh_deliveries(delivered: Vec<MeshDelivered>) -> Vec<NetDelivery> {
    delivered
        .into_iter()
        .map(|d| NetDelivery {
            packet: NetPacket {
                src: d.packet.src,
                dst: d.packet.dst,
                class: if d.packet.is_meta() {
                    PacketClass::Meta
                } else {
                    PacketClass::Data
                },
                tag: d.packet.tag,
                scheduling_delay: 0,
            },
            latency: d.latency(),
            retries: 0,
        })
        .collect()
}

/// Mesh adapter.
#[derive(Debug)]
pub struct MeshAdapter {
    net: MeshNetwork,
    power: MeshPowerModel,
    /// Link-width scale: packets serialize into `ceil(flits / scale)`
    /// flits, modelling narrowed links for the Figure 11 sweep.
    width_fraction: f64,
}

impl MeshAdapter {
    /// Wraps a mesh with the Orion-style power model.
    pub fn new(net: MeshNetwork) -> Self {
        MeshAdapter {
            net,
            power: MeshPowerModel::paper_default(),
            width_fraction: 1.0,
        }
    }

    /// Narrows the links to `fraction` of their baseline width (packets
    /// carry proportionally more flits). Used by the Figure 11 bandwidth
    /// sensitivity sweep.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `[0.02, 1]` (the mesh carries at
    /// most 255 flits per packet, and a data packet starts at 5).
    pub fn with_width_fraction(mut self, fraction: f64) -> Self {
        assert!((0.02..=1.0).contains(&fraction));
        self.width_fraction = fraction;
        self
    }
}

impl Interconnect for MeshAdapter {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        let mut p = mesh_packet(&packet);
        p.flits = ((p.flits as f64) / self.width_fraction).ceil() as usize;
        self.net.inject(p).map(|_| ()).map_err(|_| packet)
    }

    fn tick(&mut self) {
        self.net.tick();
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        mesh_deliveries(self.net.drain_delivered())
    }

    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn is_idle(&self) -> bool {
        self.net.is_idle()
    }

    fn attribution(&self) -> LatencyAttribution {
        LatencyAttribution {
            queuing: 0.0,
            scheduling: 0.0,
            network: self.net.stats().latency.mean(),
            collision_resolution: 0.0,
        }
    }

    fn energy_j(&mut self, cycles: u64) -> f64 {
        self.net.harvest_power_counters();
        let routers = self.net.config().node_count();
        self.power.energy_j(self.net.stats(), routers, cycles)
    }

    fn name(&self) -> &'static str {
        "mesh"
    }

    fn next_event_at(&self) -> Option<Cycle> {
        Some(self.net.next_event_at().unwrap_or(Cycle(u64::MAX)))
    }

    fn advance_to(&mut self, target: Cycle) {
        self.net.advance_to(target);
    }
}

/// Ideal-network adapter (L0/Lr1/Lr2).
#[derive(Debug)]
pub struct IdealAdapter {
    net: IdealNetwork,
    kind: IdealKind,
}

impl IdealAdapter {
    /// Wraps an ideal model.
    pub fn new(kind: IdealKind, width: usize) -> Self {
        IdealAdapter {
            net: IdealNetwork::new(kind, width),
            kind,
        }
    }
}

impl Interconnect for IdealAdapter {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        self.net.inject(mesh_packet(&packet));
        Ok(())
    }

    fn tick(&mut self) {
        self.net.tick();
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        mesh_deliveries(self.net.drain_delivered())
    }

    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn is_idle(&self) -> bool {
        self.net.is_idle()
    }

    fn attribution(&self) -> LatencyAttribution {
        LatencyAttribution {
            network: self.net.latency().mean(),
            ..Default::default()
        }
    }

    fn energy_j(&mut self, _cycles: u64) -> f64 {
        0.0 // idealized: no energy model
    }

    fn name(&self) -> &'static str {
        match self.kind {
            IdealKind::L0 => "L0",
            IdealKind::Lr1 => "Lr1",
            IdealKind::Lr2 => "Lr2",
        }
    }
}

/// Adapter for the destination-channel crossbars: the Corona-style token
/// ring (the paper's §7.1 nanophotonic comparison point) and the
/// worst-case-loss matrix crossbar (the PAPERS.md comparative study's
/// baseline for the design-space grids), by the engine's arbitration row.
#[derive(Debug)]
pub struct ChannelAdapter {
    net: ChannelNetwork,
}

impl ChannelAdapter {
    /// Wraps a crossbar.
    pub fn new(net: ChannelNetwork) -> Self {
        ChannelAdapter { net }
    }
}

impl Interconnect for ChannelAdapter {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        let p = match packet.class {
            PacketClass::Meta => RingPacket::meta(packet.src, packet.dst, packet.tag),
            PacketClass::Data => RingPacket::data(packet.src, packet.dst, packet.tag),
        };
        self.net.inject(p).map(|_| ()).map_err(|_| packet)
    }

    fn tick(&mut self) {
        self.net.tick();
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        self.net
            .drain_delivered()
            .into_iter()
            .map(|d| NetDelivery {
                packet: NetPacket {
                    src: d.packet.src,
                    dst: d.packet.dst,
                    class: if d.packet.is_data {
                        PacketClass::Data
                    } else {
                        PacketClass::Meta
                    },
                    tag: d.packet.tag,
                    scheduling_delay: 0,
                },
                latency: d.latency(),
                retries: 0,
            })
            .collect()
    }

    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn is_idle(&self) -> bool {
        self.net.is_idle()
    }

    fn attribution(&self) -> LatencyAttribution {
        LatencyAttribution {
            queuing: self.net.stats().wait.mean(),
            network: self.net.stats().latency.mean() - self.net.stats().wait.mean(),
            ..Default::default()
        }
    }

    fn energy_j(&mut self, cycles: u64) -> f64 {
        // Dominated by always-on static power: ring tuning + modulators
        // on Corona, the worst-case-loss-sized per-port lasers (CW sources
        // behind modulators) plus receivers on the matrix.
        self.net.static_power_w() * cycles as f64 / 3.3e9
    }

    fn name(&self) -> &'static str {
        match self.net.config().arbitration {
            Arbitration::Token { .. } => "ring",
            Arbitration::Port { .. } => "crossbar",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsoi_mesh::config::MeshConfig;
    use fsoi_net::config::FsoiConfig;
    use fsoi_ring::config::RingConfig;
    use fsoi_ring::crossbar::CrossbarConfig;

    fn deliver_one(net: &mut dyn Interconnect, p: NetPacket) -> NetDelivery {
        net.inject(p).unwrap();
        for _ in 0..2_000 {
            net.tick();
            let out = net.drain();
            if !out.is_empty() {
                return out[0];
            }
        }
        panic!("packet never delivered on {}", net.name());
    }

    #[test]
    fn all_adapters_deliver() {
        let mut nets: Vec<Box<dyn Interconnect>> = vec![
            Box::new(FsoiAdapter::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1))),
            Box::new(MeshAdapter::new(MeshNetwork::new(MeshConfig::nodes(16)))),
            Box::new(IdealAdapter::new(IdealKind::L0, 4)),
            Box::new(IdealAdapter::new(IdealKind::Lr1, 4)),
            Box::new(IdealAdapter::new(IdealKind::Lr2, 4)),
        ];
        for net in &mut nets {
            let d = deliver_one(net.as_mut(), NetPacket::new(0, 9, PacketClass::Data, 42));
            assert_eq!(d.packet.dst, 9);
            assert_eq!(d.packet.tag, 42);
            assert!(d.latency > 0);
            assert!(net.is_idle());
        }
    }

    #[test]
    fn latency_ordering_l0_fsoi_mesh() {
        let lat = |net: &mut dyn Interconnect| {
            deliver_one(net, NetPacket::new(0, 15, PacketClass::Data, 0)).latency
        };
        let mut l0 = IdealAdapter::new(IdealKind::L0, 4);
        let mut fsoi = FsoiAdapter::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1));
        let mut mesh = MeshAdapter::new(MeshNetwork::new(MeshConfig::nodes(16)));
        let (a, b, c) = (lat(&mut l0), lat(&mut fsoi), lat(&mut mesh));
        assert!(a <= b, "L0 {a} <= FSOI {b}");
        assert!(b < c, "FSOI {b} < mesh {c}");
    }

    #[test]
    fn fsoi_attribution_sums_to_latency() {
        let mut fsoi = FsoiAdapter::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1));
        let d = deliver_one(&mut fsoi, NetPacket::new(2, 11, PacketClass::Meta, 0));
        let a = fsoi.attribution();
        assert!((a.total() - d.latency as f64).abs() < 1e-9);
    }

    #[test]
    fn energy_hooks_produce_values() {
        let mut fsoi = FsoiAdapter::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1));
        deliver_one(&mut fsoi, NetPacket::new(0, 5, PacketClass::Data, 0));
        assert!(fsoi.energy_j(100) > 0.0);
        let mut mesh = MeshAdapter::new(MeshNetwork::new(MeshConfig::nodes(16)));
        deliver_one(&mut mesh, NetPacket::new(0, 5, PacketClass::Data, 0));
        assert!(mesh.energy_j(100) > 0.0);
        let mut l0 = IdealAdapter::new(IdealKind::L0, 4);
        assert_eq!(l0.energy_j(100), 0.0);
    }

    #[test]
    fn fsoi_supports_optimizations() {
        let mut fsoi = FsoiAdapter::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1));
        assert!(fsoi.supports_confirmation_acks());
        fsoi.expect_data(3, 7);
        fsoi.clear_expected(3, 7);
        let d1 = fsoi.reserve_reply_slot(3, Cycle(100));
        let d2 = fsoi.reserve_reply_slot(3, Cycle(100));
        assert_eq!(d1, 0);
        assert!(d2 > 0, "second reservation of the same slot must shift");
        let mut mesh = MeshAdapter::new(MeshNetwork::new(MeshConfig::nodes(16)));
        assert!(!mesh.supports_confirmation_acks());
        assert_eq!(mesh.reserve_reply_slot(3, Cycle(100)), 0);
    }

    #[test]
    fn names() {
        assert_eq!(
            FsoiAdapter::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1)).name(),
            "fsoi"
        );
        assert_eq!(IdealAdapter::new(IdealKind::Lr2, 4).name(), "Lr2");
        assert_eq!(
            MeshAdapter::new(MeshNetwork::new(MeshConfig::nodes(16))).name(),
            "mesh"
        );
    }

    fn crossbar(nodes: usize) -> ChannelAdapter {
        ChannelAdapter::new(ChannelNetwork::new(CrossbarConfig::nodes(nodes)))
    }

    #[test]
    fn ring_adapter_delivers() {
        let mut net = ChannelAdapter::new(ChannelNetwork::new(RingConfig::nodes(64)));
        net.inject(NetPacket::new(0, 40, PacketClass::Data, 5))
            .unwrap();
        for _ in 0..50 {
            net.tick();
        }
        let out = net.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.tag, 5);
        assert!(net.is_idle());
        assert!(net.energy_j(1000) > 0.0);
        assert_eq!(net.name(), "ring");
    }

    #[test]
    fn crossbar_adapter_delivers() {
        let mut net = crossbar(64);
        net.inject(NetPacket::new(0, 40, PacketClass::Data, 5))
            .unwrap();
        for _ in 0..50 {
            net.tick();
        }
        let out = net.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.tag, 5);
        assert!(net.is_idle());
        assert!(net.energy_j(1000) > 0.0);
        assert_eq!(net.name(), "crossbar");
    }

    #[test]
    fn crossbar_scales_to_256_nodes() {
        let mut net = crossbar(256);
        net.inject(NetPacket::new(3, 255, PacketClass::Meta, 9))
            .unwrap();
        for _ in 0..50 {
            net.tick();
        }
        let out = net.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.dst, 255);
        // 256-port lasers are sized for ~48 dB more worst-case loss than
        // 64-port ones; the energy model must reflect that.
        let mut small = crossbar(64);
        assert!(net.energy_j(1000) > small.energy_j(1000) * 100.0);
    }
}
