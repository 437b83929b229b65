//! The interconnect abstraction the CMP system drives, implemented by the
//! networks themselves: the FSOI network, the electrical mesh, the
//! idealized L0/Lr1/Lr2 configurations, and the destination-channel
//! crossbars (Corona ring, matrix crossbar).
//!
//! Every network takes a [`NetPacket`] and hands back a [`NetDelivery`]
//! (both defined in `fsoi_sim::packet` and re-exported here). Coherence
//! messages are carried opaquely: the system registers each in-flight
//! message in a table and sends only its index as the packet `tag`;
//! deliveries hand the tag back.
//!
//! The trait has three groups: driving (`inject`, `tick`, `drain`, `now`,
//! `is_idle`, `next_event_at`, `advance_to`, `name`), the FSOI hooks the
//! §5 optimizations call (`expect_data`, `clear_expected`,
//! `reserve_reply_slot`, `supports_confirmation_acks`; no-ops elsewhere),
//! and one read-only [`Interconnect::report`]. Everything a run report
//! takes from the network comes out of that one call as a [`NetReport`]:
//! a new network quantity is a `NetReport` field plus its `RunReport`
//! row, not a trait method.

use fsoi_mesh::ideal::{IdealKind, IdealNetwork};
use fsoi_mesh::network::MeshNetwork;
use fsoi_mesh::power::MeshPowerModel;
use fsoi_net::network::FsoiNetwork;
use fsoi_net::packet::{Packet, PacketClass};
use fsoi_net::power::FsoiPowerModel;
use fsoi_net::topology::NodeId;
use fsoi_ring::network::{Arbitration, ChannelNetwork};
use fsoi_sim::stats::Summary;
use fsoi_sim::Cycle;

pub use fsoi_sim::packet::{NetDelivery, NetPacket};

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
/// [`RunReport`](crate::metrics::RunReport). Per-lane pairs are
/// `[meta, data]`; a quantity a network has no notion of stays 0.
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

impl Interconnect for FsoiNetwork {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        let p = Packet::new(
            NodeId(packet.src),
            NodeId(packet.dst),
            packet.class,
            packet.tag,
        )
        .with_scheduling_delay(packet.scheduling_delay);
        FsoiNetwork::inject(self, p).map(|_| ()).map_err(|_| packet)
    }

    fn tick(&mut self) {
        FsoiNetwork::tick(self);
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        self.drain_delivered()
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
        FsoiNetwork::now(self)
    }

    fn is_idle(&self) -> bool {
        FsoiNetwork::is_idle(self)
    }

    fn name(&self) -> &'static str {
        "fsoi"
    }

    fn report(&self, cycles: u64) -> NetReport {
        let s = self.stats();
        let cfg = self.config();
        // Per-lane means, weighted by each lane's delivered packets.
        let weight = |lane: usize| s.latency[lane].count() as f64;
        let total = weight(0) + weight(1);
        let mix = |m: &[Summary; 2]| (m[0].mean() * weight(0) + m[1].mean() * weight(1)) / total;
        let attribution = if total == 0.0 {
            LatencyAttribution::default()
        } else {
            LatencyAttribution {
                queuing: mix(&s.queuing),
                scheduling: mix(&s.scheduling),
                network: mix(&s.network),
                collision_resolution: mix(&s.resolution),
            }
        };
        let hint_share = |n: u64| {
            if s.hints_issued == 0 {
                0.0
            } else {
                n as f64 / s.hints_issued as f64
            }
        };
        let conf = self.confirmations_sent();
        NetReport {
            attribution,
            tx_probability: PacketClass::ALL.map(|class| {
                s.transmission_probability(class.lane(), cfg.nodes, self.slots_elapsed(class))
            }),
            collision_rate: [0, 1].map(|lane| s.collision_rate(lane)),
            data_resolution_delay: s.resolution_when_collided[1].mean(),
            hint_accuracy: hint_share(s.hints_correct),
            hint_wrong_rate: hint_share(s.hints_wrong),
            bit_error_drops: s.bit_error_drops[0] + s.bit_error_drops[1],
            energy_j: FsoiPowerModel::paper_default()
                .network_energy(s, &cfg.lanes, cfg.nodes, cycles, conf)
                .total_j(),
        }
    }

    fn next_event_at(&self) -> Option<Cycle> {
        Some(FsoiNetwork::next_event_at(self).unwrap_or(Cycle(u64::MAX)))
    }

    fn advance_to(&mut self, target: Cycle) {
        FsoiNetwork::advance_to(self, target);
    }

    fn expect_data(&mut self, dst: usize, src: usize) {
        FsoiNetwork::expect_data(self, NodeId(dst), NodeId(src));
    }

    fn clear_expected(&mut self, dst: usize, src: usize) {
        FsoiNetwork::clear_expected(self, NodeId(dst), NodeId(src));
    }

    fn reserve_reply_slot(&mut self, node: usize, predicted_arrival: Cycle) -> u64 {
        if !self.config().request_spacing {
            return 0;
        }
        let slot = self.data_slot_len();
        self.reservations_mut(NodeId(node))
            .reserve(predicted_arrival, slot)
            .request_delay
    }

    fn supports_confirmation_acks(&self) -> bool {
        true
    }
}

impl Interconnect for MeshNetwork {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        MeshNetwork::inject(self, packet)
    }

    fn tick(&mut self) {
        MeshNetwork::tick(self);
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        self.drain_delivered()
    }

    fn now(&self) -> Cycle {
        MeshNetwork::now(self)
    }

    fn is_idle(&self) -> bool {
        MeshNetwork::is_idle(self)
    }

    fn name(&self) -> &'static str {
        "mesh"
    }

    fn report(&self, cycles: u64) -> NetReport {
        let stats = self.stats();
        let routers = self.config().node_count();
        NetReport {
            attribution: LatencyAttribution {
                network: stats.latency.mean(),
                ..Default::default()
            },
            energy_j: MeshPowerModel::paper_default().energy_j(&stats, routers, cycles),
            ..Default::default()
        }
    }

    fn next_event_at(&self) -> Option<Cycle> {
        Some(MeshNetwork::next_event_at(self).unwrap_or(Cycle(u64::MAX)))
    }

    fn advance_to(&mut self, target: Cycle) {
        MeshNetwork::advance_to(self, target);
    }
}

impl Interconnect for IdealNetwork {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        IdealNetwork::inject(self, packet);
        Ok(())
    }

    fn tick(&mut self) {
        IdealNetwork::tick(self);
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        self.drain_delivered()
    }

    fn now(&self) -> Cycle {
        IdealNetwork::now(self)
    }

    fn is_idle(&self) -> bool {
        IdealNetwork::is_idle(self)
    }

    fn name(&self) -> &'static str {
        match self.kind() {
            IdealKind::L0 => "L0",
            IdealKind::Lr1 => "Lr1",
            IdealKind::Lr2 => "Lr2",
        }
    }

    fn report(&self, _cycles: u64) -> NetReport {
        NetReport {
            attribution: LatencyAttribution {
                network: self.latency().mean(),
                ..Default::default()
            },
            ..Default::default() // idealized: no energy model
        }
    }
}

/// The destination-channel crossbars: the Corona-style token ring (the
/// paper's §7.1 nanophotonic comparison point) and the worst-case-loss
/// matrix crossbar (the PAPERS.md comparative study's baseline for the
/// design-space grids), named by the engine's arbitration row.
impl Interconnect for ChannelNetwork {
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        ChannelNetwork::inject(self, packet)
    }

    fn tick(&mut self) {
        ChannelNetwork::tick(self);
    }

    fn drain(&mut self) -> Vec<NetDelivery> {
        self.drain_delivered()
    }

    fn now(&self) -> Cycle {
        ChannelNetwork::now(self)
    }

    fn is_idle(&self) -> bool {
        ChannelNetwork::is_idle(self)
    }

    fn name(&self) -> &'static str {
        match self.config().arbitration {
            Arbitration::Token { .. } => "ring",
            Arbitration::Port { .. } => "crossbar",
        }
    }

    fn report(&self, cycles: u64) -> NetReport {
        let stats = self.stats();
        NetReport {
            attribution: LatencyAttribution {
                queuing: stats.wait.mean(),
                network: stats.latency.mean() - stats.wait.mean(),
                ..Default::default()
            },
            // Dominated by always-on static power: ring tuning + modulators
            // on Corona, the worst-case-loss-sized per-port lasers (CW
            // sources behind modulators) plus receivers on the matrix.
            energy_j: self.static_power_w() * cycles as f64 / 3.3e9,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{NetworkKind, SystemConfig};
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

    /// One of every network at 16 nodes, through `build_network`.
    fn every_network() -> Vec<Box<dyn Interconnect>> {
        [
            NetworkKind::fsoi(16),
            NetworkKind::mesh(16),
            NetworkKind::MeshScaled(MeshConfig::nodes(16), 0.5),
            NetworkKind::L0,
            NetworkKind::Lr1,
            NetworkKind::Lr2,
            NetworkKind::ring(16),
            NetworkKind::crossbar(16),
        ]
        .into_iter()
        .map(|kind| SystemConfig::paper_16(kind).build_network())
        .collect()
    }

    #[test]
    fn every_network_delivers() {
        let mut nets = every_network();
        for net in &mut nets {
            let d = deliver_one(net.as_mut(), NetPacket::new(0, 9, PacketClass::Data, 42));
            assert_eq!(d.packet.dst, 9);
            assert_eq!(d.packet.tag, 42);
            assert!(d.latency > 0);
            assert!(net.is_idle());
        }
    }

    #[test]
    fn every_network_hands_back_the_packet_it_was_given() {
        // Every field survives the trip: the class of a meta packet that
        // a narrowed mesh carries as two flits, and the scheduling delay
        // no network but FSOI reads.
        for mut net in every_network() {
            for class in PacketClass::ALL {
                let sent = NetPacket {
                    scheduling_delay: 3,
                    ..NetPacket::new(2, 13, class, 77)
                };
                let got = deliver_one(net.as_mut(), sent).packet;
                assert_eq!(got, sent, "{} {class:?}", net.name());
            }
        }
    }

    #[test]
    fn latency_ordering_l0_fsoi_mesh() {
        let lat = |net: &mut dyn Interconnect| {
            deliver_one(net, NetPacket::new(0, 15, PacketClass::Data, 0)).latency
        };
        let mut l0 = IdealNetwork::new(IdealKind::L0, 4);
        let mut fsoi = FsoiNetwork::new(FsoiConfig::nodes(16), 1);
        let mut mesh = MeshNetwork::new(MeshConfig::nodes(16));
        let (a, b, c) = (lat(&mut l0), lat(&mut fsoi), lat(&mut mesh));
        assert!(a <= b, "L0 {a} <= FSOI {b}");
        assert!(b < c, "FSOI {b} < mesh {c}");
    }

    #[test]
    fn every_network_report_adds_up() {
        // Two destinations, each hit by four meta senders sharing one FSOI
        // receiver and three data senders sharing another: FSOI collides
        // on both lanes, and the lane means differ.
        let burst: Vec<NetPacket> = [15, 7]
            .into_iter()
            .flat_map(|dst| {
                let meta = [0, 2, 4, 6].map(|src| NetPacket::new(src, dst, PacketClass::Meta, 0));
                let data = [8, 10, 12].map(|src| NetPacket::new(src, dst, PacketClass::Data, 0));
                meta.into_iter().chain(data)
            })
            .collect();
        let kinds = [
            NetworkKind::fsoi(16),
            NetworkKind::mesh(16),
            NetworkKind::MeshScaled(MeshConfig::nodes(16), 0.5),
            NetworkKind::L0,
            NetworkKind::Lr1,
            NetworkKind::Lr2,
            NetworkKind::ring(16),
            NetworkKind::crossbar(16),
            NetworkKind::ring(64),
            NetworkKind::crossbar(64),
        ];
        for kind in kinds {
            let nodes = kind.nodes().unwrap_or(16);
            let mut net = SystemConfig::paper_n(nodes, kind).build_network();
            let name = net.name();
            for &p in &burst {
                net.inject(p).unwrap();
            }
            let mut latencies = Vec::new();
            while !net.is_idle() {
                assert!(net.now() < Cycle(100_000), "{name} must drain");
                net.tick();
                latencies.extend(net.drain().iter().map(|d| d.latency));
            }
            assert_eq!(latencies.len(), burst.len(), "{name}");
            let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
            let cycles = net.now().as_u64();
            let r = net.report(cycles);
            let total = r.attribution.total();
            assert!(
                (total - mean).abs() <= 1e-9 * mean,
                "{name}: attribution {total} vs mean latency {mean}"
            );
            assert_eq!(r, net.report(cycles), "{name}: a report is a read");
            let energy = [0, cycles, 10 * cycles].map(|c| net.report(c).energy_j);
            assert!(
                energy[0] <= energy[1] && energy[1] <= energy[2],
                "{name}: energy {energy:?} must not fall with cycles"
            );
            let ideal = matches!(name, "L0" | "Lr1" | "Lr2");
            assert_eq!(r.energy_j > 0.0, !ideal, "{name}: energy {}", r.energy_j);
            if name == "fsoi" {
                assert!(
                    r.collision_rate[0] > 0.0 && r.collision_rate[1] > 0.0,
                    "the burst collides on both lanes: {:?}",
                    r.collision_rate
                );
                // The data senders' superposed headers admit a phantom
                // sender, so some hint goes wrong; every hint is right or
                // wrong, so the two shares of the issued hints make 1.
                let (right, wrong) = (r.hint_accuracy, r.hint_wrong_rate);
                assert!(wrong > 0.0, "a phantom won a hint");
                assert!((right + wrong - 1.0).abs() < 1e-12, "{right} + {wrong}");
            } else {
                let fsoi_only = (
                    r.tx_probability,
                    r.collision_rate,
                    r.data_resolution_delay,
                    r.hint_accuracy,
                    r.hint_wrong_rate,
                    r.bit_error_drops,
                );
                assert_eq!(fsoi_only, ([0.0; 2], [0.0; 2], 0.0, 0.0, 0.0, 0), "{name}");
            }
            for lane in 0..2 {
                assert_eq!(
                    net.collision_rate(lane),
                    net.report(net.now().as_u64()).collision_rate[lane],
                    "{name}: lane {lane}"
                );
            }
        }
    }

    #[test]
    fn fsoi_supports_optimizations() {
        let mut fsoi: Box<dyn Interconnect> = Box::new(FsoiNetwork::new(FsoiConfig::nodes(16), 1));
        assert!(fsoi.supports_confirmation_acks());
        fsoi.expect_data(3, 7);
        fsoi.clear_expected(3, 7);
        let d1 = fsoi.reserve_reply_slot(3, Cycle(100));
        let d2 = fsoi.reserve_reply_slot(3, Cycle(100));
        assert_eq!(d1, 0);
        assert!(d2 > 0, "second reservation of the same slot must shift");
        let mut mesh = MeshNetwork::new(MeshConfig::nodes(16));
        assert!(!mesh.supports_confirmation_acks());
        assert_eq!(mesh.reserve_reply_slot(3, Cycle(100)), 0);
    }

    #[test]
    fn names() {
        assert_eq!(FsoiNetwork::new(FsoiConfig::nodes(16), 1).name(), "fsoi");
        assert_eq!(IdealNetwork::new(IdealKind::Lr2, 4).name(), "Lr2");
        assert_eq!(MeshNetwork::new(MeshConfig::nodes(16)).name(), "mesh");
    }

    fn crossbar(nodes: usize) -> ChannelNetwork {
        ChannelNetwork::new(CrossbarConfig::nodes(nodes))
    }

    #[test]
    fn ring_delivers() {
        let mut net = ChannelNetwork::new(RingConfig::nodes(64));
        net.inject(NetPacket::new(0, 40, PacketClass::Data, 5))
            .unwrap();
        for _ in 0..50 {
            net.tick();
        }
        let out = net.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.tag, 5);
        assert!(net.is_idle());
        assert!(net.report(1000).energy_j > 0.0);
        assert_eq!(net.name(), "ring");
    }

    #[test]
    fn crossbar_delivers() {
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
        assert!(net.report(1000).energy_j > 0.0);
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
        let small = crossbar(64);
        assert!(net.report(1000).energy_j > small.report(1000).energy_j * 100.0);
    }
}
