//! The interconnect abstraction the CMP system drives: the FSOI network,
//! the electrical mesh, the idealized L0/Lr1/Lr2 configurations, and the
//! destination-channel crossbars (Corona ring, matrix crossbar).
//!
//! The trait and its packet, delivery and report types live in
//! `fsoi_sim::packet`, below every network crate, and each network
//! implements [`Interconnect`] in its own crate. They are re-exported here
//! under the path the CMP layer and the benchmark import. Coherence
//! messages are carried opaquely: the system registers each in-flight
//! message in a table and sends only its index as the packet `tag`;
//! deliveries hand the tag back.

pub use fsoi_sim::packet::{Interconnect, NetDelivery, NetPacket, NetReport};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{NetworkKind, SystemConfig};
    use fsoi_mesh::config::MeshConfig;
    use fsoi_mesh::ideal::{IdealKind, IdealNetwork};
    use fsoi_mesh::network::MeshNetwork;
    use fsoi_net::config::FsoiConfig;
    use fsoi_net::network::FsoiNetwork;
    use fsoi_net::packet::PacketClass;
    use fsoi_ring::network::{ChannelConfig, ChannelNetwork};
    use fsoi_sim::Cycle;

    fn deliver_one(net: &mut dyn Interconnect, p: NetPacket) -> NetDelivery {
        net.inject(p).unwrap();
        for _ in 0..2_000 {
            net.tick();
            if let Some(d) = net.drain().next() {
                return d;
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
    fn every_network_keeps_the_drain_contract() {
        // A meta and a data packet from every node to its neighbour, all
        // injected at cycle 0: every network delivers several in one cycle.
        let burst: Vec<NetPacket> = (0..16)
            .flat_map(|src| {
                PacketClass::ALL.map(|class| {
                    NetPacket::new(src, (src + 1) % 16, class, (2 * src + class.lane()) as u64)
                })
            })
            .collect();
        let loaded = || {
            every_network().into_iter().map(|mut net| {
                for &p in &burst {
                    net.inject(p).unwrap();
                }
                net
            })
        };
        // Three copies of each network see the same traffic: one drained
        // every cycle, one every seventh cycle, one whose drain is dropped
        // after half its items.
        for ((mut each, mut sparse), mut halved) in loaded().zip(loaded()).zip(loaded()) {
            let name = each.name();
            let (mut stream, mut batched) = (Vec::new(), Vec::new());
            let mut widest = 0;
            for cycle in 1u64.. {
                assert!(cycle < 10_000, "{name} must drain");
                for net in [&mut each, &mut sparse, &mut halved] {
                    net.tick();
                }
                let batch: Vec<NetDelivery> = each.drain().collect();
                assert_eq!(each.drain().len(), 0, "{name}: a second drain is empty");
                widest = widest.max(batch.len());
                let mut half = halved.drain();
                assert_eq!(half.len(), batch.len(), "{name}: cycle {cycle}");
                let read = batch.len().div_ceil(2);
                let first = half.by_ref().take(read);
                assert!(
                    first.eq(batch[..read].iter().copied()),
                    "{name}: cycle {cycle}"
                );
                drop(half);
                assert_eq!(
                    halved.drain().len(),
                    0,
                    "{name}: dropping discards the rest"
                );
                if cycle % 7 == 0 {
                    batched.extend(sparse.drain());
                }
                stream.extend(batch);
                if each.is_idle() {
                    break;
                }
            }
            batched.extend(sparse.drain());
            assert_eq!(stream.len(), burst.len(), "{name}");
            assert!(widest >= 2, "{name}: one cycle delivers several");
            // Everything left at cycle 0, so a delivery's latency is its
            // arrival cycle: the stream is in delivery order, and draining
            // less often only cuts it in other places.
            assert!(stream.is_sorted_by_key(|d| d.latency), "{name}");
            assert_eq!(batched, stream, "{name}: drained every seventh cycle");
        }
    }

    #[test]
    fn every_network_rejects_an_out_of_range_destination() {
        // The panic contract of `Interconnect::inject`, on every network
        // `build_network` makes, at the first id past the end of 16 nodes.
        for mut net in every_network() {
            let name = net.name();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.inject(NetPacket::new(0, 16, PacketClass::Meta, 0))
            }));
            assert!(outcome.is_err(), "{name} accepted dst == nodes");
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
        // on both lanes.
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
            let mut delivered = 0;
            while !net.is_idle() {
                assert!(net.now() < Cycle(100_000), "{name} must drain");
                net.tick();
                delivered += net.drain().len();
            }
            assert_eq!(delivered, burst.len(), "{name}");
            let cycles = net.now().as_u64();
            let r = net.report(cycles);
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
                    r.hint_accuracy,
                    r.hint_wrong_rate,
                    r.bit_error_drops,
                );
                assert_eq!(fsoi_only, ([0.0; 2], [0.0; 2], 0.0, 0.0, 0), "{name}");
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
        let unspaced = FsoiConfig::nodes(16).with_request_spacing(false);
        let mut unspaced = FsoiNetwork::new(unspaced, 1);
        for _ in 0..2 {
            assert_eq!(unspaced.reserve_reply_slot(3, Cycle(100)), 0, "spacing off");
        }
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
        ChannelNetwork::new(ChannelConfig::crossbar(nodes))
    }

    #[test]
    fn ring_delivers() {
        let mut net = ChannelNetwork::new(ChannelConfig::ring(64));
        net.inject(NetPacket::new(0, 40, PacketClass::Data, 5))
            .unwrap();
        for _ in 0..50 {
            net.tick();
        }
        let out: Vec<_> = net.drain().collect();
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
        let out: Vec<_> = net.drain().collect();
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
        let out: Vec<_> = net.drain().collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.dst, 255);
        // 256-port lasers are sized for ~48 dB more worst-case loss than
        // 64-port ones; the energy model must reflect that.
        let small = crossbar(64);
        assert!(net.report(1000).energy_j > small.report(1000).energy_j * 100.0);
    }
}
