//! Property-based invariants of the network engines: whatever the
//! traffic, packets are conserved (delivered exactly once, never
//! fabricated), runs are deterministic in the seed, collision-free
//! traffic stays collision-free, and every delivery's latency splits into
//! its components. (On the in-repo `fsoi-check` harness.)

use fsoi::cmp::configs::{NetworkKind, SystemConfig};
use fsoi::cmp::metrics::LatencyFold;
use fsoi::mesh::config::MeshConfig;
use fsoi::mesh::network::MeshNetwork;
use fsoi::net::config::FsoiConfig;
use fsoi::net::network::FsoiNetwork;
use fsoi::net::packet::PacketClass;
use fsoi::sim::packet::{Interconnect, NetPacket};
use fsoi_check::{any_bool, checker, select, vec_of, Gen};
use std::collections::BTreeMap;

/// An arbitrary traffic script: (delay-before-inject, src, dst-offset,
/// is-data).
fn traffic_gen(max_events: usize) -> impl Gen<Value = Vec<(u8, u8, u8, bool)>> {
    vec_of((0u8..6, 0u8..16, 1u8..16, any_bool()), 1..max_events)
}

/// Drives the script cycle by cycle and returns `(src, dst, tag, delivery
/// cycle)` per delivery. A packet's tag is its place in the accepted
/// order; its delivery cycle is its injection cycle plus its latency,
/// which must be the cycle the tick that delivered it processed. Per
/// lane, the deliveries' components must sum to their latencies.
fn drive_fsoi(script: &[(u8, u8, u8, bool)], seed: u64) -> Vec<(usize, usize, u64, u64)> {
    let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), seed);
    let mut out = Vec::new();
    let mut injected_at = Vec::new();
    let mut it = script.iter();
    let mut next = it.next();
    let mut wait = 0u64;
    // Per lane: Σ latency, and Σ of the four components.
    let mut sums = [[0u64; 2]; 2];
    for _ in 0..200_000u64 {
        while let Some(&(delay, src, off, data)) = next {
            if wait < delay as u64 {
                wait += 1;
                break;
            }
            wait = 0;
            let dst = (src as usize + off as usize) % 16;
            let class = if data {
                PacketClass::Data
            } else {
                PacketClass::Meta
            };
            let tag = injected_at.len() as u64;
            if net
                .inject(NetPacket::new(src as usize, dst, class, tag))
                .is_ok()
            {
                injected_at.push(net.now().as_u64());
            }
            next = it.next();
        }
        net.tick();
        let now = net.now().as_u64();
        for d in net.drain() {
            let at = injected_at[d.packet.tag as usize] + d.latency;
            assert_eq!(at + 1, now, "tag {}", d.packet.tag);
            let lane = &mut sums[d.packet.class.lane()];
            lane[0] += d.latency;
            lane[1] += u64::from(d.queuing)
                + d.packet.scheduling_delay
                + d.network()
                + u64::from(d.resolution);
            out.push((d.packet.src, d.packet.dst, d.packet.tag, at));
        }
        if next.is_none() && net.is_idle() {
            break;
        }
    }
    assert!(net.is_idle(), "network must drain");
    for (lane, [total, parts]) in sums.iter().enumerate() {
        assert_eq!(total, parts, "lane {lane}: latency vs components");
    }
    out
}

/// Every accepted packet is delivered exactly once, to the right node,
/// whatever collisions happened along the way.
#[test]
fn fsoi_conserves_packets() {
    checker!().cases(48).check(
        "fsoi_conserves_packets",
        (traffic_gen(120), 0u64..1000),
        |(script, seed)| {
            let delivered = drive_fsoi(script, *seed);
            let mut seen = BTreeMap::new();
            for (_, _, tag, _) in &delivered {
                *seen.entry(*tag).or_insert(0u32) += 1;
            }
            assert!(seen.values().all(|&c| c == 1), "duplicate delivery");
            // Tags are assigned densely from 0, so conservation means the
            // set of tags is exactly 0..len.
            let mut tags: Vec<u64> = seen.keys().copied().collect();
            tags.sort_unstable();
            let expect: Vec<u64> = (0..delivered.len() as u64).collect();
            assert_eq!(tags, expect, "lost or fabricated packets");
        },
    );
}

/// Identical seeds replay identical runs.
#[test]
fn fsoi_is_deterministic() {
    checker!().cases(48).check(
        "fsoi_is_deterministic",
        (traffic_gen(60), 0u64..1000),
        |(script, seed)| {
            assert_eq!(drive_fsoi(script, *seed), drive_fsoi(script, *seed));
        },
    );
}

/// The mesh conserves packets too.
#[test]
fn mesh_conserves_packets() {
    checker!()
        .cases(48)
        .check("mesh_conserves_packets", traffic_gen(80), |script| {
            let mut net = MeshNetwork::new(MeshConfig::nodes(16));
            let mut injected = 0u64;
            for &(_, src, off, data) in script {
                let src = src as usize;
                let dst = (src + off as usize) % 16;
                let class = if data {
                    PacketClass::Data
                } else {
                    PacketClass::Meta
                };
                if net
                    .inject(NetPacket::new(src, dst, class, injected))
                    .is_ok()
                {
                    injected += 1;
                }
                net.tick();
            }
            let mut delivered: Vec<_> = net.drain().collect();
            for _ in 0..100_000 {
                net.tick();
                delivered.extend(net.drain());
                if net.is_idle() {
                    break;
                }
            }
            assert!(net.is_idle(), "mesh must drain");
            assert_eq!(delivered.len() as u64, injected);
            let mut tags: Vec<u64> = delivered.iter().map(|d| d.packet.tag).collect();
            tags.sort_unstable();
            assert_eq!(tags, (0..injected).collect::<Vec<_>>());
        });
}

/// Traffic with all-distinct destinations and one sender per receiver
/// group never collides.
#[test]
fn partitioned_traffic_is_collision_free() {
    checker!().cases(48).check(
        "partitioned_traffic_is_collision_free",
        (any_bool(), 0u64..100),
        |&(data, seed)| {
            let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), seed);
            let class = if data {
                PacketClass::Data
            } else {
                PacketClass::Meta
            };
            for src in 0..8usize {
                net.inject(NetPacket::new(src, src + 8, class, src as u64))
                    .unwrap();
            }
            for _ in 0..100 {
                net.tick();
            }
            assert!(net.is_idle());
            assert_eq!(net.stats().collision_events, [0, 0]);
            assert_eq!(net.stats().delivered[class.lane()], 8);
        },
    );
}

/// Heavier non-proptest soak: a sustained all-to-all burst storm drains
/// and conserves packets under both back-off regimes.
#[test]
fn fsoi_survives_burst_storms() {
    for seed in [1u64, 2, 3] {
        let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), seed);
        let mut injected = 0u64;
        // Three waves of all-to-one traffic at different targets.
        for (wave, target) in [0usize, 7, 13].into_iter().enumerate() {
            for src in 0..16usize {
                if src == target {
                    continue;
                }
                if net
                    .inject(NetPacket::new(
                        src,
                        target,
                        PacketClass::Meta,
                        (wave * 100 + src) as u64,
                    ))
                    .is_ok()
                {
                    injected += 1;
                }
            }
            for _ in 0..500 {
                net.tick();
            }
        }
        let mut delivered = net.drain().len() as u64;
        for _ in 0..30_000 {
            net.tick();
            delivered += net.drain().len() as u64;
            if net.is_idle() {
                break;
            }
        }
        assert!(net.is_idle(), "storm must drain (seed {seed})");
        assert_eq!(delivered, injected, "conservation under storms");
        assert!(net.stats().collision_events[0] > 0, "storms collide");
    }
}

/// Every network's deliveries carry their own latency components, and the
/// one fold over them adds up. For a random burst on each of the eight
/// networks `build_network` makes, at 16 or 64 nodes:
/// * queuing, scheduling delay and resolution fit inside the latency;
/// * only FSOI resolves collisions, and the mesh and the ideal networks
///   split no component out at all;
/// * FSOI's network time is its lane's serialization plus the phase-array
///   setup — every other cycle is queuing, scheduling or resolution;
/// * the fold's total is Σ latency / deliveries, bit for bit, and its data
///   resolution delay is the mean over the data packets that collided.
///
/// A burst step is `(gap, src, dst offset, (is data, scheduling delay))`;
/// only FSOI spaces requests, so only its packets carry a delay.
#[test]
fn every_delivery_decomposes() {
    let step = (0u8..4, 0usize..1024, 0usize..1024, (any_bool(), 0u64..6));
    checker!().check(
        "every_delivery_decomposes",
        (select(&[16usize, 64]), 0usize..8, vec_of(step, 1..96)),
        |(nodes, which, burst)| {
            let nodes = *nodes;
            let fsoi = FsoiConfig::nodes(nodes);
            let kind = match which {
                0 => NetworkKind::Fsoi(fsoi.clone()),
                1 => NetworkKind::mesh(nodes),
                2 => NetworkKind::MeshScaled(MeshConfig::nodes(nodes), 0.5),
                3 => NetworkKind::L0,
                4 => NetworkKind::Lr1,
                5 => NetworkKind::Lr2,
                6 => NetworkKind::ring(nodes),
                _ => NetworkKind::crossbar(nodes),
            };
            let mut net = SystemConfig::paper_n(nodes, kind).build_network();
            let name = net.name();
            let mut delivered: Vec<_> = net.drain().collect();
            let mut injected = 0;
            for &(gap, src, off, (data, delay)) in burst {
                for _ in 0..gap {
                    net.tick();
                    delivered.extend(net.drain());
                }
                let src = src % nodes;
                let dst = (src + 1 + off % (nodes - 1)) % nodes;
                let class = if data {
                    PacketClass::Data
                } else {
                    PacketClass::Meta
                };
                let packet = NetPacket {
                    scheduling_delay: if name == "fsoi" { delay } else { 0 },
                    ..NetPacket::new(src, dst, class, injected)
                };
                if net.inject(packet).is_ok() {
                    injected += 1;
                }
            }
            while !net.is_idle() {
                assert!(net.now().as_u64() < 1_000_000, "{name} must drain");
                net.tick();
                delivered.extend(net.drain());
            }
            assert_eq!(delivered.len() as u64, injected, "{name}");

            let mut fold = LatencyFold::default();
            let (mut latency, mut collided, mut resolution) = (0u64, 0u64, 0u64);
            for d in &delivered {
                let (queuing, resolved) = (u64::from(d.queuing), u64::from(d.resolution));
                assert!(
                    queuing + d.packet.scheduling_delay + resolved <= d.latency,
                    "{name}: {d:?}"
                );
                match name {
                    "fsoi" => {
                        let wire = fsoi.lanes.serialization_cycles(d.packet.class)
                            + fsoi.phase_array_setup();
                        assert_eq!(d.network(), wire, "{name}: {d:?}");
                    }
                    "ring" | "crossbar" => assert_eq!(resolved, 0, "{name}: {d:?}"),
                    _ => assert_eq!((queuing, resolved), (0, 0), "{name}: {d:?}"),
                }
                latency += d.latency;
                if d.packet.class == PacketClass::Data && d.retries > 0 {
                    collided += 1;
                    resolution += resolved;
                }
                fold.add(d);
            }
            let mean = latency as f64 / delivered.len() as f64;
            assert_eq!(fold.total().to_bits(), mean.to_bits(), "{name}");
            let data_resolution = if collided == 0 {
                0.0
            } else {
                resolution as f64 / collided as f64
            };
            assert_eq!(fold.data_resolution_delay(), data_resolution, "{name}");
        },
    );
}
