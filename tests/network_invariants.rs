//! Property-based invariants of the two network engines: whatever the
//! traffic, packets are conserved (delivered exactly once, never
//! fabricated), runs are deterministic in the seed, and collision-free
//! traffic stays collision-free. (On the in-repo `fsoi-check` harness.)

use fsoi::mesh::config::MeshConfig;
use fsoi::mesh::network::MeshNetwork;
use fsoi::net::config::FsoiConfig;
use fsoi::net::network::FsoiNetwork;
use fsoi::net::packet::{Packet, PacketClass};
use fsoi::net::topology::NodeId;
use fsoi::sim::packet::NetPacket;
use fsoi_check::{any_bool, checker, vec_of, Gen};
use std::collections::BTreeMap;

/// An arbitrary traffic script: (delay-before-inject, src, dst-offset,
/// is-data).
fn traffic_gen(max_events: usize) -> impl Gen<Value = Vec<(u8, u8, u8, bool)>> {
    vec_of((0u8..6, 0u8..16, 1u8..16, any_bool()), 1..max_events)
}

fn drive_fsoi(script: &[(u8, u8, u8, bool)], seed: u64) -> Vec<(usize, usize, u64, u64)> {
    let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), seed);
    let mut out = Vec::new();
    let mut injected = 0u64;
    let mut it = script.iter();
    let mut next = it.next();
    let mut wait = 0u64;
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
            if net
                .inject(Packet::new(
                    NodeId(src as usize),
                    NodeId(dst),
                    class,
                    injected,
                ))
                .is_ok()
            {
                injected += 1;
            }
            next = it.next();
        }
        net.tick();
        for d in net.drain_delivered() {
            out.push((
                d.packet.src.0,
                d.packet.dst.0,
                d.packet.tag,
                d.delivered_at.as_u64(),
            ));
        }
        if next.is_none() && net.is_idle() {
            break;
        }
    }
    assert!(net.is_idle(), "network must drain");
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
            let mut delivered = net.drain_delivered();
            for _ in 0..100_000 {
                net.tick();
                delivered.extend(net.drain_delivered());
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
                net.inject(Packet::new(NodeId(src), NodeId(src + 8), class, src as u64))
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
                    .inject(Packet::new(
                        NodeId(src),
                        NodeId(target),
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
        let mut delivered = net.drain_delivered().len() as u64;
        for _ in 0..30_000 {
            net.tick();
            delivered += net.drain_delivered().len() as u64;
            if net.is_idle() {
                break;
            }
        }
        assert!(net.is_idle(), "storm must drain (seed {seed})");
        assert_eq!(delivered, injected, "conservation under storms");
        assert!(net.stats().collision_events[0] > 0, "storms collide");
    }
}
