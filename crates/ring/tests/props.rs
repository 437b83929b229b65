//! Property tests for the destination-channel crossbar engine under both
//! arbitration rows — the Corona-style token ring and the matrix crossbar
//! (on the in-repo `fsoi-check` harness).

use fsoi_check::{any_bool, checker, select, vec_of};
use fsoi_ring::config::RingConfig;
use fsoi_ring::crossbar::CrossbarConfig;
use fsoi_ring::network::{Arbitration, ChannelConfig, ChannelNetwork, RingPacket};

/// The two arbitration rows, at 16 nodes.
fn rows() -> [ChannelConfig; 2] {
    [
        RingConfig::nodes(16).into(),
        CrossbarConfig::nodes(16).into(),
    ]
}

/// Every accepted packet is delivered exactly once.
#[test]
fn ring_conserves_packets() {
    checker!().check(
        "ring_conserves_packets",
        (
            select(&rows()),
            vec_of((0usize..16, 1usize..16, any_bool()), 1..150),
        ),
        |(cfg, script)| {
            let mut net = ChannelNetwork::new(*cfg);
            let mut accepted = 0u64;
            for &(src, off, data) in script {
                let dst = (src + off) % 16;
                let pkt = if data {
                    RingPacket::data(src, dst, accepted)
                } else {
                    RingPacket::meta(src, dst, accepted)
                };
                if net.inject(pkt).is_ok() {
                    accepted += 1;
                }
                net.tick();
            }
            let mut delivered: Vec<u64> =
                net.drain_delivered().iter().map(|d| d.packet.tag).collect();
            for _ in 0..50_000 {
                net.tick();
                delivered.extend(net.drain_delivered().iter().map(|d| d.packet.tag));
                if net.is_idle() {
                    break;
                }
            }
            assert!(net.is_idle(), "ring must drain");
            delivered.sort_unstable();
            assert_eq!(delivered, (0..accepted).collect::<Vec<_>>());
        },
    );
}

/// Per destination channel, packets deliver in injection order (the
/// channel serves its writer queue FIFO) and never overlap in channel
/// time.
#[test]
fn home_channels_serialize_fifo() {
    checker!().check(
        "home_channels_serialize_fifo",
        (select(&rows()), vec_of(1usize..16, 2..20)),
        |(cfg, writers)| {
            let mut net = ChannelNetwork::new(*cfg);
            let mut wanted = 0;
            for (i, &w) in writers.iter().enumerate() {
                if net.inject(RingPacket::data(w, 0, i as u64)).is_ok() {
                    wanted += 1;
                }
            }
            let mut out = Vec::new();
            for _ in 0..100_000 {
                net.tick();
                out.extend(net.drain_delivered());
                if net.is_idle() {
                    break;
                }
            }
            assert_eq!(out.len(), wanted);
            // FIFO order of tags.
            let tags: Vec<u64> = out.iter().map(|d| d.packet.tag).collect();
            let mut sorted = tags.clone();
            sorted.sort_unstable();
            assert_eq!(&tags, &sorted, "home channel is FIFO");
            // Deliveries are at least a serialization apart (one writer at
            // a time holds the channel).
            let times: Vec<u64> = out.iter().map(|d| d.delivered_at.as_u64()).collect();
            for w in times.windows(2) {
                assert!(w[1] >= w[0] + 3, "data serialization is 3 cycles: {w:?}");
            }
        },
    );
}

/// Latency is bounded below by the physical floor: idle token wait +
/// serialization + half-loop flight on the ring, arbitration +
/// serialization + traversal on the matrix.
#[test]
fn latency_floor() {
    checker!().check(
        "latency_floor",
        (select(&rows()), 0usize..16, 1usize..16, any_bool()),
        |&(cfg, src, off, data)| {
            let mut net = ChannelNetwork::new(cfg);
            let dst = (src + off) % 16;
            let pkt = if data {
                RingPacket::data(src, dst, 0)
            } else {
                RingPacket::meta(src, dst, 0)
            };
            net.inject(pkt).unwrap();
            let mut out = Vec::new();
            for _ in 0..200 {
                net.tick();
                out.extend(net.drain_delivered());
                if !out.is_empty() {
                    break;
                }
            }
            let ser = if data {
                cfg.data_serialization
            } else {
                cfg.meta_serialization
            };
            let floor = match cfg.arbitration {
                Arbitration::Token {
                    circulation_cycles,
                    idle_wait_cycles,
                    ..
                } => idle_wait_cycles + ser + circulation_cycles / 2,
                Arbitration::Port {
                    arbitration_cycles,
                    traversal_cycles,
                } => arbitration_cycles + ser + traversal_cycles,
            };
            assert_eq!(out[0].latency(), floor);
        },
    );
}
