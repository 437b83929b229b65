//! Property tests for the destination-channel crossbar engine under both
//! arbitration rows — the Corona-style token ring and the matrix crossbar
//! — at any node count from 2 to 256 (on the in-repo `fsoi-check`
//! harness).
//!
//! [`ScanChannel`] below is the slow reference: the same engine, but every
//! tick it tests every channel for a waiting writer, and it is idle when
//! every queue is empty — no backlogged set. `ChannelNetwork` must be
//! indistinguishable from it.

use fsoi_check::{any_bool, checker, select, vec_of, Gen};
use fsoi_ring::network::{Arbitration, ChannelConfig, ChannelNetwork};
use fsoi_sim::event::EventQueue;
use fsoi_sim::packet::{Interconnect, NetDelivery, NetPacket, PacketClass};
use fsoi_sim::Cycle;
use std::collections::VecDeque;

/// A data packet if `data`, else a meta packet.
fn packet(src: usize, dst: usize, data: bool, tag: u64) -> NetPacket {
    let class = if data {
        PacketClass::Data
    } else {
        PacketClass::Meta
    };
    NetPacket::new(src, dst, class, tag)
}

/// Node counts on each side of the mask's word boundaries, drawn half the
/// time; the other half is uniform over `2..=256`.
const EDGES: [usize; 6] = [63, 64, 65, 128, 255, 256];

/// A ring (`false`) or matrix crossbar (`true`) configuration at a node
/// count in `2..=256`.
fn config() -> impl Gen<Value = ChannelConfig> {
    (any_bool(), (any_bool(), select(&EDGES), 2usize..=256)).gen_map(
        |&(crossbar, (edge, at_edge, uniform))| {
            let nodes = if edge { at_edge } else { uniform };
            if crossbar {
                ChannelConfig::crossbar(nodes)
            } else {
                ChannelConfig::ring(nodes)
            }
        },
    )
}

/// The node a raw draw `src` names at `nodes` nodes, and the destination
/// `(src + off) % nodes` with `off = 1 + raw % (nodes - 1)` drawn from a
/// second raw draw: never `src`.
fn route(nodes: usize, src: usize, off: usize) -> (usize, usize) {
    let src = src % nodes;
    (src, (src + 1 + off % (nodes - 1)) % nodes)
}

/// Every accepted packet is delivered exactly once.
#[test]
fn ring_conserves_packets() {
    checker!().check(
        "ring_conserves_packets",
        (
            config(),
            vec_of((0usize..256, 0usize..256, any_bool()), 1..150),
        ),
        |(cfg, script)| {
            let mut net = ChannelNetwork::new(*cfg);
            let mut accepted = 0u64;
            for &(src, off, data) in script {
                let (src, dst) = route(cfg.nodes, src, off);
                if net.inject(packet(src, dst, data, accepted)).is_ok() {
                    accepted += 1;
                }
                net.tick();
            }
            let mut delivered: Vec<u64> = net.drain().map(|d| d.packet.tag).collect();
            for _ in 0..50_000 {
                net.tick();
                delivered.extend(net.drain().map(|d| d.packet.tag));
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
        (config(), 0usize..256, vec_of(0usize..256, 2..20)),
        |(cfg, home, writers)| {
            let mut net = ChannelNetwork::new(*cfg);
            let home = home % cfg.nodes;
            let mut wanted = 0;
            for (i, &off) in writers.iter().enumerate() {
                let (_, writer) = route(cfg.nodes, home, off);
                if net.inject(packet(writer, home, true, i as u64)).is_ok() {
                    wanted += 1;
                }
            }
            let mut out = Vec::new();
            for _ in 0..100_000 {
                net.tick();
                out.extend(net.drain());
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
            // a time holds the channel). All were injected at cycle 0, so a
            // latency is a delivery time.
            let times: Vec<u64> = out.iter().map(|d| d.latency).collect();
            for w in times.windows(2) {
                assert!(w[1] >= w[0] + 3, "data serialization is 3 cycles: {w:?}");
            }
        },
    );
}

/// Latency is bounded below by the physical floor: idle token wait (half
/// a loop) + serialization + half-loop flight on the ring, arbitration +
/// serialization + traversal on the matrix.
#[test]
fn latency_floor() {
    checker!().check(
        "latency_floor",
        (config(), 0usize..256, 0usize..256, any_bool()),
        |&(cfg, src, off, data)| {
            let mut net = ChannelNetwork::new(cfg);
            let (src, dst) = route(cfg.nodes, src, off);
            net.inject(packet(src, dst, data, 0)).unwrap();
            let mut out = Vec::new();
            for _ in 0..200 {
                net.tick();
                out.extend(net.drain());
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
                    circulation_cycles, ..
                } => circulation_cycles / 2 + ser + circulation_cycles / 2,
                Arbitration::Port {
                    arbitration_cycles,
                    traversal_cycles,
                } => arbitration_cycles + ser + traversal_cycles,
            };
            assert_eq!(out[0].latency, floor);
        },
    );
}

/// One destination channel of the reference.
struct ScanLane {
    free_at: Cycle,
    last_release: Option<Cycle>,
    queue: VecDeque<(NetPacket, Cycle)>,
}

/// The engine as a full scan: every tick tests every channel's queue.
struct ScanChannel {
    cfg: ChannelConfig,
    now: Cycle,
    lanes: Vec<ScanLane>,
    deliveries: EventQueue<(NetPacket, Cycle, u32)>,
    delivered: Vec<NetDelivery>,
}

impl ScanChannel {
    fn new(cfg: ChannelConfig) -> Self {
        ScanChannel {
            cfg,
            now: Cycle::ZERO,
            lanes: (0..cfg.nodes)
                .map(|_| ScanLane {
                    free_at: Cycle::ZERO,
                    last_release: None,
                    queue: VecDeque::new(),
                })
                .collect(),
            deliveries: EventQueue::new(),
            delivered: Vec::new(),
        }
    }

    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        let queue = &mut self.lanes[packet.dst].queue;
        if queue.len() == self.cfg.injection_queue {
            return Err(packet);
        }
        queue.push_back((packet, self.now));
        Ok(())
    }

    fn tick(&mut self) {
        let flight = match self.cfg.arbitration {
            Arbitration::Token {
                circulation_cycles, ..
            } => circulation_cycles / 2,
            Arbitration::Port {
                traversal_cycles, ..
            } => traversal_cycles,
        };
        let now = self.now;
        for lane in &mut self.lanes {
            while !lane.queue.is_empty() && lane.free_at <= now {
                let Some((packet, enqueued_at)) = lane.queue.pop_front() else {
                    break;
                };
                let (start, wait) = match self.cfg.arbitration {
                    Arbitration::Token {
                        circulation_cycles,
                        pass_cycles,
                    } => {
                        let hot = lane
                            .last_release
                            .is_some_and(|rel| now.saturating_sub(rel) < circulation_cycles);
                        let idle_wait = circulation_cycles / 2;
                        let acquisition = if hot { pass_cycles } else { idle_wait };
                        (now + acquisition, acquisition)
                    }
                    Arbitration::Port {
                        arbitration_cycles, ..
                    } => {
                        let start = now + arbitration_cycles;
                        (start, start.saturating_sub(enqueued_at))
                    }
                };
                let done = start
                    + match packet.class {
                        PacketClass::Meta => self.cfg.meta_serialization,
                        PacketClass::Data => self.cfg.data_serialization,
                    };
                lane.free_at = done;
                lane.last_release = Some(done);
                let queuing = NetDelivery::narrow(wait);
                self.deliveries
                    .push(done + flight, (packet, enqueued_at, queuing));
            }
        }
        self.now += 1;
        while let Some((at, (packet, enqueued_at, queuing))) = self.deliveries.pop_due(self.now) {
            self.delivered.push(NetDelivery {
                packet,
                latency: at - enqueued_at,
                retries: 0,
                queuing,
                resolution: 0,
            });
        }
    }

    fn drain(&mut self) -> std::vec::Drain<'_, NetDelivery> {
        self.delivered.drain(..)
    }

    fn is_idle(&self) -> bool {
        self.deliveries.is_empty() && self.lanes.iter().all(|l| l.queue.is_empty())
    }
}

/// The engine and its reference, driven in lockstep and compared after
/// every call.
struct Lockstep {
    fast: ChannelNetwork,
    scan: ScanChannel,
    tag: u64,
}

impl Lockstep {
    fn inject(&mut self, src: usize, dst: usize, data: bool) {
        let p = packet(src, dst, data, self.tag);
        self.tag += 1;
        let (fast, scan) = (self.fast.inject(p), self.scan.inject(p));
        assert_eq!(fast, scan, "inject {src} -> {dst} at {:?}", self.fast.now());
    }

    fn tick(&mut self) {
        self.fast.tick();
        self.scan.tick();
        let now = self.fast.now();
        let (fast, scan) = (self.fast.drain(), self.scan.drain());
        assert_eq!(fast.len(), scan.len(), "deliveries at {now:?}");
        for (i, (fast, scan)) in fast.zip(scan).enumerate() {
            assert_eq!(fast, scan, "delivery {i} at {now:?}");
        }
        assert_eq!(self.fast.is_idle(), self.scan.is_idle(), "idle at {now:?}");
    }
}

/// The backlogged-set tick is the full scan: every inject accepted or
/// refused alike, the same deliveries in the same order after every tick,
/// the same idleness — for both arbitration rows at
/// any node count, under single packets, bursts that overfill one
/// destination's queue, and idle gaps long enough for a token to go cold.
#[test]
fn backlogged_equals_full_scan() {
    // (op, a, b, data): ops 0..=2 inject one packet, 3 bursts at one
    // destination, 4..=5 tick once, 6 idles for `a % 24` cycles.
    let op = (0u8..7, 0usize..256, 0usize..256, any_bool());
    checker!().check(
        "backlogged_equals_full_scan",
        (config(), vec_of(op, 1..200)),
        |(cfg, script)| {
            let n = cfg.nodes;
            let mut net = Lockstep {
                fast: ChannelNetwork::new(*cfg),
                scan: ScanChannel::new(*cfg),
                tag: 0,
            };
            for &(op, a, b, data) in script {
                match op {
                    0..=2 => {
                        let (src, dst) = route(n, a, b);
                        net.inject(src, dst, data);
                    }
                    3 => {
                        for k in 0..cfg.injection_queue + 2 {
                            let (dst, src) = route(n, a, b + k);
                            net.inject(src, dst, data);
                        }
                    }
                    4 | 5 => net.tick(),
                    _ => (0..a % 24).for_each(|_| net.tick()),
                }
            }
            for _ in 0..100_000 {
                if net.fast.is_idle() {
                    break;
                }
                net.tick();
            }
            assert!(net.scan.is_idle(), "the traffic must drain");
        },
    );
}
