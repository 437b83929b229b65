//! The destination-channel crossbar engine.
//!
//! The Corona-style token ring and the worst-case-loss matrix crossbar are
//! the same machine — every destination owns one channel, writers queue
//! for it FIFO, and it carries one packet at a time (no collisions, no
//! concurrent receivers) — and differ only in how a channel is won and how
//! long the light then flies: the [`Arbitration`] row.

use fsoi_sim::event::EventQueue;
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::stats::Summary;
use fsoi_sim::Cycle;

/// A packet on a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingPacket {
    /// Unique id assigned at injection.
    pub id: u64,
    /// Source node.
    pub src: usize,
    /// Destination node (owner of the channel used).
    pub dst: usize,
    /// True for 360-bit data packets, false for 72-bit meta.
    pub is_data: bool,
    /// Opaque client tag.
    pub tag: u64,
    /// Injection time.
    pub enqueued_at: Cycle,
}

impl RingPacket {
    /// A meta packet.
    pub fn meta(src: usize, dst: usize, tag: u64) -> Self {
        RingPacket {
            id: 0,
            src,
            dst,
            is_data: false,
            tag,
            enqueued_at: Cycle::ZERO,
        }
    }

    /// A data packet.
    pub fn data(src: usize, dst: usize, tag: u64) -> Self {
        RingPacket {
            id: 0,
            src,
            dst,
            is_data: true,
            tag,
            enqueued_at: Cycle::ZERO,
        }
    }
}

/// A delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDelivered {
    /// The packet.
    pub packet: RingPacket,
    /// Delivery time at the destination.
    pub delivered_at: Cycle,
}

impl RingDelivered {
    /// End-to-end latency.
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.packet.enqueued_at
    }
}

/// How a destination channel is won and how long the light then flies —
/// the one thing the two crossbars differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Corona: a writer acquires the channel's circulating optical token.
    /// A token released less than a circulation ago is hot and passes
    /// writer-to-writer in `pass_cycles`; a cold one must come around in
    /// `idle_wait_cycles`. The reader sits somewhere on the loop: flight
    /// is half a circulation on average. The wait statistic is the
    /// acquisition.
    Token {
        /// Cycles for light (and the token) to circulate the full loop.
        circulation_cycles: u64,
        /// Cycles to pass a hot token between contending writers.
        pass_cycles: u64,
        /// Mean wait for the token of an idle channel.
        idle_wait_cycles: u64,
    },
    /// Matrix crossbar: dedicated passive paths, so only the (electrical)
    /// output-port arbiter stands before a launch and flight is the
    /// worst-case matrix path. The wait statistic is launch − enqueue.
    Port {
        /// Cycles of output-port arbitration before a packet launches.
        arbitration_cycles: u64,
        /// Flight time over the worst-case matrix path, cycles.
        traversal_cycles: u64,
    },
}

impl Arbitration {
    /// Cycles from the end of serialization to delivery.
    fn flight_cycles(self) -> u64 {
        match self {
            Arbitration::Token {
                circulation_cycles, ..
            } => circulation_cycles / 2,
            Arbitration::Port {
                traversal_cycles, ..
            } => traversal_cycles,
        }
    }
}

/// Configuration of a [`ChannelNetwork`]: the shape both crossbars share
/// plus an [`Arbitration`] row. Built from a
/// [`RingConfig`](crate::config::RingConfig) or a
/// [`CrossbarConfig`](crate::crossbar::CrossbarConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Number of nodes (= number of destination channels).
    pub nodes: usize,
    /// Serialization cycles of a 72-bit meta packet.
    pub meta_serialization: u64,
    /// Serialization cycles of a 360-bit data packet.
    pub data_serialization: u64,
    /// Per-channel writer queue capacity, packets.
    pub injection_queue: usize,
    /// Static power per channel, watts.
    pub channel_static_w: f64,
    /// How a channel is won, and the flight time.
    pub arbitration: Arbitration,
}

/// Per-destination channel: one writer at a time.
#[derive(Debug)]
struct Channel {
    /// The channel is granted to writers serially; this is when it frees
    /// up next.
    free_at: Cycle,
    /// When the previous grant ended (`None` before the first): a
    /// recently released token is hot.
    last_release: Option<Cycle>,
    /// Waiting writers, FIFO (the token visits writers in ring order, the
    /// port arbiter grants in request order; FIFO is the fair-service
    /// approximation of both).
    queue: BoundedQueue<RingPacket>,
}

/// Statistics of a run.
#[derive(Debug, Default)]
pub struct ChannelStats {
    /// Packets accepted.
    pub injected: u64,
    /// Packets rejected (queue full).
    pub rejected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// End-to-end latency.
    pub latency: Summary,
    /// Arbitration wait, as the [`Arbitration`] row defines it.
    pub wait: Summary,
}

/// The destination-channel crossbar engine: a FIFO writer queue per
/// destination, served serially.
#[derive(Debug)]
pub struct ChannelNetwork {
    cfg: ChannelConfig,
    now: Cycle,
    channels: Vec<Channel>,
    deliveries: EventQueue<RingPacket>,
    delivered: Vec<RingDelivered>,
    stats: ChannelStats,
    next_id: u64,
}

impl ChannelNetwork {
    /// Creates the crossbar.
    pub fn new(cfg: impl Into<ChannelConfig>) -> Self {
        let cfg = cfg.into();
        ChannelNetwork {
            channels: (0..cfg.nodes)
                .map(|_| Channel {
                    free_at: Cycle::ZERO,
                    last_release: None,
                    queue: BoundedQueue::new(cfg.injection_queue),
                })
                .collect(),
            now: Cycle::ZERO,
            deliveries: EventQueue::new(),
            delivered: Vec::new(),
            stats: ChannelStats::default(),
            next_id: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Current time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Static optical power of the whole crossbar (Corona: ring tuning +
    /// modulators; matrix: every port's worst-case-sized laser plus
    /// receiver), watts.
    pub fn static_power_w(&self) -> f64 {
        self.cfg.channel_static_w * self.cfg.nodes as f64
    }

    /// Injects a packet onto its destination's channel.
    ///
    /// # Errors
    ///
    /// Returns `Err(packet)` when the channel's writer queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or out of range.
    pub fn inject(&mut self, mut packet: RingPacket) -> Result<u64, RingPacket> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        assert!(packet.src < self.cfg.nodes && packet.dst < self.cfg.nodes);
        packet.id = self.next_id;
        packet.enqueued_at = self.now;
        match self.channels[packet.dst].queue.push(packet) {
            Ok(()) => {
                self.next_id += 1;
                self.stats.injected += 1;
                Ok(packet.id)
            }
            Err(p) => {
                self.stats.rejected += 1;
                Err(p)
            }
        }
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        // Each channel serves its queue serially; channels never block
        // each other.
        let flight = self.cfg.arbitration.flight_cycles();
        for ch in &mut self.channels {
            // The emptiness test goes first: it is what an idle channel —
            // most of them, most cycles — pays per tick.
            while !ch.queue.is_empty() && ch.free_at <= self.now {
                let Some(packet) = ch.queue.pop() else { break };
                let (start, wait) = match self.cfg.arbitration {
                    Arbitration::Token {
                        circulation_cycles,
                        pass_cycles,
                        idle_wait_cycles,
                    } => {
                        let hot = ch
                            .last_release
                            .is_some_and(|rel| self.now.saturating_sub(rel) < circulation_cycles);
                        let acquisition = if hot { pass_cycles } else { idle_wait_cycles };
                        (self.now + acquisition, acquisition)
                    }
                    Arbitration::Port {
                        arbitration_cycles, ..
                    } => {
                        let start = self.now + arbitration_cycles;
                        (start, start.saturating_sub(packet.enqueued_at))
                    }
                };
                self.stats.wait.record(wait as f64);
                let done = start
                    + if packet.is_data {
                        self.cfg.data_serialization
                    } else {
                        self.cfg.meta_serialization
                    };
                ch.free_at = done;
                ch.last_release = Some(done);
                self.deliveries.push(done + flight, packet);
            }
        }
        self.now += 1;
        while let Some((at, packet)) = self.deliveries.pop_due(self.now) {
            self.stats.delivered += 1;
            self.stats.latency.record((at - packet.enqueued_at) as f64);
            self.delivered.push(RingDelivered {
                packet,
                delivered_at: at,
            });
        }
    }

    /// Takes deliveries since the last drain.
    pub fn drain_delivered(&mut self) -> Vec<RingDelivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Undrained deliveries.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.deliveries.is_empty() && self.channels.iter().all(|c| c.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use crate::crossbar::CrossbarConfig;

    fn run_until_idle(net: &mut ChannelNetwork, max: u64) -> Vec<RingDelivered> {
        let mut out = Vec::new();
        for _ in 0..max {
            net.tick();
            out.extend(net.drain_delivered());
            if net.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn single_meta_packet_timing() {
        let mut net = ChannelNetwork::new(RingConfig::nodes(64));
        net.inject(RingPacket::meta(3, 40, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        // Idle token wait 4 + serialization 1 + half-loop flight 4 = 9.
        assert_eq!(out[0].latency(), 9);
        assert_eq!(out[0].packet.tag, 7);
    }

    #[test]
    fn data_packet_adds_serialization() {
        let mut net = ChannelNetwork::new(RingConfig::nodes(64));
        net.inject(RingPacket::data(3, 40, 0)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out[0].latency(), 11); // 4 + 3 + 4
    }

    #[test]
    fn same_destination_serializes() {
        // Two writers to one home channel: the second waits for the
        // token, no collisions ever.
        let mut net = ChannelNetwork::new(RingConfig::nodes(64));
        net.inject(RingPacket::data(1, 40, 0)).unwrap();
        net.inject(RingPacket::data(2, 40, 1)).unwrap();
        let out = run_until_idle(&mut net, 200);
        assert_eq!(out.len(), 2);
        let mut times: Vec<u64> = out.iter().map(|d| d.delivered_at.as_u64()).collect();
        times.sort_unstable();
        // Second grant pays a hot-token pass (2) + serialization.
        assert!(times[1] >= times[0] + 3, "{times:?}");
    }

    #[test]
    fn different_destinations_run_concurrently() {
        let mut net = ChannelNetwork::new(RingConfig::nodes(64));
        for src in 0..8usize {
            net.inject(RingPacket::meta(src, src + 8, src as u64))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        // All identical latencies: channels are independent.
        assert!(out.iter().all(|d| d.latency() == 9));
    }

    #[test]
    fn all_to_one_drains_without_loss() {
        let mut net = ChannelNetwork::new(RingConfig::nodes(16));
        let mut injected = 0;
        for src in 1..16usize {
            if net.inject(RingPacket::data(src, 0, src as u64)).is_ok() {
                injected += 1;
            }
        }
        let out = run_until_idle(&mut net, 2_000);
        assert_eq!(out.len(), injected);
        assert!(net.stats().wait.mean() > 0.0);
    }

    #[test]
    fn queue_overflow_rejects() {
        for cfg in [
            ChannelConfig::from(RingConfig::nodes(16)),
            CrossbarConfig::nodes(16).into(),
        ] {
            let mut net = ChannelNetwork::new(cfg);
            let mut ok = 0;
            for i in 0..40u64 {
                if net.inject(RingPacket::data(1, 0, i)).is_ok() {
                    ok += 1;
                }
            }
            assert_eq!(ok, 16);
            assert_eq!(net.stats().rejected, 24);
        }
    }

    #[test]
    fn static_power_scales_with_channels() {
        let small = ChannelNetwork::new(RingConfig::nodes(16));
        let big = ChannelNetwork::new(RingConfig::nodes(64));
        assert!(big.static_power_w() > small.static_power_w());
        assert!((big.static_power_w() - 0.26 * 64.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = ChannelNetwork::new(RingConfig::nodes(16));
        let _ = net.inject(RingPacket::meta(3, 3, 0));
    }

    #[test]
    fn crossbar_single_meta_packet_timing() {
        let mut net = ChannelNetwork::new(CrossbarConfig::nodes(64));
        net.inject(RingPacket::meta(3, 40, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        // Arbitration 1 + serialization 1 + traversal 2 = 4.
        assert_eq!(out[0].latency(), 4);
        assert_eq!(out[0].packet.tag, 7);
    }

    #[test]
    fn no_token_beats_corona_on_idle_latency() {
        let (xbar_cfg, ring_cfg) = (CrossbarConfig::nodes(64), RingConfig::nodes(64));
        assert!(xbar_cfg.matches_ring_serialization(&ring_cfg));
        let mut xbar = ChannelNetwork::new(xbar_cfg);
        let mut ring = ChannelNetwork::new(ring_cfg);
        xbar.inject(RingPacket::data(3, 40, 0)).unwrap();
        ring.inject(RingPacket::data(3, 40, 0)).unwrap();
        let x = run_until_idle(&mut xbar, 100);
        let r = run_until_idle(&mut ring, 100);
        assert!(
            x[0].latency() < r[0].latency(),
            "dedicated paths skip the token: {} vs {}",
            x[0].latency(),
            r[0].latency()
        );
    }

    #[test]
    fn crossbar_same_destination_serializes() {
        let mut net = ChannelNetwork::new(CrossbarConfig::nodes(64));
        net.inject(RingPacket::data(1, 40, 0)).unwrap();
        net.inject(RingPacket::data(2, 40, 1)).unwrap();
        let out = run_until_idle(&mut net, 200);
        assert_eq!(out.len(), 2);
        let mut times: Vec<u64> = out.iter().map(|d| d.delivered_at.as_u64()).collect();
        times.sort_unstable();
        assert!(times[1] >= times[0] + 3, "{times:?}");
        assert!(net.stats().wait.mean() > 0.0);
    }

    #[test]
    fn crossbar_different_destinations_run_concurrently() {
        let mut net = ChannelNetwork::new(CrossbarConfig::nodes(256));
        for src in 0..8usize {
            net.inject(RingPacket::meta(src, src + 128, src as u64))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|d| d.latency() == 4));
    }

    #[test]
    fn crossbar_static_power_explodes_with_radix() {
        // The worst-case-loss sizing is the whole point: per-PORT power
        // (not just total) must climb steeply from 64 to 256 ports.
        let c64 = CrossbarConfig::nodes(64);
        let c256 = CrossbarConfig::nodes(256);
        assert!(c64.port_static_w > 0.0);
        assert!(
            c256.port_static_w > c64.port_static_w * 100.0,
            "64: {} W, 256: {} W",
            c64.port_static_w,
            c256.port_static_w
        );
        let n64 = ChannelNetwork::new(c64);
        let n256 = ChannelNetwork::new(c256);
        assert!(n256.static_power_w() > n64.static_power_w() * 400.0);
    }
}
