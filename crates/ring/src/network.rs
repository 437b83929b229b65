//! The MWSR token-ring crossbar engine.

use crate::config::RingConfig;
use fsoi_sim::event::EventQueue;
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::stats::Summary;
use fsoi_sim::Cycle;

/// A packet on the ring crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingPacket {
    /// Unique id assigned at injection.
    pub id: u64,
    /// Source node.
    pub src: usize,
    /// Destination node (owner of the home channel used).
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

/// Per-destination home channel: one token, one writer at a time.
#[derive(Debug)]
struct Channel {
    /// The channel is granted to writers serially; this is when the token
    /// frees up next.
    token_free_at: Cycle,
    /// Whether the previous grant ended recently (a hot token passes
    /// writer-to-writer cheaply; a cold one must circulate).
    last_release: Option<Cycle>,
    /// Waiting writers, FIFO (the token visits writers in ring order; FIFO
    /// is a fair-service approximation).
    queue: BoundedQueue<RingPacket>,
}

/// Statistics of a ring run.
#[derive(Debug, Default)]
pub struct RingStats {
    /// Packets accepted.
    pub injected: u64,
    /// Packets rejected (queue full).
    pub rejected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// End-to-end latency.
    pub latency: Summary,
    /// Token acquisition wait.
    pub token_wait: Summary,
}

/// The Corona-style crossbar.
#[derive(Debug)]
pub struct RingNetwork {
    cfg: RingConfig,
    now: Cycle,
    channels: Vec<Channel>,
    deliveries: EventQueue<RingPacket>,
    delivered: Vec<RingDelivered>,
    stats: RingStats,
    next_id: u64,
}

impl RingNetwork {
    /// Creates the crossbar.
    pub fn new(cfg: RingConfig) -> Self {
        RingNetwork {
            channels: (0..cfg.nodes)
                .map(|_| Channel {
                    token_free_at: Cycle::ZERO,
                    last_release: None,
                    queue: BoundedQueue::new(cfg.injection_queue),
                })
                .collect(),
            now: Cycle::ZERO,
            deliveries: EventQueue::new(),
            delivered: Vec::new(),
            stats: RingStats::default(),
            next_id: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Current time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RingStats {
        &self.stats
    }

    /// Static optical power of the whole crossbar (ring tuning +
    /// modulators), watts.
    pub fn static_power_w(&self) -> f64 {
        self.cfg.channel_static_w * self.cfg.nodes as f64
    }

    /// Injects a packet onto its destination's home channel.
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
        // Grant tokens: each channel serves its queue serially.
        for d in 0..self.channels.len() {
            loop {
                let ch = &self.channels[d];
                if ch.queue.is_empty() || ch.token_free_at > self.now {
                    break;
                }
                let ch = &mut self.channels[d];
                #[expect(
                    clippy::expect_used,
                    reason = "P1: the is_empty check above guarantees a queued packet"
                )]
                let packet = ch.queue.pop().expect("non-empty");
                // Token acquisition: if the token was just released by a
                // contending writer, passing it on is cheap; a cold token
                // must circulate half the loop on average.
                let acquisition = match ch.last_release {
                    Some(rel)
                        if self.now.saturating_sub(rel) < self.cfg.ring_circulation_cycles =>
                    {
                        self.cfg.token_pass_cycles
                    }
                    _ => self.cfg.idle_token_wait(),
                };
                let start = self.now.max(ch.token_free_at) + acquisition;
                let ser = if packet.is_data {
                    self.cfg.data_serialization
                } else {
                    self.cfg.meta_serialization
                };
                self.stats.token_wait.record(acquisition as f64);
                let done = start + ser;
                ch.token_free_at = done;
                ch.last_release = Some(done);
                // Flight: the reader sits somewhere on the loop; half a
                // circulation on average.
                let arrive = done + self.cfg.ring_circulation_cycles / 2;
                self.deliveries.push(arrive, packet);
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

    fn run_until_idle(net: &mut RingNetwork, max: u64) -> Vec<RingDelivered> {
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
        let mut net = RingNetwork::new(RingConfig::nodes(64));
        net.inject(RingPacket::meta(3, 40, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        // Idle token wait 4 + serialization 1 + half-loop flight 4 = 9.
        assert_eq!(out[0].latency(), 9);
        assert_eq!(out[0].packet.tag, 7);
    }

    #[test]
    fn data_packet_adds_serialization() {
        let mut net = RingNetwork::new(RingConfig::nodes(64));
        net.inject(RingPacket::data(3, 40, 0)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out[0].latency(), 11); // 4 + 3 + 4
    }

    #[test]
    fn same_destination_serializes() {
        // Two writers to one home channel: the second waits for the
        // token, no collisions ever.
        let mut net = RingNetwork::new(RingConfig::nodes(64));
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
        let mut net = RingNetwork::new(RingConfig::nodes(64));
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
        let mut net = RingNetwork::new(RingConfig::nodes(16));
        let mut injected = 0;
        for src in 1..16usize {
            if net.inject(RingPacket::data(src, 0, src as u64)).is_ok() {
                injected += 1;
            }
        }
        let out = run_until_idle(&mut net, 2_000);
        assert_eq!(out.len(), injected);
        assert!(net.stats().token_wait.mean() > 0.0);
    }

    #[test]
    fn queue_overflow_rejects() {
        let mut net = RingNetwork::new(RingConfig::nodes(16));
        let mut ok = 0;
        for i in 0..40u64 {
            if net.inject(RingPacket::data(1, 0, i)).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 16);
        assert_eq!(net.stats().rejected, 24);
    }

    #[test]
    fn static_power_scales_with_channels() {
        let small = RingNetwork::new(RingConfig::nodes(16));
        let big = RingNetwork::new(RingConfig::nodes(64));
        assert!(big.static_power_w() > small.static_power_w());
        assert!((big.static_power_w() - 0.26 * 64.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = RingNetwork::new(RingConfig::nodes(16));
        let _ = net.inject(RingPacket::meta(3, 3, 0));
    }
}
