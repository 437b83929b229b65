//! The worst-case-loss matrix crossbar engine.
//!
//! The passive ring-matrix crossbar of the PAPERS.md comparative study
//! (*Optical Crossbars on Chip: a comparative study based on worst-case
//! losses*, arXiv 1512.07492) is the timing opposite of the Corona-style
//! token ring next door ([`crate::network::RingNetwork`]): every
//! source-destination pair has a dedicated passive path, so there is no
//! circulating token to win — a packet pays one cycle of (electrical)
//! output-port arbitration, its serialization, and the worst-case-path
//! flight time, and contention exists *only* at the destination port.
//!
//! The price is paid in the power column instead: the per-port laser must
//! be sized for the worst-case insertion loss of the whole matrix, which
//! grows linearly in dB with the radix
//! ([`fsoi_optics::crossbar::CrossbarLossModel`]), so the static power
//! per port climbs exponentially with node count. [`CrossbarConfig::nodes`]
//! wires that budget straight into the engine, which is how the
//! design-space grids get crossbar energy and latency out of the same
//! pipeline as FSOI, mesh and Corona.

use crate::config::RingConfig;
use crate::network::{RingDelivered, RingPacket};
use fsoi_optics::crossbar::CrossbarLossModel;
use fsoi_sim::event::EventQueue;
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::stats::Summary;
use fsoi_sim::Cycle;

/// Bit error rate the crossbar laser budget is sized for. The passive
/// matrix has no collision/retransmission mechanism to relax it, so it
/// keeps the strict optical-interconnect target.
const CROSSBAR_TARGET_BER: f64 = 1e-12;

/// Configuration of a [`CrossbarNetwork`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Number of ports (nodes).
    pub nodes: usize,
    /// Cycles of output-port arbitration before a packet launches.
    pub arbitration_cycles: u64,
    /// Serialization cycles of a 72-bit meta packet on a port's WDM
    /// bundle.
    pub meta_serialization: u64,
    /// Serialization cycles of a 360-bit data packet.
    pub data_serialization: u64,
    /// Flight time over the worst-case matrix path, cycles (~2 die edges
    /// of waveguide at group index ≈ 4).
    pub traversal_cycles: u64,
    /// Per-source injection queue capacity, packets.
    pub injection_queue: usize,
    /// Static power per port — the worst-case-loss-sized laser plus the
    /// receiver — watts.
    pub port_static_w: f64,
}

impl CrossbarConfig {
    /// A matrix crossbar for `n` nodes, its per-port power sized from the
    /// worst-case insertion loss at this radix
    /// ([`CrossbarLossModel::paper_default`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn nodes(n: usize) -> Self {
        assert!(n >= 2, "a crossbar needs at least two nodes");
        let budget = CrossbarLossModel::paper_default().budget(n, CROSSBAR_TARGET_BER);
        CrossbarConfig {
            nodes: n,
            arbitration_cycles: 1,
            meta_serialization: 1,
            data_serialization: 3,
            traversal_cycles: 2,
            injection_queue: 16,
            port_static_w: budget.port_power_mw / 1000.0,
        }
    }

    /// Matches [`RingConfig`]'s serialization so latency comparisons
    /// against Corona isolate the arbitration difference.
    pub fn matches_ring_serialization(&self, ring: &RingConfig) -> bool {
        self.meta_serialization == ring.meta_serialization
            && self.data_serialization == ring.data_serialization
    }
}

/// Per-destination output port: dedicated paths in, one reader out.
#[derive(Debug)]
struct Port {
    /// When the port finishes its current packet.
    busy_until: Cycle,
    /// Waiting writers, FIFO (the electrical arbiter grants in request
    /// order; FIFO is the fair-service approximation).
    queue: BoundedQueue<RingPacket>,
}

/// Statistics of a crossbar run.
#[derive(Debug, Default)]
pub struct CrossbarStats {
    /// Packets accepted.
    pub injected: u64,
    /// Packets rejected (queue full).
    pub rejected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// End-to-end latency.
    pub latency: Summary,
    /// Output-port arbitration wait.
    pub port_wait: Summary,
}

/// The worst-case-loss matrix crossbar.
#[derive(Debug)]
pub struct CrossbarNetwork {
    cfg: CrossbarConfig,
    now: Cycle,
    ports: Vec<Port>,
    deliveries: EventQueue<RingPacket>,
    delivered: Vec<RingDelivered>,
    stats: CrossbarStats,
    next_id: u64,
}

impl CrossbarNetwork {
    /// Creates the crossbar.
    pub fn new(cfg: CrossbarConfig) -> Self {
        CrossbarNetwork {
            ports: (0..cfg.nodes)
                .map(|_| Port {
                    busy_until: Cycle::ZERO,
                    queue: BoundedQueue::new(cfg.injection_queue),
                })
                .collect(),
            now: Cycle::ZERO,
            deliveries: EventQueue::new(),
            delivered: Vec::new(),
            stats: CrossbarStats::default(),
            next_id: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.cfg
    }

    /// Current time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }

    /// Static power of the whole crossbar: every port's worst-case-sized
    /// laser plus receiver, watts.
    pub fn static_power_w(&self) -> f64 {
        self.cfg.port_static_w * self.cfg.nodes as f64
    }

    /// Injects a packet toward its destination port.
    ///
    /// # Errors
    ///
    /// Returns `Err(packet)` when the port's writer queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or out of range.
    pub fn inject(&mut self, mut packet: RingPacket) -> Result<u64, RingPacket> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        assert!(packet.src < self.cfg.nodes && packet.dst < self.cfg.nodes);
        packet.id = self.next_id;
        packet.enqueued_at = self.now;
        match self.ports[packet.dst].queue.push(packet) {
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
        // Each output port serves its arbitration queue serially; the
        // paths themselves are dedicated, so ports never block each other.
        for d in 0..self.ports.len() {
            loop {
                let port = &self.ports[d];
                if port.queue.is_empty() || port.busy_until > self.now {
                    break;
                }
                let port = &mut self.ports[d];
                #[expect(
                    clippy::expect_used,
                    reason = "P1: the is_empty check above guarantees a queued packet"
                )]
                let packet = port.queue.pop().expect("non-empty");
                let start = self.now.max(port.busy_until) + self.cfg.arbitration_cycles;
                let ser = if packet.is_data {
                    self.cfg.data_serialization
                } else {
                    self.cfg.meta_serialization
                };
                let wait = start.saturating_sub(packet.enqueued_at.as_u64().into());
                self.stats.port_wait.record(wait as f64);
                let done = start + ser;
                port.busy_until = done;
                let arrive = done + self.cfg.traversal_cycles;
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
        self.deliveries.is_empty() && self.ports.iter().all(|p| p.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RingNetwork;

    fn run_until_idle(net: &mut CrossbarNetwork, max: u64) -> Vec<RingDelivered> {
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
        let mut net = CrossbarNetwork::new(CrossbarConfig::nodes(64));
        net.inject(RingPacket::meta(3, 40, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        // Arbitration 1 + serialization 1 + traversal 2 = 4.
        assert_eq!(out[0].latency(), 4);
        assert_eq!(out[0].packet.tag, 7);
    }

    #[test]
    fn no_token_beats_corona_on_idle_latency() {
        let mut xbar = CrossbarNetwork::new(CrossbarConfig::nodes(64));
        let mut ring = RingNetwork::new(RingConfig::nodes(64));
        assert!(xbar.config().matches_ring_serialization(ring.config()));
        xbar.inject(RingPacket::data(3, 40, 0)).unwrap();
        ring.inject(RingPacket::data(3, 40, 0)).unwrap();
        let x = run_until_idle(&mut xbar, 100);
        let mut r = Vec::new();
        for _ in 0..100 {
            ring.tick();
            r.extend(ring.drain_delivered());
            if ring.is_idle() {
                break;
            }
        }
        assert!(
            x[0].latency() < r[0].latency(),
            "dedicated paths skip the token: {} vs {}",
            x[0].latency(),
            r[0].latency()
        );
    }

    #[test]
    fn same_destination_serializes() {
        let mut net = CrossbarNetwork::new(CrossbarConfig::nodes(64));
        net.inject(RingPacket::data(1, 40, 0)).unwrap();
        net.inject(RingPacket::data(2, 40, 1)).unwrap();
        let out = run_until_idle(&mut net, 200);
        assert_eq!(out.len(), 2);
        let mut times: Vec<u64> = out.iter().map(|d| d.delivered_at.as_u64()).collect();
        times.sort_unstable();
        assert!(times[1] >= times[0] + 3, "{times:?}");
        assert!(net.stats().port_wait.mean() > 0.0);
    }

    #[test]
    fn different_destinations_run_concurrently() {
        let mut net = CrossbarNetwork::new(CrossbarConfig::nodes(256));
        for src in 0..8usize {
            net.inject(RingPacket::meta(src, src + 128, src as u64))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|d| d.latency() == 4));
    }

    #[test]
    fn queue_overflow_rejects() {
        let mut net = CrossbarNetwork::new(CrossbarConfig::nodes(16));
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
    fn static_power_explodes_with_radix() {
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
        let n64 = CrossbarNetwork::new(c64);
        let n256 = CrossbarNetwork::new(c256);
        assert!(n256.static_power_w() > n64.static_power_w() * 400.0);
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = CrossbarNetwork::new(CrossbarConfig::nodes(16));
        let _ = net.inject(RingPacket::meta(3, 3, 0));
    }
}
