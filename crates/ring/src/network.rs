//! The destination-channel crossbar engine.
//!
//! The Corona-style token ring and the worst-case-loss matrix crossbar are
//! the same machine — every destination owns one channel, writers queue
//! for it FIFO, and it carries one packet at a time (no collisions, no
//! concurrent receivers) — and differ only in how a channel is won and how
//! long the light then flies: the [`Arbitration`] row. Each design point
//! is one [`ChannelConfig`] constructor ([`ChannelConfig::ring`],
//! [`ChannelConfig::crossbar`]).
//!
//! A tick costs O(activity), not O(nodes): the network keeps the set of
//! destinations with a waiting writer and visits only those channels, in
//! ascending order — the order a walk over every channel reaches them, so
//! deliveries due in the same cycle keep their push order.

use fsoi_optics::crossbar::CrossbarLossModel;
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::EventQueue;
use fsoi_sim::packet::{Interconnect, NetDelivery, NetPacket, NetReport, PacketClass};
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::Cycle;

/// Bit error rate the matrix crossbar's laser budget is sized for. The
/// passive matrix has no collision/retransmission mechanism to relax it,
/// so it keeps the strict optical-interconnect target.
const CROSSBAR_TARGET_BER: f64 = 1e-12;

/// How a destination channel is won and how long the light then flies —
/// the one thing the two crossbars differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Corona: a writer acquires the channel's circulating optical token.
    /// A token released less than a circulation ago is hot and passes
    /// writer-to-writer in `pass_cycles`; a cold one must come around,
    /// half a circulation on average. The reader sits somewhere on the
    /// loop: flight is half a circulation on average too. A delivery's
    /// `queuing` is the acquisition.
    Token {
        /// Cycles for light (and the token) to circulate the full loop.
        circulation_cycles: u64,
        /// Cycles to pass a hot token between contending writers.
        pass_cycles: u64,
    },
    /// Matrix crossbar: dedicated passive paths, so only the (electrical)
    /// output-port arbiter stands before a launch and flight is the
    /// worst-case matrix path. A delivery's `queuing` is launch − enqueue.
    Port {
        /// Cycles of output-port arbitration before a packet launches.
        arbitration_cycles: u64,
        /// Flight time over the worst-case matrix path, cycles.
        traversal_cycles: u64,
    },
}

impl Arbitration {
    /// Cycles from the end of serialization to delivery; on the token row
    /// also the mean wait for the token of an idle channel.
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

    /// The network this row makes: `"ring"` for the token, `"crossbar"`
    /// for the port arbiter.
    pub fn name(self) -> &'static str {
        match self {
            Arbitration::Token { .. } => "ring",
            Arbitration::Port { .. } => "crossbar",
        }
    }
}

/// Configuration of a [`ChannelNetwork`]: the shape both crossbars share
/// plus an [`Arbitration`] row. [`ChannelConfig::ring`] and
/// [`ChannelConfig::crossbar`] build the two design points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Number of nodes (= number of destination channels).
    pub nodes: usize,
    /// Serialization cycles of a 72-bit meta packet on one channel's WDM
    /// bundle.
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

/// A rejected [`ChannelConfig`], carrying the offending value.
///
/// The limits come from the engine's dense state — a [`NodeMask`] over
/// the destinations, a bounded writer queue per channel — and from one
/// grant per channel at a time, and are enforced at construction instead
/// of surfacing as a capacity assert or a channel carrying several packets
/// in one cycle inside a running simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelConfigError {
    /// `nodes` is outside `2..=`[`NodeMask::CAPACITY`].
    Nodes {
        /// The requested node count.
        nodes: usize,
    },
    /// A zero-packet writer queue: no packet could ever be offered.
    InjectionQueue,
    /// A packet class that serializes in zero cycles: the channel would
    /// free up in the cycle it was granted.
    Serialization {
        /// The class with no serialization time.
        class: PacketClass,
    },
}

impl std::fmt::Display for ChannelConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ChannelConfigError::Nodes { nodes } => write!(
                f,
                "{nodes} nodes: a crossbar needs 2..={} (the NodeMask capacity)",
                NodeMask::CAPACITY
            ),
            ChannelConfigError::InjectionQueue => {
                write!(f, "a writer queue must hold at least one packet")
            }
            ChannelConfigError::Serialization { class } => {
                write!(f, "a {class:?} packet must serialize in at least one cycle")
            }
        }
    }
}

impl std::error::Error for ChannelConfigError {}

impl ChannelConfig {
    /// The Corona-style token ring for `n` nodes, one home channel per
    /// node: generous WDM channel bandwidth (meta in 1 cycle, data in 3),
    /// a 9-cycle loop — a ~8 cm loop around a 2 cm die is ~2.7 ns in
    /// silicon (group index ≈ 4), ≈ 9 cycles at 3.3 GHz; Corona's own
    /// arbitration analysis uses an 8-cycle circulation — so an idle
    /// channel's token arrives in 4, and a 2-cycle token pass between
    /// contending writers. Its static power is ring-resonator thermal
    /// tuning plus modulators, 0.26 W per channel (≈ 16.6 W for 64
    /// channels; the paper's §2 highlights this as a WDM cost).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "a crossbar needs at least two nodes");
        ChannelConfig {
            nodes: n,
            meta_serialization: 1,
            data_serialization: 3,
            injection_queue: 16,
            channel_static_w: 0.26,
            arbitration: Arbitration::Token {
                circulation_cycles: 9,
                pass_cycles: 2,
            },
        }
    }

    /// The worst-case-loss ring-matrix crossbar for `n` nodes (the
    /// PAPERS.md comparative study, *Optical Crossbars on Chip: a
    /// comparative study based on worst-case losses*): every
    /// source-destination pair has a dedicated passive path, so a packet
    /// pays one cycle of output-port arbitration, the ring's serialization
    /// and writer queue (so a latency comparison against Corona isolates
    /// the arbitration), and a 2-cycle worst-case-path flight (~2 die
    /// edges of waveguide).
    /// The price is in the power column: each port's laser is sized for
    /// the worst-case insertion loss of the whole matrix at this radix
    /// ([`CrossbarLossModel::paper_default`], a 1e-12 target bit error
    /// rate), which grows linearly in dB with the radix, so the static
    /// power per port — laser plus receiver — climbs exponentially with
    /// node count.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn crossbar(n: usize) -> Self {
        let ring = ChannelConfig::ring(n);
        let budget = CrossbarLossModel::paper_default().budget(n, CROSSBAR_TARGET_BER);
        ChannelConfig {
            channel_static_w: budget.port_power_mw / 1000.0,
            arbitration: Arbitration::Port {
                arbitration_cycles: 1,
                traversal_cycles: 2,
            },
            ..ring
        }
    }

    /// Checks the limits the engine relies on (the fields are public, so a
    /// literal can hold anything): `nodes` in `2..=`[`NodeMask::CAPACITY`],
    /// room for one packet per writer queue, and at least one cycle of
    /// serialization per class. [`ChannelNetwork::new`] panics on a
    /// configuration that fails this.
    pub fn validate(&self) -> Result<(), ChannelConfigError> {
        if !(2..=NodeMask::CAPACITY).contains(&self.nodes) {
            return Err(ChannelConfigError::Nodes { nodes: self.nodes });
        }
        if self.injection_queue == 0 {
            return Err(ChannelConfigError::InjectionQueue);
        }
        for (class, cycles) in [
            (PacketClass::Meta, self.meta_serialization),
            (PacketClass::Data, self.data_serialization),
        ] {
            if cycles == 0 {
                return Err(ChannelConfigError::Serialization { class });
            }
        }
        Ok(())
    }
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
    /// approximation of both), with their injection times.
    queue: BoundedQueue<(NetPacket, Cycle)>,
}

/// The destination-channel crossbar engine: a FIFO writer queue per
/// destination, served serially.
///
/// `backlogged` is the active set: the destinations whose writer queue is
/// non-empty. `inject` adds a destination, `tick` visits only these
/// channels in ascending order and drops each one whose queue it empties,
/// so a tick costs the channels with a waiting writer — about one at 256
/// nodes — not every channel. Debug builds recompute the set from the
/// queues after every tick (`check_backlogged`).
#[derive(Debug)]
pub struct ChannelNetwork {
    cfg: ChannelConfig,
    now: Cycle,
    channels: Vec<Channel>,
    /// Destinations whose writer queue is non-empty.
    backlogged: NodeMask,
    /// Packets in flight with their injection times and arbitration
    /// waits, by arrival.
    deliveries: EventQueue<(NetPacket, Cycle, u32)>,
    delivered: Vec<NetDelivery>,
}

impl ChannelNetwork {
    /// Creates the crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ChannelConfig::validate`].
    pub fn new(cfg: ChannelConfig) -> Self {
        let valid = cfg.validate();
        assert!(valid.is_ok(), "{valid:?}");
        ChannelNetwork {
            channels: (0..cfg.nodes)
                .map(|_| Channel {
                    free_at: Cycle::ZERO,
                    last_release: None,
                    queue: BoundedQueue::new(cfg.injection_queue),
                })
                .collect(),
            now: Cycle::ZERO,
            backlogged: NodeMask::new(),
            deliveries: EventQueue::new(),
            delivered: Vec::new(),
            cfg,
        }
    }

    /// Static optical power of the whole crossbar (Corona: ring tuning +
    /// modulators; matrix: every port's worst-case-sized laser plus
    /// receiver), watts.
    pub(crate) fn static_power_w(&self) -> f64 {
        self.cfg.channel_static_w * self.cfg.nodes as f64
    }

    /// Debug builds: checks that `backlogged` holds exactly the
    /// destinations whose writer queue is non-empty.
    fn check_backlogged(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (dst, ch) in self.channels.iter().enumerate() {
            assert_eq!(
                self.backlogged.contains(dst),
                !ch.queue.is_empty(),
                "backlogged at channel {dst}"
            );
        }
    }
}

/// The destination-channel crossbars: the Corona-style token ring (the
/// paper's §7.1 nanophotonic comparison point) and the worst-case-loss
/// matrix crossbar (the PAPERS.md comparative study's baseline for the
/// design-space grids), named by the engine's arbitration row.
impl Interconnect for ChannelNetwork {
    /// Queues a packet on its destination's channel; `Err` when the
    /// channel's writer queue is full.
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        assert!(packet.src < self.cfg.nodes && packet.dst < self.cfg.nodes);
        self.channels[packet.dst]
            .queue
            .push((packet, self.now))
            .map_err(|_| packet)?;
        self.backlogged.insert(packet.dst);
        Ok(())
    }

    fn tick(&mut self) {
        // Each channel serves its queue serially; channels never block
        // each other. Ascending order is load-bearing: two channels may
        // push deliveries due in the same cycle, and their push order is
        // their delivery order.
        let flight = self.cfg.arbitration.flight_cycles();
        for dst in &self.backlogged {
            let ch = &mut self.channels[dst];
            while ch.free_at <= self.now {
                let Some((packet, enqueued_at)) = ch.queue.pop() else {
                    break;
                };
                let (start, wait) = match self.cfg.arbitration {
                    Arbitration::Token {
                        circulation_cycles,
                        pass_cycles,
                    } => {
                        let hot = ch
                            .last_release
                            .is_some_and(|rel| self.now.saturating_sub(rel) < circulation_cycles);
                        // A cold token comes around in half a loop, the
                        // flight time.
                        let acquisition = if hot { pass_cycles } else { flight };
                        (self.now + acquisition, acquisition)
                    }
                    Arbitration::Port {
                        arbitration_cycles, ..
                    } => {
                        let start = self.now + arbitration_cycles;
                        (start, start.saturating_sub(enqueued_at))
                    }
                };
                let done = start
                    + match packet.class {
                        PacketClass::Meta => self.cfg.meta_serialization,
                        PacketClass::Data => self.cfg.data_serialization,
                    };
                ch.free_at = done;
                ch.last_release = Some(done);
                let queuing = NetDelivery::narrow(wait);
                self.deliveries
                    .push(done + flight, (packet, enqueued_at, queuing));
            }
            if ch.queue.is_empty() {
                self.backlogged.remove(dst);
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
        self.check_backlogged();
    }

    fn drain(&mut self) -> std::vec::Drain<'_, NetDelivery> {
        self.delivered.drain(..)
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn is_idle(&self) -> bool {
        self.deliveries.is_empty() && self.backlogged.is_empty()
    }

    fn name(&self) -> &'static str {
        self.cfg.arbitration.name()
    }

    fn report(&self, cycles: u64) -> NetReport {
        NetReport {
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

    fn meta(src: usize, dst: usize, tag: u64) -> NetPacket {
        NetPacket::new(src, dst, PacketClass::Meta, tag)
    }

    fn data(src: usize, dst: usize, tag: u64) -> NetPacket {
        NetPacket::new(src, dst, PacketClass::Data, tag)
    }

    fn run_until_idle(net: &mut ChannelNetwork, max: u64) -> Vec<NetDelivery> {
        let mut out = Vec::new();
        for _ in 0..max {
            net.tick();
            out.extend(net.drain());
            if net.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn constructors_hold_the_recorded_design_points() {
        // Each design point's value before the two crossbars became one
        // config: the ring row field by field, and the crossbar's
        // worst-case-loss port power to the bit.
        let xbar_static_bits = [
            (2, 0x3f75_42f8_5402_a946),
            (16, 0x3f7a_49f0_bd5a_6c42),
            (64, 0x3fa4_266c_5866_ddec),
            (256, 0x40a1_5459_db2a_3d14),
        ];
        for (n, bits) in xbar_static_bits {
            let ring = ChannelConfig::ring(n);
            assert_eq!(
                ring,
                ChannelConfig {
                    nodes: n,
                    meta_serialization: 1,
                    data_serialization: 3,
                    injection_queue: 16,
                    channel_static_w: 0.26,
                    arbitration: Arbitration::Token {
                        circulation_cycles: 9,
                        pass_cycles: 2,
                    },
                }
            );
            // The idle token wait is half the loop.
            assert_eq!(ring.arbitration.flight_cycles(), 4);
            let xbar = ChannelConfig::crossbar(n);
            assert_eq!(xbar.channel_static_w.to_bits(), bits, "{n} nodes");
            assert_eq!(
                xbar,
                ChannelConfig {
                    arbitration: Arbitration::Port {
                        arbitration_cycles: 1,
                        traversal_cycles: 2,
                    },
                    channel_static_w: xbar.channel_static_w,
                    ..ring
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn ring_needs_two_nodes() {
        let _ = ChannelConfig::ring(1);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn crossbar_needs_two_nodes() {
        let _ = ChannelConfig::crossbar(1);
    }

    #[test]
    fn single_meta_packet_timing() {
        let mut net = ChannelNetwork::new(ChannelConfig::ring(64));
        net.inject(meta(3, 40, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        // Idle token wait 4 + serialization 1 + half-loop flight 4 = 9.
        assert_eq!(out[0].latency, 9);
        assert_eq!(out[0].packet.tag, 7);
    }

    #[test]
    fn data_packet_adds_serialization() {
        let mut net = ChannelNetwork::new(ChannelConfig::ring(64));
        net.inject(data(3, 40, 0)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out[0].latency, 11); // 4 + 3 + 4
    }

    #[test]
    fn same_destination_serializes() {
        // Two writers to one home channel: the second waits for the
        // token, no collisions ever.
        let mut net = ChannelNetwork::new(ChannelConfig::ring(64));
        net.inject(data(1, 40, 0)).unwrap();
        net.inject(data(2, 40, 1)).unwrap();
        let out = run_until_idle(&mut net, 200);
        assert_eq!(out.len(), 2);
        // Both were injected at cycle 0: a latency is a delivery time.
        let mut times: Vec<u64> = out.iter().map(|d| d.latency).collect();
        times.sort_unstable();
        // Second grant pays a hot-token pass (2) + serialization.
        assert!(times[1] >= times[0] + 3, "{times:?}");
    }

    #[test]
    fn different_destinations_run_concurrently() {
        let mut net = ChannelNetwork::new(ChannelConfig::ring(64));
        for src in 0..8usize {
            net.inject(meta(src, src + 8, src as u64)).unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        // All identical latencies: channels are independent.
        assert!(out.iter().all(|d| d.latency == 9));
    }

    #[test]
    fn all_to_one_drains_without_loss() {
        let mut net = ChannelNetwork::new(ChannelConfig::ring(16));
        let mut injected = 0;
        for src in 1..16usize {
            if net.inject(data(src, 0, src as u64)).is_ok() {
                injected += 1;
            }
        }
        let out = run_until_idle(&mut net, 2_000);
        assert_eq!(out.len(), injected);
        assert!(
            out.iter().all(|d| d.queuing > 0),
            "every grant waits for the token"
        );
    }

    #[test]
    fn queue_overflow_rejects() {
        for cfg in [ChannelConfig::ring(16), ChannelConfig::crossbar(16)] {
            let mut net = ChannelNetwork::new(cfg);
            let mut ok = 0;
            for i in 0..40u64 {
                if net.inject(data(1, 0, i)).is_ok() {
                    ok += 1;
                }
            }
            assert_eq!(ok, 16);
        }
    }

    #[test]
    fn static_power_scales_with_channels() {
        let small = ChannelNetwork::new(ChannelConfig::ring(16));
        let big = ChannelNetwork::new(ChannelConfig::ring(64));
        assert!(big.static_power_w() > small.static_power_w());
        assert!((big.static_power_w() - 0.26 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_each_limit() {
        use ChannelConfigError::{InjectionQueue, Nodes, Serialization};
        let rows = [ChannelConfig::ring(256), ChannelConfig::crossbar(2)];
        type Tweak = fn(&mut ChannelConfig);
        let cases: [(Tweak, _, &str); 5] = [
            (|c| c.nodes = 1, Nodes { nodes: 1 }, "2..=256"),
            (|c| c.nodes = 257, Nodes { nodes: 257 }, "2..=256"),
            (|c| c.injection_queue = 0, InjectionQueue, "one packet"),
            (
                |c| c.meta_serialization = 0,
                Serialization {
                    class: PacketClass::Meta,
                },
                "Meta packet",
            ),
            (
                |c| c.data_serialization = 0,
                Serialization {
                    class: PacketClass::Data,
                },
                "Data packet",
            ),
        ];
        for row in rows {
            assert_eq!(row.validate(), Ok(()));
            for (tweak, want, says) in cases {
                let mut bad = row;
                tweak(&mut bad);
                let err = bad.validate().unwrap_err();
                assert_eq!(err, want);
                assert!(err.to_string().contains(says), "{err}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "InjectionQueue")]
    fn new_rejects_what_validate_rejects() {
        let cfg = ChannelConfig {
            injection_queue: 0,
            ..ChannelConfig::ring(16)
        };
        let _ = ChannelNetwork::new(cfg);
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = ChannelNetwork::new(ChannelConfig::ring(16));
        let _ = net.inject(meta(3, 3, 0));
    }

    #[test]
    fn crossbar_single_meta_packet_timing() {
        let mut net = ChannelNetwork::new(ChannelConfig::crossbar(64));
        net.inject(meta(3, 40, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        // Arbitration 1 + serialization 1 + traversal 2 = 4.
        assert_eq!(out[0].latency, 4);
        assert_eq!(out[0].packet.tag, 7);
    }

    #[test]
    fn no_token_beats_corona_on_idle_latency() {
        let (xbar_cfg, ring_cfg) = (ChannelConfig::crossbar(64), ChannelConfig::ring(64));
        assert_eq!(
            (xbar_cfg.meta_serialization, xbar_cfg.data_serialization),
            (ring_cfg.meta_serialization, ring_cfg.data_serialization),
            "the same serialization isolates the arbitration"
        );
        let mut xbar = ChannelNetwork::new(xbar_cfg);
        let mut ring = ChannelNetwork::new(ring_cfg);
        xbar.inject(data(3, 40, 0)).unwrap();
        ring.inject(data(3, 40, 0)).unwrap();
        let x = run_until_idle(&mut xbar, 100);
        let r = run_until_idle(&mut ring, 100);
        assert!(
            x[0].latency < r[0].latency,
            "dedicated paths skip the token: {} vs {}",
            x[0].latency,
            r[0].latency
        );
    }

    #[test]
    fn crossbar_same_destination_serializes() {
        let mut net = ChannelNetwork::new(ChannelConfig::crossbar(64));
        net.inject(data(1, 40, 0)).unwrap();
        net.inject(data(2, 40, 1)).unwrap();
        let out = run_until_idle(&mut net, 200);
        assert_eq!(out.len(), 2);
        // Both were injected at cycle 0: a latency is a delivery time.
        let mut times: Vec<u64> = out.iter().map(|d| d.latency).collect();
        times.sort_unstable();
        assert!(times[1] >= times[0] + 3, "{times:?}");
        // The second writer waits at the port for the first.
        let mut waits: Vec<u32> = out.iter().map(|d| d.queuing).collect();
        waits.sort_unstable();
        assert!(waits[1] > waits[0], "{waits:?}");
    }

    #[test]
    fn crossbar_different_destinations_run_concurrently() {
        let mut net = ChannelNetwork::new(ChannelConfig::crossbar(256));
        for src in 0..8usize {
            net.inject(meta(src, src + 128, src as u64)).unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|d| d.latency == 4));
    }

    #[test]
    fn crossbar_static_power_explodes_with_radix() {
        // The worst-case-loss sizing is the whole point: per-PORT power
        // (not just total) must climb steeply from 64 to 256 ports.
        let c64 = ChannelConfig::crossbar(64);
        let c256 = ChannelConfig::crossbar(256);
        assert!(c64.channel_static_w > 0.0);
        assert!(
            c256.channel_static_w > c64.channel_static_w * 100.0,
            "64: {} W, 256: {} W",
            c64.channel_static_w,
            c256.channel_static_w
        );
        let n64 = ChannelNetwork::new(c64);
        let n256 = ChannelNetwork::new(c256);
        assert!(n256.static_power_w() > n64.static_power_w() * 400.0);
    }
}
