//! The full cycle-driven mesh: routers, links, injection and ejection.
//!
//! A tick visits only the nodes with something to inject and the routers
//! holding flits ([`NodeMask`] sets), in ascending node order — a loop
//! over every node, minus the nodes where it would find nothing to do.

use crate::config::MeshConfig;
use crate::packet::{Flit, FLITS};
use crate::power::MeshPowerModel;
use crate::router::{Departure, Router, LOCAL, NEVER};
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::MonotoneQueue;
use fsoi_sim::packet::{Interconnect, NetDelivery, NetPacket, NetReport};
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::Cycle;

/// Aggregate mesh counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Packets accepted.
    pub injected: u64,
    /// Packets rejected (injection queue full).
    pub rejected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Total buffer writes across routers (power model input).
    pub buffer_writes: u64,
    /// Total buffer reads.
    pub buffer_reads: u64,
    /// Total crossbar traversals.
    pub crossbar_traversals: u64,
    /// Total VC allocations.
    pub allocations: u64,
    /// Total link (hop) traversals.
    pub link_traversals: u64,
}

/// In-progress injection of one packet's flits at a node.
#[derive(Debug, Clone, Copy)]
struct InjectionState {
    slot: u32,
    dst: u16,
    /// Sequence number of the next flit to inject.
    next: u8,
    flits: u8,
    vc: u8,
}

/// A flit in flight on a link, addressed to its landing buffer.
#[derive(Debug, Clone, Copy)]
struct LinkFlit {
    router: u16,
    port: u8,
    vc: u8,
    flit: Flit,
}

/// The mesh network.
#[derive(Debug)]
pub struct MeshNetwork {
    cfg: MeshConfig,
    /// Flits per packet, by lane: [`FLITS`], or more on narrowed links.
    flits: [usize; 2],
    now: Cycle,
    routers: Vec<Router>,
    /// The neighbour out of each non-local port, `[node][port]` (unused
    /// at the mesh edge: XY routing never points off it).
    neighbours: Vec<[u16; 4]>,
    /// Every packet in the network with its injection time, held once:
    /// queues and flits carry the slot index. Slots are recycled through
    /// `free_slots`.
    packets: Vec<(NetPacket, Cycle)>,
    free_slots: Vec<u32>,
    /// Per-node packet injection queues (slab slots).
    inject_q: Vec<BoundedQueue<u32>>,
    /// Per-node current packet being flit-injected.
    injecting: Vec<Option<InjectionState>>,
    /// Nodes with a queued packet or an in-progress flit injection.
    injectors: NodeMask,
    /// Routers holding at least one flit.
    live: NodeMask,
    /// The switch-allocation round-robin pointer. It advances by one per
    /// cycle at every router, busy or idle, so all routers share it.
    sa_rr: usize,
    /// Flits in flight on links. Every push is due `link_cycles` after
    /// `now`, so arrival order is push order — the FIFO queue is exactly
    /// the event-heap order.
    links: MonotoneQueue<LinkFlit>,
    /// Scratch buffer for per-router departures, reused across cycles.
    departures: Vec<Departure>,
    delivered: Vec<NetDelivery>,
    stats: MeshStats,
}

impl MeshNetwork {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MeshConfig::validate`].
    pub fn new(cfg: MeshConfig) -> Self {
        let valid = cfg.validate();
        assert!(valid.is_ok(), "{valid:?}");
        let (n, w, h) = (cfg.node_count(), cfg.width, cfg.height);
        let neighbours = |node: usize| {
            let (x, y) = (node % w, node / w);
            // In `Port::index` order: west, east, north, south.
            [
                (x > 0, node.wrapping_sub(1)),
                (x + 1 < w, node + 1),
                (y > 0, node.wrapping_sub(w)),
                (y + 1 < h, node + w),
            ]
            .map(|(inside, at)| if inside { at as u16 } else { u16::MAX })
        };
        MeshNetwork {
            flits: FLITS,
            routers: (0..n).map(|i| Router::new(&cfg, i)).collect(),
            neighbours: (0..n).map(neighbours).collect(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            inject_q: (0..n)
                .map(|_| BoundedQueue::new(cfg.injection_queue))
                .collect(),
            injecting: vec![None; n],
            injectors: NodeMask::new(),
            live: NodeMask::new(),
            sa_rr: 0,
            links: MonotoneQueue::new(),
            departures: Vec::new(),
            delivered: Vec::new(),
            stats: MeshStats::default(),
            now: Cycle::ZERO,
            cfg,
        }
    }

    /// Narrows the links to `fraction` of their baseline width: a packet
    /// carries `ceil(flits / fraction)` flits. Used by the Figure 11
    /// bandwidth sensitivity sweep.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `[0.02, 1]` (the mesh carries at
    /// most 255 flits per packet, and a data packet starts at 5).
    pub fn narrowed(mut self, fraction: f64) -> Self {
        assert!((0.02..=1.0).contains(&fraction));
        self.flits = FLITS.map(|f| ((f as f64) / fraction).ceil() as usize);
        self
    }

    /// Statistics so far, with the routers' power counters summed in.
    pub fn stats(&self) -> MeshStats {
        let mut stats = self.stats;
        for router in &self.routers {
            stats.buffer_writes += router.buffer_writes;
            stats.buffer_reads += router.buffer_reads;
            stats.crossbar_traversals += router.crossbar_traversals;
            stats.allocations += router.allocations;
        }
        stats
    }

    /// Debug builds: recomputes both active sets, every router's masks
    /// and the slab occupancy from the state they summarize, and checks
    /// that no route is held once nothing is left to arrive.
    fn check_active_sets(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut routers_idle = true;
        for (node, router) in self.routers.iter().enumerate() {
            routers_idle &= router.is_idle(); // recomputes the router's masks too
            let injector = !self.inject_q[node].is_empty() || self.injecting[node].is_some();
            assert_eq!(
                (self.live.contains(node), self.injectors.contains(node)),
                (router.has_flits(), injector),
                "(live, injector) at node {node}"
            );
        }
        let quiet = self.links.is_empty() && self.injectors.is_empty();
        assert_eq!(quiet && self.live.is_empty(), quiet && routers_idle);
        let held = (self.packets.len() - self.free_slots.len()) as u64;
        assert_eq!(held, self.stats.injected - self.stats.delivered, "slab");
    }

    /// Runs `cycles` ticks, jumping over cycles in which nothing can move.
    pub fn run(&mut self, cycles: u64) {
        self.advance_to(self.now + cycles);
    }

    fn land_link_flits(&mut self) {
        while let Some((_, l)) = self.links.pop_due(self.now) {
            let router = usize::from(l.router);
            self.routers[router].receive_flit(l.port.into(), l.vc.into(), l.flit, self.now);
            self.live.insert(router);
        }
    }

    fn inject_flits(&mut self) {
        for node in &self.injectors {
            let router = &mut self.routers[node];
            if self.injecting[node].is_none() {
                if let Some(&slot) = self.inject_q[node].front() {
                    if let Some(vc) = router.free_local_vc() {
                        self.inject_q[node].pop();
                        let (packet, _) = &self.packets[slot as usize];
                        self.injecting[node] = Some(InjectionState {
                            slot,
                            dst: packet.dst as u16,
                            next: 0,
                            flits: self.flits[packet.class.lane()] as u8,
                            vc: vc as u8,
                        });
                    }
                }
            }
            if let Some(state) = &mut self.injecting[node] {
                if router.buffer_free(LOCAL, state.vc.into()) > 0 {
                    let flit = Flit::new(state.slot, state.dst, state.next, state.flits);
                    router.receive_flit(LOCAL, state.vc.into(), flit, self.now);
                    self.live.insert(node);
                    state.next += 1;
                }
                if state.next == state.flits {
                    self.injecting[node] = None;
                }
            }
            if self.injecting[node].is_none() && self.inject_q[node].is_empty() {
                self.injectors.remove(node);
            }
        }
    }

    /// VC allocation then switch traversal at every live router.
    ///
    /// One fused pass equals allocating everywhere before switching
    /// anywhere: `allocate` reads and writes only its own router, and the
    /// one thing a switching router changes elsewhere — a credit returned
    /// upstream — `allocate` never reads.
    fn step_routers(&mut self) {
        let mut departures = std::mem::take(&mut self.departures);
        for node in &self.live {
            let router = &mut self.routers[node];
            router.allocate();
            departures.clear();
            router.switch_into(self.now, self.sa_rr, &mut departures);
            if !router.has_flits() {
                self.live.remove(node);
            }
            for &dep in &departures {
                let (in_port, out_port) = (usize::from(dep.in_port), usize::from(dep.out_port));
                // The consumed input-buffer slot frees a credit upstream
                // (injection from the local port is credit-free: the
                // injector checks buffer space directly).
                if in_port != LOCAL {
                    let upstream = usize::from(self.neighbours[node][in_port]);
                    self.routers[upstream].credit_return(in_port ^ 1, dep.in_vc.into());
                }
                if out_port == LOCAL {
                    if dep.flit.kind.is_tail() {
                        self.eject(dep.flit.slot);
                    }
                    continue;
                }
                // Forward over the link to the neighbour, which receives
                // on the opposite port.
                self.stats.link_traversals += 1;
                self.links.push(
                    self.now + self.cfg.link_cycles,
                    LinkFlit {
                        router: self.neighbours[node][out_port],
                        port: dep.out_port ^ 1,
                        vc: dep.out_vc,
                        flit: dep.flit,
                    },
                );
            }
        }
        self.departures = departures;
        self.sa_rr = (self.sa_rr + 1) % (5 * self.cfg.vcs);
    }

    /// Delivers the packet in `slot`, whose tail just left the network.
    fn eject(&mut self, slot: u32) {
        let (packet, enqueued_at) = self.packets[slot as usize];
        self.free_slots.push(slot);
        self.stats.delivered += 1;
        // No component is split out: the whole latency is network time.
        self.delivered.push(NetDelivery {
            packet,
            latency: self.now - enqueued_at,
            retries: 0,
            queuing: 0,
            resolution: 0,
        });
    }
}

impl Interconnect for MeshNetwork {
    /// Queues a packet at its source; `Err` when the node's injection
    /// queue is full.
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        assert!(packet.src < self.routers.len() && packet.dst < self.routers.len());
        if self.inject_q[packet.src].is_full() {
            self.stats.rejected += 1;
            return Err(packet);
        }
        let slot = self.free_slots.pop().unwrap_or(self.packets.len() as u32);
        if slot as usize == self.packets.len() {
            self.packets.push((packet, self.now));
        } else {
            self.packets[slot as usize] = (packet, self.now);
        }
        let queued = self.inject_q[packet.src].push(slot);
        debug_assert_eq!(queued, Ok(()));
        self.stats.injected += 1;
        self.injectors.insert(packet.src);
        Ok(())
    }

    fn tick(&mut self) {
        self.land_link_flits();
        self.inject_flits();
        self.step_routers();
        self.now += 1;
    }

    fn drain(&mut self) -> std::vec::Drain<'_, NetDelivery> {
        self.delivered.drain(..)
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Empty buffers everywhere suffice for the routers: a VC that still
    /// holds a route is waiting for the rest of a packet, and those flits
    /// are in an injector, on a link or in a buffer upstream.
    fn is_idle(&self) -> bool {
        self.check_active_sets();
        self.links.is_empty() && self.injectors.is_empty() && self.live.is_empty()
    }

    fn name(&self) -> &'static str {
        "mesh"
    }

    fn report(&self, cycles: u64) -> NetReport {
        let stats = self.stats();
        NetReport {
            energy_j: MeshPowerModel::paper_default().energy_j(
                &stats,
                self.cfg.node_count(),
                cycles,
            ),
            ..Default::default()
        }
    }

    /// `now` while a packet is queued or streaming in, or some router has
    /// a front flit through its pipeline or awaiting an output VC;
    /// otherwise the next link arrival or pipeline exit, whichever is
    /// first.
    fn next_event_at(&self) -> Option<Cycle> {
        if !self.injectors.is_empty() {
            return Some(self.now);
        }
        let mut next = self.links.peek_time().unwrap_or(NEVER);
        for node in &self.live {
            next = next.min(self.routers[node].next_event_at(self.now));
        }
        Some(next)
    }

    /// Ticks only the cycles at or after each
    /// [`next_event_at`](Interconnect::next_event_at) bound.
    ///
    /// Identical to calling [`tick`](Interconnect::tick) `target - now`
    /// times: in a cycle below the bound no flit lands, none is injected,
    /// no head wants an output VC and no front flit is through its
    /// pipeline, so the tick would change nothing but the shared
    /// switch-allocation pointer, which advances by one — replayed here
    /// for the whole span.
    fn advance_to(&mut self, target: Cycle) {
        while self.now < target {
            let next = self.next_event_at().map_or(target, |at| at.min(target));
            if next > self.now {
                let span = next - self.now;
                let total = 5 * self.cfg.vcs as u64;
                self.sa_rr = ((self.sa_rr as u64 + span % total) % total) as usize;
                self.now = next;
            } else {
                self.tick();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::hop_distance;
    use fsoi_sim::packet::PacketClass;

    fn meta(src: usize, dst: usize, tag: u64) -> NetPacket {
        NetPacket::new(src, dst, PacketClass::Meta, tag)
    }

    fn data(src: usize, dst: usize, tag: u64) -> NetPacket {
        NetPacket::new(src, dst, PacketClass::Data, tag)
    }

    fn run_until_idle(net: &mut MeshNetwork, max: u64) -> Vec<NetDelivery> {
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
    fn single_meta_packet_latency_scales_with_hops() {
        // One hop: inject, 2 routers × 4 cycles + 1 link + serialization.
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        net.inject(meta(0, 1, 7)).unwrap();
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 1);
        let lat1 = out[0].latency;
        // Diagonal: 6 hops → 7 routers.
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        net.inject(meta(0, 15, 7)).unwrap();
        let out = run_until_idle(&mut net, 200);
        let lat6 = out[0].latency;
        assert!(lat6 > lat1, "{lat6} > {lat1}");
        // Each extra hop costs router_cycles + link_cycles = 5.
        assert_eq!(
            lat6 - lat1,
            5 * (hop_distance(0, 15, 4) - hop_distance(0, 1, 4)) as u64
        );
    }

    #[test]
    fn data_packet_adds_serialization() {
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        net.inject(meta(0, 1, 0)).unwrap();
        let meta_lat = run_until_idle(&mut net, 100)[0].latency;
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        net.inject(data(0, 1, 0)).unwrap();
        let data_lat = run_until_idle(&mut net, 100)[0].latency;
        // Four extra body/tail flits stream at 1/cycle.
        assert_eq!(data_lat - meta_lat, 4);
    }

    #[test]
    fn narrowed_links_carry_more_flits() {
        // At 0.9 of the width a meta packet needs ceil(1 / 0.9) = 2 flits
        // and a data packet ceil(5 / 0.9) = 6: one more flit each, so each
        // arrives exactly one cycle after its full-width twin.
        for packet in [meta(0, 15, 3), data(0, 15, 3)] {
            let latency = |mut net: MeshNetwork| {
                net.inject(packet).unwrap();
                let out = run_until_idle(&mut net, 200);
                assert_eq!(out[0].packet, packet);
                out[0].latency
            };
            let full = latency(MeshNetwork::new(MeshConfig::nodes(16)));
            let narrow = latency(MeshNetwork::new(MeshConfig::nodes(16)).narrowed(0.9));
            assert_eq!(narrow, full + 1, "{:?}", packet.class);
        }
    }

    #[test]
    fn all_to_one_delivers_everything() {
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        for src in 1..16 {
            net.inject(data(src, 0, src as u64)).unwrap();
        }
        let out = run_until_idle(&mut net, 2_000);
        assert_eq!(out.len(), 15);
        assert!(net.is_idle());
    }

    #[test]
    fn uniform_random_traffic_drains() {
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        let mut rng = fsoi_sim::rng::Xoshiro256StarStar::new(5);
        let mut wanted = 0;
        for _ in 0..200 {
            let src = rng.next_below(16) as usize;
            let mut dst = rng.next_below(15) as usize;
            if dst >= src {
                dst += 1;
            }
            let pkt = if rng.bernoulli(0.5) {
                meta(src, dst, 0)
            } else {
                data(src, dst, 0)
            };
            if net.inject(pkt).is_ok() {
                wanted += 1;
            }
            net.tick();
        }
        let mut out = net.drain().len();
        for _ in 0..10_000 {
            net.tick();
            out += net.drain().len();
            if net.is_idle() {
                break;
            }
        }
        assert_eq!(out as u64, wanted, "every accepted packet is drained");
        assert_eq!(net.stats().delivered, wanted);
        assert!(net.is_idle(), "network must drain");
    }

    #[test]
    fn aggressive_router_is_faster() {
        let mut slow = MeshNetwork::new(MeshConfig::nodes(16));
        slow.inject(meta(0, 15, 0)).unwrap();
        let slow_lat = run_until_idle(&mut slow, 200)[0].latency;
        let mut fast = MeshNetwork::new(MeshConfig {
            router_cycles: 1,
            ..MeshConfig::nodes(16)
        });
        fast.inject(meta(0, 15, 0)).unwrap();
        let fast_lat = run_until_idle(&mut fast, 200)[0].latency;
        assert!(fast_lat < slow_lat, "{fast_lat} < {slow_lat}");
    }

    #[test]
    fn injection_queue_overflow_rejects() {
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        let mut ok = 0;
        for i in 0..40 {
            if net.inject(data(0, 15, i)).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 16, "injection queue capacity");
        assert_eq!(net.stats().rejected, 24);
    }

    #[test]
    fn power_counters_are_current_without_a_harvest() {
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        net.inject(data(0, 15, 0)).unwrap();
        run_until_idle(&mut net, 200);
        let s = net.stats();
        // 5 flits × 7 routers of buffer write/read and crossbar.
        assert_eq!(s.buffer_writes, 35);
        assert_eq!(s.buffer_reads, 35);
        assert_eq!(s.crossbar_traversals, 35);
        assert_eq!(s.link_traversals, 30);
        assert!(s.allocations >= 6);
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = MeshNetwork::new(MeshConfig::nodes(16));
        let _ = net.inject(meta(3, 3, 0));
    }
}
