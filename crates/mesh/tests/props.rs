//! Property tests for the mesh's event-driven tick (on the in-repo
//! `fsoi-check` harness).
//!
//! [`ScanMesh`] below is the slow reference: the same router pipeline,
//! arbitration and wiring, but every cycle it looks at every node and
//! every one of the `5 × vcs` input buffers of every router to find what
//! can move — no masks, no live sets, a 64-byte flit that carries its
//! packet, a round-robin pointer per router. `MeshNetwork` must be
//! indistinguishable from it.

use fsoi_check::{checker, select, vec_of};
use fsoi_mesh::network::MeshStats;
use fsoi_mesh::packet::{FlitKind, MeshPacket};
use fsoi_mesh::routing::{coords, node_at, xy_route, Port};
use fsoi_mesh::{MeshConfig, MeshNetwork};
use fsoi_sim::Cycle;
use std::collections::VecDeque;

const LOCAL: usize = Port::Local.index();

#[derive(Clone, Copy)]
struct ScanFlit {
    packet: MeshPacket,
    kind: FlitKind,
}

#[derive(Default)]
struct ScanVc {
    buf: VecDeque<(ScanFlit, Cycle)>,
    route: Option<usize>,
    out_vc: Option<usize>,
}

struct ScanRouter {
    inputs: Vec<Vec<ScanVc>>,  // [port][vc]
    out_alloc: Vec<Vec<bool>>, // [port][vc]
    credits: Vec<Vec<usize>>,  // [port][vc]
    va_rr: [usize; 5],
    sa_rr: usize,
}

/// (flit, out port, out VC, in port, in VC)
type ScanDeparture = (ScanFlit, usize, usize, usize, usize);

struct ScanMesh {
    cfg: MeshConfig,
    now: Cycle,
    routers: Vec<ScanRouter>,
    inject_q: Vec<VecDeque<MeshPacket>>,
    injecting: Vec<Option<(VecDeque<ScanFlit>, usize)>>,
    /// (due, router, in port, vc, flit), in push order.
    links: VecDeque<(Cycle, usize, usize, usize, ScanFlit)>,
    delivered: Vec<(u64, Cycle)>,
    stats: MeshStats,
    next_id: u64,
}

fn neighbour(node: usize, port: usize, width: usize) -> usize {
    let (x, y) = coords(node, width);
    match Port::ALL[port] {
        Port::East => node_at(x + 1, y, width),
        Port::West => node_at(x - 1, y, width),
        Port::South => node_at(x, y + 1, width),
        Port::North => node_at(x, y - 1, width),
        Port::Local => unreachable!(),
    }
}

impl ScanMesh {
    fn new(cfg: MeshConfig) -> Self {
        let n = cfg.node_count();
        ScanMesh {
            routers: (0..n)
                .map(|_| ScanRouter {
                    inputs: (0..5)
                        .map(|_| (0..cfg.vcs).map(|_| ScanVc::default()).collect())
                        .collect(),
                    out_alloc: vec![vec![false; cfg.vcs]; 5],
                    credits: vec![vec![cfg.vc_depth; cfg.vcs]; 5],
                    va_rr: [0; 5],
                    sa_rr: 0,
                })
                .collect(),
            inject_q: vec![VecDeque::new(); n],
            injecting: (0..n).map(|_| None).collect(),
            links: VecDeque::new(),
            delivered: Vec::new(),
            stats: MeshStats::default(),
            next_id: 0,
            now: Cycle::ZERO,
            cfg,
        }
    }

    fn receive(&mut self, router: usize, port: usize, vc: usize, flit: ScanFlit) {
        let ch = &mut self.routers[router].inputs[port][vc];
        assert!(ch.buf.len() < self.cfg.vc_depth, "credit violation");
        ch.buf.push_back((flit, self.now));
        self.stats.buffer_writes += 1;
    }

    fn inject_flits(&mut self) {
        for node in 0..self.routers.len() {
            if self.injecting[node].is_none() {
                if let Some(&pkt) = self.inject_q[node].front() {
                    let free = self.routers[node].inputs[LOCAL]
                        .iter()
                        .position(|ch| ch.buf.is_empty() && ch.route.is_none());
                    if let Some(vc) = free {
                        self.inject_q[node].pop_front();
                        let flits = (0..pkt.flits)
                            .map(|seq| ScanFlit {
                                packet: pkt,
                                kind: match (seq, pkt.flits) {
                                    (0, 1) => FlitKind::HeadTail,
                                    (0, _) => FlitKind::Head,
                                    (s, n) if s == n - 1 => FlitKind::Tail,
                                    _ => FlitKind::Body,
                                },
                            })
                            .collect();
                        self.injecting[node] = Some((flits, vc));
                    }
                }
            }
            if let Some((flits, vc)) = &mut self.injecting[node] {
                let vc = *vc;
                let mut next = None;
                if self.routers[node].inputs[LOCAL][vc].buf.len() < self.cfg.vc_depth {
                    next = flits.pop_front();
                }
                let done = flits.is_empty();
                if let Some(flit) = next {
                    self.receive(node, LOCAL, vc, flit);
                }
                if done {
                    self.injecting[node] = None;
                }
            }
        }
    }

    fn allocate(&mut self, node: usize) {
        let (vcs, width) = (self.cfg.vcs, self.cfg.width);
        let r = &mut self.routers[node];
        for port in 0..5 {
            for vc in 0..vcs {
                let ch = &mut r.inputs[port][vc];
                let Some(&(flit, _)) = ch.buf.front() else {
                    continue;
                };
                if !flit.kind.is_head() {
                    continue;
                }
                let out = *ch
                    .route
                    .get_or_insert_with(|| xy_route(node, flit.packet.dst, width).index());
                if ch.out_vc.is_some() {
                    continue;
                }
                if out == LOCAL {
                    ch.out_vc = Some(0);
                    continue;
                }
                let start = r.va_rr[out];
                let grant = (0..vcs)
                    .map(|k| (start + k) % vcs)
                    .find(|&cand| !r.out_alloc[out][cand]);
                if let Some(g) = grant {
                    r.out_alloc[out][g] = true;
                    r.va_rr[out] = (g + 1) % vcs;
                    ch.out_vc = Some(g);
                    self.stats.allocations += 1;
                }
            }
        }
    }

    fn switch(&mut self, node: usize) -> Vec<ScanDeparture> {
        let (vcs, now, router_cycles) = (self.cfg.vcs, self.now, self.cfg.router_cycles);
        let total = 5 * vcs;
        let r = &mut self.routers[node];
        let mut departures = Vec::new();
        let (mut out_taken, mut in_taken) = ([false; 5], [false; 5]);
        for k in 0..total {
            let idx = (r.sa_rr + k) % total;
            let (port, vc) = (idx / vcs, idx % vcs);
            let ch = &mut r.inputs[port][vc];
            let Some(&(flit, arr)) = ch.buf.front() else {
                continue;
            };
            let (Some(out), Some(ovc)) = (ch.route, ch.out_vc) else {
                continue;
            };
            let wait = if flit.kind.is_head() {
                router_cycles
            } else {
                1
            };
            if in_taken[port] || out_taken[out] || now < arr + wait {
                continue;
            }
            if out != LOCAL {
                if r.credits[out][ovc] == 0 {
                    continue;
                }
                r.credits[out][ovc] -= 1;
            }
            ch.buf.pop_front();
            self.stats.buffer_reads += 1;
            self.stats.crossbar_traversals += 1;
            if flit.kind.is_tail() {
                if out != LOCAL {
                    r.out_alloc[out][ovc] = false;
                }
                ch.route = None;
                ch.out_vc = None;
            }
            out_taken[out] = true;
            in_taken[port] = true;
            departures.push((flit, out, ovc, port, vc));
        }
        r.sa_rr = (r.sa_rr + 1) % total;
        departures
    }
}

/// What the properties drive and observe, on either implementation.
trait Mesh {
    fn inject(&mut self, packet: MeshPacket) -> bool;
    fn tick(&mut self);
    fn is_idle(&self) -> bool;
    fn now(&self) -> Cycle;
    /// Deliveries so far as `(id, delivered_at)`, and the statistics with
    /// the power counters harvested.
    fn outcome(&mut self) -> (Vec<(u64, Cycle)>, &MeshStats);
}

impl Mesh for ScanMesh {
    fn inject(&mut self, mut packet: MeshPacket) -> bool {
        packet.id = self.next_id;
        packet.enqueued_at = self.now;
        if self.inject_q[packet.src].len() == self.cfg.injection_queue {
            self.stats.rejected += 1;
            return false;
        }
        self.inject_q[packet.src].push_back(packet);
        self.next_id += 1;
        self.stats.injected += 1;
        true
    }

    fn tick(&mut self) {
        while self.links.front().is_some_and(|l| l.0 <= self.now) {
            let (_, router, port, vc, flit) = self.links.pop_front().unwrap();
            self.receive(router, port, vc, flit);
        }
        self.inject_flits();
        for node in 0..self.routers.len() {
            self.allocate(node);
        }
        let width = self.cfg.width;
        for node in 0..self.routers.len() {
            for (flit, out, ovc, in_port, in_vc) in self.switch(node) {
                if in_port != LOCAL {
                    let upstream = neighbour(node, in_port, width);
                    let up_out = Port::ALL[in_port].opposite().index();
                    self.routers[upstream].credits[up_out][in_vc] += 1;
                }
                if out == LOCAL {
                    if flit.kind.is_tail() {
                        self.stats.delivered += 1;
                        let lat = (self.now - flit.packet.enqueued_at) as f64;
                        self.stats.latency.record(lat);
                        if flit.packet.is_meta() {
                            self.stats.meta_latency.record(lat);
                        } else {
                            self.stats.data_latency.record(lat);
                        }
                        self.delivered.push((flit.packet.id, self.now));
                    }
                    continue;
                }
                self.stats.link_traversals += 1;
                self.links.push_back((
                    self.now + self.cfg.link_cycles,
                    neighbour(node, out, width),
                    Port::ALL[out].opposite().index(),
                    ovc,
                    flit,
                ));
            }
        }
        self.now += 1;
    }

    fn is_idle(&self) -> bool {
        self.links.is_empty()
            && self.inject_q.iter().all(VecDeque::is_empty)
            && self.injecting.iter().all(Option::is_none)
            && self.routers.iter().all(|r| {
                r.inputs
                    .iter()
                    .flatten()
                    .all(|ch| ch.buf.is_empty() && ch.route.is_none())
            })
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn outcome(&mut self) -> (Vec<(u64, Cycle)>, &MeshStats) {
        (self.delivered.clone(), &self.stats)
    }
}

/// `MeshNetwork` with every delivery kept, so the whole stream compares.
struct Fast {
    net: MeshNetwork,
    delivered: Vec<(u64, Cycle)>,
}

impl Fast {
    fn new(cfg: MeshConfig) -> Self {
        Fast {
            net: MeshNetwork::new(cfg),
            delivered: Vec::new(),
        }
    }

    fn collect(&mut self) {
        let out = self.net.drain_delivered();
        self.delivered
            .extend(out.iter().map(|d| (d.packet.id, d.delivered_at)));
    }
}

impl Mesh for Fast {
    fn inject(&mut self, packet: MeshPacket) -> bool {
        self.net.inject(packet).is_ok()
    }

    fn tick(&mut self) {
        self.net.tick();
        self.collect();
    }

    fn is_idle(&self) -> bool {
        self.net.is_idle()
    }

    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn outcome(&mut self) -> (Vec<(u64, Cycle)>, &MeshStats) {
        self.collect();
        self.net.harvest_power_counters();
        (self.delivered.clone(), self.net.stats())
    }
}

/// One step of an injection script: wait `gap` cycles, then inject.
/// `kind` 0–2 is one meta packet `src → dst`, 3–5 one data packet, 6 an
/// all-to-one burst (every other node sends `dst` a data packet), 7 a
/// queue-overflow burst (`src` offers 20 data packets at once to a
/// 16-deep queue). A `gap` of 11 stands for 200 cycles, long enough for
/// most of the traffic so far to drain.
type Op = (u64, u64, u64, u64);

fn gap_cycles(gap: u64) -> u64 {
    if gap == 11 {
        200
    } else {
        gap
    }
}

fn inject_op(net: &mut impl Mesh, nodes: usize, &(_, s, d, kind): &Op) -> usize {
    let src = s as usize % nodes;
    let dst = match d as usize % nodes {
        d if d == src => (src + 1) % nodes,
        d => d,
    };
    let offered: Vec<MeshPacket> = match kind {
        0..=2 => vec![MeshPacket::meta(src, dst, s)],
        3..=5 => vec![MeshPacket::data(src, dst, s)],
        6 => (0..nodes)
            .filter(|&n| n != dst)
            .map(|n| MeshPacket::data(n, dst, s))
            .collect(),
        _ => (0..20).map(|i| MeshPacket::data(src, dst, i)).collect(),
    };
    offered.into_iter().filter(|&p| net.inject(p)).count()
}

/// (nodes, vcs, vc_depth, (router_cycles, link_cycles))
type Shape = (usize, usize, usize, (u64, u64));

fn shape() -> impl fsoi_check::Gen<Value = Shape> {
    (
        select(&[4usize, 16, 64]),
        1usize..7,
        1usize..13,
        (1u64..7, 1u64..4),
    )
}

fn script() -> impl fsoi_check::Gen<Value = Vec<Op>> {
    vec_of((0u64..12, 0u64..64, 0u64..64, 0u64..8), 1..32)
}

fn config(&(nodes, vcs, vc_depth, (router_cycles, link_cycles)): &Shape) -> MeshConfig {
    MeshConfig {
        vcs,
        vc_depth,
        router_cycles,
        link_cycles,
        ..MeshConfig::nodes(nodes)
    }
}

/// Runs `script` on `net` cycle by cycle, then ticks until it drains.
fn play(mut net: impl Mesh, nodes: usize, script: &[Op]) -> (Vec<(u64, Cycle)>, MeshStats, Cycle) {
    let mut accepted = 0;
    for op in script {
        for _ in 0..gap_cycles(op.0) {
            net.tick();
        }
        accepted += inject_op(&mut net, nodes, op);
    }
    while !net.is_idle() {
        assert!(net.now() < Cycle(200_000), "the script must drain");
        net.tick();
    }
    let now = net.now();
    let (delivered, stats) = net.outcome();
    assert_eq!(delivered.len(), accepted, "every accepted packet arrives");
    (delivered, stats.clone(), now)
}

/// The event-driven tick is the full scan: same deliveries at the same
/// cycles in the same order, same value in every statistic (so the same
/// energy), same drain time — for any router shape and any traffic.
#[test]
fn event_driven_equals_full_scan() {
    checker!().check(
        "event_driven_equals_full_scan",
        (shape(), script()),
        |(shape, script)| {
            let cfg = config(shape);
            let fast = play(Fast::new(cfg), shape.0, script);
            let scan = play(ScanMesh::new(cfg), shape.0, script);
            assert_eq!(fast.0, scan.0, "delivery stream");
            assert_eq!(fast.1, scan.1, "statistics");
            assert_eq!(fast.2, scan.2, "drain time");
        },
    );
}

/// Fast-forwarding (`run`/`advance_to`, which jump the clock to the next
/// cycle in which a flit can move) is indistinguishable from ticking
/// every cycle: same deliveries, same statistics, same final clock.
#[test]
fn fast_forward_equals_cycle_by_cycle() {
    checker!().check(
        "fast_forward_equals_cycle_by_cycle",
        (shape(), script()),
        |(shape, script)| {
            let drive = |fast: bool| {
                let mut net = Fast::new(config(shape));
                let advance = |net: &mut Fast, cycles: u64| {
                    if fast {
                        net.net.run(cycles);
                    } else {
                        (0..cycles).for_each(|_| net.net.tick());
                    }
                };
                for op in script {
                    advance(&mut net, gap_cycles(op.0));
                    inject_op(&mut net, shape.0, op);
                }
                advance(&mut net, 30_000);
                assert!(net.is_idle(), "injected traffic must drain");
                let now = net.now();
                let (delivered, stats) = net.outcome();
                (delivered, stats.clone(), now)
            };
            assert_eq!(drive(true), drive(false), "fast-forward must be exact");
        },
    );
}
