//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions from outside, under a span of its own.

use crate::cells::{Cell, CellWorkload, Pins, MAX_CYCLES};
use crate::host::{ns_per_call, wall_ns};
use crate::net::{drive, DriveStats, Traffic};
use crate::trace::Tracer;
use crate::{Metrics, Size};
use fsoi_cmp::cache::CellCache;
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::system::CmpSystem;
use fsoi_coherence::directory::Directory;
use fsoi_coherence::l1::L1Controller;
use fsoi_coherence::protocol::{CoherenceMsg, Grant, LineAddr, ReqType};
use fsoi_optics::crossbar::CrossbarLossModel;
use fsoi_optics::link::OpticalLink;
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::EventQueue;
use fsoi_sim::Cycle;
use std::hint::black_box;
use std::path::Path;

/// Timing repetitions per probe; each reports its median.
const REPS: usize = 5;

/// Runs `f` under a span named after the probe.
fn probe<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
    let span = tr.begin(name, "");
    let r = f(tr);
    tr.end(span);
    r
}

/// Every probe that does not depend on the workload.
pub fn run_all(m: &mut Metrics, seed: u64, size: Size, out_dir: &Path, tr: &mut Tracer) {
    probe(tr, "probe.optics", |_| optics(m, size));
    probe(tr, "probe.net", |tr| networks(m, seed, size, tr));
    probe(tr, "probe.coherence", |_| coherence(m, size));
    probe(tr, "probe.cmp.new", |_| construction(m, seed, size));
    probe(tr, "probe.cmp.cache", |tr| cache(m, seed, out_dir, tr));
    probe(tr, "probe.sim", |_| sim(m, size));
}

fn optics(m: &mut Metrics, size: Size) {
    let link = OpticalLink::paper_default();
    let iters = size.scaled(2_000);
    m.set(
        "optics.link_budget_ns",
        ns_per_call(REPS, iters, || black_box(&link).budget()),
    );
    m.set(
        "optics.validate_ns",
        ns_per_call(REPS, iters, || black_box(&link).validate(1e-10)),
    );
    let xbar = CrossbarLossModel::paper_default();
    m.set(
        "optics.crossbar_budget_ns_256",
        ns_per_call(REPS, iters, || black_box(&xbar).budget(256, 1e-10)),
    );
}

/// The storm's traffic: 64 nodes, p = 0.02 per node per cycle, 5 % of
/// packets to a hotspot that moves every 1000 cycles. Below the FSOI
/// saturation knee (see README: p = 0.03 with a fixed hotspot is past it).
pub fn storm_traffic(size: Size) -> Traffic {
    Traffic {
        nodes: 64,
        cycles: size.scaled(200_000),
        p: 0.02,
        hotspot_share: 0.05,
        hotspot_period: 1_000,
    }
}

/// Sets the `core.*` metrics from a drive of the FSOI network.
pub fn core_metrics(
    m: &mut Metrics,
    net: &dyn fsoi_cmp::interconnect::Interconnect,
    s: &DriveStats,
    wall_ns: u64,
) {
    m.set("core.ns_per_cycle", wall_ns as f64 / s.cycles.max(1) as f64);
    m.set(
        "core.ns_per_packet",
        wall_ns as f64 / s.delivered.max(1) as f64,
    );
    m.set("core.packets", s.delivered as f64);
    m.set("core.collision_rate_meta", net.collision_rate(0));
    m.set("core.collision_rate_data", net.collision_rate(1));
    m.set(
        "core.retries_per_packet",
        s.retries as f64 / s.delivered.max(1) as f64,
    );
    m.set("core.inject_refused", s.refused() as f64);
    m.set("core.generator_lag_cycles", s.lag_cycles() as f64);
    m.set(
        "core.ff_skip_share",
        s.skipped_cycles as f64 / s.cycles.max(1) as f64,
    );
}

/// One storm segment through the FSOI network: the `core.*` metrics of the
/// workloads that are not `fsoi_storm` itself.
pub fn core_segment(m: &mut Metrics, seed: u64, size: Size, tr: &mut Tracer) {
    probe(tr, "probe.core", |tr| {
        let traffic = storm_traffic(size);
        let schedule = traffic.generate(seed);
        let mut net = SystemConfig::paper_n(64, NetworkKind::fsoi(64))
            .with_seed(seed)
            .build_network();
        let t0 = wall_ns();
        let stats = drive(net.as_mut(), traffic.once(&schedule), None, tr);
        core_metrics(m, net.as_ref(), &stats, wall_ns() - t0);
    });
}

/// Mesh, ring and crossbar stepped through `Interconnect` by one uniform
/// schedule per size (p = 0.01, 100 k cycles). None of the three bounds
/// its next event, so the loop ticks every cycle while packets fly.
fn networks(m: &mut Metrics, seed: u64, size: Size, tr: &mut Tracer) {
    for nodes in [16, 64, 256] {
        let traffic = Traffic {
            nodes,
            cycles: size.scaled(100_000),
            p: 0.01,
            hotspot_share: 0.0,
            hotspot_period: u64::MAX,
        };
        let schedule = traffic.generate(seed);
        let mut step = |kind: NetworkKind| {
            let mut net = SystemConfig::paper_n(nodes, kind).build_network();
            let t0 = wall_ns();
            let stats = drive(net.as_mut(), traffic.once(&schedule), None, tr);
            let wall = (wall_ns() - t0) as f64;
            (
                wall / stats.cycles.max(1) as f64,
                wall / stats.delivered.max(1) as f64,
            )
        };
        let (per_cycle, per_packet) = step(NetworkKind::mesh(nodes));
        m.set(&format!("mesh.ns_per_cycle_{nodes}"), per_cycle);
        if nodes == 64 {
            m.set("mesh.ns_per_packet_64", per_packet);
        }
        if nodes >= 64 {
            m.set(
                &format!("ring.ns_per_cycle_{nodes}"),
                step(NetworkKind::ring(nodes)).0,
            );
            m.set(
                &format!("ring.xbar_ns_per_cycle_{nodes}"),
                step(NetworkKind::crossbar(nodes)).0,
            );
        }
    }
}

/// A read miss end to end: Req(Sh) → MemReq → MemAck → Data → fill.
fn read_miss_roundtrips(n: u64) -> u64 {
    const MEM: usize = 1 << 20;
    let mut l1 = L1Controller::new(0, 256, 2, 32);
    l1.set_home_nodes(1);
    let mut dir = Directory::new(0, MEM, 4096);
    let mut fills = 0;
    for i in 0..n {
        let line = LineAddr((i % 512) * 32);
        let acc = l1.read(line);
        if acc.hit {
            continue;
        }
        for out in acc.out {
            for o in dir.handle(0, out.msg).expect("protocol ok") {
                let replies = if o.to == MEM {
                    // Memory answers at once here.
                    dir.handle(MEM, CoherenceMsg::MemAck { line })
                        .expect("protocol ok")
                } else {
                    vec![o]
                };
                for r in replies {
                    fills += l1.handle(r.msg).expect("protocol ok").completed.is_some() as u64;
                }
            }
        }
    }
    fills
}

/// One invalidation round: a line shared by nodes `1..sharers`, upgraded by
/// one of them; returns the invalidations sent.
fn upgrade_round(sharers: usize) -> usize {
    const MEM: usize = 1 << 20;
    let mut dir = Directory::new(0, MEM, 4096);
    let line = LineAddr(0x40);
    let req = |kind| CoherenceMsg::Req { kind, line };
    dir.handle(1, req(ReqType::Ex)).expect("protocol ok");
    dir.handle(MEM, CoherenceMsg::MemAck { line })
        .expect("protocol ok");
    dir.handle(2, req(ReqType::Sh)).expect("protocol ok");
    dir.handle(
        1,
        CoherenceMsg::DwgAck {
            line,
            with_data: true,
        },
    )
    .expect("protocol ok");
    for s in 3..sharers {
        dir.handle(s, req(ReqType::Sh)).expect("protocol ok");
    }
    let invs = dir.handle(2, req(ReqType::Upg)).expect("protocol ok");
    let n = invs.len();
    for v in invs {
        dir.handle(
            v.to,
            CoherenceMsg::InvAck {
                line,
                with_data: false,
            },
        )
        .expect("protocol ok");
    }
    n
}

fn coherence(m: &mut Metrics, size: Size) {
    const OPS: u64 = 1_000;
    let iters = size.scaled(200);
    m.set(
        "coherence.read_miss_roundtrip_ns",
        ns_per_call(REPS, iters, || read_miss_roundtrips(black_box(OPS))) / OPS as f64,
    );
    let mut l1 = L1Controller::new(0, 256, 2, 32);
    l1.set_home_nodes(1);
    let line = LineAddr(0x40);
    l1.read(line);
    let _ = l1.handle(CoherenceMsg::Data {
        grant: Grant::Shared,
        line,
    });
    m.set(
        "coherence.l1_hit_ns",
        ns_per_call(REPS, size.scaled(200_000), || l1.read(black_box(line)).hit),
    );
    m.set(
        "coherence.upgrade_round_ns_16",
        ns_per_call(REPS, size.scaled(2_000), || upgrade_round(black_box(16))),
    );
    m.set(
        "coherence.upgrade_round_ns_256",
        ns_per_call(REPS, iters, || upgrade_round(black_box(256))),
    );
}

/// The four non-ideal networks at `nodes`, one small `mp` cell each.
fn probe_cells(nodes: usize, seed: u64) -> Vec<Cell> {
    CellWorkload {
        nodes,
        apps: &["mp"],
        networks: &["fsoi", "mesh", "ring", "crossbar"],
        ops_per_core: 100,
        pins: Pins::None,
    }
    .cells(seed)
}

/// Constructing a `CmpSystem` at each size, and forking one instead.
fn construction(m: &mut Metrics, seed: u64, size: Size) {
    for (nodes, reps) in [(16, 20), (64, 5), (256, 1)] {
        let cells = probe_cells(nodes, seed);
        let reps = size.scaled(reps);
        let t0 = wall_ns();
        for _ in 0..reps {
            for c in &cells {
                black_box(CmpSystem::new(c.config.clone(), c.app));
            }
        }
        let per_cell_ms = (wall_ns() - t0) as f64 / 1e6 / (reps * cells.len() as u64) as f64;
        m.set(&format!("cmp.new_ms_per_cell_{nodes}"), per_cell_ms);
    }
    let cells = probe_cells(16, seed);
    let templates: Vec<CmpSystem> = cells
        .iter()
        .map(|c| CmpSystem::new(c.config.clone(), c.app))
        .collect();
    let reps = size.scaled(20);
    let t0 = wall_ns();
    for rep in 0..reps {
        for t in &templates {
            black_box(t.fork(seed + rep));
        }
    }
    let per_cell_ms = (wall_ns() - t0) as f64 / 1e6 / (reps * templates.len() as u64) as f64;
    m.set("cmp.fork_ms_per_cell_16", per_cell_ms);
}

/// The cell cache over `paper16`'s first 16 cells in a fresh directory:
/// a store (miss + write) and a hit (read + parse) per cell. The reports
/// are made beforehand, so neither figure contains a simulation.
fn cache(m: &mut Metrics, seed: u64, out_dir: &Path, tr: &mut Tracer) {
    let mut cells = CellWorkload {
        nodes: 16,
        apps: &[],
        networks: &["fsoi", "mesh", "L0", "Lr1", "Lr2"],
        ops_per_core: 300,
        pins: Pins::None,
    }
    .cells(seed);
    cells.truncate(16);
    let reports: Vec<_> = cells
        .iter()
        .map(|c| CmpSystem::new(c.config.clone(), c.app).run(MAX_CYCLES))
        .collect();
    let dir = out_dir.join(format!("cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CellCache::at(&dir);
    for (span, metric) in [
        ("cache.store", "cmp.cache_store_ms_per_cell"),
        ("cache.hit", "cmp.cache_hit_ms_per_cell"),
    ] {
        let id = tr.begin(span, "");
        let t0 = wall_ns();
        for (c, r) in cells.iter().zip(&reports) {
            black_box(cache.run_or(&c.config, &c.app, MAX_CYCLES, || r.clone()));
        }
        m.set(metric, (wall_ns() - t0) as f64 / 1e6 / cells.len() as f64);
        tr.end(id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn sim(m: &mut Metrics, size: Size) {
    const EVENTS: u64 = 4_096;
    let mut rng = crate::net::SplitMix64::new(7);
    let times: Vec<u64> = (0..EVENTS).map(|_| rng.below(10_000)).collect();
    let per_fill = ns_per_call(REPS, size.scaled(200), || {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle(t), i);
        }
        let mut sum = 0;
        while let Some((_, i)) = q.pop() {
            sum += i;
        }
        sum
    });
    m.set("sim.event_queue_ns_per_op", per_fill / (2 * EVENTS) as f64);

    // A 256-node sharer mask holding every fourth node.
    let mask: NodeMask = (0..256).step_by(4).collect();
    m.set(
        "sim.nodemask_iter_ns_256",
        ns_per_call(REPS, size.scaled(200_000), || {
            black_box(&mask).iter().sum::<usize>()
        }),
    );
}
