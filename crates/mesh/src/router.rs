//! A wormhole virtual-channel router with the canonical 4-stage pipeline.
//!
//! Each input port has `V` virtual channels of `D`-flit buffers. A head
//! flit passes route computation (RC), virtual-channel allocation (VA),
//! switch allocation (SA), and switch traversal (ST) — 4 cycles in the
//! baseline — while body flits inherit the route and VC and stream one per
//! cycle behind it. Credit-based flow control bounds each downstream VC to
//! its buffer depth; XY routing keeps the network deadlock-free.
//!
//! The router exposes its state machine to the
//! [`MeshNetwork`](crate::network::MeshNetwork), which owns inter-router
//! wiring (links and credit returns).
//!
//! Per-VC state is flat, indexed `port * vcs + vc`, under `u32` masks
//! (see the `Router` fields) that let a cycle visit only the VCs that can
//! act in it — in the order a scan of all `5 × vcs` buffers reaches them,
//! so arbitration is the scan's. A VC outside `need_va` has nothing for
//! `Router::allocate` to do and one outside `ready & !need_va`
//! cannot leave in `Router::switch_into`: the scan would look at it
//! and move on without touching state (DESIGN.md, "Mesh hot path").

use crate::config::MeshConfig;
use crate::packet::Flit;
use crate::routing::{xy_route, Port};
use fsoi_sim::Cycle;
use std::collections::VecDeque;

pub(crate) const LOCAL: usize = Port::Local.index();
pub(crate) const NEVER: Cycle = Cycle(u64::MAX);
const NONE: u8 = u8::MAX;

/// One virtual channel of one input port.
#[derive(Debug)]
struct VirtualChannel {
    /// Buffered flits with their arrival times.
    buf: VecDeque<(Flit, Cycle)>,
    /// Cycle the front flit clears the pipeline: its arrival plus
    /// `router_cycles` for a head, plus 1 for a body flit streaming
    /// behind. Meaningful while the buffer is occupied.
    front_ready: Cycle,
    /// Output port chosen by RC for the packet in progress, or `NONE`.
    route: u8,
    /// Downstream VC granted by VA, or `NONE`.
    out_vc: u8,
}

/// A flit leaving the router this cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Departure {
    /// The flit.
    pub flit: Flit,
    /// Output port index.
    pub out_port: u8,
    /// Downstream VC.
    pub out_vc: u8,
    /// Input port it came from (for credit return upstream).
    pub in_port: u8,
    /// Input VC it came from.
    pub in_vc: u8,
}

/// The router proper.
#[derive(Debug)]
pub(crate) struct Router {
    node: usize,
    vcs: usize,
    vc_depth: usize,
    router_cycles: u64,
    /// Input VCs, `[port * vcs + vc]`.
    inputs: Vec<VirtualChannel>,
    /// Credits toward the downstream input buffer of each output VC,
    /// `[port * vcs + vc]`.
    credits: Vec<usize>,
    /// Output VCs currently held by a packet, bit `port * vcs + vc`.
    out_busy: u32,
    /// XY output port per destination node.
    route_to: Vec<u8>,
    /// Input port of each VC index.
    port_of: [u8; 32],
    /// Per-output round-robin pointers for VC allocation.
    va_rr: [u8; 5],
    /// Switch-allocation pointer of the unit tests' `switch`; the network
    /// passes its own to [`switch_into`](Self::switch_into).
    #[cfg(test)]
    sa_rr: usize,
    /// VCs whose front flit is a head without an output VC: set when a
    /// head becomes the front, cleared on grant.
    need_va: u32,
    /// The occupied VCs, split by whether the front flit has cleared the
    /// pipeline (`front_ready <= now`); `waiting` is re-scanned only once
    /// `now` reaches `next_wake`, its earliest `front_ready`.
    ready: u32,
    waiting: u32,
    next_wake: Cycle,
    /// VCs with a packet in progress (RC done, tail not yet gone).
    routed: u32,
    /// Event counters for the power model.
    pub(crate) buffer_writes: u64,
    pub(crate) buffer_reads: u64,
    pub(crate) crossbar_traversals: u64,
    pub(crate) allocations: u64,
}

impl Router {
    /// Creates the router for mesh node `node`. `cfg` must pass
    /// [`MeshConfig::validate`].
    pub(crate) fn new(cfg: &MeshConfig, node: usize) -> Self {
        debug_assert_eq!(cfg.validate(), Ok(()));
        let total = 5 * cfg.vcs;
        let mut port_of = [0; 32];
        for (idx, port) in port_of.iter_mut().enumerate().take(total) {
            *port = (idx / cfg.vcs) as u8;
        }
        Router {
            node,
            vcs: cfg.vcs,
            vc_depth: cfg.vc_depth,
            router_cycles: cfg.router_cycles,
            inputs: (0..total)
                .map(|_| VirtualChannel {
                    buf: VecDeque::new(),
                    front_ready: NEVER,
                    route: NONE,
                    out_vc: NONE,
                })
                .collect(),
            credits: vec![cfg.vc_depth; total],
            out_busy: 0,
            route_to: (0..cfg.node_count())
                .map(|dst| xy_route(node, dst, cfg.width).index() as u8)
                .collect(),
            port_of,
            va_rr: [0; 5],
            #[cfg(test)]
            sa_rr: 0,
            need_va: 0,
            ready: 0,
            waiting: 0,
            routed: 0,
            next_wake: NEVER,
            buffer_writes: 0,
            buffer_reads: 0,
            crossbar_traversals: 0,
            allocations: 0,
        }
    }

    /// The low `vcs` bits: one port's worth of a VC mask.
    fn port_mask(&self) -> u32 {
        (1 << self.vcs) - 1
    }

    /// Free buffer slots in input (port, vc).
    pub(crate) fn buffer_free(&self, port: usize, vc: usize) -> usize {
        self.vc_depth - self.inputs[port * self.vcs + vc].buf.len()
    }

    /// Accepts a flit into input (port, vc).
    ///
    /// # Panics
    ///
    /// Panics on buffer overflow — credit flow control must prevent it.
    pub(crate) fn receive_flit(&mut self, port: usize, vc: usize, flit: Flit, now: Cycle) {
        let idx = port * self.vcs + vc;
        let ch = &mut self.inputs[idx];
        assert!(
            ch.buf.len() < self.vc_depth,
            "credit violation at node {} port {port} vc {vc}",
            self.node
        );
        if ch.buf.is_empty() {
            self.new_front(idx, flit, now, now);
        }
        self.inputs[idx].buf.push_back((flit, now));
        self.buffer_writes += 1;
    }

    /// Files VC `idx`, whose front flit is now `flit` (arrived at `arr`),
    /// under `need_va` and `ready`/`waiting`.
    fn new_front(&mut self, idx: usize, flit: Flit, arr: Cycle, now: Cycle) {
        let bit = 1 << idx;
        let wait = if flit.kind.is_head() {
            debug_assert_eq!(self.inputs[idx].out_vc, NONE, "a head follows a tail");
            self.need_va |= bit;
            self.router_cycles
        } else {
            1
        };
        let front_ready = arr + wait;
        self.inputs[idx].front_ready = front_ready;
        // `ready` means "from the next switch pass on": a pass walks a
        // snapshot, so a front it exposes itself waits for the next one.
        if front_ready <= now {
            self.ready |= bit;
        } else {
            self.waiting |= bit;
            self.next_wake = self.next_wake.min(front_ready);
        }
    }

    /// Returns a credit for output (port, vc) — the downstream router freed
    /// a buffer slot.
    pub(crate) fn credit_return(&mut self, port: usize, vc: usize) {
        let credit = &mut self.credits[port * self.vcs + vc];
        *credit += 1;
        debug_assert!(*credit <= self.vc_depth);
    }

    /// Route computation + VC allocation for every input VC whose front
    /// flit is a head still without an output VC.
    ///
    /// RC and VA run as one pass in (port, vc) order — `need_va` walked
    /// LSB-first. That matches a two-pass formulation exactly: RC reads
    /// only its own channel, and VA's round-robin state evolves in the
    /// same (port, vc) order either way.
    pub(crate) fn allocate(&mut self) {
        let port_mask = self.port_mask();
        let mut bits = self.need_va;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            let ch = &mut self.inputs[idx];
            // RC: head at the front and no route yet.
            if ch.route == NONE {
                let Some(&(head, _)) = ch.buf.front() else {
                    unreachable!("need_va marks an occupied VC");
                };
                ch.route = self.route_to[usize::from(head.dst)];
                self.routed |= bit;
            }
            let out = usize::from(ch.route);
            if out == LOCAL {
                // Ejection has a dedicated sink: no VC contention.
                ch.out_vc = 0;
                self.need_va ^= bit;
                continue;
            }
            // VA: separable, output-side round-robin — the first free
            // downstream VC at or after the pointer, else the first free.
            let free = !(self.out_busy >> (out * self.vcs)) & port_mask;
            if free == 0 {
                continue;
            }
            let from_rr = free >> self.va_rr[out] << self.va_rr[out];
            let grant = if from_rr != 0 { from_rr } else { free }.trailing_zeros() as usize;
            self.out_busy |= 1 << (out * self.vcs + grant);
            self.va_rr[out] = if grant + 1 == self.vcs {
                0
            } else {
                grant as u8 + 1
            };
            ch.out_vc = grant as u8;
            self.need_va ^= bit;
            self.allocations += 1;
        }
    }

    /// [`switch_into`](Self::switch_into) from this router's own
    /// round-robin pointer, rotated on every call.
    #[cfg(test)]
    pub(crate) fn switch(&mut self, now: Cycle) -> Vec<Departure> {
        let mut departures = Vec::new();
        self.switch_into(now, self.sa_rr, &mut departures);
        self.sa_rr = (self.sa_rr + 1) % (5 * self.vcs);
        departures
    }

    /// Switch allocation + traversal: picks at most one flit per output
    /// port and one per input port, removes the winners from their buffers
    /// and appends them to `departures` (not cleared) for the network to
    /// deliver, visiting input VCs in cyclic (port, vc) order from index
    /// `start`. `now` must not decrease between calls.
    pub(crate) fn switch_into(
        &mut self,
        now: Cycle,
        start: usize,
        departures: &mut Vec<Departure>,
    ) {
        if now >= self.next_wake {
            self.wake(now);
        }
        // Candidates: front flit through the pipeline and holding an
        // output VC. Bits at or above `start` LSB-first, then the wrapped
        // bits below it — the subsequence of a full cyclic scan that has a
        // flit to consider.
        let candidates = self.ready & !self.need_va;
        let below = candidates & ((1 << start) - 1);
        let port_mask = self.port_mask();
        let mut in_taken = 0u32; // VC bits of input ports that sent a flit
        let mut out_taken = 0u8;
        for half in [candidates ^ below, below] {
            let mut bits = half;
            loop {
                bits &= !in_taken;
                if bits == 0 {
                    break;
                }
                let idx = bits.trailing_zeros() as usize;
                let bit = 1 << idx;
                bits ^= bit;
                let ch = &mut self.inputs[idx];
                let (out, ovc) = (usize::from(ch.route), usize::from(ch.out_vc));
                if out_taken & (1 << out) != 0 {
                    continue;
                }
                // Credit check (ejection always has room).
                if out != LOCAL {
                    let credit = &mut self.credits[out * self.vcs + ovc];
                    if *credit == 0 {
                        continue;
                    }
                    *credit -= 1;
                }
                // Commit.
                let Some((flit, _)) = ch.buf.pop_front() else {
                    unreachable!("ready marks an occupied VC");
                };
                self.buffer_reads += 1;
                self.crossbar_traversals += 1;
                self.ready ^= bit;
                if flit.kind.is_tail() {
                    // Release the out VC and reset for the next packet.
                    if out != LOCAL {
                        self.out_busy ^= 1 << (out * self.vcs + ovc);
                    }
                    ch.route = NONE;
                    ch.out_vc = NONE;
                    self.routed ^= bit;
                }
                let port = usize::from(self.port_of[idx]);
                if let Some(&(next, arr)) = ch.buf.front() {
                    self.new_front(idx, next, arr, now);
                }
                out_taken |= 1 << out;
                in_taken |= port_mask << (port * self.vcs);
                departures.push(Departure {
                    flit,
                    out_port: out as u8,
                    out_vc: ovc as u8,
                    in_port: port as u8,
                    in_vc: (idx - port * self.vcs) as u8,
                });
            }
        }
    }

    /// Moves every waiting VC whose front flit has cleared the pipeline to
    /// `ready` and recomputes `next_wake` over the rest.
    fn wake(&mut self, now: Cycle) {
        let mut bits = self.waiting;
        self.next_wake = NEVER;
        while bits != 0 {
            let idx = bits.trailing_zeros();
            bits &= bits - 1;
            let front_ready = self.inputs[idx as usize].front_ready;
            if front_ready <= now {
                self.waiting ^= 1 << idx;
                self.ready |= 1 << idx;
            } else {
                self.next_wake = self.next_wake.min(front_ready);
            }
        }
    }

    /// True while some input buffer holds a flit — the only state
    /// [`allocate`](Self::allocate) and [`switch`](Self::switch) act on.
    pub(crate) fn has_flits(&self) -> bool {
        self.ready | self.waiting != 0
    }

    /// The earliest cycle `>= now` at which this router could act on its
    /// own: `now` while a front flit is through the pipeline or still
    /// wants an output VC, else when the first waiting one clears.
    pub(crate) fn next_event_at(&self, now: Cycle) -> Cycle {
        if self.ready | self.need_va != 0 {
            now
        } else {
            self.next_wake
        }
    }

    /// True when every buffer is empty and no VC holds state.
    pub(crate) fn is_idle(&self) -> bool {
        self.check_masks();
        self.ready | self.waiting | self.routed == 0
    }

    /// Debug builds: recomputes every mask and `next_wake` from the
    /// buffers.
    fn check_masks(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut occupied, mut need_va, mut routed, mut next_wake) = (0u32, 0u32, 0u32, NEVER);
        for (idx, ch) in self.inputs.iter().enumerate() {
            let bit = 1 << idx;
            if ch.route != NONE {
                routed |= bit;
            }
            let Some(&(front, arr)) = ch.buf.front() else {
                continue;
            };
            occupied |= bit;
            let head = front.kind.is_head();
            if head && ch.out_vc == NONE {
                need_va |= bit;
            }
            let wait = if head { self.router_cycles } else { 1 };
            assert_eq!(ch.front_ready, arr + wait, "front_ready of VC {idx}");
            if self.waiting & bit != 0 {
                next_wake = next_wake.min(ch.front_ready);
            }
        }
        let (r, w) = (self.ready, self.waiting);
        assert_eq!(
            (r & w, r | w, self.need_va, self.routed, self.next_wake),
            (0, occupied, need_va, routed, next_wake),
            "(ready & waiting, occupied, need_va, routed, next_wake) at node {}",
            self.node
        );
    }

    /// An input VC of the local port able to accept a new packet's head
    /// (empty and unclaimed), if any.
    pub(crate) fn free_local_vc(&self) -> Option<usize> {
        let taken = (self.ready | self.waiting | self.routed) >> (LOCAL * self.vcs);
        let free = !taken & self.port_mask();
        (free != 0).then(|| free.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FLITS;

    fn router() -> Router {
        Router::new(&MeshConfig::nodes(16), 5) // node 5 = (1, 1)
    }

    /// The flits of a `flits`-flit packet to `dst` held in `slot`.
    fn split(slot: u32, dst: u16, flits: usize) -> Vec<Flit> {
        (0..flits as u8)
            .map(|seq| Flit::new(slot, dst, seq, flits as u8))
            .collect()
    }

    #[test]
    fn head_waits_full_pipeline() {
        let mut r = router();
        let flits = split(0, 6, FLITS[0]); // east neighbour
        r.receive_flit(Port::Local.index(), 0, flits[0], Cycle(10));
        r.allocate();
        assert!(r.switch(Cycle(13)).is_empty(), "not ready before 4 cycles");
        let dep = r.switch(Cycle(14));
        assert_eq!(dep.len(), 1);
        assert_eq!(usize::from(dep[0].out_port), Port::East.index());
    }

    #[test]
    fn body_flits_stream_behind_head() {
        let mut r = router();
        let flits = split(0, 6, FLITS[1]);
        for (i, f) in flits.iter().enumerate() {
            r.receive_flit(Port::West.index(), 1, *f, Cycle(i as u64));
        }
        r.allocate();
        let mut sent = 0;
        for t in 0..12 {
            sent += r.switch(Cycle(t)).len();
            r.allocate();
        }
        assert_eq!(sent, 5, "whole packet streams through");
        assert!(r.is_idle());
    }

    #[test]
    fn credits_block_switch() {
        let mut cfg = MeshConfig::nodes(16);
        cfg.vc_depth = 1;
        cfg.vcs = 1; // single VC so both packets contend for the same credit
        let mut r = Router::new(&cfg, 5);
        let flits = split(0, 6, FLITS[0]);
        r.receive_flit(Port::Local.index(), 0, flits[0], Cycle(0));
        r.allocate();
        // Drain the only credit of the granted out VC.
        let dep = r.switch(Cycle(10));
        assert_eq!(dep.len(), 1);
        let (op, ov) = (dep[0].out_port.into(), dep[0].out_vc.into());
        // Next packet to the same destination: same out port, and with
        // depth-1 buffers the credit is gone until returned.
        let flits2 = split(1, 6, FLITS[0]);
        r.receive_flit(Port::Local.index(), 0, flits2[0], Cycle(11));
        r.allocate();
        assert!(r.switch(Cycle(30)).is_empty(), "no credit, no traversal");
        r.credit_return(op, ov);
        assert_eq!(r.switch(Cycle(31)).len(), 1);
    }

    #[test]
    fn ejection_needs_no_credit() {
        let mut r = router();
        let flits = split(0, 5, FLITS[0]); // destined here
        let mut fed = 0u64;
        let mut ejected = 0;
        for t in 0..200 {
            if fed < 20 && r.buffer_free(Port::West.index(), 0) > 0 {
                let mut f = flits[0];
                f.slot = fed as u32;
                r.receive_flit(Port::West.index(), 0, f, Cycle(t));
                fed += 1;
            }
            r.allocate();
            for d in r.switch(Cycle(t)) {
                assert_eq!(usize::from(d.out_port), Port::Local.index());
                ejected += 1;
            }
        }
        assert_eq!(ejected, 20);
    }

    #[test]
    fn vc_allocation_is_exclusive_until_tail() {
        let mut cfg = MeshConfig::nodes(16);
        cfg.vcs = 1; // single VC: second packet must wait for the first
        let mut r = Router::new(&cfg, 5);
        let a = split(0, 6, FLITS[1]);
        let b = split(1, 6, FLITS[1]);
        for (i, f) in a.iter().enumerate() {
            r.receive_flit(Port::West.index(), 0, *f, Cycle(i as u64));
        }
        for (i, f) in b.iter().enumerate() {
            r.receive_flit(Port::North.index(), 0, *f, Cycle(i as u64));
        }
        r.allocate();
        let mut order = Vec::new();
        for t in 0..40 {
            for d in r.switch(Cycle(t)) {
                order.push(d.flit.slot);
            }
            r.allocate();
        }
        assert_eq!(order.len(), 10);
        // No interleaving within the wormhole: once a packet starts on the
        // output VC, its five flits are contiguous.
        let first = order[0];
        assert!(order[..5].iter().all(|&t| t == first), "{order:?}");
        assert!(order[5..].iter().all(|&t| t != first), "{order:?}");
    }

    #[test]
    #[should_panic(expected = "credit violation")]
    fn overflow_panics() {
        let mut cfg = MeshConfig::nodes(16);
        cfg.vc_depth = 1;
        let mut r = Router::new(&cfg, 5);
        let f = split(0, 6, FLITS[0])[0];
        r.receive_flit(0, 0, f, Cycle(0));
        r.receive_flit(0, 0, f, Cycle(0));
    }

    #[test]
    fn free_local_vc_tracks_occupancy() {
        let mut cfg = MeshConfig::nodes(16);
        cfg.vcs = 2;
        let mut r = Router::new(&cfg, 5);
        assert_eq!(r.free_local_vc(), Some(0));
        let f = split(0, 6, FLITS[1])[0];
        r.receive_flit(Port::Local.index(), 0, f, Cycle(0));
        assert_eq!(r.free_local_vc(), Some(1));
    }
}
