//! The chip-multiprocessor system: cores, L1s, directories, memory
//! channels and one of the interconnects, wired together cycle by cycle.
//!
//! Two details deserve a note:
//!
//! * **Per-line point-to-point ordering.** The paper relies on the
//!   network's ability to order messages between a pair of nodes about the
//!   same cache line: "we delay the transmission of another message about
//!   a cache line until a previous message about that line has been
//!   confirmed" (§4.4). The system enforces exactly that at every sender,
//!   which closes the classic Data/Inv overtaking race.
//! * **§5.1 optimizations.** With `opt_confirmation_acks`, a clean (no
//!   data) invalidation acknowledgment never becomes a packet — the
//!   confirmation of the Inv delivery *is* the commitment, so the
//!   directory is credited the ack one confirmation delay after the L1
//!   processed the Inv. With `opt_subscriptions`, spin loops on lock and
//!   barrier words subscribe to single-bit pushes on reserved
//!   confirmation mini-cycles instead of re-fetching the line.

use crate::configs::SystemConfig;
use crate::core::{Core, CoreState};
use crate::energy::{ChipEnergy, ChipPowerModel};
use crate::interconnect::{Interconnect, NetPacket};
use crate::memory::MemorySystem;
use crate::metrics::{DataPacketKind, RunReport};
use crate::workload::{AppProfile, CoreWorkload, Op};
use fsoi_coherence::directory::{DirStats, Directory};
use fsoi_coherence::l1::L1Controller;
use fsoi_coherence::protocol::{CoherenceMsg, LineAddr, OutMsg};
use fsoi_coherence::sync::{Barrier, BooleanSubscriptionHub, SpinLock};
use fsoi_net::packet::PacketClass;
use fsoi_sim::det::{DetMap, DetSet};
use fsoi_sim::event::EventQueue;
use fsoi_sim::metrics::Registry;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::stats::Histogram;
use fsoi_sim::telemetry::{self, Phase};
use fsoi_sim::Cycle;
use std::collections::VecDeque;

/// How often a spinning core re-probes a sync word, cycles.
const SPIN_PROBE_PERIOD: u64 = 12;
/// Base delay before resending a NACKed request.
const NACK_RETRY_BASE: u64 = 12;
/// Confirmation delay used for elided acks and subscription pushes.
const CONFIRMATION_DELAY: u64 = 2;

#[derive(Debug)]
enum Pending {
    /// A coherence message arrives at its handler.
    Deliver {
        from: usize,
        to: usize,
        msg: CoherenceMsg,
    },
    /// A subscription push wakes a core.
    Wake { core: usize },
    /// A deferred packet injection (request spacing / NACK retry).
    Inject {
        from: usize,
        out: OutMsg,
        scheduling_delay: u64,
    },
    /// A confirmation-channel (non-packet) delivery released by ordering.
    DirectDeliver { from: usize, out: OutMsg },
    /// Release the per-line ordering slot (sender saw the confirmation).
    ReleaseOrder { key: (usize, usize, LineAddr) },
}

/// Per-line ordering queue: pending messages with their scheduling delay
/// and a confirmation-channel (direct) marker. Deterministic (BTree-backed)
/// so no hasher state can ever leak into drain order or exports.
type OrderQueue = DetMap<(usize, usize, LineAddr), VecDeque<(OutMsg, u64, bool)>>;

/// The simulated CMP.
#[derive(Debug)]
pub struct CmpSystem {
    cfg: SystemConfig,
    app: AppProfile,
    now: Cycle,
    net: Box<dyn Interconnect>,
    cores: Vec<Core>,
    l1s: Vec<L1Controller>,
    dirs: Vec<Directory>,
    mem: MemorySystem,
    locks: Vec<SpinLock>,
    barrier: Barrier,
    hub: BooleanSubscriptionHub,
    rng: Xoshiro256StarStar,
    pending: EventQueue<Pending>,
    /// In-flight message payloads, indexed by packet tag.
    msgs: Vec<Option<(usize, CoherenceMsg)>>,
    free_tags: Vec<u64>,
    /// Per-(src, dst, line) ordering: messages waiting for the slot.
    /// The `bool` marks confirmation-channel (direct) deliveries.
    order_wait: OrderQueue,
    order_busy: DetSet<(usize, usize, LineAddr)>,
    /// Packets that bounced off a full injection queue.
    inject_backlog: VecDeque<(usize, NetPacket)>,
    /// Reused reaction buffer for `Directory::handle_into` (empty between
    /// messages).
    dir_out: Vec<OutMsg>,
    // --- statistics ---
    reply_latency: Histogram,
    packets_sent: [u64; 2],
    data_by_kind: [u64; 3],
    collided_by_kind: [u64; 4],
    acks_elided: u64,
    protocol_errors: u64,
    first_protocol_error: Option<String>,
    // Deterministic harness span counters: pure functions of the cell
    // inputs and the `run()` drive, assembled into the `sim/*` entries of
    // `RunReport::profile` by `report()`. Deliberately *not* part of
    // `RunReport::export()` — a tick-only drive (the fast-forward
    // reference tests) legitimately differs from `run()` here.
    ticks: u64,
    ff_jumps: u64,
    ff_cycles_skipped: u64,
    events_processed: u64,
}

impl CmpSystem {
    /// Builds the system for one application.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SystemConfig::validate`].
    pub fn new(cfg: SystemConfig, app: AppProfile) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: a rejected configuration is the caller's bug; fail before building anything"
        )]
        cfg.validate().expect("invalid SystemConfig");
        let mut app = app;
        let n = cfg.nodes;
        // Weak scaling: larger machines run proportionally larger shared
        // problems (keeping per-core work fixed), so the cold footprint
        // grows with the node count beyond the 16-node baseline.
        if n > 16 {
            app.shared_cold_lines *= (n / 16) as u64;
        }
        let mem = if n == 16 {
            MemorySystem::paper_16(cfg.mem_gb_per_s)
        } else if n == 64 {
            MemorySystem::paper_64(cfg.mem_gb_per_s)
        } else {
            MemorySystem::new(n, (n / 4).max(1), cfg.mem_gb_per_s, cfg.mem_latency, 3.3e9)
        };
        let l1s = (0..n)
            .map(|i| {
                let mut l1 = L1Controller::new(i, cfg.l1_lines, cfg.l1_ways, cfg.line_bytes);
                l1.set_home_nodes(n);
                l1
            })
            .collect();
        let mut dirs: Vec<Directory> = (0..n)
            .map(|i| {
                let mem_node = mem.controller_node(i);
                Directory::new(i, mem_node, cfg.l2_lines)
            })
            .collect();
        // Warm the distributed L2: the paper measures steady-state windows
        // (e.g. "between a fixed number of barrier instances"), so the
        // shared data is L2-resident when timing starts.
        {
            let _warm = telemetry::span(Phase::Warmup);
            for line in app.all_region_lines(n, cfg.line_bytes) {
                let home = ((line.0 / cfg.line_bytes) % n as u64) as usize;
                dirs[home].preload(line);
            }
        }
        CmpSystem::assemble(cfg, app, l1s, dirs, mem)
    }

    /// A system at cycle 0 around the seed-independent parts — the one
    /// place the rest of the state is initialised, so a
    /// [`fork`](Self::fork) cannot start from a different state than a
    /// cold build. Everything seed-dependent (the network, the per-core
    /// workload RNG streams, the system RNG) is built here from
    /// `cfg.seed`; `app` is already weak-scaled.
    fn assemble(
        cfg: SystemConfig,
        app: AppProfile,
        l1s: Vec<L1Controller>,
        dirs: Vec<Directory>,
        mem: MemorySystem,
    ) -> Self {
        let n = cfg.nodes;
        CmpSystem {
            app,
            now: Cycle::ZERO,
            cores: (0..n)
                .map(|i| Core::new(i, CoreWorkload::new(app, i, cfg.line_bytes, cfg.seed)))
                .collect(),
            l1s,
            dirs,
            mem,
            locks: (0..app.locks.max(1)).map(|_| SpinLock::new()).collect(),
            barrier: Barrier::new(n),
            hub: BooleanSubscriptionHub::new(),
            rng: Xoshiro256StarStar::new(cfg.seed ^ SYSTEM_SEED_SALT),
            pending: EventQueue::new(),
            msgs: Vec::new(),
            free_tags: Vec::new(),
            order_wait: DetMap::new(),
            order_busy: DetSet::new(),
            inject_backlog: VecDeque::new(),
            dir_out: Vec::new(),
            reply_latency: Histogram::new(10, 20),
            packets_sent: [0, 0],
            data_by_kind: [0; 3],
            collided_by_kind: [0; 4],
            acks_elided: 0,
            protocol_errors: 0,
            first_protocol_error: None,
            ticks: 0,
            ff_jumps: 0,
            ff_cycles_skipped: 0,
            events_processed: 0,
            net: cfg.build_network(),
            cfg,
        }
    }

    /// Forks an unrun template into a fresh system equivalent to
    /// `CmpSystem::new(cfg.with_seed(seed), app)` for the pre-scaling
    /// `app` the template was built from.
    ///
    /// The expensive seed-independent construction work — the preloaded
    /// distributed-L2 directories, the L1 arrays, the memory system — is
    /// deep-cloned from the template; everything else is initialised by the
    /// same function a cold build ends in, from `seed`. Construction is
    /// deterministic and none of the cloned state reads `cfg.seed`, so a
    /// fork is byte-identical to a cold construction with the same seed —
    /// an invariant pinned by the `par_merge` byte-identity properties in
    /// `fsoi-bench`.
    ///
    /// Note `self.app` already carries the weak-scaling adjustment from
    /// [`CmpSystem::new`], so the fork must not (and does not) rescale
    /// `shared_cold_lines` again.
    ///
    /// # Panics
    ///
    /// Panics when the template has already been run: mid-run warm state
    /// is seed-dependent, so only a freshly-constructed system may seed
    /// other sweep cells.
    pub fn fork(&self, seed: u64) -> CmpSystem {
        assert!(
            self.now == Cycle::ZERO && self.pending.is_empty(),
            "fork requires an unrun template (state after cycle 0 is seed-dependent)"
        );
        CmpSystem::assemble(
            self.cfg.clone().with_seed(seed),
            self.app,
            self.l1s.clone(),
            self.dirs.clone(),
            self.mem.clone(),
        )
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs until every core retires and the system drains, or `max`
    /// cycles elapse. Returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to drain within `max` cycles (a
    /// deadlock would be a protocol or network bug).
    pub fn run(&mut self, max: u64) -> RunReport {
        while !self.finished() {
            assert!(
                self.now.as_u64() < max,
                "system did not drain within {max} cycles (app {}, net {})",
                self.app.name,
                self.net.name()
            );
            self.tick();
            self.fast_forward(max);
        }
        self.report()
    }

    /// Jumps `now` to the next cycle at which anything can happen — the
    /// earliest pending event, core issue or spin-probe time, or network
    /// event — bulk-accounting the skipped span. A no-op when work is due
    /// this cycle, the injection backlog is non-empty (it retries every
    /// cycle), or the network cannot bound its next event.
    ///
    /// Byte-identical to ticking through the span: no pending event, core
    /// transition, or network event lies strictly inside it, so every
    /// skipped `tick` would have been pure bookkeeping — constant-state
    /// core accounting, which `account_cycles` reproduces exactly.
    fn fast_forward(&mut self, max: u64) {
        if !self.inject_backlog.is_empty() {
            return; // the backlog retries every cycle
        }
        // Cheap bounds first — core deadlines and the pending-event
        // queue. In busy phases something is almost always due within a
        // cycle, and bailing here keeps the network scan (the expensive
        // bound) off the per-tick path.
        let mut next = Cycle(u64::MAX);
        if let Some(t) = self.pending.peek_time() {
            next = next.min(t);
        }
        for c in &self.cores {
            match c.state {
                CoreState::Ready => next = next.min(c.next_at),
                CoreState::SpinLock { next_probe, .. }
                | CoreState::SpinBarrier { next_probe, .. } => next = next.min(next_probe),
                _ => {}
            }
        }
        if next.as_u64() <= self.now.as_u64() + 1 {
            return; // due now or next cycle: a skip could not save a tick
        }
        match self.net.next_event_at() {
            Some(t) => next = next.min(t),
            None => return, // busy network without an event bound: tick it
        }
        if next == Cycle(u64::MAX) {
            return; // nothing schedulable anywhere (drained, or wedged —
                    // the run loop's overrun assert still fires at `max`)
        }
        // Never skip past the drain deadline: the overrun assert in `run`
        // fires at the same cycle it would cycle-by-cycle.
        let next = next.min(Cycle(max));
        if next <= self.now {
            return;
        }
        let skipped = next.as_u64() - self.now.as_u64();
        self.ff_jumps += 1;
        self.ff_cycles_skipped += skipped;
        self.net.advance_to(next);
        for c in &mut self.cores {
            c.account_cycles(skipped);
        }
        self.now = next;
    }

    fn finished(&self) -> bool {
        self.cores.iter().all(|c| c.is_done())
            && self.pending.is_empty()
            && self.inject_backlog.is_empty()
            && self.net.is_idle()
    }

    /// One cycle. The three sections are wrapped in wall-clock telemetry
    /// spans (interconnect vs coherence/memory events vs cores); when
    /// telemetry is off each span costs one relaxed atomic load and reads
    /// no clock, so the hot path stays hot.
    pub fn tick(&mut self) {
        self.ticks += 1;
        {
            let _net = telemetry::span(Phase::SimNet);
            self.net.tick();
            self.drain_network();
        }
        {
            let _ev = telemetry::span(Phase::SimEvents);
            self.process_pending();
            self.retry_backlog();
        }
        {
            let _cores = telemetry::span(Phase::SimCores);
            self.step_cores();
            for c in &mut self.cores {
                c.account_cycle();
            }
        }
        self.now += 1;
    }

    // ----- message plumbing -------------------------------------------

    fn alloc_tag(&mut self, from: usize, msg: CoherenceMsg) -> u64 {
        if let Some(tag) = self.free_tags.pop() {
            self.msgs[tag as usize] = Some((from, msg));
            tag
        } else {
            self.msgs.push(Some((from, msg)));
            (self.msgs.len() - 1) as u64
        }
    }

    fn class_of(msg: &CoherenceMsg) -> PacketClass {
        if msg.carries_data() {
            PacketClass::Data
        } else {
            PacketClass::Meta
        }
    }

    fn data_kind(msg: &CoherenceMsg) -> Option<DataPacketKind> {
        match msg {
            CoherenceMsg::MemAck { .. } => Some(DataPacketKind::Memory),
            CoherenceMsg::Data { .. } => Some(DataPacketKind::Reply),
            CoherenceMsg::WriteBack { .. } => Some(DataPacketKind::WriteBack),
            CoherenceMsg::InvAck {
                with_data: true, ..
            }
            | CoherenceMsg::DwgAck {
                with_data: true, ..
            } => Some(DataPacketKind::WriteBack),
            _ => None,
        }
    }

    /// Processing latency applied when a message reaches its handler.
    fn processing_latency(&self, msg: &CoherenceMsg) -> u64 {
        match msg {
            // Directory-bound: an L2/directory access.
            CoherenceMsg::Req { .. }
            | CoherenceMsg::WriteBack { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::DwgAck { .. }
            | CoherenceMsg::MemAck { .. } => self.cfg.l2_latency,
            // L1-bound: an L1 access.
            CoherenceMsg::Data { .. }
            | CoherenceMsg::ExcAck { .. }
            | CoherenceMsg::Inv { .. }
            | CoherenceMsg::Dwg { .. }
            | CoherenceMsg::Retry { .. } => self.cfg.l1_latency,
            // Memory controller: the channel model supplies all timing.
            CoherenceMsg::MemReq { .. } => 0,
        }
    }

    /// Sends a message, honouring per-line point-to-point ordering
    /// (§4.4: "we delay the transmission of another message about a cache
    /// line until a previous message about that line has been
    /// confirmed"). `direct` marks confirmation-channel deliveries (§5.1
    /// elided acks), which skip the packet network but still obey the
    /// ordering.
    fn route(&mut self, from: usize, out: OutMsg, scheduling_delay: u64, direct: bool) {
        if from == out.to {
            // Local: no network, just processing latency.
            let lat = self.processing_latency(&out.msg).max(1);
            self.pending.push(
                self.now + lat,
                Pending::Deliver {
                    from,
                    to: out.to,
                    msg: out.msg,
                },
            );
            return;
        }
        let key = (from, out.to, out.msg.line());
        if self.order_busy.contains(&key) {
            self.order_wait
                .entry(key)
                .or_default()
                .push_back((out, scheduling_delay, direct));
            return;
        }
        self.order_busy.insert(key);
        self.transmit(from, out, scheduling_delay, direct);
    }

    fn transmit(&mut self, from: usize, out: OutMsg, scheduling_delay: u64, direct: bool) {
        if direct {
            // Confirmation-channel delivery: collision-free by design,
            // lands after the fixed confirmation delay.
            self.acks_elided += 1;
            let key = (from, out.to, out.msg.line());
            self.pending.push(
                self.now + CONFIRMATION_DELAY,
                Pending::DirectDeliver { from, out },
            );
            self.pending
                .push(self.now + CONFIRMATION_DELAY, Pending::ReleaseOrder { key });
            return;
        }
        let class = Self::class_of(&out.msg);
        // §5.2 hint knowledge: once a reply-class data packet is launched,
        // its receiver "expects a data packet reply" from this sender (the
        // paper's receivers infer this from their outstanding requests).
        if matches!(
            out.msg,
            CoherenceMsg::Data { .. } | CoherenceMsg::MemAck { .. }
        ) {
            self.net.expect_data(out.to, from);
        }
        let tag = self.alloc_tag(from, out.msg);
        let mut pkt = NetPacket::new(from, out.to, class, tag);
        pkt.scheduling_delay = scheduling_delay;
        self.packets_sent[class.lane()] += 1;
        if let Err(p) = self.net.inject(pkt) {
            self.inject_backlog.push_back((from, p));
        }
    }

    fn retry_backlog(&mut self) {
        if self.inject_backlog.is_empty() {
            return;
        }
        // One pass over the queue as it stands: bounced packets rotate to
        // the back in order.
        for _ in 0..self.inject_backlog.len() {
            let Some((from, pkt)) = self.inject_backlog.pop_front() else {
                break;
            };
            if let Err(p) = self.net.inject(pkt) {
                self.inject_backlog.push_back((from, p));
            }
        }
    }

    fn drain_network(&mut self) {
        for d in self.net.drain() {
            let tag = d.packet.tag;
            #[expect(
                clippy::expect_used,
                reason = "P1: tags are allocated from free_tags, so a delivered tag maps to a live message"
            )]
            let (from, msg) = self.msgs[tag as usize]
                .take()
                .expect("delivered tag must be live");
            self.free_tags.push(tag);
            // Figure 10 accounting.
            if let Some(kind) = Self::data_kind(&msg) {
                self.data_by_kind[kind.index()] += 1;
                if d.retries >= 1 {
                    self.collided_by_kind[kind.index()] += 1;
                }
                if d.retries >= 2 {
                    self.collided_by_kind[3] += 1;
                }
            }
            // Release the ordering slot once the sender sees the
            // confirmation.
            let key = (from, d.packet.dst, msg.line());
            self.pending
                .push(self.now + CONFIRMATION_DELAY, Pending::ReleaseOrder { key });
            // Hand to the handler after its processing latency.
            let lat = self.processing_latency(&msg).max(1);
            self.pending.push(
                self.now + lat,
                Pending::Deliver {
                    from,
                    to: d.packet.dst,
                    msg,
                },
            );
        }
    }

    fn process_pending(&mut self) {
        while let Some((_, ev)) = self.pending.pop_due(self.now) {
            self.events_processed += 1;
            match ev {
                Pending::Deliver { from, to, msg } => self.deliver(from, to, msg),
                Pending::DirectDeliver { from, out } => {
                    let lat = self.processing_latency(&out.msg).max(1);
                    self.pending.push(
                        self.now + lat,
                        Pending::Deliver {
                            from,
                            to: out.to,
                            msg: out.msg,
                        },
                    );
                }
                Pending::Wake { core } => self.wake_core(core),
                Pending::Inject {
                    from,
                    out,
                    scheduling_delay,
                } => self.route(from, out, scheduling_delay, false),
                Pending::ReleaseOrder { key } => {
                    if let Some(queue) = self.order_wait.get_mut(&key) {
                        if let Some((out, sd, direct)) = queue.pop_front() {
                            if queue.is_empty() {
                                self.order_wait.remove(&key);
                            }
                            self.transmit(key.0, out, sd, direct);
                            continue; // slot stays busy for the follower
                        }
                    }
                    self.order_busy.remove(&key);
                }
            }
        }
    }

    fn deliver(&mut self, from: usize, to: usize, msg: CoherenceMsg) {
        match msg {
            // Memory controller.
            CoherenceMsg::MemReq { line, write } => {
                let home = self.home_of(line);
                let done = self.mem.request(home, self.now, self.cfg.line_bytes);
                if !write {
                    let controller = self.mem.controller_node(home);
                    self.pending.push(
                        done,
                        Pending::Inject {
                            from: controller,
                            out: OutMsg {
                                to: home,
                                msg: CoherenceMsg::MemAck { line },
                            },
                            scheduling_delay: 0,
                        },
                    );
                }
            }
            // Directory-bound.
            CoherenceMsg::Req { .. }
            | CoherenceMsg::WriteBack { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::DwgAck { .. }
            | CoherenceMsg::MemAck { .. } => {
                if matches!(msg, CoherenceMsg::MemAck { .. }) {
                    self.net.clear_expected(to, from);
                }
                let mut outs = std::mem::take(&mut self.dir_out);
                match self.dirs[to].handle_into(from, msg, &mut outs) {
                    Ok(()) => {
                        for out in outs.drain(..) {
                            self.route_from_dir(to, out);
                        }
                    }
                    Err(e) => {
                        outs.clear(); // a partial reaction
                        self.protocol_errors += 1;
                        self.first_protocol_error
                            .get_or_insert_with(|| e.to_string());
                    }
                }
                self.dir_out = outs;
            }
            // L1-bound.
            _ => self.deliver_to_l1(from, to, msg),
        }
    }

    fn route_from_dir(&mut self, dir: usize, out: OutMsg) {
        self.route(dir, out, 0, false);
    }

    fn deliver_to_l1(&mut self, from: usize, to: usize, msg: CoherenceMsg) {
        let is_inv = matches!(msg, CoherenceMsg::Inv { .. });
        let is_data = matches!(msg, CoherenceMsg::Data { .. });
        if is_data {
            self.net.clear_expected(to, from);
        }
        let reaction = match self.l1s[to].handle(msg) {
            Ok(r) => r,
            Err(e) => {
                self.protocol_errors += 1;
                self.first_protocol_error
                    .get_or_insert_with(|| e.to_string());
                return;
            }
        };
        for out in reaction.out {
            let elidable = self.cfg.opt_confirmation_acks
                && self.net.supports_confirmation_acks()
                && is_inv
                && matches!(
                    out.msg,
                    CoherenceMsg::InvAck {
                        with_data: false,
                        ..
                    }
                );
            if elidable {
                // §5.1: the confirmation of the Inv delivery substitutes
                // for the explicit acknowledgment packet. It still obeys
                // the per-line ordering (it must not overtake an earlier
                // writeback about the same line).
                self.route(to, out, 0, true);
            } else if matches!(out.msg, CoherenceMsg::Req { .. }) && reaction.completed.is_none() {
                // NACK retry (reactions carrying a Req are only produced by
                // Retry handling): randomized delay to avoid livelock.
                let delay = NACK_RETRY_BASE + self.rng.next_below(16);
                self.pending.push(
                    self.now + delay,
                    Pending::Inject {
                        from: to,
                        out,
                        scheduling_delay: 0,
                    },
                );
            } else {
                self.route(to, out, 0, false);
            }
        }
        if let Some(done_line) = reaction.completed {
            self.on_fill_complete(to, done_line);
        }
    }

    fn home_of(&self, line: LineAddr) -> usize {
        ((line.0 / self.cfg.line_bytes) % self.cfg.nodes as u64) as usize
    }

    // ----- core driving ------------------------------------------------

    fn step_cores(&mut self) {
        for i in 0..self.cores.len() {
            // Spin probes fire independently of Ready state.
            self.maybe_probe(i);
            if !self.cores[i].wants_to_issue(self.now) {
                continue;
            }
            let Some(op) = self.cores[i].take_op() else {
                self.cores[i].state = CoreState::Done;
                continue;
            };
            self.execute(i, op);
        }
    }

    fn execute(&mut self, i: usize, op: Op) {
        match op {
            Op::Compute(c) => {
                self.cores[i].next_at = self.now + c.max(1);
            }
            Op::Read(line) => self.do_read(i, line),
            Op::Write(line) => self.do_write(i, line, op),
            Op::LockAcquire(lock) => self.start_lock_read(i, lock),
            Op::LockRelease(lock) => self.do_lock_release(i, lock),
            Op::BarrierArrive => self.do_barrier_arrive(i),
        }
    }

    fn issue_read(&mut self, i: usize, line: LineAddr) -> ReadIssue {
        let acc = self.l1s[i].read(line);
        if acc.stalled {
            return ReadIssue::Stalled;
        }
        if acc.hit {
            return ReadIssue::Hit;
        }
        self.cores[i].stats.read_misses += 1;
        // §5.2 request spacing: reserve the predicted reply slot.
        let predicted = self.now + 4 + self.cfg.l2_latency + 5;
        let delay = self.net.reserve_reply_slot(i, predicted);
        for out in acc.out {
            if delay > 0 {
                self.pending.push(
                    self.now + delay,
                    Pending::Inject {
                        from: i,
                        out,
                        scheduling_delay: delay,
                    },
                );
            } else {
                self.route(i, out, 0, false);
            }
        }
        ReadIssue::Miss
    }

    fn do_read(&mut self, i: usize, line: LineAddr) {
        match self.issue_read(i, line) {
            ReadIssue::Hit => {
                self.cores[i].next_at = self.now + self.cfg.l1_latency;
            }
            ReadIssue::Miss => {
                self.cores[i].state = CoreState::WaitRead {
                    line,
                    issued_at: self.now,
                };
            }
            ReadIssue::Stalled => {
                self.cores[i].pending_op = Some(Op::Read(line));
                self.cores[i].next_at = self.now + 1;
            }
        }
    }

    fn do_write(&mut self, i: usize, line: LineAddr, op: Op) {
        let acc = self.l1s[i].write(line);
        if acc.stalled {
            self.cores[i].pending_op = Some(op);
            self.cores[i].next_at = self.now + 1;
            return;
        }
        // Posted store: hit or miss, the core moves on.
        for out in acc.out {
            self.route(i, out, 0, false);
        }
        self.cores[i].next_at = self.now + 1;
    }

    // ----- locks ---------------------------------------------------------

    fn lock_line(&self, lock: usize) -> LineAddr {
        AppProfile::lock_line(lock, self.cfg.line_bytes)
    }

    fn start_lock_read(&mut self, i: usize, lock: usize) {
        let line = self.lock_line(lock);
        match self.issue_read(i, line) {
            ReadIssue::Hit => self.try_take_lock(i, lock),
            ReadIssue::Miss => {
                self.cores[i].state = CoreState::LockRead { lock, line };
            }
            ReadIssue::Stalled => {
                self.cores[i].pending_op = Some(Op::LockAcquire(lock));
                self.cores[i].next_at = self.now + 1;
            }
        }
    }

    fn try_take_lock(&mut self, i: usize, lock: usize) {
        let line = self.lock_line(lock);
        if self.locks[lock].try_acquire(i) {
            // Store-conditional success: a write to the lock word.
            self.cores[i].stats.lock_acquires += 1;
            self.hub.unsubscribe(line, i);
            let acc = self.l1s[i].write(line);
            for out in acc.out {
                self.route(i, out, 0, false);
            }
            self.cores[i].state = CoreState::Ready;
            self.cores[i].next_at = self.now + 1;
        } else if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
            self.hub.subscribe(line, i);
            self.cores[i].state = CoreState::WaitLockWake { lock };
        } else {
            self.cores[i].state = CoreState::SpinLock {
                lock,
                next_probe: self.now + SPIN_PROBE_PERIOD,
            };
        }
    }

    fn do_lock_release(&mut self, i: usize, lock: usize) {
        let line = self.lock_line(lock);
        self.locks[lock].release(i);
        let acc = self.l1s[i].write(line);
        for out in acc.out {
            self.route(i, out, 0, false);
        }
        if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
            for target in self.hub.push_update(line, i) {
                self.pending.push(
                    self.now + CONFIRMATION_DELAY,
                    Pending::Wake { core: target },
                );
            }
        }
        self.cores[i].next_at = self.now + 1;
    }

    // ----- barriers ------------------------------------------------------

    fn do_barrier_arrive(&mut self, i: usize) {
        let count_line = AppProfile::barrier_line(self.cfg.line_bytes);
        let sense_line = AppProfile::barrier_sense_line(self.cfg.line_bytes);
        // Arrival: update the (lock-free combining) counter — a write.
        let acc = self.l1s[i].write(count_line);
        for out in acc.out {
            self.route(i, out, 0, false);
        }
        let episode = self.barrier.episodes();
        if self.barrier.arrive() {
            // Releaser: flip the sense word.
            self.cores[i].stats.barriers_passed += 1;
            let acc = self.l1s[i].write(sense_line);
            for out in acc.out {
                self.route(i, out, 0, false);
            }
            if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
                for target in self.hub.push_update(sense_line, i) {
                    self.pending.push(
                        self.now + CONFIRMATION_DELAY,
                        Pending::Wake { core: target },
                    );
                }
            }
            self.cores[i].state = CoreState::Ready;
            self.cores[i].next_at = self.now + 1;
        } else if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
            self.hub.subscribe(sense_line, i);
            self.cores[i].state = CoreState::WaitBarrierWake { episode };
        } else {
            self.cores[i].state = CoreState::SpinBarrier {
                episode,
                next_probe: self.now + SPIN_PROBE_PERIOD,
            };
        }
    }

    // ----- spin probes and wakes ------------------------------------------

    fn maybe_probe(&mut self, i: usize) {
        match self.cores[i].state {
            CoreState::SpinLock { lock, next_probe } if next_probe <= self.now => {
                let line = self.lock_line(lock);
                match self.issue_read(i, line) {
                    ReadIssue::Hit => self.try_take_lock(i, lock),
                    ReadIssue::Miss => {
                        self.cores[i].state = CoreState::SpinLockRead { lock };
                    }
                    ReadIssue::Stalled => {
                        self.cores[i].state = CoreState::SpinLock {
                            lock,
                            next_probe: self.now + 1,
                        };
                    }
                }
            }
            CoreState::SpinBarrier {
                episode,
                next_probe,
            } if next_probe <= self.now => {
                let line = AppProfile::barrier_sense_line(self.cfg.line_bytes);
                match self.issue_read(i, line) {
                    ReadIssue::Hit => self.check_barrier_release(i, episode),
                    ReadIssue::Miss => {
                        self.cores[i].state = CoreState::SpinBarrierRead { episode };
                    }
                    ReadIssue::Stalled => {
                        self.cores[i].state = CoreState::SpinBarrier {
                            episode,
                            next_probe: self.now + 1,
                        };
                    }
                }
            }
            _ => {}
        }
    }

    fn check_barrier_release(&mut self, i: usize, episode: u64) {
        if self.barrier.episodes() > episode {
            self.cores[i].stats.barriers_passed += 1;
            self.cores[i].state = CoreState::Ready;
            self.cores[i].next_at = self.now + 1;
        } else {
            self.cores[i].state = CoreState::SpinBarrier {
                episode,
                next_probe: self.now + SPIN_PROBE_PERIOD,
            };
        }
    }

    fn wake_core(&mut self, i: usize) {
        match self.cores[i].state {
            CoreState::WaitLockWake { lock } => self.try_take_lock(i, lock),
            CoreState::WaitBarrierWake { episode } => {
                let line = AppProfile::barrier_sense_line(self.cfg.line_bytes);
                if self.barrier.episodes() > episode {
                    self.hub.unsubscribe(line, i);
                    self.cores[i].stats.barriers_passed += 1;
                    self.cores[i].state = CoreState::Ready;
                    self.cores[i].next_at = self.now + 1;
                }
            }
            _ => {} // stale wake: ignore
        }
    }

    /// A fill completed at node `i`: unblock whatever waited on it.
    fn on_fill_complete(&mut self, i: usize, line: LineAddr) {
        match self.cores[i].state {
            CoreState::WaitRead { line: l, issued_at } if l == line => {
                self.reply_latency.record(self.now - issued_at);
                self.cores[i].state = CoreState::Ready;
                self.cores[i].next_at = self.now + 1;
            }
            CoreState::LockRead { lock, line: l } if l == line => {
                self.try_take_lock(i, lock);
            }
            CoreState::SpinLockRead { lock } if self.lock_line(lock) == line => {
                self.try_take_lock(i, lock);
            }
            CoreState::SpinBarrierRead { episode }
                if AppProfile::barrier_sense_line(self.cfg.line_bytes) == line =>
            {
                self.check_barrier_release(i, episode);
            }
            _ => {} // posted-write fill or stale: nothing blocks on it
        }
    }

    // ----- reporting ------------------------------------------------------

    /// Builds the report for a finished (or interrupted) run.
    pub fn report(&mut self) -> RunReport {
        let cycles = self.now.as_u64();
        let active: u64 = self.cores.iter().map(|c| c.stats.active_cycles).sum();
        let stalled: u64 = self.cores.iter().map(|c| c.stats.stalled_cycles).sum();
        let network_j = self.net.energy_j(cycles);
        let power = ChipPowerModel::paper_default();
        let energy: ChipEnergy = power.energy(self.cfg.nodes, cycles, active, stalled, network_j);
        let (issued, correct, wrong) = self.net.hint_stats();
        let miss_rates: Vec<f64> = self
            .l1s
            .iter()
            .map(|l1| {
                let s = l1.stats();
                let total = s.read_hits + s.read_misses + s.write_hits + s.write_misses;
                if total == 0 {
                    0.0
                } else {
                    (s.read_misses + s.write_misses) as f64 / total as f64
                }
            })
            .collect();
        assert_eq!(
            self.protocol_errors, 0,
            "protocol errors observed; first: {:?}",
            self.first_protocol_error
        );
        let dir_sum = |f: fn(&DirStats) -> u64| self.dirs.iter().map(|d| f(d.stats())).sum();
        let mut profile = Registry::new();
        for (span, count) in [
            ("sim/cycles", cycles),
            ("sim/ticks", self.ticks),
            ("sim/events", self.events_processed),
            ("sim/ff/jumps", self.ff_jumps),
            ("sim/ff/cycles_skipped", self.ff_cycles_skipped),
            ("coh/dir/requests", dir_sum(|s| s.requests)),
            ("coh/dir/evictions", dir_sum(|s| s.evictions)),
            ("coh/dir/nacks", dir_sum(|s| s.nacks)),
            ("coh/dir/deferred", dir_sum(|s| s.deferred)),
            ("coh/dir/mem_reads", dir_sum(|s| s.mem_reads)),
            ("coh/dir/mem_writes", dir_sum(|s| s.mem_writes)),
        ] {
            profile.inc(span, &[], count);
        }
        RunReport {
            app: self.app.name.to_string(),
            network: self.net.name().to_string(),
            cycles,
            attribution: self.net.attribution(),
            reply_latency: std::mem::replace(&mut self.reply_latency, Histogram::new(10, 20)),
            meta_tx_probability: self.net.tx_probability(0),
            data_tx_probability: self.net.tx_probability(1),
            meta_collision_rate: self.net.collision_rate(0),
            data_collision_rate: self.net.collision_rate(1),
            packets_sent: self.packets_sent,
            data_by_kind: self.data_by_kind,
            collided_by_kind: self.collided_by_kind,
            acks_elided: self.acks_elided,
            subscription_packets_saved: self.hub.packets_saved(),
            l1_miss_rate: miss_rates.iter().sum::<f64>() / miss_rates.len() as f64,
            active_cycles: active,
            stalled_cycles: stalled,
            energy,
            data_resolution_delay: self.net.data_resolution_delay(),
            hint_accuracy: if issued == 0 {
                0.0
            } else {
                correct as f64 / issued as f64
            },
            hint_wrong_rate: if issued == 0 {
                0.0
            } else {
                wrong as f64 / issued as f64
            },
            bit_error_drops: self.net.bit_error_drops(),
            profile,
        }
    }
}

/// Outcome classes of a read issue.
#[derive(Debug, PartialEq, Eq)]
enum ReadIssue {
    Hit,
    Miss,
    Stalled,
}

/// Salt decorrelating the system RNG from the network's (same user seed).
const SYSTEM_SEED_SALT: u64 = 0xF501_2010_15CA_2010;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::NetworkKind;

    fn small_cfg(kind: NetworkKind) -> (SystemConfig, AppProfile) {
        let cfg = SystemConfig::paper_16(kind);
        let mut app = AppProfile::by_name("tsp").unwrap();
        app.ops_per_core = 300;
        (cfg, app)
    }

    #[test]
    fn fsoi_system_runs_to_completion() {
        let (cfg, app) = small_cfg(NetworkKind::fsoi(16));
        let mut sys = CmpSystem::new(cfg, app);
        let report = sys.run(2_000_000);
        assert!(report.cycles > 0);
        assert!(report.packets_sent[0] > 0, "meta traffic flowed");
        assert!(report.packets_sent[1] > 0, "data traffic flowed");
        assert!(report.l1_miss_rate > 0.0);
        assert!(report.reply_latency.count() > 0);
    }

    #[test]
    fn metric_snapshots_are_byte_identical_across_same_seed_runs() {
        // Figure 6-style configuration (16-node FSOI, paper workload mix,
        // reduced op count) run twice from the same seed: the registry
        // snapshot — the single code path behind every exported number —
        // must match byte for byte.
        let snapshot = || {
            let (cfg, app) = small_cfg(NetworkKind::fsoi(16));
            let report = CmpSystem::new(cfg, app).run(2_000_000);
            let reg = report.registry();
            (reg.to_jsonl(), reg.to_table())
        };
        let (jsonl_a, table_a) = snapshot();
        let (jsonl_b, table_b) = snapshot();
        assert!(!jsonl_a.is_empty());
        assert_eq!(
            jsonl_a, jsonl_b,
            "same-seed JSONL snapshots must be byte-identical"
        );
        assert_eq!(
            table_a, table_b,
            "same-seed table snapshots must be byte-identical"
        );
    }

    #[test]
    fn eviction_pressure_exports_are_byte_identical_across_same_seed_runs() {
        // Shrinks the L2 slices so the directory's eviction-victim choice
        // (once a scan of a HashMap in hasher order, now a walk of the
        // slab's LRU list, cross-checked against the scan in debug builds)
        // runs hot, then compares the full export byte stream across two
        // same-seed runs. Guards lint rule D1 end to end.
        let snapshot = || {
            let (mut cfg, app) = small_cfg(NetworkKind::fsoi(16));
            cfg.l2_lines = 8;
            let mut sys = CmpSystem::new(cfg, app);
            let report = sys.run(4_000_000);
            let evictions: u64 = sys.dirs.iter().map(|d| d.stats().evictions).sum();
            assert_eq!(
                report.profile.get("coh/dir/evictions"),
                evictions,
                "the profile span is the sum over slices"
            );
            let reg = report.registry();
            (evictions, reg.to_jsonl(), reg.to_table())
        };
        let (ev_a, jsonl_a, table_a) = snapshot();
        let (ev_b, jsonl_b, table_b) = snapshot();
        assert!(ev_a > 0, "the tiny L2 must force eviction scans");
        assert_eq!(ev_a, ev_b, "same-seed eviction counts must match");
        assert_eq!(
            jsonl_a, jsonl_b,
            "same-seed JSONL exports must be byte-identical"
        );
        assert_eq!(
            table_a, table_b,
            "same-seed table exports must be byte-identical"
        );
    }

    #[test]
    fn evictions_at_256_nodes_are_cross_checked() {
        // Four-word sharer masks, capacity evictions and (in a debug
        // build) the directory's list-vs-scan victim cross-check, together:
        // `scripts/ci.sh --tier scale` runs this one by name, unoptimized.
        let snapshot = || {
            let mut cfg = SystemConfig::paper_n(256, NetworkKind::ring(256));
            cfg.l2_lines = 8;
            let mut app = AppProfile::by_name("mp").unwrap();
            app.ops_per_core = 40;
            let report = CmpSystem::new(cfg, app).run(4_000_000);
            let reg = report.registry();
            (
                report.profile.get("coh/dir/evictions"),
                reg.to_jsonl(),
                reg.to_table(),
            )
        };
        let a = snapshot();
        assert!(a.0 > 0, "the tiny L2 must force evictions");
        assert_eq!(a, snapshot(), "same-seed exports must be byte-identical");
    }

    /// Drives a system to completion with `tick()` only — the reference
    /// the fast-forwarding `run()` must match byte for byte.
    fn run_cycle_by_cycle(mut sys: CmpSystem, max: u64) -> RunReport {
        while !sys.finished() {
            assert!(sys.now().as_u64() < max, "reference run did not drain");
            sys.tick();
        }
        sys.report()
    }

    /// `run()` against the ticked reference on one workload: same clock,
    /// byte-identical exports.
    fn assert_fast_forward_exact(kind: NetworkKind, max: u64, tune: impl Fn(&mut AppProfile)) {
        let build = || {
            let (cfg, mut app) = small_cfg(kind.clone());
            tune(&mut app);
            CmpSystem::new(cfg, app)
        };
        let mut sys = build();
        let fast = sys.run(max);
        assert!(sys.ff_jumps > 0, "the workload must exercise the skip path");
        let slow = run_cycle_by_cycle(build(), max);
        assert_eq!(fast.cycles, slow.cycles, "clocks must agree");
        let (fa, sa) = (fast.registry(), slow.registry());
        assert_eq!(fa.to_jsonl(), sa.to_jsonl(), "exports must be identical");
        assert_eq!(fa.to_table(), sa.to_table());
    }

    #[test]
    fn fast_forward_is_byte_identical_on_idle_heavy_workload() {
        // Long compute gaps leave the network idle most of the time, so
        // the fast path spends almost every iteration skipping; the full
        // export must still match the cycle-by-cycle reference exactly.
        assert_fast_forward_exact(NetworkKind::fsoi(16), 2_000_000, |app| {
            app.mean_gap = 400.0;
            app.ops_per_core = 60;
        });
    }

    #[test]
    fn fast_forward_is_byte_identical_on_saturated_workload() {
        // Back-to-back shared accesses keep every slot busy, so the fast
        // path degenerates to ticking — it must change nothing.
        assert_fast_forward_exact(NetworkKind::fsoi(16), 4_000_000, |app| {
            app.mean_gap = 1.0;
            app.shared_hot_fraction = 0.5;
            app.ops_per_core = 250;
        });
    }

    #[test]
    fn fast_forward_is_byte_identical_on_the_mesh() {
        // With long compute gaps most skips start while a lone packet is
        // mid-flight — heads inside router pipelines, flits on links — so
        // the mesh's own next-event bound, not just "idle", is exercised.
        assert_fast_forward_exact(NetworkKind::mesh(16), 2_000_000, |app| {
            app.mean_gap = 400.0;
            app.ops_per_core = 60;
        });
    }

    #[test]
    fn mesh_system_runs_to_completion() {
        let (cfg, app) = small_cfg(NetworkKind::mesh(16));
        let mut sys = CmpSystem::new(cfg, app);
        let report = sys.run(2_000_000);
        assert!(report.cycles > 0);
        assert_eq!(report.meta_collision_rate, 0.0, "mesh has no collisions");
    }

    #[test]
    fn ideal_networks_run_and_order() {
        let mut cycles = Vec::new();
        for kind in [NetworkKind::L0, NetworkKind::Lr1, NetworkKind::Lr2] {
            let (cfg, app) = small_cfg(kind);
            let mut sys = CmpSystem::new(cfg, app);
            cycles.push(sys.run(2_000_000).cycles);
        }
        assert!(cycles[0] <= cycles[1]);
        assert!(cycles[1] <= cycles[2]);
    }

    #[test]
    fn fsoi_beats_mesh_and_trails_l0() {
        let run = |kind| {
            let (cfg, app) = small_cfg(kind);
            CmpSystem::new(cfg, app).run(2_000_000).cycles
        };
        let fsoi = run(NetworkKind::fsoi(16));
        let mesh = run(NetworkKind::mesh(16));
        let l0 = run(NetworkKind::L0);
        assert!(fsoi < mesh, "FSOI {fsoi} must beat mesh {mesh}");
        assert!(l0 <= fsoi, "L0 {l0} bounds FSOI {fsoi}");
    }

    #[test]
    fn lock_app_completes_with_and_without_subscriptions() {
        for subs in [true, false] {
            let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16)).with_optimizations(subs);
            // tsp has only two locks, so 16 cores contend heavily and
            // subscriptions are guaranteed to engage.
            let mut app = AppProfile::by_name("tsp").unwrap();
            app.lock_interval = 30;
            app.ops_per_core = 400;
            let mut sys = CmpSystem::new(cfg, app);
            let r = sys.run(3_000_000);
            let acquires: u64 = sys.cores.iter().map(|c| c.stats.lock_acquires).sum();
            assert!(acquires > 0, "locks exercised (subs={subs})");
            if subs {
                assert!(r.subscription_packets_saved > 0);
            } else {
                assert_eq!(r.subscription_packets_saved, 0);
            }
        }
    }

    #[test]
    fn barrier_app_completes() {
        let (cfg, _) = small_cfg(NetworkKind::fsoi(16));
        let mut app = AppProfile::by_name("fft").unwrap();
        app.ops_per_core = 400;
        let mut sys = CmpSystem::new(cfg, app);
        sys.run(3_000_000);
        let passed: u64 = sys.cores.iter().map(|c| c.stats.barriers_passed).sum();
        assert!(passed > 0, "barriers exercised");
    }

    #[test]
    fn ack_elision_reduces_meta_packets() {
        let run = |opt| {
            let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16)).with_optimizations(opt);
            let mut app = AppProfile::by_name("mp").unwrap();
            app.ops_per_core = 300;
            CmpSystem::new(cfg, app).run(3_000_000)
        };
        let with = run(true);
        let without = run(false);
        assert!(with.acks_elided > 0);
        assert_eq!(without.acks_elided, 0);
        assert!(
            with.packets_sent[0] < without.packets_sent[0],
            "elision must shrink meta traffic: {} vs {}",
            with.packets_sent[0],
            without.packets_sent[0]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (cfg, app) = small_cfg(NetworkKind::fsoi(16));
            CmpSystem::new(cfg.with_seed(seed), app)
                .run(2_000_000)
                .cycles
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn memory_bandwidth_matters() {
        let run = |bw| {
            let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16)).with_mem_bandwidth(bw);
            let mut app = AppProfile::by_name("em").unwrap();
            app.ops_per_core = 400;
            CmpSystem::new(cfg, app).run(3_000_000).cycles
        };
        let slow = run(8.8);
        let fast = run(52.8);
        assert!(fast <= slow, "more bandwidth cannot hurt: {fast} vs {slow}");
    }

    #[test]
    fn sixty_four_node_system_runs() {
        let cfg = SystemConfig::paper_64(NetworkKind::fsoi(64));
        let mut app = AppProfile::by_name("ws").unwrap();
        app.ops_per_core = 120;
        let mut sys = CmpSystem::new(cfg, app);
        let r = sys.run(3_000_000);
        assert!(r.cycles > 0);
    }
}
