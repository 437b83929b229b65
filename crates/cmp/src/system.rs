//! The chip-multiprocessor system: cores, L1s, directories, memory
//! channels and one of the interconnects, wired together as an
//! event-driven kernel: a cycle costs what its due cores, its due events
//! and the network's own tick cost, never a walk over all cores.
//!
//! Three details deserve a note:
//!
//! * **Wake wheel and lazy accounting.** A core acts on its own only when
//!   it issues (`Ready`) or probes a sync word (`SpinLock`/`SpinBarrier`);
//!   everything else waits for an event. [`WakeWheel`] files each such
//!   core under the cycle of that action, so a tick visits exactly the
//!   cores due in it — in ascending index, the order an all-cores scan
//!   would reach them, which `route`, the locks and the RNG draws depend
//!   on. Active and stalled cycles are credited when a core changes class
//!   ([`Core::set_state`]), not counted per cycle, and `finished` reads a
//!   live-core count. The all-cores scan survives as the test-only
//!   reference (`run_full_scan`) the kernel is property-tested equal to.
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
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::CalendarQueue;
use fsoi_sim::metrics::Registry;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::stats::Histogram;
use fsoi_sim::telemetry::{self, Phase};
use fsoi_sim::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// One busy per-line ordering slot of a sender (§4.4): a message to `dst`
/// about `line` is unconfirmed, and `waiting` holds the followers with
/// their scheduling delay and confirmation-channel (direct) marker. A
/// sender keeps its busy slots in a plain list — a handful at a time —
/// that is only ever searched by `(dst, line)`, so its order can reach no
/// result.
#[derive(Debug)]
struct OrderSlot {
    dst: usize,
    line: LineAddr,
    waiting: VecDeque<(OutMsg, u64, bool)>,
}

/// Cycles the wake wheel's buckets span; later wakes wait in a heap.
const WHEEL_SPAN: u64 = 64;

/// The cores with a self-driven action ahead, filed by its cycle.
///
/// Invariant, between any two steps of a tick: core `i` is filed iff
/// `cores[i].due_at()` is `Some(due)`, under exactly `max(due, floor)`,
/// where `floor` is the earliest cycle that can still visit it — `now`
/// while events run, `now + 1` once the cores step (one visit per core per
/// cycle, as the scan had). A cycle inside `now .. now + WHEEL_SPAN` is
/// bucket `cycle % WHEEL_SPAN`; anything later sits in `far` until
/// [`refill`](WakeWheel::refill) brings it in.
#[derive(Debug)]
struct WakeWheel {
    buckets: [NodeMask; WHEEL_SPAN as usize],
    /// Bit `b` set ⇔ `buckets[b]` is non-empty.
    occupied: u64,
    /// Wakes at or past the horizon, earliest first. An entry counts only
    /// while `filed` still names its cycle.
    far: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// The cycle each core is filed under.
    filed: Vec<Option<Cycle>>,
}

impl WakeWheel {
    fn new(cores: usize) -> Self {
        WakeWheel {
            buckets: [NodeMask::new(); WHEEL_SPAN as usize],
            occupied: 0,
            far: BinaryHeap::new(),
            filed: vec![None; cores],
        }
    }

    fn bucket_of(at: Cycle) -> usize {
        (at.as_u64() % WHEEL_SPAN) as usize
    }

    fn add_to_bucket(&mut self, core: usize, at: Cycle) {
        let b = Self::bucket_of(at);
        self.buckets[b].insert(core);
        self.occupied |= 1 << b;
    }

    /// Files `core` under `at` (nowhere for `None`) in place of its
    /// current entry. `now` places the horizon.
    fn file(&mut self, core: usize, at: Option<Cycle>, now: Cycle) {
        let old = std::mem::replace(&mut self.filed[core], at);
        if old == at {
            return;
        }
        if let Some(old) = old {
            // A far entry just goes stale: `filed` no longer names it.
            let b = Self::bucket_of(old);
            if self.buckets[b].remove(core) && self.buckets[b].is_empty() {
                self.occupied &= !(1 << b);
            }
        }
        match at {
            Some(at) if at.as_u64() < now.as_u64() + WHEEL_SPAN => self.add_to_bucket(core, at),
            Some(at) => self.far.push(Reverse((at, core))),
            None => {}
        }
    }

    /// The cores filed under `now`.
    fn due(&self, now: Cycle) -> NodeMask {
        self.buckets[Self::bucket_of(now)]
    }

    /// Moves the far wakes that `now`'s horizon has reached into their
    /// buckets; called whenever `now` advances.
    fn refill(&mut self, now: Cycle) {
        while let Some(&Reverse((at, core))) = self.far.peek() {
            if at.as_u64() >= now.as_u64() + WHEEL_SPAN {
                break;
            }
            self.far.pop();
            if self.filed[core] == Some(at) {
                self.add_to_bucket(core, at);
            }
        }
    }

    /// The earliest filed cycle: the first non-empty bucket from `now`
    /// on, else the head of the far heap.
    fn next_due(&mut self, now: Cycle) -> Option<Cycle> {
        if self.occupied != 0 {
            let from_now = self.occupied.rotate_right(Self::bucket_of(now) as u32);
            return Some(now + u64::from(from_now.trailing_zeros()));
        }
        while let Some(&Reverse((at, core))) = self.far.peek() {
            if self.filed[core] == Some(at) {
                return Some(at);
            }
            self.far.pop();
        }
        None
    }
}

/// The simulated CMP.
#[derive(Debug)]
pub struct CmpSystem {
    cfg: SystemConfig,
    /// The caller's profile, before weak scaling.
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
    /// Due events: most land within a few dozen cycles (processing
    /// latencies, confirmations, request spacing), memory replies later.
    pending: CalendarQueue<Pending>,
    /// In-flight message payloads, indexed by packet tag.
    msgs: Vec<Option<(usize, CoherenceMsg)>>,
    free_tags: Vec<u64>,
    /// Per-line point-to-point ordering: each sender's busy slots.
    order: Vec<Vec<OrderSlot>>,
    wheel: WakeWheel,
    /// Cores not yet `Done`.
    live: usize,
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
    // inputs and the `run()` drive, gathered into the `sim/*` entries of
    // `RunReport::profile` by `report()`. Deliberately *not* part of
    // `RunReport::export()` — a tick-only drive (the fast-forward
    // reference tests) legitimately differs from `run()` here.
    ticks: u64,
    ff_jumps: u64,
    ff_cycles_skipped: u64,
    events_processed: u64,
}

impl CmpSystem {
    /// Builds the system for one application, weak-scaled to the node
    /// count (the cold shared footprint grows by `nodes / 16` past 16
    /// nodes), with every L2 slice warmed from the profile's address map
    /// ([`Directory::warmed`]): the paper measures steady-state windows
    /// (e.g. "between a fixed number of barrier instances"), so the shared
    /// data is L2-resident when timing starts.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SystemConfig::validate`] or `app` fails
    /// [`AppProfile::validate`] for `cfg`'s node count and line size.
    pub fn new(cfg: SystemConfig, app: AppProfile) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: a rejected configuration or profile is the caller's bug; fail before building anything"
        )]
        let scaled = {
            cfg.validate().expect("invalid SystemConfig");
            app.validate(cfg.nodes, cfg.line_bytes)
                .and_then(|()| app.weak_scaled(cfg.nodes))
                .expect("invalid AppProfile")
        };
        let (n, line_bytes) = (cfg.nodes, cfg.line_bytes);
        let channels = if n == 64 { 8 } else { (n / 4).max(1) };
        let mem = MemorySystem::new(n, channels, cfg.mem_gb_per_s, cfg.mem_latency, 3.3e9);
        let l1s = (0..n)
            .map(|i| {
                let mut l1 = L1Controller::new(i, cfg.l1_lines, cfg.l1_ways, line_bytes);
                l1.set_home_nodes(n);
                l1
            })
            .collect();
        let dirs = {
            let _warm = telemetry::span(Phase::Warmup);
            // Each slice takes its share of every region, in map order —
            // the order a line-by-line walk of the map would reach it.
            let runs = scaled.region_runs(n, line_bytes);
            (0..n)
                .map(|i| {
                    let homed = runs.iter().map(|run| run.homed_at(i, line_bytes, n));
                    Directory::warmed(i, mem.controller_node(i), cfg.l2_lines, homed)
                })
                .collect()
        };
        let mut sys = CmpSystem {
            app,
            now: Cycle::ZERO,
            cores: (0..n)
                .map(|i| Core::new(i, CoreWorkload::new(scaled, i, line_bytes, cfg.seed)))
                .collect(),
            l1s,
            dirs,
            mem,
            locks: (0..app.locks.max(1)).map(|_| SpinLock::new()).collect(),
            barrier: Barrier::new(n),
            hub: BooleanSubscriptionHub::new(),
            rng: Xoshiro256StarStar::new(cfg.seed ^ SYSTEM_SEED_SALT),
            pending: CalendarQueue::new(),
            msgs: Vec::new(),
            free_tags: Vec::new(),
            order: (0..n).map(|_| Vec::new()).collect(),
            wheel: WakeWheel::new(n),
            live: n,
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
        };
        for i in 0..n {
            sys.repark(i, Cycle::ZERO);
        }
        sys
    }

    /// The same cell at another seed:
    /// `CmpSystem::new(cfg.with_seed(seed), app)`.
    pub fn fork(&self, seed: u64) -> CmpSystem {
        CmpSystem::new(self.cfg.clone().with_seed(seed), self.app)
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
        self.check_drained();
        self.report()
    }

    /// Jumps `now` to the next cycle at which anything can happen — the
    /// earliest pending event, filed core wake (issue or spin probe), or
    /// network event. A no-op when work is due this cycle or the next,
    /// the injection backlog is non-empty (it retries every cycle), or the
    /// network cannot bound its next event.
    ///
    /// Byte-identical to ticking through the span: no pending event, core
    /// wake, or network event lies strictly inside it, and with cycles
    /// accounted at class changes a skipped `tick` would have done nothing
    /// but count itself.
    fn fast_forward(&mut self, max: u64) {
        if !self.inject_backlog.is_empty() {
            return; // the backlog retries every cycle
        }
        // The O(1) bounds first — the pending-event head, then the wheel.
        // In busy phases something is almost always due within a cycle,
        // and bailing here keeps the network scan (the expensive bound)
        // off the per-tick path.
        let soon = self.now + 1; // due by then: a skip could not save a tick
        let events = self.pending.peek_time().unwrap_or(Cycle(u64::MAX));
        if events <= soon {
            return;
        }
        let cores = self.wheel.next_due(self.now).unwrap_or(Cycle(u64::MAX));
        if cores <= soon {
            return;
        }
        let next = match self.net.next_event_at() {
            Some(t) => t.min(events).min(cores),
            None => return, // busy network without an event bound: tick it
        };
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
        self.ff_jumps += 1;
        self.ff_cycles_skipped += next - self.now;
        self.net.advance_to(next);
        self.now = next;
        self.wheel.refill(self.now);
    }

    fn finished(&self) -> bool {
        self.live == 0
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
            // Ascending index: the all-cores scan minus its no-op visits.
            for i in self.wheel.due(self.now).iter() {
                self.step_core(i);
            }
        }
        self.now += 1;
        self.wheel.refill(self.now);
        self.check_kernel();
    }

    /// Debug builds: recomputes what the kernel keeps incrementally from
    /// the state it summarizes — the all-cores walks it replaced.
    fn check_kernel(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let wheel = &self.wheel;
        let (mut buckets, mut occupied) = ([NodeMask::new(); WHEEL_SPAN as usize], 0u64);
        let (mut far, mut live) = (NodeMask::new(), 0);
        for (i, core) in self.cores.iter().enumerate() {
            live += usize::from(!core.is_done());
            let at = core.due_at().map(|due| due.max(self.now));
            assert_eq!(wheel.filed[i], at, "core {i} is filed under its wake");
            match at {
                Some(at) if at.as_u64() < self.now.as_u64() + WHEEL_SPAN => {
                    buckets[WakeWheel::bucket_of(at)].insert(i);
                    occupied |= 1 << WakeWheel::bucket_of(at);
                }
                Some(_) => {
                    far.insert(i);
                }
                None => {}
            }
        }
        assert_eq!(wheel.buckets, buckets, "buckets at {}", self.now);
        assert_eq!(wheel.occupied, occupied, "occupancy at {}", self.now);
        let in_heap = wheel.far.iter().map(|&Reverse(entry)| entry);
        let in_heap: NodeMask = in_heap
            .filter(|&(at, i)| wheel.filed[i] == Some(at))
            .map(|(_, i)| i)
            .collect();
        assert_eq!(in_heap, far, "far heap at {}", self.now);
        assert_eq!(self.live, live, "live-core count");
    }

    /// Debug builds: what a drained run must have given back — every
    /// packet tag and every §4.4 ordering slot. (The injection backlog and
    /// the event queue need no check: `finished()` requires both empty.)
    fn check_drained(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(
            self.free_tags.len() == self.msgs.len() && self.msgs.iter().all(Option::is_none),
            "every packet tag is back on free_tags: {} free of {}",
            self.free_tags.len(),
            self.msgs.len()
        );
        for (from, slots) in self.order.iter().enumerate() {
            assert!(slots.is_empty(), "node {from} still holds ordering slots");
        }
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
        let (dst, line) = (out.to, out.msg.line());
        let slots = &mut self.order[from];
        if let Some(busy) = slots.iter_mut().find(|s| s.dst == dst && s.line == line) {
            busy.waiting.push_back((out, scheduling_delay, direct));
            return;
        }
        slots.push(OrderSlot {
            dst,
            line,
            waiting: VecDeque::new(),
        });
        self.transmit(from, out, scheduling_delay, direct);
    }

    /// The sender saw the confirmation of its message to `dst` about
    /// `line`: the oldest follower goes out under the same slot, or the
    /// slot frees.
    fn release_order(&mut self, (from, dst, line): (usize, usize, LineAddr)) {
        let slots = &mut self.order[from];
        let holds = |s: &OrderSlot| s.dst == dst && s.line == line;
        debug_assert_eq!(slots.iter().filter(|s| holds(s)).count(), 1, "one slot");
        let Some(at) = slots.iter().position(holds) else {
            return; // every release answers one transmission, which holds the slot
        };
        match slots[at].waiting.pop_front() {
            Some((out, sd, direct)) => self.transmit(from, out, sd, direct),
            None => {
                slots.swap_remove(at);
            }
        }
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
                Pending::ReleaseOrder { key } => self.release_order(key),
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
        line.home(self.cfg.line_bytes, self.cfg.nodes)
    }

    // ----- core driving ------------------------------------------------

    /// Core `i`'s turn in the current cycle: a due spin probe, else a due
    /// issue; nothing for a core with no action due.
    fn step_core(&mut self, i: usize) {
        if self.cores[i].due_at().is_none_or(|due| due > self.now) {
            return;
        }
        self.maybe_probe(i);
        if self.cores[i].wants_to_issue(self.now) {
            match self.cores[i].take_op() {
                Some(op) => self.execute(i, op),
                None => self.retire(i),
            }
        }
        // This was the core's one visit of the cycle.
        self.repark(i, self.now + 1);
    }

    /// Core `i`'s stream is exhausted. One that ends inside a critical
    /// section would keep its lock for good and wedge the next core to
    /// want it, so the lock frees here, with no store simulated. A run
    /// that used to drain is untouched: nobody in it asked for such a
    /// lock again, or it would not have drained.
    fn retire(&mut self, i: usize) {
        self.set_state(i, CoreState::Done);
        self.live -= 1;
        if let Some(lock) = self.cores[i].workload.held_lock() {
            self.locks[lock].release(i);
            self.push_update(self.lock_line(lock), i);
        }
    }

    /// §5.1 subscriptions: pushes `writer`'s update of a sync word to its
    /// subscribers over the confirmation channel.
    fn push_update(&mut self, line: LineAddr, writer: usize) {
        if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
            for target in self.hub.push_update(line, writer) {
                self.pending.push(
                    self.now + CONFIRMATION_DELAY,
                    Pending::Wake { core: target },
                );
            }
        }
    }

    fn set_state(&mut self, i: usize, state: CoreState) {
        self.cores[i].set_state(state, self.now);
    }

    /// Refiles core `i` after anything that may have moved its wake.
    /// `floor` is the earliest cycle that can still visit it.
    fn repark(&mut self, i: usize, floor: Cycle) {
        let at = self.cores[i].due_at().map(|due| due.max(floor));
        self.wheel.file(i, at, self.now);
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
                let issued_at = self.now;
                self.set_state(i, CoreState::WaitRead { line, issued_at });
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
                self.set_state(i, CoreState::LockRead { lock, line });
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
            self.set_state(i, CoreState::Ready);
            self.cores[i].next_at = self.now + 1;
        } else if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
            self.hub.subscribe(line, i);
            self.set_state(i, CoreState::WaitLockWake { lock });
        } else {
            let next_probe = self.now + SPIN_PROBE_PERIOD;
            self.set_state(i, CoreState::SpinLock { lock, next_probe });
        }
    }

    fn do_lock_release(&mut self, i: usize, lock: usize) {
        let line = self.lock_line(lock);
        self.locks[lock].release(i);
        let acc = self.l1s[i].write(line);
        for out in acc.out {
            self.route(i, out, 0, false);
        }
        self.push_update(line, i);
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
            self.push_update(sense_line, i);
            self.set_state(i, CoreState::Ready);
            self.cores[i].next_at = self.now + 1;
        } else if self.cfg.opt_subscriptions && self.net.supports_confirmation_acks() {
            self.hub.subscribe(sense_line, i);
            self.set_state(i, CoreState::WaitBarrierWake { episode });
        } else {
            let spin = CoreState::SpinBarrier {
                episode,
                next_probe: self.now + SPIN_PROBE_PERIOD,
            };
            self.set_state(i, spin);
        }
    }

    // ----- spin probes and wakes ------------------------------------------

    fn maybe_probe(&mut self, i: usize) {
        match self.cores[i].state() {
            CoreState::SpinLock { lock, next_probe } if next_probe <= self.now => {
                let line = self.lock_line(lock);
                match self.issue_read(i, line) {
                    ReadIssue::Hit => self.try_take_lock(i, lock),
                    ReadIssue::Miss => {
                        self.set_state(i, CoreState::SpinLockRead { lock });
                    }
                    ReadIssue::Stalled => {
                        let next_probe = self.now + 1;
                        self.set_state(i, CoreState::SpinLock { lock, next_probe });
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
                        self.set_state(i, CoreState::SpinBarrierRead { episode });
                    }
                    ReadIssue::Stalled => {
                        let spin = CoreState::SpinBarrier {
                            episode,
                            next_probe: self.now + 1,
                        };
                        self.set_state(i, spin);
                    }
                }
            }
            _ => {}
        }
    }

    fn check_barrier_release(&mut self, i: usize, episode: u64) {
        if self.barrier.episodes() > episode {
            self.cores[i].stats.barriers_passed += 1;
            self.set_state(i, CoreState::Ready);
            self.cores[i].next_at = self.now + 1;
        } else {
            let spin = CoreState::SpinBarrier {
                episode,
                next_probe: self.now + SPIN_PROBE_PERIOD,
            };
            self.set_state(i, spin);
        }
    }

    fn wake_core(&mut self, i: usize) {
        match self.cores[i].state() {
            CoreState::WaitLockWake { lock } => self.try_take_lock(i, lock),
            CoreState::WaitBarrierWake { episode } => {
                let line = AppProfile::barrier_sense_line(self.cfg.line_bytes);
                if self.barrier.episodes() > episode {
                    self.hub.unsubscribe(line, i);
                    self.cores[i].stats.barriers_passed += 1;
                    self.set_state(i, CoreState::Ready);
                    self.cores[i].next_at = self.now + 1;
                }
            }
            _ => {} // stale wake: ignore
        }
        self.repark(i, self.now);
    }

    /// A fill completed at node `i`: unblock whatever waited on it.
    fn on_fill_complete(&mut self, i: usize, line: LineAddr) {
        match self.cores[i].state() {
            CoreState::WaitRead { line: l, issued_at } if l == line => {
                self.reply_latency.record(self.now - issued_at);
                self.set_state(i, CoreState::Ready);
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
        self.repark(i, self.now);
    }

    // ----- reporting ------------------------------------------------------

    /// Builds the report for a finished (or interrupted) run. Nothing the
    /// run depends on changes: it goes on as if no report had been taken.
    pub fn report(&mut self) -> RunReport {
        let cycles = self.now.as_u64();
        // Each core's closed spans plus its open one, left open.
        let (mut active, mut stalled) = (0, 0);
        for stats in self.cores.iter().map(|c| c.stats_at(self.now)) {
            active += stats.active_cycles;
            stalled += stats.stalled_cycles;
        }
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
            reply_latency: self.reply_latency.clone(),
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
        assert_fast_forward_exact_on(SystemConfig::paper_16(kind), max, tune);
    }

    fn assert_fast_forward_exact_on(cfg: SystemConfig, max: u64, tune: impl Fn(&mut AppProfile)) {
        let build = || {
            let (_, mut app) = small_cfg(cfg.network.clone());
            tune(&mut app);
            CmpSystem::new(cfg.clone(), app)
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
    fn fast_forward_is_byte_identical_on_networks_without_an_event_bound() {
        // Ring, crossbar and Lr2 answer "unknown while busy", so the skip
        // path alternates with ticking; gaps of 30 keep the core wakes
        // inside the wheel's buckets, gaps of 400 mostly in its far heap.
        for kind in [
            NetworkKind::ring(16),
            NetworkKind::crossbar(16),
            NetworkKind::Lr2,
        ] {
            for gap in [30.0, 400.0] {
                assert_fast_forward_exact(kind.clone(), 2_000_000, |app| {
                    app.mean_gap = gap;
                    app.ops_per_core = 60;
                });
            }
        }
    }

    #[test]
    fn fast_forward_is_byte_identical_with_spin_probes_on_the_wheel() {
        // Two locks, sixteen contenders and no subscriptions: the waiters
        // sit in `SpinLock`, whose probes are wheel entries like issues.
        let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16)).with_optimizations(false);
        assert_fast_forward_exact_on(cfg, 4_000_000, |app| {
            app.lock_interval = 30;
            app.ops_per_core = 400;
        });
    }

    /// The kernel's slow reference — the per-cycle loop it replaced.
    /// Every tick visits all cores `0..n` through the same `step_core`,
    /// classifies each core from the state it then observes, and tests
    /// completion by scanning the cores: it consults none of the wheel,
    /// `Core::since` or the live count (the shared transitions still
    /// write them). Returns the drained system with every core's cycle
    /// counts replaced by the per-cycle tally; all cores are `Done` by
    /// then, so no open span is left to add to it.
    fn run_full_scan(mut sys: CmpSystem, max: u64) -> CmpSystem {
        let n = sys.cores.len();
        let mut tally = vec![(0u64, 0u64); n];
        while !(sys.cores.iter().all(|c| c.is_done())
            && sys.pending.is_empty()
            && sys.inject_backlog.is_empty()
            && sys.net.is_idle())
        {
            assert!(sys.now.as_u64() < max, "reference run did not drain");
            sys.net.tick();
            sys.drain_network();
            sys.process_pending();
            sys.retry_backlog();
            for i in 0..n {
                sys.step_core(i);
            }
            for (core, (active, stalled)) in sys.cores.iter().zip(&mut tally) {
                match core.state() {
                    CoreState::Done => {}
                    CoreState::Ready => *active += 1,
                    _ => *stalled += 1,
                }
            }
            sys.now += 1;
        }
        for (core, (active, stalled)) in sys.cores.iter_mut().zip(tally) {
            core.stats.active_cycles = active;
            core.stats.stalled_cycles = stalled;
        }
        sys
    }

    /// One drawn input of `wake_driven_equals_full_scan`.
    #[derive(Debug, Clone)]
    struct KernelCase {
        network: &'static str,
        nodes: usize,
        app: &'static str,
        mean_gap: f64,
        lock_interval: u64,
        barrier_interval: u64,
        optimizations: bool,
        small_l2: bool,
        zero_l1_latency: bool,
        ops_per_core: u64,
        seed: u64,
    }

    impl KernelCase {
        fn build(&self) -> CmpSystem {
            let kind = NetworkKind::by_name(self.network, self.nodes).unwrap();
            let mut cfg = SystemConfig::paper_n(self.nodes, kind)
                .with_optimizations(self.optimizations)
                .with_seed(self.seed);
            if self.small_l2 {
                cfg.l2_lines = 8;
            }
            if self.zero_l1_latency {
                // A hit then leaves `next_at == now`: only the cores-phase
                // floor keeps that from being a second visit in one cycle.
                cfg.l1_latency = 0;
            }
            let mut app = AppProfile::by_name(self.app).unwrap();
            app.mean_gap = self.mean_gap;
            app.lock_interval = self.lock_interval;
            if self.lock_interval > 0 {
                app.locks = app.locks.max(2);
            }
            app.barrier_interval = self.barrier_interval;
            // Half the span at 64 nodes and a quarter at 256, where an
            // unoptimized case costs what dozens of 16-node ones do.
            let span = self.ops_per_core - 40;
            app.ops_per_core = 40
                + match self.nodes {
                    16 => span,
                    64 => span / 2,
                    _ => span / 4,
                };
            CmpSystem::new(cfg, app)
        }
    }

    #[test]
    fn wake_driven_equals_full_scan() {
        use fsoi_check::{any_bool, select, Checker, Gen};
        const NETWORKS: [&str; 7] = ["fsoi", "mesh", "ring", "crossbar", "L0", "Lr1", "Lr2"];
        // 256 nodes in 1 case of 64: one or none at the default case
        // count, ~5 under `scripts/ci.sh --tier scale`'s 300.
        let mut nodes = vec![16; 48];
        nodes.extend([64; 15]);
        nodes.push(256);
        let apps: Vec<&'static str> = AppProfile::suite().iter().map(|p| p.name).collect();
        let gen = (
            (
                select(&NETWORKS),
                select(&nodes),
                select(&apps),
                select(&[2.5, 0.0, 1.0, 30.0, 100.0, 400.0]),
            ),
            (
                select(&[0u64, 10, 30]),
                select(&[0u64, 50]),
                any_bool(),
                any_bool(),
            ),
            (
                select(&[false, false, false, true]),
                40u64..301,
                0u64..u64::MAX,
            ),
        )
            .gen_map(
                |&((network, nodes, app, mean_gap), (lock, barrier, opt, l2), (l1, ops, seed))| {
                    KernelCase {
                        network,
                        nodes,
                        app,
                        mean_gap,
                        lock_interval: lock,
                        barrier_interval: barrier,
                        optimizations: opt,
                        small_l2: l2,
                        zero_l1_latency: l1,
                        ops_per_core: ops,
                        seed,
                    }
                },
            );
        Checker::new().check("wake_driven_equals_full_scan", gen, |case| {
            let scan = run_full_scan(case.build(), 10_000_000);
            let mut wake = case.build();
            // One cycle of slack: a run that outlives the reference's
            // clock fails here instead of idling on to a far deadline.
            let report = wake.run(scan.now.as_u64() + 1);
            assert_eq!(wake.now, scan.now, "final cycle");
            for (i, (w, s)) in wake.cores.iter().zip(&scan.cores).enumerate() {
                assert_eq!(w.stats, s.stats, "core {i}");
            }
            let (w, s) = (&wake.reply_latency, &scan.reply_latency);
            assert_eq!(format!("{w:?}"), format!("{s:?}"), "reply latencies");
            let mut scan = scan;
            assert_eq!(
                report.registry().to_jsonl(),
                scan.report().registry().to_jsonl(),
                "exports"
            );
        });
    }

    #[test]
    fn report_mid_run_does_not_perturb_the_run() {
        // `report()` once swapped the reply-latency histogram out of the
        // system, so a run reported on midway lost its earlier samples.
        for (kind, seed) in [
            (NetworkKind::L0, 1u64),
            (NetworkKind::fsoi(16), 2),
            (NetworkKind::mesh(16), 3),
        ] {
            let build = || {
                let (cfg, mut app) = small_cfg(kind.clone());
                app.ops_per_core = 200;
                CmpSystem::new(cfg.with_seed(seed), app)
            };
            let whole = build().run(2_000_000);
            let stop = 1 + Xoshiro256StarStar::new(seed).next_below(whole.cycles - 1);
            let mut sys = build();
            while sys.now().as_u64() < stop {
                sys.tick();
            }
            let first = sys.report();
            let again = sys.report();
            assert_eq!(first.to_wire(), again.to_wire(), "back-to-back reports");
            assert!(
                first.active_cycles + first.stalled_cycles > 0,
                "open spans count"
            );
            let resumed = sys.run(2_000_000);
            assert_eq!(
                resumed.registry().to_jsonl(),
                whole.registry().to_jsonl(),
                "a report at tick {stop} must leave no trace"
            );
            assert_eq!(resumed.reply_latency.count(), whole.reply_latency.count());
        }
    }

    #[test]
    fn every_core_cycle_is_classified_once() {
        // Conservation: a core is active or stalled in every cycle before
        // the one it retires in, and in none after.
        let kinds = [
            NetworkKind::fsoi(16),
            NetworkKind::mesh(16),
            NetworkKind::ring(16),
            NetworkKind::crossbar(16),
            NetworkKind::L0,
            NetworkKind::Lr1,
            NetworkKind::Lr2,
        ];
        for kind in kinds {
            for subscriptions in [true, false] {
                let mut cfg = SystemConfig::paper_16(kind.clone());
                cfg.opt_subscriptions = subscriptions;
                let mut app = AppProfile::by_name("fmm").unwrap(); // locks and barriers
                app.lock_interval = 30;
                app.barrier_interval = 70;
                app.ops_per_core = 150;
                let mut sys = CmpSystem::new(cfg, app);
                let mut retired_at = vec![None; 16];
                while !sys.finished() {
                    assert!(sys.now().as_u64() < 2_000_000, "did not drain");
                    let cycle = sys.now().as_u64();
                    sys.tick();
                    for (core, at) in sys.cores.iter().zip(&mut retired_at) {
                        if core.is_done() && at.is_none() {
                            *at = Some(cycle);
                        }
                    }
                }
                let what = format!("{} subscriptions {subscriptions}", sys.net.name());
                let mut total = 0;
                for (core, at) in sys.cores.iter().zip(&retired_at) {
                    let at = at.unwrap();
                    let classified = core.stats.active_cycles + core.stats.stalled_cycles;
                    assert_eq!(classified, at, "{what}: core {}", core.id);
                    assert!(
                        core.stats.stalled_cycles > 0,
                        "{what}: core {} waited",
                        core.id
                    );
                    total += at;
                }
                let report = sys.report();
                assert_eq!(
                    report.active_cycles + report.stalled_cycles,
                    total,
                    "{what}"
                );
            }
        }
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
    fn a_stream_ending_inside_a_critical_section_frees_its_lock() {
        // With a lock every 10 operations some of the 16 streams run out
        // between an acquire and its release; the retired holder used to
        // keep the lock, and the run never drained (seed 0, either way).
        for subs in [false, true] {
            let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16))
                .with_optimizations(subs)
                .with_seed(0);
            let mut app = AppProfile::by_name("ba").unwrap();
            app.lock_interval = 10;
            app.ops_per_core = 51;
            let mut sys = CmpSystem::new(cfg, app);
            sys.run(1_000_000);
            let unfinished = sys.cores.iter().filter(|c| !c.workload.is_done());
            assert!(unfinished.count() > 0, "a stream ended inside a section");
            assert!(sys.locks.iter().all(|l| l.holder().is_none()), "{subs}");
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
    fn memory_latency_is_read_at_every_node_count() {
        for nodes in [16, 64] {
            let run = |latency| {
                let kind = NetworkKind::by_name("fsoi", nodes).unwrap();
                let mut cfg = SystemConfig::paper_n(nodes, kind);
                cfg.mem_latency = latency;
                let mut app = AppProfile::by_name("em").unwrap();
                app.ops_per_core = 100;
                CmpSystem::new(cfg, app).run(3_000_000).cycles
            };
            let (near, far) = (run(200), run(400));
            assert!(far > near, "{nodes} nodes: {far} vs {near} cycles");
        }
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
