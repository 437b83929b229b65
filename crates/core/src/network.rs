//! The cycle-driven FSOI network engine.
//!
//! Each node beams packets directly to their destinations — there is no
//! routing and no arbitration. Transmissions are slotted per packet class;
//! packets from senders sharing a receiver that occupy the same slot
//! *collide* and are retransmitted under exponential back-off after the
//! sender misses its confirmation (which arrives a fixed 2 cycles after a
//! clean receipt). The engine also implements the paper's §5.2 data-lane
//! optimizations: receiver-coordinated retransmission hints and
//! request-spacing slot reservations.
//!
//! A node with nothing queued does nothing, and the engine charges it
//! nothing: per lane, a [`NodeMask`] tracks the *senders* — nodes with a
//! non-empty outgoing queue or a pending retry — and slot boundaries,
//! [`FsoiNetwork::next_event_at`] and [`FsoiNetwork::is_idle`] visit only
//! those. A bit is set when a packet is queued (`inject`) or re-queued
//! after a collision or bit error, and cleared by the pop that empties
//! both; debug builds recompute the masks from the queues after every
//! step. DESIGN.md ("FSOI hot path") argues why this is the full
//! node × lane scan with the no-op nodes left out.
//!
//! # Example
//!
//! ```
//! use fsoi_net::config::FsoiConfig;
//! use fsoi_net::network::FsoiNetwork;
//! use fsoi_net::packet::{Packet, PacketClass};
//! use fsoi_net::topology::NodeId;
//!
//! let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), 42);
//! net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 7)).unwrap();
//! while net.delivered_count() == 0 {
//!     net.tick();
//! }
//! let out = net.drain_delivered();
//! assert_eq!(out[0].packet.dst, NodeId(5));
//! ```

use crate::config::{FsoiConfig, TransmitterArray, CONFIRMATION_DELAY};
use crate::confirmation::{Confirmation, ConfirmationChannel, ConfirmationKind};
use crate::packet::{HeaderCode, Packet, PacketClass};
use crate::phase_array::PhaseArraySteering;
use crate::spacing::ReplySlotReservations;
use crate::topology::{receiver_index, NodeId};
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::{EventQueue, MonotoneQueue};
use fsoi_sim::metrics::Registry;
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::stats::Summary;
use fsoi_sim::trace::{self, TraceEvent};
use fsoi_sim::Cycle;

/// Label values for the two lanes, indexed like every `[meta, data]` pair.
const LANE_NAMES: [&str; 2] = ["meta", "data"];

/// Where each cycle of a delivered packet's latency went (the Figure 6/7
/// breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Waiting in the source's outgoing queue for a free slot.
    pub queuing: u64,
    /// Deliberate request-spacing delay applied before injection.
    pub scheduling: u64,
    /// Serialization + flight of the final, successful transmission.
    pub network: u64,
    /// Time lost to collisions and back-off (first attempt start → final
    /// attempt start).
    pub collision_resolution: u64,
}

impl LatencyBreakdown {
    /// Total latency in cycles.
    pub fn total(&self) -> u64 {
        self.queuing + self.scheduling + self.network + self.collision_resolution
    }
}

/// A successfully delivered packet with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The packet (with final retry count).
    pub packet: Packet,
    /// Cycle of delivery at the destination.
    pub delivered_at: Cycle,
    /// Latency attribution.
    pub breakdown: LatencyBreakdown,
}

/// Aggregate network statistics, indexed `[meta, data]` where per-class.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Packets accepted for injection.
    pub injected: [u64; 2],
    /// Packets rejected because the outgoing queue was full.
    pub rejected: [u64; 2],
    /// Packets delivered.
    pub delivered: [u64; 2],
    /// Transmission attempts (including retransmissions).
    pub transmissions: [u64; 2],
    /// Collision events (a slot at a receiver with ≥ 2 packets).
    pub collision_events: [u64; 2],
    /// Packets involved in collisions.
    pub collided_packets: [u64; 2],
    /// Retransmissions scheduled.
    pub retransmissions: [u64; 2],
    /// Packets dropped by raw bit errors (recovered via retransmission).
    pub bit_error_drops: [u64; 2],
    /// Data-lane hints issued.
    pub hints_issued: u64,
    /// Hints whose winner was a true collider.
    pub hints_correct: u64,
    /// Hints that made a non-collider believe it had won.
    pub hints_wrong: u64,
    /// Total packet latency, per class.
    pub latency: [Summary; 2],
    /// Queuing component.
    pub queuing: [Summary; 2],
    /// Scheduling component.
    pub scheduling: [Summary; 2],
    /// Network component.
    pub network: [Summary; 2],
    /// Collision-resolution component.
    pub resolution: [Summary; 2],
    /// Collision-resolution delay of only those packets that collided.
    pub resolution_when_collided: [Summary; 2],
    /// Retries per delivered packet.
    pub retries: [Summary; 2],
}

impl NetStats {
    /// First-attempt transmission probability per node per slot for a lane:
    /// initial (non-retry) transmissions / (nodes × slots elapsed).
    ///
    /// Returns 0.0 — never `NaN` or `±inf` — for degenerate zero-slot or
    /// zero-node configurations (e.g. a probe before the first slot
    /// boundary, or an empty sweep row).
    pub fn transmission_probability(&self, lane: usize, nodes: usize, slots: u64) -> f64 {
        if slots == 0 || nodes == 0 {
            return 0.0;
        }
        let first = self.transmissions[lane].saturating_sub(self.retransmissions[lane]);
        first as f64 / (nodes as f64 * slots as f64)
    }

    /// Fraction of transmissions that collided, per lane.
    ///
    /// Returns 0.0 instead of `NaN` when nothing has been transmitted yet.
    pub fn collision_rate(&self, lane: usize) -> f64 {
        if self.transmissions[lane] == 0 {
            0.0
        } else {
            self.collided_packets[lane] as f64 / self.transmissions[lane] as f64
        }
    }

    /// Exports every counter and summary into `reg` under `net.*` names,
    /// labelled by lane — the single code path report tables build on.
    pub fn export(&self, reg: &mut Registry) {
        #[expect(
            clippy::needless_range_loop,
            reason = "`lane` indexes a dozen parallel counter arrays, not just LANE_NAMES"
        )]
        for lane in 0..2 {
            let labels: [(&str, &str); 1] = [("lane", LANE_NAMES[lane])];
            reg.inc("net.injected", &labels, self.injected[lane]);
            reg.inc("net.rejected", &labels, self.rejected[lane]);
            reg.inc("net.delivered", &labels, self.delivered[lane]);
            reg.inc("net.transmissions", &labels, self.transmissions[lane]);
            reg.inc("net.collision_events", &labels, self.collision_events[lane]);
            reg.inc("net.collided_packets", &labels, self.collided_packets[lane]);
            reg.inc("net.retransmissions", &labels, self.retransmissions[lane]);
            reg.inc("net.bit_error_drops", &labels, self.bit_error_drops[lane]);
            reg.gauge("net.collision_rate", &labels, self.collision_rate(lane));
            reg.merge_summary("net.latency", &labels, &self.latency[lane]);
            reg.merge_summary("net.latency.queuing", &labels, &self.queuing[lane]);
            reg.merge_summary("net.latency.scheduling", &labels, &self.scheduling[lane]);
            reg.merge_summary("net.latency.network", &labels, &self.network[lane]);
            reg.merge_summary("net.latency.resolution", &labels, &self.resolution[lane]);
            reg.merge_summary(
                "net.latency.resolution_when_collided",
                &labels,
                &self.resolution_when_collided[lane],
            );
            reg.merge_summary("net.retries", &labels, &self.retries[lane]);
        }
        reg.inc("net.hints_issued", &[], self.hints_issued);
        reg.inc("net.hints_correct", &[], self.hints_correct);
        reg.inc("net.hints_wrong", &[], self.hints_wrong);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupKey {
    dst: NodeId,
    lane: usize,
    rx: usize,
    slot_id: u64,
}

#[derive(Debug)]
struct NodeState {
    out: [BoundedQueue<Packet>; 2],
    tx_busy_until: [Cycle; 2],
    retries: [EventQueue<Packet>; 2],
    steering: [PhaseArraySteering; 2],
    reservations: ReplySlotReservations,
    expected_data: NodeMask,
}

/// An in-flight slot group: the packets that occupy one `(dst, rx, slot)`
/// cell of a lane until its resolution event fires.
#[derive(Debug)]
struct SlotGroup {
    slot_id: u64,
    packets: Vec<Packet>,
}

/// Dense per-lane active-slot state, indexed `dst * receivers + rx`.
///
/// Group lookup on the tx and resolve paths is one array index plus a
/// linear scan of the groups live in that cell (at most two under the
/// default one-cycle phase-array setup: the current slot and a
/// not-yet-resolved previous one).
/// Determinism is structural: cells are only ever addressed point-wise by
/// a concrete key — nothing iterates the table — so no iteration order
/// exists to diverge.
#[derive(Debug)]
struct SlotTable {
    cells: Vec<Vec<SlotGroup>>,
    receivers: usize,
    live: usize,
}

impl SlotTable {
    fn new(nodes: usize, receivers: usize) -> Self {
        SlotTable {
            cells: (0..nodes * receivers).map(|_| Vec::new()).collect(),
            receivers,
            live: 0,
        }
    }

    /// Adds `packet` to its slot group, drawing a recycled packet buffer
    /// from `pool` when the group is new. Returns true exactly when a new
    /// group was created — the caller owes one resolution event per group.
    fn push(&mut self, key: &GroupKey, packet: Packet, pool: &mut Vec<Vec<Packet>>) -> bool {
        let cell = &mut self.cells[key.dst.0 * self.receivers + key.rx];
        if let Some(group) = cell.iter_mut().find(|g| g.slot_id == key.slot_id) {
            group.packets.push(packet);
            return false;
        }
        let mut packets = pool.pop().unwrap_or_default();
        packets.push(packet);
        cell.push(SlotGroup {
            slot_id: key.slot_id,
            packets,
        });
        self.live += 1;
        true
    }

    /// Removes and returns the packets of `key`'s group, if it is live.
    /// The caller returns the buffer to the pool after resolving it.
    fn take(&mut self, key: &GroupKey) -> Option<Vec<Packet>> {
        let cell = &mut self.cells[key.dst.0 * self.receivers + key.rx];
        let pos = cell.iter().position(|g| g.slot_id == key.slot_id)?;
        self.live -= 1;
        Some(cell.swap_remove(pos).packets)
    }
}

/// Pending slot resolutions: one FIFO per lane, merged on pop.
///
/// A lane's resolution cycle — slot end plus the phase-array setup — never
/// decreases from one push to the next (the [`MonotoneQueue`] contract), so
/// each FIFO is already sorted by `(at, seq)`, and popping the smaller of
/// the two heads is exactly the pop order of one time-ordered,
/// FIFO-tie-broken heap over both lanes.
#[derive(Debug, Default)]
struct Resolutions {
    lanes: [MonotoneQueue<(u64, GroupKey)>; 2],
    next_seq: u64,
}

impl Resolutions {
    fn push(&mut self, at: Cycle, key: GroupKey) {
        self.lanes[key.lane].push(at, (self.next_seq, key));
        self.next_seq += 1;
    }

    /// `(at, seq)` of a lane's head; an empty lane sorts after everything.
    fn head(&self, lane: usize) -> (Cycle, u64) {
        self.lanes[lane]
            .peek()
            .map_or((Cycle(u64::MAX), u64::MAX), |&(at, (seq, _))| (at, seq))
    }

    fn peek_time(&self) -> Option<Cycle> {
        let at = self.head(0).0.min(self.head(1).0);
        (at != Cycle(u64::MAX)).then_some(at)
    }

    fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, GroupKey)> {
        let lane = usize::from(self.head(1) < self.head(0));
        let (at, (_, key)) = self.lanes[lane].pop_due(now)?;
        Some((at, key))
    }

    fn len(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The free-space optical interconnect simulator.
#[derive(Debug)]
pub struct FsoiNetwork {
    cfg: FsoiConfig,
    now: Cycle,
    rng: Xoshiro256StarStar,
    nodes: Vec<NodeState>,
    // Per lane, the nodes with a non-empty `out` queue or a pending retry:
    // the only nodes a slot boundary, `next_event_at` or `is_idle` visits.
    senders: [NodeMask; 2],
    // Slot groups feed collision resolution and the delivered-packet
    // order, which feed every export; the dense table is deterministic by
    // construction (point-wise addressing only, lint rule D1).
    slots: [SlotTable; 2],
    // Free-list of packet buffers for slot groups: steady-state slot
    // turnover recycles instead of allocating.
    pool: Vec<Vec<Packet>>,
    resolutions: Resolutions,
    confirmations: ConfirmationChannel,
    delivered: Vec<Delivered>,
    stats: NetStats,
    next_id: u64,
    slot_len: [u64; 2],
    ser_cycles: [u64; 2],
    receivers: [usize; 2],
}

impl FsoiNetwork {
    /// Creates a network from a configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FsoiConfig::validate`].
    pub fn new(cfg: FsoiConfig, seed: u64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: a rejected configuration is a caller bug; untrusted values go through validate() first"
        )]
        cfg.validate().expect("invalid FsoiConfig");
        let qcap = cfg.outgoing_queue_capacity;
        let nodes = (0..cfg.nodes)
            .map(|_| NodeState {
                out: [BoundedQueue::new(qcap), BoundedQueue::new(qcap)],
                tx_busy_until: [Cycle::ZERO; 2],
                retries: [EventQueue::new(), EventQueue::new()],
                steering: [PhaseArraySteering::new(), PhaseArraySteering::new()],
                reservations: ReplySlotReservations::new(),
                expected_data: NodeMask::new(),
            })
            .collect();
        let receivers = [cfg.lanes.meta.receivers, cfg.lanes.data.receivers];
        let slots = [
            SlotTable::new(cfg.nodes, receivers[0]),
            SlotTable::new(cfg.nodes, receivers[1]),
        ];
        let slot_len = [
            cfg.lanes.slot_cycles(PacketClass::Meta),
            cfg.lanes.slot_cycles(PacketClass::Data),
        ];
        let ser_cycles = [
            cfg.lanes.serialization_cycles(PacketClass::Meta),
            cfg.lanes.serialization_cycles(PacketClass::Data),
        ];
        if trace::compiled() {
            // A failed invariant anywhere downstream dumps the flight
            // recorder's JSONL tail for post-mortem replay.
            trace::install_panic_dump();
        }
        FsoiNetwork {
            cfg,
            now: Cycle::ZERO,
            rng: Xoshiro256StarStar::new(seed),
            nodes,
            senders: [NodeMask::new(); 2],
            slots,
            pool: Vec::new(),
            resolutions: Resolutions::default(),
            confirmations: ConfirmationChannel::new(CONFIRMATION_DELAY),
            delivered: Vec::new(),
            stats: NetStats::default(),
            next_id: 0,
            slot_len,
            ser_cycles,
            receivers,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FsoiConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The data-lane slot length in cycles (used by request spacing).
    pub fn data_slot_len(&self) -> u64 {
        self.slot_len[PacketClass::Data.lane()]
    }

    /// The meta-lane slot length in cycles.
    pub fn meta_slot_len(&self) -> u64 {
        self.slot_len[PacketClass::Meta.lane()]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Number of slots elapsed on a lane class.
    pub fn slots_elapsed(&self, class: PacketClass) -> u64 {
        self.now.as_u64() / self.slot_len[class.lane()]
    }

    /// Confirmations sent so far (traffic on the confirmation channel).
    pub fn confirmations_sent(&self) -> u64 {
        self.confirmations.sent()
    }

    /// Injects a packet for transmission.
    ///
    /// # Errors
    ///
    /// Returns `Err(packet)` when the source's outgoing queue for that lane
    /// is full; the caller stalls and retries later.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either id is out of range — local traffic
    /// never enters the optical fabric.
    pub fn inject(&mut self, mut packet: Packet) -> Result<u64, Packet> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        assert!(
            packet.src.0 < self.cfg.nodes && packet.dst.0 < self.cfg.nodes,
            "node id out of range"
        );
        packet.id = self.next_id;
        packet.enqueued_at = self.now;
        let lane = packet.class.lane();
        match self.nodes[packet.src.0].out[lane].push(packet) {
            Ok(()) => {
                self.senders[lane].insert(packet.src.0);
                self.next_id += 1;
                self.stats.injected[lane] += 1;
                trace::emit_with(self.now, || TraceEvent::Inject {
                    packet: packet.id,
                    src: packet.src.0 as u64,
                    dst: packet.dst.0 as u64,
                    lane: lane as u64,
                    tag: packet.tag,
                });
                Ok(packet.id)
            }
            Err(p) => {
                self.stats.rejected[lane] += 1;
                trace::emit_with(self.now, || TraceEvent::Reject {
                    src: p.src.0 as u64,
                    dst: p.dst.0 as u64,
                    lane: lane as u64,
                });
                Err(p)
            }
        }
    }

    /// Registers that `dst` expects a data-packet reply from `src` (drives
    /// the §5.2 hint candidate set).
    pub fn expect_data(&mut self, dst: NodeId, src: NodeId) {
        self.nodes[dst.0].expected_data.insert(src.0);
    }

    /// Clears an expectation (reply received or transaction aborted).
    pub fn clear_expected(&mut self, dst: NodeId, src: NodeId) {
        self.nodes[dst.0].expected_data.remove(src.0);
    }

    /// Access to a node's incoming-data-slot reservation book (request
    /// spacing). The caller reserves with
    /// [`data_slot_len`](Self::data_slot_len) as the slot length.
    pub fn reservations_mut(&mut self, node: NodeId) -> &mut ReplySlotReservations {
        &mut self.nodes[node.0].reservations
    }

    /// Takes all packets delivered since the last drain.
    pub fn drain_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Number of undrained deliveries.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// True when no packet is queued, in flight, or awaiting retry.
    pub fn is_idle(&self) -> bool {
        self.check_senders();
        self.resolutions.is_empty() && self.senders.iter().all(NodeMask::is_empty)
    }

    /// Debug builds: recomputes both sender masks from the queues they
    /// summarize (the full node × lane scan the masks replaced).
    fn check_senders(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (lane, tracked) in self.senders.iter().enumerate() {
            let scanned: NodeMask = (0..self.nodes.len())
                .filter(|&n| {
                    let node = &self.nodes[n];
                    !node.out[lane].is_empty() || !node.retries[lane].is_empty()
                })
                .collect();
            assert_eq!(*tracked, scanned, "senders[{lane}]");
        }
        let groups: usize = self.slots.iter().map(|t| t.live).sum();
        assert_eq!(groups, self.resolutions.len(), "one event per slot group");
    }

    /// Advances the simulation by one cycle.
    pub fn tick(&mut self) {
        self.step_cycle();
        self.now += 1;
    }

    /// Processes everything due at the current cycle (the body of
    /// [`tick`](Self::tick), without the time advance).
    fn step_cycle(&mut self) {
        self.resolve_slots();
        self.start_transmissions();
        // Confirmations are drained for bookkeeping; their information
        // content (receipt, hints) has already been applied at resolution
        // time with the correct delays.
        self.confirmations.drain_due(self.now);
        self.check_senders();
    }

    /// Runs `cycles` ticks, fast-forwarding over provably empty cycles.
    pub fn run(&mut self, cycles: u64) {
        self.advance_to(self.now + cycles);
    }

    /// The earliest cycle `>= now` at which the network has any work to
    /// do: the next resolution event, the next confirmation arrival, or
    /// the next slot boundary at which some node can start a transmission
    /// (a queued packet, or a retry that will have matured by then).
    /// Returns `None` when the network is completely quiet — nothing will
    /// ever happen again without a new injection.
    pub fn next_event_at(&self) -> Option<Cycle> {
        let now = self.now.as_u64();
        let mut next = u64::MAX;
        if let Some(t) = self.resolutions.peek_time() {
            next = next.min(t.as_u64());
        }
        if let Some(t) = self.confirmations.next_due() {
            next = next.min(t.as_u64());
        }
        for (lane, senders) in self.senders.iter().enumerate() {
            // Earliest cycle any sender could pop a packet on this lane:
            // queued work is ready immediately, a retry matures at its
            // scheduled cycle. The transmission then waits for the
            // transmitter to go quiet and the next slot boundary — exactly
            // the eligibility test in `start_transmissions`. Rounding up
            // to a boundary is monotone, so it is applied once, to the
            // lane's minimum.
            let mut eligible = u64::MAX;
            for n in senders {
                let node = &self.nodes[n];
                let ready = if node.out[lane].is_empty() {
                    node.retries[lane]
                        .peek_time()
                        .map_or(u64::MAX, Cycle::as_u64)
                } else {
                    now
                };
                eligible = eligible.min(ready.max(now).max(node.tx_busy_until[lane].as_u64()));
            }
            if eligible != u64::MAX {
                next = next.min(
                    Cycle(eligible)
                        .round_up_to_slot(self.slot_len[lane])
                        .as_u64(),
                );
            }
        }
        (next != u64::MAX).then_some(Cycle(next))
    }

    /// Advances the simulation to `target`, jumping straight to each next
    /// interesting cycle instead of ticking one by one.
    ///
    /// Byte-identical to calling [`tick`](Self::tick) `target - now`
    /// times: a cycle below the [`next_event_at`](Self::next_event_at)
    /// bound pops no resolution, starts no transmission, and drains no
    /// confirmation, so it touches neither the RNG nor any queue — skipping
    /// it skips nothing. Cycles that do have work are processed in full, in
    /// order, at their exact times.
    pub fn advance_to(&mut self, target: Cycle) {
        while self.now < target {
            match self.next_event_at() {
                Some(at) if at < target => {
                    self.now = self.now.max(at);
                    self.step_cycle();
                    self.now += 1;
                }
                _ => self.now = target,
            }
        }
    }

    /// At a slot boundary of a lane, every sender of that lane whose
    /// transmitter is quiet starts its oldest eligible packet.
    fn start_transmissions(&mut self) {
        // The senders of each lane that is at a slot boundary this cycle.
        let due = [0, 1].map(|lane| {
            if self.now.is_slot_boundary(self.slot_len[lane]) {
                self.senders[lane]
            } else {
                NodeMask::new()
            }
        });
        // Ascending nodes, lane 0 before lane 1 inside each node: the
        // order is load-bearing — it fixes the insertion order of
        // same-cycle resolution events, which fixes the resolver's RNG
        // draw order. Nodes outside the masks have nothing to pop, so
        // leaving them out changes no order.
        for node_idx in &due[0].union(&due[1]) {
            for (lane, due) in due.iter().enumerate() {
                if due.contains(node_idx) {
                    self.start_transmission(node_idx, lane);
                }
            }
        }
    }

    fn start_transmission(&mut self, node_idx: usize, lane: usize) {
        let node = &mut self.nodes[node_idx];
        if node.tx_busy_until[lane] > self.now {
            return;
        }
        // Retries take priority over fresh packets: the collided packet is
        // older and the coherence layer may be waiting on its
        // point-to-point ordering.
        let popped = node.retries[lane]
            .pop_due(self.now)
            .map(|(_, p)| p)
            .or_else(|| node.out[lane].pop());
        let Some(mut packet) = popped else { return };
        if node.out[lane].is_empty() && node.retries[lane].is_empty() {
            self.senders[lane].remove(node_idx);
        }

        let setup = match self.cfg.array {
            TransmitterArray::Dedicated => 0,
            TransmitterArray::PhaseArray { setup_cycles } => {
                node.steering[lane].aim(packet.dst, setup_cycles)
            }
        };
        let slot = self.slot_len[lane];
        node.tx_busy_until[lane] = self.now + self.ser_cycles[lane] + setup;
        if packet.first_tx_at.is_none() {
            packet.first_tx_at = Some(self.now);
        }
        self.stats.transmissions[lane] += 1;

        let key = GroupKey {
            dst: packet.dst,
            lane,
            rx: receiver_index(packet.src, packet.dst, self.cfg.nodes, self.receivers[lane]),
            slot_id: self.now.as_u64() / slot,
        };
        trace::emit_with(self.now, || TraceEvent::TxStart {
            packet: packet.id,
            src: packet.src.0 as u64,
            dst: packet.dst.0 as u64,
            lane: lane as u64,
            attempt: u64::from(packet.retries),
            slot: key.slot_id,
        });
        // All packets of a slot resolve at the same deterministic cycle:
        // slot end plus the worst-case phase-array setup. One resolution
        // event per slot group — the packet that opens the group schedules
        // it, later colliders just join.
        let resolve_at = Cycle((key.slot_id + 1) * slot + self.cfg.phase_array_setup());
        if self.slots[lane].push(&key, packet, &mut self.pool) {
            self.resolutions.push(resolve_at, key);
        }
    }

    fn resolve_slots(&mut self) {
        while let Some((resolve_at, key)) = self.resolutions.pop_due(self.now) {
            let Some(mut group) = self.slots[key.lane].take(&key) else {
                debug_assert!(false, "every resolution event has exactly one group");
                continue;
            };
            if group.len() == 1 {
                // A clean slot can still be hit by a raw bit error; the
                // checksum catches it, no confirmation goes out, and the
                // sender retries — the same machinery as a collision
                // (§4.3.1: "errors and collisions [are] handled by the
                // same mechanism").
                let bits = self.cfg.lanes.spec(group[0].class).packet_bits;
                let p_err = self.cfg.packet_error_probability(bits);
                if p_err > 0.0 && self.rng.bernoulli(p_err) {
                    self.stats.bit_error_drops[key.lane] += 1;
                    self.drop_and_retry(key.lane, group[0], resolve_at);
                } else {
                    self.deliver(group[0], resolve_at);
                }
            } else {
                self.collide(key, &group, resolve_at);
            }
            group.clear();
            self.pool.push(group);
        }
    }

    fn deliver(&mut self, packet: Packet, at: Cycle) {
        let lane = packet.class.lane();
        self.stats.delivered[lane] += 1;
        #[expect(
            clippy::expect_used,
            reason = "P1: deliver() is only reached via transmit, which stamps first_tx_at"
        )]
        let first_tx = packet
            .first_tx_at
            .expect("delivered packets were transmitted");
        // The final transmission started one serialization period (plus
        // any phase-array setup, folded into `at`) before resolution.
        let final_tx_start = Cycle(
            at.as_u64()
                .saturating_sub(self.ser_cycles[lane] + self.cfg.phase_array_setup()),
        );
        let breakdown = LatencyBreakdown {
            queuing: first_tx.saturating_sub(packet.enqueued_at),
            scheduling: packet.scheduling_delay,
            network: at.saturating_sub(final_tx_start.max(first_tx)),
            collision_resolution: final_tx_start.max(first_tx).saturating_sub(first_tx),
        };
        self.stats.latency[lane].record(breakdown.total() as f64);
        self.stats.queuing[lane].record(breakdown.queuing as f64);
        self.stats.scheduling[lane].record(breakdown.scheduling as f64);
        self.stats.network[lane].record(breakdown.network as f64);
        self.stats.resolution[lane].record(breakdown.collision_resolution as f64);
        if packet.retries > 0 {
            self.stats.resolution_when_collided[lane].record(breakdown.collision_resolution as f64);
        }
        self.stats.retries[lane].record(packet.retries as f64);
        trace::emit_with(at, || TraceEvent::Deliver {
            packet: packet.id,
            src: packet.src.0 as u64,
            dst: packet.dst.0 as u64,
            lane: lane as u64,
            queuing: breakdown.queuing,
            scheduling: breakdown.scheduling,
            network: breakdown.network,
            resolution: breakdown.collision_resolution,
            retries: u64::from(packet.retries),
        });
        self.confirmations.send(
            at,
            Confirmation {
                from: packet.dst,
                to: packet.src,
                kind: ConfirmationKind::Receipt {
                    packet_id: packet.id,
                },
            },
        );
        self.delivered.push(Delivered {
            packet,
            delivered_at: at,
            breakdown,
        });
    }

    /// A single packet corrupted by a raw bit error: no confirmation, so
    /// the sender backs off and retries — identical recovery to a
    /// collision, without the collision bookkeeping (no hint: the header
    /// itself may be what broke).
    fn drop_and_retry(&mut self, lane: usize, mut packet: Packet, at: Cycle) {
        let slot = self.slot_len[lane];
        let detect = at + CONFIRMATION_DELAY;
        let next_boundary = detect.round_up_to_slot(slot);
        packet.retries += 1;
        self.stats.retransmissions[lane] += 1;
        trace::emit_with(at, || TraceEvent::BitError {
            packet: packet.id,
            src: packet.src.0 as u64,
            dst: packet.dst.0 as u64,
            lane: lane as u64,
        });
        let draw = self.cfg.backoff.draw(packet.retries, &mut self.rng);
        let ready = next_boundary + (draw.delay_slots - 1) * slot;
        trace::emit_with(at, || TraceEvent::Backoff {
            packet: packet.id,
            lane: lane as u64,
            retry: u64::from(packet.retries),
            delay_slots: draw.delay_slots,
            ready: ready.as_u64(),
        });
        self.push_retry(lane, ready, packet);
    }

    fn collide(&mut self, key: GroupKey, group: &[Packet], at: Cycle) {
        let lane = key.lane;
        self.stats.collision_events[lane] += 1;
        self.stats.collided_packets[lane] += group.len() as u64;
        let slot = self.slot_len[lane];
        // Senders detect the collision by the *absence* of a confirmation,
        // `CONFIRMATION_DELAY` cycles after the slot resolved.
        let detect = at + CONFIRMATION_DELAY;
        let next_boundary = detect.round_up_to_slot(slot);

        let winner = if lane == PacketClass::Data.lane() && self.cfg.hints {
            self.select_hint_winner(key.dst, group, next_boundary)
        } else {
            None
        };

        let group_size = group.len() as u64;
        for mut packet in group.iter().copied() {
            packet.retries += 1;
            self.stats.retransmissions[lane] += 1;
            trace::emit_with(at, || TraceEvent::Collide {
                packet: packet.id,
                src: packet.src.0 as u64,
                dst: packet.dst.0 as u64,
                lane: lane as u64,
                rx: key.rx as u64,
                group: group_size,
            });
            let ready = if Some(packet.src) == winner {
                // The winner retransmits in the very next slot.
                next_boundary
            } else if winner.is_some() {
                // Losers skip the winner's slot, then back off.
                let draw = self.cfg.backoff.draw(packet.retries, &mut self.rng);
                let ready = next_boundary + draw.delay_slots * slot;
                trace::emit_with(at, || TraceEvent::Backoff {
                    packet: packet.id,
                    lane: lane as u64,
                    retry: u64::from(packet.retries),
                    delay_slots: draw.delay_slots,
                    ready: ready.as_u64(),
                });
                ready
            } else {
                // No hint: random slot within the back-off window after
                // detection.
                let draw = self.cfg.backoff.draw(packet.retries, &mut self.rng);
                let ready = next_boundary + (draw.delay_slots - 1) * slot;
                trace::emit_with(at, || TraceEvent::Backoff {
                    packet: packet.id,
                    lane: lane as u64,
                    retry: u64::from(packet.retries),
                    delay_slots: draw.delay_slots,
                    ready: ready.as_u64(),
                });
                ready
            };
            self.push_retry(lane, ready, packet);
        }
    }

    fn push_retry(&mut self, lane: usize, ready: Cycle, packet: Packet) {
        self.nodes[packet.src.0].retries[lane].push(ready, packet);
        self.senders[lane].insert(packet.src.0);
    }

    /// Picks a retransmission winner for a data-lane collision: decode the
    /// OR-ed PID/~PID superset, intersect it with the nodes the receiver
    /// expects data from, and choose one uniformly (§5.2 — "the
    /// notification is only used as a hint").
    fn select_hint_winner(
        &mut self,
        dst: NodeId,
        group: &[Packet],
        next_slot: Cycle,
    ) -> Option<NodeId> {
        let nodes = self.cfg.nodes;
        let header = group
            .iter()
            .map(|p| HeaderCode::encode(p.src, nodes))
            .reduce(HeaderCode::superpose)?;
        let superset = header.possible_senders(nodes);
        let expected = &self.nodes[dst.0].expected_data;
        let filtered: Vec<NodeId> = superset
            .iter()
            .copied()
            .filter(|s| expected.contains(s.0))
            .collect();
        let candidates = if filtered.is_empty() {
            &superset
        } else {
            &filtered
        };
        let winner = *self.rng.choose(candidates)?;
        self.stats.hints_issued += 1;
        trace::emit_with(next_slot, || TraceEvent::Hint {
            dst: dst.0 as u64,
            winner: winner.0 as u64,
        });
        if group.iter().any(|p| p.src == winner) {
            self.stats.hints_correct += 1;
        } else {
            self.stats.hints_wrong += 1;
        }
        self.confirmations.send_at(
            Cycle(next_slot.as_u64().saturating_sub(1)),
            Confirmation {
                from: dst,
                to: winner,
                kind: ConfirmationKind::WinnerHint {
                    slot_start: next_slot,
                },
            },
        );
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffPolicy;

    fn net16(seed: u64) -> FsoiNetwork {
        FsoiNetwork::new(FsoiConfig::nodes(16), seed)
    }

    fn run_until_idle(net: &mut FsoiNetwork, max: u64) -> Vec<Delivered> {
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
    fn single_meta_packet_delivers_in_one_slot() {
        let mut net = net16(1);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 7))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 1);
        let d = out[0];
        assert_eq!(d.packet.dst, NodeId(5));
        assert_eq!(d.packet.tag, 7);
        assert_eq!(d.packet.retries, 0);
        // Injected at cycle 0, transmits in slot [0,2), resolves at 2.
        assert_eq!(d.delivered_at, Cycle(2));
        assert_eq!(d.breakdown.network, 2);
        assert_eq!(d.breakdown.queuing, 0);
        assert_eq!(d.breakdown.collision_resolution, 0);
        assert_eq!(d.breakdown.total(), 2);
    }

    #[test]
    fn single_data_packet_takes_five_cycles() {
        let mut net = net16(1);
        net.inject(Packet::new(NodeId(3), NodeId(9), PacketClass::Data, 1))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delivered_at, Cycle(5));
        assert_eq!(out[0].breakdown.network, 5);
    }

    #[test]
    fn non_colliding_packets_all_deliver() {
        let mut net = net16(2);
        // Distinct destinations: no sharing, no collisions.
        for src in 0..8 {
            net.inject(Packet::new(
                NodeId(src),
                NodeId(src + 8),
                PacketClass::Meta,
                src as u64,
            ))
            .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|d| d.packet.retries == 0));
        assert_eq!(net.stats().collision_events[0], 0);
    }

    #[test]
    fn same_receiver_same_slot_collides_and_recovers() {
        let mut net = net16(3);
        // Nodes 0 and 2 share receiver 0 at node 5 (ranks 0 and 2, mod 2).
        assert_eq!(receiver_index(NodeId(0), NodeId(5), 16, 2), 0);
        assert_eq!(receiver_index(NodeId(2), NodeId(5), 16, 2), 0);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        net.inject(Packet::new(NodeId(2), NodeId(5), PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 500);
        assert_eq!(out.len(), 2, "both packets eventually deliver");
        // At least the initial collision; secondary collisions are possible
        // when both back-offs draw the same slot.
        assert!(net.stats().collision_events[0] >= 1);
        assert!(net.stats().collided_packets[0] >= 2);
        assert!(out.iter().all(|d| d.packet.retries >= 1));
        assert!(out.iter().any(|d| d.breakdown.collision_resolution > 0));
    }

    #[test]
    fn different_receivers_do_not_collide() {
        let mut net = net16(4);
        // Nodes 0 and 1 use different receivers at node 5 (ranks 0, 1).
        assert_ne!(
            receiver_index(NodeId(0), NodeId(5), 16, 2),
            receiver_index(NodeId(1), NodeId(5), 16, 2)
        );
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        net.inject(Packet::new(NodeId(1), NodeId(5), PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().collision_events[0], 0);
        assert!(out.iter().all(|d| d.packet.retries == 0));
    }

    #[test]
    fn different_slots_do_not_collide() {
        let mut net = net16(5);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        // Let the first packet fully transmit before injecting the second.
        net.tick();
        net.tick();
        net.inject(Packet::new(NodeId(2), NodeId(5), PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().collision_events[0], 0);
    }

    #[test]
    fn meta_and_data_lanes_are_independent() {
        let mut net = net16(6);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        net.inject(Packet::new(NodeId(2), NodeId(5), PacketClass::Data, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().collision_events, [0, 0]);
    }

    #[test]
    fn queue_overflow_rejects() {
        let mut net = net16(7);
        let mut accepted = 0;
        for i in 0..20 {
            if net
                .inject(Packet::new(NodeId(0), NodeId(1), PacketClass::Meta, i))
                .is_ok()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 8, "Table 3: 8-packet outgoing queues");
        assert_eq!(net.stats().rejected[0], 12);
        let out = run_until_idle(&mut net, 500);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn back_to_back_packets_pipeline_in_slots() {
        let mut net = net16(8);
        for i in 0..4 {
            net.inject(Packet::new(NodeId(0), NodeId(1), PacketClass::Meta, i))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 4);
        let mut times: Vec<u64> = out.iter().map(|d| d.delivered_at.as_u64()).collect();
        times.sort_unstable();
        assert_eq!(times, vec![2, 4, 6, 8], "one delivery per meta slot");
        // Later packets accrue queuing delay, never collision delay.
        assert!(out.iter().all(|d| d.breakdown.collision_resolution == 0));
        let max_queue = out.iter().map(|d| d.breakdown.queuing).max().unwrap();
        assert_eq!(max_queue, 6);
    }

    #[test]
    fn point_to_point_ordering_preserved_without_collisions() {
        let mut net = net16(9);
        for i in 0..5 {
            net.inject(Packet::new(NodeId(4), NodeId(11), PacketClass::Meta, i))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        let tags: Vec<u64> = out.iter().map(|d| d.packet.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4], "FIFO per source-destination");
    }

    #[test]
    fn phase_array_adds_setup_on_retarget() {
        let cfg = FsoiConfig::nodes(64);
        let mut net = FsoiNetwork::new(cfg, 10);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        // Resolution at slot end + 1 cycle of phase-array setup.
        assert_eq!(out[0].delivered_at, Cycle(3));
    }

    #[test]
    fn phase_array_no_setup_for_repeat_target() {
        let cfg = FsoiConfig::nodes(64);
        let mut net = FsoiNetwork::new(cfg, 11);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 2);
        // Both resolve at (slot end + pa setup) of their slots; the second
        // packet needed no retarget, so its tx wasn't lengthened — but
        // resolution timing is uniform per slot.
        let retargets: u64 = 1; // only the first aims anew
        assert_eq!(net.nodes[0].steering[0].retargets(), retargets);
    }

    #[test]
    fn hint_winner_retransmits_next_slot() {
        // Force a data collision with expectations registered: winner
        // should recover with minimal delay.
        let cfg = FsoiConfig::nodes(16); // hints on by default
        let mut net = FsoiNetwork::new(cfg, 12);
        // Receiver 5 expects data from 0 and 2 (both receiver 0).
        net.expect_data(NodeId(5), NodeId(0));
        net.expect_data(NodeId(5), NodeId(2));
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Data, 1))
            .unwrap();
        net.inject(Packet::new(NodeId(2), NodeId(5), PacketClass::Data, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 500);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().hints_issued, 1);
        assert_eq!(net.stats().hints_correct, 1, "both candidates are real");
        // Collision resolved at 5, detected at 7, winner's slot starts at
        // 10, so the winner delivers at 15.
        let first = out.iter().map(|d| d.delivered_at.as_u64()).min().unwrap();
        assert_eq!(first, 15);
    }

    #[test]
    fn hints_disabled_uses_pure_backoff() {
        let cfg = FsoiConfig::nodes(16).with_hints(false);
        let mut net = FsoiNetwork::new(cfg, 13);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Data, 1))
            .unwrap();
        net.inject(Packet::new(NodeId(2), NodeId(5), PacketClass::Data, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 1000);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().hints_issued, 0);
    }

    #[test]
    fn expected_data_registry_updates() {
        let mut net = net16(14);
        net.expect_data(NodeId(3), NodeId(7));
        assert!(net.nodes[3].expected_data.contains(7));
        net.clear_expected(NodeId(3), NodeId(7));
        assert!(!net.nodes[3].expected_data.contains(7));
    }

    #[test]
    fn confirmations_counted_per_delivery() {
        let mut net = net16(15);
        for src in 0..4 {
            net.inject(Packet::new(
                NodeId(src),
                NodeId(15 - src),
                PacketClass::Meta,
                0,
            ))
            .unwrap();
        }
        run_until_idle(&mut net, 100);
        assert_eq!(net.confirmations_sent(), 4);
    }

    #[test]
    fn heavy_contention_eventually_drains() {
        // All 15 nodes send one meta packet to node 0 at the same time —
        // a small version of the pathological burst.
        let mut net = net16(16);
        for src in 1..16 {
            net.inject(Packet::new(NodeId(src), NodeId(0), PacketClass::Meta, 0))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 20_000);
        assert_eq!(out.len(), 15, "exponential back-off must drain the burst");
        assert!(net.stats().collision_events[0] > 0);
    }

    #[test]
    fn binary_backoff_also_drains_but_slower_tail() {
        let cfg = FsoiConfig::nodes(16).with_backoff(BackoffPolicy::BINARY);
        let mut net = FsoiNetwork::new(cfg, 17);
        for src in 1..16 {
            net.inject(Packet::new(NodeId(src), NodeId(0), PacketClass::Meta, 0))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 50_000);
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn stats_probability_and_collision_rate() {
        let mut net = net16(18);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        run_until_idle(&mut net, 20);
        let slots = net.slots_elapsed(PacketClass::Meta);
        let p = net.stats().transmission_probability(0, 16, slots);
        assert!(p > 0.0 && p < 1.0);
        assert_eq!(net.stats().collision_rate(0), 0.0);
        assert_eq!(net.stats().collision_rate(1), 0.0);
    }

    #[test]
    fn transmission_probability_counts_first_transmissions_only() {
        // Two senders sharing receiver 0 at node 5 collide in slot 0 and
        // retry: the retries are transmissions, not first transmissions.
        let mut net = net16(33);
        for src in [0usize, 2] {
            assert_eq!(receiver_index(NodeId(src), NodeId(5), 16, 2), 0);
            net.inject(Packet::new(NodeId(src), NodeId(5), PacketClass::Meta, 0))
                .unwrap();
        }
        assert_eq!(run_until_idle(&mut net, 2_000).len(), 2);
        let s = net.stats();
        assert!(s.transmissions[0] > 2, "the collision forced retries");
        let slots = net.slots_elapsed(PacketClass::Meta);
        let p = s.transmission_probability(0, 16, slots);
        assert_eq!(p, 2.0 / (16.0 * slots as f64), "two first transmissions");
    }

    #[test]
    fn stats_rates_never_nan_on_degenerate_configs() {
        // Fresh network: zero slots elapsed, nothing transmitted.
        let net = net16(30);
        let s = net.stats();
        for lane in 0..2 {
            assert_eq!(s.transmission_probability(lane, 16, 0), 0.0, "zero slots");
            assert_eq!(s.transmission_probability(lane, 0, 5), 0.0, "zero nodes");
            assert_eq!(s.transmission_probability(lane, 0, 0), 0.0, "both zero");
            assert_eq!(s.collision_rate(lane), 0.0, "no transmissions yet");
        }
        // Even with traffic recorded, a zero-node denominator must not
        // poison the result with inf/NaN.
        let mut net = net16(31);
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 1))
            .unwrap();
        run_until_idle(&mut net, 20);
        let s = net.stats();
        assert!(s.transmissions[0] > 0);
        assert_eq!(s.transmission_probability(0, 0, 5), 0.0);
        assert!(s.transmission_probability(0, 16, 5).is_finite());
        assert!(s.collision_rate(0).is_finite());
    }

    #[test]
    fn stats_export_matches_fields() {
        let mut net = net16(32);
        for src in 1..8 {
            net.inject(Packet::new(NodeId(src), NodeId(0), PacketClass::Meta, 0))
                .unwrap();
        }
        run_until_idle(&mut net, 20_000);
        let mut reg = Registry::new();
        net.stats().export(&mut reg);
        let meta: [(&str, &str); 1] = [("lane", "meta")];
        assert_eq!(reg.counter("net.injected", &meta), net.stats().injected[0]);
        assert_eq!(reg.counter("net.delivered", &meta), 7);
        assert_eq!(
            reg.counter("net.collided_packets", &meta),
            net.stats().collided_packets[0]
        );
        assert_eq!(
            reg.gauge_value("net.collision_rate", &meta),
            Some(net.stats().collision_rate(0))
        );
        // Deterministic export: same stats, same bytes.
        let mut again = Registry::new();
        net.stats().export(&mut again);
        assert_eq!(reg.to_jsonl(), again.to_jsonl());
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = net16(19);
        let _ = net.inject(Packet::new(NodeId(3), NodeId(3), PacketClass::Meta, 0));
    }

    #[test]
    #[should_panic(expected = "ZeroPacketBits")]
    fn invalid_config_is_rejected_at_construction_not_mid_run() {
        // A zero-bit packet would give a zero-cycle slot: no boundary ever,
        // injected packets stuck in a network that is never idle.
        let mut cfg = FsoiConfig::nodes(16);
        cfg.lanes.meta.packet_bits = 0;
        let _ = FsoiNetwork::new(cfg, 0);
    }

    #[test]
    fn is_idle_tracks_lifecycle() {
        let mut net = net16(20);
        assert!(net.is_idle());
        net.inject(Packet::new(NodeId(0), NodeId(1), PacketClass::Meta, 0))
            .unwrap();
        assert!(!net.is_idle());
        run_until_idle(&mut net, 50);
        assert!(net.is_idle());
    }

    #[test]
    fn bit_errors_recover_via_retransmission() {
        // At a deliberately brutal BER of 1e-3 a 360-bit data packet is
        // corrupted ~30% of the time; every packet must still arrive, via
        // the same back-off machinery collisions use.
        let cfg = FsoiConfig::nodes(16).with_bit_error_rate(1e-3);
        let mut net = FsoiNetwork::new(cfg, 21);
        for i in 0..40u64 {
            // Disjoint pairs: no collisions possible, only bit errors.
            let src = (i % 8) as usize;
            net.inject(Packet::new(
                NodeId(src),
                NodeId(src + 8),
                PacketClass::Data,
                i,
            ))
            .unwrap_or_else(|_| panic!("queue full at {i}"));
            for _ in 0..10 {
                net.tick();
            }
        }
        let out = run_until_idle(&mut net, 20_000);
        let total = out.len() + net.drain_delivered().len();
        assert_eq!(net.stats().collision_events, [0, 0], "no collisions here");
        assert!(
            net.stats().bit_error_drops[1] > 0,
            "errors must have struck"
        );
        assert_eq!(net.stats().delivered[1], 40, "all packets recovered");
        let _ = total;
    }

    #[test]
    fn paper_default_ber_is_invisible() {
        // At the paper's 1e-10 link BER, thousands of packets see no drop.
        let mut net = net16(22);
        for i in 0..500u64 {
            let src = (i % 8) as usize;
            let _ = net.inject(Packet::new(
                NodeId(src),
                NodeId(src + 8),
                PacketClass::Meta,
                i,
            ));
            net.tick();
            net.tick();
            net.drain_delivered();
        }
        run_until_idle(&mut net, 5_000);
        assert_eq!(net.stats().bit_error_drops, [0, 0]);
    }

    #[test]
    fn one_resolution_event_per_slot_group() {
        // Three senders sharing receiver 0 at node 5 collide in slot 0:
        // the heap must carry one event for the group, not one per packet.
        let mut net = net16(40);
        for src in [0usize, 2, 4] {
            assert_eq!(receiver_index(NodeId(src), NodeId(5), 16, 2), 0);
            net.inject(Packet::new(NodeId(src), NodeId(5), PacketClass::Meta, 0))
                .unwrap();
        }
        net.tick(); // cycle 0: all three transmit into the same slot group
        assert_eq!(net.slots[0].live, 1, "one live group");
        assert_eq!(
            net.resolutions.len(),
            net.slots[0].live,
            "heap length tracks group count, not packet count"
        );
        let out = run_until_idle(&mut net, 20_000);
        assert_eq!(out.len(), 3, "the burst still drains");
        assert!(net.stats().collision_events[0] >= 1);
    }

    #[test]
    fn slot_group_buffers_are_pooled() {
        let mut net = net16(41);
        for i in 0..4 {
            net.inject(Packet::new(NodeId(0), NodeId(1), PacketClass::Meta, i))
                .unwrap();
        }
        run_until_idle(&mut net, 100);
        assert!(
            !net.pool.is_empty(),
            "resolved groups return their buffers to the free-list"
        );
        assert_eq!(net.slots[0].live, 0);
    }

    #[test]
    fn next_event_at_tracks_pending_work() {
        let mut net = net16(42);
        assert_eq!(net.next_event_at(), None, "quiet network has no events");
        net.inject(Packet::new(NodeId(0), NodeId(5), PacketClass::Meta, 0))
            .unwrap();
        // Queued work at cycle 0, which is a slot boundary.
        assert_eq!(net.next_event_at(), Some(Cycle(0)));
        net.tick();
        // In flight: the slot resolves at cycle 2.
        assert_eq!(net.next_event_at(), Some(Cycle(2)));
        net.tick();
        net.tick();
        // Delivered at 2; only the receipt confirmation (due 4) remains.
        assert_eq!(net.delivered_count(), 1);
        assert_eq!(net.next_event_at(), Some(Cycle(4)));
        net.run(10);
        assert_eq!(net.next_event_at(), None);
    }

    #[test]
    fn fast_forward_matches_cycle_by_cycle() {
        // The same contended workload driven by tick() and by run() must
        // land on identical deliveries, stats exports, and clock.
        let drive = |fast: bool| {
            let mut net = net16(43);
            for src in 1..16 {
                net.expect_data(NodeId(src), NodeId(0));
                net.inject(Packet::new(NodeId(src), NodeId(0), PacketClass::Data, 0))
                    .unwrap();
            }
            if fast {
                net.run(20_000);
            } else {
                for _ in 0..20_000 {
                    net.tick();
                }
            }
            let delivered: Vec<(u64, usize, u64)> = net
                .drain_delivered()
                .iter()
                .map(|d| (d.packet.id, d.packet.src.0, d.delivered_at.as_u64()))
                .collect();
            let mut reg = Registry::new();
            net.stats().export(&mut reg);
            (delivered, reg.to_jsonl(), net.now())
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = net16(seed);
            for src in 1..16 {
                net.inject(Packet::new(NodeId(src), NodeId(0), PacketClass::Meta, 0))
                    .unwrap();
            }
            run_until_idle(&mut net, 20_000)
                .iter()
                .map(|d| (d.packet.src.0, d.delivered_at.as_u64()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should reorder the burst");
    }
}
