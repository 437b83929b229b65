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
//! The engine takes and returns the workspace's shared packet types
//! ([`NetPacket`] in, [`NetDelivery`] out) through its one
//! [`Interconnect`] impl.
//!
//! A node with nothing queued does nothing, and the engine charges it
//! nothing: per lane, a [`NodeMask`] tracks the *senders* — nodes with a
//! non-empty outgoing queue or a pending retry — and slot boundaries,
//! [`next_event_at`](Interconnect::next_event_at) and
//! [`is_idle`](Interconnect::is_idle) visit only those. A bit is set when
//! a packet is queued (`inject`) or re-queued after a collision or bit
//! error, and cleared by the pop that empties both; debug builds recompute
//! the masks from the queues after every step. DESIGN.md ("FSOI hot
//! path") argues why this is the full node × lane scan with the no-op
//! nodes left out.
//!
//! A slot group — the packets that share one receiver in one slot — lives
//! inside its own resolution event, in a per-lane FIFO: the packet that
//! opens it is stored inline, and only a collider takes a buffer. A flat
//! per-lane `open` table finds the group a collider joins, and the
//! resolver pops the group by value. Each lane's packet-error probability
//! is computed once, at construction.
//!
//! The confirmation channel is a count, not a queue. A beam does nothing
//! after it is sent: a sender learns of a collision only because its
//! receipt never comes, and the resolver applies that when the slot
//! resolves (the retry waits for the first slot boundary
//! `CONFIRMATION_DELAY` cycles on); a hint fixes its winner's slot at the
//! same time. So a send is only a `Confirm` trace event, and the count
//! of beams is derived: [`NetStats::confirmations`].
//!
//! # Example
//!
//! ```
//! use fsoi_net::config::FsoiConfig;
//! use fsoi_net::network::FsoiNetwork;
//! use fsoi_net::packet::PacketClass;
//! use fsoi_sim::packet::{Interconnect, NetPacket};
//!
//! let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), 42);
//! net.inject(NetPacket::new(0, 5, PacketClass::Meta, 7)).unwrap();
//! while net.delivered_count() == 0 {
//!     net.tick();
//! }
//! let d = net.drain().next().unwrap();
//! assert_eq!(d.packet.dst, 5);
//! ```

use crate::config::{FsoiConfig, TransmitterArray, CONFIRMATION_DELAY};
use crate::packet::{HeaderCode, PacketClass};
use crate::power::FsoiPowerModel;
use crate::spacing::ReplySlotReservations;
use crate::topology::{receiver_index, NodeId};
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::{EventQueue, MonotoneQueue};
use fsoi_sim::packet::{Interconnect, NetDelivery, NetPacket, NetReport};
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::trace::{self, TraceEvent};
use fsoi_sim::Cycle;

/// A packet inside the engine: the client's [`NetPacket`] plus what the
/// engine tracks about its trip. Every outgoing queue, retry queue and
/// slot group holds these by value, so the record stays at 72 bytes.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    packet: NetPacket,
    /// Unique id assigned at injection (the trace's packet key).
    id: u64,
    /// When the client injected the packet.
    enqueued_at: Cycle,
    /// Cycle the first transmission attempt started; [`NOT_SENT`] before.
    first_tx_at: Cycle,
    /// Retransmissions so far.
    retries: u32,
}

/// [`InFlight::first_tx_at`] of a packet that has not transmitted yet.
const NOT_SENT: Cycle = Cycle(u64::MAX);

impl InFlight {
    fn src(&self) -> NodeId {
        NodeId(self.packet.src)
    }

    fn dst(&self) -> NodeId {
        NodeId(self.packet.dst)
    }
}

/// Aggregate network counters, indexed `[meta, data]` where per-class.
/// Per-packet latency is on each [`NetDelivery`], not here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
}

impl NetStats {
    /// Confirmation beams sent: one per delivery (the receipt) and one per
    /// hint.
    pub fn confirmations(&self) -> u64 {
        self.delivered[0] + self.delivered[1] + self.hints_issued
    }

    /// First-attempt transmission probability per node per slot for a lane:
    /// initial (non-retry) transmissions / (nodes × slots elapsed).
    ///
    /// Returns 0.0 — never `NaN` or `±inf` — for degenerate zero-slot or
    /// zero-node configurations (e.g. a probe before the first slot
    /// boundary, or an empty sweep row).
    pub(crate) fn transmission_probability(&self, lane: usize, nodes: usize, slots: u64) -> f64 {
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
}

#[derive(Debug)]
struct NodeState {
    out: [BoundedQueue<InFlight>; 2],
    tx_busy_until: [Cycle; 2],
    retries: [EventQueue<InFlight>; 2],
    /// Per lane, where the phase array is aimed (§3): a transmission to
    /// any other node pays the setup first. Dedicated lanes never aim.
    aim: [Option<NodeId>; 2],
    reservations: ReplySlotReservations,
    expected_data: NodeMask,
}

/// A slot group: the packets that occupy one `(dst, rx, slot)` cell of a
/// lane, held inside the lane's resolution FIFO until its event fires. A
/// clean slot — one packet — is the whole record; `rest` takes a pooled
/// buffer only when a second packet joins.
#[derive(Debug)]
struct SlotGroup {
    /// Push order over both lanes: breaks ties between the lanes' events.
    seq: u64,
    slot_id: u64,
    /// The receiver of `first`'s destination that the group occupies: a
    /// sender's rank modulo the receiver count, so below the node count.
    rx: u32,
    /// The packet that opened the group.
    first: InFlight,
    /// The colliders that joined it, in arrival order.
    rest: Vec<InFlight>,
}

impl SlotGroup {
    /// The packets in arrival order, the order the resolver draws in.
    fn packets(&self) -> impl Iterator<Item = &InFlight> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    fn len(&self) -> usize {
        1 + self.rest.len()
    }
}

/// Pending slot groups, each held in its own resolution event: one FIFO
/// per lane, merged on pop.
///
/// A lane's resolution cycle — slot end plus the phase-array setup — never
/// decreases from one push to the next (the [`MonotoneQueue`] contract), so
/// each FIFO is already sorted by `(at, seq)`, and popping the smaller of
/// the two heads is exactly the pop order of one time-ordered,
/// FIFO-tie-broken heap over both lanes.
///
/// `open[lane][dst * receivers + rx]` is the `(slot id, push index)` of the
/// cell's latest group, and a packet joins that group when its slot id
/// matches. That is exact: a slot's groups open only in the slot's first
/// cycle (transmissions start at slot boundaries) and resolve only after
/// the slot ends, so the group of the current slot is still in the FIFO,
/// its push index less the lane's pops behind the head. Nothing iterates
/// the table, so it has no order to diverge.
#[derive(Debug)]
struct Resolutions {
    lanes: [MonotoneQueue<SlotGroup>; 2],
    open: [Vec<(u64, u64)>; 2],
    receivers: [usize; 2],
    /// Per lane, the groups pushed so far: the next group's push index.
    pushed: [u64; 2],
    next_seq: u64,
    /// Free-list of `rest` buffers: collided groups recycle instead of
    /// allocating.
    pool: Vec<Vec<InFlight>>,
}

impl Resolutions {
    fn new(nodes: usize, receivers: [usize; 2]) -> Self {
        Resolutions {
            lanes: [MonotoneQueue::new(), MonotoneQueue::new()],
            // No slot id matches a cell before its first group.
            open: receivers.map(|rx| vec![(u64::MAX, 0); nodes * rx]),
            receivers,
            pushed: [0; 2],
            next_seq: 0,
            pool: Vec::new(),
        }
    }

    /// Adds `flight` to its `(dst, rx, slot_id)` group on `lane`; the
    /// slot's first packet for the cell opens the group, and with it the
    /// group's resolution event at `at`.
    fn join(&mut self, lane: usize, rx: usize, slot_id: u64, at: Cycle, flight: InFlight) {
        let cell = flight.packet.dst * self.receivers[lane] + rx;
        let (open_slot, index) = self.open[lane][cell];
        if open_slot == slot_id {
            let fifo = &mut self.lanes[lane];
            let popped = self.pushed[lane] - fifo.len() as u64;
            if let Some(group) = fifo.get_mut((index - popped) as usize) {
                if group.rest.is_empty() {
                    group.rest = self.pool.pop().unwrap_or_default();
                }
                group.rest.push(flight);
                return;
            }
            debug_assert!(false, "the open group of the current slot is live");
        }
        self.open[lane][cell] = (slot_id, self.pushed[lane]);
        self.lanes[lane].push(
            at,
            SlotGroup {
                seq: self.next_seq,
                slot_id,
                rx: rx as u32,
                first: flight,
                rest: Vec::new(),
            },
        );
        self.pushed[lane] += 1;
        self.next_seq += 1;
    }

    /// `(at, seq)` of a lane's head; an empty lane sorts after everything.
    fn head(&self, lane: usize) -> (Cycle, u64) {
        self.lanes[lane]
            .peek()
            .map_or((Cycle(u64::MAX), u64::MAX), |(at, group)| (*at, group.seq))
    }

    fn peek_time(&self) -> Option<Cycle> {
        let at = self.head(0).0.min(self.head(1).0);
        (at != Cycle(u64::MAX)).then_some(at)
    }

    /// The earliest group due by `now`, with its lane and resolution cycle.
    fn pop_due(&mut self, now: Cycle) -> Option<(usize, Cycle, SlotGroup)> {
        let lane = usize::from(self.head(1) < self.head(0));
        let (at, group) = self.lanes[lane].pop_due(now)?;
        Some((lane, at, group))
    }

    /// Returns a resolved collision's `rest` buffer to the free-list.
    fn recycle(&mut self, mut rest: Vec<InFlight>) {
        rest.clear();
        self.pool.push(rest);
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(MonotoneQueue::is_empty)
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
    // The slot groups, each inside its resolution event.
    resolutions: Resolutions,
    delivered: Vec<NetDelivery>,
    stats: NetStats,
    next_id: u64,
    slot_len: [u64; 2],
    ser_cycles: [u64; 2],
    // Per lane, the chance that a raw bit error corrupts a clean slot's
    // packet: a function of the configuration alone.
    p_err: [f64; 2],
}

impl FsoiNetwork {
    /// Creates a network from a configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails `FsoiConfig::validate`.
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
                aim: [None; 2],
                reservations: ReplySlotReservations::new(),
                expected_data: NodeMask::new(),
            })
            .collect();
        let receivers = [cfg.lanes.meta.receivers, cfg.lanes.data.receivers];
        let resolutions = Resolutions::new(cfg.nodes, receivers);
        let slot_len = [
            cfg.lanes.slot_cycles(PacketClass::Meta),
            cfg.lanes.slot_cycles(PacketClass::Data),
        ];
        let ser_cycles = [
            cfg.lanes.serialization_cycles(PacketClass::Meta),
            cfg.lanes.serialization_cycles(PacketClass::Data),
        ];
        let p_err = PacketClass::ALL
            .map(|class| cfg.packet_error_probability(cfg.lanes.spec(class).packet_bits));
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
            resolutions,
            delivered: Vec::new(),
            stats: NetStats::default(),
            next_id: 0,
            slot_len,
            ser_cycles,
            p_err,
        }
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
    pub(crate) fn slots_elapsed(&self, class: PacketClass) -> u64 {
        self.now.as_u64() / self.slot_len[class.lane()]
    }

    /// Number of undrained deliveries.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
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
    }

    /// Debug builds: every live group's `open` cell holds the slot id and
    /// push index of that group, or of a younger live group of the same
    /// cell; no cell has two groups of one slot, so each lane's group count
    /// is its FIFO length; and every transmission waits in exactly one
    /// group until it resolves.
    fn check_groups(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let r = &self.resolutions;
        assert!(r.pool.iter().all(Vec::is_empty), "pooled buffers are empty");
        for (lane, fifo) in r.lanes.iter().enumerate() {
            let receivers = r.receivers[lane];
            let popped = r.pushed[lane] - fifo.len() as u64;
            let mut live = Vec::with_capacity(fifo.len());
            let mut packets = 0;
            for (i, (_, group)) in fifo.iter().enumerate() {
                let (dst, rx) = (group.first.dst(), group.rx as usize);
                for p in group.packets() {
                    let cell = (
                        p.dst(),
                        p.packet.class.lane(),
                        receiver_index(p.src(), dst, self.cfg.nodes, receivers),
                    );
                    assert_eq!(cell, (dst, lane, rx), "a group holds one cell of one lane");
                }
                assert!(
                    !group.rest.is_empty() || group.rest.capacity() == 0,
                    "a clean slot holds no buffer"
                );
                live.push((dst.0 * receivers + rx, group.slot_id, popped + i as u64));
                packets += group.len() as u64;
            }
            live.sort_unstable();
            for &(cell, slot_id, _) in &live {
                let (open_slot, index) = r.open[lane][cell];
                assert!(
                    open_slot >= slot_id && live.binary_search(&(cell, open_slot, index)).is_ok(),
                    "lane {lane}, cell {cell}: open ({open_slot}, {index}) is not the latest live group"
                );
            }
            let mut groups: Vec<(usize, u64)> = live.iter().map(|&(c, s, _)| (c, s)).collect();
            groups.dedup();
            assert_eq!(
                groups.len(),
                fifo.len(),
                "lane {lane}: one group per cell and slot"
            );
            let s = &self.stats;
            assert_eq!(
                packets,
                s.transmissions[lane] - s.delivered[lane] - s.retransmissions[lane],
                "lane {lane}: every transmission waits in one group until it resolves"
            );
        }
    }

    /// The earliest cycle sender `n` could pop a packet on `lane`: queued
    /// work is ready now, a retry matures at its scheduled cycle, and the
    /// transmission then waits for the transmitter to go quiet — exactly
    /// the eligibility test in `start_transmissions`. Never below `now`.
    fn sender_eligible(&self, lane: usize, n: usize) -> u64 {
        let now = self.now.as_u64();
        let node = &self.nodes[n];
        let ready = if node.out[lane].is_empty() {
            node.retries[lane]
                .peek_time()
                .map_or(u64::MAX, Cycle::as_u64)
        } else {
            now
        };
        ready.max(now).max(node.tx_busy_until[lane].as_u64())
    }

    /// The slot boundary at or after a lane's earliest eligible cycle
    /// (`u64::MAX` stays "never"). Rounding up is monotone, so it is
    /// applied once, to the lane's minimum.
    fn round_to_slot(&self, lane: usize, eligible: u64) -> u64 {
        if eligible == u64::MAX {
            eligible
        } else {
            Cycle(eligible)
                .round_up_to_slot(self.slot_len[lane])
                .as_u64()
        }
    }

    /// Debug builds: the next-event bound with every sender of every lane
    /// walked (the walk the early exit replaced) equals `next`.
    fn check_next_event(&self, next: u64) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut full = self.resolutions.peek_time().map_or(u64::MAX, Cycle::as_u64);
        for lane in 0..2 {
            let eligible = self.senders[lane]
                .iter()
                .map(|n| self.sender_eligible(lane, n))
                .min()
                .unwrap_or(u64::MAX);
            full = full.min(self.round_to_slot(lane, eligible));
        }
        assert_eq!(next, full, "next-event bound at {:?}", self.now);
    }

    /// Processes everything due at the current cycle (the body of
    /// [`tick`](Interconnect::tick), without the time advance).
    fn step_cycle(&mut self) {
        self.resolve_slots();
        self.start_transmissions();
        self.check_senders();
        self.check_groups();
    }

    /// Runs `cycles` ticks, fast-forwarding over provably empty cycles.
    pub fn run(&mut self, cycles: u64) {
        self.advance_to(self.now + cycles);
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
        let Some(mut flight) = popped else { return };
        if node.out[lane].is_empty() && node.retries[lane].is_empty() {
            self.senders[lane].remove(node_idx);
        }

        let setup = match self.cfg.array {
            TransmitterArray::Dedicated => 0,
            TransmitterArray::PhaseArray { setup_cycles } => {
                if node.aim[lane].replace(flight.dst()) == Some(flight.dst()) {
                    0
                } else {
                    setup_cycles
                }
            }
        };
        let slot = self.slot_len[lane];
        node.tx_busy_until[lane] = self.now + self.ser_cycles[lane] + setup;
        if flight.first_tx_at == NOT_SENT {
            flight.first_tx_at = self.now;
        }
        self.stats.transmissions[lane] += 1;

        let slot_id = self.now.as_u64() / slot;
        trace::emit_with(self.now, || TraceEvent::TxStart {
            packet: flight.id,
            src: flight.packet.src as u64,
            dst: flight.packet.dst as u64,
            lane: lane as u64,
            attempt: u64::from(flight.retries),
            slot: slot_id,
        });
        // All packets of a slot resolve at the same deterministic cycle:
        // slot end plus the worst-case phase-array setup. One resolution
        // event per slot group — the packet that opens the group schedules
        // it, later colliders just join.
        let resolve_at = Cycle((slot_id + 1) * slot + self.cfg.phase_array_setup());
        let receivers = self.resolutions.receivers[lane];
        let rx = receiver_index(flight.src(), flight.dst(), self.cfg.nodes, receivers);
        self.resolutions.join(lane, rx, slot_id, resolve_at, flight);
    }

    fn resolve_slots(&mut self) {
        while let Some((lane, resolve_at, group)) = self.resolutions.pop_due(self.now) {
            if group.rest.is_empty() {
                // A clean slot can still be hit by a raw bit error; the
                // checksum catches it, no confirmation goes out, and the
                // sender retries — the same machinery as a collision
                // (§4.3.1: "errors and collisions [are] handled by the
                // same mechanism").
                let p_err = self.p_err[lane];
                if p_err > 0.0 && self.rng.bernoulli(p_err) {
                    self.stats.bit_error_drops[lane] += 1;
                    self.drop_and_retry(lane, group.first, resolve_at);
                } else {
                    self.deliver(group.first, resolve_at);
                }
            } else {
                self.collide(lane, &group, resolve_at);
                self.resolutions.recycle(group.rest);
            }
        }
    }

    fn deliver(&mut self, flight: InFlight, at: Cycle) {
        let lane = flight.packet.class.lane();
        self.stats.delivered[lane] += 1;
        let first_tx = flight.first_tx_at;
        debug_assert_ne!(first_tx, NOT_SENT, "delivered packets were transmitted");
        // The final transmission started one serialization period (plus
        // any phase-array setup, folded into `at`) before resolution; the
        // packet waited at its source until its first one, and lost the
        // time between the two to collisions and back-off.
        let final_tx_start = Cycle(
            at.as_u64()
                .saturating_sub(self.ser_cycles[lane] + self.cfg.phase_array_setup()),
        )
        .max(first_tx);
        let delivery = NetDelivery {
            packet: flight.packet,
            latency: at.saturating_sub(flight.enqueued_at) + flight.packet.scheduling_delay,
            retries: flight.retries,
            queuing: NetDelivery::narrow(first_tx.saturating_sub(flight.enqueued_at)),
            resolution: NetDelivery::narrow(final_tx_start.saturating_sub(first_tx)),
        };
        trace::emit_with(at, || TraceEvent::Deliver {
            packet: flight.id,
            src: flight.packet.src as u64,
            dst: flight.packet.dst as u64,
            lane: lane as u64,
            queuing: u64::from(delivery.queuing),
            scheduling: delivery.packet.scheduling_delay,
            network: delivery.network(),
            resolution: u64::from(delivery.resolution),
            retries: u64::from(flight.retries),
        });
        confirm(at, flight.dst(), flight.src(), "receipt");
        self.delivered.push(delivery);
    }

    /// A single packet corrupted by a raw bit error: no confirmation, so
    /// the sender backs off and retries — identical recovery to a
    /// collision, without the collision bookkeeping (no hint: the header
    /// itself may be what broke).
    fn drop_and_retry(&mut self, lane: usize, mut flight: InFlight, at: Cycle) {
        let next_boundary = (at + CONFIRMATION_DELAY).round_up_to_slot(self.slot_len[lane]);
        flight.retries += 1;
        self.stats.retransmissions[lane] += 1;
        trace::emit_with(at, || TraceEvent::BitError {
            packet: flight.id,
            src: flight.packet.src as u64,
            dst: flight.packet.dst as u64,
            lane: lane as u64,
        });
        self.retry_after_backoff(lane, flight, next_boundary, 0, at);
    }

    fn collide(&mut self, lane: usize, group: &SlotGroup, at: Cycle) {
        self.stats.collision_events[lane] += 1;
        self.stats.collided_packets[lane] += group.len() as u64;
        let slot = self.slot_len[lane];
        // Senders detect the collision by the *absence* of a confirmation,
        // `CONFIRMATION_DELAY` cycles after the slot resolved.
        let detect = at + CONFIRMATION_DELAY;
        let next_boundary = detect.round_up_to_slot(slot);

        let winner = if lane == PacketClass::Data.lane() && self.cfg.hints {
            self.select_hint_winner(group, next_boundary)
        } else {
            None
        };

        let group_size = group.len() as u64;
        for mut flight in group.packets().copied() {
            flight.retries += 1;
            self.stats.retransmissions[lane] += 1;
            trace::emit_with(at, || TraceEvent::Collide {
                packet: flight.id,
                src: flight.packet.src as u64,
                dst: flight.packet.dst as u64,
                lane: lane as u64,
                rx: u64::from(group.rx),
                group: group_size,
            });
            if Some(flight.src()) == winner {
                // The winner retransmits in the very next slot.
                self.push_retry(lane, next_boundary, flight);
            } else {
                // Losers skip the winner's slot, then back off; with no
                // hint, a random slot within the window after detection.
                let skipped = u64::from(winner.is_some());
                self.retry_after_backoff(lane, flight, next_boundary, skipped, at);
            }
        }
    }

    /// Draws `flight`'s back-off for its current retry and re-queues it in
    /// the drawn slot of the window that opens `skipped` slots after
    /// `boundary`.
    fn retry_after_backoff(
        &mut self,
        lane: usize,
        flight: InFlight,
        boundary: Cycle,
        skipped: u64,
        at: Cycle,
    ) {
        let delay_slots = self
            .cfg
            .backoff
            .draw_delay_slots(flight.retries, &mut self.rng);
        let ready = boundary + (skipped + delay_slots - 1) * self.slot_len[lane];
        trace::emit_with(at, || TraceEvent::Backoff {
            packet: flight.id,
            lane: lane as u64,
            retry: u64::from(flight.retries),
            delay_slots,
            ready: ready.as_u64(),
        });
        self.push_retry(lane, ready, flight);
    }

    fn push_retry(&mut self, lane: usize, ready: Cycle, flight: InFlight) {
        let src = flight.packet.src;
        self.nodes[src].retries[lane].push(ready, flight);
        self.senders[lane].insert(src);
    }

    /// Picks a retransmission winner for a data-lane collision: decode the
    /// OR-ed PID/~PID superset, intersect it with the nodes the receiver
    /// expects data from, and choose one uniformly (§5.2 — "the
    /// notification is only used as a hint").
    fn select_hint_winner(&mut self, group: &SlotGroup, next_slot: Cycle) -> Option<NodeId> {
        let (nodes, dst) = (self.cfg.nodes, group.first.dst());
        let header = group
            .packets()
            .map(|f| HeaderCode::encode(f.src(), nodes))
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
        if group.packets().any(|f| f.src() == winner) {
            self.stats.hints_correct += 1;
        } else {
            self.stats.hints_wrong += 1;
        }
        // The hint lands the cycle before the winner's slot.
        let lands = Cycle(next_slot.as_u64().saturating_sub(1));
        confirm(lands, dst, winner, "hint");
        Some(winner)
    }
}

/// Traces one confirmation beam `from → to`, sent at `at`.
fn confirm(at: Cycle, from: NodeId, to: NodeId, kind: &'static str) {
    trace::emit_with(at, || TraceEvent::Confirm {
        src: from.0 as u64,
        dst: to.0 as u64,
        kind: kind.to_string(),
    });
}

impl Interconnect for FsoiNetwork {
    /// Queues a packet on its source's outgoing queue for its lane; `Err`
    /// when that queue is full, and the caller stalls and retries later.
    fn inject(&mut self, packet: NetPacket) -> Result<(), NetPacket> {
        assert_ne!(packet.src, packet.dst, "no self-injection");
        assert!(
            packet.src < self.cfg.nodes && packet.dst < self.cfg.nodes,
            "node id out of range"
        );
        let flight = InFlight {
            packet,
            id: self.next_id,
            enqueued_at: self.now,
            first_tx_at: NOT_SENT,
            retries: 0,
        };
        let lane = packet.class.lane();
        match self.nodes[packet.src].out[lane].push(flight) {
            Ok(()) => {
                self.senders[lane].insert(packet.src);
                self.next_id += 1;
                self.stats.injected[lane] += 1;
                trace::emit_with(self.now, || TraceEvent::Inject {
                    packet: flight.id,
                    src: packet.src as u64,
                    dst: packet.dst as u64,
                    lane: lane as u64,
                    tag: packet.tag,
                });
                Ok(())
            }
            Err(_) => {
                self.stats.rejected[lane] += 1;
                trace::emit_with(self.now, || TraceEvent::Reject {
                    src: packet.src as u64,
                    dst: packet.dst as u64,
                    lane: lane as u64,
                });
                Err(packet)
            }
        }
    }

    fn tick(&mut self) {
        self.step_cycle();
        self.now += 1;
    }

    fn drain(&mut self) -> std::vec::Drain<'_, NetDelivery> {
        self.delivered.drain(..)
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// True when no packet is queued, in flight, or awaiting retry.
    fn is_idle(&self) -> bool {
        self.check_senders();
        self.check_groups();
        self.resolutions.is_empty() && self.senders.iter().all(NodeMask::is_empty)
    }

    fn name(&self) -> &'static str {
        "fsoi"
    }

    fn report(&self, cycles: u64) -> NetReport {
        let s = &self.stats;
        let cfg = &self.cfg;
        let hint_share = |n: u64| {
            if s.hints_issued == 0 {
                0.0
            } else {
                n as f64 / s.hints_issued as f64
            }
        };
        NetReport {
            tx_probability: PacketClass::ALL.map(|class| {
                s.transmission_probability(class.lane(), cfg.nodes, self.slots_elapsed(class))
            }),
            collision_rate: [0, 1].map(|lane| s.collision_rate(lane)),
            hint_accuracy: hint_share(s.hints_correct),
            hint_wrong_rate: hint_share(s.hints_wrong),
            bit_error_drops: s.bit_error_drops[0] + s.bit_error_drops[1],
            energy_j: FsoiPowerModel::paper_default()
                .network_energy(s, &cfg.lanes, cfg.nodes, cycles)
                .total_j(),
        }
    }

    /// The next resolution event or the next slot boundary at which some
    /// node can start a transmission (a queued packet, or a retry that will
    /// have matured by then); never `None`. A confirmation in flight is no
    /// event: nothing happens when it lands.
    fn next_event_at(&self) -> Option<Cycle> {
        let now = self.now.as_u64();
        let mut next = self.resolutions.peek_time().map_or(u64::MAX, Cycle::as_u64);
        for lane in 0..2 {
            // Earliest cycle any sender could pop a packet on this lane.
            // Every sender's term is at least `now`, so the first sender
            // that can go now ends the walk with the exact minimum.
            let mut eligible = u64::MAX;
            for n in &self.senders[lane] {
                eligible = eligible.min(self.sender_eligible(lane, n));
                if eligible == now {
                    break;
                }
            }
            next = next.min(self.round_to_slot(lane, eligible));
        }
        self.check_next_event(next);
        Some(Cycle(next))
    }

    /// Jumps straight to each next interesting cycle instead of ticking
    /// one by one.
    ///
    /// Byte-identical to calling [`tick`](Interconnect::tick)
    /// `target - now` times: a cycle below the
    /// [`next_event_at`](Interconnect::next_event_at) bound pops no
    /// resolution and starts no transmission, so it touches neither the
    /// RNG nor any queue — skipping it skips nothing. Cycles that do have
    /// work are processed in full, in order, at their exact times.
    fn advance_to(&mut self, target: Cycle) {
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

    /// Registers that `dst` expects a data-packet reply from `src` (drives
    /// the §5.2 hint candidate set).
    fn expect_data(&mut self, dst: usize, src: usize) {
        self.nodes[dst].expected_data.insert(src);
    }

    /// Clears an expectation (reply received or transaction aborted).
    fn clear_expected(&mut self, dst: usize, src: usize) {
        self.nodes[dst].expected_data.remove(src);
    }

    /// Books `node`'s incoming data slot around `predicted_arrival` when
    /// request spacing is on (0 otherwise). The slots that ended before
    /// now go first: every reservation searches from its own arrival,
    /// which is never in the past, so none of them is looked at again.
    fn reserve_reply_slot(&mut self, node: usize, predicted_arrival: Cycle) -> u64 {
        if !self.cfg.request_spacing {
            return 0;
        }
        debug_assert!(
            predicted_arrival >= self.now,
            "a reply predicted at {predicted_arrival:?} lands before now ({:?})",
            self.now
        );
        let slot = self.slot_len[PacketClass::Data.lane()];
        let book = &mut self.nodes[node].reservations;
        book.prune_before(self.now, slot);
        book.reserve(predicted_arrival, slot).request_delay
    }

    fn supports_confirmation_acks(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffPolicy;

    fn net16(seed: u64) -> FsoiNetwork {
        FsoiNetwork::new(FsoiConfig::nodes(16), seed)
    }

    fn run_until_idle(net: &mut FsoiNetwork, max: u64) -> Vec<NetDelivery> {
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
    fn single_meta_packet_delivers_in_one_slot() {
        let mut net = net16(1);
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 7))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 1);
        let d = out[0];
        assert_eq!(d.packet.dst, 5);
        assert_eq!(d.packet.tag, 7);
        assert_eq!(d.retries, 0);
        // Injected at cycle 0, transmits in slot [0,2), resolves at 2: all
        // of the latency is serialization + flight.
        assert_eq!(d.latency, 2);
        assert_eq!((d.queuing, d.resolution, d.network()), (0, 0, 2));
    }

    #[test]
    fn single_data_packet_takes_five_cycles() {
        let mut net = net16(1);
        net.inject(NetPacket::new(3, 9, PacketClass::Data, 1))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency, 5);
        assert_eq!(out[0].network(), 5);
    }

    #[test]
    fn non_colliding_packets_all_deliver() {
        let mut net = net16(2);
        // Distinct destinations: no sharing, no collisions.
        for src in 0..8 {
            net.inject(NetPacket::new(src, src + 8, PacketClass::Meta, src as u64))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|d| d.retries == 0));
        assert_eq!(net.stats().collision_events[0], 0);
    }

    #[test]
    fn same_receiver_same_slot_collides_and_recovers() {
        let mut net = net16(3);
        // Nodes 0 and 2 share receiver 0 at node 5 (ranks 0 and 2, mod 2).
        assert_eq!(receiver_index(NodeId(0), NodeId(5), 16, 2), 0);
        assert_eq!(receiver_index(NodeId(2), NodeId(5), 16, 2), 0);
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
            .unwrap();
        net.inject(NetPacket::new(2, 5, PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 500);
        assert_eq!(out.len(), 2, "both packets eventually deliver");
        // At least the initial collision; secondary collisions are possible
        // when both back-offs draw the same slot.
        assert!(net.stats().collision_events[0] >= 1);
        assert!(net.stats().collided_packets[0] >= 2);
        assert!(out.iter().all(|d| d.retries >= 1 && d.resolution > 0));
    }

    #[test]
    fn different_receivers_do_not_collide() {
        let mut net = net16(4);
        // Nodes 0 and 1 use different receivers at node 5 (ranks 0, 1).
        assert_ne!(
            receiver_index(NodeId(0), NodeId(5), 16, 2),
            receiver_index(NodeId(1), NodeId(5), 16, 2)
        );
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
            .unwrap();
        net.inject(NetPacket::new(1, 5, PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().collision_events[0], 0);
        assert!(out.iter().all(|d| d.retries == 0));
    }

    #[test]
    fn different_slots_do_not_collide() {
        let mut net = net16(5);
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
            .unwrap();
        // Let the first packet fully transmit before injecting the second.
        net.tick();
        net.tick();
        net.inject(NetPacket::new(2, 5, PacketClass::Meta, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().collision_events[0], 0);
    }

    #[test]
    fn meta_and_data_lanes_are_independent() {
        let mut net = net16(6);
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
            .unwrap();
        net.inject(NetPacket::new(2, 5, PacketClass::Data, 2))
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
                .inject(NetPacket::new(0, 1, PacketClass::Meta, i))
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
            net.inject(NetPacket::new(0, 1, PacketClass::Meta, i))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        assert_eq!(out.len(), 4);
        // All four were injected at cycle 0: a latency is a delivery time.
        let mut times: Vec<u64> = out.iter().map(|d| d.latency).collect();
        times.sort_unstable();
        assert_eq!(times, vec![2, 4, 6, 8], "one delivery per meta slot");
        // Later packets accrue queuing delay, never collision delay.
        assert!(out.iter().all(|d| d.resolution == 0));
        assert_eq!(out.iter().map(|d| d.queuing).max(), Some(6));
    }

    #[test]
    fn point_to_point_ordering_preserved_without_collisions() {
        let mut net = net16(9);
        for i in 0..5 {
            net.inject(NetPacket::new(4, 11, PacketClass::Meta, i))
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
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
            .unwrap();
        let out = run_until_idle(&mut net, 50);
        // Resolution at slot end + 1 cycle of phase-array setup.
        assert_eq!(out[0].latency, 3);
    }

    #[test]
    fn phase_array_no_setup_for_repeat_target() {
        let cfg = FsoiConfig::nodes(64);
        let mut net = FsoiNetwork::new(cfg, 11);
        let slot = net.meta_slot_len();
        assert_eq!(net.ser_cycles[0], slot, "a setup overruns the slot");
        for (tag, dst) in [5, 5, 6, 6].into_iter().enumerate() {
            net.inject(NetPacket::new(0, dst, PacketClass::Meta, tag as u64))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 100);
        // A retarget (the first aim, then 5 → 6) keeps the transmitter busy
        // into the next slot, so the following packet waits a slot; a
        // repeated target does not. Every slot resolves one setup after its
        // end.
        let times: Vec<u64> = out.iter().map(|d| d.latency).collect();
        assert_eq!(times, [1, 3, 4, 6].map(|end| end * slot + 1));
    }

    #[test]
    fn hint_winner_retransmits_next_slot() {
        // Force a data collision with expectations registered: winner
        // should recover with minimal delay.
        let cfg = FsoiConfig::nodes(16); // hints on by default
        let mut net = FsoiNetwork::new(cfg, 12);
        // Receiver 5 expects data from 0 and 2 (both receiver 0).
        net.expect_data(5, 0);
        net.expect_data(5, 2);
        net.inject(NetPacket::new(0, 5, PacketClass::Data, 1))
            .unwrap();
        net.inject(NetPacket::new(2, 5, PacketClass::Data, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 500);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().hints_issued, 1);
        assert_eq!(net.stats().hints_correct, 1, "both candidates are real");
        // Collision resolved at 5, detected at 7, winner's slot starts at
        // 10, so the winner delivers at 15 (both were injected at 0).
        let first = out.iter().map(|d| d.latency).min().unwrap();
        assert_eq!(first, 15);
    }

    #[test]
    fn hints_disabled_uses_pure_backoff() {
        let cfg = FsoiConfig::nodes(16).with_hints(false);
        let mut net = FsoiNetwork::new(cfg, 13);
        net.inject(NetPacket::new(0, 5, PacketClass::Data, 1))
            .unwrap();
        net.inject(NetPacket::new(2, 5, PacketClass::Data, 2))
            .unwrap();
        let out = run_until_idle(&mut net, 1000);
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().hints_issued, 0);
    }

    #[test]
    fn expected_data_registry_updates() {
        let mut net = net16(14);
        net.expect_data(3, 7);
        assert!(net.nodes[3].expected_data.contains(7));
        net.clear_expected(3, 7);
        assert!(!net.nodes[3].expected_data.contains(7));
    }

    #[test]
    fn confirmations_counted_per_delivery() {
        let mut net = net16(15);
        for src in 0..4 {
            net.inject(NetPacket::new(src, 15 - src, PacketClass::Meta, 0))
                .unwrap();
        }
        run_until_idle(&mut net, 100);
        assert_eq!(net.stats().confirmations(), 4);
    }

    #[test]
    fn heavy_contention_eventually_drains() {
        // All 15 nodes send one meta packet to node 0 at the same time —
        // a small version of the pathological burst.
        let mut net = net16(16);
        for src in 1..16 {
            net.inject(NetPacket::new(src, 0, PacketClass::Meta, 0))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 20_000);
        assert_eq!(out.len(), 15, "exponential back-off must drain the burst");
        assert!(net.stats().collision_events[0] > 0);
    }

    #[test]
    fn binary_backoff_also_drains_but_slower_tail() {
        let cfg = FsoiConfig {
            backoff: BackoffPolicy::BINARY,
            ..FsoiConfig::nodes(16)
        };
        let mut net = FsoiNetwork::new(cfg, 17);
        for src in 1..16 {
            net.inject(NetPacket::new(src, 0, PacketClass::Meta, 0))
                .unwrap();
        }
        let out = run_until_idle(&mut net, 50_000);
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn stats_probability_and_collision_rate() {
        let mut net = net16(18);
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
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
            net.inject(NetPacket::new(src, 5, PacketClass::Meta, 0))
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
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
            .unwrap();
        run_until_idle(&mut net, 20);
        let s = net.stats();
        assert!(s.transmissions[0] > 0);
        assert_eq!(s.transmission_probability(0, 0, 5), 0.0);
        assert!(s.transmission_probability(0, 16, 5).is_finite());
        assert!(s.collision_rate(0).is_finite());
    }

    #[test]
    #[should_panic(expected = "no self-injection")]
    fn self_injection_panics() {
        let mut net = net16(19);
        let _ = net.inject(NetPacket::new(3, 3, PacketClass::Meta, 0));
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
        net.inject(NetPacket::new(0, 1, PacketClass::Meta, 0))
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
            net.inject(NetPacket::new(src, src + 8, PacketClass::Data, i))
                .unwrap_or_else(|_| panic!("queue full at {i}"));
            for _ in 0..10 {
                net.tick();
            }
        }
        let out = run_until_idle(&mut net, 20_000);
        assert_eq!(net.stats().collision_events, [0, 0], "no collisions here");
        assert!(
            net.stats().bit_error_drops[1] > 0,
            "errors must have struck"
        );
        assert_eq!(net.stats().delivered[1], 40, "all packets recovered");
        assert_eq!(out.len(), 40, "each delivered once");
    }

    #[test]
    fn paper_default_ber_is_invisible() {
        // At the paper's 1e-10 link BER, thousands of packets see no drop.
        let mut net = net16(22);
        for i in 0..500u64 {
            let src = (i % 8) as usize;
            let _ = net.inject(NetPacket::new(src, src + 8, PacketClass::Meta, i));
            net.tick();
            net.tick();
            net.drain();
        }
        run_until_idle(&mut net, 5_000);
        assert_eq!(net.stats().bit_error_drops, [0, 0]);
    }

    #[test]
    fn one_resolution_event_per_slot_group() {
        // Three senders sharing receiver 0 at node 5 collide in slot 0:
        // the meta FIFO carries one event holding the whole group, not one
        // per packet.
        let mut net = net16(40);
        for src in [0usize, 2, 4] {
            assert_eq!(receiver_index(NodeId(src), NodeId(5), 16, 2), 0);
            net.inject(NetPacket::new(src, 5, PacketClass::Meta, 0))
                .unwrap();
        }
        net.tick(); // cycle 0: all three transmit into the same slot group
        let fifo = &net.resolutions.lanes[0];
        assert_eq!(fifo.len(), 1, "one event for the group");
        let (at, group) = fifo.peek().unwrap();
        assert_eq!(*at, Cycle(2));
        assert_eq!(group.first.packet.src, 0, "the opener stays first");
        let rest: Vec<usize> = group.rest.iter().map(|f| f.packet.src).collect();
        assert_eq!(rest, [2, 4], "the colliders, in arrival order");
        let out = run_until_idle(&mut net, 20_000);
        assert_eq!(out.len(), 3, "the burst still drains");
        assert!(net.stats().collision_events[0] >= 1);
    }

    #[test]
    fn slot_group_buffers_are_pooled() {
        // Back-to-back clean slots: each group is its one packet, and no
        // buffer is ever taken.
        let mut net = net16(41);
        for i in 0..4 {
            net.inject(NetPacket::new(0, 1, PacketClass::Meta, i))
                .unwrap();
        }
        run_until_idle(&mut net, 100);
        assert_eq!(net.stats().delivered[0], 4);
        assert!(
            net.resolutions.pool.is_empty(),
            "a clean slot takes no buffer"
        );
        // A collision takes one buffer for its colliders and returns it
        // when the group resolves.
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 0))
            .unwrap();
        net.inject(NetPacket::new(2, 5, PacketClass::Meta, 0))
            .unwrap();
        while net.resolutions.is_empty() {
            net.tick();
        }
        let group = &net.resolutions.lanes[0].peek().unwrap().1;
        assert_eq!(group.len(), 2, "the two packets collide");
        while !net.resolutions.is_empty() {
            net.tick();
        }
        assert_eq!(net.stats().collision_events[0], 1);
        assert_eq!(
            net.resolutions.pool.len(),
            1,
            "the resolved group returned its buffer"
        );
    }

    #[test]
    fn reply_slot_reservations_are_pruned_as_time_passes() {
        // Thousands of read misses, each reserving a reply slot a few slots
        // ahead: the book holds the reservations still in the future, not
        // every one ever made.
        let mut net = net16(45);
        let slot = net.slot_len[PacketClass::Data.lane()];
        let mut granted = Vec::new();
        let mut delayed = 0;
        for i in 0..5_000u64 {
            net.run(3 + i % 7);
            let predicted = net.now() + 3 * slot + i % 7;
            let delay = net.reserve_reply_slot(3, predicted);
            delayed += u32::from(delay > 0);
            granted.push((predicted.as_u64() + delay) / slot);
            let current = net.now().as_u64() / slot;
            let outstanding = granted.iter().filter(|&&s| s >= current).count();
            assert_eq!(
                net.nodes[3].reservations.active(),
                outstanding,
                "reservation {i}"
            );
        }
        assert!(net.nodes[3].reservations.active() < 16);
        assert!(delayed > 0, "slots were contended");
    }

    #[test]
    fn next_event_at_tracks_pending_work() {
        let mut net = net16(42);
        let quiet = Some(Cycle(u64::MAX));
        assert_eq!(net.next_event_at(), quiet, "quiet network has no events");
        net.inject(NetPacket::new(0, 5, PacketClass::Meta, 0))
            .unwrap();
        // Queued work at cycle 0, which is a slot boundary.
        assert_eq!(net.next_event_at(), Some(Cycle(0)));
        net.tick();
        // In flight: the slot resolves at cycle 2.
        assert_eq!(net.next_event_at(), Some(Cycle(2)));
        net.tick();
        net.tick();
        // Delivered at 2, its receipt sent: a confirmation in flight is no
        // event, so the network is quiet.
        assert_eq!(net.delivered_count(), 1);
        assert_eq!(net.stats().confirmations(), 1);
        assert_eq!(net.next_event_at(), quiet);
    }

    /// The sender walk may stop only at a sender that can go now. At a
    /// 64-node slot boundary, node 0 (walked first) is busy until one
    /// cycle past it, its first aim's phase-array setup, and node 1 is
    /// free: the bound is now, not node 0's next slot nor the
    /// resolution one cycle later, and node 1 transmits in this slot.
    #[test]
    fn next_event_at_walks_past_a_busy_lower_sender() {
        let mut net = FsoiNetwork::new(FsoiConfig::nodes(64), 46);
        let slot = net.meta_slot_len();
        for tag in 0..2 {
            net.inject(NetPacket::new(0, 5, PacketClass::Meta, tag))
                .unwrap();
        }
        net.tick(); // cycle 0: node 0 sends tag 0 and keeps tag 1 queued
        net.run(slot - 1);
        assert_eq!(net.now(), Cycle(slot));
        assert_eq!(net.nodes[0].tx_busy_until[0], Cycle(slot + 1));
        assert!(
            !Cycle(slot + 1).is_slot_boundary(slot),
            "busy into the slot"
        );
        net.inject(NetPacket::new(1, 9, PacketClass::Meta, 2))
            .unwrap();
        assert_eq!(net.next_event_at(), Some(Cycle(slot)));
        net.run(4 * slot);
        let latency: Vec<(u64, u64)> = net.drain().map(|d| (d.packet.tag, d.latency)).collect();
        // Node 1 sends in slot 1, its slot group resolving one setup after
        // the slot's end; node 0's tag 1 waits for slot 2.
        assert_eq!(latency, [(0, slot + 1), (2, slot + 1), (1, 3 * slot + 1)]);
    }

    /// `fsoi_storm` runs on these records: every outgoing queue, retry
    /// queue and slot group holds `InFlight`s by value, and every drain
    /// moves `NetDelivery`s out of the network's delivered buffer. A
    /// delivery carries its own latency components (queuing and
    /// resolution, as `u32`s) so the client can fold the Figure 6/7 stack
    /// without any per-network statistics; they grow it from 56 bytes to
    /// one 64-byte cache line, and no further. A slot group is its first
    /// packet inline plus an empty `Vec` header, and with its resolution
    /// cycle fills two cache lines.
    #[test]
    fn hot_path_records_stay_small() {
        assert!(std::mem::size_of::<InFlight>() <= 72);
        assert!(std::mem::size_of::<NetDelivery>() <= 64);
        assert_eq!(std::mem::size_of::<SlotGroup>(), 120);
        assert_eq!(std::mem::size_of::<(Cycle, SlotGroup)>(), 128);
    }

    /// The trace's `Deliver` event and the delivery record tell the same
    /// story. Under collisions and back-off on both lanes, with a
    /// scheduling delay on the data packets, each packet's traced
    /// components are its delivery's fields, and they sum to its latency.
    #[test]
    fn delivery_latency_is_the_sum_of_its_traced_components() {
        use std::collections::BTreeMap;
        if !trace::compiled() {
            return; // release build without the `trace` feature: nothing recorded
        }
        let (records, (out, collided)) = trace::capture(|| {
            let mut net = net16(44);
            let mut tag = 0;
            for dst in [15, 7] {
                for src in [0, 2, 4] {
                    net.inject(NetPacket::new(src, dst, PacketClass::Meta, tag))
                        .unwrap();
                    tag += 1;
                }
                for src in [8, 10, 12] {
                    let data = NetPacket {
                        scheduling_delay: 3,
                        ..NetPacket::new(src, dst, PacketClass::Data, tag)
                    };
                    net.inject(data).unwrap();
                    tag += 1;
                }
            }
            let out = run_until_idle(&mut net, 20_000);
            (out, net.stats().collided_packets)
        });
        assert!(collided[0] > 0 && collided[1] > 0, "{collided:?}");
        assert_eq!(out.len(), 12);
        let mut tag_of = BTreeMap::new();
        let mut traced = BTreeMap::new();
        for r in &records {
            match r.event {
                TraceEvent::Inject { packet, tag, .. } => {
                    tag_of.insert(packet, tag);
                }
                TraceEvent::Deliver {
                    packet,
                    queuing,
                    scheduling,
                    network,
                    resolution,
                    ..
                } => {
                    traced.insert(tag_of[&packet], [queuing, scheduling, network, resolution]);
                }
                _ => {}
            }
        }
        assert!(out.iter().any(|d| d.resolution > 0), "the bursts collided");
        for d in &out {
            let tag = d.packet.tag;
            let fields = [
                u64::from(d.queuing),
                d.packet.scheduling_delay,
                d.network(),
                u64::from(d.resolution),
            ];
            assert_eq!(Some(&fields), traced.get(&tag), "packet tagged {tag}");
            assert_eq!(fields.iter().sum::<u64>(), d.latency, "packet tagged {tag}");
        }
    }

    #[test]
    fn fast_forward_matches_cycle_by_cycle() {
        // The same contended workload driven by tick() and by run() must
        // land on identical deliveries, statistics, and clock.
        let drive = |fast: bool| {
            let mut net = net16(43);
            for src in 1..16 {
                net.expect_data(src, 0);
                net.inject(NetPacket::new(src, 0, PacketClass::Data, 0))
                    .unwrap();
            }
            if fast {
                net.run(20_000);
            } else {
                for _ in 0..20_000 {
                    net.tick();
                }
            }
            let delivered: Vec<NetDelivery> = net.drain().collect();
            (delivered, net.stats().clone(), net.now())
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = net16(seed);
            for src in 1..16 {
                net.inject(NetPacket::new(src, 0, PacketClass::Meta, 0))
                    .unwrap();
            }
            run_until_idle(&mut net, 20_000)
                .iter()
                .map(|d| (d.packet.src, d.latency))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should reorder the burst");
    }
}
