//! Property tests for the FSOI network's data structures and analysis
//! (on the in-repo `fsoi-check` harness).

use fsoi_check::{any_bool, checker, select, set_of, vec_of, Gen};
use fsoi_net::analysis::collision::node_collision_probability;
use fsoi_net::backoff::BackoffPolicy;
use fsoi_net::config::TransmitterArray;
use fsoi_net::lane::{LaneSpec, Lanes};
use fsoi_net::network::{Delivered, LatencyBreakdown, NetStats};
use fsoi_net::packet::{HeaderCode, Packet, PacketClass};
use fsoi_net::phase_array::PhaseArraySteering;
use fsoi_net::spacing::ReplySlotReservations;
use fsoi_net::topology::{receiver_index, senders_for_receiver, NodeId};
use fsoi_net::{FsoiConfig, FsoiNetwork};
use fsoi_sim::event::EventQueue;
use fsoi_sim::metrics::Registry;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::Cycle;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Any set of two or more distinct senders produces a detectably
/// collided header, and the decoded superset always contains every
/// actual participant.
#[test]
fn header_code_detects_and_bounds_collisions() {
    checker!().check(
        "header_code_detects_and_bounds_collisions",
        set_of(0..64, 2..8),
        |senders| {
            let nodes = 64;
            let list: Vec<NodeId> = senders.iter().map(|&s| NodeId(s)).collect();
            let h = HeaderCode::superpose_all(&list, nodes);
            assert!(h.is_collided(), "distinct senders must be detected");
            assert_eq!(h.decode(), None);
            let superset = h.possible_senders(nodes);
            for s in &list {
                assert!(superset.contains(s), "superset must contain {s}");
            }
            // Bonus sanity: a single sender decodes cleanly.
            let lone = NodeId(senders[0]);
            let clean = HeaderCode::encode(lone, nodes);
            assert_eq!(clean.decode(), Some(lone));
        },
    );
}

/// Receiver assignment partitions the senders: every sender of a
/// destination appears in exactly one receiver group.
#[test]
fn receiver_groups_partition_senders() {
    checker!().check(
        "receiver_groups_partition_senders",
        (2usize..65, 1usize..5),
        |&(nodes, receivers)| {
            for dst in 0..nodes {
                let mut seen = vec![0u32; nodes];
                for rx in 0..receivers {
                    for s in senders_for_receiver(NodeId(dst), rx, nodes, receivers) {
                        seen[s.0] += 1;
                        assert_eq!(receiver_index(s, NodeId(dst), nodes, receivers), rx);
                    }
                }
                for (i, &c) in seen.iter().enumerate() {
                    assert_eq!(c, u32::from(i != dst), "node {} vs dst {}", i, dst);
                }
            }
        },
    );
}

/// Back-off draws always fall inside the (ceiling of the) window and
/// windows never shrink with the retry count.
#[test]
fn backoff_windows_grow_and_bound_draws() {
    checker!().check(
        "backoff_windows_grow_and_bound_draws",
        (1.0f64..10.0, 1.0f64..2.5, 0u64..u64::MAX),
        |&(w, b, seed)| {
            let p = BackoffPolicy::new(w, b);
            let mut rng = Xoshiro256StarStar::new(seed);
            let mut prev = 0.0;
            for retry in 1..12u32 {
                let win = p.window_for_retry(retry);
                assert!(win >= prev);
                prev = win;
                for _ in 0..50 {
                    let d = p.draw_delay_slots(retry, &mut rng);
                    assert!(d >= 1 && d as f64 <= win.ceil());
                }
                // The analytic mean matches the support.
                let m = p.mean_delay_slots(retry);
                assert!(m >= 1.0 && m <= win.ceil());
            }
        },
    );
}

/// Scaling lane bandwidth down never shortens serialization, and the
/// scaled lanes still carry whole packets.
#[test]
fn lane_scaling_is_monotone() {
    checker!().check("lane_scaling_is_monotone", 0.05f64..1.0, |&frac| {
        let base = Lanes::fig11_base();
        let scaled = base.scaled_bandwidth(frac);
        for class in [PacketClass::Meta, PacketClass::Data] {
            assert!(scaled.serialization_cycles(class) >= base.serialization_cycles(class));
            assert!(scaled.spec(class).vcsels >= 1);
        }
    });
}

/// Reservations never double-book a slot and delays are multiples of
/// the slot length.
#[test]
fn reservations_never_collide() {
    checker!().check(
        "reservations_never_collide",
        (vec_of(0u64..400, 1..60), 1u64..10),
        |(arrivals, slot)| {
            let slot = *slot;
            let mut book = ReplySlotReservations::new();
            let mut taken = std::collections::BTreeSet::new();
            for &a in arrivals {
                let r = book.reserve(Cycle(a), slot);
                assert!(r.slot_start.as_u64().is_multiple_of(slot));
                assert!(r.request_delay.is_multiple_of(slot));
                assert!(r.slot_start.as_u64() + slot > a, "grant not in the past");
                assert!(
                    taken.insert(r.slot_start),
                    "double booking at {:?}",
                    r.slot_start
                );
            }
        },
    );
}

/// Every delivered packet's trace lifecycle is complete: exactly one
/// `inject` and one `deliver`, every collision / bit error is paired with
/// a retransmission (`tx_start` count = 1 + failures), and the retry
/// count reported at delivery equals the number of traced failures.
#[test]
fn delivered_packets_have_complete_trace_lifecycles() {
    use fsoi_sim::trace::{self, TraceEvent};
    use std::collections::BTreeMap;
    if !trace::compiled() {
        return; // release build without the `trace` feature: nothing recorded
    }

    #[derive(Default)]
    struct Life {
        injects: u32,
        delivers: u32,
        tx_starts: u32,
        failures: u32, // collisions + bit errors
        backoffs: u32,
    }

    checker!().check(
        "delivered_packets_have_complete_trace_lifecycles",
        (
            2usize..17,
            0u64..u64::MAX,
            vec_of((0u64..64, 0u64..64, 0u64..2), 1..24),
        ),
        |&(nodes, seed, ref traffic)| {
            let (records, delivered) = trace::capture(|| {
                let mut net = FsoiNetwork::new(FsoiConfig::nodes(nodes), seed);
                for &(s, d, class_bit) in traffic {
                    let src = (s as usize) % nodes;
                    let dst = if d as usize % nodes == src {
                        (src + 1) % nodes
                    } else {
                        d as usize % nodes
                    };
                    let class = if class_bit == 0 {
                        PacketClass::Meta
                    } else {
                        PacketClass::Data
                    };
                    let _ = net.inject(Packet::new(NodeId(src), NodeId(dst), class, s));
                }
                for _ in 0..64 {
                    if net.is_idle() {
                        break;
                    }
                    net.run(1_000);
                }
                assert!(net.is_idle(), "injected traffic must drain");
                net.drain_delivered()
            });

            let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
            for r in &records {
                match &r.event {
                    TraceEvent::Inject { packet, .. } => {
                        lives.entry(*packet).or_default().injects += 1
                    }
                    TraceEvent::Deliver { packet, .. } => {
                        lives.entry(*packet).or_default().delivers += 1
                    }
                    TraceEvent::TxStart { packet, .. } => {
                        lives.entry(*packet).or_default().tx_starts += 1
                    }
                    TraceEvent::Collide { packet, .. } | TraceEvent::BitError { packet, .. } => {
                        lives.entry(*packet).or_default().failures += 1
                    }
                    TraceEvent::Backoff { packet, .. } => {
                        lives.entry(*packet).or_default().backoffs += 1
                    }
                    _ => {}
                }
            }

            // Nothing is ever dropped: with the network drained, every
            // accepted injection must have been delivered.
            let total_injects: u32 = lives.values().map(|l| l.injects).sum();
            assert_eq!(
                delivered.len() as u32,
                total_injects,
                "drained network delivers everything"
            );

            for d in &delivered {
                let id = d.packet.id;
                let l = lives
                    .get(&id)
                    .unwrap_or_else(|| panic!("packet {id} left no trace"));
                assert_eq!(l.injects, 1, "packet {id}: exactly one inject");
                assert_eq!(l.delivers, 1, "packet {id}: exactly one deliver");
                assert_eq!(
                    l.tx_starts,
                    1 + l.failures,
                    "packet {id}: every collision/bit error pairs with a retransmission"
                );
                assert_eq!(
                    d.packet.retries, l.failures,
                    "packet {id}: delivered retry count matches traced failures"
                );
                // Hint winners retransmit without backing off, so backoffs
                // can undershoot failures but never exceed them.
                assert!(
                    l.backoffs <= l.failures,
                    "packet {id}: at most one backoff per failure"
                );
            }
        },
    );
}

// ---- The full-scan reference --------------------------------------------

/// What the two implementations are compared through.
trait Fsoi {
    fn inject(&mut self, packet: Packet) -> bool;
    fn expect_data(&mut self, dst: NodeId, src: NodeId);
    /// Books `node`'s incoming data slot around `arrival`; returns the
    /// request delay (request spacing, §5.2).
    fn reserve(&mut self, node: NodeId, arrival: Cycle) -> u64;
    fn tick(&mut self);
    fn next_event_at(&self) -> Option<Cycle>;
    fn is_idle(&self) -> bool;
    fn now(&self) -> Cycle;
    fn take_delivered(&mut self) -> Vec<Delivered>;
    fn stats(&self) -> &NetStats;
    fn confirmations_sent(&self) -> u64;
}

impl Fsoi for FsoiNetwork {
    fn inject(&mut self, packet: Packet) -> bool {
        FsoiNetwork::inject(self, packet).is_ok()
    }
    fn expect_data(&mut self, dst: NodeId, src: NodeId) {
        FsoiNetwork::expect_data(self, dst, src);
    }
    fn reserve(&mut self, node: NodeId, arrival: Cycle) -> u64 {
        let slot = self.data_slot_len();
        self.reservations_mut(node)
            .reserve(arrival, slot)
            .request_delay
    }
    fn tick(&mut self) {
        FsoiNetwork::tick(self);
    }
    fn next_event_at(&self) -> Option<Cycle> {
        FsoiNetwork::next_event_at(self)
    }
    fn is_idle(&self) -> bool {
        FsoiNetwork::is_idle(self)
    }
    fn now(&self) -> Cycle {
        FsoiNetwork::now(self)
    }
    fn take_delivered(&mut self) -> Vec<Delivered> {
        self.drain_delivered()
    }
    fn stats(&self) -> &NetStats {
        FsoiNetwork::stats(self)
    }
    fn confirmations_sent(&self) -> u64 {
        FsoiNetwork::confirmations_sent(self)
    }
}

/// `(lane, dst, rx, slot)`: one receiver of one node for one slot.
type GroupKey = (usize, NodeId, usize, u64);

struct ScanNode {
    out: [VecDeque<Packet>; 2],
    tx_busy_until: [Cycle; 2],
    retries: [EventQueue<Packet>; 2],
    steering: [PhaseArraySteering; 2],
    reservations: ReplySlotReservations,
    expected_data: BTreeSet<NodeId>,
}

/// The FSOI step as it was before `FsoiNetwork` tracked its senders, from
/// the crate's public pieces: every slot boundary and every
/// `next_event_at` walks every node × both lanes, resolution events of
/// both lanes share one time-ordered heap, slot groups live in an ordered
/// map, and whole `Packet`s move through every queue.
struct ScanFsoi {
    cfg: FsoiConfig,
    now: Cycle,
    rng: Xoshiro256StarStar,
    nodes: Vec<ScanNode>,
    groups: BTreeMap<GroupKey, Vec<Packet>>,
    resolutions: EventQueue<GroupKey>,
    confirmations: EventQueue<()>,
    confirmations_sent: u64,
    delivered: Vec<Delivered>,
    stats: NetStats,
    next_id: u64,
}

impl ScanFsoi {
    fn new(cfg: FsoiConfig, seed: u64) -> Self {
        let nodes = (0..cfg.nodes)
            .map(|_| ScanNode {
                out: [VecDeque::new(), VecDeque::new()],
                tx_busy_until: [Cycle::ZERO; 2],
                retries: [EventQueue::new(), EventQueue::new()],
                steering: [PhaseArraySteering::new(), PhaseArraySteering::new()],
                reservations: ReplySlotReservations::new(),
                expected_data: BTreeSet::new(),
            })
            .collect();
        ScanFsoi {
            cfg,
            now: Cycle::ZERO,
            rng: Xoshiro256StarStar::new(seed),
            nodes,
            groups: BTreeMap::new(),
            resolutions: EventQueue::new(),
            confirmations: EventQueue::new(),
            confirmations_sent: 0,
            delivered: Vec::new(),
            stats: NetStats::default(),
            next_id: 0,
        }
    }

    fn slot_len(&self, lane: usize) -> u64 {
        self.cfg.lanes.slot_cycles(PacketClass::ALL[lane])
    }

    fn confirm(&mut self, arrive_at: Cycle) {
        self.confirmations.push(arrive_at, ());
        self.confirmations_sent += 1;
    }

    fn resolve_slots(&mut self) {
        while let Some((at, key)) = self.resolutions.pop_due(self.now) {
            let group = self.groups.remove(&key).expect("one group per event");
            let lane = key.0;
            if let [packet] = group[..] {
                let bits = self.cfg.lanes.spec(packet.class).packet_bits;
                let p_err = self.cfg.packet_error_probability(bits);
                if p_err > 0.0 && self.rng.bernoulli(p_err) {
                    self.stats.bit_error_drops[lane] += 1;
                    self.retry_after_backoff(lane, packet, at, 1);
                } else {
                    self.deliver(packet, at);
                }
            } else {
                self.collide(key, &group, at);
            }
        }
    }

    /// First slot boundary after the sender notices the missing
    /// confirmation of a slot that resolved at `at`.
    fn next_boundary(&self, lane: usize, at: Cycle) -> Cycle {
        (at + self.cfg.confirmation_delay).round_up_to_slot(self.slot_len(lane))
    }

    /// Re-queues `packet` a back-off draw after the next boundary;
    /// `skipped` is 1 when the draw counts from that boundary's slot and 0
    /// when a hint winner owns it.
    fn retry_after_backoff(&mut self, lane: usize, mut packet: Packet, at: Cycle, skipped: u64) {
        packet.retries += 1;
        self.stats.retransmissions[lane] += 1;
        let draw = self.cfg.backoff.draw(packet.retries, &mut self.rng);
        let ready =
            self.next_boundary(lane, at) + (draw.delay_slots - skipped) * self.slot_len(lane);
        self.nodes[packet.src.0].retries[lane].push(ready, packet);
    }

    fn collide(&mut self, (lane, dst, ..): GroupKey, group: &[Packet], at: Cycle) {
        self.stats.collision_events[lane] += 1;
        self.stats.collided_packets[lane] += group.len() as u64;
        let winner = if lane == PacketClass::Data.lane() && self.cfg.hints {
            self.select_hint_winner(dst, group, self.next_boundary(lane, at))
        } else {
            None
        };
        for &packet in group {
            if Some(packet.src) == winner {
                let mut packet = packet;
                packet.retries += 1;
                self.stats.retransmissions[lane] += 1;
                let ready = self.next_boundary(lane, at);
                self.nodes[packet.src.0].retries[lane].push(ready, packet);
            } else {
                self.retry_after_backoff(lane, packet, at, u64::from(winner.is_none()));
            }
        }
    }

    fn select_hint_winner(&mut self, dst: NodeId, group: &[Packet], next: Cycle) -> Option<NodeId> {
        let senders: Vec<NodeId> = group.iter().map(|p| p.src).collect();
        let superset =
            HeaderCode::superpose_all(&senders, self.cfg.nodes).possible_senders(self.cfg.nodes);
        let expected = &self.nodes[dst.0].expected_data;
        let filtered: Vec<NodeId> = superset
            .iter()
            .copied()
            .filter(|s| expected.contains(s))
            .collect();
        let candidates = if filtered.is_empty() {
            superset
        } else {
            filtered
        };
        let winner = *self.rng.choose(&candidates)?;
        self.stats.hints_issued += 1;
        if senders.contains(&winner) {
            self.stats.hints_correct += 1;
        } else {
            self.stats.hints_wrong += 1;
        }
        self.confirm(Cycle(next.as_u64().saturating_sub(1)));
        Some(winner)
    }

    fn deliver(&mut self, packet: Packet, at: Cycle) {
        let lane = packet.class.lane();
        let first_tx = packet.first_tx_at.expect("delivered packets were sent");
        let ser = self.cfg.lanes.serialization_cycles(packet.class);
        let final_tx = Cycle(
            at.as_u64()
                .saturating_sub(ser + self.cfg.phase_array_setup()),
        )
        .max(first_tx);
        let breakdown = LatencyBreakdown {
            queuing: first_tx.saturating_sub(packet.enqueued_at),
            scheduling: packet.scheduling_delay,
            network: at.saturating_sub(final_tx),
            collision_resolution: final_tx.saturating_sub(first_tx),
        };
        let s = &mut self.stats;
        s.delivered[lane] += 1;
        s.latency[lane].record(breakdown.total() as f64);
        s.queuing[lane].record(breakdown.queuing as f64);
        s.scheduling[lane].record(breakdown.scheduling as f64);
        s.network[lane].record(breakdown.network as f64);
        s.resolution[lane].record(breakdown.collision_resolution as f64);
        if packet.retries > 0 {
            s.resolution_when_collided[lane].record(breakdown.collision_resolution as f64);
        }
        s.retries[lane].record(packet.retries as f64);
        self.confirm(at + self.cfg.confirmation_delay);
        self.delivered.push(Delivered {
            packet,
            delivered_at: at,
            breakdown,
        });
    }

    fn start_transmissions(&mut self) {
        for node_idx in 0..self.nodes.len() {
            for lane in 0..2 {
                let slot = self.slot_len(lane);
                let node = &mut self.nodes[node_idx];
                if !self.now.is_slot_boundary(slot) || node.tx_busy_until[lane] > self.now {
                    continue;
                }
                let popped = node.retries[lane]
                    .pop_due(self.now)
                    .map(|(_, p)| p)
                    .or_else(|| node.out[lane].pop_front());
                let Some(mut packet) = popped else { continue };
                let setup = match self.cfg.array {
                    TransmitterArray::Dedicated => 0,
                    TransmitterArray::PhaseArray { setup_cycles } => {
                        node.steering[lane].aim(packet.dst, setup_cycles)
                    }
                };
                let ser = self.cfg.lanes.serialization_cycles(packet.class);
                node.tx_busy_until[lane] = self.now + ser + setup;
                packet.first_tx_at.get_or_insert(self.now);
                self.stats.transmissions[lane] += 1;
                let receivers = self.cfg.lanes.spec(packet.class).receivers;
                let rx = receiver_index(packet.src, packet.dst, self.cfg.nodes, receivers);
                let slot_id = self.now.as_u64() / slot;
                let key = (lane, packet.dst, rx, slot_id);
                let group = self.groups.entry(key).or_default();
                group.push(packet);
                if group.len() == 1 {
                    let at = Cycle((slot_id + 1) * slot + self.cfg.phase_array_setup());
                    self.resolutions.push(at, key);
                }
            }
        }
    }
}

impl Fsoi for ScanFsoi {
    fn inject(&mut self, mut packet: Packet) -> bool {
        packet.id = self.next_id;
        packet.enqueued_at = self.now;
        let lane = packet.class.lane();
        let out = &mut self.nodes[packet.src.0].out[lane];
        if out.len() == self.cfg.outgoing_queue_capacity {
            self.stats.rejected[lane] += 1;
            return false;
        }
        out.push_back(packet);
        self.next_id += 1;
        self.stats.injected[lane] += 1;
        true
    }

    fn expect_data(&mut self, dst: NodeId, src: NodeId) {
        self.nodes[dst.0].expected_data.insert(src);
    }

    fn reserve(&mut self, node: NodeId, arrival: Cycle) -> u64 {
        let slot = self.slot_len(PacketClass::Data.lane());
        self.nodes[node.0]
            .reservations
            .reserve(arrival, slot)
            .request_delay
    }

    fn tick(&mut self) {
        self.resolve_slots();
        self.start_transmissions();
        while self.confirmations.pop_due(self.now).is_some() {}
        self.now += 1;
    }

    fn next_event_at(&self) -> Option<Cycle> {
        let now = self.now;
        let mut next = self.resolutions.peek_time();
        let mut offer = |t: Cycle| next = Some(next.map_or(t, |n| n.min(t)));
        if let Some(t) = self.confirmations.peek_time() {
            offer(t);
        }
        for lane in 0..2 {
            for node in &self.nodes {
                let queued = (!node.out[lane].is_empty()).then_some(now);
                let retry = node.retries[lane].peek_time().map(|r| r.max(now));
                let Some(ready) = queued.into_iter().chain(retry).min() else {
                    continue;
                };
                offer(
                    ready
                        .max(node.tx_busy_until[lane])
                        .round_up_to_slot(self.slot_len(lane)),
                );
            }
        }
        next
    }

    fn is_idle(&self) -> bool {
        self.groups.is_empty()
            && self.nodes.iter().all(|n| {
                n.out.iter().all(VecDeque::is_empty) && n.retries.iter().all(EventQueue::is_empty)
            })
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn confirmations_sent(&self) -> u64 {
        self.confirmations_sent
    }
}

// ---- Network shapes and timed injection scripts ---------------------------

/// `((nodes, seed), (meta receivers, data receivers), (lanes, phase-array
/// setup or dedicated), (hints, bit error rate))`.
type Shape = (
    (usize, u64),
    (usize, usize),
    (usize, Option<u64>),
    (bool, f64),
);

fn shape(nodes: impl Gen<Value = usize>) -> impl Gen<Value = Shape> {
    (
        (nodes, 0u64..u64::MAX),
        (1usize..5, 1usize..5),
        // A setup longer than the meta slot keeps three groups of one
        // receiver in flight at once.
        (0usize..4, select(&[None, Some(1), Some(3)])),
        (any_bool(), select(&[0.0, 1e-3])),
    )
}

fn config(&((nodes, _), (meta_rx, data_rx), (lanes, array), (hints, ber)): &Shape) -> FsoiConfig {
    let mut lanes = match lanes {
        0 => Lanes::paper_default(),
        1 => Lanes::fig11_base(),
        2 => Lanes::fig11_base().scaled_bandwidth(0.5),
        // Equal slots: both lanes open groups in the same cycles, so their
        // resolution events tie on time and only push order separates them.
        _ => Lanes {
            meta: LaneSpec {
                vcsels: 1,
                ..Lanes::paper_default().meta
            },
            data: LaneSpec {
                vcsels: 5,
                ..Lanes::paper_default().data
            },
            ..Lanes::paper_default()
        },
    };
    lanes.meta.receivers = meta_rx;
    lanes.data.receivers = data_rx;
    FsoiConfig::nodes(nodes)
        .with_lanes(lanes)
        .with_array(array.map_or(TransmitterArray::Dedicated, |setup_cycles| {
            TransmitterArray::PhaseArray { setup_cycles }
        }))
        .with_hints(hints)
        .with_bit_error_rate(ber)
}

/// One step of a timed injection script: wait `gap` cycles, then inject.
/// `kind` 0–2 is one meta packet `src → dst`, 3–4 one data packet, 5 a
/// data reply `dst` expects and has spaced (a reservation's request delay
/// rides along as scheduling delay), 6 an all-to-one burst (every other
/// node — the first 48 at most — sends `dst` a data packet), 7 a
/// queue-overflow burst (`src` offers 20 meta packets at once to its
/// 8-deep queue). A `gap` of 11 stands for 200 cycles, an idle stretch most
/// of the traffic so far drains in.
type Op = (u64, u64, u64, u64);

fn script() -> impl Gen<Value = Vec<Op>> {
    vec_of((0u64..12, 0u64..256, 0u64..256, 0u64..8), 1..32)
}

fn gap_cycles(gap: u64) -> u64 {
    if gap == 11 {
        200
    } else {
        gap
    }
}

fn inject_op(net: &mut impl Fsoi, nodes: usize, &(_, s, d, kind): &Op) -> usize {
    let src = s as usize % nodes;
    let dst = match d as usize % nodes {
        d if d == src => (src + 1) % nodes,
        d => d,
    };
    let packet = |src: usize, class, tag| Packet::new(NodeId(src), NodeId(dst), class, tag);
    let offered: Vec<Packet> = match kind {
        0..=2 => vec![packet(src, PacketClass::Meta, s)],
        3..=4 => vec![packet(src, PacketClass::Data, s)],
        5 => {
            net.expect_data(NodeId(dst), NodeId(src));
            let delay = net.reserve(NodeId(dst), net.now() + 10);
            vec![packet(src, PacketClass::Data, s).with_scheduling_delay(delay)]
        }
        6 => (0..nodes)
            .filter(|&n| n != dst)
            .take(48)
            .map(|n| packet(n, PacketClass::Data, s))
            .collect(),
        _ => (0..20).map(|i| packet(src, PacketClass::Meta, i)).collect(),
    };
    offered.into_iter().filter(|&p| net.inject(p)).count()
}

/// Everything observable about a finished run: the delivery stream, the
/// statistics export, confirmation traffic, the final clock.
type Outcome = (Vec<Delivered>, String, u64, Cycle);

fn outcome(net: &mut impl Fsoi, delivered: Vec<Delivered>, accepted: usize) -> Outcome {
    assert!(net.is_idle(), "the script must drain");
    assert_eq!(delivered.len(), accepted, "every accepted packet arrives");
    let mut reg = Registry::new();
    net.stats().export(&mut reg);
    (
        delivered,
        reg.to_jsonl(),
        net.confirmations_sent(),
        net.now(),
    )
}

/// Runs `script` on `net` cycle by cycle, then ticks until it drains; also
/// returns what `next_event_at` said before every tick.
fn play<N: Fsoi>(mut net: N, nodes: usize, script: &[Op]) -> (Outcome, Vec<Option<Cycle>>) {
    let mut delivered = Vec::new();
    let mut bounds = Vec::new();
    let mut accepted = 0;
    let mut tick = |net: &mut N| {
        bounds.push(net.next_event_at());
        net.tick();
        delivered.extend(net.take_delivered());
    };
    for op in script {
        for _ in 0..gap_cycles(op.0) {
            tick(&mut net);
        }
        accepted += inject_op(&mut net, nodes, op);
    }
    while !net.is_idle() {
        assert!(net.now() < Cycle(2_000_000), "the script must drain");
        tick(&mut net);
    }
    (outcome(&mut net, delivered, accepted), bounds)
}

/// The event-driven step is the full scan: same deliveries (id, endpoints,
/// retries, time, latency breakdown) in the same order, byte-identical
/// statistics export, same confirmation traffic, same drain time, and the
/// same next-event bound before every cycle — for any network shape and
/// any timed traffic.
#[test]
fn event_driven_equals_full_scan() {
    checker!().check(
        "event_driven_equals_full_scan",
        (shape(3usize..257), script()),
        |(shape, script)| {
            let (cfg, nodes, seed) = (config(shape), shape.0 .0, shape.0 .1);
            let (fast, fast_bounds) = play(FsoiNetwork::new(cfg.clone(), seed), nodes, script);
            let (scan, scan_bounds) = play(ScanFsoi::new(cfg, seed), nodes, script);
            assert_eq!(fast.0, scan.0, "delivery stream");
            assert_eq!(fast.1, scan.1, "statistics export");
            assert_eq!(fast.2, scan.2, "confirmations sent");
            assert_eq!(fast.3, scan.3, "drain time");
            assert_eq!(fast_bounds, scan_bounds, "next_event_at before every tick");
        },
    );
}

/// Fast-forwarding (`run`, which jumps the clock to the next scheduled
/// event) is indistinguishable from ticking every cycle — at 2–16 nodes
/// and at the phase-array sizes, with injections spread over time between
/// the jumps: same delivered packets in the same order with the same retry
/// counts and latencies, byte-identical stats export, same final clock.
#[test]
fn fast_forward_equals_cycle_by_cycle() {
    let nodes = (0usize..17).gen_map(|&n| match n {
        0 => 64,
        1 => 256,
        n => n,
    });
    checker!().check(
        "fast_forward_equals_cycle_by_cycle",
        (nodes, 0u64..u64::MAX, script()),
        |&(nodes, seed, ref script)| {
            let drive = |fast: bool| {
                let mut net = FsoiNetwork::new(FsoiConfig::nodes(nodes), seed);
                let mut delivered = Vec::new();
                let mut accepted = 0;
                let mut advance = |net: &mut FsoiNetwork, cycles: u64| {
                    if fast {
                        net.run(cycles);
                    } else {
                        (0..cycles).for_each(|_| net.tick());
                    }
                    delivered.extend(net.drain_delivered());
                };
                for op in script {
                    advance(&mut net, gap_cycles(op.0));
                    accepted += inject_op(&mut net, nodes, op);
                }
                advance(&mut net, 60_000);
                outcome(&mut net, delivered, accepted)
            };
            assert_eq!(drive(true), drive(false), "fast-forward must be exact");
        },
    );
}

/// The Figure 3 closed form is a probability, monotone in p, and
/// decreasing in the receiver count.
///
/// The `.regressions`-era proptest failure (shrunk to `p = 0.2334...,
/// nodes = 3`) is additionally pinned as the named unit test
/// `fig3_shrink_regression_nodes3` in `src/analysis/collision.rs`.
#[test]
fn collision_probability_sane() {
    checker!().check(
        "collision_probability_sane",
        (0.0f64..1.0, 3usize..128),
        |&(p, nodes)| {
            let mut prev = f64::INFINITY;
            for r in 1..=4usize {
                let c = node_collision_probability(p, nodes, r);
                assert!((0.0..=1.0).contains(&c));
                assert!(c <= prev + 1e-12);
                prev = c;
            }
            if p > 0.01 {
                let lo = node_collision_probability(p * 0.5, nodes, 2);
                let hi = node_collision_probability(p, nodes, 2);
                assert!(hi >= lo - 1e-12);
            }
        },
    );
}
