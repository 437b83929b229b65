//! The confirmation channel (§4.3.2, §5.1).
//!
//! Each node dedicates one VCSEL purely to *confirmations*: upon clean
//! receipt of a packet in cycle `n`, the receiver beams a confirmation to
//! the sender that arrives in cycle `n + 2`. By construction confirmations
//! never collide: at most one packet per lane is cleanly received per node
//! per slot, so at most one confirmation per lane is due back at any node
//! in a given cycle.
//!
//! Beyond acknowledging receipt, the channel carries two optimizations:
//!
//! * **Piggybacked booleans** — a requester can reserve a *mini-cycle* (one
//!   of the 12 optical bit times inside a CPU cycle) and the directory can
//!   answer `ll`/`sc` boolean values through it, forming one-bit
//!   "subscriptions" updated without regular packets (§5.1);
//! * **Retransmission hints** — after a data-lane collision the receiver
//!   selects a winner and notifies it over this channel (§5.2).

use crate::topology::NodeId;
use fsoi_sim::trace::{self, TraceEvent};
use fsoi_sim::Cycle;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// What a confirmation beam can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmationKind {
    /// Plain acknowledgment of packet `packet_id`.
    Receipt {
        /// The confirmed packet.
        packet_id: u64,
    },
    /// A retransmission hint: "you won the next slot" (§5.2).
    WinnerHint {
        /// The slot (cycle of its start) the winner may use.
        slot_start: Cycle,
    },
    /// A boolean value delivered on a reserved mini-cycle (§5.1).
    BooleanUpdate {
        /// The reserved mini-cycle index that identifies the subscription.
        mini_cycle: u8,
        /// The boolean payload.
        value: bool,
    },
}

impl ConfirmationKind {
    /// Short wire name used in trace events.
    pub fn name(&self) -> &'static str {
        match self {
            ConfirmationKind::Receipt { .. } => "receipt",
            ConfirmationKind::WinnerHint { .. } => "hint",
            ConfirmationKind::BooleanUpdate { .. } => "bool",
        }
    }
}

/// A confirmation in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Confirmation {
    /// Who sent the confirmation (the receiver of the original packet).
    pub from: NodeId,
    /// Whom it is addressed to.
    pub to: NodeId,
    /// Payload.
    pub kind: ConfirmationKind,
}

/// The chip-wide confirmation channel: schedules beams and accounts for
/// their traffic.
///
/// A confirmation's content (receipt, hint) is applied by the network at
/// resolution time with the correct delay, and its send is traced; all the
/// channel has to remember of a beam in flight is the cycle it lands, which
/// the fast-forward scheduler treats as an event.
#[derive(Debug)]
pub struct ConfirmationChannel {
    delay: u64,
    arrivals: BinaryHeap<Reverse<Cycle>>,
    sent: u64,
}

impl ConfirmationChannel {
    /// Creates a channel with the configured fixed delay (paper: 2).
    pub fn new(delay: u64) -> Self {
        ConfirmationChannel {
            delay,
            arrivals: BinaryHeap::new(),
            sent: 0,
        }
    }

    /// The fixed receive-to-confirm delay.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// Number of confirmations sent so far (for traffic/energy accounting).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Schedules a confirmation for a packet received at `received_at`; it
    /// arrives `delay` cycles later.
    pub fn send(&mut self, received_at: Cycle, confirmation: Confirmation) {
        self.launch(received_at, received_at + self.delay, confirmation);
    }

    /// Schedules a confirmation with an explicit arrival time (used by the
    /// winner-hint path, which must land before the next data slot).
    pub fn send_at(&mut self, arrive_at: Cycle, confirmation: Confirmation) {
        self.launch(arrive_at, arrive_at, confirmation);
    }

    fn launch(&mut self, traced_at: Cycle, arrive_at: Cycle, confirmation: Confirmation) {
        self.arrivals.push(Reverse(arrive_at));
        self.sent += 1;
        trace::emit_with(traced_at, || TraceEvent::Confirm {
            src: confirmation.from.0 as u64,
            dst: confirmation.to.0 as u64,
            kind: confirmation.kind.name().to_string(),
        });
    }

    /// Lands every confirmation due at or before `now`; returns how many.
    pub fn drain_due(&mut self, now: Cycle) -> usize {
        let mut landed = 0;
        while self.arrivals.peek().is_some_and(|due| due.0 <= now) {
            self.arrivals.pop();
            landed += 1;
        }
        landed
    }

    /// Arrival cycle of the earliest in-flight confirmation, if any (the
    /// fast-forward scheduler must not skip past a drain).
    pub fn next_due(&self) -> Option<Cycle> {
        self.arrivals.peek().map(|due| due.0)
    }
}

/// Registry of mini-cycle reservations for boolean subscriptions (§5.1).
///
/// A CPU cycle contains several optical *mini-cycles* (12 in the default
/// configuration). A requester reserves one; the directory then answers —
/// and later *updates* — the subscribed boolean purely by pulsing the
/// confirmation laser in that mini-cycle, identified by relative position.
#[derive(Debug)]
pub struct MiniCycleRegistry {
    mini_cycles_per_cycle: u8,
    /// (owner node → allocated mini-cycles with a client tag).
    reservations: BTreeMap<NodeId, BTreeMap<u8, u64>>,
}

impl MiniCycleRegistry {
    /// Creates a registry with the given number of mini-cycles per CPU
    /// cycle (the per-VCSEL bits-per-cycle; 12 in Table 3).
    pub fn new(mini_cycles_per_cycle: u8) -> Self {
        assert!(mini_cycles_per_cycle > 0);
        MiniCycleRegistry {
            mini_cycles_per_cycle,
            reservations: BTreeMap::new(),
        }
    }

    /// Reserves the first free mini-cycle on `node`'s confirmation
    /// receiver, tagging it with a client-supplied id (e.g. a lock
    /// address). Returns `None` when all mini-cycles are taken.
    pub fn reserve(&mut self, node: NodeId, tag: u64) -> Option<u8> {
        let slots = self.reservations.entry(node).or_default();
        let mc = (0..self.mini_cycles_per_cycle).find(|mc| !slots.contains_key(mc))?;
        slots.insert(mc, tag);
        Some(mc)
    }

    /// Releases a reservation. Returns the tag it carried, if any.
    pub fn release(&mut self, node: NodeId, mini_cycle: u8) -> Option<u64> {
        self.reservations
            .get_mut(&node)
            .and_then(|slots| slots.remove(&mini_cycle))
    }

    /// Looks up the tag bound to a node's mini-cycle.
    pub fn tag_of(&self, node: NodeId, mini_cycle: u8) -> Option<u64> {
        self.reservations
            .get(&node)
            .and_then(|slots| slots.get(&mini_cycle))
            .copied()
    }

    /// Number of active reservations at `node`.
    pub fn active(&self, node: NodeId) -> usize {
        self.reservations.get(&node).map_or(0, |s| s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receipt(packet_id: u64) -> Confirmation {
        Confirmation {
            from: NodeId(1),
            to: NodeId(0),
            kind: ConfirmationKind::Receipt { packet_id },
        }
    }

    #[test]
    fn confirmation_arrives_after_fixed_delay() {
        let mut ch = ConfirmationChannel::new(2);
        ch.send(Cycle(10), receipt(7));
        assert_eq!(ch.next_due(), Some(Cycle(12)));
        assert_eq!(ch.drain_due(Cycle(11)), 0);
        assert_eq!(ch.drain_due(Cycle(12)), 1);
        assert_eq!(ch.sent(), 1);
        assert_eq!(ch.next_due(), None);
    }

    #[test]
    fn drain_due_returns_everything_due() {
        let mut ch = ConfirmationChannel::new(2);
        for i in 0..5u64 {
            ch.send(Cycle(i), receipt(i));
        }
        assert_eq!(ch.drain_due(Cycle(4)), 3); // arrivals at 2, 3, 4
        assert_eq!(ch.next_due(), Some(Cycle(5)));
        assert_eq!(ch.drain_due(Cycle(100)), 2);
    }

    #[test]
    fn winner_hint_uses_explicit_time() {
        let mut ch = ConfirmationChannel::new(2);
        ch.send(Cycle(8), receipt(0)); // lands at 10
        let hint = Confirmation {
            from: NodeId(2),
            to: NodeId(5),
            kind: ConfirmationKind::WinnerHint {
                slot_start: Cycle(10),
            },
        };
        assert_eq!(hint.kind.name(), "hint");
        ch.send_at(Cycle(9), hint);
        assert_eq!(ch.next_due(), Some(Cycle(9)), "earlier than the receipt");
        assert_eq!(ch.drain_due(Cycle(9)), 1);
        assert_eq!(ch.next_due(), Some(Cycle(10)));
        assert_eq!(ch.sent(), 2);
    }

    #[test]
    fn minicycle_reserve_release() {
        let mut reg = MiniCycleRegistry::new(12);
        let a = reg.reserve(NodeId(3), 100).unwrap();
        let b = reg.reserve(NodeId(3), 200).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.active(NodeId(3)), 2);
        assert_eq!(reg.tag_of(NodeId(3), a), Some(100));
        assert_eq!(reg.release(NodeId(3), a), Some(100));
        assert_eq!(reg.tag_of(NodeId(3), a), None);
        assert_eq!(reg.active(NodeId(3)), 1);
        // Released mini-cycle is reusable.
        let c = reg.reserve(NodeId(3), 300).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn minicycles_exhaust() {
        let mut reg = MiniCycleRegistry::new(2);
        assert!(reg.reserve(NodeId(0), 1).is_some());
        assert!(reg.reserve(NodeId(0), 2).is_some());
        assert!(reg.reserve(NodeId(0), 3).is_none());
        // Other nodes have their own budget.
        assert!(reg.reserve(NodeId(1), 4).is_some());
    }

    #[test]
    fn boolean_update_kind_roundtrips() {
        let k = ConfirmationKind::BooleanUpdate {
            mini_cycle: 5,
            value: true,
        };
        match k {
            ConfirmationKind::BooleanUpdate { mini_cycle, value } => {
                assert_eq!(mini_cycle, 5);
                assert!(value);
            }
            _ => unreachable!(),
        }
    }
}
