//! The confirmation channel (§4.3.2, §5.1).
//!
//! Each node dedicates one VCSEL purely to *confirmations*: upon clean
//! receipt of a packet in cycle `n`, the receiver beams a confirmation to
//! the sender that arrives in cycle `n + 2`. By construction confirmations
//! never collide: at most one packet per lane is cleanly received per node
//! per slot, so at most one confirmation per lane is due back at any node
//! in a given cycle.
//!
//! Beyond acknowledging receipt, the channel carries **retransmission
//! hints**: after a data-lane collision the receiver selects a winner and
//! notifies it over this channel (§5.2). The §5.1 boolean subscriptions
//! the channel also carries are modelled where they are used, by the
//! coherence layer's `BooleanSubscriptionHub` (`fsoi_coherence::sync`).

use crate::topology::NodeId;
use fsoi_sim::event::MonotoneQueue;
use fsoi_sim::trace::{self, TraceEvent};
use fsoi_sim::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}

impl ConfirmationKind {
    /// Short wire name used in trace events.
    pub fn name(&self) -> &'static str {
        match self {
            ConfirmationKind::Receipt { .. } => "receipt",
            ConfirmationKind::WinnerHint { .. } => "hint",
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
/// the fast-forward scheduler treats as an event. Receipts go out at
/// non-decreasing resolution cycles and land a fixed `delay` later, so
/// they wait in a FIFO ([`MonotoneQueue`]); winner hints land at explicit
/// cycles that may precede an older receipt's, so they wait in a min-heap.
/// The next arrival is the earlier of the two heads.
#[derive(Debug)]
pub struct ConfirmationChannel {
    delay: u64,
    receipts: MonotoneQueue<()>,
    hints: BinaryHeap<Reverse<Cycle>>,
    sent: u64,
}

impl ConfirmationChannel {
    /// Creates a channel with the configured fixed delay (paper: 2).
    pub fn new(delay: u64) -> Self {
        ConfirmationChannel {
            delay,
            receipts: MonotoneQueue::new(),
            hints: BinaryHeap::new(),
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
    ///
    /// # Panics
    ///
    /// Debug builds panic if `received_at` is earlier than the previous
    /// receipt's: receipts are sent in resolution order.
    pub fn send(&mut self, received_at: Cycle, confirmation: Confirmation) {
        self.receipts.push(received_at + self.delay, ());
        self.count(received_at, confirmation);
    }

    /// Schedules a confirmation with an explicit arrival time (used by the
    /// winner-hint path, which must land before the next data slot).
    pub fn send_at(&mut self, arrive_at: Cycle, confirmation: Confirmation) {
        self.hints.push(Reverse(arrive_at));
        self.count(arrive_at, confirmation);
    }

    fn count(&mut self, traced_at: Cycle, confirmation: Confirmation) {
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
        while self.receipts.pop_due(now).is_some() {
            landed += 1;
        }
        while self.hints.peek().is_some_and(|due| due.0 <= now) {
            self.hints.pop();
            landed += 1;
        }
        landed
    }

    /// Arrival cycle of the earliest in-flight confirmation, if any (the
    /// fast-forward scheduler must not skip past a drain).
    pub fn next_due(&self) -> Option<Cycle> {
        let hint = self.hints.peek().map(|due| due.0);
        [self.receipts.peek_time(), hint]
            .into_iter()
            .flatten()
            .min()
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

    /// Receipts and hints wait in different queues; the channel still
    /// lands them in arrival order, whichever queue holds the earlier one.
    #[test]
    fn receipts_and_hints_land_in_arrival_order() {
        let hint = |slot| Confirmation {
            from: NodeId(2),
            to: NodeId(5),
            kind: ConfirmationKind::WinnerHint {
                slot_start: Cycle(slot),
            },
        };
        assert_eq!(hint(0).kind.name(), "hint");
        // A hint lands before an older receipt.
        let mut ch = ConfirmationChannel::new(2);
        ch.send(Cycle(20), receipt(0)); // lands at 22
        ch.send_at(Cycle(21), hint(22));
        assert_eq!(ch.next_due(), Some(Cycle(21)));
        assert_eq!(ch.drain_due(Cycle(21)), 1);
        assert_eq!(ch.next_due(), Some(Cycle(22)));
        assert_eq!(ch.drain_due(Cycle(22)), 1);
        assert_eq!((ch.next_due(), ch.sent()), (None, 2));
        // A receipt lands before a later hint.
        let mut ch = ConfirmationChannel::new(2);
        ch.send_at(Cycle(39), hint(40));
        ch.send(Cycle(30), receipt(1)); // lands at 32
        assert_eq!(ch.next_due(), Some(Cycle(32)));
        assert_eq!(ch.drain_due(Cycle(39)), 2, "one drain lands both");
        assert_eq!((ch.next_due(), ch.sent()), (None, 2));
    }
}
