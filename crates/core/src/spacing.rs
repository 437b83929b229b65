//! Request spacing: receiver-side reply-slot reservation (§5.2).
//!
//! Data packets are usually *replies* to earlier requests, so the
//! requester — which will be the reply's receiver — can predict the slot
//! in which the reply most likely lands (Figure 5 shows the latency
//! distribution is heavily concentrated). The requester therefore reserves
//! that incoming data slot; if it is already reserved by an earlier
//! outstanding request, the new request is *delayed* until its predicted
//! reply slot is free, trading a small scheduling delay for a much lower
//! data-collision probability.

use fsoi_sim::Cycle;
use std::collections::BTreeSet;

/// Reservation book for one node's incoming data slots.
#[derive(Debug, Default)]
pub struct ReplySlotReservations {
    /// Reserved slot ids (slot id = slot start cycle / slot length).
    reserved: BTreeSet<u64>,
}

/// Outcome of a reservation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// The granted slot's start cycle.
    pub slot_start: Cycle,
    /// Cycles the *request* must be delayed so its reply lands in the
    /// granted slot (zero when the predicted slot was free).
    pub request_delay: u64,
}

impl ReplySlotReservations {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the first free slot at or after the predicted arrival.
    ///
    /// `predicted_arrival` is when the reply would land with no delay;
    /// `slot_len` is the data-lane slot length in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `slot_len == 0`.
    pub fn reserve(&mut self, predicted_arrival: Cycle, slot_len: u64) -> Reservation {
        assert!(slot_len > 0, "slot length must be positive");
        let first_slot = predicted_arrival.as_u64() / slot_len;
        let mut slot = first_slot;
        while self.reserved.contains(&slot) {
            slot += 1;
        }
        self.reserved.insert(slot);
        Reservation {
            slot_start: Cycle(slot * slot_len),
            request_delay: (slot - first_slot) * slot_len,
        }
    }

    /// Drops the reservations of slots that ended before `now`: no later
    /// [`reserve`](Self::reserve) with an arrival at or after `now` looks
    /// at them. This is the only release: a slot is freed once it is past,
    /// whether its reply came or not (e.g. a NACKed transaction).
    pub fn prune_before(&mut self, now: Cycle, slot_len: u64) {
        assert!(slot_len > 0, "slot length must be positive");
        let current = now.as_u64() / slot_len;
        while self.reserved.first().is_some_and(|&slot| slot < current) {
            self.reserved.pop_first();
        }
    }

    /// Number of live reservations.
    pub fn active(&self) -> usize {
        self.reserved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_slot_grants_without_delay() {
        let mut r = ReplySlotReservations::new();
        let g = r.reserve(Cycle(103), 5);
        assert_eq!(g.request_delay, 0);
        assert_eq!(g.slot_start, Cycle(100));
        assert_eq!(r.active(), 1);
    }

    #[test]
    fn conflicting_predictions_cascade() {
        let mut r = ReplySlotReservations::new();
        let a = r.reserve(Cycle(100), 5);
        let b = r.reserve(Cycle(100), 5);
        let c = r.reserve(Cycle(102), 5);
        assert_eq!(
            [a, b, c].map(|g| g.slot_start),
            [Cycle(100), Cycle(105), Cycle(110)]
        );
        // Each delay lands its reply in the granted slot.
        assert_eq!([a, b, c].map(|g| g.request_delay), [0, 5, 10]);
        assert_eq!(r.active(), 3);
    }

    #[test]
    fn prune_drops_stale() {
        let mut r = ReplySlotReservations::new();
        r.reserve(Cycle(10), 5);
        r.reserve(Cycle(100), 5);
        assert_eq!(r.active(), 2);
        r.prune_before(Cycle(50), 5);
        assert_eq!(r.active(), 1);
        // The surviving slot is the future one.
        let g = r.reserve(Cycle(100), 5);
        assert_eq!(g.slot_start, Cycle(105));
    }

    #[test]
    #[should_panic(expected = "slot length must be positive")]
    fn zero_slot_len_panics() {
        ReplySlotReservations::new().reserve(Cycle(0), 0);
    }
}
