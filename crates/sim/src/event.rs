//! A stable, time-ordered event queue.
//!
//! The simulators in this workspace are primarily cycle-driven, but several
//! components (memory controllers, confirmation lasers, timeout machinery)
//! schedule work at arbitrary future cycles. [`EventQueue`] provides that
//! service with a crucial property for reproducibility: events scheduled for
//! the same cycle are delivered in the order they were scheduled (FIFO
//! tie-break), so simulation results never depend on heap internals.

use crate::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: ordered by time, then by insertion sequence.
#[derive(Debug)]
struct Entry<T> {
    at: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // cycle, the first-scheduled) entry is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of events of type `T` with FIFO tie-breaking.
///
/// ```
/// use fsoi_sim::{Cycle, event::EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), "late");
/// q.push(Cycle(1), "first");
/// q.push(Cycle(1), "second");
/// assert_eq!(q.pop(), Some((Cycle(1), "first")));
/// assert_eq!(q.pop(), Some((Cycle(1), "second")));
/// assert_eq!(q.pop(), Some((Cycle(3), "late")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for cycle `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `now`. The main loop of a cycle-driven simulator calls this once per
    /// cycle (in a `while let` loop) to drain everything due.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A time-ordered queue for the special case where events are scheduled
/// in non-decreasing time order — fixed-delay pipelines such as link
/// traversal, where everything pushed at cycle `t` is due at `t + L`.
///
/// Under that restriction a plain FIFO ring *is* the earliest-first,
/// FIFO-tie-broken order of [`EventQueue`], with O(1) push/pop and no
/// heap comparisons. Push order is pop order; determinism is inherited
/// from the caller's push order exactly as with the heap.
///
/// # Panics
///
/// `push` panics (debug builds) if `at` is earlier than the most recent
/// push — the monotonicity the FIFO equivalence rests on.
#[derive(Debug)]
pub struct MonotoneQueue<T> {
    fifo: std::collections::VecDeque<(Cycle, T)>,
}

impl<T> Default for MonotoneQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MonotoneQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        MonotoneQueue {
            fifo: std::collections::VecDeque::new(),
        }
    }

    /// Schedules `payload` for cycle `at`; `at` must be no earlier than
    /// any previously pushed time.
    pub fn push(&mut self, at: Cycle, payload: T) {
        debug_assert!(
            self.fifo.back().is_none_or(|(t, _)| *t <= at),
            "MonotoneQueue pushes must be in non-decreasing time order"
        );
        self.fifo.push_back((at, payload));
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.fifo.front().is_some_and(|(t, _)| *t <= now) {
            self.fifo.pop_front()
        } else {
            None
        }
    }

    /// The earliest pending event, if any, without removing it.
    pub fn peek(&self) -> Option<&(Cycle, T)> {
        self.fifo.front()
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.peek().map(|(t, _)| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), "a");
        q.push(Cycle(10), "b");
        assert_eq!(q.pop_due(Cycle(4)), None);
        assert_eq!(q.pop_due(Cycle(5)), Some((Cycle(5), "a")));
        assert_eq!(q.pop_due(Cycle(5)), None);
        assert_eq!(q.pop_due(Cycle(100)), Some((Cycle(10), "b")));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(7), ());
        q.push(Cycle(3), ());
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_is_stable() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'a');
        q.push(Cycle(1), 'b');
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        q.push(Cycle(1), 'c');
        assert_eq!(q.pop(), Some((Cycle(1), 'b')));
        assert_eq!(q.pop(), Some((Cycle(1), 'c')));
    }

    #[test]
    fn monotone_queue_matches_event_queue_order() {
        // Fixed-delay schedule: both queues see identical (time, payload)
        // pushes; pops must agree at every step.
        let mut heap = EventQueue::new();
        let mut fifo = MonotoneQueue::new();
        for t in 0..20u64 {
            for k in 0..3 {
                heap.push(Cycle(t + 2), (t, k));
                fifo.push(Cycle(t + 2), (t, k));
            }
            let now = Cycle(t);
            assert_eq!(heap.peek_time(), fifo.peek_time());
            loop {
                let a = heap.pop_due(now);
                let b = fifo.pop_due(now);
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
        assert_eq!(heap.len(), fifo.len());
    }

    #[test]
    fn monotone_queue_pop_due_respects_now() {
        let mut q = MonotoneQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(5), "a");
        q.push(Cycle(10), "b");
        assert_eq!(q.peek_time(), Some(Cycle(5)));
        assert_eq!(q.peek(), Some(&(Cycle(5), "a")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(Cycle(4)), None);
        assert_eq!(q.pop_due(Cycle(5)), Some((Cycle(5), "a")));
        assert_eq!(q.pop_due(Cycle(5)), None);
        assert_eq!(q.pop_due(Cycle(100)), Some((Cycle(10), "b")));
        assert!(q.is_empty());
    }
}
