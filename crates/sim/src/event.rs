//! Stable, time-ordered event queues.
//!
//! The simulators in this workspace are primarily cycle-driven, but several
//! components (memory controllers, confirmation lasers, timeout machinery)
//! schedule work at arbitrary future cycles. [`EventQueue`] provides that
//! service with a crucial property for reproducibility: events scheduled for
//! the same cycle are delivered in the order they were scheduled (FIFO
//! tie-break), so simulation results never depend on heap internals.
//!
//! Two specialisations keep that exact order at lower cost:
//! [`CalendarQueue`] for a busy queue whose events are mostly due within a
//! few dozen cycles (the CMP kernel's), and [`MonotoneQueue`] for
//! fixed-delay pipelines whose pushes never go back in time.

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

/// Cycles the calendar's per-cycle lists span from its cursor.
const CALENDAR_SPAN: u64 = 64;
/// End of a calendar list, and of the free list.
const NIL: u32 = u32::MAX;

/// One slot of the calendar's node slab: a listed event, or (with no
/// payload) a link of the free list.
#[derive(Debug)]
struct Node<T> {
    seq: u64,
    next: u32,
    payload: Option<T>,
}

/// [`EventQueue`]'s API and exactly its `(time, push sequence)` pop
/// order, with O(1) work for events due soon.
///
/// The *cursor* is the latest time popped so far. An event due in
/// `cursor .. cursor + 64` joins the FIFO list of its cycle (list
/// `at % 64`; inside the window every cycle has its own list), threaded
/// through one node slab with a free list; a one-word occupancy map finds
/// the earliest non-empty list with a rotate and a trailing-zero count.
/// Everything else — an event earlier than the cursor, or one at least
/// 64 cycles out — waits in a [`BinaryHeap`]. A pop takes the smaller
/// `(time, seq)` of the two heads and moves the cursor up to the popped
/// time, never back, so every listed event stays inside the window: the
/// popped event was no later than any of them.
///
/// ```
/// use fsoi_sim::{Cycle, event::CalendarQueue};
///
/// let mut q = CalendarQueue::new();
/// q.push(Cycle(300), "far");
/// q.push(Cycle(1), "first");
/// q.push(Cycle(1), "second");
/// assert_eq!(q.pop(), Some((Cycle(1), "first")));
/// assert_eq!(q.pop_due(Cycle(1)), Some((Cycle(1), "second")));
/// assert_eq!(q.pop_due(Cycle(299)), None);
/// assert_eq!(q.pop(), Some((Cycle(300), "far")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct CalendarQueue<T> {
    cursor: Cycle,
    /// `(head, tail)` node of each cycle's list; meaningful only while the
    /// list's `occupied` bit is set.
    lists: [(u32, u32); CALENDAR_SPAN as usize],
    /// Bit `b` set ⇔ list `b` is non-empty.
    occupied: u64,
    nodes: Vec<Node<T>>,
    /// Head of the free list through `nodes`.
    free: u32,
    far: BinaryHeap<Entry<T>>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            cursor: Cycle::ZERO,
            lists: [(NIL, NIL); CALENDAR_SPAN as usize],
            occupied: 0,
            nodes: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    fn list_of(at: Cycle) -> usize {
        (at.as_u64() % CALENDAR_SPAN) as usize
    }

    /// Schedules `payload` for cycle `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if at < self.cursor || at - self.cursor >= CALENDAR_SPAN {
            self.far.push(Entry { at, seq, payload });
            return;
        }
        let node = Node {
            seq,
            next: NIL,
            payload: Some(payload),
        };
        let id = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let id = self.free;
            self.free = std::mem::replace(&mut self.nodes[id as usize], node).next;
            id
        };
        let list = Self::list_of(at);
        if self.occupied & (1 << list) == 0 {
            self.occupied |= 1 << list;
            self.lists[list] = (id, id);
        } else {
            let tail = std::mem::replace(&mut self.lists[list].1, id);
            self.nodes[tail as usize].next = id;
        }
    }

    /// The earliest listed event: its time, sequence number and list.
    fn near_head(&self) -> Option<(Cycle, u64, usize)> {
        if self.occupied == 0 {
            return None;
        }
        let from_cursor = self
            .occupied
            .rotate_right(Self::list_of(self.cursor) as u32);
        let at = self.cursor + u64::from(from_cursor.trailing_zeros());
        let list = Self::list_of(at);
        Some((at, self.nodes[self.lists[list].0 as usize].seq, list))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        let near = self.near_head();
        let take_far = match (near, self.far.peek()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some((at, seq, _)), Some(far)) => (far.at, far.seq) < (at, seq),
        };
        let (at, payload) = if take_far {
            self.far.pop().map(|e| (e.at, e.payload))?
        } else {
            let (at, _, list) = near?;
            let id = self.lists[list].0;
            let node = &mut self.nodes[id as usize];
            let next = std::mem::replace(&mut node.next, self.free);
            #[expect(
                clippy::expect_used,
                reason = "P1: a listed node holds its payload until this pop frees it"
            )]
            let payload = node.payload.take().expect("listed node is live");
            self.free = id;
            if id == self.lists[list].1 {
                self.occupied &= !(1 << list);
            } else {
                self.lists[list].0 = next;
            }
            (at, payload)
        };
        self.len -= 1;
        self.cursor = self.cursor.max(at);
        Some((at, payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        let near = self.near_head().map(|(at, _, _)| at);
        let far = self.far.peek().map(|e| e.at);
        match (near, far) {
            (Some(near), Some(far)) => Some(near.min(far)),
            (near, far) => near.or(far),
        }
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.occupied = 0;
        self.nodes.clear();
        self.free = NIL;
        self.far.clear();
        self.len = 0;
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

    /// The payload `index` places behind the head (0 is the head), for
    /// in-place update; its time stays fixed, so the order does too.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.fifo.get_mut(index).map(|(_, payload)| payload)
    }

    /// Every pending event, head first.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, T)> {
        self.fifo.iter()
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

    #[test]
    fn monotone_queue_updates_in_place_by_position() {
        let mut q = MonotoneQueue::new();
        for (t, v) in [(1, 10), (1, 20), (4, 30)] {
            q.push(Cycle(t), v);
        }
        *q.get_mut(1).unwrap() += 1;
        assert_eq!(q.get_mut(3), None);
        let order: Vec<_> = q.iter().copied().collect();
        assert_eq!(order, [(Cycle(1), 10), (Cycle(1), 21), (Cycle(4), 30)]);
        assert_eq!(q.pop_due(Cycle(1)), Some((Cycle(1), 10)));
        assert_eq!(q.get_mut(0), Some(&mut 21), "positions count from the head");
    }
}
