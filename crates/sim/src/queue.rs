//! Bounded FIFO queues modelling finite hardware buffers.
//!
//! The paper's FSOI nodes have an "outgoing queue \[of\] 8 packets each for
//! data and meta lanes" (Table 3), and the mesh nodes and crossbar channels
//! have finite injection queues. [`BoundedQueue`] models such structures:
//! a push into a full queue hands the item back.

use std::collections::VecDeque;

/// A bounded FIFO.
///
/// ```
/// use fsoi_sim::queue::BoundedQueue;
///
/// let mut q = BoundedQueue::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.push(3), Err(3)); // full: item handed back
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Attempts to enqueue `item`.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (handing the item back to the caller) when the
    /// queue is full; the caller decides whether to stall, drop, or NACK.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when no further item can be enqueued.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.front(), Some(&0));
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = BoundedQueue::new(1);
        q.push('a').unwrap();
        assert!(q.is_full());
        assert_eq!(q.push('b'), Err('b'));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.push('b').is_ok());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
