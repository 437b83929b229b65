//! Synchronization semantics: locks and barriers — plus the paper's §5.1
//! optimization hooks.
//!
//! The cores build locks over `ll`/`sc`; the CMP simulator decides a
//! store-conditional's success from [`SpinLock::try_acquire`], the
//! memory-side truth, so no per-node link register is modelled.
//!
//! The paper implements `ll`/`sc` "differently when feasible": boolean
//! synchronization variables can be *subscribed* over the confirmation
//! channel's reserved mini-cycles, so spin loops receive single-bit
//! updates without any regular packets. [`BooleanSubscriptionHub`] is the
//! directory-side registry for that path; the CMP simulator decides per
//! configuration whether updates ride the confirmation channel (optimized)
//! or full invalidation/reload rounds (baseline). Sync words live in their
//! own address range, disjoint from every data line, so no normal store
//! ever hits a subscribed word and nothing revokes a subscription but the
//! subscriber's own `unsubscribe`.

use crate::protocol::LineAddr;
use std::collections::{BTreeMap, BTreeSet};

/// A centralized sense-reversing barrier (the paper uses combining-tree
/// barriers for scale; the tree is composed of these nodes).
#[derive(Debug)]
pub struct Barrier {
    participants: usize,
    arrived: usize,
    episodes: u64,
}

impl Barrier {
    /// Creates a barrier for `participants` arrivals per episode.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "a barrier needs participants");
        Barrier {
            participants,
            arrived: 0,
            episodes: 0,
        }
    }

    /// Registers an arrival; returns `true` when this arrival releases the
    /// barrier (the releaser flips the sense all spinners watch).
    pub fn arrive(&mut self) -> bool {
        self.arrived += 1;
        if self.arrived == self.participants {
            self.arrived = 0;
            self.episodes += 1;
            true
        } else {
            false
        }
    }

    /// The sense value spinners compare against: it flips with every
    /// completed episode.
    pub fn sense(&self) -> bool {
        self.episodes % 2 == 1
    }

    /// Completed episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }
}

/// A test-and-set lock state machine (built over ll/sc by the cores; this
/// is the memory-side truth the workload generator consults).
#[derive(Debug, Default)]
pub struct SpinLock {
    holder: Option<usize>,
}

impl SpinLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts acquisition by `node`; returns success.
    pub fn try_acquire(&mut self, node: usize) -> bool {
        if self.holder.is_none() {
            self.holder = Some(node);
            true
        } else {
            false
        }
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not hold it.
    pub fn release(&mut self, node: usize) {
        assert_eq!(self.holder, Some(node), "release by non-holder");
        self.holder = None;
    }

    /// Current holder.
    pub fn holder(&self) -> Option<usize> {
        self.holder
    }
}

/// Directory-side registry of boolean subscriptions (§5.1).
///
/// A node that `ll`s a boolean synchronization word reserves a mini-cycle
/// on its confirmation receiver and registers here. Subsequent updates to
/// the word are *pushed* to all subscribers as single-bit
/// confirmation-channel pulses — no meta/data packets.
#[derive(Debug, Default)]
pub struct BooleanSubscriptionHub {
    subs: BTreeMap<LineAddr, BTreeSet<usize>>,
    packets_saved: u64,
}

impl BooleanSubscriptionHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes `node` to `line`.
    pub fn subscribe(&mut self, line: LineAddr, node: usize) {
        self.subs.entry(line).or_default().insert(node);
    }

    /// Unsubscribes `node` from `line`.
    pub fn unsubscribe(&mut self, line: LineAddr, node: usize) {
        if let Some(s) = self.subs.get_mut(&line) {
            s.remove(&node);
            if s.is_empty() {
                self.subs.remove(&line);
            }
        }
    }

    /// A boolean update to `line` from `writer`: returns the subscribers
    /// to push the bit to (excluding the writer). Each push replaces what
    /// would otherwise be an invalidation + a reload request + a data
    /// reply (three packets) per spinning subscriber.
    pub fn push_update(&mut self, line: LineAddr, writer: usize) -> Vec<usize> {
        let targets: Vec<usize> = self
            .subs
            .get(&line)
            .map(|s| s.iter().copied().filter(|&n| n != writer).collect())
            .unwrap_or_default();
        self.packets_saved += 3 * targets.len() as u64;
        targets
    }

    /// Subscribers of a line.
    pub fn subscribers(&self, line: LineAddr) -> Vec<usize> {
        self.subs
            .get(&line)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Regular packets avoided by the optimization so far.
    pub fn packets_saved(&self) -> u64 {
        self.packets_saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(0x200);

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut b = Barrier::new(3);
        assert!(!b.arrive());
        assert!(!b.arrive());
        assert_eq!(b.arrived, 2);
        let s0 = b.sense();
        assert!(b.arrive());
        assert_eq!(b.sense(), !s0, "sense flips on release");
        assert_eq!(b.episodes(), 1);
        assert_eq!(b.arrived, 0);
        // Reusable.
        assert!(!b.arrive());
        assert!(!b.arrive());
        assert!(b.arrive());
        assert_eq!(b.episodes(), 2);
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        let mut l = SpinLock::new();
        assert!(l.try_acquire(1));
        assert!(!l.try_acquire(2));
        assert_eq!(l.holder(), Some(1));
        l.release(1);
        assert!(l.try_acquire(2));
        assert!(!l.try_acquire(1));
    }

    #[test]
    #[should_panic(expected = "release by non-holder")]
    fn wrong_release_panics() {
        let mut l = SpinLock::new();
        l.try_acquire(1);
        l.release(2);
    }

    #[test]
    fn subscriptions_push_to_others() {
        let mut hub = BooleanSubscriptionHub::new();
        hub.subscribe(L, 1);
        hub.subscribe(L, 2);
        hub.subscribe(L, 3);
        let targets = hub.push_update(L, 2);
        assert_eq!(targets, vec![1, 3]);
        assert_eq!(hub.packets_saved(), 6);
    }

    #[test]
    fn unsubscribe_leaves_the_rest() {
        let mut hub = BooleanSubscriptionHub::new();
        hub.subscribe(L, 1);
        hub.subscribe(L, 2);
        hub.unsubscribe(L, 1);
        assert_eq!(hub.subscribers(L), vec![2]);
        hub.unsubscribe(L, 2);
        assert!(hub.subscribers(L).is_empty());
        assert!(hub.push_update(L, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "needs participants")]
    fn empty_barrier_panics() {
        Barrier::new(0);
    }
}
