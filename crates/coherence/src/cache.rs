//! Set-associative cache arrays with LRU replacement.
//!
//! Used for the private L1s (Table 3: 8 KB, 2-way, 32 B lines, dual
//! tags). The array tracks tags and a client-supplied per-line payload
//! (the coherence state); actual data values are not simulated.
//!
//! One flat `sets × ways` slot vector holds every way: set `s` is slots
//! `s·ways .. (s + 1)·ways`. Line and set counts are powers of two, so a
//! line's set and tag are a shift and a mask of its address, never a
//! division. Each resident way carries the tick of its last touch; the
//! victim is the *first* way holding the least value, with a free way
//! counting as tick 0 — so a fill takes the lowest free way, and a full
//! set gives up its least recently used evictable line.

use crate::protocol::LineAddr;
use std::ops::Range;

/// One resident line.
#[derive(Debug)]
struct Way<T> {
    tag: u64,
    /// Tick of the last insert or lookup hit (ticks start at 1).
    lru: u64,
    payload: T,
}

/// A set-associative array mapping lines to payloads of type `T`.
#[derive(Debug)]
pub struct CacheArray<T> {
    ways: usize,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    /// `slots[set * ways + way]`.
    slots: Vec<Option<Way<T>>>,
    tick: u64,
}

/// Result of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome<T> {
    /// Inserted into a free way.
    Inserted,
    /// Inserted after evicting this victim.
    Evicted {
        /// The replaced line.
        line: LineAddr,
        /// Its payload at eviction.
        payload: T,
    },
}

impl<T> CacheArray<T> {
    /// Creates an array of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless all sizes are positive powers of two with
    /// `capacity >= ways × line`.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        assert!(ways > 0);
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways as u64 && lines.is_multiple_of(ways as u64),
            "capacity must hold a whole number of sets"
        );
        let sets = lines / ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            slots: std::iter::repeat_with(|| None)
                .take(lines as usize)
                .collect(),
            tick: 0,
        }
    }

    /// `line`'s set and tag.
    fn locate(&self, line: LineAddr) -> (u64, u64) {
        let block = line.0 >> self.line_shift;
        (block & self.set_mask, block >> self.set_shift)
    }

    /// The slots of set `set`.
    fn set(&self, set: u64) -> Range<usize> {
        let first = set as usize * self.ways;
        first..first + self.ways
    }

    fn line_of(&self, set: u64, tag: u64) -> LineAddr {
        LineAddr(((tag << self.set_shift) | set) << self.line_shift)
    }

    /// Looks up a line, refreshing its LRU position on hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut T> {
        let (set, tag) = self.locate(line);
        let slots = self.set(set);
        let way = self.slots[slots]
            .iter_mut()
            .flatten()
            .find(|w| w.tag == tag)?;
        self.tick += 1;
        way.lru = self.tick;
        Some(&mut way.payload)
    }

    /// Looks up without touching LRU.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let (set, tag) = self.locate(line);
        self.slots[self.set(set)]
            .iter()
            .flatten()
            .find(|w| w.tag == tag)
            .map(|w| &w.payload)
    }

    /// Inserts `line` with `payload`, evicting the LRU way if needed.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (use [`lookup`] first).
    ///
    /// [`lookup`]: CacheArray::lookup
    #[expect(
        clippy::expect_used,
        reason = "P1: with every way evictable and ways >= 1 (asserted at construction) a victim always exists"
    )]
    pub fn insert(&mut self, line: LineAddr, payload: T) -> AllocOutcome<T> {
        self.insert_evicting_where(line, payload, |_, _| true)
            .ok()
            .expect("an unfiltered insert always finds a way")
    }

    /// Like [`insert`](Self::insert), but only victims satisfying
    /// `evictable` may be replaced; a free way is always taken first.
    ///
    /// # Errors
    ///
    /// Returns `Err(payload)` when the set is full and no resident way is
    /// evictable (e.g. every candidate has an outstanding transaction).
    ///
    /// # Panics
    ///
    /// Panics if the line is already present.
    pub fn insert_evicting_where(
        &mut self,
        line: LineAddr,
        payload: T,
        mut evictable: impl FnMut(LineAddr, &T) -> bool,
    ) -> Result<AllocOutcome<T>, T> {
        let (set, tag) = self.locate(line);
        let mut victim: Option<(u64, usize)> = None;
        for i in self.set(set) {
            let age = match &self.slots[i] {
                None => 0,
                Some(w) => {
                    assert!(w.tag != tag, "line already present: {line}");
                    if !evictable(self.line_of(set, w.tag), &w.payload) {
                        continue;
                    }
                    w.lru
                }
            };
            if victim.is_none_or(|(oldest, _)| age < oldest) {
                victim = Some((age, i));
            }
        }
        let Some((_, i)) = victim else {
            return Err(payload);
        };
        self.tick += 1;
        let way = Way {
            tag,
            lru: self.tick,
            payload,
        };
        Ok(match self.slots[i].replace(way) {
            None => AllocOutcome::Inserted,
            Some(old) => AllocOutcome::Evicted {
                line: self.line_of(set, old.tag),
                payload: old.payload,
            },
        })
    }

    /// Removes a line, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let (set, tag) = self.locate(line);
        let slots = self.set(set);
        let slot = self.slots[slots]
            .iter_mut()
            .find(|s| s.as_ref().is_some_and(|w| w.tag == tag))?;
        slot.take().map(|w| w.payload)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray<u32> {
        // 4 sets × 2 ways × 32 B = 256 B.
        CacheArray::new(256, 2, 32)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = tiny();
        assert!(c.is_empty());
        assert!(matches!(c.insert(LineAddr(0x0), 1), AllocOutcome::Inserted));
        assert_eq!(c.lookup(LineAddr(0x0)), Some(&mut 1));
        assert_eq!(c.peek(LineAddr(0x0)), Some(&1));
        assert_eq!(c.remove(LineAddr(0x0)), Some(1));
        assert_eq!(c.peek(LineAddr(0x0)), None);
        assert_eq!(c.remove(LineAddr(0x0)), None);
    }

    #[test]
    fn same_set_lines_conflict() {
        let mut c = tiny();
        // Lines 0x0, 0x80, 0x100 all map to set 0 (stride = 4 sets × 32 B).
        c.insert(LineAddr(0x0), 1);
        c.insert(LineAddr(0x80), 2);
        let out = c.insert(LineAddr(0x100), 3);
        match out {
            AllocOutcome::Evicted { line, payload } => {
                assert_eq!(line, LineAddr(0x0), "LRU is the first inserted");
                assert_eq!(payload, 1);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_refresh_on_lookup() {
        let mut c = tiny();
        c.insert(LineAddr(0x0), 1);
        c.insert(LineAddr(0x80), 2);
        // Touch 0x0 so 0x80 becomes LRU.
        c.lookup(LineAddr(0x0));
        match c.insert(LineAddr(0x100), 3) {
            AllocOutcome::Evicted { line, .. } => assert_eq!(line, LineAddr(0x80)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fills_take_the_lowest_free_way() {
        // Free ways tie at age 0: the first minimum is the lowest one, so
        // a set fills way 0 first and refills the way a remove freed.
        let mut c: CacheArray<u32> = CacheArray::new(4 * 32, 4, 32); // 1 set
        let resident = |c: &CacheArray<u32>| -> Vec<Option<u32>> {
            c.slots
                .iter()
                .map(|s| s.as_ref().map(|w| w.payload))
                .collect()
        };
        c.insert(LineAddr(0x00), 10);
        c.insert(LineAddr(0x20), 11);
        assert_eq!(resident(&c), [Some(10), Some(11), None, None]);
        c.remove(LineAddr(0x00));
        c.insert(LineAddr(0x40), 12);
        assert_eq!(resident(&c), [Some(12), Some(11), None, None]);
    }

    #[test]
    fn shape_and_capacity() {
        let c = tiny();
        assert_eq!(c.capacity_lines(), 8);
        assert_eq!(c.line_bytes(), 32);
        // Line 0x1a0 = block 13: set 13 & 3 = 1, tag 13 >> 2 = 3.
        assert_eq!(c.locate(LineAddr(0x1a0)), (1, 3));
        assert_eq!(c.line_of(1, 3), LineAddr(0x1a0));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4 {
            c.insert(LineAddr(i * 32), i as u32);
        }
        assert_eq!(c.len(), 4, "distinct sets hold all four");
    }

    #[test]
    #[should_panic(expected = "line already present")]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(LineAddr(0x0), 1);
        c.insert(LineAddr(0x0), 2);
    }

    #[test]
    fn realistic_l1_shape() {
        // Table 3: 8 KB, 2-way, 32 B lines → 128 sets.
        let c: CacheArray<u8> = CacheArray::new(8 * 1024, 2, 32);
        assert_eq!(c.capacity_lines(), 256);
    }
}
