//! Set-associative cache arrays with LRU replacement.
//!
//! Used for both the private L1s (Table 3: 8 KB, 2-way, 32 B lines, dual
//! tags) and the shared-L2 slices (64 KB per node). The array tracks tags
//! and a client-supplied per-line payload (the coherence state); actual
//! data values are not simulated.

use crate::protocol::LineAddr;

/// A set-associative array mapping lines to payloads of type `T`.
#[derive(Debug)]
pub struct CacheArray<T> {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    /// `entries[set][way]`: (tag, payload, lru tick).
    entries: Vec<Vec<Option<(u64, T, u64)>>>,
    tick: u64,
    hits: u64,
    misses: u64,
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

impl<T: Clone> CacheArray<T> {
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
        let sets = (lines / ways as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            sets,
            ways,
            line_bytes,
            entries: vec![vec![None; ways]; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, line: LineAddr) -> (usize, u64) {
        let block = line.0 / self.line_bytes;
        ((block as usize) % self.sets, block / self.sets as u64)
    }

    fn line_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr((tag * self.sets as u64 + set as u64) * self.line_bytes)
    }

    /// Looks up a line, refreshing its LRU position on hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut T> {
        let (set, tag) = self.index(line);
        self.tick += 1;
        let tick = self.tick;
        let hit = self.entries[set]
            .iter_mut()
            .flatten()
            .find(|(t, _, _)| *t == tag);
        match hit {
            Some(entry) => {
                entry.2 = tick;
                self.hits += 1;
                Some(&mut entry.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up without touching LRU or hit counters.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let (set, tag) = self.index(line);
        self.entries[set]
            .iter()
            .flatten()
            .find(|(t, _, _)| *t == tag)
            .map(|(_, p, _)| p)
    }

    /// The LRU victim of `line`'s set if the set is full, without
    /// modifying anything. `None` when a free way exists.
    pub fn victim_for(&self, line: LineAddr) -> Option<(LineAddr, &T)> {
        let (set, _) = self.index(line);
        if self.entries[set].iter().any(|e| e.is_none()) {
            return None;
        }
        self.entries[set]
            .iter()
            .flatten()
            .min_by_key(|(_, _, lru)| *lru)
            .map(|(tag, p, _)| (self.line_of(set, *tag), p))
    }

    /// Inserts `line` with `payload`, evicting the LRU way if needed.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (use [`lookup`] first).
    ///
    /// [`lookup`]: CacheArray::lookup
    pub fn insert(&mut self, line: LineAddr, payload: T) -> AllocOutcome<T> {
        let (set, tag) = self.index(line);
        assert!(
            !self.entries[set]
                .iter()
                .flatten()
                .any(|(t, _, _)| *t == tag),
            "line already present: {line}"
        );
        self.tick += 1;
        let tick = self.tick;
        // Free way?
        if let Some(slot) = self.entries[set].iter_mut().find(|e| e.is_none()) {
            *slot = Some((tag, payload, tick));
            return AllocOutcome::Inserted;
        }
        // Evict LRU.
        #[expect(
            clippy::expect_used,
            reason = "P1: ways-per-set is asserted >= 1 at construction"
        )]
        let victim_way = self.entries[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.as_ref().map(|(_, _, lru)| *lru))
            .map(|(i, _)| i)
            .expect("set is non-empty");
        #[expect(
            clippy::expect_used,
            reason = "P1: the all-ways-full check above guarantees the victim way is occupied"
        )]
        let (vt, vp, _) = self.entries[set][victim_way].take().expect("full set");
        self.entries[set][victim_way] = Some((tag, payload, tick));
        AllocOutcome::Evicted {
            line: self.line_of(set, vt),
            payload: vp,
        }
    }

    /// Like [`insert`](Self::insert), but only victims satisfying
    /// `evictable` may be replaced.
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
        let (set, tag) = self.index(line);
        assert!(
            !self.entries[set]
                .iter()
                .flatten()
                .any(|(t, _, _)| *t == tag),
            "line already present: {line}"
        );
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.entries[set].iter_mut().find(|e| e.is_none()) {
            *slot = Some((tag, payload, tick));
            return Ok(AllocOutcome::Inserted);
        }
        let victim_way = self.entries[set]
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.as_ref()
                    .is_some_and(|(t, p, _)| evictable(self.line_of(set, *t), p))
            })
            .min_by_key(|(_, e)| e.as_ref().map(|(_, _, lru)| *lru))
            .map(|(i, _)| i);
        let Some(way) = victim_way else {
            return Err(payload);
        };
        #[expect(
            clippy::expect_used,
            reason = "P1: victim_way is only Some for occupied ways by construction"
        )]
        let (vt, vp, _) = self.entries[set][way].take().expect("full set");
        self.entries[set][way] = Some((tag, payload, tick));
        Ok(AllocOutcome::Evicted {
            line: self.line_of(set, vt),
            payload: vp,
        })
    }

    /// Removes a line, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let (set, tag) = self.index(line);
        for e in &mut self.entries[set] {
            if matches!(e, Some((t, _, _)) if *t == tag) {
                return e.take().map(|(_, p, _)| p);
            }
        }
        None
    }

    /// Iterates all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.entries
            .iter()
            .enumerate()
            .flat_map(move |(set, ways)| {
                ways.iter()
                    .flatten()
                    .map(move |(tag, p, _)| (self.line_of(set, *tag), p))
            })
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().flatten().count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio, 0.0 when never accessed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
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
        assert!(c.victim_for(LineAddr(0x100)).is_some());
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
    fn victim_none_when_free_way() {
        let mut c = tiny();
        c.insert(LineAddr(0x0), 1);
        assert!(c.victim_for(LineAddr(0x80)).is_none());
    }

    #[test]
    fn hit_miss_statistics() {
        let mut c = tiny();
        c.insert(LineAddr(0x0), 1);
        c.lookup(LineAddr(0x0));
        c.lookup(LineAddr(0x20));
        c.lookup(LineAddr(0x0));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iter_and_capacity() {
        let mut c = tiny();
        c.insert(LineAddr(0x0), 1);
        c.insert(LineAddr(0x20), 2);
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x0, 0x20]);
        assert_eq!(c.capacity_lines(), 8);
        assert_eq!(c.line_bytes(), 32);
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
    fn empty_hit_ratio_is_zero() {
        let c = tiny();
        assert_eq!(c.hit_ratio(), 0.0);
    }

    #[test]
    fn realistic_l1_shape() {
        // Table 3: 8 KB, 2-way, 32 B lines → 128 sets.
        let c: CacheArray<u8> = CacheArray::new(8 * 1024, 2, 32);
        assert_eq!(c.capacity_lines(), 256);
    }
}
