//! The L2 directory controller — lower half of Table 2.
//!
//! Each node hosts one slice of the distributed shared L2 plus its
//! directory. Stable states: `DI` (not resident, memory holds it), `DV`
//! (resident, no L1 copies), `DS` (shared by L1s), `DM` (owned by one L1).
//! The nine transient states cover memory fetches, invalidation rounds,
//! downgrades and ownership transfers, including the crossing-writeback
//! races (`DM.DSᴰ` + WriteBack → `DM.DSᴬ`, etc.).
//!
//! Requests arriving while a line is transient are *stalled* (Table 2's
//! `z`) into a per-line deferred queue and replayed once the line
//! stabilizes; a deferred `Req(Upg)` whose requester lost its copy in the
//! meantime is reinterpreted as `Req(Ex)` (the table's "(Req(Ex))" note).
//! When the deferred queue is full the directory NACKs with `Retry`,
//! which probabilistically avoids fetch deadlock (§4.3.1, footnote 3).
//!
//! Entries live in a slab (`Slab`): a `Vec` of 56-byte slots grown by
//! use up to the slice's capacity, a free list, and an intrusive
//! doubly-linked LRU list through the occupied slots. An ordered index
//! maps a line to its slot; a handled message looks the line up there once
//! and every handler then works on the slot number. The rare deferred
//! queues live beside the slab, keyed by slot, so a slot holds no heap
//! pointer and a slice tears down in one free.
//!
//! A slice warmed before the measured window ([`Directory::warmed`])
//! keeps its warm lines as their description until the protocol touches
//! them: a *warm tier* over the cell's one [`WarmMap`], every line of it
//! `DV` with no sharers and older than every slot. A request moves a warm
//! line into the slab; capacity eviction takes the tier's oldest line
//! first. The slab and index hold only the lines the protocol has
//! touched.

use crate::protocol::{
    CoherenceMsg, DirState, Grant, LineAddr, LineRun, OutMsg, ProtocolError, ReqType,
};
use fsoi_sim::det::{DetMap, NodeMask, NodeMaskIter};
use fsoi_sim::trace::{self, TraceEvent};
use fsoi_sim::Cycle;
use std::collections::VecDeque;
use std::rc::Rc;

/// Directory statistics.
#[derive(Debug, Default)]
pub struct DirStats {
    /// Requests processed (including replays).
    pub requests: u64,
    /// Retry NACKs sent.
    pub nacks: u64,
    /// Memory reads issued.
    pub mem_reads: u64,
    /// Memory writebacks issued.
    pub mem_writes: u64,
    /// Requests stalled into deferred queues.
    pub deferred: u64,
    /// L2 capacity evictions performed.
    pub evictions: u64,
}

/// A node id as a slot stores it. Every id is below
/// [`NodeMask::CAPACITY`] (256), so it fits a `u16` with `u16::MAX` free
/// to mean "no node".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeId(u16);

impl NodeId {
    const NONE: NodeId = NodeId(u16::MAX);

    /// Narrows `node`, checked: an id that does not fit, or would read as
    /// [`NONE`](Self::NONE), panics instead of aliasing another node.
    fn new(node: usize) -> NodeId {
        let id = NodeId(u16::try_from(node).unwrap_or(u16::MAX));
        assert!(id != NodeId::NONE, "node id {node} does not fit a slot");
        id
    }

    fn get(self) -> usize {
        debug_assert!(self != NodeId::NONE, "no node recorded");
        usize::from(self.0)
    }
}

/// One line's directory state: 40 bytes, no heap pointer (the slot layout
/// table in DESIGN.md says why each field is there).
#[derive(Debug)]
struct DirEntry {
    sharers: NodeMask,
    owner: NodeId,
    requester: NodeId,
    acks_pending: u16,
    state: DirState,
    /// The line has requests in [`Directory::deferred`], keyed by its slot.
    has_deferred: bool,
}

impl DirEntry {
    fn new(state: DirState) -> Self {
        DirEntry {
            sharers: NodeMask::new(),
            owner: NodeId::NONE,
            requester: NodeId::NONE,
            acks_pending: 0,
            state,
            has_deferred: false,
        }
    }

    fn is_sharer(&self, node: usize) -> bool {
        self.sharers.contains(node)
    }

    fn add_sharer(&mut self, node: usize) {
        self.sharers.insert(node);
    }

    fn remove_sharer(&mut self, node: usize) {
        self.sharers.remove(node);
    }

    /// Starts an invalidation round over the current sharers: one ack owed
    /// per sharer, the mask cleared. Returns the sharers, ascending.
    fn invalidate_sharers(&mut self) -> NodeMaskIter {
        let victims = self.sharers.iter();
        // At most `NodeMask::CAPACITY` sharers, so the count always fits.
        self.acks_pending = u16::try_from(victims.len()).unwrap_or(u16::MAX);
        self.sharers.clear();
        victims
    }

    /// May capacity eviction pick this entry?
    fn evictable(&self) -> bool {
        self.state.is_stable() && !self.has_deferred
    }
}

/// Null link / "no slot".
const NIL: u32 = u32::MAX;

/// The pseudo-slot of a line still in the warm tier: it reads as `DV`
/// ([`Directory::state_at`]) and is never dereferenced, because only a
/// request, which first moves the line into a real slot, reaches a
/// handler arm that writes the entry.
const WARM: u32 = u32::MAX - 1;

#[derive(Debug)]
struct Slot {
    line: LineAddr,
    entry: DirEntry,
    prev: u32,
    next: u32,
}

/// Entry storage: slots threaded into an LRU list (`head` = oldest), free
/// slots chained through `next` from `free`. A slot moves to the tail
/// whenever the directory touches its line, so list order *is* LRU order:
/// the first evictable slot from the head is the least recently used one.
/// No stamp is stored for that; the debug builds keep one per slot (`lru`)
/// only to check the list against the full scan it replaced.
#[derive(Debug)]
struct Slab {
    slots: Vec<Slot>,
    /// Each slot's LRU stamp, a fresh directory tick per touch: the
    /// reference [`Directory::check_victim`] and `push_tail` compare the
    /// list order against.
    #[cfg(any(debug_assertions, test))]
    lru: Vec<u64>,
    /// The capacity `slots` grows to by doubling: the slice's capacity
    /// plus the insert that triggers an eviction. Only a slice whose
    /// every line is in flight holds more, and then `Vec` grows it.
    limit: usize,
    head: u32,
    tail: u32,
    free: u32,
}

impl Slab {
    /// Stores `entry` for `line` as the most recently used slot, stamped
    /// `tick`.
    fn alloc(&mut self, line: LineAddr, entry: DirEntry, tick: u64) -> u32 {
        let slot = Slot {
            line,
            entry,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free {
            NIL => {
                let len = self.slots.len();
                if len == self.slots.capacity() && len < self.limit {
                    self.slots
                        .reserve_exact((2 * len).clamp(4, self.limit) - len);
                }
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            s => {
                self.free = std::mem::replace(&mut self.slots[s as usize], slot).next;
                s
            }
        };
        self.stamp(s, tick);
        self.push_tail(s);
        s
    }

    /// Frees slot `s`. A free slot reads as `DI`, so `handle_into` may ask
    /// a slot that capacity eviction (which never allocates) just freed.
    fn release(&mut self, s: u32) {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        slot.entry = DirEntry::new(DirState::DI);
        slot.next = self.free;
        self.free = s;
    }

    /// Records slot `s`'s fresh LRU stamp in the debug reference; the
    /// list move that goes with it is the caller's, so the reference sees
    /// a move that was skipped.
    fn stamp(&mut self, s: u32, tick: u64) {
        #[cfg(any(debug_assertions, test))]
        {
            // As the slots grow: past capacity + 1 only when they do.
            (self.lru).reserve_exact(self.slots.capacity() - self.lru.len());
            self.lru.resize(self.slots.len(), 0);
            self.lru[s as usize] = tick;
        }
        #[cfg(not(any(debug_assertions, test)))]
        let _ = (s, tick);
    }

    /// After a fresh stamp on slot `s`: makes it the most recently used.
    fn move_to_tail(&mut self, s: u32) {
        if self.tail != s {
            self.unlink(s);
            self.push_tail(s);
        }
    }

    fn unlink(&mut self, s: u32) {
        let (prev, next) = (self.slots[s as usize].prev, self.slots[s as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, s: u32) {
        let t = self.tail;
        #[cfg(any(debug_assertions, test))]
        debug_assert!(
            t == NIL || self.lru[t as usize] < self.lru[s as usize],
            "lru stamps must be fresh ticks"
        );
        self.slots[s as usize].prev = t;
        self.slots[s as usize].next = NIL;
        match t {
            NIL => self.head = s,
            t => self.slots[t as usize].next = s,
        }
        self.tail = s;
    }

    /// The least recently used evictable slot, `NIL` when everything is
    /// in flight.
    fn victim(&self) -> u32 {
        let mut s = self.head;
        while s != NIL && !self.slots[s as usize].entry.evictable() {
            s = self.slots[s as usize].next;
        }
        s
    }
}

/// A cell's L2 warm-up map, built once and shared by every slice it warms
/// ([`Directory::warmed`]): the address map's runs of consecutive lines in
/// call order, and the one search over their first lines. A slice keeps
/// only where each run's share starts in its tier.
#[derive(Debug, Default)]
pub struct WarmMap {
    /// Slices the lines interleave over, by line number.
    nodes: u64,
    /// `log2(line_bytes)`: a line's number is its address shifted down.
    shift: u32,
    /// The runs, by call index.
    runs: Vec<MapRun>,
    /// The non-empty runs' first line numbers, ascending, each with its
    /// call index: the search.
    keys: Vec<(u64, u32)>,
}

/// One run of the map, in line numbers.
#[derive(Debug, Clone, Copy)]
struct MapRun {
    first: u64,
    count: u64,
    /// `first / nodes` and `first % nodes`, so that a lookup divides only
    /// the looked-up line.
    row: u64,
    home: u64,
}

impl WarmMap {
    /// The map of `runs`, in call order, over `nodes` slices of
    /// `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// If `line_bytes` is not a power of two, `nodes` is 0, a run is not
    /// contiguous whole lines (`stride == line_bytes` from a line
    /// boundary), or two runs overlap: the lookup needs disjoint runs.
    pub fn new(runs: impl IntoIterator<Item = LineRun>, line_bytes: u64, nodes: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size not a power of two");
        assert!(nodes > 0, "a warm-up map over no slices");
        let n = nodes as u64;
        let runs: Vec<MapRun> = (runs.into_iter())
            .map(|run| {
                assert!(
                    run.stride == line_bytes && run.first.0 % line_bytes == 0,
                    "warm-up run is not contiguous"
                );
                let first = run.first.0 / line_bytes;
                let (row, home) = (first / n, first % n);
                MapRun {
                    first,
                    count: run.count,
                    row,
                    home,
                }
            })
            .collect();
        let mut keys: Vec<(u64, u32)> = (runs.iter().zip(0..))
            .filter(|(run, _)| run.count > 0)
            .map(|(run, i)| (run.first, i))
            .collect();
        keys.sort_unstable();
        let mut prev_last = None;
        for &(first, i) in &keys {
            assert!(prev_last < Some(first), "warm-up runs overlap");
            prev_last = Some(first + (runs[i as usize].count - 1));
        }
        WarmMap {
            nodes: n,
            shift: line_bytes.trailing_zeros(),
            runs,
            keys,
        }
    }

    /// The lines of `run` before its first homed at `node`: consecutive
    /// lines have consecutive homes.
    fn skip(&self, run: MapRun, node: u64) -> u64 {
        (node + self.nodes - run.home) % self.nodes
    }

    /// The only run that can hold line number `idx`: the last one
    /// starting at or below it.
    fn run_of(&self, idx: u64) -> Option<usize> {
        let k = self.keys.partition_point(|&(first, _)| first <= idx);
        Some(self.keys[k.checked_sub(1)?].1 as usize)
    }
}

/// The warm lines of one slice no message has touched yet: its share of
/// the cell's [`WarmMap`], each run's homed lines in call order, cut at
/// capacity. Position `p` is the `p`-th line kept; it stands in the LRU
/// order with the implicit stamp `p + 1`, so the tier's lines are older
/// than every slot (whose stamps are ticks past the count kept). A line
/// leaves the tier once and for good: into the slab when a request
/// touches it, or to memory as the capacity victim.
#[derive(Debug, Default)]
struct WarmTier {
    map: Rc<WarmMap>,
    /// The slice's node, the home of every line in the tier.
    node: u64,
    /// By call index, the position of the run's first kept line, then the
    /// count kept: runs with no line kept here share the next one's start.
    start: Vec<u32>,
    /// Bit `p` set: position `p` has left the tier.
    left: Vec<u64>,
    /// Every position below has left; while `count > 0` this is the tier's
    /// oldest line, the slice's LRU victim.
    cursor: u32,
    /// Positions still in the tier.
    count: u32,
}

impl WarmTier {
    /// Slice `node`'s share of `map`, cut at `capacity` lines.
    fn new(map: &Rc<WarmMap>, node: usize, capacity: usize) -> Self {
        let node = node as u64;
        assert!(node < map.nodes, "slice {node} is outside the warm-up map");
        let mut start = Vec::with_capacity(map.runs.len() + 1);
        let mut k = 0;
        for &run in &map.runs {
            start.push(k as u32);
            // Every `nodes`-th line from the first homed here (`homed_at`).
            let homed = run.count.saturating_sub(map.skip(run, node));
            k += homed.div_ceil(map.nodes).min(capacity as u64 - k);
        }
        start.push(k as u32);
        WarmTier {
            map: Rc::clone(map),
            node,
            start,
            left: vec![0; (k as usize).div_ceil(64)],
            cursor: 0,
            count: k as u32,
        }
    }

    /// The position of `line` while it is still in the tier: one division
    /// for its row and home, the map's search for its run, and the run's
    /// `start` bounds for the rest.
    fn position(&self, line: LineAddr) -> Option<u32> {
        if self.count == 0 {
            return None;
        }
        let map = &*self.map;
        let idx = line.0 >> map.shift;
        let (row, home) = (idx / map.nodes, idx % map.nodes);
        if home != self.node || idx << map.shift != line.0 {
            return None; // never in this tier
        }
        let r = map.run_of(idx)?;
        let run = map.runs[r];
        // The rows from the run's first line homed here to this one.
        let q = row - run.row - u64::from(self.node < run.home);
        let p = u64::from(self.start[r]) + q;
        (p < u64::from(self.start[r + 1]) && !self.has_left(p as u32)).then_some(p as u32)
    }

    /// The `p`-th line kept, in run `r`.
    fn line_at(&self, r: usize, p: u32) -> LineAddr {
        let (map, run) = (&*self.map, self.map.runs[r]);
        let first = run.first + map.skip(run, self.node);
        let idx = first + u64::from(p - self.start[r]) * map.nodes;
        LineAddr(idx << map.shift)
    }

    fn has_left(&self, p: u32) -> bool {
        self.left[(p / 64) as usize] >> (p % 64) & 1 == 1
    }

    /// Takes position `p`, still in the tier, out of it.
    fn leave(&mut self, p: u32) {
        self.left[(p / 64) as usize] |= 1 << (p % 64);
        self.count -= 1;
        if self.count > 0 {
            while self.has_left(self.cursor) {
                self.cursor += 1;
            }
        }
    }

    /// The tier's oldest line and its position, `None` once it is empty.
    fn oldest(&self) -> Option<(u32, LineAddr)> {
        if self.count == 0 {
            return None;
        }
        let p = self.cursor;
        // Of the runs sharing a start, only the last keeps a line.
        let r = self.start.partition_point(|&s| s <= p) - 1;
        Some((p, self.line_at(r, p)))
    }

    /// Positions ever kept, in or out of the tier.
    #[cfg(any(debug_assertions, test))]
    fn len(&self) -> u32 {
        self.start.last().copied().unwrap_or(0)
    }

    /// The lines still in the tier with their positions, oldest first.
    fn lines(&self) -> impl Iterator<Item = (u32, LineAddr)> + '_ {
        let positions = (self.start.windows(2).enumerate())
            .flat_map(|(r, run)| (run[0]..run[1]).map(move |p| (r, p)));
        (positions.filter(|&(_, p)| !self.has_left(p))).map(|(r, p)| (p, self.line_at(r, p)))
    }
}

/// One node's directory + L2 slice controller.
#[derive(Debug)]
pub struct Directory {
    node: usize,
    mem_node: usize,
    capacity_lines: usize,
    deferred_limit: usize,
    // Line → slot, for the lines the protocol has touched. Ordered (lint
    // rule D1), though nothing iterates it outside the debug cross-checks.
    index: DetMap<LineAddr, u32>,
    slab: Slab,
    warm: WarmTier,
    /// Slot → its line's stalled requests, oldest first: present exactly
    /// for the slots whose entry has `has_deferred` set, never empty.
    deferred: DetMap<u32, VecDeque<(usize, ReqType)>>,
    tick: u64,
    stats: DirStats,
}

impl Directory {
    /// Creates the slice at `node`, backed by the memory controller at
    /// `mem_node`, holding up to `capacity_lines` resident lines.
    ///
    /// # Panics
    ///
    /// If `capacity_lines` is below 4, or does not leave the slot numbers
    /// `NIL` and `WARM` free.
    pub fn new(node: usize, mem_node: usize, capacity_lines: usize) -> Self {
        assert!(capacity_lines >= 4, "L2 slice too small to be useful");
        assert!(
            capacity_lines < WARM as usize,
            "L2 slice too large for u32 slots"
        );
        Directory {
            node,
            mem_node,
            capacity_lines,
            deferred_limit: 16,
            index: DetMap::new(),
            // Grown by use: only touched lines take a slot (the warm ones
            // wait in the tier), so most slices never reach capacity, and
            // a reservation for it would be reused, and paged in, cell
            // after cell.
            slab: Slab {
                slots: Vec::new(),
                #[cfg(any(debug_assertions, test))]
                lru: Vec::new(),
                limit: capacity_lines + 1,
                head: NIL,
                tail: NIL,
                free: NIL,
            },
            warm: WarmTier::default(),
            deferred: DetMap::new(),
            tick: 0,
            stats: DirStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &DirStats {
        &self.stats
    }

    fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        let s = *self.index.get(&line)?;
        Some(&self.slab.slots[s as usize].entry)
    }

    /// The directory state of a line (`DI` when untracked).
    pub fn state_of(&self, line: LineAddr) -> DirState {
        match self.get(line) {
            Some(e) => e.state,
            None if self.warm.position(line).is_some() => DirState::DV,
            None => DirState::DI,
        }
    }

    /// The current sharers of a line (none for a line in the warm tier, as
    /// for the other three queries below).
    pub fn sharers_of(&self, line: LineAddr) -> Vec<usize> {
        self.get(line)
            .map_or(Vec::new(), |e| e.sharers.iter().collect())
    }

    /// Number of sharers of a line, without materializing the list.
    #[cfg(test)]
    pub(crate) fn sharer_count_of(&self, line: LineAddr) -> usize {
        self.get(line).map_or(0, |e| e.sharers.len())
    }

    /// The owner of a line in `DM`, if any.
    pub fn owner_of(&self, line: LineAddr) -> Option<usize> {
        self.get(line)
            .filter(|e| e.state == DirState::DM)
            .map(|e| e.owner.get())
    }

    /// Number of tracked lines (resident + transient), the warm tier's
    /// included.
    pub fn tracked(&self) -> usize {
        self.index.len() + self.warm.count as usize
    }

    /// The slice at `node` with its L2 warmed: the lines of `map` homed
    /// here, run by run in call order, resident-valid (`DV`) up to
    /// `capacity_lines`, as if each had been fetched and written back
    /// before the measured window (the paper measures steady-state
    /// windows, e.g. "between a fixed number of barrier instances").
    ///
    /// Kept as their description, not copied: the slice shares the cell's
    /// map and keeps only a table of where each run's share starts, its
    /// warm tier; its slab and index stay empty, and the `i`-th line kept
    /// stands in the LRU order at position `i` with the implicit stamp
    /// `i + 1`; the slice's tick starts at the number kept. Every answer
    /// and reaction equals that of [`new`](Self::new) followed by a
    /// per-line `preload` of every line kept (the test-only reference): a
    /// request on a warm line first moves it into a slot at the list's
    /// tail, where its touch would have moved it, and capacity eviction
    /// takes the tier's oldest line while the tier lasts.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new), and if `node` is not one of the map's
    /// slices.
    pub fn warmed(node: usize, mem_node: usize, capacity_lines: usize, map: &Rc<WarmMap>) -> Self {
        let mut dir = Directory::new(node, mem_node, capacity_lines);
        dir.warm = WarmTier::new(map, node, capacity_lines);
        dir.tick = u64::from(dir.warm.count);
        #[cfg(debug_assertions)]
        {
            dir.check_victim(dir.warm.oldest().map(|(_, line)| line));
            dir.check_deferred();
            dir.check_warm();
        }
        dir
    }

    /// The tracked lines in LRU order, oldest first: the warm tier's in
    /// warm order, then the slab's list from its head. Walks every line;
    /// for tests and diagnostics.
    pub fn lru_order(&self) -> Vec<LineAddr> {
        let mut order: Vec<LineAddr> = self.warm.lines().map(|(_, line)| line).collect();
        let mut s = self.slab.head;
        while s != NIL {
            order.push(self.slab.slots[s as usize].line);
            s = self.slab.slots[s as usize].next;
        }
        order
    }

    /// Functionally pre-loads a line as resident-valid (`DV`) into a slot:
    /// the per-line slow reference [`warmed`](Self::warmed) is tested
    /// equal to. No-op if the line is already tracked or the slice is full.
    #[cfg(test)]
    fn preload(&mut self, line: LineAddr) -> bool {
        if self.tracked() >= self.capacity_lines {
            return false;
        }
        let std::collections::btree_map::Entry::Vacant(vacant) = self.index.entry(line) else {
            return false;
        };
        self.tick += 1;
        vacant.insert(
            self.slab
                .alloc(line, DirEntry::new(DirState::DV), self.tick),
        );
        true
    }

    /// Handles a message from `from` (an L1 node or the memory
    /// controller).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] for combinations Table 2 marks "error".
    pub fn handle(&mut self, from: usize, msg: CoherenceMsg) -> Result<Vec<OutMsg>, ProtocolError> {
        let mut out = Vec::new();
        self.handle_into(from, msg, &mut out).map(|()| out)
    }

    /// [`handle`](Self::handle), appending the reactions to a buffer the
    /// caller reuses across messages.
    ///
    /// # Errors
    ///
    /// As [`handle`](Self::handle); `out` may then hold a partial reaction
    /// the caller must discard.
    pub fn handle_into(
        &mut self,
        from: usize,
        msg: CoherenceMsg,
        out: &mut Vec<OutMsg>,
    ) -> Result<(), ProtocolError> {
        let line = msg.line();
        // The one lookup of the message: the handlers below take the line's
        // slot (`NIL` = untracked) and hand back where it ended up. A warm
        // line leaves the tier only for a request; to every other message
        // it is `DV` in place (`WARM`), which Table 2 makes an error.
        let mut slot = match self.index.get(&line) {
            Some(&slot) => slot,
            None => match self.warm.position(line) {
                Some(p) if matches!(msg, CoherenceMsg::Req { .. }) => self.materialize(p, line),
                Some(_) => WARM,
                None => NIL,
            },
        };
        let before = self.state_at(slot);
        match msg {
            CoherenceMsg::Req { kind, .. } => {
                slot = self.handle_request(from, kind, line, slot, out)
            }
            CoherenceMsg::WriteBack { .. } => self.handle_writeback(from, line, slot)?,
            CoherenceMsg::InvAck { .. } => slot = self.handle_inv_ack(line, slot, out)?,
            CoherenceMsg::DwgAck { .. } => self.handle_dwg_ack(line, slot, out)?,
            CoherenceMsg::MemAck { .. } => self.handle_mem_ack(line, slot, out)?,
            other => {
                return Err(self.error(line, slot, &format!("{other:?}")));
            }
        }
        slot = self.drain_deferred(line, slot, out);
        self.enforce_capacity(out);
        // One trace record per net state change of the handled line. The
        // directory is clock-agnostic, so records are stamped with the
        // slice's monotone event counter rather than a global cycle.
        let after = self.state_at(slot);
        if after != before {
            trace::emit_with(Cycle(self.tick), || TraceEvent::Dir {
                node: self.node as u64,
                line: line.0,
                from: format!("{before:?}"),
                to: format!("{after:?}"),
            });
        }
        Ok(())
    }

    fn error(&self, line: LineAddr, slot: u32, event: &str) -> ProtocolError {
        ProtocolError {
            controller: "directory",
            state: format!("{:?}", self.state_at(slot)),
            event: event.to_string(),
            line,
        }
    }

    /// The state held in `slot` (`DV` for `WARM`, `DI` for `NIL` and for a
    /// freed slot).
    fn state_at(&self, slot: u32) -> DirState {
        match self.slab.slots.get(slot as usize) {
            Some(s) => s.entry.state,
            None if slot == WARM => DirState::DV,
            None => DirState::DI,
        }
    }

    /// Moves the warm line at position `p` out of the tier into a `DV`
    /// slot at the list's tail, stamped with the tick the request's
    /// [`touch`](Self::touch) takes next: where that touch would have
    /// moved it from its place in the tier.
    fn materialize(&mut self, p: u32, line: LineAddr) -> u32 {
        self.warm.leave(p);
        let slot = self
            .slab
            .alloc(line, DirEntry::new(DirState::DV), self.tick + 1);
        self.index.insert(line, slot);
        slot
    }

    /// The entry in a slot the protocol dispatch already proved occupied:
    /// every caller matched on a tracked `state_at(slot)` (or filled the
    /// slot itself) first, so `NIL` here is a protocol bug and panics.
    fn entry(&mut self, slot: u32) -> &mut DirEntry {
        &mut self.slab.slots[slot as usize].entry
    }

    fn touch(&mut self, slot: u32) {
        self.tick += 1;
        if slot != NIL {
            self.slab.stamp(slot, self.tick);
            self.slab.move_to_tail(slot);
        }
    }

    /// Pops the oldest request stalled on `slot`, dropping the queue (and
    /// the entry's `has_deferred`) once it empties.
    fn pop_deferred(&mut self, slot: u32) -> Option<(usize, ReqType)> {
        if !self.entry(slot).has_deferred {
            return None;
        }
        let queue = self.deferred.get_mut(&slot)?;
        let next = queue.pop_front();
        if queue.is_empty() {
            self.deferred.remove(&slot);
            self.entry(slot).has_deferred = false;
        }
        next
    }

    /// Handles (or replays) a request; returns the line's slot, which the
    /// `DI` arm fills when the line was untracked.
    fn handle_request(
        &mut self,
        from: usize,
        mut kind: ReqType,
        line: LineAddr,
        mut slot: u32,
        out: &mut Vec<OutMsg>,
    ) -> u32 {
        self.stats.requests += 1;
        self.touch(slot);
        match self.state_at(slot) {
            DirState::DI => {
                // Fetch from memory; Upg is reinterpreted as Ex (the
                // requester cannot really hold a copy of an unresident line).
                let next = if kind == ReqType::Sh {
                    DirState::DIDSD
                } else {
                    DirState::DIDMD
                };
                self.tick += 1;
                let mut e = DirEntry::new(next);
                e.requester = NodeId::new(from);
                if slot == NIL {
                    slot = self.slab.alloc(line, e, self.tick);
                    self.index.insert(line, slot);
                } else {
                    // Over a DI placeholder mid-replay: the rest of its
                    // queue stays with the slot.
                    let placeholder = self.entry(slot);
                    e.has_deferred = placeholder.has_deferred;
                    *placeholder = e;
                    self.slab.stamp(slot, self.tick);
                    self.slab.move_to_tail(slot);
                }
                self.stats.mem_reads += 1;
                out.push(OutMsg {
                    to: self.mem_node,
                    msg: CoherenceMsg::MemReq { line, write: false },
                });
            }
            DirState::DV => {
                // Upg is reinterpreted as Ex: nobody holds a copy.
                let e = self.entry(slot);
                e.state = DirState::DM;
                e.owner = NodeId::new(from);
                let grant = if kind == ReqType::Sh {
                    Grant::Exclusive
                } else {
                    Grant::Modified
                };
                out.push(OutMsg {
                    to: from,
                    msg: CoherenceMsg::Data { grant, line },
                });
            }
            DirState::DS => {
                if kind == ReqType::Upg && !self.entry(slot).is_sharer(from) {
                    // The requester's copy died in a race: full exclusive.
                    kind = ReqType::Ex;
                }
                match kind {
                    ReqType::Sh => {
                        self.entry(slot).add_sharer(from);
                        out.push(OutMsg {
                            to: from,
                            msg: CoherenceMsg::Data {
                                grant: Grant::Shared,
                                line,
                            },
                        });
                    }
                    ReqType::Ex | ReqType::Upg => {
                        let upgrade = kind == ReqType::Upg;
                        let e = self.entry(slot);
                        e.remove_sharer(from);
                        e.requester = NodeId::new(from);
                        for v in e.invalidate_sharers() {
                            out.push(OutMsg {
                                to: v,
                                msg: CoherenceMsg::Inv { line },
                            });
                        }
                        if e.acks_pending == 0 {
                            e.state = DirState::DM;
                            e.owner = NodeId::new(from);
                            if upgrade {
                                out.push(OutMsg {
                                    to: from,
                                    msg: CoherenceMsg::ExcAck { line },
                                });
                            } else {
                                out.push(OutMsg {
                                    to: from,
                                    msg: CoherenceMsg::Data {
                                        grant: Grant::Modified,
                                        line,
                                    },
                                });
                            }
                        } else {
                            e.state = if upgrade {
                                DirState::DSDMA
                            } else {
                                DirState::DSDMDA
                            };
                        }
                    }
                }
            }
            DirState::DM => {
                let e = self.entry(slot);
                let owner = e.owner.get();
                if from == owner {
                    // The owner silently dropped a clean E copy and missed
                    // again: regrant directly.
                    let grant = if kind == ReqType::Sh {
                        Grant::Exclusive
                    } else {
                        Grant::Modified
                    };
                    out.push(OutMsg {
                        to: from,
                        msg: CoherenceMsg::Data { grant, line },
                    });
                    return slot;
                }
                e.requester = NodeId::new(from);
                match kind {
                    ReqType::Sh => {
                        e.state = DirState::DMDSD;
                        out.push(OutMsg {
                            to: owner,
                            msg: CoherenceMsg::Dwg { line },
                        });
                    }
                    ReqType::Ex | ReqType::Upg => {
                        // Upg is reinterpreted as Ex: the owner's copy dies.
                        e.state = DirState::DMDMD;
                        out.push(OutMsg {
                            to: owner,
                            msg: CoherenceMsg::Inv { line },
                        });
                    }
                }
            }
            // Transient: stall (`z`) or NACK when the queue is full.
            _ => {
                let queued = self.deferred.get(&slot).map_or(0, VecDeque::len);
                if queued >= self.deferred_limit {
                    self.stats.nacks += 1;
                    out.push(OutMsg {
                        to: from,
                        msg: CoherenceMsg::Retry { line },
                    });
                } else {
                    self.deferred
                        .entry(slot)
                        .or_default()
                        .push_back((from, kind));
                    self.entry(slot).has_deferred = true;
                    self.stats.deferred += 1;
                }
            }
        }
        slot
    }

    fn handle_writeback(
        &mut self,
        from: usize,
        line: LineAddr,
        slot: u32,
    ) -> Result<(), ProtocolError> {
        match self.state_at(slot) {
            DirState::DM => {
                // Owner eviction: "save/DV".
                let e = self.entry(slot);
                if e.owner.get() != from {
                    return Err(self.error(line, slot, "WriteBack(non-owner)"));
                }
                e.state = DirState::DV;
                e.owner = NodeId::NONE;
            }
            DirState::DMDSD => {
                // Crossed with our Dwg: "save/DM.DSᴬ".
                self.entry(slot).state = DirState::DMDSA;
            }
            DirState::DMDMD => {
                // Crossed with our Inv: "save/DM.DMᴬ".
                self.entry(slot).state = DirState::DMDMA;
            }
            DirState::DMDID => {
                // Crossed with our eviction Inv: "save/DS.DIᴬ" — still owe
                // one ack (the ex-owner answers the Inv from I).
                let e = self.entry(slot);
                e.state = DirState::DSDIA;
                e.acks_pending = 1;
            }
            _ => return Err(self.error(line, slot, "WriteBack")),
        }
        Ok(())
    }

    /// Returns the line's slot: an ack that completes an eviction frees it.
    fn handle_inv_ack(
        &mut self,
        line: LineAddr,
        slot: u32,
        out: &mut Vec<OutMsg>,
    ) -> Result<u32, ProtocolError> {
        match self.state_at(slot) {
            DirState::DSDIA => {
                let e = self.entry(slot);
                e.acks_pending -= 1;
                if e.acks_pending == 0 {
                    // "evict/DI": push the L2 copy back to memory.
                    return Ok(self.remove_with_memory_writeback(line, slot, out));
                }
            }
            DirState::DSDMDA => {
                let e = self.entry(slot);
                e.acks_pending -= 1;
                if e.acks_pending == 0 {
                    e.state = DirState::DM;
                    e.owner = e.requester;
                    let to = e.requester.get();
                    out.push(OutMsg {
                        to,
                        msg: CoherenceMsg::Data {
                            grant: Grant::Modified,
                            line,
                        },
                    });
                }
            }
            DirState::DSDMA => {
                let e = self.entry(slot);
                e.acks_pending -= 1;
                if e.acks_pending == 0 {
                    e.state = DirState::DM;
                    e.owner = e.requester;
                    let to = e.requester.get();
                    out.push(OutMsg {
                        to,
                        msg: CoherenceMsg::ExcAck { line },
                    });
                }
            }
            DirState::DMDID => {
                // "save & evict/DI".
                return Ok(self.remove_with_memory_writeback(line, slot, out));
            }
            DirState::DMDMD | DirState::DMDMA => {
                // "save & fwd/DM" (DMDMD) or "Data(M)/DM" (DMDMA).
                let e = self.entry(slot);
                e.state = DirState::DM;
                e.owner = e.requester;
                let to = e.requester.get();
                out.push(OutMsg {
                    to,
                    msg: CoherenceMsg::Data {
                        grant: Grant::Modified,
                        line,
                    },
                });
            }
            _ => return Err(self.error(line, slot, "InvAck")),
        }
        Ok(slot)
    }

    fn handle_dwg_ack(
        &mut self,
        line: LineAddr,
        slot: u32,
        out: &mut Vec<OutMsg>,
    ) -> Result<(), ProtocolError> {
        match self.state_at(slot) {
            DirState::DMDSD => {
                // "save & fwd": the owner keeps a shared copy; the
                // requester joins as a sharer.
                let e = self.entry(slot);
                e.state = DirState::DS;
                let owner = e.owner.get();
                let req = e.requester.get();
                e.owner = NodeId::NONE;
                e.sharers.clear();
                e.add_sharer(owner);
                e.add_sharer(req);
                out.push(OutMsg {
                    to: req,
                    msg: CoherenceMsg::Data {
                        grant: Grant::Shared,
                        line,
                    },
                });
            }
            DirState::DMDSA => {
                // Owner evicted mid-downgrade: requester is the only copy.
                let e = self.entry(slot);
                e.state = DirState::DM;
                e.owner = e.requester;
                let to = e.requester.get();
                out.push(OutMsg {
                    to,
                    msg: CoherenceMsg::Data {
                        grant: Grant::Exclusive,
                        line,
                    },
                });
            }
            _ => return Err(self.error(line, slot, "DwgAck")),
        }
        Ok(())
    }

    fn handle_mem_ack(
        &mut self,
        line: LineAddr,
        slot: u32,
        out: &mut Vec<OutMsg>,
    ) -> Result<(), ProtocolError> {
        let state = self.state_at(slot);
        match state {
            DirState::DIDSD | DirState::DIDMD => {
                // "repl & fwd/DM".
                let e = self.entry(slot);
                e.state = DirState::DM;
                e.owner = e.requester;
                let grant = if state == DirState::DIDSD {
                    Grant::Exclusive
                } else {
                    Grant::Modified
                };
                let to = e.requester.get();
                out.push(OutMsg {
                    to,
                    msg: CoherenceMsg::Data { grant, line },
                });
            }
            _ => return Err(self.error(line, slot, "MemAck")),
        }
        Ok(())
    }

    /// Drops the line in `slot`, writing the L2 copy back to memory.
    /// Deferred requests stay behind, keyed by the same slot, on a `DI`
    /// placeholder for [`drain_deferred`](Self::handle_into) to replay
    /// against the now-DI line. Returns the line's slot afterwards.
    fn remove_with_memory_writeback(
        &mut self,
        line: LineAddr,
        slot: u32,
        out: &mut Vec<OutMsg>,
    ) -> u32 {
        self.write_to_memory(line, out);
        if !self.entry(slot).has_deferred {
            self.index.remove(&line);
            self.slab.release(slot);
            return NIL;
        }
        self.tick += 1;
        let mut placeholder = DirEntry::new(DirState::DI);
        placeholder.has_deferred = true;
        *self.entry(slot) = placeholder;
        self.slab.stamp(slot, self.tick);
        self.slab.move_to_tail(slot);
        slot
    }

    /// Pushes the L2 copy of `line` back to memory.
    fn write_to_memory(&mut self, line: LineAddr, out: &mut Vec<OutMsg>) {
        self.stats.mem_writes += 1;
        out.push(OutMsg {
            to: self.mem_node,
            msg: CoherenceMsg::MemReq { line, write: true },
        });
    }

    /// Replays deferred requests while the line is stable (or DI);
    /// returns the line's slot afterwards.
    fn drain_deferred(&mut self, line: LineAddr, mut slot: u32, out: &mut Vec<OutMsg>) -> u32 {
        for _ in 0..64 {
            if slot == NIL {
                break;
            }
            let state = self.entry(slot).state;
            if !state.is_stable() {
                break;
            }
            let Some((from, kind)) = self.pop_deferred(slot) else {
                if state == DirState::DI {
                    // An emptied placeholder: the line is untracked again.
                    self.index.remove(&line);
                    self.slab.release(slot);
                    slot = NIL;
                }
                break;
            };
            // Re-dispatch; a deferred Upg against a line the requester no
            // longer shares is reinterpreted inside `handle_request`. DI
            // handling overwrites the placeholder with a fresh transient
            // entry in the same slot, which keeps the rest of the queue.
            slot = self.handle_request(from, kind, line, slot, out);
        }
        slot
    }

    /// Evicts LRU stable lines while over capacity ("Repl" events).
    fn enforce_capacity(&mut self, out: &mut Vec<OutMsg>) {
        while self.tracked() > self.capacity_lines {
            // The tier's lines are older than every slot and all evictable
            // (`DV`, nothing stalled): its oldest goes first.
            let warm = self.warm.oldest();
            let slot = if warm.is_some() {
                NIL
            } else {
                self.slab.victim()
            };
            #[cfg(debug_assertions)]
            {
                let line = warm.map(|(_, line)| line);
                self.check_victim(line.or(self.slab.slots.get(slot as usize).map(|s| s.line)));
                self.check_deferred();
                self.check_warm();
            }
            if let Some((p, line)) = warm {
                self.warm.leave(p);
                self.stats.evictions += 1;
                self.write_to_memory(line, out);
                continue;
            }
            if slot == NIL {
                return; // everything is in flight; allow overflow
            }
            self.stats.evictions += 1;
            let line = self.slab.slots[slot as usize].line;
            let e = self.entry(slot);
            match e.state {
                DirState::DV | DirState::DI => {
                    self.remove_with_memory_writeback(line, slot, out);
                }
                DirState::DS => {
                    let victims = e.invalidate_sharers();
                    if e.acks_pending == 0 {
                        self.remove_with_memory_writeback(line, slot, out);
                    } else {
                        e.state = DirState::DSDIA;
                        for v in victims {
                            out.push(OutMsg {
                                to: v,
                                msg: CoherenceMsg::Inv { line },
                            });
                        }
                    }
                }
                DirState::DM => {
                    e.state = DirState::DMDID;
                    let owner = e.owner.get();
                    out.push(OutMsg {
                        to: owner,
                        msg: CoherenceMsg::Inv { line },
                    });
                }
                _ => unreachable!("victims are stable"),
            }
        }
    }

    /// The reference the LRU order is checked against: the list covers
    /// exactly the indexed slots in strictly ascending `lru` order, every
    /// one newer than the warm tier's implicit stamps (position `p` is
    /// `p + 1`), and `victim`'s line is the full scan's `min_by_key` stamp
    /// over the tier and the evictable entries.
    #[cfg(any(debug_assertions, test))]
    fn check_victim(&self, victim: Option<LineAddr>) {
        let (slots, lru) = (&self.slab.slots, &self.slab.lru);
        let (mut s, mut prev, mut listed) = (self.slab.head, NIL, 0);
        while s != NIL {
            let slot = &slots[s as usize];
            assert_eq!(
                self.index.get(&slot.line),
                Some(&s),
                "listed slot is indexed"
            );
            assert_eq!(slot.prev, prev, "back link");
            assert!(prev == NIL || lru[prev as usize] < lru[s as usize]);
            assert!(
                lru[s as usize] > u64::from(self.warm.len()),
                "older than the tier"
            );
            (prev, s, listed) = (s, slot.next, listed + 1);
        }
        assert_eq!(self.slab.tail, prev);
        assert_eq!(listed, self.index.len(), "every indexed slot is listed");
        let tier = self.warm.lines().map(|(p, line)| (u64::from(p) + 1, line));
        let indexed = (self.index.iter())
            .filter(|&(_, &s)| slots[s as usize].entry.evictable())
            .map(|(&line, &s)| (lru[s as usize], line));
        let scanned = tier.chain(indexed).min_by_key(|&(stamp, _)| stamp);
        assert_eq!(
            scanned.map(|(_, line)| line),
            victim,
            "list victim == scan victim"
        );
    }

    /// The warm tier against its map and its mask: `start` never
    /// decreases, and each run keeps its homed count ([`LineRun::homed_at`])
    /// cut at what capacity had left; the count is the number of positions
    /// still in the tier, every position below the cursor has left and the
    /// cursor itself has not (while any is left), the lookup finds each
    /// line still in it at its position, and none of them is indexed.
    #[cfg(any(debug_assertions, test))]
    fn check_warm(&self) {
        let (warm, map) = (&self.warm, &*self.warm.map);
        if !warm.start.is_empty() {
            assert_eq!(warm.start.len(), map.runs.len() + 1, "a start per run");
            assert_eq!(warm.start[0], 0, "the first run starts the tier");
            let line_bytes = 1 << map.shift;
            let mut room = self.capacity_lines as u64;
            for (r, run) in warm.start.windows(2).enumerate() {
                assert!(run[0] <= run[1], "start never decreases");
                let MapRun { first, count, .. } = map.runs[r];
                let whole = LineRun::contiguous(LineAddr(first << map.shift), count, line_bytes);
                let homed = whole.homed_at(self.node, line_bytes, map.nodes as usize);
                let kept = u64::from(run[1] - run[0]);
                assert_eq!(kept, homed.count.min(room), "run {r} keeps its homed lines");
                room -= kept;
            }
        }
        let kept = (0..warm.len()).filter(|&p| !warm.has_left(p)).count();
        assert_eq!(kept, warm.count as usize, "count == positions in the tier");
        assert!(
            (0..warm.cursor).all(|p| warm.has_left(p)),
            "everything below the cursor has left"
        );
        assert!(
            warm.count == 0 || !warm.has_left(warm.cursor),
            "the cursor is in the tier"
        );
        for (p, line) in warm.lines() {
            assert_eq!(warm.position(line), Some(p), "the lookup finds {line}");
            assert!(
                !self.index.contains_key(&line),
                "{line} is in the tier and indexed"
            );
        }
    }

    /// The deferred side table against the slots: its keys are exactly
    /// the slots flagged `has_deferred`, each queue is non-empty, within
    /// `deferred_limit` and owned by an indexed slot, and no free slot owns
    /// one.
    #[cfg(any(debug_assertions, test))]
    fn check_deferred(&self) {
        let slots = &self.slab.slots;
        let flagged = (0..slots.len() as u32).filter(|&s| slots[s as usize].entry.has_deferred);
        assert!(
            self.deferred.keys().copied().eq(flagged),
            "side-table keys == slots flagged has_deferred"
        );
        for (&s, queue) in &self.deferred {
            assert!((1..=self.deferred_limit).contains(&queue.len()));
            let line = slots[s as usize].line;
            assert_eq!(self.index.get(&line), Some(&s), "queue on an indexed slot");
        }
        let mut s = self.slab.free;
        while s != NIL {
            assert!(
                !self.deferred.contains_key(&s),
                "free slot {s} owns a queue"
            );
            s = slots[s as usize].next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        Directory::new(0, 99, 1024) // memory controller at node 99
    }

    fn req(kind: ReqType, line: LineAddr) -> CoherenceMsg {
        CoherenceMsg::Req { kind, line }
    }

    const L: LineAddr = LineAddr(0x100);

    /// Brings `line` to DV (resident, no sharers) via a fetch + writeback.
    fn to_dv(d: &mut Directory, line: LineAddr) {
        let out = d.handle(1, req(ReqType::Ex, line)).unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::MemReq { write: false, .. }
        ));
        d.handle(99, CoherenceMsg::MemAck { line }).unwrap();
        assert_eq!(d.state_of(line), DirState::DM);
        d.handle(1, CoherenceMsg::WriteBack { line }).unwrap();
        assert_eq!(d.state_of(line), DirState::DV);
    }

    #[test]
    fn transitions_emit_trace_events() {
        let (records, ()) = trace::capture(|| {
            let mut d = dir();
            d.handle(3, req(ReqType::Sh, L)).unwrap();
            d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        });
        if !trace::compiled() {
            return;
        }
        let dirs: Vec<(String, String)> = records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::Dir {
                    node: 0,
                    line,
                    from,
                    to,
                } if *line == L.0 => Some((from.clone(), to.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            dirs,
            vec![
                ("DI".to_string(), "DIDSD".to_string()),
                ("DIDSD".to_string(), "DM".to_string()),
            ],
            "each net state change of the line is one dir record"
        );
    }

    #[test]
    fn cold_read_fetches_memory_and_grants_exclusive() {
        let mut d = dir();
        let out = d.handle(3, req(ReqType::Sh, L)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, 99);
        assert_eq!(d.state_of(L), DirState::DIDSD);
        let out = d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        assert_eq!(
            out[0],
            OutMsg {
                to: 3,
                msg: CoherenceMsg::Data {
                    grant: Grant::Exclusive,
                    line: L
                }
            }
        );
        assert_eq!(d.state_of(L), DirState::DM);
        assert_eq!(d.owner_of(L), Some(3));
    }

    #[test]
    fn cold_write_grants_modified() {
        let mut d = dir();
        d.handle(5, req(ReqType::Ex, L)).unwrap();
        assert_eq!(d.state_of(L), DirState::DIDMD);
        let out = d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::Data {
                grant: Grant::Modified,
                ..
            }
        ));
        assert_eq!(d.owner_of(L), Some(5));
    }

    #[test]
    fn dv_read_grants_exclusive() {
        let mut d = dir();
        to_dv(&mut d, L);
        let out = d.handle(7, req(ReqType::Sh, L)).unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::Data {
                grant: Grant::Exclusive,
                ..
            }
        ));
        assert_eq!(d.state_of(L), DirState::DM);
        assert_eq!(d.owner_of(L), Some(7));
    }

    #[test]
    fn downgrade_on_shared_request_to_owned_line() {
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        // Node 2 reads: owner 1 must downgrade.
        let out = d.handle(2, req(ReqType::Sh, L)).unwrap();
        assert_eq!(
            out,
            vec![OutMsg {
                to: 1,
                msg: CoherenceMsg::Dwg { line: L }
            }]
        );
        assert_eq!(d.state_of(L), DirState::DMDSD);
        let out = d
            .handle(
                1,
                CoherenceMsg::DwgAck {
                    line: L,
                    with_data: true,
                },
            )
            .unwrap();
        assert_eq!(
            out[0],
            OutMsg {
                to: 2,
                msg: CoherenceMsg::Data {
                    grant: Grant::Shared,
                    line: L
                }
            }
        );
        assert_eq!(d.state_of(L), DirState::DS);
        let mut sharers = d.sharers_of(L);
        sharers.sort_unstable();
        assert_eq!(sharers, vec![1, 2]);
        assert_eq!(d.sharer_count_of(L), 2);
    }

    #[test]
    fn ownership_transfer_on_exclusive_request() {
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        let out = d.handle(2, req(ReqType::Ex, L)).unwrap();
        assert_eq!(
            out,
            vec![OutMsg {
                to: 1,
                msg: CoherenceMsg::Inv { line: L }
            }]
        );
        assert_eq!(d.state_of(L), DirState::DMDMD);
        let out = d
            .handle(
                1,
                CoherenceMsg::InvAck {
                    line: L,
                    with_data: true,
                },
            )
            .unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::Data {
                grant: Grant::Modified,
                ..
            }
        ));
        assert_eq!(d.owner_of(L), Some(2));
    }

    #[test]
    fn shared_upgrade_invalidates_others_then_exc_acks() {
        let mut d = dir();
        // Build DS with sharers {1, 2, 3} (first reader gets E; a second
        // reader triggers a downgrade; further readers join DS).
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        d.handle(2, req(ReqType::Sh, L)).unwrap();
        d.handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: true,
            },
        )
        .unwrap();
        d.handle(3, req(ReqType::Sh, L)).unwrap();
        assert_eq!(d.sharer_count_of(L), 3);
        // Sharer 2 upgrades: invalidate 1 and 3, then ExcAck.
        let out = d.handle(2, req(ReqType::Upg, L)).unwrap();
        let inv_targets: Vec<usize> = out.iter().map(|m| m.to).collect();
        assert_eq!(inv_targets.len(), 2);
        assert!(inv_targets.contains(&1) && inv_targets.contains(&3));
        assert_eq!(d.state_of(L), DirState::DSDMA);
        assert!(d
            .handle(
                1,
                CoherenceMsg::InvAck {
                    line: L,
                    with_data: false
                }
            )
            .unwrap()
            .is_empty());
        let out = d
            .handle(
                3,
                CoherenceMsg::InvAck {
                    line: L,
                    with_data: false,
                },
            )
            .unwrap();
        assert_eq!(
            out,
            vec![OutMsg {
                to: 2,
                msg: CoherenceMsg::ExcAck { line: L }
            }]
        );
        assert_eq!(d.owner_of(L), Some(2));
    }

    #[test]
    fn exclusive_request_over_sharers_sends_data() {
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        d.handle(2, req(ReqType::Sh, L)).unwrap();
        d.handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: true,
            },
        )
        .unwrap();
        // Node 4 (not a sharer) wants exclusive: invalidate {1, 2}.
        let out = d.handle(4, req(ReqType::Ex, L)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(d.state_of(L), DirState::DSDMDA);
        d.handle(
            1,
            CoherenceMsg::InvAck {
                line: L,
                with_data: false,
            },
        )
        .unwrap();
        let out = d
            .handle(
                2,
                CoherenceMsg::InvAck {
                    line: L,
                    with_data: false,
                },
            )
            .unwrap();
        assert_eq!(
            out[0],
            OutMsg {
                to: 4,
                msg: CoherenceMsg::Data {
                    grant: Grant::Modified,
                    line: L
                }
            }
        );
        assert_eq!(d.owner_of(L), Some(4));
    }

    #[test]
    fn requests_against_transient_lines_are_deferred_and_replayed() {
        let mut d = dir();
        d.handle(1, req(ReqType::Sh, L)).unwrap(); // DI → DIDSD
        let out = d.handle(2, req(ReqType::Sh, L)).unwrap();
        assert!(out.is_empty(), "z-stalled");
        assert_eq!(d.stats().deferred, 1);
        // Memory returns: node 1 gets Data(E), then the deferred request
        // replays: node 2's read downgrades node 1.
        let out = d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::Data {
                grant: Grant::Exclusive,
                ..
            }
        ));
        assert_eq!(
            out[1],
            OutMsg {
                to: 1,
                msg: CoherenceMsg::Dwg { line: L }
            }
        );
        assert_eq!(d.state_of(L), DirState::DMDSD);
    }

    #[test]
    fn deferred_queue_overflow_nacks() {
        let mut d = dir();
        d.deferred_limit = 2;
        d.handle(1, req(ReqType::Sh, L)).unwrap();
        d.handle(2, req(ReqType::Sh, L)).unwrap();
        d.handle(3, req(ReqType::Sh, L)).unwrap();
        let out = d.handle(4, req(ReqType::Sh, L)).unwrap();
        assert_eq!(
            out,
            vec![OutMsg {
                to: 4,
                msg: CoherenceMsg::Retry { line: L }
            }]
        );
        assert_eq!(d.stats().nacks, 1);
    }

    #[test]
    fn owner_writeback_saves_to_dv() {
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        let out = d.handle(1, CoherenceMsg::WriteBack { line: L }).unwrap();
        assert!(out.is_empty());
        assert_eq!(d.state_of(L), DirState::DV);
        assert_eq!(d.owner_of(L), None);
    }

    #[test]
    fn writeback_crossing_downgrade() {
        // DM.DSᴰ + WriteBack → DM.DSᴬ; then DwgAck → Data(E).
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        d.handle(2, req(ReqType::Sh, L)).unwrap(); // DMDSD, Dwg → 1
        d.handle(1, CoherenceMsg::WriteBack { line: L }).unwrap();
        assert_eq!(d.state_of(L), DirState::DMDSA);
        let out = d
            .handle(
                1,
                CoherenceMsg::DwgAck {
                    line: L,
                    with_data: false,
                },
            )
            .unwrap();
        assert_eq!(
            out[0],
            OutMsg {
                to: 2,
                msg: CoherenceMsg::Data {
                    grant: Grant::Exclusive,
                    line: L
                }
            }
        );
        assert_eq!(d.owner_of(L), Some(2));
    }

    #[test]
    fn writeback_crossing_invalidation() {
        // DM.DMᴰ + WriteBack → DM.DMᴬ; then InvAck → Data(M).
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        d.handle(2, req(ReqType::Ex, L)).unwrap(); // DMDMD
        d.handle(1, CoherenceMsg::WriteBack { line: L }).unwrap();
        assert_eq!(d.state_of(L), DirState::DMDMA);
        let out = d
            .handle(
                1,
                CoherenceMsg::InvAck {
                    line: L,
                    with_data: false,
                },
            )
            .unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::Data {
                grant: Grant::Modified,
                ..
            }
        ));
    }

    #[test]
    fn upgrade_from_non_sharer_is_reinterpreted() {
        let mut d = dir();
        d.handle(1, req(ReqType::Ex, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        d.handle(2, req(ReqType::Sh, L)).unwrap();
        d.handle(
            1,
            CoherenceMsg::DwgAck {
                line: L,
                with_data: true,
            },
        )
        .unwrap();
        // Node 5 never held the line but sends Upg (race artifact).
        let out = d.handle(5, req(ReqType::Upg, L)).unwrap();
        assert_eq!(out.len(), 2, "treated as Ex: invalidate both sharers");
        for (m, to) in out.iter().zip([1, 2]) {
            assert_eq!((m.to, &m.msg), (to, &CoherenceMsg::Inv { line: L }));
        }
        assert_eq!(d.state_of(L), DirState::DSDMDA);
    }

    #[test]
    fn capacity_eviction_of_shared_line() {
        let mut d = Directory::new(0, 99, 4);
        // Fill 5 distinct lines via cold exclusive fetches + writebacks so
        // all are stable DV; the 5th insert must evict the LRU.
        for i in 0..5u64 {
            let line = LineAddr(0x1000 + i * 32);
            d.handle(1, req(ReqType::Ex, line)).unwrap();
            d.handle(99, CoherenceMsg::MemAck { line }).unwrap();
            d.handle(1, CoherenceMsg::WriteBack { line }).unwrap();
        }
        assert!(d.tracked() <= 4);
        assert!(d.stats().evictions >= 1);
        assert!(d.stats().mem_writes >= 1, "DV victim written to memory");
    }

    #[test]
    fn capacity_eviction_of_owned_line_reclaims_data() {
        let mut d = Directory::new(0, 99, 4);
        let mut lines = Vec::new();
        for i in 0..5u64 {
            let line = LineAddr(0x1000 + i * 32);
            lines.push(line);
            d.handle(1, req(ReqType::Ex, line)).unwrap();
            d.handle(99, CoherenceMsg::MemAck { line }).unwrap();
        }
        // The LRU owned line went to DMDID with an Inv to its owner.
        let victim = lines[0];
        assert_eq!(d.state_of(victim), DirState::DMDID);
        let out = d
            .handle(
                1,
                CoherenceMsg::InvAck {
                    line: victim,
                    with_data: true,
                },
            )
            .unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::MemReq { write: true, .. }
        ));
        assert_eq!(d.state_of(victim), DirState::DI);
    }

    #[test]
    fn errors_where_table_says_error() {
        let mut d = dir();
        // WriteBack to an untracked (DI) line.
        assert!(d.handle(1, CoherenceMsg::WriteBack { line: L }).is_err());
        // InvAck in DI.
        assert!(d
            .handle(
                1,
                CoherenceMsg::InvAck {
                    line: L,
                    with_data: false
                }
            )
            .is_err());
        // MemAck in DV.
        to_dv(&mut d, L);
        assert!(d.handle(99, CoherenceMsg::MemAck { line: L }).is_err());
        // DwgAck in DV.
        assert!(d
            .handle(
                1,
                CoherenceMsg::DwgAck {
                    line: L,
                    with_data: false
                }
            )
            .is_err());
    }

    #[test]
    fn owner_rerequest_after_silent_e_drop() {
        let mut d = dir();
        d.handle(1, req(ReqType::Sh, L)).unwrap();
        d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        assert_eq!(d.owner_of(L), Some(1));
        // Node 1 silently dropped its E copy and rereads.
        let out = d.handle(1, req(ReqType::Sh, L)).unwrap();
        assert!(matches!(
            out[0].msg,
            CoherenceMsg::Data {
                grant: Grant::Exclusive,
                ..
            }
        ));
        assert_eq!(d.owner_of(L), Some(1));
    }

    #[test]
    fn l2_eviction_of_owned_line_then_refetch() {
        // Full DMDID → DI → fresh DI fetch path with a deferred request.
        let mut d = Directory::new(0, 99, 4);
        let mut lines = Vec::new();
        for i in 0..5u64 {
            let line = LineAddr(0x1000 + i * 32);
            lines.push(line);
            d.handle(1, req(ReqType::Ex, line)).unwrap();
            d.handle(99, CoherenceMsg::MemAck { line }).unwrap();
        }
        let victim = lines[0];
        // A new request arrives while the eviction is in flight: deferred.
        let out = d.handle(2, req(ReqType::Sh, victim)).unwrap();
        assert!(out.is_empty());
        // Owner's data comes back; line evicts; deferred request replays
        // as a cold miss.
        let out = d
            .handle(
                1,
                CoherenceMsg::InvAck {
                    line: victim,
                    with_data: true,
                },
            )
            .unwrap();
        assert!(out
            .iter()
            .any(|m| matches!(m.msg, CoherenceMsg::MemReq { write: true, .. })));
        assert!(out
            .iter()
            .any(|m| matches!(m.msg, CoherenceMsg::MemReq { write: false, .. })));
        assert_eq!(d.state_of(victim), DirState::DIDSD);
    }

    // ----- the slab and its LRU list ------------------------------------

    fn nth(i: u64) -> LineAddr {
        LineAddr(0x1000 + i * 32)
    }

    /// Lines in LRU order, oldest first — the warm tier's in warm order,
    /// then the slab's list from its head — after checking the order
    /// against the index and the full-scan victim, the deferred side table
    /// against the slots, and the tier against its mask.
    fn lru_order(d: &Directory) -> Vec<LineAddr> {
        let slab_victim = d.slab.slots.get(d.slab.victim() as usize);
        let tier_victim = d.warm.oldest().map(|(_, line)| line);
        d.check_victim(tier_victim.or(slab_victim.map(|s| s.line)));
        d.check_deferred();
        d.check_warm();
        d.lru_order()
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut d = Directory::new(0, 99, 4);
        for i in 0..40 {
            to_dv(&mut d, nth(i)); // each fifth DV line evicts the oldest
            lru_order(&d);
        }
        assert_eq!(d.tracked(), 4);
        assert_eq!(d.stats().evictions, 36);
        assert_eq!(d.slab.slots.len(), 5, "capacity + the insert that evicts");
        assert_eq!(d.slab.slots.capacity(), 5, "grown by use, capped there");
    }

    #[test]
    fn a_fresh_slice_reserves_no_slots() {
        // At the largest capacity a configuration may ask for, a slab
        // reserved up front is 940 MB of address space per slice.
        let mut d = Directory::new(0, 99, 1 << 24);
        assert_eq!(d.slab.slots.capacity(), 0, "nothing before a touch");
        for i in 0..3 {
            to_dv(&mut d, nth(i));
        }
        assert!(d.slab.slots.capacity() < 8, "grown by use");
        // Doubling stops at capacity + 1, the most a slice holds while
        // any line is evictable.
        let mut d = Directory::new(0, 99, 6);
        for i in 0..40 {
            to_dv(&mut d, nth(i));
            assert!(d.slab.slots.capacity() <= 7, "past capacity + 1");
            assert!(d.slab.lru.capacity() <= 7, "stamps past capacity + 1");
        }
    }

    #[test]
    fn touch_moves_any_list_position_to_the_tail() {
        let mut d = dir();
        for i in 0..4 {
            assert!(d.preload(nth(i)));
        }
        assert!(!d.preload(nth(2)), "already tracked");
        assert_eq!(lru_order(&d), [nth(0), nth(1), nth(2), nth(3)]);
        let touch = |d: &mut Directory, i| {
            d.handle(1, req(ReqType::Sh, nth(i))).unwrap(); // DV -> DM
            d.handle(1, CoherenceMsg::WriteBack { line: nth(i) })
                .unwrap();
        };
        touch(&mut d, 3); // the tail stays put
        assert_eq!(lru_order(&d), [nth(0), nth(1), nth(2), nth(3)]);
        touch(&mut d, 0); // the head
        assert_eq!(lru_order(&d), [nth(1), nth(2), nth(3), nth(0)]);
        touch(&mut d, 3); // the middle
        assert_eq!(lru_order(&d), [nth(1), nth(2), nth(0), nth(3)]);
    }

    #[test]
    fn victim_walk_skips_lines_in_flight_and_lines_with_deferred_requests() {
        let mut d = dir();
        d.handle(1, req(ReqType::Sh, nth(0))).unwrap(); // DIDSD: transient
        for i in 1..4 {
            assert!(d.preload(nth(i)));
        }
        let slot_of = |d: &Directory, i| d.index[&nth(i)];
        let s1 = slot_of(&d, 1);
        d.deferred.insert(s1, VecDeque::from([(2, ReqType::Sh)]));
        d.entry(s1).has_deferred = true;
        assert_eq!(lru_order(&d), [nth(0), nth(1), nth(2), nth(3)]);
        assert_eq!(d.slab.victim(), slot_of(&d, 2));
        assert_eq!(d.pop_deferred(s1), Some((2, ReqType::Sh)));
        assert!(d.deferred.is_empty() && !d.entry(s1).has_deferred);
        assert_eq!(d.slab.victim(), s1);
        lru_order(&d);
    }

    #[test]
    fn a_slot_is_56_bytes_with_no_drop_glue() {
        // A 256-node `mp` cell tracks 518 368 warmed lines: at 112 bytes a
        // slot the slabs were ≈ 58 MB of `scale256`'s 70.8 MB peak RSS.
        // With no heap pointer in a slot, a slice's slab frees in one call.
        assert!(std::mem::size_of::<Slot>() <= 56);
        assert!(!std::mem::needs_drop::<Slot>());
    }

    #[test]
    fn node_ids_up_to_255_round_trip_through_a_slot() {
        // At 256 nodes the top id is 255: a `u8` id with `u8::MAX` as its
        // "no node" would alias it.
        let mut d = dir();
        d.handle(255, req(ReqType::Sh, L)).unwrap();
        let out = d.handle(99, CoherenceMsg::MemAck { line: L }).unwrap();
        assert_eq!(out[0].to, 255);
        assert_eq!(d.owner_of(L), Some(255));
        d.handle(254, req(ReqType::Sh, L)).unwrap(); // DMDSD, Dwg → 255
        let dwg_ack = CoherenceMsg::DwgAck {
            line: L,
            with_data: false,
        };
        assert_eq!(d.handle(255, dwg_ack).unwrap()[0].to, 254);
        assert_eq!(d.sharers_of(L), [254, 255]);
        d.handle(255, req(ReqType::Upg, L)).unwrap(); // invalidates 254
        let inv_ack = CoherenceMsg::InvAck {
            line: L,
            with_data: false,
        };
        assert_eq!(d.handle(254, inv_ack).unwrap()[0].to, 255);
        assert_eq!(d.owner_of(L), Some(255));
    }

    #[test]
    #[should_panic(expected = "does not fit a slot")]
    fn a_node_id_past_u16_panics_instead_of_aliasing() {
        let _ = NodeId::new(usize::from(u16::MAX));
    }

    /// Stall-heavy property on one slice: four to eight lines of capacity
    /// over ten lines, a deferred limit of one to four, and requests,
    /// acks, writebacks and memory replies in random order, legal or not
    /// (an illegal one is an error that leaves the slice untouched). The
    /// LRU list and the deferred side table are checked after every
    /// message.
    #[test]
    fn stalls_keep_the_list_and_the_side_table_consistent() {
        use fsoi_check::{vec_of, Checker};
        // Per step: what to send (0–3 a fresh request, 4–6 one owed reply
        // picked by `pick`, 7 a writeback from the owner, 8 a stray ack),
        // a node, a line, and the pick.
        let step = (0u8..9, 0usize..6, 0u64..10, 0usize..64);
        let gen = ((4usize..=8, 1usize..=4), vec_of(step, 1..200));
        Checker::new().check(
            "stalls_keep_the_list_and_the_side_table_consistent",
            gen,
            |((capacity, limit), steps)| {
                let mut d = Directory::new(0, 99, *capacity);
                d.deferred_limit = *limit;
                // Replies the fake L1s and memory owe the slice.
                let mut owed: Vec<(usize, CoherenceMsg)> = Vec::new();
                for &(what, node, l, pick) in steps {
                    let line = nth(l);
                    let (from, msg) = match what {
                        0..=3 => {
                            let kind = [ReqType::Sh, ReqType::Ex, ReqType::Upg, ReqType::Sh];
                            (node, req(kind[usize::from(what)], line))
                        }
                        4..=6 if !owed.is_empty() => owed.swap_remove(pick % owed.len()),
                        7 => (
                            d.owner_of(line).unwrap_or(node),
                            CoherenceMsg::WriteBack { line },
                        ),
                        _ => {
                            let with_data = pick % 2 == 0;
                            let stray = [
                                CoherenceMsg::InvAck { line, with_data },
                                CoherenceMsg::DwgAck { line, with_data },
                                CoherenceMsg::MemAck { line },
                            ];
                            (node, stray[pick % 3])
                        }
                    };
                    if let Ok(out) = d.handle(from, msg) {
                        owed.extend(owed_replies(out));
                    }
                    lru_order(&d);
                }
            },
        );
    }

    #[test]
    fn everything_in_flight_overflows_instead_of_evicting() {
        let mut d = Directory::new(0, 99, 4);
        for i in 0..6 {
            d.handle(1, req(ReqType::Ex, nth(i))).unwrap(); // all DIDMD
        }
        assert_eq!(d.slab.victim(), NIL);
        assert_eq!((d.tracked(), d.stats().evictions), (6, 0));
        // The first fill makes one line evictable; it goes at once (DM:
        // an Inv to its owner), the rest still overflow.
        d.handle(99, CoherenceMsg::MemAck { line: nth(0) }).unwrap();
        assert_eq!(d.state_of(nth(0)), DirState::DMDID);
        assert_eq!((d.tracked(), d.stats().evictions), (6, 1));
        lru_order(&d);
    }

    // ----- the warm tier and its per-line reference --------------------

    /// `count` consecutive lines from `nth(i)`.
    fn run_at(i: u64, count: u64) -> LineRun {
        LineRun::contiguous(nth(i), count, 32)
    }

    /// Slice 0 of a one-slice map of `runs`, warmed.
    fn warmed(capacity_lines: usize, runs: &[LineRun]) -> Directory {
        let map = Rc::new(WarmMap::new(runs.iter().copied(), 32, 1));
        Directory::warmed(0, 99, capacity_lines, &map)
    }

    /// The eager image the warm tier replaced: `new`, then one `preload`
    /// per line, each line in a slot of its own.
    fn per_line_warm(node: usize, capacity_lines: usize, runs: &[LineRun]) -> Directory {
        let mut d = Directory::new(node, 99, capacity_lines);
        for line in runs.iter().flat_map(|r| r.lines()) {
            d.preload(line);
        }
        d
    }

    /// The replies the fake L1s and memory owe the slice for its reaction
    /// `out`, each with the node that sends it.
    fn owed_replies(out: Vec<OutMsg>) -> impl Iterator<Item = (usize, CoherenceMsg)> {
        out.into_iter().filter_map(|o| {
            let line = o.msg.line();
            let reply = match o.msg {
                CoherenceMsg::MemReq { write: false, .. } => CoherenceMsg::MemAck { line },
                CoherenceMsg::Inv { .. } => CoherenceMsg::InvAck {
                    line,
                    with_data: false,
                },
                CoherenceMsg::Dwg { .. } => CoherenceMsg::DwgAck {
                    line,
                    with_data: false,
                },
                _ => return None,
            };
            Some((o.to, reply))
        })
    }

    #[test]
    fn warmed_keeps_call_order_and_stops_at_capacity() {
        let mut d = warmed(5, &[run_at(10, 3), run_at(0, 4), run_at(20, 2)]);
        assert_eq!(lru_order(&d), [nth(10), nth(11), nth(12), nth(0), nth(1)]);
        assert_eq!((d.tracked(), d.tick), (5, 5));
        assert_eq!(d.state_of(nth(0)), DirState::DV);
        assert_eq!(d.state_of(nth(2)), DirState::DI, "cut mid-run");
        assert_eq!(d.state_of(nth(20)), DirState::DI, "never reached");
        // A request takes its line to the tail; the rest keep warm order.
        d.handle(1, req(ReqType::Sh, nth(11))).unwrap();
        assert_eq!(lru_order(&d), [nth(10), nth(12), nth(0), nth(1), nth(11)]);
        assert_eq!((d.tracked(), d.tick), (5, 6));
        // A line past capacity evicts the oldest warm line.
        let out = d.handle(1, req(ReqType::Sh, nth(2))).unwrap();
        let write = CoherenceMsg::MemReq {
            line: nth(10),
            write: true,
        };
        assert_eq!(out[1], OutMsg { to: 99, msg: write });
        assert_eq!(lru_order(&d), [nth(12), nth(0), nth(1), nth(11), nth(2)]);
        assert_eq!(d.state_of(nth(10)), DirState::DI, "evicted");
        let empty = warmed(4, &[run_at(0, 0)]);
        assert_eq!(lru_order(&empty), []);
        assert_eq!((empty.tracked(), empty.tick), (0, 0));
    }

    #[test]
    fn only_a_request_takes_a_line_out_of_the_warm_tier() {
        let runs = [run_at(0, 4)];
        let (mut lazy, mut eager) = (warmed(8, &runs), per_line_warm(0, 8, &runs));
        let line = nth(1);
        for msg in [
            CoherenceMsg::WriteBack { line },
            CoherenceMsg::InvAck {
                line,
                with_data: true,
            },
            CoherenceMsg::DwgAck {
                line,
                with_data: false,
            },
            CoherenceMsg::MemAck { line },
            CoherenceMsg::Inv { line },
        ] {
            let err = lazy.handle(1, msg).unwrap_err();
            assert_eq!(err.state, "DV", "{msg:?}");
            assert_eq!(Err(err), eager.handle(1, msg), "{msg:?}");
            assert_eq!(
                lru_order(&lazy),
                [nth(0), nth(1), nth(2), nth(3)],
                "{msg:?}"
            );
            assert!(lazy.index.is_empty(), "{msg:?} put a warm line in a slot");
        }
        let out = lazy.handle(1, req(ReqType::Sh, line)).unwrap();
        assert_eq!(out, eager.handle(1, req(ReqType::Sh, line)).unwrap());
        assert_eq!(lru_order(&lazy), [nth(0), nth(2), nth(3), nth(1)]);
        assert_eq!(lru_order(&lazy), lru_order(&eager));
    }

    #[test]
    #[should_panic(expected = "warm-up runs overlap")]
    fn warm_map_rejects_overlapping_runs() {
        WarmMap::new([run_at(3, 4), run_at(0, 4)], 32, 4);
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn warm_map_rejects_a_run_that_is_not_contiguous() {
        let run = LineRun {
            stride: 64,
            ..run_at(0, 2)
        };
        WarmMap::new([run], 32, 1);
    }

    /// Random disjoint contiguous runs, laid out ascending from arbitrary
    /// line numbers and called in `key` order. Per run: the gap before it
    /// (in lines), its length (one in four at most 11 lines, empties and
    /// runs shorter than a slice count among them) and its key.
    fn shuffled_runs(shapes: &[(u64, u64, u64)]) -> Vec<LineRun> {
        let mut next = 0u64;
        let mut keyed: Vec<(u64, LineRun)> = shapes
            .iter()
            .map(|&(gap, len, key)| {
                let count = if len < 150 { len % 12 } else { len - 150 };
                let first = next + gap;
                next = first + count;
                (key, run_at(first, count))
            })
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, run)| run).collect()
    }

    /// The warm tier against the eager image: one random slice of a
    /// random map of 1 ..= 9 slices, warmed from the shared map and, line
    /// by line, from its `homed_at` split; then one random message script
    /// on both — requests from random nodes over warm, cut and never-warm
    /// lines (the last next to a run, one past its end, or a line of the
    /// map homed at another slice), the replies they are owed, writebacks
    /// from the owner or a stranger, and stray acks. After every message
    /// both agree on the reaction (or the error), the line's state,
    /// sharers and owner, a probe line of each kind, `tracked()`, every
    /// statistic and the LRU order.
    #[test]
    fn lazy_warm_equals_eager_preload() {
        use fsoi_check::{select, vec_of, Checker};
        use std::cell::Cell;
        let run = (0u64..20, 0u64..600, 0u64..1000);
        // Per step: what to send (0–3 a request, 4–5 an owed reply, 6 a
        // writeback, 7 a stray ack), a node, the kind of line (warm, cut,
        // never warm) and a pick.
        let step = (0u8..8, 0usize..6, 0usize..3, 0usize..4096);
        // Capacity, deferred limit, slice count and slice; runs; steps.
        let gen = (
            (
                select(&[4usize, 5, 13, 64, 2048]),
                1usize..=4,
                1usize..=9,
                0usize..9,
            ),
            vec_of(run, 0..12),
            vec_of(step, 1..200),
        );
        let (cases, evicting) = (Cell::new(0u32), Cell::new(0u32));
        let check = "lazy_warm_equals_eager_preload";
        Checker::new().check(check, gen, |((cap, limit, nodes, slice), shapes, steps)| {
            let (nodes, runs) = (*nodes, shuffled_runs(shapes));
            let node = slice % nodes;
            let map = Rc::new(WarmMap::new(runs.iter().copied(), 32, nodes));
            let homed: Vec<LineRun> = runs.iter().map(|r| r.homed_at(node, 32, nodes)).collect();
            let mut lazy = Directory::warmed(node, 99, *cap, &map);
            let mut eager = per_line_warm(node, *cap, &homed);
            (lazy.deferred_limit, eager.deferred_limit) = (*limit, *limit);
            assert_eq!(lru_order(&lazy), lru_order(&eager));
            let all: Vec<LineAddr> = homed.iter().flat_map(|r| r.lines()).collect();
            let (warm, cut) = all.split_at(all.len().min(*cap));
            let member: std::collections::BTreeSet<LineAddr> =
                runs.iter().flat_map(|r| r.lines()).collect();
            let mut never: Vec<LineAddr> = runs
                .iter()
                .flat_map(|r| [r.first.0 - 32, r.first.0 + r.count * 32])
                .map(LineAddr)
                .filter(|line| !member.contains(line))
                .collect();
            never.extend(member.iter().filter(|line| line.home(32, nodes) != node));
            never.push(nth(1 << 20));
            let pools = [warm, cut, &never[..]];
            let mut owed: Vec<(usize, CoherenceMsg)> = Vec::new();
            for &(what, node, kind, pick) in steps {
                let pool = Some(pools[kind]).filter(|p| !p.is_empty());
                let line = pool.map_or(never[0], |p| p[pick % p.len()]);
                let (from, msg) = match what {
                    0..=3 => {
                        let kind = [ReqType::Sh, ReqType::Ex, ReqType::Upg, ReqType::Sh];
                        (node, req(kind[usize::from(what)], line))
                    }
                    4 | 5 if !owed.is_empty() => owed.swap_remove(pick % owed.len()),
                    6 => {
                        let owner = eager.owner_of(line).filter(|_| pick % 2 == 0);
                        (owner.unwrap_or(node), CoherenceMsg::WriteBack { line })
                    }
                    _ => {
                        let with_data = pick % 2 == 0;
                        let stray = [
                            CoherenceMsg::InvAck { line, with_data },
                            CoherenceMsg::DwgAck { line, with_data },
                            CoherenceMsg::MemAck { line },
                        ];
                        (node, stray[pick % 3])
                    }
                };
                let reaction = lazy.handle(from, msg);
                assert_eq!(reaction, eager.handle(from, msg), "{msg:?} from {from}");
                let probes = pools.map(|p| p.get(pick % p.len().max(1)).copied());
                for line in probes.into_iter().flatten().chain([msg.line()]) {
                    assert_eq!(lazy.state_of(line), eager.state_of(line), "{line}");
                    assert_eq!(lazy.sharers_of(line), eager.sharers_of(line), "{line}");
                    assert_eq!(lazy.sharer_count_of(line), eager.sharer_count_of(line));
                    assert_eq!(lazy.owner_of(line), eager.owner_of(line), "{line}");
                }
                assert_eq!(lazy.tracked(), eager.tracked());
                assert_eq!(
                    format!("{:?}", lazy.stats()),
                    format!("{:?}", eager.stats())
                );
                assert_eq!(lru_order(&lazy), lru_order(&eager), "{msg:?} from {from}");
                if let Ok(out) = reaction {
                    owed.extend(owed_replies(out));
                }
            }
            cases.set(cases.get() + 1);
            evicting.set(evicting.get() + u32::from(lazy.stats().evictions > 0));
        });
        // The scripts reach eviction, the tier's and the slab's.
        if cases.get() >= 16 {
            assert!(
                2 * evicting.get() >= cases.get(),
                "{evicting:?} of {cases:?}"
            );
        }
    }
}
