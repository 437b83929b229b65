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
//! Entries live in a slab (`Slab`): a `Vec` of slots reserved once for
//! the slice's capacity, a free list, and an intrusive doubly-linked LRU
//! list through the occupied slots. An ordered index maps a line to its
//! slot; a handled message looks the line up there once and every handler
//! then works on the slot number.

use crate::protocol::{
    CoherenceMsg, DirState, Grant, LineAddr, LineRun, OutMsg, ProtocolError, ReqType,
};
use fsoi_sim::det::{DetMap, NodeMask, NodeMaskIter};
use fsoi_sim::trace::{self, TraceEvent};
use fsoi_sim::Cycle;
use std::collections::VecDeque;

/// Directory statistics.
#[derive(Debug, Default)]
pub struct DirStats {
    /// Requests processed (including replays).
    pub requests: u64,
    /// Data replies sent.
    pub data_replies: u64,
    /// ExcAcks sent (upgrade grants).
    pub exc_acks: u64,
    /// Invalidations sent.
    pub invalidations: u64,
    /// Downgrades sent.
    pub downgrades: u64,
    /// Retry NACKs sent.
    pub nacks: u64,
    /// Upgrade requests reinterpreted as exclusive.
    pub reinterpreted: u64,
    /// Memory reads issued.
    pub mem_reads: u64,
    /// Memory writebacks issued.
    pub mem_writes: u64,
    /// Requests stalled into deferred queues.
    pub deferred: u64,
    /// L2 capacity evictions performed.
    pub evictions: u64,
}

#[derive(Debug)]
struct DirEntry {
    state: DirState,
    owner: usize,
    sharers: NodeMask,
    acks_pending: u32,
    requester: usize,
    deferred: VecDeque<(usize, ReqType)>,
    lru: u64,
}

impl DirEntry {
    fn new(state: DirState, lru: u64) -> Self {
        DirEntry {
            state,
            owner: usize::MAX,
            sharers: NodeMask::new(),
            acks_pending: 0,
            requester: usize::MAX,
            deferred: VecDeque::new(),
            lru,
        }
    }

    /// Number of sharers, straight off the bit mask (no allocation).
    fn sharer_count(&self) -> usize {
        self.sharers.len()
    }

    /// Iterates set sharer bits in ascending node order. The iterator
    /// copies the mask, so the entry may be mutated while it is live.
    fn sharer_iter(&self) -> NodeMaskIter {
        self.sharers.iter()
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

    /// May capacity eviction pick this entry?
    fn evictable(&self) -> bool {
        self.state.is_stable() && self.deferred.is_empty()
    }
}

/// Null link / "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    line: LineAddr,
    entry: DirEntry,
    prev: u32,
    next: u32,
}

/// Entry storage: slots threaded into an LRU list (`head` = oldest), free
/// slots chained through `next` from `free`. Every `lru` stamp is a fresh
/// directory tick and a stamped slot goes to the tail, so stamps are
/// unique and list order *is* ascending-`lru` order: the first evictable
/// slot from the head is the `min_by_key(lru)` of the evictable set.
#[derive(Debug)]
struct Slab {
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    free: u32,
}

impl Slab {
    /// Stores `entry` for `line` as the most recently used slot.
    fn alloc(&mut self, line: LineAddr, entry: DirEntry) -> u32 {
        let slot = Slot {
            line,
            entry,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free {
            NIL => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            s => {
                self.free = std::mem::replace(&mut self.slots[s as usize], slot).next;
                s
            }
        };
        self.push_tail(s);
        s
    }

    /// Frees slot `s`. A free slot reads as `DI`, so `handle_into` may ask
    /// a slot that capacity eviction (which never allocates) just freed.
    fn release(&mut self, s: u32) {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        slot.entry = DirEntry::new(DirState::DI, 0);
        slot.next = self.free;
        self.free = s;
    }

    /// After a fresh `lru` stamp on slot `s`: restores list order.
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
        debug_assert!(
            t == NIL || self.slots[t as usize].entry.lru < self.slots[s as usize].entry.lru,
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

/// One node's directory + L2 slice controller.
#[derive(Debug)]
pub struct Directory {
    node: usize,
    mem_node: usize,
    capacity_lines: usize,
    deferred_limit: usize,
    // Line → slot. Ordered (lint rule D1), though nothing iterates it
    // outside the debug cross-check.
    index: DetMap<LineAddr, u32>,
    slab: Slab,
    tick: u64,
    stats: DirStats,
}

impl Directory {
    /// Creates the slice at `node`, backed by the memory controller at
    /// `mem_node`, holding up to `capacity_lines` resident lines.
    pub fn new(node: usize, mem_node: usize, capacity_lines: usize) -> Self {
        assert!(capacity_lines >= 4, "L2 slice too small to be useful");
        Directory {
            node,
            mem_node,
            capacity_lines,
            deferred_limit: 16,
            index: DetMap::new(),
            // Reserved once (pages never touched cost no memory), one past
            // capacity for the insert that triggers an eviction: a slab
            // left to grow by doubling peaked 12 % higher in resident size.
            slab: Slab {
                slots: Vec::with_capacity(capacity_lines + 1),
                head: NIL,
                tail: NIL,
                free: NIL,
            },
            tick: 0,
            stats: DirStats::default(),
        }
    }

    /// This slice's node id.
    pub fn node(&self) -> usize {
        self.node
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
        self.get(line).map_or(DirState::DI, |e| e.state)
    }

    /// The current sharers of a line.
    pub fn sharers_of(&self, line: LineAddr) -> Vec<usize> {
        self.get(line)
            .map_or(Vec::new(), |e| e.sharer_iter().collect())
    }

    /// Number of sharers of a line, without materializing the list.
    pub fn sharer_count_of(&self, line: LineAddr) -> usize {
        self.get(line).map_or(0, |e| e.sharer_count())
    }

    /// The owner of a line in `DM`, if any.
    pub fn owner_of(&self, line: LineAddr) -> Option<usize> {
        self.get(line)
            .filter(|e| e.state == DirState::DM)
            .map(|e| e.owner)
    }

    /// Number of tracked lines (resident + transient).
    pub fn tracked(&self) -> usize {
        self.index.len()
    }

    /// The slice at `node` with its L2 warmed: the lines of `runs`, in
    /// order, resident-valid (`DV`) up to `capacity_lines`, as if each had
    /// been fetched and written back before the measured window (the paper
    /// measures steady-state windows, e.g. "between a fixed number of
    /// barrier instances").
    ///
    /// Built in bulk — one slab `extend`, one index build from the runs
    /// sorted by base — and equal to [`new`](Self::new) followed by a
    /// per-line `preload` of every line (the test-only reference): the
    /// `i`-th line kept takes slot `i`, list position `i` and LRU stamp
    /// `i + 1`, and the slice's tick ends at the number kept.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new), and if two runs overlap or a run repeats a
    /// line (zero stride): the bulk index needs disjoint ascending runs.
    pub fn warmed(
        node: usize,
        mem_node: usize,
        capacity_lines: usize,
        runs: impl IntoIterator<Item = LineRun>,
    ) -> Self {
        let mut dir = Directory::new(node, mem_node, capacity_lines);
        // Each run's kept prefix, with the slot of its first line.
        let mut kept: Vec<(LineRun, u32)> = Vec::new();
        let mut k = 0;
        for run in runs {
            if k == capacity_lines {
                break;
            }
            let count = run.count.min((capacity_lines - k) as u64);
            if count > 0 {
                assert!(count == 1 || run.stride > 0, "warm-up run repeats a line");
                kept.push((LineRun { count, ..run }, k as u32));
                k += count as usize;
            }
        }
        let lines = kept.iter().flat_map(|&(run, _)| run.lines());
        dir.slab
            .slots
            .extend(lines.enumerate().map(|(i, line)| Slot {
                line,
                entry: DirEntry::new(DirState::DV, i as u64 + 1),
                prev: if i == 0 { NIL } else { i as u32 - 1 },
                next: if i + 1 == k { NIL } else { i as u32 + 1 },
            }));
        if k > 0 {
            (dir.slab.head, dir.slab.tail) = (0, k as u32 - 1);
        }
        dir.tick = k as u64;
        kept.sort_unstable_by_key(|&(run, _)| run.first);
        for pair in kept.windows(2) {
            assert!(
                pair[0].0.last() < Some(pair[1].0.first),
                "warm-up runs overlap"
            );
        }
        // Ascending already: the map's bulk build finds one sorted run.
        dir.index = kept
            .iter()
            .flat_map(|&(run, slot)| run.lines().zip(slot..))
            .collect();
        #[cfg(debug_assertions)]
        dir.check_victim(dir.slab.victim());
        dir
    }

    /// Functionally pre-loads a line as resident-valid (`DV`): the
    /// per-line slow reference [`warmed`](Self::warmed) is tested equal to.
    /// No-op if the line is already tracked or the slice is full.
    #[cfg(test)]
    fn preload(&mut self, line: LineAddr) -> bool {
        if self.index.len() >= self.capacity_lines {
            return false;
        }
        let std::collections::btree_map::Entry::Vacant(vacant) = self.index.entry(line) else {
            return false;
        };
        self.tick += 1;
        vacant.insert(
            self.slab
                .alloc(line, DirEntry::new(DirState::DV, self.tick)),
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
        // The one index lookup of the message: the handlers below take the
        // line's slot (`NIL` = untracked) and hand back where it ended up.
        let mut slot = self.index.get(&line).copied().unwrap_or(NIL);
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

    /// The state held in `slot` (`DI` for `NIL` and for a freed slot).
    fn state_at(&self, slot: u32) -> DirState {
        self.slab
            .slots
            .get(slot as usize)
            .map_or(DirState::DI, |s| s.entry.state)
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
            self.entry(slot).lru = self.tick;
            self.slab.move_to_tail(slot);
        }
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
                // Fetch from memory; Upg is reinterpreted (the requester
                // cannot really hold a copy of an unresident line).
                if kind == ReqType::Upg {
                    kind = ReqType::Ex;
                    self.stats.reinterpreted += 1;
                }
                let next = if kind == ReqType::Sh {
                    DirState::DIDSD
                } else {
                    DirState::DIDMD
                };
                self.tick += 1;
                let mut e = DirEntry::new(next, self.tick);
                e.requester = from;
                if slot == NIL {
                    slot = self.slab.alloc(line, e);
                    self.index.insert(line, slot);
                } else {
                    *self.entry(slot) = e; // over a DI placeholder mid-replay
                    self.slab.move_to_tail(slot);
                }
                self.stats.mem_reads += 1;
                out.push(OutMsg {
                    to: self.mem_node,
                    msg: CoherenceMsg::MemReq { line, write: false },
                });
            }
            DirState::DV => {
                if kind == ReqType::Upg {
                    kind = ReqType::Ex;
                    self.stats.reinterpreted += 1;
                }
                let e = self.entry(slot);
                e.state = DirState::DM;
                e.owner = from;
                let grant = if kind == ReqType::Sh {
                    Grant::Exclusive
                } else {
                    Grant::Modified
                };
                self.stats.data_replies += 1;
                out.push(OutMsg {
                    to: from,
                    msg: CoherenceMsg::Data { grant, line },
                });
            }
            DirState::DS => {
                if kind == ReqType::Upg && !self.entry(slot).is_sharer(from) {
                    // The requester's copy died in a race: full exclusive.
                    kind = ReqType::Ex;
                    self.stats.reinterpreted += 1;
                }
                match kind {
                    ReqType::Sh => {
                        self.entry(slot).add_sharer(from);
                        self.stats.data_replies += 1;
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
                        let victims = e.sharer_iter();
                        e.acks_pending = e.sharer_count() as u32;
                        e.requester = from;
                        e.sharers.clear();
                        for v in victims {
                            self.stats.invalidations += 1;
                            out.push(OutMsg {
                                to: v,
                                msg: CoherenceMsg::Inv { line },
                            });
                        }
                        let e = self.entry(slot);
                        if e.acks_pending == 0 {
                            e.state = DirState::DM;
                            e.owner = from;
                            if upgrade {
                                self.stats.exc_acks += 1;
                                out.push(OutMsg {
                                    to: from,
                                    msg: CoherenceMsg::ExcAck { line },
                                });
                            } else {
                                self.stats.data_replies += 1;
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
                let owner = e.owner;
                if from == owner {
                    // The owner silently dropped a clean E copy and missed
                    // again: regrant directly.
                    let grant = if kind == ReqType::Sh {
                        Grant::Exclusive
                    } else {
                        Grant::Modified
                    };
                    self.stats.data_replies += 1;
                    out.push(OutMsg {
                        to: from,
                        msg: CoherenceMsg::Data { grant, line },
                    });
                    return slot;
                }
                e.requester = from;
                match kind {
                    ReqType::Sh => {
                        e.state = DirState::DMDSD;
                        self.stats.downgrades += 1;
                        out.push(OutMsg {
                            to: owner,
                            msg: CoherenceMsg::Dwg { line },
                        });
                    }
                    ReqType::Ex | ReqType::Upg => {
                        e.state = DirState::DMDMD;
                        if kind == ReqType::Upg {
                            self.stats.reinterpreted += 1;
                        }
                        self.stats.invalidations += 1;
                        out.push(OutMsg {
                            to: owner,
                            msg: CoherenceMsg::Inv { line },
                        });
                    }
                }
            }
            // Transient: stall (`z`) or NACK when the queue is full.
            _ => {
                let limit = self.deferred_limit;
                let e = self.entry(slot);
                if e.deferred.len() >= limit {
                    self.stats.nacks += 1;
                    out.push(OutMsg {
                        to: from,
                        msg: CoherenceMsg::Retry { line },
                    });
                } else {
                    e.deferred.push_back((from, kind));
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
                if e.owner != from {
                    return Err(self.error(line, slot, "WriteBack(non-owner)"));
                }
                e.state = DirState::DV;
                e.owner = usize::MAX;
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
                    let to = e.requester;
                    self.stats.data_replies += 1;
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
                    let to = e.requester;
                    self.stats.exc_acks += 1;
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
                let to = e.requester;
                self.stats.data_replies += 1;
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
                let owner = e.owner;
                let req = e.requester;
                e.owner = usize::MAX;
                e.sharers.clear();
                e.add_sharer(owner);
                e.add_sharer(req);
                self.stats.data_replies += 1;
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
                let to = e.requester;
                self.stats.data_replies += 1;
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
                let to = e.requester;
                self.stats.data_replies += 1;
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
    /// Deferred requests stay behind on a `DI` placeholder in the same
    /// slot for [`drain_deferred`](Self::handle_into) to replay against
    /// the now-DI line. Returns the line's slot afterwards.
    fn remove_with_memory_writeback(
        &mut self,
        line: LineAddr,
        slot: u32,
        out: &mut Vec<OutMsg>,
    ) -> u32 {
        self.stats.mem_writes += 1;
        out.push(OutMsg {
            to: self.mem_node,
            msg: CoherenceMsg::MemReq { line, write: true },
        });
        let deferred = std::mem::take(&mut self.entry(slot).deferred);
        if deferred.is_empty() {
            self.index.remove(&line);
            self.slab.release(slot);
            return NIL;
        }
        self.tick += 1;
        let mut e = DirEntry::new(DirState::DI, self.tick);
        e.deferred = deferred;
        *self.entry(slot) = e;
        self.slab.move_to_tail(slot);
        slot
    }

    /// Replays deferred requests while the line is stable (or DI);
    /// returns the line's slot afterwards.
    fn drain_deferred(&mut self, line: LineAddr, mut slot: u32, out: &mut Vec<OutMsg>) -> u32 {
        for _ in 0..64 {
            if slot == NIL {
                break;
            }
            let e = self.entry(slot);
            if !e.state.is_stable() {
                break;
            }
            let Some((from, kind)) = e.deferred.pop_front() else {
                if e.state == DirState::DI {
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
            // entry, so carry the rest of its queue over.
            let rest = if e.state == DirState::DI {
                std::mem::take(&mut e.deferred)
            } else {
                VecDeque::new()
            };
            slot = self.handle_request(from, kind, line, slot, out);
            self.entry(slot).deferred.extend(rest);
        }
        slot
    }

    /// Evicts LRU stable lines while over capacity ("Repl" events).
    fn enforce_capacity(&mut self, out: &mut Vec<OutMsg>) {
        while self.index.len() > self.capacity_lines {
            let slot = self.slab.victim();
            #[cfg(debug_assertions)]
            self.check_victim(slot);
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
                    let victims = e.sharer_iter();
                    e.acks_pending = e.sharer_count() as u32;
                    e.sharers.clear();
                    if e.acks_pending == 0 {
                        self.remove_with_memory_writeback(line, slot, out);
                    } else {
                        e.state = DirState::DSDIA;
                        for v in victims {
                            self.stats.invalidations += 1;
                            out.push(OutMsg {
                                to: v,
                                msg: CoherenceMsg::Inv { line },
                            });
                        }
                    }
                }
                DirState::DM => {
                    e.state = DirState::DMDID;
                    let owner = e.owner;
                    self.stats.invalidations += 1;
                    out.push(OutMsg {
                        to: owner,
                        msg: CoherenceMsg::Inv { line },
                    });
                }
                _ => unreachable!("victims are stable"),
            }
        }
    }

    /// The reference the LRU list is checked against: the list covers
    /// exactly the indexed slots in strictly ascending `lru` order, and
    /// its victim is the full scan's `min_by_key(lru)` over the evictable
    /// entries.
    #[cfg(any(debug_assertions, test))]
    fn check_victim(&self, victim: u32) {
        let slots = &self.slab.slots;
        let (mut s, mut prev, mut listed) = (self.slab.head, NIL, 0);
        while s != NIL {
            let slot = &slots[s as usize];
            assert_eq!(
                self.index.get(&slot.line),
                Some(&s),
                "listed slot is indexed"
            );
            assert_eq!(slot.prev, prev, "back link");
            assert!(prev == NIL || slots[prev as usize].entry.lru < slot.entry.lru);
            (prev, s, listed) = (s, slot.next, listed + 1);
        }
        assert_eq!(self.slab.tail, prev);
        assert_eq!(listed, self.index.len(), "every indexed slot is listed");
        let scanned = self
            .index
            .values()
            .filter(|&&s| slots[s as usize].entry.evictable())
            .min_by_key(|&&s| slots[s as usize].entry.lru);
        assert_eq!(
            scanned.copied().unwrap_or(NIL),
            victim,
            "list victim == scan victim"
        );
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
        assert_eq!(d.stats().reinterpreted, 1);
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

    /// Lines in LRU-list order, head (oldest) first, after checking the
    /// list against the index and the full-scan victim.
    fn lru_order(d: &Directory) -> Vec<LineAddr> {
        d.check_victim(d.slab.victim());
        let mut order = Vec::new();
        let mut s = d.slab.head;
        while s != NIL {
            order.push(d.slab.slots[s as usize].line);
            s = d.slab.slots[s as usize].next;
        }
        order
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
        assert_eq!(d.slab.slots.capacity(), 5, "reserved once, never regrown");
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
        d.entry(s1).deferred.push_back((2, ReqType::Sh));
        assert_eq!(lru_order(&d), [nth(0), nth(1), nth(2), nth(3)]);
        assert_eq!(d.slab.victim(), slot_of(&d, 2));
        d.entry(s1).deferred.clear();
        assert_eq!(d.slab.victim(), s1);
        lru_order(&d);
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

    // ----- the bulk warm-up and its per-line reference ------------------

    /// `count` consecutive lines from `nth(i)`.
    fn run_at(i: u64, count: u64) -> LineRun {
        LineRun::contiguous(nth(i), count, 32)
    }

    /// The reference `warmed` replaced: `new`, then one `preload` per line.
    fn per_line_warm(capacity_lines: usize, runs: &[LineRun]) -> Directory {
        let mut d = Directory::new(0, 99, capacity_lines);
        for line in runs.iter().flat_map(|r| r.lines()) {
            d.preload(line);
        }
        d
    }

    /// What a warm-up sets.
    #[derive(Debug, PartialEq)]
    struct WarmImage {
        index: Vec<(LineAddr, u32)>,
        /// Each slot's line, state, stamp and links, in slab order.
        slots: Vec<(LineAddr, DirState, u64, u32, u32)>,
        /// The list's head and tail, and the free list's head.
        ends: [u32; 3],
        tick: u64,
    }

    fn warm_image(d: &Directory) -> WarmImage {
        let slots = d.slab.slots.iter();
        WarmImage {
            index: d.index.iter().map(|(&line, &s)| (line, s)).collect(),
            slots: slots
                .map(|s| (s.line, s.entry.state, s.entry.lru, s.prev, s.next))
                .collect(),
            ends: [d.slab.head, d.slab.tail, d.slab.free],
            tick: d.tick,
        }
    }

    #[test]
    fn warmed_keeps_call_order_and_stops_at_capacity() {
        let d = Directory::warmed(0, 99, 5, [run_at(10, 3), run_at(0, 4), run_at(20, 2)]);
        assert_eq!(lru_order(&d), [nth(10), nth(11), nth(12), nth(0), nth(1)]);
        assert_eq!((d.tracked(), d.tick), (5, 5));
        assert_eq!(d.state_of(nth(0)), DirState::DV);
        assert_eq!(d.state_of(nth(2)), DirState::DI, "cut mid-run");
        assert_eq!(d.state_of(nth(20)), DirState::DI, "never reached");
        let empty = Directory::warmed(0, 99, 4, [run_at(0, 0)]);
        assert_eq!(
            format!("{empty:?}"),
            format!("{:?}", Directory::new(0, 99, 4))
        );
    }

    #[test]
    #[should_panic(expected = "warm-up runs overlap")]
    fn warmed_rejects_overlapping_runs() {
        Directory::warmed(0, 99, 64, [run_at(3, 4), run_at(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "repeats a line")]
    fn warmed_rejects_a_zero_stride() {
        let run = LineRun {
            stride: 0,
            ..run_at(0, 2)
        };
        Directory::warmed(0, 99, 64, [run]);
    }

    #[test]
    fn warmed_equals_per_line_preload() {
        use fsoi_check::{select, vec_of, Checker};
        // Per run: the gap before it and its stride (in lines), its length
        // (a quarter of the runs empty) and its place in the call order.
        let run = (0u64..6, 1u64..5, 0u64..500, 0u64..1000);
        let gen = (select(&[4usize, 5, 13, 64, 2048]), vec_of(run, 0..12));
        Checker::new().check("warmed_equals_per_line_preload", gen, |(cap, shapes)| {
            // Laid out disjoint and ascending, called in key order.
            let mut next = 0u64;
            let mut keyed: Vec<(u64, LineRun)> = shapes
                .iter()
                .map(|&(gap, stride, len, key)| {
                    let count = len.saturating_sub(125);
                    let first = nth(next + gap);
                    next += gap + stride * count;
                    (
                        key,
                        LineRun {
                            first,
                            stride: stride * 32,
                            count,
                        },
                    )
                })
                .collect();
            keyed.sort_by_key(|&(key, _)| key);
            let runs: Vec<LineRun> = keyed.into_iter().map(|(_, run)| run).collect();
            let bulk = Directory::warmed(0, 99, *cap, runs.iter().copied());
            let slow = per_line_warm(*cap, &runs);
            assert_eq!(warm_image(&bulk), warm_image(&slow));
            let reserved = (bulk.slab.slots.capacity(), slow.slab.slots.capacity());
            assert_eq!(reserved.0, reserved.1, "the slab is reserved once");
            assert_eq!(format!("{bulk:?}"), format!("{slow:?}"));
            lru_order(&bulk);
        });
    }
}
