//! The L1 cache controller — upper half of Table 2.
//!
//! Stable states M/E/S/I live in the cache array; transient states
//! (`I.Sᴰ`, `I.Mᴰ`, `S.Mᴬ`) live in MSHRs. Processor reads/writes that
//! cannot be satisfied return a miss (the core blocks or continues per its
//! own policy); network events drive the transitions, including the racy
//! ones: invalidations landing on transient lines, and the
//! upgrade-vs-invalidation race that turns `S.Mᴬ` into `I.Mᴰ`.

use crate::cache::{AllocOutcome, CacheArray};
use crate::protocol::{CoherenceMsg, Grant, L1State, LineAddr, OutMsg, ProtocolError, ReqType};

/// What happened on a processor access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The access completed in cache.
    pub hit: bool,
    /// The access could not even allocate an MSHR (structural stall —
    /// retry next cycle). Implies `!hit`.
    pub stalled: bool,
    /// Messages to transmit.
    pub out: Vec<OutMsg>,
}

impl Access {
    fn hit() -> Self {
        Access {
            hit: true,
            stalled: false,
            out: Vec::new(),
        }
    }

    fn miss(out: Vec<OutMsg>) -> Self {
        Access {
            hit: false,
            stalled: false,
            out,
        }
    }

    fn stall() -> Self {
        Access {
            hit: false,
            stalled: true,
            out: Vec::new(),
        }
    }
}

/// Result of a network event at the L1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct L1Reaction {
    /// Messages to transmit.
    pub out: Vec<OutMsg>,
    /// A miss completed: the processor's outstanding access to this line
    /// may resume.
    pub completed: Option<LineAddr>,
}

/// Per-miss bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mshr {
    state: L1State,
}

/// L1 statistics.
#[derive(Debug, Default)]
pub struct L1Stats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses (including upgrades).
    pub write_misses: u64,
}

/// The L1 cache controller of one node.
#[derive(Debug)]
pub struct L1Controller {
    node: usize,
    array: CacheArray<L1State>,
    /// Open MSHRs, at most `max_mshrs` of them: searched by line, never
    /// iterated, so their order reaches no result.
    mshrs: Vec<(LineAddr, Mshr)>,
    max_mshrs: usize,
    home_nodes: usize,
    stats: L1Stats,
}

impl L1Controller {
    /// Creates the controller: `capacity_bytes`/`ways`/`line_bytes` shape
    /// the array (Table 3: 8 KB, 2-way, 32 B). `node` is this L1's node
    /// id; homes are address-interleaved over `home_nodes` directories
    /// once [`set_home_nodes`](Self::set_home_nodes) is left at its
    /// default of the node count given here.
    pub fn new(node: usize, capacity_lines: usize, ways: usize, line_bytes: u64) -> Self {
        L1Controller {
            node,
            array: CacheArray::new(capacity_lines as u64 * line_bytes, ways, line_bytes),
            mshrs: Vec::new(),
            max_mshrs: 8,
            home_nodes: 1,
            stats: L1Stats::default(),
        }
    }

    /// Sets the number of directory slices for home interleaving.
    pub fn set_home_nodes(&mut self, n: usize) {
        assert!(n >= 1);
        self.home_nodes = n;
    }

    /// Sets the MSHR budget (outstanding misses).
    pub fn set_max_mshrs(&mut self, n: usize) {
        assert!(n >= 1);
        self.max_mshrs = n;
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Statistics.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// The home directory slice of a line (address-interleaved).
    pub fn home_of(&self, line: LineAddr) -> usize {
        line.home(self.array.line_bytes(), self.home_nodes)
    }

    /// The current state of a line (I when untracked).
    pub fn state_of(&self, line: LineAddr) -> L1State {
        if let Some(m) = self.mshr(line) {
            m.state
        } else {
            self.array.peek(line).copied().unwrap_or(L1State::I)
        }
    }

    fn mshr(&self, line: LineAddr) -> Option<&Mshr> {
        self.mshrs.iter().find(|(l, _)| *l == line).map(|(_, m)| m)
    }

    /// Opens `line`'s MSHR in `state`, or moves the open one there.
    fn set_mshr(&mut self, line: LineAddr, state: L1State) {
        match self.mshrs.iter_mut().find(|(l, _)| *l == line) {
            Some((_, m)) => m.state = state,
            None => self.mshrs.push((line, Mshr { state })),
        }
    }

    fn close_mshr(&mut self, line: LineAddr) {
        if let Some(i) = self.mshrs.iter().position(|(l, _)| *l == line) {
            self.mshrs.swap_remove(i);
        }
    }

    /// Number of occupied MSHRs.
    pub fn outstanding(&self) -> usize {
        self.mshrs.len()
    }

    fn send_req(&self, kind: ReqType, line: LineAddr) -> OutMsg {
        OutMsg {
            to: self.home_of(line),
            msg: CoherenceMsg::Req { kind, line },
        }
    }

    /// Processor load.
    pub fn read(&mut self, line: LineAddr) -> Access {
        if self.mshr(line).is_some() {
            // Transient (Table 2's `z`): the core must wait.
            return Access::stall();
        }
        // A resident line is M, E or S: a hit, which refreshes its LRU.
        if self.array.lookup(line).is_some() {
            self.stats.read_hits += 1;
            return Access::hit();
        }
        if self.mshrs.len() >= self.max_mshrs {
            return Access::stall();
        }
        self.stats.read_misses += 1;
        self.set_mshr(line, L1State::ISD);
        Access::miss(vec![self.send_req(ReqType::Sh, line)])
    }

    /// Processor store.
    pub fn write(&mut self, line: LineAddr) -> Access {
        match self.state_of(line) {
            #[expect(
                clippy::expect_used,
                reason = "P1: the M/E-state match arm proves the line is resident"
            )]
            L1State::M | L1State::E => {
                // A hit; E upgrades to M silently ("do write/M").
                *self.array.lookup(line).expect("M/E line is resident") = L1State::M;
                self.stats.write_hits += 1;
                Access::hit()
            }
            L1State::S => {
                if self.mshrs.len() >= self.max_mshrs {
                    return Access::stall();
                }
                self.stats.write_misses += 1;
                self.set_mshr(line, L1State::SMA);
                Access::miss(vec![self.send_req(ReqType::Upg, line)])
            }
            L1State::I => {
                if self.mshrs.len() >= self.max_mshrs {
                    return Access::stall();
                }
                self.stats.write_misses += 1;
                self.set_mshr(line, L1State::IMD);
                Access::miss(vec![self.send_req(ReqType::Ex, line)])
            }
            _ => Access::stall(),
        }
    }

    /// Explicitly evicts a stable line (e.g. a flush). Dirty lines write
    /// back; clean lines leave silently. Lines with an outstanding
    /// transaction (e.g. an S.Mᴬ upgrade in flight) are pinned and cannot
    /// be evicted — the call is a no-op for them.
    pub fn evict(&mut self, line: LineAddr) -> Vec<OutMsg> {
        if self.mshr(line).is_some() {
            return Vec::new();
        }
        match self.array.peek(line).copied() {
            Some(L1State::M) => {
                self.array.remove(line);
                vec![OutMsg {
                    to: self.home_of(line),
                    msg: CoherenceMsg::WriteBack { line },
                }]
            }
            Some(_) => {
                self.array.remove(line);
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// Installs a line granted by the directory, running the replacement
    /// (victim) transition if the set is full. Lines with an outstanding
    /// transaction (an S.Mᴬ upgrade holds its S copy in the array) are
    /// never victimized; if every way is pinned, the fill bypasses the
    /// cache — the value is consumed once and, for a modified fill,
    /// written straight back.
    fn install(&mut self, line: LineAddr, state: L1State, out: &mut Vec<OutMsg>) {
        let mshrs = &self.mshrs;
        let outcome = self.array.insert_evicting_where(line, state, |victim, _| {
            !mshrs.iter().any(|(l, _)| *l == victim)
        });
        match outcome {
            Ok(AllocOutcome::Inserted) => {}
            Ok(AllocOutcome::Evicted {
                line: victim,
                payload,
            }) => {
                if payload == L1State::M {
                    out.push(OutMsg {
                        to: self.home_of(victim),
                        msg: CoherenceMsg::WriteBack { line: victim },
                    });
                }
                // S/E victims evict silently ("evict/I").
            }
            Err(_) => {
                // Cache bypass: nothing becomes resident. A modified fill
                // must return its (dirty) line home immediately.
                if state == L1State::M {
                    out.push(OutMsg {
                        to: self.home_of(line),
                        msg: CoherenceMsg::WriteBack { line },
                    });
                }
            }
        }
    }

    /// Handles a network message addressed to this L1.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for the combinations Table 2 marks
    /// "error".
    pub fn handle(&mut self, msg: CoherenceMsg) -> Result<L1Reaction, ProtocolError> {
        let line = msg.line();
        let state = self.state_of(line);
        let err = |s: L1State, e: &str| {
            Err(ProtocolError {
                controller: "L1",
                state: format!("{s:?}"),
                event: e.to_string(),
                line,
            })
        };
        let mut reaction = L1Reaction::default();
        match msg {
            CoherenceMsg::Data { grant, .. } => match state {
                L1State::ISD => {
                    // "save & read/S or E".
                    let new = match grant {
                        Grant::Shared => L1State::S,
                        Grant::Exclusive | Grant::Modified => L1State::E,
                    };
                    self.close_mshr(line);
                    let mut out = Vec::new();
                    self.install(line, new, &mut out);
                    reaction.out = out;
                    reaction.completed = Some(line);
                }
                L1State::IMD => {
                    // "save & write/M".
                    self.close_mshr(line);
                    let mut out = Vec::new();
                    self.install(line, L1State::M, &mut out);
                    reaction.out = out;
                    reaction.completed = Some(line);
                }
                s => return err(s, "Data"),
            },
            CoherenceMsg::ExcAck { .. } => match state {
                #[expect(
                    clippy::expect_used,
                    reason = "P1: the S.MA match arm proves the line is resident"
                )]
                L1State::SMA => {
                    // "do write/M".
                    self.close_mshr(line);
                    *self.array.lookup(line).expect("S.MA line remains resident") = L1State::M;
                    reaction.completed = Some(line);
                }
                s => return err(s, "ExcAck"),
            },
            CoherenceMsg::Inv { .. } => {
                let with_data = state == L1State::M;
                match state {
                    L1State::I => {}
                    L1State::S | L1State::E | L1State::M => {
                        self.array.remove(line);
                    }
                    L1State::ISD | L1State::IMD => {
                        // Ack and stay: the outstanding fill is unaffected.
                    }
                    L1State::SMA => {
                        // Upgrade race: our S copy dies; the request in
                        // flight becomes a full write miss ("InvAck/I.MD").
                        self.array.remove(line);
                        self.set_mshr(line, L1State::IMD);
                    }
                }
                reaction.out.push(OutMsg {
                    to: self.home_of(line),
                    msg: CoherenceMsg::InvAck { line, with_data },
                });
            }
            CoherenceMsg::Dwg { .. } => {
                let with_data = state == L1State::M;
                match state {
                    L1State::I | L1State::ISD | L1State::IMD => {}
                    #[expect(
                        clippy::expect_used,
                        reason = "P1: the E/M match arm proves the line is resident"
                    )]
                    L1State::E | L1State::M => {
                        *self.array.lookup(line).expect("resident") = L1State::S;
                    }
                    s @ (L1State::S | L1State::SMA) => return err(s, "Dwg"),
                }
                reaction.out.push(OutMsg {
                    to: self.home_of(line),
                    msg: CoherenceMsg::DwgAck { line, with_data },
                });
            }
            CoherenceMsg::Retry { .. } => {
                let kind = match state {
                    L1State::ISD => ReqType::Sh,
                    L1State::IMD => ReqType::Ex,
                    L1State::SMA => ReqType::Upg,
                    s => return err(s, "Retry"),
                };
                reaction.out.push(self.send_req(kind, line));
            }
            other => {
                return err(state, &format!("{other:?}"));
            }
        }
        Ok(reaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Controller {
        let mut c = L1Controller::new(3, 64, 2, 32);
        c.set_home_nodes(16);
        c
    }

    fn data(line: LineAddr, grant: Grant) -> CoherenceMsg {
        CoherenceMsg::Data { grant, line }
    }

    #[test]
    fn read_miss_requests_shared() {
        let mut c = l1();
        let line = LineAddr(0x40);
        let a = c.read(line);
        assert!(!a.hit && !a.stalled);
        assert_eq!(a.out.len(), 1);
        assert_eq!(a.out[0].to, c.home_of(line));
        assert_eq!(
            a.out[0].msg,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line
            }
        );
        assert_eq!(c.state_of(line), L1State::ISD);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn fill_shared_then_hit() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        let r = c.handle(data(line, Grant::Shared)).unwrap();
        assert_eq!(r.completed, Some(line));
        assert_eq!(c.state_of(line), L1State::S);
        assert!(c.read(line).hit);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn fill_exclusive_enables_silent_write() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        c.handle(data(line, Grant::Exclusive)).unwrap();
        assert_eq!(c.state_of(line), L1State::E);
        assert!(c.write(line).hit, "E→M is silent");
        assert_eq!(c.state_of(line), L1State::M);
    }

    #[test]
    fn write_miss_requests_exclusive() {
        let mut c = l1();
        let line = LineAddr(0x80);
        let a = c.write(line);
        assert_eq!(
            a.out[0].msg,
            CoherenceMsg::Req {
                kind: ReqType::Ex,
                line
            }
        );
        assert_eq!(c.state_of(line), L1State::IMD);
        c.handle(data(line, Grant::Modified)).unwrap();
        assert_eq!(c.state_of(line), L1State::M);
    }

    #[test]
    fn shared_write_upgrades() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        c.handle(data(line, Grant::Shared)).unwrap();
        let a = c.write(line);
        assert!(!a.hit);
        assert_eq!(
            a.out[0].msg,
            CoherenceMsg::Req {
                kind: ReqType::Upg,
                line
            }
        );
        assert_eq!(c.state_of(line), L1State::SMA);
        let r = c.handle(CoherenceMsg::ExcAck { line }).unwrap();
        assert_eq!(r.completed, Some(line));
        assert_eq!(c.state_of(line), L1State::M);
    }

    #[test]
    fn upgrade_race_becomes_write_miss() {
        // Table 2: S.Mᴬ + Inv → InvAck / I.Mᴰ.
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        c.handle(data(line, Grant::Shared)).unwrap();
        c.write(line);
        assert_eq!(c.state_of(line), L1State::SMA);
        let r = c.handle(CoherenceMsg::Inv { line }).unwrap();
        assert_eq!(
            r.out[0].msg,
            CoherenceMsg::InvAck {
                line,
                with_data: false
            }
        );
        assert_eq!(c.state_of(line), L1State::IMD);
        // The eventual data grants M.
        c.handle(data(line, Grant::Modified)).unwrap();
        assert_eq!(c.state_of(line), L1State::M);
    }

    #[test]
    fn invalidation_of_dirty_line_carries_data() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.write(line);
        c.handle(data(line, Grant::Modified)).unwrap();
        let r = c.handle(CoherenceMsg::Inv { line }).unwrap();
        assert_eq!(
            r.out[0].msg,
            CoherenceMsg::InvAck {
                line,
                with_data: true
            }
        );
        assert_eq!(c.state_of(line), L1State::I);
    }

    #[test]
    fn downgrade_of_dirty_line() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.write(line);
        c.handle(data(line, Grant::Modified)).unwrap();
        let r = c.handle(CoherenceMsg::Dwg { line }).unwrap();
        assert_eq!(
            r.out[0].msg,
            CoherenceMsg::DwgAck {
                line,
                with_data: true
            }
        );
        assert_eq!(c.state_of(line), L1State::S);
    }

    #[test]
    fn downgrade_of_exclusive_clean_line() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        c.handle(data(line, Grant::Exclusive)).unwrap();
        let r = c.handle(CoherenceMsg::Dwg { line }).unwrap();
        assert_eq!(
            r.out[0].msg,
            CoherenceMsg::DwgAck {
                line,
                with_data: false
            }
        );
        assert_eq!(c.state_of(line), L1State::S);
    }

    #[test]
    fn racy_inv_and_dwg_in_invalid_state_are_acked() {
        let mut c = l1();
        let line = LineAddr(0x40);
        let r = c.handle(CoherenceMsg::Inv { line }).unwrap();
        assert_eq!(r.out.len(), 1);
        let r = c.handle(CoherenceMsg::Dwg { line }).unwrap();
        assert_eq!(r.out.len(), 1);
        assert_eq!(c.state_of(line), L1State::I);
    }

    #[test]
    fn inv_during_pending_fill_acks_and_stays() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        let r = c.handle(CoherenceMsg::Inv { line }).unwrap();
        assert_eq!(r.out.len(), 1);
        assert_eq!(c.state_of(line), L1State::ISD, "fill still pending");
        c.handle(data(line, Grant::Shared)).unwrap();
        assert_eq!(c.state_of(line), L1State::S);
    }

    #[test]
    fn shared_line_downgrade_is_protocol_error() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        c.handle(data(line, Grant::Shared)).unwrap();
        assert!(c.handle(CoherenceMsg::Dwg { line }).is_err());
    }

    #[test]
    fn unexpected_data_is_protocol_error() {
        let mut c = l1();
        assert!(c.handle(data(LineAddr(0x40), Grant::Shared)).is_err());
    }

    #[test]
    fn retry_resends_matching_request() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        let r = c.handle(CoherenceMsg::Retry { line }).unwrap();
        assert_eq!(
            r.out[0].msg,
            CoherenceMsg::Req {
                kind: ReqType::Sh,
                line
            }
        );
        // Write-miss retry resends Ex; upgrade retry resends Upg.
        let wline = LineAddr(0x80);
        c.write(wline);
        let r = c.handle(CoherenceMsg::Retry { line: wline }).unwrap();
        assert_eq!(
            r.out[0].msg,
            CoherenceMsg::Req {
                kind: ReqType::Ex,
                line: wline
            }
        );
    }

    #[test]
    fn transient_accesses_stall() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        assert!(c.read(line).stalled);
        assert!(c.write(line).stalled);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = l1();
        c.set_max_mshrs(2);
        assert!(!c.read(LineAddr(0x40)).stalled);
        assert!(!c.read(LineAddr(0x80)).stalled);
        assert!(c.read(LineAddr(0xc0)).stalled);
        assert_eq!(c.outstanding(), 2);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_victims() {
        let mut c = L1Controller::new(0, 2, 1, 32); // 2 sets × 1 way
        c.set_home_nodes(4);
        let a = LineAddr(0x00);
        let b = LineAddr(0x40); // same set as a (2 sets × 32 B stride)
        c.write(a);
        c.handle(data(a, Grant::Modified)).unwrap();
        assert_eq!(c.state_of(a), L1State::M);
        c.read(b);
        let r = c.handle(data(b, Grant::Shared)).unwrap();
        assert_eq!(
            r.out,
            vec![OutMsg {
                to: c.home_of(a),
                msg: CoherenceMsg::WriteBack { line: a }
            }]
        );
        assert_eq!(c.state_of(a), L1State::I);
        assert_eq!(c.state_of(b), L1State::S);
    }

    #[test]
    fn explicit_evictions() {
        let mut c = l1();
        let line = LineAddr(0x40);
        c.read(line);
        c.handle(data(line, Grant::Shared)).unwrap();
        assert!(c.evict(line).is_empty(), "clean eviction is silent");
        assert_eq!(c.state_of(line), L1State::I);
        c.write(line);
        c.handle(data(line, Grant::Modified)).unwrap();
        let out = c.evict(line);
        assert!(matches!(out[0].msg, CoherenceMsg::WriteBack { .. }));
        assert!(c.evict(LineAddr(0xdead0)).is_empty(), "absent is no-op");
        // A line with a pending upgrade is pinned against eviction.
        let pinned = LineAddr(0x80);
        c.read(pinned);
        c.handle(data(pinned, Grant::Shared)).unwrap();
        c.write(pinned); // S.MA
        assert!(c.evict(pinned).is_empty(), "S.MA is pinned");
        assert_eq!(c.state_of(pinned), L1State::SMA);
    }

    #[test]
    fn upgrade_line_is_never_victimized() {
        // 1 set × 2 ways: an S.Mᴬ upgrade pins its way; fills that would
        // evict it bypass the cache instead.
        let mut c = L1Controller::new(0, 2, 2, 32);
        c.set_home_nodes(4);
        let a = LineAddr(0x00);
        let b = LineAddr(0x40);
        let d = LineAddr(0x80);
        // a: Shared, then upgrade in flight (S.MA pins way 0).
        c.read(a);
        c.handle(data(a, Grant::Shared)).unwrap();
        c.write(a);
        assert_eq!(c.state_of(a), L1State::SMA);
        // b fills way 1.
        c.read(b);
        c.handle(data(b, Grant::Shared)).unwrap();
        // d's fill finds only b evictable.
        c.read(d);
        let r = c.handle(data(d, Grant::Shared)).unwrap();
        assert!(r.out.is_empty(), "clean victim, no writeback");
        assert_eq!(c.state_of(a), L1State::SMA, "upgrade still pending");
        assert_eq!(c.state_of(b), L1State::I, "b was the victim");
        // The ExcAck still lands on a resident S line.
        c.handle(CoherenceMsg::ExcAck { line: a }).unwrap();
        assert_eq!(c.state_of(a), L1State::M);
    }

    #[test]
    fn fill_bypasses_when_every_way_is_pinned() {
        // 1 set × 2 ways, both pinned by upgrades: a modified fill cannot
        // become resident and writes straight back.
        let mut c = L1Controller::new(0, 2, 2, 32);
        c.set_home_nodes(4);
        let a = LineAddr(0x00);
        let b = LineAddr(0x40);
        let d = LineAddr(0x80);
        for &l in &[a, b] {
            c.read(l);
            c.handle(data(l, Grant::Shared)).unwrap();
            c.write(l); // S.MA pins the way
        }
        c.write(d); // I.MD
        let r = c.handle(data(d, Grant::Modified)).unwrap();
        assert_eq!(r.completed, Some(d), "the store itself completes");
        assert_eq!(
            r.out,
            vec![OutMsg {
                to: c.home_of(d),
                msg: CoherenceMsg::WriteBack { line: d }
            }],
            "bypassed modified fill returns home dirty"
        );
        assert_eq!(c.state_of(d), L1State::I);
    }

    #[test]
    fn home_interleaving() {
        let mut c = l1();
        c.set_home_nodes(16);
        assert_eq!(c.home_of(LineAddr(0)), 0);
        assert_eq!(c.home_of(LineAddr(32)), 1);
        assert_eq!(c.home_of(LineAddr(32 * 17)), 1);
    }
}
