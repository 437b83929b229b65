//! Protocol vocabulary: the states, events and messages of Table 2.

use core::fmt;

/// A cache-line address (byte address with the offset bits stripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl LineAddr {
    /// The directory slice that homes this line: `line_bytes`-byte lines
    /// interleave over the `nodes` slices by line number. The one
    /// address-to-home map of the system.
    pub fn home(self, line_bytes: u64, nodes: usize) -> usize {
        ((self.0 / line_bytes) % nodes as u64) as usize
    }
}

/// `count` lines from `first`, `stride` bytes apart, ascending: how an
/// address map describes a region without listing its lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRun {
    /// The lowest line (meaningless when `count` is 0).
    pub first: LineAddr,
    /// Bytes from one line of the run to the next.
    pub stride: u64,
    /// Number of lines.
    pub count: u64,
}

impl LineRun {
    /// `count` consecutive `line_bytes`-byte lines from `first`.
    pub fn contiguous(first: LineAddr, count: u64, line_bytes: u64) -> Self {
        LineRun {
            first,
            stride: line_bytes,
            count,
        }
    }

    /// The lines, ascending.
    pub fn lines(self) -> impl Iterator<Item = LineAddr> {
        (0..self.count).map(move |i| LineAddr(self.first.0 + i * self.stride))
    }

    /// The lines of this contiguous run that slice `home` of `nodes` homes
    /// ([`LineAddr::home`]), in run order: every `nodes`-th line, from the
    /// first one homed there.
    ///
    /// # Panics
    ///
    /// Panics unless the run is contiguous (`stride == line_bytes`).
    pub fn homed_at(self, home: usize, line_bytes: u64, nodes: usize) -> LineRun {
        assert_eq!(
            self.stride, line_bytes,
            "only a contiguous run splits by home"
        );
        let n = nodes as u64;
        // Consecutive lines have consecutive homes, mod `nodes`.
        let skip = (home as u64 + n - self.first.home(line_bytes, nodes) as u64) % n;
        LineRun {
            first: LineAddr(self.first.0 + skip * line_bytes),
            stride: n * line_bytes,
            count: self.count.saturating_sub(skip).div_ceil(n),
        }
    }
}

/// L1 cache-controller states (Table 2, upper half). Transient states are
/// written `I.SD` etc. in the paper: previous → next stable state, with a
/// superscript for what is awaited (`D` data, `A` ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1State {
    /// Modified: sole dirty copy.
    M,
    /// Exclusive: sole clean copy.
    E,
    /// Shared.
    S,
    /// Invalid (not present).
    I,
    /// `I.Sᴰ`: read miss outstanding, waiting for data.
    ISD,
    /// `I.Mᴰ`: write miss outstanding, waiting for data.
    IMD,
    /// `S.Mᴬ`: upgrade outstanding, waiting for the exclusivity ack.
    SMA,
}

impl L1State {
    /// Does the processor have read permission?
    pub fn can_read(self) -> bool {
        matches!(self, L1State::M | L1State::E | L1State::S)
    }

    /// Does the processor have write permission?
    pub fn can_write(self) -> bool {
        matches!(self, L1State::M | L1State::E)
    }
}

/// L2 directory-controller states (Table 2, lower half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirState {
    /// Not present in L2: memory must be fetched.
    DI,
    /// Valid in L2 with no L1 sharers.
    DV,
    /// Shared by one or more L1s (L2 copy clean).
    DS,
    /// Owned (possibly dirty) by exactly one L1.
    DM,
    /// `DI.DSᴰ`: memory fetch outstanding for a shared request.
    DIDSD,
    /// `DI.DMᴰ`: memory fetch outstanding for an exclusive request.
    DIDMD,
    /// `DS.DIᴬ`: L2 eviction of a shared line, collecting InvAcks.
    DSDIA,
    /// `DS.DMᴰᴬ`: exclusive request over sharers; collecting InvAcks, will
    /// send data.
    DSDMDA,
    /// `DS.DMᴬ`: upgrade over sharers; collecting InvAcks, will send
    /// ExcAck only.
    DSDMA,
    /// `DM.DIᴰ`: L2 eviction of an owned line, waiting the owner's data.
    DMDID,
    /// `DM.DSᴰ`: downgrade outstanding (shared request hit an owned line).
    DMDSD,
    /// `DM.DMᴰ`: ownership transfer outstanding (exclusive request hit an
    /// owned line).
    DMDMD,
    /// `DM.DSᴬ`: owner wrote back during a downgrade; waiting MemAck, will
    /// send Data(E).
    DMDSA,
    /// `DM.DMᴬ`: owner wrote back during an ownership transfer; waiting
    /// MemAck, will send Data(M).
    DMDMA,
}

impl DirState {
    /// Is this a stable state?
    pub(crate) fn is_stable(self) -> bool {
        matches!(
            self,
            DirState::DI | DirState::DV | DirState::DS | DirState::DM
        )
    }
}

/// The access mode granted with a data reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grant {
    /// Shared, read-only.
    Shared,
    /// Exclusive, clean (silent upgrade to M allowed).
    Exclusive,
    /// Modified (ownership transferred with dirty data).
    Modified,
}

/// Request types an L1 sends to a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqType {
    /// Read in shared mode.
    Sh,
    /// Read in exclusive mode (write miss).
    Ex,
    /// Upgrade (write hit on a Shared line).
    Upg,
}

/// A coherence message on the interconnect. The first field of each
/// variant's documentation notes the lane class it travels on: data
/// replies and writebacks carry a cache line (data packets); everything
/// else is a meta packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceMsg {
    /// Meta: L1 → directory request.
    Req {
        /// Request flavor.
        kind: ReqType,
        /// The line.
        line: LineAddr,
    },
    /// Data: directory → L1 data reply with a grant.
    Data {
        /// Granted access mode.
        grant: Grant,
        /// The line.
        line: LineAddr,
    },
    /// Meta: directory → L1 "you now own it" without data (upgrade path).
    ExcAck {
        /// The line.
        line: LineAddr,
    },
    /// Meta: directory → L1 invalidation.
    Inv {
        /// The line.
        line: LineAddr,
    },
    /// Meta: directory → L1 downgrade (owner must share).
    Dwg {
        /// The line.
        line: LineAddr,
    },
    /// Meta: L1 → directory invalidation acknowledgment. `with_data` marks
    /// `InvAck(D)` from an M-state owner (travels on the data lane).
    InvAck {
        /// The line.
        line: LineAddr,
        /// Dirty data attached (M-state victim).
        with_data: bool,
    },
    /// Meta/data: L1 → directory downgrade acknowledgment; `with_data`
    /// marks `DwgAck(D)` from an M-state owner.
    DwgAck {
        /// The line.
        line: LineAddr,
        /// Dirty data attached.
        with_data: bool,
    },
    /// Data: L1 → directory eviction of a dirty line.
    WriteBack {
        /// The line.
        line: LineAddr,
    },
    /// Meta: directory → L1 negative acknowledgment; retry later (used to
    /// probabilistically avoid fetch deadlock, §4.3.1 footnote 3).
    Retry {
        /// The line.
        line: LineAddr,
    },
    /// Meta: directory → memory controller fetch/write request.
    MemReq {
        /// The line.
        line: LineAddr,
        /// True for a write (writeback to DRAM).
        write: bool,
    },
    /// Data: memory controller → directory completion.
    MemAck {
        /// The line.
        line: LineAddr,
    },
}

impl CoherenceMsg {
    /// The line the message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            CoherenceMsg::Req { line, .. }
            | CoherenceMsg::Data { line, .. }
            | CoherenceMsg::ExcAck { line }
            | CoherenceMsg::Inv { line }
            | CoherenceMsg::Dwg { line }
            | CoherenceMsg::InvAck { line, .. }
            | CoherenceMsg::DwgAck { line, .. }
            | CoherenceMsg::WriteBack { line }
            | CoherenceMsg::Retry { line }
            | CoherenceMsg::MemReq { line, .. }
            | CoherenceMsg::MemAck { line } => line,
        }
    }

    /// True if the message carries a full cache line (travels on the data
    /// lane; everything else is a meta packet).
    pub fn carries_data(&self) -> bool {
        match *self {
            CoherenceMsg::Data { .. }
            | CoherenceMsg::WriteBack { .. }
            | CoherenceMsg::MemAck { .. } => true,
            CoherenceMsg::InvAck { with_data, .. } | CoherenceMsg::DwgAck { with_data, .. } => {
                with_data
            }
            _ => false,
        }
    }
}

/// An outgoing message with its destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutMsg {
    /// Destination node index.
    pub to: usize,
    /// The message.
    pub msg: CoherenceMsg,
}

/// A protocol error: an event arrived in a state where Table 2 says
/// "error". In a correct system these indicate either a protocol bug or a
/// corrupted/duplicated message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Which controller hit the error.
    pub controller: &'static str,
    /// Human-readable state name.
    pub state: String,
    /// Human-readable event name.
    pub event: String,
    /// The line involved.
    pub line: LineAddr,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} protocol error: event {} in state {} for {}",
            self.controller, self.event, self.state, self.line
        )
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_displays_hex() {
        assert!(LineAddr(0x40).to_string().contains("0x40"));
    }

    #[test]
    fn a_run_splits_by_home_in_run_order() {
        // Lines 3..=12 over 4 homes: home h takes the lines ≡ h (mod 4).
        let run = LineRun::contiguous(LineAddr(3 * 32), 10, 32);
        let split = |h| run.homed_at(h, 32, 4).lines().map(|l| l.0 / 32);
        assert_eq!(split(3).collect::<Vec<_>>(), [3, 7, 11]);
        assert_eq!(split(0).collect::<Vec<_>>(), [4, 8, 12]);
        assert_eq!(split(1).collect::<Vec<_>>(), [5, 9]);
        assert_eq!(split(2).collect::<Vec<_>>(), [6, 10]);
        // A run shorter than the interleave leaves some homes empty.
        let short = LineRun::contiguous(LineAddr(0), 2, 32);
        assert_eq!(short.homed_at(5, 32, 7).count, 0);
    }

    #[test]
    fn l1_state_predicates() {
        assert!(L1State::S.can_read() && !L1State::S.can_write());
        assert!(L1State::E.can_write() && L1State::M.can_write());
        assert!(!L1State::I.can_read());
        assert!(!L1State::IMD.can_read());
    }

    #[test]
    fn dir_state_predicates() {
        assert!(DirState::DI.is_stable() && DirState::DM.is_stable());
        assert!(!DirState::DSDMDA.is_stable() && !DirState::DMDMA.is_stable());
    }

    #[test]
    fn message_lines_and_classes() {
        let line = LineAddr(0x80);
        let req = CoherenceMsg::Req {
            kind: ReqType::Sh,
            line,
        };
        assert_eq!(req.line(), line);
        assert!(!req.carries_data());
        assert!(CoherenceMsg::Data {
            grant: Grant::Shared,
            line
        }
        .carries_data());
        assert!(CoherenceMsg::WriteBack { line }.carries_data());
        assert!(CoherenceMsg::MemAck { line }.carries_data());
        assert!(!CoherenceMsg::Inv { line }.carries_data());
        assert!(!CoherenceMsg::InvAck {
            line,
            with_data: false
        }
        .carries_data());
        assert!(CoherenceMsg::InvAck {
            line,
            with_data: true
        }
        .carries_data());
        assert!(CoherenceMsg::DwgAck {
            line,
            with_data: true
        }
        .carries_data());
        assert!(!CoherenceMsg::Retry { line }.carries_data());
        assert!(!CoherenceMsg::MemReq { line, write: false }.carries_data());
        assert!(!CoherenceMsg::ExcAck { line }.carries_data());
        assert!(!CoherenceMsg::Dwg { line }.carries_data());
    }

    #[test]
    fn protocol_error_display() {
        let e = ProtocolError {
            controller: "L1",
            state: "M".into(),
            event: "Data".into(),
            line: LineAddr(0x100),
        };
        assert!(e.to_string().contains("L1 protocol error"));
    }
}
