//! Mesh flits.
//!
//! Table 3: 72-bit flits; a meta packet is a single flit, a data packet
//! five flits (matching the optical network's 72-bit meta / 360-bit data
//! packets bit for bit).

/// Flits per packet, indexed by lane
/// ([`PacketClass::lane`](fsoi_sim::packet::PacketClass::lane)): a 1-flit
/// meta packet and a 5-flit data packet.
pub const FLITS: [usize; 2] = [1, 5];

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing information.
    Head,
    /// Interior flit.
    Body,
    /// Final flit: releases the virtual channel. A single-flit packet's
    /// only flit is `HeadTail`.
    Tail,
    /// Head and tail at once (single-flit packets).
    HeadTail,
}

impl FlitKind {
    /// Does this flit start a packet?
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Does this flit end a packet?
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flit in flight: 8 bytes. The packet itself is held once, in the
/// network's slab, and looked up by `slot` when the tail is ejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Slab slot of the packet this flit belongs to.
    pub slot: u32,
    /// Destination node (all a router needs for route computation).
    pub dst: u16,
    /// Index within the packet (0 = head).
    pub seq: u8,
    /// Head/body/tail marker.
    pub kind: FlitKind,
}

impl Flit {
    /// Flit `seq` of a `flits`-flit packet held in `slot`.
    pub(crate) fn new(slot: u32, dst: u16, seq: u8, flits: u8) -> Self {
        Flit {
            slot,
            dst,
            seq,
            kind: match (seq, flits) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (s, n) if s == n - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flits_of(slot: u32, dst: u16, flits: usize) -> impl Iterator<Item = Flit> {
        (0..flits as u8).map(move |seq| Flit::new(slot, dst, seq, flits as u8))
    }

    #[test]
    fn single_flit_is_headtail() {
        let fs: Vec<Flit> = flits_of(0, 1, FLITS[0]).collect();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FlitKind::HeadTail);
        assert!(fs[0].kind.is_head() && fs[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_structure() {
        let fs: Vec<Flit> = flits_of(7, 3, FLITS[1]).collect();
        assert_eq!(fs.len(), 5);
        assert_eq!(std::mem::size_of::<Flit>(), 8);
        assert_eq!(fs[0].kind, FlitKind::Head);
        assert_eq!(fs[1].kind, FlitKind::Body);
        assert_eq!(fs[3].kind, FlitKind::Body);
        assert_eq!(fs[4].kind, FlitKind::Tail);
        assert!(fs[0].kind.is_head() && !fs[0].kind.is_tail());
        assert!(!fs[2].kind.is_head() && !fs[2].kind.is_tail());
        assert!(fs[4].kind.is_tail() && !fs[4].kind.is_head());
        for (i, f) in fs.iter().enumerate() {
            assert_eq!((f.slot, f.dst, f.seq as usize), (7, 3, i));
        }
    }
}
