//! Mesh packets and flits.
//!
//! Table 3: 72-bit flits; a meta packet is a single flit, a data packet
//! five flits (matching the optical network's 72-bit meta / 360-bit data
//! packets bit for bit).

use fsoi_sim::Cycle;

/// Flits per meta packet.
pub const META_FLITS: usize = 1;
/// Flits per data packet.
pub const DATA_FLITS: usize = 5;
/// Bits per flit.
pub const FLIT_BITS: usize = 72;

/// A packet travelling the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshPacket {
    /// Unique id assigned at injection.
    pub id: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Length in flits.
    pub flits: usize,
    /// Opaque client tag.
    pub tag: u64,
    /// Injection time.
    pub enqueued_at: Cycle,
}

impl MeshPacket {
    /// A 1-flit meta packet.
    pub fn meta(src: usize, dst: usize, tag: u64) -> Self {
        MeshPacket {
            id: 0,
            src,
            dst,
            flits: META_FLITS,
            tag,
            enqueued_at: Cycle::ZERO,
        }
    }

    /// A 5-flit data packet.
    pub fn data(src: usize, dst: usize, tag: u64) -> Self {
        MeshPacket {
            id: 0,
            src,
            dst,
            flits: DATA_FLITS,
            tag,
            enqueued_at: Cycle::ZERO,
        }
    }

    /// Total bits of the packet.
    pub fn bits(&self) -> usize {
        self.flits * FLIT_BITS
    }

    /// True for single-flit (meta) packets.
    pub fn is_meta(&self) -> bool {
        self.flits == META_FLITS
    }
}

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
pub struct Flit {
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
    pub fn new(slot: u32, dst: u16, seq: u8, flits: u8) -> Self {
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

    fn flits_of(slot: u32, p: &MeshPacket) -> impl Iterator<Item = Flit> + '_ {
        (0..p.flits as u8).map(move |seq| Flit::new(slot, p.dst as u16, seq, p.flits as u8))
    }

    #[test]
    fn meta_and_data_sizes() {
        let m = MeshPacket::meta(0, 1, 5);
        assert_eq!(m.flits, 1);
        assert_eq!(m.bits(), 72);
        assert!(m.is_meta());
        let d = MeshPacket::data(0, 1, 5);
        assert_eq!(d.flits, 5);
        assert_eq!(d.bits(), 360);
        assert!(!d.is_meta());
    }

    #[test]
    fn single_flit_is_headtail() {
        let fs: Vec<Flit> = flits_of(0, &MeshPacket::meta(0, 1, 0)).collect();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FlitKind::HeadTail);
        assert!(fs[0].kind.is_head() && fs[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_structure() {
        let fs: Vec<Flit> = flits_of(7, &MeshPacket::data(2, 3, 0)).collect();
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
