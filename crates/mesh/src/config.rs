//! Mesh configuration.

use fsoi_sim::det::NodeMask;

/// A rejected mesh configuration, carrying the offending value.
///
/// The limits come from the dense state of the hot path — per-router
/// `u32` masks over the `5 × vcs` input VCs, [`NodeMask`] live sets over
/// the routers — and are enforced at construction instead of surfacing as
/// a shift overflow or capacity assert inside a running simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshConfigError {
    /// `vcs` is zero or more than [`MeshConfig::MAX_VCS`].
    VcCount {
        /// The requested VCs per input port.
        vcs: usize,
    },
    /// More routers than the network's live-set bitmask holds.
    TooManyNodes {
        /// The requested node count.
        nodes: usize,
    },
}

impl std::fmt::Display for MeshConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MeshConfigError::VcCount { vcs } => write!(
                f,
                "{vcs} VCs per port: a router tracks its 5 x vcs input VCs in u32 masks, \
                 so vcs must be 1..={}",
                MeshConfig::MAX_VCS
            ),
            MeshConfigError::TooManyNodes { nodes } => write!(
                f,
                "{nodes} nodes exceed the NodeMask capacity of {}",
                NodeMask::CAPACITY
            ),
        }
    }
}

impl std::error::Error for MeshConfigError {}

/// Configuration of a [`MeshNetwork`](crate::network::MeshNetwork).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh width (columns).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Virtual channels per input port (Table 3: 4).
    pub vcs: usize,
    /// Buffer depth per VC, in flits (Table 3's 12-flit buffers).
    pub vc_depth: usize,
    /// Router pipeline depth in cycles (canonical 4: RC, VA, SA, ST).
    pub router_cycles: u64,
    /// Link traversal latency in cycles (Table 3: 1).
    pub link_cycles: u64,
    /// Capacity of each node's injection queue, in packets.
    pub injection_queue: usize,
}

impl MeshConfig {
    /// Most VCs per input port: `5 × vcs` mask bits must fit a `u32`.
    pub const MAX_VCS: usize = 6;

    /// The paper's baseline for `n` nodes (must be a perfect square):
    /// 4 VCs × 12-flit buffers, 4-cycle routers, 1-cycle links.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a perfect square of at least 4.
    pub fn nodes(n: usize) -> Self {
        let side = (n as f64).sqrt().round() as usize;
        assert!(
            side >= 2 && side * side == n,
            "mesh size must be a square, got {n}"
        );
        MeshConfig {
            width: side,
            height: side,
            vcs: 4,
            vc_depth: 12,
            router_cycles: 4,
            link_cycles: 1,
            injection_queue: 16,
        }
    }

    /// Builder-style: sets the router pipeline depth (e.g. aggressive
    /// 1- or 2-cycle routers).
    pub fn with_router_cycles(mut self, cycles: u64) -> Self {
        assert!(cycles >= 1);
        self.router_cycles = cycles;
        self
    }

    /// Builder-style: sets the VC count.
    ///
    /// # Panics
    ///
    /// Panics if the result fails [`validate`](Self::validate).
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        self.vcs = vcs;
        let valid = self.validate();
        assert!(valid.is_ok(), "{valid:?}");
        self
    }

    /// Builder-style: sets the per-VC buffer depth in flits.
    pub fn with_vc_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1);
        self.vc_depth = depth;
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.width * self.height
    }

    /// Checks the limits the network's dense state relies on (the fields
    /// are public, so a literal can hold anything): `vcs` in
    /// `1..=`[`MAX_VCS`](Self::MAX_VCS) and at most [`NodeMask::CAPACITY`]
    /// nodes. [`MeshNetwork::new`](crate::MeshNetwork::new) panics on a
    /// configuration that fails this.
    pub fn validate(&self) -> Result<(), MeshConfigError> {
        if !(1..=Self::MAX_VCS).contains(&self.vcs) {
            return Err(MeshConfigError::VcCount { vcs: self.vcs });
        }
        if self.node_count() > NodeMask::CAPACITY {
            return Err(MeshConfigError::TooManyNodes {
                nodes: self.node_count(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MeshConfig::nodes(16);
        assert_eq!((c.width, c.height), (4, 4));
        assert_eq!(c.vcs, 4);
        assert_eq!(c.vc_depth, 12);
        assert_eq!(c.router_cycles, 4);
        assert_eq!(c.link_cycles, 1);
        assert_eq!(c.node_count(), 16);
        let c64 = MeshConfig::nodes(64);
        assert_eq!((c64.width, c64.height), (8, 8));
    }

    #[test]
    fn builders() {
        let c = MeshConfig::nodes(16)
            .with_router_cycles(2)
            .with_vcs(2)
            .with_vc_depth(4);
        assert_eq!(c.router_cycles, 2);
        assert_eq!(c.vcs, 2);
        assert_eq!(c.vc_depth, 4);
    }

    #[test]
    fn validate_rejects_zero_vcs() {
        let c = MeshConfig {
            vcs: 0,
            ..MeshConfig::nodes(16)
        };
        assert_eq!(c.validate(), Err(MeshConfigError::VcCount { vcs: 0 }));
    }

    #[test]
    fn validate_rejects_more_vcs_than_the_masks_hold() {
        assert_eq!(MeshConfig::nodes(16).with_vcs(6).validate(), Ok(()));
        let c = MeshConfig {
            vcs: 7,
            ..MeshConfig::nodes(16)
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err, MeshConfigError::VcCount { vcs: 7 });
        assert!(err.to_string().contains("1..=6"), "{err}");
    }

    #[test]
    fn validate_rejects_more_nodes_than_the_live_set_holds() {
        assert_eq!(MeshConfig::nodes(256).validate(), Ok(()));
        let err = MeshConfig::nodes(289).validate().unwrap_err();
        assert_eq!(err, MeshConfigError::TooManyNodes { nodes: 289 });
        assert!(err.to_string().contains("256"), "{err}");
    }

    #[test]
    #[should_panic(expected = "VcCount { vcs: 7 }")]
    fn with_vcs_panics_on_an_invalid_count() {
        let _ = MeshConfig::nodes(16).with_vcs(7);
    }

    #[test]
    #[should_panic(expected = "must be a square")]
    fn non_square_panics() {
        MeshConfig::nodes(15);
    }
}
