//! The worst-case-loss matrix crossbar: its configuration.
//!
//! The passive ring-matrix crossbar of the PAPERS.md comparative study
//! (*Optical Crossbars on Chip: a comparative study based on worst-case
//! losses*, arXiv 1512.07492) is the timing opposite of the Corona-style
//! token ring ([`RingConfig`]): every source-destination pair has a
//! dedicated passive path, so there is no circulating token to win — a
//! packet pays one cycle of (electrical) output-port arbitration, its
//! serialization, and the worst-case-path flight time, and contention
//! exists *only* at the destination port. Both run on the one
//! destination-channel engine ([`crate::network::ChannelNetwork`]); this
//! configuration supplies its [`Arbitration::Port`] row.
//!
//! The price is paid in the power column instead: the per-port laser must
//! be sized for the worst-case insertion loss of the whole matrix, which
//! grows linearly in dB with the radix
//! ([`fsoi_optics::crossbar::CrossbarLossModel`]), so the static power
//! per port climbs exponentially with node count. [`CrossbarConfig::nodes`]
//! wires that budget straight into the engine, which is how the
//! design-space grids get crossbar energy and latency out of the same
//! pipeline as FSOI, mesh and Corona.

use crate::config::RingConfig;
use crate::network::{Arbitration, ChannelConfig};
use fsoi_optics::crossbar::CrossbarLossModel;

/// Bit error rate the crossbar laser budget is sized for. The passive
/// matrix has no collision/retransmission mechanism to relax it, so it
/// keeps the strict optical-interconnect target.
const CROSSBAR_TARGET_BER: f64 = 1e-12;

/// Configuration of the matrix crossbar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Number of ports (nodes).
    pub nodes: usize,
    /// Cycles of output-port arbitration before a packet launches.
    pub arbitration_cycles: u64,
    /// Serialization cycles of a 72-bit meta packet on a port's WDM
    /// bundle.
    pub meta_serialization: u64,
    /// Serialization cycles of a 360-bit data packet.
    pub data_serialization: u64,
    /// Flight time over the worst-case matrix path, cycles (~2 die edges
    /// of waveguide at group index ≈ 4).
    pub traversal_cycles: u64,
    /// Per-source injection queue capacity, packets.
    pub injection_queue: usize,
    /// Static power per port — the worst-case-loss-sized laser plus the
    /// receiver — watts.
    pub port_static_w: f64,
}

impl CrossbarConfig {
    /// A matrix crossbar for `n` nodes, its per-port power sized from the
    /// worst-case insertion loss at this radix
    /// ([`CrossbarLossModel::paper_default`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn nodes(n: usize) -> Self {
        assert!(n >= 2, "a crossbar needs at least two nodes");
        let budget = CrossbarLossModel::paper_default().budget(n, CROSSBAR_TARGET_BER);
        CrossbarConfig {
            nodes: n,
            arbitration_cycles: 1,
            meta_serialization: 1,
            data_serialization: 3,
            traversal_cycles: 2,
            injection_queue: 16,
            port_static_w: budget.port_power_mw / 1000.0,
        }
    }

    /// Matches [`RingConfig`]'s serialization so latency comparisons
    /// against Corona isolate the arbitration difference.
    pub fn matches_ring_serialization(&self, ring: &RingConfig) -> bool {
        self.meta_serialization == ring.meta_serialization
            && self.data_serialization == ring.data_serialization
    }
}

impl From<CrossbarConfig> for ChannelConfig {
    fn from(cfg: CrossbarConfig) -> Self {
        ChannelConfig {
            nodes: cfg.nodes,
            meta_serialization: cfg.meta_serialization,
            data_serialization: cfg.data_serialization,
            injection_queue: cfg.injection_queue,
            channel_static_w: cfg.port_static_w,
            arbitration: Arbitration::Port {
                arbitration_cycles: cfg.arbitration_cycles,
                traversal_cycles: cfg.traversal_cycles,
            },
        }
    }
}
