//! System configurations: the paper's 16- and 64-node CMPs over each
//! interconnect variant.

use crate::interconnect::Interconnect;
use fsoi_mesh::config::{MeshConfig, MeshConfigError};
use fsoi_mesh::ideal::{IdealKind, IdealNetwork};
use fsoi_mesh::network::MeshNetwork;
use fsoi_net::config::FsoiConfig;
use fsoi_net::network::FsoiNetwork;
use fsoi_ring::network::{ChannelConfig, ChannelConfigError, ChannelNetwork};
use fsoi_sim::det::NodeMask;

/// Which interconnect drives the system.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkKind {
    /// The free-space optical interconnect (optionally with a custom
    /// configuration).
    Fsoi(FsoiConfig),
    /// The baseline 4-cycle-router electrical mesh.
    Mesh(MeshConfig),
    /// The mesh with links narrowed to the given fraction of their width
    /// (Figure 11).
    MeshScaled(MeshConfig, f64),
    /// A destination-channel crossbar: the Corona-style token ring (§7.1
    /// comparison, [`ChannelConfig::ring`]) or the worst-case-loss
    /// ring-matrix crossbar (the PAPERS.md comparative study,
    /// [`ChannelConfig::crossbar`]), told apart by the arbitration row.
    Channel(ChannelConfig),
    /// Idealized zero-latency network.
    L0,
    /// Idealized 1-cycle-router network.
    Lr1,
    /// Idealized 2-cycle-router network.
    Lr2,
}

impl NetworkKind {
    /// Default FSOI for `n` nodes.
    pub fn fsoi(n: usize) -> Self {
        NetworkKind::Fsoi(FsoiConfig::nodes(n))
    }

    /// Default mesh for `n` nodes.
    pub fn mesh(n: usize) -> Self {
        NetworkKind::Mesh(MeshConfig::nodes(n))
    }

    /// Default Corona-style ring crossbar for `n` nodes.
    pub fn ring(n: usize) -> Self {
        NetworkKind::Channel(ChannelConfig::ring(n))
    }

    /// Default worst-case-loss matrix crossbar for `n` nodes.
    pub fn crossbar(n: usize) -> Self {
        NetworkKind::Channel(ChannelConfig::crossbar(n))
    }

    /// The default network a [`name`](Self::name) denotes at `nodes`
    /// nodes; `None` for a name that is not one (`"mesh-scaled"` has no
    /// default).
    ///
    /// # Panics
    ///
    /// Panics where the named constructor does: a node count the network
    /// cannot be configured for (a mesh off a perfect square).
    pub fn by_name(name: &str, nodes: usize) -> Option<Self> {
        Some(match name {
            "fsoi" => NetworkKind::fsoi(nodes),
            "mesh" => NetworkKind::mesh(nodes),
            "ring" => NetworkKind::ring(nodes),
            "crossbar" => NetworkKind::crossbar(nodes),
            "L0" => NetworkKind::L0,
            "Lr1" => NetworkKind::Lr1,
            "Lr2" => NetworkKind::Lr2,
            _ => return None,
        })
    }

    /// Whether the network is laid out on a square grid (the mesh and the
    /// ideal networks modelled on it), so the node count must be a
    /// perfect square.
    pub fn is_grid(&self) -> bool {
        !matches!(self, NetworkKind::Fsoi(_) | NetworkKind::Channel(_))
    }

    /// The node count the network's own configuration is sized for;
    /// `None` for the ideal networks, which carry none.
    pub(crate) fn nodes(&self) -> Option<usize> {
        match self {
            NetworkKind::Fsoi(cfg) => Some(cfg.nodes),
            NetworkKind::Mesh(cfg) | NetworkKind::MeshScaled(cfg, _) => Some(cfg.node_count()),
            NetworkKind::Channel(cfg) => Some(cfg.nodes),
            NetworkKind::L0 | NetworkKind::Lr1 | NetworkKind::Lr2 => None,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkKind::Fsoi(_) => "fsoi",
            NetworkKind::Mesh(_) => "mesh",
            NetworkKind::MeshScaled(..) => "mesh-scaled",
            NetworkKind::Channel(cfg) => cfg.arbitration.name(),
            NetworkKind::L0 => "L0",
            NetworkKind::Lr1 => "Lr1",
            NetworkKind::Lr2 => "Lr2",
        }
    }
}

/// A rejected [`SystemConfig`], carrying the offending value(s).
///
/// The fields are public, so a literal can hold anything; these are the
/// values that used to surface as an assert or a `% 0` deep inside
/// construction (or mid-run) instead of at the door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SystemConfigError {
    /// `nodes` is zero or more than [`NodeMask::CAPACITY`] (sharer masks).
    Nodes {
        /// The requested node count.
        nodes: usize,
    },
    /// `line_bytes` is not a power of two.
    LineBytes {
        /// The requested line size.
        line_bytes: u64,
    },
    /// The L1 does not divide into a power-of-two number of `l1_ways`-way
    /// sets.
    L1Geometry {
        /// The requested L1 capacity in lines.
        l1_lines: usize,
        /// The requested associativity.
        l1_ways: usize,
    },
    /// `l2_lines` is outside `4..=`[`SystemConfig::MAX_L2_LINES`].
    L2Lines {
        /// The requested slice capacity in lines.
        l2_lines: usize,
    },
    /// `mem_gb_per_s` is not a positive finite number.
    MemBandwidth {
        /// The requested bandwidth.
        mem_gb_per_s: f64,
    },
    /// The network configuration is sized for a different node count.
    NetworkNodes {
        /// The system's node count.
        nodes: usize,
        /// The node count the network configuration carries.
        network_nodes: usize,
    },
    /// A grid network (mesh, narrowed mesh, `L0`/`Lr1`/`Lr2`) on a node
    /// count that is not a perfect square of at least 4.
    NotSquare {
        /// The requested node count.
        nodes: usize,
    },
    /// A narrowed mesh whose width fraction is outside `0.02..=1.0` (the
    /// mesh carries at most 255 flits per packet, and a data packet
    /// starts at 5).
    MeshWidthFraction {
        /// The requested fraction.
        fraction: f64,
    },
    /// The mesh (plain or narrowed) fails [`MeshConfig::validate`].
    Mesh(MeshConfigError),
    /// The ring or the matrix crossbar fails [`ChannelConfig::validate`].
    Channel(ChannelConfigError),
}

impl std::fmt::Display for SystemConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SystemConfigError::Nodes { nodes } => write!(
                f,
                "{nodes} nodes: must be 1..={} (the NodeMask capacity)",
                NodeMask::CAPACITY
            ),
            SystemConfigError::LineBytes { line_bytes } => {
                write!(f, "line size {line_bytes} B is not a power of two")
            }
            SystemConfigError::L1Geometry { l1_lines, l1_ways } => write!(
                f,
                "an L1 of {l1_lines} lines does not split into a power-of-two number of \
                 {l1_ways}-way sets"
            ),
            SystemConfigError::L2Lines { l2_lines } => write!(
                f,
                "{l2_lines} L2 lines per slice: must be 4..={}",
                SystemConfig::MAX_L2_LINES
            ),
            SystemConfigError::MemBandwidth { mem_gb_per_s } => write!(
                f,
                "memory bandwidth {mem_gb_per_s} GB/s is not a positive finite number"
            ),
            SystemConfigError::NetworkNodes {
                nodes,
                network_nodes,
            } => write!(
                f,
                "a {network_nodes}-node network cannot drive a {nodes}-node system"
            ),
            SystemConfigError::NotSquare { nodes } => write!(
                f,
                "{nodes} nodes: a grid network needs a perfect square of at least 4"
            ),
            SystemConfigError::MeshWidthFraction { fraction } => {
                write!(f, "mesh width fraction {fraction} is outside 0.02..=1.0")
            }
            SystemConfigError::Mesh(err) => write!(f, "mesh: {err}"),
            SystemConfigError::Channel(err) => write!(f, "channel crossbar: {err}"),
        }
    }
}

impl std::error::Error for SystemConfigError {}

/// Full system configuration (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of nodes (cores + L2 slices).
    pub nodes: usize,
    /// The interconnect.
    pub network: NetworkKind,
    /// Coherence line size in bytes (Table 3: 32 B L1 D lines).
    pub line_bytes: u64,
    /// L1 capacity in lines (8 KB / 32 B = 256).
    pub l1_lines: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 access latency, cycles.
    pub l1_latency: u64,
    /// L2 slice capacity in lines (64 KB / 32 B = 2048).
    pub l2_lines: usize,
    /// L2 access latency, cycles.
    pub l2_latency: u64,
    /// Aggregate memory bandwidth, GB/s (Table 4: 8.8 default, 52.8 high).
    pub mem_gb_per_s: f64,
    /// Memory access latency, cycles.
    pub mem_latency: u64,
    /// §5.1: substitute confirmations for invalidation acknowledgments.
    pub opt_confirmation_acks: bool,
    /// §5.1: boolean synchronization subscriptions over the confirmation
    /// channel.
    pub opt_subscriptions: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SystemConfig {
    /// Most lines per L2 slice (512 MB of 32 B lines). A directory's slot
    /// numbers and warm-tier positions are `u32`s, and its entry slab,
    /// grown only as the protocol touches lines, could reach 56 bytes a
    /// line: the limit keeps both far from their bounds (≈ 940 MB for a
    /// full slice).
    pub(crate) const MAX_L2_LINES: usize = 1 << 24;

    /// Checks the limits construction relies on.
    /// [`CmpSystem::new`](crate::system::CmpSystem::new) panics on a
    /// configuration that fails this.
    pub(crate) fn validate(&self) -> Result<(), SystemConfigError> {
        if !(1..=NodeMask::CAPACITY).contains(&self.nodes) {
            return Err(SystemConfigError::Nodes { nodes: self.nodes });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(SystemConfigError::LineBytes {
                line_bytes: self.line_bytes,
            });
        }
        let (lines, ways) = (self.l1_lines, self.l1_ways);
        if ways == 0 || lines % ways != 0 || !(lines / ways).is_power_of_two() {
            return Err(SystemConfigError::L1Geometry {
                l1_lines: lines,
                l1_ways: ways,
            });
        }
        if !(4..=Self::MAX_L2_LINES).contains(&self.l2_lines) {
            return Err(SystemConfigError::L2Lines {
                l2_lines: self.l2_lines,
            });
        }
        if !(self.mem_gb_per_s.is_finite() && self.mem_gb_per_s > 0.0) {
            return Err(SystemConfigError::MemBandwidth {
                mem_gb_per_s: self.mem_gb_per_s,
            });
        }
        let network_nodes = self.network.nodes().unwrap_or(self.nodes);
        if network_nodes != self.nodes {
            return Err(SystemConfigError::NetworkNodes {
                nodes: self.nodes,
                network_nodes,
            });
        }
        let side = (self.nodes as f64).sqrt().round() as usize;
        if self.network.is_grid() && (side < 2 || side * side != self.nodes) {
            return Err(SystemConfigError::NotSquare { nodes: self.nodes });
        }
        if let NetworkKind::Mesh(mesh) | NetworkKind::MeshScaled(mesh, _) = &self.network {
            mesh.validate().map_err(SystemConfigError::Mesh)?;
        }
        if let NetworkKind::Channel(channel) = &self.network {
            channel.validate().map_err(SystemConfigError::Channel)?;
        }
        if let NetworkKind::MeshScaled(_, fraction) = self.network {
            if !(0.02..=1.0).contains(&fraction) {
                return Err(SystemConfigError::MeshWidthFraction { fraction });
            }
        }
        Ok(())
    }

    /// The paper's 16-node configuration over the given network.
    pub fn paper_16(network: NetworkKind) -> Self {
        SystemConfig {
            nodes: 16,
            network,
            line_bytes: 32,
            l1_lines: 256,
            l1_ways: 2,
            l1_latency: 2,
            l2_lines: 2048,
            l2_latency: 15,
            mem_gb_per_s: 8.8,
            mem_latency: 200,
            opt_confirmation_acks: true,
            opt_subscriptions: true,
            seed: 2010,
        }
    }

    /// The paper's 64-node configuration (phase-array FSOI, 8 memory
    /// channels).
    pub fn paper_64(network: NetworkKind) -> Self {
        SystemConfig::paper_n(64, network)
    }

    /// The paper's Table 3 per-node parameters scaled to an arbitrary
    /// node count — the constructor behind the beyond-the-paper
    /// design-space grids (e.g. 256 nodes). Caches, latencies and memory
    /// bandwidth are per-node/aggregate exactly as in
    /// [`SystemConfig::paper_16`]; only the node count changes.
    pub fn paper_n(nodes: usize, network: NetworkKind) -> Self {
        SystemConfig {
            nodes,
            ..SystemConfig::paper_16(network)
        }
    }

    /// Builder-style: toggles both §5.1/§5.2 optimizations at once (for
    /// the ablation studies).
    pub fn with_optimizations(mut self, on: bool) -> Self {
        self.opt_confirmation_acks = on;
        self.opt_subscriptions = on;
        self
    }

    /// Builder-style: sets the memory bandwidth (Table 4).
    pub fn with_mem_bandwidth(mut self, gb_per_s: f64) -> Self {
        self.mem_gb_per_s = gb_per_s;
        self
    }

    /// Builder-style: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Instantiates the interconnect.
    pub fn build_network(&self) -> Box<dyn Interconnect> {
        let width = (self.nodes as f64).sqrt().round() as usize;
        match &self.network {
            NetworkKind::Fsoi(cfg) => Box::new(FsoiNetwork::new(cfg.clone(), self.seed)),
            NetworkKind::Mesh(cfg) => Box::new(MeshNetwork::new(*cfg)),
            NetworkKind::MeshScaled(cfg, f) => Box::new(MeshNetwork::new(*cfg).narrowed(*f)),
            NetworkKind::Channel(cfg) => Box::new(ChannelNetwork::new(*cfg)),
            NetworkKind::L0 => Box::new(IdealNetwork::new(IdealKind::L0, width)),
            NetworkKind::Lr1 => Box::new(IdealNetwork::new(IdealKind::Lr1, width)),
            NetworkKind::Lr2 => Box::new(IdealNetwork::new(IdealKind::Lr2, width)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsoi_sim::packet::PacketClass;

    #[test]
    fn paper_16_defaults_match_table3() {
        let c = SystemConfig::paper_16(NetworkKind::fsoi(16));
        assert_eq!(c.nodes, 16);
        assert_eq!(c.l1_lines * c.line_bytes as usize, 8 * 1024);
        assert_eq!(c.l2_lines * c.line_bytes as usize, 64 * 1024);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.l2_latency, 15);
        assert_eq!(c.mem_latency, 200);
        assert!((c.mem_gb_per_s - 8.8).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let c = SystemConfig::paper_16(NetworkKind::mesh(16))
            .with_optimizations(false)
            .with_mem_bandwidth(52.8)
            .with_seed(7);
        assert!(!c.opt_confirmation_acks && !c.opt_subscriptions);
        assert!((c.mem_gb_per_s - 52.8).abs() < 1e-9);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn network_names_and_instantiation() {
        for kind in [
            NetworkKind::fsoi(16),
            NetworkKind::mesh(16),
            NetworkKind::ring(16),
            NetworkKind::crossbar(16),
            NetworkKind::L0,
            NetworkKind::Lr1,
            NetworkKind::Lr2,
        ] {
            let name = kind.name();
            assert_eq!(NetworkKind::by_name(name, 16), Some(kind.clone()));
            let cfg = SystemConfig::paper_16(kind);
            let net = cfg.build_network();
            assert_eq!(net.name(), name);
        }
        assert_eq!(NetworkKind::by_name("mesh-scaled", 16), None);
    }

    #[test]
    fn paper_configurations_validate() {
        // paper_16 and paper_64 are paper_n at those sizes.
        for n in [16, 64, 256] {
            for kind in [
                NetworkKind::fsoi(n),
                NetworkKind::mesh(n),
                NetworkKind::ring(n),
                NetworkKind::crossbar(n),
                NetworkKind::L0,
                NetworkKind::Lr1,
                NetworkKind::Lr2,
            ] {
                assert_eq!(SystemConfig::paper_n(n, kind).validate(), Ok(()));
            }
        }
    }

    fn rejected(tweak: impl Fn(&mut SystemConfig)) -> SystemConfigError {
        let mut c = SystemConfig::paper_16(NetworkKind::L0);
        tweak(&mut c);
        c.validate().unwrap_err()
    }

    #[test]
    fn validate_rejects_node_counts_outside_the_sharer_mask() {
        assert_eq!(
            rejected(|c| c.nodes = 0),
            SystemConfigError::Nodes { nodes: 0 }
        );
        let err = rejected(|c| c.nodes = NodeMask::CAPACITY + 1);
        assert_eq!(err, SystemConfigError::Nodes { nodes: 257 });
        assert!(err.to_string().contains("256"), "{err}");
    }

    #[test]
    fn validate_rejects_line_sizes_that_are_not_powers_of_two() {
        for bad in [0, 48] {
            let err = rejected(|c| c.line_bytes = bad);
            assert_eq!(err, SystemConfigError::LineBytes { line_bytes: bad });
        }
    }

    #[test]
    fn validate_rejects_impossible_l1_geometry() {
        // No ways; fewer lines than ways; a ragged last set; 3 sets.
        for (lines, ways) in [(256, 0), (0, 2), (255, 2), (6, 2)] {
            let err = rejected(|c| (c.l1_lines, c.l1_ways) = (lines, ways));
            assert_eq!(
                err,
                SystemConfigError::L1Geometry {
                    l1_lines: lines,
                    l1_ways: ways
                }
            );
        }
    }

    #[test]
    fn validate_rejects_l2_slices_outside_the_slab_bounds() {
        let mut ok = SystemConfig::paper_16(NetworkKind::L0);
        for fine in [4, SystemConfig::MAX_L2_LINES] {
            ok.l2_lines = fine;
            assert_eq!(ok.validate(), Ok(()));
        }
        for bad in [0, 3, SystemConfig::MAX_L2_LINES + 1] {
            let err = rejected(|c| c.l2_lines = bad);
            assert_eq!(err, SystemConfigError::L2Lines { l2_lines: bad });
        }
    }

    #[test]
    fn validate_rejects_unusable_memory_bandwidth() {
        for bad in [0.0, -8.8, f64::INFINITY] {
            let err = rejected(|c| c.mem_gb_per_s = bad);
            assert_eq!(err, SystemConfigError::MemBandwidth { mem_gb_per_s: bad });
        }
        let nan = rejected(|c| c.mem_gb_per_s = f64::NAN);
        assert!(
            matches!(nan, SystemConfigError::MemBandwidth { .. }),
            "{nan}"
        );
    }

    #[test]
    fn validate_rejects_a_network_sized_for_another_node_count() {
        // Each used to validate clean, then panic mid-run (FSOI, mesh) or
        // charge 64 channels of static ring power to a 16-node chip.
        for (nodes, kind, network_nodes) in [
            (64, NetworkKind::fsoi(16), 16),
            (64, NetworkKind::mesh(16), 16),
            (16, NetworkKind::ring(64), 64),
        ] {
            let err = SystemConfig::paper_n(nodes, kind).validate().unwrap_err();
            let want = SystemConfigError::NetworkNodes {
                nodes,
                network_nodes,
            };
            assert_eq!(err, want);
            assert!(err.to_string().contains("cannot drive"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_grid_networks_off_a_perfect_square() {
        for bad in [2, 12] {
            let err = rejected(|c| c.nodes = bad);
            assert_eq!(err, SystemConfigError::NotSquare { nodes: bad });
            assert!(err.to_string().contains("perfect square"), "{err}");
        }
        let fsoi = SystemConfig::paper_n(12, NetworkKind::fsoi(12));
        assert_eq!(fsoi.validate(), Ok(()), "FSOI has no grid");
    }

    #[test]
    fn validate_rejects_mesh_width_fractions_outside_the_flit_budget() {
        for bad in [0.001, 1.5, f64::NAN] {
            let err = rejected(|c| c.network = NetworkKind::MeshScaled(MeshConfig::nodes(16), bad));
            assert!(
                matches!(err, SystemConfigError::MeshWidthFraction { .. }),
                "{err}"
            );
        }
        let ok = NetworkKind::MeshScaled(MeshConfig::nodes(16), 0.5);
        assert_eq!(SystemConfig::paper_16(ok).validate(), Ok(()));
    }

    #[test]
    fn validate_forwards_the_mesh_check() {
        // Each used to validate clean, then panic in `MeshNetwork::new`,
        // panic in `BoundedQueue::new` or wedge until the overrun panic.
        let cases: [(fn(&mut MeshConfig), _); 3] = [
            (|m| m.vcs = 7, MeshConfigError::VcCount { vcs: 7 }),
            (|m| m.vc_depth = 0, MeshConfigError::VcDepth),
            (|m| m.injection_queue = 0, MeshConfigError::InjectionQueue),
        ];
        for (tweak, want) in cases {
            let mut bad = MeshConfig::nodes(16);
            tweak(&mut bad);
            for network in [NetworkKind::Mesh(bad), NetworkKind::MeshScaled(bad, 0.5)] {
                let err = rejected(|c| c.network = network.clone());
                assert_eq!(err, SystemConfigError::Mesh(want));
                assert!(err.to_string().starts_with("mesh: "), "{err}");
            }
        }
    }

    #[test]
    fn validate_forwards_the_channel_check() {
        // Each used to validate clean, then panic in `BoundedQueue::new`
        // or let one channel carry several packets in a cycle.
        let ring = ChannelConfig {
            injection_queue: 0,
            ..ChannelConfig::ring(16)
        };
        let crossbar = ChannelConfig {
            data_serialization: 0,
            ..ChannelConfig::crossbar(16)
        };
        let cases = [
            (
                NetworkKind::Channel(ring),
                ChannelConfigError::InjectionQueue,
            ),
            (
                NetworkKind::Channel(crossbar),
                ChannelConfigError::Serialization {
                    class: PacketClass::Data,
                },
            ),
        ];
        for (network, want) in cases {
            let err = SystemConfig::paper_n(16, network).validate().unwrap_err();
            assert_eq!(err, SystemConfigError::Channel(want));
            assert!(err.to_string().starts_with("channel crossbar: "), "{err}");
        }
    }

    #[test]
    fn paper_64_scales_nodes() {
        let c = SystemConfig::paper_64(NetworkKind::fsoi(64));
        assert_eq!(c.nodes, 64);
    }

    #[test]
    fn paper_n_supports_the_256_node_grid() {
        for kind in [
            NetworkKind::fsoi(256),
            NetworkKind::mesh(256),
            NetworkKind::ring(256),
            NetworkKind::crossbar(256),
        ] {
            let name = kind.name();
            let cfg = SystemConfig::paper_n(256, kind);
            assert_eq!(cfg.nodes, 256);
            // Table 3 per-node parameters carry over unchanged.
            assert_eq!(cfg.l1_lines, 256);
            assert_eq!(cfg.l2_lines, 2048);
            let net = cfg.build_network();
            assert_eq!(net.name(), name);
        }
    }
}
