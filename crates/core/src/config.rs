//! Network configuration.

use crate::backoff::BackoffPolicy;
use crate::lane::Lanes;
use crate::packet::PacketClass;
use fsoi_sim::det::NodeMask;

/// A rejected network configuration, carrying the offending value.
///
/// Every field of [`FsoiConfig`] is public, so a literal can hold anything;
/// these are the values that would otherwise surface as an assert, a
/// division by zero or a network that never drains deep inside a running
/// simulation instead of at construction time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Fewer than two nodes — there is nobody to talk to.
    TooFewNodes {
        /// The requested node count.
        nodes: usize,
    },
    /// More nodes than the dense per-node bitmask tracking supports.
    TooManyNodes {
        /// The requested node count.
        nodes: usize,
        /// The hard capacity ([`NodeMask::CAPACITY`]).
        capacity: usize,
    },
    /// A lane with no VCSELs cannot serialize anything.
    ZeroVcsels {
        /// The offending lane.
        lane: PacketClass,
    },
    /// A lane whose packets have no bits has a zero-cycle slot: no cycle is
    /// ever a slot boundary and queued packets never leave.
    ZeroPacketBits {
        /// The offending lane.
        lane: PacketClass,
    },
    /// A lane nobody can receive on.
    ZeroReceivers {
        /// The offending lane.
        lane: PacketClass,
    },
    /// `lanes.bits_per_cycle_per_vcsel` is zero.
    ZeroBitRate,
    /// `outgoing_queue_capacity` is zero: every injection would be refused.
    ZeroQueueCapacity,
    /// `bit_error_rate` is not a probability in `0.0..=0.1`.
    BitErrorRate {
        /// The requested rate.
        ber: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::TooFewNodes { nodes } => {
                write!(f, "a network needs at least two nodes (got {nodes})")
            }
            ConfigError::TooManyNodes { nodes, capacity } => write!(
                f,
                "{nodes} nodes exceed the NodeMask capacity of {capacity} \
                 (sharer/subscription tracking uses dense per-node bitmasks)"
            ),
            ConfigError::ZeroVcsels { lane } => write!(f, "the {lane:?} lane has no VCSELs"),
            ConfigError::ZeroPacketBits { lane } => {
                write!(f, "the {lane:?} lane carries zero-bit packets")
            }
            ConfigError::ZeroReceivers { lane } => write!(f, "the {lane:?} lane has no receivers"),
            ConfigError::ZeroBitRate => write!(f, "VCSELs carry zero bits per cycle"),
            ConfigError::ZeroQueueCapacity => write!(f, "outgoing queues hold zero packets"),
            ConfigError::BitErrorRate { ber } => {
                write!(f, "bit error rate {ber} is not a probability in 0.0..=0.1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How each node aims its beams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitterArray {
    /// One dedicated VCSEL lane per destination (small/medium systems;
    /// the paper's 16-node configuration).
    Dedicated,
    /// A single optical phase array steered per destination, paying a
    /// retarget penalty when consecutive packets go to different nodes
    /// (the paper's 64-node configuration, 1-cycle setup).
    PhaseArray {
        /// Cycles to re-set the phase controller register.
        setup_cycles: u64,
    },
}

/// Full configuration of an [`FsoiNetwork`](crate::network::FsoiNetwork).
#[derive(Debug, Clone, PartialEq)]
pub struct FsoiConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Lane widths and timing.
    pub lanes: Lanes,
    /// Transmitter organization.
    pub array: TransmitterArray,
    /// Retransmission policy.
    pub backoff: BackoffPolicy,
    /// Fixed delay from clean reception to confirmation arrival at the
    /// sender (paper: cycle `n + 2`).
    pub confirmation_delay: u64,
    /// Capacity of each outgoing packet queue (Table 3: 8 per lane).
    pub outgoing_queue_capacity: usize,
    /// Enable receiver-coordinated retransmission hints on the data lane
    /// (§5.2).
    pub hints: bool,
    /// Enable receiver-side reply-slot reservation / request spacing
    /// (§5.2).
    pub request_spacing: bool,
    /// Raw bit error rate of the signaling chain. Corrupted packets are
    /// detected by the receiver (checksum), draw no confirmation, and are
    /// retransmitted exactly like collision victims — the paper's point
    /// that "errors and collisions \[are\] handled by the same mechanism"
    /// (§4.3.1), which is what lets the BER target relax from 1e-10 to
    /// ~1e-5.
    pub bit_error_rate: f64,
}

impl FsoiConfig {
    /// The paper's default configuration for `n` nodes: Table 3 lanes,
    /// `W = 2.7, B = 1.1` back-off, 2-cycle confirmation, 8-packet queues,
    /// both data-lane optimizations on, and a phase-array transmitter for
    /// systems larger than 16 nodes.
    ///
    /// # Panics
    ///
    /// Panics when `n` is out of range; [`FsoiConfig::try_nodes`] is the
    /// non-panicking variant.
    pub fn nodes(n: usize) -> Self {
        match Self::try_nodes(n) {
            Ok(cfg) => cfg,
            #[expect(
                clippy::panic,
                reason = "P1: infallible-constructor convenience; callers with untrusted n use try_nodes"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// [`FsoiConfig::nodes`], but validating the node count instead of
    /// panicking: `n` must be at least 2 and at most
    /// [`NodeMask::CAPACITY`] (sharer sets, subscription hubs and
    /// directory masks all track nodes in dense bitmasks of that
    /// capacity, and a violation would otherwise only surface as an
    /// assert deep inside a running simulation).
    pub fn try_nodes(n: usize) -> Result<Self, ConfigError> {
        let cfg = FsoiConfig {
            nodes: n,
            lanes: Lanes::paper_default(),
            array: if n > 16 {
                TransmitterArray::PhaseArray { setup_cycles: 1 }
            } else {
                TransmitterArray::Dedicated
            },
            backoff: BackoffPolicy::PAPER_OPTIMUM,
            confirmation_delay: 2,
            outgoing_queue_capacity: 8,
            hints: true,
            request_spacing: true,
            bit_error_rate: 1e-10,
        };
        cfg.validate().map(|()| cfg)
    }

    /// Checks the limits the network relies on.
    /// [`FsoiNetwork::new`](crate::network::FsoiNetwork::new) panics on a
    /// configuration that fails this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes < 2 {
            return Err(ConfigError::TooFewNodes { nodes: self.nodes });
        }
        if self.nodes > NodeMask::CAPACITY {
            return Err(ConfigError::TooManyNodes {
                nodes: self.nodes,
                capacity: NodeMask::CAPACITY,
            });
        }
        for lane in PacketClass::ALL {
            let spec = self.lanes.spec(lane);
            if spec.vcsels == 0 {
                return Err(ConfigError::ZeroVcsels { lane });
            }
            if spec.packet_bits == 0 {
                return Err(ConfigError::ZeroPacketBits { lane });
            }
            if spec.receivers == 0 {
                return Err(ConfigError::ZeroReceivers { lane });
            }
        }
        if self.lanes.bits_per_cycle_per_vcsel == 0 {
            return Err(ConfigError::ZeroBitRate);
        }
        if self.outgoing_queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        // A NaN fails the range test too.
        if !(0.0..=0.1).contains(&self.bit_error_rate) {
            return Err(ConfigError::BitErrorRate {
                ber: self.bit_error_rate,
            });
        }
        Ok(())
    }

    /// Builder-style: replaces the lane configuration.
    pub fn with_lanes(mut self, lanes: Lanes) -> Self {
        self.lanes = lanes;
        self
    }

    /// Builder-style: replaces the back-off policy.
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = policy;
        self
    }

    /// Builder-style: forces the transmitter organization.
    pub fn with_array(mut self, array: TransmitterArray) -> Self {
        self.array = array;
        self
    }

    /// Builder-style: toggles the data-lane hint optimization.
    pub fn with_hints(mut self, on: bool) -> Self {
        self.hints = on;
        self
    }

    /// Builder-style: toggles request spacing.
    pub fn with_request_spacing(mut self, on: bool) -> Self {
        self.request_spacing = on;
        self
    }

    /// Builder-style: sets the raw signaling bit error rate.
    ///
    /// # Panics
    ///
    /// Panics unless `ber` is in `[0, 0.1]`.
    pub fn with_bit_error_rate(mut self, ber: f64) -> Self {
        assert!(
            (0.0..=0.1).contains(&ber),
            "BER must be a small probability"
        );
        self.bit_error_rate = ber;
        self
    }

    /// Probability a packet of `bits` bits arrives corrupted at this BER.
    pub fn packet_error_probability(&self, bits: usize) -> f64 {
        1.0 - (1.0 - self.bit_error_rate).powi(bits as i32)
    }

    /// The phase-array setup penalty, or 0 for dedicated lanes.
    pub fn phase_array_setup(&self) -> u64 {
        match self.array {
            TransmitterArray::Dedicated => 0,
            TransmitterArray::PhaseArray { setup_cycles } => setup_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_nodes_use_dedicated_lanes() {
        let c = FsoiConfig::nodes(16);
        assert_eq!(c.array, TransmitterArray::Dedicated);
        assert_eq!(c.phase_array_setup(), 0);
        assert_eq!(c.confirmation_delay, 2);
        assert_eq!(c.outgoing_queue_capacity, 8);
        assert!(c.hints && c.request_spacing);
        assert!((c.bit_error_rate - 1e-10).abs() < 1e-20);
    }

    #[test]
    fn packet_error_probability_scales_with_length() {
        let c = FsoiConfig::nodes(16).with_bit_error_rate(1e-5);
        let meta = c.packet_error_probability(72);
        let data = c.packet_error_probability(360);
        assert!((meta - 72.0 * 1e-5).abs() < 1e-6, "small-BER linearization");
        assert!(data > meta);
        let clean = FsoiConfig::nodes(16).with_bit_error_rate(0.0);
        assert_eq!(clean.packet_error_probability(360), 0.0);
    }

    #[test]
    fn sixty_four_nodes_use_phase_array() {
        let c = FsoiConfig::nodes(64);
        assert_eq!(c.array, TransmitterArray::PhaseArray { setup_cycles: 1 });
        assert_eq!(c.phase_array_setup(), 1);
    }

    #[test]
    fn builders_apply() {
        let c = FsoiConfig::nodes(16)
            .with_hints(false)
            .with_request_spacing(false)
            .with_backoff(BackoffPolicy::BINARY)
            .with_array(TransmitterArray::PhaseArray { setup_cycles: 2 })
            .with_lanes(Lanes::fig11_base());
        assert!(!c.hints && !c.request_spacing);
        assert_eq!(c.backoff, BackoffPolicy::BINARY);
        assert_eq!(c.phase_array_setup(), 2);
        assert_eq!(c.lanes.serialization_cycles(PacketClass::Meta), 1);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn one_node_panics() {
        FsoiConfig::nodes(1);
    }

    #[test]
    fn try_nodes_reports_the_offending_count() {
        assert_eq!(
            FsoiConfig::try_nodes(1),
            Err(ConfigError::TooFewNodes { nodes: 1 })
        );
        assert_eq!(
            FsoiConfig::try_nodes(300),
            Err(ConfigError::TooManyNodes {
                nodes: 300,
                capacity: 256
            })
        );
        let msg = FsoiConfig::try_nodes(300).unwrap_err().to_string();
        assert!(msg.contains("300") && msg.contains("256"), "{msg}");
        assert!(FsoiConfig::try_nodes(2).is_ok());
        // The multi-word mask admits the 256-node design-space grids that
        // the old u128 representation rejected.
        assert!(FsoiConfig::try_nodes(200).is_ok());
        assert!(FsoiConfig::try_nodes(256).is_ok());
    }

    /// The paper's 16-node configuration with one field overwritten, as a
    /// struct literal or a field assignment can; returns what `validate`
    /// says about it.
    fn rejected(tweak: impl Fn(&mut FsoiConfig)) -> ConfigError {
        let mut c = FsoiConfig::nodes(16);
        tweak(&mut c);
        c.validate().expect_err("the tweak must be rejected")
    }

    #[test]
    fn paper_configurations_validate_clean() {
        for n in [16, 64, 256] {
            assert_eq!(FsoiConfig::nodes(n).validate(), Ok(()));
        }
        for lanes in [Lanes::paper_default(), Lanes::fig11_base()] {
            assert_eq!(FsoiConfig::nodes(16).with_lanes(lanes).validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_node_count_edited_after_construction() {
        assert_eq!(
            rejected(|c| c.nodes = 1),
            ConfigError::TooFewNodes { nodes: 1 }
        );
        assert_eq!(
            rejected(|c| c.nodes = 257),
            ConfigError::TooManyNodes {
                nodes: 257,
                capacity: 256
            }
        );
    }

    #[test]
    fn validate_rejects_zero_vcsels() {
        let lane = PacketClass::Meta;
        assert_eq!(
            rejected(|c| c.lanes.meta.vcsels = 0),
            ConfigError::ZeroVcsels { lane }
        );
    }

    #[test]
    fn validate_rejects_zero_packet_bits() {
        // A zero-cycle slot: no cycle is a boundary, nothing ever leaves.
        let lane = PacketClass::Data;
        assert_eq!(
            rejected(|c| c.lanes.data.packet_bits = 0),
            ConfigError::ZeroPacketBits { lane }
        );
    }

    #[test]
    fn validate_rejects_zero_receivers() {
        let lane = PacketClass::Data;
        assert_eq!(
            rejected(|c| c.lanes.data.receivers = 0),
            ConfigError::ZeroReceivers { lane }
        );
    }

    #[test]
    fn validate_rejects_zero_bit_rate() {
        assert_eq!(
            rejected(|c| c.lanes.bits_per_cycle_per_vcsel = 0),
            ConfigError::ZeroBitRate
        );
    }

    #[test]
    fn validate_rejects_zero_queue_capacity() {
        assert_eq!(
            rejected(|c| c.outgoing_queue_capacity = 0),
            ConfigError::ZeroQueueCapacity
        );
    }

    #[test]
    fn validate_rejects_bit_error_rates_that_are_not_probabilities() {
        for bad in [-1e-9, 0.5, f64::INFINITY] {
            assert_eq!(
                rejected(|c| c.bit_error_rate = bad),
                ConfigError::BitErrorRate { ber: bad }
            );
        }
        let nan = rejected(|c| c.bit_error_rate = f64::NAN);
        assert!(matches!(nan, ConfigError::BitErrorRate { .. }), "{nan}");
    }

    #[test]
    #[should_panic(expected = "NodeMask capacity of 256")]
    fn oversized_network_panics_at_construction_not_mid_run() {
        FsoiConfig::nodes(257);
    }
}
