//! Ring crossbar configuration.

use crate::network::{Arbitration, ChannelConfig};

/// Configuration of the Corona-style token ring; supplies the engine's
/// [`Arbitration::Token`] row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingConfig {
    /// Number of nodes (= number of home channels).
    pub nodes: usize,
    /// Cycles for light (and the token) to circulate the full waveguide
    /// loop. A ~8 cm loop around a 2 cm die is ~2.7 ns in silicon
    /// (group index ≈ 4 at 980–1550 nm bands), ≈ 9 cycles at 3.3 GHz;
    /// Corona's own arbitration analysis uses an 8-cycle circulation.
    pub ring_circulation_cycles: u64,
    /// Serialization cycles of a 72-bit meta packet on one channel's WDM
    /// bundle.
    pub meta_serialization: u64,
    /// Serialization cycles of a 360-bit data packet.
    pub data_serialization: u64,
    /// Cycles to pass the token between consecutive contending writers
    /// once the channel is busy (a fraction of the loop).
    pub token_pass_cycles: u64,
    /// Per-node injection queue capacity, packets.
    pub injection_queue: usize,
    /// Static power per channel for ring-resonator thermal tuning plus
    /// modulators, watts. Corona-class designs keep thousands of rings on
    /// resonance; the paper's §2 highlights this as a WDM cost. Default
    /// 0.26 W/channel ≈ 16.6 W for 64 channels.
    pub channel_static_w: f64,
}

impl RingConfig {
    /// A Corona-class configuration for `n` nodes: generous WDM channel
    /// bandwidth (meta in 1 cycle, data in 3), 9-cycle loop, 2-cycle
    /// token pass.
    pub fn nodes(n: usize) -> Self {
        assert!(n >= 2, "a crossbar needs at least two nodes");
        RingConfig {
            nodes: n,
            ring_circulation_cycles: 9,
            meta_serialization: 1,
            data_serialization: 3,
            token_pass_cycles: 2,
            injection_queue: 16,
            channel_static_w: 0.26,
        }
    }

    /// Builder-style: sets the loop circulation time.
    pub fn with_circulation(mut self, cycles: u64) -> Self {
        assert!(cycles >= 1);
        self.ring_circulation_cycles = cycles;
        self
    }

    /// Mean token-acquisition wait for an idle channel: half a loop.
    pub fn idle_token_wait(&self) -> u64 {
        self.ring_circulation_cycles / 2
    }
}

impl From<RingConfig> for ChannelConfig {
    fn from(cfg: RingConfig) -> Self {
        ChannelConfig {
            nodes: cfg.nodes,
            meta_serialization: cfg.meta_serialization,
            data_serialization: cfg.data_serialization,
            injection_queue: cfg.injection_queue,
            channel_static_w: cfg.channel_static_w,
            arbitration: Arbitration::Token {
                circulation_cycles: cfg.ring_circulation_cycles,
                pass_cycles: cfg.token_pass_cycles,
                idle_wait_cycles: cfg.idle_token_wait(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RingConfig::nodes(64);
        assert_eq!(c.nodes, 64);
        assert_eq!(c.ring_circulation_cycles, 9);
        assert_eq!(c.idle_token_wait(), 4);
        assert_eq!(c.meta_serialization, 1);
        assert_eq!(c.data_serialization, 3);
    }

    #[test]
    fn builder() {
        let c = RingConfig::nodes(16).with_circulation(12);
        assert_eq!(c.idle_token_wait(), 6);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_panics() {
        RingConfig::nodes(1);
    }
}
