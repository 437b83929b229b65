//! Energy accounting for the optical interconnect.
//!
//! The architectural energy claims of §7.2 rest on three properties of the
//! signaling chain: transmitters sleep when idle (standby bias below
//! threshold), receivers stay on, and there is no per-hop buffering or
//! switching energy at all. This module converts the link budget of
//! `fsoi-optics` and the traffic counters of the network into joules
//! (see [`NetStats`]). Receivers are charged as always-on power, never per
//! bit: Table 1's receive energy per bit is a link-budget output
//! (`LinkBudget::rx_energy_per_bit_pj`), not an input here.
//!
//! [`NetStats`]: crate::network::NetStats

use crate::lane::Lanes;
use crate::network::NetStats;
use fsoi_optics::link::LinkBudget;

/// Per-node, per-network energy/power parameters derived from a link
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FsoiPowerModel {
    /// Transmit energy per bit while actively lasing, joules.
    pub tx_energy_per_bit_j: f64,
    /// Standby power per transmit VCSEL+driver, watts.
    pub tx_standby_w: f64,
    /// Always-on power per receiver bit (PD + TIA + limiting amp), watts.
    pub rx_always_on_w: f64,
    /// Core clock frequency, Hz (for cycle↔second conversion).
    pub core_clock_hz: f64,
}

/// An energy report for a simulated interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct EnergyReport {
    /// Dynamic transmit energy, joules.
    pub tx_dynamic_j: f64,
    /// Transmitter standby energy, joules.
    pub tx_standby_j: f64,
    /// Receiver static (always-on) energy, joules.
    pub rx_static_j: f64,
    /// Confirmation-channel energy, joules.
    pub confirmation_j: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub(crate) fn total_j(&self) -> f64 {
        self.tx_dynamic_j + self.tx_standby_j + self.rx_static_j + self.confirmation_j
    }
}

impl FsoiPowerModel {
    /// Builds the model from a link budget at the given core clock
    /// (the paper's 3.3 GHz).
    pub(crate) fn from_budget(budget: &LinkBudget, core_clock_hz: f64) -> Self {
        assert!(core_clock_hz > 0.0, "core clock must be positive");
        FsoiPowerModel {
            tx_energy_per_bit_j: budget.tx_energy_per_bit_pj * 1e-12,
            tx_standby_w: budget.tx_standby_mw * 1e-3,
            rx_always_on_w: budget.rx_power_mw * 1e-3,
            core_clock_hz,
        }
    }

    /// The paper's default: Table 1 budget at 3.3 GHz.
    pub(crate) fn paper_default() -> Self {
        let budget = fsoi_optics::link::OpticalLink::paper_default().budget();
        Self::from_budget(&budget, 3.3e9)
    }

    /// Computes the network energy over `cycles` for a run summarized by
    /// `stats`, for a system of `nodes` nodes with lane configuration
    /// `lanes`.
    ///
    /// Receive chains (data + meta + confirmation receivers) are charged
    /// for the whole interval; transmitters are charged per transmitted
    /// bit plus standby for the idle VCSELs.
    pub(crate) fn network_energy(
        &self,
        stats: &NetStats,
        lanes: &Lanes,
        nodes: usize,
        cycles: u64,
    ) -> EnergyReport {
        let seconds = cycles as f64 / self.core_clock_hz;
        let meta_bits = lanes.meta.packet_bits as f64;
        let data_bits = lanes.data.packet_bits as f64;
        let tx_bits =
            stats.transmissions[0] as f64 * meta_bits + stats.transmissions[1] as f64 * data_bits;
        // One standby transmitter lane set per node: meta + data +
        // confirmation VCSELs (dedicated-lane inventory idles dark; the
        // standby bias applies to the active lane set only, which is what
        // Table 3's per-node transmitter provisioning powers).
        let standby_lasers = (lanes.lane_bits() + 1) as f64 * nodes as f64;
        // Receivers: R per lane class × lane width, plus the confirmation
        // receiver, all always-on.
        let rx_bits_per_node = (lanes.meta.receivers * lanes.meta.vcsels
            + lanes.data.receivers * lanes.data.vcsels
            + 1) as f64;
        let confirmation_bits = stats.confirmations() as f64; // single-bit beams

        EnergyReport {
            tx_dynamic_j: tx_bits * self.tx_energy_per_bit_j,
            tx_standby_j: standby_lasers * self.tx_standby_w * seconds,
            rx_static_j: rx_bits_per_node * nodes as f64 * self.rx_always_on_w * seconds,
            confirmation_j: confirmation_bits * self.tx_energy_per_bit_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsoiConfig;
    use crate::network::FsoiNetwork;
    use crate::packet::PacketClass;
    use fsoi_sim::packet::{Interconnect, NetPacket};

    #[test]
    fn model_from_paper_budget() {
        let m = FsoiPowerModel::paper_default();
        assert!((m.tx_energy_per_bit_j * 1e12 - 0.18).abs() < 0.02);
        assert!((m.tx_standby_w * 1e3 - 0.43).abs() < 1e-6);
        assert!((m.rx_always_on_w * 1e3 - 4.2).abs() < 1e-6);
    }

    #[test]
    fn idle_network_burns_only_static_power() {
        let m = FsoiPowerModel::paper_default();
        let stats = NetStats::default();
        let lanes = Lanes::paper_default();
        let e = m.network_energy(&stats, &lanes, 16, 1_000_000);
        assert_eq!(e.tx_dynamic_j, 0.0);
        assert_eq!(e.confirmation_j, 0.0);
        assert!(e.tx_standby_j > 0.0);
        assert!(e.rx_static_j > 0.0);
        // Average idle power of the 16-node optical subsystem stays in the
        // low watts (the paper reports 1.8 W average under load).
        let p = e.total_j() / (1_000_000.0 / 3.3e9);
        assert!(p > 0.5 && p < 3.0, "idle power = {p} W");
    }

    #[test]
    fn traffic_adds_dynamic_energy() {
        let m = FsoiPowerModel::paper_default();
        let lanes = Lanes::paper_default();
        let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), 1);
        for src in 0..8 {
            net.inject(NetPacket::new(src, src + 8, PacketClass::Data, 0))
                .unwrap();
        }
        net.run(20);
        let cycles = net.now().as_u64();
        let e = m.network_energy(net.stats(), &lanes, 16, cycles);
        assert!(e.tx_dynamic_j > 0.0);
        assert!(e.confirmation_j > 0.0);
        // 8 data packets × 360 bits × ~0.18 pJ ≈ 0.5 nJ.
        assert!((e.tx_dynamic_j - 8.0 * 360.0 * 0.18e-12).abs() < 0.2e-9);
    }

    #[test]
    fn energy_report_totals() {
        let r = EnergyReport {
            tx_dynamic_j: 1.0,
            tx_standby_j: 2.0,
            rx_static_j: 3.0,
            confirmation_j: 4.0,
        };
        assert_eq!(r.total_j(), 10.0);
    }
}
