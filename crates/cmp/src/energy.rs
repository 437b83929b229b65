//! Chip-level energy accounting (§7.2, Figure 8).
//!
//! Beyond the interconnect (charged by each network's
//! `Interconnect::report`), the chip burns switching power in cores and
//! caches and temperature-dependent leakage everywhere. We use
//! Wattch-style aggregate rates per node, calibrated so the 16-node mesh
//! baseline lands near the paper's 156 W
//! average (121 W for the FSOI system): each core dissipates ~7 W active
//! and ~3 W stalled, with ~1.7 W of leakage per node.

/// Per-node power rates at 3.3 GHz / 45 nm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChipPowerModel {
    /// Core + L1 switching power while executing, watts.
    pub core_active_w: f64,
    /// Core power while stalled (clock + idle datapath), watts.
    pub core_stalled_w: f64,
    /// Leakage per node (core + caches + slice), watts.
    pub leakage_per_node_w: f64,
    /// Clock frequency, Hz.
    pub clock_hz: f64,
}

/// Energy totals for a run, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChipEnergy {
    /// Interconnect energy.
    pub network_j: f64,
    /// Core + cache switching energy.
    pub core_j: f64,
    /// Leakage energy.
    pub leakage_j: f64,
}

impl ChipEnergy {
    /// Total chip energy.
    pub fn total_j(&self) -> f64 {
        self.network_j + self.core_j + self.leakage_j
    }
}

impl ChipPowerModel {
    /// Calibrated 45 nm defaults (see module docs).
    pub(crate) fn paper_default() -> Self {
        ChipPowerModel {
            core_active_w: 7.0,
            core_stalled_w: 3.0,
            leakage_per_node_w: 1.7,
            clock_hz: 3.3e9,
        }
    }

    /// Computes the chip energy of a run.
    ///
    /// `active_cycles`/`stalled_cycles` are summed over all cores;
    /// `cycles` is the wall-clock of the run; `network_j` comes from the
    /// interconnect adapter.
    pub(crate) fn energy(
        &self,
        nodes: usize,
        cycles: u64,
        active_cycles: u64,
        stalled_cycles: u64,
        network_j: f64,
    ) -> ChipEnergy {
        let s = 1.0 / self.clock_hz;
        ChipEnergy {
            network_j,
            core_j: active_cycles as f64 * s * self.core_active_w
                + stalled_cycles as f64 * s * self.core_stalled_w,
            leakage_j: nodes as f64 * self.leakage_per_node_w * cycles as f64 * s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_power_magnitude() {
        // 16 nodes, all cores active the whole run: power should land in
        // the paper's 120–160 W band before network energy.
        let m = ChipPowerModel::paper_default();
        let cycles = 1_000_000u64;
        let e = m.energy(16, cycles, 16 * cycles, 0, 0.0);
        let p = e.total_j() / (cycles as f64 / m.clock_hz);
        assert!((110.0..160.0).contains(&p), "P = {p} W");
    }

    #[test]
    fn stalled_cores_burn_less() {
        let m = ChipPowerModel::paper_default();
        let busy = m.energy(16, 1000, 16_000, 0, 0.0);
        let stalled = m.energy(16, 1000, 0, 16_000, 0.0);
        assert!(stalled.core_j < busy.core_j);
        assert_eq!(stalled.leakage_j, busy.leakage_j);
    }

    #[test]
    fn faster_runs_save_leakage() {
        let m = ChipPowerModel::paper_default();
        let slow = m.energy(16, 2000, 16_000, 16_000, 0.0);
        let fast = m.energy(16, 1000, 16_000, 0, 0.0);
        assert!(fast.leakage_j < slow.leakage_j);
        assert!(fast.total_j() < slow.total_j());
    }

    #[test]
    fn edp_and_totals() {
        let e = ChipEnergy {
            network_j: 1.0,
            core_j: 2.0,
            leakage_j: 3.0,
        };
        assert_eq!(e.total_j(), 6.0);
    }
}
