//! Worst-case-loss budget of an on-chip ring-based optical crossbar.
//!
//! *Optical Crossbars on Chip: a comparative study based on worst-case
//! losses* (Li, Le Beux, Nicolescu, Trajkovic, O'Connor — PAPERS.md,
//! arXiv 1512.07492) sizes crossbar laser power from the **worst-case
//! insertion loss** of the passive optical fabric: the longest
//! input-to-output path fixes the launch power every port must provision,
//! and that loss grows with the radix. This module reproduces that
//! methodology for a matrix crossbar of add-drop microring resonators and
//! feeds the result through the same receiver/noise machinery as the FSOI
//! link budget ([`crate::link`]), so the architectural simulators charge
//! crossbar energy from the same physical pipeline as FSOI, mesh and
//! Corona.
//!
//! The worst-case path from input `i` to output `j` of an `N × N` matrix
//! crossbar travels a full row then a full column of the ring matrix:
//!
//! * passes `2 (N − 1)` off-resonance rings (through loss each),
//! * crosses `2 (N − 1)` perpendicular waveguides (crossing loss each),
//! * is dropped by exactly one on-resonance ring (drop loss),
//! * propagates ≈ two chip edges of waveguide, plus a few bends.
//!
//! Every term is linear in the radix except propagation, which is fixed by
//! the die size — so the loss (in dB) climbs linearly with `N` and the
//! required laser power climbs *exponentially*. That blow-up is the
//! study's central observation and the reason the crossbar makes an
//! honest worst-case baseline for the 64/256-node design-space grids.
//!
//! ```
//! use fsoi_optics::crossbar::CrossbarLossModel;
//! let model = CrossbarLossModel::paper_default();
//! let small = model.budget(16, 1e-12).worst_case_loss_db;
//! let large = model.budget(256, 1e-12).worst_case_loss_db;
//! assert!(large > small + 30.0, "loss climbs steeply with radix");
//! assert!(model.budget(64, 1e-12).port_power_mw > 0.0);
//! ```

use crate::noise;
use crate::photodetector::Photodetector;
use crate::tia::Tia;
use crate::units::{Loss, Power};

/// Bisection iterations for the receiver-sensitivity solve. 80 halvings
/// of a 12-decade bracket pin the answer far below f64 noise.
const SENSITIVITY_ITERATIONS: u32 = 80;

/// Loss coefficients and worst-case path shape of a matrix crossbar,
/// following the component values used by the PAPERS.md crossbar study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarLossModel {
    /// Loss per waveguide crossing, dB.
    pub crossing_db: f64,
    /// Loss per off-resonance ring passed in the through port, dB.
    pub ring_through_db: f64,
    /// Loss of the single on-resonance drop, dB.
    pub ring_drop_db: f64,
    /// Propagation loss of the silicon waveguide, dB/cm.
    pub propagation_db_per_cm: f64,
    /// Loss per 90° bend, dB.
    pub bend_db: f64,
    /// Number of bends on the worst-case path.
    pub bends: u32,
    /// Die edge, cm (the worst-case path spans about two edges).
    pub chip_edge_cm: f64,
    /// Laser wall-plug efficiency (optical out / electrical in).
    pub laser_efficiency: f64,
    /// Optical one/zero extinction ratio of the modulated carrier.
    pub extinction_ratio: f64,
    /// Per-wavelength data rate, Gbps.
    pub data_rate_gbps: f64,
}

/// The sized crossbar port budget at a given radix: worst-case loss,
/// receiver sensitivity, and the laser/receiver power every port must
/// provision to close the link on its longest path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarBudget {
    /// Crossbar radix (ports).
    pub radix: usize,
    /// Worst-case insertion loss, dB.
    pub worst_case_loss_db: f64,
    /// Q-factor required for the target BER.
    pub required_q: f64,
    /// Receiver sensitivity: one-level optical power at the detector, dBm.
    pub received_one_dbm: f64,
    /// Launched one-level optical power sized for the worst-case path, mW.
    pub laser_optical_mw: f64,
    /// Electrical laser power behind that launch power, mW.
    pub laser_electrical_mw: f64,
    /// Receiver (TIA) power, mW.
    pub rx_power_mw: f64,
    /// Total per-port power (laser + receiver), mW.
    pub port_power_mw: f64,
    /// Energy per bit at the configured data rate, pJ.
    pub energy_per_bit_pj: f64,
    /// Per-wavelength data rate, Gbps.
    pub data_rate_gbps: f64,
}

impl CrossbarLossModel {
    /// Component losses in the range the crossbar study uses: 0.12 dB per
    /// crossing, 5 mdB per ring pass-by, 0.5 dB drop, 0.274 dB/cm
    /// propagation on a 2 cm die, 10 % wall-plug lasers at 10 Gbps per
    /// wavelength.
    pub fn paper_default() -> Self {
        CrossbarLossModel {
            crossing_db: 0.12,
            ring_through_db: 0.005,
            ring_drop_db: 0.5,
            propagation_db_per_cm: 0.274,
            bend_db: 0.005,
            bends: 4,
            chip_edge_cm: 2.0,
            laser_efficiency: 0.1,
            extinction_ratio: 10.0,
            data_rate_gbps: 10.0,
        }
    }

    /// Worst-case insertion loss of the `radix × radix` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `radix < 2`.
    pub(crate) fn worst_case_loss(&self, radix: usize) -> Loss {
        assert!(radix >= 2, "a crossbar needs at least two ports");
        let passes = 2 * (radix - 1);
        let db = self.ring_drop_db
            + passes as f64 * (self.ring_through_db + self.crossing_db)
            + f64::from(self.bends) * self.bend_db
            + 2.0 * self.chip_edge_cm * self.propagation_db_per_cm;
        Loss::from_db(db)
    }

    /// Receiver sensitivity: the smallest one-level power at the detector
    /// whose Q-factor reaches `required_q`, found by bisection over the
    /// shot-noise-coupled Q expression (the same photodetector/TIA/noise
    /// chain as [`crate::link::OpticalLink::budget`]).
    fn sensitivity_mw(&self, required_q: f64) -> f64 {
        let pd = Photodetector::paper_default();
        let tia = Tia::paper_default();
        let bw = tia.bandwidth();
        let circuit = tia.input_noise_rms();
        let q_at = |one_mw: f64| {
            let p1 = Power::from_milliwatts(one_mw);
            let p0 = Power::from_milliwatts(one_mw / self.extinction_ratio);
            let i1 = pd.photocurrent(p1);
            let i0 = pd.photocurrent(p0);
            let sigma1 = noise::combine_rms(&[circuit, noise::shot_noise_rms(i1, bw)]);
            let sigma0 = noise::combine_rms(&[circuit, noise::shot_noise_rms(i0, bw)]);
            noise::q_factor(i1, i0, sigma1, sigma0)
        };
        // Q grows monotonically with received power: bisect.
        let (mut lo, mut hi) = (1e-9, 1e3);
        for _ in 0..SENSITIVITY_ITERATIONS {
            let mid = (lo + hi) / 2.0;
            if q_at(mid) < required_q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Sizes the per-port budget for `radix` ports at `target_ber`.
    ///
    /// # Panics
    ///
    /// Panics if `radix < 2`.
    pub fn budget(&self, radix: usize, target_ber: f64) -> CrossbarBudget {
        let loss = self.worst_case_loss(radix);
        let required_q = noise::ber_to_q(target_ber);
        let received_one_mw = self.sensitivity_mw(required_q);
        // The launch power must survive the worst-case path; mean optical
        // power over random OOK data is (one + zero) / 2.
        let laser_optical_mw = received_one_mw / loss.transmittance();
        let mean_optical_mw = laser_optical_mw * (1.0 + 1.0 / self.extinction_ratio) / 2.0;
        let laser_electrical_mw = mean_optical_mw / self.laser_efficiency;
        let rx_power_mw = Tia::paper_default().power().to_milliwatts();
        let port_power_mw = laser_electrical_mw + rx_power_mw;
        CrossbarBudget {
            radix,
            worst_case_loss_db: loss.db(),
            required_q,
            received_one_dbm: Power::from_milliwatts(received_one_mw).to_dbm(),
            laser_optical_mw,
            laser_electrical_mw,
            rx_power_mw,
            port_power_mw,
            // mW / Gbps = pJ per bit.
            energy_per_bit_pj: port_power_mw / self.data_rate_gbps,
            data_rate_gbps: self.data_rate_gbps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_grows_linearly_with_radix() {
        let m = CrossbarLossModel::paper_default();
        let l16 = m.worst_case_loss(16).db();
        let l64 = m.worst_case_loss(64).db();
        let l256 = m.worst_case_loss(256).db();
        assert!(l16 < l64 && l64 < l256);
        // Each extra port adds 2 (through + crossing) dB.
        let per_port = 2.0 * (0.005 + 0.12);
        assert!((l64 - l16 - 48.0 * per_port).abs() < 1e-9);
        assert!((l256 - l64 - 192.0 * per_port).abs() < 1e-9);
    }

    #[test]
    fn budget_power_explodes_with_radix() {
        let m = CrossbarLossModel::paper_default();
        let b64 = m.budget(64, 1e-12);
        let b256 = m.budget(256, 1e-12);
        assert!(b64.laser_optical_mw > 0.0);
        // +192 ports ≈ +48 dB of worst-case loss ⇒ ~4.8 decades of power.
        assert!(b256.laser_optical_mw > b64.laser_optical_mw * 1e4);
        assert!(b256.energy_per_bit_pj > b64.energy_per_bit_pj);
    }

    #[test]
    fn sensitivity_meets_the_required_q() {
        // The sized budget must actually close: replay the received power
        // through the noise chain and check Q ≥ required.
        let m = CrossbarLossModel::paper_default();
        let b = m.budget(64, 1e-12);
        let pd = Photodetector::paper_default();
        let tia = Tia::paper_default();
        let p1 = Power::from_milliwatts(10f64.powf(b.received_one_dbm / 10.0));
        let p0 = Power::from_milliwatts(p1.to_milliwatts() / m.extinction_ratio);
        let i1 = pd.photocurrent(p1);
        let i0 = pd.photocurrent(p0);
        let s1 = noise::combine_rms(&[
            tia.input_noise_rms(),
            noise::shot_noise_rms(i1, tia.bandwidth()),
        ]);
        let s0 = noise::combine_rms(&[
            tia.input_noise_rms(),
            noise::shot_noise_rms(i0, tia.bandwidth()),
        ]);
        let q = noise::q_factor(i1, i0, s1, s0);
        assert!(
            q >= b.required_q * 0.999,
            "q = {q}, required = {}",
            b.required_q
        );
    }

    #[test]
    #[should_panic(expected = "at least two ports")]
    fn single_port_panics() {
        CrossbarLossModel::paper_default().worst_case_loss(1);
    }
}
