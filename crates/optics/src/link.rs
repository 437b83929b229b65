//! End-to-end FSOI link budget — regenerates the paper's **Table 1**.
//!
//! The budget chains the models of this crate: the VCSEL's OOK power
//! levels, the Gaussian beam launched by the transmitter micro-lens, the
//! diagonal free-space path's loss, the photodetector's photocurrents, and
//! the TIA's noise, yielding the Q-factor, BER, bandwidth, jitter, and the
//! power/energy numbers the architecture-level simulators charge per bit.
//!
//! ```
//! use fsoi_optics::link::OpticalLink;
//! let budget = OpticalLink::paper_default().budget();
//! assert!((budget.path_loss_db - 2.6).abs() < 0.3);      // Table 1: 2.6 dB
//! assert!(budget.bit_error_rate < 1e-9);                 // Table 1: 1e-10
//! assert!((budget.rx_power_mw - 4.2).abs() < 0.1);       // Table 1: 4.2 mW
//! ```

use crate::gaussian::GaussianBeam;
use crate::noise;
use crate::path::OpticalPath;
use crate::photodetector::Photodetector;
use crate::tia::{Tia, CML_MILLIWATTS_PER_GHZ_45NM};
use crate::units::{Frequency, Length, Power, Resistance, Voltage};
use crate::vcsel::Vcsel;
use crate::OpticsError;

/// Driver output self-capacitance added to the VCSEL's parasitic load.
const DRIVER_SELF_CAPACITANCE: f64 = 40e-15;
/// Leakage of the powered-down driver in standby (bias DAC stays alive).
const DRIVER_STANDBY_LEAKAGE_MW: f64 = 0.15;
/// Switching activity factor of the driver output stage for random data.
const SWITCHING_ACTIVITY: f64 = 0.25;
/// TIA input resistance seen by the photodetector.
const TIA_INPUT_RESISTANCE_OHMS: f64 = 50.0;
/// Peaking/equalization factor with which the driver extends the VCSEL's
/// parasitic pole.
const DRIVER_PEAKING: f64 = 6.0;

/// A complete single-bit FSOI link: transmitter, optics, and receiver.
#[derive(Debug, Clone)]
pub struct OpticalLink {
    vcsel: Vcsel,
    photodetector: Photodetector,
    tia: Tia,
    path: OpticalPath,
    tx_aperture: Length,
    wavelength: Length,
    data_rate: Frequency,
    driver_bandwidth: Frequency,
    supply: Voltage,
}

/// The computed link budget: every row of the paper's Table 1 plus the
/// per-bit energies used by the architectural energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Total optical path loss in dB (Table 1: 2.6 dB).
    pub path_loss_db: f64,
    /// Geometric flight distance in metres (Table 1: 2 cm).
    pub distance_m: f64,
    /// Received optical power for a logical one, dBm.
    pub received_one_dbm: f64,
    /// Received optical power for a logical zero, dBm.
    pub received_zero_dbm: f64,
    /// Photocurrent for a one, µA.
    pub photocurrent_one_ua: f64,
    /// Photocurrent for a zero, µA.
    pub photocurrent_zero_ua: f64,
    /// RMS noise on the one rail, µA.
    pub noise_one_ua: f64,
    /// RMS noise on the zero rail, µA.
    pub noise_zero_ua: f64,
    /// The OOK Q-factor at the decision point.
    pub q_factor: f64,
    /// Signal-to-noise ratio in dB, defined as `10 log₁₀ Q`
    /// (Table 1: 7.5 dB; see EXPERIMENTS.md on the definition).
    pub snr_db: f64,
    /// Bit error rate (Table 1: 10⁻¹⁰).
    pub bit_error_rate: f64,
    /// Overall link small-signal bandwidth, GHz.
    pub link_bandwidth_ghz: f64,
    /// 10–90 % rise time, ps.
    pub rise_time_ps: f64,
    /// RMS cycle-to-cycle jitter, ps (Table 1: 1.7 ps).
    pub jitter_ps: f64,
    /// Speed-of-light propagation delay, ps.
    pub propagation_delay_ps: f64,
    /// Laser driver power, mW (Table 1: 6.3 mW).
    pub driver_power_mw: f64,
    /// VCSEL electrical power, mW (Table 1: 0.96 mW).
    pub vcsel_power_mw: f64,
    /// Total transmitter power while transmitting, mW.
    pub tx_active_mw: f64,
    /// Transmitter standby power, mW (Table 1: 0.43 mW).
    pub tx_standby_mw: f64,
    /// Receiver power (always on), mW (Table 1: 4.2 mW).
    pub rx_power_mw: f64,
    /// Transmit energy per bit, pJ.
    pub tx_energy_per_bit_pj: f64,
    /// Receive energy per bit, pJ.
    pub rx_energy_per_bit_pj: f64,
    /// Data rate, Gbps (Table 1: 40 Gbps).
    pub data_rate_gbps: f64,
}

impl OpticalLink {
    /// The paper's Table 1 link: 2 cm diagonal, 980 nm, 40 Gbps, 43 GHz
    /// driver, 90/190 µm micro-lenses.
    pub fn paper_default() -> Self {
        OpticalLink {
            vcsel: Vcsel::paper_default(),
            photodetector: Photodetector::paper_default(),
            tia: Tia::paper_default(),
            path: OpticalPath::paper_diagonal(),
            tx_aperture: Length::from_micrometers(90.0),
            wavelength: Length::from_nanometers(980.0),
            data_rate: Frequency::from_ghz(40.0),
            driver_bandwidth: Frequency::from_ghz(43.0),
            supply: Voltage::from_volts(1.0),
        }
    }

    /// Creates a link from explicit components.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per physical component of the link"
    )]
    pub fn new(
        vcsel: Vcsel,
        photodetector: Photodetector,
        tia: Tia,
        path: OpticalPath,
        tx_aperture: Length,
        wavelength: Length,
        data_rate: Frequency,
        driver_bandwidth: Frequency,
    ) -> Self {
        OpticalLink {
            vcsel,
            photodetector,
            tia,
            path,
            tx_aperture,
            wavelength,
            data_rate,
            driver_bandwidth,
            supply: Voltage::from_volts(1.0),
        }
    }

    /// The collimated beam launched by the transmitter micro-lens (waist
    /// radius = half the lens aperture).
    pub fn beam(&self) -> GaussianBeam {
        #[expect(
            clippy::expect_used,
            reason = "P1: inputs were validated by this link's own constructor"
        )]
        GaussianBeam::new(
            Length::from_meters(self.tx_aperture.as_meters() / 2.0),
            self.wavelength,
        )
        .expect("apertures and wavelengths are validated on construction")
    }

    /// The VCSEL of this link.
    pub fn vcsel(&self) -> &Vcsel {
        &self.vcsel
    }

    /// The optical path of this link.
    pub fn path(&self) -> &OpticalPath {
        &self.path
    }

    /// The configured data rate.
    pub fn data_rate(&self) -> Frequency {
        self.data_rate
    }

    /// The overall small-signal link bandwidth: root-sum-square combination
    /// of the driver, (equalized) VCSEL, photodetector and TIA poles.
    pub fn link_bandwidth(&self) -> Frequency {
        let stages = [
            self.driver_bandwidth.as_hz(),
            self.vcsel.modulation_bandwidth(DRIVER_PEAKING).as_hz(),
            self.photodetector
                .bandwidth_into(Resistance::from_ohms(TIA_INPUT_RESISTANCE_OHMS))
                .as_hz(),
            self.tia.bandwidth().as_hz(),
        ];
        let inv_sq: f64 = stages.iter().map(|f| 1.0 / (f * f)).sum();
        Frequency::from_hz(1.0 / inv_sq.sqrt())
    }

    /// Laser-driver power: static CML analog power scaling with the driver
    /// bandwidth, plus dynamic switching of the VCSEL + driver load.
    pub fn driver_power(&self) -> Power {
        let static_mw = CML_MILLIWATTS_PER_GHZ_45NM * self.driver_bandwidth.to_ghz();
        let c_load = self.vcsel.parasitic_capacitance().as_farads() + DRIVER_SELF_CAPACITANCE;
        let v = self.supply.as_volts();
        let dynamic_w = SWITCHING_ACTIVITY * c_load * v * v * self.data_rate.as_hz();
        Power::from_milliwatts(static_mw) + Power::from_watts(dynamic_w)
    }

    /// Computes the full link budget.
    pub fn budget(&self) -> LinkBudget {
        let beam = self.beam();
        let loss = self.path.total_loss(&beam);

        let p1 = self.vcsel.one_level_power().attenuate(loss);
        let p0 = self.vcsel.zero_level_power().attenuate(loss);
        let i1 = self.photodetector.photocurrent(p1);
        let i0 = self.photodetector.photocurrent(p0);

        let bw = self.tia.bandwidth();
        let circuit = self.tia.input_noise_rms();
        let sigma1 = noise::combine_rms(&[circuit, noise::shot_noise_rms(i1, bw)]);
        let sigma0 = noise::combine_rms(&[circuit, noise::shot_noise_rms(i0, bw)]);
        let q = noise::q_factor(i1, i0, sigma1, sigma0);
        let ber = noise::q_to_ber(q);

        let link_bw = self.link_bandwidth();
        let rise_time_ps = 0.35 / link_bw.as_hz() * 1e12;
        // Noise-to-jitter conversion at the eye crossing: the crossing
        // slope is ≈ eye/t_r, so σ_jitter = σ_noise / slope ≈ t_r / (2 Q)
        // for balanced rails.
        let jitter_ps = rise_time_ps / (2.0 * q.max(1e-9));

        let driver = self.driver_power();
        let vcsel_p = self.vcsel.electrical_power();
        let tx_active = driver + vcsel_p;
        let tx_standby =
            self.vcsel.standby_power() + Power::from_milliwatts(DRIVER_STANDBY_LEAKAGE_MW);
        let rx = self.tia.power();
        let bits_per_s = self.data_rate.as_hz();

        LinkBudget {
            path_loss_db: loss.db(),
            distance_m: self.path.length().as_meters(),
            received_one_dbm: p1.to_dbm(),
            received_zero_dbm: p0.to_dbm(),
            photocurrent_one_ua: i1.to_microamps(),
            photocurrent_zero_ua: i0.to_microamps(),
            noise_one_ua: sigma1.to_microamps(),
            noise_zero_ua: sigma0.to_microamps(),
            q_factor: q,
            snr_db: 10.0 * q.max(1e-300).log10(),
            bit_error_rate: ber,
            link_bandwidth_ghz: link_bw.to_ghz(),
            rise_time_ps,
            jitter_ps,
            propagation_delay_ps: self.path.propagation_delay_ps(),
            driver_power_mw: driver.to_milliwatts(),
            vcsel_power_mw: vcsel_p.to_milliwatts(),
            tx_active_mw: tx_active.to_milliwatts(),
            tx_standby_mw: tx_standby.to_milliwatts(),
            rx_power_mw: rx.to_milliwatts(),
            tx_energy_per_bit_pj: tx_active.as_watts() / bits_per_s * 1e12,
            rx_energy_per_bit_pj: rx.as_watts() / bits_per_s * 1e12,
            data_rate_gbps: self.data_rate.to_ghz(),
        }
    }

    /// Checks that the budget closes at the target BER.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::LinkDoesNotClose`] when the achieved Q-factor
    /// falls below the Q required for `target_ber`.
    pub fn validate(&self, target_ber: f64) -> Result<LinkBudget, OpticsError> {
        let budget = self.budget();
        let required = noise::ber_to_q(target_ber);
        if budget.q_factor < required {
            return Err(OpticsError::LinkDoesNotClose {
                q_factor: budget.q_factor,
                required,
            });
        }
        Ok(budget)
    }
}

impl LinkBudget {
    /// Renders the budget as `(label, value)` rows matching the layout of
    /// the paper's Table 1, for the experiment harness to print.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Trans. distance".into(),
                format!("{:.0} cm", self.distance_m * 100.0),
            ),
            (
                "Optical path loss".into(),
                format!("{:.1} dB", self.path_loss_db),
            ),
            (
                "Link bandwidth".into(),
                format!("{:.1} GHz", self.link_bandwidth_ghz),
            ),
            (
                "Data rate".into(),
                format!("{:.0} Gbps", self.data_rate_gbps),
            ),
            (
                "Signal-to-noise ratio".into(),
                format!("{:.1} dB", self.snr_db),
            ),
            ("Q factor".into(), format!("{:.2}", self.q_factor)),
            (
                "Bit-error-rate (BER)".into(),
                format!("{:.1e}", self.bit_error_rate),
            ),
            (
                "Cycle-to-cycle jitter".into(),
                format!("{:.1} ps", self.jitter_ps),
            ),
            (
                "Laser driver power".into(),
                format!("{:.1} mW", self.driver_power_mw),
            ),
            (
                "VCSEL power".into(),
                format!("{:.2} mW", self.vcsel_power_mw),
            ),
            (
                "Transmitter (standby)".into(),
                format!("{:.2} mW", self.tx_standby_mw),
            ),
            (
                "Receiver power".into(),
                format!("{:.1} mW", self.rx_power_mw),
            ),
            (
                "TX energy/bit".into(),
                format!("{:.3} pJ", self.tx_energy_per_bit_pj),
            ),
            (
                "RX energy/bit".into(),
                format!("{:.3} pJ", self.rx_energy_per_bit_pj),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_path_loss() {
        let b = OpticalLink::paper_default().budget();
        assert!(
            (b.path_loss_db - 2.6).abs() < 0.2,
            "loss = {}",
            b.path_loss_db
        );
        assert!((b.distance_m - 0.02).abs() < 1e-12);
    }

    #[test]
    fn table1_ber_and_q() {
        let b = OpticalLink::paper_default().budget();
        assert!(
            b.bit_error_rate < 5e-10 && b.bit_error_rate > 1e-12,
            "BER = {:.2e} (paper: 1e-10)",
            b.bit_error_rate
        );
        assert!((b.q_factor - 6.36).abs() < 0.4, "Q = {}", b.q_factor);
        // SNR defined as 10 log10 Q lands near the paper's 7.5 dB.
        assert!((b.snr_db - 7.5).abs() < 0.8, "SNR = {} dB", b.snr_db);
    }

    #[test]
    fn table1_powers() {
        let b = OpticalLink::paper_default().budget();
        assert!(
            (b.driver_power_mw - 6.3).abs() < 0.15,
            "driver = {}",
            b.driver_power_mw
        );
        assert!((b.vcsel_power_mw - 0.96).abs() < 1e-6);
        assert!((b.tx_standby_mw - 0.43).abs() < 1e-6);
        assert!((b.rx_power_mw - 4.2).abs() < 1e-6);
    }

    #[test]
    fn table1_jitter() {
        let b = OpticalLink::paper_default().budget();
        assert!(
            (b.jitter_ps - 1.7).abs() < 0.3,
            "jitter = {} ps",
            b.jitter_ps
        );
    }

    #[test]
    fn propagation_delay_speed_of_light() {
        let b = OpticalLink::paper_default().budget();
        assert!((b.propagation_delay_ps - 66.7).abs() < 0.3);
    }

    #[test]
    fn energies_per_bit() {
        let b = OpticalLink::paper_default().budget();
        // (6.3 + 0.96) mW / 40 Gbps ≈ 0.18 pJ/bit TX; 4.2/40 = 0.105 RX.
        assert!((b.tx_energy_per_bit_pj - 0.18).abs() < 0.02);
        assert!((b.rx_energy_per_bit_pj - 0.105).abs() < 0.005);
    }

    #[test]
    fn validate_closes_at_1e9_but_not_1e15() {
        let link = OpticalLink::paper_default();
        assert!(link.validate(1e-9).is_ok());
        assert!(matches!(
            link.validate(1e-15),
            Err(OpticsError::LinkDoesNotClose { .. })
        ));
    }

    #[test]
    fn relaxed_ber_frees_margin() {
        // The paper argues collisions let the BER target relax from 1e-10
        // to 1e-5: check the Q headroom that frees (6.36 -> 4.26).
        let needed_strict = noise::ber_to_q(1e-10);
        let needed_relaxed = noise::ber_to_q(1e-5);
        assert!(needed_strict - needed_relaxed > 2.0);
        let b = OpticalLink::paper_default().budget();
        assert!(
            b.q_factor > needed_relaxed + 1.5,
            "large margin at relaxed BER"
        );
    }

    #[test]
    fn table1_rows_render() {
        let rows = OpticalLink::paper_default().budget().table1_rows();
        assert!(rows.len() >= 12);
        assert!(rows.iter().any(|(k, _)| k.contains("path loss")));
        assert!(rows.iter().all(|(_, v)| !v.is_empty()));
    }

    #[test]
    fn shorter_path_closes_better() {
        let link = OpticalLink::paper_default();
        let mut short_path = OpticalPath::new(Length::from_micrometers(95.0)).unwrap();
        short_path
            .push(crate::path::PathElement::FreeSpace(
                Length::from_millimeters(5.0),
            ))
            .unwrap();
        let short = OpticalLink::new(
            Vcsel::paper_default(),
            Photodetector::paper_default(),
            Tia::paper_default(),
            short_path,
            Length::from_micrometers(90.0),
            Length::from_nanometers(980.0),
            Frequency::from_ghz(40.0),
            Frequency::from_ghz(43.0),
        );
        assert!(short.budget().q_factor > link.budget().q_factor);
    }

    #[test]
    fn accessors() {
        let link = OpticalLink::paper_default();
        assert!((link.data_rate().to_ghz() - 40.0).abs() < 1e-9);
        assert!((link.beam().waist_radius().to_micrometers() - 45.0).abs() < 1e-9);
        assert!((link.vcsel().extinction_ratio() - 11.0).abs() < 1e-9);
        assert!((link.path().length().as_meters() - 0.02).abs() < 1e-12);
        assert!(link.link_bandwidth().to_ghz() > 14.0);
    }
}
