//! Transimpedance amplifier (TIA) and limiting amplifier model.
//!
//! Table 1 specifies the receive chain as "TIA & limiting amp,
//! bandwidth = 36 GHz, gain = 15000 V/A" dissipating 4.2 mW. The power of
//! high-speed CML amplifier chains in a given CMOS node scales roughly
//! linearly with bandwidth; we expose that proportionality constant
//! (calibrated against Table 1's 45 nm numbers) so configurations at other
//! bandwidths remain physically plausible.

use crate::units::{Current, Frequency, Power, Voltage};
use crate::OpticsError;

/// Analog front-end power per unit bandwidth for 45 nm CML stages,
/// calibrated so a 36 GHz TIA + limiting amp dissipates Table 1's 4.2 mW.
pub const CML_MILLIWATTS_PER_GHZ_45NM: f64 = 4.2 / 36.0;

/// A transimpedance amplifier followed by a limiting amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tia {
    bandwidth: Frequency,
    transimpedance_v_per_a: f64,
    input_noise_density_a_rthz: f64,
    mw_per_ghz: f64,
}

impl Tia {
    /// Creates a TIA.
    ///
    /// `input_noise_density_a_rthz` is the input-referred white noise
    /// current density in A/√Hz.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::NonPositive`] if any parameter is not
    /// strictly positive.
    pub fn new(
        bandwidth: Frequency,
        transimpedance_v_per_a: f64,
        input_noise_density_a_rthz: f64,
    ) -> Result<Self, OpticsError> {
        if bandwidth.as_hz() <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "TIA bandwidth",
                value: bandwidth.as_hz(),
            });
        }
        if transimpedance_v_per_a <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "transimpedance gain",
                value: transimpedance_v_per_a,
            });
        }
        if input_noise_density_a_rthz <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "input noise density",
                value: input_noise_density_a_rthz,
            });
        }
        Ok(Tia {
            bandwidth,
            transimpedance_v_per_a,
            input_noise_density_a_rthz,
            mw_per_ghz: CML_MILLIWATTS_PER_GHZ_45NM,
        })
    }

    /// The paper's Table 1 receiver: 36 GHz, 15 000 V/A; the input-referred
    /// noise density (19.5 pA/√Hz) is chosen so the full link budget closes
    /// at Table 1's BER of 10⁻¹⁰.
    pub fn paper_default() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: fixed paper constants satisfy the constructor's range checks"
        )]
        Tia::new(Frequency::from_ghz(36.0), 15_000.0, 19.5e-12).expect("paper defaults are valid")
    }

    /// Small-signal bandwidth.
    pub fn bandwidth(&self) -> Frequency {
        self.bandwidth
    }

    /// Transimpedance gain in V/A.
    pub fn transimpedance(&self) -> f64 {
        self.transimpedance_v_per_a
    }

    /// Input-referred noise current density in A/√Hz.
    pub fn input_noise_density(&self) -> f64 {
        self.input_noise_density_a_rthz
    }

    /// RMS input-referred noise current integrated over the bandwidth.
    pub fn input_noise_rms(&self) -> Current {
        crate::noise::circuit_noise_rms(self.input_noise_density_a_rthz, self.bandwidth)
    }

    /// Output voltage swing for an input current.
    pub fn output_voltage(&self, input: Current) -> Voltage {
        Voltage::from_volts(input.as_amps() * self.transimpedance_v_per_a)
    }

    /// Static power dissipation of the receive chain (always on — the
    /// receiver cannot know when light will arrive).
    pub fn power(&self) -> Power {
        Power::from_milliwatts(self.mw_per_ghz * self.bandwidth.to_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_power_is_4_2_mw() {
        let t = Tia::paper_default();
        assert!((t.power().to_milliwatts() - 4.2).abs() < 1e-9);
    }

    #[test]
    fn output_voltage_scales_with_gain() {
        let t = Tia::paper_default();
        // 50 µA × 15000 V/A = 0.75 V.
        let v = t.output_voltage(Current::from_amps(50e-6));
        assert!((v.as_volts() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn input_noise_rms_value() {
        let t = Tia::paper_default();
        // 19.5 pA/√Hz × √(36 GHz) ≈ 3.70 µA.
        let n = t.input_noise_rms().to_microamps();
        assert!((n - 3.70).abs() < 0.02, "σ = {n} µA");
    }

    #[test]
    fn validation() {
        assert!(Tia::new(Frequency::from_hz(0.0), 1.0, 1e-12).is_err());
        assert!(Tia::new(Frequency::from_ghz(36.0), 0.0, 1e-12).is_err());
        assert!(Tia::new(Frequency::from_ghz(36.0), 1.0, 0.0).is_err());
    }

    #[test]
    fn getters() {
        let t = Tia::paper_default();
        assert!((t.bandwidth().to_ghz() - 36.0).abs() < 1e-9);
        assert!((t.transimpedance() - 15_000.0).abs() < 1e-9);
        assert!((t.input_noise_density() - 19.5e-12).abs() < 1e-20);
    }
}
