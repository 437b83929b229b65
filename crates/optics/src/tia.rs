//! Transimpedance amplifier (TIA) and limiting amplifier model.
//!
//! Table 1 specifies the receive chain as "TIA & limiting amp,
//! bandwidth = 36 GHz, gain = 15000 V/A" dissipating 4.2 mW. The power of
//! high-speed CML amplifier chains in a given CMOS node scales roughly
//! linearly with bandwidth; we expose that proportionality constant
//! (calibrated against Table 1's 45 nm numbers) so configurations at other
//! bandwidths remain physically plausible.

use crate::units::{Current, Frequency, Power};

/// Analog front-end power per unit bandwidth for 45 nm CML stages,
/// calibrated so a 36 GHz TIA + limiting amp dissipates Table 1's 4.2 mW.
pub(crate) const CML_MILLIWATTS_PER_GHZ_45NM: f64 = 4.2 / 36.0;

/// A transimpedance amplifier followed by a limiting amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tia {
    bandwidth: Frequency,
    input_noise_density_a_rthz: f64,
}

impl Tia {
    /// The paper's Table 1 receiver: 36 GHz, 15 000 V/A (the gain does not
    /// enter the budget, which is worked on input-referred currents); the
    /// input-referred noise density (19.5 pA/√Hz) is chosen so the full
    /// link budget closes at Table 1's BER of 10⁻¹⁰.
    pub fn paper_default() -> Self {
        Tia {
            bandwidth: Frequency::from_ghz(36.0),
            input_noise_density_a_rthz: 19.5e-12,
        }
    }

    /// Small-signal bandwidth.
    pub(crate) fn bandwidth(&self) -> Frequency {
        self.bandwidth
    }

    /// RMS input-referred noise current integrated over the bandwidth.
    pub(crate) fn input_noise_rms(&self) -> Current {
        crate::noise::circuit_noise_rms(self.input_noise_density_a_rthz, self.bandwidth)
    }

    /// Static power dissipation of the receive chain (always on — the
    /// receiver cannot know when light will arrive).
    pub(crate) fn power(&self) -> Power {
        Power::from_milliwatts(CML_MILLIWATTS_PER_GHZ_45NM * self.bandwidth.to_ghz())
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
    fn input_noise_rms_value() {
        let t = Tia::paper_default();
        // 19.5 pA/√Hz × √(36 GHz) ≈ 3.70 µA.
        let n = t.input_noise_rms().to_microamps();
        assert!((n - 3.70).abs() < 0.02, "σ = {n} µA");
    }
}
