//! Vertical-cavity surface-emitting laser (VCSEL) model.
//!
//! The paper's transmitters are 5 µm-aperture, 980 nm back-emitting VCSELs
//! directly modulated by their drive current (Table 1: threshold 0.14 mA,
//! parasitics 235 Ω / 90 fF, extinction ratio 11:1, biased at 0.48 mA from
//! a 2 V supply for 0.96 mW of electrical power). This module models the
//! L-I curve above threshold, the parasitic-limited electrical bandwidth,
//! and the on/off optical power levels of OOK modulation.

use crate::units::{Capacitance, Current, Frequency, Power, Resistance, Voltage};
use crate::OpticsError;
use core::f64::consts::PI;

/// A directly-modulated VCSEL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vcsel {
    threshold: Current,
    slope_efficiency_w_per_a: f64,
    bias: Current,
    extinction_ratio: f64,
    series_resistance: Resistance,
    parasitic_capacitance: Capacitance,
    supply: Voltage,
    relaxation_frequency: Frequency,
}

/// Builder for [`Vcsel`], with the paper's Table 1 values as defaults.
#[derive(Debug, Clone)]
pub struct VcselBuilder {
    threshold: Current,
    slope_efficiency_w_per_a: f64,
    bias: Current,
    extinction_ratio: f64,
    series_resistance: Resistance,
    parasitic_capacitance: Capacitance,
    supply: Voltage,
    relaxation_frequency: Frequency,
}

impl Default for VcselBuilder {
    fn default() -> Self {
        VcselBuilder {
            threshold: Current::from_milliamps(0.14),
            // Modest slope efficiency of a small-aperture back-emitting
            // device; chosen within the typical 0.3–0.7 W/A range so the
            // end-to-end budget closes at Table 1's Q-factor (BER 1e-10).
            slope_efficiency_w_per_a: 0.305,
            bias: Current::from_milliamps(0.48),
            extinction_ratio: 11.0,
            series_resistance: Resistance::from_ohms(235.0),
            parasitic_capacitance: Capacitance::from_femtofarads(90.0),
            supply: Voltage::from_volts(2.0),
            // High-speed 980 nm VCSELs demonstrate ~27 GHz relaxation
            // oscillation frequencies (paper's refs [21, 22]).
            relaxation_frequency: Frequency::from_ghz(27.0),
        }
    }
}

impl VcselBuilder {
    /// Starts from the paper's Table 1 parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the threshold current.
    pub fn threshold(mut self, i: Current) -> Self {
        self.threshold = i;
        self
    }

    /// Sets the slope efficiency (W of light per A above threshold).
    pub fn slope_efficiency(mut self, w_per_a: f64) -> Self {
        self.slope_efficiency_w_per_a = w_per_a;
        self
    }

    /// Sets the average bias current.
    pub fn bias(mut self, i: Current) -> Self {
        self.bias = i;
        self
    }

    /// Sets the extinction ratio (P₁/P₀).
    pub fn extinction_ratio(mut self, r: f64) -> Self {
        self.extinction_ratio = r;
        self
    }

    /// Sets the series (mesa) resistance.
    pub fn series_resistance(mut self, r: Resistance) -> Self {
        self.series_resistance = r;
        self
    }

    /// Sets the parasitic capacitance.
    pub fn parasitic_capacitance(mut self, c: Capacitance) -> Self {
        self.parasitic_capacitance = c;
        self
    }

    /// Sets the supply voltage seen by the device.
    pub fn supply(mut self, v: Voltage) -> Self {
        self.supply = v;
        self
    }

    /// Sets the intrinsic relaxation-oscillation frequency.
    pub fn relaxation_frequency(mut self, f: Frequency) -> Self {
        self.relaxation_frequency = f;
        self
    }

    /// Builds the VCSEL.
    ///
    /// # Errors
    ///
    /// Returns an [`OpticsError`] if the bias does not exceed threshold, the
    /// extinction ratio is not > 1, or any physical quantity is non-positive.
    pub fn build(self) -> Result<Vcsel, OpticsError> {
        if self.threshold.as_amps() <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "threshold current",
                value: self.threshold.as_amps(),
            });
        }
        if self.bias.as_amps() <= self.threshold.as_amps() {
            return Err(OpticsError::NonPositive {
                what: "bias margin above threshold",
                value: self.bias.as_amps() - self.threshold.as_amps(),
            });
        }
        if self.extinction_ratio <= 1.0 {
            return Err(OpticsError::NonPositive {
                what: "extinction ratio minus one",
                value: self.extinction_ratio - 1.0,
            });
        }
        if self.slope_efficiency_w_per_a <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "slope efficiency",
                value: self.slope_efficiency_w_per_a,
            });
        }
        Ok(Vcsel {
            threshold: self.threshold,
            slope_efficiency_w_per_a: self.slope_efficiency_w_per_a,
            bias: self.bias,
            extinction_ratio: self.extinction_ratio,
            series_resistance: self.series_resistance,
            parasitic_capacitance: self.parasitic_capacitance,
            supply: self.supply,
            relaxation_frequency: self.relaxation_frequency,
        })
    }
}

impl Vcsel {
    /// The paper's Table 1 device.
    ///
    /// ```
    /// use fsoi_optics::vcsel::Vcsel;
    /// let v = Vcsel::paper_default();
    /// assert!((v.electrical_power().to_milliwatts() - 0.96).abs() < 1e-6);
    /// ```
    pub fn paper_default() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: the builder's defaults are the paper's validated constants"
        )]
        VcselBuilder::new()
            .build()
            .expect("paper defaults are valid")
    }

    /// Returns a builder initialized with the paper's defaults.
    pub fn builder() -> VcselBuilder {
        VcselBuilder::new()
    }

    /// Threshold current.
    pub fn threshold(&self) -> Current {
        self.threshold
    }

    /// Average bias current.
    pub fn bias(&self) -> Current {
        self.bias
    }

    /// Extinction ratio P₁/P₀.
    pub fn extinction_ratio(&self) -> f64 {
        self.extinction_ratio
    }

    /// Series resistance of the mesa.
    pub fn series_resistance(&self) -> Resistance {
        self.series_resistance
    }

    /// Parasitic capacitance.
    pub fn parasitic_capacitance(&self) -> Capacitance {
        self.parasitic_capacitance
    }

    /// Instantaneous optical output for drive current `i` (L-I curve):
    /// zero below threshold, linear above.
    pub fn optical_power_at(&self, i: Current) -> Power {
        let above = (i.as_amps() - self.threshold.as_amps()).max(0.0);
        Power::from_watts(self.slope_efficiency_w_per_a * above)
    }

    /// Time-averaged optical output at the configured bias.
    pub fn average_optical_power(&self) -> Power {
        self.optical_power_at(self.bias)
    }

    /// Optical power emitted for a logical one. With average power `P̄` and
    /// extinction ratio `r`, `P₁ = 2 P̄ r / (r + 1)`.
    pub fn one_level_power(&self) -> Power {
        let p_avg = self.average_optical_power().as_watts();
        let r = self.extinction_ratio;
        Power::from_watts(2.0 * p_avg * r / (r + 1.0))
    }

    /// Optical power emitted for a logical zero (`P₀ = P₁ / r`).
    pub fn zero_level_power(&self) -> Power {
        Power::from_watts(self.one_level_power().as_watts() / self.extinction_ratio)
    }

    /// Optical modulation amplitude `OMA = P₁ − P₀`.
    pub fn modulation_amplitude(&self) -> Power {
        self.one_level_power() - self.zero_level_power()
    }

    /// DC electrical power drawn while active: `I_bias × V_supply`
    /// (Table 1: 0.48 mA at 2 V = 0.96 mW).
    pub fn electrical_power(&self) -> Power {
        Power::from_watts(self.bias.as_amps() * self.supply.as_volts())
    }

    /// Electrical power in standby: biased just below threshold so the
    /// device resumes lasing instantly when traffic arrives.
    pub fn standby_power(&self) -> Power {
        Power::from_watts(self.threshold.as_amps() * self.supply.as_volts())
    }

    /// Parasitic RC-limited electrical bandwidth, `1 / (2π R C)`.
    pub fn parasitic_bandwidth(&self) -> Frequency {
        let rc = self.series_resistance.as_ohms() * self.parasitic_capacitance.as_farads();
        Frequency::from_hz(1.0 / (2.0 * PI * rc))
    }

    /// Overall small-signal bandwidth: the intrinsic relaxation-oscillation
    /// response combined (root-sum-square of pole frequencies) with the
    /// parasitic RC pole. The driver equalizes the RC pole in practice,
    /// which the paper's 43 GHz driver bandwidth reflects; we weight the
    /// parasitic pole by the driver's peaking factor.
    pub fn modulation_bandwidth(&self, driver_peaking: f64) -> Frequency {
        let f_rel = self.relaxation_frequency.as_hz();
        let f_rc = self.parasitic_bandwidth().as_hz() * driver_peaking.max(1.0);
        let combined = 1.0 / (1.0 / (f_rel * f_rel) + 1.0 / (f_rc * f_rc)).sqrt();
        Frequency::from_hz(combined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_levels() {
        let v = Vcsel::paper_default();
        // Average optical power: 0.305 W/A × 0.34 mA = 0.104 mW (≈ −9.8 dBm).
        let p = v.average_optical_power().to_milliwatts();
        assert!((p - 0.104).abs() < 0.001, "P̄ = {p}");
        // One level = 2·P̄·11/12, zero = one/11.
        let p1 = v.one_level_power().to_milliwatts();
        let p0 = v.zero_level_power().to_milliwatts();
        assert!((p1 / p0 - 11.0).abs() < 1e-9);
        assert!(((p1 + p0) / 2.0 - p).abs() < 1e-9, "average preserved");
        let oma = v.modulation_amplitude().to_milliwatts();
        assert!((oma - (p1 - p0)).abs() < 1e-12);
    }

    #[test]
    fn electrical_and_standby_power() {
        let v = Vcsel::paper_default();
        assert!((v.electrical_power().to_milliwatts() - 0.96).abs() < 1e-9);
        assert!((v.standby_power().to_milliwatts() - 0.28).abs() < 1e-9);
    }

    #[test]
    fn li_curve_clamps_below_threshold() {
        let v = Vcsel::paper_default();
        assert_eq!(
            v.optical_power_at(Current::from_milliamps(0.1)).as_watts(),
            0.0
        );
        assert!(v.optical_power_at(Current::from_milliamps(0.5)).as_watts() > 0.0);
    }

    #[test]
    fn parasitic_bandwidth_value() {
        let v = Vcsel::paper_default();
        // 1/(2π · 235 Ω · 90 fF) ≈ 7.5 GHz.
        let f = v.parasitic_bandwidth().to_ghz();
        assert!((f - 7.52).abs() < 0.1, "f_RC = {f} GHz");
    }

    #[test]
    fn modulation_bandwidth_combines_poles() {
        let v = Vcsel::paper_default();
        let without_peaking = v.modulation_bandwidth(1.0).to_ghz();
        let with_peaking = v.modulation_bandwidth(6.0).to_ghz();
        assert!(without_peaking < with_peaking);
        assert!(with_peaking < 27.0, "cannot beat intrinsic response");
        // With strong equalization the link approaches the relaxation limit,
        // enough for 40 Gbps OOK.
        assert!(with_peaking > 20.0, "equalized BW = {with_peaking} GHz");
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            Vcsel::builder().bias(Current::from_milliamps(0.1)).build(),
            Err(OpticsError::NonPositive { .. })
        ));
        assert!(Vcsel::builder().extinction_ratio(0.9).build().is_err());
        assert!(Vcsel::builder().slope_efficiency(-1.0).build().is_err());
        assert!(Vcsel::builder()
            .threshold(Current::from_amps(0.0))
            .build()
            .is_err());
    }

    #[test]
    fn builder_setters_apply() {
        let v = Vcsel::builder()
            .threshold(Current::from_milliamps(0.2))
            .bias(Current::from_milliamps(1.0))
            .extinction_ratio(5.0)
            .slope_efficiency(0.3)
            .series_resistance(Resistance::from_ohms(100.0))
            .parasitic_capacitance(Capacitance::from_femtofarads(50.0))
            .supply(Voltage::from_volts(1.5))
            .relaxation_frequency(Frequency::from_ghz(20.0))
            .build()
            .unwrap();
        assert!((v.threshold().to_milliamps() - 0.2).abs() < 1e-9);
        assert!((v.bias().to_milliamps() - 1.0).abs() < 1e-9);
        assert!((v.extinction_ratio() - 5.0).abs() < 1e-9);
        assert!((v.series_resistance().as_ohms() - 100.0).abs() < 1e-9);
        assert!((v.parasitic_capacitance().to_femtofarads() - 50.0).abs() < 1e-9);
        assert!((v.electrical_power().to_milliwatts() - 1.5).abs() < 1e-9);
    }
}
