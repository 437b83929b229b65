//! Photodetector model.
//!
//! The paper's receivers are resonant-cavity photodiodes fabricated on the
//! same GaAs chip as the VCSELs (Table 1: responsivity 0.5 A/W, capacitance
//! 100 fF). The resonant cavity boosts quantum efficiency of the thin
//! InGaAs absorber, trading a narrow optical passband — fine here because
//! each link runs at the single fixed 980 nm wavelength.

use crate::units::{Capacitance, Current, Frequency, Power, Resistance};
use crate::OpticsError;
use core::f64::consts::PI;

/// A photodiode converting optical power to photocurrent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodetector {
    responsivity_a_per_w: f64,
    capacitance: Capacitance,
    dark_current: Current,
}

impl Photodetector {
    /// Creates a photodetector.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::NonPositive`] for a non-positive responsivity
    /// or capacitance.
    pub(crate) fn new(
        responsivity_a_per_w: f64,
        capacitance: Capacitance,
        dark_current: Current,
    ) -> Result<Self, OpticsError> {
        if responsivity_a_per_w <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "responsivity",
                value: responsivity_a_per_w,
            });
        }
        if capacitance.as_farads() <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "photodetector capacitance",
                value: capacitance.as_farads(),
            });
        }
        Ok(Photodetector {
            responsivity_a_per_w,
            capacitance,
            dark_current,
        })
    }

    /// The paper's Table 1 device: 0.5 A/W, 100 fF, 10 nA dark current.
    pub fn paper_default() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: fixed paper constants satisfy the constructor's range checks"
        )]
        Photodetector::new(
            0.5,
            Capacitance::from_femtofarads(100.0),
            Current::from_amps(10e-9),
        )
        .expect("paper defaults are valid")
    }

    /// Photocurrent generated by incident optical power (including dark
    /// current).
    pub(crate) fn photocurrent(&self, incident: Power) -> Current {
        Current::from_amps(
            self.responsivity_a_per_w * incident.as_watts() + self.dark_current.as_amps(),
        )
    }

    /// RC-limited bandwidth into a front-end with the given input
    /// resistance.
    pub(crate) fn bandwidth_into(&self, input_resistance: Resistance) -> Frequency {
        let rc = input_resistance.as_ohms() * self.capacitance.as_farads();
        Frequency::from_hz(1.0 / (2.0 * PI * rc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photocurrent_linear_in_power() {
        let pd = Photodetector::paper_default();
        let i1 = pd.photocurrent(Power::from_milliwatts(0.1)).to_microamps();
        // 0.5 A/W × 0.1 mW = 50 µA (plus 0.01 µA dark).
        assert!((i1 - 50.01).abs() < 0.01, "I = {i1} µA");
        let i2 = pd.photocurrent(Power::from_milliwatts(0.2)).to_microamps();
        assert!((i2 - 2.0 * i1).abs() < 0.05);
    }

    #[test]
    fn zero_light_gives_dark_current_only() {
        let pd = Photodetector::paper_default();
        let i = pd.photocurrent(Power::from_watts(0.0));
        assert!((i.as_amps() - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_into_50_ohms() {
        let pd = Photodetector::paper_default();
        // 1/(2π · 50 Ω · 100 fF) ≈ 31.8 GHz.
        let f = pd.bandwidth_into(Resistance::from_ohms(50.0)).to_ghz();
        assert!((f - 31.8).abs() < 0.5, "f = {f} GHz");
    }

    #[test]
    fn validation() {
        assert!(Photodetector::new(
            0.0,
            Capacitance::from_femtofarads(100.0),
            Current::from_amps(0.0)
        )
        .is_err());
        assert!(
            Photodetector::new(0.5, Capacitance::from_farads(0.0), Current::from_amps(0.0))
                .is_err()
        );
    }
}
