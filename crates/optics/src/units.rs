//! Strongly-typed physical quantities.
//!
//! The link-budget math mixes watts, dBm, amperes, metres and hertz; the
//! newtypes here make unit mistakes a compile error rather than a silently
//! wrong Table 1. Conversions follow the Rust API guidelines' `as_`/`to_`
//! conventions: `as_watts` exposes the underlying representation for free,
//! `to_dbm` performs an actual computation.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

macro_rules! quantity {
    ($(#[$meta:meta])* $vis:vis $name:ident, $unit:literal,
     $ctor_vis:vis $ctor:ident, $getter_vis:vis $getter:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        $vis struct $name(f64);

        impl $name {
            #[doc = concat!("Creates a value in ", $unit, ".")]
            #[inline]
            $ctor_vis fn $ctor(v: f64) -> Self {
                $name(v)
            }

            #[doc = concat!("Returns the value in ", $unit, ".")]
            #[inline]
            $getter_vis fn $getter(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }
    };
}

quantity!(
    /// Optical or electrical power in watts.
    pub Power, "W", pub from_watts, pub as_watts
);
quantity!(
    /// A physical length in metres.
    pub Length, "m", pub(crate) from_meters, pub(crate) as_meters
);
quantity!(
    /// Electrical current in amperes.
    pub(crate) Current, "A", pub(crate) from_amps, pub(crate) as_amps
);
quantity!(
    /// Electrical potential in volts.
    pub(crate) Voltage, "V", pub(crate) from_volts, pub(crate) as_volts
);
quantity!(
    /// Frequency or bandwidth in hertz.
    pub Frequency, "Hz", pub(crate) from_hz, pub(crate) as_hz
);
quantity!(
    /// Capacitance in farads.
    pub(crate) Capacitance, "F", pub(crate) from_farads, pub(crate) as_farads
);
quantity!(
    /// Resistance in ohms.
    pub(crate) Resistance, "Ω", pub(crate) from_ohms, pub(crate) as_ohms
);

impl Power {
    /// Creates a power from milliwatts.
    #[inline]
    pub(crate) fn from_milliwatts(mw: f64) -> Self {
        Power::from_watts(mw * 1e-3)
    }

    /// The power in milliwatts.
    #[inline]
    pub(crate) fn to_milliwatts(self) -> f64 {
        self.as_watts() * 1e3
    }

    /// The power in dBm. Returns `-inf` for zero power.
    #[inline]
    pub(crate) fn to_dbm(self) -> f64 {
        10.0 * (self.as_watts() / 1e-3).log10()
    }

    /// Attenuates this power by `loss`.
    #[inline]
    pub(crate) fn attenuate(self, loss: Loss) -> Power {
        Power::from_watts(self.as_watts() * loss.transmittance())
    }
}

impl Length {
    /// Creates a length from micrometres.
    #[inline]
    pub fn from_micrometers(um: f64) -> Self {
        Length::from_meters(um * 1e-6)
    }

    /// The length in micrometres.
    #[inline]
    pub fn to_micrometers(self) -> f64 {
        self.as_meters() * 1e6
    }

    /// Creates a length from millimetres.
    #[inline]
    pub fn from_millimeters(mm: f64) -> Self {
        Length::from_meters(mm * 1e-3)
    }

    /// Creates a length from nanometres (convenient for wavelengths).
    #[inline]
    pub fn from_nanometers(nm: f64) -> Self {
        Length::from_meters(nm * 1e-9)
    }
}

impl Current {
    /// Creates a current from milliamperes.
    #[inline]
    pub(crate) fn from_milliamps(ma: f64) -> Self {
        Current::from_amps(ma * 1e-3)
    }

    /// The current in microamperes.
    #[inline]
    pub(crate) fn to_microamps(self) -> f64 {
        self.as_amps() * 1e6
    }
}

impl Frequency {
    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency::from_hz(ghz * 1e9)
    }

    /// The frequency in gigahertz.
    #[inline]
    pub(crate) fn to_ghz(self) -> f64 {
        self.as_hz() * 1e-9
    }
}

impl Capacitance {
    /// Creates a capacitance from femtofarads.
    #[inline]
    pub(crate) fn from_femtofarads(ff: f64) -> Self {
        Capacitance::from_farads(ff * 1e-15)
    }
}

/// An optical attenuation expressed in decibels of *loss* (positive =
/// attenuating).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Loss(f64);

impl Loss {
    /// No attenuation.
    pub(crate) const NONE: Loss = Loss(0.0);

    /// Creates a loss from decibels (positive attenuates).
    #[inline]
    pub(crate) fn from_db(db: f64) -> Self {
        Loss(db)
    }

    /// Creates a loss from a power transmittance in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not in `(0, 1]`.
    #[inline]
    pub(crate) fn from_transmittance(t: f64) -> Self {
        assert!(t > 0.0 && t <= 1.0, "transmittance must be in (0, 1]");
        Loss(-10.0 * t.log10())
    }

    /// The loss in decibels.
    #[inline]
    pub fn db(self) -> f64 {
        self.0
    }

    /// The equivalent power transmittance.
    #[inline]
    pub(crate) fn transmittance(self) -> f64 {
        10f64.powf(-self.0 / 10.0)
    }
}

impl Add for Loss {
    type Output = Loss;
    #[inline]
    fn add(self, rhs: Loss) -> Loss {
        Loss(self.0 + rhs.0) // dB losses of cascaded elements add
    }
}

impl fmt::Display for Loss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

/// Elementary charge (C).
pub(crate) const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;
/// Speed of light in vacuum (m/s).
pub(crate) const SPEED_OF_LIGHT: f64 = 2.997_924_58e8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_dbm() {
        let p = Power::from_milliwatts(0.1);
        assert!((p.to_dbm() + 10.0).abs() < 1e-9);
        assert!((Power::from_milliwatts(1.0).to_dbm()).abs() < 1e-9);
    }

    #[test]
    fn power_attenuate() {
        let p = Power::from_milliwatts(2.0).attenuate(Loss::from_db(3.0103));
        assert!((p.to_milliwatts() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn length_conversions() {
        assert!((Length::from_micrometers(90.0).as_meters() - 9e-5).abs() < 1e-12);
        assert!((Length::from_millimeters(20.0).as_meters() - 0.02).abs() < 1e-12);
        assert!((Length::from_nanometers(980.0).as_meters() - 9.8e-7).abs() < 1e-15);
        assert!((Length::from_meters(1e-6).to_micrometers() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn current_voltage_frequency() {
        assert!((Current::from_milliamps(0.48).as_amps() - 4.8e-4).abs() < 1e-12);
        assert!((Current::from_amps(5e-5).to_microamps() - 50.0).abs() < 1e-9);
        assert!((Frequency::from_ghz(40.0).as_hz() - 4e10).abs() < 1.0);
        assert!((Frequency::from_hz(3.6e10).to_ghz() - 36.0).abs() < 1e-9);
        assert!((Voltage::from_volts(2.0).as_volts() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacitance() {
        assert!((Capacitance::from_femtofarads(90.0).as_farads() - 9e-14).abs() < 1e-20);
    }

    #[test]
    fn loss_addition_and_transmittance() {
        let l = Loss::from_db(2.0) + Loss::from_db(0.6);
        assert!((l.db() - 2.6).abs() < 1e-12);
        let t = Loss::from_transmittance(0.25);
        assert!((t.db() - 6.0206).abs() < 1e-3);
        assert!((Loss::NONE.transmittance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "transmittance must be in (0, 1]")]
    fn bad_transmittance_panics() {
        let _ = Loss::from_transmittance(0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let p = Power::from_watts(2.0) * 3.0;
        assert!((p.as_watts() - 6.0).abs() < 1e-12);
        let r = Power::from_watts(6.0) / Power::from_watts(2.0);
        assert!((r - 3.0).abs() < 1e-12);
        let d = Power::from_watts(6.0) / 2.0;
        assert!((d.as_watts() - 3.0).abs() < 1e-12);
        let s = Power::from_watts(5.0) - Power::from_watts(2.0);
        assert!((s.as_watts() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn displays() {
        assert!(Power::from_watts(1.0).to_string().contains('W'));
        assert!(Loss::from_db(2.6).to_string().contains("dB"));
    }
}
