//! Gaussian-beam propagation in free space.
//!
//! The FSOI link collimates each VCSEL's output with a micro-lens, bounces
//! it off micro-mirrors, and focuses it onto a photodetector with a second
//! micro-lens. Between the lenses the beam is a fundamental-mode Gaussian;
//! its diffraction over the up-to-2-cm flight determines how much light the
//! receiving aperture captures — the dominant term of the paper's 2.6 dB
//! path loss.

use crate::units::Length;
use crate::OpticsError;
use core::f64::consts::PI;

/// A fundamental-mode (TEM00) Gaussian beam, defined by its waist radius
/// (the 1/e² intensity radius at the narrowest point) and wavelength.
///
/// ```
/// use fsoi_optics::link::OpticalLink;
/// use fsoi_optics::units::Length;
///
/// // Beam collimated by the paper's 90 µm transmitter micro-lens.
/// let beam = OpticalLink::paper_default().beam();
/// // After 2 cm the beam has spread well beyond its waist.
/// let w = beam.radius_at(Length::from_millimeters(20.0));
/// assert!(w.to_micrometers() > 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianBeam {
    waist_radius: Length,
    wavelength: Length,
}

impl GaussianBeam {
    /// Creates a beam with the given waist radius and wavelength.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::NonPositive`] if either argument is not
    /// strictly positive.
    pub(crate) fn new(waist_radius: Length, wavelength: Length) -> Result<Self, OpticsError> {
        if waist_radius.as_meters() <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "waist radius",
                value: waist_radius.as_meters(),
            });
        }
        if wavelength.as_meters() <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "wavelength",
                value: wavelength.as_meters(),
            });
        }
        Ok(GaussianBeam {
            waist_radius,
            wavelength,
        })
    }

    /// Rayleigh range `z_R = π w₀² / λ`: the distance over which the beam
    /// stays roughly collimated.
    pub(crate) fn rayleigh_range(&self) -> Length {
        let w0 = self.waist_radius.as_meters();
        let lambda = self.wavelength.as_meters();
        Length::from_meters(PI * w0 * w0 / lambda)
    }

    /// Beam radius (1/e² intensity) after propagating distance `z` from the
    /// waist: `w(z) = w₀ √(1 + (z/z_R)²)`.
    pub fn radius_at(&self, z: Length) -> Length {
        let zr = self.rayleigh_range().as_meters();
        let ratio = z.as_meters() / zr;
        Length::from_meters(self.waist_radius.as_meters() * (1.0 + ratio * ratio).sqrt())
    }

    /// Fraction of the beam's power passing through a centred circular
    /// aperture of radius `a` when the local beam radius is `w`:
    /// `T = 1 − exp(−2 a² / w²)`.
    ///
    /// This is the clipping (truncation) transmission of a hard-edged
    /// micro-lens or mirror.
    pub fn clip_transmission(beam_radius: Length, aperture_radius: Length) -> f64 {
        let w = beam_radius.as_meters();
        let a = aperture_radius.as_meters();
        if w <= 0.0 {
            return 1.0; // a point beam passes any aperture
        }
        1.0 - (-2.0 * (a / w).powi(2)).exp()
    }

    /// Fraction of power captured by an aperture of radius `a` placed a
    /// distance `z` from the waist.
    pub(crate) fn capture_fraction(&self, z: Length, aperture_radius: Length) -> f64 {
        Self::clip_transmission(self.radius_at(z), aperture_radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_beam() -> GaussianBeam {
        GaussianBeam::new(
            Length::from_micrometers(45.0),
            Length::from_nanometers(980.0),
        )
        .unwrap()
    }

    #[test]
    fn rejects_nonpositive() {
        assert!(
            GaussianBeam::new(Length::from_meters(0.0), Length::from_nanometers(980.0)).is_err()
        );
        assert!(
            GaussianBeam::new(Length::from_micrometers(45.0), Length::from_meters(-1.0)).is_err()
        );
    }

    #[test]
    fn rayleigh_range_matches_formula() {
        let b = paper_beam();
        // z_R = π (45 µm)² / 980 nm ≈ 6.49 mm
        let zr = b.rayleigh_range().as_meters();
        assert!((zr - 6.49e-3).abs() < 0.05e-3, "z_R = {zr}");
    }

    #[test]
    fn radius_grows_monotonically() {
        let b = paper_beam();
        assert!(
            (b.radius_at(Length::from_meters(0.0)).as_meters() - b.waist_radius.as_meters()).abs()
                < 1e-12
        );
        let mut prev = 0.0;
        for mm in 0..=20 {
            let w = b.radius_at(Length::from_millimeters(mm as f64)).as_meters();
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn radius_after_2cm_is_about_146_um() {
        let b = paper_beam();
        let w = b.radius_at(Length::from_millimeters(20.0)).to_micrometers();
        assert!((w - 145.8).abs() < 2.0, "w(2 cm) = {w} µm");
    }

    #[test]
    fn clip_transmission_limits() {
        // A huge aperture passes everything.
        let t = GaussianBeam::clip_transmission(
            Length::from_micrometers(100.0),
            Length::from_micrometers(10_000.0),
        );
        assert!(t > 0.999_999);
        // Aperture equal to the beam radius passes 1 - e^-2 ≈ 86.5 %.
        let t = GaussianBeam::clip_transmission(
            Length::from_micrometers(100.0),
            Length::from_micrometers(100.0),
        );
        assert!((t - 0.8647).abs() < 1e-3);
        // Zero-width beam edge case.
        let t = GaussianBeam::clip_transmission(
            Length::from_meters(0.0),
            Length::from_micrometers(1.0),
        );
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capture_at_receiver_dominates_path_loss() {
        // The paper's receiver micro-lens is 190 µm across (95 µm radius).
        // Capturing a 146 µm beam with it passes ~57 %, i.e. ~2.4 dB —
        // consistent with the 2.6 dB total path loss of Table 1.
        let b = paper_beam();
        let t = b.capture_fraction(
            Length::from_millimeters(20.0),
            Length::from_micrometers(95.0),
        );
        let db = -10.0 * t.log10();
        assert!((db - 2.4).abs() < 0.2, "clipping loss = {db} dB");
    }
}
