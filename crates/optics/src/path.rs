//! Composable optical paths through the free-space layer.
//!
//! A link's light leaves the back-emitting VCSEL, traverses the GaAs
//! substrate, is collimated by a micro-lens, reflects off one or more fixed
//! micro-mirrors, flies across the package cavity, and is focused by the
//! receiver's micro-lens onto the photodetector. [`OpticalPath`] composes
//! these elements and totals their insertion loss together with the
//! diffraction (clipping) loss computed from Gaussian-beam propagation.

use crate::gaussian::GaussianBeam;
use crate::units::{Length, Loss};
use crate::OpticsError;

/// One element of an optical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathElement {
    /// Free-space flight of the given length (contributes to beam spread,
    /// not directly to surface loss).
    FreeSpace(Length),
    /// A micro-mirror reflection with the given power reflectivity.
    Mirror {
        /// Power reflectivity in `(0, 1]`.
        reflectivity: f64,
    },
    /// A refractive surface (e.g. one face of a micro-lens) with the given
    /// power transmission.
    LensSurface {
        /// Power transmission in `(0, 1]`.
        transmission: f64,
    },
    /// Absorption in a substrate (e.g. the 430 µm GaAs wafer, transparent
    /// at 980 nm but not perfectly so), as a fixed dB value.
    SubstrateAbsorption(Loss),
}

/// An end-to-end free-space optical path.
#[derive(Debug, Clone, PartialEq)]
pub struct OpticalPath {
    elements: Vec<PathElement>,
    receiver_aperture_radius: Length,
}

impl OpticalPath {
    /// Creates an empty path terminated by a receiving aperture of the
    /// given radius.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::NonPositive`] for a non-positive aperture.
    pub fn new(receiver_aperture_radius: Length) -> Result<Self, OpticsError> {
        if receiver_aperture_radius.as_meters() <= 0.0 {
            return Err(OpticsError::NonPositive {
                what: "receiver aperture radius",
                value: receiver_aperture_radius.as_meters(),
            });
        }
        Ok(OpticalPath {
            elements: Vec::new(),
            receiver_aperture_radius,
        })
    }

    /// Appends an element to the path.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::OutOfUnitRange`] if a reflectivity or
    /// transmission lies outside `(0, 1]`.
    pub fn push(&mut self, element: PathElement) -> Result<&mut Self, OpticsError> {
        match element {
            PathElement::Mirror { reflectivity }
                if !(0.0..=1.0).contains(&reflectivity) || reflectivity == 0.0 =>
            {
                return Err(OpticsError::OutOfUnitRange {
                    what: "mirror reflectivity",
                    value: reflectivity,
                })
            }
            PathElement::LensSurface { transmission }
                if !(0.0..=1.0).contains(&transmission) || transmission == 0.0 =>
            {
                return Err(OpticsError::OutOfUnitRange {
                    what: "lens transmission",
                    value: transmission,
                })
            }
            _ => {}
        }
        self.elements.push(element);
        Ok(self)
    }

    /// The paper's worst-case path: a chip-diagonal 2 cm flight guided by
    /// two micro-mirrors, entering free space through the transmitter's
    /// micro-lens and captured by the receiver's (190 µm aperture ⇒ 95 µm
    /// radius). Anti-reflection-coated surfaces transmit 99.5 %; gold
    /// micro-mirrors reflect 98 %; the double GaAs substrate pass absorbs
    /// 0.1 dB total.
    pub(crate) fn paper_diagonal() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "P1: the paper's 95 um aperture is a positive constant"
        )]
        let mut p = OpticalPath::new(Length::from_micrometers(95.0)).expect("aperture is positive");
        for element in [
            PathElement::SubstrateAbsorption(Loss::from_db(0.05)),
            PathElement::LensSurface {
                transmission: 0.995,
            },
            PathElement::Mirror { reflectivity: 0.98 },
            PathElement::FreeSpace(Length::from_millimeters(20.0)),
            PathElement::Mirror { reflectivity: 0.98 },
            PathElement::LensSurface {
                transmission: 0.995,
            },
            PathElement::SubstrateAbsorption(Loss::from_db(0.05)),
        ] {
            #[expect(
                clippy::expect_used,
                reason = "P1: every element above is a fixed in-range paper constant"
            )]
            p.push(element).expect("paper path element is valid");
        }
        p
    }

    /// Total geometric flight length of the path.
    pub(crate) fn length(&self) -> Length {
        let total = self
            .elements
            .iter()
            .map(|e| match e {
                PathElement::FreeSpace(l) => l.as_meters(),
                _ => 0.0,
            })
            .sum();
        Length::from_meters(total)
    }

    /// Sum of all fixed (surface and absorption) losses, excluding
    /// diffraction.
    pub fn surface_loss(&self) -> Loss {
        self.elements
            .iter()
            .map(|e| match e {
                PathElement::FreeSpace(_) => Loss::NONE,
                PathElement::Mirror { reflectivity } => Loss::from_transmittance(*reflectivity),
                PathElement::LensSurface { transmission } => {
                    Loss::from_transmittance(*transmission)
                }
                PathElement::SubstrateAbsorption(l) => *l,
            })
            .fold(Loss::NONE, |a, b| a + b)
    }

    /// Diffraction (aperture clipping) loss of `beam` flying the path's
    /// full length into the receiving aperture.
    pub fn clipping_loss(&self, beam: &GaussianBeam) -> Loss {
        let t = beam.capture_fraction(self.length(), self.receiver_aperture_radius);
        Loss::from_transmittance(t.max(f64::MIN_POSITIVE))
    }

    /// Total path loss for `beam`: surface losses plus diffraction loss.
    pub(crate) fn total_loss(&self, beam: &GaussianBeam) -> Loss {
        self.surface_loss() + self.clipping_loss(beam)
    }

    /// Speed-of-light propagation delay over the path, in picoseconds.
    /// (The paper notes path-length differences of up to tens of
    /// picoseconds between node pairs, compensated by serializer padding.)
    pub(crate) fn propagation_delay_ps(&self) -> f64 {
        self.length().as_meters() / crate::units::SPEED_OF_LIGHT * 1e12
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
    fn paper_path_totals_2_6_db() {
        let p = OpticalPath::paper_diagonal();
        let loss = p.total_loss(&paper_beam());
        assert!(
            (loss.db() - 2.6).abs() < 0.2,
            "total loss = {} (paper: 2.6 dB)",
            loss
        );
    }

    #[test]
    fn surface_loss_is_small_part() {
        let p = OpticalPath::paper_diagonal();
        let s = p.surface_loss().db();
        assert!(s > 0.1 && s < 0.5, "surface loss = {s} dB");
        let c = p.clipping_loss(&paper_beam()).db();
        assert!(c > 2.0 && c < 2.6, "clipping loss = {c} dB");
    }

    #[test]
    fn length_and_delay() {
        let p = OpticalPath::paper_diagonal();
        assert!((p.length().as_meters() - 0.02).abs() < 1e-12);
        // 2 cm at c ≈ 66.7 ps.
        assert!((p.propagation_delay_ps() - 66.7).abs() < 0.2);
    }

    #[test]
    fn empty_path_has_no_loss_but_clips_at_waist() {
        let p = OpticalPath::new(Length::from_micrometers(95.0)).unwrap();
        assert_eq!(p.surface_loss().db(), 0.0);
        // At zero distance the beam is 45 µm; a 95 µm aperture passes nearly
        // everything.
        let c = p.clipping_loss(&paper_beam()).db();
        assert!(c < 0.01, "clip = {c}");
        assert!(p.elements.is_empty());
    }

    #[test]
    fn push_validates_ranges() {
        let mut p = OpticalPath::new(Length::from_micrometers(95.0)).unwrap();
        assert!(p.push(PathElement::Mirror { reflectivity: 1.5 }).is_err());
        assert!(p.push(PathElement::Mirror { reflectivity: 0.0 }).is_err());
        assert!(p
            .push(PathElement::LensSurface { transmission: -0.1 })
            .is_err());
        assert!(p.push(PathElement::Mirror { reflectivity: 0.9 }).is_ok());
    }

    #[test]
    fn rejects_nonpositive_aperture() {
        assert!(OpticalPath::new(Length::from_meters(0.0)).is_err());
    }

    #[test]
    fn longer_paths_lose_more() {
        let beam = paper_beam();
        let mut short = OpticalPath::new(Length::from_micrometers(95.0)).unwrap();
        short
            .push(PathElement::FreeSpace(Length::from_millimeters(5.0)))
            .unwrap();
        let mut long = OpticalPath::new(Length::from_micrometers(95.0)).unwrap();
        long.push(PathElement::FreeSpace(Length::from_millimeters(20.0)))
            .unwrap();
        assert!(long.total_loss(&beam).db() > short.total_loss(&beam).db());
    }
}
