//! Optical physical layer for the intra-chip free-space optical
//! interconnect (FSOI) of Xue et al., ISCA 2010.
//!
//! The paper's Table 1 characterizes a single-bit FSOI link crossing the
//! chip diagonally (2 cm) at 980 nm and 40 Gbps: a back-emitting VCSEL,
//! collimating/focusing micro-lenses on the GaAs substrate, a series of
//! micro-mirrors in free space, and a resonant-cavity photodetector feeding
//! a TIA + limiting amplifier. This crate rebuilds that signal chain from
//! first-order device physics:
//!
//! * [`units`] — strongly-typed physical quantities (power, length, current…),
//! * [`gaussian`] — Gaussian-beam propagation and aperture clipping,
//! * [`vcsel`] — the laser's L-I curve, parasitics and modulation,
//! * [`photodetector`] — responsivity and capacitance,
//! * [`tia`] — transimpedance amplifier bandwidth/gain/noise,
//! * [`noise`] — shot/thermal noise and the Q-factor ⇄ BER relations,
//! * [`path`] — composable optical paths (mirrors, lenses, free space),
//! * [`link`] — the end-to-end link budget that regenerates **Table 1**,
//! * [`crossbar`] — worst-case-loss budget of a ring-matrix crossbar (the
//!   PAPERS.md comparative-study baseline for the design-space grids).
//!
//! # Example: recompute the paper's link budget
//!
//! ```
//! use fsoi_optics::link::OpticalLink;
//!
//! let link = OpticalLink::paper_default();
//! let budget = link.budget();
//! // The paper reports 2.6 dB path loss and a 1e-10 bit error rate.
//! assert!((budget.path_loss_db - 2.6).abs() < 0.3);
//! assert!(budget.bit_error_rate < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod crossbar;
pub mod gaussian;
pub mod link;
pub mod noise;
pub mod path;
pub mod photodetector;
pub mod thermal;
pub mod tia;
pub mod units;
pub mod vcsel;

use core::fmt;

/// Errors produced when an optical configuration is physically meaningless.
#[derive(Debug, Clone, PartialEq)]
pub enum OpticsError {
    /// A quantity that must be strictly positive was zero or negative.
    NonPositive {
        /// Which quantity was invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A probability or efficiency was outside `[0, 1]`.
    OutOfUnitRange {
        /// Which quantity was invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The link budget closes with insufficient received power.
    LinkDoesNotClose {
        /// Achieved Q-factor.
        q_factor: f64,
        /// Required Q-factor.
        required: f64,
    },
}

impl fmt::Display for OpticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpticsError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            OpticsError::OutOfUnitRange { what, value } => {
                write!(f, "{what} must lie in [0, 1], got {value}")
            }
            OpticsError::LinkDoesNotClose { q_factor, required } => {
                write!(
                    f,
                    "link budget does not close: Q-factor {q_factor:.2} below required {required:.2}"
                )
            }
        }
    }
}

impl std::error::Error for OpticsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let e = OpticsError::NonPositive {
            what: "wavelength",
            value: -1.0,
        };
        assert!(e.to_string().contains("wavelength"));
        let e = OpticsError::OutOfUnitRange {
            what: "reflectivity",
            value: 1.5,
        };
        assert!(e.to_string().contains("reflectivity"));
        let e = OpticsError::LinkDoesNotClose {
            q_factor: 3.0,
            required: 6.0,
        };
        assert!(e.to_string().contains("does not close"));
    }
}
