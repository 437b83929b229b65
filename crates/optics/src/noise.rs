//! Receiver noise and the Q-factor ⇄ bit-error-rate relations for OOK.
//!
//! For on-off keying with Gaussian noise, the bit error rate is
//! `BER = ½ erfc(Q/√2)` where the Q-factor is
//! `Q = (I₁ − I₀) / (σ₁ + σ₀)`. The paper's link targets BER 10⁻¹⁰
//! (Q ≈ 6.36) and notes that tolerating collisions allows relaxing the
//! target to ~10⁻⁵ (Q ≈ 4.26), a large engineering margin.

use crate::units::{Current, Frequency, ELEMENTARY_CHARGE};

/// Root-mean-square shot noise current on average current `i` over
/// bandwidth `bw`: `σ = √(2 q I B)`.
pub(crate) fn shot_noise_rms(i: Current, bw: Frequency) -> Current {
    let var = 2.0 * ELEMENTARY_CHARGE * i.as_amps().max(0.0) * bw.as_hz();
    Current::from_amps(var.sqrt())
}

/// RMS input-referred circuit (thermal + TIA) noise for a white
/// input-noise current density `density_a_per_rthz` (A/√Hz) over
/// bandwidth `bw`.
pub(crate) fn circuit_noise_rms(density_a_per_rthz: f64, bw: Frequency) -> Current {
    Current::from_amps(density_a_per_rthz * bw.as_hz().sqrt())
}

/// Combines independent noise contributions by root-sum-square.
pub(crate) fn combine_rms(contributions: &[Current]) -> Current {
    let var: f64 = contributions.iter().map(|c| c.as_amps().powi(2)).sum();
    Current::from_amps(var.sqrt())
}

/// The complementary error function, accurate to a relative error of about
/// `1.2 × 10⁻⁷` everywhere (Numerical Recipes' Chebyshev fit), which is
/// ample for BER work down to 10⁻¹⁵.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// OOK bit error rate for a given Q-factor: `BER = ½ erfc(Q/√2)`.
pub(crate) fn q_to_ber(q: f64) -> f64 {
    0.5 * erfc(q / core::f64::consts::SQRT_2)
}

/// Inverse of `q_to_ber`: the Q-factor required for a target BER,
/// computed by bisection.
///
/// # Panics
///
/// Panics if `ber` is not in `(0, 0.5)`.
pub fn ber_to_q(ber: f64) -> f64 {
    assert!(ber > 0.0 && ber < 0.5, "BER must be in (0, 0.5)");
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_to_ber(mid) > ber {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The Q-factor of an OOK decision: `(I₁ − I₀) / (σ₁ + σ₀)`.
///
/// Returns 0.0 if the eye is closed (`i1 <= i0`) or the noise is zero on
/// both rails (degenerate but defined).
pub(crate) fn q_factor(i1: Current, i0: Current, sigma1: Current, sigma0: Current) -> f64 {
    let eye = i1.as_amps() - i0.as_amps();
    let noise = sigma1.as_amps() + sigma0.as_amps();
    if eye <= 0.0 {
        return 0.0;
    }
    if noise <= 0.0 {
        return f64::INFINITY;
    }
    eye / noise
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_points() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        // erfc(2) = 0.004677735
        assert!((erfc(2.0) - 0.004_677_735).abs() < 1e-7);
    }

    #[test]
    fn q_ber_reference_points() {
        // Classic optical-communications anchors.
        assert!((q_to_ber(6.0) / 9.866e-10 - 1.0).abs() < 1e-3);
        assert!((q_to_ber(7.0) / 1.280e-12 - 1.0).abs() < 1e-2);
        // Q ≈ 6.36 ⇒ BER ≈ 1e-10.
        let ber = q_to_ber(6.361);
        assert!(ber > 0.8e-10 && ber < 1.2e-10, "BER = {ber}");
    }

    #[test]
    fn ber_to_q_inverts() {
        for &target in &[1e-5, 1e-9, 1e-10, 1e-12] {
            let q = ber_to_q(target);
            let back = q_to_ber(q);
            assert!(
                (back / target - 1.0).abs() < 1e-6,
                "roundtrip {target} -> {q} -> {back}"
            );
        }
        // The paper's relaxation: 1e-10 needs Q≈6.36, 1e-5 only Q≈4.26.
        assert!((ber_to_q(1e-10) - 6.36).abs() < 0.01);
        assert!((ber_to_q(1e-5) - 4.26).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "BER must be in (0, 0.5)")]
    fn ber_to_q_rejects_out_of_range() {
        let _ = ber_to_q(0.7);
    }

    #[test]
    fn shot_noise_value() {
        // √(2 · 1.602e-19 · 50 µA · 36 GHz) ≈ 0.76 µA.
        let s = shot_noise_rms(Current::from_amps(50e-6), Frequency::from_ghz(36.0));
        assert!(
            (s.to_microamps() - 0.759).abs() < 0.01,
            "{}",
            s.to_microamps()
        );
        // Negative currents clamp to zero variance.
        let z = shot_noise_rms(Current::from_amps(-1.0), Frequency::from_ghz(1.0));
        assert_eq!(z.as_amps(), 0.0);
    }

    #[test]
    fn circuit_noise_value() {
        // 20 pA/√Hz over 36 GHz ≈ 3.79 µA.
        let s = circuit_noise_rms(20e-12, Frequency::from_ghz(36.0));
        assert!((s.to_microamps() - 3.79).abs() < 0.02);
    }

    #[test]
    fn combine_is_rss() {
        let c = combine_rms(&[Current::from_amps(3e-6), Current::from_amps(4e-6)]);
        assert!((c.to_microamps() - 5.0).abs() < 1e-9);
        assert_eq!(combine_rms(&[]).as_amps(), 0.0);
    }

    #[test]
    fn q_factor_cases() {
        let q = q_factor(
            Current::from_amps(50e-6),
            Current::from_amps(5e-6),
            Current::from_amps(4e-6),
            Current::from_amps(3.5e-6),
        );
        assert!((q - 6.0).abs() < 1e-9);
        // Closed eye.
        assert_eq!(
            q_factor(
                Current::from_amps(1e-6),
                Current::from_amps(2e-6),
                Current::from_amps(1e-6),
                Current::from_amps(1e-6)
            ),
            0.0
        );
        // Noiseless.
        assert!(q_factor(
            Current::from_amps(2e-6),
            Current::from_amps(1e-6),
            Current::from_amps(0.0),
            Current::from_amps(0.0)
        )
        .is_infinite());
    }
}
