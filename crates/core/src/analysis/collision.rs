//! Collision-probability analysis (Figure 3 and footnote 4).
//!
//! Under the simplified model — every node transmits with probability `p`
//! per slot to a uniformly random destination, and the `N − 1` senders of
//! each destination are divided among its `R` receivers by the static
//! round-robin map in [`crate::topology::receiver_index`] — the
//! probability that *some* receiver of a given node sees a collision in a
//! slot is
//!
//! ```text
//! P = 1 − Π_rx [ (1 − q)^n_rx  +  n_rx · q · (1 − q)^(n_rx − 1) ]
//! ```
//!
//! with `q = p/(N−1)` and `n_rx` the *integer* number of senders wired to
//! receiver `rx` (the group sizes of `0..N−1` mod `R`): each receiver is
//! collision-free when zero or one of its senders targets it, and a
//! receiver with a single sender can never collide. When `R` divides
//! `N − 1` every `n_rx` equals `(N−1)/R` and the product collapses to the
//! paper's symmetric `[...]^R` form; for the general case the per-group
//! product is the exact probability, whereas interpolating a fractional
//! `n = (N−1)/R` into the symmetric form under-counts small-`N`
//! configurations (the recorded `nodes = 3, R = 2` regression). Figure 3
//! plots this normalized to `p` for `R = 1..4`, showing collision
//! frequency inversely proportional to the receiver count — the basis for
//! the paper's choice of 2 receivers per lane.

use fsoi_sim::rng::Xoshiro256StarStar;

/// The Figure 3 closed form: probability a given node experiences a
/// collision in a slot.
///
/// # Panics
///
/// Panics unless `nodes >= 2`, `receivers >= 1` and `p ∈ [0, 1]`.
pub fn node_collision_probability(p: f64, nodes: usize, receivers: usize) -> f64 {
    assert!(nodes >= 2, "need at least two nodes");
    assert!(receivers >= 1, "need at least one receiver");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let senders = nodes - 1;
    let q = p / senders as f64; // P(a specific sender targets this node)
                                // Exact per-receiver group sizes: sender rank r ∈ 0..N−1 is wired to
                                // receiver r % R, so group rx holds ceil/floor((N−1)/R) senders.
    let mut no_collision = 1.0;
    for rx in 0..receivers {
        let n_rx = senders / receivers + usize::from(rx < senders % receivers);
        if n_rx <= 1 {
            // Zero or one senders on this receiver: it can never collide.
            continue;
        }
        let n = n_rx as f64;
        let none = (1.0 - q).powi(n_rx as i32);
        let one = n * q * (1.0 - q).powi(n_rx as i32 - 1);
        no_collision *= none + one;
    }
    1.0 - no_collision
}

/// Figure 3's y-axis: the node collision probability normalized to the
/// transmission probability.
pub fn normalized_collision_probability(p: f64, nodes: usize, receivers: usize) -> f64 {
    if p == 0.0 {
        0.0
    } else {
        node_collision_probability(p, nodes, receivers) / p
    }
}

/// Result of a Monte-Carlo collision experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Fraction of slots in which the observed node had a collision.
    pub node_collision_rate: f64,
    /// Fraction of transmitted packets that collided.
    pub packet_collision_rate: f64,
    /// Measured per-node transmission probability (sanity check ≈ `p`).
    pub measured_p: f64,
}

/// Monte-Carlo validation of the closed form: simulates `slots` slots of
/// the idealized model (every node transmits w.p. `p` to a uniform
/// destination; senders share receivers round-robin) and measures both the
/// per-node and per-packet collision rates.
pub fn monte_carlo(
    p: f64,
    nodes: usize,
    receivers: usize,
    slots: u64,
    seed: u64,
) -> MonteCarloResult {
    assert!(nodes >= 2 && receivers >= 1);
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut node_collisions = 0u64;
    let mut packet_collisions = 0u64;
    let mut transmissions = 0u64;
    // occupancy[dst][rx] = number of packets in this slot.
    let mut occupancy = vec![vec![0u32; receivers]; nodes];
    for _ in 0..slots {
        for row in &mut occupancy {
            row.fill(0);
        }
        let mut sent: Vec<(usize, usize)> = Vec::new(); // (dst, rx)
        for src in 0..nodes {
            if !rng.bernoulli(p) {
                continue;
            }
            transmissions += 1;
            let mut dst = rng.next_below(nodes as u64 - 1) as usize;
            if dst >= src {
                dst += 1;
            }
            let rx = crate::topology::receiver_index(
                crate::topology::NodeId(src),
                crate::topology::NodeId(dst),
                nodes,
                receivers,
            );
            occupancy[dst][rx] += 1;
            sent.push((dst, rx));
        }
        // Node 0's view for the node-collision rate (all nodes are
        // symmetric; using one avoids double counting).
        if occupancy[0].iter().any(|&c| c >= 2) {
            node_collisions += 1;
        }
        packet_collisions += sent
            .iter()
            .filter(|&&(dst, rx)| occupancy[dst][rx] >= 2)
            .count() as u64;
    }
    MonteCarloResult {
        node_collision_rate: node_collisions as f64 / slots as f64,
        packet_collision_rate: if transmissions == 0 {
            0.0
        } else {
            packet_collisions as f64 / transmissions as f64
        },
        measured_p: transmissions as f64 / (slots as f64 * nodes as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Footnote 4's per-packet view for the 2-receiver design: the
    /// probability that a *transmitted* packet collides. A packet collides
    /// when at least one of the other senders sharing its receiver
    /// (≈ `(N−1)/2 − 1` nodes) transmits to the same destination in the
    /// same slot:
    ///
    /// ```text
    /// P ≈ 1 − (1 − p/(N−1))^((N−1)/2 − 1) ≈ p/2 − p²/8 + …
    /// ```
    fn per_packet_collision_probability(p: f64, nodes: usize) -> f64 {
        assert!(nodes >= 3, "need at least three nodes for sharing");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let sharers = (nodes - 1) as f64 / 2.0 - 1.0;
        let q = p / (nodes - 1) as f64;
        1.0 - (1.0 - q).powf(sharers)
    }

    #[test]
    fn zero_p_means_zero_collisions() {
        assert_eq!(node_collision_probability(0.0, 16, 2), 0.0);
        assert_eq!(normalized_collision_probability(0.0, 16, 2), 0.0);
        assert_eq!(per_packet_collision_probability(0.0, 16), 0.0);
    }

    #[test]
    fn more_receivers_fewer_collisions() {
        let p = 0.10;
        let mut prev = f64::INFINITY;
        for r in 1..=4 {
            let c = node_collision_probability(p, 16, r);
            assert!(c < prev, "R={r}: {c} !< {prev}");
            prev = c;
        }
    }

    #[test]
    fn collision_frequency_roughly_inverse_in_receivers() {
        // Paper: "to a first-order approximation, collision frequency is
        // inversely proportional to the number of receivers."
        let p = 0.05;
        let c1 = node_collision_probability(p, 16, 1);
        let c2 = node_collision_probability(p, 16, 2);
        let c4 = node_collision_probability(p, 16, 4);
        assert!((c1 / c2 - 2.0).abs() < 0.35, "c1/c2 = {}", c1 / c2);
        assert!((c2 / c4 - 2.0).abs() < 0.35, "c2/c4 = {}", c2 / c4);
    }

    #[test]
    fn weak_dependence_on_node_count() {
        // Paper: "the result has an extremely weak dependency on the number
        // of nodes in a system (N) as long as it is not too small."
        let p = 0.10;
        let a = normalized_collision_probability(p, 16, 2);
        let b = normalized_collision_probability(p, 64, 2);
        let c = normalized_collision_probability(p, 256, 2);
        assert!((a - b).abs() / a < 0.12, "{a} vs {b}");
        assert!((b - c).abs() / b < 0.05, "{b} vs {c}");
    }

    #[test]
    fn normalized_curve_increases_with_p() {
        let mut prev = 0.0;
        for &p in &[0.01, 0.05, 0.10, 0.20, 0.33] {
            let c = normalized_collision_probability(p, 16, 2);
            assert!(c > prev);
            prev = c;
        }
        // At p = 33 %, R = 1 the normalized probability reaches tens of
        // percent (the top of Figure 3's y-axis).
        let top = normalized_collision_probability(0.33, 16, 1);
        assert!(top > 0.10 && top < 0.35, "top = {top}");
    }

    #[test]
    fn footnote4_series_expansion() {
        // For small p, per-packet probability ≈ p/2.
        for &p in &[0.01, 0.02, 0.05] {
            let exact = per_packet_collision_probability(p, 16);
            let approx = p / 2.0 - p * p / 8.0;
            assert!(
                (exact - approx).abs() < 0.1 * p,
                "p={p}: exact {exact} vs series {approx}"
            );
        }
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        for &(p, r) in &[(0.05, 1usize), (0.10, 2), (0.20, 2), (0.10, 4)] {
            let theory = node_collision_probability(p, 16, r);
            let mc = monte_carlo(p, 16, r, 200_000, 7);
            assert!((mc.measured_p - p).abs() < 0.01);
            assert!(
                (mc.node_collision_rate - theory).abs() < 0.15 * theory.max(0.002),
                "p={p} R={r}: sim {} vs theory {theory}",
                mc.node_collision_rate
            );
        }
    }

    /// Permanent named regression for the recorded
    /// `collision_probability_sane` shrink: `p = 0.2334228658634545,
    /// nodes = 3`. With two senders, the old fractional closed form
    /// interpolated `n = (N−1)/R` between integer group sizes and its
    /// `n <= 1` early return zeroed every `R ≥ 2` point; the exact
    /// per-group product must stay in bounds, decrease in `R` (reaching
    /// exactly 0 once every receiver has ≤ 1 sender), grow with `p`, and
    /// match a Monte-Carlo run of the same partition.
    #[test]
    fn fig3_shrink_regression_nodes3() {
        let p = 0.2334228658634545;
        let probs: Vec<f64> = (1..=4)
            .map(|r| node_collision_probability(p, 3, r))
            .collect();
        for (i, &c) in probs.iter().enumerate() {
            assert!((0.0..=1.0).contains(&c), "R={}: {c} out of bounds", i + 1);
            assert!(c <= p + 1e-12, "R={}: collision rate {c} exceeds p", i + 1);
        }
        // Monotone non-increasing in R; with 2 senders, R ≥ 2 gives each
        // receiver a single sender and collisions become impossible.
        assert!(probs.windows(2).all(|w| w[1] <= w[0] + 1e-15), "{probs:?}");
        assert!(probs[0] > 0.0, "one shared receiver does collide");
        assert_eq!(
            &probs[1..],
            &[0.0, 0.0, 0.0],
            "singleton receivers never collide"
        );
        // Monotone in p at the shrink's R = 1.
        assert!(node_collision_probability(p + 0.05, 3, 1) > probs[0]);
        // At R = 1 the closed form reduces to q² (both of the two senders
        // must fire), and the Monte-Carlo partition agrees.
        let q = p / 2.0;
        assert!((probs[0] - q * q).abs() < 1e-15);
        let mc = monte_carlo(p, 3, 1, 400_000, 13);
        assert!(
            (mc.node_collision_rate - probs[0]).abs() < 0.10 * probs[0],
            "sim {} vs theory {}",
            mc.node_collision_rate,
            probs[0]
        );
    }

    #[test]
    fn monte_carlo_packet_rate_matches_footnote() {
        let p = 0.10;
        let mc = monte_carlo(p, 16, 2, 300_000, 11);
        let theory = per_packet_collision_probability(p, 16);
        assert!(
            (mc.packet_collision_rate - theory).abs() < 0.15 * theory,
            "sim {} vs theory {theory}",
            mc.packet_collision_rate
        );
    }

    #[test]
    #[should_panic(expected = "p must be a probability")]
    fn invalid_p_panics() {
        node_collision_probability(1.5, 16, 2);
    }
}
