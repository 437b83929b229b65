//! Networking study: how the collision-tolerant design behaves under
//! load — theory vs Monte-Carlo vs the full network simulator — and why
//! the paper's W = 2.7 / B = 1.1 back-off wins.
//!
//! ```text
//! cargo run --release --example collision_study
//! ```

use fsoi::net::analysis::backoff::{pathological_burst, resolution_delay};
use fsoi::net::analysis::collision::{
    monte_carlo, node_collision_probability, normalized_collision_probability,
};
use fsoi::net::backoff::BackoffPolicy;
use fsoi::net::config::FsoiConfig;
use fsoi::net::network::FsoiNetwork;
use fsoi::net::packet::PacketClass;
use fsoi::sim::packet::{Interconnect, NetPacket};
use fsoi::sim::rng::Xoshiro256StarStar;

fn main() {
    // 1. Figure 3's message: collisions fall roughly as 1/R.
    println!("collision probability at p = 10% (N = 16)");
    for r in 1..=4 {
        println!(
            "  R = {r}: theory {:.2}%  (normalized to p: {:.1}%)",
            100.0 * node_collision_probability(0.10, 16, r),
            100.0 * normalized_collision_probability(0.10, 16, r),
        );
    }

    // 2. Validate against an idealized Monte Carlo and the *real* network
    //    engine driving random traffic.
    let p = 0.10;
    let mc = monte_carlo(p, 16, 2, 200_000, 7);
    println!(
        "\nMonte-Carlo (idealized)  : node collision rate {:.2}%",
        100.0 * mc.node_collision_rate
    );
    let sim = measure_full_network(p, 42);
    println!(
        "full network simulator   : packet collision rate {:.2}% (meta lane)",
        100.0 * sim
    );

    // 3. Figure 4's message: gentle back-off growth beats doubling.
    println!("\nmean collision-resolution delay (two-packet collision, G = 1%)");
    for (label, policy) in [
        ("W=2.7 B=1.1 (paper optimum)", BackoffPolicy::PAPER_OPTIMUM),
        ("W=2.7 B=2.0 (binary)       ", BackoffPolicy::BINARY),
        ("W=8.0 B=1.1 (window too big)", BackoffPolicy::new(8.0, 1.1)),
        (
            "W=1.0 B=1.1 (window too small)",
            BackoffPolicy::new(1.0, 1.1),
        ),
    ] {
        let d = resolution_delay(policy, 0.01, 2, 2, 40_000, 3);
        println!("  {label} : {d:.2} cycles");
    }

    // 4. …without melting down in the pathological all-to-one burst.
    println!("\npathological 64-node burst (63 simultaneous senders)");
    for (label, policy) in [
        ("W=2.7 B=1.1", BackoffPolicy::PAPER_OPTIMUM),
        ("W=2.7 B=2.0", BackoffPolicy::BINARY),
        ("fixed  W=3 ", BackoffPolicy::fixed(3.0)),
    ] {
        let e = pathological_burst(63, policy, 2, 2);
        println!(
            "  {label} : {:>12.3e} expected retries, {:>12.3e} cycles",
            e.retries, e.cycles
        );
    }
    println!("  (the fixed window needs ~10^10 retries — the live-lock §4.3.2 warns about)");
}

/// Drives the real network with Bernoulli(p)-per-slot uniform traffic and
/// returns the measured meta-lane collision rate.
fn measure_full_network(p: f64, seed: u64) -> f64 {
    let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), seed);
    let mut rng = Xoshiro256StarStar::new(seed ^ 0xABCD);
    let slot = net.meta_slot_len();
    for cycle in 0..200_000u64 {
        if cycle % slot == 0 {
            for src in 0..16usize {
                if rng.bernoulli(p) {
                    let mut dst = rng.next_below(15) as usize;
                    if dst >= src {
                        dst += 1;
                    }
                    // Full queues just drop the offered packet this slot.
                    let _ = net.inject(NetPacket::new(src, dst, PacketClass::Meta, cycle));
                }
            }
        }
        net.tick();
        net.drain();
    }
    net.stats().collision_rate(0)
}
