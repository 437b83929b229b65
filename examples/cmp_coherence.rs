//! Full-system run: a 16-core CMP with the MESI directory protocol over
//! both the free-space optical interconnect and the electrical mesh,
//! reporting the paper's headline metrics side by side.
//!
//! ```text
//! cargo run --release --example cmp_coherence [app]
//! ```
//!
//! `app` is one of the suite names (ba ch fmm fft lu oc ro rx ray ws em
//! ilink ja mp sh tsp); default `mp` (mp3d — the coherence-heaviest).

use fsoi::cmp::configs::{NetworkKind, SystemConfig};
use fsoi::cmp::system::CmpSystem;
use fsoi::cmp::workload::AppProfile;

fn main() {
    #[expect(clippy::disallowed_methods, reason = "D2: the example's own argv")]
    let name = std::env::args().nth(1).unwrap_or_else(|| "mp".to_string());
    let app = AppProfile::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown app {name}; pick one of:");
        for p in AppProfile::suite() {
            eprint!(" {}", p.name);
        }
        eprintln!();
        std::process::exit(2);
    });
    println!(
        "app {name}: gap {:.1} cycles, {}% loads, base miss ≈ {:.1}%, {} locks, barrier every {} ops",
        app.mean_gap,
        (100.0 * app.read_fraction) as u32,
        100.0 * app.expected_base_miss_rate(),
        app.locks,
        app.barrier_interval
    );

    let mut rows = Vec::new();
    for kind in [NetworkKind::mesh(16), NetworkKind::fsoi(16)] {
        let cfg = SystemConfig::paper_16(kind);
        let label = cfg.network.name().to_string();
        let mut sys = CmpSystem::new(cfg, app);
        let r = sys.run(50_000_000);
        rows.push((label, r));
    }
    let mesh_cycles = rows[0].1.cycles;

    println!(
        "\n{:<6} {:>9} {:>8} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "net", "cycles", "speedup", "pkt lat", "reply lat", "miss%", "coll(d)%", "energy"
    );
    for (label, r) in &rows {
        println!(
            "{:<6} {:>9} {:>8.2} {:>10.1} {:>10.1} {:>8.1}% {:>8.1}% {:>8.1}%",
            label,
            r.cycles,
            mesh_cycles as f64 / r.cycles as f64,
            r.mean_packet_latency(),
            r.reply_latency.mean(),
            100.0 * r.l1_miss_rate,
            100.0 * r.data_collision_rate,
            100.0 * r.energy.total_j() / rows[0].1.energy.total_j(),
        );
    }

    let fsoi = &rows[1].1;
    println!("\nFSOI details");
    println!(
        "  latency breakdown  : queuing {:.1} + scheduling {:.1} + network {:.1} + collisions {:.1}",
        fsoi.attribution.queuing,
        fsoi.attribution.scheduling,
        fsoi.attribution.network,
        fsoi.attribution.collision_resolution
    );
    println!(
        "  packets            : {} meta + {} data; {} acks elided via confirmations, {} packets saved by subscriptions",
        fsoi.packets_sent[0], fsoi.packets_sent[1], fsoi.acks_elided, fsoi.subscription_packets_saved
    );
    println!(
        "  hint accuracy      : {:.0}% ({:.1}% wrong-winner)",
        100.0 * fsoi.hint_accuracy,
        100.0 * fsoi.hint_wrong_rate
    );
    println!("\nread-miss reply latency distribution (FSOI)");
    let h = &fsoi.reply_latency;
    for i in 0..h.num_bins() {
        let frac = h.fraction(i);
        if frac > 0.005 {
            println!(
                "  {:>3}-{:<3} {:>5.1}% {}",
                i * 10,
                (i + 1) * 10 - 1,
                100.0 * frac,
                "#".repeat((frac * 120.0) as usize)
            );
        }
    }
}
