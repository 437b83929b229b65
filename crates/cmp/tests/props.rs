//! Property tests for the CMP layer (on the in-repo `fsoi-check` harness;
//! see that crate's docs for seeding and `.regressions` replay).

use fsoi_check::checker;
use fsoi_cmp::energy::ChipEnergy;
use fsoi_cmp::interconnect::LatencyAttribution;
use fsoi_cmp::metrics::RunReport;
use fsoi_sim::metrics::Registry;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::stats::Histogram;

/// A report whose every field is drawn from `seed`: counts over the whole
/// `u64` range, floats over raw bit patterns (NaNs, infinities, −0.0 and
/// subnormals included), a reply-latency histogram of random shape that
/// may be empty, and 0–5 profile spans.
fn random_report(seed: u64) -> RunReport {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut reply_latency = Histogram::new(1 + rng.next_below(20), 1 + rng.next_below(8) as usize);
    for _ in 0..rng.next_below(5) {
        reply_latency.record(rng.next_below(300));
    }
    let mut profile = Registry::new();
    for i in 0..rng.next_below(6) {
        profile.inc(&format!("sim/span{i}"), &[], rng.next_u64());
    }
    let mut f = || f64::from_bits(rng.next_u64());
    let attribution = LatencyAttribution {
        queuing: f(),
        scheduling: f(),
        network: f(),
        collision_resolution: f(),
    };
    let energy = ChipEnergy {
        network_j: f(),
        core_j: f(),
        leakage_j: f(),
    };
    let [meta_tx_probability, data_tx_probability, meta_collision_rate, data_collision_rate] =
        [f(), f(), f(), f()];
    let [l1_miss_rate, data_resolution_delay, hint_accuracy, hint_wrong_rate] =
        [f(), f(), f(), f()];
    let mut c = || rng.next_u64();
    RunReport {
        app: "tsp".into(),
        network: "fsoi".into(),
        cycles: c(),
        attribution,
        reply_latency,
        meta_tx_probability,
        data_tx_probability,
        meta_collision_rate,
        data_collision_rate,
        packets_sent: [c(), c()],
        data_by_kind: [c(), c(), c()],
        collided_by_kind: [c(), c(), c(), c()],
        acks_elided: c(),
        subscription_packets_saved: c(),
        l1_miss_rate,
        active_cycles: c(),
        stalled_cycles: c(),
        energy,
        data_resolution_delay,
        hint_accuracy,
        hint_wrong_rate,
        bit_error_drops: c(),
        profile,
    }
}

/// A report survives its wire form bit for bit, and the wire form is
/// closed under single-line damage: with any one line dropped, duplicated
/// or retyped (its first word swapped for each other metric kind) nothing
/// decodes.
#[test]
fn run_report_round_trips_through_its_registry() {
    checker!().check(
        "run_report_round_trips_through_its_registry",
        0u64..u64::MAX,
        |&seed| {
            let report = random_report(seed);
            let wire = report.to_wire();
            let back = RunReport::from_wire(&wire).expect("a wire form decodes");
            assert_eq!(back.to_wire(), wire);
            assert_eq!(back.registry().to_jsonl(), report.registry().to_jsonl());
            assert_eq!(back.profile.to_jsonl(), report.profile.to_jsonl());

            let lines: Vec<&str> = wire.lines().collect();
            for (at, line) in lines.iter().enumerate() {
                let decodes = |with: &[String]| {
                    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                    out.splice(at..=at, with.iter().cloned());
                    RunReport::from_wire(&(out.join("\n") + "\n")).is_some()
                };
                assert!(!decodes(&[]), "line {at} dropped: {line}");
                assert!(
                    !decodes(&[line.to_string(), line.to_string()]),
                    "line {at} doubled: {line}"
                );
                let (word, rest) = line.split_once(' ').expect("every line has two words");
                for kind in ["counter", "gauge", "summary", "histogram"] {
                    if kind != word {
                        assert!(
                            !decodes(&[format!("{kind} {rest}")]),
                            "line {at} as a {kind}: {line}"
                        );
                    }
                }
            }
        },
    );
}
