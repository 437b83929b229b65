//! Replays a flight-recorder JSONL dump into per-packet timelines and
//! per-lane collision/backoff statistics.
//!
//! ```text
//! cargo run --example trace_replay -- /tmp/fsoi-flight-1234-main.jsonl
//! ```
//!
//! Dumps are written automatically when a panic fires with tracing
//! compiled in (debug builds or `--features trace`); the panic message
//! names the file. `FSOI_TRACE_DUMP` pins the dump path.

use fsoi_sim::trace::{timelines, TraceEvent, TraceRecord};

const LANE_NAMES: [&str; 2] = ["meta", "data"];

fn lane_name(lane: u64) -> &'static str {
    LANE_NAMES.get(lane as usize).copied().unwrap_or("lane?")
}

/// One-line human rendering of an event, without the packet id (the
/// timeline heading already carries it).
fn describe(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Inject {
            src,
            dst,
            lane,
            tag,
            ..
        } => {
            format!(
                "inject    {} -> {} ({}, tag {tag})",
                src,
                dst,
                lane_name(*lane)
            )
        }
        TraceEvent::Reject { src, dst, lane } => {
            format!(
                "reject    {} -> {} ({}): source queue full",
                src,
                dst,
                lane_name(*lane)
            )
        }
        TraceEvent::TxStart {
            attempt,
            slot,
            lane,
            ..
        } => {
            format!(
                "tx_start  attempt {attempt}, {} slot {slot}",
                lane_name(*lane)
            )
        }
        TraceEvent::Collide {
            rx, group, lane, ..
        } => {
            format!(
                "collide   at rx {rx} ({}), {group} packets in group",
                lane_name(*lane)
            )
        }
        TraceEvent::BitError { lane, .. } => {
            format!("bit_error dropped in flight ({})", lane_name(*lane))
        }
        TraceEvent::Backoff {
            retry,
            delay_slots,
            ready,
            lane,
            ..
        } => {
            format!(
                "backoff   retry {retry}, {delay_slots} {} slot(s) -> ready @{ready}",
                lane_name(*lane)
            )
        }
        TraceEvent::Hint { dst, winner } => {
            format!("hint      receiver {dst} names winner {winner}")
        }
        TraceEvent::Deliver {
            queuing,
            scheduling,
            network,
            resolution,
            retries,
            lane,
            ..
        } => {
            format!(
                "deliver   after {retries} retries ({}; latency: queue {queuing} + sched {scheduling} + net {network} + resolve {resolution})",
                lane_name(*lane)
            )
        }
        TraceEvent::Confirm { src, dst, kind } => {
            format!("confirm   {src} -> {dst} ({kind})")
        }
        TraceEvent::Dir {
            node,
            line,
            from,
            to,
        } => {
            format!("dir       node {node} line {line:#x}: {from} -> {to}")
        }
        TraceEvent::Mark { label, value } => format!("mark      {label} = {value}"),
    }
}

#[derive(Default)]
struct LaneStats {
    tx_starts: u64,
    collisions: u64,
    bit_errors: u64,
    backoffs: u64,
    backoff_slots: u64,
    delivered: u64,
    retries_at_delivery: u64,
}

fn main() {
    #[expect(clippy::disallowed_methods, reason = "D2: the example's own argv")]
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_replay <dump.jsonl>");
        eprintln!("(flight-recorder dumps are announced by the panic message;");
        eprintln!(" set FSOI_TRACE_DUMP to pin the path)");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_replay: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };

    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match TraceRecord::parse_jsonl(line) {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    if records.is_empty() {
        eprintln!("trace_replay: no parseable trace records in {path} ({skipped} lines skipped)");
        std::process::exit(1);
    }
    let first = records.iter().map(|r| r.cycle).min().unwrap_or(0);
    let last = records.iter().map(|r| r.cycle).max().unwrap_or(0);

    let by_packet = timelines(&records);
    println!(
        "replay of {path}: {} events over cycles {first}..{last}, {} packets{}",
        records.len(),
        by_packet.len(),
        if skipped > 0 {
            format!(" ({skipped} unparseable lines skipped)")
        } else {
            String::new()
        },
    );

    println!("\nper-packet timelines:");
    for (id, events) in &by_packet {
        let heading = events
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::Inject { src, dst, lane, .. } => {
                    Some(format!(" ({} -> {}, {} lane)", src, dst, lane_name(*lane)))
                }
                _ => None,
            })
            .unwrap_or_default();
        println!("  packet {id}{heading}:");
        for r in events {
            println!("    @{:<8} {}", r.cycle, describe(&r.event));
        }
    }

    let mut lanes: [LaneStats; 2] = Default::default();
    let mut unattributed = 0u64;
    for r in &records {
        let Some(lane) = r.event.lane().filter(|&l| (l as usize) < lanes.len()) else {
            unattributed += 1;
            continue;
        };
        let s = &mut lanes[lane as usize];
        match &r.event {
            TraceEvent::TxStart { .. } => s.tx_starts += 1,
            TraceEvent::Collide { .. } => s.collisions += 1,
            TraceEvent::BitError { .. } => s.bit_errors += 1,
            TraceEvent::Backoff { delay_slots, .. } => {
                s.backoffs += 1;
                s.backoff_slots += delay_slots;
            }
            TraceEvent::Deliver { retries, .. } => {
                s.delivered += 1;
                s.retries_at_delivery += retries;
            }
            _ => {}
        }
    }

    println!("\nper-lane statistics:");
    println!(
        "  {:<5} {:>9} {:>10} {:>10} {:>8} {:>9} {:>12} {:>15}",
        "lane",
        "tx_starts",
        "collisions",
        "bit_errs",
        "backoffs",
        "delivered",
        "mean_retries",
        "mean_backoff"
    );
    for (i, s) in lanes.iter().enumerate() {
        let mean = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        println!(
            "  {:<5} {:>9} {:>10} {:>10} {:>8} {:>9} {:>12.2} {:>12.2} sl",
            LANE_NAMES[i],
            s.tx_starts,
            s.collisions,
            s.bit_errors,
            s.backoffs,
            s.delivered,
            mean(s.retries_at_delivery, s.delivered),
            mean(s.backoff_slots, s.backoffs),
        );
    }
    if unattributed > 0 {
        println!("  ({unattributed} events carry no lane: confirms, hints, directory transitions, marks)");
    }
}
