//! End-to-end observability acceptance: a failing assertion inside the
//! network automatically dumps the flight recorder as JSON lines, and the
//! dump replays into per-packet timelines — the same parsing path the
//! `trace_replay` example uses.

use fsoi::net::packet::PacketClass;
use fsoi::net::{FsoiConfig, FsoiNetwork};
use fsoi::sim::packet::{Interconnect, NetPacket};
use fsoi::sim::trace::{self, timelines, TraceRecord};

#[test]
fn failing_assertion_dumps_a_replayable_flight_record() {
    if !trace::compiled() {
        return; // release build without the `trace` feature: nothing recorded
    }
    trace::set_enabled(true);
    trace::clear();

    // Ordinary traffic first, so the recorder holds real packet lifecycles
    // when the failure fires.
    let mut net = FsoiNetwork::new(FsoiConfig::nodes(8), 7);
    for i in 0..6usize {
        net.inject(NetPacket::new(i, (i + 1) % 8, PacketClass::Meta, i as u64))
            .expect("queues start empty");
    }
    net.run(2_000);
    assert!(
        net.delivered_count() > 0,
        "traffic must flow before the failure"
    );

    let dump = trace::panic_dump_path();
    let _ = std::fs::remove_file(&dump);

    // Self-injection trips the fabric's always-on assertion; the panic
    // hook installed by `FsoiNetwork::new` dumps this thread's recorder.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = net.inject(NetPacket::new(3, 3, PacketClass::Meta, 99));
    }))
    .expect_err("self-injection must panic");

    let text = std::fs::read_to_string(&dump).expect("panic must write the flight-recorder dump");
    let records: Vec<TraceRecord> = text
        .lines()
        .map(|l| TraceRecord::parse_jsonl(l).expect("every dumped line parses"))
        .collect();
    assert!(!records.is_empty(), "dump holds the recorded tail");
    assert!(records.iter().any(|r| r.event.name() == "inject"));
    assert!(records.iter().any(|r| r.event.name() == "deliver"));
    let by_packet = timelines(&records);
    assert!(
        !by_packet.is_empty(),
        "dump replays into per-packet timelines"
    );

    // Dumping clears the recorder, so a later unrelated panic cannot
    // re-report stale events.
    assert!(
        trace::snapshot().is_empty(),
        "recorder cleared after the dump"
    );
    let _ = std::fs::remove_file(&dump);
}
