//! Quickstart: beam packets across a 16-node free-space optical
//! interconnect, watch a collision happen and resolve, and read the
//! statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fsoi::net::config::FsoiConfig;
use fsoi::net::network::FsoiNetwork;
use fsoi::net::packet::PacketClass;
use fsoi::net::topology::{receiver_index, NodeId};
use fsoi::sim::packet::{Interconnect, NetPacket};

fn main() {
    // The paper's default 16-node configuration: 3-VCSEL meta lanes,
    // 6-VCSEL data lanes, 2 receivers per lane class, W = 2.7 / B = 1.1
    // exponential back-off, 2-cycle confirmations.
    let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), 42);

    // A clean transfer: node 0 beams a data packet straight at node 9.
    // No routing, no arbitration — the beam is the wire.
    net.inject(NetPacket::new(0, 9, PacketClass::Data, 0xCAFE))
        .expect("queues are empty");
    while net.delivered_count() == 0 {
        net.tick();
    }
    let d = net.drain().next().expect("one delivery is waiting");
    println!(
        "clean transfer : node 0 → node 9 in {} cycles (tag {:#x}, {} retries)",
        d.latency, d.packet.tag, d.retries
    );

    // Now force a collision: nodes 0 and 2 share receiver 0 at node 5
    // (the 15 potential senders are dealt round-robin over 2 receivers),
    // and both transmit in the same slot. The receiver sees the OR of the
    // two light pulses; the PID/~PID header exposes the corruption; both
    // senders miss their confirmations and back off.
    assert_eq!(receiver_index(NodeId(0), NodeId(5), 16, 2), 0);
    assert_eq!(receiver_index(NodeId(2), NodeId(5), 16, 2), 0);
    net.inject(NetPacket::new(0, 5, PacketClass::Meta, 1))
        .unwrap();
    net.inject(NetPacket::new(2, 5, PacketClass::Meta, 2))
        .unwrap();
    let mut delivered = Vec::new();
    while delivered.len() < 2 {
        net.tick();
        delivered.extend(net.drain());
    }
    for d in &delivered {
        println!(
            "collided packet: {} → node 5, {} retries, resolved in {} cycles total",
            NodeId(d.packet.src),
            d.retries,
            d.latency
        );
    }

    let s = net.stats();
    println!("\nnetwork statistics");
    println!(
        "  transmissions (meta/data) : {} / {}",
        s.transmissions[0], s.transmissions[1]
    );
    println!(
        "  collision events          : {}",
        s.collision_events[0] + s.collision_events[1]
    );
    println!(
        "  retransmissions           : {}",
        s.retransmissions[0] + s.retransmissions[1]
    );
    println!("  confirmations beamed      : {}", s.confirmations());
}
