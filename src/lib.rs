//! # fsoi — intra-chip free-space optical interconnect
//!
//! A full reproduction of *"An Intra-Chip Free-Space Optical Interconnect"*
//! (Xue et al., ISCA 2010): the FSOI network architecture, its optical
//! physical layer, an electrical mesh baseline, a MESI directory coherence
//! substrate, and a chip-multiprocessor simulator that regenerates every
//! table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace's sub-crates under one
//! namespace:
//!
//! * [`sim`] — deterministic simulation kernel (cycles, events, RNG, stats),
//! * [`optics`] — VCSELs, photodetectors, Gaussian-beam paths, link budgets,
//! * [`net`] — the FSOI interconnect itself (the paper's contribution),
//! * [`mesh`] — the packet-switched electrical mesh baseline,
//! * [`coherence`] — the MESI directory protocol of the paper's Table 2,
//! * [`cmp`] — the CMP system simulator, workloads, and energy model.
//!
//! Every network — FSOI, mesh, L0/Lr1/Lr2, ring, crossbar — implements the
//! one [`Interconnect`](sim::packet::Interconnect) trait: a
//! [`NetPacket`](sim::packet::NetPacket) in, a
//! [`NetDelivery`](sim::packet::NetDelivery) out.
//!
//! # Quickstart
//!
//! ```
//! use fsoi::net::config::FsoiConfig;
//! use fsoi::net::network::FsoiNetwork;
//! use fsoi::net::packet::PacketClass;
//! use fsoi::sim::packet::{Interconnect, NetPacket};
//!
//! // A 16-node FSOI network with the paper's default configuration.
//! let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), 42);
//!
//! // Beam a data packet from node 0 to node 5 and run until delivery.
//! net.inject(NetPacket::new(0, 5, PacketClass::Data, 0)).unwrap();
//! while net.delivered_count() == 0 {
//!     net.tick();
//! }
//! // The drain borrows the network's delivery buffer; nothing is copied.
//! let d = net.drain().next().unwrap();
//! assert_eq!(d.packet.dst, 5);
//! ```
//!
//! To reproduce a paper experiment end to end, run the harness in
//! `crates/bench`:
//!
//! ```text
//! cargo run --release -p fsoi-bench --bin experiments -- table1
//! cargo run --release -p fsoi-bench --bin experiments -- fig6
//! ```

pub use fsoi_cmp as cmp;
pub use fsoi_coherence as coherence;
pub use fsoi_mesh as mesh;
pub use fsoi_net as net;
pub use fsoi_optics as optics;
pub use fsoi_ring as ring;
pub use fsoi_sim as sim;

/// Compiles and runs the README's library snippet as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
