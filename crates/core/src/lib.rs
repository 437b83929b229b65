//! The intra-chip free-space optical interconnect (FSOI) of Xue et al.,
//! ISCA 2010 — the paper's primary contribution.
//!
//! FSOI is a fully-distributed, relay-free quasi-crossbar: every node owns
//! VCSEL lanes beamed directly at every other node's photodetectors through
//! a free-space micro-optics layer. There is no packet switching, no
//! buffering in the network, and no arbitration; instead, simultaneous
//! packets that share a receiver **collide** and are retransmitted under a
//! tuned exponential back-off. A dedicated, collision-free confirmation
//! channel acknowledges receipt and doubles as a carrier for protocol
//! optimizations.
//!
//! * [`network::FsoiNetwork`] — the cycle-driven simulator, driven through
//!   the workspace's one network interface,
//!   [`Interconnect`](fsoi_sim::packet::Interconnect); it also holds the
//!   confirmation channel (a beam count: receipts and retransmission
//!   hints act when their slot resolves) and the 64-node phase-array aim;
//! * [`packet`] — packet classes and the PID/~PID collision-detecting code;
//! * [`lane`] — lane widths, serialization latencies and slotting;
//! * [`backoff`] — the `W = 2.7, B = 1.1` retransmission policy;
//! * [`spacing`] — request spacing (reply-slot reservation);
//! * [`topology`] — receiver sharing and VCSEL inventory;
//! * [`analysis`] — the paper's closed-form models (Figures 3 and 4, the
//!   meta-bandwidth optimum of §4.3.2);
//! * `power` — per-packet energy accounting built on `fsoi-optics`.
//!
//! # Example
//!
//! ```
//! use fsoi_net::config::FsoiConfig;
//! use fsoi_net::network::FsoiNetwork;
//! use fsoi_net::packet::PacketClass;
//! use fsoi_sim::packet::{Interconnect, NetPacket};
//!
//! let mut net = FsoiNetwork::new(FsoiConfig::nodes(16), 1);
//! net.inject(NetPacket::new(0, 9, PacketClass::Data, 0)).unwrap();
//! net.run(10);
//! assert_eq!(net.drain().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod backoff;
pub mod config;
pub mod lane;
pub mod network;
pub mod packet;
mod power;
pub mod skew;
pub mod spacing;
pub mod topology;

pub use config::FsoiConfig;
pub use network::FsoiNetwork;
