//! Baseline electrical packet-switched 2-D mesh network-on-chip.
//!
//! The paper compares its free-space optical interconnect against a
//! conventional wire-based mesh with canonical 4-cycle virtual-channel
//! routers (Table 3: 72-bit flits, 1-flit meta / 5-flit data packets,
//! 4 VCs, 4-cycle routers + 1-cycle links), plus three idealized latency
//! configurations:
//!
//! * `L0` — zero transmission latency; only serialization and source
//!   queuing are modelled (a loose performance upper bound);
//! * `Lr1` / `Lr2` — per-hop costs of 1 link cycle plus 1 or 2 router
//!   cycles, with no contention modelled.
//!
//! This crate implements all of them:
//!
//! * `router` — a wormhole, credit-flow-controlled VC router with the
//!   canonical RC/VA/SA/ST pipeline;
//! * [`network::MeshNetwork`] — the full cycle-driven mesh;
//! * [`ideal::IdealNetwork`] — the L0/Lr1/Lr2 analytic configurations;
//! * `power` — Orion-style per-event energy accounting.
//!
//! Both networks are driven through the workspace's one network interface,
//! [`Interconnect`](fsoi_sim::packet::Interconnect), which each implements
//! in its own module.
//!
//! # Example
//!
//! ```
//! use fsoi_mesh::config::MeshConfig;
//! use fsoi_mesh::network::MeshNetwork;
//! use fsoi_sim::packet::{Interconnect, NetPacket, PacketClass};
//!
//! let mut net = MeshNetwork::new(MeshConfig::nodes(16));
//! net.inject(NetPacket::new(0, 15, PacketClass::Meta, 1)).unwrap();
//! while !net.is_idle() {
//!     net.tick();
//! }
//! assert_eq!(net.drain().next().unwrap().packet.dst, 15);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod config;
pub mod ideal;
pub mod network;
pub mod packet;
mod power;
mod router;
pub mod routing;

pub use config::MeshConfig;
pub use network::MeshNetwork;
