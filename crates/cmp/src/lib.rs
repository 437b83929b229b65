//! Chip-multiprocessor system simulator for the FSOI reproduction.
//!
//! Ties together the workspace: parameterized cores running synthetic
//! application workloads ([`workload`]), the Table 2 MESI directory
//! protocol (`fsoi-coherence`), one of five interconnects ([`configs`] —
//! FSOI, mesh, L0, Lr1, Lr2), bandwidth-limited memory channels
//! (`memory`), and Wattch-style chip energy accounting ([`energy`]).
//!
//! The entry point is [`system::CmpSystem`]:
//!
//! ```
//! use fsoi_cmp::configs::{NetworkKind, SystemConfig};
//! use fsoi_cmp::system::CmpSystem;
//! use fsoi_cmp::workload::AppProfile;
//!
//! let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16));
//! let mut app = AppProfile::by_name("tsp").unwrap();
//! app.ops_per_core = 100; // keep the doctest fast
//! let report = CmpSystem::new(cfg, app).run(1_000_000);
//! assert!(report.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cache;
pub mod configs;
mod core;
pub mod energy;
pub mod interconnect;
mod memory;
pub mod metrics;
pub mod system;
pub mod workload;
