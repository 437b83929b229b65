//! A Corona-style nanophotonic crossbar — the waveguided, token-arbitrated
//! alternative the paper compares against ("the system is 1.06 times
//! faster than a corona-style design in a 64-way system", §7.1).
//!
//! Corona (Vantrease et al., ISCA 2008 — the paper's ref \[61\]) builds an
//! optical crossbar from *multiple-writer, single-reader* (MWSR) buses:
//! each node owns a home channel — a WDM waveguide bundle looping the die
//! that only it reads — and any other node may write onto it after
//! acquiring the channel's circulating **optical token**. Arbitration is
//! therefore distributed like FSOI's, but *serialized per destination*:
//! only one writer can hold a channel at a time, and a would-be writer
//! waits for the token to come around.
//!
//! This model captures the three timing properties that matter for the
//! architectural comparison:
//!
//! * token acquisition costs half a ring circulation on average when the
//!   channel is idle, and a writer-to-writer token pass when it is not;
//! * a channel carries one packet at a time (no collisions — and no
//!   concurrent receivers either, unlike FSOI's 2-per-lane);
//! * propagation is speed-of-light around the waveguide loop.
//!
//! The model deliberately omits Corona's electrical details and gives the
//! channels generous WDM bandwidth; see `RingConfig`.
//!
//! The crate also hosts the second nanophotonic baseline of the
//! design-space grids: [`crossbar`], a passive ring-matrix crossbar whose
//! per-port laser power is sized from the worst-case insertion loss at
//! its radix (the PAPERS.md comparative study) — dedicated paths and no
//! token, but a power column that explodes with node count.
//!
//! Both are one engine, [`ChannelNetwork`] — a FIFO writer queue per
//! destination, served serially — configured by an arbitration row
//! ([`network::Arbitration`]) built from a [`RingConfig`] or a
//! [`CrossbarConfig`].

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod config;
pub mod crossbar;
pub mod network;

pub use config::RingConfig;
pub use crossbar::CrossbarConfig;
pub use network::ChannelNetwork;
