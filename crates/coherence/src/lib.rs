//! MESI directory cache-coherence substrate — the protocol of the paper's
//! Table 2, with every stable and transient state of both the L1 cache
//! controller and the L2 directory controller.
//!
//! The controllers here are *untimed* message-driven state machines: they
//! consume processor or network events and emit outgoing messages. The CMP
//! simulator (`fsoi-cmp`) supplies the timing — cache access latencies,
//! network transport (optical or mesh), and memory channels — which keeps
//! this crate independently testable against the transition table.
//!
//! * [`protocol`] — states, events and messages (Table 2 vocabulary);
//! * [`cache`] — set-associative arrays with LRU replacement;
//! * [`l1`] — the L1 cache controller (M/E/S/I + I.SD, I.MD, S.MA);
//! * [`directory`] — the L2 directory controller (DI/DV/DS/DM + nine
//!   transient states), including `z`-stall queues and the Req(Upg) →
//!   Req(Ex) reinterpretation race;
//! * [`sync`] — load-linked/store-conditional and barrier semantics built
//!   on the protocol, with hooks for the paper's §5.1 confirmation-channel
//!   optimization.
//!
//! # Example
//!
//! ```
//! use fsoi_coherence::l1::L1Controller;
//! use fsoi_coherence::protocol::{L1State, LineAddr};
//!
//! let mut l1 = L1Controller::new(0, 64, 2, 32);
//! // A load to an uncached line misses and issues a shared request.
//! let out = l1.read(LineAddr(0x40));
//! assert!(!out.hit);
//! assert_eq!(l1.state_of(LineAddr(0x40)), L1State::ISD);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod directory;
pub mod l1;
pub mod protocol;
pub mod sync;
