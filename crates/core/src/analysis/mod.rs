//! Closed-form and Monte-Carlo models from the paper's analysis sections.
//!
//! The paper makes early design decisions with "simpler analytical means"
//! and validates them against detailed simulation (§7.3). This module
//! reproduces those models:
//!
//! * [`collision`] — collision probability vs transmission probability and
//!   receiver count (**Figure 3**); its tests hold the Monte-Carlo packet
//!   rate to footnote 4's per-packet approximation;
//! * [`bandwidth`] — the meta/data bandwidth-allocation latency model whose
//!   optimum is `B_M ≈ 0.285` (§4.3.2, item 3);
//! * [`backoff`] — the collision-resolution-delay model over `(W, B)`
//!   (**Figure 4**) and the pathological all-to-one burst analysis;
//! * [`queueing`] — the M/D/1 source-queue model behind the queuing
//!   component of the Figure 6/7 latency breakdown.

pub mod backoff;
pub mod bandwidth;
pub mod collision;
pub mod queueing;
