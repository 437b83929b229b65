//! Deterministic simulation kernel for the intra-chip free-space optical
//! interconnect (FSOI) reproduction.
//!
//! This crate provides the low-level machinery shared by every simulator in
//! the workspace:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`rng::SplitMix64`] and [`rng::Xoshiro256StarStar`] — fast,
//!   fully-deterministic pseudo-random number generators (no dependence on
//!   OS entropy, so every experiment is exactly reproducible),
//! * [`event::EventQueue`] — a stable (FIFO within a cycle) time-ordered
//!   event queue, and two specialisations with its exact pop order
//!   ([`event::CalendarQueue`], [`event::MonotoneQueue`]),
//! * [`det::DetMap`] / [`det::DetSet`] — order-deterministic associative
//!   containers (the names simulation code uses for `BTreeMap`/`BTreeSet`
//!   in place of `HashMap`/`HashSet`, enforced by lint rule D1),
//! * [`stats`] — the exact reply-latency histogram (integer bin counts and
//!   sum) and the geometric mean,
//! * [`metrics::Registry`] — the deterministic observability plane's one
//!   store and one codec: named, labelled counters, gauges and histograms
//!   (report metrics and harness spans alike) with JSONL, table
//!   and bit-exact wire renderings, byte-identical across thread counts,
//! * [`par`] — the lock-free sweep executor (one atomic cell cursor): the
//!   only sanctioned home for threads in simulation code (lint
//!   rule D3), with results merged by a deterministic reduction keyed on
//!   cell index so thread count is never observable in output,
//! * [`trace`] — cycle-stamped structured event tracing with a bounded
//!   flight recorder that dumps JSON lines when an invariant fails,
//! * [`queue::BoundedQueue`] — a bounded FIFO modelling finite hardware
//!   buffers,
//! * [`packet`] — the one network interface: the
//!   [`packet::Interconnect`] trait every network implements, the one
//!   packet ([`packet::NetPacket`], with its [`packet::PacketClass`]) every
//!   network takes and the one delivery record ([`packet::NetDelivery`])
//!   every network hands back.
//!
//! # Example
//!
//! ```
//! use fsoi_sim::{Cycle, event::EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "b");
//! q.push(Cycle(5), "a");
//! assert_eq!(q.pop(), Some((Cycle(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle(10), "b")));
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1
#![warn(missing_debug_implementations)]

pub mod det;
pub mod event;
pub mod metrics;
pub mod packet;
pub mod par;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod trace;

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A simulation timestamp, measured in processor clock cycles.
///
/// `Cycle` is a transparent newtype over `u64`; arithmetic is provided for
/// the common "now + latency" patterns. Subtraction panics on underflow in
/// debug builds (like `u64`), which catches scheduling-in-the-past bugs.
///
/// ```
/// use fsoi_sim::Cycle;
/// let t = Cycle(100) + 5;
/// assert_eq!(t, Cycle(105));
/// assert_eq!(t - Cycle(100), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero timestamp (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Cycle) -> u64 {
        self.0.saturating_sub(other.0)
    }

    /// Checked subtraction; `None` if `other` is in the future of `self`.
    #[inline]
    pub fn checked_sub(self, other: Cycle) -> Option<u64> {
        self.0.checked_sub(other.0)
    }

    /// Rounds this timestamp *up* to the next multiple of `slot` cycles.
    ///
    /// Used for slotted transmission: a packet that becomes ready inside a
    /// slot must wait for the next slot boundary.
    ///
    /// ```
    /// use fsoi_sim::Cycle;
    /// assert_eq!(Cycle(7).round_up_to_slot(5), Cycle(10));
    /// assert_eq!(Cycle(10).round_up_to_slot(5), Cycle(10));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `slot == 0`.
    #[inline]
    pub fn round_up_to_slot(self, slot: u64) -> Cycle {
        assert!(slot > 0, "slot length must be positive");
        Cycle(self.0.div_ceil(slot) * slot)
    }

    /// True if this timestamp lies on a boundary of `slot`-cycle slots.
    #[inline]
    pub fn is_slot_boundary(self, slot: u64) -> bool {
        slot > 0 && self.0.is_multiple_of(slot)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycle(3) + 4, Cycle(7));
        assert_eq!(Cycle(7) - Cycle(3), 4);
        let mut c = Cycle(1);
        c += 2;
        assert_eq!(c, Cycle(3));
    }

    #[test]
    fn cycle_saturating_and_checked() {
        assert_eq!(Cycle(3).saturating_sub(Cycle(5)), 0);
        assert_eq!(Cycle(5).saturating_sub(Cycle(3)), 2);
        assert_eq!(Cycle(3).checked_sub(Cycle(5)), None);
        assert_eq!(Cycle(5).checked_sub(Cycle(3)), Some(2));
    }

    #[test]
    fn slot_rounding() {
        assert_eq!(Cycle(0).round_up_to_slot(5), Cycle(0));
        assert_eq!(Cycle(1).round_up_to_slot(5), Cycle(5));
        assert_eq!(Cycle(5).round_up_to_slot(5), Cycle(5));
        assert_eq!(Cycle(6).round_up_to_slot(2), Cycle(6));
        assert!(Cycle(10).is_slot_boundary(5));
        assert!(!Cycle(11).is_slot_boundary(5));
        assert!(!Cycle(11).is_slot_boundary(0));
    }

    #[test]
    #[should_panic(expected = "slot length must be positive")]
    fn slot_rounding_zero_panics() {
        let _ = Cycle(1).round_up_to_slot(0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle(42).to_string(), "cycle 42");
    }

    #[test]
    fn from_u64() {
        let c: Cycle = 9u64.into();
        assert_eq!(c, Cycle(9));
        assert_eq!(c.as_u64(), 9);
    }
}
