//! The processor-core model.
//!
//! Each core executes its synthetic instruction stream in order: compute
//! gaps advance time, loads block on L1 misses, stores are posted (the
//! store buffer hides their latency until a structural stall), and
//! lock/barrier operations run small multi-step state machines that
//! generate real coherence traffic (spin probes, sense-line reloads) or —
//! with §5.1 subscriptions on — wait for confirmation-channel pushes.

use crate::workload::{CoreWorkload, Op};
use fsoi_coherence::protocol::LineAddr;
use fsoi_sim::Cycle;

/// What a core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing; next operation at `next_at`.
    Ready,
    /// Blocked on a load miss.
    WaitRead {
        /// The missing line.
        line: LineAddr,
        /// When the load issued (for the reply-latency histogram).
        issued_at: Cycle,
    },
    /// Lock acquisition: the lock-word read is in flight.
    LockRead {
        /// Which lock.
        lock: usize,
        /// The lock's line.
        line: LineAddr,
    },
    /// Spinning on a held lock; next probe at the given time.
    SpinLock {
        /// Which lock.
        lock: usize,
        /// Next probe time.
        next_probe: Cycle,
    },
    /// Subscribed to the lock word; waiting for a confirmation-channel
    /// push.
    WaitLockWake {
        /// Which lock.
        lock: usize,
    },
    /// In-flight probe read of the lock word while spinning.
    SpinLockRead {
        /// Which lock.
        lock: usize,
    },
    /// Spinning on the barrier sense word.
    SpinBarrier {
        /// The episode the core entered at.
        episode: u64,
        /// Next probe time.
        next_probe: Cycle,
    },
    /// In-flight probe read of the sense word.
    SpinBarrierRead {
        /// The episode the core entered at.
        episode: u64,
    },
    /// Subscribed to the sense word.
    WaitBarrierWake {
        /// The episode the core entered at.
        episode: u64,
    },
    /// Stream exhausted.
    Done,
}

/// Per-core statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreStats {
    /// Cycles spent executing (issuing ops or computing).
    pub active_cycles: u64,
    /// Cycles spent blocked (misses, locks, barriers).
    pub stalled_cycles: u64,
    /// Loads that blocked.
    pub read_misses: u64,
    /// Lock acquisitions completed.
    pub lock_acquires: u64,
    /// Barrier episodes passed.
    pub barriers_passed: u64,
}

/// One processor core.
#[derive(Debug)]
pub struct Core {
    /// Core / node id.
    pub id: usize,
    /// Its instruction stream.
    pub workload: CoreWorkload,
    /// Current activity.
    pub state: CoreState,
    /// Earliest cycle the next operation may issue.
    pub next_at: Cycle,
    /// An operation that hit a structural stall and must be retried.
    pub pending_op: Option<Op>,
    /// Statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Creates a core over its workload.
    pub fn new(id: usize, workload: CoreWorkload) -> Self {
        Core {
            id,
            workload,
            state: CoreState::Ready,
            next_at: Cycle::ZERO,
            pending_op: None,
            stats: CoreStats::default(),
        }
    }

    /// True when the stream is exhausted and the core has retired.
    pub fn is_done(&self) -> bool {
        self.state == CoreState::Done
    }

    /// Whether the core wants to issue at `now`.
    pub fn wants_to_issue(&self, now: Cycle) -> bool {
        self.state == CoreState::Ready && self.next_at <= now
    }

    /// The next operation: a retried stall first, then the stream.
    pub fn take_op(&mut self) -> Option<Op> {
        self.pending_op.take().or_else(|| self.workload.next_op())
    }

    /// Accounts one cycle of activity.
    pub fn account_cycle(&mut self) {
        self.account_cycles(1);
    }

    /// Accounts `n` cycles at once. Only valid when the caller knows the
    /// state cannot change across the span (the fast-forward path skips
    /// cycles strictly before any event that could transition a core, so
    /// the per-cycle classification is constant).
    pub fn account_cycles(&mut self, n: u64) {
        match self.state {
            CoreState::Done => {}
            CoreState::Ready => self.stats.active_cycles += n,
            _ => self.stats.stalled_cycles += n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AppProfile;

    fn core() -> Core {
        let w = CoreWorkload::new(AppProfile::by_name("tsp").unwrap(), 0, 32, 1);
        Core::new(0, w)
    }

    #[test]
    fn issue_gating() {
        let mut c = core();
        assert!(c.wants_to_issue(Cycle(0)));
        c.next_at = Cycle(10);
        assert!(!c.wants_to_issue(Cycle(5)));
        assert!(c.wants_to_issue(Cycle(10)));
        c.state = CoreState::WaitRead {
            line: LineAddr(0),
            issued_at: Cycle(0),
        };
        assert!(!c.wants_to_issue(Cycle(100)));
    }

    #[test]
    fn pending_op_takes_priority() {
        let mut c = core();
        c.pending_op = Some(Op::Compute(5));
        assert_eq!(c.take_op(), Some(Op::Compute(5)));
        assert!(c.pending_op.is_none());
        assert!(c.take_op().is_some(), "stream continues");
    }

    #[test]
    fn accounting_splits_active_and_stalled() {
        let mut c = core();
        c.account_cycle(); // Ready → active
        c.state = CoreState::WaitRead {
            line: LineAddr(0),
            issued_at: Cycle(0),
        };
        c.account_cycle();
        c.state = CoreState::Done;
        c.account_cycle();
        assert_eq!(c.stats.active_cycles, 1);
        assert_eq!(c.stats.stalled_cycles, 1);
    }

    #[test]
    fn done_detection() {
        let mut c = core();
        assert!(!c.is_done());
        c.state = CoreState::Done;
        assert!(c.is_done());
    }
}
