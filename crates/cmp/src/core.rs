//! The processor-core model.
//!
//! Each core executes its synthetic instruction stream in order: each
//! load or store carries the compute gap that follows it (its think
//! time), which delays the next issue once the access completes; loads
//! block on L1 misses, stores are posted (the store buffer hides their
//! latency until a structural stall), and
//! lock/barrier operations run small multi-step state machines that
//! generate real coherence traffic (spin probes, sense-line reloads) or —
//! with §5.1 subscriptions on — wait for confirmation-channel pushes.

use crate::workload::{CoreWorkload, Op};
use fsoi_coherence::protocol::LineAddr;
use fsoi_sim::Cycle;

/// What a core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreState {
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoreStats {
    /// Cycles spent executing (issuing ops or computing), up to the
    /// core's last change of class (see [`Core::set_state`]).
    pub active_cycles: u64,
    /// Cycles spent blocked (misses, locks, barriers), likewise.
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
pub(crate) struct Core {
    /// Its instruction stream.
    pub workload: CoreWorkload,
    /// Current activity; private so every change is accounted by
    /// [`set_state`](Core::set_state).
    state: CoreState,
    /// The cycle the current accounting class (active, stalled or done)
    /// began: a `Done` core's is the cycle it retired.
    since: Cycle,
    /// Earliest cycle the next operation may issue.
    pub next_at: Cycle,
    /// An operation that hit a structural stall and must be retried (a
    /// load or store keeps its think time owed meanwhile).
    pub pending_op: Option<Op>,
    /// Statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Creates a core over its workload.
    pub(crate) fn new(workload: CoreWorkload) -> Self {
        Core {
            workload,
            state: CoreState::Ready,
            since: Cycle::ZERO,
            next_at: Cycle::ZERO,
            pending_op: None,
            stats: CoreStats::default(),
        }
    }

    /// True when the stream is exhausted and the core has retired.
    pub(crate) fn is_done(&self) -> bool {
        self.state == CoreState::Done
    }

    /// Whether the core wants to issue at `now`.
    pub(crate) fn wants_to_issue(&self, now: Cycle) -> bool {
        self.state == CoreState::Ready && self.next_at <= now
    }

    /// The next operation: a retried stall first, then the stream. A load
    /// or store leaves its think time owed in the workload, for the kernel
    /// to spend when the access completes
    /// ([`CoreWorkload::take_think`]).
    pub(crate) fn take_op(&mut self) -> Option<Op> {
        self.pending_op.take().or_else(|| self.workload.next_op())
    }

    /// Current activity.
    pub(crate) fn state(&self) -> CoreState {
        self.state
    }

    /// The cycle of the core's next self-driven action — an issue
    /// (`Ready`) or a spin probe — or `None` while only an event (a fill,
    /// a subscription push) can move it.
    pub(crate) fn due_at(&self) -> Option<Cycle> {
        match self.state {
            CoreState::Ready => Some(self.next_at),
            CoreState::SpinLock { next_probe, .. } | CoreState::SpinBarrier { next_probe, .. } => {
                Some(next_probe)
            }
            _ => None,
        }
    }

    /// Moves the core to `state` during cycle `now`. The one place the
    /// state changes, and so the one place cycles are accounted: when the
    /// class changes, the old class is credited `now - since` and the new
    /// one owns cycle `now` itself — what classifying every core at the
    /// end of every cycle would add up to.
    pub(crate) fn set_state(&mut self, state: CoreState, now: Cycle) {
        if Class::of(state) != Class::of(self.state) {
            self.stats = self.stats_at(now);
            self.since = now;
        }
        self.state = state;
    }

    /// The statistics with the open span — `since` up to, not including,
    /// cycle `now` — credited to the current class.
    pub(crate) fn stats_at(&self, now: Cycle) -> CoreStats {
        let mut stats = self.stats;
        match Class::of(self.state) {
            Class::Active => stats.active_cycles += now - self.since,
            Class::Stalled => stats.stalled_cycles += now - self.since,
            Class::Done => {}
        }
        stats
    }
}

/// How a cycle spent in a state is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Active,
    Stalled,
    Done,
}

impl Class {
    fn of(state: CoreState) -> Class {
        match state {
            CoreState::Ready => Class::Active,
            CoreState::Done => Class::Done,
            _ => Class::Stalled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AppProfile;

    fn core() -> Core {
        let w = CoreWorkload::new(AppProfile::by_name("tsp").unwrap(), 0, 32, 1);
        Core::new(w)
    }

    #[test]
    fn issue_gating() {
        let mut c = core();
        assert!(c.wants_to_issue(Cycle(0)));
        c.next_at = Cycle(10);
        assert!(!c.wants_to_issue(Cycle(5)));
        assert!(c.wants_to_issue(Cycle(10)));
        assert_eq!(c.due_at(), Some(Cycle(10)));
        let wait = CoreState::WaitRead {
            line: LineAddr(0),
            issued_at: Cycle(0),
        };
        c.set_state(wait, Cycle(10));
        assert!(!c.wants_to_issue(Cycle(100)));
        assert_eq!(c.due_at(), None, "only a fill can move it");
        let spin = CoreState::SpinLock {
            lock: 0,
            next_probe: Cycle(22),
        };
        c.set_state(spin, Cycle(10));
        assert_eq!(c.due_at(), Some(Cycle(22)));
    }

    #[test]
    fn pending_op_takes_priority() {
        // A stalled load is retried before the stream moves on, and keeps
        // the think time drawn with it owed.
        let (mut c, mut twin) = (core(), core());
        let first = c.take_op();
        let Some(Op::Read(line)) = first else {
            panic!("tsp at seed 1 opens with a load, not {first:?}");
        };
        c.pending_op = first;
        assert_eq!(c.take_op(), Some(Op::Read(line)));
        assert!(c.pending_op.is_none());
        assert_eq!(c.workload.issued(), 1, "the retry draws nothing");
        assert_eq!(twin.take_op(), first);
        let think = twin.workload.take_think();
        assert_eq!(c.workload.take_think(), think, "the load's think time");
        assert!(c.take_op().is_some(), "stream continues");
    }

    #[test]
    fn done_detection() {
        let mut c = core();
        assert!(!c.is_done());
        c.set_state(CoreState::Done, Cycle(7));
        assert!(c.is_done());
        assert_eq!(c.due_at(), None);
    }
}
