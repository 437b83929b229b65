//! Deterministic parallel sweep execution.
//!
//! The paper's evaluation is a seed×config sweep: every table and figure
//! is a fold over independent (application, network, seed) cells, each of
//! which runs its own isolated simulator with its own RNG stream. Those
//! cells are embarrassingly parallel — but the workspace's core invariant
//! is that **same-seed output is byte-identical**, so parallelism must
//! never become observable in any exported number.
//!
//! [`sweep`] guarantees that by construction:
//!
//! * each cell index runs exactly once, in an isolated closure call that
//!   shares no mutable state with any other cell;
//! * results are returned in a `Vec` indexed by cell — a **deterministic
//!   reduction keyed on cell index**, not on completion order;
//! * thread count therefore affects wall-clock time only. `sweep(n, 1, f)`
//!   and `sweep(n, 8, f)` return equal vectors for any pure `f`, and the
//!   serial path (`threads <= 1`) does not spawn at all.
//!
//! Scheduling is self-scheduling over one shared atomic cursor: every
//! worker loops `next.fetch_add(1)` and runs the index it got until the
//! cursor passes the end — greedy list scheduling in index order, so a
//! slow cell (a 64-node cell costs ~4× a 16-node cell) occupies one worker
//! while the others take everything else. The whole correctness argument
//! is three lines:
//!
//! * **exactly once** — `fetch_add` returns each index to exactly one
//!   caller;
//! * **deterministic** — results land in slots keyed on that index, and
//!   `join` gives the happens-before between a worker's writes and the
//!   caller's reads;
//! * **deadlock-free** — there is no lock, queue or park; the only
//!   blocking call is `join`.
//!
//! This module is the **only** place in the workspace where threads are
//! allowed (rule D3 — `clippy.toml` lists the thread and lock primitives,
//! and the one `#[expect]` is in [`sweep`]); everything above —
//! `fsoi_cmp::batch`, the `fsoi-bench` runner — expresses sweeps as pure
//! per-cell closures.
//!
//! ```
//! use fsoi_sim::par;
//! let serial: Vec<u64> = par::sweep(100, 1, |i| (i as u64) * 3 + 1);
//! let parallel = par::sweep(100, 8, |i| (i as u64) * 3 + 1);
//! assert_eq!(serial, parallel); // thread count is not observable
//! ```

use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads a sweep should use by default: the
/// documented `FSOI_THREADS` knob when set, else the machine's available
/// parallelism (1 when that cannot be determined).
///
/// Thread count never changes sweep *output* (see [`sweep`]), so reading
/// machine parallelism here does not leak into any exported number.
///
/// # Panics
///
/// Panics when `FSOI_THREADS` is set to something that does not parse as
/// a positive integer — aborting beats silently running a different
/// configuration than the one the caller asked for.
pub fn thread_count() -> usize {
    #[expect(clippy::disallowed_methods, reason = "D2: FSOI_THREADS knob")]
    if let Ok(v) = std::env::var("FSOI_THREADS") {
        match parse_threads(&v) {
            Some(n) => return n,
            #[expect(
                clippy::panic,
                reason = "P1: a set-but-garbage override must not be silently ignored"
            )]
            None => panic!("FSOI_THREADS={v:?} is not a positive integer"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses an `FSOI_THREADS` value: a positive decimal integer.
fn parse_threads(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Derives an independent per-cell seed from a sweep's base seed.
///
/// SplitMix64 is a bijective mix over the full 64-bit space, so distinct
/// cells get well-separated streams even for adjacent indices, and the
/// derivation is position-based — independent of execution order and
/// thread count.
///
/// ```
/// use fsoi_sim::par::derive_seed;
/// assert_eq!(derive_seed(2010, 3), derive_seed(2010, 3));
/// assert_ne!(derive_seed(2010, 3), derive_seed(2010, 4));
/// ```
pub fn derive_seed(base: u64, cell: u64) -> u64 {
    let mut sm = SplitMix64::new(base ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// Runs `f` once per cell index in `0..cells` on up to `threads` worker
/// threads and returns the results **indexed by cell** — a deterministic
/// reduction independent of scheduling, completion order and thread
/// count. `threads <= 1` (or fewer than two cells) runs serially on the
/// caller's thread without spawning.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller after all workers have
/// drained (matching the serial behaviour of the first panicking cell
/// aborting the sweep).
pub fn sweep<R, F>(cells: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(cells.max(1));
    if threads <= 1 || cells <= 1 {
        return (0..cells).map(f).collect();
    }

    // Relaxed suffices: the cursor publishes no data — each result
    // reaches the caller through its worker's `join`.
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    #[expect(
        clippy::disallowed_methods,
        reason = "D3: the sweep executor is the sanctioned home for threads; its reduction is keyed on cell index"
    )]
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..cells).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} executed twice");
        slots[i] = Some(r);
    }
    #[expect(
        clippy::panic,
        reason = "P1: the cursor handed every index 0..cells to exactly one worker"
    )]
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} never executed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn output_is_keyed_on_cell_index_for_any_thread_count() {
        let reference: Vec<u64> = (0..257).map(|i| derive_seed(42, i as u64)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = sweep(257, threads, |i| derive_seed(42, i as u64));
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_cell_sweeps() {
        assert_eq!(sweep(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(sweep(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let n = 100;
        for threads in [1, 2, 8] {
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let _ = sweep(n, threads, |i| counts[i].fetch_add(1, Ordering::SeqCst));
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "threads = {threads}, cell {i}");
            }
        }
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        assert_eq!(sweep(3, 100, |i| i * i), vec![0, 1, 4]);
    }

    #[test]
    fn drained_queues_never_deadlock() {
        // Many tiny sweeps with cheap cells maximize the windows in
        // which every worker runs off the end of the cursor at once; a
        // termination bug shows as a hang rather than a failure.
        for round in 0..200 {
            let n = 1 + (round % 17);
            let got = sweep(n, 8, |i| i);
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "boom at 7")]
    fn cell_panics_propagate() {
        let _ = sweep(16, 4, |i| {
            if i == 7 {
                panic!("boom at 7");
            }
            i
        });
    }

    #[test]
    fn panicking_cell_neither_wedges_nor_corrupts() {
        // A panicking worker holds nothing the others need, so they
        // keep draining the cursor. The sweep must (a) terminate,
        // (b) re-raise the cell's panic rather than return partial
        // output, and (c) leave subsequent sweeps unaffected.
        for round in 0..20 {
            let result = std::panic::catch_unwind(|| {
                sweep(32, 4, |i| {
                    if i == 13 {
                        panic!("poison round {round}");
                    }
                    i * 2
                })
            });
            let payload = result.expect_err("the cell panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic payload is the cell's message");
            assert!(msg.contains("poison round"), "unexpected payload: {msg}");
        }
        // The executor state is per-sweep; a clean sweep right after the
        // panicking ones must produce exact output.
        let clean = sweep(32, 4, |i| i * 2);
        assert_eq!(clean, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("two"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..64).map(|c| derive_seed(2010, c)).collect();
        let b: Vec<u64> = (0..64).map(|c| derive_seed(2010, c)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "no collisions in a small sweep");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "base seed matters");
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "D2: a test's hang guard")]
    fn a_slow_cell_does_not_strand_the_rest() {
        // Cell 0 finishes only after every other cell has run. A static
        // split (cells dealt to workers up front, nothing rebalanced)
        // would leave cell 0's share waiting behind it and time out.
        let n = 64;
        let others_done = AtomicUsize::new(0);
        let got = sweep(n, 2, |i| {
            if i == 0 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while others_done.load(Ordering::SeqCst) < n - 1 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "cells stranded behind the slow one: {} of {} ran",
                        others_done.load(Ordering::SeqCst),
                        n - 1
                    );
                    std::thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }
}
