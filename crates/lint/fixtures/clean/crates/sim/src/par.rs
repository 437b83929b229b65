//! Clean-fixture stand-in for `fsoi_sim::par`: `crates/sim/src/par.rs`
//! is a simulation-library path exempt from rule D3, so threads here
//! must not fire. Never compiled — only lexed.

use std::sync::atomic::{AtomicUsize, Ordering};

pub fn sweep_exempt(cells: usize) -> usize {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut ran = 0;
            while next.fetch_add(1, Ordering::Relaxed) < cells {
                ran += 1;
            }
            ran
        });
        h.join().unwrap_or(0)
    })
}
