//! Wall-clock harness telemetry — the explicitly **nondeterministic**
//! plane of the harness observability subsystem.
//!
//! A [`crate::metrics::Registry`] holds what the *simulation* did
//! (deterministic, byte-identical across thread counts); this module
//! observes what the *host* did while running it: per-worker cell counts
//! and busy durations, per-phase wall time, and cell-cache
//! hit/miss/tamper/corrupt outcomes. None of these numbers are
//! reproducible — they depend on scheduling, load and cache state — so
//! they are excluded from every byte-identity gate and are reported in
//! a clearly separated `telemetry` section of the run manifest.
//!
//! This module is the **only** simulation-library code allowed to read
//! the wall clock (rule D2: each `Instant` below carries its own
//! `#[expect]`, the way `par.rs` does for threads). Everything else emits
//! through the functions here, which are no-ops — no clock read, one
//! relaxed atomic load — until [`set_enabled`] turns collection on (the
//! `experiments profile` subcommand does). Cache outcome
//! counters are the exception: they are plain relaxed counters with no
//! clock involvement and stay on unconditionally so corruption events
//! are never silently dropped.
//!
//! State is a fixed set of process-wide atomics (no locks — rule D3
//! still applies here): per-worker `[AtomicU64; MAX_WORKERS]` arrays
//! indexed by worker id (clamped), phase buckets, and cache counters.
//! [`snapshot`] copies them into a plain [`Snapshot`] for rendering.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[expect(clippy::disallowed_types, reason = "D2: the wall-clock plane")]
use std::time::Instant;

/// Workers tracked individually; higher worker ids clamp into the last
/// slot (sweeps beyond 64 threads are aggregated, not lost).
pub const MAX_WORKERS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

static CELLS: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];
static BUSY_NS: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];

static PHASE_NS: [AtomicU64; Phase::COUNT] = [const { AtomicU64::new(0) }; Phase::COUNT];

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_TAMPER: AtomicU64 = AtomicU64::new(0);
static CACHE_CORRUPT: AtomicU64 = AtomicU64::new(0);

/// A wall-clock phase bucket for [`span`] timings.
///
/// `Build`/`Warmup`/`Sim`/`Merge` partition a cell's lifecycle; the
/// `Sim*` buckets break the simulation loop down further (network
/// advance vs protocol/memory event processing vs core stepping — the
/// interconnect/coherence/memory split of the tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Cell construction (config + app → system).
    Build,
    /// Seed-independent pre-timing warmup (distributed-L2 preload).
    Warmup,
    /// The simulation loop proper (tick + fast-forward).
    Sim,
    /// Merging per-cell reports into one registry.
    Merge,
    /// Within `Sim`: interconnect tick plus delivery drain.
    SimNet,
    /// Within `Sim`: pending coherence/memory event processing.
    SimEvents,
    /// Within `Sim`: core stepping and per-cycle accounting.
    SimCores,
}

impl Phase {
    /// Number of phase buckets.
    pub const COUNT: usize = 7;

    const ALL: [Phase; Phase::COUNT] = [
        Phase::Build,
        Phase::Warmup,
        Phase::Sim,
        Phase::Merge,
        Phase::SimNet,
        Phase::SimEvents,
        Phase::SimCores,
    ];

    /// Stable lowercase name used in reports and the run manifest.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Warmup => "warmup",
            Phase::Sim => "sim",
            Phase::Merge => "merge",
            Phase::SimNet => "sim_net",
            Phase::SimEvents => "sim_events",
            Phase::SimCores => "sim_cores",
        }
    }
}

/// Whether telemetry collection is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zeroes every counter and duration (collection stays on/off as-is).
pub fn reset() {
    for arr in [&CELLS, &BUSY_NS] {
        for a in arr.iter() {
            a.store(0, Ordering::Relaxed);
        }
    }
    for a in PHASE_NS.iter() {
        a.store(0, Ordering::Relaxed);
    }
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
    CACHE_TAMPER.store(0, Ordering::Relaxed);
    CACHE_CORRUPT.store(0, Ordering::Relaxed);
}

fn slot(worker: usize) -> usize {
    worker.min(MAX_WORKERS - 1)
}

/// Records `n` cells executed by the worker.
pub fn worker_cells(worker: usize, n: u64) {
    if enabled() {
        CELLS[slot(worker)].fetch_add(n, Ordering::Relaxed);
    }
}

/// Records a cell-cache hit. Cache counters are always on (see module
/// docs); they involve no clock read.
pub fn cache_hit() {
    CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records a cell-cache miss (entry absent).
pub fn cache_miss() {
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records a cache entry rejected by the preimage check (tampered,
/// stale format, or a hash collision) — degraded to a miss.
pub fn cache_tamper() {
    CACHE_TAMPER.fetch_add(1, Ordering::Relaxed);
}

/// Records a cache entry whose payload failed to parse (corrupt wire
/// bytes) — degraded to a miss.
pub fn cache_corrupt() {
    CACHE_CORRUPT.fetch_add(1, Ordering::Relaxed);
}

/// A drop guard adding elapsed wall time into a bucket. When telemetry
/// is disabled the guard is inert and **no clock is read** — the cost
/// is one relaxed atomic load.
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "D2: a span's start stamp")]
pub struct WallSpan {
    // (bucket, start); None when telemetry was off at creation.
    armed: Option<(&'static AtomicU64, Instant)>,
}

impl WallSpan {
    #[expect(clippy::disallowed_types, reason = "D2: the one clock read")]
    fn new(bucket: &'static AtomicU64) -> WallSpan {
        WallSpan {
            armed: enabled().then(|| (bucket, Instant::now())),
        }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some((bucket, at)) = self.armed.take() {
            bucket.fetch_add(at.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Times a lifecycle phase until the returned guard drops.
pub fn span(phase: Phase) -> WallSpan {
    WallSpan::new(&PHASE_NS[phase as usize])
}

/// Times a worker's busy period (executing cells) until the guard drops.
pub fn worker_busy(worker: usize) -> WallSpan {
    WallSpan::new(&BUSY_NS[slot(worker)])
}

/// One worker's executor counters, copied out of the atomics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (clamped to [`MAX_WORKERS`] − 1).
    pub worker: usize,
    /// Cells executed.
    pub cells: u64,
    /// Nanoseconds spent executing cells.
    pub busy_ns: u64,
}

/// Cell-cache outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Intact entries returned without rerunning.
    pub hits: u64,
    /// Entries absent from the cache.
    pub misses: u64,
    /// Entries rejected by the preimage check (tamper/stale/collision).
    pub tamper: u64,
    /// Entries whose payload failed to parse.
    pub corrupt: u64,
}

/// The cache outcome counters right now (always collected).
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        tamper: CACHE_TAMPER.load(Ordering::Relaxed),
        corrupt: CACHE_CORRUPT.load(Ordering::Relaxed),
    }
}

/// A point-in-time copy of every telemetry counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Workers with at least one nonzero counter, in index order.
    pub workers: Vec<WorkerStats>,
    /// Wall nanoseconds per [`Phase`], indexed by discriminant.
    pub phase_ns: [u64; Phase::COUNT],
    /// Cell-cache outcome counters.
    pub cache: CacheStats,
}

/// Copies the current telemetry state (workers with no activity are
/// omitted).
pub fn snapshot() -> Snapshot {
    let mut workers = Vec::new();
    for w in 0..MAX_WORKERS {
        let ws = WorkerStats {
            worker: w,
            cells: CELLS[w].load(Ordering::Relaxed),
            busy_ns: BUSY_NS[w].load(Ordering::Relaxed),
        };
        let active = WorkerStats {
            worker: w,
            ..WorkerStats::default()
        } != ws;
        if active {
            workers.push(ws);
        }
    }
    let mut phase_ns = [0u64; Phase::COUNT];
    for (i, b) in PHASE_NS.iter().enumerate() {
        phase_ns[i] = b.load(Ordering::Relaxed);
    }
    Snapshot {
        workers,
        phase_ns,
        cache: cache_stats(),
    }
}

impl Snapshot {
    /// Renders the snapshot as a JSON object; every line after the
    /// first is prefixed with `prefix` so callers can embed it at any
    /// indentation inside a larger document.
    pub fn to_json(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(out, "{prefix}  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{prefix}    {{\"worker\": {}, \"cells\": {}, \"busy_ns\": {}}}",
                w.worker, w.cells, w.busy_ns
            );
        }
        if self.workers.is_empty() {
            out.push_str("],\n");
        } else {
            let _ = write!(out, "\n{prefix}  ],\n");
        }
        let _ = write!(out, "{prefix}  \"phase_ns\": {{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", p.name(), self.phase_ns[*p as usize]);
        }
        out.push_str("},\n");
        let _ = writeln!(
            out,
            "{prefix}  \"cache\": {{\"hits\": {}, \"misses\": {}, \"tamper\": {}, \
             \"corrupt\": {}}}",
            self.cache.hits, self.cache.misses, self.cache.tamper, self.cache.corrupt
        );
        let _ = write!(out, "{prefix}}}");
        out
    }

    /// Renders the snapshot as a human-readable report: a per-worker
    /// table plus a `#`-bar phase breakdown.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "telemetry (wall-clock plane — nondeterministic)");
        let _ = writeln!(out, "{:>6}  {:>6}  {:>10}", "worker", "cells", "busy_ms");
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{:>6}  {:>6}  {:>10.3}",
                w.worker,
                w.cells,
                w.busy_ns as f64 / 1e6
            );
        }
        if self.workers.is_empty() {
            let _ = writeln!(out, "  (no executor activity recorded)");
        }
        let max_ns = self.phase_ns.iter().copied().max().unwrap_or(0).max(1);
        let _ = writeln!(out, "{:>10}  {:>12}  bar", "phase", "ms");
        for p in Phase::ALL {
            let ns = self.phase_ns[p as usize];
            let bar = "#".repeat(((ns as u128 * 40) / max_ns as u128) as usize);
            let _ = writeln!(out, "{:>10}  {:>12.3}  {bar}", p.name(), ns as f64 / 1e6);
        }
        let _ = writeln!(
            out,
            "cache: hits={} misses={} tamper={} corrupt={}",
            self.cache.hits, self.cache.misses, self.cache.tamper, self.cache.corrupt
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test owns all global-state mutation: sim-crate unit
    // tests run concurrently in this process, and splitting the
    // scenarios across #[test] fns would race on the shared atomics.
    #[test]
    fn counters_spans_and_snapshot_lifecycle() {
        reset();
        assert!(!enabled(), "collection starts off");

        // Disabled: worker counters are no-ops, cache counters are not.
        worker_cells(0, 1);
        let before = cache_stats();
        cache_hit();
        cache_tamper();
        let after = cache_stats();
        assert_eq!(after.hits, before.hits + 1, "cache counters are always on");
        assert_eq!(after.tamper, before.tamper + 1);
        assert!(snapshot().workers.is_empty(), "disabled counters stay zero");

        set_enabled(true);
        worker_cells(0, 3);
        worker_cells(MAX_WORKERS + 5, 1); // clamps into the last slot
        {
            let _b = span(Phase::Build);
            let _w = worker_busy(0);
        }
        set_enabled(false);

        let snap = snapshot();
        let w0 = snap
            .workers
            .iter()
            .find(|w| w.worker == 0)
            .expect("worker 0");
        // ">=" because other tests may sweep while collection was on.
        assert!(w0.cells >= 3);
        let last = snap
            .workers
            .iter()
            .find(|w| w.worker == MAX_WORKERS - 1)
            .expect("clamped slot");
        assert!(last.cells >= 1, "out-of-range worker clamps, not drops");

        let json = snap.to_json("  ");
        assert!(json.contains("\"workers\": ["), "{json}");
        assert!(json.contains("{\"worker\": 0, \"cells\": "), "{json}");
        assert!(json.contains("\"phase_ns\": {\"build\":"), "{json}");
        assert!(json.contains("\"cache\": {\"hits\":"), "{json}");
        let table = snap.to_table();
        assert!(table.contains("worker"), "{table}");
        assert!(table.contains("cache: hits="), "{table}");
        assert!(table.contains('#'), "phase bars render: {table}");

        // Disabled again: spans read no clock and add nothing.
        let busy_before = snapshot().workers.iter().map(|w| w.busy_ns).sum::<u64>();
        drop(worker_busy(0));
        let busy_after = snapshot().workers.iter().map(|w| w.busy_ns).sum::<u64>();
        assert_eq!(busy_before, busy_after);

        reset();
        assert_eq!(cache_stats(), CacheStats::default(), "reset zeroes cache");
    }

    #[test]
    fn phase_names_are_distinct_and_stable() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT, "phase names must be unique");
        assert_eq!(Phase::Sim.name(), "sim");
        assert_eq!(Phase::SimNet.name(), "sim_net");
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Snapshot::default();
        assert!(snap.workers.is_empty());
        assert!(snap.to_json("").contains("\"workers\": []"));
        assert!(snap.to_table().contains("no executor activity"));
    }
}
