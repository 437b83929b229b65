//! The batch entry point: run many (config, app) cells through the
//! deterministic parallel executor and merge their reports.
//!
//! A sweep *cell* is one fully-specified simulation: a [`SystemConfig`]
//! (which carries the network kind and the run seed) plus an
//! [`AppProfile`]. Cells share nothing — each runs in its own
//! [`CmpSystem`], whose RNG streams derive from the cell's own `cfg.seed`
//! and whose statistics live in per-run state — so they can execute on
//! any number of threads.
//!
//! Determinism is preserved end-to-end:
//!
//! 1. [`fsoi_sim::par::sweep`] returns reports **indexed by cell**, not
//!    by completion order;
//! 2. [`merge_reports`] folds `RunReport::export` into one
//!    [`Registry`] in that same index order;
//! 3. `Registry` itself renders in sorted key order.
//!
//! The merged JSONL/table bytes are therefore identical to a serial
//! fold for any thread count (property-tested in
//! `crates/bench/tests/par_merge.rs`).

use crate::cache::CellCache;
use crate::configs::SystemConfig;
use crate::metrics::RunReport;
use crate::system::CmpSystem;
use crate::workload::AppProfile;
use fsoi_sim::metrics::Registry;
use fsoi_sim::par;

/// One sweep cell: a complete system configuration plus a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCell {
    /// Full system configuration (network, seed, bandwidth, opts).
    pub config: SystemConfig,
    /// The application to run (with `ops_per_core` already set).
    pub app: AppProfile,
}

impl BatchCell {
    /// Builds a cell.
    pub fn new(config: SystemConfig, app: AppProfile) -> Self {
        BatchCell { config, app }
    }

    /// Runs this cell unconditionally — fresh system, no cache: the cold
    /// reference [`run_batch`] and the cell cache are pinned against.
    pub fn run_cold(&self, max_cycles: u64) -> RunReport {
        CmpSystem::new(self.config.clone(), self.app).run(max_cycles)
    }
}

/// Runs every cell on up to `threads` worker threads and returns the
/// reports in cell order — byte-for-byte the same vector a serial loop of
/// [`BatchCell::run_cold`] would produce, for any `threads` (see
/// [`fsoi_sim::par::sweep`]; pinned by `crates/bench/tests/par_merge.rs`).
///
/// Every cell is built cold. The content-addressed cell cache, when the
/// `FSOI_CACHE` knob enables one, is consulted first; a hit is
/// byte-identical to the run it replaces (see [`CellCache`]).
pub fn run_batch(cells: &[BatchCell], threads: usize, max_cycles: u64) -> Vec<RunReport> {
    let cache = CellCache::from_env();
    par::sweep(cells.len(), threads, |i| {
        let cell = &cells[i];
        match &cache {
            Some(cache) => cache.run_or(&cell.config, &cell.app, max_cycles, || {
                cell.run_cold(max_cycles)
            }),
            None => cell.run_cold(max_cycles),
        }
    })
}

/// Folds reports into one registry in slice order — the deterministic
/// reduction behind merged sweep exports.
pub fn merge_reports(reports: &[RunReport]) -> Registry {
    let mut reg = Registry::new();
    for r in reports {
        r.export(&mut reg);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::NetworkKind;

    fn tiny_cells() -> Vec<BatchCell> {
        let mut cells = Vec::new();
        for (ci, name) in ["tsp", "mp", "fft"].iter().enumerate() {
            let mut app = AppProfile::by_name(name).expect("suite app");
            app.ops_per_core = 40;
            let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16))
                .with_seed(2010 + par::derive_seed(2010, ci as u64) % 1000);
            cells.push(BatchCell::new(cfg, app));
        }
        cells
    }

    fn cold_bytes(cells: &[BatchCell]) -> String {
        let cold: Vec<RunReport> = cells.iter().map(|c| c.run_cold(1_000_000)).collect();
        merge_reports(&cold).to_jsonl()
    }

    #[test]
    fn parallel_batch_matches_the_cold_serial_fold() {
        let cells = tiny_cells();
        let cold = cold_bytes(&cells);
        for threads in [1, 2, 8] {
            let reports = run_batch(&cells, threads, 1_000_000);
            assert_eq!(
                merge_reports(&reports).to_jsonl(),
                cold,
                "threads = {threads}"
            );
            // Per-cell sim profiles ride inside the reports.
            assert!(reports[0].profile.get("sim/cycles") > 0);
            assert!(reports[0].profile.get("sim/ticks") > 0);
        }
    }

    /// `fork` is a cold build at another seed — also where weak scaling
    /// changes the profile (past 16 nodes), so a fork that rescaled an
    /// already-scaled profile would show.
    #[test]
    fn fork_equals_cold_construction() {
        let mut app = AppProfile::by_name("mp").expect("suite app");
        app.ops_per_core = 40;
        for nodes in [16, 64] {
            let kind = NetworkKind::by_name("fsoi", nodes).expect("a network name");
            let cell = BatchCell::new(SystemConfig::paper_n(nodes, kind).with_seed(2010), app);
            let scaled = app.weak_scaled(nodes).expect("a valid profile");
            assert_eq!(scaled == app, nodes == 16, "{nodes} nodes");
            let other_seed = CmpSystem::new(cell.config.clone().with_seed(999), cell.app);
            let forked = other_seed.fork(cell.config.seed).run(1_000_000);
            let cold = cell.run_cold(1_000_000);
            assert_eq!(forked.to_wire(), cold.to_wire(), "{nodes} nodes");
        }
    }

    #[test]
    fn empty_batch_merges_to_empty_registry() {
        let reports = run_batch(&[], 8, 1_000);
        assert!(reports.is_empty());
        assert_eq!(merge_reports(&reports).to_jsonl(), "");
    }
}
