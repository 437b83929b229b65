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
use fsoi_sim::det::DetMap;
use fsoi_sim::metrics::Registry;
use fsoi_sim::par;
use fsoi_sim::telemetry::{self, Phase};

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
        let mut sys = {
            let _build = telemetry::span(Phase::Build);
            CmpSystem::new(self.config.clone(), self.app)
        };
        let _sim = telemetry::span(Phase::Sim);
        sys.run(max_cycles)
    }
}

/// Runs every cell on up to `threads` worker threads and returns the
/// reports in cell order — byte-for-byte the same vector a serial loop of
/// [`BatchCell::run_cold`] would produce, for any `threads` (see
/// [`fsoi_sim::par::sweep`]; pinned by `crates/bench/tests/par_merge.rs`).
///
/// Two things keep a cell from paying for what another already did:
///
/// * cells that differ **only by seed** share one unrun template
///   [`CmpSystem`] — the warmed distributed-L2 directories, L1 arrays
///   and memory map are built once — which is then
///   [forked](CmpSystem::fork) per cell inside the sweep (forking an unrun
///   template reproduces cold construction exactly; since the bulk L2
///   warm-up it costs about what a cold build does). Groups with a single
///   member skip the template and build cold, so sweeps with no seed
///   variants pay only the (cheap) grouping pass;
/// * the content-addressed cell cache, when the `FSOI_CACHE` knob enables
///   one, is consulted before forking or constructing; a hit is
///   byte-identical to the run it replaces (see [`CellCache`]).
///
/// The returned [`Registry`] is the harness side of the deterministic
/// observability plane: how the batch was decomposed (`batch/cells`,
/// forked vs cold, group and template counts). It is a pure function of
/// the cell list — never of thread count or cache state — so it is
/// byte-identical across `threads`.
pub fn run_batch(
    cells: &[BatchCell],
    threads: usize,
    max_cycles: u64,
) -> (Vec<RunReport>, Registry) {
    // Group by everything except the seed. The `Debug` rendering covers
    // every field of the config (including the nested network config)
    // and the app, so equal keys imply fork-compatible cells.
    let mut groups: DetMap<String, Vec<usize>> = DetMap::new();
    for (i, cell) in cells.iter().enumerate() {
        let key = format!("{:?}|{:?}", cell.config.clone().with_seed(0), cell.app);
        groups.entry(key).or_default().push(i);
    }
    let mut template_of: Vec<Option<usize>> = vec![None; cells.len()];
    let mut templates: Vec<CmpSystem> = Vec::new();
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let first = &cells[members[0]];
        let template = {
            let _build = telemetry::span(Phase::Build);
            CmpSystem::new(first.config.clone(), first.app)
        };
        templates.push(template);
        for &i in members {
            template_of[i] = Some(templates.len() - 1);
        }
    }
    let forked = template_of.iter().filter(|t| t.is_some()).count() as u64;
    let mut harness = Registry::new();
    harness.inc("batch/cells", &[], cells.len() as u64);
    harness.inc("batch/cells_forked", &[], forked);
    harness.inc("batch/cells_cold", &[], cells.len() as u64 - forked);
    harness.inc("batch/groups", &[], groups.len() as u64);
    harness.inc("batch/templates", &[], templates.len() as u64);
    let cache = CellCache::from_env();
    let reports = par::sweep(cells.len(), threads, |i| {
        let cell = &cells[i];
        let run = || match template_of[i] {
            Some(t) => {
                let mut sys = {
                    let _build = telemetry::span(Phase::Build);
                    templates[t].fork(cell.config.seed)
                };
                let _sim = telemetry::span(Phase::Sim);
                sys.run(max_cycles)
            }
            None => cell.run_cold(max_cycles),
        };
        match &cache {
            Some(cache) => cache.run_or(&cell.config, &cell.app, max_cycles, run),
            None => run(),
        }
    });
    (reports, harness)
}

/// Folds reports into one registry in slice order — the deterministic
/// reduction behind merged sweep exports.
pub fn merge_reports(reports: &[RunReport]) -> Registry {
    let _merge = telemetry::span(Phase::Merge);
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

    /// Three seed variants of the same (config, app) share a template
    /// (forked path) plus one odd cell that stays a singleton (cold path).
    fn forkable_cells() -> Vec<BatchCell> {
        let mut cells = Vec::new();
        let mut app = AppProfile::by_name("mp").expect("suite app");
        app.ops_per_core = 40;
        for seed in [11, 12, 13] {
            let cfg = SystemConfig::paper_16(NetworkKind::fsoi(16)).with_seed(seed);
            cells.push(BatchCell::new(cfg, app));
        }
        cells.extend(tiny_cells().into_iter().take(1));
        cells
    }

    #[test]
    fn parallel_batch_matches_serial_fold() {
        let cells = tiny_cells();
        let serial = run_batch(&cells, 1, 1_000_000).0;
        let serial_bytes = merge_reports(&serial).to_jsonl();
        for threads in [2, 8] {
            let par_reports = run_batch(&cells, threads, 1_000_000).0;
            assert_eq!(
                merge_reports(&par_reports).to_jsonl(),
                serial_bytes,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn forked_batch_matches_cold_batch_bytes() {
        let cells = forkable_cells();
        let cold = cold_bytes(&cells);
        for threads in [1, 2, 8] {
            let forked = run_batch(&cells, threads, 1_000_000).0;
            assert_eq!(
                merge_reports(&forked).to_jsonl(),
                cold,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fork_of_unrun_template_equals_cold_construction() {
        let cell = tiny_cells().remove(0);
        let template = CmpSystem::new(cell.config.clone().with_seed(999), cell.app);
        let forked = template.fork(cell.config.seed).run(1_000_000);
        let cold = cell.run_cold(1_000_000);
        assert_eq!(forked.registry().to_jsonl(), cold.registry().to_jsonl());
        assert_eq!(forked.to_wire(), cold.to_wire());
    }

    #[test]
    #[should_panic(expected = "unrun template")]
    fn fork_of_a_run_system_panics() {
        let cell = tiny_cells().remove(0);
        let mut sys = CmpSystem::new(cell.config, cell.app);
        let _ = sys.run(1_000_000);
        let _ = sys.fork(1);
    }

    #[test]
    fn batch_reports_the_decomposition() {
        let cells = forkable_cells();
        let (reports, harness) = run_batch(&cells, 2, 1_000_000);
        assert_eq!(reports.len(), 4);
        assert_eq!(harness.get("batch/cells"), 4);
        assert_eq!(harness.get("batch/cells_forked"), 3);
        assert_eq!(harness.get("batch/cells_cold"), 1);
        assert_eq!(harness.get("batch/groups"), 2);
        assert_eq!(harness.get("batch/templates"), 1);
        // The decomposition never depends on thread count.
        let (_, serial) = run_batch(&cells, 1, 1_000_000);
        assert_eq!(serial.to_wire(), harness.to_wire());
        // Per-cell sim profiles ride inside the reports.
        assert!(reports[0].profile.get("sim/cycles") > 0);
        assert!(reports[0].profile.get("sim/ticks") > 0);
    }

    #[test]
    fn empty_batch_merges_to_empty_registry() {
        let (reports, _) = run_batch(&[], 8, 1_000);
        assert!(reports.is_empty());
        assert_eq!(merge_reports(&reports).to_jsonl(), "");
    }
}
