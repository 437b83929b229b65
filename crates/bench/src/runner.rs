//! Shared run helpers: execute an application on a network configuration
//! and collect the paper's metrics.
//!
//! All sweeps express their work as a flat list of [`CellSpec`]s — one
//! isolated (app, network, options) simulation each — and execute it
//! through `fsoi_cmp::batch` on the deterministic parallel executor
//! (`fsoi_sim::par`). Results come back indexed by cell, so every
//! experiment's output is byte-identical to a serial run regardless of
//! `FSOI_THREADS`.

use fsoi_cmp::batch::{self, BatchCell};
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::metrics::RunReport;
use fsoi_cmp::workload::AppProfile;
use fsoi_sim::par;
use fsoi_sim::profile::Profile;

/// Safety bound on run length.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Options for a sweep over the application suite.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Node count (16/64 for the paper's systems; any count up to the
    /// `NodeMask` capacity for the beyond-the-paper grids).
    pub nodes: usize,
    /// Memory operations per core (scales run time).
    pub ops_per_core: u64,
    /// Aggregate memory bandwidth, GB/s.
    pub mem_gb_per_s: f64,
    /// §5.1/§5.2 optimizations on.
    pub optimizations: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SweepOptions {
    /// The paper's 16-node setting with a workload size that keeps a full
    /// suite sweep to seconds.
    pub fn quick_16() -> Self {
        SweepOptions {
            nodes: 16,
            ops_per_core: 1_500,
            mem_gb_per_s: 8.8,
            optimizations: true,
            seed: 2010,
        }
    }

    /// 64-node setting (smaller per-core workload: 4× the cores).
    pub fn quick_64() -> Self {
        SweepOptions {
            nodes: 64,
            ops_per_core: 600,
            ..Self::quick_16()
        }
    }

    /// 256-node setting for the beyond-the-paper design-space grids
    /// (per-core workload scaled down again: 16× the paper's cores).
    pub fn quick_256() -> Self {
        SweepOptions {
            nodes: 256,
            ops_per_core: 150,
            ..Self::quick_16()
        }
    }

    /// The quick preset for an arbitrary node count: the tuned presets at
    /// the tuned sizes, and a constant total-operation budget
    /// (`≈ 24 000 ops`, the 16-node preset's) everywhere else, so a sweep
    /// at any size stays seconds-scale.
    pub fn for_nodes(nodes: usize) -> Self {
        match nodes {
            16 => Self::quick_16(),
            64 => Self::quick_64(),
            256 => Self::quick_256(),
            n => SweepOptions {
                nodes: n,
                ops_per_core: (24_000 / n.max(1) as u64).max(50),
                ..Self::quick_16()
            },
        }
    }
}

/// One application's results across network configurations.
#[derive(Debug)]
pub struct AppResult {
    /// Application name.
    pub app: String,
    /// Reports keyed in the order of `networks` passed to [`sweep_apps`].
    pub reports: Vec<RunReport>,
}

/// Builds the network kind for a name at a node count; `None` for a
/// name that is not a network (the CLI's input check).
pub fn network_by_name(name: &str, nodes: usize) -> Option<NetworkKind> {
    Some(match name {
        "fsoi" => NetworkKind::fsoi(nodes),
        "mesh" => NetworkKind::mesh(nodes),
        "ring" => NetworkKind::ring(nodes),
        "crossbar" => NetworkKind::crossbar(nodes),
        "L0" => NetworkKind::L0,
        "Lr1" => NetworkKind::Lr1,
        "Lr2" => NetworkKind::Lr2,
        _ => return None,
    })
}

/// The system configuration for one sweep cell. Every code path —
/// serial or parallel — builds configs through this single function, so
/// a parallel cell can never drift from what the serial loop ran.
pub fn cell_config(network: NetworkKind, opts: SweepOptions) -> SystemConfig {
    SystemConfig::paper_n(opts.nodes, network)
        .with_mem_bandwidth(opts.mem_gb_per_s)
        .with_optimizations(opts.optimizations)
        .with_seed(opts.seed)
}

/// One sweep cell: an application on a network under sweep options.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The application profile (its `ops_per_core` is taken from `opts`).
    pub app: AppProfile,
    /// The interconnect under test.
    pub network: NetworkKind,
    /// Shared sweep options (node count, seed, bandwidth, opts).
    pub opts: SweepOptions,
}

impl CellSpec {
    /// Builds a cell for a named network.
    ///
    /// # Panics
    ///
    /// Panics on a name [`network_by_name`] does not know; callers
    /// holding user input check it there first.
    pub fn new(app: AppProfile, network_name: &str, opts: SweepOptions) -> Self {
        let network = network_by_name(network_name, opts.nodes)
            .unwrap_or_else(|| panic!("unknown network {network_name}"));
        CellSpec { app, network, opts }
    }

    /// Lowers to the isolated batch cell this spec describes.
    pub fn to_batch_cell(&self) -> BatchCell {
        let mut app = self.app;
        app.ops_per_core = self.opts.ops_per_core;
        BatchCell::new(cell_config(self.network.clone(), self.opts), app)
    }
}

/// Runs cells on `threads` worker threads; reports come back in cell
/// order, byte-identical to a serial run for any thread count.
///
/// Goes through [`batch::run_batch_forked`], so cells differing only by
/// seed (seed-stability studies, per-seed figure replicas) share one
/// warmed template system instead of each paying construction and
/// directory preload; sweeps without seed variants behave exactly like
/// [`batch::run_batch`].
pub fn run_cells_threads(cells: &[CellSpec], threads: usize) -> Vec<RunReport> {
    run_cells_threads_profiled(cells, threads).0
}

/// [`run_cells_threads`] plus the sweep's merged deterministic profile:
/// the batch-decomposition counters from
/// [`batch::run_batch_forked_profiled`] merged with every cell's own
/// [`RunReport`] `profile` spans. The result is a pure function of the
/// cell list — byte-identical for any `threads` — and is the
/// deterministic-plane payload behind `experiments profile`.
pub fn run_cells_threads_profiled(cells: &[CellSpec], threads: usize) -> (Vec<RunReport>, Profile) {
    let batch: Vec<BatchCell> = cells.iter().map(CellSpec::to_batch_cell).collect();
    let (reports, mut profile) = batch::run_batch_forked_profiled(&batch, threads, MAX_CYCLES);
    for r in &reports {
        profile.merge(&r.profile);
    }
    (reports, profile)
}

/// [`run_cells_threads`] with the default thread count (`FSOI_THREADS`
/// knob, else available parallelism).
pub fn run_cells(cells: &[CellSpec]) -> Vec<RunReport> {
    run_cells_threads(cells, par::thread_count())
}

/// The full application suite × the named networks as a flat cell list,
/// ordered app-major (all of app 0's networks, then app 1's, …).
pub fn suite_cells(networks: &[&str], opts: SweepOptions) -> Vec<CellSpec> {
    AppProfile::suite()
        .into_iter()
        .flat_map(|app| {
            networks
                .iter()
                .map(move |n| CellSpec::new(app, n, opts))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Regroups a flat app-major report vector (as produced by running
/// [`suite_cells`]) back into per-application results.
pub fn group_reports(reports: Vec<RunReport>, networks_len: usize) -> Vec<AppResult> {
    assert!(networks_len > 0, "at least one network per app");
    assert!(
        reports.len().is_multiple_of(networks_len),
        "reports must tile into per-app rows"
    );
    let apps = AppProfile::suite();
    let mut out = Vec::new();
    for (row, chunk) in reports.chunks(networks_len).enumerate() {
        out.push(AppResult {
            app: apps[row].name.to_string(),
            reports: chunk.to_vec(),
        });
    }
    out
}

/// Runs the full application suite over the named networks, in parallel
/// on the default thread count.
pub fn sweep_apps(networks: &[&str], opts: SweepOptions) -> Vec<AppResult> {
    let reports = run_cells(&suite_cells(networks, opts));
    group_reports(reports, networks.len())
}
