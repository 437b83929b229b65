//! The one runner between a figure and its networks: a [`Sweep`] of
//! variant configurations × applications.
//!
//! A subcommand lists the [`SystemConfig`]s it compares (the *variants*:
//! networks, lane widths, BERs, seeds, cache sizes — anything a config can
//! say), picks its applications and an operation count, and reads reports
//! back by `(variant, app)`. The cells run through
//! [`fsoi_cmp::batch::run_batch`] on the deterministic parallel executor
//! (`fsoi_sim::par`), so every experiment gets the cell cache and
//! telemetry spans, and its output is byte-identical to a serial run
//! regardless of `FSOI_THREADS`.

use fsoi_cmp::batch::{self, BatchCell};
use fsoi_cmp::configs::SystemConfig;
use fsoi_cmp::metrics::RunReport;
use fsoi_cmp::workload::AppProfile;
use fsoi_sim::metrics::Registry;

/// Safety bound on run length.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Memory operations per core that keep a full suite sweep to seconds:
/// tuned at the tuned sizes (16, 64 and 256 nodes), and a constant
/// total-operation budget (`≈ 24 000 ops`, the 16-node preset's)
/// everywhere else.
pub fn quick_ops(nodes: usize) -> u64 {
    match nodes {
        16 => 1_500,
        64 => 600,
        256 => 150,
        n => (24_000 / n.max(1) as u64).max(50),
    }
}

/// A run variants × apps sweep.
#[derive(Debug)]
pub struct Sweep {
    variants: usize,
    cells: Vec<BatchCell>,
    reports: Vec<RunReport>,
    profile: Registry,
}

impl Sweep {
    /// Runs every application, at `ops` memory operations per core, on
    /// every variant, on `threads` worker threads. The results are a pure
    /// function of the arguments before `threads`.
    pub fn run(variants: &[SystemConfig], apps: &[AppProfile], ops: u64, threads: usize) -> Sweep {
        let cells: Vec<BatchCell> = apps
            .iter()
            .flat_map(|&app| {
                let app = AppProfile {
                    ops_per_core: ops,
                    ..app
                };
                variants
                    .iter()
                    .map(move |config| BatchCell::new(config.clone(), app))
            })
            .collect();
        let reports = batch::run_batch(&cells, threads, MAX_CYCLES);
        let mut profile = Registry::new();
        for r in &reports {
            profile.merge(&r.profile);
        }
        Sweep {
            variants: variants.len(),
            cells,
            reports,
            profile,
        }
    }

    /// The report of application `app` on variant `variant` (indices into
    /// the lists [`Sweep::run`] was given).
    pub fn at(&self, variant: usize, app: usize) -> &RunReport {
        assert!(variant < self.variants, "variant {variant} out of range");
        &self.reports[app * self.variants + variant]
    }

    /// One variant's reports, one per application in application order.
    pub fn variant(&self, variant: usize) -> impl Iterator<Item = &RunReport> {
        assert!(variant < self.variants, "variant {variant} out of range");
        self.reports.iter().skip(variant).step_by(self.variants)
    }

    /// The cells that ran, app-major (all of the first application's
    /// variants, then the second's, …).
    pub fn cells(&self) -> &[BatchCell] {
        &self.cells
    }

    /// Every report, in [`cells`](Self::cells) order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The sweep's merged deterministic profile: every cell's own
    /// [`RunReport`] `profile` spans (`sim/*`, `coh/dir/*`) —
    /// byte-identical for any thread count, and the deterministic-plane
    /// payload behind `experiments profile`.
    pub fn profile(&self) -> &Registry {
        &self.profile
    }
}
