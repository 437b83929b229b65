//! The three closed-loop CMP workloads: lists of (application, network)
//! cells, each one `CmpSystem` built in set-up and run to completion.

use crate::host::{wall_ns, Meter, Timing};
use crate::trace::Tracer;
use crate::Check;
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::metrics::RunReport;
use fsoi_cmp::system::CmpSystem;
use fsoi_cmp::workload::AppProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Safety bound on a cell's simulated length; `CmpSystem::run` panics
/// past it, which counts the cell as failed.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Every network a `cmp.cell_ms.*` metric names. A traced pass adds the
/// ones a workload lacks, so the split into network vs cores + coherence
/// (`cmp.net_share.*`, measured against `L0`) exists on every workload.
pub const NETWORKS: [&str; 5] = ["fsoi", "mesh", "ring", "crossbar", "L0"];

#[derive(Debug, Clone, Copy)]
pub struct CellWorkload {
    pub nodes: usize,
    /// Application names; empty means the whole `AppProfile::suite()`.
    pub apps: &'static [&'static str],
    pub networks: &'static [&'static str],
    pub ops_per_core: u64,
    pub pins: Pins,
}

/// The output checks a cell workload's reports must pass, beyond each cell
/// completing.
#[derive(Debug, Clone, Copy)]
pub enum Pins {
    None,
    /// The paper's Figure 6/8 shape, and the error against its figures.
    Paper,
    /// The crossbar study's energy pin against the Corona ring.
    CrossbarOverRing,
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub app: AppProfile,
    pub network: &'static str,
    pub config: SystemConfig,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.name, self.network)
    }

    fn mem_ops(&self) -> u64 {
        self.config.nodes as u64 * self.app.ops_per_core
    }
}

fn network_kind(name: &str, nodes: usize) -> NetworkKind {
    match name {
        "fsoi" => NetworkKind::fsoi(nodes),
        "mesh" => NetworkKind::mesh(nodes),
        "ring" => NetworkKind::ring(nodes),
        "crossbar" => NetworkKind::crossbar(nodes),
        "L0" => NetworkKind::L0,
        "Lr1" => NetworkKind::Lr1,
        "Lr2" => NetworkKind::Lr2,
        other => unreachable!("workload tables name only known networks, not {other}"),
    }
}

impl CellWorkload {
    /// The workload's inputs for `seed`, app-major: the paper's Table 3
    /// system at 8.8 GB/s with the §5 optimizations on, every cell seeded
    /// alike so an application issues the same operations on each network.
    pub fn cells(&self, seed: u64) -> Vec<Cell> {
        self.cells_on(seed, self.networks)
    }

    /// The same applications on the networks of [`NETWORKS`] this workload
    /// does not run itself.
    pub fn lacking_cells(&self, seed: u64) -> Vec<Cell> {
        let lacking: Vec<&'static str> = NETWORKS
            .into_iter()
            .filter(|n| !self.networks.contains(n))
            .collect();
        self.cells_on(seed, &lacking)
    }

    /// The workload's pins judged on one pass: the checks, and for
    /// [`Pins::Paper`] the error against the paper in percent.
    pub fn judge(&self, cells: &[Cell], runs: &[CellRun]) -> (Vec<Check>, Option<f64>) {
        match self.pins {
            Pins::None => (Vec::new(), None),
            Pins::Paper => {
                let (checks, err_pct) = paper_checks(cells, runs);
                (checks, Some(err_pct))
            }
            Pins::CrossbarOverRing => (vec![crossbar_energy_check(cells, runs)], None),
        }
    }

    fn cells_on(&self, seed: u64, networks: &[&'static str]) -> Vec<Cell> {
        let apps: Vec<AppProfile> = if self.apps.is_empty() {
            AppProfile::suite()
        } else {
            self.apps
                .iter()
                .map(|a| AppProfile::by_name(a).expect("workload tables name suite apps"))
                .collect()
        };
        let mut cells = Vec::with_capacity(apps.len() * networks.len());
        for mut app in apps {
            app.ops_per_core = self.ops_per_core;
            for &network in networks {
                let config = SystemConfig::paper_n(self.nodes, network_kind(network, self.nodes))
                    .with_mem_bandwidth(8.8)
                    .with_optimizations(true)
                    .with_seed(seed);
                cells.push(Cell {
                    app,
                    network,
                    config,
                });
            }
        }
        cells
    }
}

/// One cell's outcome: `None` when it panicked (including the
/// `MAX_CYCLES` overrun), and the wall time its `run` took.
#[derive(Debug)]
pub struct CellRun {
    pub report: Option<RunReport>,
    pub wall_ns: u64,
}

impl CellRun {
    /// A cell fails if it panicked or reports non-positive cycles, energy
    /// or packets.
    pub fn ok(&self) -> bool {
        self.report.as_ref().is_some_and(|r| {
            r.cycles > 0
                && r.cycles < MAX_CYCLES
                && r.energy.total_j() > 0.0
                && r.packets_sent[0] + r.packets_sent[1] > 0
        })
    }
}

/// One pass over a cell list.
#[derive(Debug)]
pub struct CellPass {
    /// Set-up is generating the cell list and constructing every
    /// `CmpSystem`; host time is `CmpSystem::run` and dropping the system.
    pub timing: Timing,
    /// Wall time of the whole pass, calibration included.
    pub wall_ns: u64,
    pub runs: Vec<CellRun>,
}

/// Builds and runs the cells of `make_cells()` one after another, as a
/// sweep does, so one system is alive at a time.
pub fn serial_pass(
    make_cells: impl FnOnce() -> Vec<Cell>,
    meter: &mut Meter,
    tr: &mut Tracer,
) -> (Vec<Cell>, CellPass) {
    let wall0 = wall_ns();
    meter.start();
    let cells = make_cells();
    let runs = cells
        .iter()
        .map(|cell| {
            let label = cell.label();
            let span = tr.begin("cmp.new", &label);
            let sys = catch_unwind(|| CmpSystem::new(cell.config.clone(), cell.app)).ok();
            tr.end(span);
            meter.setup_done();

            let span = tr.begin("cmp.run", &label);
            let t0 = wall_ns();
            let report =
                sys.and_then(|mut sys| catch_unwind(AssertUnwindSafe(|| sys.run(MAX_CYCLES))).ok());
            let wall_ns = wall_ns() - t0;
            tr.end(span);
            let span = tr.begin("bench.calibrate", "");
            meter.work_done();
            tr.end(span);
            CellRun { report, wall_ns }
        })
        .collect();
    let pass = CellPass {
        timing: meter.timing(),
        wall_ns: wall_ns() - wall0,
        runs,
    };
    (cells, pass)
}

/// The same cells through `fsoi_sim::par::sweep`, each worker building and
/// running its cell; returns the runs and the sweep's wall time.
pub fn parallel_pass(cells: &[Cell], threads: usize, tr: &mut Tracer) -> (Vec<CellRun>, u64) {
    let span = tr.begin(
        "par.sweep",
        &format!("{} cells/{threads} threads", cells.len()),
    );
    let t0 = wall_ns();
    let runs = fsoi_sim::par::sweep(cells.len(), threads, |i| {
        let cell = &cells[i];
        let t0 = wall_ns();
        let report =
            catch_unwind(|| CmpSystem::new(cell.config.clone(), cell.app).run(MAX_CYCLES)).ok();
        CellRun {
            report,
            wall_ns: wall_ns() - t0,
        }
    });
    let wall = wall_ns() - t0;
    tr.end(span);
    (runs, wall)
}

/// FNV-1a over each cell's fixed tuple, in cell order.
pub fn digest(cells: &[Cell], runs: &[CellRun]) -> u64 {
    let mut h = crate::Fnv::default();
    for (cell, run) in cells.iter().zip(runs) {
        h.bytes(cell.app.name.as_bytes());
        h.bytes(cell.network.as_bytes());
        match &run.report {
            None => h.word(u64::MAX),
            Some(r) => {
                for w in [
                    r.cycles,
                    r.packets_sent[0],
                    r.packets_sent[1],
                    r.active_cycles,
                    r.stalled_cycles,
                    r.acks_elided,
                    r.bit_error_drops,
                    r.energy.total_j().to_bits(),
                ] {
                    h.word(w);
                }
            }
        }
    }
    h.finish()
}

fn reports_of<'a>(
    cells: &'a [Cell],
    runs: &'a [CellRun],
    network: &'a str,
) -> impl Iterator<Item = (&'a Cell, &'a RunReport)> {
    cells
        .iter()
        .zip(runs)
        .filter(move |(c, _)| c.network == network)
        .filter_map(|(c, r)| r.report.as_ref().map(|rep| (c, rep)))
}

/// Mean wall ms per cell of `network`, `None` when the pass ran none.
pub fn cell_ms(cells: &[Cell], runs: &[CellRun], network: &str) -> Option<f64> {
    let ns: Vec<u64> = cells
        .iter()
        .zip(runs)
        .filter(|(c, _)| c.network == network)
        .map(|(_, r)| r.wall_ns)
        .collect();
    (!ns.is_empty()).then(|| ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e6)
}

/// Sums over a pass that the `cmp.*` rate and count metrics divide.
#[derive(Debug, Default)]
pub struct Totals {
    pub run_wall_ns: u64,
    pub sim_cycles: u64,
    pub ticks: u64,
    pub events: u64,
    pub ff_skipped: u64,
    pub packets: u64,
    pub mem_ops: u64,
    pub active_cycles: u64,
    pub stalled_cycles: u64,
    pub l1_miss_rate_sum: f64,
    pub reports: u64,
}

pub fn totals(cells: &[Cell], runs: &[CellRun]) -> Totals {
    let mut t = Totals::default();
    for (cell, run) in cells.iter().zip(runs) {
        t.run_wall_ns += run.wall_ns;
        t.mem_ops += cell.mem_ops();
        let Some(r) = &run.report else { continue };
        t.sim_cycles += r.cycles;
        t.ticks += r.profile.get("sim/ticks");
        t.events += r.profile.get("sim/events");
        t.ff_skipped += r.profile.get("sim/ff/cycles_skipped");
        t.packets += r.packets_sent[0] + r.packets_sent[1];
        t.active_cycles += r.active_cycles;
        t.stalled_cycles += r.stalled_cycles;
        t.l1_miss_rate_sum += r.l1_miss_rate;
        t.reports += 1;
    }
    t
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

/// The paper's Figure 6 geomean speedups over the mesh and its Figure 8
/// mean FSOI/mesh chip-energy ratio (EXPERIMENTS.md).
const PAPER_SPEEDUPS: [(&str, f64); 4] =
    [("fsoi", 1.36), ("L0", 1.43), ("Lr1", 1.32), ("Lr2", 1.22)];
const PAPER_ENERGY_RATIO: f64 = 0.594;

/// `paper16`'s comparison against the paper: the shape pins, and the mean
/// absolute relative error of the five figures in percent.
fn paper_checks(cells: &[Cell], runs: &[CellRun]) -> (Vec<Check>, f64) {
    // (cycles, chip energy) per application, in suite order.
    let by_app = |network: &str| -> Vec<(u64, f64)> {
        reports_of(cells, runs, network)
            .map(|(_, r)| (r.cycles, r.energy.total_j()))
            .collect()
    };
    let mesh = by_app("mesh");
    let speedup = |network: &str| {
        let net = by_app(network);
        geomean(
            mesh.iter()
                .zip(&net)
                .map(|(m, x)| m.0 as f64 / x.0.max(1) as f64),
        )
    };
    let measured: Vec<f64> = PAPER_SPEEDUPS.iter().map(|(n, _)| speedup(n)).collect();
    let fsoi = by_app("fsoi");
    let ratios: Vec<f64> = mesh.iter().zip(&fsoi).map(|(m, f)| f.1 / m.1).collect();
    let energy_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;

    let mut err = (energy_ratio - PAPER_ENERGY_RATIO).abs() / PAPER_ENERGY_RATIO;
    for ((_, paper), got) in PAPER_SPEEDUPS.iter().zip(&measured) {
        err += (got - paper).abs() / paper;
    }
    let err_pct = 100.0 * err / (PAPER_SPEEDUPS.len() + 1) as f64;

    let (s_fsoi, s_l0, s_lr1, s_lr2) = (measured[0], measured[1], measured[2], measured[3]);
    let checks = vec![
        Check {
            name: "paper16.speedup_order",
            ok: s_l0 >= s_fsoi && s_fsoi >= s_lr1 && s_lr1 >= s_lr2 && s_lr2 > 1.0,
            detail: format!(
                "geomean speedup over mesh: L0 {s_l0:.3} >= fsoi {s_fsoi:.3} >= Lr1 {s_lr1:.3} >= Lr2 {s_lr2:.3} > 1"
            ),
        },
        Check {
            name: "paper16.fsoi_energy_below_mesh",
            ok: mesh.len() == fsoi.len() && ratios.iter().all(|r| *r < 1.0),
            detail: format!("mean fsoi/mesh chip energy {energy_ratio:.3}"),
        },
    ];
    (checks, err_pct)
}

/// `scale256`'s pin from the crossbar study: on `mp`, the worst-case-loss
/// crossbar's network energy exceeds 100x the Corona ring's.
fn crossbar_energy_check(cells: &[Cell], runs: &[CellRun]) -> Check {
    let network_j = |network: &str| {
        reports_of(cells, runs, network)
            .find(|(c, _)| c.app.name == "mp")
            .map(|(_, r)| r.energy.network_j)
    };
    let (xbar, ring) = (network_j("crossbar"), network_j("ring"));
    Check {
        name: "scale256.crossbar_energy_over_100x_ring",
        ok: matches!((xbar, ring), (Some(x), Some(r)) if x > 100.0 * r),
        detail: format!("mp network_j: crossbar {xbar:?} ring {ring:?}"),
    }
}
