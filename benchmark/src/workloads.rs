//! The four workloads and the two kinds of run: untraced (end-to-end
//! metrics from timed serial passes) and traced (per-layer metrics from
//! one reference pass, one traced pass, one parallel pass and the probes).

use crate::cells::{self, Cell, CellPass, CellRun, CellWorkload, Pins, NETWORKS};
use crate::host::{peak_rss_mb, wall_ns, CpuClock, Meter, Summary, Timing};
use crate::json::{obj, Value};
use crate::net::{drive, DriveStats, Run};
use crate::probes;
use crate::trace::Tracer;
use crate::{Check, Fnv, Metrics, Size, END_TO_END, OUT_DIR, PER_LAYER};
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::interconnect::Interconnect;
use std::path::Path;

/// Timed serial passes a full-size untraced run makes at least; a smoke
/// run makes one (its traced run still compares three passes' digests).
const MIN_PASSES: usize = 3;

/// Replays of the storm segment per pass.
const STORM_REPLAYS: u64 = 30;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Cells(CellWorkload),
    /// The FSOI network alone under the storm traffic of
    /// [`probes::storm_traffic`].
    Storm,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper16",
        kind: Kind::Cells(CellWorkload {
            nodes: 16,
            apps: &[],
            networks: &["fsoi", "mesh", "L0", "Lr1", "Lr2"],
            ops_per_core: 6_000,
            pins: Pins::Paper,
        }),
    },
    Workload {
        name: "baselines64",
        kind: Kind::Cells(CellWorkload {
            nodes: 64,
            apps: &["oc", "mp", "fft", "ba", "ws", "tsp"],
            networks: &["mesh", "ring", "crossbar"],
            ops_per_core: 2_000,
            pins: Pins::None,
        }),
    },
    Workload {
        name: "fsoi_storm",
        kind: Kind::Storm,
    },
    Workload {
        name: "scale256",
        kind: Kind::Cells(CellWorkload {
            nodes: 256,
            apps: &["mp", "oc", "tsp"],
            networks: &["fsoi", "mesh", "ring", "crossbar"],
            ops_per_core: 150,
            pins: Pins::CrossbarOverRing,
        }),
    },
];

/// The cells a traced `fsoi_storm` run measures the `cmp.*` split on, as
/// the workload has none of its own: `baselines64`'s first application on
/// all five networks.
const STORM_SPLIT_CELLS: CellWorkload = CellWorkload {
    nodes: 64,
    apps: &["oc"],
    networks: &NETWORKS,
    ops_per_core: 2_000,
    pins: Pins::None,
};

impl CellWorkload {
    /// `--smoke`: 1/20 of the operations and, past 16 nodes, where
    /// construction dominates, only the first application.
    fn sized(mut self, size: Size) -> CellWorkload {
        self.ops_per_core = size.scaled(self.ops_per_core);
        if size == Size::Smoke && self.nodes > 16 && !self.apps.is_empty() {
            self.apps = &self.apps[..1];
        }
        self
    }
}

/// What one pass leaves for the run to judge and report.
#[derive(Debug)]
struct PassOutcome {
    timing: Timing,
    wall_ns: u64,
    digest: u64,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    /// `paper16` only: error against the paper's figures, percent.
    paper_err_pct: Option<f64>,
}

fn failed_cells(runs: &[CellRun]) -> u64 {
    runs.iter().filter(|r| !r.ok()).count() as u64
}

fn judge_cells(cw: &CellWorkload, cells: &[Cell], pass: &CellPass) -> PassOutcome {
    let (checks, paper_err_pct) = cw.judge(cells, &pass.runs);
    PassOutcome {
        timing: pass.timing,
        wall_ns: pass.wall_ns,
        digest: cells::digest(cells, &pass.runs),
        attempted: pass.runs.len() as u64,
        failed: failed_cells(&pass.runs),
        checks,
        paper_err_pct,
    }
}

/// One storm pass and what the `core.*` metrics need from it.
struct StormPass {
    outcome: PassOutcome,
    stats: DriveStats,
    net: Box<dyn Interconnect>,
    drive_wall_ns: u64,
}

/// One storm pass: set-up generates the segment and builds the network;
/// the drive replays it and drains.
fn storm_pass(seed: u64, size: Size, meter: &mut Meter, tr: &mut Tracer) -> StormPass {
    let wall0 = wall_ns();
    meter.start();
    let span = tr.begin("net.setup", "");
    let traffic = probes::storm_traffic(size);
    let schedule = traffic.generate(seed);
    let mut net = SystemConfig::paper_n(traffic.nodes, NetworkKind::fsoi(traffic.nodes))
        .with_seed(seed)
        .build_network();
    tr.end(span);
    meter.setup_done();
    let total = traffic.cycles * STORM_REPLAYS;
    let limit = total + total / 50; // drained within 1.02x the schedule
    let run = Run {
        schedule: &schedule,
        segment_cycles: traffic.cycles,
        replays: STORM_REPLAYS,
        limit_cycles: limit,
    };
    let wall1 = wall_ns();
    let stats = drive(net.as_mut(), run, Some(&mut || meter.work_done()), tr);
    let drive_wall_ns = wall_ns() - wall1;
    meter.work_done();

    let mut h = Fnv::default();
    for r in &stats.replays {
        for w in [
            r.injected,
            r.delivered_so_far,
            r.retries_so_far,
            r.latency_so_far,
        ] {
            h.word(w);
        }
    }
    for w in [
        stats.cycles,
        stats.delivered,
        stats.retries,
        stats.latency_sum,
    ] {
        h.word(w);
    }
    let data_rate = net.collision_rate(1);
    let checks = vec![
        Check {
            name: "fsoi_storm.conservation",
            ok: stats.drained && stats.delivered + stats.refused() == stats.injected(),
            detail: format!(
                "injected {} refused {} delivered {} drained {} at cycle {} (limit {limit})",
                stats.injected(),
                stats.refused(),
                stats.delivered,
                stats.drained,
                stats.cycles
            ),
        },
        Check {
            name: "fsoi_storm.below_knee",
            ok: (0.01..=0.15).contains(&data_rate) && stats.refused() == 0,
            detail: format!("data-lane collision rate {data_rate:.4} in [0.01, 0.15], no refusal"),
        },
    ];
    // A replay fails if a packet was refused or injected late; replays the
    // drive never finished fail too.
    let failed = stats
        .replays
        .iter()
        .filter(|r| r.refused > 0 || r.lag_cycles > 0)
        .count() as u64
        + (STORM_REPLAYS - stats.replays.len() as u64);
    let outcome = PassOutcome {
        timing: meter.timing(),
        wall_ns: wall_ns() - wall0,
        digest: h.finish(),
        attempted: STORM_REPLAYS,
        failed,
        checks,
        paper_err_pct: None,
    };
    StormPass {
        outcome,
        stats,
        net,
        drive_wall_ns,
    }
}

/// Folds passes into the run's verdict: operations attempted and failed
/// (a failed check counts once; passes that disagree on the digest fail
/// every operation), and the checks of the first pass.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    digests: Vec<u64>,
    checks: Vec<Check>,
    paper_err_pct: Option<f64>,
}

impl Verdict {
    fn add(&mut self, p: &PassOutcome) {
        self.attempted += p.attempted;
        self.failed += p.failed + p.checks.iter().filter(|c| !c.ok).count() as u64;
        self.digests.push(p.digest);
        if self.checks.is_empty() {
            self.checks = p.checks.clone();
            self.paper_err_pct = p.paper_err_pct;
        }
    }

    /// Counts cells that are judged on completion alone.
    fn add_cells(&mut self, runs: &[CellRun]) {
        self.attempted += runs.len() as u64;
        self.failed += failed_cells(runs);
    }

    /// Counts the operations of a section judged on its own digests.
    fn absorb(&mut self, section: Verdict) {
        self.attempted += section.attempted;
        self.failed += section.failed();
    }

    fn digests_agree(&self) -> bool {
        self.digests.windows(2).all(|w| w[0] == w[1])
    }

    fn failed(&self) -> u64 {
        if self.digests_agree() {
            self.failed.min(self.attempted)
        } else {
            self.attempted
        }
    }
}

/// What a run hands to the printer: its verdict, its metrics, and the
/// fields it adds to the detail line.
type RunParts = (Verdict, Metrics, Vec<(&'static str, Value)>);

fn one_pass(
    w: &Workload,
    seed: u64,
    size: Size,
    meter: &mut Meter,
    tr: &mut Tracer,
) -> PassOutcome {
    match w.kind {
        Kind::Cells(cw) => {
            let cw = cw.sized(size);
            let (cells, pass) = cells::serial_pass(|| cw.cells(seed), meter, tr);
            judge_cells(&cw, &cells, &pass)
        }
        Kind::Storm => storm_pass(seed, size, meter, tr).outcome,
    }
}

/// A detail-line entry: samples in pass order and their summary.
fn samples_value(samples: &[f64]) -> Value {
    let s = Summary::of(samples);
    obj([
        (
            "samples",
            Value::Arr(samples.iter().map(|x| Value::Num(*x)).collect()),
        ),
        ("median", Value::Num(s.median)),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
        ("min", Value::Num(s.min)),
        ("max", Value::Num(s.max)),
        ("n", Value::count(s.n as u64)),
    ])
}

/// Timed serial passes until `seconds` have gone by, at least
/// [`MIN_PASSES`]; every pass is the same work.
fn untraced(w: &Workload, seed: u64, seconds: f64, size: Size, clock: CpuClock) -> RunParts {
    let mut tr = Tracer::new(false);
    let mut meter = Meter::new(clock);
    let mut timings: Vec<Timing> = Vec::new();
    let (mut wall, mut cpu) = (0u64, 0u64);
    let mut verdict = Verdict::default();
    let t0 = wall_ns();
    let min_passes = if size == Size::Smoke { 1 } else { MIN_PASSES };
    while timings.len() < min_passes || ((wall_ns() - t0) as f64) < seconds * 1e9 {
        let p = one_pass(w, seed, size, &mut meter, &mut tr);
        wall += p.wall_ns;
        cpu += p.timing.setup_cpu_ns + p.timing.host_cpu_ns + p.timing.calib_cpu_ns;
        timings.push(p.timing);
        verdict.add(&p);
    }
    let column = |f: &dyn Fn(&Timing) -> f64| -> Vec<f64> { timings.iter().map(f).collect() };
    let (setup, host) = (column(&Timing::setup_s), column(&Timing::host_s));
    let mut m = Metrics::default();
    m.set("setup_s", Summary::of(&setup).median);
    m.set("host_s", Summary::of(&host).median);
    m.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    let detail = vec![
        ("passes", Value::count(timings.len() as u64)),
        ("setup_s", samples_value(&setup)),
        ("host_s", samples_value(&host)),
        // The same passes before normalization, and what they were divided by.
        (
            "setup_cpu_s",
            samples_value(&column(&|t| t.setup_cpu_ns as f64 / 1e9)),
        ),
        (
            "host_cpu_s",
            samples_value(&column(&|t| t.host_cpu_ns as f64 / 1e9)),
        ),
        ("host_slowdown", samples_value(&column(&Timing::slowdown))),
        ("wall_over_cpu", Value::Num(wall as f64 / cpu.max(1) as f64)),
    ];
    (verdict, m, detail)
}

/// Sets `cmp.cell_ms.*` and `cmp.net_share.*` from a traced pass that ran
/// every network of [`NETWORKS`].
fn split_metrics(m: &mut Metrics, cells: &[Cell], runs: &[CellRun]) {
    let ms = |network: &str| cells::cell_ms(cells, runs, network).unwrap_or(f64::NAN);
    let ideal = ms("L0");
    for network in NETWORKS {
        m.set(&format!("cmp.cell_ms.{network}"), ms(network));
        if network != "L0" {
            m.set(
                &format!("cmp.net_share.{network}"),
                1.0 - ideal / ms(network),
            );
        }
    }
}

/// Sets the `cmp.*` rates and model counts from the cells a workload owns.
fn count_metrics(m: &mut Metrics, cells: &[Cell], runs: &[CellRun]) {
    let t = cells::totals(cells, runs);
    let wall = t.run_wall_ns as f64;
    m.set("cmp.ns_per_tick", wall / t.ticks.max(1) as f64);
    m.set("cmp.ns_per_event", wall / t.events.max(1) as f64);
    m.set("cmp.mem_ops_per_s", t.mem_ops as f64 / (wall / 1e9));
    m.set("cmp.sim_cycles", t.sim_cycles as f64);
    m.set("cmp.packets", t.packets as f64);
    m.set(
        "cmp.l1_miss_rate",
        t.l1_miss_rate_sum / t.reports.max(1) as f64,
    );
    m.set(
        "cmp.stalled_share",
        t.stalled_cycles as f64 / (t.active_cycles + t.stalled_cycles).max(1) as f64,
    );
    m.set(
        "cmp.ff_skip_share",
        t.ff_skipped as f64 / t.sim_cycles.max(1) as f64,
    );
}

/// Threads of the parallel pass: what users wait with all cores, capped at
/// two so hosts of different width stay comparable.
fn par_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// What tracing a pass cost in (normalized) host time, and how much of the
/// reference pass's wall time it was not on a CPU.
fn harness_metrics(m: &mut Metrics, reference: &PassOutcome, traced: &PassOutcome) {
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (traced.timing.host_s() / reference.timing.host_s() - 1.0),
    );
    let t = reference.timing;
    m.set(
        "bench.wall_over_cpu",
        reference.wall_ns as f64 / (t.setup_cpu_ns + t.host_cpu_ns + t.calib_cpu_ns).max(1) as f64,
    );
}

/// The traced passes over a cell list: an untraced reference pass, the same
/// pass traced, the cells of the networks the workload lacks (traced), and
/// the parallel pass. Sets every workload-dependent `cmp.*`, `sim.par_*`
/// and `bench.*` metric; returns the verdict and the share of the traced
/// pass's wall time that its top-level spans cover.
fn traced_cells(
    cw: CellWorkload,
    seed: u64,
    meter: &mut Meter,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> (Verdict, f64) {
    let mut verdict = Verdict::default();
    let make = || cw.cells(seed);
    let (cells, reference) = cells::serial_pass(make, meter, &mut Tracer::new(false));
    let reference_outcome = judge_cells(&cw, &cells, &reference);
    verdict.add(&reference_outcome);

    let covered_before = tr.top_level_ns();
    let (_, traced) = cells::serial_pass(make, meter, tr);
    let coverage = (tr.top_level_ns() - covered_before) as f64 / traced.wall_ns.max(1) as f64;
    let traced_outcome = judge_cells(&cw, &cells, &traced);
    verdict.add(&traced_outcome);
    harness_metrics(m, &reference_outcome, &traced_outcome);
    count_metrics(m, &cells, &traced.runs);

    let (extra_cells, extra) = cells::serial_pass(|| cw.lacking_cells(seed), meter, tr);
    verdict.add_cells(&extra.runs);
    let all_cells = [cells.as_slice(), extra_cells.as_slice()].concat();
    let mut all_runs = traced.runs;
    all_runs.extend(extra.runs);
    split_metrics(m, &all_cells, &all_runs);

    let threads = par_threads();
    let (runs, par_wall_ns) = cells::parallel_pass(&cells, threads, tr);
    verdict.add_cells(&runs);
    verdict.digests.push(cells::digest(&cells, &runs));
    m.set("sim.par_wall_s", par_wall_ns as f64 / 1e9);
    m.set(
        "sim.par_speedup",
        reference.wall_ns as f64 / par_wall_ns.max(1) as f64,
    );
    (verdict, coverage)
}

fn traced(
    w: &Workload,
    seed: u64,
    size: Size,
    clock: CpuClock,
    out_dir: &Path,
) -> Result<RunParts, String> {
    let mut tr = Tracer::new(true);
    let mut m = Metrics::default();
    let mut meter = Meter::new(clock);
    let (verdict, coverage) = match w.kind {
        Kind::Cells(cw) => {
            let section = traced_cells(cw.sized(size), seed, &mut meter, &mut m, &mut tr);
            probes::core_segment(&mut m, seed, size, &mut tr);
            section
        }
        Kind::Storm => {
            let mut verdict = Verdict::default();
            let reference = storm_pass(seed, size, &mut meter, &mut Tracer::new(false)).outcome;
            verdict.add(&reference);
            let pass = storm_pass(seed, size, &mut meter, &mut tr);
            let coverage = tr.top_level_ns() as f64 / pass.outcome.wall_ns.max(1) as f64;
            verdict.add(&pass.outcome);
            probes::core_metrics(&mut m, pass.net.as_ref(), &pass.stats, pass.drive_wall_ns);
            let (cells_verdict, _) = traced_cells(
                STORM_SPLIT_CELLS.sized(size),
                seed,
                &mut meter,
                &mut m,
                &mut tr,
            );
            verdict.absorb(cells_verdict);
            // The storm's own passes, not the split cells', say what tracing cost.
            harness_metrics(&mut m, &reference, &pass.outcome);
            (verdict, coverage)
        }
    };
    probes::run_all(&mut m, seed, size, out_dir, &mut tr);

    let trace_file = out_dir.join(format!("trace-{}.jsonl", w.name));
    tr.write_jsonl(&trace_file, w.name)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    let detail = vec![
        ("trace_file", Value::str(trace_file.display().to_string())),
        ("trace_span_coverage", Value::Num(coverage)),
        ("par_threads", Value::count(par_threads() as u64)),
    ];
    Ok((verdict, m, detail))
}

/// Runs one workload in this process and prints its two lines. `Ok(true)`
/// when every operation and check passed.
pub fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<bool, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let clock = CpuClock::detect();
    let out_dir = Path::new(OUT_DIR);
    let (verdict, metrics, extra) = if trace {
        traced(w, seed, size, clock, out_dir)?
    } else {
        untraced(w, seed, seconds, size, clock)
    };
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let declared = metrics
        .declared(table)
        .map_err(|missing| format!("{name}: metrics not measured: {}", missing.join(", ")))?;

    let failed = verdict.failed();
    let mut detail = vec![
        ("workload", Value::str(name)),
        ("seed", Value::count(seed)),
        ("smoke", Value::Bool(size == Size::Smoke)),
        ("trace", Value::Bool(trace)),
        (
            "nproc",
            Value::count(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "rustc",
            Value::str(std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        ("clock", Value::str(clock.source())),
    ];
    detail.extend(extra);
    detail.extend([
        ("ops_attempted", Value::count(verdict.attempted)),
        ("ops_failed", Value::count(failed)),
        (
            "sim_digest",
            Value::str(format!("{:016x}", verdict.digests[0])),
        ),
        ("digests_agree", Value::Bool(verdict.digests_agree())),
        ("validated", Value::Bool(verdict.paper_err_pct.is_some())),
    ]);
    if let Some(err) = verdict.paper_err_pct {
        detail.push(("paper_err_pct", Value::Num(err)));
    }
    detail.push((
        "checks",
        Value::Arr(
            verdict
                .checks
                .iter()
                .map(|c| {
                    obj([
                        ("name", Value::str(c.name)),
                        ("ok", Value::Bool(c.ok)),
                        ("detail", Value::str(c.detail.as_str())),
                    ])
                })
                .collect(),
        ),
    ));
    println!("{}", obj(detail));
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::count(verdict.attempted)),
            ("failed", Value::count(failed)),
            ("metrics", declared),
        ])
    );
    Ok(failed == 0)
}
