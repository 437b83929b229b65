//! The repo's benchmark: four workloads over the simulator stack, measured
//! from outside through public functions only. See `README.md` beside the
//! package and `/BENCHMARK.json`.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints a detail line, then — last — the
//! result line `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` it runs every workload, each in a process of its own, and
//! prints one document.

mod cells;
mod host;
mod json;
mod net;
mod probes;
mod report;
mod trace;
mod workloads;

use json::{obj, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where trace files and the cache probe's directory go, relative to the
/// repo root the run script changes into.
const OUT_DIR: &str = "benchmark/out";

/// How long an untraced run measures unless told otherwise: `run_seconds`
/// of `/BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("host_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("optics.link_budget_ns", "ns"),
    ("optics.validate_ns", "ns"),
    ("optics.crossbar_budget_ns_256", "ns"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_packet", "ns"),
    ("core.packets", "count"),
    ("core.collision_rate_meta", "ratio"),
    ("core.collision_rate_data", "ratio"),
    ("core.retries_per_packet", "ratio"),
    ("core.inject_refused", "count"),
    ("core.generator_lag_cycles", "cycles"),
    ("core.ff_skip_share", "ratio"),
    ("mesh.ns_per_cycle_16", "ns"),
    ("mesh.ns_per_cycle_64", "ns"),
    ("mesh.ns_per_cycle_256", "ns"),
    ("mesh.ns_per_packet_64", "ns"),
    ("ring.ns_per_cycle_64", "ns"),
    ("ring.ns_per_cycle_256", "ns"),
    ("ring.xbar_ns_per_cycle_64", "ns"),
    ("ring.xbar_ns_per_cycle_256", "ns"),
    ("coherence.read_miss_roundtrip_ns", "ns"),
    ("coherence.l1_hit_ns", "ns"),
    ("coherence.upgrade_round_ns_16", "ns"),
    ("coherence.upgrade_round_ns_256", "ns"),
    ("cmp.new_ms_per_cell_16", "ms"),
    ("cmp.new_ms_per_cell_64", "ms"),
    ("cmp.new_ms_per_cell_256", "ms"),
    ("cmp.fork_ms_per_cell_16", "ms"),
    ("cmp.cell_ms.fsoi", "ms"),
    ("cmp.cell_ms.mesh", "ms"),
    ("cmp.cell_ms.ring", "ms"),
    ("cmp.cell_ms.crossbar", "ms"),
    ("cmp.cell_ms.L0", "ms"),
    ("cmp.net_share.fsoi", "ratio"),
    ("cmp.net_share.mesh", "ratio"),
    ("cmp.net_share.ring", "ratio"),
    ("cmp.net_share.crossbar", "ratio"),
    ("cmp.ns_per_tick", "ns"),
    ("cmp.ns_per_event", "ns"),
    ("cmp.mem_ops_per_s", "1/s"),
    ("cmp.sim_cycles", "cycles"),
    ("cmp.packets", "count"),
    ("cmp.l1_miss_rate", "ratio"),
    ("cmp.stalled_share", "ratio"),
    ("cmp.ff_skip_share", "ratio"),
    ("cmp.cache_store_ms_per_cell", "ms"),
    ("cmp.cache_hit_ms_per_cell", "ms"),
    ("sim.par_wall_s", "s"),
    ("sim.par_speedup", "ratio"),
    ("sim.event_queue_ns_per_op", "ns"),
    ("sim.nodemask_iter_ns_256", "ns"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.wall_over_cpu", "ratio"),
];

/// Per-layer metrics that are counts of the model, exact for a seed: two
/// runs of the same code must agree on them bit for bit.
pub const EXACT: [&str; 10] = [
    "core.packets",
    "core.collision_rate_meta",
    "core.collision_rate_data",
    "core.retries_per_packet",
    "core.ff_skip_share",
    "cmp.sim_cycles",
    "cmp.packets",
    "cmp.l1_miss_rate",
    "cmp.stalled_share",
    "cmp.ff_skip_share",
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The declared metrics as `{name: {value, unit}}`, or the names this
    /// run failed to measure.
    fn declared(&self, table: &[(&str, &str)]) -> Result<Value, Vec<String>> {
        let missing: Vec<String> = table
            .iter()
            .filter(|(name, _)| !self.0.contains_key(*name))
            .map(|(name, _)| name.to_string())
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(obj(table.iter().map(|(name, unit)| {
            let entry = obj([
                ("value", Value::Num(self.0[*name])),
                ("unit", Value::str(*unit)),
            ]);
            (*name, entry)
        })))
    }
}

/// Full size, or the ~1/20 size of `--smoke` (same code paths; its numbers
/// are labelled and never compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn scaled(self, n: u64) -> u64 {
        match self {
            Size::Full => n,
            Size::Smoke => (n / 20).max(1),
        }
    }
}

/// A named output check; a failed one counts in `ops_failed`.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// FNV-1a, the hash behind `sim_digest`.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// `None`: `run_seconds` of the manifest, or the minimum pass count
    /// alone at smoke size.
    seconds: Option<f64>,
    trace: bool,
    size: Size,
    agree: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark --agree FIRST.json SECOND.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2010,
        seconds: None,
        trace: false,
        size: Size::Full,
        agree: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}")).cloned();
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds = value("a number")?.parse().ok();
                args.seconds = Some(
                    seconds
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds: not a non-negative number")?,
                )
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--agree" => args.agree = Some((value("a file")?.into(), value("two files")?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a non-release build (use benchmark/run.sh)");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(match args.size {
        Size::Full => RUN_SECONDS,
        Size::Smoke => 0.0,
    });
    let outcome = if let Some((first, second)) = &args.agree {
        report::agree(first, second)
    } else if let Some(name) = &args.workload {
        workloads::run_one(name, args.seed, seconds, args.trace, args.size)
    } else {
        report::run_all(args.seed, seconds, args.trace, args.size)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
