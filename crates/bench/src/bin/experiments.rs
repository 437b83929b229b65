//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p fsoi-bench --bin experiments -- <cmd> [--full]
//! ```
//!
//! `<cmd>` is a row of [`COMMANDS`] or `all` (the default), which runs the
//! rows marked for it, in table order. `--full` uses larger workloads
//! (closer statistics, slower). Anything else on the command line — an
//! unknown command (answered with the command list), a stray argument, a
//! bad flag value — prints `<cmd>: …` and exits 2.
//!
//! To add an experiment: list the variant [`SystemConfig`]s it compares,
//! pick the applications, run them as one [`Sweep`], print from
//! `at(variant, app)`, and add a row to [`COMMANDS`].
//!
//! `diag` prints per-app calibration diagnostics (not a paper figure).
//!
//! `snapshot` dumps the metric registry (table + JSONL) for the Figure 6
//! 16-node runs — the single code path behind every exported number. Two
//! same-seed invocations emit byte-identical output.
//!
//! `grid [--nodes N] [--ops N] [--apps LIST] [--networks LIST]
//! [--out PATH]` runs a beyond-the-paper design-space grid: the four-way
//! network comparison (FSOI, mesh, Corona ring, worst-case-loss
//! crossbar) at an arbitrary node count (default 64; the NodeMask
//! capacity of 256 is the ceiling). Every cell runs at worker counts
//! {1, 2, 8} and its exported metric registry must be byte-identical
//! across all three — the determinism contract checked at the grid
//! sizes, not assumed. `--out` writes a machine-greppable grid summary
//! (`fsoi-grid/v1`) for CI artifacts.
//!
//! `profile [--out PATH] [--det PATH] [--ops N]` runs the standard
//! 80-cell sweep and writes the versioned run manifest (default
//! `RUN_manifest.json`): config hash and seed, build info and the
//! deterministic span profile — byte-identical for any `FSOI_THREADS` —
//! then a closing `host` section (thread count, host CPUs), the only
//! part that depends on the machine. `--det` additionally writes the raw
//! deterministic-plane bytes (profile + merged registry JSONL) for
//! byte-identity gates; `--ops` overrides ops-per-core for quick runs.

use fsoi_bench::runner::{quick_ops, Sweep, MAX_CYCLES};
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::workload::AppProfile;
use fsoi_mesh::config::MeshConfig;
use fsoi_net::analysis::backoff as ab;
use fsoi_net::analysis::bandwidth::BandwidthAllocationModel;
use fsoi_net::analysis::collision as ac;
use fsoi_net::backoff::BackoffPolicy;
use fsoi_net::config::FsoiConfig;
use fsoi_net::lane::Lanes;
use fsoi_optics::link::OpticalLink;
use fsoi_sim::stats::{geometric_mean, Histogram};

/// How a subcommand takes the command line.
#[derive(Clone, Copy)]
enum Run {
    /// It has no arguments.
    Fixed(fn()),
    /// It scales its workload with `--full` (1, or 2 when given).
    Scaled(fn(u64)),
    /// It parses its own flags.
    Flags(fn(&[String])),
}

/// Every subcommand: its name, whether `all` runs it, its entry point.
const COMMANDS: &[(&str, bool, Run)] = &[
    ("table1", true, Run::Fixed(table1)),
    ("fig3", true, Run::Fixed(fig3)),
    ("fig4", true, Run::Scaled(fig4)),
    ("fig5", true, Run::Scaled(fig5)),
    ("fig6", true, Run::Scaled(fig6)),
    ("fig7", true, Run::Scaled(fig7)),
    ("fig8", true, Run::Scaled(fig8)),
    ("fig9", true, Run::Scaled(fig9)),
    ("fig10", true, Run::Scaled(fig10)),
    ("fig11", true, Run::Scaled(fig11)),
    ("table4", true, Run::Scaled(table4)),
    ("bm", true, Run::Fixed(bm)),
    ("opts", true, Run::Scaled(opts)),
    ("corona", true, Run::Scaled(corona)),
    ("l1", true, Run::Scaled(l1_sensitivity)),
    ("ber", true, Run::Scaled(ber_relaxation)),
    ("receivers", true, Run::Scaled(receivers)),
    ("seeds", true, Run::Scaled(seed_stability)),
    ("snapshot", false, Run::Scaled(snapshot)),
    ("profile", false, Run::Flags(profile)),
    ("grid", false, Run::Flags(grid)),
    ("diag", false, Run::Fixed(diag)),
];

fn main() {
    #[expect(clippy::disallowed_methods, reason = "D2: the CLI's own argv")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `all` is the default command: a first argument that is a flag is
    // one of its flags.
    let (cmd, flags) = match args.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &args[1..]),
        _ => ("all", &args[..]),
    };
    let scale = if flags.iter().any(|a| a == "--full") {
        2
    } else {
        1
    };
    // Resolve the command first, so a typo is reported as such whatever
    // follows it; then check the arguments; then run.
    let runs: Vec<Run> = COMMANDS
        .iter()
        .filter(|(name, in_all, _)| if cmd == "all" { *in_all } else { *name == cmd })
        .map(|&(_, _, run)| run)
        .collect();
    if runs.is_empty() {
        eprintln!("unknown experiment: {cmd}");
        let names: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        eprintln!(
            "usage: experiments <cmd> [--full]; cmd: {} | all",
            names.join(" | ")
        );
        std::process::exit(2);
    }
    // A command that parses its own flags aside, only `--full` is taken.
    if !runs.iter().any(|run| matches!(run, Run::Flags(_))) {
        if let Some(bad) = flags.iter().find(|a| *a != "--full") {
            usage_error(
                cmd,
                &format!("unexpected argument {bad:?} (only --full is accepted)"),
            );
        }
    }
    for run in runs {
        match run {
            Run::Fixed(f) => f(),
            Run::Scaled(f) => f(scale),
            Run::Flags(f) => f(flags),
        }
    }
}

/// [`Sweep::run`] on the default thread count (the `FSOI_THREADS` knob,
/// else the available parallelism).
fn sweep(variants: &[SystemConfig], apps: &[AppProfile], ops: u64) -> Sweep {
    Sweep::run(variants, apps, ops, fsoi_sim::par::thread_count())
}

/// The paper's 16-node system over an FSOI configuration.
fn fsoi_16(cfg: FsoiConfig) -> SystemConfig {
    SystemConfig::paper_16(NetworkKind::Fsoi(cfg))
}

/// The named suite applications.
fn apps_named(names: &[&str]) -> Vec<AppProfile> {
    names
        .iter()
        .map(|n| AppProfile::by_name(n).unwrap())
        .collect()
}

/// Prints `{cmd}: {msg}` and exits 2: the one path for rejected input.
fn usage_error(cmd: &str, msg: &str) -> ! {
    eprintln!("{cmd}: {msg}");
    std::process::exit(2);
}

/// Consumes and returns the value following the flag at `args[*i]`.
fn take<'a>(cmd: &str, args: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage_error(cmd, &format!("{} needs a value", args[*i - 1])),
    }
}

/// An output file of `cmd`, created before the command builds anything:
/// a path it cannot write is refused like any other typed argument.
struct OutFile {
    cmd: &'static str,
    path: String,
    file: std::fs::File,
}

impl OutFile {
    fn create(cmd: &'static str, path: String) -> OutFile {
        match std::fs::File::create(&path) {
            Ok(file) => OutFile { cmd, path, file },
            Err(e) => usage_error(cmd, &format!("cannot write {path}: {e}")),
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        use std::io::Write;
        if let Err(e) = self.file.write_all(bytes) {
            usage_error(self.cmd, &format!("cannot write {}: {e}", self.path));
        }
    }
}

/// [`take`], parsed.
fn take_parsed<T: std::str::FromStr>(cmd: &str, args: &[String], i: &mut usize) -> T {
    let v = take(cmd, args, i);
    v.parse()
        .unwrap_or_else(|_| usage_error(cmd, &format!("bad {} value {v:?}", args[*i - 1])))
}

/// Calibration diagnostics (not a paper figure).
fn diag() {
    header("diag: per-app miss rates and latency makeup");
    println!(
        "  {:<6} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "app", "miss%", "fsoi cyc", "mesh cyc", "replyF", "replyM", "speedup", "p(meta)", "collD%"
    );
    let suite = AppProfile::suite();
    let variants = [NetworkKind::fsoi(16), NetworkKind::mesh(16)].map(SystemConfig::paper_16);
    let s = sweep(&variants, &suite, quick_ops(16));
    for (a, app) in suite.iter().enumerate() {
        let (f, m) = (s.at(0, a), s.at(1, a));
        println!(
            "  {:<6} {:>6.1}% {:>8} {:>8} {:>9.1} {:>9.1} {:>8.2} {:>7.2}% {:>7.1}%",
            app.name,
            100.0 * f.l1_miss_rate,
            f.cycles,
            m.cycles,
            f.reply_latency.mean(),
            m.reply_latency.mean(),
            m.cycles as f64 / f.cycles as f64,
            100.0 * f.meta_tx_probability,
            100.0 * f.data_collision_rate,
        );
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

// ---------------------------------------------------------------- Table 1

fn table1() {
    header("Table 1: Optical link parameters (paper values in parentheses)");
    let budget = OpticalLink::paper_default().budget();
    let paper: &[(&str, &str)] = &[
        ("Trans. distance", "2 cm"),
        ("Optical path loss", "2.6 dB"),
        ("Link bandwidth", "-"),
        ("Data rate", "40 Gbps"),
        ("Signal-to-noise ratio", "7.5 dB"),
        ("Q factor", "~6.4"),
        ("Bit-error-rate (BER)", "1e-10"),
        ("Cycle-to-cycle jitter", "1.7 ps"),
        ("Laser driver power", "6.3 mW"),
        ("VCSEL power", "0.96 mW"),
        ("Transmitter (standby)", "0.43 mW"),
        ("Receiver power", "4.2 mW"),
        ("TX energy/bit", "-"),
        ("RX energy/bit", "-"),
    ];
    for (row, (label, paper_v)) in budget.table1_rows().iter().zip(paper) {
        println!("  {:<26} {:>12}   ({label}: {paper_v})", row.0, row.1);
    }
}

// ---------------------------------------------------------------- Figure 3

fn fig3() {
    header("Figure 3: collision probability / p vs transmission probability");
    let ps = [
        0.33, 0.25, 0.20, 0.15, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.01,
    ];
    print!("  {:>6}", "p");
    for r in 1..=4 {
        print!("  R={r} theory");
    }
    println!("   R=2 Monte-Carlo");
    for &p in &ps {
        print!("  {:>5.0}%", p * 100.0);
        for r in 1..=4 {
            print!(
                "  {:>9.2}%",
                100.0 * ac::normalized_collision_probability(p, 16, r)
            );
        }
        let mc = ac::monte_carlo(p, 16, 2, 60_000, 42);
        println!(
            "   {:>8.2}%",
            100.0 * mc.node_collision_rate / mc.measured_p.max(1e-9)
        );
    }
    println!("  (N = 16; the paper notes near-independence from N.)");
}

// ---------------------------------------------------------------- Figure 4

fn fig4(scale: u64) {
    header("Figure 4: collision resolution delay vs (W, B) — meta packets");
    let trials = if scale > 1 { 60_000 } else { 15_000 };
    let ws = [1.0, 1.5, 2.0, 2.7, 3.5, 5.0];
    let bs = [1.05, 1.1, 1.3, 1.5, 2.0];
    for &g in &[0.01, 0.10] {
        println!("  G = {:.0}%", g * 100.0);
        print!("  {:>6}", "W\\B");
        for b in bs {
            print!(" {b:>7.2}");
        }
        println!();
        let surface = ab::resolution_delay_surface(&ws, &bs, g, trials, 9);
        let mut best = ab::SurfacePoint {
            w: 0.0,
            b: 0.0,
            delay: f64::INFINITY,
        };
        for (&w, row) in ws.iter().zip(surface.chunks(bs.len())) {
            print!("  {w:>6.1}");
            for p in row {
                if p.delay < best.delay {
                    best = *p;
                }
                print!(" {:>7.2}", p.delay);
            }
            println!();
        }
        println!(
            "  minimum: {:.2} cycles at W = {}, B = {}  (paper: 7.26 at W = 2.7, B = 1.1)",
            best.delay, best.w, best.b
        );
    }
    println!("\n  Pathological 64-node burst (63 colliders), §4.3.2:");
    for (label, policy) in [
        ("W=2.7 B=1.1", BackoffPolicy::PAPER_OPTIMUM),
        ("W=2.7 B=2.0", BackoffPolicy::BINARY),
        ("fixed W=3", BackoffPolicy::fixed(3.0)),
    ] {
        let e = ab::pathological_burst(63, policy, 2, 2);
        println!(
            "    {label:<12} retries = {:>10.3e}   cycles = {:>10.3e}",
            e.retries, e.cycles
        );
    }
    println!("    (paper: ~26 retries/416 cycles; ~5 retries/199 cycles; 8.2e10 retries)");
}

// ---------------------------------------------------------------- Figure 5

fn fig5(scale: u64) {
    fig5_at(16, scale);
}

/// The Figure 5 latency distribution at an arbitrary node count. Bin
/// geometry (count, width, overflow threshold) is read off the reports'
/// own histograms, so the figure follows the simulator if the histogram
/// shape ever changes and works unmodified at the beyond-the-paper grid
/// sizes.
fn fig5_at(nodes: usize, scale: u64) {
    header(&format!(
        "Figure 5: distribution of read-miss reply latency ({nodes}-node FSOI)"
    ));
    let fsoi = SystemConfig::paper_n(nodes, NetworkKind::fsoi(nodes));
    let s = sweep(&[fsoi], &AppProfile::suite(), quick_ops(nodes) * scale);
    let first = &s.at(0, 0).reply_latency;
    let (num_bins, bin_width) = (first.num_bins(), first.bin_width());
    let mut all = Histogram::new(bin_width, num_bins);
    for r in s.variant(0) {
        let h = &r.reply_latency;
        assert_eq!(
            (h.num_bins(), h.bin_width()),
            (num_bins, bin_width),
            "every app's histogram shares one bin geometry"
        );
        all.merge(h);
    }
    let total = all.count().max(1) as f64;
    println!("  latency bin     fraction of requests");
    for (start, c) in all.iter() {
        let frac = 100.0 * c as f64 / total;
        if frac >= 0.05 {
            println!(
                "  {:>4}-{:<4}      {:>5.1}%  {}",
                start,
                start + bin_width - 1,
                frac,
                "#".repeat((frac * 1.2) as usize)
            );
        }
    }
    println!(
        "  >{:<4}          {:>5.1}%",
        num_bins as u64 * bin_width,
        100.0 * all.overflow() as f64 / total
    );
    if nodes == 16 {
        println!("  (paper: heavily concentrated in a few slots; peak bucket ≈ 41 %)");
    }
}

// ------------------------------------------------------------- Figures 6/7

fn perf_figure(nodes: usize, scale: u64) {
    // The mesh baseline first, then the four networks of panel (b).
    let variants = [
        NetworkKind::mesh(nodes),
        NetworkKind::fsoi(nodes),
        NetworkKind::L0,
        NetworkKind::Lr1,
        NetworkKind::Lr2,
    ]
    .map(|kind| SystemConfig::paper_n(nodes, kind));
    let (mesh, fsoi) = (0, 1);
    let suite = AppProfile::suite();
    let s = sweep(&variants, &suite, quick_ops(nodes) * scale);

    println!("  (a) mean packet latency, cycles");
    println!(
        "  {:<6} {:>7} {:>7} {:>7} {:>7} {:>9} {:>7}",
        "app", "queue", "sched", "net", "coll", "FSOI tot", "mesh"
    );
    let mut fsoi_lat = Vec::new();
    let mut mesh_lat = Vec::new();
    for (a, app) in suite.iter().enumerate() {
        let f = &s.at(fsoi, a).attribution;
        let m = &s.at(mesh, a).attribution;
        fsoi_lat.push(f.total());
        mesh_lat.push(m.total());
        println!(
            "  {:<6} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>7.1}",
            app.name,
            f.queuing,
            f.scheduling,
            f.network,
            f.collision_resolution,
            f.total(),
            m.total()
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // Reference numbers exist only at the paper's two sizes.
    let paper_lat = match nodes {
        16 => "paper 16-node: 7.5 vs mesh",
        64 => "paper 64-node: 12.6 vs mesh",
        _ => "beyond the paper's sizes",
    };
    println!(
        "  {:<6} {:>41.1} {:>7.1}   ({paper_lat})",
        "avg",
        avg(&fsoi_lat),
        avg(&mesh_lat),
    );

    println!("\n  (b) speedup over the mesh baseline");
    println!(
        "  {:<6} {:>7} {:>7} {:>7} {:>7}",
        "app", "FSOI", "L0", "Lr1", "Lr2"
    );
    let mut speedups = vec![Vec::new(); 4];
    for (a, app) in suite.iter().enumerate() {
        let base = s.at(mesh, a).cycles;
        print!("  {:<6}", app.name);
        for (col, variant) in speedups.iter_mut().zip(fsoi..) {
            let speedup = s.at(variant, a).speedup_vs(base);
            col.push(speedup);
            print!(" {speedup:>7.2}");
        }
        println!();
    }
    print!("  {:<6}", "gmean");
    for s in &speedups {
        print!(" {:>7.2}", geometric_mean(s).unwrap_or(0.0));
    }
    let paper = match nodes {
        16 => "(paper: 1.36 / 1.43 / 1.32 / 1.22)",
        64 => "(paper: 1.75 / 1.91 / 1.55 / 1.29)",
        _ => "(beyond the paper's sizes; no reference numbers)",
    };
    println!("  {paper}");
}

fn fig6(scale: u64) {
    header("Figure 6: performance of 16-node systems");
    perf_figure(16, scale);
}

fn fig7(scale: u64) {
    header("Figure 7: performance of 64-node systems (phase-array FSOI)");
    perf_figure(64, scale);
}

// ---------------------------------------------------------------- Figure 8

fn fig8(scale: u64) {
    header("Figure 8: energy relative to the mesh baseline (16 nodes)");
    let suite = AppProfile::suite();
    let variants = [NetworkKind::mesh(16), NetworkKind::fsoi(16)].map(SystemConfig::paper_16);
    let s = sweep(&variants, &suite, quick_ops(16) * scale);
    println!(
        "  {:<6} {:>9} {:>9} {:>9} {:>9}   {:>9}",
        "app", "net", "core", "leak", "total", "net ratio"
    );
    let mut totals = Vec::new();
    let mut net_ratios = Vec::new();
    for (a, app) in suite.iter().enumerate() {
        let mesh_e = &s.at(0, a).energy;
        let fsoi_e = &s.at(1, a).energy;
        let rel = |x: f64| 100.0 * x / mesh_e.total_j();
        totals.push(fsoi_e.total_j() / mesh_e.total_j());
        net_ratios.push(mesh_e.network_j / fsoi_e.network_j.max(1e-12));
        println!(
            "  {:<6} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%   {:>8.1}x",
            app.name,
            rel(fsoi_e.network_j),
            rel(fsoi_e.core_j),
            rel(fsoi_e.leakage_j),
            rel(fsoi_e.total_j()),
            mesh_e.network_j / fsoi_e.network_j.max(1e-12)
        );
    }
    let avg_total = totals.iter().sum::<f64>() / totals.len() as f64;
    let avg_ratio = net_ratios.iter().sum::<f64>() / net_ratios.len() as f64;
    println!(
        "  avg FSOI energy = {:.1}% of mesh (paper: 59.4%, i.e. 40.6% savings); network energy ratio = {:.0}x (paper: ~20x)",
        100.0 * avg_total,
        avg_ratio
    );
}

// ---------------------------------------------------------------- Figure 9

fn fig9(scale: u64) {
    header("Figure 9: meta-lane collisions with/without confirmation-as-ack");
    println!(
        "  {:<6} {:>10} {:>10} | {:>10} {:>10}   (optimized | baseline)",
        "app", "p(tx)", "coll", "p(tx)", "coll"
    );
    let mut meta_with = 0.0;
    let mut meta_without = 0.0;
    let mut pk_with = 0u64;
    let mut pk_without = 0u64;
    let suite = AppProfile::suite();
    let optimized = SystemConfig::paper_16(NetworkKind::fsoi(16));
    let baseline = optimized.clone().with_optimizations(false);
    let s = sweep(&[optimized, baseline], &suite, quick_ops(16) * scale);
    for (a, app) in suite.iter().enumerate() {
        let (with, without) = (s.at(0, a), s.at(1, a));
        meta_with += with.meta_collision_rate;
        meta_without += without.meta_collision_rate;
        pk_with += with.packets_sent[0] + with.packets_sent[1];
        pk_without += without.packets_sent[0] + without.packets_sent[1];
        println!(
            "  {:<6} {:>9.2}% {:>9.2}% | {:>9.2}% {:>9.2}%",
            app.name,
            100.0 * with.meta_tx_probability,
            100.0 * with.meta_collision_rate,
            100.0 * without.meta_tx_probability,
            100.0 * without.meta_collision_rate,
        );
    }
    let n = suite.len() as f64;
    println!(
        "  avg meta collision rate: {:.2}% optimized vs {:.2}% baseline ({:.1}% fewer collisions; paper: −31.5%)",
        100.0 * meta_with / n,
        100.0 * meta_without / n,
        100.0 * (1.0 - meta_with / meta_without.max(1e-12))
    );
    println!(
        "  total packets: {:.1}% fewer with optimization (paper: −5.1%)",
        100.0 * (1.0 - pk_with as f64 / pk_without.max(1) as f64)
    );
}

// --------------------------------------------------------------- Figure 10

fn fig10(scale: u64) {
    header("Figure 10: data-lane collision breakdown, with/without §5.2 optimizations");
    println!(
        "  {:<6} | {:>8} {:>8} {:>8} {:>8} {:>7} | {:>7}",
        "app", "memory", "reply", "wback", "retrans", "rate+", "rate-"
    );
    let mut with_rates = Vec::new();
    let mut without_rates = Vec::new();
    // Disable hints + spacing (network-level §5.2 knobs).
    let stripped = FsoiConfig::nodes(16)
        .with_hints(false)
        .with_request_spacing(false);
    let suite = AppProfile::suite();
    let variants = [fsoi_16(FsoiConfig::nodes(16)), fsoi_16(stripped)];
    let s = sweep(&variants, &suite, quick_ops(16) * scale);
    for (a, app) in suite.iter().enumerate() {
        let (with, without) = (s.at(0, a), s.at(1, a));
        let total: u64 = with.collided_by_kind.iter().take(3).sum();
        let pct = |x: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * x as f64 / total as f64
            }
        };
        with_rates.push(with.data_collision_rate);
        without_rates.push(without.data_collision_rate);
        println!(
            "  {:<6} | {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>6.1}% | {:>6.1}%",
            app.name,
            pct(with.collided_by_kind[0]),
            pct(with.collided_by_kind[1]),
            pct(with.collided_by_kind[2]),
            pct(with.collided_by_kind[3]),
            100.0 * with.data_collision_rate,
            100.0 * without.data_collision_rate,
        );
    }
    let avg = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "  avg data collision rate: {:.1}% with optimizations vs {:.1}% without (paper: 5.8% vs 9.4%)",
        avg(&with_rates),
        avg(&without_rates)
    );
}

// --------------------------------------------------------------- Figure 11

fn fig11(scale: u64) {
    header("Figure 11: performance vs relative bandwidth (100% → 50%)");
    // Subset of apps for the sweep (the paper plots the average).
    let apps = apps_named(&["oc", "rx", "em", "mp", "fft", "ray"]);
    println!(
        "  {:>10} {:>12} {:>12}",
        "bandwidth", "FSOI perf", "mesh perf"
    );
    let fracs = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5];
    let ops = quick_ops(16) * scale;
    // One variant per fraction on each network. FSOI: scale the lane
    // widths from the Fig-11 base configuration.
    let fsoi = fracs.map(|f| {
        fsoi_16(FsoiConfig::nodes(16).with_lanes(Lanes::fig11_base().scaled_bandwidth(f)))
    });
    // Mesh: links narrowed to the same fraction — packets serialize into
    // proportionally more flits.
    let mesh =
        fracs.map(|f| SystemConfig::paper_16(NetworkKind::MeshScaled(MeshConfig::nodes(16), f)));
    let (fsoi, mesh) = (sweep(&fsoi, &apps, ops), sweep(&mesh, &apps, ops));
    let mut fsoi_base = 0.0;
    let mut mesh_base = 0.0;
    for (i, &f) in fracs.iter().enumerate() {
        let fsoi_cycles: f64 = fsoi.variant(i).map(|r| r.cycles as f64).sum();
        let mesh_cycles: f64 = mesh.variant(i).map(|r| r.cycles as f64).sum();
        if i == 0 {
            fsoi_base = fsoi_cycles;
            mesh_base = mesh_cycles;
        }
        println!(
            "  {:>9.0}% {:>11.3} {:>11.3}",
            f * 100.0,
            fsoi_base / fsoi_cycles,
            mesh_base / mesh_cycles
        );
    }
    println!("  (paper: both degrade; FSOI is the less sensitive of the two)");
}

// ---------------------------------------------------------------- Table 4

fn table4(scale: u64) {
    header("Table 4: impact of off-chip memory bandwidth (8.8 vs 52.8 GB/s)");
    for nodes in [16usize, 64] {
        println!("  {nodes}-core system");
        println!(
            "  {:<24} {:>10} {:>10}",
            "speedup over mesh", "8.8 GB/s", "52.8 GB/s"
        );
        // One sweep per bandwidth point, the mesh baseline first in each.
        let nets = [
            NetworkKind::mesh(nodes),
            NetworkKind::fsoi(nodes),
            NetworkKind::L0,
            NetworkKind::Lr1,
            NetworkKind::Lr2,
        ];
        let suite = AppProfile::suite();
        let by_bw = [8.8, 52.8].map(|bw| {
            let variants = nets
                .clone()
                .map(|kind| SystemConfig::paper_n(nodes, kind).with_mem_bandwidth(bw));
            sweep(&variants, &suite, quick_ops(nodes) * scale)
        });
        for (net_i, net) in nets.iter().enumerate().skip(1) {
            let cols = by_bw.each_ref().map(|s| {
                let speeds: Vec<f64> = s
                    .variant(0)
                    .zip(s.variant(net_i))
                    .map(|(mesh, r)| mesh.cycles as f64 / r.cycles as f64)
                    .collect();
                geometric_mean(&speeds).unwrap_or(0.0)
            });
            println!("  {:<24} {:>10.2} {:>10.2}", net.name(), cols[0], cols[1]);
        }
    }
    println!("  (paper 16-core FSOI: 1.32 / 1.36; 64-core FSOI: 1.61 / 1.75)");
}

// --------------------------------------------------------------- B_M study

fn bm() {
    header("§4.3.2: meta/data bandwidth allocation — optimum B_M");
    let model = BandwidthAllocationModel::paper_default();
    println!("  {:>6} {:>12}", "B_M", "latency (au)");
    for i in 1..20 {
        let b = i as f64 * 0.05;
        println!("  {b:>6.2} {:>12.3}", model.latency(b));
    }
    println!(
        "  optimum B_M = {:.3} (paper: 0.285) → integer split of 9 VCSELs = {:?} (paper: 3 meta / 6 data)",
        model.optimal_bm(),
        model.integer_split(9)
    );
}

// ------------------------------------------------------------------- §7.3

fn opts(scale: u64) {
    header("§7.3: optimization effectiveness summary");
    let ops = quick_ops(16) * scale;
    let fsoi = fsoi_16(FsoiConfig::nodes(16));
    // Hints: resolution delay and accuracy on a contended app.
    let no_hints = fsoi_16(FsoiConfig::nodes(16).with_hints(false));
    let hints = sweep(&[fsoi.clone(), no_hints], &apps_named(&["mp"]), ops);
    let (with, no_hints) = (hints.at(0, 0), hints.at(1, 0));
    println!(
        "  hint accuracy          = {:.1}%   (paper: 94%)",
        100.0 * with.hint_accuracy
    );
    println!(
        "  wrong-winner rate      = {:.1}%   (paper: 2.3%)",
        100.0 * with.hint_wrong_rate
    );
    println!(
        "  data resolution delay  = {:.1} cycles with hints vs {:.1} without (paper: 29 vs 41)",
        with.data_resolution_delay, no_hints.data_resolution_delay
    );
    // Subscriptions: each sync-heavy app with the §5.1 optimizations on,
    // then off.
    let sync_apps = apps_named(&["ba", "ro", "ray", "ws", "fmm", "ilink", "tsp"]);
    let off = fsoi.clone().with_optimizations(false);
    let sync = sweep(&[fsoi, off], &sync_apps, ops);
    let mut speeds = Vec::new();
    let mut saved = 0u64;
    for (on, off) in sync.variant(0).zip(sync.variant(1)) {
        speeds.push(off.cycles as f64 / on.cycles as f64);
        saved += on.subscription_packets_saved;
    }
    println!(
        "  sync apps speedup from §5.1 = {:.2} (paper: 1.07); packets saved = {saved}",
        geometric_mean(&speeds).unwrap_or(0.0)
    );
}

// ----------------------------------------------------------------- corona

/// §7.1's one-liner: "the system is 1.06 times faster than a corona-style
/// design in a 64-way system."
fn corona(scale: u64) {
    header("§7.1: FSOI vs a corona-style WDM token-ring crossbar (64 nodes)");
    let mut speeds = Vec::new();
    println!(
        "  {:<6} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "app", "fsoi cyc", "ring cyc", "ratio", "fsoi lat", "ring lat"
    );
    let suite = AppProfile::suite();
    let variants = [NetworkKind::fsoi(64), NetworkKind::ring(64)].map(SystemConfig::paper_64);
    let s = sweep(&variants, &suite, quick_ops(64) * scale);
    for (a, app) in suite.iter().enumerate() {
        let (f, r) = (s.at(0, a), s.at(1, a));
        let ratio = r.cycles as f64 / f.cycles as f64;
        speeds.push(ratio);
        println!(
            "  {:<6} {:>10} {:>10} {:>8.3} {:>10.1} {:>10.1}",
            app.name,
            f.cycles,
            r.cycles,
            ratio,
            f.mean_packet_latency(),
            r.mean_packet_latency()
        );
    }
    println!(
        "  geomean FSOI-over-ring speedup = {:.2}  (paper: 1.06)",
        geometric_mean(&speeds).unwrap_or(0.0)
    );
}

// --------------------------------------------------------------------- L1

/// §7.1's "Impact of L1 cache size": with realistic 32 KB L1s the miss
/// rates halve and the FSOI speedup dips (paper: 1.36 → 1.27 at 16 nodes)
/// without changing any qualitative conclusion.
fn l1_sensitivity(scale: u64) {
    header("§7.1: impact of L1 cache size (8 KB scaled vs 32 KB realistic)");
    let sizes = [("8 KB (paper default)", 256usize), ("32 KB", 1024)];
    let suite = AppProfile::suite();
    // One sweep per size: mesh, then FSOI.
    for (label, l1_lines) in sizes {
        let variants = [NetworkKind::mesh(16), NetworkKind::fsoi(16)].map(|kind| SystemConfig {
            l1_lines,
            ..SystemConfig::paper_16(kind)
        });
        let s = sweep(&variants, &suite, quick_ops(16) * scale);
        let mut speeds = Vec::new();
        let mut miss = 0.0;
        for (mesh, fsoi) in s.variant(0).zip(s.variant(1)) {
            speeds.push(mesh.cycles as f64 / fsoi.cycles as f64);
            miss += fsoi.l1_miss_rate;
        }
        println!(
            "  {label:<22}: FSOI speedup gmean {:.2}, avg miss rate {:.1}%",
            geometric_mean(&speeds).unwrap_or(0.0),
            100.0 * miss / suite.len() as f64
        );
    }
    println!("  (paper: 1.36 → 1.27; average miss 4.8% → 3.0%)");
    println!("  NOTE: our synthetic reference process carries little");
    println!("  L1-capacity-sensitive mass (misses are streaming, sharing and");
    println!("  cold accesses), so the dip does not reproduce — a known limit");
    println!("  of substitution 1 in DESIGN.md.");
}

// -------------------------------------------------------------------- BER

/// §4.3.1: "once we accept collisions … the bit error rates of the
/// signaling chain can be relaxed significantly (from 1e-10 to, say,
/// 1e-5) without any tangible impact on performance."
fn ber_relaxation(scale: u64) {
    header("§4.3.1: relaxing the link BER (errors ride the collision machinery)");
    let apps = apps_named(&["ba", "oc", "mp", "fft"]);
    println!(
        "  {:>9} {:>12} {:>14}",
        "BER", "cycles (sum)", "error drops"
    );
    let bers = [1e-10f64, 1e-6, 1e-5, 1e-4];
    // One variant per BER.
    let variants = bers.map(|ber| fsoi_16(FsoiConfig::nodes(16).with_bit_error_rate(ber)));
    let s = sweep(&variants, &apps, quick_ops(16) * scale);
    let mut base = 0.0;
    for (i, &ber) in bers.iter().enumerate() {
        let cycles: u64 = s.variant(i).map(|r| r.cycles).sum();
        let drops: u64 = s.variant(i).map(|r| r.bit_error_drops).sum();
        if base == 0.0 {
            base = cycles as f64;
        }
        println!(
            "  {ber:>9.0e} {cycles:>12} {drops:>14}   (slowdown {:+.2}%)",
            100.0 * (cycles as f64 / base - 1.0)
        );
    }
    println!("  (paper: relaxation to 1e-5 has no tangible performance impact)");
}

// -------------------------------------------------------------- receivers

/// §4.3.1 structuring step 1: "having a few (e.g., 2-3) receivers per
/// node is a good option. Further increasing the number will lead to
/// diminishing returns." Full-system ablation over R = 1..4.
fn receivers(scale: u64) {
    header("§4.3.1: receivers per lane — full-system ablation (R = 1..4)");
    let apps = apps_named(&["mp", "rx", "oc", "ro"]);
    println!(
        "  {:>3} {:>12} {:>12} {:>12}",
        "R", "cycles (sum)", "meta coll%", "data coll%"
    );
    // One variant per receiver count.
    let variants = [1usize, 2, 3, 4].map(|r| {
        let mut lanes = Lanes::paper_default();
        lanes.meta.receivers = r;
        lanes.data.receivers = r;
        fsoi_16(FsoiConfig::nodes(16).with_lanes(lanes))
    });
    let s = sweep(&variants, &apps, quick_ops(16) * scale);
    let mut prev_cycles = 0u64;
    for ri in 0..variants.len() {
        let r = ri + 1;
        let (mut cyc, mut mc, mut dc) = (0u64, 0.0, 0.0);
        for rep in s.variant(ri) {
            cyc += rep.cycles;
            mc += rep.meta_collision_rate;
            dc += rep.data_collision_rate;
        }
        let n = apps.len() as f64;
        let delta = if prev_cycles == 0 {
            String::new()
        } else {
            format!(
                "  ({:+.1}% vs R-1)",
                100.0 * (cyc as f64 / prev_cycles as f64 - 1.0)
            )
        };
        println!(
            "  {r:>3} {cyc:>12} {:>11.2}% {:>11.2}%{delta}",
            100.0 * mc / n,
            100.0 * dc / n
        );
        prev_cycles = cyc;
    }
    println!("  (paper: collisions fall ~1/R; beyond 2-3 receivers, diminishing returns)");
}

// --------------------------------------------------------------- snapshot

/// Dumps the full metric registry for the Figure 6 16-node runs, first as
/// the aligned human-readable table, then as JSONL. Every number in the
/// performance tables flows through `RunReport::export`, so regenerated
/// EXPERIMENTS.md figures and these snapshots can never disagree.
fn snapshot(scale: u64) {
    header("snapshot: metric registry for the Figure 6 16-node runs");
    let variants = [NetworkKind::mesh(16), NetworkKind::fsoi(16)].map(SystemConfig::paper_16);
    let s = sweep(&variants, &AppProfile::suite(), quick_ops(16) * scale);
    let reg = fsoi_cmp::batch::merge_reports(s.reports());
    print!("{}", reg.to_table());
    println!("\n--- JSONL ---");
    print!("{}", reg.to_jsonl());
}

// ------------------------------------------------------------------- grid

/// One cell's exported metric registry as sorted JSONL — the byte-level
/// identity the grid compares across worker counts.
fn cell_export(r: &fsoi_cmp::metrics::RunReport) -> String {
    let mut reg = fsoi_sim::metrics::Registry::new();
    r.export(&mut reg);
    reg.to_jsonl()
}

/// Beyond-the-paper design-space grid (fig6/fig7-style rows at sizes the
/// paper never evaluated): every requested application on every
/// requested network at one node count. Three properties are asserted,
/// not just printed:
///
/// * every cell completes within the cycle bound with positive latency,
///   energy and traffic (the shape class a healthy run must land in);
/// * `nodes > 16` grids use the phase-array transmitter (a dedicated
///   VCSEL per destination stops scaling past 16);
/// * each cell's exported registry is byte-identical across worker
///   counts {1, 2, 8} — the determinism contract, checked at the grid
///   sizes rather than assumed from the 16-node tests.
fn grid(args: &[String]) {
    let mut nodes = 64usize;
    let mut ops_override: Option<u64> = None;
    let mut apps_arg = String::from("ba,oc,mp,fft");
    let mut networks_arg = String::from("fsoi,mesh,ring,crossbar");
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => nodes = take_parsed("grid", args, &mut i),
            "--ops" => ops_override = Some(take_parsed("grid", args, &mut i)),
            "--apps" => apps_arg = take("grid", args, &mut i).into(),
            "--networks" => networks_arg = take("grid", args, &mut i).into(),
            "--out" => out_path = Some(take("grid", args, &mut i).into()),
            "--full" => {}
            other => usage_error("grid", &format!("unknown flag {other}")),
        }
        i += 1;
    }
    // Everything typed is checked here, before any cell is built.
    let max_nodes = fsoi_sim::det::NodeMask::CAPACITY;
    if !(2..=max_nodes).contains(&nodes) {
        usage_error(
            "grid",
            &format!("--nodes must be in 2..={max_nodes}, got {nodes}"),
        );
    }
    if ops_override == Some(0) {
        usage_error("grid", "--ops must be at least 1, got 0");
    }
    let networks: Vec<&str> = networks_arg.split(',').map(str::trim).collect();
    let square = nodes.isqrt().pow(2) == nodes;
    let variants: Vec<SystemConfig> = networks
        .iter()
        .map(|name| {
            let kind_at = |n| {
                NetworkKind::by_name(name, n)
                    .unwrap_or_else(|| usage_error("grid", &format!("unknown network {name:?}")))
            };
            // Asked at the paper's size, which every network takes: a mesh
            // cannot even be configured off a perfect square.
            if !square && kind_at(16).is_grid() {
                usage_error(
                    "grid",
                    &format!("mesh, L0, Lr1 and Lr2 need a perfect-square --nodes, got {nodes}"),
                );
            }
            SystemConfig::paper_n(nodes, kind_at(nodes))
        })
        .collect();
    let apps: Vec<AppProfile> = apps_arg
        .split(',')
        .map(|n| {
            AppProfile::by_name(n.trim())
                .unwrap_or_else(|| usage_error("grid", &format!("unknown app {n:?}")))
        })
        .collect();
    let mut out = out_path.map(|path| OutFile::create("grid", path));
    header(&format!(
        "grid: {nodes}-node design-space grid over {networks_arg}"
    ));
    let ops = ops_override.unwrap_or_else(|| quick_ops(nodes));
    let seed = variants[0].seed;
    if nodes > 16 {
        match NetworkKind::fsoi(nodes) {
            NetworkKind::Fsoi(cfg) => assert!(
                matches!(
                    cfg.array,
                    fsoi_net::config::TransmitterArray::PhaseArray { .. }
                ),
                "grid sizes beyond 16 nodes must select the phase-array transmitter"
            ),
            _ => unreachable!("NetworkKind::fsoi builds an FSOI config"),
        }
    }
    let n_cells = apps.len() * networks.len();
    let thread_counts = [1usize, 2, 8];
    println!(
        "  {} apps x {} networks = {n_cells} cells (ops/core {ops}, seed {seed}); worker counts {thread_counts:?}",
        apps.len(),
        networks.len(),
    );

    let sweeps = thread_counts.map(|t| Sweep::run(&variants, &apps, ops, t));
    let exports = sweeps
        .each_ref()
        .map(|s| s.reports().iter().map(cell_export).collect::<Vec<String>>());
    let byte_identical = exports.iter().all(|e| *e == exports[0]);
    let s = &sweeps[0];

    println!(
        "  {:<6} {:<9} {:>10} {:>9} {:>11} {:>11} {:>9}",
        "app", "network", "cycles", "lat cyc", "net uJ", "total uJ", "packets"
    );
    let mut lines = Vec::new();
    for (ci, (cell, r)) in s.cells().iter().zip(s.reports()).enumerate() {
        let app = cell.app.name;
        let net = cell.config.network.name();
        let packets: u64 = r.packets_sent.iter().sum();
        let lat = r.mean_packet_latency();
        // Shape-class pins: a healthy cell completes inside the cycle
        // bound and reports positive latency, energy and traffic.
        assert!(
            r.cycles > 0 && r.cycles < MAX_CYCLES,
            "cell {ci} ({app}/{net}) did not complete: {} cycles",
            r.cycles
        );
        assert!(
            lat.is_finite() && lat > 0.0,
            "cell {ci} ({app}/{net}) has degenerate latency {lat}"
        );
        assert!(
            r.energy.total_j().is_finite() && r.energy.total_j() > 0.0,
            "cell {ci} ({app}/{net}) has degenerate energy"
        );
        assert!(packets > 0, "cell {ci} ({app}/{net}) moved no packets");
        println!(
            "  {:<6} {:<9} {:>10} {:>9.1} {:>11.2} {:>11.2} {:>9}",
            app,
            net,
            r.cycles,
            lat,
            r.energy.network_j * 1e6,
            r.energy.total_j() * 1e6,
            packets
        );
        lines.push(format!(
            "cell app={app} net={net} cycles={} latency={lat:.3} network_j={:.6e} total_j={:.6e} packets={packets}",
            r.cycles, r.energy.network_j, r.energy.total_j()
        ));
    }
    // Cross-network shape pins, where both baselines are in the grid:
    // the tokenless crossbar always beats Corona on latency (one
    // arbitration cycle vs waiting for the token), and once the radix is
    // large its worst-case-loss laser sizing makes it out-spend Corona
    // by orders of magnitude (the crossover sits between 64 and 256
    // ports: ~17 dB of worst-case loss at 64 is still affordable, ~65 dB
    // at 256 is not).
    let variant_of = |name: &str| networks.iter().position(|n| *n == name);
    if let (Some(crossbar), Some(ring)) = (variant_of("crossbar"), variant_of("ring")) {
        for (app_i, app) in apps.iter().enumerate() {
            assert!(
                s.at(crossbar, app_i).mean_packet_latency()
                    < s.at(ring, app_i).mean_packet_latency(),
                "tokenless crossbar should beat Corona's latency on {} at {nodes} nodes",
                app.name
            );
            if nodes >= 256 {
                assert!(
                    s.at(crossbar, app_i).energy.network_j
                        > 100.0 * s.at(ring, app_i).energy.network_j,
                    "worst-case-loss crossbar should out-spend Corona 100x on {} at {nodes} nodes",
                    app.name
                );
            }
        }
        println!("  ok shape: crossbar beats Corona on latency on every app");
        if nodes >= 256 {
            println!("  ok shape: crossbar network energy exceeds 100x Corona's on every app");
        }
    }
    println!("  ok shape: all {n_cells} cells completed with positive latency, energy and traffic");
    println!("  byte-identical across workers {thread_counts:?}: {byte_identical}");

    if let Some(out) = &mut out {
        let mut summary = String::from("fsoi-grid/v1\n");
        summary.push_str(&format!("nodes {nodes}\n"));
        summary.push_str(&format!("ops_per_core {ops}\n"));
        summary.push_str(&format!("seed {seed}\n"));
        summary.push_str(&format!("networks {}\n", networks.join(",")));
        summary.push_str(&format!(
            "apps {}\n",
            apps.iter().map(|a| a.name).collect::<Vec<_>>().join(",")
        ));
        summary.push_str(&format!(
            "threads {}\n",
            thread_counts.map(|t| t.to_string()).join(",")
        ));
        summary.push_str(&format!("byte_identical {byte_identical}\n"));
        for line in &lines {
            summary.push_str(line);
            summary.push('\n');
        }
        out.write(summary.as_bytes());
        println!("  wrote {}", out.path);
    }
    if !byte_identical {
        eprintln!("grid: FAIL — a cell's export diverged across worker counts");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------- profile

/// Runs the standard 80-cell sweep (16 apps × 5 networks at
/// `quick_16`) and writes the versioned run manifest. Everything before
/// its closing `host` section — config, build, and the `deterministic`
/// span profile, merged-registry size and content hash — is a pure
/// function of the cell list, byte-identical for any `FSOI_THREADS`.
fn profile(args: &[String]) {
    let mut out_path = String::from("RUN_manifest.json");
    let mut det_path: Option<String> = None;
    let mut ops_override: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = take("profile", args, &mut i).into(),
            "--det" => det_path = Some(take("profile", args, &mut i).into()),
            "--ops" => ops_override = Some(take_parsed("profile", args, &mut i)),
            "--full" => {}
            other => usage_error("profile", &format!("unknown flag {other}")),
        }
        i += 1;
    }
    if ops_override == Some(0) {
        usage_error("profile", "--ops must be at least 1, got 0");
    }
    // `--det` first: a bad one then leaves no default manifest behind.
    let mut det = det_path.map(|path| OutFile::create("profile", path));
    let mut out = OutFile::create("profile", out_path);
    header("profile: harness observability over the standard 80-cell sweep");
    let ops = ops_override.unwrap_or_else(|| quick_ops(16));
    let variants = [
        NetworkKind::mesh(16),
        NetworkKind::fsoi(16),
        NetworkKind::L0,
        NetworkKind::Lr1,
        NetworkKind::Lr2,
    ]
    .map(SystemConfig::paper_16);
    let suite = AppProfile::suite();
    let threads = fsoi_sim::par::thread_count();
    println!(
        "  sweep: {} cells (ops/core {ops}, seed {}), {threads} worker threads",
        suite.len() * variants.len(),
        variants[0].seed,
    );
    let s = Sweep::run(&variants, &suite, ops, threads);
    let profile = s.profile();
    let registry = fsoi_cmp::batch::merge_reports(s.reports());

    // The content-addressed identity of the run: the same preimage
    // inputs the cell cache keys on, hashed over every cell in order.
    let mut key_bytes = String::new();
    for cell in s.cells() {
        key_bytes.push_str(&format!("{:?}|{:?}|{MAX_CYCLES}\n", cell.config, cell.app));
    }
    let config_hash = fsoi_cmp::cache::fnv1a64(key_bytes.as_bytes());

    // Deterministic-plane bytes: the span profile plus the merged
    // registry, both in sorted JSONL. `scripts/verify.sh` byte-compares
    // this file across FSOI_THREADS values.
    let det_bytes = format!("{}{}", profile.to_jsonl(), registry.to_jsonl());
    let det_hash = fsoi_cmp::cache::fnv1a64(det_bytes.as_bytes());
    if let Some(det) = &mut det {
        det.write(det_bytes.as_bytes());
        println!("  wrote deterministic-plane export to {}", det.path);
    }

    let manifest = render_manifest(
        &variants,
        ops,
        s.cells().len(),
        config_hash,
        profile,
        registry.len(),
        det_hash,
        threads,
    );
    out.write(manifest.as_bytes());
    println!("  wrote {}\n", out.path);
    println!("deterministic span profile:");
    for line in profile.to_table().lines() {
        println!("  {line}");
    }
}

/// Renders the `fsoi-run-manifest/v3` JSON document (hand-rolled, no
/// JSON dependency; one key per line, stable field order, the `host`
/// section last).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per manifest section"
)]
fn render_manifest(
    variants: &[SystemConfig],
    ops_per_core: u64,
    cells: usize,
    config_hash: u64,
    profile: &fsoi_sim::metrics::Registry,
    registry_metrics: usize,
    det_hash: u64,
    threads: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"fsoi-run-manifest/v3\",\n");
    out.push_str("  \"config\": {\n");
    let _ = writeln!(out, "    \"cells\": {cells},");
    let networks: Vec<&str> = variants.iter().map(|v| v.network.name()).collect();
    // What the variants share (they differ in the network alone).
    let common = &variants[0];
    let optimizations = common.opt_confirmation_acks && common.opt_subscriptions;
    let _ = writeln!(out, "    \"networks\": \"{}\",", networks.join(","));
    let _ = writeln!(out, "    \"nodes\": {},", common.nodes);
    let _ = writeln!(out, "    \"ops_per_core\": {ops_per_core},");
    let _ = writeln!(out, "    \"mem_gb_per_s\": {:?},", common.mem_gb_per_s);
    let _ = writeln!(out, "    \"optimizations\": {optimizations},");
    let _ = writeln!(out, "    \"seed\": {},", common.seed);
    let _ = writeln!(out, "    \"max_cycles\": {MAX_CYCLES},");
    let _ = writeln!(out, "    \"config_hash\": \"{config_hash:016x}\"");
    out.push_str("  },\n");
    // Build identity without reaching for git: the package version and
    // build profile fully identify a released binary, and omitting VCS
    // state keeps the manifest reproducible from a bare source tarball.
    out.push_str("  \"build\": {\n");
    let _ = writeln!(out, "    \"package\": \"{}\",", env!("CARGO_PKG_NAME"));
    let _ = writeln!(out, "    \"version\": \"{}\",", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(out, "    \"debug_assertions\": {}", cfg!(debug_assertions));
    out.push_str("  },\n");
    out.push_str("  \"deterministic\": {\n");
    out.push_str("    \"spans\": {\n");
    let n_spans = profile.len();
    for (i, (path, _)) in profile.iter().enumerate() {
        let comma = if i + 1 == n_spans { "" } else { "," };
        let _ = writeln!(out, "      \"{path}\": {}{comma}", profile.get(path));
    }
    out.push_str("    },\n");
    let _ = writeln!(out, "    \"registry_metrics\": {registry_metrics},");
    let _ = writeln!(out, "    \"det_hash\": \"{det_hash:016x}\"");
    out.push_str("  },\n");
    out.push_str("  \"host\": {\n");
    let _ = writeln!(out, "    \"threads\": {threads},");
    let _ = writeln!(out, "    \"host_cpus\": {}", host_cpus());
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// The host's available parallelism (1 when undeterminable).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ------------------------------------------------------------------ seeds

/// Robustness check: the Figure 6 headline (FSOI speedup geomean) across
/// independent seeds — the reproduction's claims must not be seed
/// artifacts.
fn seed_stability(scale: u64) {
    header("seed stability: Figure 6 FSOI speedup geomean across seeds");
    let seeds = [2010u64, 7, 42, 1234, 99999];
    // One sweep of every seed's cells: per seed, the mesh then FSOI.
    let variants: Vec<SystemConfig> = seeds
        .iter()
        .flat_map(|&seed| {
            [NetworkKind::mesh(16), NetworkKind::fsoi(16)]
                .map(|kind| SystemConfig::paper_16(kind).with_seed(seed))
        })
        .collect();
    let s = sweep(&variants, &AppProfile::suite(), quick_ops(16) * scale);
    let mut gmeans = Vec::new();
    for (si, seed) in seeds.iter().enumerate() {
        let (mesh, fsoi) = (2 * si, 2 * si + 1);
        let speeds: Vec<f64> = s
            .variant(mesh)
            .zip(s.variant(fsoi))
            .map(|(m, f)| m.cycles as f64 / f.cycles as f64)
            .collect();
        let g = geometric_mean(&speeds).unwrap_or(0.0);
        println!("  seed {seed:>6}: gmean {g:.3}");
        gmeans.push(g);
    }
    let mean = gmeans.iter().sum::<f64>() / gmeans.len() as f64;
    let var = gmeans.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gmeans.len() as f64;
    println!(
        "  across seeds: {mean:.3} ± {:.3} (paper: 1.36; claims are stable, not seed artifacts)",
        var.sqrt()
    );
}
