//! The tentpole determinism property: a sweep executed on the parallel
//! executor, merged by the deterministic index-keyed reduction, exports
//! byte-identically to the serial fold — for any thread count and any
//! sweep shape, including empty and single-cell sweeps.

use fsoi_bench::runner::{Sweep, MAX_CYCLES};
use fsoi_check::{checker, select, vec_of};
use fsoi_cmp::batch::{merge_reports, run_batch, BatchCell};
use fsoi_cmp::cache::CellCache;
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::metrics::RunReport;
use fsoi_cmp::workload::AppProfile;
use fsoi_sim::par;

/// Small per-cell workload: property cases run many sweeps in debug.
const TINY_OPS: u64 = 30;

fn variant(net: &str, nodes: usize, seed: u64) -> SystemConfig {
    let kind = NetworkKind::by_name(net, nodes).expect("a network name");
    SystemConfig::paper_n(nodes, kind).with_seed(seed)
}

/// App-major cells: every named app, at `ops` operations per core, on
/// every variant.
fn cells_for(app_names: &[&str], variants: &[SystemConfig], ops: u64) -> Vec<BatchCell> {
    app_names
        .iter()
        .flat_map(|a| {
            let mut app = AppProfile::by_name(a).expect("suite app");
            app.ops_per_core = ops;
            variants
                .iter()
                .map(move |config| BatchCell::new(config.clone(), app))
        })
        .collect()
}

fn batch_bytes(cells: &[BatchCell], threads: usize) -> String {
    merge_reports(&run_batch(cells, threads, MAX_CYCLES)).to_jsonl()
}

/// The cold serial reference: each cell built and run on its own.
fn cold_bytes(cells: &[BatchCell]) -> String {
    let cold: Vec<RunReport> = cells.iter().map(|c| c.run_cold(MAX_CYCLES)).collect();
    merge_reports(&cold).to_jsonl()
}

/// fsoi-check property: for random sweep shapes (including empty and
/// single-cell), random seeds and random thread counts, the merged
/// parallel export is byte-identical to the serial fold.
#[test]
fn merged_parallel_export_matches_serial_fold() {
    let apps: Vec<&'static str> = AppProfile::suite().iter().map(|a| a.name).collect();
    let nets: &[&'static str] = &["fsoi", "mesh", "L0"];
    checker!().cases(5).check(
        "merged_parallel_export_matches_serial_fold",
        (
            vec_of(select(&apps), 0..4),
            vec_of(select(nets), 0..3),
            0u64..1_000,
            select(&[2usize, 3, 8]),
        ),
        |(app_names, net_names, seed, threads)| {
            let variants: Vec<SystemConfig> = net_names
                .iter()
                .map(|n| variant(n, 16, 3_000 + *seed))
                .collect();
            let cells = cells_for(app_names, &variants, TINY_OPS);
            let serial = run_batch(&cells, 1, MAX_CYCLES);
            let expected = merge_reports(&serial).to_jsonl();
            let parallel = run_batch(&cells, *threads, MAX_CYCLES);
            let cycles = |rs: &[RunReport]| -> Vec<u64> { rs.iter().map(|r| r.cycles).collect() };
            assert_eq!(
                cycles(&parallel),
                cycles(&serial),
                "reports must come back in cell order"
            );
            assert_eq!(
                merge_reports(&parallel).to_jsonl(),
                expected,
                "merged export must be byte-identical ({} cells, {} threads)",
                cells.len(),
                threads
            );
        },
    );
}

/// `Sweep` indexing: for random shapes — no variants, no apps, seed
/// variants of one network — `at(v, a)` is
/// the report of exactly that (variant, app) cell: it exports the bytes
/// of the cell's own cold run, at any thread count.
#[test]
fn sweep_at_is_that_cells_cold_run() {
    let apps: Vec<AppProfile> = AppProfile::suite();
    let nets: &[&'static str] = &["fsoi", "mesh"];
    let export = |r: &RunReport| merge_reports(std::slice::from_ref(r)).to_jsonl();
    checker!().cases(4).check(
        "sweep_at_is_that_cells_cold_run",
        (
            vec_of((select(nets), 0u64..2), 0..4),
            vec_of(select(&apps), 0..5),
            select(&[1usize, 2, 8]),
        ),
        |(variants, apps, threads)| {
            let variants: Vec<SystemConfig> = variants
                .iter()
                .map(|(net, seed)| variant(net, 16, 500 + seed))
                .collect();
            let sweep = Sweep::run(&variants, apps, TINY_OPS, *threads);
            assert_eq!(sweep.reports().len(), variants.len() * apps.len());
            for (v, config) in variants.iter().enumerate() {
                assert_eq!(sweep.variant(v).count(), apps.len());
                for (a, app) in apps.iter().enumerate() {
                    let mut app = *app;
                    app.ops_per_core = TINY_OPS;
                    let cold = BatchCell::new(config.clone(), app).run_cold(MAX_CYCLES);
                    assert_eq!(export(sweep.at(v, a)), export(&cold), "at({v}, {a})");
                    let from_variant = sweep.variant(v).nth(a).expect("one report per app");
                    assert_eq!(export(from_variant), export(&cold), "variant({v})[{a}]");
                }
            }
        },
    );
}

/// Pinned acceptance test: the same-seed sweep export is byte-identical
/// for thread counts 1, 2 and 8.
#[test]
fn sweep_output_byte_identical_across_thread_counts() {
    let variants = [variant("fsoi", 16, 2010), variant("mesh", 16, 2010)];
    let cells = cells_for(&["ba", "mp", "fft", "oc"], &variants, 200);
    let serial = batch_bytes(&cells, 1);
    assert!(!serial.is_empty(), "the serial export carries metrics");
    for threads in [2usize, 8] {
        assert_eq!(batch_bytes(&cells, threads), serial, "threads = {threads}");
    }
}

/// Empty and single-cell sweeps are valid degenerate shapes.
#[test]
fn empty_and_single_cell_sweeps_merge() {
    assert_eq!(batch_bytes(&[], 8), "");
    let one = cells_for(&["tsp"], &[variant("fsoi", 16, 2010)], TINY_OPS);
    let serial = batch_bytes(&one, 1);
    let parallel = batch_bytes(&one, 8);
    assert!(!serial.is_empty());
    assert_eq!(parallel, serial);
}

/// Fills an explicit cache directory serially, then reruns threaded:
/// every cell is a hit, and the merged bytes must stay `cold`. (Explicit,
/// because the `FSOI_CACHE` env var belongs to the cell_cache test
/// binary, not this one.)
fn assert_cached_path_matches(cells: &[BatchCell], cold: &str, dir_name: &str) {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CellCache::at(&dir);
    let run_cached = |threads: usize| {
        let reports = par::sweep(cells.len(), threads, |i| {
            cache.run_or(&cells[i].config, &cells[i].app, MAX_CYCLES, || {
                cells[i].run_cold(MAX_CYCLES)
            })
        });
        merge_reports(&reports).to_jsonl()
    };
    assert_eq!(run_cached(1), cold, "cold fill through the cache");
    for threads in [2usize, 8] {
        assert_eq!(
            run_cached(threads),
            cold,
            "cache-hit path, threads = {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch of seed variants and a cache-hit batch of the same cells both
/// export the exact bytes of a cold serial run, for thread counts 1, 2
/// and 8.
#[test]
fn seed_variant_batch_and_cache_match_the_cold_bytes() {
    // Three seeds of the same (config, app) cells, plus one odd cell.
    let mut cells: Vec<BatchCell> = Vec::new();
    for seed in [2010, 2011, 2012] {
        let variants = [variant("fsoi", 16, seed), variant("mesh", 16, seed)];
        cells.extend(cells_for(&["mp"], &variants, TINY_OPS));
    }
    cells.extend(cells_for(&["fft"], &[variant("L0", 16, 7)], TINY_OPS));

    let cold = cold_bytes(&cells);
    assert!(!cold.is_empty(), "the cold export carries metrics");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            batch_bytes(&cells, threads),
            cold,
            "batch path, threads = {threads}"
        );
    }
    assert_cached_path_matches(&cells, &cold, "par_merge_cache");
}

/// The multi-word-mask acceptance pin: a 256-node sweep — every sharer
/// mask, slot table and occupancy bitmask exercising all four `NodeMask`
/// words — through the batch and the cache still exports the cold serial
/// bytes at thread counts 1, 2 and 8.
#[test]
fn seed_variant_256_node_batch_and_cache_match_the_cold_bytes() {
    // Two seed variants per (config, app) pair; fsoi and crossbar cover
    // the two newly-scaled network families.
    let mut cells: Vec<BatchCell> = Vec::new();
    for seed in [2010, 2011] {
        let variants = [variant("fsoi", 256, seed), variant("crossbar", 256, seed)];
        cells.extend(cells_for(&["mp"], &variants, 8));
    }

    let cold = cold_bytes(&cells);
    assert!(!cold.is_empty(), "the cold export carries metrics");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            batch_bytes(&cells, threads),
            cold,
            "batch path, threads = {threads}"
        );
    }
    assert_cached_path_matches(&cells, &cold, "par_merge_cache_256");
}

/// Poison-recovery regression at the batch layer: a panic inside one
/// cell must propagate to the caller (never wedge the sweep — the
/// pre-recovery failure mode was every surviving worker unwinding on a
/// poisoned queue), and the very next sweep over the same cells must
/// still export the exact serial bytes.
#[test]
fn panicking_cell_propagates_and_the_next_sweep_is_exact() {
    let variants = [variant("fsoi", 16, 99), variant("mesh", 16, 99)];
    let cells = cells_for(&["ba", "mp", "fft", "oc"], &variants, TINY_OPS);
    let expected = batch_bytes(&cells, 1);
    for round in 0..3 {
        let poisoned = std::panic::catch_unwind(|| {
            par::sweep(cells.len(), 4, |i| {
                if i == 3 {
                    panic!("seeded cell failure, round {round}");
                }
                cells[i].run_cold(MAX_CYCLES)
            })
        });
        let payload = poisoned.expect_err("the cell panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("seeded cell failure"),
            "the original payload survives: {msg:?}"
        );
        assert_eq!(
            batch_bytes(&cells, 4),
            expected,
            "sweep after a poisoned round {round}"
        );
    }
}

/// The `FSOI_THREADS` knob selects the default worker count without
/// changing a single output byte. (This test owns the env var: nothing
/// else in this binary reads it.)
#[test]
fn fsoi_threads_knob_is_not_observable_in_output() {
    // Two seeds of the same cells.
    let variants = [variant("fsoi", 16, 77), variant("fsoi", 16, 78)];
    let cells = cells_for(&["mp", "rx"], &variants, TINY_OPS);
    let expected = batch_bytes(&cells, 1);
    for knob in ["1", "2", "8"] {
        std::env::set_var("FSOI_THREADS", knob);
        assert_eq!(par::thread_count().to_string(), knob);
        let reports = par::sweep(cells.len(), par::thread_count(), |i| {
            cells[i].run_cold(MAX_CYCLES)
        });
        assert_eq!(
            merge_reports(&reports).to_jsonl(),
            expected,
            "FSOI_THREADS={knob}"
        );
        assert_eq!(
            batch_bytes(&cells, par::thread_count()),
            expected,
            "batch path, FSOI_THREADS={knob}"
        );
    }
    std::env::remove_var("FSOI_THREADS");
}
