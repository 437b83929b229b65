//! End-to-end contract of the `FSOI_CACHE` cell cache through the
//! public batch entry point. (This binary owns the `FSOI_CACHE` env
//! var: nothing else in it — and no other test binary — reads or writes
//! the knob, so the serial `set_var`/`remove_var` dance here cannot race
//! another test.)

use fsoi_bench::runner::MAX_CYCLES;
use fsoi_cmp::batch::{merge_reports, run_batch, BatchCell};
use fsoi_cmp::cache::CellCache;
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::workload::AppProfile;
use fsoi_sim::telemetry;
use std::path::PathBuf;

fn cache_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_cells(seed: u64) -> Vec<BatchCell> {
    ["mp", "fft"]
        .iter()
        .flat_map(|a| {
            let mut app = AppProfile::by_name(a).expect("suite app");
            app.ops_per_core = 30;
            [NetworkKind::fsoi(16), NetworkKind::mesh(16)]
                .map(|kind| BatchCell::new(SystemConfig::paper_16(kind).with_seed(seed), app))
        })
        .collect()
}

/// The merged export of one batch run.
fn export(cells: &[BatchCell], threads: usize) -> String {
    merge_reports(&run_batch(cells, threads, MAX_CYCLES)).to_jsonl()
}

/// The one test: a single `#[test]` keeps every use of the env var on
/// one thread. Sub-scenarios run in sequence against fresh cache dirs.
#[test]
fn fsoi_cache_knob_end_to_end() {
    let cells = tiny_cells(2010);
    std::env::remove_var("FSOI_CACHE");
    let cold = export(&cells, 1);
    assert!(!cold.is_empty(), "the cold export carries metrics");

    // Enabled knob: the first batch fills the cache, the second batch is
    // all hits — same bytes both times, one entry file per cell. Cache
    // outcome telemetry is always-on (no `set_enabled` needed) and must
    // track each scenario.
    let t0 = telemetry::cache_stats();
    let dir = cache_dir("cell_cache_smoke");
    std::env::set_var("FSOI_CACHE", &dir);
    let fill = export(&cells, 2);
    assert_eq!(fill, cold, "cache fill must not change the export");
    let entries = || {
        std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0)
    };
    assert_eq!(entries(), cells.len(), "one cache entry per distinct cell");
    assert_eq!(
        telemetry::cache_stats().misses,
        t0.misses + cells.len() as u64,
        "the fill run counts one miss per cell"
    );
    let hits = export(&cells, 2);
    assert_eq!(hits, cold, "cache hits must reproduce the cold bytes");
    assert_eq!(entries(), cells.len(), "a hit run writes nothing new");
    assert_eq!(
        telemetry::cache_stats().hits,
        t0.hits + cells.len() as u64,
        "the warm run counts one hit per cell"
    );

    // Prove hits really come from disk: rewrite one entry with another
    // entry's *payload* while keeping its own preimage line, and the
    // tampered report must surface in the next run. (Swapping whole
    // files would trip the preimage check and fall back to a cold run.)
    let cache = CellCache::at(&dir);
    let a = &cells[0];
    let b = &cells[1];
    let path_of = |c: &BatchCell| cache.entry_path_for(&c.config, &c.app, MAX_CYCLES);
    let preimage_line = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).expect("cache entry readable");
        text.split_once('\n')
            .expect("entry has a preimage line")
            .0
            .to_string()
    };
    let payload = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).expect("cache entry readable");
        text.split_once('\n')
            .expect("entry has a preimage line")
            .1
            .to_string()
    };
    let tampered = format!("{}\n{}", preimage_line(&path_of(a)), payload(&path_of(b)));
    std::fs::write(path_of(a), tampered).expect("tamper cache entry");
    let swapped = export(&cells, 1);
    assert_ne!(
        swapped, cold,
        "a tampered cache entry must be visible — otherwise hits were not read from disk"
    );

    // Corrupt the same entry into garbage: the preimage check rejects
    // it, the cell falls back to a cold run, and the export heals. The
    // rejection lands in the tamper counter (preimage mismatch).
    let before_tamper = telemetry::cache_stats();
    std::fs::write(path_of(a), "not a cache entry\n").expect("corrupt cache entry");
    let healed = export(&cells, 1);
    assert_eq!(healed, cold, "corrupt entries must fall back to cold runs");
    assert_eq!(
        telemetry::cache_stats().tamper,
        before_tamper.tamper + 1,
        "a preimage mismatch must increment the tamper counter"
    );

    // Keep the preimage line but garble the payload: the preimage check
    // passes, the wire parse fails, and the corruption counter — not the
    // tamper counter — records it while the run heals the entry again.
    let before_corrupt = telemetry::cache_stats();
    let garbled = format!("{}\nnot wire format\n", preimage_line(&path_of(a)));
    std::fs::write(path_of(a), garbled).expect("garble cache payload");
    let reheal = export(&cells, 1);
    assert_eq!(reheal, cold, "garbled payloads must fall back to cold runs");
    let after_corrupt = telemetry::cache_stats();
    assert_eq!(
        after_corrupt.corrupt,
        before_corrupt.corrupt + 1,
        "a wire-parse failure must increment the corruption counter"
    );
    assert_eq!(
        after_corrupt.tamper, before_corrupt.tamper,
        "an intact preimage must not count as tampering"
    );

    // Rot one digit of `cycles` in place: the preimage is intact and the
    // wire text still parses, so only the payload's sum line can tell —
    // the entry must read as corrupt, not be served as a hit.
    let before_rot = telemetry::cache_stats();
    let intact = std::fs::read_to_string(path_of(a)).expect("cache entry readable");
    let line_at = intact
        .find("\ncounter cmp.cycles{")
        .expect("the wire text has a cycles line");
    let digit_at = line_at + intact[line_at..].find("} ").expect("labels end") + "} ".len();
    let mut rotted = intact.clone().into_bytes();
    rotted[digit_at] = if rotted[digit_at] == b'9' {
        b'8'
    } else {
        rotted[digit_at] + 1
    };
    std::fs::write(path_of(a), rotted).expect("rot cache entry");
    let unrotted = export(&cells, 1);
    assert_eq!(
        unrotted, cold,
        "a rotted digit must fall back to a cold run"
    );
    assert_eq!(
        telemetry::cache_stats().corrupt,
        before_rot.corrupt + 1,
        "a sum mismatch must increment the corruption counter"
    );
    assert_eq!(
        std::fs::read_to_string(path_of(a)).expect("cache entry readable"),
        intact,
        "the cold run must heal the entry"
    );

    // An empty knob value disables the cache entirely.
    std::env::set_var("FSOI_CACHE", "");
    assert!(
        CellCache::from_env().is_none(),
        "an empty knob must disable the cache"
    );
    let off = export(&cells, 1);
    assert_eq!(off, cold);

    std::env::remove_var("FSOI_CACHE");
    let _ = std::fs::remove_dir_all(&dir);
}
