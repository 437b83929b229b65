//! End-to-end contract of the `FSOI_CACHE` cell cache through the
//! public batch entry point. (This binary owns the `FSOI_CACHE` env
//! var: nothing else in it — and no other test binary — reads or writes
//! the knob, so the serial `set_var`/`remove_var` dance here cannot race
//! another test.)

use fsoi_bench::runner::MAX_CYCLES;
use fsoi_cmp::batch::{merge_reports, run_batch, BatchCell};
use fsoi_cmp::cache::{CacheMiss, CellCache};
use fsoi_cmp::configs::{NetworkKind, SystemConfig};
use fsoi_cmp::workload::AppProfile;
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
    // all hits — same bytes both times, one entry file per cell. Before
    // each run, `lookup` names the outcome every cell is about to meet.
    let dir = cache_dir("cell_cache_smoke");
    let cache = CellCache::at(&dir);
    let lookup = |c: &BatchCell| cache.lookup(&c.config, &c.app, MAX_CYCLES).err();
    std::env::set_var("FSOI_CACHE", &dir);
    for c in &cells {
        assert_eq!(lookup(c), Some(CacheMiss::Absent), "the fill run misses");
    }
    let fill = export(&cells, 2);
    assert_eq!(fill, cold, "cache fill must not change the export");
    let entries = || {
        std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0)
    };
    assert_eq!(entries(), cells.len(), "one cache entry per distinct cell");
    for c in &cells {
        assert_eq!(lookup(c), None, "the warm run hits");
    }
    let hits = export(&cells, 2);
    assert_eq!(hits, cold, "cache hits must reproduce the cold bytes");
    assert_eq!(entries(), cells.len(), "a hit run writes nothing new");

    // Prove hits really come from disk: rewrite one entry with another
    // entry's *payload* while keeping its own preimage line, and the
    // tampered report must surface in the next run. (Swapping whole
    // files would trip the preimage check and fall back to a cold run.)
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
    assert_eq!(lookup(a), None, "a swapped payload still checks: a hit");
    let swapped = export(&cells, 1);
    assert_ne!(
        swapped, cold,
        "a tampered cache entry must be visible — otherwise hits were not read from disk"
    );

    // Corrupt the same entry into garbage: the preimage check rejects
    // it as tampering (preimage mismatch), the cell falls back to a cold
    // run, and the export heals.
    std::fs::write(path_of(a), "not a cache entry\n").expect("corrupt cache entry");
    assert_eq!(
        lookup(a),
        Some(CacheMiss::Tamper),
        "a preimage mismatch is tampering"
    );
    let healed = export(&cells, 1);
    assert_eq!(healed, cold, "corrupt entries must fall back to cold runs");
    assert_eq!(lookup(a), None, "the cold run heals the entry");

    // Keep the preimage line but garble the payload: the preimage check
    // passes, the wire parse fails, and the miss is corruption — not
    // tampering — while the run heals the entry again.
    let garbled = format!("{}\nnot wire format\n", preimage_line(&path_of(a)));
    std::fs::write(path_of(a), garbled).expect("garble cache payload");
    assert_eq!(
        lookup(a),
        Some(CacheMiss::Corrupt),
        "a wire-parse failure under an intact preimage is corruption"
    );
    let reheal = export(&cells, 1);
    assert_eq!(reheal, cold, "garbled payloads must fall back to cold runs");

    // Rot one digit of `cycles` in place: the preimage is intact and the
    // wire text still parses, so only the payload's sum line can tell —
    // the entry must read as corrupt, not be served as a hit.
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
    assert_eq!(
        lookup(a),
        Some(CacheMiss::Corrupt),
        "a sum mismatch is corruption"
    );
    let unrotted = export(&cells, 1);
    assert_eq!(
        unrotted, cold,
        "a rotted digit must fall back to a cold run"
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
