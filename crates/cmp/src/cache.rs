//! Content-addressed cell cache: `(config, app, max_cycles) → RunReport`.
//!
//! Sweeps re-run identical cells constantly — re-plotting a figure,
//! re-gating a benchmark, extending a seed study — and every such cell is
//! a pure function of its inputs: the simulator is deterministic by
//! construction (seeded RNGs, no wall clock, index-keyed reductions), so
//! `CmpSystem::new(cfg, app).run(max)` always produces the same
//! `RunReport` for the same `(cfg, app, max)`. That makes the tuple a
//! sound cache key, and the cache a pure memoization: a hit returns the
//! exact bytes a cold run would have produced (pinned by the
//! byte-identity tests in `fsoi-bench`).
//!
//! The key is content-addressed, not positional: the full `Debug`
//! rendering of the config and app (every field, including the seed)
//! plus `max_cycles` forms a *preimage* string, and its FNV-1a hash
//! names the cache file. The preimage is stored in the file and verified
//! on every load, and the report's wire text is followed by its own
//! FNV-1a sum, so a hash collision, a stale file or a rotted byte degrades
//! to a miss — the cache can go slow, never wrong.
//!
//! Enabled via the documented `FSOI_CACHE` knob (the cache directory);
//! unset or empty disables caching entirely. All filesystem failures are
//! swallowed: a read-only or vanished directory costs performance, not
//! correctness.

use crate::configs::SystemConfig;
use crate::metrics::RunReport;
use crate::workload::AppProfile;
use fsoi_sim::telemetry;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag for the preimage/wire layout; bump on any change to the
/// `Debug` shape of the key types or the wire format so stale entries
/// miss instead of misparsing. v2: `RunReport` gained a trailing
/// `profile` wire line. v3: the profile gained the `coh/dir/*` spans, which
/// a v2 entry lacks. v4: the payload ends with a `sum` line over the wire
/// text. v5: the wire text is two `Registry::to_wire` blocks under an
/// `app`/`network` header.
const FORMAT: &str = "fsoi-cell/v5";

/// Distinguishes concurrent writers' temp files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory of cached cell reports.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// The cache configured by the `FSOI_CACHE` knob: the value is the
    /// cache directory. Unset or empty means "no cache".
    pub fn from_env() -> Option<CellCache> {
        #[expect(clippy::disallowed_methods, reason = "D2: FSOI_CACHE knob")]
        match std::env::var("FSOI_CACHE") {
            Ok(dir) if !dir.trim().is_empty() => Some(CellCache::at(dir)),
            _ => None,
        }
    }

    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> CellCache {
        CellCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Returns the cached report for `(cfg, app, max_cycles)` if present
    /// and intact, else runs `cold`, stores its result (best-effort) and
    /// returns it. Hits are byte-identical to what `cold` would produce
    /// because the simulator is deterministic and the wire format is
    /// bit-exact.
    pub fn run_or(
        &self,
        cfg: &SystemConfig,
        app: &AppProfile,
        max_cycles: u64,
        cold: impl FnOnce() -> RunReport,
    ) -> RunReport {
        let preimage = preimage(cfg, app, max_cycles);
        let path = self.entry_path(&preimage);
        if let Some(report) = load(&path, &preimage) {
            telemetry::cache_hit();
            return report;
        }
        telemetry::cache_miss();
        let report = cold();
        store(&path, &preimage, &report);
        report
    }

    /// Whether an intact entry for `(cfg, app, max_cycles)` exists.
    pub fn contains(&self, cfg: &SystemConfig, app: &AppProfile, max_cycles: u64) -> bool {
        let preimage = preimage(cfg, app, max_cycles);
        load(&self.entry_path(&preimage), &preimage).is_some()
    }

    /// The on-disk path the entry for `(cfg, app, max_cycles)` uses —
    /// lets tests inspect and tamper with specific entries.
    pub fn entry_path_for(&self, cfg: &SystemConfig, app: &AppProfile, max_cycles: u64) -> PathBuf {
        self.entry_path(&preimage(cfg, app, max_cycles))
    }

    /// File path for a preimage: `<dir>/<fnv1a64 hex>.cell`.
    fn entry_path(&self, preimage: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.cell", fnv1a64(preimage.as_bytes())))
    }
}

/// The cache key preimage: a format tag plus the full `Debug` rendering
/// of every input the simulation depends on. `SystemConfig` includes the
/// seed and the network variant (with its nested config); `AppProfile`
/// includes every workload parameter; `max_cycles` bounds the run.
/// Nothing else reaches the simulator, so equal preimages imply equal
/// reports.
fn preimage(cfg: &SystemConfig, app: &AppProfile, max_cycles: u64) -> String {
    format!("{FORMAT}|{cfg:?}|{app:?}|{max_cycles}")
}

/// FNV-1a 64-bit hash — stable across platforms and processes (unlike
/// `std` hashers, which are seeded per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The line that closes a stored payload: the FNV-1a sum of the wire text
/// before it. A wire text that still parses after a digit rotted would
/// otherwise be served as a hit.
fn sum_line(wire: &str) -> String {
    format!("sum {:016x}\n", fnv1a64(wire.as_bytes()))
}

/// Loads and verifies one entry; any damage or mismatch is a miss.
/// Rejections are counted in the cache-telemetry plane: a preimage
/// mismatch (tampered, stale-format or hash-collided entry) bumps the
/// tamper counter; a payload whose sum does not match or whose wire text
/// does not parse (truncated or corrupted) bumps the corruption counter.
fn load(path: &Path, preimage: &str) -> Option<RunReport> {
    let text = fs::read_to_string(path).ok()?;
    let (stored_preimage, payload) = text.split_once('\n')?;
    if stored_preimage != preimage {
        telemetry::cache_tamper();
        return None; // hash collision or stale format — never trust it
    }
    let report = payload
        .rfind("\nsum ")
        .map(|at| payload.split_at(at + 1))
        .filter(|(wire, sum)| *sum == sum_line(wire))
        .and_then(|(wire, _)| RunReport::from_wire(wire));
    if report.is_none() {
        telemetry::cache_corrupt();
    }
    report
}

/// Stores one entry atomically (write-to-temp, rename). Best-effort: any
/// failure leaves the cache without the entry and the run unaffected.
fn store(path: &Path, preimage: &str, report: &RunReport) {
    let Some(dir) = path.parent() else { return };
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!(
        "w{}-{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let wire = report.to_wire();
    let entry = format!("{preimage}\n{wire}{}", sum_line(&wire));
    if fs::write(&tmp, entry).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    if fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchCell;
    use crate::configs::{NetworkKind, SystemConfig};
    use crate::workload::AppProfile;
    use std::sync::atomic::AtomicUsize;

    fn tmp_dir(tag: &str) -> PathBuf {
        #[expect(clippy::disallowed_methods, reason = "D2: a test's scratch directory")]
        let dir =
            std::env::temp_dir().join(format!("fsoi-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cell(seed: u64) -> BatchCell {
        let mut app = AppProfile::suite()[0];
        app.ops_per_core = 40;
        BatchCell {
            config: SystemConfig::paper_16(NetworkKind::fsoi(16)).with_seed(seed),
            app,
        }
    }

    #[test]
    fn hit_returns_the_cold_bytes_without_rerunning() {
        let cache = CellCache::at(tmp_dir("hit"));
        let cell = tiny_cell(7);
        let runs = AtomicUsize::new(0);
        let run = || {
            cache.run_or(&cell.config, &cell.app, 1_000_000, || {
                runs.fetch_add(1, Ordering::SeqCst);
                cell.run_cold(1_000_000)
            })
        };
        let cold = run();
        let hit = run();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "second call must hit");
        assert_eq!(hit.registry().to_jsonl(), cold.registry().to_jsonl());
        assert_eq!(hit.to_wire(), cold.to_wire());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn distinct_seeds_and_budgets_get_distinct_entries() {
        let cache = CellCache::at(tmp_dir("keys"));
        let a = tiny_cell(1);
        let b = tiny_cell(2);
        let ra = cache.run_or(&a.config, &a.app, 1_000_000, || a.run_cold(1_000_000));
        let rb = cache.run_or(&b.config, &b.app, 1_000_000, || b.run_cold(1_000_000));
        assert_ne!(ra.to_wire(), rb.to_wire(), "seed must be part of the key");
        assert!(cache.contains(&a.config, &a.app, 1_000_000));
        assert!(!cache.contains(&a.config, &a.app, 999_999));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_fall_back_to_a_cold_run() {
        let cache = CellCache::at(tmp_dir("corrupt"));
        let cell = tiny_cell(3);
        let cold = cache.run_or(&cell.config, &cell.app, 1_000_000, || {
            cell.run_cold(1_000_000)
        });
        // Truncate every entry: preimage check / wire parse must fail
        // closed and rerun instead of returning garbage.
        for entry in fs::read_dir(cache.dir()).expect("cache dir exists") {
            let path = entry.expect("dir entry").path();
            fs::write(&path, "fsoi-cell/v1|bogus\n").expect("truncate entry");
        }
        let again = cache.run_or(&cell.config, &cell.app, 1_000_000, || {
            cell.run_cold(1_000_000)
        });
        assert_eq!(again.to_wire(), cold.to_wire());
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// Lines `Registry::from_wire` must refuse, arriving under a valid
    /// preimage and a valid `sum` (appended to the profile registry, which
    /// has no fixed shape to catch them): each is a miss counted as
    /// corruption, never a panic and never a hit — debug and release alike.
    #[test]
    fn malformed_registry_lines_are_corrupt_misses() {
        let dir = tmp_dir("malformed");
        fs::create_dir_all(&dir).expect("scratch dir");
        let cell = tiny_cell(5);
        let report = cell.run_cold(1_000_000);
        let wire = report.to_wire();
        let preimage = preimage(&cell.config, &cell.app, 1_000_000);
        let path = dir.join("entry.cell");
        // The entry with one more profile line, announced in the count and
        // covered by the sum, so that only the line itself can be wrong.
        let (spans, announced) = (report.profile.len(), report.profile.len() + 1);
        let patched = wire.replacen(
            &format!("profile {spans}\n"),
            &format!("profile {announced}\n"),
            1,
        );
        assert_ne!(patched, wire);
        let load_with = |line: &str| {
            let wire = format!("{patched}{line}\n");
            let entry = format!("{preimage}\n{wire}{}", sum_line(&wire));
            fs::write(&path, entry).expect("write entry");
            load(&path, &preimage)
        };
        assert!(
            load_with("counter extra/span 1").is_some(),
            "control: a well-formed extra span is a hit"
        );
        let s5 = "0 0000000000000000 0000000000000000 7ff0000000000000 fff0000000000000";
        for bad in [
            "counter a{b:1 1",
            "counter a\tb 1",
            "counter a 1 2",
            "counter a",
            "counter sim/ticks 1",
            &format!("histogram h 0 0 {s5} 1"),
            &format!("histogram h 10 0 {s5}"),
            &format!("summary s {s5} 0"),
        ] {
            let before = telemetry::cache_stats().corrupt;
            assert!(load_with(bad).is_none(), "{bad:?} served as a hit");
            assert!(telemetry::cache_stats().corrupt > before, "{bad:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a64_is_stable() {
        // Reference vectors for the standard FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn from_env_requires_a_nonempty_value() {
        // Only inspects the (unset-by-default) knob; the env-mutating
        // positive path lives in the dedicated `cell_cache` integration
        // test binary to avoid races with other tests.
        #[expect(clippy::disallowed_methods, reason = "D2: skips if FSOI_CACHE is set")]
        if std::env::var("FSOI_CACHE").is_err() {
            assert!(CellCache::from_env().is_none());
        }
    }
}
