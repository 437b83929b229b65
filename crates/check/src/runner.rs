//! The property runner: deterministic seeding, greedy shrinking, and
//! persistent regression seeds.
//!
//! # Seeding model
//!
//! Every property gets its own case-seed stream:
//!
//! ```text
//! per-test stream seed = base_seed XOR fnv1a64(test name)
//! case seeds           = SplitMix64(stream seed) . next_u64(), repeated
//! value generation     = Xoshiro256**(case seed)
//! ```
//!
//! The base seed is a fixed constant (overridable via `FSOI_CHECK_SEED` or
//! [`Checker::seed`]), so the same binary generates the same case sequence
//! on every run and on every machine — failures are reproducible by seed
//! alone, with no global state.
//!
//! # Regression files
//!
//! When a property fails, its *case seed* is appended to the checker's
//! `.regressions` file (created next to the test source) as a line
//!
//! ```text
//! cc <test name> 0x<case seed in hex>  # shrunk: <minimal counterexample>
//! ```
//!
//! Those seeds are re-run *before* fresh cases on every subsequent run, so
//! a once-seen failure keeps failing until the underlying bug is fixed.
//! The files are meant to be checked in, like proptest's
//! `.proptest-regressions`.
//!
//! # Replaying a failure
//!
//! `FSOI_CHECK_REPLAY=0x<seed> cargo test <test name>` runs exactly that
//! case (skipping regressions and fresh generation); `FSOI_CHECK_CASES`
//! overrides the fresh-case count and `FSOI_CHECK_SEED` the base seed.

use crate::gen::Gen;
use crate::tree::Tree;
use fsoi_sim::rng::{SplitMix64, Xoshiro256StarStar};
use fsoi_sim::trace;
use std::cell::Cell;
use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Once;

/// Default base seed; any fixed value works, it just has to be stable.
pub const DEFAULT_SEED: u64 = 0xF501_C8EC_0DE5_EED5;

/// Default number of fresh cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Default bound on shrink-candidate evaluations.
pub const DEFAULT_SHRINK_STEPS: u32 = 2048;

/// FNV-1a, used to give every test name its own seed stream.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

thread_local! {
    /// True while the runner probes a case; the panic hook stays quiet so
    /// shrinking doesn't spray hundreds of backtraces.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !PROBING.with(|p| p.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `prop` against `value`, returning the panic message on failure.
fn probe<V, P: Fn(&V)>(prop: &P, value: &V) -> Option<String> {
    install_quiet_hook();
    PROBING.with(|p| p.set(true));
    // Shrinking probes hundreds of panicking candidates; only the final,
    // minimal counterexample should produce a flight-recorder dump.
    trace::set_panic_dump_suppressed(true);
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    trace::set_panic_dump_suppressed(false);
    PROBING.with(|p| p.set(false));
    match result {
        Ok(()) => None,
        Err(payload) => Some(payload_message(&payload)),
    }
}

/// Re-runs the shrunk counterexample with a cleared flight recorder and
/// returns the recorded event tail as JSON lines. The events stay in the
/// thread's recorder so the eventual failure panic also dumps exactly the
/// minimal counterexample's trace (see `fsoi_sim::trace::install_panic_dump`).
/// Empty when tracing is compiled out or the property recorded nothing.
fn counterexample_trace<V, P: Fn(&V)>(prop: &P, value: &V) -> String {
    if !trace::compiled() {
        return String::new();
    }
    trace::clear();
    let _ = probe(prop, value);
    trace::tail_jsonl(MAX_REPORTED_TRACE_EVENTS)
}

/// Trace records shown in the failure report and regression file.
const MAX_REPORTED_TRACE_EVENTS: usize = 16;

fn payload_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A minimised property failure, as returned by [`Checker::check_result`].
#[derive(Debug, Clone)]
pub struct Failure<V> {
    /// The case seed that produced the failure (replayable).
    pub seed: u64,
    /// The originally generated counterexample.
    pub original: V,
    /// The counterexample after greedy shrinking.
    pub shrunk: V,
    /// How many shrink candidates were evaluated.
    pub steps: u32,
    /// The panic message from the shrunk case.
    pub message: String,
    /// Flight-recorder tail (JSON lines) from re-running the shrunk case;
    /// empty when tracing is compiled out or nothing was recorded.
    pub trace: String,
}

/// A configured property-test runner. See the module docs for the seeding
/// and regression-file model.
pub struct Checker {
    seed: u64,
    cases: u32,
    max_shrink_steps: u32,
    regressions: Option<PathBuf>,
    record: bool,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

impl Checker {
    /// A checker with the default seed and case count and no regression file.
    pub fn new() -> Self {
        Checker {
            seed: DEFAULT_SEED,
            cases: DEFAULT_CASES,
            max_shrink_steps: DEFAULT_SHRINK_STEPS,
            regressions: None,
            record: true,
        }
    }

    /// A checker whose regression file sits next to the test source.
    ///
    /// Call as `Checker::with_regressions(env!("CARGO_MANIFEST_DIR"), file!())`
    /// (or use the [`crate::checker!`] macro). `file!()` paths are relative
    /// to the directory `rustc` ran in, which for workspace members is the
    /// workspace root, not the crate — so leading components are stripped
    /// until the joined path exists.
    pub fn with_regressions(manifest_dir: &str, source_file: &str) -> Self {
        let mut c = Checker::new();
        c.regressions = Some(resolve_regression_path(manifest_dir, source_file));
        c
    }

    /// A checker writing regressions to an explicit file path.
    pub fn with_regressions_file(path: impl Into<PathBuf>) -> Self {
        let mut c = Checker::new();
        c.regressions = Some(path.into());
        c
    }

    /// Overrides the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the fresh-case count.
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Overrides the shrink-candidate budget.
    pub fn max_shrink_steps(mut self, steps: u32) -> Self {
        self.max_shrink_steps = steps;
        self
    }

    /// Disables appending new failures to the regression file (recorded
    /// seeds are still re-run).
    pub fn no_record(mut self) -> Self {
        self.record = false;
        self
    }

    /// Checks `prop` over values from `gen`; panics with a replayable
    /// report on the first (shrunk) failure.
    pub fn check<G, P>(&self, name: &str, gen: G, prop: P)
    where
        G: Gen,
        P: Fn(&G::Value),
    {
        #[expect(
            clippy::panic,
            reason = "P1: property failure is reported by panicking, matching cargo test"
        )]
        if let Err(f) = self.check_result(name, &gen, &prop) {
            let trace = if f.trace.is_empty() {
                String::new()
            } else {
                let events: Vec<&str> = f.trace.lines().collect();
                format!(
                    "\n  flight recorder (last {} events of the shrunk case):\n    {}",
                    events.len(),
                    events.join("\n    "),
                )
            };
            panic!(
                "[fsoi-check] property '{name}' failed\n  \
                 case seed: {seed:#018x}  (replay: FSOI_CHECK_REPLAY={seed:#x} cargo test {name})\n  \
                 original:  {orig:?}\n  \
                 shrunk ({steps} candidate evals): {shrunk:?}\n  \
                 assertion: {msg}{trace}",
                seed = f.seed,
                orig = f.original,
                steps = f.steps,
                shrunk = f.shrunk,
                msg = f.message,
            );
        }
    }

    /// Like [`Checker::check`] but returns the minimised [`Failure`]
    /// instead of panicking — the harness's own tests use this.
    pub fn check_result<G, P>(&self, name: &str, gen: &G, prop: &P) -> Result<(), Failure<G::Value>>
    where
        G: Gen,
        P: Fn(&G::Value),
    {
        let base = env_u64("FSOI_CHECK_SEED").unwrap_or(self.seed);
        let cases = env_u32("FSOI_CHECK_CASES").unwrap_or(self.cases);

        if let Some(seed) = env_u64("FSOI_CHECK_REPLAY") {
            return self.run_case(seed, gen, prop).map_or(Ok(()), Err);
        }

        // Recorded regression seeds run first, then fresh cases.
        for seed in self.recorded_seeds(name) {
            if let Some(f) = self.run_case(seed, gen, prop) {
                return Err(f);
            }
        }
        let mut stream = SplitMix64::new(base ^ fnv1a64(name));
        for _ in 0..cases {
            let seed = stream.next_u64();
            if let Some(f) = self.run_case(seed, gen, prop) {
                if self.record {
                    self.record_failure(name, &f);
                }
                return Err(f);
            }
        }
        Ok(())
    }

    fn run_case<G, P>(&self, seed: u64, gen: &G, prop: &P) -> Option<Failure<G::Value>>
    where
        G: Gen,
        P: Fn(&G::Value),
    {
        let mut rng = Xoshiro256StarStar::new(seed);
        let tree = gen.tree(&mut rng);
        let message = probe(prop, &tree.value)?;
        let original = tree.value.clone();
        let (shrunk, steps, message) = self.shrink(tree, prop, message);
        let trace = counterexample_trace(prop, &shrunk);
        Some(Failure {
            seed,
            original,
            shrunk,
            steps,
            message,
            trace,
        })
    }

    /// Greedy descent: repeatedly move to the first child that still
    /// fails, until no child fails or the step budget runs out.
    fn shrink<V: Clone + Debug, P: Fn(&V)>(
        &self,
        mut node: Tree<V>,
        prop: &P,
        mut message: String,
    ) -> (V, u32, String) {
        let mut steps = 0u32;
        'outer: loop {
            for child in node.children() {
                if steps >= self.max_shrink_steps {
                    break 'outer;
                }
                steps += 1;
                if let Some(msg) = probe(prop, &child.value) {
                    node = child;
                    message = msg;
                    continue 'outer;
                }
            }
            break;
        }
        (node.value, steps, message)
    }

    fn recorded_seeds(&self, name: &str) -> Vec<u64> {
        let Some(path) = &self.regressions else {
            return Vec::new();
        };
        let Ok(text) = fs::read_to_string(path) else {
            return Vec::new();
        };
        parse_regressions(&text, name)
    }

    fn record_failure<V: Debug>(&self, name: &str, f: &Failure<V>) {
        let Some(path) = &self.regressions else {
            return;
        };
        if self.recorded_seeds(name).contains(&f.seed) {
            return;
        }
        // Best-effort: failure reporting must not depend on the file write.
        let _ = (|| -> std::io::Result<()> {
            let fresh = !path.exists();
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            if fresh {
                writeln!(file, "{REGRESSION_HEADER}")?;
            }
            let mut shrunk = format!("{:?}", f.shrunk);
            shrunk.truncate(200);
            writeln!(file, "cc {} {:#018x}  # shrunk: {}", name, f.seed, shrunk)?;
            // The flight-recorder tail rides along as comment lines so the
            // regression entry documents *how* the case failed, not just
            // which seed regenerates it.
            for event in f.trace.lines() {
                writeln!(file, "#   trace: {event}")?;
            }
            Ok(())
        })();
    }
}

const REGRESSION_HEADER: &str = "\
# fsoi-check regression seeds.
#
# Everything after `#` is a comment. Each `cc <test> <seed>` line replays
# the recorded failing case (by regenerating it from the seed) before any
# fresh cases run. Check this file in; delete a line only if the property
# it pins has been intentionally changed.";

fn parse_regressions(text: &str, name: &str) -> Vec<u64> {
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let mut parts = line.split_whitespace();
        if parts.next() != Some("cc") {
            continue;
        }
        if parts.next() != Some(name) {
            continue;
        }
        if let Some(seed) = parts.next().and_then(parse_u64) {
            seeds.push(seed);
        }
    }
    seeds
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn env_u64(var: &str) -> Option<u64> {
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: callers pass only the documented FSOI_CHECK_* knob names"
    )]
    let s = std::env::var(var).ok()?;
    match parse_u64(s.trim()) {
        Some(v) => Some(v),
        // A set-but-unparseable override must not be silently ignored:
        // the caller thinks they are replaying/seeding something specific.
        #[expect(
            clippy::panic,
            reason = "P1: aborting beats silently running the wrong cases"
        )]
        None => panic!("{var}={s:?} is not a u64 (use 0x-prefixed hex or decimal)"),
    }
}

/// [`env_u64`] for a count that must fit a `u32`: a larger value aborts
/// rather than wrapping to a smaller count.
fn env_u32(var: &str) -> Option<u32> {
    let v = env_u64(var)?;
    match u32::try_from(v) {
        Ok(v) => Some(v),
        #[expect(
            clippy::panic,
            reason = "P1: aborting beats silently running the wrong cases"
        )]
        Err(_) => panic!("{var}={v} does not fit a u32 (at most {})", u32::MAX),
    }
}

/// Joins `source_file` (a `file!()` path, workspace-root-relative) onto
/// `manifest_dir`, stripping leading components until the file exists, and
/// swaps the extension for `.regressions`.
fn resolve_regression_path(manifest_dir: &str, source_file: &str) -> PathBuf {
    let md = Path::new(manifest_dir);
    let mut rel = Path::new(source_file);
    loop {
        let cand = md.join(rel);
        if cand.exists() {
            return cand.with_extension("regressions");
        }
        let mut comps = rel.components();
        if comps.next().is_none() {
            break;
        }
        let next = comps.as_path();
        if next == rel || next.as_os_str().is_empty() {
            break;
        }
        rel = next;
    }
    md.join(source_file).with_extension("regressions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_names() {
        assert_ne!(fnv1a64("a"), fnv1a64("b"));
        assert_eq!(fnv1a64("prop"), fnv1a64("prop"));
    }

    #[test]
    fn parse_regression_lines() {
        let text = "# header\n\
                    cc my_test 0x00000000deadbeef  # shrunk: [1, 2]\n\
                    cc other_test 42\n\
                    cc my_test 7\n\
                    malformed line\n";
        assert_eq!(parse_regressions(text, "my_test"), vec![0xdead_beef, 7]);
        assert_eq!(parse_regressions(text, "other_test"), vec![42]);
        assert!(parse_regressions(text, "absent").is_empty());
    }

    #[test]
    fn parse_u64_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("0x10"), Some(16));
        assert_eq!(parse_u64("16"), Some(16));
        assert_eq!(parse_u64("zz"), None);
    }

    #[test]
    fn regression_path_strips_workspace_prefix() {
        // file!() for an integration test in this crate looks like
        // "crates/check/tests/selftest.rs" while the manifest dir already
        // ends in "crates/check" — the joined path only exists after the
        // duplicate prefix is stripped.
        let md = env!("CARGO_MANIFEST_DIR");
        let p = resolve_regression_path(md, "crates/check/src/runner.rs");
        assert_eq!(
            p,
            Path::new(md)
                .join("src/runner.rs")
                .with_extension("regressions")
        );
    }
}
