//! Deterministic harness profile: hierarchical span counters keyed by
//! sim-domain quantities.
//!
//! The harness observability plane is split in two (see DESIGN.md
//! § "Harness observability plane"). This module is the **deterministic
//! plane**: counts of things the *simulation* did — cycles simulated,
//! ticks stepped, fast-forward jumps and cycles skipped, events
//! processed, cells forked vs built cold. Every count is a pure function
//! of the cell inputs, so a [`Profile`] is byte-identical across thread
//! counts, cache states and hosts, and its exports may sit inside
//! byte-identity gates. Wall-clock and scheduling observations
//! (worker busy time, phase durations) are *not* allowed here —
//! they live in [`crate::telemetry`], the explicitly nondeterministic
//! plane.
//!
//! Spans are named by `/`-separated paths ("sim/ff/cycles_skipped");
//! the hierarchy is implied by the path segments, and [`Profile::to_tree`]
//! renders it as an indented tree. Exports:
//!
//! * [`Profile::to_jsonl`] — one sorted JSON line per span,
//! * [`Profile::to_tree`] — the human-readable tree report,
//! * [`Profile::export`] — fold into a [`metrics::Registry`] as
//!   `prof.<path>` counters,
//! * [`Profile::to_wire_fragment`] / [`Profile::from_wire_fragment`] —
//!   a single-line bit-exact encoding for the cell-cache wire format.
//!
//! ```
//! use fsoi_sim::profile::Profile;
//! let mut p = Profile::new();
//! p.add("sim/ticks", 10);
//! p.add("sim/ff/jumps", 3);
//! assert_eq!(p.get("sim/ticks"), 10);
//! let round = Profile::from_wire_fragment(&p.to_wire_fragment()).unwrap();
//! assert_eq!(round, p);
//! ```

use crate::det::DetMap;
use crate::metrics::Registry;
use std::fmt::Write as _;

/// A deterministic set of named span counters (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    counts: DetMap<String, u64>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Adds `delta` to the span at `path` (saturating), creating it at
    /// zero. Paths are `/`-separated segment names; they must not
    /// contain spaces, colons or newlines (reserved by the wire and
    /// export formats).
    pub fn add(&mut self, path: &str, delta: u64) {
        debug_assert!(
            !path.is_empty() && !path.contains([' ', ':', '\n', '"', '{', '}']),
            "span path {path:?} contains reserved characters"
        );
        let count = self.counts.entry(path.to_string()).or_insert(0);
        *count = count.saturating_add(delta);
    }

    /// Reads a span count (0 when absent).
    pub fn get(&self, path: &str) -> u64 {
        self.counts.get(path).copied().unwrap_or(0)
    }

    /// Adds every span of `other` into `self` (saturating per span).
    pub fn merge(&mut self, other: &Profile) {
        for (path, count) in other.iter() {
            self.add(path, count);
        }
    }

    /// Number of distinct spans.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(path, count)` in lexicographic path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Exports every span as one JSON line, sorted by path — the
    /// deterministic-plane export compared byte-for-byte across thread
    /// counts by `scripts/verify.sh`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.counts.len() * 48);
        for (path, count) in self.iter() {
            let _ = writeln!(out, "{{\"span\":\"{path}\",\"count\":{count}}}");
        }
        out
    }

    /// Renders the spans as an indented tree grouped by path segment,
    /// counts right-aligned — the text report `experiments profile`
    /// prints.
    pub fn to_tree(&self) -> String {
        // (depth, segment, leaf count) rows; interior segments print
        // once and children nest under them.
        let mut rows: Vec<(usize, String, Option<u64>)> = Vec::new();
        let mut printed: Vec<String> = Vec::new();
        for (path, count) in self.iter() {
            let segs: Vec<&str> = path.split('/').collect();
            let mut common = 0;
            while common < printed.len() && common < segs.len() && printed[common] == segs[common] {
                common += 1;
            }
            printed.truncate(common);
            for (d, seg) in segs.iter().enumerate().skip(common) {
                let leaf = d + 1 == segs.len();
                rows.push((d, (*seg).to_string(), leaf.then_some(count)));
                printed.push((*seg).to_string());
            }
        }
        let label_w = rows
            .iter()
            .map(|(d, s, _)| 2 * d + s.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let count_w = rows
            .iter()
            .filter_map(|(_, _, c)| c.map(|c| c.to_string().len()))
            .max()
            .unwrap_or(1);
        let mut out = String::new();
        let _ = writeln!(out, "{:<label_w$}  {:>count_w$}", "span", "n");
        for (d, seg, count) in rows {
            let pad = "  ".repeat(d);
            match count {
                Some(c) => {
                    let _ = writeln!(out, "{:<label_w$}  {c:>count_w$}", format!("{pad}{seg}"));
                }
                None => {
                    let _ = writeln!(out, "{pad}{seg}");
                }
            }
        }
        out
    }

    /// Folds every span into `registry` as a `prof.<path>` counter
    /// (path separators become `.`), carrying `labels`.
    pub fn export(&self, registry: &mut Registry, labels: &[(&str, &str)]) {
        for (path, count) in self.iter() {
            let name = format!("prof.{}", path.replace('/', "."));
            registry.inc(&name, labels, count);
        }
    }

    /// Encodes the profile as one line of sorted `path:count` pairs
    /// (`-` when empty) — the fragment embedded in the cell-cache wire
    /// format. Bit-exact: [`Profile::from_wire_fragment`] round-trips.
    pub fn to_wire_fragment(&self) -> String {
        if self.counts.is_empty() {
            return "-".to_string();
        }
        let mut out = String::with_capacity(self.counts.len() * 32);
        for (i, (path, count)) in self.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{path}:{count}");
        }
        out
    }

    /// Decodes a [`Profile::to_wire_fragment`] line; `None` on any
    /// malformed pair (the cache fails closed and treats it as a miss).
    pub fn from_wire_fragment(s: &str) -> Option<Profile> {
        let s = s.trim();
        let mut p = Profile::new();
        if s == "-" {
            return Some(p);
        }
        for pair in s.split(' ') {
            let (path, count) = pair.split_once(':')?;
            if path.is_empty() {
                return None;
            }
            p.add(path, count.parse::<u64>().ok()?);
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_and_saturate() {
        let mut p = Profile::new();
        assert!(p.is_empty());
        p.add("a/b", 2);
        p.add("a/b", 3);
        assert_eq!(p.get("a/b"), 5);
        assert_eq!(p.get("missing"), 0);
        p.add("a/b", u64::MAX);
        assert_eq!(p.get("a/b"), u64::MAX, "span counts saturate, not wrap");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn merge_sums_spans() {
        let mut a = Profile::new();
        a.add("x", 1);
        a.add("y/z", 2);
        let mut b = Profile::new();
        b.add("y/z", 3);
        b.add("w", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y/z"), 5);
        assert_eq!(a.get("w"), 4);
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let mut p = Profile::new();
        p.add("sim/ticks", 7);
        p.add("cells/forked", 3);
        let jsonl = p.to_jsonl();
        assert_eq!(jsonl, p.clone().to_jsonl(), "export must be deterministic");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"span\":\"cells/forked\",\"count\":3}");
        assert_eq!(lines[1], "{\"span\":\"sim/ticks\",\"count\":7}");
    }

    #[test]
    fn wire_fragment_round_trips() {
        let mut p = Profile::new();
        p.add("sim/cycles", 123_456);
        p.add("sim/ff/jumps", 9);
        let frag = p.to_wire_fragment();
        assert_eq!(frag, "sim/cycles:123456 sim/ff/jumps:9");
        assert_eq!(Profile::from_wire_fragment(&frag), Some(p));
        assert_eq!(Profile::from_wire_fragment("-"), Some(Profile::new()));
        assert_eq!(Profile::new().to_wire_fragment(), "-");
    }

    #[test]
    fn malformed_wire_fragments_are_rejected() {
        assert_eq!(Profile::from_wire_fragment("no-colon"), None);
        assert_eq!(Profile::from_wire_fragment("a:nan"), None);
        assert_eq!(Profile::from_wire_fragment(":3"), None);
        assert_eq!(
            Profile::from_wire_fragment("a:1  b:2"),
            None,
            "double space"
        );
    }

    #[test]
    fn tree_nests_by_path_segment() {
        let mut p = Profile::new();
        p.add("sim/ticks", 10);
        p.add("sim/ff/jumps", 2);
        p.add("cells", 80);
        let tree = p.to_tree();
        assert!(tree.contains("cells"), "{tree}");
        assert!(tree.contains("  ff"), "interior segment nests: {tree}");
        assert!(tree.contains("    jumps"), "leaf nests deeper: {tree}");
        assert!(tree.contains("80"), "{tree}");
    }

    #[test]
    fn export_lands_as_prof_counters() {
        let mut p = Profile::new();
        p.add("sim/ff/jumps", 4);
        let mut reg = Registry::new();
        p.export(&mut reg, &[("app", "bn")]);
        assert_eq!(reg.counter("prof.sim.ff.jumps", &[("app", "bn")]), 4);
    }
}
