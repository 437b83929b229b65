//! A deterministic registry of named, labelled metrics.
//!
//! The workspace's measurement code grew ad-hoc counter, [`Summary`] and
//! [`Histogram`] fields scattered across structs; every report then
//! hand-formatted its own numbers. The [`Registry`] unifies them behind
//! `name{label=value}` keys with two deterministic export paths — JSONL
//! ([`Registry::to_jsonl`]) and an aligned human-readable table
//! ([`Registry::to_table`]) — so `EXPERIMENTS.md` numbers regenerate from
//! one code path and same-seed runs snapshot byte-identically.
//!
//! Determinism guarantees:
//!
//! * entries iterate in lexicographic key order (BTreeMap),
//! * label order inside a key is sorted at insertion,
//! * floats format via Rust's shortest-round-trip `{:?}` (no locale, no
//!   platform drift); non-finite values export as JSON `null`.
//!
//! ```
//! use fsoi_sim::metrics::Registry;
//! let mut reg = Registry::new();
//! reg.inc("net.delivered", &[("lane", "meta")], 3);
//! reg.observe("net.latency", &[("lane", "meta")], 17.0);
//! assert_eq!(reg.counter("net.delivered", &[("lane", "meta")]), 3);
//! assert!(reg.to_jsonl().lines().count() == 2);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{Histogram, Summary};

/// One metric value.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone event count.
    Counter(u64),
    /// A point-in-time scalar.
    Gauge(f64),
    /// Streaming mean/min/max/σ over observations.
    Summary(Summary),
    /// A fixed-width-bin histogram.
    Histogram(Histogram),
}

impl Metric {
    /// The metric's type name as exported (`counter`, `gauge`, …).
    pub fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Summary(_) => "summary",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Formats a float deterministically for both export paths; non-finite
/// values become JSON `null`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A registry of named, labelled metrics with deterministic export.
///
/// Keys are canonicalized as `name{label1=v1,label2=v2}` with labels
/// sorted by label name, so the same logical metric always lands in the
/// same entry regardless of call-site label order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: BTreeMap<String, Metric>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> String {
        debug_assert!(
            !name.contains(['{', '}', '"', '\n']),
            "metric name {name:?} contains reserved characters"
        );
        if labels.is_empty() {
            return name.to_string();
        }
        let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
        sorted.sort_by_key(|(k, _)| *k);
        let mut s = String::with_capacity(name.len() + 16);
        s.push_str(name);
        s.push('{');
        for (i, (k, v)) in sorted.iter().enumerate() {
            debug_assert!(
                !k.contains(['{', '}', '=', ',', '"', '\n'])
                    && !v.contains(['{', '}', ',', '"', '\n']),
                "label {k}={v} contains reserved characters"
            );
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s.push('}');
        s
    }

    /// Splits a canonical key back into `(name, [(label, value)])`.
    fn split_key(key: &str) -> (&str, Vec<(&str, &str)>) {
        match key.split_once('{') {
            None => (key, Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                let labels = body
                    .split(',')
                    .filter_map(|pair| pair.split_once('='))
                    .collect();
                (name, labels)
            }
        }
    }

    /// Adds `delta` to the counter (saturating), creating it at zero.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the key already holds a non-counter.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self
            .entries
            .entry(Self::key(name, labels))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c = c.saturating_add(delta),
            other => debug_assert!(false, "{name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets the gauge to `value` (overwriting).
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.entries
            .insert(Self::key(name, labels), Metric::Gauge(value));
    }

    /// Records one observation into the summary, creating it when absent.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], x: f64) {
        match self
            .entries
            .entry(Self::key(name, labels))
            .or_insert(Metric::Summary(Summary::new()))
        {
            Metric::Summary(s) => s.record(x),
            other => debug_assert!(false, "{name} is a {}, not a summary", other.type_name()),
        }
    }

    /// Merges a pre-built summary into the entry (parallel Welford).
    pub fn merge_summary(&mut self, name: &str, labels: &[(&str, &str)], other: &Summary) {
        match self
            .entries
            .entry(Self::key(name, labels))
            .or_insert(Metric::Summary(Summary::new()))
        {
            Metric::Summary(s) => s.merge(other),
            wrong => debug_assert!(false, "{name} is a {}, not a summary", wrong.type_name()),
        }
    }

    /// Stores a histogram snapshot under the key (overwriting).
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: Histogram) {
        self.entries
            .insert(Self::key(name, labels), Metric::Histogram(h));
    }

    /// Reads a counter's value (0 when absent or of another type).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.entries.get(&Self::key(name, labels)) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Reads a gauge's value (`None` when absent or of another type).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.entries.get(&Self::key(name, labels)) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up any metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.entries.get(&Self::key(name, labels))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(canonical_key, metric)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Exports every entry as one JSON line, sorted by key.
    ///
    /// Same-seed runs of a deterministic simulation produce byte-identical
    /// output (the Fig 6 snapshot test in `fsoi-cmp` pins this).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for (key, metric) in &self.entries {
            let (name, labels) = Self::split_key(key);
            let _ = write!(out, "{{\"metric\":\"{name}\",\"labels\":{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":\"{v}\"");
            }
            let _ = write!(out, "}},\"type\":\"{}\"", metric.type_name());
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{c}");
                }
                Metric::Gauge(v) => {
                    let _ = write!(out, ",\"value\":{}", fmt_f64(*v));
                }
                Metric::Summary(s) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"std_dev\":{}",
                        s.count(),
                        fmt_f64(s.mean()),
                        fmt_f64(s.min().unwrap_or(0.0)),
                        fmt_f64(s.max().unwrap_or(0.0)),
                        fmt_f64(s.std_dev()),
                    );
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"bin_width\":{},\"count\":{},\"mean\":{},\"overflow\":{},\"bins\":[",
                        h.bin_width(),
                        h.count(),
                        fmt_f64(h.mean()),
                        h.overflow(),
                    );
                    for (i, (_, c)) in h.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders every entry as an aligned, human-readable table, sorted by
    /// key — the shape `EXPERIMENTS.md` tables regenerate from.
    pub fn to_table(&self) -> String {
        let rows: Vec<(String, &'static str, String)> = self
            .entries
            .iter()
            .map(|(key, metric)| {
                let value = match metric {
                    Metric::Counter(c) => c.to_string(),
                    Metric::Gauge(v) => fmt_f64(*v),
                    Metric::Summary(s) => format!(
                        "n={} mean={} min={} max={} sd={}",
                        s.count(),
                        fmt_f64(s.mean()),
                        fmt_f64(s.min().unwrap_or(0.0)),
                        fmt_f64(s.max().unwrap_or(0.0)),
                        fmt_f64(s.std_dev()),
                    ),
                    Metric::Histogram(h) => format!(
                        "n={} mean={} p50={} p99={} overflow={}",
                        h.count(),
                        fmt_f64(h.mean()),
                        h.percentile(0.50),
                        h.percentile(0.99),
                        h.overflow(),
                    ),
                };
                (key.clone(), metric.type_name(), value)
            })
            .collect();
        let key_w = rows
            .iter()
            .map(|(k, _, _)| k.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let type_w = 9;
        let mut out = String::new();
        let _ = writeln!(out, "{:<key_w$}  {:<type_w$}  value", "metric", "type");
        let _ = writeln!(
            out,
            "{}  {}  {}",
            "-".repeat(key_w),
            "-".repeat(type_w),
            "-".repeat(5)
        );
        for (k, t, v) in rows {
            let _ = writeln!(out, "{k:<key_w$}  {t:<type_w$}  {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_and_accumulate() {
        let mut r = Registry::new();
        r.inc("a", &[], 2);
        r.inc("a", &[], 3);
        assert_eq!(r.counter("a", &[]), 5);
        r.inc("a", &[], u64::MAX);
        assert_eq!(r.counter("a", &[]), u64::MAX, "counters saturate, not wrap");
        assert_eq!(r.counter("missing", &[]), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = Registry::new();
        r.inc("m", &[("b", "2"), ("a", "1")], 1);
        r.inc("m", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.len(), 1, "label order must not split the entry");
        assert_eq!(r.counter("m", &[("b", "2"), ("a", "1")]), 2);
        let key = r.iter().next().unwrap().0.to_string();
        assert_eq!(key, "m{a=1,b=2}");
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge("g", &[("lane", "data")], 0.5);
        r.gauge("g", &[("lane", "data")], 0.25);
        assert_eq!(r.gauge_value("g", &[("lane", "data")]), Some(0.25));
        assert_eq!(r.gauge_value("g", &[]), None);
    }

    #[test]
    fn summaries_observe_and_merge() {
        let mut r = Registry::new();
        r.observe("s", &[], 1.0);
        r.observe("s", &[], 3.0);
        let mut pre = Summary::new();
        pre.record(5.0);
        r.merge_summary("s", &[], &pre);
        match r.get("s", &[]).unwrap() {
            Metric::Summary(s) => {
                assert_eq!(s.count(), 3);
                assert!((s.mean() - 3.0).abs() < 1e-12);
            }
            other => panic!("expected summary, got {}", other.type_name()),
        }
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.inc("z.last", &[], 1);
        r.gauge("a.first", &[("k", "v")], 1.5);
        r.observe("m.mid", &[], 2.0);
        let mut h = Histogram::new(10, 3);
        h.record(15);
        r.histogram("h.hist", &[], h);
        let a = r.to_jsonl();
        let b = r.clone().to_jsonl();
        assert_eq!(a, b, "export must be deterministic");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"metric\":\"a.first\""));
        assert_eq!(
            lines[0],
            "{\"metric\":\"a.first\",\"labels\":{\"k\":\"v\"},\"type\":\"gauge\",\"value\":1.5}"
        );
        assert!(lines[1].contains("\"type\":\"histogram\""));
        assert!(lines[1].contains("\"bins\":[0,1,0]"));
        assert!(lines[3].contains("\"metric\":\"z.last\""));
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let mut r = Registry::new();
        r.gauge("bad", &[], f64::NAN);
        assert!(r.to_jsonl().contains("\"value\":null"));
        assert!(r.to_table().contains("null"));
    }

    #[test]
    fn table_lists_every_entry() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.inc("net.delivered", &[("lane", "meta")], 7);
        r.observe("net.latency", &[("lane", "meta")], 20.0);
        let t = r.to_table();
        assert!(t.contains("net.delivered{lane=meta}"));
        assert!(t.contains("counter"));
        assert!(t.contains("n=1 mean=20.0"));
        assert_eq!(t.lines().count(), 4, "header + rule + two rows");
    }
}
