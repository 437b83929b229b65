//! A deterministic registry of named, labelled metrics: the one store and
//! the one codec of the deterministic observability plane.
//!
//! Everything the simulation counts — a report's figure inputs
//! (`cmp.cycles{app=…,network=…}`), a cell's harness spans (`sim/ticks`,
//! `coh/dir/evictions`) — lives in a [`Registry`] under a `name{label=value}`
//! key as a counter, a gauge or a histogram, is folded with
//! [`Registry::merge`], and leaves through one of three deterministic
//! renderings: JSONL ([`Registry::to_jsonl`]), an aligned table
//! ([`Registry::to_table`]) and the bit-exact line codec the cell cache
//! stores ([`Registry::to_wire`] / [`Registry::from_wire`]). No wall-clock
//! observation enters a registry: the libraries read no clock, and run
//! timings belong to the benchmark package.
//!
//! Determinism guarantees:
//!
//! * entries iterate in lexicographic key order (BTreeMap),
//! * label order inside a key is sorted at insertion,
//! * floats format via Rust's shortest-round-trip `{:?}` (no locale, no
//!   platform drift); non-finite values export as JSON `null`; the wire
//!   codec carries every `f64` as its exact bit pattern.
//!
//! ```
//! use fsoi_sim::metrics::Registry;
//! use fsoi_sim::stats::Histogram;
//! let mut reg = Registry::new();
//! reg.inc("cmp.ops", &[("app", "tsp")], 3);
//! let mut latency = Histogram::new(10, 20);
//! latency.record(17);
//! reg.histogram("cmp.reply_latency", &[("app", "tsp")], latency);
//! assert_eq!(reg.counter("cmp.ops", &[("app", "tsp")]), 3);
//! assert_eq!(reg.get("cmp.ops{app=tsp}"), 3);
//! assert!(reg.to_jsonl().lines().count() == 2);
//! let back = Registry::from_wire(&reg.to_wire()).unwrap();
//! assert_eq!(back.to_jsonl(), reg.to_jsonl());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Histogram;

/// One metric value.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone event count.
    Counter(u64),
    /// A point-in-time scalar.
    Gauge(f64),
    /// A fixed-width-bin histogram.
    Histogram(Histogram),
}

impl Metric {
    /// The metric's type name as exported (`counter`, `gauge`, …).
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
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

    /// Characters no name, label or value may hold: the key syntax's own,
    /// the JSONL export's quote and the wire codec's separators.
    const RESERVED: [char; 6] = ['{', '}', '"', '\n', ' ', '\t'];

    fn well_formed(name: &str, labels: &[(&str, &str)]) -> bool {
        !name.is_empty()
            && !name.contains(Self::RESERVED)
            && labels.iter().all(|(k, v)| {
                !k.contains(Self::RESERVED)
                    && !k.contains(['=', ','])
                    && !v.contains(Self::RESERVED)
                    && !v.contains(',')
            })
    }

    /// The canonical key. Lookups build it unchecked (a malformed key finds
    /// nothing); the mutators go through `checked_key`.
    fn key(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
        sorted.sort_by_key(|(k, _)| *k);
        let mut s = String::with_capacity(name.len() + 16);
        s.push_str(name);
        s.push('{');
        for (i, (k, v)) in sorted.iter().enumerate() {
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

    fn checked_key(name: &str, labels: &[(&str, &str)]) -> String {
        debug_assert!(
            Self::well_formed(name, labels),
            "metric {name:?} {labels:?} is empty or contains reserved characters"
        );
        Self::key(name, labels)
    }

    /// The entry under the key, created as `fresh` when absent.
    fn entry(&mut self, name: &str, labels: &[(&str, &str)], fresh: Metric) -> &mut Metric {
        self.entries
            .entry(Self::checked_key(name, labels))
            .or_insert(fresh)
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
        match self.entry(name, labels, Metric::Counter(0)) {
            Metric::Counter(c) => *c = c.saturating_add(delta),
            other => debug_assert!(false, "{name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets the gauge to `value` (overwriting).
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.entries
            .insert(Self::checked_key(name, labels), Metric::Gauge(value));
    }

    /// Stores a histogram snapshot under the key (overwriting).
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: Histogram) {
        self.entries
            .insert(Self::checked_key(name, labels), Metric::Histogram(h));
    }

    /// Reads a counter's value (0 when absent or of another type).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.get(&Self::key(name, labels))
    }

    /// Reads a gauge's value (`None` when absent or of another type).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.entries.get(&Self::key(name, labels)) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up any metric by name and labels.
    pub fn metric(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.entries.get(&Self::key(name, labels))
    }

    /// Reads a counter by its canonical key — `sim/ticks`, `m{a=1,b=2}` —
    /// (0 when absent or of another type).
    pub fn get(&self, key: &str) -> u64 {
        match self.entries.get(key) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Folds every entry of `other` into `self` through the mutators:
    /// counters add (saturating); gauges and histograms overwrite (nothing
    /// holds two histograms under one key to combine).
    pub fn merge(&mut self, other: &Registry) {
        for (key, metric) in &other.entries {
            let (name, labels) = Self::split_key(key);
            match metric {
                Metric::Counter(c) => self.inc(name, &labels, *c),
                Metric::Gauge(v) => self.gauge(name, &labels, *v),
                Metric::Histogram(h) => self.histogram(name, &labels, h.clone()),
            }
        }
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
                    Metric::Histogram(h) => {
                        // A quantile in the overflow bin is only bounded.
                        let pct = |q| match h.percentile(q) {
                            Some(v) => v.to_string(),
                            None => format!(">={}", h.num_bins() as u64 * h.bin_width()),
                        };
                        format!(
                            "n={} mean={} p50={} p99={} overflow={}",
                            h.count(),
                            fmt_f64(h.mean()),
                            pct(0.50),
                            pct(0.99),
                            h.overflow(),
                        )
                    }
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

    /// Encodes every entry as one `kind key value…` line, sorted by key:
    /// the bit-exact codec of the deterministic plane (the cell cache's
    /// payload). Integers are decimal, a gauge is its `f64`'s 16-hex-digit
    /// bit pattern, and a histogram is `bin_width overflow sum` then its
    /// bins. [`Registry::from_wire`] reproduces the registry bit for bit.
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 64);
        for (key, metric) in &self.entries {
            let _ = write!(out, "{} {key}", metric.type_name());
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, " {c}");
                }
                Metric::Gauge(v) => push_f64_bits(&mut out, *v),
                Metric::Histogram(h) => {
                    let _ = write!(out, " {} {} {}", h.bin_width(), h.overflow(), h.sum());
                    for (_, c) in h.iter() {
                        let _ = write!(out, " {c}");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Decodes [`Registry::to_wire`] text. `None` on anything else — an
    /// unknown kind, a key that is not in canonical form or holds a
    /// reserved character, a malformed number, a short or long token list,
    /// a histogram `Histogram::from_raw` rejects, a key seen twice — so
    /// a reader of stored text fails closed instead of trusting damage.
    pub fn from_wire(text: &str) -> Option<Registry> {
        let mut reg = Registry::new();
        for line in text.lines() {
            let mut tokens = line.split(' ');
            let (kind, key) = (tokens.next()?, tokens.next()?);
            let (name, labels) = Self::split_key(key);
            if !Self::well_formed(name, &labels) || Self::key(name, &labels) != key {
                return None;
            }
            let metric = match kind {
                "counter" => Metric::Counter(tokens.next()?.parse().ok()?),
                "gauge" => Metric::Gauge(f64_from_bits(tokens.next()?)?),
                "histogram" => {
                    let mut int = || tokens.next()?.parse::<u64>().ok();
                    let (bin_width, overflow, sum) = (int()?, int()?, int()?);
                    let bins = tokens
                        .by_ref()
                        .map(|t| t.parse().ok())
                        .collect::<Option<_>>()?;
                    Metric::Histogram(Histogram::from_raw(bin_width, bins, overflow, sum)?)
                }
                _ => return None,
            };
            if tokens.next().is_some() || reg.entries.insert(key.to_string(), metric).is_some() {
                return None;
            }
        }
        Some(reg)
    }
}

/// Appends ` <bits>`: an `f64` as its exact bit pattern, 16 hex digits.
fn push_f64_bits(out: &mut String, x: f64) {
    let _ = write!(out, " {:016x}", x.to_bits());
}

/// Inverse of [`push_f64_bits`]; `None` unless `s` is 16 hex digits.
fn f64_from_bits(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
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
    fn merge_replays_every_kind() {
        let mut a = Registry::new();
        a.inc("x", &[], 1);
        a.inc("y/z", &[("k", "v")], 2);
        a.gauge("g", &[], 1.0);
        a.histogram("h", &[], Histogram::new(10, 3));
        let mut b = Registry::new();
        b.inc("y/z", &[("k", "v")], 3);
        b.inc("w", &[], 4);
        b.gauge("g", &[], 2.0);
        b.histogram("h", &[], Histogram::new(10, 2));
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y/z{k=v}"), 5, "counters add");
        assert_eq!(a.get("w"), 4);
        assert_eq!(a.get("g"), 0, "get reads counters only");
        assert_eq!(a.gauge_value("g", &[]), Some(2.0), "gauges overwrite");
        assert!(
            matches!(a.metric("h", &[]), Some(Metric::Histogram(h)) if h.num_bins() == 2),
            "histograms overwrite"
        );
    }

    /// One entry of every kind, including the values a decimal rendering
    /// would lose.
    fn sample() -> Registry {
        let mut r = Registry::new();
        r.inc("sim/ticks", &[], u64::MAX);
        r.gauge("g", &[("app", "tsp"), ("lane", "meta")], 0.1 + 0.2);
        r.gauge("g.nan", &[], f64::NAN);
        r.gauge("g.negzero", &[], -0.0);
        r.histogram("h.empty", &[], Histogram::new(1, 1));
        let mut h = Histogram::new(10, 3);
        for v in [3, 17, 1_000] {
            h.record(v);
        }
        r.histogram("h", &[("k", "v")], h);
        r
    }

    #[test]
    fn wire_round_trips_bit_exact() {
        let r = sample();
        let wire = r.to_wire();
        assert!(wire.contains("counter sim/ticks 18446744073709551615\n"));
        assert!(wire.contains("gauge g{app=tsp,lane=meta} 3fd3333333333334\n"));
        assert!(wire.contains("histogram h.empty 1 0 0 0\n"), "{wire}");
        assert!(
            wire.contains("histogram h{k=v} 10 1 1020 1 1 0\n"),
            "{wire}"
        );
        let back = Registry::from_wire(&wire).expect("round trip parses");
        assert_eq!(back.to_wire(), wire);
        assert_eq!(back.to_jsonl(), r.to_jsonl());
        assert_eq!(back.to_table(), r.to_table());
        assert!(Registry::from_wire("").is_some_and(|r| r.is_empty()));
    }

    #[test]
    fn malformed_wire_is_rejected() {
        let max = u64::MAX;
        for bad in [
            "garbage",
            "counter",
            "counter a",
            "counter a x",
            "counter a 1 2",
            "counter a{b:1 1",
            "counter a{b=1 1",
            "counter a{} 1",
            "counter a{c=1,b=2} 1",
            "counter a\tb 1",
            "counter  1",
            "counter a\"b 1",
            "timer a 1",
            "gauge a 1.5",
            "gauge a 3fd333333333333",
            "gauge a 3fd3333333333334 0",
            "summary a 0 0000000000000000",
            "histogram a 0 0 0 1",
            "histogram a 10 0 0",
            "histogram a 10 0 0 1 x",
            "histogram a 10 0",
            "histogram a 10 0 -1 1",
            &format!("histogram a 10 1 0 {max}"),
            &format!("histogram a 10 0 0 {max} 1"),
            "histogram a 10 0 5 0 0",
            // A line of the previous format: a five-token running-mean state
            // (one observation of 15) between the overflow count and the bins.
            "histogram a 10 0 1 402e000000000000 0000000000000000 402e000000000000 402e000000000000 0 1",
            "counter a 1\ncounter a 2",
        ] {
            assert!(Registry::from_wire(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn lookups_never_assert_on_a_malformed_key() {
        let r = sample();
        assert_eq!(r.counter("a b", &[("k", "v,w")]), 0);
        assert_eq!(r.get("a{b:1"), 0);
        assert!(r.metric("a{b", &[]).is_none());
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.inc("z.last", &[], 1);
        r.gauge("a.first", &[("k", "v")], 1.5);
        r.gauge("m.mid", &[], 2.0);
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
        r.inc("cmp.packets_sent", &[("lane", "meta")], 7);
        let mut h = Histogram::new(10, 20);
        h.record(20);
        r.histogram("cmp.reply_latency", &[], h);
        let t = r.to_table();
        assert!(t.contains("cmp.packets_sent{lane=meta}"));
        assert!(t.contains("counter"));
        assert!(t.contains("n=1 mean=20.0 p50=29 p99=29 overflow=0"));
        assert_eq!(t.lines().count(), 4, "header + rule + two rows");
    }
}
