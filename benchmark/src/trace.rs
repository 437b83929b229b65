//! Spans recorded from the benchmark's own code around each call into a
//! layer. Kept in memory and written as JSON lines when the run ends; a
//! layer's self time is its span minus the part its child spans cover.

use crate::host::wall_ns;
use crate::json::{obj, Value};
use std::io::Write;
use std::path::Path;

#[derive(Debug)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    /// What the span worked on (`app/network`, a probe size); may be empty.
    label: String,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. A disabled tracer reads no clock and stores nothing,
/// so the untraced passes run the same code without the cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; closes it through [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, label: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.push(name, label, wall_ns(), 0);
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        self.spans[id].end_ns = wall_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Records a finished child of the innermost open span: the time a
    /// window spent in one kind of call, batched, laid out from `start_ns`.
    pub fn batched(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if self.enabled {
            self.push(name, "", start_ns, start_ns + dur_ns);
        }
    }

    fn push(&mut self, name: &'static str, label: &str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            label: label.to_string(),
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Wall time covered by the top-level spans recorded so far.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes one span per line: `{id, parent, workload, name, label,
    /// start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Value::count(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::count(p as u64)),
                ),
                ("workload", Value::str(workload)),
                ("name", Value::str(s.name)),
                ("label", Value::str(s.label.as_str())),
                ("start_ns", Value::count(s.start_ns)),
                ("end_ns", Value::count(s.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
