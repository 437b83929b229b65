//! Structured, cycle-stamped event tracing with a bounded flight recorder.
//!
//! Every figure in the paper aggregates per-packet lifecycles — inject →
//! collide → back off → retransmit → deliver → confirm — but aggregates
//! alone cannot explain *which trajectory* produced a number. This module
//! records those trajectories as cheap structured events:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — one cycle-stamped record per
//!   lifecycle step, keyed by packet id where one exists, serializable to
//!   (and parseable from) single-line JSON,
//! * `FlightRecorder` — a bounded ring buffer keeping the last `N`
//!   records,
//! * a **thread-local recorder** written through [`emit`] / [`emit_with`],
//!   dumped as JSON lines whenever a panic (failed invariant, debug
//!   assertion, or `fsoi-check` property) unwinds through
//!   [`install_panic_dump`]'s hook.
//!
//! # Cost model
//!
//! Tracing is compiled in when `debug_assertions` are on **or** the crate
//! feature `trace` is enabled. In a plain release build (`cargo build
//! --release`) every [`emit_with`] site reduces to `if false`, so the
//! closure — and the event construction inside it — is compiled out
//! entirely. When compiled in, recording is one thread-local flag check
//! plus a ring-buffer slot write; DESIGN.md "Tracing and the flight
//! recorder" gives the `experiments profile` command that measures it.
//!
//! # Runtime knobs
//!
//! * `FSOI_TRACE=0` force-disables recording even where compiled in;
//!   `FSOI_TRACE=1` force-enables it (in builds where it is compiled).
//! * `FSOI_TRACE_DUMP=path` redirects the panic-time JSONL dump from its
//!   default in the system temp directory.
//!
//! Dumped files replay into per-packet timelines with
//! `cargo run --example trace_replay -- <dump.jsonl>`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Once;

use crate::Cycle;

/// The thread-local flight recorder's capacity (records).
pub(crate) const DEFAULT_CAPACITY: usize = 256;

/// A type an event field can have: how it is written into and read back
/// from a dump line, and whether it is a number.
trait Field: Sized {
    fn write(&self, out: &mut String);
    fn read(v: &JsonValue) -> Option<Self>;
    fn as_num(&self) -> Option<u64> {
        None
    }
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &JsonValue) -> Option<u64> {
        match v {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Str(_) => None,
        }
    }
    fn as_num(&self) -> Option<u64> {
        Some(*self)
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn read(v: &JsonValue) -> Option<String> {
        match v {
            JsonValue::Str(s) => Some(s.clone()),
            JsonValue::Num(_) => None,
        }
    }
}

/// The event schema, declared once: each variant with its wire name (the
/// `"event"` JSON field) and its fields in dump order. The enum, its
/// [`TraceEvent::name`], the by-name field lookup behind
/// [`TraceEvent::packet_id`] / [`TraceEvent::lane`], the dump-line writer
/// and the parser are all generated from this list, so a new event is one
/// entry here plus its emit site.
macro_rules! trace_events {
    ($(
        $(#[$vdoc:meta])*
        $variant:ident = $wire:literal {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// One structured trace event. Packet-lifecycle variants carry the
        /// network packet id so a dump can be re-grouped into per-packet
        /// timelines ([`timelines`]); protocol-level variants
        /// (confirmations, directory transitions) are keyed by node instead.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$vdoc])* $variant { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// The event's wire name (the `"event"` JSON field).
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $wire, )*
                }
            }

            /// The numeric field called `key`, if this variant has one.
            fn num(&self, key: &str) -> Option<u64> {
                match self {
                    $( TraceEvent::$variant { $($field,)* } => {
                        $( if key == stringify!($field) {
                            return $field.as_num();
                        } )*
                        None
                    } )*
                }
            }

            /// Appends `,"field":value` for every field, in schema order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( TraceEvent::$variant { $($field,)* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write(out);
                        )*
                    } )*
                }
            }

            /// Rebuilds the event called `name` from a parsed dump line.
            fn read(name: &str, fields: &BTreeMap<String, JsonValue>) -> Option<TraceEvent> {
                Some(match name {
                    $( $wire => TraceEvent::$variant {
                        $( $field: Field::read(fields.get(stringify!($field))?)?, )*
                    }, )*
                    _ => return None,
                })
            }
        }
    };
}

trace_events! {
    /// A packet entered a source node's output queue.
    Inject = "inject" {
        /// Network-assigned packet id.
        packet: u64,
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Lane index (0 = meta, 1 = data).
        lane: u64,
        /// Caller-supplied correlation tag.
        tag: u64,
    }
    /// An injection was refused (full queue / backpressure).
    Reject = "reject" {
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Lane index.
        lane: u64,
    }
    /// A packet started transmitting in a slot.
    TxStart = "tx_start" {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Lane index.
        lane: u64,
        /// 0 for the first attempt, then the retry count.
        attempt: u64,
        /// Slot index on this lane (slot id, not cycle).
        slot: u64,
    }
    /// A packet lost its slot to a collision at a shared receiver.
    Collide = "collide" {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Lane index.
        lane: u64,
        /// Receiver index at the destination.
        rx: u64,
        /// Number of packets that superposed in the slot.
        group: u64,
    }
    /// A packet was dropped by the BER model and scheduled to resend.
    BitError = "bit_error" {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Lane index.
        lane: u64,
    }
    /// A retransmission delay was drawn from the back-off policy.
    Backoff = "backoff" {
        /// Packet id.
        packet: u64,
        /// Lane index.
        lane: u64,
        /// Retry number the delay was drawn for (1-based).
        retry: u64,
        /// Drawn delay, in slots.
        delay_slots: u64,
        /// Cycle at which the packet becomes eligible again.
        ready: u64,
    }
    /// A retransmission hint picked a collision winner (§5.2).
    Hint = "hint" {
        /// Destination whose receiver issued the hint.
        dst: u64,
        /// Source node allowed to retransmit immediately.
        winner: u64,
    }
    /// A packet reached its destination.
    Deliver = "deliver" {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u64,
        /// Destination node.
        dst: u64,
        /// Lane index.
        lane: u64,
        /// Cycles spent waiting in the source queue.
        queuing: u64,
        /// Cycles of scheduling delay (request spacing).
        scheduling: u64,
        /// Serialization + flight cycles.
        network: u64,
        /// Cycles lost to collision resolution.
        resolution: u64,
        /// Total retransmissions this packet needed.
        retries: u64,
    }
    /// A confirmation-channel message was sent.
    Confirm = "confirm" {
        /// Sending node.
        src: u64,
        /// Receiving node.
        dst: u64,
        /// Kind: `receipt` or `hint`.
        kind: String,
    }
    /// A MESI directory entry changed state.
    Dir = "dir" {
        /// Home node of the directory slice.
        node: u64,
        /// Cache-line address.
        line: u64,
        /// State before the message was handled (Table 2 name).
        from: String,
        /// State after the message was handled.
        to: String,
    }
    /// A free-form annotation (checkpoints, invariant context).
    Mark = "mark" {
        /// Short label.
        label: String,
        /// Arbitrary value.
        value: u64,
    }
}

impl TraceEvent {
    /// The packet id this event belongs to, for lifecycle variants.
    pub(crate) fn packet_id(&self) -> Option<u64> {
        self.num("packet")
    }

    /// The lane this event happened on, where one applies.
    pub fn lane(&self) -> Option<u64> {
        self.num("lane")
    }
}

/// A cycle-stamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle the event happened at.
    pub cycle: u64,
    /// The event itself.
    pub event: TraceEvent,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl TraceRecord {
    /// Serializes this record as one line of JSON (no trailing newline).
    ///
    /// Field order is fixed, so equal records serialize byte-identically.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }

    /// Appends the JSON line for this record to `out`.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"cycle\":{},\"event\":\"{}\"",
            self.cycle,
            self.event.name()
        );
        self.event.write_fields(out);
        out.push('}');
    }

    /// Parses one JSON line produced by [`TraceRecord::to_jsonl`].
    ///
    /// Returns `None` for blank lines, comments, or anything that is not a
    /// well-formed record — the replayer skips such lines rather than
    /// aborting a partially-written dump.
    pub fn parse_jsonl(line: &str) -> Option<TraceRecord> {
        let fields = parse_flat_object(line.trim())?;
        let cycle = Field::read(fields.get("cycle")?)?;
        let name: String = Field::read(fields.get("event")?)?;
        let event = TraceEvent::read(&name, &fields)?;
        Some(TraceRecord { cycle, event })
    }
}

/// One JSON line per record, in order.
fn jsonl_lines(records: &[TraceRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 96);
    for r in records {
        r.write_jsonl(&mut s);
        s.push('\n');
    }
    s
}

enum JsonValue {
    Num(u64),
    Str(String),
}

/// Minimal parser for the flat (non-nested) one-line JSON objects this
/// module writes: string keys, unsigned-integer or string values.
fn parse_flat_object(line: &str) -> Option<BTreeMap<String, JsonValue>> {
    let mut rest = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    while !rest.is_empty() {
        let (key, after) = take_json_str(rest)?;
        let after = after.strip_prefix(':')?;
        let (value, after) = if after.starts_with('"') {
            let (s, after) = take_json_str(after)?;
            (JsonValue::Str(s), after)
        } else {
            let (num, after) = after.split_at(after.find(',').unwrap_or(after.len()));
            (JsonValue::Num(num.trim().parse().ok()?), after)
        };
        out.insert(key, value);
        rest = match after.strip_prefix(',') {
            Some(next) => next,
            None if after.is_empty() => after,
            None => return None,
        };
    }
    Some(out)
}

/// Inverse of [`push_json_str`] off the front of `s`: the unescaped string
/// and whatever follows its closing quote.
fn take_json_str(s: &str) -> Option<(String, &str)> {
    let body = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &body[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let code = u32::from_str_radix(body.get(i + 2..i + 6)?, 16).ok()?;
                    out.push(char::from_u32(code)?);
                    chars.nth(3); // the four hex digits, one byte each
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// A bounded ring buffer keeping the most recent trace records.
///
/// When full, new records overwrite the oldest; [`FlightRecorder::events`]
/// always returns the survivors in chronological order. This is the
/// default per-thread sink — cheap enough to leave on for entire runs, yet
/// it holds exactly the context a post-mortem needs.
#[derive(Debug, Clone)]
pub(crate) struct FlightRecorder {
    cap: usize,
    buf: Vec<TraceRecord>,
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `cap` records (minimum 1).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            buf: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    /// Total records ever offered, including overwritten ones.
    pub(crate) fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Accepts one record, overwriting the oldest when full.
    pub(crate) fn record(&mut self, record: TraceRecord) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Drops all retained records (the capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }

    /// The retained records, oldest first.
    pub(crate) fn events(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Serializes the retained records as JSON lines, oldest first.
    pub(crate) fn dump_jsonl(&self) -> String {
        jsonl_lines(&self.events())
    }
}

thread_local! {
    static ENABLED: Cell<Option<bool>> = const { Cell::new(None) };
    static SUPPRESS_DUMP: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<FlightRecorder> = RefCell::new(FlightRecorder::with_capacity(DEFAULT_CAPACITY));
}

/// True when the event API is compiled in at all (debug builds, or any
/// build with the `trace` feature). When false, [`emit_with`] is a no-op
/// the optimizer deletes outright.
#[inline]
pub const fn compiled() -> bool {
    cfg!(any(debug_assertions, feature = "trace"))
}

fn default_enabled() -> bool {
    #[expect(clippy::disallowed_methods, reason = "D2: FSOI_TRACE knob")]
    match std::env::var("FSOI_TRACE") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | ""),
        Err(_) => true,
    }
}

/// True when this thread is currently recording events.
///
/// Resolved once per thread from `FSOI_TRACE` (default: on wherever
/// tracing is compiled in); override with [`set_enabled`].
#[inline]
pub(crate) fn on() -> bool {
    if !compiled() {
        return false;
    }
    ENABLED.with(|e| match e.get() {
        Some(v) => v,
        None => {
            let v = default_enabled();
            e.set(Some(v));
            v
        }
    })
}

/// Forces recording on or off for the current thread.
pub fn set_enabled(enabled: bool) {
    ENABLED.with(|e| e.set(Some(enabled)));
}

/// Records one event into the thread's flight recorder (if recording).
#[inline]
pub fn emit(cycle: Cycle, event: TraceEvent) {
    emit_with(cycle, || event);
}

/// Records the event built by `f`, constructing it only when recording is
/// on. Use this on hot paths: in a plain release build the whole call
/// disappears.
#[inline]
pub fn emit_with(cycle: Cycle, f: impl FnOnce() -> TraceEvent) {
    if on() {
        RECORDER.with(|r| {
            r.borrow_mut().record(TraceRecord {
                cycle: cycle.as_u64(),
                event: f(),
            })
        });
    }
}

/// Clears the current thread's flight recorder.
pub fn clear() {
    RECORDER.with(|r| r.borrow_mut().clear());
}

/// A chronological snapshot of the current thread's flight recorder.
pub fn snapshot() -> Vec<TraceRecord> {
    RECORDER.with(|r| r.borrow().events())
}

/// The last `n` retained records as JSON lines (all of them when `n`
/// exceeds the retained count).
pub fn tail_jsonl(n: usize) -> String {
    let events = snapshot();
    jsonl_lines(&events[events.len().saturating_sub(n)..])
}

/// Runs `f` with tracing force-enabled into a fresh, large recorder and
/// returns everything it emitted alongside `f`'s result.
///
/// The previous recorder and enablement are restored afterwards. In builds
/// where tracing is compiled out the closure still runs, but the record
/// list is empty — gate assertions on [`compiled`].
pub fn capture<R>(f: impl FnOnce() -> R) -> (Vec<TraceRecord>, R) {
    let prev_enabled = ENABLED.with(|e| e.get());
    set_enabled(true);
    let prev = RECORDER.with(|r| r.replace(FlightRecorder::with_capacity(1 << 20)));
    let out = f();
    let mine = RECORDER.with(|r| r.replace(prev));
    ENABLED.with(|e| e.set(prev_enabled));
    (mine.events(), out)
}

/// Suppresses (or re-enables) the panic-time dump on this thread.
///
/// `fsoi-check` sets this around shrinking probes so that only the final,
/// minimal counterexample produces a dump — not every intermediate panic.
pub fn set_panic_dump_suppressed(suppressed: bool) {
    SUPPRESS_DUMP.with(|s| s.set(suppressed));
}

/// Where a panic-time dump for the current thread would be written.
pub fn panic_dump_path() -> std::path::PathBuf {
    #[expect(clippy::disallowed_methods, reason = "D2: FSOI_TRACE_DUMP knob")]
    if let Ok(p) = std::env::var("FSOI_TRACE_DUMP") {
        if !p.trim().is_empty() {
            return std::path::PathBuf::from(p);
        }
    }
    let thread = std::thread::current();
    let name: String = thread
        .name()
        .unwrap_or("main")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: only names the crash-dump file; never feeds simulation state"
    )]
    std::env::temp_dir().join(format!("fsoi-flight-{}-{}.jsonl", std::process::id(), name))
}

/// Installs (once, process-wide) a panic hook that dumps the panicking
/// thread's flight recorder as JSON lines before the usual report.
///
/// The dump goes to [`panic_dump_path`] and the path is announced on
/// stderr; if the file cannot be written the records are printed to stderr
/// instead. Threads with an empty recorder, disabled tracing, or an active
/// [`set_panic_dump_suppressed`] guard dump nothing. The previous hook
/// (including the default backtrace printer) still runs afterwards.
pub fn install_panic_dump() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_for_panic();
            prev(info);
        }));
    });
}

fn dump_for_panic() {
    if !on() || SUPPRESS_DUMP.with(|s| s.get()) {
        return;
    }
    let (dump, total) = RECORDER.with(|r| {
        let rec = r.borrow();
        (rec.dump_jsonl(), rec.total_recorded())
    });
    if dump.is_empty() {
        return;
    }
    let kept = dump.lines().count();
    let path = panic_dump_path();
    match std::fs::write(&path, &dump) {
        Ok(()) => eprintln!(
            "flight recorder: {kept} events ({total} recorded) -> {} \
             (replay: cargo run --example trace_replay -- {})",
            path.display(),
            path.display()
        ),
        Err(e) => {
            eprintln!(
                "flight recorder: cannot write {} ({e}); last {kept} events:",
                path.display()
            );
            eprint!("{dump}");
        }
    }
    // A second panic (e.g. while unwinding the first) should not re-dump
    // stale context.
    RECORDER.with(|r| r.borrow_mut().clear());
}

/// Groups records by packet id, preserving order — the per-packet
/// "span" view of a dump. Records without a packet id are skipped.
pub fn timelines(records: &[TraceRecord]) -> BTreeMap<u64, Vec<TraceRecord>> {
    let mut out: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
    for r in records {
        if let Some(id) = r.event.packet_id() {
            out.entry(id).or_default().push(r.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 3,
                event: TraceEvent::Inject {
                    packet: 7,
                    src: 0,
                    dst: 5,
                    lane: 0,
                    tag: 9,
                },
            },
            TraceRecord {
                cycle: 4,
                event: TraceEvent::TxStart {
                    packet: 7,
                    src: 0,
                    dst: 5,
                    lane: 0,
                    attempt: 0,
                    slot: 2,
                },
            },
            TraceRecord {
                cycle: 6,
                event: TraceEvent::Collide {
                    packet: 7,
                    src: 0,
                    dst: 5,
                    lane: 0,
                    rx: 1,
                    group: 2,
                },
            },
            TraceRecord {
                cycle: 6,
                event: TraceEvent::Backoff {
                    packet: 7,
                    lane: 0,
                    retry: 1,
                    delay_slots: 2,
                    ready: 10,
                },
            },
            TraceRecord {
                cycle: 8,
                event: TraceEvent::BitError {
                    packet: 7,
                    src: 0,
                    dst: 5,
                    lane: 0,
                },
            },
            TraceRecord {
                cycle: 9,
                event: TraceEvent::Hint { dst: 5, winner: 0 },
            },
            TraceRecord {
                cycle: 14,
                event: TraceEvent::Deliver {
                    packet: 7,
                    src: 0,
                    dst: 5,
                    lane: 0,
                    queuing: 1,
                    scheduling: 0,
                    network: 2,
                    resolution: 8,
                    retries: 1,
                },
            },
            TraceRecord {
                cycle: 14,
                event: TraceEvent::Confirm {
                    src: 5,
                    dst: 0,
                    kind: "receipt".into(),
                },
            },
            TraceRecord {
                cycle: 15,
                event: TraceEvent::Dir {
                    node: 2,
                    line: 64,
                    from: "DS".into(),
                    to: "DM".into(),
                },
            },
            TraceRecord {
                cycle: 16,
                event: TraceEvent::Reject {
                    src: 1,
                    dst: 5,
                    lane: 1,
                },
            },
            TraceRecord {
                cycle: 17,
                event: TraceEvent::Mark {
                    label: "drain".into(),
                    value: 3,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for r in sample_records() {
            let line = r.to_jsonl();
            let back =
                TraceRecord::parse_jsonl(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(back, r, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn jsonl_output_shape() {
        let r = &sample_records()[0];
        assert_eq!(
            r.to_jsonl(),
            "{\"cycle\":3,\"event\":\"inject\",\"packet\":7,\"src\":0,\"dst\":5,\"lane\":0,\"tag\":9}"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceRecord::parse_jsonl("").is_none());
        assert!(TraceRecord::parse_jsonl("# comment").is_none());
        assert!(TraceRecord::parse_jsonl("{\"cycle\":1}").is_none());
        assert!(TraceRecord::parse_jsonl("{\"cycle\":1,\"event\":\"nope\"}").is_none());
        assert!(TraceRecord::parse_jsonl("{\"cycle\":-4,\"event\":\"hint\"}").is_none());
    }

    #[test]
    fn string_escaping_round_trips() {
        let r = TraceRecord {
            cycle: 1,
            event: TraceEvent::Mark {
                label: "a \"b\"\\\n\tc\u{1}".into(),
                value: 0,
            },
        };
        let line = r.to_jsonl();
        assert_eq!(TraceRecord::parse_jsonl(&line).unwrap(), r);
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            fr.record(TraceRecord {
                cycle: i,
                event: TraceEvent::Hint { dst: i, winner: 0 },
            });
        }
        assert_eq!(fr.buf.len(), 4);
        assert_eq!(fr.total_recorded(), 10);
        let cycles: Vec<u64> = fr.events().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        let dump = fr.dump_jsonl();
        assert_eq!(dump.lines().count(), 4);
        fr.clear();
        assert!(fr.buf.is_empty());
        assert_eq!(fr.total_recorded(), 0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "T1: eager form under test")]
    fn capture_scopes_recording() {
        let (records, value) = capture(|| {
            emit(Cycle(5), TraceEvent::Hint { dst: 1, winner: 2 });
            42
        });
        assert_eq!(value, 42);
        if compiled() {
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].cycle, 5);
            // The captured event did not leak into the ambient recorder.
            assert!(
                !snapshot()
                    .iter()
                    .any(|r| r.cycle == 5
                        && matches!(r.event, TraceEvent::Hint { dst: 1, winner: 2 }))
            );
        } else {
            assert!(records.is_empty());
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "T1: eager form under test")]
    fn capture_restores_disabled_state() {
        set_enabled(false);
        let _ = capture(|| ());
        assert!(!on() || !compiled());
        clear();
        emit(Cycle(77), TraceEvent::Hint { dst: 0, winner: 0 });
        assert!(snapshot().is_empty(), "disabled thread must not record");
        set_enabled(true);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "T1: eager form under test")]
    fn tail_returns_last_n() {
        clear();
        set_enabled(true);
        for i in 0..5u64 {
            emit(Cycle(i), TraceEvent::Hint { dst: i, winner: 0 });
        }
        let tail = tail_jsonl(2);
        if compiled() {
            assert_eq!(tail.lines().count(), 2);
            assert!(tail.contains("\"cycle\":4"));
        }
        clear();
    }

    #[test]
    fn timelines_group_by_packet() {
        let groups = timelines(&sample_records());
        assert_eq!(groups.len(), 1);
        let spans = &groups[&7];
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].event.name(), "inject");
        assert_eq!(spans.last().unwrap().event.name(), "deliver");
    }

    #[test]
    fn lane_and_packet_accessors() {
        let records = sample_records();
        assert_eq!(records[0].event.packet_id(), Some(7));
        assert_eq!(records[0].event.lane(), Some(0));
        assert_eq!(records[5].event.packet_id(), None);
        assert_eq!(records[8].event.lane(), None);
    }
}
