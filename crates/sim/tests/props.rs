//! Property tests for the simulation kernel (on the in-repo `fsoi-check`
//! harness; see that crate's docs for seeding and `.regressions` replay).

use fsoi_check::{any_bool, checker, select, vec_of};
use fsoi_sim::det::NodeMask;
use fsoi_sim::event::{CalendarQueue, EventQueue};
use fsoi_sim::metrics::Registry;
use fsoi_sim::queue::BoundedQueue;
use fsoi_sim::rng::Xoshiro256StarStar;
use fsoi_sim::stats::Histogram;
use fsoi_sim::trace::{TraceEvent, TraceRecord};
use fsoi_sim::Cycle;

/// Events pop in time order, FIFO within a timestamp — regardless of
/// push order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    checker!().check(
        "event_queue_is_a_stable_priority_queue",
        vec_of(0u64..50, 1..200),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Cycle(t), i);
            }
            let mut prev: Option<(Cycle, usize)> = None;
            while let Some((t, id)) = q.pop() {
                if let Some((pt, pid)) = prev {
                    assert!(t >= pt, "time order");
                    if t == pt {
                        assert!(id > pid, "FIFO within a cycle");
                    }
                }
                prev = Some((t, id));
            }
        },
    );
}

/// The calendar queue run in lockstep with its slow reference, the heap:
/// every pop, due-pop, peek and length agrees. Times are drawn around the
/// latest popped time (the calendar's cursor) — before it, inside its
/// 64-cycle window, on the window's edge and far past it — and `pop_due`
/// gets a `now` that wanders back and forth.
#[test]
fn calendar_queue_equals_event_queue() {
    checker!().check(
        "calendar_queue_equals_event_queue",
        vec_of((0u8..20, 0u64..200), 1..400),
        |ops| {
            let mut fast = CalendarQueue::new();
            let mut slow = EventQueue::new();
            // The latest time popped so far; draws land at `cursor - 40 ..`.
            let mut cursor = 0u64;
            let around = |cursor: u64, offset: u64| Cycle((cursor + offset).saturating_sub(40));
            for (i, &(kind, offset)) in ops.iter().enumerate() {
                let popped = match kind {
                    0..=9 => {
                        fast.push(around(cursor, offset), i);
                        slow.push(around(cursor, offset), i);
                        None
                    }
                    10..=13 => {
                        let (a, b) = (fast.pop(), slow.pop());
                        assert_eq!(a, b, "pop at step {i}");
                        a
                    }
                    14..=18 => {
                        let now = around(cursor, offset);
                        let (a, b) = (fast.pop_due(now), slow.pop_due(now));
                        assert_eq!(a, b, "pop_due({now}) at step {i}");
                        a
                    }
                    _ if offset < 20 => {
                        fast.clear();
                        slow.clear();
                        None
                    }
                    _ => None,
                };
                if let Some((at, _)) = popped {
                    cursor = cursor.max(at.as_u64());
                }
                assert_eq!(fast.peek_time(), slow.peek_time(), "peek at step {i}");
                assert_eq!(fast.len(), slow.len(), "len at step {i}");
                assert_eq!(fast.is_empty(), slow.is_empty());
            }
            loop {
                let (a, b) = (fast.pop(), slow.pop());
                assert_eq!(a, b, "drain");
                if a.is_none() {
                    break;
                }
            }
        },
    );
}

/// A bounded queue is exactly a FIFO of its accepted elements and never
/// exceeds capacity.
#[test]
fn bounded_queue_is_fifo() {
    checker!().check(
        "bounded_queue_is_fifo",
        (1usize..20, vec_of(any_bool(), 1..300)),
        |(cap, ops)| {
            let cap = *cap;
            let mut q = BoundedQueue::new(cap);
            let mut model = std::collections::VecDeque::new();
            let mut n = 0u32;
            for &push in ops {
                if push {
                    let accepted = q.push(n).is_ok();
                    assert_eq!(accepted, model.len() < cap);
                    if accepted {
                        model.push_back(n);
                    }
                    n += 1;
                } else {
                    assert_eq!(q.pop(), model.pop_front());
                }
                assert!(q.len() <= cap);
                assert_eq!(q.len(), model.len());
            }
        },
    );
}

/// A histogram is exact: its count is the number of observations, its
/// mean the correctly rounded Σ / n, its bins and overflow account for
/// every observation, and merging two halves equals recording the whole.
#[test]
fn histogram_is_exact() {
    checker!().check(
        "histogram_is_exact",
        (vec_of(0u64..500, 1..300), 0usize..300),
        |(values, split)| {
            let record = |vs: &[u64]| {
                let mut h = Histogram::new(10, 20);
                for &v in vs {
                    h.record(v);
                }
                h
            };
            let h = record(values);
            let n = values.len() as u64;
            let sum: u64 = values.iter().sum();
            assert_eq!(h.count(), n);
            assert_eq!(h.sum(), sum);
            assert_eq!(h.mean().to_bits(), (sum as f64 / n as f64).to_bits());
            let binned: u64 = h.iter().map(|(_, c)| c).sum::<u64>() + h.overflow();
            assert_eq!(binned, h.count());
            let (a, b) = values.split_at(split % (values.len() + 1));
            let mut merged = record(a);
            merged.merge(&record(b));
            assert_eq!(merged, h);
        },
    );
}

/// The multi-word `NodeMask` agrees with a `BTreeSet` model on random
/// mixes of word-boundary bits (63/64, 127/128, 191/192, 255 — the edges
/// between the four 64-bit words) and arbitrary indices: insert/remove
/// return values, membership, length, and ascending iteration order all
/// match.
#[test]
fn node_mask_matches_set_model_at_word_boundaries() {
    let boundaries: &[usize] = &[0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 254, 255];
    checker!().check(
        "node_mask_matches_set_model_at_word_boundaries",
        (
            vec_of(select(boundaries), 0..12),
            vec_of(0usize..256, 0..24),
            vec_of(any_bool(), 24..36),
        ),
        |(edge_bits, random_bits, is_insert)| {
            let mut mask = NodeMask::new();
            let mut model = std::collections::BTreeSet::new();
            let indices = edge_bits.iter().chain(random_bits);
            for (&index, &insert) in indices.zip(is_insert) {
                if insert {
                    assert_eq!(mask.insert(index), model.insert(index), "insert({index})");
                } else {
                    assert_eq!(mask.remove(index), model.remove(&index), "remove({index})");
                }
                assert_eq!(mask.contains(index), model.contains(&index));
                assert_eq!(mask.len(), model.len());
                assert_eq!(mask.is_empty(), model.is_empty());
            }
            // Iteration crosses word boundaries strictly ascending, and
            // matches the ordered model exactly.
            let got: Vec<usize> = mask.iter().collect();
            let want: Vec<usize> = model.iter().copied().collect();
            assert_eq!(got, want, "LSB-first ascending iteration");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        },
    );
}

/// `FromIterator` round-trip: collecting any index list (duplicates and
/// all four words included) and iterating back yields the sorted,
/// deduplicated input; re-collecting the iteration reproduces the mask.
#[test]
fn node_mask_from_iterator_round_trips_across_words() {
    checker!().check(
        "node_mask_from_iterator_round_trips_across_words",
        vec_of(0usize..256, 0..64),
        |indices| {
            let mask: NodeMask = indices.iter().copied().collect();
            let mut want: Vec<usize> = indices.clone();
            want.sort_unstable();
            want.dedup();
            assert_eq!(mask.iter().collect::<Vec<_>>(), want);
            assert_eq!(mask.len(), want.len());
            let rebuilt: NodeMask = mask.iter().collect();
            assert_eq!(rebuilt, mask, "iter -> collect is the identity");
        },
    );
}

/// Uniform draws respect their bounds and cover residues.
#[test]
fn rng_bounds() {
    checker!().check(
        "rng_bounds",
        (0u64..u64::MAX, 1u64..1000),
        |(seed, bound)| {
            let (seed, bound) = (*seed, *bound);
            let mut r = Xoshiro256StarStar::new(seed);
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
                let v = r.range_inclusive(10, 10 + bound);
                assert!((10..=10 + bound).contains(&v));
            }
        },
    );
}

/// Slot rounding lands on a boundary at or after the input.
#[test]
fn slot_rounding_properties() {
    checker!().check(
        "slot_rounding_properties",
        (0u64..1_000_000, 1u64..100),
        |&(t, slot)| {
            let rounded = Cycle(t).round_up_to_slot(slot);
            assert!(rounded.as_u64() >= t);
            assert!(rounded.is_slot_boundary(slot));
            assert!(rounded.as_u64() - t < slot);
        },
    );
}

/// A registry drawn from `seed`: up to a dozen entries over all three
/// kinds with 0–3 labels each — counters up to `u64::MAX`, gauges over
/// raw bit patterns (so NaN payloads, subnormals) and the named special
/// values, and histograms fed 0–3 observations (so the empty state
/// occurs).
fn random_registry(seed: u64) -> Registry {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut reg = Registry::new();
    for i in 0..rng.next_below(13) {
        let name = format!("layer{}/m{i}.x", rng.next_below(3));
        let values: Vec<String> = (0..rng.next_below(4))
            .map(|_| format!("v{}", rng.next_below(5)))
            .collect();
        let labels: Vec<(&str, &str)> = ["app", "lane", "kind"]
            .into_iter()
            .zip(values.iter().map(String::as_str))
            .collect();
        match rng.next_below(3) {
            0 => {
                let c = [0, 1, u64::MAX, rng.next_u64()][rng.next_below(4) as usize];
                reg.inc(&name, &labels, c);
            }
            1 => {
                let specials = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY];
                let g = match rng.next_below(6) {
                    k @ 0..=3 => specials[k as usize],
                    _ => f64::from_bits(rng.next_u64()),
                };
                reg.gauge(&name, &labels, g);
            }
            _ => {
                let bins = 1 + rng.next_below(5) as usize;
                let mut h = Histogram::new(1 + rng.next_below(50), bins);
                for _ in 0..rng.next_below(4) {
                    h.record(rng.next_below(400));
                }
                reg.histogram(&name, &labels, h);
            }
        }
    }
    reg
}

/// The registry's line codec is bit-exact: decoding an encoding re-encodes
/// to the same bytes and exports the same JSONL.
#[test]
fn registry_wire_round_trips_bit_exact() {
    checker!().check(
        "registry_wire_round_trips_bit_exact",
        0u64..u64::MAX,
        |&seed| {
            let reg = random_registry(seed);
            let wire = reg.to_wire();
            let back = Registry::from_wire(&wire).expect("an encoding decodes");
            assert_eq!(back.to_wire(), wire);
            assert_eq!(back.to_jsonl(), reg.to_jsonl());
            assert_eq!(back.len(), reg.len());
        },
    );
}

/// `text` after byte deletions, insertions and flips, as the UTF-8 a
/// reader of a damaged file would see.
fn damaged(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match (op, at < bytes.len()) {
            (0, true) => drop(bytes.remove(at)),
            (1, true) => bytes[at] ^= byte | 1,
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// No damage makes a decoder panic: registry wire text and trace JSONL
/// lines with random bytes deleted, inserted or flipped decode to `None`
/// or to a value that re-encodes and re-parses to itself.
#[test]
fn decoders_never_panic() {
    let records = [
        TraceEvent::Inject {
            packet: 7,
            src: 0,
            dst: 5,
            lane: 1,
            tag: u64::MAX,
        },
        TraceEvent::Confirm {
            src: 5,
            dst: 0,
            kind: "receipt".into(),
        },
        TraceEvent::Dir {
            node: 2,
            line: 64,
            from: "DS".into(),
            to: "DM".into(),
        },
        TraceEvent::Mark {
            label: "a \"b\"\\\n\tc\u{1}é".into(),
            value: 3,
        },
    ]
    .map(|event| TraceRecord { cycle: 17, event }.to_jsonl());
    checker!().check(
        "decoders_never_panic",
        (
            0u64..u64::MAX,
            vec_of((0u8..3, 0usize..4096, 0u8..=255), 0..6),
        ),
        |(seed, edits)| {
            let text = damaged(&random_registry(*seed).to_wire(), edits);
            if let Some(reg) = Registry::from_wire(&text) {
                let wire = reg.to_wire();
                let again = Registry::from_wire(&wire).expect("a re-encoding decodes");
                assert_eq!(again.to_wire(), wire);
            }
            let line = damaged(&records[(*seed % 4) as usize], edits);
            if let Some(record) = TraceRecord::parse_jsonl(&line) {
                let line = record.to_jsonl();
                assert_eq!(TraceRecord::parse_jsonl(&line), Some(record));
            }
        },
    );
}
