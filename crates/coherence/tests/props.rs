//! Property tests for the coherence substrate's data structures (on the
//! in-repo `fsoi-check` harness).

use fsoi_check::{checker, select, set_of, vec_of};
use fsoi_coherence::cache::{AllocOutcome, CacheArray};
use fsoi_coherence::protocol::LineAddr;
use fsoi_coherence::sync::{Barrier, BooleanSubscriptionHub};

/// The flat cache array against an exact-LRU model: per set, a list of
/// resident lines from least to most recently used, found by division
/// rather than shift and mask. Over random shapes (1–8 ways, 1–64 sets,
/// 16/32/64 B lines) every lookup, peek, insert, filtered insert under
/// random pins and remove agrees — including *which* line an eviction
/// gives up and the payload it returns.
#[test]
fn cache_array_agrees_with_model() {
    let shape = (1usize..9, 0u32..7, select(&[16u64, 32, 64]));
    let op = (0u8..5, 0u64..1024, 0u8..=255);
    checker!().check(
        "cache_array_agrees_with_model",
        (shape, vec_of(op, 1..400)),
        |&((ways, sets_log2, line_bytes), ref ops)| {
            let sets = 1u64 << sets_log2;
            let mut cache: CacheArray<u64> =
                CacheArray::new(sets * ways as u64 * line_bytes, ways, line_bytes);
            // model[set]: (line, payload), least recently used first.
            let mut model: Vec<Vec<(LineAddr, u64)>> = vec![Vec::new(); sets as usize];
            let set_of = |line: LineAddr| ((line.0 / line_bytes) % sets) as usize;
            // Twice the capacity: sets overflow, lines come back.
            let universe = 2 * sets * ways as u64;
            for (i, &(kind, pick, pins)) in ops.iter().enumerate() {
                let line = LineAddr((pick % universe) * line_bytes);
                let set = &mut model[set_of(line)];
                let at = set.iter().position(|&(l, _)| l == line);
                let payload = i as u64;
                match kind {
                    0 => {
                        let got = cache.lookup(line).map(|p| *p);
                        assert_eq!(got, at.map(|k| set[k].1), "lookup {line}");
                        if let Some(k) = at {
                            let entry = set.remove(k);
                            set.push(entry);
                        }
                    }
                    1 => assert_eq!(cache.peek(line).copied(), at.map(|k| set[k].1)),
                    2 | 3 if at.is_none() => {
                        // A line is pinned when its bit (line index mod 8)
                        // is set; kind 3 is the unfiltered insert.
                        let pinned =
                            |l: LineAddr| kind == 2 && pins >> ((l.0 / line_bytes) % 8) & 1 == 1;
                        let want = if set.len() < ways {
                            Some(None)
                        } else {
                            set.iter()
                                .position(|&(l, _)| !pinned(l))
                                .map(|k| Some(set[k]))
                        };
                        let resident = set.clone();
                        let got = cache.insert_evicting_where(line, payload, |victim, &p| {
                            assert!(resident.contains(&(victim, p)), "candidate {victim}");
                            !pinned(victim)
                        });
                        match (got, want) {
                            (Err(p), None) => assert_eq!(p, payload),
                            (Ok(AllocOutcome::Inserted), Some(None)) => set.push((line, payload)),
                            (
                                Ok(AllocOutcome::Evicted {
                                    line: l,
                                    payload: p,
                                }),
                                Some(Some(v)),
                            ) => {
                                assert_eq!((l, p), v, "victim of {line}");
                                set.retain(|&e| e != v);
                                set.push((line, payload));
                            }
                            (got, want) => panic!("insert {line}: {got:?}, model {want:?}"),
                        }
                    }
                    4 => {
                        assert_eq!(cache.remove(line), at.map(|k| set.remove(k).1));
                    }
                    _ => {}
                }
                let resident: usize = model.iter().map(Vec::len).sum();
                assert_eq!(cache.len(), resident);
                assert_eq!(cache.is_empty(), resident == 0);
                assert!(cache.len() <= cache.capacity_lines());
            }
        },
    );
}

/// A barrier of n participants releases exactly every n-th arrival and
/// flips its sense each episode.
#[test]
fn barrier_releases_every_nth() {
    checker!().check(
        "barrier_releases_every_nth",
        (1usize..32, 1usize..200),
        |&(n, arrivals)| {
            let mut b = Barrier::new(n);
            let mut sense = b.sense();
            for i in 1..=arrivals {
                let released = b.arrive();
                assert_eq!(released, i % n == 0, "arrival {} of groups of {}", i, n);
                if released {
                    assert_ne!(b.sense(), sense, "sense flips");
                    sense = b.sense();
                }
            }
            assert_eq!(b.episodes(), (arrivals / n) as u64);
        },
    );
}

/// Subscription pushes go to exactly the live subscribers minus the
/// writer, and unsubscribing them all empties the line.
#[test]
fn subscription_hub_membership() {
    checker!().check(
        "subscription_hub_membership",
        (set_of(0..16, 1..10), 0usize..16),
        |(subs, writer)| {
            let writer = *writer;
            let mut hub = BooleanSubscriptionHub::new();
            let line = LineAddr(0x40);
            for &s in subs {
                hub.subscribe(line, s);
            }
            let targets = hub.push_update(line, writer);
            let expect: Vec<usize> = subs.iter().copied().filter(|&s| s != writer).collect();
            assert_eq!(targets, expect);
            assert_eq!(&hub.subscribers(line), subs);
            for &s in subs {
                hub.unsubscribe(line, s);
            }
            assert!(hub.subscribers(line).is_empty());
        },
    );
}
