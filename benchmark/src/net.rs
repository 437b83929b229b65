//! Driving one `Interconnect` directly — no cores, no coherence — with an
//! open-loop injection schedule. The `fsoi_storm` workload, the `core.*`
//! probe and the mesh/ring/crossbar probes all run this one loop.

use crate::trace::Tracer;
use fsoi_cmp::interconnect::{Interconnect, NetPacket};
use fsoi_net::packet::PacketClass;
use fsoi_sim::Cycle;
use std::time::Instant;

/// Cycles per `net.drive` span of a traced drive.
const WINDOW: u64 = 10_000;

/// A traced drive reads the clock around the calls of one loop iteration
/// in this many and scales up: a clock read costs about a third of an FSOI
/// cycle on this host, and four per iteration would double the drive.
const SAMPLE_EVERY: u64 = 32;

/// The benchmark's own generator (SplitMix64), so a schedule depends on
/// `--seed` alone and not on the simulator's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; the bias at these bounds (≤ 256) is < 2^-55.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One scheduled injection, `at` cycles into the segment.
#[derive(Debug, Clone, Copy)]
pub struct Injection {
    at: u32,
    src: u16,
    dst: u16,
    data: bool,
}

/// An open-loop traffic segment: every node offers a packet with
/// probability `p` each cycle, 40 % data / 60 % meta, to a uniform
/// destination — except `hotspot_share` of packets, which go to a hotspot
/// node that moves every `hotspot_period` cycles.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub nodes: usize,
    pub cycles: u64,
    pub p: f64,
    pub hotspot_share: f64,
    pub hotspot_period: u64,
}

impl Traffic {
    /// One replay of `schedule` (generated from `self`), with twice its
    /// length to drain in.
    pub fn once<'a>(&self, schedule: &'a [Injection]) -> Run<'a> {
        Run {
            schedule,
            segment_cycles: self.cycles,
            replays: 1,
            limit_cycles: 2 * self.cycles,
        }
    }

    pub fn generate(&self, seed: u64) -> Vec<Injection> {
        let mut rng = SplitMix64::new(seed);
        let n = self.nodes as u64;
        let mut out = Vec::with_capacity((self.cycles as f64 * n as f64 * self.p * 1.05) as usize);
        let mut hotspot = 0;
        for at in 0..self.cycles {
            if at % self.hotspot_period == 0 {
                hotspot = rng.below(n);
            }
            for src in 0..n {
                if rng.next_f64() >= self.p {
                    continue;
                }
                let data = rng.next_f64() < 0.4;
                let mut dst = if rng.next_f64() < self.hotspot_share {
                    hotspot
                } else {
                    rng.below(n)
                };
                if dst == src {
                    dst = (dst + 1) % n;
                }
                out.push(Injection {
                    at: at as u32,
                    src: src as u16,
                    dst: dst as u16,
                    data,
                });
            }
        }
        out
    }
}

/// What one replay of the segment did; the workload's unit of operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    pub injected: u64,
    pub refused: u64,
    /// Largest `now − due` over the replay's injections: how late the
    /// generator ran. The loop never skips past a due cycle, so this is 0
    /// unless the loop is broken.
    pub lag_cycles: u64,
    /// Totals since the drive began, read when the replay's last packet
    /// was injected — fixed for a seed, so they feed `sim_digest`.
    pub delivered_so_far: u64,
    pub retries_so_far: u64,
    pub latency_so_far: u64,
}

#[derive(Debug, Clone, Default)]
pub struct DriveStats {
    pub replays: Vec<Replay>,
    /// Network time when the loop ended.
    pub cycles: u64,
    pub delivered: u64,
    pub retries: u64,
    pub latency_sum: u64,
    /// Cycles crossed by `advance_to` rather than `tick`.
    pub skipped_cycles: u64,
    /// False when the network still held packets at the cycle limit.
    pub drained: bool,
}

impl DriveStats {
    pub fn injected(&self) -> u64 {
        self.replays.iter().map(|r| r.injected).sum()
    }

    pub fn refused(&self) -> u64 {
        self.replays.iter().map(|r| r.refused).sum()
    }

    pub fn lag_cycles(&self) -> u64 {
        self.replays.iter().map(|r| r.lag_cycles).max().unwrap_or(0)
    }
}

/// One open-loop run: a segment of traffic and how often to replay it.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    pub schedule: &'a [Injection],
    pub segment_cycles: u64,
    pub replays: u64,
    /// The cycle at which the drive gives up on an undrained network.
    pub limit_cycles: u64,
}

/// Replays the segment back-to-back into `net`, then lets it drain. Each
/// cycle: `tick`, `drain`, inject what is due; between events it jumps with
/// `next_event_at`/`advance_to`, bounded by the next due injection — the
/// order and the skip rule of `CmpSystem::run`. `after_replay`, if any,
/// runs each time a replay's last packet has been injected (the storm
/// calibrates there).
pub fn drive(
    net: &mut dyn Interconnect,
    run: Run<'_>,
    after_replay: Option<&mut dyn FnMut()>,
    tr: &mut Tracer,
) -> DriveStats {
    if tr.enabled() {
        drive_impl::<true>(net, run, after_replay, tr)
    } else {
        drive_impl::<false>(net, run, after_replay, tr)
    }
}

/// Time the sampled iterations of a traced window spent in each kind of
/// call, in ns.
#[derive(Default)]
struct WindowTimes {
    inject: u64,
    advance: u64,
    drain: u64,
}

fn drive_impl<const TRACED: bool>(
    net: &mut dyn Interconnect,
    run: Run<'_>,
    mut after_replay: Option<&mut dyn FnMut()>,
    tr: &mut Tracer,
) -> DriveStats {
    let Run {
        schedule,
        segment_cycles,
        replays,
        limit_cycles,
    } = run;
    let mut stats = DriveStats::default();
    let mut replay = Replay::default();
    let mut cycle = net.now().as_u64();
    let mut idx = 0;
    let mut base = cycle;
    let mut done = schedule.is_empty() || replays == 0;

    let mut times = WindowTimes::default();
    let mut window = tr.begin("net.drive", "");
    let mut window_start = crate::host::wall_ns();
    let mut window_end_cycle = cycle + WINDOW;
    // Reads the clock only in the traced instantiation.
    let lap = |since: &mut Option<Instant>| -> u64 {
        match since {
            Some(t) => {
                let now = Instant::now();
                let ns = now.duration_since(*t).as_nanos() as u64;
                *t = now;
                ns
            }
            None => 0,
        }
    };

    let mut iteration = 0u64;
    while !(done && net.is_idle()) {
        if cycle >= limit_cycles {
            break;
        }
        let mut clock = (TRACED && iteration.is_multiple_of(SAMPLE_EVERY)).then(Instant::now);
        iteration += 1;

        net.tick();
        times.advance += lap(&mut clock);

        for d in net.drain() {
            stats.delivered += 1;
            stats.retries += d.retries as u64;
            stats.latency_sum += d.latency;
        }
        times.drain += lap(&mut clock);

        while !done && base + schedule[idx].at as u64 <= cycle {
            let inj = schedule[idx];
            let class = if inj.data {
                PacketClass::Data
            } else {
                PacketClass::Meta
            };
            let packet = NetPacket::new(inj.src as usize, inj.dst as usize, class, idx as u64);
            replay.injected += 1;
            replay.refused += net.inject(packet).is_err() as u64;
            replay.lag_cycles = replay.lag_cycles.max(cycle - (base + inj.at as u64));
            idx += 1;
            if idx == schedule.len() {
                replay.delivered_so_far = stats.delivered;
                replay.retries_so_far = stats.retries;
                replay.latency_so_far = stats.latency_sum;
                stats.replays.push(std::mem::take(&mut replay));
                idx = 0;
                base += segment_cycles;
                done = stats.replays.len() as u64 == replays;
                if let Some(hook) = after_replay.as_mut() {
                    // The hook gets a top-level span of its own, between windows.
                    close_window(tr, window, window_start, &times);
                    times = WindowTimes::default();
                    let span = tr.begin("bench.calibrate", "");
                    hook();
                    tr.end(span);
                    window = tr.begin("net.drive", "");
                    window_start = crate::host::wall_ns();
                    window_end_cycle = cycle + WINDOW;
                    clock = clock.map(|_| Instant::now());
                }
            }
        }
        times.inject += lap(&mut clock);
        cycle += 1;

        let next_due = if done {
            u64::MAX
        } else {
            base + schedule[idx].at as u64
        };
        if next_due > cycle {
            if let Some(t) = net.next_event_at() {
                // u64::MAX from both bounds: nothing can happen without a
                // new injection and none is left — the loop is about to end.
                let target = t.as_u64().min(next_due);
                let target = if target == u64::MAX {
                    cycle
                } else {
                    target.min(limit_cycles)
                };
                if target > cycle {
                    net.advance_to(Cycle(target));
                    stats.skipped_cycles += target - cycle;
                    cycle = target;
                }
            }
        }
        times.advance += lap(&mut clock);

        if TRACED && cycle >= window_end_cycle {
            close_window(tr, window, window_start, &times);
            times = WindowTimes::default();
            window = tr.begin("net.drive", "");
            window_start = crate::host::wall_ns();
            window_end_cycle = cycle + WINDOW;
        }
    }
    close_window(tr, window, window_start, &times);

    stats.cycles = cycle;
    stats.drained = done && net.is_idle();
    stats
}

/// Closes a window's span under three children, one per kind of call:
/// the sampled times scaled to the whole window (and, being estimates,
/// capped so together they fit inside it), laid out back to back.
fn close_window(tr: &mut Tracer, window: crate::trace::SpanId, start_ns: u64, t: &WindowTimes) {
    let elapsed = crate::host::wall_ns().saturating_sub(start_ns);
    let estimate = SAMPLE_EVERY * (t.inject + t.advance + t.drain);
    let fit = |ns: u64| {
        let scaled = SAMPLE_EVERY * ns;
        if estimate > elapsed {
            (scaled as u128 * elapsed as u128 / estimate as u128) as u64
        } else {
            scaled
        }
    };
    let (inject, advance, drain) = (fit(t.inject), fit(t.advance), fit(t.drain));
    tr.batched("net.inject", start_ns, inject);
    tr.batched("net.advance", start_ns + inject, advance);
    tr.batched("net.drain", start_ns + inject + advance, drain);
    tr.end(window);
}
