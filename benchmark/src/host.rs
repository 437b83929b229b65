//! Host-side measurement: the on-CPU clock of the driving thread, the wall
//! clock, peak resident memory, and order statistics over pass samples.

use std::sync::OnceLock;
use std::time::Instant;

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall-clock nanoseconds since the process's first clock read.
pub fn wall_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The clock `host_s` and `setup_s` are read from: nanoseconds the calling
/// thread has spent on a CPU, from the first field of
/// `/proc/thread-self/schedstat`. On a shared host the wall clock also
/// counts the time other tenants held the core; this one does not. The
/// kernel brings the figure up to date at scheduler ticks (4 ms here) and
/// whenever the thread leaves the CPU, so each read yields first: that
/// makes it exact to ~10 us, at the price of a system call per read.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock {
    on_cpu: bool,
}

impl CpuClock {
    /// Uses schedstat where it can be read, the wall clock elsewhere.
    pub fn detect() -> CpuClock {
        CpuClock {
            on_cpu: read_schedstat().is_some(),
        }
    }

    pub fn source(&self) -> &'static str {
        if self.on_cpu {
            "schedstat"
        } else {
            "wall"
        }
    }

    pub fn now_ns(&self) -> u64 {
        if self.on_cpu {
            std::thread::yield_now();
            // The file was readable at `detect`; if it stops being so the
            // sample reads 0 and the pass shows as an outlier, not a panic.
            read_schedstat().unwrap_or(0)
        } else {
            wall_ns()
        }
    }
}

fn read_schedstat() -> Option<u64> {
    let text = std::fs::read_to_string(SCHEDSTAT).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`), if `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median, quartiles and range of a set of pass samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by linear interpolation between order statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set: every caller times at least one pass.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (s.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }
}

/// Median of `reps` timings of `f`, each over `iters` calls, in ns per call.
/// For the layer probes: short, wall-clocked, and reported per operation.
pub fn ns_per_call<R>(reps: usize, iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    Summary::of(&samples).median
}

/// Steps of one calibration slice (4-5 ms on this host).
const SLICE_STEPS: u32 = 500_000;

/// On-CPU work between calibration slices.
const WORK_PER_SLICE_NS: u64 = 50_000_000;

/// What one calibration step costs on the reference host — about this one
/// when its neighbours are quiet. Normalized seconds are seconds there.
const REFERENCE_NS_PER_STEP: f64 = 8.0;

/// A fixed piece of work shaped like the simulator's — dependent loads over
/// a cache-sized table, integer mixing, data-dependent branches — run in
/// slices between the operations of a pass to tell how fast the host is
/// going at that moment.
#[derive(Debug)]
struct Calibrator {
    table: Vec<u64>,
    idx: usize,
    acc: u64,
}

impl Calibrator {
    const SLOTS: usize = 1 << 16;

    fn new() -> Calibrator {
        Calibrator {
            table: (0..Self::SLOTS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
                .collect(),
            idx: 0,
            acc: 1,
        }
    }

    fn slice(&mut self) {
        let (mut idx, mut acc) = (self.idx, self.acc);
        for _ in 0..SLICE_STEPS {
            let v = self.table[idx];
            acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(v);
            if acc & 0x10 != 0 {
                self.table[idx] = v ^ acc;
            }
            idx = ((v ^ acc) >> 9) as usize & (Self::SLOTS - 1);
        }
        (self.idx, self.acc) = std::hint::black_box((idx, acc));
    }
}

/// The on-CPU time of one pass, split into set-up, host (simulation) and
/// the calibration slices run in between.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub setup_cpu_ns: u64,
    pub host_cpu_ns: u64,
    pub calib_cpu_ns: u64,
    pub calib_steps: u64,
}

impl Timing {
    /// How much slower than the reference host the calibration ran during
    /// this pass (1.0 = as fast).
    pub fn slowdown(&self) -> f64 {
        self.calib_cpu_ns as f64 / (self.calib_steps as f64 * REFERENCE_NS_PER_STEP)
    }

    /// Set-up seconds, normalized: on-CPU time divided by the slowdown.
    pub fn setup_s(&self) -> f64 {
        self.setup_cpu_ns as f64 / 1e9 / self.slowdown()
    }

    /// Host seconds, normalized likewise.
    pub fn host_s(&self) -> f64 {
        self.host_cpu_ns as f64 / 1e9 / self.slowdown()
    }
}

/// Splits a pass's on-CPU time as it goes. On this shared host identical
/// passes differ by up to 50 % in on-CPU time from one second to the next
/// (neighbours on the core), which no statistic over passes removes; the
/// calibration slices see the same neighbours, so the ratio is steady.
#[derive(Debug)]
pub struct Meter {
    clock: CpuClock,
    calibrator: Calibrator,
    last_ns: u64,
    /// Host work not yet matched by a calibration slice.
    owed_ns: u64,
    timing: Timing,
}

impl Meter {
    pub fn new(clock: CpuClock) -> Meter {
        Meter {
            clock,
            calibrator: Calibrator::new(),
            last_ns: 0,
            owed_ns: 0,
            timing: Timing::default(),
        }
    }

    /// Starts timing a pass.
    pub fn start(&mut self) {
        self.timing = Timing::default();
        // Every pass is calibrated at least once.
        self.owed_ns = WORK_PER_SLICE_NS;
        self.last_ns = self.clock.now_ns();
    }

    fn lap(&mut self) -> u64 {
        let now = self.clock.now_ns();
        let ns = now.saturating_sub(self.last_ns);
        self.last_ns = now;
        ns
    }

    /// Books the time since the last call as set-up.
    pub fn setup_done(&mut self) {
        self.timing.setup_cpu_ns += self.lap();
    }

    /// Books the time since the last call as host time, then calibrates in
    /// proportion to it.
    pub fn work_done(&mut self) {
        let ns = self.lap();
        self.timing.host_cpu_ns += ns;
        self.owed_ns += ns;
        let mut slices = 0;
        while self.owed_ns >= WORK_PER_SLICE_NS {
            self.calibrator.slice();
            self.owed_ns -= WORK_PER_SLICE_NS;
            slices += 1;
        }
        if slices > 0 {
            self.timing.calib_cpu_ns += self.lap();
            self.timing.calib_steps += slices * SLICE_STEPS as u64;
        }
    }

    /// The pass so far.
    pub fn timing(&self) -> Timing {
        self.timing
    }
}
