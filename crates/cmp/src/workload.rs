//! Synthetic application workloads standing in for the paper's suite.
//!
//! The paper evaluates SPLASH-2 (barnes, cholesky, fmm, fft, lu, ocean,
//! radiosity, radix, raytrace, water-spatial) plus em3d, ilink, jacobi,
//! mp3d, shallow and tsp, compiled for Alpha and run on an adapted
//! SimpleScalar. We cannot ship those binaries or an Alpha core; instead
//! each application is modelled as a *memory-reference process* drawing
//! from four pools:
//!
//! * **private hot** — a per-core working set that fits the (deliberately
//!   small, Table 3) 8 KB L1 and hits;
//! * **streaming** — word-granularity sequential walks over a large
//!   per-core region (≈ 1 L1 miss per 8 accesses, the line-size reuse);
//! * **shared hot** — a small set of read-write shared lines: these are
//!   the coherence action (invalidations, downgrades, upgrade races);
//! * **cold** — uniform accesses over a large shared region: L1 misses
//!   that mostly hit the distributed L2, occasionally memory.
//!
//! Per-application pool weights, compute gaps and synchronization cadence
//! are set so L1 miss rates land in the paper's reported 0.8–15.6 % range
//! (average ≈ 4.8 %) and the traffic classes match each program's
//! character. The coherence protocol, networks, collisions and
//! confirmations are all exercised for real — only the instruction stream
//! generating the misses is synthetic (DESIGN.md, substitution 1).

use fsoi_coherence::protocol::{LineAddr, LineRun};
use fsoi_sim::rng::{Geometric, Xoshiro256StarStar};

/// Base of the globally shared region (per-core private regions sit at
/// `core_id << 32`, each in a window of `PRIVATE_WINDOW` bytes).
const SHARED_BASE: u64 = 1 << 48;
/// Bytes of address space each core's private regions must fit in.
const PRIVATE_WINDOW: u64 = 1 << 32;
/// Base of the synchronization variables (locks, barrier words).
const SYNC_BASE: u64 = 1 << 52;
/// Line index of the barrier counter past `SYNC_BASE` (the sense word is
/// the next line); the locks take the lines below it.
const BARRIER_WORD: u64 = 1 << 20;
/// Words per cache line for the streaming walks (32 B / 4 B).
const WORDS_PER_LINE: u64 = 8;
/// Private-hot working-set size in lines (fits the 256-line L1).
const PRIVATE_HOT_LINES: u64 = 96;

/// Tunable description of one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Short name (the paper's x-axis labels).
    pub name: &'static str,
    /// Mean compute cycles between memory operations.
    pub mean_gap: f64,
    /// Fraction of memory operations that are loads.
    pub read_fraction: f64,
    /// Probability an access streams sequentially over the private
    /// streaming region (≈ 1/8 of these miss).
    pub stream_fraction: f64,
    /// Probability an access targets the shared-hot (actively read-write
    /// shared) lines.
    pub shared_hot_fraction: f64,
    /// Probability an access is a cold uniform access over the large
    /// shared region (an L1 miss, usually an L2 hit).
    pub cold_fraction: f64,
    /// Per-core streaming region size in lines.
    pub stream_lines: u64,
    /// Size of the shared-hot set in lines.
    pub shared_hot_lines: u64,
    /// Size of the cold shared region in lines.
    pub shared_cold_lines: u64,
    /// Number of distinct lock variables (0 = lock-free).
    pub locks: usize,
    /// Memory operations between critical sections (0 = never).
    pub lock_interval: u64,
    /// Memory operations between barrier episodes (0 = never).
    pub barrier_interval: u64,
    /// Memory operations each core performs before finishing.
    pub ops_per_core: u64,
}

/// Why an [`AppProfile`] was rejected by [`AppProfile::validate`].
///
/// The fields are public, so a literal can hold anything; these are the
/// values that used to surface as an assert or a `% 0` in the middle of a
/// run (or, for an oversized fraction, not at all) instead of at the door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AppProfileError {
    /// `mean_gap` is negative, not finite, or so large (past ≈ 1.8·10¹⁶)
    /// that `1 − 1 / (mean_gap + 1)` rounds to 1 and every gap draws 0.
    MeanGap {
        /// The requested mean gap.
        mean_gap: f64,
    },
    /// A probability field is outside `[0, 1]` (or NaN).
    Fraction {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// `stream_fraction + shared_hot_fraction + cold_fraction` exceeds 1:
    /// the three pools and the private-hot remainder partition an access.
    PoolFractions {
        /// The sum of the three.
        sum: f64,
    },
    /// A pool has no lines although accesses can be drawn from it.
    EmptyPool {
        /// The size field that is zero.
        field: &'static str,
    },
    /// More than 2²⁰ locks: lock 2²⁰ would be the barrier counter word.
    TooManyLocks {
        /// The requested lock count.
        locks: usize,
    },
    /// A core's private-hot and stream regions run past its 2³²-byte
    /// window into the next core's.
    PrivateWindow {
        /// The requested stream region size.
        stream_lines: u64,
        /// The line size it was laid out with.
        line_bytes: u64,
    },
    /// The shared-hot and shared-cold pools, weak-scaled to `nodes`, reach
    /// the synchronization words (or their size overflows).
    SharedPools {
        /// The node count the cold pool was scaled to.
        nodes: usize,
    },
}

impl std::fmt::Display for AppProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AppProfileError::MeanGap { mean_gap } => {
                write!(f, "mean gap {mean_gap} is not a finite number in 0..1.8e16")
            }
            AppProfileError::Fraction { field, value } => {
                write!(f, "{field} {value} is outside 0..=1")
            }
            AppProfileError::PoolFractions { sum } => write!(
                f,
                "stream + shared-hot + cold fractions sum to {sum}: must leave 0..=1 for private-hot"
            ),
            AppProfileError::EmptyPool { field } => {
                write!(f, "{field} is 0 but accesses draw from that pool")
            }
            AppProfileError::TooManyLocks { locks } => write!(
                f,
                "{locks} locks: at most {BARRIER_WORD}, or a lock is the barrier word"
            ),
            AppProfileError::PrivateWindow {
                stream_lines,
                line_bytes,
            } => write!(
                f,
                "{stream_lines} stream lines of {line_bytes} B overrun a core's \
                 {PRIVATE_WINDOW}-byte private window"
            ),
            AppProfileError::SharedPools { nodes } => write!(
                f,
                "the shared pools, weak-scaled to {nodes} nodes, reach the synchronization words"
            ),
        }
    }
}

impl std::error::Error for AppProfileError {}

impl AppProfile {
    /// Checks the values the reference stream relies on, on a `nodes`-core
    /// machine with `line_bytes`-byte lines — the address map included:
    /// weak-scaled to `nodes`, its regions must be disjoint (the bulk L2
    /// warm-up relies on it). [`CmpSystem::new`](crate::system::CmpSystem::new)
    /// panics on a profile that fails this.
    pub(crate) fn validate(&self, nodes: usize, line_bytes: u64) -> Result<(), AppProfileError> {
        // A positive gap needs `1 − p < 1`, or every draw is 0.
        let drawable = self.mean_gap == 0.0 || 1.0 - 1.0 / (self.mean_gap + 1.0) < 1.0;
        if !(self.mean_gap.is_finite() && self.mean_gap >= 0.0 && drawable) {
            return Err(AppProfileError::MeanGap {
                mean_gap: self.mean_gap,
            });
        }
        for (field, value) in [
            ("read_fraction", self.read_fraction),
            ("stream_fraction", self.stream_fraction),
            ("shared_hot_fraction", self.shared_hot_fraction),
            ("cold_fraction", self.cold_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(AppProfileError::Fraction { field, value });
            }
        }
        let sum = self.stream_fraction + self.shared_hot_fraction + self.cold_fraction;
        if sum > 1.0 {
            return Err(AppProfileError::PoolFractions { sum });
        }
        // Critical sections draw from the shared-hot lines too.
        let critical_sections = self.locks > 0 && self.lock_interval > 0;
        for (field, lines, drawn_from) in [
            (
                "stream_lines",
                self.stream_lines,
                self.stream_fraction > 0.0,
            ),
            (
                "shared_hot_lines",
                self.shared_hot_lines,
                self.shared_hot_fraction > 0.0 || critical_sections,
            ),
            (
                "shared_cold_lines",
                self.shared_cold_lines,
                self.cold_fraction > 0.0,
            ),
        ] {
            if lines == 0 && drawn_from {
                return Err(AppProfileError::EmptyPool { field });
            }
        }
        if self.locks as u64 > BARRIER_WORD {
            return Err(AppProfileError::TooManyLocks { locks: self.locks });
        }
        // A region's end, in bytes past its base.
        let span = |lines: &[u64]| {
            let lines = lines.iter().try_fold(0u64, |sum, &l| sum.checked_add(l));
            lines.and_then(|l| l.checked_mul(line_bytes))
        };
        // The hot region alone is 104 lines, so this also bounds the line
        // size far below where the sync words would pass 2⁶⁴.
        if span(&[PRIVATE_HOT_LINES + 8, self.stream_lines]).is_none_or(|s| s > PRIVATE_WINDOW) {
            return Err(AppProfileError::PrivateWindow {
                stream_lines: self.stream_lines,
                line_bytes,
            });
        }
        let scaled = self.weak_scaled(nodes)?;
        let shared = span(&[scaled.shared_hot_lines, 8, scaled.shared_cold_lines]);
        if shared.is_none_or(|s| s > SYNC_BASE - SHARED_BASE) {
            return Err(AppProfileError::SharedPools { nodes });
        }
        Ok(())
    }

    /// The profile a `nodes`-core machine runs. Weak scaling: larger
    /// machines run proportionally larger shared problems (per-core work
    /// fixed), so the cold footprint grows with the node count beyond the
    /// 16-node baseline.
    pub(crate) fn weak_scaled(mut self, nodes: usize) -> Result<AppProfile, AppProfileError> {
        if nodes > 16 {
            self.shared_cold_lines = self
                .shared_cold_lines
                .checked_mul((nodes / 16) as u64)
                .ok_or(AppProfileError::SharedPools { nodes })?;
        }
        Ok(self)
    }

    /// The sixteen applications of the paper's Figures 6–10, in plot
    /// order: ba ch fmm fft lu oc ro rx ray ws em ilink ja mp sh tsp.
    pub fn suite() -> Vec<AppProfile> {
        #[expect(
            clippy::too_many_arguments,
            reason = "one positional column per AppProfile field keeps the table below readable"
        )]
        fn p(
            name: &'static str,
            mean_gap: f64,
            read_fraction: f64,
            stream_fraction: f64,
            shared_hot_fraction: f64,
            cold_fraction: f64,
            stream_lines: u64,
            shared_hot_lines: u64,
            shared_cold_lines: u64,
            locks: usize,
            lock_interval: u64,
            barrier_interval: u64,
        ) -> AppProfile {
            AppProfile {
                name,
                mean_gap,
                read_fraction,
                stream_fraction,
                shared_hot_fraction,
                cold_fraction,
                stream_lines,
                shared_hot_lines,
                shared_cold_lines,
                locks,
                lock_interval,
                barrier_interval,
                ops_per_core: 3_000,
            }
        }
        vec![
            // N-body: tree walks (cold pointer chasing), cell locks.
            p(
                "ba", 2.5, 0.75, 0.044, 0.035, 0.0110, 700, 320, 3000, 16, 120, 0,
            ),
            // Sparse factorization: irregular panels, task-queue locks.
            p(
                "ch", 2.5, 0.70, 0.055, 0.028, 0.0083, 800, 256, 3500, 8, 90, 0,
            ),
            // Fast multipole: phases with barriers + list locks.
            p(
                "fmm", 2.5, 0.72, 0.044, 0.028, 0.0066, 700, 256, 3000, 8, 150, 450,
            ),
            // FFT: staged all-to-all transpose, heavy streaming.
            p(
                "fft", 2.0, 0.60, 0.138, 0.021, 0.0110, 1100, 128, 4500, 0, 0, 350,
            ),
            // Dense LU: blocked streaming, barrier-separated.
            p(
                "lu", 2.0, 0.65, 0.110, 0.028, 0.0066, 1000, 128, 3500, 0, 0, 300,
            ),
            // Ocean: huge grids — the most streaming-intensive.
            p(
                "oc", 1.5, 0.62, 0.220, 0.028, 0.0138, 1200, 128, 5000, 0, 0, 250,
            ),
            // Radiosity: task stealing, irregular, lock heavy.
            p(
                "ro", 2.2, 0.72, 0.033, 0.049, 0.0083, 600, 384, 2500, 24, 80, 0,
            ),
            // Radix: permutation writes — cold-dominated, high miss.
            p(
                "rx", 1.8, 0.45, 0.099, 0.021, 0.0330, 1100, 128, 20_000, 0, 0, 300,
            ),
            // Raytrace: read-mostly BVH with work-queue locks.
            p(
                "ray", 2.2, 0.85, 0.044, 0.028, 0.0165, 900, 256, 4500, 12, 110, 0,
            ),
            // Water-spatial: small boxes, the lightest traffic.
            p(
                "ws", 4.0, 0.70, 0.022, 0.021, 0.0028, 500, 128, 1200, 8, 140, 500,
            ),
            // em3d: bipartite graph relaxation — remote-read dominated.
            p(
                "em", 1.2, 0.80, 0.121, 0.035, 0.0275, 1100, 256, 19_000, 0, 0, 400,
            ),
            // ilink: genetic linkage, moderate everything.
            p(
                "ilink", 2.5, 0.70, 0.055, 0.028, 0.0066, 800, 256, 3000, 8, 130, 0,
            ),
            // Jacobi: stencil sweeps, very regular.
            p(
                "ja", 3.0, 0.65, 0.165, 0.014, 0.0044, 1200, 64, 2000, 0, 0, 280,
            ),
            // mp3d: particle push — notorious write sharing + high miss.
            p(
                "mp", 1.2, 0.50, 0.066, 0.070, 0.0248, 1000, 512, 16_000, 4, 200, 300,
            ),
            // Shallow: weather grids, streaming with barriers.
            p(
                "sh", 2.0, 0.63, 0.154, 0.021, 0.0066, 1100, 128, 3000, 0, 0, 260,
            ),
            // TSP branch-and-bound: tiny footprint, bound-variable lock.
            p(
                "tsp", 4.5, 0.78, 0.017, 0.028, 0.0022, 400, 128, 800, 2, 200, 0,
            ),
        ]
    }

    /// Looks up a profile by name.
    pub fn by_name(name: &str) -> Option<AppProfile> {
        Self::suite().into_iter().find(|p| p.name == name)
    }

    /// Expected L1 miss rate of the reference process alone (streaming
    /// reuse + cold accesses; shared-hot invalidation misses add to this).
    pub fn expected_base_miss_rate(&self) -> f64 {
        self.stream_fraction / WORDS_PER_LINE as f64 + self.cold_fraction
    }

    /// The application's address map, for cache warm-up: every line it can
    /// touch as ordered runs of consecutive lines — the locks, the two
    /// barrier words and the shared-hot and shared-cold pools first (they
    /// matter most under L2 capacity), then per core its private-hot and
    /// stream regions. [`validate`](Self::validate) proves them disjoint.
    pub(crate) fn region_runs(&self, nodes: usize, line_bytes: u64) -> Vec<LineRun> {
        let run = |first, count| LineRun::contiguous(LineAddr(first), count, line_bytes);
        let mut runs = vec![
            run(Self::lock_line(0, line_bytes).0, self.locks as u64),
            run(Self::barrier_line(line_bytes).0, 2), // counter, sense
            run(SHARED_BASE, self.shared_hot_lines),
            run(self.cold_base(line_bytes), self.shared_cold_lines),
        ];
        for core in 0..nodes {
            runs.push(run(private_base(core), PRIVATE_HOT_LINES));
            runs.push(run(stream_base(core, line_bytes), self.stream_lines));
        }
        runs
    }

    /// Base of the shared-cold pool (eight lines past the shared-hot one).
    fn cold_base(&self, line_bytes: u64) -> u64 {
        SHARED_BASE + (self.shared_hot_lines + 8) * line_bytes
    }

    /// Every line of `region_runs`, one by one: the slow reference the
    /// run split is tested against.
    #[cfg(test)]
    fn all_region_lines(&self, nodes: usize, line_bytes: u64) -> Vec<LineAddr> {
        let mut lines = Vec::new();
        for i in 0..self.locks {
            lines.push(Self::lock_line(i, line_bytes));
        }
        lines.push(Self::barrier_line(line_bytes));
        lines.push(Self::barrier_sense_line(line_bytes));
        for idx in 0..self.shared_hot_lines {
            lines.push(LineAddr(SHARED_BASE + idx * line_bytes));
        }
        let cold_base = SHARED_BASE + (self.shared_hot_lines + 8) * line_bytes;
        for idx in 0..self.shared_cold_lines {
            lines.push(LineAddr(cold_base + idx * line_bytes));
        }
        for core in 0..nodes {
            let private = (core as u64) << 32;
            for idx in 0..PRIVATE_HOT_LINES {
                lines.push(LineAddr(private + idx * line_bytes));
            }
            let stream_base = private + (PRIVATE_HOT_LINES + 8) * line_bytes;
            for idx in 0..self.stream_lines {
                lines.push(LineAddr(stream_base + idx * line_bytes));
            }
        }
        lines
    }

    /// The line address of lock `i`.
    pub(crate) fn lock_line(i: usize, line_bytes: u64) -> LineAddr {
        LineAddr(SYNC_BASE + i as u64 * line_bytes)
    }

    /// The barrier counter line.
    pub(crate) fn barrier_line(line_bytes: u64) -> LineAddr {
        LineAddr(SYNC_BASE + BARRIER_WORD * line_bytes)
    }

    /// The barrier sense (release flag) line spinners watch.
    pub(crate) fn barrier_sense_line(line_bytes: u64) -> LineAddr {
        LineAddr(SYNC_BASE + (BARRIER_WORD + 1) * line_bytes)
    }
}

/// Base of core `core`'s private window (its private-hot pool).
fn private_base(core: usize) -> u64 {
    core as u64 * PRIVATE_WINDOW
}

/// Base of core `core`'s stream region (eight lines past private-hot).
fn stream_base(core: usize, line_bytes: u64) -> u64 {
    private_base(core) + (PRIVATE_HOT_LINES + 8) * line_bytes
}

/// One step of a core's instruction stream. A load or store brings the
/// compute gap that follows it along: see [`CoreWorkload::take_think`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// A load.
    Read(LineAddr),
    /// A store.
    Write(LineAddr),
    /// Enter the critical section guarded by lock `id`.
    LockAcquire(usize),
    /// Leave it.
    LockRelease(usize),
    /// Arrive at the global barrier.
    BarrierArrive,
}

/// Per-core generator of the application's reference stream.
#[derive(Debug)]
pub(crate) struct CoreWorkload {
    profile: AppProfile,
    core: usize,
    line_bytes: u64,
    rng: Xoshiro256StarStar,
    /// The compute-gap distribution, `p = 1 / (mean_gap + 1)`.
    gap: Geometric,
    issued: u64,
    stream_word: u64,
    since_lock: u64,
    since_barrier: u64,
    /// Remaining ops inside the current critical section (0 = outside).
    critical_left: u64,
    held_lock: Option<usize>,
    /// The compute gap drawn with the last load or store, owed until the
    /// kernel takes it ([`take_think`](Self::take_think)).
    think: u64,
}

impl CoreWorkload {
    /// Creates core `core`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `profile.mean_gap` is negative or not finite (see
    /// [`AppProfile::validate`]).
    pub(crate) fn new(profile: AppProfile, core: usize, line_bytes: u64, seed: u64) -> Self {
        CoreWorkload {
            profile,
            core,
            line_bytes,
            rng: Xoshiro256StarStar::new(seed ^ (core as u64).wrapping_mul(0x9E37_79B9)),
            gap: Geometric::new(1.0 / (profile.mean_gap + 1.0)),
            issued: 0,
            stream_word: 0,
            since_lock: 0,
            since_barrier: 0,
            critical_left: 0,
            held_lock: None,
            think: 0,
        }
    }

    /// Memory operations issued so far.
    #[cfg(test)]
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }

    /// The lock whose critical section the stream is inside, if any.
    pub(crate) fn held_lock(&self) -> Option<usize> {
        self.held_lock
    }

    /// Takes the think time of the last load or store: the compute cycles
    /// between its completion and the next issue. It stays owed while the
    /// access stalls or misses; the kernel spends it when the access
    /// completes.
    pub(crate) fn take_think(&mut self) -> u64 {
        std::mem::take(&mut self.think)
    }

    /// Whether think time is still owed.
    pub(crate) fn owes_think(&self) -> bool {
        self.think > 0
    }

    /// True once the stream is exhausted.
    #[cfg(test)]
    pub(crate) fn is_done(&self) -> bool {
        self.issued >= self.profile.ops_per_core && self.held_lock.is_none()
    }

    fn pick_address(&mut self) -> LineAddr {
        let p = self.profile;
        let u = self.rng.next_f64();
        let line_idx;
        let base;
        if u < p.stream_fraction {
            // Word-granularity sequential walk: one miss per line of reuse.
            self.stream_word += 1;
            line_idx = (self.stream_word / WORDS_PER_LINE) % p.stream_lines;
            base = stream_base(self.core, self.line_bytes);
        } else if u < p.stream_fraction + p.shared_hot_fraction {
            line_idx = self.rng.next_below(p.shared_hot_lines);
            base = SHARED_BASE;
        } else if u < p.stream_fraction + p.shared_hot_fraction + p.cold_fraction {
            line_idx = self.rng.next_below(p.shared_cold_lines);
            base = p.cold_base(self.line_bytes);
        } else {
            line_idx = self.rng.next_below(PRIVATE_HOT_LINES);
            base = private_base(self.core);
        }
        LineAddr(base + line_idx * self.line_bytes)
    }

    fn pick_shared_hot(&mut self) -> LineAddr {
        let idx = self.rng.next_below(self.profile.shared_hot_lines);
        LineAddr(SHARED_BASE + idx * self.line_bytes)
    }

    /// Produces the next operation, or `None` when the core is done. A
    /// load or store also draws its think time, after its own draws.
    pub(crate) fn next_op(&mut self) -> Option<Op> {
        let p = self.profile;
        // Close an open critical section.
        if let Some(lock) = self.held_lock {
            if self.critical_left == 0 {
                self.held_lock = None;
                return Some(Op::LockRelease(lock));
            }
        }

        if self.issued >= p.ops_per_core {
            return None;
        }

        // Synchronization comes first at its cadence.
        if self.held_lock.is_none()
            && p.barrier_interval > 0
            && self.since_barrier >= p.barrier_interval
        {
            self.since_barrier = 0;
            return Some(Op::BarrierArrive);
        }
        if self.held_lock.is_none()
            && p.locks > 0
            && p.lock_interval > 0
            && self.since_lock >= p.lock_interval
        {
            self.since_lock = 0;
            let lock = self.rng.next_below(p.locks as u64) as usize;
            self.held_lock = Some(lock);
            self.critical_left = 1 + self.rng.next_below(4);
            return Some(Op::LockAcquire(lock));
        }

        // A regular memory operation.
        self.issued += 1;
        self.since_lock += 1;
        self.since_barrier += 1;
        let op = if self.critical_left > 0 {
            self.critical_left -= 1;
            // Critical sections mutate lock-protected shared state.
            let line = self.pick_shared_hot();
            if self.rng.bernoulli(0.5) {
                Op::Write(line)
            } else {
                Op::Read(line)
            }
        } else {
            let line = self.pick_address();
            if self.rng.bernoulli(p.read_fraction) {
                Op::Read(line)
            } else {
                Op::Write(line)
            }
        };
        self.think = self.gap.sample(&mut self.rng);
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_sixteen_distinct_apps() {
        let suite = AppProfile::suite();
        assert_eq!(suite.len(), 16);
        let mut names: Vec<&str> = suite.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "names must be unique");
        assert!(AppProfile::by_name("fft").is_some());
        assert!(AppProfile::by_name("nope").is_none());
    }

    #[test]
    fn profiles_are_physical() {
        for p in AppProfile::suite() {
            assert!(p.mean_gap > 0.0, "{}", p.name);
            assert!((0.0..=1.0).contains(&p.read_fraction));
            let pools = p.stream_fraction + p.shared_hot_fraction + p.cold_fraction;
            assert!(pools < 1.0, "{}: pools must leave private-hot room", p.name);
            assert!(p.stream_lines > 0 && p.shared_hot_lines > 0 && p.shared_cold_lines > 0);
            assert!(p.ops_per_core > 0);
            if p.lock_interval > 0 {
                assert!(p.locks > 0, "{} locks without variables", p.name);
            }
        }
    }

    #[test]
    fn suite_profiles_validate_at_every_weak_scaling() {
        for p in AppProfile::suite() {
            for nodes in [1, 16, 64, 256] {
                assert_eq!(p.validate(nodes, 32), Ok(()), "{} at {nodes} nodes", p.name);
                let scaled = p.weak_scaled(nodes).unwrap();
                let factor = (nodes as u64 / 16).max(1);
                assert_eq!(scaled.shared_cold_lines, p.shared_cold_lines * factor);
            }
        }
    }

    #[test]
    fn validate_rejects_a_lock_on_the_barrier_word() {
        // Lock 2^20 used to be the barrier counter word.
        let locks = BARRIER_WORD as usize + 1;
        let err = rejected(|p| p.locks = locks);
        assert_eq!(err, AppProfileError::TooManyLocks { locks });
        let mut most = AppProfile::by_name("tsp").unwrap();
        most.locks = BARRIER_WORD as usize;
        assert_eq!(most.validate(16, 32), Ok(()), "locks 0..2^20 fit below it");
        let last = AppProfile::lock_line(most.locks - 1, 32);
        assert!(last < AppProfile::barrier_line(32));
    }

    #[test]
    fn validate_rejects_a_stream_past_the_private_window() {
        // 104 private-hot lines + the stream fill a 2^32-byte window
        // exactly; one line more ran into the next core's private-hot pool.
        let fits = PRIVATE_WINDOW / 32 - (PRIVATE_HOT_LINES + 8);
        let mut edge = AppProfile::by_name("tsp").unwrap();
        edge.stream_lines = fits;
        assert_eq!(edge.validate(16, 32), Ok(()));
        let err = rejected(|p| p.stream_lines = fits + 1);
        let (stream_lines, line_bytes) = (fits + 1, 32);
        assert_eq!(
            err,
            AppProfileError::PrivateWindow {
                stream_lines,
                line_bytes
            }
        );
        assert!(err.to_string().contains("private window"));
        // The same stream in wider lines, and a line size that overflows.
        let wide = AppProfileError::PrivateWindow {
            stream_lines: fits,
            line_bytes: 64,
        };
        assert_eq!(edge.validate(16, 64), Err(wide));
        assert!(edge.validate(16, 1 << 63).is_err());
    }

    #[test]
    fn validate_rejects_shared_pools_that_reach_the_sync_words() {
        // Shared-hot + 8 + cold lines fill SYNC_BASE - SHARED_BASE exactly.
        let mut edge = AppProfile::by_name("tsp").unwrap();
        let room = (SYNC_BASE - SHARED_BASE) / 32;
        edge.shared_cold_lines = room - edge.shared_hot_lines - 8;
        assert_eq!(edge.validate(16, 32), Ok(()));
        edge.shared_cold_lines += 1;
        assert_eq!(
            edge.validate(16, 32),
            Err(AppProfileError::SharedPools { nodes: 16 })
        );
        // Weak scaling is what pushes a 16-node-sized pool over.
        let mut grows = AppProfile::by_name("tsp").unwrap();
        grows.shared_cold_lines = room / 2;
        assert_eq!(grows.validate(16, 32), Ok(()));
        let err = AppProfileError::SharedPools { nodes: 64 };
        assert_eq!(grows.validate(64, 32), Err(err));
        assert!(err.to_string().contains("64 nodes"));
        // And the scaling itself overflows instead of wrapping.
        grows.shared_cold_lines = u64::MAX / 2;
        assert_eq!(grows.weak_scaled(64), Err(err));
        assert_eq!(grows.validate(64, 32), Err(err));
        assert_eq!(
            grows.weak_scaled(16).map(|p| p.shared_cold_lines),
            Ok(u64::MAX / 2)
        );
    }

    #[test]
    fn region_runs_split_by_home_equals_filtered_lines() {
        use fsoi_check::{select, Checker};
        use fsoi_coherence::directory::{Directory, WarmMap};
        use fsoi_coherence::protocol::DirState;
        use std::rc::Rc;
        // (nodes, locks, shared-hot), (shared-cold, stream, line size), L2.
        let gen = (
            (1usize..257, 0usize..40, 1u64..600),
            (1u64..3000, 1u64..1500, select(&[16u64, 32, 64])),
            select(&[4usize, 37, 2048]),
        );
        let check = "region_runs_split_by_home_equals_filtered_lines";
        Checker::new().check(check, gen, |&((n, locks, hot), (cold, stream, lb), l2)| {
            let mut app = AppProfile::by_name("mp").unwrap();
            app.locks = locks;
            app.shared_hot_lines = hot;
            app.shared_cold_lines = cold;
            app.stream_lines = stream;
            assert_eq!(app.validate(n, lb), Ok(()));
            let app = app.weak_scaled(n).unwrap();
            // The reference: every line, dealt to its home in call order.
            let mut homed = vec![Vec::new(); n];
            for line in app.all_region_lines(n, lb) {
                homed[line.home(lb, n)].push(line);
            }
            let runs = app.region_runs(n, lb);
            let map = Rc::new(WarmMap::new(runs.iter().copied(), lb, n));
            for (home, expect) in homed.iter().enumerate() {
                let split = runs.iter().map(|r| r.homed_at(home, lb, n));
                let lines: Vec<LineAddr> = split.flat_map(|r| r.lines()).collect();
                assert_eq!(&lines, expect, "home {home} of {n}");
                // The slice's tier over the shared map (`check_warm` ends
                // it in a debug build) keeps the first `l2_lines`, in order.
                let dir = Directory::warmed(home, 0, l2, &map);
                let kept = expect.len().min(l2);
                assert_eq!(dir.tracked(), kept, "home {home} of {n}");
                assert_eq!(dir.lru_order(), expect[..kept], "home {home} of {n}");
                assert!(expect[..kept]
                    .iter()
                    .all(|&l| dir.state_of(l) == DirState::DV));
                assert!(expect[kept..]
                    .iter()
                    .all(|&l| dir.state_of(l) == DirState::DI));
            }
        });
    }

    fn rejected(tweak: impl Fn(&mut AppProfile)) -> AppProfileError {
        let mut p = AppProfile::by_name("tsp").unwrap();
        tweak(&mut p);
        let err = p.validate(16, 32).unwrap_err();
        assert!(!err.to_string().is_empty());
        err
    }

    #[test]
    fn validate_rejects_a_negative_mean_gap() {
        // Used to die in `Xoshiro256StarStar::geometric` at the first gap.
        let err = rejected(|p| p.mean_gap = -2.0);
        assert_eq!(err, AppProfileError::MeanGap { mean_gap: -2.0 });
        assert!(err.to_string().contains("-2"));
        let mut back_to_back = AppProfile::by_name("tsp").unwrap();
        back_to_back.mean_gap = 0.0;
        assert_eq!(back_to_back.validate(16, 32), Ok(()), "0 is the boundary");
    }

    #[test]
    fn validate_rejects_a_mean_gap_too_large_to_draw() {
        // At 1e17 `1 − p` rounds to 1, so `Geometric`'s `ln_q` is +0.0 and
        // every gap drew 0: the enormous gaps ran back to back.
        let err = rejected(|p| p.mean_gap = 1e17);
        assert_eq!(err, AppProfileError::MeanGap { mean_gap: 1e17 });
        let mut huge = AppProfile::by_name("tsp").unwrap();
        huge.mean_gap = 1e16;
        assert_eq!(huge.validate(16, 32), Ok(()));
        let w = CoreWorkload::new(huge, 0, 32, 2010);
        let mut rng = w.rng.clone();
        assert!((0..5).all(|_| w.gap.sample(&mut rng) > 1_000_000_000_000));
    }

    #[test]
    fn validate_rejects_a_non_finite_mean_gap() {
        for gap in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                rejected(|p| p.mean_gap = gap),
                AppProfileError::MeanGap { .. }
            ));
        }
    }

    #[test]
    fn validate_rejects_fractions_outside_the_unit_interval() {
        // `stream_fraction = 7.0` used to be silently accepted.
        let err = rejected(|p| p.stream_fraction = 7.0);
        let field = "stream_fraction";
        assert_eq!(err, AppProfileError::Fraction { field, value: 7.0 });
        assert!(err.to_string().contains("stream_fraction 7"));
        for (field, set) in [
            (
                "read_fraction",
                (|p, v| p.read_fraction = v) as fn(&mut AppProfile, f64),
            ),
            ("stream_fraction", |p, v| p.stream_fraction = v),
            ("shared_hot_fraction", |p, v| p.shared_hot_fraction = v),
            ("cold_fraction", |p, v| p.cold_fraction = v),
        ] {
            for bad in [-0.1, 1.5, f64::NAN] {
                match rejected(|p| set(p, bad)) {
                    AppProfileError::Fraction { field: f, .. } => assert_eq!(f, field),
                    other => panic!("{field} = {bad}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn validate_rejects_pool_fractions_that_sum_past_one() {
        let err = rejected(|p| {
            p.stream_fraction = 0.5;
            p.shared_hot_fraction = 0.4;
            p.cold_fraction = 0.3;
        });
        assert!(matches!(err, AppProfileError::PoolFractions { sum } if sum > 1.0));
        assert!(err.to_string().contains("private-hot"));
        let mut full = AppProfile::by_name("tsp").unwrap();
        (
            full.stream_fraction,
            full.shared_hot_fraction,
            full.cold_fraction,
        ) = (0.5, 0.25, 0.25);
        assert_eq!(
            full.validate(16, 32),
            Ok(()),
            "exactly 1 leaves private-hot empty"
        );
    }

    #[test]
    fn validate_rejects_an_empty_stream_pool_that_is_drawn_from() {
        // Used to be a remainder by zero in `pick_address`.
        let field = "stream_lines";
        let err = rejected(|p| p.stream_lines = 0);
        assert_eq!(err, AppProfileError::EmptyPool { field });
        assert!(err.to_string().contains(field));
        let mut unused = AppProfile::by_name("tsp").unwrap();
        (unused.stream_lines, unused.stream_fraction) = (0, 0.0);
        assert_eq!(unused.validate(16, 32), Ok(()), "nothing draws from it");
    }

    #[test]
    fn validate_rejects_an_empty_shared_hot_pool_that_is_drawn_from() {
        // Used to die in `Xoshiro256StarStar::next_below(0)`.
        let field = "shared_hot_lines";
        assert_eq!(
            rejected(|p| p.shared_hot_lines = 0),
            AppProfileError::EmptyPool { field }
        );
        // Critical sections draw from it even at fraction 0 …
        let via_locks = rejected(|p| (p.shared_hot_lines, p.shared_hot_fraction) = (0, 0.0));
        assert_eq!(via_locks, AppProfileError::EmptyPool { field });
        // … so only a lock-free profile may leave it empty.
        let mut unused = AppProfile::by_name("tsp").unwrap();
        (unused.shared_hot_lines, unused.shared_hot_fraction) = (0, 0.0);
        unused.lock_interval = 0;
        assert_eq!(unused.validate(16, 32), Ok(()));
    }

    #[test]
    fn validate_rejects_an_empty_cold_pool_that_is_drawn_from() {
        let field = "shared_cold_lines";
        assert_eq!(
            rejected(|p| p.shared_cold_lines = 0),
            AppProfileError::EmptyPool { field }
        );
        let mut unused = AppProfile::by_name("tsp").unwrap();
        (unused.shared_cold_lines, unused.cold_fraction) = (0, 0.0);
        assert_eq!(unused.validate(16, 32), Ok(()));
    }

    #[test]
    fn expected_miss_rates_span_papers_range() {
        // Paper: 0.8 % to 15.6 %, average 4.8 % (with the scaled L1s).
        let suite = AppProfile::suite();
        let rates: Vec<f64> = suite.iter().map(|p| p.expected_base_miss_rate()).collect();
        let avg = rates.iter().sum::<f64>() / rates.len() as f64;
        // The base process accounts for roughly a third of the measured
        // miss rate; the rest comes from sharing invalidations and sync
        // probes, which scale with it.
        assert!(
            (0.012..0.06).contains(&avg),
            "suite average base miss rate = {avg}"
        );
        assert!(rates.iter().any(|&r| r < 0.01), "some app must be light");
        assert!(rates.iter().any(|&r| r > 0.03), "some app must be heavy");
    }

    #[test]
    fn stream_terminates_and_counts_ops() {
        let p = AppProfile::by_name("tsp").unwrap();
        let mut w = CoreWorkload::new(p, 0, 32, 1);
        let mut mem_ops = 0;
        let mut guard = 0;
        while let Some(op) = w.next_op() {
            if matches!(op, Op::Read(_) | Op::Write(_)) {
                mem_ops += 1;
            }
            guard += 1;
            assert!(guard < 100_000, "stream must terminate");
        }
        assert!(w.is_done());
        assert_eq!(mem_ops, p.ops_per_core);
        assert_eq!(w.issued(), p.ops_per_core);
    }

    #[test]
    fn lock_acquires_are_balanced_by_releases() {
        let p = AppProfile::by_name("ro").unwrap();
        let mut w = CoreWorkload::new(p, 2, 32, 7);
        let mut depth: i64 = 0;
        while let Some(op) = w.next_op() {
            match op {
                Op::LockAcquire(_) => {
                    depth += 1;
                    assert_eq!(depth, 1, "no nesting");
                }
                Op::LockRelease(_) => {
                    depth -= 1;
                    assert_eq!(depth, 0);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "every acquire released");
    }

    #[test]
    fn barrier_apps_emit_barriers() {
        let p = AppProfile::by_name("fft").unwrap();
        let mut w = CoreWorkload::new(p, 0, 32, 3);
        let mut barriers = 0;
        while let Some(op) = w.next_op() {
            if op == Op::BarrierArrive {
                barriers += 1;
            }
        }
        let expected = p.ops_per_core / p.barrier_interval;
        assert!(
            (barriers as i64 - expected as i64).abs() <= 1,
            "{barriers} vs {expected}"
        );
    }

    #[test]
    fn lock_free_apps_emit_no_sync() {
        let p = AppProfile::by_name("ja").unwrap();
        assert_eq!(p.locks, 0);
        let mut w = CoreWorkload::new(p, 0, 32, 3);
        while let Some(op) = w.next_op() {
            assert!(!matches!(op, Op::LockAcquire(_) | Op::LockRelease(_)));
        }
    }

    #[test]
    fn addresses_respect_regions() {
        let p = AppProfile::by_name("em").unwrap();
        let mut w = CoreWorkload::new(p, 3, 32, 9);
        let (mut shared, mut private) = (0u64, 0u64);
        while let Some(op) = w.next_op() {
            if let Op::Read(l) | Op::Write(l) = op {
                if l.0 >= SHARED_BASE {
                    shared += 1;
                } else {
                    private += 1;
                    assert_eq!(l.0 >> 32, 3, "private region is per-core");
                }
            }
        }
        let frac = shared as f64 / (shared + private) as f64;
        let expect = p.shared_hot_fraction + p.cold_fraction;
        assert!(
            (frac - expect).abs() < 0.05,
            "shared fraction {frac} vs {expect}"
        );
    }

    #[test]
    fn streaming_reuses_lines_within_words() {
        // Consecutive streaming accesses should mostly repeat the same
        // line: ≈ 1 new line per WORDS_PER_LINE accesses.
        let mut p = AppProfile::by_name("oc").unwrap();
        p.shared_hot_fraction = 0.0;
        p.cold_fraction = 0.0;
        p.stream_fraction = 1.0 - 1e-9;
        p.barrier_interval = 0;
        let mut w = CoreWorkload::new(p, 0, 32, 5);
        let mut lines = std::collections::BTreeSet::new();
        let mut mem = 0u64;
        while let Some(op) = w.next_op() {
            if let Op::Read(l) | Op::Write(l) = op {
                lines.insert(l);
                mem += 1;
            }
        }
        let new_line_rate = lines.len() as f64 / mem as f64;
        assert!(
            (new_line_rate - 1.0 / WORDS_PER_LINE as f64).abs() < 0.05,
            "new-line rate = {new_line_rate}"
        );
    }

    /// The gap draw as it was written before `Geometric`: both logarithms
    /// per draw, and no draw at all for `p = 1`.
    fn per_draw_gap(rng: &mut Xoshiro256StarStar, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    #[test]
    fn gap_stream_equals_per_draw_reference() {
        // Every suite profile, plus `mean_gap` 0 (p = 1, back-to-back).
        let mut profiles = AppProfile::suite().to_vec();
        let mut back_to_back = profiles[0];
        back_to_back.mean_gap = 0.0;
        profiles.push(back_to_back);
        for p in profiles {
            let w = CoreWorkload::new(p, 1, 32, 2010);
            let (name, prob) = (p.name, 1.0 / (p.mean_gap + 1.0));
            let mut fast = w.rng.clone();
            let mut slow = w.rng.clone();
            for i in 0..10_000 {
                let want = per_draw_gap(&mut slow, prob);
                assert_eq!(w.gap.sample(&mut fast), want, "{name}: draw {i}");
            }
            assert_eq!(fast, slow, "{name}: same generator state");
        }
    }

    /// A step of the stream as it was when a compute gap was a step of
    /// its own.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum GapOp {
        Compute(u64),
        Op(Op),
    }

    /// The generator as it was: the gap after a load or store drawn at the
    /// start of the next call (`pending_gap`) and returned as a `Compute`
    /// step. It shares `CoreWorkload`'s state and address draws, not its
    /// `next_op`.
    struct GapOpReference {
        w: CoreWorkload,
        pending_gap: bool,
    }

    impl GapOpReference {
        fn next_op(&mut self) -> Option<GapOp> {
            let w = &mut self.w;
            let p = w.profile;
            if self.pending_gap {
                self.pending_gap = false;
                let gap = w.gap.sample(&mut w.rng);
                if gap > 0 {
                    return Some(GapOp::Compute(gap));
                }
            }
            if let Some(lock) = w.held_lock {
                if w.critical_left == 0 {
                    w.held_lock = None;
                    return Some(GapOp::Op(Op::LockRelease(lock)));
                }
            }
            if w.issued >= p.ops_per_core {
                return None;
            }
            if w.held_lock.is_none()
                && p.barrier_interval > 0
                && w.since_barrier >= p.barrier_interval
            {
                w.since_barrier = 0;
                return Some(GapOp::Op(Op::BarrierArrive));
            }
            if w.held_lock.is_none()
                && p.locks > 0
                && p.lock_interval > 0
                && w.since_lock >= p.lock_interval
            {
                w.since_lock = 0;
                let lock = w.rng.next_below(p.locks as u64) as usize;
                w.held_lock = Some(lock);
                w.critical_left = 1 + w.rng.next_below(4);
                return Some(GapOp::Op(Op::LockAcquire(lock)));
            }
            w.issued += 1;
            w.since_lock += 1;
            w.since_barrier += 1;
            self.pending_gap = true;
            if w.critical_left > 0 {
                w.critical_left -= 1;
                let line = w.pick_shared_hot();
                return Some(GapOp::Op(if w.rng.bernoulli(0.5) {
                    Op::Write(line)
                } else {
                    Op::Read(line)
                }));
            }
            let line = w.pick_address();
            Some(GapOp::Op(if w.rng.bernoulli(p.read_fraction) {
                Op::Read(line)
            } else {
                Op::Write(line)
            }))
        }
    }

    #[test]
    fn think_stream_equals_gap_op_reference() {
        // Every suite profile as is, back to back, with long gaps, and with
        // a lock every 10 and a barrier every 50 operations.
        let mut profiles = Vec::new();
        for p in AppProfile::suite() {
            let (mut back_to_back, mut long, mut synced) = (p, p, p);
            back_to_back.mean_gap = 0.0;
            long.mean_gap = 400.0;
            (synced.lock_interval, synced.barrier_interval) = (10, 50);
            synced.locks = synced.locks.max(2);
            profiles.extend([p, back_to_back, long, synced]);
        }
        for p in profiles {
            for (core, seed) in [(0, 2010), (0, 2011), (5, 2010), (5, 2011)] {
                let what = format!("{} gap {} core {core} seed {seed}", p.name, p.mean_gap);
                let mut reference = GapOpReference {
                    w: CoreWorkload::new(p, core, 32, seed),
                    pending_gap: false,
                };
                let want: Vec<GapOp> = std::iter::from_fn(|| reference.next_op()).collect();
                let mut w = CoreWorkload::new(p, core, 32, seed);
                let mut got = Vec::with_capacity(want.len());
                while let Some(op) = w.next_op() {
                    got.push(GapOp::Op(op));
                    match w.take_think() {
                        0 => {}
                        think => got.push(GapOp::Compute(think)),
                    }
                }
                let first = got.iter().zip(&want).position(|(g, r)| g != r);
                assert_eq!(first, None, "{what}: first differing step");
                assert_eq!(got.len(), want.len(), "{what}: stream length");
                assert_eq!(w.rng, reference.w.rng, "{what}: same generator state");
            }
        }
    }

    #[test]
    fn different_cores_use_different_streams() {
        let p = AppProfile::by_name("ba").unwrap();
        let mut a = CoreWorkload::new(p, 0, 32, 1);
        let mut b = CoreWorkload::new(p, 1, 32, 1);
        let ops_a: Vec<Op> = std::iter::from_fn(|| a.next_op()).take(50).collect();
        let ops_b: Vec<Op> = std::iter::from_fn(|| b.next_op()).take(50).collect();
        assert_ne!(ops_a, ops_b);
    }

    #[test]
    fn sync_lines_are_disjoint_from_data() {
        let l0 = AppProfile::lock_line(0, 32);
        let l1 = AppProfile::lock_line(1, 32);
        assert_ne!(l0, l1);
        assert!(l0.0 >= SYNC_BASE);
        assert_ne!(
            AppProfile::barrier_line(32),
            AppProfile::barrier_sense_line(32)
        );
    }
}
