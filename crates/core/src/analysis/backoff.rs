//! Collision-resolution-delay analysis over the back-off parameters
//! (Figure 4) and the pathological all-to-one burst (§4.3.2).
//!
//! The paper derives the average resolution delay of a meta-packet
//! collision as a function of the starting window `W` and growth base `B`,
//! with regular "background" traffic continuing at rate `G`, and finds the
//! minimum at `W = 2.7, B = 1.1` (≈ 7.26 cycles; their simulation measured
//! 6.8–9.6). It also checks the pathological case — all 63 peers of a
//! 64-node system transmitting to one node at once — where `B = 1.1` needs
//! ≈ 26 retries (416 cycles), `B = 2` about 5 retries (199 cycles), and a
//! *fixed* window of 3 an astronomical 8.2 × 10¹⁰ retries.

use crate::backoff::BackoffPolicy;
use fsoi_sim::rng::Xoshiro256StarStar;

/// A trial stops at this slot; originals still unresolved there are left
/// out of the mean.
const SLOT_CAP: u64 = 100_000;

/// Monte-Carlo estimate of the mean collision-resolution delay (in cycles)
/// for a two-packet meta collision, with background traffic joining the
/// same receiver at probability `g` per slot.
///
/// `slot_cycles` is the meta slot length (2 in the default configuration)
/// and `confirmation_cycles` the detect delay (2). The returned delay is
/// measured from the colliding slot's start to the start of each original
/// packet's successful retransmission, averaged over both packets and all
/// trials — the same definition as a collided packet's
/// [`NetDelivery::resolution`](fsoi_sim::packet::NetDelivery::resolution),
/// whose data-lane mean over collided packets is the CMP run report's
/// `data_resolution_delay`.
pub fn resolution_delay(
    policy: BackoffPolicy,
    g: f64,
    slot_cycles: u64,
    confirmation_cycles: u64,
    trials: u32,
    seed: u64,
) -> f64 {
    assert!((0.0..1.0).contains(&g), "background rate must be in [0, 1)");
    assert!(slot_cycles > 0);
    let cell = Fig4Cell {
        policy,
        g,
        slot_cycles,
        // Detection happens this many slots after the colliding slot.
        detect_slots: confirmation_cycles.div_ceil(slot_cycles),
        slot_cap: SLOT_CAP,
    };
    cell.mean_delay(trials, &mut Xoshiro256StarStar::new(seed))
}

/// Retries whose back-off window [`Fig4Cell::mean_delay`] looks up.
const WINDOW_TABLE: u32 = 512;

/// One Figure 4 cell's Monte-Carlo parameters.
#[derive(Debug, Clone, Copy)]
struct Fig4Cell {
    policy: BackoffPolicy,
    g: f64,
    slot_cycles: u64,
    detect_slots: u64,
    slot_cap: u64,
}

impl Fig4Cell {
    /// Runs `trials` trials slot by slot. Each slot draws its background
    /// arrival, then looks at the contenders due in it: one alone goes
    /// through (an original is resolved), two or more collide and redraw.
    /// Only the due contenders are looked at, through a wheel of due
    /// slots; the draws and their order are those of a scan of the whole
    /// contender list in its `Vec` order, which a clean slot's
    /// `swap_remove` permutes.
    fn mean_delay(&self, trials: u32, rng: &mut Xoshiro256StarStar) -> f64 {
        // A window costs a `powi`; the first retries' are looked up.
        let windows: Vec<f64> = (1..=WINDOW_TABLE)
            .map(|r| self.policy.window_for_retry(r))
            .collect();
        let draw = |retry: u32, rng: &mut Xoshiro256StarStar| {
            let window = match windows.get(retry as usize - 1) {
                Some(&w) => w,
                None => self.policy.window_for_retry(retry),
            };
            BackoffPolicy::draw_in_window(window, rng)
        };
        let mut total_delay_cycles = 0.0;
        let mut resolved_packets = 0u64;
        let mut contenders = Contenders::new();
        for _ in 0..trials {
            contenders.clear();
            for _ in 0..2 {
                let d = draw(1, rng);
                contenders.push(self.detect_slots + d, 1, true);
            }
            let mut originals_left = 2;
            let mut slot = 1u64;
            while originals_left > 0 && slot < self.slot_cap {
                // Background arrival occupying this receiver's slot.
                if rng.bernoulli(self.g) {
                    contenders.push(slot, 0, false);
                }
                contenders.take_due(slot);
                match *contenders.here.as_slice() {
                    [] => {}
                    [key] => {
                        if contenders.remove(key as u32) {
                            total_delay_cycles += (slot * self.slot_cycles) as f64;
                            resolved_packets += 1;
                            originals_left -= 1;
                        }
                    }
                    _ => {
                        for i in 0..contenders.here.len() {
                            let id = contenders.here[i] as u32;
                            let retry = contenders.all[id as usize].retry + 1;
                            let d = draw(retry, rng);
                            contenders.redraw(id, slot + self.detect_slots + d, retry);
                        }
                    }
                }
                slot += 1;
            }
        }
        if resolved_packets == 0 {
            f64::INFINITY
        } else {
            total_delay_cycles / resolved_packets as f64
        }
    }
}

/// One contender of a trial.
#[derive(Debug, Clone, Copy)]
struct Contender {
    /// Its index in the contender list.
    pos: u32,
    retry: u32,
    due: u64,
    original: bool,
    /// The next id in its wheel bucket, or [`NO_ID`].
    next: u32,
}

/// The end of a wheel bucket.
const NO_ID: u32 = u32::MAX;

/// Buckets in the due-slot wheel. A contender due a wheel turn or more
/// later shares a bucket with nearer ones and is passed over once a turn.
const WHEEL: usize = 1 << 12;

/// A trial's contenders: the list in its `Vec` order, and a wheel of
/// their ids by due slot. Ids are handed out in push order.
#[derive(Debug)]
struct Contenders {
    /// Every contender pushed this trial, by id.
    all: Vec<Contender>,
    /// The live contenders' ids in list order.
    list: Vec<u32>,
    /// Per due slot modulo [`WHEEL`], the first id of a linked bucket
    /// holding every live contender due in such a slot.
    wheel: Vec<u32>,
    /// The contenders [`take_due`](Self::take_due) found, in list order,
    /// each as its position above its id (`pos << 32 | id`), so that
    /// sorting the keys sorts by position.
    here: Vec<u64>,
}

impl Contenders {
    fn new() -> Self {
        Contenders {
            all: Vec::new(),
            list: Vec::new(),
            wheel: vec![NO_ID; WHEEL],
            here: Vec::new(),
        }
    }

    /// Empties the list and the wheel for the next trial.
    fn clear(&mut self) {
        for &id in &self.list {
            self.wheel[self.all[id as usize].due as usize % WHEEL] = NO_ID;
        }
        self.all.clear();
        self.list.clear();
    }

    fn push(&mut self, due: u64, retry: u32, original: bool) {
        let id = self.all.len() as u32;
        self.all.push(Contender {
            pos: self.list.len() as u32,
            retry,
            due,
            original,
            next: NO_ID,
        });
        self.list.push(id);
        self.file(id);
    }

    /// Links `id` into the bucket of its due slot.
    fn file(&mut self, id: u32) {
        let c = &mut self.all[id as usize];
        let head = &mut self.wheel[c.due as usize % WHEEL];
        c.next = std::mem::replace(head, id);
    }

    /// Files `id` under a new due slot.
    fn redraw(&mut self, id: u32, due: u64, retry: u32) {
        let c = &mut self.all[id as usize];
        (c.due, c.retry) = (due, retry);
        self.file(id);
    }

    /// Moves the contenders due at `slot` out of the wheel into `here`, in
    /// list order.
    fn take_due(&mut self, slot: u64) {
        self.here.clear();
        let bucket = slot as usize % WHEEL;
        let mut id = std::mem::replace(&mut self.wheel[bucket], NO_ID);
        while id != NO_ID {
            let c = self.all[id as usize];
            if c.due == slot {
                self.here.push(u64::from(c.pos) << 32 | u64::from(id));
            } else {
                self.file(id);
            }
            id = c.next;
        }
        self.here.sort_unstable();
    }

    /// Takes `id` out of the list as `Vec::swap_remove` does: the last
    /// contender moves into its place. Returns whether it was an original.
    fn remove(&mut self, id: u32) -> bool {
        let Contender { pos, original, .. } = self.all[id as usize];
        self.list.swap_remove(pos as usize);
        if let Some(&moved) = self.list.get(pos as usize) {
            self.all[moved as usize].pos = pos;
        }
        original
    }
}

/// One point of the Figure 4 surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfacePoint {
    /// Starting window.
    pub w: f64,
    /// Back-off base.
    pub b: f64,
    /// Mean collision-resolution delay in cycles.
    pub delay: f64,
}

/// Sweeps the (W, B) grid of Figure 4, row by row (`w_values` outer).
/// Every cell runs [`resolution_delay`] from the same `seed`, so cells
/// differ by their (W, B) alone, not by their random stream.
pub fn resolution_delay_surface(
    w_values: &[f64],
    b_values: &[f64],
    g: f64,
    trials: u32,
    seed: u64,
) -> Vec<SurfacePoint> {
    let mut out = Vec::with_capacity(w_values.len() * b_values.len());
    for &w in w_values {
        for &b in b_values {
            let delay = resolution_delay(BackoffPolicy::new(w, b), g, 2, 2, trials, seed);
            out.push(SurfacePoint { w, b, delay });
        }
    }
    out
}

/// Analytic estimate for the pathological burst: `k` packets collide at
/// once and keep contending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstEstimate {
    /// Expected number of retries until a given packet first succeeds.
    pub retries: f64,
    /// Expected cycles until that first success.
    pub cycles: f64,
}

/// Expected retries/cycles for one packet of an all-to-one burst of
/// `colliders` packets under `policy` (independence approximation: on each
/// retry `r` a packet succeeds iff none of the other `k − 1` picked its
/// slot within the window `W_r`).
///
/// For a fixed window (`B = 1`) the closed form `E = (1 − 1/W)^-(k−1)` is
/// used — the paper's 8.2 × 10¹⁰ for `W = 3, k = 63`.
pub fn pathological_burst(
    colliders: usize,
    policy: BackoffPolicy,
    slot_cycles: u64,
    confirmation_cycles: u64,
) -> BurstEstimate {
    assert!(colliders >= 2, "a burst needs at least two packets");
    let k1 = (colliders - 1) as f64;
    // Mean cost of one retry at window `w`: the detect delay plus the mean
    // uniform wait inside the window.
    let per_retry_cycles = |w: f64| {
        confirmation_cycles as f64
            + BackoffPolicy::new(w.max(1.0), 1.0).mean_delay_slots(1) * slot_cycles as f64
    };
    if (policy.base() - 1.0).abs() < 1e-12 {
        let w = policy.initial_window();
        let p = if w <= 1.0 {
            0.0
        } else {
            (1.0 - 1.0 / w).powf(k1)
        };
        let retries = if p > 0.0 { 1.0 / p } else { f64::INFINITY };
        return BurstEstimate {
            retries,
            cycles: retries * per_retry_cycles(w),
        };
    }
    // Growing window: survival series.
    let mut survival = 1.0f64;
    let mut retries = 0.0f64;
    let mut cycles = 0.0f64;
    for r in 1..=400u32 {
        let w = policy.window_for_retry(r);
        let p = if w <= 1.0 {
            0.0
        } else {
            (1.0 - 1.0 / w).powf(k1)
        };
        retries += survival;
        cycles += survival * per_retry_cycles(w);
        survival *= 1.0 - p;
        if survival < 1e-9 {
            break;
        }
    }
    BurstEstimate { retries, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsoi_check::{select, Checker};

    /// The slow reference: every slot scans the whole contender list.
    fn scan_delay(cell: &Fig4Cell, trials: u32, rng: &mut Xoshiro256StarStar) -> f64 {
        let (policy, detect_slots) = (cell.policy, cell.detect_slots);
        let mut total_delay_cycles = 0.0;
        let mut resolved_packets = 0u64;

        for _ in 0..trials {
            // Contenders: (next transmission slot, retry count, is_original).
            let mut contenders: Vec<(u64, u32, bool)> = Vec::new();
            for _ in 0..2 {
                let d = policy.draw_delay_slots(1, rng);
                contenders.push((detect_slots + d, 1, true));
            }
            let mut originals_left = 2;
            let mut slot = 1u64;
            while originals_left > 0 && slot < cell.slot_cap {
                // Background arrival occupying this receiver's slot.
                if rng.bernoulli(cell.g) {
                    contenders.push((slot, 0, false));
                }
                let here: Vec<usize> = contenders
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.0 == slot)
                    .map(|(i, _)| i)
                    .collect();
                match here.len() {
                    0 => {}
                    1 => {
                        let idx = here[0];
                        if contenders[idx].2 {
                            total_delay_cycles += (slot * cell.slot_cycles) as f64;
                            resolved_packets += 1;
                            originals_left -= 1;
                        }
                        contenders.swap_remove(idx);
                    }
                    _ => {
                        for &idx in &here {
                            let retry = contenders[idx].1 + 1;
                            let d = policy.draw_delay_slots(retry, rng);
                            contenders[idx] = (slot + detect_slots + d, retry, contenders[idx].2);
                        }
                    }
                }
                slot += 1;
            }
        }
        if resolved_packets == 0 {
            f64::INFINITY
        } else {
            total_delay_cycles / resolved_packets as f64
        }
    }

    /// The due-slot wheel is the scan: the same mean to the bit and the
    /// generator left in the same state, over random cells. Short slot caps
    /// stop busy trials early. One case in eight is a window that never
    /// grows (`W = B = 1`), whose two originals collide until the full cap
    /// while background joins them; another starts at a window of
    /// thousands of slots, so contenders wait out whole wheel turns.
    #[test]
    fn indexed_trials_equal_the_contender_scan() {
        let gen = (
            (1.0..6.0, 1.0..2.5, 0.0..0.35),
            (1u32..30, 0u64..u64::MAX, 1u64..1_500),
            (0u8..8, select(&[(2, 2), (2, 0), (1, 3), (3, 7)])),
        );
        Checker::new().check(
            "indexed_trials_equal_the_contender_scan",
            gen,
            |&((w, b, g), (trials, seed, cap), (shape, (slot_cycles, confirmation)))| {
                let (policy, g, trials, slot_cap) = match shape {
                    0 => (
                        BackoffPolicy::fixed(1.0),
                        g / 10_000.0,
                        trials % 2 + 1,
                        SLOT_CAP,
                    ),
                    1 => (
                        BackoffPolicy::new(w * 1_000.0, b),
                        g / 100.0,
                        trials % 4 + 1,
                        WHEEL as u64 + cap * 16,
                    ),
                    _ => (BackoffPolicy::new(w, b), g, trials, cap),
                };
                let cell = Fig4Cell {
                    policy,
                    g,
                    slot_cycles,
                    detect_slots: u64::div_ceil(confirmation, slot_cycles),
                    slot_cap,
                };
                let (mut fast, mut scan) =
                    (Xoshiro256StarStar::new(seed), Xoshiro256StarStar::new(seed));
                let (got, want) = (
                    cell.mean_delay(trials, &mut fast),
                    scan_delay(&cell, trials, &mut scan),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "{cell:?}: {got} vs {want}");
                assert_eq!(fast, scan, "{cell:?}: generator state");
            },
        );
    }

    #[test]
    fn paper_optimum_delay_near_7_cycles() {
        // Paper: computed 7.26 cycles at W = 2.7, B = 1.1; simulation
        // averaged 7.4 (range 6.8–9.6).
        let d = resolution_delay(BackoffPolicy::PAPER_OPTIMUM, 0.01, 2, 2, 30_000, 1);
        assert!((5.5..9.5).contains(&d), "delay = {d}");
    }

    #[test]
    fn b_1_1_beats_binary_backoff_in_common_case() {
        // Figure 4's headline: B = 1.1 produces decidedly lower resolution
        // delay than B = 2 for the common (two-packet) case.
        let fast = resolution_delay(BackoffPolicy::PAPER_OPTIMUM, 0.01, 2, 2, 30_000, 2);
        let binary = resolution_delay(BackoffPolicy::BINARY, 0.01, 2, 2, 30_000, 2);
        assert!(fast < binary, "B=1.1: {fast} vs B=2: {binary}");
    }

    #[test]
    fn large_windows_cost_more() {
        let small = resolution_delay(BackoffPolicy::new(2.7, 1.1), 0.01, 2, 2, 20_000, 3);
        let large = resolution_delay(BackoffPolicy::new(16.0, 1.1), 0.01, 2, 2, 20_000, 3);
        assert!(large > small, "W=16: {large} vs W=2.7: {small}");
    }

    #[test]
    fn background_rate_has_modest_impact() {
        // Paper: "this background transmission rate (G = 1% and 10% shown)
        // has a negligible impact on the optimal values of W and B."
        let g1 = resolution_delay(BackoffPolicy::PAPER_OPTIMUM, 0.01, 2, 2, 30_000, 4);
        let g10 = resolution_delay(BackoffPolicy::PAPER_OPTIMUM, 0.10, 2, 2, 30_000, 4);
        assert!(g10 >= g1 * 0.9, "more background cannot speed resolution");
        assert!(g10 < g1 * 2.5, "impact stays modest: {g1} -> {g10}");
    }

    #[test]
    fn surface_sweep_produces_grid() {
        let pts = resolution_delay_surface(&[2.0, 3.0], &[1.1, 2.0], 0.01, 2_000, 5);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.delay.is_finite() && p.delay > 0.0));
        // Row-major, every cell from the one seed.
        let direct = resolution_delay(BackoffPolicy::new(3.0, 1.1), 0.01, 2, 2, 2_000, 5);
        assert_eq!((pts[2].w, pts[2].b, pts[2].delay), (3.0, 1.1, direct));
    }

    #[test]
    fn pathological_fixed_window_is_astronomical() {
        // Paper: W = 3 fixed, 63 colliders → 8.2 × 10¹⁰ retries.
        let est = pathological_burst(63, BackoffPolicy::fixed(3.0), 2, 2);
        assert!(
            (7e10..1e11).contains(&est.retries),
            "retries = {:.2e}",
            est.retries
        );
    }

    #[test]
    fn pathological_b_1_1_about_26_retries() {
        let est = pathological_burst(63, BackoffPolicy::PAPER_OPTIMUM, 2, 2);
        assert!(
            (20.0..34.0).contains(&est.retries),
            "retries = {} (paper ≈ 26)",
            est.retries
        );
        assert!(
            (250.0..600.0).contains(&est.cycles),
            "cycles = {} (paper ≈ 416)",
            est.cycles
        );
    }

    #[test]
    fn pathological_binary_about_5_retries() {
        let est = pathological_burst(63, BackoffPolicy::BINARY, 2, 2);
        assert!(
            (4.0..9.0).contains(&est.retries),
            "retries = {} (paper ≈ 5)",
            est.retries
        );
        assert!(est.cycles < pathological_burst(63, BackoffPolicy::PAPER_OPTIMUM, 2, 2).cycles);
    }

    #[test]
    fn tiny_burst_resolves_fast() {
        let est = pathological_burst(2, BackoffPolicy::PAPER_OPTIMUM, 2, 2);
        assert!(est.retries < 3.0, "retries = {}", est.retries);
    }

    #[test]
    fn window_of_one_never_resolves_fixed() {
        let est = pathological_burst(10, BackoffPolicy::fixed(1.0), 2, 2);
        assert!(est.retries.is_infinite());
    }

    #[test]
    #[should_panic(expected = "background rate")]
    fn bad_g_panics() {
        resolution_delay(BackoffPolicy::PAPER_OPTIMUM, 1.0, 2, 2, 10, 0);
    }
}
