//! Generator combinators.
//!
//! A [`Gen`] draws a whole [`Tree`] — the value plus its shrink
//! candidates — from the deterministic `fsoi_sim` Xoshiro256\*\* stream.
//! Plain `std::ops::Range`s over the integer types and `f64` implement
//! [`Gen`] directly, so property signatures read like the proptest suites
//! they replace: `(0.0f64..1.0, 3usize..128)` is a generator of pairs.
//!
//! Integers shrink by halving the distance toward the range's lower
//! bound; vectors shrink by removing chunks, then single elements, then
//! shrinking elements in place; every combinator preserves the generator's
//! invariants (ranges stay in range, vecs respect their minimum length,
//! sets stay duplicate-free).

use crate::tree::{pair, Tree};
use fsoi_sim::rng::Xoshiro256StarStar;
use std::fmt::Debug;
use std::ops::Range;
use std::rc::Rc;

/// A deterministic generator of shrinkable values.
pub trait Gen {
    /// The type of generated values.
    type Value: Clone + Debug + 'static;

    /// Draws one value (with its shrink tree) from `rng`.
    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<Self::Value>;

    /// Maps a pure function over generated values (shrinks map through).
    ///
    /// Named `gen_map` (not `map`) so ranges — which are both generators
    /// and iterators — stay unambiguous in test code.
    fn gen_map<U, F>(self, f: F) -> Map<Self, U, F>
    where
        Self: Sized,
        U: Clone + Debug + 'static,
        F: Fn(&Self::Value) -> U + 'static,
    {
        Map {
            inner: self,
            f: Rc::new(f),
            _marker: std::marker::PhantomData,
        }
    }
}

// ---------------------------------------------------------------------------
// Integer ranges
// ---------------------------------------------------------------------------

macro_rules! int_range_gen {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;

            fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<$t> {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end - self.start) as u64;
                let v = self.start + rng.next_below(span) as $t;
                int_tree(v, self.start)
            }
        }

        impl Gen for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range");
                let v = rng.range_inclusive(lo as u64, hi as u64) as $t;
                int_tree(v, lo)
            }
        }
    )+};
}

int_range_gen!(u8, u16, u32, u64, usize);

/// Shrink candidates for an integer: the lower bound, then values that
/// halve the remaining distance (aggressive jumps first).
fn int_tree<T>(v: T, lo: T) -> Tree<T>
where
    T: Copy + Clone + Debug + PartialEq + PartialOrd + 'static,
    T: std::ops::Sub<Output = T> + std::ops::Div<Output = T> + From<u8>,
{
    if v == lo {
        return Tree::leaf(v);
    }
    Tree::with_children(v, move || {
        let mut out = vec![lo];
        let (zero, two) = (T::from(0u8), T::from(2u8));
        let mut d = (v - lo) / two;
        while d != zero {
            let c = v - d;
            if c != lo {
                out.push(c);
            }
            d = d / two;
        }
        out.into_iter().map(|c| int_tree(c, lo)).collect()
    })
}

// ---------------------------------------------------------------------------
// Floating-point ranges
// ---------------------------------------------------------------------------

impl Gen for Range<f64> {
    type Value = f64;

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<f64> {
        assert!(self.start < self.end, "empty f64 range");
        let v = self.start + rng.next_f64() * (self.end - self.start);
        f64_tree(v, self.start)
    }
}

fn f64_tree(v: f64, lo: f64) -> Tree<f64> {
    let eps = 1e-12 * lo.abs().max(v.abs()).max(1.0);
    if v - lo <= eps {
        return Tree::leaf(v);
    }
    Tree::with_children(v, move || {
        let mut out = vec![lo];
        let mut step = (v - lo) / 2.0;
        while step > eps {
            let c = v - step;
            if c > lo {
                out.push(c);
            }
            step /= 2.0;
        }
        out.into_iter().map(|c| f64_tree(c, lo)).collect()
    })
}

// ---------------------------------------------------------------------------
// Booleans
// ---------------------------------------------------------------------------

/// A fair coin that shrinks `true` to `false`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

/// Generates `true`/`false` with equal probability; `true` shrinks to `false`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Gen for AnyBool {
    type Value = bool;

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<bool> {
        if rng.next_below(2) == 1 {
            Tree::with_children(true, || vec![Tree::leaf(false)])
        } else {
            Tree::leaf(false)
        }
    }
}

// ---------------------------------------------------------------------------
// Choice from a fixed slate (enums of protocol ops, parameter slates, ...)
// ---------------------------------------------------------------------------

/// Uniform choice over a fixed list; shrinks toward earlier entries.
#[derive(Clone)]
pub struct Select<T> {
    items: Rc<Vec<T>>,
}

/// A generator choosing uniformly from `items`; shrinks toward `items[0]`,
/// so list the "simplest" variant first.
pub fn select<T: Clone + Debug + 'static>(items: &[T]) -> Select<T> {
    assert!(!items.is_empty(), "select over an empty slate");
    Select {
        items: Rc::new(items.to_vec()),
    }
}

impl<T: Clone + Debug + 'static> Gen for Select<T> {
    type Value = T;

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<T> {
        let idx = rng.next_below(self.items.len() as u64) as usize;
        let items = self.items.clone();
        int_tree(idx, 0usize).map(Rc::new(move |i: &usize| items[*i].clone()))
    }
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

/// See [`Gen::gen_map`].
pub struct Map<G, U, F> {
    inner: G,
    f: Rc<F>,
    _marker: std::marker::PhantomData<fn() -> U>,
}

impl<G, U, F> Gen for Map<G, U, F>
where
    G: Gen,
    U: Clone + Debug + 'static,
    F: Fn(&G::Value) -> U + 'static,
{
    type Value = U;

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<U> {
        let f = self.f.clone();
        self.inner.tree(rng).map(Rc::new(move |v: &G::Value| f(v)))
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

impl<A: Gen, B: Gen> Gen for (A, B) {
    type Value = (A::Value, B::Value);

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<Self::Value> {
        let a = self.0.tree(rng);
        let b = self.1.tree(rng);
        pair(a, b)
    }
}

impl<A: Gen, B: Gen, C: Gen> Gen for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<Self::Value> {
        let ab = pair(self.0.tree(rng), self.1.tree(rng));
        pair(ab, self.2.tree(rng)).map(Rc::new(|((a, b), c): &((A::Value, B::Value), C::Value)| {
            (a.clone(), b.clone(), c.clone())
        }))
    }
}

impl<A: Gen, B: Gen, C: Gen, D: Gen> Gen for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    #[expect(
        clippy::type_complexity,
        reason = "the nested-pair closure argument mirrors how the four trees are zipped"
    )]
    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<Self::Value> {
        let ab = pair(self.0.tree(rng), self.1.tree(rng));
        let cd = pair(self.2.tree(rng), self.3.tree(rng));
        pair(ab, cd).map(Rc::new(
            |((a, b), (c, d)): &((A::Value, B::Value), (C::Value, D::Value))| {
                (a.clone(), b.clone(), c.clone(), d.clone())
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// Vectors
// ---------------------------------------------------------------------------

/// See [`vec_of`].
pub struct VecGen<G> {
    elem: G,
    len: Range<usize>,
}

/// A vector of `elem`-generated values with length drawn from `len`
/// (half-open, like proptest's size ranges). Shrinks by dropping chunks,
/// then single elements (down to `len.start`), then shrinking elements
/// in place.
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen { elem, len }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<Self::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + rng.next_below(span) as usize;
        let elems: Vec<Tree<G::Value>> = (0..n).map(|_| self.elem.tree(rng)).collect();
        vec_tree(elems, self.len.start)
    }
}

fn vec_tree<T: Clone + Debug + 'static>(elems: Vec<Tree<T>>, min: usize) -> Tree<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|t| t.value.clone()).collect();
    Tree::with_children(value, move || {
        let len = elems.len();
        let mut out = Vec::new();
        if len > min {
            // Chunk removals, biggest first: drop a prefix or suffix of
            // `k` elements while staying at or above the minimum length.
            let mut k = len - min;
            loop {
                out.push(vec_tree(elems[k..].to_vec(), min));
                out.push(vec_tree(elems[..len - k].to_vec(), min));
                if k == 1 {
                    break;
                }
                k /= 2;
            }
            // Single-element removals at every position.
            for i in 0..len {
                let mut e = elems.clone();
                e.remove(i);
                out.push(vec_tree(e, min));
            }
        }
        // In-place element shrinks.
        for i in 0..len {
            for c in elems[i].children() {
                let mut e = elems.clone();
                e[i] = c;
                out.push(vec_tree(e, min));
            }
        }
        out
    })
}

// ---------------------------------------------------------------------------
// Distinct sorted sets (ports of the btree_set-based proptest generators)
// ---------------------------------------------------------------------------

/// See [`set_of`].
pub struct SetGen {
    values: Range<usize>,
    size: Range<usize>,
}

/// A sorted, duplicate-free `Vec<usize>` with elements drawn from `values`
/// and cardinality from `size` (both half-open). Shrinks by removing
/// elements (down to `size.start`) and nudging elements toward
/// `values.start` without creating duplicates.
pub fn set_of(values: Range<usize>, size: Range<usize>) -> SetGen {
    assert!(size.start < size.end, "empty size range");
    assert!(
        values.end - values.start >= size.end,
        "value range too small to fill the requested set size"
    );
    SetGen { values, size }
}

impl Gen for SetGen {
    type Value = Vec<usize>;

    fn tree(&self, rng: &mut Xoshiro256StarStar) -> Tree<Vec<usize>> {
        let span = (self.size.end - self.size.start) as u64;
        let target = self.size.start + rng.next_below(span) as usize;
        let vspan = (self.values.end - self.values.start) as u64;
        let mut picked = Vec::new();
        while picked.len() < target {
            let c = self.values.start + rng.next_below(vspan) as usize;
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        picked.sort_unstable();
        set_tree(picked, self.size.start, self.values.start)
    }
}

fn set_tree(v: Vec<usize>, min: usize, lo: usize) -> Tree<Vec<usize>> {
    Tree::with_children(v.clone(), move || {
        let mut out = Vec::new();
        if v.len() > min {
            for i in 0..v.len() {
                let mut s = v.clone();
                s.remove(i);
                out.push(set_tree(s, min, lo));
            }
        }
        for i in 0..v.len() {
            let e = v[i];
            if e == lo {
                continue;
            }
            let mut d = (e - lo).div_ceil(2);
            while d > 0 {
                let c = e - d;
                if !v.contains(&c) {
                    let mut s = v.clone();
                    s[i] = c;
                    s.sort_unstable();
                    out.push(set_tree(s, min, lo));
                }
                d /= 2;
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(0xDEAD_BEEF)
    }

    #[test]
    fn int_range_stays_in_range_and_shrinks_toward_lo() {
        let mut r = rng();
        for _ in 0..200 {
            let t = (5u64..40).tree(&mut r);
            assert!((5..40).contains(&t.value));
            for c in t.children() {
                assert!((5..40).contains(&c.value));
                assert!(c.value < t.value);
            }
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut r = rng();
        let mut seen = [false; 3];
        for _ in 0..200 {
            let t = (0u8..=2).tree(&mut r);
            seen[t.value as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_range_stays_in_range() {
        let mut r = rng();
        for _ in 0..200 {
            let t = (0.25f64..0.75).tree(&mut r);
            assert!((0.25..0.75).contains(&t.value));
            for c in t.children().iter().take(4) {
                assert!(c.value >= 0.25 && c.value < t.value);
            }
        }
    }

    #[test]
    fn vec_respects_min_len_under_shrink() {
        let mut r = rng();
        let t = vec_of(0u64..10, 2..9).tree(&mut r);
        assert!(t.value.len() >= 2 && t.value.len() < 9);
        for c in t.children() {
            assert!(c.value.len() >= 2);
        }
    }

    #[test]
    fn set_is_sorted_and_distinct_under_shrink() {
        let mut r = rng();
        for _ in 0..50 {
            let t = set_of(0..64, 2..8).tree(&mut r);
            let check = |v: &Vec<usize>| {
                assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted+distinct: {v:?}");
            };
            check(&t.value);
            for c in t.children() {
                check(&c.value);
            }
        }
    }

    #[test]
    fn select_shrinks_toward_first_item() {
        let mut r = rng();
        loop {
            let t = select(&["a", "b", "c"]).tree(&mut r);
            if t.value != "a" {
                assert_eq!(t.children()[0].value, "a");
                break;
            }
        }
    }

    #[test]
    fn map_composes_with_shrinking() {
        let mut r = rng();
        let g = (1u64..100).gen_map(|v| v * 2);
        loop {
            let t = g.tree(&mut r);
            assert_eq!(t.value % 2, 0);
            if t.value > 2 {
                assert_eq!(t.children()[0].value, 2, "maps the shrunk lower bound");
                break;
            }
        }
    }
}
