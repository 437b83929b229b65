//! Lazy shrink trees.
//!
//! A [`Tree`] pairs a generated value with a *lazily produced* list of
//! smaller variants (its children), each itself a tree. Generators build
//! trees rather than bare values so that shrinking is integrated: mapping
//! or tupling generators automatically maps/tuples their shrinks, the way
//! Hedgehog-style harnesses do it. Children are only materialised when the
//! runner actually walks them after a failure, so generation stays cheap.

use std::rc::Rc;

/// A generated value together with its lazily-computed shrink candidates.
pub struct Tree<T> {
    /// The concrete value at this node.
    pub value: T,
    children: Option<Rc<dyn Fn() -> Vec<Tree<T>>>>,
}

impl<T: Clone> Clone for Tree<T> {
    fn clone(&self) -> Self {
        Tree {
            value: self.value.clone(),
            children: self.children.clone(),
        }
    }
}

impl<T> Tree<T> {
    /// A tree with no shrink candidates.
    pub(crate) fn leaf(value: T) -> Self {
        Tree {
            value,
            children: None,
        }
    }

    /// A tree whose children are produced on demand by `f`.
    ///
    /// Children should be ordered most-aggressive first (the runner walks
    /// them greedily, committing to the first one that still fails).
    pub(crate) fn with_children(value: T, f: impl Fn() -> Vec<Tree<T>> + 'static) -> Self {
        Tree {
            value,
            children: Some(Rc::new(f)),
        }
    }

    /// Materialises this node's shrink candidates.
    pub(crate) fn children(&self) -> Vec<Tree<T>> {
        match &self.children {
            Some(f) => f(),
            None => Vec::new(),
        }
    }
}

impl<T: Clone + 'static> Tree<T> {
    /// Maps `f` over the value and, lazily, over every shrink candidate.
    pub(crate) fn map<U: Clone + 'static>(&self, f: Rc<dyn Fn(&T) -> U>) -> Tree<U> {
        let value = f(&self.value);
        let inner = self.clone();
        Tree::with_children(value, move || {
            inner.children().iter().map(|c| c.map(f.clone())).collect()
        })
    }
}

/// Combines two trees into a tree of pairs; shrinks each side independently
/// (left side first, so earlier tuple positions shrink first).
pub(crate) fn pair<A: Clone + 'static, B: Clone + 'static>(a: Tree<A>, b: Tree<B>) -> Tree<(A, B)> {
    let value = (a.value.clone(), b.value.clone());
    Tree::with_children(value, move || {
        let mut out = Vec::new();
        for ca in a.children() {
            out.push(pair(ca, b.clone()));
        }
        for cb in b.children() {
            out.push(pair(a.clone(), cb));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_tree(v: u64) -> Tree<u64> {
        if v == 0 {
            Tree::leaf(v)
        } else {
            Tree::with_children(v, move || (0..v).rev().map(int_tree).collect())
        }
    }

    #[test]
    fn leaf_has_no_children() {
        assert!(Tree::leaf(7u64).children().is_empty());
    }

    #[test]
    fn map_transforms_value_and_children() {
        let t = int_tree(3).map(Rc::new(|v: &u64| v * 10));
        assert_eq!(t.value, 30);
        let kids: Vec<u64> = t.children().iter().map(|c| c.value).collect();
        assert_eq!(kids, vec![20, 10, 0]);
    }

    #[test]
    fn pair_shrinks_each_side() {
        let t = pair(int_tree(1), int_tree(1));
        assert_eq!(t.value, (1, 1));
        let kids: Vec<(u64, u64)> = t.children().iter().map(|c| c.value).collect();
        assert_eq!(kids, vec![(0, 1), (1, 0)]);
    }
}
