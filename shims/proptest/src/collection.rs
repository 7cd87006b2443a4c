//! Collection strategies, mirroring `proptest::collection`.

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;

use crate::strategy::Strategy;

/// Ranges usable as a collection-size specification.
pub trait SizeRange {
    /// Draws a concrete length.
    fn sample_len(&self, rng: &mut StdRng) -> usize;
}

impl SizeRange for Range<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        self.clone().sample(rng)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        self.clone().sample(rng)
    }
}

impl SizeRange for usize {
    fn sample_len(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

/// Strategy yielding `Vec`s of `element` values with lengths drawn
/// from `size`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

/// Strategy yielding `BTreeSet`s; duplicates collapse, so produced
/// sets may be smaller than the drawn length (matches proptest's
/// minimum-size-best-effort behavior closely enough for tests that
/// bound sizes from above).
pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
where
    S: Strategy,
    S::Value: Ord,
    R: SizeRange,
{
    BTreeSetStrategy { element, size }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = self.size.sample_len(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S, R> {
    element: S,
    size: R,
}

impl<S, R> Strategy for BTreeSetStrategy<S, R>
where
    S: Strategy,
    S::Value: Ord,
    R: SizeRange,
{
    type Value = BTreeSet<S::Value>;
    fn sample(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
        let len = self.size.sample_len(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
