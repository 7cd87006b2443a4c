//! Word-addressable `u64` bitmaps for the frontier propagation kernel.
//!
//! [`StatusRow`](crate::StatusRow) models the *hardware* marker status
//! table and is deliberately pinned to the TMS320C30's 32-bit word. The
//! propagation kernel, by contrast, is a host-side optimisation: it wants
//! the widest word the host handles natively. [`Bitmap`] is that type —
//! one bit per node over the CSR node arena, packed into `u64` blocks, with
//! the word array exposed so the kernel can AND/OR/scan a word at a time.

use crate::ids::NodeId;

/// Bits per bitmap word.
pub const BITMAP_WORD_BITS: usize = 64;

/// A dense one-bit-per-node map over the node arena, packed into `u64`
/// words.
///
/// Unlike [`StatusRow`](crate::StatusRow) this type grows on demand past
/// its declared capacity (the engines' visited tables are built on it
/// and tolerate nodes added after the capacity hint was taken) and
/// exposes its word array for word-at-a-time kernels.
///
/// # Examples
///
/// ```
/// use snap_kb::{Bitmap, NodeId};
/// let mut map = Bitmap::new(100);
/// assert!(map.set(NodeId(42)));
/// assert!(!map.set(NodeId(42)), "second set reports already-present");
/// assert!(map.test(NodeId(42)));
/// assert_eq!(map.count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-clear bitmap sized for `nodes` node slots.
    pub fn new(nodes: usize) -> Self {
        Bitmap {
            words: vec![0; nodes.div_ceil(BITMAP_WORD_BITS)],
        }
    }

    /// Ensures the bitmap covers `node`, growing with zero words if needed.
    #[inline]
    fn ensure(&mut self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        let (w, b) = (i / BITMAP_WORD_BITS, i % BITMAP_WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        (w, b)
    }

    /// Sets the bit for `node`, growing the map if needed. Returns `true`
    /// if the bit was previously clear.
    #[inline]
    pub fn set(&mut self, node: NodeId) -> bool {
        let (w, b) = self.ensure(node);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Tests the bit for `node`. Out-of-range nodes read as clear.
    #[inline]
    pub fn test(&self, node: NodeId) -> bool {
        let i = node.index();
        self.words
            .get(i / BITMAP_WORD_BITS)
            .is_some_and(|w| w & (1 << (i % BITMAP_WORD_BITS)) != 0)
    }

    /// Number of set bits (hardware popcount per word).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears every bit without releasing storage.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place reset for per-query reuse: clears every bit, keeping the
    /// word allocation at its current capacity. Alias of
    /// [`Bitmap::clear_all`], named for the pooled-context protocol where
    /// every reusable structure exposes `reset()`.
    #[inline]
    pub fn reset(&mut self) {
        self.clear_all();
    }

    /// The packed word array (read side of word-at-a-time kernels).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the set bits in ascending node order.
    pub fn iter(&self) -> BitmapBits<'_> {
        BitmapBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// The lane-major transposition of up to [`BITMAP_WORD_BITS`] per-lane
/// [`Bitmap`]s: one K-bit lane-mask word per *slot* (a node, or a
/// `(state, node)` site flattened by the caller), bit `k` of
/// `word(slot)` meaning "lane `k` has touched this slot".
///
/// Where a batch of K lanes would otherwise probe K separate bitmaps, a
/// plane answers "which lanes have seen this slot?" with one load and
/// records first touches for *all* lanes with one OR — the word-at-a-
/// time check-and-set behind the bit-sliced multi-query kernel.
///
/// Clearing is proportional to the slots actually touched, not the
/// arena size: [`LanePlane::or`] logs each slot on its `0 → nonzero`
/// transition and [`LanePlane::reset`] zeroes only that log, so pooled
/// planes reset in O(frontier).
///
/// Kept for `benchmark/src/probe.rs:437-515` (through the bit-sliced
/// kernel in `snap-core`) until ROADMAP item 9; nothing else uses it.
///
/// # Examples
///
/// ```
/// use snap_kb::LanePlane;
/// let mut plane = LanePlane::new();
/// plane.ensure(100);
/// // Lanes 0 and 3 arrive at slot 42 together: one word op.
/// assert_eq!(plane.or(42, 0b1001), 0, "no lane had seen slot 42");
/// // Lane 3 again plus lane 1: the returned word says lane 3 is stale.
/// assert_eq!(plane.or(42, 0b1010), 0b1001);
/// plane.reset();
/// assert_eq!(plane.word(42), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LanePlane {
    words: Vec<u64>,
    /// Slots whose word went `0 → nonzero` since the last reset; each
    /// nonzero word appears here exactly once.
    touched: Vec<u32>,
}

impl LanePlane {
    /// Creates an empty plane; [`LanePlane::ensure`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the plane to cover `slots` slots (never shrinks).
    pub fn ensure(&mut self, slots: usize) {
        if slots > self.words.len() {
            self.words.resize(slots, 0);
        }
    }

    /// ORs `mask` into `slot`'s lane word and returns the word as it
    /// was **before** the OR — `!prev & mask` are the lanes whose touch
    /// is a guaranteed first visit. Grows past the ensured size on
    /// demand, like [`Bitmap`].
    #[inline]
    pub fn or(&mut self, slot: usize, mask: u64) -> u64 {
        if slot >= self.words.len() {
            self.words.resize(slot + 1, 0);
        }
        let prev = self.words[slot];
        if prev == 0 && mask != 0 {
            self.touched.push(slot as u32);
        }
        self.words[slot] = prev | mask;
        prev
    }

    /// Reads `slot`'s lane word. Out-of-range slots read as all-clear.
    #[inline]
    pub fn word(&self, slot: usize) -> u64 {
        self.words.get(slot).copied().unwrap_or(0)
    }

    /// The slots holding a nonzero lane word, in first-touch order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Clears the plane in O(touched slots), keeping storage.
    pub fn reset(&mut self) {
        for &slot in &self.touched {
            self.words[slot as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Iterator over the set bits of a [`Bitmap`], yielding [`NodeId`]s.
#[derive(Debug, Clone)]
pub struct BitmapBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitmapBits<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(NodeId((self.word_idx * BITMAP_WORD_BITS + bit) as u32));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_test_unset_roundtrip() {
        let mut map = Bitmap::new(70);
        assert!(!map.test(NodeId(69)));
        assert!(map.set(NodeId(69)));
        assert!(!map.set(NodeId(69)), "second set reports already-present");
        assert!(map.test(NodeId(69)));
        map.reset();
        assert!(!map.test(NodeId(69)));
        assert!(map.is_empty());
    }

    #[test]
    fn grows_past_declared_capacity() {
        let mut map = Bitmap::new(2);
        assert!(!map.test(NodeId(900)));
        assert!(map.set(NodeId(900)));
        assert!(map.test(NodeId(900)));
        assert_eq!(map.count(), 1);
        assert_eq!(map.iter().collect::<Vec<_>>(), vec![NodeId(900)]);
    }

    #[test]
    fn iter_yields_ascending_node_ids() {
        let mut map = Bitmap::new(200);
        for &i in &[0u32, 63, 64, 127, 128, 150, 199] {
            map.set(NodeId(i));
        }
        let got: Vec<u32> = map.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 63, 64, 127, 128, 150, 199]);
    }

    #[test]
    fn union_grows_and_merges() {
        let mut a = Bitmap::new(10);
        a.set(NodeId(3));
        let mut b = Bitmap::new(300);
        b.set(NodeId(3));
        b.set(NodeId(250));
        for node in b.iter() {
            a.set(node);
        }
        assert_eq!(a.count(), 2);
        assert!(a.test(NodeId(250)));
        a.clear_all();
        assert!(a.is_empty());
        assert!(a.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn reset_clears_without_shrinking() {
        let mut map = Bitmap::new(10);
        map.set(NodeId(500));
        let words_before = map.words().len();
        map.reset();
        assert!(map.is_empty());
        assert_eq!(map.words().len(), words_before, "capacity kept");
        assert!(map.set(NodeId(500)), "reusable after reset");
    }

    #[test]
    fn lane_plane_first_touch_and_reset() {
        let mut plane = LanePlane::new();
        plane.ensure(4);
        assert_eq!(plane.or(2, 0b01), 0);
        assert_eq!(plane.or(2, 0b10), 0b01, "prev word exposes stale lanes");
        assert_eq!(plane.or(9, 1 << 63), 0, "grows past ensured size");
        assert_eq!(plane.word(2), 0b11);
        assert_eq!(plane.touched(), &[2, 9]);
        assert_eq!(plane.or(3, 0), 0, "zero mask never logs a touch");
        plane.reset();
        assert_eq!(plane.word(2), 0);
        assert_eq!(plane.word(9), 0);
        assert!(plane.touched().is_empty());
        // Reusable after reset: touches log again from scratch.
        assert_eq!(plane.or(9, 1), 0);
        assert_eq!(plane.touched(), &[9]);
    }

    proptest! {
        #[test]
        fn prop_lane_plane_matches_per_lane_bitmaps(
            ops in proptest::collection::vec((0usize..256, 0u8..8), 0..128),
        ) {
            // One plane vs 8 independent bitmaps: or() must report
            // exactly the lanes each slot had already seen.
            let mut plane = LanePlane::new();
            let mut maps: Vec<Bitmap> = (0..8).map(|_| Bitmap::new(256)).collect();
            for &(slot, lane) in &ops {
                let prev = plane.or(slot, 1 << lane);
                for (k, map) in maps.iter().enumerate() {
                    prop_assert_eq!(
                        prev & (1 << k) != 0,
                        map.test(NodeId(slot as u32)),
                        "slot {} lane {}", slot, k
                    );
                }
                maps[lane as usize].set(NodeId(slot as u32));
            }
            for &(slot, _) in &ops {
                for (k, map) in maps.iter().enumerate() {
                    prop_assert_eq!(
                        plane.word(slot) & (1 << k) != 0,
                        map.test(NodeId(slot as u32))
                    );
                }
            }
            plane.reset();
            prop_assert!((0..256).all(|s| plane.word(s) == 0));
        }

        #[test]
        fn prop_matches_reference_set(
            nodes in 1usize..512,
            picks in proptest::collection::btree_set(0u32..2048, 0..64),
        ) {
            let mut map = Bitmap::new(nodes);
            for &p in &picks {
                prop_assert!(map.set(NodeId(p)));
            }
            prop_assert_eq!(map.count(), picks.len());
            let iterated: Vec<u32> = map.iter().map(|n| n.0).collect();
            let expect: Vec<u32> = picks.iter().copied().collect();
            prop_assert_eq!(iterated, expect);
            for p in 0..2048u32 {
                prop_assert_eq!(map.test(NodeId(p)), picks.contains(&p));
            }
        }
    }
}
