//! Bit-packed marker status table.
//!
//! SNAP-1 stores the active/inactive state of every marker in a *marker
//! status table*: one row per marker, each row holding `N / W` status
//! words, where `W` is the CPU word length (32 bits on the TMS320C30).
//! A set bit means the marker is active at the corresponding node. Global
//! boolean and set/clear instructions are executed **word-at-a-time**, so a
//! marker unit updates the status of 32 nodes per memory access — this is
//! what makes `AND-MARKER` and friends cheap relative to `PROPAGATE`.

use crate::ids::NodeId;

/// Word length of the marker units, in bits (the TMS320C30 is a 32-bit CPU).
pub const WORD_BITS: usize = 32;

/// Status words one summary word covers.
const GROUP: usize = u64::BITS as usize;

/// One row of the marker status table: the activation bitmap of a single
/// marker across all nodes of a region.
///
/// Beside its `N / W` status words the row keeps an *occupancy summary*,
/// one bit per status word, with one invariant: a clear summary bit
/// means the word is zero. It is a superset, not a copy: [`StatusRow::set`]
/// ORs the word's bit in, [`StatusRow::clear`] may empty a word and
/// leave its bit, and a word-parallel operation derives the result's
/// summary from its operands' (`AND` intersects them, `OR` unites them,
/// `AND NOT` keeps the first, `NOT` and [`StatusRow::set_all`] mark
/// every word) instead of re-reading the words. [`StatusRow::iter`],
/// [`StatusRow::is_empty`] and [`StatusRow::clear_all`] then visit only
/// the 64-word groups a marker has touched, where the MU scan this
/// models fetches every word to skip the zero ones. That is host work
/// only: every word-parallel operation still rewrites and returns the
/// full word count, the unit the cost model charges. Equality and
/// `Debug` read the status words alone, so two rows with the same bits
/// are equal whatever their histories.
///
/// # Examples
///
/// ```
/// use snap_kb::{NodeId, StatusRow};
/// let mut row = StatusRow::new(100);
/// row.set(NodeId(42));
/// assert!(row.test(NodeId(42)));
/// assert_eq!(row.count(), 1);
/// ```
#[derive(Clone)]
pub struct StatusRow {
    words: Vec<u32>,
    /// Bit `w % 64` of `summary[w / 64]` is set if `words[w]` may be
    /// non-zero; no bit at or past `words.len()` is ever set.
    summary: Vec<u64>,
    nodes: usize,
}

impl PartialEq for StatusRow {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.words == other.words
    }
}

impl Eq for StatusRow {}

impl core::fmt::Debug for StatusRow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StatusRow")
            .field("words", &self.words)
            .field("nodes", &self.nodes)
            .finish()
    }
}

impl StatusRow {
    /// Creates an all-clear row covering `nodes` node slots.
    pub fn new(nodes: usize) -> Self {
        let words = nodes.div_ceil(WORD_BITS);
        StatusRow {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(GROUP)],
            nodes,
        }
    }

    /// Number of node slots covered by this row.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of status words in the row (`ceil(N / W)`).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Sets the marker bit for `node`. Returns `true` if the bit was
    /// previously clear (i.e. the marker was newly activated).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the row.
    #[inline]
    pub fn set(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.nodes,
            "node {i} outside status row of {}",
            self.nodes
        );
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        self.summary[w / GROUP] |= 1 << (w % GROUP);
        !was
    }

    /// Clears the marker bit for `node`. Returns `true` if the bit was set.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the row.
    #[inline]
    pub fn clear(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.nodes,
            "node {i} outside status row of {}",
            self.nodes
        );
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Tests the marker bit for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the row.
    #[inline]
    pub fn test(&self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.nodes,
            "node {i} outside status row of {}",
            self.nodes
        );
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Clears every bit in the row. Returns the number of words in the
    /// row, which is the unit the cost model charges for set/clear
    /// instructions; the host zeroes only the groups the summary names,
    /// each run of occupied groups with one fill (so a dense row is
    /// still cleared by a single fill of all its words).
    pub fn clear_all(&mut self) -> usize {
        let mut g = 0;
        while g < self.summary.len() {
            if self.summary[g] == 0 {
                g += 1;
                continue;
            }
            let start = g;
            while g < self.summary.len() && self.summary[g] != 0 {
                self.summary[g] = 0;
                g += 1;
            }
            let end = (g * GROUP).min(self.words.len());
            self.words[start * GROUP..end].fill(0);
        }
        self.words.len()
    }

    /// Sets the bit for every node slot in the row, respecting the tail.
    /// Returns the number of words touched.
    pub fn set_all(&mut self) -> usize {
        self.words.fill(u32::MAX);
        self.mask_tail();
        self.mark_every_word();
        self.words.len()
    }

    /// Number of active bits in the row.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Word-parallel `self = a AND b`. All three rows must be the same
    /// length. Returns the number of words processed.
    ///
    /// # Panics
    ///
    /// Panics if the rows cover different node counts.
    pub fn assign_and(&mut self, a: &StatusRow, b: &StatusRow) -> usize {
        self.zip_assign(a, b, |x, y| x & y, |x, y| x & y)
    }

    /// Word-parallel `self = a OR b`. Returns the number of words processed.
    ///
    /// # Panics
    ///
    /// Panics if the rows cover different node counts.
    pub fn assign_or(&mut self, a: &StatusRow, b: &StatusRow) -> usize {
        self.zip_assign(a, b, |x, y| x | y, |x, y| x | y)
    }

    /// Word-parallel `self = a AND NOT b` (set difference). Returns the
    /// number of words processed.
    ///
    /// # Panics
    ///
    /// Panics if the rows cover different node counts.
    #[cfg(test)]
    pub(crate) fn assign_and_not(&mut self, a: &StatusRow, b: &StatusRow) -> usize {
        self.zip_assign(a, b, |x, y| x & !y, |x, _| x)
    }

    /// Word-parallel `self = NOT a`, masked to the valid node slots.
    /// Returns the number of words processed.
    ///
    /// # Panics
    ///
    /// Panics if the rows cover different node counts.
    pub fn assign_not(&mut self, a: &StatusRow) -> usize {
        assert_eq!(
            self.nodes, a.nodes,
            "status rows cover different node counts"
        );
        for (d, s) in self.words.iter_mut().zip(&a.words) {
            *d = !s;
        }
        self.mask_tail();
        self.mark_every_word();
        self.words.len()
    }

    /// Copies `a` into `self`. Returns the number of words processed.
    ///
    /// # Panics
    ///
    /// Panics if the rows cover different node counts.
    pub fn assign(&mut self, a: &StatusRow) -> usize {
        assert_eq!(
            self.nodes, a.nodes,
            "status rows cover different node counts"
        );
        self.words.copy_from_slice(&a.words);
        self.summary.copy_from_slice(&a.summary);
        self.words.len()
    }

    /// `self = f(a, b)` word by word; `summary` is `f`'s effect on the
    /// operands' occupancy summaries (a superset of the result's).
    fn zip_assign(
        &mut self,
        a: &StatusRow,
        b: &StatusRow,
        f: impl Fn(u32, u32) -> u32,
        summary: impl Fn(u64, u64) -> u64,
    ) -> usize {
        assert_eq!(a.nodes, b.nodes, "status rows cover different node counts");
        assert_eq!(
            self.nodes, a.nodes,
            "status rows cover different node counts"
        );
        for (d, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *d = f(*x, *y);
        }
        for (d, (x, y)) in self
            .summary
            .iter_mut()
            .zip(a.summary.iter().zip(&b.summary))
        {
            *d = summary(*x, *y);
        }
        self.words.len()
    }

    /// Iterates over the nodes whose bit is set, in ascending order.
    ///
    /// This mirrors the MU's `PROPAGATE` scan: fetch each status word, skip
    /// zero words, and decode node IDs from the set bits of non-zero words
    /// — except that the zero words are skipped through the occupancy
    /// summary, 64 at a time, so a scan costs the words a marker touched.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            summary: &self.summary,
            group: 0,
            occupied: self.summary.first().copied().unwrap_or(0),
            word_idx: 0,
            current: 0,
        }
    }

    /// Zeroes the bits beyond `self.nodes` in the final partial word.
    fn mask_tail(&mut self) {
        let rem = self.nodes % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u32 << rem) - 1;
            }
        }
    }

    /// Marks every status word occupied (and none past the last).
    fn mark_every_word(&mut self) {
        self.summary.fill(u64::MAX);
        let rem = self.words.len() % GROUP;
        if rem != 0 {
            if let Some(last) = self.summary.last_mut() {
                *last = (1u64 << rem) - 1;
            }
        }
    }
}

/// Iterator over the set bits of a [`StatusRow`], yielding [`NodeId`]s.
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u32],
    summary: &'a [u64],
    /// Index of the summary word being walked.
    group: usize,
    /// Its bits not yet visited.
    occupied: u64,
    word_idx: usize,
    current: u32,
}

impl Iterator for SetBits<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            while self.occupied == 0 {
                self.group += 1;
                self.occupied = *self.summary.get(self.group)?;
            }
            self.word_idx = self.group * GROUP + self.occupied.trailing_zeros() as usize;
            self.occupied &= self.occupied - 1;
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        // No bit past `nodes` is ever set: `set` refuses it and the
        // bulk operations mask the tail.
        Some(NodeId((self.word_idx * WORD_BITS + bit) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut row = StatusRow::new(70);
        assert!(!row.test(NodeId(69)));
        assert!(row.set(NodeId(69)));
        assert!(!row.set(NodeId(69)), "second set reports already-active");
        assert!(row.test(NodeId(69)));
        assert!(row.clear(NodeId(69)));
        assert!(!row.clear(NodeId(69)));
        assert!(row.is_empty());
    }

    #[test]
    fn word_count_matches_ceiling_division() {
        assert_eq!(StatusRow::new(0).word_count(), 0);
        assert_eq!(StatusRow::new(1).word_count(), 1);
        assert_eq!(StatusRow::new(32).word_count(), 1);
        assert_eq!(StatusRow::new(33).word_count(), 2);
        assert_eq!(StatusRow::new(32768).word_count(), 1024);
    }

    #[test]
    fn set_all_respects_tail() {
        let mut row = StatusRow::new(40);
        row.set_all();
        assert_eq!(row.count(), 40);
        assert_eq!(row.iter().count(), 40);
    }

    #[test]
    fn boolean_ops_match_set_semantics() {
        let n = 100;
        let mut a = StatusRow::new(n);
        let mut b = StatusRow::new(n);
        for i in (0..n).step_by(2) {
            a.set(NodeId(i as u32));
        }
        for i in (0..n).step_by(3) {
            b.set(NodeId(i as u32));
        }
        let mut and = StatusRow::new(n);
        let mut or = StatusRow::new(n);
        let mut diff = StatusRow::new(n);
        let mut not = StatusRow::new(n);
        and.assign_and(&a, &b);
        or.assign_or(&a, &b);
        diff.assign_and_not(&a, &b);
        not.assign_not(&a);
        for i in 0..n {
            let node = NodeId(i as u32);
            assert_eq!(and.test(node), i % 2 == 0 && i % 3 == 0);
            assert_eq!(or.test(node), i % 2 == 0 || i % 3 == 0);
            assert_eq!(diff.test(node), i % 2 == 0 && i % 3 != 0);
            assert_eq!(not.test(node), i % 2 != 0);
        }
    }

    #[test]
    fn iter_yields_ascending_node_ids() {
        let mut row = StatusRow::new(200);
        for &i in &[0u32, 31, 32, 63, 64, 150, 199] {
            row.set(NodeId(i));
        }
        let got: Vec<u32> = row.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 31, 32, 63, 64, 150, 199]);
    }

    #[test]
    #[should_panic(expected = "outside status row")]
    fn out_of_range_set_panics() {
        StatusRow::new(10).set(NodeId(10));
    }

    /// Row sizes the model test draws from: empty, one bit, one full
    /// word, a word and a bit, one bit past a full 64-word group, and
    /// three groups with a ragged tail.
    const SIZES: [usize; 6] = [0, 1, 32, 33, 2049, 5000];

    /// Holds `row` to `model` on everything a caller can observe.
    fn check_against_model(row: &StatusRow, model: &[bool]) -> Result<(), String> {
        let want: Vec<u32> = (0..model.len() as u32)
            .filter(|&i| model[i as usize])
            .collect();
        let got: Vec<u32> = row.iter().map(|n| n.0).collect();
        prop_assert_eq!(&got, &want, "iter");
        prop_assert_eq!(row.count(), want.len());
        prop_assert_eq!(row.is_empty(), want.is_empty());
        for probe in want.iter().copied().chain([0, model.len() as u32 / 2]) {
            if (probe as usize) < model.len() {
                prop_assert_eq!(row.test(NodeId(probe)), model[probe as usize]);
            }
        }
        // Equality is on the bits: a row built fresh from them has the
        // tightest summary there is, this one may carry slack.
        let mut fresh = StatusRow::new(model.len());
        for &i in &want {
            fresh.set(NodeId(i));
        }
        prop_assert_eq!(row, &fresh);
        prop_assert_eq!(format!("{row:?}"), format!("{fresh:?}"));
        // The invariant itself: a non-zero word is flagged, and nothing
        // past the last word is.
        for (w, &word) in row.words.iter().enumerate() {
            prop_assert!(word == 0 || row.summary[w / GROUP] >> (w % GROUP) & 1 == 1);
        }
        let flagged: u32 = row.summary.iter().map(|s| s.count_ones()).sum();
        prop_assert!(flagged as usize <= row.words.len());
        Ok(())
    }

    proptest! {
        /// Random sequences of every mutating operation over three rows
        /// of one size, against a `Vec<bool>` model each. Operands are
        /// clones of pool rows (so a clone must behave like its source,
        /// slack and all), targets are checked after every step, and
        /// every word-parallel operation must return the full word
        /// count. Mutants planted by hand in the summary upkeep, with
        /// the first of 64 cases that kills each: no summary OR in
        /// `set` — case 0; `assign_not` keeping the target's old
        /// summary — case 0; `assign` not copying the summary — case 9;
        /// `OR` intersecting the summaries, `AND NOT` deriving
        /// `a & !b` on them, `clear_all` zeroing all but the last group
        /// of a run — case 2 each; `set_all`/`NOT` marking bits past
        /// the last word — an index panic in `iter`. A `clear_all` that
        /// zeroes the words and leaves the summary set answers every
        /// question correctly (the summary is a superset); only the
        /// direct look at the summary after `clear_all` catches it,
        /// case 2.
        #[test]
        fn prop_summary_upkeep_matches_a_bool_model(
            size in 0usize..SIZES.len(),
            ops in proptest::collection::vec((0u8..9, 0u32..5000, 0usize..3, 0usize..3), 0..60),
        ) {
            let nodes = SIZES[size];
            let words = nodes.div_ceil(WORD_BITS);
            let mut rows = vec![StatusRow::new(nodes); 3];
            let mut models = vec![vec![false; nodes]; 3];
            for (op, raw, t, o) in ops {
                let (a, b) = (rows[o].clone(), rows[(o + 1) % 3].clone());
                let (ma, mb) = (models[o].clone(), models[(o + 1) % 3].clone());
                let (row, model) = (&mut rows[t], &mut models[t]);
                let zip = |f: fn(bool, bool) -> bool| -> Vec<bool> {
                    ma.iter().zip(&mb).map(|(&x, &y)| f(x, y)).collect()
                };
                match op {
                    0 | 1 if nodes == 0 => {}
                    0 => {
                        let i = raw as usize % nodes;
                        prop_assert_eq!(row.set(NodeId(i as u32)), !model[i]);
                        model[i] = true;
                    }
                    1 => {
                        let i = raw as usize % nodes;
                        prop_assert_eq!(row.clear(NodeId(i as u32)), model[i]);
                        model[i] = false;
                    }
                    2 => {
                        prop_assert_eq!(row.clear_all(), words);
                        prop_assert!(row.summary.iter().all(|&s| s == 0), "slack kept");
                        model.fill(false);
                    }
                    3 => {
                        prop_assert_eq!(row.set_all(), words);
                        model.fill(true);
                    }
                    4 => {
                        prop_assert_eq!(row.assign(&a), words);
                        *model = ma.clone();
                    }
                    5 => {
                        prop_assert_eq!(row.assign_and(&a, &b), words);
                        *model = zip(|x, y| x && y);
                    }
                    6 => {
                        prop_assert_eq!(row.assign_or(&a, &b), words);
                        *model = zip(|x, y| x || y);
                    }
                    7 => {
                        prop_assert_eq!(row.assign_and_not(&a, &b), words);
                        *model = zip(|x, y| x && !y);
                    }
                    _ => {
                        prop_assert_eq!(row.assign_not(&a), words);
                        *model = ma.iter().map(|&x| !x).collect();
                    }
                }
                check_against_model(row, model)?;
                check_against_model(&row.clone(), model)?;
            }
        }

        #[test]
        fn prop_count_matches_inserted_set(
            nodes in 1usize..512,
            picks in proptest::collection::btree_set(0u32..512, 0..64),
        ) {
            let mut row = StatusRow::new(nodes);
            let valid: Vec<u32> =
                picks.iter().copied().filter(|&p| (p as usize) < nodes).collect();
            for &p in &valid {
                row.set(NodeId(p));
            }
            prop_assert_eq!(row.count(), valid.len());
            let iterated: Vec<u32> = row.iter().map(|n| n.0).collect();
            prop_assert_eq!(iterated, valid);
        }

        #[test]
        fn prop_demorgan(
            nodes in 1usize..300,
            xs in proptest::collection::vec(0u32..300, 0..40),
            ys in proptest::collection::vec(0u32..300, 0..40),
        ) {
            let mut a = StatusRow::new(nodes);
            let mut b = StatusRow::new(nodes);
            for x in xs.iter().filter(|&&x| (x as usize) < nodes) {
                a.set(NodeId(*x));
            }
            for y in ys.iter().filter(|&&y| (y as usize) < nodes) {
                b.set(NodeId(*y));
            }
            // NOT (a OR b) == (NOT a) AND (NOT b)
            let mut or = StatusRow::new(nodes);
            or.assign_or(&a, &b);
            let mut lhs = StatusRow::new(nodes);
            lhs.assign_not(&or);
            let mut na = StatusRow::new(nodes);
            let mut nb = StatusRow::new(nodes);
            na.assign_not(&a);
            nb.assign_not(&b);
            let mut rhs = StatusRow::new(nodes);
            rhs.assign_and(&na, &nb);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
