//! The relation table: typed, weighted links between nodes.
//!
//! SNAP-1's relation table provides **16 outgoing relation slots per
//! node** (adequate for most linguistic concepts). Nodes with fanout
//! greater than 16 are divided into *subnodes* by a preprocessor when the
//! knowledge base is created. This module reproduces that design as a
//! chain of 16-slot *segments* per node: the first segment is the node's
//! own relation-table row and each additional segment models one overflow
//! subnode reached through the reserved subnode link. Marker state is
//! never attached to subnodes; propagation engines charge one extra table
//! lookup per segment traversed (see `segments`).
//!
//! # Storage layout
//!
//! Links live in one contiguous CSR (compressed sparse row) array sorted
//! by `(node, relation, insertion rank)`: `offsets` gives each node's
//! range, and because a node's range is relation-sorted, the links of one
//! `(node, relation)` pair are a contiguous sub-slice found by binary
//! search (`RelationTable::relation_run`). A parallel `ranks` array
//! records each link's insertion rank within its node, and a per-node
//! rank-sorted permutation of row-relative positions (`by_rank`) drives
//! insertion-order iteration, so the public accessors behave exactly like
//! the historical nested-segment representation (the test-only
//! `reference` module holds the CSR to it).
//!
//! Mutation is staged: `add_link` appends to a `pending` buffer that is
//! merged into the CSR arrays once it exceeds 64 links and an eighth of
//! the table; [`RelationTable::flush`] forces the merge. A flush of `P`
//! staged links sorts them, block-copies the links of every row after
//! the first touched one, shifts those rows' offsets, and merges and
//! rank-sorts only the touched rows: O(P log P + links and rows after
//! the first touched row), never a walk of the rows before it. Engines
//! flush before entering the propagation hot path so every expansion is
//! pure slice arithmetic.

use crate::error::KbError;
use crate::ids::{NodeId, RelationType};

/// Number of outgoing relation slots in one relation-table row.
pub const SLOTS_PER_NODE: usize = 16;

/// One outgoing link: relation type, destination, and floating-point
/// weight (the cost added to a complex marker's value when traversed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Relation (link) type.
    pub relation: RelationType,
    /// Destination node.
    pub destination: NodeId,
    /// Link weight added along propagation.
    pub weight: f32,
}

/// The relation table of a semantic network.
///
/// # Examples
///
/// ```
/// use snap_kb::{Link, NodeId, RelationTable, RelationType};
/// let mut table = RelationTable::new();
/// table.add_link(NodeId(0), RelationType(3), 0.5, NodeId(1))?;
/// assert_eq!(table.links(NodeId(0)).count(), 1);
/// # Ok::<(), snap_kb::KbError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RelationTable {
    /// All links, contiguous, sorted by `(node, relation, rank)`.
    links: Vec<Link>,
    /// Insertion rank of each link within its node (parallel to `links`).
    ranks: Vec<u32>,
    /// Node `n` owns `links[offsets[n]..offsets[n + 1]]`. Empty table has
    /// an empty offset array; otherwise `offsets.len() == len() + 1`.
    offsets: Vec<u32>,
    /// Row-relative link positions grouped per node and sorted by rank
    /// within each node: drives insertion-order iteration.
    by_rank: Vec<u32>,
    /// Next insertion rank per node. Monotone — never reused after a
    /// removal, so relative order of surviving links is stable.
    next_rank: Vec<u32>,
    /// Staged `(node, rank, link)` additions not yet merged into the CSR
    /// arrays.
    pending: Vec<(NodeId, u32, Link)>,
    /// Staged link count per node (keeps `fanout` O(1) while staged).
    pending_per_node: Vec<u32>,
}

impl RelationTable {
    /// Creates an empty relation table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node rows currently allocated.
    pub fn len(&self) -> usize {
        self.next_rank.len()
    }

    /// Returns `true` if no node rows are allocated.
    pub fn is_empty(&self) -> bool {
        self.next_rank.is_empty()
    }

    /// Extends the table so that `node` has a row.
    pub(crate) fn ensure_node(&mut self, node: NodeId) {
        let n = node.index() + 1;
        if self.next_rank.len() < n {
            if self.offsets.is_empty() {
                self.offsets.push(0);
            }
            let last = *self.offsets.last().expect("offsets seeded above");
            self.offsets.resize(n + 1, last);
            self.next_rank.resize(n, 0);
            self.pending_per_node.resize(n, 0);
        }
    }

    /// CSR range of `node`, or `None` for an unallocated row.
    fn node_range(&self, node: NodeId) -> Option<std::ops::Range<usize>> {
        let n = node.index();
        if n < self.len() {
            Some(self.offsets[n] as usize..self.offsets[n + 1] as usize)
        } else {
            None
        }
    }

    /// Adds an outgoing link from `source`. Overflowing the 16-slot row
    /// transparently allocates an overflow subnode segment, exactly like
    /// the paper's preprocessor.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::ReservedRelation`] if `relation` is the internal
    /// subnode relation.
    pub fn add_link(
        &mut self,
        source: NodeId,
        relation: RelationType,
        weight: f32,
        destination: NodeId,
    ) -> Result<(), KbError> {
        if relation.is_subnode() {
            return Err(KbError::ReservedRelation(relation));
        }
        self.ensure_node(source);
        self.ensure_node(destination);
        let rank = self.next_rank[source.index()];
        self.next_rank[source.index()] = rank + 1;
        self.pending.push((
            source,
            rank,
            Link {
                relation,
                destination,
                weight,
            },
        ));
        self.pending_per_node[source.index()] += 1;
        if self.pending.len() > 64.max(self.links.len() / 8) {
            self.flush();
        }
        Ok(())
    }

    /// Merges all staged additions into the CSR arrays. Idempotent; a
    /// no-op when nothing is staged. Engines call this before entering
    /// the propagation hot path so expansions read pure slices.
    pub fn flush(&mut self) {
        debug_assert_eq!(
            self.pending_per_node
                .iter()
                .map(|&c| c as usize)
                .sum::<usize>(),
            self.pending.len(),
            "the staged counts sum to the staged links"
        );
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // `(node, rank)` is unique, so the unstable sort is deterministic.
        pending.sort_unstable_by_key(|&(node, rank, link)| (node.0, link.relation.0, rank));
        // Merge in place from the back, touched row by touched row: the
        // untouched rows after a touched one move up by the staged links
        // before them in one block copy, and only the touched row is
        // merged and has its insertion order re-sorted.
        let total = self.links.len() + pending.len();
        let (mut p, mut read_end, mut rows_end) = (pending.len(), self.links.len(), self.len());
        self.links.resize(total, pending[0].2);
        self.ranks.resize(total, 0);
        self.by_rank.resize(total, 0);
        while p > 0 {
            let node = pending[p - 1].0.index();
            let q = pending[..p].partition_point(|e| e.0.index() < node);
            let (start, end) = (self.offsets[node] as usize, self.offsets[node + 1] as usize);
            self.links.copy_within(end..read_end, end + p);
            self.ranks.copy_within(end..read_end, end + p);
            self.by_rank.copy_within(end..read_end, end + p);
            self.offsets[node + 1..=rows_end]
                .iter_mut()
                .for_each(|o| *o += p as u32);
            // Backward merge by (relation, rank); the write cursor stays
            // `k` ahead of the read cursor, so no unread link is clobbered.
            let (mut i, mut k) = (end, p);
            while k > q {
                let (_, rank, link) = pending[k - 1];
                if i > start
                    && (self.links[i - 1].relation.0, self.ranks[i - 1]) > (link.relation.0, rank)
                {
                    i -= 1;
                    self.links[i + k] = self.links[i];
                    self.ranks[i + k] = self.ranks[i];
                } else {
                    k -= 1;
                    self.links[i + k] = link;
                    self.ranks[i + k] = rank;
                }
            }
            self.links.copy_within(start..i, start + q);
            self.ranks.copy_within(start..i, start + q);
            let row = start + q..end + p;
            let (ranks, order) = (&self.ranks[row.clone()], &mut self.by_rank[row]);
            order.iter_mut().zip(0..).for_each(|(o, j)| *o = j);
            order.sort_unstable_by_key(|&j| ranks[j as usize]);
            self.pending_per_node[node] = 0;
            (p, read_end, rows_end) = (q, start, node);
        }
        pending.clear();
        self.pending = pending;
    }

    /// Number of staged (not yet merged) links. The propagation fast path
    /// requires this to be zero.
    pub(crate) fn staged_links(&self) -> usize {
        self.pending.len()
    }

    /// Removes the first link matching `(source, relation, destination)`.
    /// Later links shift down so segment chains stay dense.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::LinkNotFound`] if no such link exists.
    pub fn remove_link(
        &mut self,
        source: NodeId,
        relation: RelationType,
        destination: NodeId,
    ) -> Result<(), KbError> {
        if source.index() >= self.len() {
            return Err(KbError::UnknownNode(source));
        }
        self.flush();
        let range = self.node_range(source).expect("row checked above");
        // "First" means first in insertion order.
        let order = &self.by_rank[range.clone()];
        let slot = order
            .iter()
            .position(|&j| {
                let l = &self.links[range.start + j as usize];
                l.relation == relation && l.destination == destination
            })
            .ok_or(KbError::LinkNotFound {
                source,
                relation,
                destination,
            })?;
        let at = order[slot];
        self.links.remove(range.start + at as usize);
        self.ranks.remove(range.start + at as usize);
        // Only this row's insertion order changes: it loses `at`, and its
        // later row-relative positions move down by one.
        self.by_rank.remove(range.start + slot);
        for j in &mut self.by_rank[range.start..range.end - 1] {
            if *j > at {
                *j -= 1;
            }
        }
        for off in &mut self.offsets[source.index() + 1..] {
            *off -= 1;
        }
        Ok(())
    }

    /// Iterates every outgoing link of `node`, in insertion order,
    /// transparently crossing subnode segments.
    pub fn links(&self, node: NodeId) -> impl Iterator<Item = &Link> {
        let range = self.node_range(node).unwrap_or_default();
        let row = &self.links[range.clone()];
        let order = &self.by_rank[range];
        order.iter().map(move |&j| &row[j as usize]).chain(
            self.pending
                .iter()
                .filter(move |(n, _, _)| *n == node)
                .map(|(_, _, l)| l),
        )
    }

    /// Iterates the outgoing links of `node` with the given relation type,
    /// in insertion order.
    pub fn links_by(&self, node: NodeId, relation: RelationType) -> impl Iterator<Item = &Link> {
        self.relation_run(node, relation).iter().chain(
            self.pending
                .iter()
                .filter(move |(n, _, l)| *n == node && l.relation == relation)
                .map(|(_, _, l)| l),
        )
    }

    /// The contiguous CSR sub-slice of `node`'s links with relation type
    /// `relation`, in insertion order — the hot-path lookup. Excludes
    /// staged links (see `RelationTable::staged_links`).
    fn relation_run(&self, node: NodeId, relation: RelationType) -> &[Link] {
        self.ranked_run(node, relation).0
    }

    /// Like `RelationTable::relation_run`, also returning the parallel
    /// insertion-rank slice (used to merge multiple relation runs back
    /// into global insertion order).
    pub(crate) fn ranked_run(&self, node: NodeId, relation: RelationType) -> (&[Link], &[u32]) {
        match self.node_range(node) {
            Some(range) => self.run_in(range, relation),
            None => (&[], &[]),
        }
    }

    /// The links of relation `relation` within the row `range`, with
    /// their ranks: the one run finder behind every run accessor. Rows
    /// are sorted by (relation, rank). A single-segment row — the
    /// overwhelmingly common case — is cheaper to scan linearly than to
    /// binary-search; a longer one, a hub's, is binary-searched for
    /// both ends of the run.
    fn run_in(&self, range: std::ops::Range<usize>, relation: RelationType) -> (&[Link], &[u32]) {
        let row = &self.links[range.clone()];
        let (lo, hi) = if row.len() <= SLOTS_PER_NODE {
            let mut lo = 0;
            while lo < row.len() && row[lo].relation.0 < relation.0 {
                lo += 1;
            }
            let mut hi = lo;
            while hi < row.len() && row[hi].relation.0 == relation.0 {
                hi += 1;
            }
            (lo, hi)
        } else {
            (
                row.partition_point(|l| l.relation.0 < relation.0),
                row.partition_point(|l| l.relation.0 <= relation.0),
            )
        };
        let (s, e) = (range.start + lo, range.start + hi);
        (&self.links[s..e], &self.ranks[s..e])
    }

    /// Fused hot-path accessor: the propagation cost units — segment
    /// count and total fanout, exactly as [`RelationTable::segments`]
    /// and [`RelationTable::fanout`] report them — plus the ranked
    /// relation run, all derived from a single row lookup. Wave kernels
    /// call this once per task instead of paying three separate
    /// offset-array probes.
    pub(crate) fn ranked_run_with_cost(
        &self,
        node: NodeId,
        relation: RelationType,
    ) -> (usize, usize, &[Link], &[u32]) {
        let Some(range) = self.node_range(node) else {
            return (0, 0, &[], &[]);
        };
        // Engines flush before propagating: read the staged count only
        // while links are staged. With none staged every count is 0, as
        // the counts sum to `pending.len()`.
        let staged = if self.pending.is_empty() {
            debug_assert_eq!(self.pending_per_node[node.index()], 0);
            0
        } else {
            self.pending_per_node[node.index()] as usize
        };
        let fanout = range.len() + staged;
        let segments = if fanout == 0 {
            1
        } else {
            fanout.div_ceil(SLOTS_PER_NODE)
        };
        let (run, ranks) = self.run_in(range, relation);
        (segments, fanout, run, ranks)
    }

    /// Number of relation-table segments (1 + overflow subnodes) backing
    /// `node`. Each segment beyond the first costs one extra lookup during
    /// propagation.
    pub fn segments(&self, node: NodeId) -> usize {
        if node.index() >= self.len() {
            return 0;
        }
        let fanout = self.fanout(node);
        if fanout == 0 {
            1
        } else {
            fanout.div_ceil(SLOTS_PER_NODE)
        }
    }

    /// Total outgoing fanout of `node`.
    pub fn fanout(&self, node: NodeId) -> usize {
        match self.node_range(node) {
            Some(r) => r.len() + self.pending_per_node[node.index()] as usize,
            None => 0,
        }
    }

    /// Total number of links in the table.
    pub fn link_count(&self) -> usize {
        self.links.len() + self.pending.len()
    }
}

impl PartialEq for RelationTable {
    /// Logical equality: same node rows with the same links in the same
    /// insertion order, regardless of how many additions are still
    /// staged.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len() as u32).all(|n| self.links(NodeId(n)).eq(other.links(NodeId(n))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel(r: u16) -> RelationType {
        RelationType(r)
    }

    #[test]
    fn add_and_iterate_links() {
        let mut t = RelationTable::new();
        t.add_link(NodeId(0), rel(1), 0.5, NodeId(1)).unwrap();
        t.add_link(NodeId(0), rel(2), 1.0, NodeId(2)).unwrap();
        let links: Vec<_> = t.links(NodeId(0)).collect();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].destination, NodeId(1));
        assert_eq!(links[1].weight, 1.0);
        assert_eq!(t.fanout(NodeId(0)), 2);
        assert_eq!(t.segments(NodeId(0)), 1);
    }

    #[test]
    fn fanout_over_16_spills_into_subnode_segments() {
        let mut t = RelationTable::new();
        for i in 0..40u32 {
            t.add_link(NodeId(0), rel(7), 1.0, NodeId(i + 1)).unwrap();
        }
        assert_eq!(t.fanout(NodeId(0)), 40);
        assert_eq!(t.segments(NodeId(0)), 3); // 16 + 16 + 8
                                              // Iteration is still flat and ordered.
        let dests: Vec<u32> = t.links(NodeId(0)).map(|l| l.destination.0).collect();
        assert_eq!(dests, (1..=40).collect::<Vec<_>>());
    }

    #[test]
    fn links_by_filters_relation() {
        let mut t = RelationTable::new();
        t.add_link(NodeId(0), rel(1), 0.0, NodeId(1)).unwrap();
        t.add_link(NodeId(0), rel(2), 0.0, NodeId(2)).unwrap();
        t.add_link(NodeId(0), rel(1), 0.0, NodeId(3)).unwrap();
        let dests: Vec<u32> = t
            .links_by(NodeId(0), rel(1))
            .map(|l| l.destination.0)
            .collect();
        assert_eq!(dests, vec![1, 3]);
    }

    #[test]
    fn relation_run_is_a_flushed_slice_in_insertion_order() {
        let mut t = RelationTable::new();
        t.add_link(NodeId(0), rel(2), 0.0, NodeId(9)).unwrap();
        t.add_link(NodeId(0), rel(1), 0.0, NodeId(1)).unwrap();
        t.add_link(NodeId(0), rel(1), 0.0, NodeId(3)).unwrap();
        t.add_link(NodeId(0), rel(3), 0.0, NodeId(4)).unwrap();
        t.flush();
        assert_eq!(t.staged_links(), 0);
        let run = t.relation_run(NodeId(0), rel(1));
        assert_eq!(
            run.iter().map(|l| l.destination.0).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert!(t.relation_run(NodeId(0), rel(5)).is_empty());
        assert!(t.relation_run(NodeId(7), rel(1)).is_empty());
        let (links, ranks) = t.ranked_run(NodeId(0), rel(1));
        assert_eq!(links.len(), ranks.len());
        assert_eq!(ranks, &[1, 2], "ranks are node-wide insertion indices");
    }

    #[test]
    fn staged_and_flushed_reads_agree() {
        let mut t = RelationTable::new();
        for i in 0..10u32 {
            t.add_link(NodeId(0), rel((i % 3) as u16), i as f32, NodeId(i + 1))
                .unwrap();
        }
        assert!(t.staged_links() > 0, "small batches stay staged");
        let staged: Vec<Link> = t.links(NodeId(0)).copied().collect();
        let staged_by: Vec<Link> = t.links_by(NodeId(0), rel(1)).copied().collect();
        let (fanout, segs, count) = (t.fanout(NodeId(0)), t.segments(NodeId(0)), t.link_count());
        t.flush();
        assert_eq!(t.links(NodeId(0)).copied().collect::<Vec<_>>(), staged);
        assert_eq!(
            t.links_by(NodeId(0), rel(1)).copied().collect::<Vec<_>>(),
            staged_by
        );
        assert_eq!(t.fanout(NodeId(0)), fanout);
        assert_eq!(t.segments(NodeId(0)), segs);
        assert_eq!(t.link_count(), count);
    }

    #[test]
    fn subnode_relation_rejected() {
        let mut t = RelationTable::new();
        let err = t
            .add_link(NodeId(0), RelationType::SUBNODE, 0.0, NodeId(1))
            .unwrap_err();
        assert_eq!(err, KbError::ReservedRelation(RelationType::SUBNODE));
    }

    #[test]
    fn remove_link_repacks_segments() {
        let mut t = RelationTable::new();
        for i in 0..17u32 {
            t.add_link(NodeId(0), rel(1), 0.0, NodeId(i + 1)).unwrap();
        }
        assert_eq!(t.segments(NodeId(0)), 2);
        t.remove_link(NodeId(0), rel(1), NodeId(1)).unwrap();
        assert_eq!(t.fanout(NodeId(0)), 16);
        assert_eq!(t.segments(NodeId(0)), 1, "removal repacks into one segment");
        let err = t.remove_link(NodeId(0), rel(1), NodeId(1)).unwrap_err();
        assert!(matches!(err, KbError::LinkNotFound { .. }));
    }

    #[test]
    fn ensure_node_allocates_destination_rows() {
        let mut t = RelationTable::new();
        t.add_link(NodeId(2), rel(0), 0.0, NodeId(9)).unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.fanout(NodeId(9)), 0);
    }

    proptest! {
        #[test]
        fn prop_segments_match_ceiling_of_fanout(fanout in 0usize..100) {
            let mut t = RelationTable::new();
            t.ensure_node(NodeId(0));
            for i in 0..fanout {
                t.add_link(NodeId(0), rel(1), 0.0, NodeId(i as u32 + 1)).unwrap();
            }
            let expect = if fanout == 0 { 1 } else { fanout.div_ceil(SLOTS_PER_NODE) };
            prop_assert_eq!(t.segments(NodeId(0)), expect);
            prop_assert_eq!(t.fanout(NodeId(0)), fanout);
        }

        #[test]
        fn prop_remove_preserves_other_links(
            n in 1usize..60,
            victim in 0usize..60,
        ) {
            prop_assume!(victim < n);
            let mut t = RelationTable::new();
            for i in 0..n {
                t.add_link(NodeId(0), rel(1), i as f32, NodeId(i as u32 + 1)).unwrap();
            }
            t.remove_link(NodeId(0), rel(1), NodeId(victim as u32 + 1)).unwrap();
            let dests: Vec<u32> = t.links(NodeId(0)).map(|l| l.destination.0).collect();
            let expect: Vec<u32> =
                (1..=n as u32).filter(|&d| d != victim as u32 + 1).collect();
            prop_assert_eq!(dests, expect);
        }
    }
}
