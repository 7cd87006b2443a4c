//! Reference nested-segment relation table.
//!
//! This is the historical `Vec<Vec<Vec<Link>>>` representation the CSR
//! [`RelationTable`](crate::RelationTable) replaced: per node, a chain of
//! dense 16-slot segments in insertion order. It is kept, for this
//! crate's tests only, as an executable specification: the property test
//! below drives random operation sequences through both tables and
//! requires every accessor to agree.

use crate::error::KbError;
use crate::ids::{NodeId, RelationType};
use crate::links::{Link, SLOTS_PER_NODE};

/// The pre-CSR relation table: per node, a chain of 16-slot segments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NestedRelationTable {
    /// Per node: chain of 16-slot segments. `rows[n][0]` is node `n`'s own
    /// relation row; later segments are overflow subnodes.
    rows: Vec<Vec<Vec<Link>>>,
}

impl NestedRelationTable {
    /// Creates an empty relation table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node rows currently allocated.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Extends the table so that `node` has a row.
    pub fn ensure_node(&mut self, node: NodeId) {
        if node.index() >= self.rows.len() {
            self.rows.resize(node.index() + 1, vec![Vec::new()]);
        }
    }

    /// Adds an outgoing link from `source`, spilling into overflow
    /// segments past 16 slots.
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
        let segments = &mut self.rows[source.index()];
        let last = segments.last_mut().expect("node row always has a segment");
        let link = Link {
            relation,
            destination,
            weight,
        };
        if last.len() < SLOTS_PER_NODE {
            last.push(link);
        } else {
            segments.push(vec![link]);
        }
        Ok(())
    }

    /// Removes the first link matching `(source, relation, destination)`
    /// and repacks the segment chain dense.
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
        let row = self
            .rows
            .get_mut(source.index())
            .ok_or(KbError::UnknownNode(source))?;
        let mut flat: Vec<Link> = row.iter().flatten().copied().collect();
        let pos = flat
            .iter()
            .position(|l| l.relation == relation && l.destination == destination)
            .ok_or(KbError::LinkNotFound {
                source,
                relation,
                destination,
            })?;
        flat.remove(pos);
        *row = if flat.is_empty() {
            vec![Vec::new()]
        } else {
            flat.chunks(SLOTS_PER_NODE).map(<[Link]>::to_vec).collect()
        };
        Ok(())
    }

    /// Iterates every outgoing link of `node`, in insertion order.
    pub fn links(&self, node: NodeId) -> impl Iterator<Item = &Link> {
        self.rows
            .get(node.index())
            .into_iter()
            .flat_map(|segments| segments.iter().flatten())
    }

    /// Iterates the outgoing links of `node` with the given relation type.
    pub fn links_by(&self, node: NodeId, relation: RelationType) -> impl Iterator<Item = &Link> {
        self.links(node).filter(move |l| l.relation == relation)
    }

    /// Number of relation-table segments backing `node`.
    pub fn segments(&self, node: NodeId) -> usize {
        self.rows.get(node.index()).map_or(0, |s| s.len())
    }

    /// Total outgoing fanout of `node`.
    pub fn fanout(&self, node: NodeId) -> usize {
        self.rows
            .get(node.index())
            .map_or(0, |s| s.iter().map(Vec::len).sum())
    }

    /// Total number of links in the table.
    pub fn link_count(&self) -> usize {
        self.rows
            .iter()
            .map(|s| s.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationTable;
    use proptest::prelude::*;

    /// One randomized table operation.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Add {
            source: u32,
            relation: u16,
            destination: u32,
            weight: f32,
        },
        /// Removes the `nth` of `source`'s links in insertion order,
        /// modulo fanout + 1: the extra index names a link no row has.
        Remove {
            source: u32,
            nth: usize,
        },
        Flush,
    }

    /// One add, remove or flush over nodes `0..256`. One op in `every` is
    /// a flush and one a remove, so a large `every` stages long runs of
    /// additions and lets the auto-flush fire. Half the ops name one of
    /// four hub sources, whose rows grow past one 16-slot segment.
    fn op_strategy(every: u8) -> impl Strategy<Value = Op> {
        (0..every, 0u32..512, 0u16..5, 0u32..256, 0u8..8).prop_map(
            |(kind, source, relation, destination, weight)| {
                let source = if source < 256 { source } else { source % 4 };
                match kind {
                    0 => Op::Flush,
                    1 => Op::Remove {
                        source,
                        nth: destination as usize,
                    },
                    _ => Op::Add {
                        source,
                        relation,
                        destination,
                        weight: weight as f32,
                    },
                }
            },
        )
    }

    fn assert_tables_agree(csr: &RelationTable, reference: &NestedRelationTable) {
        assert_eq!(csr.len(), reference.len());
        assert_eq!(csr.link_count(), reference.link_count());
        for n in 0..csr.len() as u32 {
            assert_rows_agree(csr, reference, NodeId(n));
        }
    }

    fn assert_rows_agree(csr: &RelationTable, reference: &NestedRelationTable, node: NodeId) {
        assert_eq!(
            csr.fanout(node),
            reference.fanout(node),
            "fanout of {node:?}"
        );
        assert_eq!(
            csr.segments(node),
            reference.segments(node),
            "segments of {node:?}"
        );
        let a: Vec<Link> = csr.links(node).copied().collect();
        let b: Vec<Link> = reference.links(node).copied().collect();
        assert_eq!(a, b, "links of {node:?}");
        for r in 0..6u16 {
            let relation = RelationType(r);
            let a: Vec<Link> = csr.links_by(node, relation).copied().collect();
            let b: Vec<Link> = reference.links_by(node, relation).copied().collect();
            assert_eq!(a, b, "links_by of {node:?} {relation:?}");
            // The hot-path run holds the flushed links only, which
            // precede every staged one in insertion order.
            let (segments, fanout, run, ranks) = csr.ranked_run_with_cost(node, relation);
            assert_eq!(
                segments,
                reference.segments(node),
                "cost segments of {node:?}"
            );
            assert_eq!(fanout, reference.fanout(node), "cost fanout of {node:?}");
            assert_eq!(run.len(), ranks.len());
            assert!(b.starts_with(run), "run of {node:?} {relation:?}");
            if csr.staged_links() == 0 {
                assert_eq!(run, &b[..], "flushed run of {node:?} {relation:?}");
            }
            assert!(
                ranks.windows(2).all(|w| w[0] < w[1]),
                "ranks of {node:?} {relation:?}"
            );
            // The plain run accessor finds the same run.
            assert_eq!(
                csr.ranked_run(node, relation),
                (run, ranks),
                "ranked_run of {node:?} {relation:?}"
            );
        }
    }

    proptest! {
        /// The CSR table and the nested reference model agree on every
        /// accessor after any operation sequence, both while additions
        /// are staged and after an explicit flush.
        #[test]
        fn prop_csr_matches_nested_reference(
            ops in (3u8..=200).prop_flat_map(|every| proptest::collection::vec(op_strategy(every), 1..400)),
        ) {
            let mut csr = RelationTable::new();
            let mut reference = NestedRelationTable::new();
            for (i, op) in ops.into_iter().enumerate() {
                let rows = csr.len() as u32;
                match op {
                    Op::Add { source, relation, destination, weight } => {
                        let a = csr.add_link(NodeId(source), RelationType(relation), weight, NodeId(destination));
                        let b = reference.add_link(NodeId(source), RelationType(relation), weight, NodeId(destination));
                        prop_assert_eq!(a, b);
                    }
                    Op::Remove { source, nth } => {
                        let row: Vec<Link> = reference.links(NodeId(source)).copied().collect();
                        let (relation, destination) = match row.get(nth % (row.len() + 1)) {
                            Some(l) => (l.relation, l.destination),
                            None => (RelationType(5), NodeId(0)),
                        };
                        let a = csr.remove_link(NodeId(source), relation, destination);
                        let b = reference.remove_link(NodeId(source), relation, destination);
                        prop_assert_eq!(a, b);
                    }
                    Op::Flush => csr.flush(),
                }
                // Every flush, explicit or automatic, and every 16th op is
                // checked on every row; other staged additions on their
                // source row and the rows they allocated.
                if csr.staged_links() == 0 || i % 16 == 0 {
                    assert_tables_agree(&csr, &reference);
                } else if let Op::Add { source, .. } = op {
                    assert_eq!(csr.len(), reference.len());
                    assert_eq!(csr.link_count(), reference.link_count());
                    assert_rows_agree(&csr, &reference, NodeId(source));
                    for n in rows..csr.len() as u32 {
                        assert_rows_agree(&csr, &reference, NodeId(n));
                    }
                }
            }
            csr.flush();
            prop_assert_eq!(csr.staged_links(), 0);
            assert_tables_agree(&csr, &reference);
        }
    }
}
