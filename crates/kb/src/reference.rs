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
    #[derive(Debug, Clone)]
    enum Op {
        Add {
            source: u32,
            relation: u16,
            destination: u32,
            weight: f32,
        },
        Remove {
            source: u32,
            relation: u16,
            destination: u32,
        },
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // kind 0..=5: add (weighted dominant), 6..=7: remove, 8: flush.
        (0u8..9, 0u32..24, 0u16..5, 0u32..24, 0u8..8).prop_map(
            |(kind, source, relation, destination, weight)| match kind {
                0..=5 => Op::Add {
                    source,
                    relation,
                    destination,
                    weight: weight as f32,
                },
                6 | 7 => Op::Remove {
                    source,
                    relation,
                    destination,
                },
                _ => Op::Flush,
            },
        )
    }

    fn assert_tables_agree(csr: &RelationTable, reference: &NestedRelationTable) {
        assert_eq!(csr.len(), reference.len());
        assert_eq!(csr.link_count(), reference.link_count());
        for n in 0..csr.len() as u32 {
            let node = NodeId(n);
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
            }
        }
    }

    proptest! {
        /// The CSR table and the nested reference model agree on every
        /// accessor after any operation sequence, both while additions
        /// are staged and after an explicit flush.
        #[test]
        fn prop_csr_matches_nested_reference(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut csr = RelationTable::new();
            let mut reference = NestedRelationTable::new();
            for op in ops {
                match op {
                    Op::Add { source, relation, destination, weight } => {
                        let a = csr.add_link(NodeId(source), RelationType(relation), weight, NodeId(destination));
                        let b = reference.add_link(NodeId(source), RelationType(relation), weight, NodeId(destination));
                        prop_assert_eq!(a, b);
                    }
                    Op::Remove { source, relation, destination } => {
                        let a = csr.remove_link(NodeId(source), RelationType(relation), NodeId(destination));
                        let b = reference.remove_link(NodeId(source), RelationType(relation), NodeId(destination));
                        prop_assert_eq!(a, b);
                    }
                    Op::Flush => csr.flush(),
                }
                assert_tables_agree(&csr, &reference);
            }
            csr.flush();
            prop_assert_eq!(csr.staged_links(), 0);
            assert_tables_agree(&csr, &reference);
        }
    }
}
