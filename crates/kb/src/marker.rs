//! Markers: the dynamic agents of inference.
//!
//! Markers are data patterns associated with nodes. SNAP-1 provides two
//! register files per node, sized to balance expressiveness against
//! storage:
//!
//! * **complex markers** (`M_C = 64`) carry a 32-bit floating-point value
//!   used as a measure of belief (e.g. the cost of accepting a concept
//!   sequence) plus the address of the origin node for variable binding;
//! * **binary markers** (`M_B = 64`) indicate bare set membership or
//!   hypothesis state.
//!
//! [`MarkerState`] is the runtime marker storage for one region of the
//! semantic network (a cluster's partition, or the whole network on a
//! sequential engine). All execution engines share it so their logical
//! results can be compared bit-for-bit.

use crate::error::KbError;
use crate::ids::NodeId;
use crate::status::StatusRow;

/// The kind of a marker register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MarkerKind {
    /// Carries a floating-point value and an origin-node binding.
    Complex,
    /// Carries only an active/inactive bit.
    Binary,
}

/// A marker register name: kind plus index into that kind's register file.
///
/// # Examples
///
/// ```
/// use snap_kb::Marker;
/// let m1 = Marker::complex(1);
/// let b0 = Marker::binary(0);
/// assert_ne!(m1, b0);
/// assert_eq!(m1.to_string(), "m1");
/// assert_eq!(b0.to_string(), "b0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Marker {
    kind: MarkerKind,
    index: u8,
}

impl Marker {
    /// Names complex marker `index`.
    pub const fn complex(index: u8) -> Self {
        Marker {
            kind: MarkerKind::Complex,
            index,
        }
    }

    /// Names binary marker `index`.
    pub const fn binary(index: u8) -> Self {
        Marker {
            kind: MarkerKind::Binary,
            index,
        }
    }

    /// The marker's kind.
    #[inline]
    pub fn kind(self) -> MarkerKind {
        self.kind
    }

    /// The marker's index within its kind's register file.
    #[inline]
    pub fn index(self) -> u8 {
        self.index
    }
}

impl core::fmt::Display for Marker {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind {
            MarkerKind::Complex => write!(f, "m{}", self.index),
            MarkerKind::Binary => write!(f, "b{}", self.index),
        }
    }
}

/// The value payload carried by a complex marker at a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkerValue {
    /// Accumulated belief/cost value.
    pub value: f32,
    /// Node at which this marker instance originated (for binding).
    pub origin: NodeId,
}

impl Default for MarkerValue {
    fn default() -> Self {
        MarkerValue {
            value: 0.0,
            origin: NodeId(0),
        }
    }
}

/// Runtime marker storage for one region of the semantic network.
///
/// Rows of the status table are allocated lazily: a marker that is never
/// touched costs nothing, which keeps 12K-node experiments with the full
/// 64+64 register file cheap.
///
/// A register name is checked against its register file in one place,
/// which every row and payload access goes through; a read of an
/// out-of-range register ([`MarkerState::rows`], [`MarkerState::row`])
/// is [`KbError::MarkerOutOfRange`], like a write.
/// The per-node predicates ([`test`](MarkerState::test),
/// [`value`](MarkerState::value), [`count`](MarkerState::count)) read
/// such a register as never touched.
///
/// The per-node methods each resolve their marker afresh — kind,
/// register range, whether the row exists. A caller that touches one
/// marker many times, or reads and then writes it, resolves it once
/// through [`MarkerState::rows`] / [`MarkerState::rows_mut`] and works on
/// the status row and payload row it gets back.
#[derive(Debug, Clone)]
pub struct MarkerState {
    nodes: usize,
    max_complex: usize,
    max_binary: usize,
    complex_status: Vec<Option<StatusRow>>,
    binary_status: Vec<Option<StatusRow>>,
    /// Value/origin payloads for complex markers, row per marker.
    values: Vec<Option<Vec<MarkerValue>>>,
}

impl MarkerState {
    /// Creates empty marker storage covering `nodes` node slots with the
    /// given register-file sizes (the prototype uses 64 and 64).
    pub fn new(nodes: usize, max_complex: usize, max_binary: usize) -> Self {
        MarkerState {
            nodes,
            max_complex,
            max_binary,
            complex_status: vec![None; max_complex],
            binary_status: vec![None; max_binary],
            values: vec![None; max_complex],
        }
    }

    /// Number of node slots covered.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Grows the storage to cover `nodes` node slots (used when runtime
    /// `CREATE` instructions add nodes). Existing marker bits are kept.
    pub fn grow(&mut self, nodes: usize) {
        if nodes <= self.nodes {
            return;
        }
        for r in self
            .complex_status
            .iter_mut()
            .chain(&mut self.binary_status)
            .flatten()
        {
            let mut bigger = StatusRow::new(nodes);
            for n in r.iter() {
                bigger.set(n);
            }
            *r = bigger;
        }
        for vals in self.values.iter_mut().flatten() {
            vals.resize(nodes, MarkerValue::default());
        }
        self.nodes = nodes;
    }

    /// The one resolver of a register name: `marker`'s slot in its kind's
    /// register file, checked against the file's size. Every status row
    /// and payload row is indexed by what this returns.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] if the index exceeds the
    /// register file.
    fn register(&self, marker: Marker) -> Result<usize, KbError> {
        let capacity = match marker.kind() {
            MarkerKind::Complex => self.max_complex,
            MarkerKind::Binary => self.max_binary,
        };
        let slot = usize::from(marker.index());
        if slot < capacity {
            Ok(slot)
        } else {
            Err(KbError::MarkerOutOfRange {
                index: marker.index(),
                capacity,
            })
        }
    }

    /// Read-only view of a marker's status row, `None` if it was never
    /// touched.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] if the index exceeds the
    /// register file.
    pub fn row(&self, marker: Marker) -> Result<Option<&StatusRow>, KbError> {
        let i = self.register(marker)?;
        Ok(match marker.kind() {
            MarkerKind::Complex => self.complex_status[i].as_ref(),
            MarkerKind::Binary => self.binary_status[i].as_ref(),
        })
    }

    /// Mutable view of a marker's status row, allocating it if untouched.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] if the index exceeds the
    /// register file.
    pub fn row_mut(&mut self, marker: Marker) -> Result<&mut StatusRow, KbError> {
        let (i, nodes) = (self.register(marker)?, self.nodes);
        let slot = match marker.kind() {
            MarkerKind::Complex => &mut self.complex_status[i],
            MarkerKind::Binary => &mut self.binary_status[i],
        };
        Ok(slot.get_or_insert_with(|| StatusRow::new(nodes)))
    }

    /// Resolves `marker` once for reading: its status row and its payload
    /// slice, or `None` if the marker was never touched. The slice is
    /// empty for a binary marker and for a complex marker no payload was
    /// ever written on, so `payload.get(node.index())` under a set bit is
    /// exactly [`MarkerState::value`].
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] if the index exceeds the
    /// register file.
    pub fn rows(&self, marker: Marker) -> Result<Option<(&StatusRow, &[MarkerValue])>, KbError> {
        let i = self.register(marker)?;
        let (row, payload) = match marker.kind() {
            MarkerKind::Complex => (&self.complex_status[i], self.values[i].as_deref()),
            MarkerKind::Binary => (&self.binary_status[i], None),
        };
        Ok(row.as_ref().map(|row| (row, payload.unwrap_or_default())))
    }

    /// Resolves `marker` once for a run of writes: its status row and —
    /// for a complex marker — its full payload row, both allocated if
    /// untouched, so no write through them allocates. A binary marker
    /// has no payload (`None`).
    ///
    /// A payload row allocated here binds every bit already set to
    /// `0.0` at `bound_to(node)`, which is what a set bit without a
    /// payload reads as to a propagation's merge. Only
    /// [`MarkerState::set`] and [`MarkerState::merge_bits`] can leave a
    /// complex bit without one.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] if the index exceeds the
    /// register file.
    #[inline]
    pub fn rows_mut(
        &mut self,
        marker: Marker,
        bound_to: impl Fn(NodeId) -> NodeId,
    ) -> Result<(&mut StatusRow, Option<&mut [MarkerValue]>), KbError> {
        let (i, nodes) = (self.register(marker)?, self.nodes);
        Ok(match marker.kind() {
            MarkerKind::Complex => {
                let row = self.complex_status[i].get_or_insert_with(|| StatusRow::new(nodes));
                let payload = match &mut self.values[i] {
                    Some(payload) => payload,
                    none => none.insert(bound_payload(row, bound_to)),
                };
                (row, Some(payload.as_mut_slice()))
            }
            MarkerKind::Binary => (
                self.binary_status[i].get_or_insert_with(|| StatusRow::new(nodes)),
                None,
            ),
        })
    }

    /// Tests whether `marker` is active at `node` (never, for an
    /// out-of-range register).
    pub fn test(&self, marker: Marker, node: NodeId) -> bool {
        matches!(self.row(marker), Ok(Some(row)) if row.test(node))
    }

    /// Activates `marker` at `node`. Returns `true` if newly activated.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] for an invalid register index.
    pub fn set(&mut self, marker: Marker, node: NodeId) -> Result<bool, KbError> {
        Ok(self.row_mut(marker)?.set(node))
    }

    /// Deactivates `marker` at `node`. Returns `true` if it was active.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] for an invalid register index.
    pub fn clear(&mut self, marker: Marker, node: NodeId) -> Result<bool, KbError> {
        Ok(self.row_mut(marker)?.clear(node))
    }

    /// The value payload of a complex marker at `node`, if the marker is a
    /// complex marker that has been written there. Binary markers have no
    /// payload and always return `None`, as does an out-of-range register.
    pub fn value(&self, marker: Marker, node: NodeId) -> Option<MarkerValue> {
        if marker.kind() != MarkerKind::Complex {
            return None;
        }
        let (row, payload) = self.rows(marker).ok()??;
        if !row.test(node) {
            return None;
        }
        payload.get(node.index()).copied()
    }

    /// Writes the value payload of a complex marker at `node` and activates
    /// the marker there.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] if the index is invalid, and
    /// [`KbError::UnknownNode`] if `node` is outside the region. Writing a
    /// payload on a binary marker is a programming error and also yields
    /// [`KbError::MarkerOutOfRange`].
    pub fn set_value(
        &mut self,
        marker: Marker,
        node: NodeId,
        value: MarkerValue,
    ) -> Result<(), KbError> {
        if marker.kind() != MarkerKind::Complex {
            return Err(KbError::MarkerOutOfRange {
                index: marker.index(),
                capacity: 0,
            });
        }
        let (i, nodes) = (self.register(marker)?, self.nodes);
        if node.index() >= nodes {
            return Err(KbError::UnknownNode(node));
        }
        self.complex_status[i]
            .get_or_insert_with(|| StatusRow::new(nodes))
            .set(node);
        let vals = self.values[i].get_or_insert_with(|| vec![MarkerValue::default(); nodes]);
        vals[node.index()] = value;
        Ok(())
    }

    /// Bulk [`MarkerState::set_value`]: writes a run of `(node, value)`
    /// payloads on one complex marker, checking the register and
    /// fetching the status/value rows **once** instead of per node.
    /// This is the absorb path of the bit-sliced kernel, which
    /// accumulates a whole propagation's marker writes before touching
    /// the region.
    ///
    /// # Errors
    ///
    /// Same per-item contract as [`MarkerState::set_value`]:
    /// [`KbError::MarkerOutOfRange`] for a bad register (or a binary
    /// marker), [`KbError::UnknownNode`] for a node outside the region
    /// — items before the failing one stay written.
    pub fn merge_values(
        &mut self,
        marker: Marker,
        items: impl Iterator<Item = (NodeId, MarkerValue)>,
    ) -> Result<(), KbError> {
        if marker.kind() != MarkerKind::Complex {
            return Err(KbError::MarkerOutOfRange {
                index: marker.index(),
                capacity: 0,
            });
        }
        let (i, nodes) = (self.register(marker)?, self.nodes);
        let row = self.complex_status[i].get_or_insert_with(|| StatusRow::new(nodes));
        let vals = self.values[i].get_or_insert_with(|| vec![MarkerValue::default(); nodes]);
        for (node, value) in items {
            if node.index() >= nodes {
                return Err(KbError::UnknownNode(node));
            }
            row.set(node);
            vals[node.index()] = value;
        }
        Ok(())
    }

    /// Bulk [`MarkerState::set`] for one binary marker: one register
    /// check and one row fetch for the whole run of nodes.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] for an invalid register
    /// index.
    pub fn merge_bits(
        &mut self,
        marker: Marker,
        items: impl Iterator<Item = NodeId>,
    ) -> Result<(), KbError> {
        let row = self.row_mut(marker)?;
        for node in items {
            row.set(node);
        }
        Ok(())
    }

    /// Clears every instance of `marker` across the region. Returns the
    /// number of status words touched (cost-model unit).
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] for an invalid register index.
    pub fn clear_marker(&mut self, marker: Marker) -> Result<usize, KbError> {
        Ok(self.row_mut(marker)?.clear_all())
    }

    /// Clears every allocated marker row in place, keeping the row and
    /// value allocations for reuse. After a reset the state is logically
    /// identical to a freshly constructed one (stale value payloads are
    /// unobservable because [`MarkerState::value`] requires the status
    /// bit), but steady-state reuse — e.g. a pooled per-query context —
    /// allocates nothing.
    pub fn reset(&mut self) {
        for row in self
            .complex_status
            .iter_mut()
            .chain(&mut self.binary_status)
            .flatten()
        {
            row.clear_all();
        }
    }

    /// The nodes where `marker` is active, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] for an invalid register index.
    pub fn active_nodes(&self, marker: Marker) -> Result<Vec<NodeId>, KbError> {
        Ok(self.active_nodes_iter(marker)?.collect())
    }

    /// Iterates the nodes where `marker` is active, ascending, without
    /// allocating. Report and collect paths prefer this over
    /// [`MarkerState::active_nodes`].
    ///
    /// # Errors
    ///
    /// Returns [`KbError::MarkerOutOfRange`] for an invalid register index.
    pub fn active_nodes_iter(
        &self,
        marker: Marker,
    ) -> Result<impl Iterator<Item = NodeId> + '_, KbError> {
        Ok(self.row(marker)?.into_iter().flat_map(StatusRow::iter))
    }

    /// Number of nodes where `marker` is active (none, for an
    /// out-of-range register).
    pub fn count(&self, marker: Marker) -> usize {
        self.row(marker).ok().flatten().map_or(0, StatusRow::count)
    }
}

/// A complex marker's first payload row: every bit `row` already has
/// set bound to `0.0` at `bound_to(node)`. Out of line, so the
/// resolution every arrival makes stays small.
#[cold]
#[inline(never)]
fn bound_payload(row: &StatusRow, bound_to: impl Fn(NodeId) -> NodeId) -> Vec<MarkerValue> {
    let mut payload = vec![MarkerValue::default(); row.nodes()];
    for node in row.iter() {
        let origin = bound_to(node);
        payload[node.index()] = MarkerValue { value: 0.0, origin };
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test_binary_marker() {
        let mut st = MarkerState::new(50, 4, 4);
        let b = Marker::binary(2);
        assert!(!st.test(b, NodeId(10)));
        assert!(st.set(b, NodeId(10)).unwrap());
        assert!(st.test(b, NodeId(10)));
        assert_eq!(st.count(b), 1);
        assert!(st.clear(b, NodeId(10)).unwrap());
        assert_eq!(st.count(b), 0);
    }

    #[test]
    fn complex_marker_carries_value_and_origin() {
        let mut st = MarkerState::new(20, 2, 2);
        let m = Marker::complex(0);
        st.set_value(
            m,
            NodeId(5),
            MarkerValue {
                value: 3.5,
                origin: NodeId(1),
            },
        )
        .unwrap();
        let v = st.value(m, NodeId(5)).unwrap();
        assert_eq!(v.value, 3.5);
        assert_eq!(v.origin, NodeId(1));
        // Inactive node has no payload even though the row is allocated.
        assert!(st.value(m, NodeId(6)).is_none());
    }

    #[test]
    fn binary_marker_rejects_value_write() {
        let mut st = MarkerState::new(20, 2, 2);
        let err = st
            .set_value(Marker::binary(0), NodeId(1), MarkerValue::default())
            .unwrap_err();
        assert!(matches!(err, KbError::MarkerOutOfRange { .. }));
        assert!(st.value(Marker::binary(0), NodeId(1)).is_none());
    }

    #[test]
    fn out_of_range_register_is_rejected() {
        let mut st = MarkerState::new(20, 2, 2);
        let err = st.set(Marker::complex(2), NodeId(0)).unwrap_err();
        assert_eq!(
            err,
            KbError::MarkerOutOfRange {
                index: 2,
                capacity: 2
            }
        );
    }

    #[test]
    fn reading_an_out_of_range_register_is_the_same_typed_error() {
        let mut st = MarkerState::new(20, 2, 2);
        st.set(Marker::binary(1), NodeId(3)).unwrap();
        for marker in [Marker::complex(2), Marker::binary(70)] {
            let want = KbError::MarkerOutOfRange {
                index: marker.index(),
                capacity: 2,
            };
            assert_eq!(st.set(marker, NodeId(0)).unwrap_err(), want);
            assert_eq!(st.rows(marker).unwrap_err(), want);
            assert_eq!(st.row(marker).unwrap_err(), want);
            assert_eq!(st.active_nodes(marker).unwrap_err(), want);
            assert!(st.active_nodes_iter(marker).is_err());
            assert_eq!(st.clear_marker(marker).unwrap_err(), want);
            // The per-node predicates read it as never touched.
            assert!(!st.test(marker, NodeId(3)));
            assert_eq!(st.value(marker, NodeId(3)), None);
            assert_eq!(st.count(marker), 0);
        }
        // An in-range register never touched is no error.
        assert!(st.rows(Marker::complex(1)).unwrap().is_none());
        assert_eq!(st.active_nodes(Marker::binary(1)).unwrap(), vec![NodeId(3)]);
    }

    #[test]
    fn grow_preserves_bits_and_values() {
        let mut st = MarkerState::new(10, 2, 2);
        let m = Marker::complex(1);
        st.set_value(
            m,
            NodeId(9),
            MarkerValue {
                value: 7.0,
                origin: NodeId(2),
            },
        )
        .unwrap();
        st.set(Marker::binary(0), NodeId(3)).unwrap();
        st.grow(100);
        assert_eq!(st.nodes(), 100);
        assert!(st.test(m, NodeId(9)));
        assert_eq!(st.value(m, NodeId(9)).unwrap().value, 7.0);
        assert!(st.test(Marker::binary(0), NodeId(3)));
        st.set(Marker::binary(0), NodeId(99)).unwrap();
        assert_eq!(st.count(Marker::binary(0)), 2);
    }

    #[test]
    fn clear_marker_reports_words_touched() {
        let mut st = MarkerState::new(64, 2, 2);
        let b = Marker::binary(1);
        st.set(b, NodeId(0)).unwrap();
        let words = st.clear_marker(b).unwrap();
        assert_eq!(words, 2); // 64 nodes / 32-bit words
        assert_eq!(st.count(b), 0);
    }

    #[test]
    fn reset_matches_fresh_state() {
        let mut st = MarkerState::new(30, 2, 2);
        let m = Marker::complex(0);
        let b = Marker::binary(1);
        st.set_value(
            m,
            NodeId(4),
            MarkerValue {
                value: 2.5,
                origin: NodeId(1),
            },
        )
        .unwrap();
        st.set(b, NodeId(7)).unwrap();
        st.reset();
        assert_eq!(st.count(m), 0);
        assert_eq!(st.count(b), 0);
        // Stale payloads are unobservable: the status bit gates value().
        assert!(st.value(m, NodeId(4)).is_none());
        // The storage is fully reusable after reset.
        st.set_value(
            m,
            NodeId(4),
            MarkerValue {
                value: 9.0,
                origin: NodeId(3),
            },
        )
        .unwrap();
        assert_eq!(st.value(m, NodeId(4)).unwrap().value, 9.0);
    }

    #[test]
    fn merge_values_matches_per_node_writes() {
        let mut bulk = MarkerState::new(20, 2, 2);
        let mut scalar = MarkerState::new(20, 2, 2);
        let m = Marker::complex(1);
        let items = [
            (
                NodeId(3),
                MarkerValue {
                    value: 1.5,
                    origin: NodeId(7),
                },
            ),
            (
                NodeId(9),
                MarkerValue {
                    value: 0.5,
                    origin: NodeId(3),
                },
            ),
            (
                NodeId(3),
                MarkerValue {
                    value: 0.25,
                    origin: NodeId(1),
                },
            ),
        ];
        bulk.merge_values(m, items.iter().copied()).unwrap();
        for (n, v) in items {
            scalar.set_value(m, n, v).unwrap();
        }
        assert_eq!(bulk.count(m), scalar.count(m));
        for n in 0..20u32 {
            assert_eq!(bulk.value(m, NodeId(n)), scalar.value(m, NodeId(n)));
        }
        // Same per-item errors as the scalar path.
        let err = bulk
            .merge_values(m, std::iter::once((NodeId(99), MarkerValue::default())))
            .unwrap_err();
        assert_eq!(err, KbError::UnknownNode(NodeId(99)));
        assert!(matches!(
            bulk.merge_values(Marker::binary(0), std::iter::empty())
                .unwrap_err(),
            KbError::MarkerOutOfRange { .. }
        ));
    }

    #[test]
    fn merge_bits_matches_per_node_writes() {
        let mut st = MarkerState::new(40, 1, 2);
        let b = Marker::binary(1);
        st.merge_bits(b, [NodeId(5), NodeId(1), NodeId(5)].into_iter())
            .unwrap();
        assert_eq!(st.active_nodes(b).unwrap(), vec![NodeId(1), NodeId(5)]);
        assert!(matches!(
            st.merge_bits(Marker::binary(2), std::iter::empty())
                .unwrap_err(),
            KbError::MarkerOutOfRange { .. }
        ));
    }

    #[test]
    fn active_nodes_sorted() {
        let mut st = MarkerState::new(40, 1, 1);
        for &i in &[33u32, 2, 17] {
            st.set(Marker::binary(0), NodeId(i)).unwrap();
        }
        let active = st.active_nodes(Marker::binary(0)).unwrap();
        assert_eq!(active, vec![NodeId(2), NodeId(17), NodeId(33)]);
        assert!(st.active_nodes_iter(Marker::binary(0)).unwrap().eq(active));
        // Untouched rows iterate as empty without allocating.
        assert_eq!(st.active_nodes_iter(Marker::complex(0)).unwrap().count(), 0);
    }
}
