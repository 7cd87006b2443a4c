//! A cluster's region: the slice of the knowledge base one cluster owns.
//!
//! Each region holds the local marker state for its member nodes and
//! implements the *local* part of every SNAP instruction. Engines differ
//! in how they schedule regions (in sequence, by simulated events, or on
//! real threads), but all of them execute instructions through these
//! methods, which is what makes their logical results identical.

use crate::error::CoreError;
use snap_isa::{CombineFunc, ValueFunc};
use snap_kb::{
    ClusterId, Color, Marker, MarkerKind, MarkerState, MarkerValue, NodeId, Partition,
    PartitionScheme, RelationType, SemanticNetwork, StatusRow,
};
use std::sync::Arc;

/// Minimum improvement for a re-arrival to update a stored marker value
/// (guards convergence on cyclic knowledge bases).
pub const VALUE_EPSILON: f32 = 1e-6;

/// The order-sensitive `(value, origin)` merge every visited table and
/// [`Region::arrive`] share: a strictly smaller value wins; an equal
/// value (within [`VALUE_EPSILON`]) from a smaller origin wins the
/// binding. Both cases re-expand, so the fixed point is independent of
/// arrival order.
#[inline]
pub(crate) fn improves(best: (f32, NodeId), value: f32, origin: NodeId) -> bool {
    value < best.0 - VALUE_EPSILON || ((value - best.0).abs() <= VALUE_EPSILON && origin < best.1)
}

/// Global node → (cluster, local index) mapping shared by all regions of
/// one machine.
#[derive(Debug, Clone)]
pub struct RegionMap {
    partition: Partition,
    local_of: Vec<u32>,
}

impl RegionMap {
    /// Builds the map for `network` over `clusters` clusters.
    pub fn build(network: &SemanticNetwork, clusters: usize, scheme: PartitionScheme) -> Arc<Self> {
        let partition = Partition::build(network, clusters, scheme);
        let mut local_of = vec![0u32; network.node_count()];
        for c in 0..clusters {
            for (i, &node) in partition.members(ClusterId(c as u8)).iter().enumerate() {
                local_of[node.index()] = i as u32;
            }
        }
        Arc::new(RegionMap {
            partition,
            local_of,
        })
    }

    /// Cluster owning `node`.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.partition.cluster_of(node)
    }

    /// Local index of `node` within its owning cluster.
    pub fn local_of(&self, node: NodeId) -> u32 {
        self.local_of[node.index()]
    }

    /// Members of `cluster`, ascending by node ID.
    pub fn members(&self, cluster: ClusterId) -> &[NodeId] {
        self.partition.members(cluster)
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.partition.cluster_count()
    }

    /// The underlying partition (for locality/balance reporting).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

/// Outcome of a marker arrival at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The marker was newly activated here — expand onward.
    New,
    /// The marker was active but the value improved — re-expand.
    Improved,
    /// Already active with an equal-or-better value — stop.
    Ignored,
}

/// One cluster's marker state and local instruction implementations.
///
/// `Clone` supports the threaded engine's recovery path: regions are
/// checkpointed at propagation-phase boundaries so a neighbor can adopt
/// a dead cluster's slice and replay the phase.
#[derive(Debug, Clone)]
pub struct Region {
    cluster: ClusterId,
    map: Arc<RegionMap>,
    markers: MarkerState,
    /// Result row of the boolean instructions, computed here before the
    /// target row is written (the target may be one of the sources).
    scratch: StatusRow,
}

impl Region {
    /// Creates the region for `cluster`.
    pub fn new(cluster: ClusterId, map: Arc<RegionMap>, network: &SemanticNetwork) -> Self {
        let nodes = map.members(cluster).len();
        let cfg = network.config();
        Region {
            cluster,
            map,
            markers: MarkerState::new(nodes, cfg.complex_markers, cfg.binary_markers),
            scratch: StatusRow::new(nodes),
        }
    }

    /// Resets the region's marker state in place, keeping allocations,
    /// so a pooled region serves its next query without reallocating.
    pub fn reset(&mut self) {
        self.markers.reset();
    }

    /// `true` if this region was built over exactly this `map` — the
    /// identity a pooled region is matched to its snapshot's set-up by.
    pub(crate) fn is_over(&self, map: &Arc<RegionMap>) -> bool {
        Arc::ptr_eq(&self.map, map)
    }

    /// The cluster this region belongs to.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// Member nodes, ascending.
    pub fn members(&self) -> &[NodeId] {
        self.map.members(self.cluster)
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// `true` for a region with no nodes.
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// Status words per marker row in this region.
    pub fn words(&self) -> usize {
        self.len().div_ceil(snap_kb::WORD_BITS)
    }

    fn local(&self, node: NodeId) -> NodeId {
        debug_assert_eq!(self.map.cluster_of(node), self.cluster);
        NodeId(self.map.local_of(node))
    }

    fn global(&self, local: NodeId) -> NodeId {
        self.members()[local.index()]
    }

    /// `true` if this region owns `node`.
    pub fn owns(&self, node: NodeId) -> bool {
        node.index() < self.map.local_of.len() && self.map.cluster_of(node) == self.cluster
    }

    /// Tests `marker` at a member node.
    pub fn test(&self, marker: Marker, node: NodeId) -> bool {
        self.markers.test(marker, self.local(node))
    }

    /// The complex-marker payload at a member node, if active.
    pub fn value(&self, marker: Marker, node: NodeId) -> Option<MarkerValue> {
        self.markers.value(marker, self.local(node))
    }

    /// The seeds of a `PROPAGATE` sourced at `marker`: every member node
    /// where it is active, ascending by global ID, with the value a
    /// propagation starting there begins with — the stored value for a
    /// complex marker (0.0 under a set bit with no payload), 0.0 for a
    /// binary one. The marker is resolved once for the whole set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn seeds(
        &self,
        marker: Marker,
    ) -> Result<impl Iterator<Item = (NodeId, f32)> + '_, CoreError> {
        let members = self.members();
        let rows = self.markers.rows(marker)?;
        Ok(rows.into_iter().flat_map(move |(row, payload)| {
            row.iter().map(move |local| {
                let i = local.index();
                (members[i], payload.get(i).map_or(0.0, |v| v.value))
            })
        }))
    }

    /// Resolves the `(source, target)` registers of an overlap group's
    /// `PROPAGATE`s in member order, touching neither. Every engine calls
    /// it before any member propagates, so a group's error is the same
    /// whatever the data and however the engine interleaves members.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for the first out-of-range register.
    pub(crate) fn check_group(
        &self,
        group: impl IntoIterator<Item = (Marker, Marker)>,
    ) -> Result<(), CoreError> {
        for (source, target) in group {
            self.markers.row(source)?;
            self.markers.row(target)?;
        }
        Ok(())
    }

    /// Member nodes where `marker` is active, ascending by global ID.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn active_nodes(&self, marker: Marker) -> Result<Vec<NodeId>, CoreError> {
        Ok(self.active_nodes_iter(marker)?.collect())
    }

    /// Iterator form of [`Region::active_nodes`]: report and collect
    /// paths that walk the set once borrow the status row directly
    /// instead of allocating a `Vec` per call. `PROPAGATE` sources, the
    /// relation and color collects and the marker maintenance
    /// instructions read a marker's active set here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn active_nodes_iter(
        &self,
        marker: Marker,
    ) -> Result<impl Iterator<Item = NodeId> + '_, CoreError> {
        let members = self.members();
        Ok(self
            .markers
            .active_nodes_iter(marker)?
            .map(move |l| members[l.index()]))
    }

    /// Number of active instances of `marker` in this region (none, for
    /// an out-of-range register).
    pub fn count(&self, marker: Marker) -> usize {
        self.markers.count(marker)
    }

    // ----- search phase -----

    /// `SEARCH-NODE` local part: activates `marker` at `node` if owned
    /// here. Returns `true` if this region performed the activation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn search_node(
        &mut self,
        node: NodeId,
        marker: Marker,
        value: f32,
    ) -> Result<bool, CoreError> {
        if !self.owns(node) {
            return Ok(false);
        }
        self.activate(marker, node, value, node)?;
        Ok(true)
    }

    /// `SEARCH-RELATION` local part: activates `marker` at member nodes
    /// with an outgoing link of type `relation`. Returns the number of
    /// activations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn search_relation(
        &mut self,
        network: &SemanticNetwork,
        relation: RelationType,
        marker: Marker,
        value: f32,
    ) -> Result<usize, CoreError> {
        let hits: Vec<NodeId> = self
            .members()
            .iter()
            .copied()
            .filter(|&n| network.links_by(n, relation).next().is_some())
            .collect();
        for &n in &hits {
            self.activate(marker, n, value, n)?;
        }
        Ok(hits.len())
    }

    /// `SEARCH-COLOR` local part: activates `marker` at member nodes of
    /// the given color. Returns the number of activations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn search_color(
        &mut self,
        network: &SemanticNetwork,
        color: Color,
        marker: Marker,
        value: f32,
    ) -> Result<usize, CoreError> {
        let hits: Vec<NodeId> = self
            .members()
            .iter()
            .copied()
            .filter(|&n| network.color(n).is_ok_and(|c| c == color))
            .collect();
        for &n in &hits {
            self.activate(marker, n, value, n)?;
        }
        Ok(hits.len())
    }

    fn activate(
        &mut self,
        marker: Marker,
        node: NodeId,
        value: f32,
        origin: NodeId,
    ) -> Result<(), CoreError> {
        let local = self.local(node);
        match marker.kind() {
            MarkerKind::Complex => {
                self.markers
                    .set_value(marker, local, MarkerValue { value, origin })?;
            }
            MarkerKind::Binary => {
                self.markers.set(marker, local)?;
            }
        }
        Ok(())
    }

    // ----- propagation -----

    /// Delivers a propagated marker instance at a member node,
    /// implementing the value-merge contract: first arrival activates;
    /// later arrivals only count if they improve a complex value by more
    /// than [`VALUE_EPSILON`] (smaller values win; ties broken toward
    /// the smaller origin ID).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn arrive(
        &mut self,
        marker: Marker,
        node: NodeId,
        value: f32,
        origin: NodeId,
    ) -> Result<Arrival, CoreError> {
        let local = self.local(node);
        // One resolution of the marker per arrival: register check, kind
        // and row look-ups happen here and nowhere below.
        let (row, payload) = self.markers.rows_mut(marker)?;
        let new = row.set(local);
        let Some(payload) = payload else {
            return Ok(if new { Arrival::New } else { Arrival::Ignored });
        };
        let (outcome, stored) = if new {
            (Arrival::New, MarkerValue { value, origin })
        } else {
            // A set bit with no payload behind it reads as 0.0 bound to
            // the node itself.
            let current = payload.get(local.index()).copied().unwrap_or(MarkerValue {
                value: 0.0,
                origin: node,
            });
            if !improves((current.value, current.origin), value, origin) {
                return Ok(Arrival::Ignored);
            }
            let value = value.min(current.value);
            (Arrival::Improved, MarkerValue { value, origin })
        };
        match payload.get_mut(local.index()) {
            Some(slot) => *slot = stored,
            // The marker's first payload: `set_value` allocates the row.
            None => self.markers.set_value(marker, local, stored)?,
        }
        Ok(outcome)
    }

    /// Bulk write-back for the bit-sliced serving kernel: stores the
    /// final folded `(value, origin)` payload of a complex `marker` at
    /// every listed member node. The sliced kernel runs the
    /// [`Region::arrive`] merge fold in its lane planes and absorbs
    /// only the fixed point here, so this is a plain bulk store —
    /// one register check and one row fetch for the whole run
    /// ([`MarkerState::merge_values`]).
    ///
    /// Kept for `benchmark/src/probe.rs:437-515` until ROADMAP item 9:
    /// every engine and the server deliver through [`Region::arrive`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register or a
    /// node outside the region — the same failures the per-arrival
    /// path reports.
    pub fn absorb_values(
        &mut self,
        marker: Marker,
        items: impl Iterator<Item = (NodeId, MarkerValue)>,
    ) -> Result<(), CoreError> {
        let Region {
            cluster,
            map,
            markers,
            ..
        } = self;
        let cluster = *cluster;
        markers.merge_values(
            marker,
            items.map(|(node, v)| {
                debug_assert_eq!(map.cluster_of(node), cluster);
                (NodeId(map.local_of(node)), v)
            }),
        )?;
        Ok(())
    }

    /// Bulk write-back of a binary `marker`'s reached set — the binary
    /// half of [`Region::absorb_values`]; arrivals on a binary marker
    /// carry no payload, so the fixed point is just the set of touched
    /// nodes.
    ///
    /// Kept for `benchmark/src/probe.rs:437-515` until ROADMAP item 9.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn absorb_bits(
        &mut self,
        marker: Marker,
        items: impl Iterator<Item = NodeId>,
    ) -> Result<(), CoreError> {
        let Region {
            cluster,
            map,
            markers,
            ..
        } = self;
        let cluster = *cluster;
        markers.merge_bits(
            marker,
            items.map(|node| {
                debug_assert_eq!(map.cluster_of(node), cluster);
                NodeId(map.local_of(node))
            }),
        )?;
        Ok(())
    }

    // ----- boolean phase (word-parallel) -----

    /// `AND-MARKER` / `OR-MARKER` local part. Returns
    /// `(words_touched, value_updates)` for the cost model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn bool_op(
        &mut self,
        and: bool,
        a: Marker,
        b: Marker,
        target: Marker,
        combine: CombineFunc,
    ) -> Result<(usize, usize), CoreError> {
        let Region {
            cluster,
            map,
            markers,
            scratch,
        } = self;
        // A source never touched reads as all clear.
        let words = match (markers.row(a)?, markers.row(b)?) {
            (Some(ra), Some(rb)) if and => scratch.assign_and(ra, rb),
            (Some(ra), Some(rb)) => scratch.assign_or(ra, rb),
            (Some(r), None) | (None, Some(r)) if !and => scratch.assign(r),
            _ => scratch.clear_all(),
        };
        // Values for complex targets: combine the source payloads where
        // both are present, else take the one that is.
        let mut value_updates = 0;
        if target.kind() == MarkerKind::Complex {
            let members = map.members(*cluster);
            for local in scratch.iter() {
                let va = markers.value(a, local).map(|v| v.value);
                let vb = markers.value(b, local).map(|v| v.value);
                let value = match (va, vb) {
                    (Some(x), Some(y)) => combine.apply(x, y),
                    (Some(x), None) => x,
                    (None, Some(y)) => y,
                    (None, None) => 0.0,
                };
                let origin = members[local.index()];
                markers.set_value(target, local, MarkerValue { value, origin })?;
                value_updates += 1;
            }
        }
        // The target row becomes the result exactly, which also clears
        // stale target bits outside it.
        markers.row_mut(target)?.assign(scratch);
        Ok((words * 3, value_updates))
    }

    /// `NOT-MARKER` local part: `target` set exactly where `source` is
    /// clear. Returns words touched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn not_op(&mut self, source: Marker, target: Marker) -> Result<usize, CoreError> {
        let Region {
            cluster,
            map,
            markers,
            scratch,
        } = self;
        let words = match markers.row(source)? {
            Some(src) => scratch.assign_not(src),
            None => scratch.set_all(),
        };
        if target.kind() == MarkerKind::Complex {
            let members = map.members(*cluster);
            for local in scratch.iter() {
                let origin = members[local.index()];
                markers.set_value(target, local, MarkerValue { value: 0.0, origin })?;
            }
        }
        markers.row_mut(target)?.assign(scratch);
        Ok(words * 2)
    }

    // ----- set/clear phase -----

    /// `SET-MARKER` local part: activate at every member node. Returns
    /// words touched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn set_marker(&mut self, marker: Marker, value: f32) -> Result<usize, CoreError> {
        let words = self.markers.row_mut(marker)?.set_all();
        if marker.kind() == MarkerKind::Complex {
            for &node in &self.members().to_vec() {
                self.activate(marker, node, value, node)?;
            }
        }
        Ok(words)
    }

    /// `CLEAR-MARKER` local part. Returns words touched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn clear_marker(&mut self, marker: Marker) -> Result<usize, CoreError> {
        Ok(self.markers.clear_marker(marker)?)
    }

    /// `FUNC-MARKER` local part: applies `func` to the marker value at
    /// every active member node. Returns `(active_nodes, cleared)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn func_marker(
        &mut self,
        marker: Marker,
        func: ValueFunc,
    ) -> Result<(usize, usize), CoreError> {
        let active = self.markers.active_nodes(marker)?;
        let mut cleared = 0;
        for local in &active {
            let current = self.markers.value(marker, *local).map_or(0.0, |v| v.value);
            match func {
                ValueFunc::Scale(k) => self.write_value(marker, *local, current * k)?,
                ValueFunc::Offset(k) => self.write_value(marker, *local, current + k)?,
                ValueFunc::Const(k) => self.write_value(marker, *local, k)?,
                ValueFunc::ClearIf(cmp, t) => {
                    if cmp.eval(current, t) {
                        self.markers.clear(marker, *local)?;
                        cleared += 1;
                    }
                }
                ValueFunc::KeepIf(cmp, t) => {
                    if !cmp.eval(current, t) {
                        self.markers.clear(marker, *local)?;
                        cleared += 1;
                    }
                }
            }
        }
        Ok((active.len(), cleared))
    }

    fn write_value(&mut self, marker: Marker, local: NodeId, value: f32) -> Result<(), CoreError> {
        if marker.kind() == MarkerKind::Complex {
            let origin = self
                .markers
                .value(marker, local)
                .map_or_else(|| self.global(local), |v| v.origin);
            self.markers
                .set_value(marker, local, MarkerValue { value, origin })?;
        }
        Ok(())
    }

    // ----- retrieval phase -----

    /// `COLLECT-MARKER` local part: appends `(global node, payload)`
    /// pairs, ascending by node ID, into a caller-owned buffer (the
    /// steady-state serving loop recycles it) and returns how many pairs
    /// this region contributed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn collect_marker(
        &self,
        marker: Marker,
        out: &mut Vec<(NodeId, Option<MarkerValue>)>,
    ) -> Result<usize, CoreError> {
        let before = out.len();
        if let Some((row, payload)) = self.markers.rows(marker)? {
            let members = self.members();
            out.extend(row.iter().map(|local| {
                let i = local.index();
                (members[i], payload.get(i).copied())
            }));
        }
        Ok(out.len() - before)
    }

    /// [`Region::collect_marker`] reading an out-of-range register as
    /// never touched.
    ///
    /// Kept for `benchmark/src/probe.rs:515` until ROADMAP item 1(a):
    /// every engine and the server collect through
    /// [`Region::collect_marker`].
    pub fn collect_marker_into(
        &self,
        marker: Marker,
        out: &mut Vec<(NodeId, Option<MarkerValue>)>,
    ) -> usize {
        self.collect_marker(marker, out).unwrap_or(0)
    }

    /// `COLLECT-RELATION` local part: appends the links of `relation`
    /// at marked member nodes into a caller-owned buffer, returning how
    /// many pairs this region contributed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn collect_relation(
        &self,
        network: &SemanticNetwork,
        marker: Marker,
        relation: RelationType,
        out: &mut Vec<(NodeId, snap_kb::Link)>,
    ) -> Result<usize, CoreError> {
        let before = out.len();
        for node in self.active_nodes_iter(marker)? {
            for link in network.links_by(node, relation) {
                out.push((node, *link));
            }
        }
        Ok(out.len() - before)
    }

    /// `COLLECT-COLOR` local part: appends the colors of marked member
    /// nodes into a caller-owned buffer, returning how many pairs this
    /// region contributed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an out-of-range marker register.
    pub fn collect_color(
        &self,
        network: &SemanticNetwork,
        marker: Marker,
        out: &mut Vec<(NodeId, Color)>,
    ) -> Result<usize, CoreError> {
        let before = out.len();
        out.extend(
            self.active_nodes_iter(marker)?
                .filter_map(|n| network.color(n).ok().map(|c| (n, c))),
        );
        Ok(out.len() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::Cmp;
    use snap_kb::NetworkConfig;

    fn setup(clusters: usize) -> (SemanticNetwork, Arc<RegionMap>, Vec<Region>) {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for i in 0..8 {
            net.add_named_node(format!("node{i}"), Color((i % 3) as u8))
                .unwrap();
        }
        let r = RelationType(1);
        net.add_link(NodeId(0), r, 1.0, NodeId(1)).unwrap();
        net.add_link(NodeId(1), r, 1.0, NodeId(4)).unwrap();
        net.add_link(NodeId(4), r, 1.0, NodeId(7)).unwrap();
        let map = RegionMap::build(&net, clusters, PartitionScheme::RoundRobin);
        let regions = (0..clusters)
            .map(|c| Region::new(ClusterId(c as u8), Arc::clone(&map), &net))
            .collect();
        (net, map, regions)
    }

    #[test]
    fn ownership_and_mapping() {
        let (_, map, regions) = setup(2);
        // Round-robin: even nodes to cluster 0, odd to cluster 1.
        assert!(regions[0].owns(NodeId(0)));
        assert!(regions[0].owns(NodeId(6)));
        assert!(!regions[0].owns(NodeId(1)));
        assert_eq!(map.cluster_of(NodeId(5)), ClusterId(1));
        assert_eq!(map.local_of(NodeId(6)), 3);
        assert_eq!(regions[0].len(), 4);
    }

    #[test]
    fn search_color_marks_only_local_matches() {
        let (net, _, mut regions) = setup(2);
        let m = Marker::binary(0);
        // Color 0 nodes: 0, 3, 6 — cluster 0 owns 0 and 6.
        let hits = regions[0].search_color(&net, Color(0), m, 0.0).unwrap();
        assert_eq!(hits, 2);
        assert_eq!(
            regions[0].active_nodes(m).unwrap(),
            vec![NodeId(0), NodeId(6)]
        );
    }

    #[test]
    fn search_relation_finds_link_sources() {
        let (net, _, mut regions) = setup(1);
        let m = Marker::binary(1);
        let hits = regions[0]
            .search_relation(&net, RelationType(1), m, 0.0)
            .unwrap();
        assert_eq!(hits, 3); // nodes 0, 1, 4 have r1 links
        assert_eq!(
            regions[0].active_nodes(m).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(4)]
        );
    }

    #[test]
    fn arrival_merge_prefers_smaller_values() {
        let (_, _, mut regions) = setup(1);
        let m = Marker::complex(0);
        let r = &mut regions[0];
        assert_eq!(
            r.arrive(m, NodeId(2), 5.0, NodeId(0)).unwrap(),
            Arrival::New
        );
        assert_eq!(
            r.arrive(m, NodeId(2), 6.0, NodeId(1)).unwrap(),
            Arrival::Ignored
        );
        assert_eq!(
            r.arrive(m, NodeId(2), 3.0, NodeId(1)).unwrap(),
            Arrival::Improved
        );
        let v = r.value(m, NodeId(2)).unwrap();
        assert_eq!(v.value, 3.0);
        assert_eq!(v.origin, NodeId(1));
        // Equal value, smaller origin wins the binding.
        assert_eq!(
            r.arrive(m, NodeId(2), 3.0, NodeId(0)).unwrap(),
            Arrival::Improved
        );
        assert_eq!(r.value(m, NodeId(2)).unwrap().origin, NodeId(0));
    }

    #[test]
    fn binary_arrivals_do_not_reactivate() {
        let (_, _, mut regions) = setup(1);
        let b = Marker::binary(2);
        let r = &mut regions[0];
        assert_eq!(
            r.arrive(b, NodeId(3), 0.0, NodeId(0)).unwrap(),
            Arrival::New
        );
        assert_eq!(
            r.arrive(b, NodeId(3), 0.0, NodeId(1)).unwrap(),
            Arrival::Ignored
        );
    }

    #[test]
    fn and_or_not_semantics() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let (a, b, t) = (Marker::binary(0), Marker::binary(1), Marker::binary(2));
        for n in [0u32, 1, 2] {
            r.arrive(a, NodeId(n), 0.0, NodeId(n)).unwrap();
        }
        for n in [1u32, 2, 3] {
            r.arrive(b, NodeId(n), 0.0, NodeId(n)).unwrap();
        }
        r.bool_op(true, a, b, t, CombineFunc::Add).unwrap();
        assert_eq!(r.active_nodes(t).unwrap(), vec![NodeId(1), NodeId(2)]);
        r.bool_op(false, a, b, t, CombineFunc::Add).unwrap();
        assert_eq!(
            r.active_nodes(t).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        r.not_op(a, t).unwrap();
        assert_eq!(
            r.active_nodes(t).unwrap(),
            vec![NodeId(3), NodeId(4), NodeId(5), NodeId(6), NodeId(7)]
        );
    }

    #[test]
    fn and_combines_complex_values() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let (a, b, t) = (Marker::complex(0), Marker::complex(1), Marker::complex(2));
        r.arrive(a, NodeId(1), 2.0, NodeId(0)).unwrap();
        r.arrive(b, NodeId(1), 3.0, NodeId(0)).unwrap();
        r.bool_op(true, a, b, t, CombineFunc::Add).unwrap();
        assert_eq!(r.value(t, NodeId(1)).unwrap().value, 5.0);
        r.bool_op(true, a, b, t, CombineFunc::Min).unwrap();
        assert_eq!(r.value(t, NodeId(1)).unwrap().value, 2.0);
    }

    #[test]
    fn bool_op_clears_stale_target_bits() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let (a, b, t) = (Marker::complex(0), Marker::complex(1), Marker::complex(2));
        r.arrive(t, NodeId(5), 9.0, NodeId(5)).unwrap();
        r.arrive(a, NodeId(1), 1.0, NodeId(1)).unwrap();
        r.arrive(b, NodeId(1), 1.0, NodeId(1)).unwrap();
        r.bool_op(true, a, b, t, CombineFunc::Add).unwrap();
        assert_eq!(
            r.active_nodes(t).unwrap(),
            vec![NodeId(1)],
            "stale bit at n5 cleared"
        );
    }

    #[test]
    fn set_clear_and_func_marker() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let m = Marker::complex(3);
        r.set_marker(m, 2.0).unwrap();
        assert_eq!(r.count(m), 8);
        assert_eq!(r.value(m, NodeId(4)).unwrap().value, 2.0);
        let (active, cleared) = r.func_marker(m, ValueFunc::Scale(3.0)).unwrap();
        assert_eq!((active, cleared), (8, 0));
        assert_eq!(r.value(m, NodeId(4)).unwrap().value, 6.0);
        // Threshold away everything above 5.0 — all of them.
        let (_, cleared) = r.func_marker(m, ValueFunc::ClearIf(Cmp::Gt, 5.0)).unwrap();
        assert_eq!(cleared, 8);
        assert_eq!(r.count(m), 0);
        r.set_marker(m, 1.0).unwrap();
        r.clear_marker(m).unwrap();
        assert_eq!(r.count(m), 0);
    }

    #[test]
    fn keep_if_retains_matching_values() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let m = Marker::complex(0);
        r.arrive(m, NodeId(0), 1.0, NodeId(0)).unwrap();
        r.arrive(m, NodeId(1), 9.0, NodeId(1)).unwrap();
        let (_, cleared) = r.func_marker(m, ValueFunc::KeepIf(Cmp::Lt, 5.0)).unwrap();
        assert_eq!(cleared, 1);
        assert_eq!(r.active_nodes(m).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn collects_report_global_ids_sorted() {
        let (net, _, mut regions) = setup(2);
        let m = Marker::complex(0);
        regions[0].arrive(m, NodeId(6), 1.5, NodeId(0)).unwrap();
        regions[0].arrive(m, NodeId(0), 0.5, NodeId(0)).unwrap();
        let mut collected = Vec::new();
        assert_eq!(regions[0].collect_marker(m, &mut collected), Ok(2));
        assert_eq!(collected[0].0, NodeId(0));
        assert_eq!(collected[0].1.unwrap().value, 0.5);
        assert_eq!(collected[1].0, NodeId(6));
        let mut colors = Vec::new();
        assert_eq!(regions[0].collect_color(&net, m, &mut colors), Ok(2));
        assert_eq!(colors, vec![(NodeId(0), Color(0)), (NodeId(6), Color(0))]);
        let b = Marker::binary(0);
        regions[0].arrive(b, NodeId(0), 0.0, NodeId(0)).unwrap();
        let mut links = Vec::new();
        let n = regions[0].collect_relation(&net, b, RelationType(1), &mut links);
        assert_eq!((n, links.len()), (Ok(1), 1));
        assert_eq!(links[0].1.destination, NodeId(1));
        // The collects append: a second region's share lands behind the
        // first's, and a binary marker carries no payload.
        regions[1].arrive(b, NodeId(3), 0.0, NodeId(3)).unwrap();
        let mut both = Vec::new();
        assert_eq!(regions[0].collect_marker(b, &mut both), Ok(1));
        assert_eq!(regions[1].collect_marker_into(b, &mut both), 1);
        assert_eq!(both, vec![(NodeId(0), None), (NodeId(3), None)]);
        // A marker never touched contributes nothing.
        assert_eq!(
            regions[0].collect_marker(Marker::complex(9), &mut both),
            Ok(0)
        );
    }

    #[test]
    fn reads_of_an_out_of_range_register_are_typed_errors() {
        let (net, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let (bad, ok) = (Marker::binary(70), Marker::binary(1));
        let want = CoreError::Kb(snap_kb::KbError::MarkerOutOfRange {
            index: 70,
            capacity: 64,
        });
        r.arrive(ok, NodeId(1), 0.0, NodeId(1)).unwrap();
        assert_eq!(r.active_nodes(bad).err(), Some(want.clone()));
        assert_eq!(r.collect_marker(bad, &mut Vec::new()), Err(want.clone()));
        assert_eq!(
            r.collect_relation(&net, bad, RelationType(1), &mut Vec::new()),
            Err(want.clone())
        );
        assert_eq!(
            r.collect_color(&net, bad, &mut Vec::new()),
            Err(want.clone())
        );
        assert_eq!(
            r.bool_op(true, ok, bad, ok, CombineFunc::Add),
            Err(want.clone())
        );
        assert_eq!(
            r.bool_op(false, bad, ok, ok, CombineFunc::Add),
            Err(want.clone())
        );
        assert_eq!(r.not_op(bad, ok), Err(want.clone()));
        assert_eq!(r.func_marker(bad, ValueFunc::Scale(2.0)), Err(want));
        // None of the failed reads wrote anything.
        assert_eq!(r.active_nodes(ok).unwrap(), vec![NodeId(1)]);
        // The probe's collect reads the register as never touched.
        assert_eq!(r.collect_marker_into(bad, &mut Vec::new()), 0);
    }

    #[test]
    fn arrive_on_an_out_of_range_register_is_a_typed_error() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        // The register files hold 64 markers of each kind; the error is
        // the one `search_node` and `set_marker` report for the register.
        for marker in [Marker::complex(70), Marker::binary(70)] {
            let want = r.search_node(NodeId(1), marker, 0.0).unwrap_err();
            assert_eq!(
                want,
                CoreError::Kb(snap_kb::KbError::MarkerOutOfRange {
                    index: 70,
                    capacity: 64
                })
            );
            assert_eq!(r.arrive(marker, NodeId(1), 1.0, NodeId(0)), Err(want));
        }
    }

    #[test]
    fn a_set_bit_with_no_payload_row_reads_as_zero_bound_to_the_node() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let m = Marker::complex(4);
        // Only `MarkerState::set` can leave a complex bit without a
        // payload row; the region never does.
        for n in [2u32, 3, 5] {
            r.markers.set(m, NodeId(n)).unwrap();
            assert_eq!(r.value(m, NodeId(n)), None);
        }
        // A worse value is ignored and leaves the payload unwritten.
        assert_eq!(
            r.arrive(m, NodeId(2), 3.0, NodeId(1)).unwrap(),
            Arrival::Ignored
        );
        assert_eq!(r.value(m, NodeId(2)), None);
        // 0.0 from an origin below the node wins the tie against the
        // node itself; from an origin above it does not.
        assert_eq!(
            r.arrive(m, NodeId(5), 0.0, NodeId(7)).unwrap(),
            Arrival::Ignored
        );
        assert_eq!(
            r.arrive(m, NodeId(5), 0.0, NodeId(1)).unwrap(),
            Arrival::Improved
        );
        let origin = NodeId(1);
        assert_eq!(
            r.value(m, NodeId(5)),
            Some(MarkerValue { value: 0.0, origin })
        );
        // A smaller value improves and is stored.
        assert_eq!(
            r.arrive(m, NodeId(3), -1.0, NodeId(6)).unwrap(),
            Arrival::Improved
        );
        let origin = NodeId(6);
        assert_eq!(
            r.value(m, NodeId(3)),
            Some(MarkerValue {
                value: -1.0,
                origin
            })
        );
    }

    #[test]
    fn bool_ops_write_a_target_that_is_also_a_source() {
        let (_, _, mut regions) = setup(1);
        let r = &mut regions[0];
        let (a, b) = (Marker::complex(0), Marker::complex(1));
        for n in [1u32, 2, 3] {
            r.arrive(a, NodeId(n), n as f32, NodeId(n)).unwrap();
        }
        for n in [2u32, 3, 4] {
            r.arrive(b, NodeId(n), 10.0, NodeId(n)).unwrap();
        }
        // a := a AND b — the result is computed before `a` is rewritten.
        let (words, updates) = r.bool_op(true, a, b, a, CombineFunc::Add).unwrap();
        assert_eq!((words, updates), (r.words() * 3, 2));
        assert_eq!(r.active_nodes(a).unwrap(), vec![NodeId(2), NodeId(3)]);
        assert_eq!(r.value(a, NodeId(3)).unwrap().value, 13.0);
        // b := NOT b, then an untouched source reads as all clear.
        assert_eq!(r.not_op(b, b).unwrap(), r.words() * 2);
        assert_eq!(r.count(b), 5);
        let t = Marker::binary(9);
        r.bool_op(false, a, Marker::binary(8), t, CombineFunc::Add)
            .unwrap();
        assert_eq!(r.active_nodes(t).unwrap(), vec![NodeId(2), NodeId(3)]);
        r.bool_op(true, a, Marker::binary(8), t, CombineFunc::Add)
            .unwrap();
        assert_eq!(r.count(t), 0);
        assert_eq!(r.not_op(Marker::binary(8), t).unwrap(), r.words() * 2);
        assert_eq!(r.count(t), 8);
    }
}
