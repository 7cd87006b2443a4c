//! The semantic network: nodes, colors, names, and the relation table.
//!
//! A semantic network is the static infrastructure of a SNAP knowledge
//! base: nodes represent concepts, links show relationships, and every
//! node carries a *color* naming the type of concept it belongs to.
//! Dynamic state (markers) lives in [`crate::MarkerState`], owned by the
//! execution engines, so that one network can be loaded into several
//! machines.

use crate::error::KbError;
use crate::ids::{Color, NodeId, RelationType};
use crate::links::{Link, RelationTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The source of every network's revisions: one process-wide counter, so
/// no two networks, and no two states of one network, draw the same value.
static REVISIONS: AtomicU64 = AtomicU64::new(0);

fn next_revision() -> u64 {
    REVISIONS.fetch_add(1, Ordering::Relaxed)
}

/// Sizing parameters of a knowledge base, defaulting to the SNAP-1
/// prototype design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Maximum number of semantic-network nodes (`N`, 32K in SNAP-1).
    pub node_capacity: usize,
    /// Complex markers per node (`M_C`, 64 in SNAP-1).
    pub complex_markers: usize,
    /// Binary markers per node (`M_B`, 64 in SNAP-1).
    pub binary_markers: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            node_capacity: 32 * 1024,
            complex_markers: 64,
            binary_markers: 64,
        }
    }
}

/// A mutable semantic network.
///
/// Nodes are created with [`SemanticNetwork::add_node`] (optionally named)
/// and connected with [`SemanticNetwork::add_link`]. The network supports
/// the runtime node-maintenance instructions (`CREATE`, `DELETE`,
/// `SET-COLOR`), so it stays mutable after initial construction.
///
/// # Examples
///
/// ```
/// use snap_kb::{Color, NetworkConfig, RelationType, SemanticNetwork};
///
/// let mut net = SemanticNetwork::new(NetworkConfig::default());
/// let isa = RelationType(0);
/// let we = net.add_named_node("we", Color(1))?;
/// let animate = net.add_named_node("animate", Color(2))?;
/// net.add_link(we, isa, 0.0, animate)?;
/// assert_eq!(net.node_count(), 2);
/// assert_eq!(net.lookup("animate"), Some(animate));
/// # Ok::<(), snap_kb::KbError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SemanticNetwork {
    config: NetworkConfig,
    colors: Vec<Color>,
    /// Node names share one allocation with the `name_index` keys.
    names: Vec<Option<Arc<str>>>,
    name_index: HashMap<Arc<str>, NodeId>,
    relations: RelationTable,
    /// See [`SemanticNetwork::revision`].
    revision: u64,
}

impl SemanticNetwork {
    /// Creates an empty network with the given configuration.
    pub fn new(config: NetworkConfig) -> Self {
        SemanticNetwork {
            config,
            colors: Vec::new(),
            names: Vec::new(),
            name_index: HashMap::new(),
            relations: RelationTable::new(),
            revision: next_revision(),
        }
    }

    /// The sizing configuration this network was created with.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The content revision: a value drawn from one process-wide counter
    /// by [`SemanticNetwork::new`] and by every call that changes what
    /// the network holds — [`add_node`](SemanticNetwork::add_node) (so
    /// [`add_named_node`](SemanticNetwork::add_named_node)),
    /// [`set_color`](SemanticNetwork::set_color),
    /// [`add_link`](SemanticNetwork::add_link) and
    /// [`remove_link`](SemanticNetwork::remove_link) when they succeed.
    /// [`flush_links`](SemanticNetwork::flush_links) changes the layout,
    /// not the contents, and keeps it; `clone` copies it.
    ///
    /// Two networks with one revision therefore hold the same contents,
    /// so whatever was derived from one (a partition, a region map) is
    /// valid for the other: a machine keys its per-network set-up on it.
    ///
    /// # Examples
    ///
    /// ```
    /// use snap_kb::{Color, NetworkConfig, SemanticNetwork};
    ///
    /// let mut net = SemanticNetwork::new(NetworkConfig::default());
    /// let before = net.revision();
    /// net.add_node(Color(1))?;
    /// assert_ne!(net.revision(), before);
    /// assert_eq!(net.clone().revision(), net.revision());
    /// # Ok::<(), snap_kb::KbError>(())
    /// ```
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of nodes currently defined.
    pub fn node_count(&self) -> usize {
        self.colors.len()
    }

    /// Total number of links currently defined.
    pub fn link_count(&self) -> usize {
        self.relations.link_count()
    }

    /// Adds an anonymous node with the given color.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::NodeCapacityExceeded`] if the configured node
    /// capacity is full.
    pub fn add_node(&mut self, color: Color) -> Result<NodeId, KbError> {
        if self.colors.len() >= self.config.node_capacity {
            return Err(KbError::NodeCapacityExceeded {
                capacity: self.config.node_capacity,
            });
        }
        let id = NodeId(self.colors.len() as u32);
        self.colors.push(color);
        self.names.push(None);
        self.relations.ensure_node(id);
        self.revision = next_revision();
        Ok(id)
    }

    /// Adds a named node; names must be unique within the network.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::DuplicateName`] for a reused name and
    /// [`KbError::NodeCapacityExceeded`] when full.
    pub fn add_named_node(
        &mut self,
        name: impl Into<String>,
        color: Color,
    ) -> Result<NodeId, KbError> {
        let name = name.into();
        if self.name_index.contains_key(name.as_str()) {
            return Err(KbError::DuplicateName(name));
        }
        let id = self.add_node(color)?;
        let name: Arc<str> = name.into();
        self.names[id.index()] = Some(Arc::clone(&name));
        self.name_index.insert(name, id);
        Ok(id)
    }

    /// Looks up a node by name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// The name of `node`, if it has one.
    pub fn name(&self, node: NodeId) -> Option<&str> {
        self.names.get(node.index()).and_then(|n| n.as_deref())
    }

    /// The color of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`KbError::UnknownNode`] if the node does not exist.
    pub fn color(&self, node: NodeId) -> Result<Color, KbError> {
        self.colors
            .get(node.index())
            .copied()
            .ok_or(KbError::UnknownNode(node))
    }

    /// Re-colors `node` (the `SET-COLOR` node-maintenance instruction).
    ///
    /// # Errors
    ///
    /// Returns [`KbError::UnknownNode`] if the node does not exist.
    pub fn set_color(&mut self, node: NodeId, color: Color) -> Result<(), KbError> {
        let slot = self
            .colors
            .get_mut(node.index())
            .ok_or(KbError::UnknownNode(node))?;
        *slot = color;
        self.revision = next_revision();
        Ok(())
    }

    /// Returns `true` if `node` exists.
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.colors.len()
    }

    /// Adds a weighted, typed link (the `CREATE` instruction body).
    ///
    /// # Errors
    ///
    /// Returns [`KbError::UnknownNode`] for missing endpoints and
    /// [`KbError::ReservedRelation`] for the internal subnode relation.
    pub fn add_link(
        &mut self,
        source: NodeId,
        relation: RelationType,
        weight: f32,
        destination: NodeId,
    ) -> Result<(), KbError> {
        if !self.contains(source) {
            return Err(KbError::UnknownNode(source));
        }
        if !self.contains(destination) {
            return Err(KbError::UnknownNode(destination));
        }
        self.relations
            .add_link(source, relation, weight, destination)?;
        self.revision = next_revision();
        Ok(())
    }

    /// Removes a link (the `DELETE` instruction body).
    ///
    /// # Errors
    ///
    /// Returns [`KbError::LinkNotFound`] if no matching link exists.
    pub fn remove_link(
        &mut self,
        source: NodeId,
        relation: RelationType,
        destination: NodeId,
    ) -> Result<(), KbError> {
        self.relations.remove_link(source, relation, destination)?;
        self.revision = next_revision();
        Ok(())
    }

    /// All outgoing links of `node`.
    pub fn links(&self, node: NodeId) -> impl Iterator<Item = &Link> {
        self.relations.links(node)
    }

    /// Outgoing links of `node` with relation type `relation`.
    pub fn links_by(&self, node: NodeId, relation: RelationType) -> impl Iterator<Item = &Link> {
        self.relations.links_by(node, relation)
    }

    /// The contiguous relation-table run of `node`'s links with relation
    /// type `relation`, with the parallel insertion-rank slice — the
    /// propagation hot-path lookup. Excludes staged links; call
    /// [`SemanticNetwork::flush_links`] first.
    pub fn ranked_links_by(&self, node: NodeId, relation: RelationType) -> (&[Link], &[u32]) {
        self.relations.ranked_run(node, relation)
    }

    /// Fused form of [`SemanticNetwork::segments`],
    /// [`SemanticNetwork::fanout`], and
    /// [`SemanticNetwork::ranked_links_by`]: one row lookup yields the
    /// propagation cost units and the ranked relation run. The wave
    /// kernel's per-task hot path.
    pub fn ranked_links_with_cost(
        &self,
        node: NodeId,
        relation: RelationType,
    ) -> (usize, usize, &[Link], &[u32]) {
        self.relations.ranked_run_with_cost(node, relation)
    }

    /// Merges staged link additions into the contiguous relation table so
    /// the hot-path slice lookups see every link. Engines call this once
    /// before propagation and after each maintenance instruction. The
    /// contents stay what they were, and so does the
    /// [revision](SemanticNetwork::revision).
    pub fn flush_links(&mut self) {
        self.relations.flush();
    }

    /// Number of link additions still staged (invisible to the hot-path
    /// slice lookups until flushed).
    pub fn staged_link_count(&self) -> usize {
        self.relations.staged_links()
    }

    /// Relation-table segments backing `node` (1 + overflow subnodes);
    /// used by cost models.
    pub fn segments(&self, node: NodeId) -> usize {
        self.relations.segments(node)
    }

    /// Outgoing fanout of `node`.
    pub fn fanout(&self, node: NodeId) -> usize {
        self.relations.fanout(node)
    }

    /// Iterates all node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.colors.len() as u32).map(NodeId)
    }

    /// Nodes with the given color (a distributed search in hardware).
    pub fn nodes_with_color(&self, color: Color) -> impl Iterator<Item = NodeId> + '_ {
        self.colors
            .iter()
            .enumerate()
            .filter(move |(_, &c)| c == color)
            .map(|(i, _)| NodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SemanticNetwork {
        SemanticNetwork::new(NetworkConfig {
            node_capacity: 8,
            complex_markers: 4,
            binary_markers: 4,
        })
    }

    #[test]
    fn add_nodes_until_capacity() {
        let mut net = small();
        for _ in 0..8 {
            net.add_node(Color(0)).unwrap();
        }
        let err = net.add_node(Color(0)).unwrap_err();
        assert_eq!(err, KbError::NodeCapacityExceeded { capacity: 8 });
    }

    #[test]
    fn named_nodes_resolve_and_reject_duplicates() {
        let mut net = small();
        let a = net.add_named_node("seeing-event", Color(3)).unwrap();
        assert_eq!(net.lookup("seeing-event"), Some(a));
        assert_eq!(net.name(a), Some("seeing-event"));
        let err = net.add_named_node("seeing-event", Color(3)).unwrap_err();
        assert_eq!(err, KbError::DuplicateName("seeing-event".into()));
    }

    #[test]
    fn link_endpoints_validated() {
        let mut net = small();
        let a = net.add_node(Color(0)).unwrap();
        let err = net
            .add_link(a, RelationType(1), 0.0, NodeId(99))
            .unwrap_err();
        assert_eq!(err, KbError::UnknownNode(NodeId(99)));
        let err = net
            .add_link(NodeId(99), RelationType(1), 0.0, a)
            .unwrap_err();
        assert_eq!(err, KbError::UnknownNode(NodeId(99)));
    }

    #[test]
    fn set_color_and_color_search() {
        let mut net = small();
        let a = net.add_node(Color(1)).unwrap();
        let b = net.add_node(Color(2)).unwrap();
        let c = net.add_node(Color(1)).unwrap();
        assert_eq!(
            net.nodes_with_color(Color(1)).collect::<Vec<_>>(),
            vec![a, c]
        );
        net.set_color(b, Color(1)).unwrap();
        assert_eq!(net.nodes_with_color(Color(1)).count(), 3);
        assert_eq!(net.color(b).unwrap(), Color(1));
    }

    #[test]
    fn link_lifecycle() {
        let mut net = small();
        let a = net.add_node(Color(0)).unwrap();
        let b = net.add_node(Color(0)).unwrap();
        net.add_link(a, RelationType(5), 1.5, b).unwrap();
        assert_eq!(net.link_count(), 1);
        assert_eq!(net.links_by(a, RelationType(5)).count(), 1);
        net.remove_link(a, RelationType(5), b).unwrap();
        assert_eq!(net.link_count(), 0);
    }

    #[test]
    fn each_mutator_moves_the_revision_to_a_value_never_seen() {
        let mut net = small();
        let mut seen = vec![net.revision()];
        let mut moved = |net: &SemanticNetwork, what: &str| {
            assert!(
                !seen.contains(&net.revision()),
                "{what} kept or reused a revision"
            );
            seen.push(net.revision());
        };
        let a = net.add_node(Color(0)).unwrap();
        moved(&net, "add_node");
        let b = net.add_named_node("b", Color(1)).unwrap();
        moved(&net, "add_named_node");
        net.set_color(a, Color(2)).unwrap();
        moved(&net, "set_color");
        net.add_link(a, RelationType(1), 0.5, b).unwrap();
        moved(&net, "add_link");
        net.remove_link(a, RelationType(1), b).unwrap();
        moved(&net, "remove_link");
    }

    #[test]
    fn flush_reads_and_failed_mutators_keep_the_revision() {
        let mut net = small();
        let a = net.add_named_node("a", Color(1)).unwrap();
        let b = net.add_node(Color(2)).unwrap();
        net.add_link(a, RelationType(1), 0.5, b).unwrap();
        let revision = net.revision();
        assert_eq!(net.staged_link_count(), 1);
        net.flush_links();
        assert_eq!(net.staged_link_count(), 0);
        assert_eq!(net.revision(), revision, "flush_links");
        // Every `&self` method.
        let _ = (net.config(), net.node_count(), net.link_count());
        let _ = (net.lookup("a"), net.name(a), net.color(a), net.contains(b));
        let _ = (
            net.links(a).count(),
            net.links_by(a, RelationType(1)).count(),
        );
        let _ = net.ranked_links_by(a, RelationType(1));
        let _ = net.ranked_links_with_cost(a, RelationType(1));
        let _ = (net.segments(a), net.fanout(a), net.staged_link_count());
        let _ = (net.nodes().count(), net.nodes_with_color(Color(1)).count());
        assert_eq!(net.revision(), revision, "reads");
        // A mutator that fails leaves the contents, and the revision, alone.
        assert!(net.add_named_node("a", Color(3)).is_err());
        assert!(net.set_color(NodeId(99), Color(3)).is_err());
        assert!(net.add_link(a, RelationType(1), 0.5, NodeId(99)).is_err());
        assert!(net.remove_link(b, RelationType(1), a).is_err());
        for _ in 0..6 {
            net.add_node(Color(0)).unwrap();
        }
        let full = net.revision();
        assert!(net.add_node(Color(0)).is_err());
        assert_eq!(net.revision(), full, "failed mutators");
    }

    #[test]
    fn clones_share_a_revision_until_one_is_edited() {
        let mut net = small();
        let a = net.add_node(Color(1)).unwrap();
        let mut copy = net.clone();
        assert_eq!(copy.revision(), net.revision());
        copy.set_color(a, Color(2)).unwrap();
        assert_ne!(copy.revision(), net.revision());
        net.set_color(a, Color(2)).unwrap();
        // Equal contents reached by two edits are two revisions.
        assert_ne!(copy.revision(), net.revision());
    }

    #[test]
    fn two_new_networks_never_share_a_revision() {
        let nets: Vec<SemanticNetwork> = (0..64).map(|_| small()).collect();
        let mut revisions: Vec<u64> = nets.iter().map(SemanticNetwork::revision).collect();
        revisions.sort_unstable();
        revisions.dedup();
        assert_eq!(revisions.len(), nets.len());
    }
}
