//! Typed identifiers for the SNAP-1 knowledge base.
//!
//! The paper's hardware tables use binary-encoded fields: a 15-bit node
//! address, 8-bit colors (256 node types), and 16-bit relation types
//! (64K distinct link types). Newtypes keep those namespaces statically
//! distinct ([C-NEWTYPE]).

use core::fmt;

/// Identifier of a semantic-network node.
///
/// Nodes represent concepts; a `NodeId` indexes the node, relation, and
/// marker-status tables. The SNAP-1 design point is `N = 32K` nodes.
///
/// # Examples
///
/// ```
/// use snap_kb::NodeId;
/// let n = NodeId(7);
/// assert_eq!(n.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node's table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of a processing cluster (0..32 in the full prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u8);

impl ClusterId {
    /// Returns the cluster's array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A node color: the concept type or class a node belongs to.
///
/// SNAP-1 provides 256 colors; the node table stores one per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Color(pub u8);

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "color{}", self.0)
    }
}

/// A relation (link) type, e.g. `is-a`, `agent`, `first`, `last`.
///
/// SNAP-1 supports `R = 64K` distinct relation types, so this is a 16-bit
/// value. The topmost type is reserved for internal subnode chaining (see
/// [`RelationType::SUBNODE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationType(pub u16);

impl RelationType {
    /// Reserved relation used by the fanout preprocessor to chain a node to
    /// its overflow subnodes. Never visible to propagation rules.
    pub const SUBNODE: RelationType = RelationType(u16::MAX);

    /// Returns `true` if this is the reserved internal subnode relation.
    #[inline]
    pub(crate) fn is_subnode(self) -> bool {
        self == Self::SUBNODE
    }
}

impl fmt::Display for RelationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_subnode() {
            write!(f, "<subnode>")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

impl From<u16> for RelationType {
    fn from(v: u16) -> Self {
        RelationType(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(42).to_string(), "n42");
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn subnode_relation_is_reserved() {
        assert!(RelationType::SUBNODE.is_subnode());
        assert!(!RelationType(0).is_subnode());
        assert_eq!(RelationType::SUBNODE.to_string(), "<subnode>");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(ClusterId(0) < ClusterId(31));
        assert!(RelationType(5) < RelationType::SUBNODE);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ClusterId(7).to_string(), "c7");
        assert_eq!(Color(9).to_string(), "color9");
        assert_eq!(RelationType(11).to_string(), "r11");
    }
}
