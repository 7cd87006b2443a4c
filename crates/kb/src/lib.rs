//! # snap-kb — semantic-network knowledge base for the SNAP-1 reproduction
//!
//! This crate provides the storage substrate of the Semantic Network Array
//! Processor (SNAP-1): the semantic network itself (nodes, colors, typed
//! weighted links), the bit-packed marker status tables that make global
//! boolean marker operations word-parallel, the per-node marker register
//! files (64 complex + 64 binary markers), and the partitioning functions
//! that distribute the network across processing clusters.
//!
//! The data layout follows Fig. 4 of the paper:
//!
//! * **node table** — color and per-node function for each of up to 32K
//!   nodes ([`SemanticNetwork`]);
//! * **marker status table** — one bit per (marker, node), packed into
//!   32-bit status words ([`StatusRow`], [`MarkerState`]);
//! * **relation table** — up to 16 outgoing typed links per node, with
//!   higher fanout split into subnode segments ([`RelationTable`]).
//!
//! # Examples
//!
//! Build the miniature knowledge base of the paper's Fig. 1 and mark a
//! node:
//!
//! ```
//! use snap_kb::{Color, Marker, MarkerState, NetworkConfig, RelationType, SemanticNetwork};
//!
//! let mut net = SemanticNetwork::new(NetworkConfig::default());
//! let is_a = RelationType(0);
//! let we = net.add_named_node("we", Color(1))?;
//! let animate = net.add_named_node("animate", Color(2))?;
//! net.add_link(we, is_a, 0.0, animate)?;
//!
//! let mut markers = MarkerState::new(net.node_count(), 64, 64);
//! markers.set(Marker::binary(0), we)?;
//! assert!(markers.test(Marker::binary(0), we));
//! # Ok::<(), snap_kb::KbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod error;
mod ids;
mod links;
mod marker;
mod network;
mod partition;
#[cfg(test)]
mod reference;
mod status;
pub mod synth;

pub use bitmap::{Bitmap, BitmapBits, LanePlane, BITMAP_WORD_BITS};
pub use error::KbError;
pub use ids::{ClusterId, Color, NodeId, RelationType};
pub use links::{Link, RelationTable, SLOTS_PER_NODE};
pub use marker::{Marker, MarkerKind, MarkerState, MarkerValue};
pub use network::{NetworkConfig, SemanticNetwork};
pub use partition::{
    ClusterLinks, Partition, PartitionScheme, PartitionStats, MAX_CLUSTERS, MAX_NODES_PER_CLUSTER,
};
pub use status::{SetBits, StatusRow, WORD_BITS};
