//! Per-network set-up, paid once per knowledge-base revision.
//!
//! SNAP-1 maps the knowledge base onto its clusters at load time and
//! then broadcasts program after program at the loaded array. A
//! [`Prepared`] is that loaded mapping: the [`RegionMap`] for one
//! machine geometry plus the [`PartitionStats`] every report carries.
//! It is the only place either is built; the engines take it as given.
//!
//! A `Prepared` is tied to the content [revision](SemanticNetwork::revision)
//! of the network it was built from, not to an allocation: it stays
//! valid for that network until a mutator moves the revision, and for
//! every clone that carries the same one. That is what lets one machine
//! memo serve exclusive runs ([`Snap1::run`](crate::Snap1::run), on a
//! `&mut` network) and shared ones
//! ([`Snap1::run_shared`](crate::Snap1::run_shared)) alike.

use crate::error::CoreError;
use crate::region::RegionMap;
use snap_kb::{PartitionScheme, PartitionStats, SemanticNetwork};
use snap_obs::lock_unpoisoned;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The region map and partition statistics of one knowledge base on one
/// machine geometry, tied to the content revision they were built from
/// (see [`Snap1::prepare`](crate::Snap1::prepare)).
pub struct Prepared {
    /// [`SemanticNetwork::revision`] of the network this was built from.
    revision: u64,
    map: Arc<RegionMap>,
    stats: PartitionStats,
}

impl Prepared {
    /// Partitions `network` over `clusters` clusters, remembering the
    /// revision it describes. [`Snap1::prepare`](crate::Snap1::prepare)
    /// memoises this for the machine's own geometry; a serving layer on
    /// the sequential engine builds its one region (`1`,
    /// [`PartitionScheme::Sequential`]) here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SharedStagedLinks`] if the network has staged
    /// (unflushed) links — neither the statistics nor the indexed
    /// kernels see them, and nothing can flush them behind an `Arc`.
    pub fn for_snapshot(
        network: &SemanticNetwork,
        clusters: usize,
        scheme: PartitionScheme,
    ) -> Result<Self, CoreError> {
        flushed(network)?;
        let map = RegionMap::build(network, clusters, scheme);
        let stats = map.partition().stats(network);
        Ok(Prepared {
            revision: network.revision(),
            map,
            stats,
        })
    }

    /// `true` if this was built from `network`'s contents: from
    /// `network` itself, unedited since, or from a network it is a
    /// clone of. The revision says nothing of staged links, which an
    /// unflushed clone can carry; [`Prepared::for_snapshot`] and the
    /// machine's memo check those on every call.
    pub fn is_for(&self, network: &SemanticNetwork) -> bool {
        self.revision == network.revision()
    }

    /// The node → (cluster, local index) map shared by all regions.
    pub fn map(&self) -> &Arc<RegionMap> {
        &self.map
    }

    /// Locality and balance of the partition, as stamped into every
    /// [`RunReport`](crate::RunReport).
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.stats
    }
}

/// `Err` if `network` still has staged links.
fn flushed(network: &SemanticNetwork) -> Result<(), CoreError> {
    match network.staged_link_count() {
        0 => Ok(()),
        staged => Err(CoreError::SharedStagedLinks { staged }),
    }
}

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prepared")
            .field("revision", &self.revision)
            .field("clusters", &self.stats.clusters)
            .field("nodes", &self.stats.nodes)
            .field("scheme", &self.stats.scheme)
            .finish_non_exhaustive()
    }
}

/// One-entry memo of the last network revision a machine prepared, for
/// exclusive and shared runs alike.
///
/// One entry is what both need (one machine, one knowledge base, many
/// programs); callers alternating networks rebuild on every switch,
/// which is what every call did before the memo existed. The entry
/// holds a map and statistics, never a network.
/// A caller that panics under the lock (the build runs there) leaves
/// the old entry, which is valid.
#[derive(Debug, Default)]
pub(crate) struct PreparedMemo(pub(crate) Mutex<Option<Arc<Prepared>>>);

impl PreparedMemo {
    /// The set-up for `network`'s revision, built on the first call for
    /// it. The lock is held across the build so concurrent first callers
    /// of one revision wait for a single build instead of each
    /// partitioning it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SharedStagedLinks`] if `network` has staged
    /// links — on a hit too: an unflushed clone of a flushed network
    /// carries its revision.
    pub(crate) fn get(
        &self,
        network: &SemanticNetwork,
        clusters: usize,
        scheme: PartitionScheme,
    ) -> Result<Arc<Prepared>, CoreError> {
        flushed(network)?;
        let mut slot = lock_unpoisoned(&self.0);
        match &*slot {
            Some(prepared) if prepared.is_for(network) => Ok(Arc::clone(prepared)),
            _ => {
                let prepared = Arc::new(Prepared::for_snapshot(network, clusters, scheme)?);
                *slot = Some(Arc::clone(&prepared));
                Ok(prepared)
            }
        }
    }
}

impl Clone for PreparedMemo {
    /// A cloned machine has the same geometry, so the entry stays valid.
    fn clone(&self) -> Self {
        PreparedMemo(Mutex::new(lock_unpoisoned(&self.0).clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_kb::{Color, NetworkConfig, NodeId, RelationType};

    fn snapshot(nodes: usize) -> Arc<SemanticNetwork> {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for _ in 0..nodes {
            net.add_node(Color(0)).unwrap();
        }
        Arc::new(net)
    }

    #[test]
    fn memo_hits_on_the_same_snapshot_and_rebuilds_on_another() {
        let memo = PreparedMemo::default();
        let (a, b) = (snapshot(4), snapshot(9));
        let first = memo.get(&a, 2, PartitionScheme::RoundRobin).unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &memo.get(&a, 2, PartitionScheme::RoundRobin).unwrap()
        ));
        let other = memo.get(&b, 2, PartitionScheme::RoundRobin).unwrap();
        assert_eq!(other.partition_stats().nodes, 9);
        assert!(other.is_for(&b) && !other.is_for(&a));
        // The memo holds no reference to either snapshot.
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
        assert_eq!((Arc::weak_count(&a), Arc::weak_count(&b)), (0, 0));
    }

    #[test]
    fn an_edited_or_reallocated_snapshot_never_matches() {
        let mut a = snapshot(4);
        let prepared = Prepared::for_snapshot(&a, 1, PartitionScheme::Sequential).unwrap();
        // A sole owner edits in place: nothing else holds the Arc, so
        // make_mut does not move it, and the revision moves instead.
        let before = Arc::as_ptr(&a);
        Arc::make_mut(&mut a).add_node(Color(1)).unwrap();
        assert_eq!(Arc::as_ptr(&a), before);
        assert!(!prepared.is_for(&a));
        // Arc::get_mut works while a machine remembers the snapshot.
        let prepared = Prepared::for_snapshot(&a, 1, PartitionScheme::Sequential).unwrap();
        Arc::get_mut(&mut a)
            .unwrap()
            .set_color(NodeId(0), Color(2))
            .unwrap();
        assert!(!prepared.is_for(&a));
        // A network allocated where a dropped one lived is another
        // network, whatever its address.
        let b = snapshot(4);
        let prepared = Prepared::for_snapshot(&b, 1, PartitionScheme::Sequential).unwrap();
        drop(b);
        for _ in 0..64 {
            assert!(!prepared.is_for(&snapshot(4)));
        }
    }

    #[test]
    fn a_clone_matches_and_an_unflushed_clone_is_rejected() {
        let memo = PreparedMemo::default();
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let (x, y) = (
            net.add_node(Color(0)).unwrap(),
            net.add_node(Color(1)).unwrap(),
        );
        net.add_link(x, RelationType(0), 1.0, y).unwrap();
        let unflushed = net.clone();
        net.flush_links();
        let first = memo.get(&net, 1, PartitionScheme::Sequential).unwrap();
        // Equal revisions, equal contents: the set-up serves the copy.
        assert!(first.is_for(&net.clone()));
        let hit = memo.get(&net.clone(), 1, PartitionScheme::Sequential);
        assert!(Arc::ptr_eq(&first, &hit.unwrap()));
        // The unflushed copy carries the same revision, and its staged
        // link is still refused.
        assert!(first.is_for(&unflushed));
        assert_eq!(
            memo.get(&unflushed, 1, PartitionScheme::Sequential)
                .unwrap_err(),
            CoreError::SharedStagedLinks { staged: 1 }
        );
    }
}
