//! Per-network set-up, paid once per knowledge-base snapshot.
//!
//! SNAP-1 maps the knowledge base onto its clusters at load time and
//! then broadcasts program after program at the loaded array. A
//! [`Prepared`] is that loaded mapping: the [`RegionMap`] for one
//! machine geometry plus the [`PartitionStats`] every report carries.
//! It is the only place either is built; the engines take it as given.

use crate::error::CoreError;
use crate::region::RegionMap;
use snap_kb::{PartitionScheme, PartitionStats, SemanticNetwork};
use snap_obs::lock_unpoisoned;
use std::fmt;
use std::sync::{Arc, Mutex, Weak};

/// The region map and partition statistics of one knowledge base on one
/// machine geometry, tied to the identity of the snapshot they were
/// built from (see [`Snap1::prepare`](crate::Snap1::prepare)).
pub struct Prepared {
    /// The snapshot this was built from; dangling when built for an
    /// exclusive run, which has no snapshot to outlive.
    snapshot: Weak<SemanticNetwork>,
    map: Arc<RegionMap>,
    stats: PartitionStats,
}

impl Prepared {
    /// Partitions `network` over `clusters` clusters. Staged links must
    /// have been flushed: the statistics walk the relation table.
    pub(crate) fn build(
        network: &SemanticNetwork,
        clusters: usize,
        scheme: PartitionScheme,
    ) -> Self {
        let map = RegionMap::build(network, clusters, scheme);
        let stats = map.partition().stats(network);
        Prepared {
            snapshot: Weak::new(),
            map,
            stats,
        }
    }

    /// Partitions `snapshot` over `clusters` clusters, remembering
    /// which snapshot this describes. [`Snap1::prepare`](crate::Snap1::prepare)
    /// memoises this for the machine's own geometry; a serving layer on
    /// the sequential engine builds its one region (`1`,
    /// [`PartitionScheme::Sequential`]) here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SharedStagedLinks`] if the snapshot was
    /// frozen with staged (unflushed) links — nothing can flush them
    /// behind an `Arc`, and neither the statistics nor the indexed
    /// kernels see them.
    pub fn for_snapshot(
        snapshot: &Arc<SemanticNetwork>,
        clusters: usize,
        scheme: PartitionScheme,
    ) -> Result<Self, CoreError> {
        let staged = snapshot.staged_link_count();
        if staged > 0 {
            return Err(CoreError::SharedStagedLinks { staged });
        }
        Ok(Prepared {
            snapshot: Arc::downgrade(snapshot),
            ..Self::build(snapshot, clusters, scheme)
        })
    }

    /// `true` if this was built from exactly `snapshot`, unedited since.
    ///
    /// The `Weak` keeps the snapshot's allocation reserved after its
    /// last `Arc` is dropped, so a later network can never be allocated
    /// at the compared address; and while a `Weak` exists
    /// `Arc::get_mut` refuses and `Arc::make_mut` moves the network to
    /// a new allocation, so an edited snapshot never compares equal.
    pub fn is_for(&self, snapshot: &Arc<SemanticNetwork>) -> bool {
        std::ptr::eq(self.snapshot.as_ptr(), Arc::as_ptr(snapshot))
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

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prepared")
            .field("clusters", &self.stats.clusters)
            .field("nodes", &self.stats.nodes)
            .field("scheme", &self.stats.scheme)
            .finish_non_exhaustive()
    }
}

/// One-entry memo of the last snapshot a machine prepared.
///
/// One entry is what serving needs (one machine, one snapshot, many
/// programs); callers alternating snapshots rebuild on every switch,
/// which is what every call did before the memo existed.
/// A caller that panics under the lock (the build runs there) leaves
/// the old entry, which is valid.
#[derive(Debug, Default)]
pub(crate) struct PreparedMemo(pub(crate) Mutex<Option<Arc<Prepared>>>);

impl PreparedMemo {
    /// The set-up for `snapshot`, built on the first call for it. The
    /// lock is held across the build so concurrent first callers of one
    /// snapshot wait for a single build instead of each partitioning it.
    pub(crate) fn get(
        &self,
        snapshot: &Arc<SemanticNetwork>,
        clusters: usize,
        scheme: PartitionScheme,
    ) -> Result<Arc<Prepared>, CoreError> {
        let mut slot = lock_unpoisoned(&self.0);
        match &*slot {
            Some(prepared) if prepared.is_for(snapshot) => Ok(Arc::clone(prepared)),
            _ => {
                let prepared = Arc::new(Prepared::for_snapshot(snapshot, clusters, scheme)?);
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
    use snap_kb::{Color, NetworkConfig};

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
        // The memo holds no strong reference to either snapshot.
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
    }

    #[test]
    fn an_edited_or_reallocated_snapshot_never_matches() {
        let mut a = snapshot(4);
        let prepared = Prepared::for_snapshot(&a, 1, PartitionScheme::Sequential).unwrap();
        // A sole owner edits "in place": the outstanding Weak makes
        // make_mut move the network, so the identity changes with it.
        Arc::make_mut(&mut a).add_node(Color(1)).unwrap();
        assert!(!prepared.is_for(&a));
        // Dropping the snapshot leaves its address reserved by the Weak.
        let b = snapshot(4);
        let prepared = Prepared::for_snapshot(&b, 1, PartitionScheme::Sequential).unwrap();
        drop(b);
        for _ in 0..64 {
            assert!(!prepared.is_for(&snapshot(4)));
        }
        // A set-up built for an exclusive run matches no snapshot.
        let c = snapshot(2);
        assert!(!Prepared::build(&c, 1, PartitionScheme::Sequential).is_for(&c));
    }
}
