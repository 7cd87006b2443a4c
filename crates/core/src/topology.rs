//! 4-ary hypercube topology built from spanning multiport memories.
//!
//! SNAP-1 routes inter-cluster messages through a 4-ary hypercube: the
//! 5-bit cluster address is split into modulo-4 fields — L (the four
//! clusters of one board), X (board column), and Y (board row). A cluster
//! communicates directly with every cluster whose address differs in
//! exactly one field, through a four-port memory dedicated to that field
//! group (L-memory on the board, X-/Y-memories across the backplane).
//! Messages therefore need at most one hop per field: three hops for the
//! 32-cluster prototype, `O(log N)` in general.

use snap_kb::ClusterId;

/// A field-decomposed hypercube topology.
///
/// `field_sizes[i]` is the radix of field `i` (≤ 4 for four-port parts).
/// The SNAP-1 prototype, `covering(32)`, is `[4, 4, 2]`: L, X, Y.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HypercubeTopology {
    field_sizes: Vec<u8>,
}

impl HypercubeTopology {
    /// Smallest topology (with radix-4 fields first) covering at least
    /// `clusters` clusters; used when sweeping array sizes.
    pub(crate) fn covering(clusters: usize) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        if clusters == 1 {
            // Degenerate single-cluster "network": one radix-2 field,
            // never routed through.
            return HypercubeTopology {
                field_sizes: vec![2],
            };
        }
        let mut sizes = Vec::new();
        let mut covered = 1usize;
        while covered < clusters {
            let need = clusters.div_ceil(covered);
            let radix = need.clamp(2, 4) as u8;
            sizes.push(radix);
            covered *= radix as usize;
        }
        HypercubeTopology { field_sizes: sizes }
    }

    /// Number of addressable clusters.
    pub(crate) fn cluster_count(&self) -> usize {
        self.field_sizes.iter().map(|&s| s as usize).product()
    }

    /// Number of address fields (= network diameter in hops).
    pub(crate) fn field_count(&self) -> usize {
        self.field_sizes.len()
    }

    /// Decomposes a cluster address into its fields, least-significant
    /// (L) first.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is outside the topology.
    pub(crate) fn fields(&self, cluster: ClusterId) -> Vec<u8> {
        let mut v = cluster.index();
        assert!(
            v < self.cluster_count(),
            "cluster {cluster} outside topology of {}",
            self.cluster_count()
        );
        let mut fields = Vec::with_capacity(self.field_sizes.len());
        for &s in &self.field_sizes {
            fields.push((v % s as usize) as u8);
            v /= s as usize;
        }
        fields
    }

    /// Recomposes fields into a cluster address.
    fn compose(&self, fields: &[u8]) -> ClusterId {
        let mut v = 0usize;
        for (i, &f) in fields.iter().enumerate().rev() {
            v = v * self.field_sizes[i] as usize + f as usize;
        }
        ClusterId(v as u8)
    }

    /// Hop distance: the number of differing address fields. Compares
    /// the fields digit by digit without materializing them — this is
    /// called once per message by every engine.
    ///
    /// # Panics
    ///
    /// Panics if either cluster is outside the topology.
    pub(crate) fn distance(&self, from: ClusterId, to: ClusterId) -> usize {
        let (mut a, mut b) = (from.index(), to.index());
        let count = self.cluster_count();
        for (v, cluster) in [(a, from), (b, to)] {
            assert!(v < count, "cluster {cluster} outside topology of {count}");
        }
        let mut hops = 0;
        for &s in &self.field_sizes {
            let s = s as usize;
            hops += usize::from(a % s != b % s);
            a /= s;
            b /= s;
        }
        hops
    }

    /// The route from `from` to `to`: each hop corrects one address
    /// field (L first, then X, then Y), returning the sequence of
    /// clusters **after** each hop. Empty when `from == to`. The
    /// reference [`distance`](Self::distance) is checked against.
    #[cfg(test)]
    fn route(&self, from: ClusterId, to: ClusterId) -> Vec<ClusterId> {
        let mut cur = self.fields(from);
        let dst = self.fields(to);
        let mut path = Vec::new();
        for i in 0..cur.len() {
            if cur[i] != dst[i] {
                cur[i] = dst[i];
                path.push(self.compose(&cur));
            }
        }
        path
    }

    /// Clusters reachable in exactly one hop from `cluster`.
    pub(crate) fn neighbors(&self, cluster: ClusterId) -> Vec<ClusterId> {
        let base = self.fields(cluster);
        let mut out = Vec::new();
        for (i, &size) in self.field_sizes.iter().enumerate() {
            for v in 0..size {
                if v != base[i] {
                    let mut f = base.clone();
                    f[i] = v;
                    out.push(self.compose(&f));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn snap1_has_32_clusters_and_diameter_3() {
        let t = HypercubeTopology::covering(32);
        assert_eq!(t.field_sizes, [4, 4, 2]);
        assert_eq!(t.cluster_count(), 32);
        assert_eq!(t.field_count(), 3);
    }

    #[test]
    fn paper_example_cluster_23() {
        // 23 = 10111b → L = 23 mod 4 = 3, X = 5 mod 4 = 1, Y = 1.
        let t = HypercubeTopology::covering(32);
        assert_eq!(t.fields(ClusterId(23)), vec![3, 1, 1]);
    }

    #[test]
    fn route_corrects_one_field_per_hop() {
        let t = HypercubeTopology::covering(32);
        let path = t.route(ClusterId(0), ClusterId(23));
        assert_eq!(path.len(), 3);
        assert_eq!(*path.last().unwrap(), ClusterId(23));
        // Each consecutive pair differs in exactly one field.
        let mut prev = ClusterId(0);
        for &hop in &path {
            assert_eq!(t.distance(prev, hop), 1);
            prev = hop;
        }
    }

    #[test]
    fn neighbors_count_matches_fields() {
        let t = HypercubeTopology::covering(32);
        // (4-1) + (4-1) + (2-1) = 7 one-hop neighbours.
        assert_eq!(t.neighbors(ClusterId(0)).len(), 7);
    }

    #[test]
    fn covering_produces_enough_clusters() {
        for n in 1..=64 {
            let t = HypercubeTopology::covering(n);
            assert!(t.cluster_count() >= n, "covering({n}) too small");
        }
        assert_eq!(HypercubeTopology::covering(32).cluster_count(), 32);
        assert_eq!(HypercubeTopology::covering(16).cluster_count(), 16);
    }

    proptest! {
        #[test]
        fn prop_route_reaches_destination_within_diameter(src in 0u8..32, dst in 0u8..32) {
            let t = HypercubeTopology::covering(32);
            let path = t.route(ClusterId(src), ClusterId(dst));
            prop_assert!(path.len() <= 3, "32 clusters need at most three hops");
            prop_assert_eq!(path.len(), t.distance(ClusterId(src), ClusterId(dst)));
            if src != dst {
                prop_assert_eq!(*path.last().unwrap(), ClusterId(dst));
            } else {
                prop_assert!(path.is_empty());
            }
        }

        #[test]
        fn prop_fields_compose_roundtrip(c in 0u8..32) {
            let t = HypercubeTopology::covering(32);
            let f = t.fields(ClusterId(c));
            prop_assert_eq!(t.compose(&f), ClusterId(c));
        }

        #[test]
        fn prop_distance_is_symmetric_metric(a in 0u8..32, b in 0u8..32, c in 0u8..32) {
            let t = HypercubeTopology::covering(32);
            let (a, b, c) = (ClusterId(a), ClusterId(b), ClusterId(c));
            prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            prop_assert_eq!(t.distance(a, a), 0);
            prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        }
    }
}
