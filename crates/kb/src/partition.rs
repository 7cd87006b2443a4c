//! Knowledge-base partitioning across clusters.
//!
//! The semantic network is stored as a distributed knowledge base: a
//! partitioning function divides it into regions and each region is
//! allocated to one cluster, which processes all of its concepts,
//! relations, and markers. SNAP-1's mapping function is variable, with up
//! to 1024 nodes per cluster, using **sequential**, **round-robin**, or
//! **semantically-based** allocation.

use crate::ids::{ClusterId, NodeId};
use crate::network::SemanticNetwork;
use std::collections::{BinaryHeap, VecDeque};

/// Nodes-per-cluster granularity of the SNAP-1 prototype.
pub const MAX_NODES_PER_CLUSTER: usize = 1024;

/// Most clusters a partition can address: [`ClusterId`] is a byte, so
/// requests beyond this saturate (see [`Partition::build`]).
pub const MAX_CLUSTERS: usize = 256;

/// Which partitioning function to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionScheme {
    /// Contiguous blocks of node IDs per cluster.
    #[default]
    Sequential,
    /// Node `i` goes to cluster `i mod p`.
    RoundRobin,
    /// Breadth-first traversal fills clusters with connected regions, so
    /// semantically-related concepts land together and propagation stays
    /// mostly intra-cluster.
    Semantic,
    /// Locality-aware greedy growth: each cluster grows from a seed by
    /// repeatedly absorbing the frontier node with the most links into
    /// the cluster so far (ties to the smaller node ID), stopping at the
    /// ceiling-balanced load bound. Minimizes cross-cluster links much
    /// more aggressively than the BFS-order `Semantic` fill while
    /// keeping the same balance guarantee.
    EdgeCut,
}

/// A mapping from nodes to clusters plus its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    scheme: PartitionScheme,
    cluster_of: Vec<ClusterId>,
    members: Vec<Vec<NodeId>>,
}

impl Partition {
    /// Partitions `network` over `clusters` clusters with the given scheme.
    ///
    /// `clusters` saturates at [`MAX_CLUSTERS`]: [`ClusterId`] is a byte, so
    /// a larger request is clamped to 256 clusters instead of silently
    /// wrapping the mapping.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn build(network: &SemanticNetwork, clusters: usize, scheme: PartitionScheme) -> Self {
        assert!(clusters > 0, "at least one cluster is required");
        let clusters = clusters.min(MAX_CLUSTERS);
        let n = network.node_count();
        let mut cluster_of = vec![ClusterId(0); n];
        match scheme {
            PartitionScheme::Sequential => {
                let per = n.div_ceil(clusters).max(1);
                for (i, slot) in cluster_of.iter_mut().enumerate() {
                    *slot = ClusterId(((i / per).min(clusters - 1)) as u8);
                }
            }
            PartitionScheme::RoundRobin => {
                for (i, slot) in cluster_of.iter_mut().enumerate() {
                    *slot = ClusterId((i % clusters) as u8);
                }
            }
            PartitionScheme::Semantic => {
                let per = n.div_ceil(clusters).max(1);
                let mut assigned = vec![false; n];
                let mut order = Vec::with_capacity(n);
                // BFS from each unvisited node so disconnected components
                // still get laid out contiguously.
                for start in 0..n {
                    if assigned[start] {
                        continue;
                    }
                    let mut queue = VecDeque::new();
                    queue.push_back(NodeId(start as u32));
                    assigned[start] = true;
                    while let Some(node) = queue.pop_front() {
                        order.push(node);
                        for link in network.links(node) {
                            let d = link.destination.index();
                            if !assigned[d] {
                                assigned[d] = true;
                                queue.push_back(link.destination);
                            }
                        }
                    }
                }
                for (pos, node) in order.into_iter().enumerate() {
                    cluster_of[node.index()] = ClusterId(((pos / per).min(clusters - 1)) as u8);
                }
            }
            PartitionScheme::EdgeCut => {
                let per = n.div_ceil(clusters).max(1);
                // Undirected adjacency: a cut link costs the same in either
                // direction, so growth should see both.
                let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
                for node in network.nodes() {
                    for link in network.links(node) {
                        let (s, d) = (node.index(), link.destination.index());
                        if s != d {
                            adjacency[s].push(d as u32);
                            adjacency[d].push(s as u32);
                        }
                    }
                }
                let mut assigned = vec![false; n];
                // gain[v] = links from v into the cluster currently growing.
                let mut gain = vec![0u32; n];
                let mut touched: Vec<u32> = Vec::new();
                // Max-heap on (gain, Reverse(node)): highest gain first,
                // smallest node ID on ties. Stale entries are skipped by
                // re-checking the gain on pop.
                let mut heap: BinaryHeap<(u32, std::cmp::Reverse<u32>)> = BinaryHeap::new();
                let mut next_seed = 0usize;
                let mut remaining = n;
                for c in 0..clusters {
                    if remaining == 0 {
                        break;
                    }
                    heap.clear();
                    for &w in &touched {
                        gain[w as usize] = 0;
                    }
                    touched.clear();
                    let mut size = 0usize;
                    while size < per && remaining > 0 {
                        let pick = loop {
                            match heap.pop() {
                                Some((g, std::cmp::Reverse(v))) => {
                                    let v = v as usize;
                                    if assigned[v] || gain[v] != g {
                                        continue;
                                    }
                                    break Some(v);
                                }
                                None => break None,
                            }
                        };
                        let v = pick.unwrap_or_else(|| {
                            while assigned[next_seed] {
                                next_seed += 1;
                            }
                            next_seed
                        });
                        assigned[v] = true;
                        cluster_of[v] = ClusterId(c as u8);
                        size += 1;
                        remaining -= 1;
                        for &w in &adjacency[v] {
                            let w = w as usize;
                            if !assigned[w] {
                                if gain[w] == 0 {
                                    touched.push(w as u32);
                                }
                                gain[w] += 1;
                                heap.push((gain[w], std::cmp::Reverse(w as u32)));
                            }
                        }
                    }
                }
            }
        }
        let mut members = vec![Vec::new(); clusters];
        for (i, c) in cluster_of.iter().enumerate() {
            members[c.index()].push(NodeId(i as u32));
        }
        Partition {
            scheme,
            cluster_of,
            members,
        }
    }

    /// The scheme used to build this partition.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Number of clusters in the partition.
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Cluster owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not covered by the partition.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.cluster_of[node.index()]
    }

    /// Nodes owned by `cluster`, ascending.
    pub fn members(&self, cluster: ClusterId) -> &[NodeId] {
        &self.members[cluster.index()]
    }

    /// The heaviest cluster's node count.
    fn max_cluster_load(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Fraction of links whose endpoints live in different clusters —
    /// lower is better for a partitioning function.
    pub fn cut_fraction(&self, network: &SemanticNetwork) -> f64 {
        let mut total = 0usize;
        let mut cut = 0usize;
        for node in network.nodes() {
            for link in network.links(node) {
                total += 1;
                if self.cluster_of(node) != self.cluster_of(link.destination) {
                    cut += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        }
    }

    /// Full locality/balance report for this partition over `network`.
    pub fn stats(&self, network: &SemanticNetwork) -> PartitionStats {
        let clusters = self.cluster_count();
        let mut per_cluster: Vec<ClusterLinks> = (0..clusters)
            .map(|c| ClusterLinks {
                nodes: self.members[c].len(),
                internal: 0,
                external: 0,
            })
            .collect();
        let mut total = 0u64;
        let mut cut = 0u64;
        for node in network.nodes() {
            let home = self.cluster_of(node);
            for link in network.links(node) {
                total += 1;
                if self.cluster_of(link.destination) == home {
                    per_cluster[home.index()].internal += 1;
                } else {
                    cut += 1;
                    per_cluster[home.index()].external += 1;
                }
            }
        }
        let n: usize = per_cluster.iter().map(|c| c.nodes).sum();
        let max_load = self.max_cluster_load();
        let mean_load = n as f64 / clusters as f64;
        PartitionStats {
            scheme: self.scheme,
            clusters,
            nodes: n,
            total_links: total,
            cut_links: cut,
            cut_fraction: if total == 0 {
                0.0
            } else {
                cut as f64 / total as f64
            },
            max_load,
            load_balance: if n == 0 {
                0.0
            } else {
                max_load as f64 / mean_load
            },
            per_cluster,
        }
    }
}

/// Link traffic owned by one cluster: links whose source node lives there,
/// split by whether the destination is local too.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterLinks {
    /// Nodes assigned to the cluster.
    pub nodes: usize,
    /// Links staying inside the cluster.
    pub internal: u64,
    /// Links crossing to another cluster.
    pub external: u64,
}

/// Locality and balance report for a [`Partition`], cheap to compute and
/// stamped into every run report.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Scheme that produced the partition.
    pub scheme: PartitionScheme,
    /// Number of clusters (possibly with empty trailing clusters).
    pub clusters: usize,
    /// Total nodes partitioned.
    pub nodes: usize,
    /// Directed links in the network.
    pub total_links: u64,
    /// Links whose endpoints live in different clusters.
    pub cut_links: u64,
    /// `cut_links / total_links` — lower is better.
    pub cut_fraction: f64,
    /// Heaviest cluster's node count.
    pub max_load: usize,
    /// `max_load / mean_load`; 1.0 is perfectly balanced, higher is worse.
    pub load_balance: f64,
    /// Per-cluster node and link breakdown.
    pub per_cluster: Vec<ClusterLinks>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Color, RelationType};
    use crate::network::NetworkConfig;
    use crate::synth::{
        bridge_network, chorded_network, line_network, scale_free_network, star_network,
    };
    use proptest::prelude::*;

    #[test]
    fn sequential_partition_is_contiguous() {
        let net = line_network(10);
        let p = Partition::build(&net, 3, PartitionScheme::Sequential);
        assert_eq!(p.cluster_count(), 3);
        assert_eq!(p.cluster_of(NodeId(0)), ClusterId(0));
        assert_eq!(p.cluster_of(NodeId(9)), ClusterId(2));
        // Cluster assignment is monotone in node ID.
        let mut last = 0;
        for i in 0..10u32 {
            let c = p.cluster_of(NodeId(i)).index();
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn round_robin_distributes_evenly() {
        let net = line_network(12);
        let p = Partition::build(&net, 4, PartitionScheme::RoundRobin);
        for c in 0..4 {
            assert_eq!(p.members(ClusterId(c)).len(), 3);
        }
        assert_eq!(p.cluster_of(NodeId(5)), ClusterId(1));
    }

    #[test]
    fn semantic_beats_round_robin_on_cut_fraction() {
        // A line graph: semantic (BFS) packing keeps neighbours together;
        // round-robin cuts every link.
        let net = line_network(64);
        let semantic = Partition::build(&net, 4, PartitionScheme::Semantic);
        let rr = Partition::build(&net, 4, PartitionScheme::RoundRobin);
        assert!(semantic.cut_fraction(&net) < rr.cut_fraction(&net));
        assert!(rr.cut_fraction(&net) > 0.9);
    }

    #[test]
    fn cluster_count_saturates_at_byte_range() {
        // Regression: `clusters > 256` used to wrap `as u8` and corrupt the
        // inverse mapping. The cap clamps instead.
        let net = line_network(600);
        for scheme in [
            PartitionScheme::Sequential,
            PartitionScheme::RoundRobin,
            PartitionScheme::Semantic,
            PartitionScheme::EdgeCut,
        ] {
            let p = Partition::build(&net, 300, scheme);
            assert_eq!(p.cluster_count(), MAX_CLUSTERS, "{scheme:?}");
            let mut seen = vec![false; 600];
            for c in 0..MAX_CLUSTERS {
                for &node in p.members(ClusterId(c as u8)) {
                    assert!(!seen[node.index()], "{scheme:?}: duplicate assignment");
                    seen[node.index()] = true;
                    assert_eq!(p.cluster_of(node), ClusterId(c as u8), "{scheme:?}");
                }
            }
            assert!(seen.into_iter().all(|s| s), "{scheme:?}: node unassigned");
        }
    }

    #[test]
    fn edge_cut_keeps_line_segments_contiguous() {
        let net = line_network(64);
        let p = Partition::build(&net, 4, PartitionScheme::EdgeCut);
        // Greedy growth on a line yields 4 contiguous segments: exactly 3 of
        // 63 links are cut.
        let stats = p.stats(&net);
        assert_eq!(stats.cut_links, 3);
        assert_eq!(stats.max_load, 16);
        assert!((stats.load_balance - 1.0).abs() < 1e-9);
        assert_eq!(stats.per_cluster.len(), 4);
        let internal: u64 = stats.per_cluster.iter().map(|c| c.internal).sum();
        let external: u64 = stats.per_cluster.iter().map(|c| c.external).sum();
        assert_eq!(internal + external, stats.total_links);
        assert_eq!(external, stats.cut_links);
    }

    #[test]
    fn edge_cut_beats_semantic_on_interleaved_chains() {
        // Chains laid out interleaved (node = level*alpha + chain, like the
        // fig16 alpha workload): BFS order visits whole chains one at a time
        // too, so Semantic ties here — but on a grid-ish graph with chords
        // EdgeCut's gain-directed growth wins. Build chains plus rung links
        // between adjacent chains at each level.
        let alpha = 8usize;
        let depth = 16usize;
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let mut ids = Vec::new();
        for _ in 0..alpha * depth {
            ids.push(net.add_node(Color(0)).unwrap());
        }
        let at = |level: usize, chain: usize| ids[level * alpha + chain];
        for chain in 0..alpha {
            for level in 0..depth - 1 {
                net.add_link(at(level, chain), RelationType(0), 0.0, at(level + 1, chain))
                    .unwrap();
            }
        }
        for level in 0..depth {
            for chain in 0..alpha - 1 {
                net.add_link(at(level, chain), RelationType(1), 0.0, at(level, chain + 1))
                    .unwrap();
            }
        }
        let edge_cut = Partition::build(&net, 4, PartitionScheme::EdgeCut);
        let semantic = Partition::build(&net, 4, PartitionScheme::Semantic);
        let rr = Partition::build(&net, 4, PartitionScheme::RoundRobin);
        assert!(edge_cut.cut_fraction(&net) <= semantic.cut_fraction(&net));
        assert!(edge_cut.cut_fraction(&net) < rr.cut_fraction(&net));
    }

    #[test]
    fn edge_cut_on_star_achieves_the_minimum_balanced_cut() {
        // 1 hub + 63 leaves over 4 clusters of 16: any balanced split
        // strands 48 spokes outside the hub's cluster, and hub-seeded
        // greedy growth hits that floor exactly.
        let net = star_network(63);
        let p = Partition::build(&net, 4, PartitionScheme::EdgeCut);
        let stats = p.stats(&net);
        assert_eq!(stats.total_links, 63);
        assert_eq!(stats.cut_links, 63 - 15);
        assert_eq!(stats.max_load, 16);
        assert!((stats.load_balance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn edge_cut_on_bridged_communities_cuts_only_bridges() {
        let (k, size) = (4usize, 16usize);
        let net = bridge_network(k, size);
        let p = Partition::build(&net, k, PartitionScheme::EdgeCut);
        let stats = p.stats(&net);
        assert_eq!(stats.cut_links, (k - 1) as u64);
        assert_eq!(stats.max_load, size);
        // Each community lands wholly in one cluster.
        for c in 0..k {
            let owner = p.cluster_of(NodeId((c * size) as u32));
            for i in 1..size {
                assert_eq!(p.cluster_of(NodeId((c * size + i) as u32)), owner);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_every_node_assigned_exactly_once(
            n in 1usize..200,
            clusters in 1usize..32,
            scheme_pick in 0u8..4,
        ) {
            let scheme = match scheme_pick {
                0 => PartitionScheme::Sequential,
                1 => PartitionScheme::RoundRobin,
                2 => PartitionScheme::Semantic,
                _ => PartitionScheme::EdgeCut,
            };
            let net = line_network(n);
            let p = Partition::build(&net, clusters, scheme);
            // Inverse mapping is consistent and total.
            let mut seen = vec![false; n];
            for c in 0..clusters {
                for &node in p.members(ClusterId(c as u8)) {
                    prop_assert!(!seen[node.index()]);
                    seen[node.index()] = true;
                    prop_assert_eq!(p.cluster_of(node), ClusterId(c as u8));
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
            // No cluster exceeds the ceiling-balanced load.
            prop_assert!(p.max_cluster_load() <= n.div_ceil(clusters).max(1));
        }

        #[test]
        fn prop_edge_cut_no_worse_than_round_robin(
            n in 8usize..160,
            clusters in 2usize..9,
            chords in 0usize..40,
            seed in 0u64..1_000,
        ) {
            // Keep chords sparse relative to the line so locality exists to
            // exploit; round-robin still cuts every line link.
            let chords = chords.min(n / 4);
            let net = chorded_network(n, chords, seed);
            let edge_cut = Partition::build(&net, clusters, PartitionScheme::EdgeCut);
            let rr = Partition::build(&net, clusters, PartitionScheme::RoundRobin);
            // Greedy growth keeps connected runs together; round-robin cuts
            // essentially every line link.
            prop_assert!(edge_cut.cut_fraction(&net) <= rr.cut_fraction(&net));
            // Balance bound holds for EdgeCut too.
            prop_assert!(edge_cut.max_cluster_load() <= n.div_ceil(clusters).max(1));
            // Stats agree with the scalar helpers.
            let stats = edge_cut.stats(&net);
            prop_assert!((stats.cut_fraction - edge_cut.cut_fraction(&net)).abs() < 1e-12);
            prop_assert_eq!(stats.max_load, edge_cut.max_cluster_load());
            let assigned: usize = stats.per_cluster.iter().map(|c| c.nodes).sum();
            prop_assert_eq!(assigned, n);
        }

        /// Power-law KBs (the degree distribution real semantic networks
        /// have): EdgeCut must keep the ceiling-balanced load bound even
        /// when hubs concentrate most links, and its cut can never lose
        /// to the locality-blind round-robin baseline.
        #[test]
        fn prop_scale_free_edge_cut_cut_and_load_bounds(
            n in 24usize..160,
            m in 1usize..4,
            clusters in 2usize..9,
            seed in 0u64..1_000,
        ) {
            let net = scale_free_network(n, m, seed);
            // Preferential attachment actually produced hubs: some node's
            // undirected degree dwarfs the attachment constant.
            let mut degree = vec![0usize; n];
            for node in net.nodes() {
                for link in net.links(node) {
                    degree[node.index()] += 1;
                    degree[link.destination.index()] += 1;
                }
            }
            let max_degree = degree.iter().copied().max().unwrap_or(0);
            prop_assert!(
                max_degree >= 3 * m,
                "no hub emerged: max degree {} with m={}", max_degree, m
            );

            let p = Partition::build(&net, clusters, PartitionScheme::EdgeCut);
            let stats = p.stats(&net);
            prop_assert!(stats.max_load <= n.div_ceil(clusters).max(1));
            let rr = Partition::build(&net, clusters, PartitionScheme::RoundRobin);
            prop_assert!(
                stats.cut_fraction <= rr.cut_fraction(&net) + 1e-12,
                "EdgeCut {} lost to RoundRobin {}", stats.cut_fraction, rr.cut_fraction(&net)
            );
            // A hub-heavy graph still has locality to find.
            prop_assert!(stats.cut_fraction < 1.0);
            let assigned: usize = stats.per_cluster.iter().map(|c| c.nodes).sum();
            prop_assert_eq!(assigned, n);
        }

        /// Star and bridge topologies: assignment stays total and
        /// ceiling-balanced on every scheme, and EdgeCut never loses to
        /// round-robin on the cut.
        #[test]
        fn prop_hub_and_bridge_topologies_stay_total_and_balanced(
            leaves in 8usize..120,
            communities in 2usize..7,
            size in 4usize..24,
            clusters in 2usize..9,
        ) {
            for net in [star_network(leaves), bridge_network(communities, size)] {
                let n = net.node_count();
                for scheme in [
                    PartitionScheme::Sequential,
                    PartitionScheme::RoundRobin,
                    PartitionScheme::Semantic,
                    PartitionScheme::EdgeCut,
                ] {
                    let p = Partition::build(&net, clusters, scheme);
                    let mut seen = vec![false; n];
                    for c in 0..clusters {
                        for &node in p.members(ClusterId(c as u8)) {
                            prop_assert!(!seen[node.index()], "{:?}: double assignment", scheme);
                            seen[node.index()] = true;
                        }
                    }
                    prop_assert!(seen.into_iter().all(|s| s), "{:?}: node unassigned", scheme);
                    prop_assert!(p.max_cluster_load() <= n.div_ceil(clusters).max(1));
                }
                let edge_cut = Partition::build(&net, clusters, PartitionScheme::EdgeCut);
                let rr = Partition::build(&net, clusters, PartitionScheme::RoundRobin);
                prop_assert!(edge_cut.cut_fraction(&net) <= rr.cut_fraction(&net) + 1e-12);
            }
        }
    }
}
