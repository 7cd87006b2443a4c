//! Synthetic knowledge-base topologies for benchmarks and property tests.
//!
//! These generators started life inside the partitioner's proptests; they
//! are public so the repository benchmark's wave workloads and the
//! differential tests can run topologies beyond the line/grid-like parse
//! KBs: power-law hub structure (what real semantic
//! networks look like), the hub-and-spoke worst case for balanced
//! partitioning, and bridged communities with an obvious minimum cut.
//! All generators are deterministic — the random ones take an explicit
//! seed and use a self-contained LCG, so the same call always produces
//! the same network.

use crate::ids::{Color, RelationType};
use crate::network::{NetworkConfig, SemanticNetwork};

/// Deterministic LCG over `seed` (Knuth's MMIX multiplier), yielding
/// usize samples from the top bits.
fn lcg(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    }
}

/// A simple line: `n` nodes chained by `RelationType(0)` links.
pub fn line_network(n: usize) -> SemanticNetwork {
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    let mut prev = None;
    for _ in 0..n {
        let id = net.add_node(Color(0)).unwrap();
        if let Some(p) = prev {
            net.add_link(p, RelationType(0), 0.0, id).unwrap();
        }
        prev = Some(id);
    }
    net
}

/// Line graph plus `chords` pseudo-random `RelationType(2)` chords:
/// connected, locality present but not trivial.
#[cfg(test)]
pub(crate) fn chorded_network(n: usize, chords: usize, seed: u64) -> SemanticNetwork {
    use crate::ids::NodeId;
    let mut net = line_network(n);
    let mut next = lcg(seed);
    for _ in 0..chords {
        let a = next() % n;
        let b = next() % n;
        if a != b {
            net.add_link(NodeId(a as u32), RelationType(2), 0.0, NodeId(b as u32))
                .unwrap();
        }
    }
    net
}

/// Preferential-attachment (Barabási–Albert) network: each node past the
/// seed chain links to `m` distinct earlier nodes drawn proportional to
/// degree via endpoint-list sampling, producing the power-law hub
/// structure of a real knowledge base. All links are `RelationType(0)`
/// and point from newer nodes to older ones.
///
/// # Panics
///
/// Panics unless `n > m >= 1`.
pub fn scale_free_network(n: usize, m: usize, seed: u64) -> SemanticNetwork {
    assert!(n > m && m >= 1, "need more nodes than attachments");
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(net.add_node(Color(0)).unwrap());
    }
    let mut next = lcg(seed);
    // Every link endpoint lands on this list, so sampling it uniformly is
    // sampling nodes proportional to degree.
    let mut endpoints: Vec<usize> = Vec::new();
    for v in 1..=m {
        net.add_link(ids[v - 1], RelationType(0), 0.0, ids[v])
            .unwrap();
        endpoints.push(v - 1);
        endpoints.push(v);
    }
    for v in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::new();
        while targets.len() < m {
            let t = endpoints[next() % endpoints.len()];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            net.add_link(ids[v], RelationType(0), 0.0, ids[t]).unwrap();
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    net
}

/// One hub (node 0) fanning out to `leaves` spokes over `RelationType(0)`
/// links: the worst case for balanced partitioning — a `p`-way balanced
/// split must cut every spoke leaving the hub's cluster.
pub fn star_network(leaves: usize) -> SemanticNetwork {
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    let hub = net.add_node(Color(0)).unwrap();
    for _ in 0..leaves {
        let leaf = net.add_node(Color(0)).unwrap();
        net.add_link(hub, RelationType(0), 0.0, leaf).unwrap();
    }
    net
}

/// `communities` chorded line segments of `size` nodes (line links
/// `RelationType(0)`, skip-chords `RelationType(1)`), consecutive
/// segments joined by a single `RelationType(2)` bridge link: the minimum
/// balanced cut at `clusters == communities` is exactly the bridges.
///
/// # Panics
///
/// Panics if `size < 2`.
pub fn bridge_network(communities: usize, size: usize) -> SemanticNetwork {
    assert!(size >= 2, "a community needs at least two nodes");
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    let mut ids = Vec::with_capacity(communities * size);
    for _ in 0..communities * size {
        ids.push(net.add_node(Color(0)).unwrap());
    }
    for c in 0..communities {
        let base = c * size;
        for i in 0..size - 1 {
            net.add_link(ids[base + i], RelationType(0), 0.0, ids[base + i + 1])
                .unwrap();
            if i + 2 < size {
                net.add_link(ids[base + i], RelationType(1), 0.0, ids[base + i + 2])
                    .unwrap();
            }
        }
        if c + 1 < communities {
            net.add_link(ids[base + size - 1], RelationType(2), 0.0, ids[base + size])
                .unwrap();
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn generators_are_deterministic_and_sized() {
        let a = scale_free_network(50, 2, 7);
        let b = scale_free_network(50, 2, 7);
        assert_eq!(a.node_count(), 50);
        assert_eq!(a.link_count(), b.link_count());
        // Seed chain contributes m links, every later node m more.
        assert_eq!(a.link_count(), 2 + (50 - 3) * 2);

        let star = star_network(10);
        assert_eq!(star.node_count(), 11);
        assert_eq!(star.link_count(), 10);
        assert_eq!(star.links(NodeId(0)).count(), 10);

        let bridge = bridge_network(3, 4);
        assert_eq!(bridge.node_count(), 12);
        // Per community: 3 line + 2 chords; plus 2 bridges.
        assert_eq!(bridge.link_count(), 3 * 5 + 2);

        let chorded = chorded_network(20, 5, 3);
        assert!(chorded.link_count() >= 19);
        assert_eq!(line_network(8).link_count(), 7);
    }

    #[test]
    fn scale_free_grows_hubs() {
        let net = scale_free_network(120, 2, 42);
        let mut degree = vec![0usize; 120];
        for node in net.nodes() {
            for link in net.links(node) {
                degree[node.index()] += 1;
                degree[link.destination.index()] += 1;
            }
        }
        assert!(degree.iter().copied().max().unwrap() >= 6);
    }

    /// FNV-1a over the wave workloads' network: every node's links in
    /// insertion order, then every relation run's `(destination, rank)`
    /// pairs as the flushed table stores them.
    fn fingerprint(net: &mut SemanticNetwork) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn u64(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        net.flush_links();
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.u64(net.node_count() as u64);
        for node in net.nodes() {
            for l in net.links(node) {
                h.u64(u64::from(l.relation.0));
                h.u64(u64::from(l.weight.to_bits()));
                h.u64(u64::from(l.destination.0));
            }
            h.u64(u64::MAX);
            // Every link is `RelationType(0)`: one run per node.
            let (links, ranks) = net.ranked_links_by(node, RelationType(0));
            for (l, &rank) in links.iter().zip(ranks) {
                h.u64(u64::from(l.destination.0));
                h.u64(u64::from(rank));
            }
        }
        h.0
    }

    #[test]
    fn builds_the_pinned_wave_network() {
        for (seed, pin) in [(1, 0xec70_b947_e911_dc57), (2, 0x930e_a8dc_086f_f3db)] {
            let mut net = scale_free_network(20_000, 3, seed);
            assert_eq!(
                fingerprint(&mut net),
                pin,
                "the seed-{seed} wave network changed"
            );
        }
    }
}
