//! Shared propagation semantics: rule-driven expansion and visited
//! tracking.
//!
//! Every engine executes `PROPAGATE` through these helpers, so the set of
//! nodes reached, the rule states traversed, and the value-merge results
//! are engine-independent. The contract (documented on
//! [`snap_isa::Instruction::Propagate`]):
//!
//! * a marker instance at `(node, rule_state)` expands at most once per
//!   distinct value improvement greater than
//!   [`crate::region::VALUE_EPSILON`];
//! * value merging at a node keeps the minimum (cost semantics), breaking
//!   ties toward the smaller origin node ID;
//! * propagation depth is capped by the machine's `max_hops`, which
//!   bounds work on cyclic knowledge bases.

use crate::region::improves;
use snap_isa::{RuleProgram, StepFunc, MAX_RULE_STATES};
use snap_kb::{NodeId, SemanticNetwork};
use std::collections::HashMap;

/// One marker instance ready to expand from a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropTask {
    /// Index of the `PROPAGATE` instruction within its overlap group.
    pub prop: usize,
    /// Node the instance sits at.
    pub node: NodeId,
    /// Current rule state.
    pub state: u8,
    /// Current accumulated value.
    pub value: f32,
    /// Origin node of the instance.
    pub origin: NodeId,
    /// Propagation tier (links traversed so far).
    pub level: u8,
}

/// One outgoing arrival produced by an expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropArrival {
    /// Destination node.
    pub node: NodeId,
    /// Rule state the instance continues in.
    pub state: u8,
    /// Value after the step function.
    pub value: f32,
}

/// Result of expanding one task against the relation table.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    /// Arrivals at successor nodes.
    pub arrivals: Vec<PropArrival>,
    /// Relation-table segments fetched (cost unit).
    pub segments: usize,
    /// Relation slots examined (cost unit).
    pub links_scanned: usize,
}

impl snap_fault::Fingerprint for PropTask {
    fn fingerprint(&self) -> u64 {
        use snap_fault::mix64;
        mix64(self.prop as u64 ^ (u64::from(self.node.0) << 20))
            ^ mix64(u64::from(self.state) | (u64::from(self.value.to_bits()) << 8))
            ^ mix64(u64::from(self.origin.0) | (u64::from(self.level) << 40))
    }
}

impl snap_fault::Corruptible for PropTask {
    fn corrupt(&mut self, salt: u64) {
        // Flip value bits (|1 guarantees a change) and smear the rule
        // state: enough to invalidate the envelope checksum whatever the
        // payload was.
        self.value = f32::from_bits(self.value.to_bits() ^ ((salt as u32) | 1));
        self.state ^= (salt >> 32) as u8;
    }
}

/// Most rule arcs a single state may have and still take the indexed
/// merge path; beyond this (only reachable through large custom rules)
/// expansion falls back to the full link scan.
pub(crate) const MAX_MERGE_ARCS: usize = MAX_RULE_STATES;

/// Expands `task` one step: for each arc live in the task's rule state,
/// traverse the matching relation links and apply the step function.
///
/// Allocating convenience wrapper around [`expand_into`]; engines on the
/// hot path reuse one arrival buffer across tasks instead.
pub fn expand(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    task: &PropTask,
) -> Expansion {
    let mut arrivals = Vec::new();
    let (segments, links_scanned) = expand_into(network, rule, func, task, &mut arrivals);
    Expansion {
        arrivals,
        segments,
        links_scanned,
    }
}

/// Expands `task` one step into a caller-provided arrival buffer (cleared
/// first), returning the `(segments, links_scanned)` cost units.
///
/// Arrivals are produced via the relation table's per-`(node, relation)`
/// runs — O(arcs · matching links) instead of the historical
/// O(links · arcs) cross-product scan — but in the *exact* order the scan
/// produced: ascending `(link insertion rank, arc index)`. Engines depend
/// on that order for reproducible scheduling, so a single-arc state reads
/// its run directly and multi-arc states merge their runs by rank. The
/// cost units are unchanged by construction: the hardware fetches every
/// relation slot of the node regardless of how many match, so
/// `links_scanned` stays the node's full fanout and `segments` the
/// segment-chain length.
pub fn expand_into(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    task: &PropTask,
    arrivals: &mut Vec<PropArrival>,
) -> (usize, usize) {
    arrivals.clear();
    let state = rule.state(task.state);
    if state.is_terminal() {
        return (0, 0);
    }
    let segments = network.segments(task.node);
    let links_scanned = network.fanout(task.node);
    let arcs = state.arcs();
    if network.staged_link_count() > 0 || arcs.len() > MAX_MERGE_ARCS {
        // Staged links are invisible to the indexed runs (and oversized
        // custom rules overflow the merge cursors): take the legacy scan.
        for link in network.links(task.node) {
            for arc in arcs {
                if link.relation == arc.relation {
                    arrivals.push(PropArrival {
                        node: link.destination,
                        state: arc.next,
                        value: func.apply(task.value, link.weight),
                    });
                }
            }
        }
        return (segments, links_scanned);
    }
    if let [arc] = arcs {
        // One arc: the relation run is already in insertion order.
        let (run, _) = network.ranked_links_by(task.node, arc.relation);
        arrivals.reserve(run.len());
        for link in run {
            arrivals.push(PropArrival {
                node: link.destination,
                state: arc.next,
                value: func.apply(task.value, link.weight),
            });
        }
        return (segments, links_scanned);
    }
    // Merge the per-arc runs back into scan order: ascending
    // (insertion rank, arc index). Duplicate-relation arcs share ranks
    // and tie-break on arc index, exactly like the scan's inner loop.
    let mut runs = [(&[] as &[snap_kb::Link], &[] as &[u32]); MAX_MERGE_ARCS];
    let mut cursors = [0usize; MAX_MERGE_ARCS];
    let mut total = 0;
    for (slot, arc) in runs.iter_mut().zip(arcs) {
        *slot = network.ranked_links_by(task.node, arc.relation);
        total += slot.0.len();
    }
    arrivals.reserve(total);
    loop {
        let mut best: Option<(u32, usize)> = None;
        for (a, (_, ranks)) in runs[..arcs.len()].iter().enumerate() {
            if let Some(&rank) = ranks.get(cursors[a]) {
                if best.is_none_or(|b| (rank, a) < b) {
                    best = Some((rank, a));
                }
            }
        }
        let Some((_, a)) = best else { break };
        let link = &runs[a].0[cursors[a]];
        cursors[a] += 1;
        arrivals.push(PropArrival {
            node: link.destination,
            state: arcs[a].next,
            value: func.apply(task.value, link.weight),
        });
    }
    (segments, links_scanned)
}

/// Node count up to which [`VisitedMap::for_nodes`] picks the dense
/// backing (8 bytes per node per visited `(prop, state)` pair).
const DENSE_NODE_CAP: usize = 1 << 20;

/// Sentinel origin marking an untouched dense slot (no real node carries
/// `NodeId(u32::MAX)` — capacity checks cap IDs far below it).
const EMPTY_ORIGIN: u32 = u32::MAX;

/// Per-propagation visited map controlling (re-)expansion.
///
/// Records the best `(value, origin)` expanded from each
/// `(prop, state, node)`; a task is worth expanding only on the first
/// visit or when it improves that pair lexicographically (smaller value
/// beyond epsilon, or equal value with a smaller origin ID). Matching
/// the [`crate::Region::arrive`] merge rule keeps the propagation fixed
/// point independent of arrival order.
///
/// Two backings implement identical decisions: dense per-`(prop, state)`
/// arrays indexed by node (one probe, no hashing) and a hash map keyed
/// by `(prop, state, node)` (memory proportional to the active set).
/// Engines take [`VisitedMap::for_nodes`], which picks from the node
/// count; [`VisitedMap::new`] is the hashed map itself — the fallback
/// for node spaces too large to allocate flat, and the reference the
/// dense backing is tested against.
#[derive(Debug)]
pub struct VisitedMap {
    backing: Backing,
    visited: usize,
}

#[derive(Debug)]
enum Backing {
    Hashed(HashMap<(usize, u8, NodeId), (f32, NodeId)>),
    Dense {
        /// `tables[prop * MAX_RULE_STATES + state]`, allocated lazily on
        /// the first visit of each `(prop, state)` pair and grown on
        /// demand when maintenance adds nodes mid-run.
        tables: Vec<Option<Vec<(f32, u32)>>>,
        nodes: usize,
    },
}

impl Default for VisitedMap {
    fn default() -> Self {
        Self::new()
    }
}

impl VisitedMap {
    /// Creates an empty hash-backed map (one per propagation phase).
    pub fn new() -> Self {
        VisitedMap {
            backing: Backing::Hashed(HashMap::new()),
            visited: 0,
        }
    }

    /// Creates an empty dense-backed map for a network of `nodes` nodes.
    pub fn dense(nodes: usize) -> Self {
        VisitedMap {
            backing: Backing::Dense {
                tables: Vec::new(),
                nodes,
            },
            visited: 0,
        }
    }

    /// Creates the map an engine uses for a network of `nodes` nodes:
    /// dense up to 2^20 nodes, hashed for node spaces too large to
    /// allocate flat per visited rule state.
    pub fn for_nodes(nodes: usize) -> Self {
        if nodes <= DENSE_NODE_CAP {
            Self::dense(nodes)
        } else {
            Self::new()
        }
    }

    /// Returns `true` — and records the pair — if `(prop, state, node)`
    /// has not been expanded yet or `(value, origin)` improves on the
    /// recorded pair.
    pub fn should_expand(
        &mut self,
        prop: usize,
        state: u8,
        node: NodeId,
        value: f32,
        origin: NodeId,
    ) -> bool {
        match &mut self.backing {
            Backing::Hashed(best) => match best.get_mut(&(prop, state, node)) {
                None => {
                    best.insert((prop, state, node), (value, origin));
                    self.visited += 1;
                    true
                }
                Some(best) => {
                    if improves(*best, value, origin) {
                        *best = (value.min(best.0), origin);
                        true
                    } else {
                        false
                    }
                }
            },
            Backing::Dense { tables, nodes } => {
                let idx = prop * MAX_RULE_STATES + state as usize;
                if idx >= tables.len() {
                    tables.resize(idx + 1, None);
                }
                let size = (*nodes).max(node.index() + 1);
                let table = tables[idx].get_or_insert_with(Vec::new);
                if table.len() < size {
                    table.resize(size, (0.0, EMPTY_ORIGIN));
                }
                let (best, best_origin) = &mut table[node.index()];
                if *best_origin == EMPTY_ORIGIN {
                    *best = value;
                    *best_origin = origin.0;
                    self.visited += 1;
                    true
                } else if improves((*best, NodeId(*best_origin)), value, origin) {
                    *best = value.min(*best);
                    *best_origin = origin.0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Resets the map in place for reuse by the next propagation phase,
    /// keeping backing allocations at capacity. Decisions after a reset
    /// are identical to a freshly constructed map: the hashed backing
    /// clears its entries; the dense backing truncates each table (the
    /// first probe re-fills it with the untouched sentinel).
    pub fn reset(&mut self) {
        match &mut self.backing {
            Backing::Hashed(best) => best.clear(),
            Backing::Dense { tables, .. } => {
                for table in tables.iter_mut().flatten() {
                    table.clear();
                }
            }
        }
        self.visited = 0;
    }

    /// Number of distinct `(prop, state, node)` sites expanded.
    pub fn len(&self) -> usize {
        self.visited
    }

    /// `true` if nothing has been expanded.
    pub fn is_empty(&self) -> bool {
        self.visited == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::PropRule;
    use snap_kb::{Color, NetworkConfig, RelationType};

    fn diamond() -> SemanticNetwork {
        // 0 --a(1.0)--> 1 --a(2.0)--> 3
        // 0 --a(5.0)--> 2 --a(1.0)--> 3
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for _ in 0..4 {
            net.add_node(Color(0)).unwrap();
        }
        let a = RelationType(1);
        net.add_link(NodeId(0), a, 1.0, NodeId(1)).unwrap();
        net.add_link(NodeId(0), a, 5.0, NodeId(2)).unwrap();
        net.add_link(NodeId(1), a, 2.0, NodeId(3)).unwrap();
        net.add_link(NodeId(2), a, 1.0, NodeId(3)).unwrap();
        net
    }

    #[test]
    fn expand_follows_rule_arcs() {
        let net = diamond();
        let rule = PropRule::Star(RelationType(1)).compile();
        let task = PropTask {
            prop: 0,
            node: NodeId(0),
            state: 0,
            value: 0.0,
            origin: NodeId(0),
            level: 0,
        };
        let exp = expand(&net, &rule, StepFunc::AddWeight, &task);
        assert_eq!(exp.arrivals.len(), 2);
        assert_eq!(exp.arrivals[0].node, NodeId(1));
        assert_eq!(exp.arrivals[0].value, 1.0);
        assert_eq!(exp.arrivals[1].value, 5.0);
        assert_eq!(exp.links_scanned, 2);
        assert_eq!(exp.segments, 1);
    }

    #[test]
    fn expand_ignores_nonmatching_relations() {
        let mut net = diamond();
        net.add_link(NodeId(0), RelationType(9), 1.0, NodeId(3))
            .unwrap();
        let rule = PropRule::Star(RelationType(1)).compile();
        let task = PropTask {
            prop: 0,
            node: NodeId(0),
            state: 0,
            value: 0.0,
            origin: NodeId(0),
            level: 0,
        };
        let exp = expand(&net, &rule, StepFunc::AddWeight, &task);
        assert_eq!(exp.arrivals.len(), 2, "r9 link not traversed");
        assert_eq!(exp.links_scanned, 3, "but it was scanned");
    }

    #[test]
    fn terminal_state_stops() {
        let net = diamond();
        let rule = PropRule::Once(RelationType(1)).compile();
        let task = PropTask {
            prop: 0,
            node: NodeId(1),
            state: 1, // terminal state of once()
            value: 0.0,
            origin: NodeId(0),
            level: 1,
        };
        let exp = expand(&net, &rule, StepFunc::AddWeight, &task);
        assert!(exp.arrivals.is_empty());
    }

    fn exercise_visited(mut v: VisitedMap) {
        let o = NodeId(7);
        assert!(v.should_expand(0, 0, NodeId(3), 5.0, o));
        assert!(!v.should_expand(0, 0, NodeId(3), 5.0, o));
        assert!(!v.should_expand(0, 0, NodeId(3), 6.0, o));
        assert!(v.should_expand(0, 0, NodeId(3), 3.0, o));
        // Equal value with a smaller origin re-expands (binding update).
        assert!(v.should_expand(0, 0, NodeId(3), 3.0, NodeId(2)));
        assert!(!v.should_expand(0, 0, NodeId(3), 3.0, NodeId(5)));
        // Distinct states and propagations are independent.
        assert!(v.should_expand(0, 1, NodeId(3), 9.0, o));
        assert!(v.should_expand(1, 0, NodeId(3), 9.0, o));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn visited_map_permits_improvements_only() {
        exercise_visited(VisitedMap::new());
    }

    #[test]
    fn dense_visited_map_decides_identically() {
        exercise_visited(VisitedMap::dense(8));
    }

    #[test]
    fn for_nodes_decides_identically_on_both_sides_of_the_dense_cap() {
        // The node count picks the backing, never the decisions.
        let small = VisitedMap::for_nodes(64);
        let large = VisitedMap::for_nodes(DENSE_NODE_CAP + 1);
        assert!(matches!(small.backing, Backing::Dense { .. }));
        assert!(matches!(large.backing, Backing::Hashed(_)));
        exercise_visited(small);
        exercise_visited(large);
    }

    #[test]
    fn dense_visited_map_grows_past_declared_node_count() {
        // Maintenance can add nodes after an engine snapshots the count.
        let mut v = VisitedMap::dense(2);
        assert!(v.should_expand(0, 0, NodeId(900), 1.0, NodeId(0)));
        assert!(!v.should_expand(0, 0, NodeId(900), 1.0, NodeId(0)));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn reset_restores_fresh_decisions_on_every_backing() {
        for mut v in [VisitedMap::new(), VisitedMap::dense(8)] {
            // Drive one full decision sequence, reset, and verify the
            // exact same sequence replays as if the map were fresh —
            // including growth past the declared node count.
            for _ in 0..2 {
                exercise_visited_in_place(&mut v);
                assert!(v.should_expand(2, 0, NodeId(500), 1.0, NodeId(0)));
                v.reset();
                assert!(v.is_empty());
            }
        }
    }

    fn exercise_visited_in_place(v: &mut VisitedMap) {
        let o = NodeId(7);
        assert!(v.should_expand(0, 0, NodeId(3), 5.0, o));
        assert!(!v.should_expand(0, 0, NodeId(3), 5.0, o));
        assert!(v.should_expand(0, 0, NodeId(3), 3.0, o));
        assert!(v.should_expand(0, 0, NodeId(3), 3.0, NodeId(2)));
        assert!(!v.should_expand(0, 0, NodeId(3), 3.0, NodeId(5)));
        assert!(v.should_expand(0, 1, NodeId(3), 9.0, o));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn expand_into_reuses_buffer_and_matches_expand() {
        let net = diamond();
        let rule = PropRule::Star(RelationType(1)).compile();
        let mut buf = vec![PropArrival {
            node: NodeId(9),
            state: 7,
            value: -1.0,
        }];
        for node in 0..4u32 {
            let task = PropTask {
                prop: 0,
                node: NodeId(node),
                state: 0,
                value: 0.5,
                origin: NodeId(0),
                level: 0,
            };
            let exp = expand(&net, &rule, StepFunc::AddWeight, &task);
            let (segments, scanned) =
                expand_into(&net, &rule, StepFunc::AddWeight, &task, &mut buf);
            assert_eq!(buf, exp.arrivals, "buffer is cleared then refilled");
            assert_eq!(segments, exp.segments);
            assert_eq!(scanned, exp.links_scanned);
        }
    }

    #[test]
    fn multi_arc_expansion_keeps_scan_order() {
        // Interleave relations so the merged runs must be reordered by
        // insertion rank to match the historical full-scan order.
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for _ in 0..8 {
            net.add_node(Color(0)).unwrap();
        }
        let (r1, r2) = (RelationType(1), RelationType(2));
        net.add_link(NodeId(0), r2, 1.0, NodeId(4)).unwrap();
        net.add_link(NodeId(0), r1, 1.0, NodeId(5)).unwrap();
        net.add_link(NodeId(0), r2, 1.0, NodeId(6)).unwrap();
        net.add_link(NodeId(0), r1, 1.0, NodeId(7)).unwrap();
        net.flush_links();
        let rule = PropRule::Spread(r1, r2).compile();
        let task = PropTask {
            prop: 0,
            node: NodeId(0),
            state: 0,
            value: 0.0,
            origin: NodeId(0),
            level: 0,
        };
        let exp = expand(&net, &rule, StepFunc::AddWeight, &task);
        let order: Vec<u32> = exp.arrivals.iter().map(|a| a.node.0).collect();
        assert_eq!(order, vec![4, 5, 6, 7], "insertion order, not run order");
        assert_eq!(exp.links_scanned, 4);
    }
}
