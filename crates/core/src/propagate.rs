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
use snap_isa::{RuleProgram, StepFunc, MAX_RULE_ARCS, MAX_RULE_STATES};
use snap_kb::{Bitmap, NodeId, SemanticNetwork, BITMAP_WORD_BITS};

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

impl crate::envelope::Fingerprint for PropTask {
    fn fingerprint(&self) -> u64 {
        use crate::envelope::mix64;
        mix64(self.prop as u64 ^ (u64::from(self.node.0) << 20))
            ^ mix64(u64::from(self.state) | (u64::from(self.value.to_bits()) << 8))
            ^ mix64(u64::from(self.origin.0) | (u64::from(self.level) << 40))
    }
}

impl crate::envelope::Corruptible for PropTask {
    fn corrupt(&mut self, salt: u64) {
        // Flip value bits (|1 guarantees a change) and smear the rule
        // state: enough to invalidate the envelope checksum whatever the
        // payload was.
        self.value = f32::from_bits(self.value.to_bits() ^ ((salt as u32) | 1));
        self.state ^= (salt >> 32) as u8;
    }
}

/// Expands `task` one step into a caller-provided arrival buffer (cleared
/// first), returning the `(segments, links_scanned)` cost units: for each
/// arc live in the task's rule state, traverse the matching relation
/// links and apply the step function.
///
/// Arrivals are produced via the relation table's per-`(node, relation)`
/// runs — O(arcs · matching links) instead of the historical
/// O(links · arcs) cross-product scan — but in the *exact* order the scan
/// produced: ascending `(link insertion rank, arc index)`. Engines depend
/// on that order for reproducible scheduling, so a single-arc state reads
/// its run directly and multi-arc states merge their runs by rank (at
/// most [`MAX_RULE_ARCS`] of them, which `RuleProgram` enforces). The
/// cost units are unchanged by construction: the hardware fetches every
/// relation slot of the node regardless of how many match, so
/// `links_scanned` stays the node's full fanout and `segments` the
/// segment-chain length.
///
/// # Panics
///
/// Panics if `network` has staged links: the runs see only flushed ones,
/// and every engine flushes at entry and after each maintenance
/// instruction.
pub fn expand_into(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    task: &PropTask,
    arrivals: &mut Vec<PropArrival>,
) -> (usize, usize) {
    assert_eq!(
        network.staged_link_count(),
        0,
        "expansion needs a flushed relation table"
    );
    arrivals.clear();
    let state = rule.state(task.state);
    if state.is_terminal() {
        return (0, 0);
    }
    let segments = network.segments(task.node);
    let links_scanned = network.fanout(task.node);
    let arcs = state.arcs();
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
    let mut runs = [(&[] as &[snap_kb::Link], &[] as &[u32]); MAX_RULE_ARCS];
    let mut cursors = [0usize; MAX_RULE_ARCS];
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

/// Visited tables controlling (re-)expansion within one propagation
/// phase.
///
/// Records the best `(value, origin)` expanded from each
/// `(prop, state, node)`; a task is worth expanding only on the first
/// visit or when it improves that pair lexicographically (smaller value
/// beyond epsilon, or equal value with a smaller origin ID). Matching
/// the [`crate::Region::arrive`] merge rule keeps the propagation fixed
/// point independent of arrival order.
///
/// One table per `(prop, state)` key, created on the key's first visit:
/// a seen-[`Bitmap`] over the node arena and a flat `(value, origin)`
/// array read only behind a set seen bit, so a first visit is one bit
/// test and the array is never zeroed. [`VisitedMap::reset`] only
/// advances a phase counter; a table is armed — its seen words cleared,
/// nothing else — by the first probe of a later phase, so a phase pays
/// for the tables it touches and nothing for the rest. Tables grow past
/// the declared node count on demand (maintenance can add nodes after
/// an engine takes the count). Every engine, the wave kernel and the
/// CM-2 comparator decide through this one table.
#[derive(Debug)]
pub struct VisitedMap {
    /// `tables[prop * MAX_RULE_STATES + state]`.
    tables: Vec<VisitedTable>,
    /// Node slots a table is sized for when armed.
    nodes: usize,
    /// Current phase; a table armed in an earlier one is stale.
    phase: u64,
    visited: usize,
}

#[derive(Debug, Default)]
struct VisitedTable {
    seen: Bitmap,
    /// Valid behind a set `seen` bit only, so never cleared.
    best: Vec<(f32, NodeId)>,
    /// Phase the table was last armed in (0: never — phases start at 1).
    armed: u64,
}

impl VisitedTable {
    /// Clears every seen word — bits past `nodes` included, the growth
    /// path may have set them — and sizes the table for `nodes` slots.
    fn arm(&mut self, nodes: usize, phase: u64) {
        if self.seen.words().len() * BITMAP_WORD_BITS < nodes {
            self.seen = Bitmap::new(nodes);
        } else {
            self.seen.clear_all();
        }
        if self.best.len() < nodes {
            self.best.resize(nodes, (0.0, NodeId(0)));
        }
        self.armed = phase;
    }
}

impl Default for VisitedMap {
    fn default() -> Self {
        Self::dense(0)
    }
}

impl VisitedMap {
    /// Creates an empty map whose tables are sized for `nodes` nodes.
    pub fn dense(nodes: usize) -> Self {
        VisitedMap {
            tables: Vec::new(),
            nodes,
            phase: 1,
            visited: 0,
        }
    }

    /// Returns `true` — and records the pair — if `(prop, state, node)`
    /// has not been expanded yet or `(value, origin)` improves on the
    /// recorded pair.
    #[inline]
    pub fn should_expand(
        &mut self,
        prop: usize,
        state: u8,
        node: NodeId,
        value: f32,
        origin: NodeId,
    ) -> bool {
        let key = prop * MAX_RULE_STATES + state as usize;
        let i = node.index();
        let ready = matches!(self.tables.get(key),
            Some(table) if table.armed == self.phase && i < table.best.len());
        if !ready {
            self.prepare(key, i);
        }
        let table = &mut self.tables[key];
        if table.seen.set(node) {
            table.best[i] = (value, origin);
            self.visited += 1;
            return true;
        }
        let slot = &mut table.best[i];
        if improves(*slot, value, origin) {
            *slot = (value.min(slot.0), origin);
            true
        } else {
            false
        }
    }

    /// A probe's slow path: creates `key`'s table, arms it for this
    /// phase and grows it to cover node slot `i`, as needed.
    #[cold]
    #[inline(never)]
    fn prepare(&mut self, key: usize, i: usize) {
        if key >= self.tables.len() {
            self.tables.resize_with(key + 1, VisitedTable::default);
        }
        let table = &mut self.tables[key];
        if table.armed != self.phase {
            table.arm(self.nodes, self.phase);
        }
        if i >= table.best.len() {
            table.best.resize(i + 1, (0.0, NodeId(0)));
        }
    }

    /// Starts the next propagation phase in place. Decisions after a
    /// reset are identical to a freshly constructed map's; the tables
    /// keep their allocations and are cleared when next touched.
    pub fn reset(&mut self) {
        self.phase += 1;
        self.visited = 0;
    }

    /// [`VisitedMap::reset`] for a phase over `nodes` node slots (one
    /// pooled map serves any sequence of networks).
    pub(crate) fn reset_for(&mut self, nodes: usize) {
        self.nodes = nodes;
        self.reset();
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

/// The two implementations the library's propagation replaced, kept as
/// executable specifications the way `snap-kb` keeps its nested relation
/// table: the cross-product scan [`expand_into`] must reproduce and the
/// hashed visited map [`VisitedMap`] must decide like. `kernel.rs`'s
/// scalar spec — the one executable spec for `PROPAGATE` — runs on both,
/// so the wave kernel is never checked against its own expansion or its
/// own table.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use snap_isa::{PropRule, RuleArc, RuleState};
    use snap_kb::{Color, NetworkConfig, RelationType};
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    /// The historical expansion: every link of the node × every arc of
    /// the state, in that nesting — the order [`expand_into`] keeps.
    pub(crate) fn scan_into(
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
        for link in network.links(task.node) {
            for arc in state.arcs() {
                if link.relation == arc.relation {
                    arrivals.push(PropArrival {
                        node: link.destination,
                        state: arc.next,
                        value: func.apply(task.value, link.weight),
                    });
                }
            }
        }
        (network.segments(task.node), network.fanout(task.node))
    }

    /// The historical visited map: one hash entry per
    /// `(prop, state, node)` ever expanded.
    #[derive(Debug, Default)]
    pub(crate) struct HashedVisited(HashMap<(usize, u8, NodeId), (f32, NodeId)>);

    impl HashedVisited {
        pub(crate) fn should_expand(
            &mut self,
            prop: usize,
            state: u8,
            node: NodeId,
            value: f32,
            origin: NodeId,
        ) -> bool {
            match self.0.entry((prop, state, node)) {
                Entry::Vacant(slot) => {
                    slot.insert((value, origin));
                    true
                }
                Entry::Occupied(mut slot) => {
                    let best = slot.get_mut();
                    let better = improves(*best, value, origin);
                    if better {
                        *best = (value.min(best.0), origin);
                    }
                    better
                }
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.0.len()
        }
    }

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
        net.flush_links();
        net
    }

    fn task_at(node: u32, state: u8) -> PropTask {
        PropTask {
            prop: 0,
            node: NodeId(node),
            state,
            value: 0.0,
            origin: NodeId(0),
            level: 0,
        }
    }

    /// [`expand_into`] into a fresh buffer.
    fn expand(
        net: &SemanticNetwork,
        rule: &RuleProgram,
        task: &PropTask,
    ) -> (Vec<PropArrival>, (usize, usize)) {
        let mut arrivals = Vec::new();
        let cost = expand_into(net, rule, StepFunc::AddWeight, task, &mut arrivals);
        (arrivals, cost)
    }

    #[test]
    fn expand_follows_rule_arcs() {
        let net = diamond();
        let rule = PropRule::Star(RelationType(1)).compile();
        let (arrivals, (segments, scanned)) = expand(&net, &rule, &task_at(0, 0));
        assert_eq!(arrivals.len(), 2);
        assert_eq!(arrivals[0].node, NodeId(1));
        assert_eq!(arrivals[0].value, 1.0);
        assert_eq!(arrivals[1].value, 5.0);
        assert_eq!((segments, scanned), (1, 2));
    }

    #[test]
    fn expand_ignores_nonmatching_relations() {
        let mut net = diamond();
        net.add_link(NodeId(0), RelationType(9), 1.0, NodeId(3))
            .unwrap();
        net.flush_links();
        let rule = PropRule::Star(RelationType(1)).compile();
        let (arrivals, (_, scanned)) = expand(&net, &rule, &task_at(0, 0));
        assert_eq!(arrivals.len(), 2, "r9 link not traversed");
        assert_eq!(scanned, 3, "but it was scanned");
    }

    #[test]
    fn terminal_state_stops() {
        let net = diamond();
        let rule = PropRule::Once(RelationType(1)).compile();
        // State 1 is once()'s terminal state.
        let (arrivals, cost) = expand(&net, &rule, &task_at(1, 1));
        assert!(arrivals.is_empty());
        assert_eq!(cost, (0, 0));
    }

    #[test]
    #[should_panic(expected = "flushed relation table")]
    fn expand_into_rejects_staged_links() {
        let mut net = diamond();
        net.add_link(NodeId(3), RelationType(1), 1.0, NodeId(0))
            .unwrap();
        let rule = PropRule::Star(RelationType(1)).compile();
        expand(&net, &rule, &task_at(0, 0));
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
                value: 0.5,
                ..task_at(node, 0)
            };
            let cost = expand_into(&net, &rule, StepFunc::AddWeight, &task, &mut buf);
            assert_eq!((buf.clone(), cost), expand(&net, &rule, &task));
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
        let (arrivals, (_, scanned)) = expand(&net, &rule, &task_at(0, 0));
        let order: Vec<u32> = arrivals.iter().map(|a| a.node.0).collect();
        assert_eq!(order, vec![4, 5, 6, 7], "insertion order, not run order");
        assert_eq!(scanned, 4);
    }

    proptest! {
        /// [`expand_into`] is the cross-product scan, arrival for
        /// arrival and cost unit for cost unit, on random flushed
        /// networks (adds, then removals that make the relation table
        /// rebuild its ranks) and rule states of 0 to 8 arcs over four
        /// relations — so arcs often share a relation, their runs tie on
        /// every rank, and each arc continues in its own state: a merge
        /// that lets the later arc win a tie fails here.
        #[test]
        fn prop_expand_into_matches_the_cross_product_scan(
            nodes in 1u32..24,
            links in proptest::collection::vec((0u32..24, 0u16..4, 0u8..3, 0u32..24), 0..160),
            removals in proptest::collection::vec(0usize..160, 0..12),
            arcs in proptest::collection::vec((0u16..4, 0u8..4), 0..=MAX_RULE_ARCS),
        ) {
            let mut net = SemanticNetwork::new(NetworkConfig::default());
            for _ in 0..nodes {
                net.add_node(Color(0)).unwrap();
            }
            let mut added = Vec::new();
            for (src, rel, w, dst) in links {
                let link = (NodeId(src % nodes), RelationType(rel), NodeId(dst % nodes));
                net.add_link(link.0, link.1, f32::from(w) * 0.5, link.2).unwrap();
                added.push(link);
            }
            for r in removals {
                if !added.is_empty() {
                    let (src, rel, dst) = added.swap_remove(r % added.len());
                    net.remove_link(src, rel, dst).unwrap();
                }
            }
            net.flush_links();
            let arcs = arcs.into_iter().map(|(rel, next)| RuleArc::new(RelationType(rel), next));
            let rule = RuleProgram::from_states(vec![
                RuleState::new(arcs.collect()),
                RuleState::terminal(),
                RuleState::terminal(),
                RuleState::terminal(),
            ]);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for node in 0..nodes {
                let task = PropTask { value: 0.25, ..task_at(node, 0) };
                let cost = expand_into(&net, &rule, StepFunc::AddWeight, &task, &mut got);
                let spec = scan_into(&net, &rule, StepFunc::AddWeight, &task, &mut want);
                prop_assert_eq!(&got, &want, "arrivals from node {}", node);
                prop_assert_eq!(cost, spec, "cost units of node {}", node);
            }
        }
    }

    fn exercise_visited(mut v: impl FnMut(usize, u8, u32, f32, u32) -> bool) {
        assert!(v(0, 0, 3, 5.0, 7));
        assert!(!v(0, 0, 3, 5.0, 7));
        assert!(!v(0, 0, 3, 6.0, 7));
        assert!(v(0, 0, 3, 3.0, 7));
        // Equal value with a smaller origin re-expands (binding update).
        assert!(v(0, 0, 3, 3.0, 2));
        assert!(!v(0, 0, 3, 3.0, 5));
        // Distinct states and propagations are independent.
        assert!(v(0, 1, 3, 9.0, 7));
        assert!(v(1, 0, 3, 9.0, 7));
        // Growth past the declared node count.
        assert!(v(2, 0, 900, 1.0, 0));
        assert!(!v(2, 0, 900, 1.0, 0));
    }

    #[test]
    fn visited_map_permits_improvements_only() {
        let mut v = VisitedMap::dense(8);
        exercise_visited(|p, s, n, x, o| v.should_expand(p, s, NodeId(n), x, NodeId(o)));
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn dense_visited_map_decides_identically() {
        // The same decision sequence on the hashed reference.
        let mut v = HashedVisited::default();
        exercise_visited(|p, s, n, x, o| v.should_expand(p, s, NodeId(n), x, NodeId(o)));
        assert_eq!(v.len(), 4);
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
        // Drive one full decision sequence, reset, and verify the exact
        // same sequence replays as if the map were fresh — including
        // the seen bits the growth path set past the declared count,
        // and for a map whose node count changes between phases.
        let mut v = VisitedMap::dense(8);
        for nodes in [8, 8, 1000, 4] {
            v.reset_for(nodes);
            assert!(v.is_empty());
            exercise_visited(|p, s, n, x, o| v.should_expand(p, s, NodeId(n), x, NodeId(o)));
            assert_eq!(v.len(), 4);
        }
    }

    proptest! {
        /// The table makes the same expand/suppress decision as the
        /// hashed reference on every probe, including nodes past the
        /// declared arena size (the growth path), exact value ties (the
        /// origin tie-break) and resets between phases (the lazy arming:
        /// a table not touched in one phase must still come back clean).
        #[test]
        fn dense_visited_agrees_with_hashed_reference(
            probes in proptest::collection::vec(
                (0usize..2, 0u8..8, 0u32..96, 0u32..40, 0u32..16, 0u8..24),
                1..200,
            ),
        ) {
            let mut dense = VisitedMap::dense(64);
            let mut hashed = HashedVisited::default();
            for (prop, state, node, quantum, origin, reset) in probes {
                if reset == 0 {
                    dense.reset();
                    hashed = HashedVisited::default();
                }
                // Coarse quantisation forces exact value ties so the
                // origin tie-break is exercised, not just improvements.
                let value = quantum as f32 * 0.25;
                let d = dense.should_expand(prop, state, NodeId(node), value, NodeId(origin));
                let h = hashed.should_expand(prop, state, NodeId(node), value, NodeId(origin));
                prop_assert_eq!(
                    d, h,
                    "probe (prop={}, state={}, node={}, value={}, origin={}) diverged",
                    prop, state, node, value, origin
                );
                prop_assert_eq!(dense.len(), hashed.len());
            }
        }
    }
}
