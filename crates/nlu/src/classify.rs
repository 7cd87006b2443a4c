//! Concept classification: find the concepts satisfying a feature set.
//!
//! Classification was one of the applications used to validate the SNAP
//! instruction set: markers propagate down from each feature category
//! and the concepts reached by **every** feature marker are the
//! classification result (a global set intersection — `AND-MARKER` —
//! after the propagation phase).

use crate::kb::rel;
use snap_isa::{CombineFunc, Program, PropRule, StepFunc};
use snap_kb::{Marker, NodeId};

/// Maximum features per classification query (marker budget).
pub const MAX_FEATURES: usize = 16;

/// Builds the classification program for the given feature categories:
/// concepts subsumed by all of them are collected with their total
/// subsumption cost.
///
/// The program is written in plan order — clears, then seeds, then the
/// k feature propagations back to back — so the controller overlaps
/// the propagations as one β group closed by one barrier.
///
/// # Panics
///
/// Panics if `features` is empty or longer than [`MAX_FEATURES`].
pub fn classification_program(features: &[NodeId]) -> Program {
    assert!(
        !features.is_empty() && features.len() <= MAX_FEATURES,
        "1..={MAX_FEATURES} features required"
    );
    // One marker pair per feature: its seed and what it reaches.
    let seed = |i: usize| Marker::binary(i as u8);
    let reach = |i: usize| Marker::complex(i as u8);
    let mut b = Program::builder();
    // Configuration.
    for i in 0..features.len() {
        b = b.clear_marker(seed(i)).clear_marker(reach(i));
    }
    for (i, &feature) in features.iter().enumerate() {
        b = b.search_node(feature, seed(i), 0.0);
    }
    // Propagation: independent feature walks, one overlapped group.
    for i in 0..features.len() {
        b = b.propagate(
            seed(i),
            reach(i),
            PropRule::Star(rel::SUBSUMES),
            StepFunc::AddWeight,
        );
    }
    // Accumulation: intersect all reach sets.
    let result = Marker::complex(60);
    b = b.clear_marker(result);
    if features.len() == 1 {
        b = b.or_marker(reach(0), reach(0), result, CombineFunc::Left);
    } else {
        b = b.and_marker(reach(0), reach(1), result, CombineFunc::Add);
        for i in 2..features.len() {
            b = b.and_marker(result, reach(i), result, CombineFunc::Add);
        }
    }
    b.collect_marker(result).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inheritance::hierarchy;
    use crate::kb::{color, DomainSpec};
    use snap_core::{EngineKind, Snap1};
    use snap_kb::SemanticNetwork;

    fn machine() -> Snap1 {
        Snap1::builder().clusters(4).engine(EngineKind::Des).build()
    }

    fn descendants(net: &SemanticNetwork, from: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for l in net.links_by(n, rel::SUBSUMES) {
                out.push(l.destination);
                stack.push(l.destination);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn intersection_of_two_feature_subtrees() {
        let mut w = hierarchy(50, 3).unwrap();
        // Features: two siblings → their subtrees are disjoint, so
        // classifying on both yields nothing; classifying on an
        // ancestor/descendant pair yields the descendant's subtree.
        let net = &w.network;
        let child = net
            .links_by(w.root, rel::SUBSUMES)
            .next()
            .unwrap()
            .destination;
        let expected = descendants(net, child);
        let program = classification_program(&[w.root, child]);
        let report = machine().run(&mut w.network, &program).unwrap();
        assert_eq!(report.collects[0].node_ids(), expected);
    }

    #[test]
    fn disjoint_features_classify_to_nothing() {
        let mut w = hierarchy(50, 3).unwrap();
        let siblings: Vec<NodeId> = w
            .network
            .links_by(w.root, rel::SUBSUMES)
            .map(|l| l.destination)
            .collect();
        let program = classification_program(&[siblings[0], siblings[1]]);
        let report = machine().run(&mut w.network, &program).unwrap();
        assert!(report.collects[0].is_empty());
    }

    #[test]
    fn classification_over_domain_kb_finds_words() {
        let mut kb = DomainSpec::sized(1500).build().unwrap();
        // Classify on a leaf category: every word it subsumes appears.
        let leaf = kb.leaves[0];
        let program = classification_program(&[leaf]);
        let report = machine().run(&mut kb.network, &program).unwrap();
        let ids = report.collects[0].node_ids();
        for id in &ids {
            let c = kb.network.color(*id).unwrap();
            assert!(c == color::WORD || c == color::CATEGORY || c == color::LEAF_CATEGORY);
        }
    }

    #[test]
    fn feature_propagations_plan_as_one_group() {
        let mut w = hierarchy(400, 3).unwrap();
        let children: Vec<NodeId> = w
            .network
            .links_by(w.root, rel::SUBSUMES)
            .map(|l| l.destination)
            .collect();
        let features = [w.root, children[0], children[1]];
        let program = classification_program(&features);
        let report = machine().run(&mut w.network, &program).unwrap();
        assert_eq!(report.barriers, 1, "one barrier closes the group");
        assert_eq!(report.alpha_per_propagate.len(), features.len());
    }

    #[test]
    #[should_panic(expected = "features required")]
    fn empty_features_rejected() {
        classification_program(&[]);
    }
}
