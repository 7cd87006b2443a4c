//! Question answering over parsed events.
//!
//! The point of the MUC-4 task is information extraction: after the
//! memory-based parser accepts an event's concept sequence, downstream
//! components query the knowledge base about it ("who was the agent?",
//! "what kind of target?"). This module compiles such role queries to
//! marker programs — the same inferencing machinery the paper's
//! applications are built from — and interprets the collected results.

use crate::kb::{color, rel};
use crate::parser::EventTemplate;
use snap_core::{CollectOutput, CoreError, Snap1};
use snap_isa::{CombineFunc, Program, PropRule, StepFunc};
use snap_kb::{Marker, NodeId, SemanticNetwork};

/// The interpreted answer to one role of a template.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleAnswer {
    /// The element node queried.
    pub element: NodeId,
    /// Word-level answers (mentioned concepts or vocabulary), with the
    /// subsumption cost from the role's category, cheapest first.
    pub answers: Vec<(NodeId, f32)>,
}

/// Answers every role of an extracted [`EventTemplate`]: which concepts
/// can fill each element of the accepted sequence, restricted to the
/// `mentioned` concepts (e.g. the sentence's word nodes) unless that is
/// empty. Role `i` asks about the root's `i`-th `has-elem` element; a
/// role past the sequence's last element has no answer.
///
/// Each role is one marker program:
///
/// 1. mark the element and walk `filler → subsumes*` to reach every
///    concept that can fill the role;
/// 2. mark the mentioned concepts;
/// 3. intersect and collect.
///
/// # Errors
///
/// Returns [`CoreError`] if a query program fails.
///
/// # Panics
///
/// Panics if `mentioned` holds more than 32 concepts (marker budget for
/// the seed phase).
pub fn answer_template(
    network: &mut SemanticNetwork,
    machine: &Snap1,
    template: &EventTemplate,
    mentioned: &[NodeId],
) -> Result<Vec<RoleAnswer>, CoreError> {
    assert!(mentioned.len() <= 32, "too many mentioned concepts");
    let elements: Vec<NodeId> = network
        .links_by(template.root, rel::HAS_ELEM)
        .take(template.roles.len())
        .map(|l| l.destination)
        .collect();
    elements
        .into_iter()
        .map(|element| answer_role(network, machine, element, mentioned))
        .collect()
}

/// Runs the role program of `element` on `machine` and keeps the
/// word-level concepts it collects.
fn answer_role(
    network: &mut SemanticNetwork,
    machine: &Snap1,
    element: NodeId,
    mentioned: &[NodeId],
) -> Result<RoleAnswer, CoreError> {
    let seed = Marker::binary(0);
    let reach = Marker::complex(1);
    let mention = Marker::binary(2);
    let answer = Marker::complex(3);
    let mut b = Program::builder()
        .clear_marker(seed)
        .clear_marker(reach)
        .clear_marker(mention)
        .clear_marker(answer)
        .search_node(element, seed, 0.0)
        // filler → category, then the subsumption closure downward.
        .propagate(
            seed,
            reach,
            PropRule::Spread(rel::FILLER, rel::SUBSUMES),
            StepFunc::AddWeight,
        );
    if mentioned.is_empty() {
        b = b.or_marker(reach, reach, answer, CombineFunc::Left);
    } else {
        for &node in mentioned {
            b = b.search_node(node, mention, 0.0);
        }
        b = b.and_marker(reach, mention, answer, CombineFunc::Left);
    }
    let report = machine.run(network, &b.collect_marker(answer).build())?;
    let CollectOutput::Nodes(nodes) = &report.collects[0] else {
        unreachable!("collect-marker returns nodes");
    };
    let mut answers: Vec<(NodeId, f32)> = nodes
        .iter()
        .filter(|(n, _)| network.color(*n).is_ok_and(|c| c == color::WORD))
        .map(|(n, v)| (*n, v.map_or(0.0, |v| v.value)))
        .collect();
    answers.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    Ok(RoleAnswer { element, answers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::DomainSpec;
    use crate::parser::MemoryBasedParser;
    use crate::sentence::SentenceGenerator;
    use snap_core::EngineKind;

    fn machine() -> Snap1 {
        Snap1::builder().clusters(4).engine(EngineKind::Des).build()
    }

    #[test]
    fn role_query_finds_fillers() {
        let mut kb = DomainSpec::sized(1_500).build().unwrap();
        let seq = kb.sequences[0].clone();
        let template = MemoryBasedParser::extract_template(&kb.network, seq.root);
        let answers = answer_template(&mut kb.network, &machine(), &template, &[]).unwrap();
        assert_eq!(answers.len(), template.roles.len());
        let first = &answers[0];
        assert!(!first.answers.is_empty(), "role has vocabulary fillers");
        // Every answer is a word subsumed (transitively) by the element's
        // constraining category.
        for (node, _) in &first.answers {
            assert_eq!(kb.network.color(*node).unwrap(), color::WORD);
        }
    }

    #[test]
    fn mentioned_restriction_filters_answers() {
        let mut kb = DomainSpec::sized(1_500).build().unwrap();
        let kb_ro = kb.clone();
        let mut generator = SentenceGenerator::new(&kb_ro, 31);
        let sentence = generator.generate(9);
        let parser = MemoryBasedParser::new(&kb_ro);
        let result = parser
            .parse(&mut kb.network, &machine(), &sentence)
            .unwrap();
        let template = result.templates[0].as_ref().expect("winning template");
        let mentioned: Vec<NodeId> = sentence
            .words
            .iter()
            .filter_map(|w| kb_ro.word(w))
            .collect();
        let answers = answer_template(&mut kb.network, &machine(), template, &mentioned).unwrap();
        assert_eq!(answers.len(), template.roles.len());
        // Restricted answers only contain mentioned concepts, and at
        // least one role is answered by a sentence word.
        let total: usize = answers.iter().map(|a| a.answers.len()).sum();
        assert!(total > 0, "some role answered from the sentence");
        for a in &answers {
            for (node, _) in &a.answers {
                assert!(mentioned.contains(node));
            }
        }
    }

    #[test]
    fn out_of_range_element_is_none() {
        let mut kb = DomainSpec::sized(1_000).build().unwrap();
        let seq = kb.sequences[0].clone();
        let mut template = MemoryBasedParser::extract_template(&kb.network, seq.root);
        let elements = template.roles.len();
        // Roles past the sequence's last element have no answer.
        let extra = template.roles[0].clone();
        template.roles.extend(std::iter::repeat_n(extra, 99));
        let answers = answer_template(&mut kb.network, &machine(), &template, &[]).unwrap();
        assert_eq!(answers.len(), elements);
    }
}
