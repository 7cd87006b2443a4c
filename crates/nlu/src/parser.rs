//! The memory-based parser: compiling clauses to SNAP programs.
//!
//! Parsing on SNAP-1 works by passing markers through the knowledge
//! base: as input words are read, markers are set on the corresponding
//! lexical nodes, propagated upward through the semantic and syntactic
//! layers performing constraint checks, and the suitable concept
//! sequences are activated. After propagation, hypotheses with
//! incomplete support are removed by propagating **cancel markers** (the
//! multiple-hypothesis-resolution phase whose cost grows with knowledge
//! base size — Fig. 20), the surviving costs are thresholded, and the
//! winners are collected.

use crate::kb::{color, rel, LinguisticKb};
use crate::phrasal::{PhrasalParse, PhrasalParser};
use crate::sentence::Sentence;
use snap_core::{CollectOutput, CoreError, RunReport, SimTime, Snap1};
use snap_isa::{
    Cmp, CombineFunc, Program, PropRule, RuleArc, RuleProgram, RuleState, StepFunc, ValueFunc,
};
use snap_kb::{Marker, NodeId};

/// Maximum content phrases compiled per sentence (marker-register
/// budget).
pub const MAX_PHRASES: usize = 16;

/// Maximum clauses compiled per sentence.
pub const MAX_CLAUSES: usize = 8;

/// Hypotheses costlier than this are discarded during resolution.
pub const COST_THRESHOLD: f32 = 6.0;

/// The marker assignment used by compiled parse programs.
#[derive(Debug, Clone, Copy)]
struct Registers;

impl Registers {
    fn word(g: usize) -> Marker {
        Marker::binary(g as u8)
    }
    fn climb(g: usize) -> Marker {
        Marker::complex(g as u8)
    }
    fn root(g: usize) -> Marker {
        Marker::complex(16 + g as u8)
    }
    fn winner(c: usize) -> Marker {
        Marker::complex(40 + c as u8)
    }
    fn candidate(c: usize) -> Marker {
        Marker::complex(48 + c as u8)
    }
    fn cancel(c: usize) -> Marker {
        Marker::complex(56 + c as u8)
    }
    fn not_winner(c: usize) -> Marker {
        Marker::binary(32 + c as u8)
    }
    fn cancel_down(c: usize) -> Marker {
        Marker::binary(40 + c as u8)
    }
    fn fillers(c: usize) -> Marker {
        Marker::binary(48 + c as u8)
    }
}

/// A compiled parse: the SNAP program plus bookkeeping.
#[derive(Debug, Clone)]
pub struct ParsePlan {
    /// The compiled marker-propagation program.
    pub program: Program,
    /// Winner marker per clause (its `COLLECT-MARKER` output appears in
    /// the same order in the run report).
    pub winner_markers: Vec<Marker>,
    /// Content phrases compiled, per clause.
    pub phrases_per_clause: Vec<usize>,
}

/// One clause's accepted interpretations.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseResult {
    /// Accepted concept-sequence roots with their costs, cheapest first.
    pub winners: Vec<(NodeId, f32)>,
}

/// One role of an extracted event template: a concept-sequence element,
/// the category constraining it, and the concepts that can fill it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleFiller {
    /// The concept-sequence element node.
    pub element: NodeId,
    /// The category constraining the element (via the `filler` link).
    pub category: NodeId,
    /// Word-level concepts subsumed by the category, ascending.
    pub fillers: Vec<NodeId>,
}

/// An instantiated event template — the MUC-4-style extraction output
/// for one accepted concept sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTemplate {
    /// The accepted concept-sequence root.
    pub root: NodeId,
    /// One entry per sequence element, in element order.
    pub roles: Vec<RoleFiller>,
}

/// A full parse result.
#[derive(Debug, Clone)]
pub struct ParseResult {
    /// Per-clause interpretations.
    pub clauses: Vec<ClauseResult>,
    /// The event template of each clause's best interpretation (host-side
    /// retrieval over the filler markers the program propagated).
    pub templates: Vec<Option<EventTemplate>>,
    /// Serial phrasal-parser time (KB-independent).
    pub pp_time_ns: SimTime,
    /// Memory-based parser time (the machine's simulated run time).
    pub mb_time_ns: SimTime,
    /// The machine's full measurement report.
    pub report: RunReport,
}

impl ParseResult {
    /// Total parse time: phrasal + memory-based.
    pub fn total_ns(&self) -> SimTime {
        self.pp_time_ns + self.mb_time_ns
    }
}

/// The memory-based parser.
///
/// Owns its lexicon snapshot, so the knowledge base's network can be
/// borrowed mutably while parsing.
#[derive(Debug)]
pub struct MemoryBasedParser {
    lexicon: std::collections::HashMap<String, NodeId>,
    phrasal: PhrasalParser,
}

impl MemoryBasedParser {
    /// Creates a parser over `kb`.
    pub fn new(kb: &LinguisticKb) -> Self {
        MemoryBasedParser {
            lexicon: kb.lexicon.clone(),
            phrasal: PhrasalParser::new(kb),
        }
    }

    /// The phrasal front end.
    pub fn phrasal(&self) -> &PhrasalParser {
        &self.phrasal
    }

    /// Compiles the chunked sentence into a SNAP program.
    pub fn compile(&self, parse: &PhrasalParse) -> ParsePlan {
        // Sentences are processed incrementally, clause by clause, as
        // the words are read; within each clause the program follows the
        // paper's three phases — configuration (clears + searches),
        // propagation (the clause's climbs overlap, β-parallelism), and
        // accumulation/resolution.
        let mut winner_markers = Vec::new();
        let mut phrases_per_clause = Vec::new();
        let mut b = Program::builder();
        let mut g = 0usize; // global phrase register index

        for (c, clause) in parse.clauses.iter().take(MAX_CLAUSES).enumerate() {
            // Gather the clause's content phrases and their lexical nodes.
            let mut regs: Vec<usize> = Vec::new();
            let mut nodes_of: Vec<Vec<snap_kb::NodeId>> = Vec::new();
            for phrase in &clause.phrases {
                if g + regs.len() >= MAX_PHRASES {
                    break;
                }
                let nodes: Vec<snap_kb::NodeId> = phrase
                    .words
                    .iter()
                    .filter(|w| **w == phrase.head)
                    .filter_map(|w| self.lexicon.get(w).copied())
                    .collect();
                if nodes.is_empty() {
                    continue;
                }
                regs.push(g + regs.len());
                nodes_of.push(nodes);
            }
            if regs.is_empty() {
                continue;
            }
            g += regs.len();

            // ----- configuration phase -----
            for (&r, nodes) in regs.iter().zip(&nodes_of) {
                b = b
                    .clear_marker(Registers::word(r))
                    .clear_marker(Registers::climb(r))
                    .clear_marker(Registers::root(r));
                for &node in nodes {
                    b = b.search_node(node, Registers::word(r), 0.0);
                }
            }
            let winner = Registers::winner(c);
            let candidate = Registers::candidate(c);
            b = b
                .clear_marker(winner)
                .clear_marker(candidate)
                .clear_marker(Registers::cancel(c))
                .clear_marker(Registers::cancel_down(c))
                .clear_marker(Registers::fillers(c));

            // ----- propagation phase: the clause's climbs overlap -----
            for &r in &regs {
                b = b.propagate(
                    Registers::word(r),
                    Registers::climb(r),
                    PropRule::Spread(rel::IS_A, rel::ELEM_OF),
                    StepFunc::AddWeight,
                );
            }
            for &r in &regs {
                b = b.propagate(
                    Registers::climb(r),
                    Registers::root(r),
                    PropRule::Once(rel::PART_OF),
                    StepFunc::AddWeight,
                );
            }

            // ----- accumulation phase -----
            // Winners: roots supported by every phrase; candidates: any
            // partial activation.
            let first = Registers::root(regs[0]);
            if regs.len() == 1 {
                b = b.or_marker(first, first, winner, CombineFunc::Left);
            } else {
                b = b.and_marker(first, Registers::root(regs[1]), winner, CombineFunc::Add);
                for &j in &regs[2..] {
                    b = b.and_marker(winner, Registers::root(j), winner, CombineFunc::Add);
                }
            }
            b = b.or_marker(first, first, candidate, CombineFunc::Left);
            for &j in &regs[1..] {
                b = b.or_marker(candidate, Registers::root(j), candidate, CombineFunc::Add);
            }

            // Multiple-hypothesis resolution: cancel markers sweep down
            // through the elements and auxiliary storage of the losing
            // candidates, then the surviving costs are thresholded.
            b = b
                .not_marker(winner, Registers::not_winner(c))
                .and_marker(
                    candidate,
                    Registers::not_winner(c),
                    Registers::cancel(c),
                    CombineFunc::Left,
                )
                .propagate(
                    Registers::cancel(c),
                    Registers::cancel_down(c),
                    PropRule::Union(rel::HAS_ELEM, rel::AUX_OF),
                    StepFunc::Identity,
                )
                .func_marker(winner, ValueFunc::ClearIf(Cmp::Gt, COST_THRESHOLD));

            // Template extraction: from the accepted sequences, walk down
            // to each element, across to its filler category, and through
            // the subsumption closure to every concept that can
            // instantiate the role — the wide, data-parallel propagation
            // that fills the MUC-4 event template.
            b = b
                .propagate(
                    winner,
                    Registers::fillers(c),
                    PropRule::Custom(RuleProgram::from_states(vec![
                        RuleState::new(vec![RuleArc::new(rel::HAS_ELEM, 1)]),
                        RuleState::new(vec![RuleArc::new(rel::FILLER, 2)]),
                        RuleState::new(vec![RuleArc::new(rel::SUBSUMES, 2)]),
                    ])),
                    StepFunc::Identity,
                )
                .collect_marker(winner);
            winner_markers.push(winner);
            phrases_per_clause.push(regs.len());
        }
        ParsePlan {
            program: b.build(),
            winner_markers,
            phrases_per_clause,
        }
    }

    /// Extracts the event template of an accepted concept sequence by
    /// reading the network the filler markers were propagated over:
    /// `root → has-elem → element → filler → category → subsumes* words`.
    pub fn extract_template(network: &snap_kb::SemanticNetwork, root: NodeId) -> EventTemplate {
        let mut roles = Vec::new();
        for elem_link in network.links_by(root, rel::HAS_ELEM) {
            let element = elem_link.destination;
            for filler_link in network.links_by(element, rel::FILLER) {
                let category = filler_link.destination;
                // Word-level concepts in the category's subsumption
                // closure.
                let mut fillers = Vec::new();
                let mut stack = vec![category];
                let mut seen = std::collections::HashSet::new();
                while let Some(cat) = stack.pop() {
                    for l in network.links_by(cat, rel::SUBSUMES) {
                        if !seen.insert(l.destination) {
                            continue;
                        }
                        if network.color(l.destination).is_ok_and(|c| c == color::WORD) {
                            fillers.push(l.destination);
                        } else {
                            stack.push(l.destination);
                        }
                    }
                }
                fillers.sort_unstable();
                roles.push(RoleFiller {
                    element,
                    category,
                    fillers,
                });
            }
        }
        EventTemplate { root, roles }
    }

    /// Parses `sentence` on `machine`: phrasal chunking on the
    /// controller, then the compiled marker program on the array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the compiled program fails (e.g. the
    /// knowledge base was externally modified).
    pub fn parse(
        &self,
        network: &mut snap_kb::SemanticNetwork,
        machine: &Snap1,
        sentence: &Sentence,
    ) -> Result<ParseResult, CoreError> {
        let phrasal = self.phrasal.parse(&sentence.words);
        let plan = self.compile(&phrasal);
        let report = machine.run(network, &plan.program)?;
        let clauses = plan
            .winner_markers
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut winners: Vec<(NodeId, f32)> = match &report.collects[i] {
                    CollectOutput::Nodes(nodes) => nodes
                        .iter()
                        .filter(|(n, _)| {
                            // Only sequence roots are valid interpretations.
                            network.color(*n).is_ok_and(|col| col == color::SEQ_ROOT)
                        })
                        .map(|(n, v)| (*n, v.map_or(0.0, |v| v.value)))
                        .collect(),
                    _ => Vec::new(),
                };
                winners.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                ClauseResult { winners }
            })
            .collect::<Vec<ClauseResult>>();
        let templates = clauses
            .iter()
            .map(|c: &ClauseResult| {
                c.winners
                    .first()
                    .map(|&(root, _)| Self::extract_template(network, root))
            })
            .collect();
        Ok(ParseResult {
            clauses,
            templates,
            pp_time_ns: phrasal.pp_time_ns,
            mb_time_ns: report.total_ns,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::DomainSpec;
    use crate::sentence::SentenceGenerator;
    use snap_core::EngineKind;

    fn machine() -> Snap1 {
        Snap1::builder().clusters(4).engine(EngineKind::Des).build()
    }

    #[test]
    fn parse_finds_target_sequence() {
        let mut kb = DomainSpec::sized(2000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 3);
        let sentence = generator.generate(9); // one clause
        let targets: Vec<NodeId> = sentence
            .target_sequences
            .iter()
            .map(|&i| kb.sequences[i].root)
            .collect();
        let parser = MemoryBasedParser::new(&kb);
        let result = parser
            .parse(&mut kb.network, &machine(), &sentence)
            .unwrap();
        assert!(!result.clauses.is_empty());
        let winners: Vec<NodeId> = result.clauses[0].winners.iter().map(|w| w.0).collect();
        assert!(
            winners.contains(&targets[0]),
            "clause 0 should accept its target {:?}; winners {:?} for {:?}",
            targets[0],
            winners,
            sentence.text(),
        );
    }

    #[test]
    fn longer_sentences_compile_to_more_instructions() {
        let kb = DomainSpec::sized(2000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 5);
        let parser = MemoryBasedParser::new(&kb);
        let short = parser.compile(&parser.phrasal().parse(&generator.generate(9).words));
        let long = parser.compile(&parser.phrasal().parse(&generator.generate(27).words));
        assert!(long.program.len() > short.program.len());
        assert!(long.winner_markers.len() > short.winner_markers.len());
    }

    #[test]
    fn parse_time_has_both_components() {
        let mut kb = DomainSpec::sized(2000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 9);
        let sentence = generator.generate(12);
        let parser = MemoryBasedParser::new(&kb);
        let result = parser
            .parse(&mut kb.network, &machine(), &sentence)
            .unwrap();
        assert!(result.pp_time_ns > 0);
        assert!(result.mb_time_ns > 0);
        assert_eq!(result.total_ns(), result.pp_time_ns + result.mb_time_ns);
        // Real-time: comfortably under a second of simulated time.
        assert!(
            result.total_ns() < 1_000_000_000,
            "got {} ns",
            result.total_ns()
        );
    }

    #[test]
    fn winners_respect_cost_threshold() {
        let mut kb = DomainSpec::sized(3000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 13);
        let sentence = generator.generate(18);
        let parser = MemoryBasedParser::new(&kb);
        let result = parser
            .parse(&mut kb.network, &machine(), &sentence)
            .unwrap();
        for clause in &result.clauses {
            for &(_, cost) in &clause.winners {
                assert!(cost <= COST_THRESHOLD);
            }
        }
    }

    #[test]
    fn templates_extracted_for_winning_clauses() {
        let mut kb = DomainSpec::sized(2000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 21);
        let sentence = generator.generate(9);
        let parser = MemoryBasedParser::new(&kb);
        let result = parser
            .parse(&mut kb.network, &machine(), &sentence)
            .unwrap();
        assert_eq!(result.templates.len(), result.clauses.len());
        let template = result.templates[0]
            .as_ref()
            .expect("winning clause yields a template");
        assert_eq!(template.roles.len(), 4, "one role per sequence element");
        // Each role's fillers are word nodes subsumed by its category,
        // and the sentence's own content words appear among them.
        let all_fillers: std::collections::HashSet<NodeId> = template
            .roles
            .iter()
            .flat_map(|r| r.fillers.iter().copied())
            .collect();
        assert!(!all_fillers.is_empty());
        let head_nodes: Vec<NodeId> = sentence.words.iter().filter_map(|w| kb.word(w)).collect();
        assert!(
            head_nodes.iter().any(|n| all_fillers.contains(n)),
            "sentence words instantiate the template"
        );
    }

    #[test]
    fn cancel_phase_produces_propagations() {
        let mut kb = DomainSpec::sized(3000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 17);
        let sentence = generator.generate(9);
        let parser = MemoryBasedParser::new(&kb);
        let result = parser
            .parse(&mut kb.network, &machine(), &sentence)
            .unwrap();
        // The program includes one cancel propagation per clause plus
        // two per phrase.
        let props = result.report.count_of(snap_isa::InstrClass::Propagate);
        assert!(props >= 3);
        assert!(result.report.expansions > 0);
    }
}
