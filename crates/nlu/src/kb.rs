//! Linguistic knowledge-base construction.
//!
//! The SNAP knowledge base for linguistic processing is structured
//! hierarchically into layers: the **lexical layer** at the bottom (all
//! the words in the vocabulary), **semantic and syntactic constraints**
//! in the middle, and **concept sequences** at the top. The full SNAP
//! knowledge base had a 10 000-word lexicon and over 20 000 nonlexical
//! concepts, composed of roughly 75% basic concept sequences, 15%
//! concept-type hierarchy, 5% syntactic patterns, and 5% auxiliary
//! storage. The MUC-4 evaluation knowledge base ("terrorism in Latin
//! America") had about 12 000 nodes and 48 000 links.
//!
//! The original corpus and knowledge base are not available, so
//! [`DomainSpec::build`] generates a synthetic equivalent,
//! deterministically from a seed, with the same layer composition and
//! the structural statistics the evaluation depends on (fanout, path
//! lengths, and distractor sequences that grow with knowledge-base
//! size).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_isa::SymbolTable;
use snap_kb::{KbError, NetworkConfig, NodeId, SemanticNetwork};
use std::collections::{HashMap, HashSet, VecDeque};

/// Relation types of the linguistic knowledge base.
pub mod rel {
    use snap_kb::RelationType;

    /// Subsumption upward: word → category, category → supercategory.
    pub const IS_A: RelationType = RelationType(0);
    /// Subsumption downward (the inverse of [`IS_A`]).
    pub const SUBSUMES: RelationType = RelationType(1);
    /// Semantic constraint: category → concept-sequence element it can
    /// fill.
    pub const ELEM_OF: RelationType = RelationType(2);
    /// Concept-sequence structure: element → its root.
    pub const PART_OF: RelationType = RelationType(3);
    /// Root → element (used to propagate cancel markers downward).
    pub const HAS_ELEM: RelationType = RelationType(4);
    /// Root → auxiliary concept-sequence storage.
    pub const AUX_OF: RelationType = RelationType(5);
    /// Sequence element → the category that can fill it (the inverse of
    /// [`ELEM_OF`]), used to extract template fillers from accepted
    /// sequences.
    pub const FILLER: RelationType = RelationType(6);
}

/// Node colors of the linguistic knowledge base.
pub mod color {
    use snap_kb::Color;

    /// Lexical-layer word node.
    pub const WORD: Color = Color(1);
    /// Concept-type hierarchy category.
    pub const CATEGORY: Color = Color(2);
    /// Syntactic-pattern node.
    pub const SYNTAX: Color = Color(3);
    /// Concept-sequence element.
    pub const SEQ_ELEM: Color = Color(4);
    /// Concept-sequence root.
    pub const SEQ_ROOT: Color = Color(5);
    /// Auxiliary concept-sequence storage.
    pub const AUX: Color = Color(6);
    /// Leaf category (bottom of the hierarchy).
    pub const LEAF_CATEGORY: Color = Color(7);
}

/// Syntactic part of speech a word belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartOfSpeech {
    /// Nouns (fill agent/object/place roles).
    Noun,
    /// Verbs (fill action roles).
    Verb,
    /// Determiners.
    Determiner,
    /// Adjectives.
    Adjective,
    /// Prepositions.
    Preposition,
}

/// Base vocabulary of the terrorism-domain analogue, per part of speech.
const NOUNS: &[&str] = &[
    "guerrilla",
    "terrorist",
    "soldier",
    "mayor",
    "judge",
    "priest",
    "peasant",
    "journalist",
    "embassy",
    "ministry",
    "station",
    "pipeline",
    "bridge",
    "barracks",
    "village",
    "capital",
    "bomb",
    "rifle",
    "grenade",
    "mortar",
    "vehicle",
    "convoy",
    "hostage",
    "ransom",
];
const VERBS: &[&str] = &[
    "attacked",
    "bombed",
    "kidnapped",
    "ambushed",
    "murdered",
    "destroyed",
    "seized",
    "threatened",
    "claimed",
    "reported",
    "released",
    "detonated",
];
const DETERMINERS: &[&str] = &["the", "a", "this", "that", "several", "three"];
const ADJECTIVES: &[&str] = &[
    "armed",
    "unknown",
    "masked",
    "military",
    "urban",
    "rural",
    "responsible",
    "wounded",
];
const PREPOSITIONS: &[&str] = &["in", "near", "against", "with", "during", "from"];

/// Sizing of a synthetic linguistic knowledge base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSpec {
    /// Total target node count (lexicon + nonlexical concepts).
    pub total_nodes: usize,
    /// Random seed (everything is deterministic given the seed).
    pub seed: u64,
    /// Elements per concept sequence (the paper's sequences have a root
    /// plus a handful of elements).
    pub elements_per_sequence: usize,
}

impl DomainSpec {
    /// The MUC-4-like evaluation knowledge base (~12K nodes).
    pub fn muc4() -> Self {
        DomainSpec {
            total_nodes: 12_000,
            seed: 0x5AA9_1991,
            elements_per_sequence: 4,
        }
    }

    /// A knowledge base scaled to `total_nodes` with the paper's layer
    /// composition.
    pub fn sized(total_nodes: usize) -> Self {
        DomainSpec {
            total_nodes,
            ..Self::muc4()
        }
    }

    /// Builds the knowledge base.
    ///
    /// # Errors
    ///
    /// Returns [`KbError`] if `total_nodes` exceeds the 32K node
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `total_nodes` is too small to hold the base vocabulary
    /// (a few hundred nodes).
    pub fn build(&self) -> Result<LinguisticKb, KbError> {
        assert!(
            self.total_nodes >= 300,
            "domain needs at least 300 nodes, got {}",
            self.total_nodes
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let mut symbols = SymbolTable::new();
        symbols
            .relation("is-a", rel::IS_A)
            .relation("subsumes", rel::SUBSUMES)
            .relation("elem-of", rel::ELEM_OF)
            .relation("part-of", rel::PART_OF)
            .relation("has-elem", rel::HAS_ELEM)
            .relation("aux-of", rel::AUX_OF)
            .relation("filler", rel::FILLER);
        symbols
            .color("word", color::WORD)
            .color("category", color::CATEGORY)
            .color("syntax", color::SYNTAX)
            .color("seq-elem", color::SEQ_ELEM)
            .color("seq-root", color::SEQ_ROOT)
            .color("aux", color::AUX)
            .color("leaf-category", color::LEAF_CATEGORY);

        // Layer budget: 75% concept sequences, 15% hierarchy, 5% syntax,
        // 5% auxiliary — after the lexicon, which scales with the rest.
        let lexicon_target = (self.total_nodes / 6).clamp(60, 10_000);
        let nonlex = self.total_nodes - lexicon_target;
        let seq_budget = nonlex * 75 / 100;
        let hier_budget = (nonlex * 15 / 100).max(20);
        let syntax_budget = (nonlex * 5 / 100).max(8);
        let aux_budget = nonlex - seq_budget - hier_budget - syntax_budget;

        // --- syntactic patterns ---
        let mut syntax_nodes = HashMap::new();
        for (name, _) in [
            ("noun-phrase", PartOfSpeech::Noun),
            ("verb-phrase", PartOfSpeech::Verb),
            ("determiner", PartOfSpeech::Determiner),
            ("adjective-phrase", PartOfSpeech::Adjective),
            ("prep-phrase", PartOfSpeech::Preposition),
        ] {
            let id = net.add_named_node(name, color::SYNTAX)?;
            syntax_nodes.insert(name.to_string(), id);
        }
        for i in syntax_nodes.len()..syntax_budget {
            net.add_named_node(format!("syntax-pattern-{i}"), color::SYNTAX)?;
        }

        // --- concept-type hierarchy: a rooted tree, branching 3 (deep
        // enough that climbs run ~10 levels on the 12K KB, matching the
        // paper's 10–15 step propagation paths) ---
        let root = net.add_named_node("entity", color::CATEGORY)?;
        let mut categories = vec![root];
        let mut frontier = VecDeque::from([root]);
        while categories.len() < hier_budget {
            let parent = frontier
                .pop_front()
                .expect("the frontier outlasts the budget");
            for _ in 0..3 {
                if categories.len() >= hier_budget {
                    break;
                }
                let idx = categories.len();
                let child = net.add_named_node(format!("category-{idx}"), color::CATEGORY)?;
                net.add_link(child, rel::IS_A, 0.1, parent)?;
                net.add_link(parent, rel::SUBSUMES, 0.1, child)?;
                categories.push(child);
                frontier.push_back(child);
            }
        }
        // The current frontier is the set of leaf categories; recolor
        // them so leaf searches are one color scan.
        let leaves: Vec<NodeId> = frontier.into();
        for &leaf in &leaves {
            net.set_color(leaf, color::LEAF_CATEGORY)?;
        }
        let attach_points: &[NodeId] = if leaves.is_empty() {
            &categories
        } else {
            &leaves
        };

        // --- lexical layer ---
        let mut lexicon: HashMap<String, NodeId> = HashMap::new();
        let mut words_by_pos: HashMap<PartOfSpeech, Vec<String>> = HashMap::new();
        // (category, part of speech) for every category that subsumes a
        // word of that part of speech.
        let mut subsumes: HashSet<(NodeId, PartOfSpeech)> = HashSet::new();
        let mut add_word = |net: &mut SemanticNetwork,
                            rng: &mut StdRng,
                            word: String,
                            pos: PartOfSpeech,
                            lexicon: &mut HashMap<String, NodeId>,
                            words_by_pos: &mut HashMap<PartOfSpeech, Vec<String>>|
         -> Result<(), KbError> {
            if lexicon.contains_key(&word) {
                return Ok(());
            }
            let id = net.add_named_node(word.clone(), color::WORD)?;
            // Syntactic membership.
            let syn = match pos {
                PartOfSpeech::Noun => "noun-phrase",
                PartOfSpeech::Verb => "verb-phrase",
                PartOfSpeech::Determiner => "determiner",
                PartOfSpeech::Adjective => "adjective-phrase",
                PartOfSpeech::Preposition => "prep-phrase",
            };
            net.add_link(id, rel::IS_A, 0.05, syntax_nodes[syn])?;
            // Semantic membership: content words attach to a category.
            if matches!(pos, PartOfSpeech::Noun | PartOfSpeech::Verb) {
                let cat = attach_points[rng.gen_range(0..attach_points.len())];
                net.add_link(id, rel::IS_A, 0.1, cat)?;
                net.add_link(cat, rel::SUBSUMES, 0.1, id)?;
                subsumes.insert((cat, pos));
            }
            lexicon.insert(word.clone(), id);
            words_by_pos.entry(pos).or_default().push(word);
            Ok(())
        };

        let base: [(PartOfSpeech, &[&str]); 5] = [
            (PartOfSpeech::Noun, NOUNS),
            (PartOfSpeech::Verb, VERBS),
            (PartOfSpeech::Determiner, DETERMINERS),
            (PartOfSpeech::Adjective, ADJECTIVES),
            (PartOfSpeech::Preposition, PREPOSITIONS),
        ];
        for (pos, list) in base {
            for w in list {
                add_word(
                    &mut net,
                    &mut rng,
                    (*w).to_string(),
                    pos,
                    &mut lexicon,
                    &mut words_by_pos,
                )?;
            }
        }
        // Synthesize derived vocabulary to hit the lexicon budget
        // (numbered variants of nouns/verbs, like domain-specific
        // vocabulary in the real 10K lexicon).
        let mut k = 0usize;
        while lexicon.len() < lexicon_target {
            let (pos, stem) = if k.is_multiple_of(3) {
                (PartOfSpeech::Verb, VERBS[k / 3 % VERBS.len()])
            } else {
                (PartOfSpeech::Noun, NOUNS[k % NOUNS.len()])
            };
            add_word(
                &mut net,
                &mut rng,
                format!("{stem}-{k}"),
                pos,
                &mut lexicon,
                &mut words_by_pos,
            )?;
            k += 1;
        }

        // --- concept sequences ---
        // Each sequence is a root plus `elements_per_sequence` elements;
        // each element is constrained by one category. Relevant
        // sequences constrain leaf categories of common nouns/verbs;
        // distractor share grows with KB size (bigger domains contain
        // more sequences that partially match any given sentence).
        let per_seq = 1 + self.elements_per_sequence;
        let n_sequences = seq_budget / per_seq;
        let mut sequences = Vec::with_capacity(n_sequences);
        for s in 0..n_sequences {
            if net.node_count() + per_seq > self.total_nodes {
                break;
            }
            let root = net.add_named_node(format!("seq-{s}"), color::SEQ_ROOT)?;
            let mut element_cats = Vec::new();
            for e in 0..self.elements_per_sequence {
                let elem = net.add_named_node(format!("seq-{s}-e{e}"), color::SEQ_ELEM)?;
                net.add_link(elem, rel::PART_OF, 0.2, root)?;
                net.add_link(root, rel::HAS_ELEM, 0.2, elem)?;
                // Constraints live at every level of the hierarchy, so a
                // word's upward climb activates candidate elements all
                // the way up — the distractor fan that grows with
                // knowledge-base size.
                let cat = categories[rng.gen_range(0..categories.len())];
                net.add_link(cat, rel::ELEM_OF, 0.3, elem)?;
                net.add_link(elem, rel::FILLER, 0.3, cat)?;
                element_cats.push(cat);
            }
            sequences.push(ConceptSequence {
                root,
                element_categories: element_cats,
            });
        }

        // Guarantee every element constraint is satisfiable: each
        // constraining category must subsume at least one noun (or verb
        // for the action element) so the sentence generator can realize
        // it. Words may carry several semantic memberships, like the
        // real lexicon.
        for seq in &sequences {
            for (e, &cat) in seq.element_categories.iter().enumerate() {
                let pos = if e == 1 {
                    PartOfSpeech::Verb
                } else {
                    PartOfSpeech::Noun
                };
                if subsumes.insert((cat, pos)) {
                    let pool = &words_by_pos[&pos];
                    let word = &pool[rng.gen_range(0..pool.len())];
                    let id = lexicon[word];
                    net.add_link(id, rel::IS_A, 0.1, cat)?;
                    net.add_link(cat, rel::SUBSUMES, 0.1, id)?;
                }
            }
        }

        // --- auxiliary storage ---
        let mut added_aux = 0;
        while added_aux < aux_budget && net.node_count() < self.total_nodes {
            let aux = net.add_named_node(format!("aux-{added_aux}"), color::AUX)?;
            if let Some(seq) = sequences.get(added_aux % sequences.len().max(1)) {
                net.add_link(seq.root, rel::AUX_OF, 0.1, aux)?;
            }
            added_aux += 1;
        }

        for (name, id) in &lexicon {
            symbols.node(name.clone(), *id);
        }

        Ok(LinguisticKb {
            network: net,
            symbols,
            lexicon,
            words_by_pos,
            categories,
            leaves,
            sequences,
            hierarchy_root: root,
        })
    }
}

/// One concept sequence: a root and the categories constraining its
/// elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptSequence {
    /// The sequence root node.
    pub root: NodeId,
    /// Category constraining each element, in element order.
    pub element_categories: Vec<NodeId>,
}

/// A generated linguistic knowledge base.
#[derive(Debug, Clone)]
pub struct LinguisticKb {
    /// The semantic network itself.
    pub network: SemanticNetwork,
    /// Symbol table for the assembler/disassembler.
    pub symbols: SymbolTable,
    /// Word → lexical node.
    pub lexicon: HashMap<String, NodeId>,
    /// Words grouped by part of speech (for sentence generation).
    pub words_by_pos: HashMap<PartOfSpeech, Vec<String>>,
    /// All hierarchy categories (index 0 is the root).
    pub categories: Vec<NodeId>,
    /// Leaf categories.
    pub leaves: Vec<NodeId>,
    /// All concept sequences.
    pub sequences: Vec<ConceptSequence>,
    /// Root of the concept-type hierarchy.
    pub hierarchy_root: NodeId,
}

impl LinguisticKb {
    /// The lexical node of `word`, if in the vocabulary.
    pub fn word(&self, word: &str) -> Option<NodeId> {
        self.lexicon.get(word).copied()
    }

    /// Words of the given part of speech.
    pub fn words(&self, pos: PartOfSpeech) -> &[String] {
        self.words_by_pos.get(&pos).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_at_target_size_with_layer_composition() {
        let kb = DomainSpec::sized(3000).build().unwrap();
        let n = kb.network.node_count();
        assert!((2500..=3000).contains(&n), "got {n} nodes");
        // Concept sequences dominate the nonlexical layers.
        let seq_nodes = kb.sequences.len() * 5;
        assert!(
            seq_nodes * 2 > n,
            "sequences are the bulk: {seq_nodes} of {n}"
        );
        assert!(!kb.leaves.is_empty());
        assert!(kb.network.link_count() > n, "links outnumber nodes");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = DomainSpec::sized(1000).build().unwrap();
        let b = DomainSpec::sized(1000).build().unwrap();
        assert_eq!(a.network.node_count(), b.network.node_count());
        assert_eq!(a.network.link_count(), b.network.link_count());
        assert_eq!(a.word("guerrilla"), b.word("guerrilla"));
        assert_eq!(a.sequences.len(), b.sequences.len());
    }

    #[test]
    fn words_connect_to_syntax_and_semantics() {
        let kb = DomainSpec::sized(1000).build().unwrap();
        let w = kb.word("bomb").unwrap();
        let links: Vec<_> = kb.network.links_by(w, rel::IS_A).collect();
        assert!(links.len() >= 2, "syntax + at least one semantic is-a link");
        let det = kb.word("the").unwrap();
        assert_eq!(
            kb.network.links_by(det, rel::IS_A).count(),
            1,
            "function words have only syntactic membership"
        );
    }

    #[test]
    fn sequences_constrained_by_categories() {
        let kb = DomainSpec::sized(2000).build().unwrap();
        let seq = &kb.sequences[0];
        assert_eq!(seq.element_categories.len(), 4);
        // Every element category reaches the element via ELEM_OF.
        let elems: Vec<NodeId> = kb
            .network
            .links_by(seq.root, rel::HAS_ELEM)
            .map(|l| l.destination)
            .collect();
        assert_eq!(elems.len(), 4);
        for (cat, elem) in seq.element_categories.iter().zip(&elems) {
            assert!(kb
                .network
                .links_by(*cat, rel::ELEM_OF)
                .any(|l| l.destination == *elem));
        }
    }

    #[test]
    fn bigger_domains_have_more_sequences() {
        let small = DomainSpec::sized(1000).build().unwrap();
        let large = DomainSpec::sized(8000).build().unwrap();
        assert!(large.sequences.len() > small.sequences.len() * 4);
    }

    /// FNV-1a over everything a build produces: node names and colours,
    /// every link in insertion order, the sorted lexicon, the
    /// part-of-speech pools, categories, leaves and sequences.
    fn fingerprint(kb: &LinguisticKb) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            fn u64(&mut self, v: u64) {
                self.bytes(&v.to_le_bytes());
            }
            fn str(&mut self, s: &str) {
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            fn ids(&mut self, ids: &[NodeId]) {
                self.u64(ids.len() as u64);
                ids.iter().for_each(|id| self.u64(u64::from(id.0)));
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let net = &kb.network;
        h.u64(net.node_count() as u64);
        for i in 0..net.node_count() {
            let node = NodeId(i as u32);
            h.str(net.name(node).unwrap_or("\u{0}"));
            h.u64(u64::from(net.color(node).unwrap().0));
            for l in net.links(node) {
                h.u64(u64::from(l.relation.0));
                h.u64(u64::from(l.weight.to_bits()));
                h.u64(u64::from(l.destination.0));
            }
            h.u64(u64::MAX);
        }
        let mut lexicon: Vec<_> = kb.lexicon.iter().collect();
        lexicon.sort();
        for (word, id) in lexicon {
            h.str(word);
            h.u64(u64::from(id.0));
        }
        for pos in [
            PartOfSpeech::Noun,
            PartOfSpeech::Verb,
            PartOfSpeech::Determiner,
            PartOfSpeech::Adjective,
            PartOfSpeech::Preposition,
        ] {
            h.u64(kb.words(pos).len() as u64);
            kb.words(pos).iter().for_each(|w| h.str(w));
        }
        h.ids(&kb.categories);
        h.ids(&kb.leaves);
        for seq in &kb.sequences {
            h.u64(u64::from(seq.root.0));
            h.ids(&seq.element_categories);
        }
        h.u64(u64::from(kb.hierarchy_root.0));
        h.0
    }

    #[test]
    fn builds_the_pinned_kb() {
        for (n, pin) in [
            (300, 0xfd03_8e9b_7cda_f4f8),
            (2_000, 0x6b23_e37e_e04b_8ef1),
            (12_000, 0x3b6c_40b1_eb01_e00b),
        ] {
            let kb = DomainSpec::sized(n).build().unwrap();
            assert_eq!(fingerprint(&kb), pin, "the {n}-node KB changed");
        }
    }

    #[test]
    fn every_element_constraint_is_satisfiable() {
        for n in [300, 2_000, 12_000] {
            let mut kb = DomainSpec::sized(n).build().unwrap();
            kb.network.flush_links();
            let ids =
                |pos| -> HashSet<NodeId> { kb.words(pos).iter().map(|w| kb.lexicon[w]).collect() };
            let (nouns, verbs) = (ids(PartOfSpeech::Noun), ids(PartOfSpeech::Verb));
            for seq in &kb.sequences {
                for (e, &cat) in seq.element_categories.iter().enumerate() {
                    let pool = if e == 1 { &verbs } else { &nouns };
                    assert!(
                        kb.network
                            .links_by(cat, rel::SUBSUMES)
                            .any(|l| pool.contains(&l.destination)),
                        "{n} nodes: element {e} of sequence {:?} has no filler",
                        seq.root
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchy_reaches_root() {
        let kb = DomainSpec::sized(1000).build().unwrap();
        // Walk up from a leaf: must reach `entity`.
        let mut node = kb.leaves[0];
        for _ in 0..32 {
            if node == kb.hierarchy_root {
                break;
            }
            node = kb
                .network
                .links_by(node, rel::IS_A)
                .next()
                .expect("leaf category connects upward")
                .destination;
        }
        assert_eq!(node, kb.hierarchy_root);
    }
}
