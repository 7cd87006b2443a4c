//! The phrasal parser.
//!
//! The phrasal parser is a **serial** program that executes on the
//! controller; its processing time is therefore independent of the
//! knowledge-base size (the "P.P. time" column of Table IV). Its role is
//! to break the input sentence into subparts — clauses of noun, verb,
//! and prepositional phrases — which the memory-based parser then
//! resolves against the semantic network.

use crate::kb::{LinguisticKb, PartOfSpeech};
use snap_core::SimTime;
use std::collections::HashMap;

/// Controller time to process one token (serial chunker on the 32 MHz
/// controller).
pub const PER_TOKEN_NS: SimTime = 2_200_000;

/// Fixed controller setup time per sentence.
pub const SENTENCE_BASE_NS: SimTime = 4_000_000;

/// Kinds of phrase the chunker produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhraseKind {
    /// Noun phrase (`det adj* noun`).
    Noun,
    /// Verb phrase.
    Verb,
    /// Prepositional phrase (`prep det adj* noun`).
    Prepositional,
}

/// One chunked phrase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phrase {
    /// The phrase kind.
    pub kind: PhraseKind,
    /// The content (head) word.
    pub head: String,
    /// All words of the phrase, in order.
    pub words: Vec<String>,
}

/// One clause: the phrases between (and including) successive verb
/// phrases — the unit handed to the memory-based parser.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clause {
    /// Phrases of the clause, in order.
    pub phrases: Vec<Phrase>,
}

/// Output of the phrasal parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhrasalParse {
    /// The clauses, in order.
    pub clauses: Vec<Clause>,
    /// Modelled serial controller time (ns) — the Table IV "P.P. time".
    pub pp_time_ns: SimTime,
}

/// The serial phrasal parser.
#[derive(Debug)]
pub struct PhrasalParser {
    pos_of: HashMap<String, PartOfSpeech>,
}

impl PhrasalParser {
    /// Builds the parser's part-of-speech lookup from the lexicon.
    pub fn new(kb: &LinguisticKb) -> Self {
        let mut pos_of = HashMap::new();
        for pos in [
            PartOfSpeech::Noun,
            PartOfSpeech::Verb,
            PartOfSpeech::Determiner,
            PartOfSpeech::Adjective,
            PartOfSpeech::Preposition,
        ] {
            for w in kb.words(pos) {
                pos_of.insert(w.clone(), pos);
            }
        }
        PhrasalParser { pos_of }
    }

    /// The part of speech of `word`, if known.
    pub fn pos(&self, word: &str) -> Option<PartOfSpeech> {
        self.pos_of.get(word).copied()
    }

    /// Chunks `words` into clauses of phrases. Unknown words are
    /// skipped (but still cost controller time).
    pub fn parse(&self, words: &[String]) -> PhrasalParse {
        let mut clauses = vec![Clause::default()];
        let mut pending: Vec<String> = Vec::new(); // det/adj/prep prefix
        let mut pending_prep = false;

        let flush_head = |clauses: &mut Vec<Clause>,
                          pending: &mut Vec<String>,
                          pending_prep: &mut bool,
                          head: &str,
                          kind: PhraseKind| {
            let kind = if *pending_prep && kind == PhraseKind::Noun {
                PhraseKind::Prepositional
            } else {
                kind
            };
            let mut phrase_words = std::mem::take(pending);
            phrase_words.push(head.to_string());
            *pending_prep = false;
            // A verb phrase — or a new plain noun phrase (the next
            // clause's subject) — after a completed clause core starts a
            // new clause. Prepositional phrases always attach to the
            // current clause.
            if kind != PhraseKind::Prepositional {
                let has_verb = clauses
                    .last()
                    .is_some_and(|c| c.phrases.iter().any(|p| p.kind == PhraseKind::Verb));
                let has_object = clauses.last().is_some_and(|c| {
                    c.phrases
                        .iter()
                        .filter(|p| p.kind != PhraseKind::Verb)
                        .count()
                        >= 2
                });
                if has_verb && has_object {
                    clauses.push(Clause::default());
                }
            }
            clauses
                .last_mut()
                .expect("clauses never empty")
                .phrases
                .push(Phrase {
                    kind,
                    head: head.to_string(),
                    words: phrase_words,
                });
        };

        for word in words {
            match self.pos(word) {
                Some(PartOfSpeech::Determiner) | Some(PartOfSpeech::Adjective) => {
                    pending.push(word.clone());
                }
                Some(PartOfSpeech::Preposition) => {
                    pending.push(word.clone());
                    pending_prep = true;
                }
                Some(PartOfSpeech::Noun) => {
                    flush_head(
                        &mut clauses,
                        &mut pending,
                        &mut pending_prep,
                        word,
                        PhraseKind::Noun,
                    );
                }
                Some(PartOfSpeech::Verb) => {
                    flush_head(
                        &mut clauses,
                        &mut pending,
                        &mut pending_prep,
                        word,
                        PhraseKind::Verb,
                    );
                }
                None => {}
            }
        }
        clauses.retain(|c| !c.phrases.is_empty());
        PhrasalParse {
            clauses,
            pp_time_ns: SENTENCE_BASE_NS + words.len() as SimTime * PER_TOKEN_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::DomainSpec;
    use crate::sentence::SentenceGenerator;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn chunks_basic_clause() {
        let kb = DomainSpec::sized(1000).build().unwrap();
        let parser = PhrasalParser::new(&kb);
        let parse = parser.parse(&words(
            "the armed guerrilla attacked the embassy in the village",
        ));
        assert_eq!(parse.clauses.len(), 1);
        let kinds: Vec<PhraseKind> = parse.clauses[0].phrases.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PhraseKind::Noun,
                PhraseKind::Verb,
                PhraseKind::Noun,
                PhraseKind::Prepositional
            ]
        );
        assert_eq!(parse.clauses[0].phrases[0].head, "guerrilla");
        assert_eq!(
            parse.clauses[0].phrases[0].words,
            words("the armed guerrilla")
        );
        assert_eq!(parse.clauses[0].phrases[3].head, "village");
    }

    #[test]
    fn second_verb_starts_new_clause() {
        let kb = DomainSpec::sized(1000).build().unwrap();
        let parser = PhrasalParser::new(&kb);
        let parse = parser.parse(&words(
            "the guerrilla attacked the embassy the soldier seized the bridge",
        ));
        assert_eq!(parse.clauses.len(), 2);
        assert_eq!(parse.clauses[1].phrases[0].head, "soldier");
        assert_eq!(parse.clauses[1].phrases[1].head, "seized");
        assert_eq!(parse.clauses[1].phrases[2].head, "bridge");
    }

    #[test]
    fn pp_time_depends_only_on_length() {
        let kb_small = DomainSpec::sized(1000).build().unwrap();
        let kb_large = DomainSpec::sized(6000).build().unwrap();
        let sentence = words("the guerrilla attacked the embassy");
        let a = PhrasalParser::new(&kb_small).parse(&sentence).pp_time_ns;
        let b = PhrasalParser::new(&kb_large).parse(&sentence).pp_time_ns;
        assert_eq!(a, b, "serial controller time is KB-independent");
        assert_eq!(a, SENTENCE_BASE_NS + 5 * PER_TOKEN_NS);
    }

    #[test]
    fn generated_sentences_chunk_into_clauses() {
        let kb = DomainSpec::sized(3000).build().unwrap();
        let mut generator = SentenceGenerator::new(&kb, 11);
        let parser = PhrasalParser::new(&kb);
        for min_len in [9, 18, 27] {
            let s = generator.generate(min_len);
            let parse = parser.parse(&s.words);
            assert!(!parse.clauses.is_empty());
            assert!(
                parse.clauses.len() >= s.target_sequences.len(),
                "roughly one clause per target"
            );
            for clause in &parse.clauses {
                assert!(clause.phrases.len() <= 6);
            }
        }
    }

    #[test]
    fn unknown_words_are_skipped() {
        let kb = DomainSpec::sized(1000).build().unwrap();
        let parser = PhrasalParser::new(&kb);
        let parse = parser.parse(&words("zzz the guerrilla qqq attacked"));
        assert_eq!(parse.clauses.len(), 1);
        assert_eq!(parse.clauses[0].phrases.len(), 2);
    }
}
