//! # snap-nlu — natural-language understanding on SNAP-1
//!
//! The application layer of the reproduction: everything the paper's
//! evaluation runs on top of the machine.
//!
//! * [`DomainSpec`] / [`LinguisticKb`] — synthetic linguistic knowledge
//!   bases with the paper's layer composition (lexicon, concept-type
//!   hierarchy, syntactic patterns, concept sequences, auxiliary
//!   storage) for the "terrorism in Latin America" MUC-4 analogue;
//! * [`SentenceGenerator`] — deterministic newswire-like sentences;
//! * [`PhrasalParser`] — the serial, controller-resident chunker
//!   (Table IV's "P.P. time");
//! * [`MemoryBasedParser`] — compiles clauses to SNAP marker programs
//!   and runs them on a [`snap_core::Snap1`] machine (Table IV's "M.B.
//!   time"), including the cancel-marker hypothesis-resolution phase;
//! * [`hierarchy`] / [`inheritance_program`] — the property-inheritance
//!   workload of Fig. 15;
//! * [`classification_program`] — the concept-classification workload:
//!   up to 16 feature propagations overlapped as one β group, then one
//!   `AND-MARKER` accumulation;
//! * [`answer_template`] — the roles of an accepted event (the
//!   information-extraction output of the MUC-4 task), each answered by
//!   a marker program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod inheritance;
pub mod kb;
pub mod parser;
pub mod phrasal;
pub mod qa;
pub mod sentence;

pub use classify::classification_program;
pub use inheritance::{hierarchy, inheritance_program, InheritanceWorkload};
pub use kb::{ConceptSequence, DomainSpec, LinguisticKb, PartOfSpeech};
pub use parser::{
    ClauseResult, EventTemplate, MemoryBasedParser, ParsePlan, ParseResult, RoleFiller,
};
pub use phrasal::{Clause, PhrasalParse, PhrasalParser, Phrase, PhraseKind};
pub use qa::{answer_template, RoleAnswer};
pub use sentence::{Sentence, SentenceGenerator};
