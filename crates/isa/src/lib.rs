//! # snap-isa — the SNAP-1 marker-propagation instruction set
//!
//! SNAP-1 is programmed with 20 high-level instructions for marker
//! passing (Table II of the paper), grouped into node maintenance,
//! search, propagation, marker-node maintenance, boolean, set/clear, and
//! retrieval operations. This crate defines:
//!
//! * [`Instruction`] — the instruction set, with documented semantics
//!   shared by every execution engine;
//! * [`PropRule`] / [`RuleProgram`] — propagation rules
//!   (`spread(r1,r2)` and friends) compiled to small state machines, so
//!   marker messages only carry a rule token exactly as in the hardware;
//! * [`StepFunc`], [`CombineFunc`], [`ValueFunc`] — the lightweight
//!   arithmetic/logic functions markers carry;
//! * [`Program`] — downloaded object code, with a fluent builder;
//! * [`assemble`]/[`disassemble`] — a text dialect mirroring the paper's
//!   Fig. 5 listings;
//! * [`analyze_beta`] — the inter-propagation (β) parallelism analysis
//!   from Section II-C.
//!
//! # Examples
//!
//! ```
//! use snap_isa::{assemble, SymbolTable};
//! use snap_kb::{Color, RelationType};
//!
//! let mut sym = SymbolTable::new();
//! sym.relation("is-a", RelationType(0)).color("NP", Color(1));
//! let program = assemble("search-color NP b1 0.0\npropagate b1 b2 star(is-a) identity\n", &sym)?;
//! assert_eq!(program.len(), 2);
//! # Ok::<(), snap_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod asm;
mod func;
mod instruction;
mod program;
mod rule;

pub use analysis::{analyze_beta, BetaStats};
pub use asm::{assemble, disassemble, AsmError, SymbolTable};
pub use func::{Cmp, CombineFunc, StepFunc, ValueFunc};
pub use instruction::{InstrClass, Instruction};
pub use program::{Program, ProgramBuilder};
pub use rule::{PropRule, RuleArc, RuleProgram, RuleState, MAX_RULE_ARCS, MAX_RULE_STATES};
