//! Propagation rules: the traversal strategies attached to markers.
//!
//! Movement of markers is guided by *propagation rules* of the form
//! `rule-type(r1, r2)`. Each marker individually selects which paths to
//! follow; for example `spread(r1, r2)` sends markers along a chain of
//! `r1` links until a link of type `r2` is encountered, at which time they
//! switch to `r2`.
//!
//! Because the microcode table of propagation rules is downloaded at
//! compile time, SNAP-1 messages carry only a token naming the rule. We
//! reproduce that split: the named [`PropRule`] is what programs and
//! messages carry, and every rule *compiles* to a tiny deterministic state
//! machine ([`RuleProgram`]) that all execution engines interpret
//! identically. A marker in flight tracks its current [`RuleState`]; at
//! each node the engine traverses the links named by the state's arcs and
//! the marker continues in each arc's successor state.

use core::fmt;
use snap_kb::RelationType;

/// Maximum number of states a custom rule program may use (the prototype
/// microcodes rules into a small fixed table).
pub const MAX_RULE_STATES: usize = 8;

/// Maximum number of arcs one state of a rule program may have: the
/// width of a microcode table row, and the number of relation runs an
/// engine merges per expansion.
pub const MAX_RULE_ARCS: usize = 8;

/// A named propagation rule, as carried by `PROPAGATE` instructions and
/// marker messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropRule {
    /// One step along `r` and stop.
    Once(RelationType),
    /// Transitive closure along `r` (follow chains of `r` to any depth).
    Star(RelationType),
    /// Follow chains of `r1` until an `r2` link is met, then switch to
    /// following chains of `r2` — the paper's `spread(r1, r2)`.
    Spread(RelationType, RelationType),
    /// Exactly one step along `r1` followed by one step along `r2`.
    Seq(RelationType, RelationType),
    /// Transitive closure along either `r1` or `r2`.
    Union(RelationType, RelationType),
    /// A custom microcoded traversal program.
    Custom(RuleProgram),
}

impl PropRule {
    /// Compiles the rule to its state-machine form.
    pub fn compile(&self) -> RuleProgram {
        match *self {
            PropRule::Once(r) => RuleProgram::from_states(vec![
                RuleState::new(vec![RuleArc::new(r, 1)]),
                RuleState::terminal(),
            ]),
            PropRule::Star(r) => {
                RuleProgram::from_states(vec![RuleState::new(vec![RuleArc::new(r, 0)])])
            }
            PropRule::Spread(r1, r2) => RuleProgram::from_states(vec![
                RuleState::new(vec![RuleArc::new(r1, 0), RuleArc::new(r2, 1)]),
                RuleState::new(vec![RuleArc::new(r2, 1)]),
            ]),
            PropRule::Seq(r1, r2) => RuleProgram::from_states(vec![
                RuleState::new(vec![RuleArc::new(r1, 1)]),
                RuleState::new(vec![RuleArc::new(r2, 2)]),
                RuleState::terminal(),
            ]),
            PropRule::Union(r1, r2) => RuleProgram::from_states(vec![RuleState::new(vec![
                RuleArc::new(r1, 0),
                RuleArc::new(r2, 0),
            ])]),
            PropRule::Custom(ref p) => p.clone(),
        }
    }
}

impl fmt::Display for PropRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropRule::Once(r) => write!(f, "once({r})"),
            PropRule::Star(r) => write!(f, "star({r})"),
            PropRule::Spread(r1, r2) => write!(f, "spread({r1},{r2})"),
            PropRule::Seq(r1, r2) => write!(f, "seq({r1},{r2})"),
            PropRule::Union(r1, r2) => write!(f, "union({r1},{r2})"),
            PropRule::Custom(p) => write!(f, "custom[{} states]", p.states().len()),
        }
    }
}

/// One transition of a rule state machine: traverse links of `relation`
/// and continue in state `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleArc {
    /// Relation type whose links this arc traverses.
    pub relation: RelationType,
    /// Successor state index.
    pub next: u8,
}

impl RuleArc {
    /// Creates an arc.
    pub fn new(relation: RelationType, next: u8) -> Self {
        RuleArc { relation, next }
    }
}

/// One state of a rule program: the set of arcs a marker in this state
/// follows from its current node. A state with no arcs is terminal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleState {
    arcs: Vec<RuleArc>,
}

impl RuleState {
    /// A state with the given arcs.
    pub fn new(arcs: Vec<RuleArc>) -> Self {
        RuleState { arcs }
    }

    /// A terminal state (no outgoing arcs; the marker stops here).
    pub fn terminal() -> Self {
        RuleState::default()
    }

    /// The state's arcs.
    pub fn arcs(&self) -> &[RuleArc] {
        &self.arcs
    }

    /// `true` if the marker stops in this state.
    pub fn is_terminal(&self) -> bool {
        self.arcs.is_empty()
    }
}

/// A compiled propagation-rule state machine. State 0 is initial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProgram {
    states: Vec<RuleState>,
}

impl RuleProgram {
    /// Builds a program from explicit states.
    ///
    /// # Panics
    ///
    /// Panics if there are no states, more than [`MAX_RULE_STATES`], a
    /// state with more than [`MAX_RULE_ARCS`] arcs, or an arc pointing
    /// outside the state table.
    pub fn from_states(states: Vec<RuleState>) -> Self {
        assert!(!states.is_empty(), "rule program needs at least one state");
        assert!(
            states.len() <= MAX_RULE_STATES,
            "rule program exceeds {MAX_RULE_STATES} states"
        );
        for (i, s) in states.iter().enumerate() {
            assert!(
                s.arcs().len() <= MAX_RULE_ARCS,
                "state {i} exceeds {MAX_RULE_ARCS} arcs"
            );
            for arc in s.arcs() {
                assert!(
                    (arc.next as usize) < states.len(),
                    "state {i} arc points to missing state {}",
                    arc.next
                );
            }
        }
        RuleProgram { states }
    }

    /// The program's states; index 0 is the initial state.
    pub fn states(&self) -> &[RuleState] {
        &self.states
    }

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range — rule tokens are validated at
    /// compile time, so an out-of-range state indicates engine corruption.
    pub fn state(&self, state: u8) -> &RuleState {
        &self.states[state as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: u16) -> RelationType {
        RelationType(x)
    }

    #[test]
    fn once_compiles_to_two_states() {
        let p = PropRule::Once(r(1)).compile();
        assert_eq!(p.states().len(), 2);
        assert_eq!(p.state(0).arcs().len(), 1);
        assert!(p.state(1).is_terminal());
    }

    #[test]
    fn star_loops_in_state_zero() {
        let p = PropRule::Star(r(1)).compile();
        assert_eq!(p.states().len(), 1);
        assert_eq!(p.state(0).arcs()[0].next, 0);
        assert!(!p.state(0).is_terminal());
    }

    #[test]
    fn spread_switches_to_second_relation() {
        let p = PropRule::Spread(r(1), r(2)).compile();
        // In state 0 both relations are live; r2 moves to state 1 which
        // only follows r2 — "switch to r2".
        let arcs0 = p.state(0).arcs();
        assert_eq!(arcs0.len(), 2);
        assert_eq!(arcs0[0], RuleArc::new(r(1), 0));
        assert_eq!(arcs0[1], RuleArc::new(r(2), 1));
        let arcs1 = p.state(1).arcs();
        assert_eq!(arcs1, &[RuleArc::new(r(2), 1)]);
    }

    #[test]
    fn seq_is_exactly_two_steps() {
        let p = PropRule::Seq(r(1), r(2)).compile();
        assert_eq!(p.states().len(), 3);
        assert!(p.state(2).is_terminal());
    }

    #[test]
    fn custom_rule_roundtrip() {
        let prog = RuleProgram::from_states(vec![
            RuleState::new(vec![RuleArc::new(r(5), 1)]),
            RuleState::new(vec![RuleArc::new(r(6), 1), RuleArc::new(r(7), 0)]),
        ]);
        let rule = PropRule::Custom(prog.clone());
        assert_eq!(rule.compile(), prog);
    }

    #[test]
    #[should_panic(expected = "missing state")]
    fn dangling_arc_rejected() {
        RuleProgram::from_states(vec![RuleState::new(vec![RuleArc::new(r(1), 3)])]);
    }

    #[test]
    #[should_panic(expected = "state 1 exceeds 8 arcs")]
    fn oversized_state_rejected() {
        let arcs = (0..9).map(|x| RuleArc::new(r(x), 0)).collect();
        RuleProgram::from_states(vec![RuleState::terminal(), RuleState::new(arcs)]);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_program_rejected() {
        RuleProgram::from_states(vec![]);
    }

    #[test]
    fn display_names() {
        assert_eq!(PropRule::Spread(r(1), r(2)).to_string(), "spread(r1,r2)");
        assert_eq!(PropRule::Once(r(9)).to_string(), "once(r9)");
    }
}
