//! Controller-side program planning.
//!
//! The dual-processor controller pipelines execution: the PCP walks the
//! application's control flow while the SCP broadcasts instructions to
//! the array. Consecutive `PROPAGATE` instructions without marker data
//! dependencies are overlapped (β-parallelism); a barrier synchronization
//! is required before any instruction that depends on in-flight markers,
//! and after every propagation group before the accumulation phase.
//!
//! [`PlanBuf::plan`] turns a [`Program`] into the step sequence all
//! engines execute: single instructions and overlapped propagation
//! groups, with an implicit barrier after each group.

use snap_isa::{InstrClass, Instruction, Program};
use snap_kb::Marker;

/// One controller step. A group's members live in the plan's shared
/// index arena instead of an owned `Vec`, so replanning a pooled buffer
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Execute a single (non-propagate) instruction, by program index.
    Instr(usize),
    /// Execute the group `PlanBuf::members(start, len)` overlapped,
    /// then barrier.
    Group {
        /// Offset into [`PlanBuf::members`].
        start: u32,
        /// Number of propagations in the group.
        len: u32,
    },
}

/// The controller's plan of one program, preserving program order for
/// everything except the overlap of independent adjacent propagations.
/// Steps, group membership, and the dependency sets all keep their
/// capacity across calls, so a pooled buffer replans without
/// allocating.
#[derive(Debug, Default)]
pub struct PlanBuf {
    ops: Vec<PlanOp>,
    members: Vec<u32>,
    /// Markers the open group reads and writes: a group is a handful
    /// of propagations, so these are scanned, not hashed.
    reads: Vec<Marker>,
    writes: Vec<Marker>,
    /// Offset of the currently open group in `members`.
    open: u32,
}

impl PlanBuf {
    /// Creates an empty buffer; the first plan sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans `program`, replacing the previous plan in place.
    pub fn plan(&mut self, program: &Program) {
        self.ops.clear();
        self.members.clear();
        self.reads.clear();
        self.writes.clear();
        self.open = 0;
        for (idx, instr) in program.iter().enumerate() {
            if instr.class() == InstrClass::Propagate {
                let ir = instr.reads_fixed();
                let iw = instr.writes_fixed();
                let dependent = ir.into_iter().flatten().any(|m| self.writes.contains(&m))
                    || iw
                        .into_iter()
                        .flatten()
                        .any(|m| self.reads.contains(&m) || self.writes.contains(&m));
                if dependent {
                    self.close();
                }
                self.reads.extend(ir.into_iter().flatten());
                self.writes.extend(iw.into_iter().flatten());
                self.members.push(idx as u32);
            } else {
                self.close();
                self.ops.push(PlanOp::Instr(idx));
            }
        }
        self.close();
    }

    fn close(&mut self) {
        let len = self.members.len() as u32 - self.open;
        if len > 0 {
            self.ops.push(PlanOp::Group {
                start: self.open,
                len,
            });
            self.open = self.members.len() as u32;
            self.reads.clear();
            self.writes.clear();
        }
    }

    /// The planned steps, in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The program indices of one group, in program order.
    pub fn members(&self, start: u32, len: u32) -> &[u32] {
        &self.members[start as usize..(start + len) as usize]
    }
}

/// The pieces of a `PROPAGATE` instruction an engine needs, pre-compiled.
#[derive(Debug, Clone)]
pub struct PropSpec {
    /// Index within the overlap group.
    pub prop: usize,
    /// Source marker.
    pub source: snap_kb::Marker,
    /// Target marker.
    pub target: snap_kb::Marker,
    /// Compiled rule program.
    pub rule: snap_isa::RuleProgram,
    /// Per-step function.
    pub func: snap_isa::StepFunc,
}

impl PropSpec {
    /// Compiles group member `prop` from instruction `instr`.
    ///
    /// # Panics
    ///
    /// Panics if `instr` is not a `PROPAGATE` — a plan only places
    /// propagations in groups.
    pub fn compile(prop: usize, instr: &Instruction) -> Self {
        match instr {
            Instruction::Propagate {
                source,
                target,
                rule,
                func,
            } => PropSpec {
                prop,
                source: *source,
                target: *target,
                rule: rule.compile(),
                func: *func,
            },
            #[allow(clippy::panic, reason = "a plan puts only PROPAGATEs in groups")]
            other => panic!("expected PROPAGATE in group, found {}", other.mnemonic()),
        }
    }

    /// Compiles one planned group — `members` as
    /// [`PlanBuf::members`] returns them — of `program`.
    pub fn compile_group(program: &Program, members: &[u32]) -> Vec<Self> {
        let compile =
            |(g, &idx): (usize, &u32)| PropSpec::compile(g, &program.instructions()[idx as usize]);
        members.iter().enumerate().map(compile).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::{PropRule, StepFunc};
    use snap_kb::{Marker, RelationType};

    fn prop(src: u8, dst: u8) -> Instruction {
        Instruction::Propagate {
            source: Marker::binary(src),
            target: Marker::complex(dst),
            rule: PropRule::Star(RelationType(0)),
            func: StepFunc::Identity,
        }
    }

    /// `PROPAGATE` from a complex source (so propagations can chain).
    fn chain(src: u8, dst: u8) -> Instruction {
        Instruction::Propagate {
            source: Marker::complex(src),
            target: Marker::complex(dst),
            rule: PropRule::Star(RelationType(0)),
            func: StepFunc::Identity,
        }
    }

    /// The three planner cases and the empty program, each with the
    /// ops and the member arena its plan must be.
    fn cases() -> Vec<(Program, Vec<PlanOp>, Vec<u32>)> {
        let collect = Instruction::CollectMarker {
            marker: Marker::complex(3),
        };
        let set = Instruction::SetMarker {
            marker: Marker::binary(1),
            value: 0.0,
        };
        let clear = Instruction::ClearMarker {
            marker: Marker::binary(1),
        };
        let group = |start, len| PlanOp::Group { start, len };
        let case = |instrs: Vec<Instruction>, ops, members| {
            (instrs.into_iter().collect::<Program>(), ops, members)
        };
        vec![
            case(
                vec![prop(1, 3), prop(2, 4), collect],
                vec![group(0, 2), PlanOp::Instr(2)],
                vec![0, 1],
            ),
            case(
                vec![prop(1, 3), chain(3, 4)],
                vec![group(0, 1), group(1, 1)],
                vec![0, 1],
            ),
            case(
                vec![set, prop(1, 3), clear, prop(1, 4)],
                vec![PlanOp::Instr(0), group(0, 1), PlanOp::Instr(2), group(1, 1)],
                vec![1, 3],
            ),
            case(vec![], vec![], vec![]),
        ]
    }

    /// Plans case `i` into `buf` and checks it against its literals.
    fn assert_case(buf: &mut PlanBuf, i: usize) {
        let (program, ops, members) = &cases()[i];
        buf.plan(program);
        assert_eq!(buf.ops(), &ops[..], "case {i}");
        assert_eq!(
            buf.members(0, members.len() as u32),
            &members[..],
            "case {i}"
        );
    }

    #[test]
    fn adjacent_independent_propagates_group() {
        assert_case(&mut PlanBuf::new(), 0);
    }

    #[test]
    fn dependent_propagates_split_groups() {
        assert_case(&mut PlanBuf::new(), 1);
    }

    #[test]
    fn non_propagate_instructions_preserve_order() {
        assert_case(&mut PlanBuf::new(), 2);
    }

    #[test]
    fn plan_buf_matches_plan_and_reuses_cleanly() {
        // One pooled buffer across all programs, twice over: reuse must
        // not leak state between plans.
        let mut buf = PlanBuf::new();
        for _ in 0..2 {
            for i in 0..cases().len() {
                assert_case(&mut buf, i);
            }
        }
    }

    #[test]
    fn compile_extracts_propagate_fields() {
        let i = prop(1, 3);
        let spec = PropSpec::compile(7, &i);
        assert_eq!(spec.prop, 7);
        assert_eq!(spec.source, Marker::binary(1));
        assert_eq!(spec.target, Marker::complex(3));
    }

    #[test]
    #[should_panic(expected = "expected PROPAGATE")]
    fn compile_rejects_non_propagate() {
        PropSpec::compile(0, &Instruction::Barrier);
    }
}
