//! SNAP programs: ordered instruction streams with a builder.
//!
//! Application programs are written on the host and downloaded in their
//! entirety to the controller before execution (avoiding a VME-bus
//! bottleneck). A [`Program`] models that downloaded object code; the
//! controller's program-control processor walks it and the sequence
//! control processor broadcasts each instruction to the array.

use crate::func::{CombineFunc, StepFunc, ValueFunc};
use crate::instruction::Instruction;
use crate::rule::PropRule;
use snap_kb::{Color, Marker, NodeId, RelationType};

/// An ordered sequence of SNAP instructions.
///
/// # Examples
///
/// Build the paper's Fig. 5 parsing fragment:
///
/// ```
/// use snap_isa::{Program, PropRule, StepFunc, CombineFunc};
/// use snap_kb::{Color, Marker, RelationType};
///
/// let (m1, m2, m3, m4, m5) = (
///     Marker::binary(1), Marker::binary(2), Marker::complex(3),
///     Marker::complex(4), Marker::complex(5),
/// );
/// let (is_a, first, last) = (RelationType(0), RelationType(1), RelationType(2));
/// let program = Program::builder()
///     .search_color(Color(1), m1, 0.0)              // L1: locate NP nodes
///     .search_color(Color(2), m2, 0.0)              // L2: locate VP, DO
///     .propagate(m2, m3, PropRule::Spread(is_a, first), StepFunc::AddWeight) // L4
///     .propagate(m1, m4, PropRule::Spread(is_a, last), StepFunc::AddWeight)  // L5
///     .and_marker(m3, m4, m5, CombineFunc::Add)     // L6: intersect
///     .collect_marker(m5)                           // L7: retrieve result
///     .build();
/// assert_eq!(program.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Starts a [`ProgramBuilder`].
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// Appends another program's instructions.
    pub fn append(&mut self, other: &Program) {
        self.instructions.extend_from_slice(&other.instructions);
    }

    /// Iterates the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Program {
            instructions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

/// Fluent builder for [`Program`]s; each method appends one instruction.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Appends an arbitrary instruction.
    pub fn instruction(mut self, i: Instruction) -> Self {
        self.program.push(i);
        self
    }

    /// Appends `CREATE`.
    pub fn create(
        self,
        source: NodeId,
        relation: RelationType,
        weight: f32,
        destination: NodeId,
    ) -> Self {
        self.instruction(Instruction::Create {
            source,
            relation,
            weight,
            destination,
        })
    }

    /// Appends `DELETE`.
    pub fn delete(self, source: NodeId, relation: RelationType, destination: NodeId) -> Self {
        self.instruction(Instruction::Delete {
            source,
            relation,
            destination,
        })
    }

    /// Appends `SET-COLOR`.
    pub fn set_color(self, node: NodeId, color: Color) -> Self {
        self.instruction(Instruction::SetColor { node, color })
    }

    /// Appends `SEARCH-NODE`.
    pub fn search_node(self, node: NodeId, marker: Marker, value: f32) -> Self {
        self.instruction(Instruction::SearchNode {
            node,
            marker,
            value,
        })
    }

    /// Appends `SEARCH-RELATION`.
    pub fn search_relation(self, relation: RelationType, marker: Marker, value: f32) -> Self {
        self.instruction(Instruction::SearchRelation {
            relation,
            marker,
            value,
        })
    }

    /// Appends `SEARCH-COLOR`.
    pub fn search_color(self, color: Color, marker: Marker, value: f32) -> Self {
        self.instruction(Instruction::SearchColor {
            color,
            marker,
            value,
        })
    }

    /// Appends `PROPAGATE`.
    pub fn propagate(self, source: Marker, target: Marker, rule: PropRule, func: StepFunc) -> Self {
        self.instruction(Instruction::Propagate {
            source,
            target,
            rule,
            func,
        })
    }

    /// Appends `MARKER-CREATE`.
    pub fn marker_create(
        self,
        marker: Marker,
        forward: RelationType,
        end: NodeId,
        reverse: RelationType,
    ) -> Self {
        self.instruction(Instruction::MarkerCreate {
            marker,
            forward,
            end,
            reverse,
        })
    }

    /// Appends `MARKER-DELETE`.
    pub fn marker_delete(
        self,
        marker: Marker,
        forward: RelationType,
        end: NodeId,
        reverse: RelationType,
    ) -> Self {
        self.instruction(Instruction::MarkerDelete {
            marker,
            forward,
            end,
            reverse,
        })
    }

    /// Appends `MARKER-SET-COLOR`.
    pub fn marker_set_color(self, marker: Marker, color: Color) -> Self {
        self.instruction(Instruction::MarkerSetColor { marker, color })
    }

    /// Appends `AND-MARKER`.
    pub fn and_marker(self, a: Marker, b: Marker, target: Marker, combine: CombineFunc) -> Self {
        self.instruction(Instruction::AndMarker {
            a,
            b,
            target,
            combine,
        })
    }

    /// Appends `OR-MARKER`.
    pub fn or_marker(self, a: Marker, b: Marker, target: Marker, combine: CombineFunc) -> Self {
        self.instruction(Instruction::OrMarker {
            a,
            b,
            target,
            combine,
        })
    }

    /// Appends `NOT-MARKER`.
    pub fn not_marker(self, source: Marker, target: Marker) -> Self {
        self.instruction(Instruction::NotMarker { source, target })
    }

    /// Appends `SET-MARKER`.
    pub fn set_marker(self, marker: Marker, value: f32) -> Self {
        self.instruction(Instruction::SetMarker { marker, value })
    }

    /// Appends `CLEAR-MARKER`.
    pub fn clear_marker(self, marker: Marker) -> Self {
        self.instruction(Instruction::ClearMarker { marker })
    }

    /// Appends `FUNC-MARKER`.
    pub fn func_marker(self, marker: Marker, func: ValueFunc) -> Self {
        self.instruction(Instruction::FuncMarker { marker, func })
    }

    /// Appends `COLLECT-MARKER`.
    pub fn collect_marker(self, marker: Marker) -> Self {
        self.instruction(Instruction::CollectMarker { marker })
    }

    /// Appends `COLLECT-RELATION`.
    pub fn collect_relation(self, marker: Marker, relation: RelationType) -> Self {
        self.instruction(Instruction::CollectRelation { marker, relation })
    }

    /// Appends `COLLECT-COLOR`.
    pub fn collect_color(self, marker: Marker) -> Self {
        self.instruction(Instruction::CollectColor { marker })
    }

    /// Appends `COMM-END` (explicit barrier).
    pub fn barrier(self) -> Self {
        self.instruction(Instruction::Barrier)
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_order() {
        let p = Program::builder()
            .set_marker(Marker::binary(0), 0.0)
            .clear_marker(Marker::binary(0))
            .barrier()
            .build();
        assert_eq!(p.len(), 3);
        assert_eq!(p.instructions()[2], Instruction::Barrier);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut p: Program = vec![Instruction::Barrier].into_iter().collect();
        p.extend(vec![Instruction::ClearMarker {
            marker: Marker::binary(0),
        }]);
        assert_eq!(p.len(), 2);
        let mut q = Program::new();
        q.append(&p);
        assert_eq!(q.len(), 2);
    }
}
