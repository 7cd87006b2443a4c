//! The 20 high-level SNAP instructions (Table II of the paper).
//!
//! The instruction set was formalized from instruction-level profiles of
//! NLU, concept-classification, and property-inheritance applications. The
//! programmer deals with logical data structures — markers, relations, and
//! nodes — while physical allocation stays transparent regardless of the
//! number of PEs or the size of the semantic network.
//!
//! Where the paper's operand table is ambiguous, the interpretation used
//! here is documented on each variant; all execution engines share it.

use crate::func::{CombineFunc, StepFunc, ValueFunc};
use crate::rule::PropRule;
use core::fmt;
use snap_kb::{Color, Marker, NodeId, RelationType};

/// Instruction classes used by the paper's profiles (Figs. 6, 18, 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrClass {
    /// `PROPAGATE` — dominates execution time (64.5% at 17% frequency).
    Propagate,
    /// `AND-MARKER` / `OR-MARKER` / `NOT-MARKER`.
    Boolean,
    /// `SET-MARKER` / `CLEAR-MARKER` / `FUNC-MARKER`.
    SetClear,
    /// `SEARCH-NODE` / `SEARCH-RELATION` / `SEARCH-COLOR`.
    Search,
    /// `COLLECT-*` retrieval operations.
    Collect,
    /// Node and marker-node maintenance.
    Maintenance,
    /// Explicit barrier (`COMM-END`).
    Barrier,
}

impl InstrClass {
    /// All classes, in profile-report order.
    pub const ALL: [InstrClass; 7] = [
        InstrClass::Propagate,
        InstrClass::Boolean,
        InstrClass::SetClear,
        InstrClass::Search,
        InstrClass::Collect,
        InstrClass::Maintenance,
        InstrClass::Barrier,
    ];
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Propagate => "propagate",
            InstrClass::Boolean => "boolean",
            InstrClass::SetClear => "set/clear",
            InstrClass::Search => "search",
            InstrClass::Collect => "collect",
            InstrClass::Maintenance => "maintenance",
            InstrClass::Barrier => "barrier",
        };
        f.write_str(s)
    }
}

/// One SNAP instruction.
///
/// The set is intentionally exhaustive: the paper formalizes exactly 20
/// high-level instructions, and engines match on all of them.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    // ----- node maintenance -----
    /// `CREATE source-node, relation, weight, end-node`: add a link,
    /// loading the knowledge base incrementally.
    Create {
        /// Link source.
        source: NodeId,
        /// Link type.
        relation: RelationType,
        /// Link weight.
        weight: f32,
        /// Link destination.
        destination: NodeId,
    },
    /// `DELETE source-node, relation, end-node`: remove a link.
    Delete {
        /// Link source.
        source: NodeId,
        /// Link type.
        relation: RelationType,
        /// Link destination.
        destination: NodeId,
    },
    /// `SET-COLOR node, color`: change a node's concept type.
    SetColor {
        /// Node to re-color.
        node: NodeId,
        /// New color.
        color: Color,
    },

    // ----- search -----
    /// `SEARCH-NODE node, marker, value`: initialize `marker` with `value`
    /// at one node.
    SearchNode {
        /// Node to mark.
        node: NodeId,
        /// Marker to activate.
        marker: Marker,
        /// Initial value (complex markers only).
        value: f32,
    },
    /// `SEARCH-RELATION relation, marker, value`: activate `marker` at
    /// every node having an **outgoing** link of the given type (a
    /// distributed search executed by all PEs in parallel).
    SearchRelation {
        /// Relation to search for.
        relation: RelationType,
        /// Marker to activate.
        marker: Marker,
        /// Initial value.
        value: f32,
    },
    /// `SEARCH-COLOR color, marker, value`: activate `marker` at every
    /// node of the given color.
    SearchColor {
        /// Color to search for.
        color: Color,
        /// Marker to activate.
        marker: Marker,
        /// Initial value.
        value: f32,
    },

    // ----- propagation -----
    /// `PROPAGATE marker-1, marker-2, rule-type(r1,r2), function`: from
    /// every node where `source` is set, send `target` along the paths
    /// dictated by `rule`, applying `func` to the value at each traversed
    /// link. When several marker instances reach the same node, the
    /// instance with the **smaller value** wins the binding (documented
    /// tie-break: smaller origin node ID) — cost semantics shared by every
    /// engine.
    Propagate {
        /// Marker selecting the origin nodes (`marker-1`).
        source: Marker,
        /// Marker propagated through the network (`marker-2`).
        target: Marker,
        /// Traversal strategy.
        rule: PropRule,
        /// Per-step value update.
        func: StepFunc,
    },

    // ----- marker node maintenance -----
    /// `MARKER-CREATE marker, forward-relation, end-node,
    /// reverse-relation`: bind every node carrying `marker` to `end` by
    /// creating `node --forward--> end` and `end --reverse--> node` links.
    MarkerCreate {
        /// Marker selecting nodes to bind.
        marker: Marker,
        /// Relation for the node→end links.
        forward: RelationType,
        /// Node to bind to.
        end: NodeId,
        /// Relation for the end→node links.
        reverse: RelationType,
    },
    /// `MARKER-DELETE`: remove the links a matching `MARKER-CREATE` made.
    MarkerDelete {
        /// Marker selecting bound nodes.
        marker: Marker,
        /// Relation of the node→end links.
        forward: RelationType,
        /// Bound node.
        end: NodeId,
        /// Relation of the end→node links.
        reverse: RelationType,
    },
    /// `MARKER-SET-COLOR marker, color`: re-color every marked node.
    MarkerSetColor {
        /// Marker selecting nodes.
        marker: Marker,
        /// New color.
        color: Color,
    },

    // ----- boolean (global, word-parallel) -----
    /// `AND-MARKER marker-1, marker-2, marker-3, function`: set `target`
    /// where both sources are set; combine values with `combine`.
    AndMarker {
        /// First source marker.
        a: Marker,
        /// Second source marker.
        b: Marker,
        /// Result marker.
        target: Marker,
        /// Value combination.
        combine: CombineFunc,
    },
    /// `OR-MARKER marker-1, marker-2, marker-3, function`: set `target`
    /// where either source is set; where both are set, combine values.
    OrMarker {
        /// First source marker.
        a: Marker,
        /// Second source marker.
        b: Marker,
        /// Result marker.
        target: Marker,
        /// Value combination where both sources are active.
        combine: CombineFunc,
    },
    /// `NOT-MARKER marker-1, marker-2`: set `target` exactly where
    /// `source` is clear.
    NotMarker {
        /// Source marker.
        source: Marker,
        /// Result marker.
        target: Marker,
    },

    // ----- set/clear (global, unconditional) -----
    /// `SET-MARKER marker, value`: activate at **all** nodes with `value`.
    SetMarker {
        /// Marker to set everywhere.
        marker: Marker,
        /// Value written to complex markers.
        value: f32,
    },
    /// `CLEAR-MARKER marker`: deactivate everywhere.
    ClearMarker {
        /// Marker to clear.
        marker: Marker,
    },
    /// `FUNC-MARKER marker, function`: apply `func` to the marker's value
    /// at every active node (may deactivate, for thresholding).
    FuncMarker {
        /// Marker to update.
        marker: Marker,
        /// Value function.
        func: ValueFunc,
    },

    // ----- retrieval -----
    /// `COLLECT-MARKER marker`: return the IDs (and values) of nodes
    /// where `marker` is active.
    CollectMarker {
        /// Marker to collect.
        marker: Marker,
    },
    /// `COLLECT-RELATION marker, relation`: return the outgoing links of
    /// the given type at nodes where `marker` is active.
    CollectRelation {
        /// Marker selecting nodes.
        marker: Marker,
        /// Relation type to report.
        relation: RelationType,
    },
    /// `COLLECT-COLOR marker`: return the colors of nodes where `marker`
    /// is active.
    CollectColor {
        /// Marker selecting nodes.
        marker: Marker,
    },

    // ----- synchronization -----
    /// `COMM-END`: explicit barrier — wait until all in-flight
    /// propagations terminate before continuing.
    Barrier,
}

impl Instruction {
    /// The profile class of this instruction.
    pub fn class(&self) -> InstrClass {
        use Instruction::*;
        match self {
            Propagate { .. } => InstrClass::Propagate,
            AndMarker { .. } | OrMarker { .. } | NotMarker { .. } => InstrClass::Boolean,
            SetMarker { .. } | ClearMarker { .. } | FuncMarker { .. } => InstrClass::SetClear,
            SearchNode { .. } | SearchRelation { .. } | SearchColor { .. } => InstrClass::Search,
            CollectMarker { .. } | CollectRelation { .. } | CollectColor { .. } => {
                InstrClass::Collect
            }
            Create { .. }
            | Delete { .. }
            | SetColor { .. }
            | MarkerCreate { .. }
            | MarkerDelete { .. }
            | MarkerSetColor { .. } => InstrClass::Maintenance,
            Barrier => InstrClass::Barrier,
        }
    }

    /// Markers this instruction reads (used by β-parallelism analysis and
    /// by the controller to decide which barriers are required). No
    /// instruction reads more than two markers, so the set fits a fixed
    /// pair, allocation-free; iterate with `.into_iter().flatten()`.
    pub fn reads_fixed(&self) -> [Option<Marker>; 2] {
        use Instruction::*;
        match self {
            Propagate { source, .. } => [Some(*source), None],
            AndMarker { a, b, .. } | OrMarker { a, b, .. } => [Some(*a), Some(*b)],
            NotMarker { source, .. } => [Some(*source), None],
            FuncMarker { marker, .. } => [Some(*marker), None],
            MarkerCreate { marker, .. }
            | MarkerDelete { marker, .. }
            | MarkerSetColor { marker, .. }
            | CollectMarker { marker }
            | CollectRelation { marker, .. }
            | CollectColor { marker } => [Some(*marker), None],
            _ => [None, None],
        }
    }

    /// Markers this instruction writes — the write-set twin of
    /// [`Instruction::reads_fixed`].
    pub fn writes_fixed(&self) -> [Option<Marker>; 2] {
        use Instruction::*;
        match self {
            Propagate { target, .. } => [Some(*target), None],
            AndMarker { target, .. } | OrMarker { target, .. } | NotMarker { target, .. } => {
                [Some(*target), None]
            }
            SearchNode { marker, .. }
            | SearchRelation { marker, .. }
            | SearchColor { marker, .. }
            | SetMarker { marker, .. }
            | ClearMarker { marker }
            | FuncMarker { marker, .. } => [Some(*marker), None],
            _ => [None, None],
        }
    }

    /// The instruction's mnemonic, as used by the assembler.
    pub fn mnemonic(&self) -> &'static str {
        use Instruction::*;
        match self {
            Create { .. } => "create",
            Delete { .. } => "delete",
            SetColor { .. } => "set-color",
            SearchNode { .. } => "search-node",
            SearchRelation { .. } => "search-relation",
            SearchColor { .. } => "search-color",
            Propagate { .. } => "propagate",
            MarkerCreate { .. } => "marker-create",
            MarkerDelete { .. } => "marker-delete",
            MarkerSetColor { .. } => "marker-set-color",
            AndMarker { .. } => "and-marker",
            OrMarker { .. } => "or-marker",
            NotMarker { .. } => "not-marker",
            SetMarker { .. } => "set-marker",
            ClearMarker { .. } => "clear-marker",
            FuncMarker { .. } => "func-marker",
            CollectMarker { .. } => "collect-marker",
            CollectRelation { .. } => "collect-relation",
            CollectColor { .. } => "collect-color",
            Barrier => "comm-end",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::PropRule;

    fn sample_propagate() -> Instruction {
        Instruction::Propagate {
            source: Marker::binary(1),
            target: Marker::complex(4),
            rule: PropRule::Spread(RelationType(0), RelationType(1)),
            func: StepFunc::AddWeight,
        }
    }

    #[test]
    fn classes_cover_all_twenty_instructions() {
        use Instruction::*;
        let instrs: Vec<Instruction> = vec![
            Create {
                source: NodeId(0),
                relation: RelationType(0),
                weight: 1.0,
                destination: NodeId(1),
            },
            Delete {
                source: NodeId(0),
                relation: RelationType(0),
                destination: NodeId(1),
            },
            SetColor {
                node: NodeId(0),
                color: Color(1),
            },
            SearchNode {
                node: NodeId(0),
                marker: Marker::binary(0),
                value: 0.0,
            },
            SearchRelation {
                relation: RelationType(0),
                marker: Marker::binary(0),
                value: 0.0,
            },
            SearchColor {
                color: Color(0),
                marker: Marker::binary(0),
                value: 0.0,
            },
            sample_propagate(),
            MarkerCreate {
                marker: Marker::binary(0),
                forward: RelationType(1),
                end: NodeId(0),
                reverse: RelationType(2),
            },
            MarkerDelete {
                marker: Marker::binary(0),
                forward: RelationType(1),
                end: NodeId(0),
                reverse: RelationType(2),
            },
            MarkerSetColor {
                marker: Marker::binary(0),
                color: Color(1),
            },
            AndMarker {
                a: Marker::binary(0),
                b: Marker::binary(1),
                target: Marker::binary(2),
                combine: CombineFunc::Min,
            },
            OrMarker {
                a: Marker::binary(0),
                b: Marker::binary(1),
                target: Marker::binary(2),
                combine: CombineFunc::Add,
            },
            NotMarker {
                source: Marker::binary(0),
                target: Marker::binary(1),
            },
            SetMarker {
                marker: Marker::binary(0),
                value: 0.0,
            },
            ClearMarker {
                marker: Marker::binary(0),
            },
            FuncMarker {
                marker: Marker::complex(0),
                func: ValueFunc::Scale(2.0),
            },
            CollectMarker {
                marker: Marker::binary(0),
            },
            CollectRelation {
                marker: Marker::binary(0),
                relation: RelationType(0),
            },
            CollectColor {
                marker: Marker::binary(0),
            },
            Barrier,
        ];
        assert_eq!(instrs.len(), 20, "the paper formalizes 20 instructions");
        for i in &instrs {
            // Every instruction maps to a class and a mnemonic.
            let _ = i.class();
            assert!(!i.mnemonic().is_empty());
        }
        assert_eq!(instrs[6].class(), InstrClass::Propagate);
        assert_eq!(instrs[10].class(), InstrClass::Boolean);
        assert_eq!(instrs[13].class(), InstrClass::SetClear);
        assert_eq!(instrs[3].class(), InstrClass::Search);
        assert_eq!(instrs[16].class(), InstrClass::Collect);
        assert_eq!(instrs[0].class(), InstrClass::Maintenance);
        assert_eq!(instrs[19].class(), InstrClass::Barrier);
    }

    #[test]
    fn propagate_reads_source_writes_target() {
        let p = sample_propagate();
        assert_eq!(p.reads_fixed(), [Some(Marker::binary(1)), None]);
        assert_eq!(p.writes_fixed(), [Some(Marker::complex(4)), None]);
    }

    #[test]
    fn boolean_reads_both_sources() {
        let i = Instruction::AndMarker {
            a: Marker::binary(3),
            b: Marker::complex(4),
            target: Marker::binary(5),
            combine: CombineFunc::Min,
        };
        assert_eq!(
            i.reads_fixed(),
            [Some(Marker::binary(3)), Some(Marker::complex(4))]
        );
        assert_eq!(i.writes_fixed(), [Some(Marker::binary(5)), None]);
    }

    #[test]
    fn func_marker_reads_and_writes_same_marker() {
        let i = Instruction::FuncMarker {
            marker: Marker::complex(2),
            func: ValueFunc::ClearIf(crate::func::Cmp::Gt, 1.0),
        };
        assert_eq!(i.reads_fixed(), i.writes_fixed());
    }
}
