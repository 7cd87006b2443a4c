//! Static program analysis: inter-propagation (β) parallelism.
//!
//! SNAP-1 overlaps `PROPAGATE` statements that have no data dependencies
//! in the markers used (β-parallelism). The paper measured `β_min = 2.8`,
//! `β_max = 6` for the PASS speech program and `β_min = 2.3`, `β_max = 5`
//! for the DMSNAP NLU program. This module reproduces that analysis: it
//! walks a program, groups consecutive overlappable `PROPAGATE`
//! instructions, and reports the β statistics.
//!
//! Two propagations can overlap when neither writes a marker the other
//! reads or writes. Any non-propagate instruction that touches a marker
//! involved in the current group — or an explicit barrier / collect —
//! closes the group.

use crate::instruction::InstrClass;
use crate::program::Program;
use snap_kb::Marker;
use std::collections::HashSet;

/// β-parallelism statistics of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaStats {
    /// Sizes of each overlap group of `PROPAGATE` instructions, in
    /// program order.
    pub groups: Vec<usize>,
}

impl BetaStats {
    /// Smallest overlap group (β_min). Zero for programs with no
    /// propagations.
    pub fn beta_min(&self) -> usize {
        self.groups.iter().copied().min().unwrap_or(0)
    }

    /// Largest overlap group (β_max).
    pub fn beta_max(&self) -> usize {
        self.groups.iter().copied().max().unwrap_or(0)
    }

    /// Mean overlap group size (β_ave).
    pub fn beta_avg(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.groups.iter().sum::<usize>() as f64 / self.groups.len() as f64
        }
    }
}

/// Analyses β-parallelism in `program`.
///
/// # Examples
///
/// ```
/// use snap_isa::{analyze_beta, Program, PropRule, StepFunc};
/// use snap_kb::{Marker, RelationType};
///
/// // Two independent propagations (L4/L5 of the paper's Fig. 5) overlap.
/// let p = Program::builder()
///     .propagate(Marker::binary(2), Marker::complex(3),
///                PropRule::Star(RelationType(0)), StepFunc::AddWeight)
///     .propagate(Marker::binary(1), Marker::complex(4),
///                PropRule::Star(RelationType(1)), StepFunc::AddWeight)
///     .build();
/// assert_eq!(analyze_beta(&p).beta_max(), 2);
/// ```
pub fn analyze_beta(program: &Program) -> BetaStats {
    let mut groups = Vec::new();
    let mut group = 0usize;
    // Markers read/written by the propagations in the current open group.
    let mut reads: HashSet<Marker> = HashSet::new();
    let mut writes: HashSet<Marker> = HashSet::new();

    let mut close =
        |group: &mut usize, reads: &mut HashSet<Marker>, writes: &mut HashSet<Marker>| {
            if *group > 0 {
                groups.push(*group);
                *group = 0;
                reads.clear();
                writes.clear();
            }
        };

    for instr in program {
        match instr.class() {
            InstrClass::Propagate => {
                let ir: HashSet<Marker> = instr.reads_fixed().into_iter().flatten().collect();
                let iw: HashSet<Marker> = instr.writes_fixed().into_iter().flatten().collect();
                // Dependent if it reads something the group writes, writes
                // something the group reads, or writes what the group writes.
                let dependent = ir.iter().any(|m| writes.contains(m))
                    || iw.iter().any(|m| reads.contains(m) || writes.contains(m));
                if dependent {
                    close(&mut group, &mut reads, &mut writes);
                }
                reads.extend(ir);
                writes.extend(iw);
                group += 1;
            }
            InstrClass::Barrier | InstrClass::Collect => {
                close(&mut group, &mut reads, &mut writes);
            }
            _ => {
                // Any other instruction touching a live marker closes the group.
                let touches = (instr.reads_fixed().into_iter())
                    .chain(instr.writes_fixed())
                    .flatten()
                    .any(|m| reads.contains(&m) || writes.contains(&m));
                if touches {
                    close(&mut group, &mut reads, &mut writes);
                }
            }
        }
    }
    close(&mut group, &mut reads, &mut writes);
    BetaStats { groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{CombineFunc, StepFunc};
    use crate::instruction::Instruction;
    use crate::rule::PropRule;
    use snap_kb::RelationType;

    fn prop(src: u8, dst: u8) -> Instruction {
        Instruction::Propagate {
            source: Marker::binary(src),
            target: Marker::complex(dst),
            rule: PropRule::Star(RelationType(0)),
            func: StepFunc::Identity,
        }
    }

    #[test]
    fn independent_propagations_overlap() {
        let p: Program = vec![prop(1, 3), prop(2, 4), prop(5, 6)]
            .into_iter()
            .collect();
        let stats = analyze_beta(&p);
        assert_eq!(stats.groups, vec![3]);
        assert_eq!(stats.beta_min(), 3);
        assert_eq!(stats.beta_max(), 3);
    }

    #[test]
    fn chained_propagations_do_not_overlap() {
        // Second reads what the first writes (target complex(3) is source).
        let chain = Instruction::Propagate {
            source: Marker::complex(3),
            target: Marker::complex(4),
            rule: PropRule::Star(RelationType(0)),
            func: StepFunc::Identity,
        };
        let p: Program = vec![prop(1, 3), chain].into_iter().collect();
        assert_eq!(analyze_beta(&p).groups, vec![1, 1]);
    }

    #[test]
    fn barrier_closes_group() {
        let p: Program = vec![prop(1, 3), Instruction::Barrier, prop(2, 4)]
            .into_iter()
            .collect();
        assert_eq!(analyze_beta(&p).groups, vec![1, 1]);
    }

    #[test]
    fn boolean_on_group_marker_closes_group() {
        let and = Instruction::AndMarker {
            a: Marker::complex(3),
            b: Marker::complex(4),
            target: Marker::binary(9),
            combine: CombineFunc::Add,
        };
        let p: Program = vec![prop(1, 3), prop(2, 4), and, prop(5, 6)]
            .into_iter()
            .collect();
        assert_eq!(analyze_beta(&p).groups, vec![2, 1]);
    }

    #[test]
    fn unrelated_instructions_do_not_close_group() {
        let unrelated = Instruction::SetMarker {
            marker: Marker::binary(60),
            value: 0.0,
        };
        let p: Program = vec![prop(1, 3), unrelated, prop(2, 4)]
            .into_iter()
            .collect();
        assert_eq!(analyze_beta(&p).groups, vec![2]);
    }

    #[test]
    fn empty_program_reports_zero() {
        let stats = analyze_beta(&Program::new());
        assert_eq!(stats.beta_min(), 0);
        assert_eq!(stats.beta_max(), 0);
        assert_eq!(stats.beta_avg(), 0.0);
    }

    #[test]
    fn same_target_conflicts() {
        let p: Program = vec![prop(1, 3), prop(2, 3)].into_iter().collect();
        assert_eq!(analyze_beta(&p).groups, vec![1, 1]);
    }
}
