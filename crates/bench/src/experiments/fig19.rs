//! Fig. 19 — instruction time profile vs knowledge-base size.
//!
//! Propagation dominates at every knowledge-base size, and the relative
//! time spent on non-propagation instructions *decreases slightly* as
//! the knowledge base grows.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::parse_batch;
use snap_core::{RunReport, Snap1};
use snap_isa::InstrClass;

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let sizes: Vec<usize> = if quick {
        vec![2_500, 5_000]
    } else {
        vec![1_000, 2_000, 4_000, 8_000, 12_000]
    };
    let sentences = if quick { 2 } else { 8 };
    let machine = Snap1::new();

    let classes = [
        InstrClass::Propagate,
        InstrClass::Boolean,
        InstrClass::SetClear,
        InstrClass::Search,
        InstrClass::Collect,
    ];
    let mut table = Table::new(
        [
            "KB nodes",
            "propagate ms",
            "boolean ms",
            "set/clear ms",
            "search ms",
            "collect ms",
            "propagate share %",
        ]
        .map(str::to_string)
        .to_vec(),
    );
    let mut shares = Vec::new();
    let mut dominates = true;
    for &n in &sizes {
        let results = parse_batch(n, sentences, &machine, 0x0F160019).expect("parse batch");
        let mut total = RunReport::default();
        for r in results {
            for (&class, &ns) in &r.report.class_time_ns {
                *total.class_time_ns.entry(class).or_insert(0) += ns;
            }
        }
        let prop = total.time_of(InstrClass::Propagate);
        let all: u64 = total.class_time_ns.values().sum();
        let share = prop as f64 / all as f64 * 100.0;
        let mut row = vec![n.to_string()];
        for class in classes {
            row.push(ms(total.time_of(class)));
        }
        row.push(ratio(share));
        table.row(row);
        shares.push(share);
        dominates &= classes[1..].iter().all(|&c| total.time_of(c) <= prop);
    }

    let mut out = ExperimentOutput::new("fig19", "Instruction profile vs knowledge-base size");
    out.table("per-class time across the parse batch", table);
    out.note(format!(
        "propagation is the largest instruction class at every size: {}",
        if dominates { "HOLDS" } else { "CHECK" }
    ));
    let non_prop_shrinks = shares.last().unwrap() >= shares.first().unwrap();
    out.note(format!(
        "relative non-propagation time decreases as the KB grows (share {} → {}%): {}",
        ratio(*shares.first().unwrap()),
        ratio(*shares.last().unwrap()),
        if non_prop_shrinks { "HOLDS" } else { "CHECK" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_dominates() {
        let out = run(true);
        assert!(out.notes[0].contains("HOLDS"), "{:?}", out.notes);
    }
}
