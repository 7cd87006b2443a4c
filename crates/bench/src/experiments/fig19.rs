//! Fig. 19 — instruction time profile vs knowledge-base size.
//!
//! Propagation dominates at every knowledge-base size, and the relative
//! time spent on non-propagation instructions *decreases slightly* as
//! the knowledge base grows.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::{class_profile, parse_batch};
use snap_core::Snap1;
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
        let total =
            class_profile(&parse_batch(n, sentences, &machine, 0x0F160019).expect("parse batch"));
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
    out.check(
        "propagation is the largest instruction class at every size: ",
        dominates,
    );
    let (first, last) = (shares[0], shares[shares.len() - 1]);
    out.check(
        format!(
            "relative non-propagation time decreases as the KB grows (propagate share {} → \
             {}%): ",
            ratio(first),
            ratio(last),
        ),
        last >= first,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn propagation_dominates() {
        crate::experiments::assert_quick_run_holds("fig19");
    }
}
