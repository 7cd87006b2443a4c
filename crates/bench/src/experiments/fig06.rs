//! Fig. 6 — relative instruction frequency and execution time.
//!
//! The paper profiles NLU applications on a single processor: while
//! `PROPAGATE` is only 17.0% of the instructions executed, it consumes
//! 64.5% of the overall processing time, so propagation is what the
//! architecture must optimize.

use crate::output::{ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::{class_profile, parse_batch};
use snap_core::{EngineKind, Snap1};
use snap_isa::InstrClass;

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the underlying machine rejects a generated program (a bug,
/// not an input condition).
pub fn run(quick: bool) -> ExperimentOutput {
    let (kb_nodes, sentences) = if quick { (1_000, 3) } else { (9_000, 12) };
    let machine = Snap1::builder()
        .clusters(1)
        .mus_per_cluster(1)
        .engine(EngineKind::Sequential)
        .build();
    let reports = parse_batch(kb_nodes, sentences, &machine, 0x0F160006).expect("parse batch");
    let total = class_profile(&reports);

    let mut table = Table::new(vec!["class", "count", "count %", "time ms", "time %"]);
    for class in InstrClass::ALL {
        let n = total.count_of(class);
        if n == 0 {
            continue;
        }
        table.row(vec![
            class.to_string(),
            n.to_string(),
            ratio(total.count_fraction(class) * 100.0),
            crate::output::ms(total.time_of(class)),
            ratio(total.time_fraction(class) * 100.0),
        ]);
    }

    let prop_count = total.count_fraction(InstrClass::Propagate) * 100.0;
    let prop_time = total.time_fraction(InstrClass::Propagate) * 100.0;
    let mut out = ExperimentOutput::new(
        "fig06",
        "Relative instruction frequency and execution time (single PE)",
    );
    out.table(
        format!("instruction profile over {sentences} parsed sentences, {kb_nodes}-node KB"),
        table,
    );
    out.check(
        format!(
            "PROPAGATE: {prop_count:.1}% of instructions, {prop_time:.1}% of time \
             (paper: 17.0% / 64.5%) — propagation dominates time, not count: "
        ),
        prop_time > prop_count * 2.0,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn propagate_dominates_time_not_count() {
        crate::experiments::assert_quick_run_holds("fig06");
    }
}
