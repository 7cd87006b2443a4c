//! Fig. 20 — operation counts vs knowledge-base size.
//!
//! Growing the knowledge base activates more irrelevant candidate
//! sequences, which must be removed by propagating cancel markers
//! during the multiple-hypothesis-resolution phase — so total
//! propagation work rises with size (expected to level off around
//! 5000). Set/clear, boolean, and collection counts stay roughly
//! constant.

use crate::output::{ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::parse_batch;
use snap_core::Snap1;
use snap_isa::InstrClass;

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let sizes: Vec<usize> = if quick {
        vec![600, 1_200, 2_400]
    } else {
        vec![1_000, 2_000, 4_000, 8_000, 12_000]
    };
    let sentences = if quick { 2 } else { 10 };
    let machine = Snap1::new();

    let mut table = Table::new(vec![
        "KB nodes",
        "propagations (node expansions)",
        "propagate instrs",
        "set/clear instrs",
        "boolean instrs",
        "collect instrs",
    ]);
    let mut expansions = Vec::new();
    let mut setclear = Vec::new();
    for &n in &sizes {
        let results = parse_batch(n, sentences, &machine, 0x0F160020).expect("parse batch");
        let mut exp = 0u64;
        let (mut p, mut sc, mut bo, mut co) = (0u64, 0u64, 0u64, 0u64);
        for r in &results {
            exp += r.report.expansions;
            p += r.report.count_of(InstrClass::Propagate);
            sc += r.report.count_of(InstrClass::SetClear);
            bo += r.report.count_of(InstrClass::Boolean);
            co += r.report.count_of(InstrClass::Collect);
        }
        table.row(vec![
            n.to_string(),
            exp.to_string(),
            p.to_string(),
            sc.to_string(),
            bo.to_string(),
            co.to_string(),
        ]);
        expansions.push(exp as f64);
        setclear.push(sc as f64);
    }

    let growth = expansions.last().unwrap() / expansions.first().unwrap();
    let sc_growth = setclear.last().unwrap() / setclear.first().unwrap();
    let mut out = ExperimentOutput::new("fig20", "Operation counts vs knowledge-base size");
    out.table("per-class operation counts across the parse batch", table);
    out.check(
        format!(
            "propagation work grows with KB size (×{}) while set/clear stays \
             roughly constant (×{}) — ",
            ratio(growth),
            ratio(sc_growth),
        ),
        growth > sc_growth * 1.5,
    );
    out.note(
        "the paper counts 'propagations'; this reproduction reports node \
         expansions (units of propagation work) plus raw instruction counts",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn propagation_work_grows_with_kb() {
        crate::experiments::assert_quick_run_holds("fig20");
    }
}
