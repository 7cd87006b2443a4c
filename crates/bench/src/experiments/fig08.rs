//! Fig. 8 — time distribution of marker traffic.
//!
//! Parsing generates **bursts** of marker activation: the paper measures
//! the inter-cluster marker-activation messages at each barrier
//! synchronization, finding an average of 11.49 messages per
//! synchronization point with typical bursts of over 30 — the ICN must
//! absorb these or senders block.

use crate::output::{ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::parse_batch;
use snap_core::Snap1;
use snap_kb::PartitionScheme;

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the underlying machine rejects a generated program.
pub fn run(quick: bool) -> ExperimentOutput {
    let (kb_nodes, sentences) = if quick { (1_500, 2) } else { (12_000, 8) };
    // Semantically-based allocation, as the machine would be run.
    let machine = Snap1::builder()
        .clusters(16)
        .partition(PartitionScheme::Semantic)
        .build();
    let reports = parse_batch(kb_nodes, sentences, &machine, 0x0F160008).expect("parse batch");

    let mut series: Vec<u64> = Vec::new();
    let mut faults = snap_core::FaultReport::default();
    for r in &reports {
        series.extend(&r.report.traffic.messages_per_sync);
        faults = faults.merged(&r.report.faults);
    }
    let mean = series.iter().sum::<u64>() as f64 / series.len().max(1) as f64;
    let max = series.iter().copied().max().unwrap_or(0);

    let mut table = Table::new(vec!["sync point", "messages"]);
    for (i, &m) in series.iter().enumerate() {
        table.row(vec![i.to_string(), m.to_string()]);
    }
    let mut stats = Table::new(vec!["statistic", "value"]);
    stats.row(vec!["sync points".into(), series.len().to_string()]);
    stats.row(vec!["mean messages/sync".into(), ratio(mean)]);
    stats.row(vec!["max burst".into(), max.to_string()]);

    let mut out = ExperimentOutput::new("fig08", "Marker traffic per barrier synchronization");
    out.table("messages at each synchronization point", table);
    out.table("summary", stats);
    out.check(
        format!(
            "mean {mean:.2} messages/sync (paper: 11.49); max burst {max} (paper: bursts \
             over 30) — bursty traffic: "
        ),
        max as f64 > mean * 2.0,
    );
    out.note(
        "absolute message counts exceed the paper's — the synthetic KB is \
         denser and the template-extraction pass is network-wide; the \
         burst *shape* is the reproduced property",
    );
    if !faults.is_empty() {
        out.note(format!("faults: {faults}"));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn produces_bursty_series() {
        crate::experiments::assert_quick_run_holds("fig08");
    }
}
