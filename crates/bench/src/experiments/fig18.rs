//! Fig. 18 — instruction time profile vs number of clusters.
//!
//! Propagation time falls nearly an order of magnitude when the array
//! grows from 1 to 16 clusters; the other instruction classes change
//! only to second order.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::{class_profile, parse_batch};
use snap_core::{MachineConfig, RunReport, Snap1};
use snap_isa::InstrClass;

fn batch_profile(clusters: usize, kb_nodes: usize, sentences: usize) -> RunReport {
    let mut config = MachineConfig::uniform(clusters, 3);
    config.partition = snap_kb::PartitionScheme::RoundRobin;
    let machine = Snap1::builder().config(config).build();
    class_profile(&parse_batch(kb_nodes, sentences, &machine, 0x0F160018).expect("parse batch"))
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let cluster_counts: Vec<usize> = if quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let (kb_nodes, sentences) = if quick { (1_200, 2) } else { (9_000, 8) };

    let classes = [
        InstrClass::Propagate,
        InstrClass::Boolean,
        InstrClass::SetClear,
        InstrClass::Search,
        InstrClass::Collect,
    ];
    let mut table = Table::new(
        std::iter::once("clusters".to_string())
            .chain(classes.iter().map(|c| format!("{c} ms")))
            .collect::<Vec<String>>(),
    );
    let mut prop_times = Vec::new();
    for &c in &cluster_counts {
        let profile = batch_profile(c, kb_nodes, sentences);
        let mut row = vec![c.to_string()];
        for class in classes {
            row.push(ms(profile.time_of(class)));
        }
        table.row(row);
        prop_times.push(profile.time_of(InstrClass::Propagate) as f64);
    }

    let reduction = prop_times[0] / prop_times.last().unwrap();
    let mut out = ExperimentOutput::new("fig18", "Instruction profile vs cluster count");
    out.table("per-class time across the parse batch", table);
    out.check(
        format!(
            "propagation time reduced ×{} from 1 to {} clusters \
             (paper: nearly an order of magnitude from 1 to 16): ",
            ratio(reduction),
            cluster_counts.last().unwrap(),
        ),
        reduction > 3.0,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn propagation_time_falls_with_clusters() {
        crate::experiments::assert_quick_run_holds("fig18");
    }
}
