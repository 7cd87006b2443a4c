//! Property inheritance, SNAP-1 vs the CM-2 baseline (the comparison of
//! Fig. 15): mark a property at the root of a concept hierarchy,
//! propagate it to every leaf, and compare execution characteristics of
//! the MIMD machine against the lockstep SIMD comparator.
//!
//! ```sh
//! cargo run --release --example inheritance
//! ```

use snap_core::{Cm2, Snap1};
use snap_nlu::{hierarchy, inheritance_program};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let snap = Snap1::new();
    let cm2 = Cm2::new();

    println!("root-to-leaf inheritance, branching-4 hierarchies:\n");
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>10}",
        "nodes", "depth", "SNAP-1 ms", "CM-2 ms", "CM-2/SNAP"
    );
    for nodes in [100, 400, 1_600, 6_400] {
        let workload = hierarchy(nodes, 4)?;
        let program = inheritance_program(workload.root);

        let mut net_snap = workload.network.clone();
        let snap_report = snap.run(&mut net_snap, &program)?;
        let mut net_cm2 = workload.network.clone();
        let cm2_report = cm2.run(&mut net_cm2, &program)?;

        // Both machines agree on which leaves inherited the property.
        assert_eq!(snap_report.collects, cm2_report.collects);
        assert_eq!(snap_report.collects[0].node_ids(), workload.leaves);

        println!(
            "{:>8} {:>7} {:>12.3} {:>12.3} {:>9.1}x",
            nodes,
            workload.depth,
            snap_report.total_ns as f64 / 1e6,
            cm2_report.total_ns as f64 / 1e6,
            cm2_report.total_ns as f64 / snap_report.total_ns as f64,
        );
    }
    println!(
        "\nSNAP-1's MIMD array avoids the CM-2's per-wave controller round-trip, \
         but its time grows faster with knowledge-base size — the paper predicts \
         the lines cross for much larger knowledge bases."
    );
    Ok(())
}
