//! Fig. 16 — speedup under α-parallelism.
//!
//! Speedup versus processor count for α ∈ {10, 100, 1000} source
//! activations: obtaining 20-fold speedup requires α on the order of
//! 100; at α = 1000 speedup is nearly linear up to the full 72-PE
//! configuration; for typical α (128–512) speedup is 18–33-fold.

use crate::output::{ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::{alpha_network, alpha_program};
use snap_core::{EngineKind, MachineConfig, Snap1};

/// Machine configurations swept (cluster count, MUs per cluster).
fn sweep(quick: bool) -> Vec<MachineConfig> {
    let mut configs = vec![
        MachineConfig::uniform(1, 1),
        MachineConfig::uniform(1, 3),
        MachineConfig::uniform(2, 3),
        MachineConfig::uniform(4, 3),
        MachineConfig::uniform(8, 3),
    ];
    if !quick {
        configs.push(MachineConfig::uniform(16, 3));
        configs.push(MachineConfig::snap1_eval()); // 72 PEs, as in the paper
    }
    configs
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let alphas: Vec<usize> = if quick {
        vec![10, 100]
    } else {
        vec![10, 100, 1000]
    };
    let depth = 12; // the paper's propagation paths run 10–15 steps

    let mut table = Table::new(
        vec!["PEs".to_string(), "clusters".to_string()]
            .into_iter()
            .chain(alphas.iter().map(|a| format!("speedup α={a}")))
            .collect::<Vec<String>>(),
    );

    // Baseline: the single-PE sequential engine.
    let mut base_times = Vec::new();
    for &alpha in &alphas {
        let mut net = alpha_network(alpha, depth).expect("network");
        let machine = Snap1::builder()
            .config(MachineConfig::uniform(1, 1))
            .engine(EngineKind::Sequential)
            .build();
        base_times.push(
            machine
                .run(&mut net, &alpha_program())
                .expect("run")
                .time_of(snap_isa::InstrClass::Propagate) as f64,
        );
    }

    let mut final_speedups = vec![0.0; alphas.len()];
    for config in sweep(quick) {
        let pes = config.pe_count();
        let clusters = config.clusters;
        let mut row = vec![pes.to_string(), clusters.to_string()];
        for (i, &alpha) in alphas.iter().enumerate() {
            let mut net = alpha_network(alpha, depth).expect("network");
            let machine = Snap1::builder().config(config.clone()).build();
            let t = machine
                .run(&mut net, &alpha_program())
                .expect("run")
                .time_of(snap_isa::InstrClass::Propagate) as f64;
            let speedup = base_times[i] / t;
            row.push(ratio(speedup));
            final_speedups[i] = speedup;
        }
        table.row(row);
    }

    let mut out = ExperimentOutput::new("fig16", "Speedup vs processors under α-parallelism");
    out.table(
        "propagation-phase speedup over the single-PE sequential engine",
        table,
    );
    out.check(
        "larger α yields larger speedup at full configuration \
         (paper: α=1000 near-linear, α=100 ≈ 20×, α=10 small): ",
        final_speedups.windows(2).all(|w| w[1] > w[0]),
    );
    if !quick {
        out.note(format!(
            "at 72 PEs: α=10 → {:.1}×, α=100 → {:.1}×, α=1000 → {:.1}×",
            final_speedups[0], final_speedups[1], final_speedups[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn alpha_ordering_holds() {
        crate::experiments::assert_quick_run_holds("fig16");
    }
}
