//! Fig. 17 — speedup under β-parallelism.
//!
//! Overlapping independent `PROPAGATE` statements raises utilization,
//! but the paper finds that increasing β above about 16 has little
//! further impact: the marker units saturate. Speedup here is the ratio
//! of running the β propagations **serialized** (a barrier after each)
//! to running them **overlapped** on the same machine.

use crate::output::{ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::{beta_network, beta_program, CHAIN_REL};
use snap_core::Snap1;
use snap_isa::{Program, PropRule, StepFunc};
use snap_kb::{Color, Marker};

/// The serialized variant: identical propagations with a barrier after
/// each, so no β-overlap is possible.
fn serialized_program(beta: usize) -> Program {
    let mut b = Program::builder();
    for i in 0..beta {
        b = b.search_color(Color(10 + i as u8), Marker::binary(i as u8), 0.0);
    }
    for i in 0..beta {
        b = b
            .propagate(
                Marker::binary(i as u8),
                Marker::complex(i as u8),
                PropRule::Star(CHAIN_REL),
                StepFunc::AddWeight,
            )
            .barrier();
    }
    b.collect_marker(Marker::complex(0)).build()
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let betas: Vec<usize> = if quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32, 48]
    };
    let (alpha_each, depth) = (6, 10);
    let machine = Snap1::new(); // 16 clusters / 72 PEs / 40 MUs

    let mut table = Table::new(vec!["β", "serialized ms", "overlapped ms", "speedup"]);
    let mut speedups = Vec::new();
    for &beta in &betas {
        let mut n1 = beta_network(beta, alpha_each, depth).expect("network");
        let serial = machine
            .run(&mut n1, &serialized_program(beta))
            .expect("run")
            .time_of(snap_isa::InstrClass::Propagate) as f64;
        let mut n2 = beta_network(beta, alpha_each, depth).expect("network");
        let overlapped = machine
            .run(&mut n2, &beta_program(beta))
            .expect("run")
            .time_of(snap_isa::InstrClass::Propagate) as f64;
        let speedup = serial / overlapped;
        table.row(vec![
            beta.to_string(),
            crate::output::ms(serial as u64),
            crate::output::ms(overlapped as u64),
            ratio(speedup),
        ]);
        speedups.push(speedup);
    }

    let mut out = ExperimentOutput::new("fig17", "Speedup vs β-parallelism");
    out.table(
        "overlap speedup vs number of overlapped propagations",
        table,
    );
    out.check(
        "speedup grows with β: ",
        speedups.windows(2).all(|w| w[1] >= w[0] * 0.95),
    );
    if !quick {
        // Saturation: gain from 16 → 48 is small relative to 1 → 16.
        let low_gain = speedups[4] / speedups[0];
        let high_gain = speedups[6] / speedups[4];
        out.check(
            format!(
                "β above 16 has little further impact (paper): 1→16 gain ×{low_gain:.2}, \
                 16→48 gain ×{high_gain:.2} — "
            ),
            high_gain < low_gain / 2.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn overlap_speedup_rises_with_beta() {
        crate::experiments::assert_quick_run_holds("fig17");
    }
}
