//! Fig. 15 — inheritance: SNAP-1 vs CM-2.
//!
//! Root-to-leaf property inheritance measured against knowledge-base
//! size. The CM-2 must iterate between controller and array on every
//! propagation step, so its time is high but nearly flat; SNAP-1's
//! selective MIMD propagation is much faster at these sizes but its
//! slope is steeper, and the paper predicts the lines cross for larger
//! knowledge bases.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use snap_core::{Cm2, Snap1};
use snap_nlu::{hierarchy, inheritance_program};

/// Runs the experiment.
///
/// # Panics
///
/// Panics if hierarchy construction or a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let sizes: Vec<usize> = if quick {
        vec![100, 400, 1_600]
    } else {
        vec![100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600]
    };
    let snap = Snap1::new(); // 16 clusters / 72 PEs
    let cm2 = Cm2::new();

    let mut table = Table::new(vec!["nodes", "depth", "SNAP-1 ms", "CM-2 ms"]);
    let mut snap_times = Vec::new();
    let mut cm2_times = Vec::new();
    for &n in &sizes {
        let w = hierarchy(n, 4).expect("hierarchy");
        let program = inheritance_program(w.root);
        let mut net1 = w.network.clone();
        let snap_ns = snap.run(&mut net1, &program).expect("snap run").total_ns;
        let mut net2 = w.network.clone();
        let cm2_ns = cm2.run(&mut net2, &program).expect("cm2 run").total_ns;
        table.row(vec![
            n.to_string(),
            w.depth.to_string(),
            ms(snap_ns),
            ms(cm2_ns),
        ]);
        snap_times.push(snap_ns as f64);
        cm2_times.push(cm2_ns as f64);
    }

    // Slopes over the measured range (time growth per node-count
    // doubling, averaged).
    let growth = |t: &[f64]| (t.last().unwrap() / t.first().unwrap()).max(1.0);
    let span = (*sizes.last().unwrap() as f64 / sizes[0] as f64).log2();
    let snap_slope = growth(&snap_times).log2() / span;
    let cm2_slope = growth(&cm2_times).log2() / span;

    // Extrapolated crossover: SNAP grows ~linearly, CM-2 ~log — solve
    // snap(n) = cm2(n) with the measured end-point slopes.
    let crossover = {
        let (n0, snap0, cm20) = (
            *sizes.last().unwrap() as f64,
            *snap_times.last().unwrap(),
            *cm2_times.last().unwrap(),
        );
        let mut n = n0;
        let mut iterations = 0;
        while iterations < 64 {
            let snap_t = snap0 * (n / n0).powf(snap_slope.max(0.1));
            let cm2_t = cm20 * (n / n0).powf(cm2_slope.max(0.01));
            if snap_t >= cm2_t {
                break;
            }
            n *= 2.0;
            iterations += 1;
        }
        n
    };

    let snap_faster_here = snap_times.iter().zip(&cm2_times).all(|(s, c)| s < c);
    let mut out = ExperimentOutput::new("fig15", "Property inheritance: SNAP-1 vs CM-2");
    out.table(
        "root-to-leaf inheritance time vs knowledge-base size",
        table,
    );
    out.check(
        "SNAP-1 faster over the measured range (paper: SNAP < 1 s, CM-2 < 10 s at 6.4K): ",
        snap_faster_here,
    );
    out.check(
        format!(
            "SNAP-1 slope steeper than CM-2 (paper: 'the slope of the increase is higher for \
             SNAP-1'): snap {} vs cm2 {} per doubling — ",
            ratio(snap_slope),
            ratio(cm2_slope),
        ),
        snap_slope > cm2_slope,
    );
    out.note(format!(
        "extrapolated crossover near {:.0} nodes (paper: 'the lines will cross when larger \
         knowledge bases are used')",
        crossover
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn snap_wins_small_but_grows_faster() {
        crate::experiments::assert_quick_run_holds("fig15");
    }
}
