//! Scaling projection to the million-concept knowledge base.
//!
//! The paper positions SNAP-1 as "a testbed for an architecture which is
//! being designed to handle a one-million concept knowledge base", and
//! predicts the SNAP/CM-2 inheritance curves cross "when larger
//! knowledge bases are used". This experiment measures both machines
//! over a doubling ladder, fits per-doubling growth factors, and
//! projects execution time to 10⁵–10⁷ concepts, reporting where the
//! projected crossover falls.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use snap_core::{Cm2, Snap1};
use snap_nlu::{hierarchy, inheritance_program};

/// Runs the projection.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let sizes: Vec<usize> = if quick {
        vec![400, 800, 1_600]
    } else {
        vec![1_600, 3_200, 6_400, 12_800, 25_600]
    };
    let snap = Snap1::new();
    let cm2 = Cm2::new();

    let mut snap_times = Vec::new();
    let mut cm2_times = Vec::new();
    let mut measured = Table::new(vec!["nodes", "SNAP-1 ms", "CM-2 ms"]);
    for &n in &sizes {
        let w = hierarchy(n, 4).expect("hierarchy");
        let program = inheritance_program(w.root);
        let mut n1 = w.network.clone();
        let t_snap = snap.run(&mut n1, &program).expect("snap").total_ns as f64;
        let mut n2 = w.network.clone();
        let t_cm2 = cm2.run(&mut n2, &program).expect("cm2").total_ns as f64;
        measured.row(vec![n.to_string(), ms(t_snap as u64), ms(t_cm2 as u64)]);
        snap_times.push(t_snap);
        cm2_times.push(t_cm2);
    }

    // Per-doubling growth factor from a log-log least-squares fit.
    let slope = |times: &[f64]| -> f64 {
        let n = times.len() as f64;
        let xs: Vec<f64> = (0..times.len()).map(|i| i as f64).collect();
        let ys: Vec<f64> = times.iter().map(|t| t.log2()).collect();
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        cov / var
    };
    let snap_slope = slope(&snap_times);
    let cm2_slope = slope(&cm2_times);

    let base = *sizes.last().unwrap() as f64;
    let project =
        |t_end: f64, s: f64, target: f64| -> f64 { t_end * 2f64.powf(s * (target / base).log2()) };

    let mut projected = Table::new(vec![
        "concepts",
        "SNAP-1 (projected)",
        "CM-2 (projected)",
        "winner",
    ]);
    let mut crossover = f64::INFINITY;
    for &target in &[100_000.0, 1_000_000.0, 10_000_000.0, 100_000_000.0] {
        let ts = project(*snap_times.last().unwrap(), snap_slope, target);
        let tc = project(*cm2_times.last().unwrap(), cm2_slope, target);
        if ts >= tc && crossover.is_infinite() {
            crossover = target;
        }
        projected.row(vec![
            format!("{:.0e}", target),
            format!("{:.1} ms", ts / 1e6),
            format!("{:.1} ms", tc / 1e6),
            if ts < tc { "SNAP-1" } else { "CM-2" }.into(),
        ]);
    }

    let mut out = ExperimentOutput::new(
        "projection",
        "Projection to the million-concept knowledge base",
    );
    out.table("measured inheritance ladder", measured);
    out.table("projected execution times", projected);
    out.note(format!(
        "fitted growth per size-doubling: SNAP-1 ×{}, CM-2 ×{}",
        ratio(2f64.powf(snap_slope)),
        ratio(2f64.powf(cm2_slope)),
    ));
    out.note(format!(
        "SNAP-1 still wins at the paper's 1M-concept design target: {}",
        if project(*snap_times.last().unwrap(), snap_slope, 1_000_000.0)
            < project(*cm2_times.last().unwrap(), cm2_slope, 1_000_000.0)
        {
            "HOLDS"
        } else {
            "CHECK"
        }
    ));
    if crossover.is_finite() {
        out.note(format!(
            "projected crossover near {crossover:.0e} concepts — 'the lines will cross when \
             larger knowledge bases are used' (paper)"
        ));
    } else {
        out.note(
            "no crossover below 10⁸ concepts under this calibration; the paper's \
             qualitative prediction is directional"
                .to_string(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_wins_at_the_million_concept_target() {
        let out = run(true);
        assert!(
            out.notes.iter().any(|n| n.contains("HOLDS")),
            "{:?}",
            out.notes
        );
        assert_eq!(out.tables.len(), 2);
    }
}
