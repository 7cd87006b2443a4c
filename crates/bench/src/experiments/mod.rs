//! Experiment implementations, one module per paper table/figure.

pub mod ablations;
pub mod beta;
pub mod fig06;
pub mod fig08;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod projection;
pub mod table1;
pub mod table4;

use crate::ExperimentOutput;

/// One experiment: its id and the function that runs it (`true` asks
/// for the reduced `--quick` sizes).
pub type Experiment = (&'static str, fn(bool) -> ExperimentOutput);

/// Every experiment, in paper order. Each id is the
/// [`ExperimentOutput::id`] its `run` returns, so it names the files the
/// experiment writes under `results/`.
pub const EXPERIMENTS: [Experiment; 14] = [
    ("table1", table1::run),
    ("fig06", fig06::run),
    ("fig08", fig08::run),
    ("table4", table4::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("fig20", fig20::run),
    ("fig21", fig21::run),
    ("beta", beta::run),
    ("projection", projection::run),
    ("ablations", ablations::run),
];

/// The experiments named by `ids`, in the order given; every experiment,
/// in paper order, when `ids` is empty.
///
/// # Errors
///
/// Returns the first id that names no experiment.
pub fn select<'a>(ids: &[&'a str]) -> Result<Vec<Experiment>, &'a str> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    ids.iter()
        .map(|&id| EXPERIMENTS.into_iter().find(|e| e.0 == id).ok_or(id))
        .collect()
}

/// Asserts that `out` makes a shape check, unless it is `table1` (whose
/// capacities are asserted as it runs), and that every check holds;
/// a failure names the experiment and the check.
#[cfg(test)]
pub(crate) fn assert_checks_hold(out: &ExperimentOutput) {
    let exempt = out.id == "table1";
    assert!(
        exempt || out.checks().next().is_some(),
        "{} makes no check",
        out.id
    );
    for (text, holds) in out.checks() {
        assert!(holds, "{}: check does not hold: {text}", out.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every experiment at `--quick` sizes: each names its output,
    /// and each one's shape checks hold.
    #[test]
    fn each_id_is_listed_once_and_names_its_output() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        for (id, run) in EXPERIMENTS {
            let out = run(true);
            assert_eq!(out.id, id);
            assert_checks_hold(&out);
        }
    }

    #[test]
    fn no_id_selects_all_in_paper_order_and_an_unknown_id_is_rejected() {
        let all: Vec<&str> = select(&[]).unwrap().iter().map(|e| e.0).collect();
        assert_eq!(
            all,
            [
                "table1",
                "fig06",
                "fig08",
                "table4",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "fig19",
                "fig20",
                "fig21",
                "beta",
                "projection",
                "ablations"
            ]
        );
        let some: Vec<&str> = select(&["fig21", "beta"])
            .unwrap()
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(some, ["fig21", "beta"]);
        assert_eq!(select(&["fig08", "fig99"]).unwrap_err(), "fig99");
    }
}
