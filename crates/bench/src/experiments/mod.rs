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

/// The number of `.tsv` tables the full run of `id` wrote under
/// `results/`: `<id>.tsv` for one table, `<id>_<n>.tsv` for each of
/// several.
#[cfg(test)]
fn results_tables(id: &str) -> usize {
    std::fs::read_dir(crate::output::results_dir())
        .expect("results/ is checked in")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| {
            f.strip_prefix(id)
                .and_then(|n| n.strip_suffix(".tsv"))
                .is_some_and(|n| {
                    n.is_empty()
                        || n.strip_prefix('_')
                            .is_some_and(|i| i.parse::<usize>().is_ok())
                })
        })
        .count()
}

/// Runs the experiment `id` at `--quick` sizes and asserts that it names
/// its output, makes a shape check (except `table1`, whose capacities are
/// asserted as it runs), that every check holds, and that it makes as
/// many tables as its full run wrote under `results/`. Each experiment's
/// own test calls this once, so the suite runs each experiment once.
#[cfg(test)]
pub(crate) fn assert_quick_run_holds(id: &str) -> ExperimentOutput {
    let (_, run) = select(&[id]).expect("a listed experiment")[0];
    let out = run(true);
    assert_eq!(out.id, id);
    assert!(
        id == "table1" || out.checks().next().is_some(),
        "{id} makes no check"
    );
    for (text, holds) in out.checks() {
        assert!(holds, "{id}: check does not hold: {text}");
    }
    assert_eq!(
        out.tables.len(),
        results_tables(id),
        "{id}: tables against results/"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each id is listed once and names at least one table its full run
    /// wrote under `results/`; the experiment's own test runs it through
    /// [`assert_quick_run_holds`].
    #[test]
    fn each_id_is_listed_once_and_names_its_output() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        for (id, _) in EXPERIMENTS {
            assert!(results_tables(id) > 0, "{id} names no results/ table");
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
