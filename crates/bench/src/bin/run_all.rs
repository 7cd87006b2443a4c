//! Regenerates the tables and figures of the evaluation into `results/`.
//!
//! `run_all [--quick] [<id>…]`: with no id it runs every experiment in
//! paper order; with ids, only those, in the order given (the ids are
//! those of `snap_bench::experiments::EXPERIMENTS`). `--quick` shrinks
//! the sizes for a smoke run. An unknown id exits non-zero and lists the
//! known ids.

use snap_bench::experiments::{select, EXPERIMENTS};
use snap_bench::output;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "--quick")
        .collect();
    let experiments = match select(&ids) {
        Ok(experiments) => experiments,
        Err(unknown) => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!("unknown experiment `{unknown}`; known: {}", known.join(" "));
            return ExitCode::FAILURE;
        }
    };
    let dir = output::results_dir();
    for (_, run) in experiments {
        let out = run(quick);
        out.print();
        out.save(&dir).expect("write results");
    }
    eprintln!("experiment outputs written under {}", dir.display());
    ExitCode::SUCCESS
}
