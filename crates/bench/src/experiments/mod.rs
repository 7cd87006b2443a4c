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

/// Runs every experiment in paper order.
pub fn run_all(quick: bool) -> Vec<ExperimentOutput> {
    vec![
        table1::run(quick),
        fig06::run(quick),
        fig08::run(quick),
        table4::run(quick),
        fig15::run(quick),
        fig16::run(quick),
        fig17::run(quick),
        fig18::run(quick),
        fig19::run(quick),
        fig20::run(quick),
        fig21::run(quick),
        beta::run(quick),
        projection::run(quick),
        ablations::run(quick),
    ]
}
