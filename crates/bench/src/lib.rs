//! # snap-bench — regenerating the SNAP-1 evaluation
//!
//! One experiment module per table and figure of Section IV, each
//! producing printable tables and TSV series, all listed with their ids
//! in [`experiments::EXPERIMENTS`]. The one binary, `run_all
//! [--quick] [<id>…]`, regenerates every experiment into `results/`, or
//! only the named ones.
//!
//! Everything here is deterministic simulated time: the checked-in files
//! under `results/` are this crate's output byte for byte. Nothing here
//! reads the host clock — host-time claims are named metrics of the
//! repository benchmark (`benchmark/`, `BENCHMARK.json`).
//!
//! | ID | Paper artifact | Module |
//! |----|----------------|--------|
//! | Fig. 6 | instruction frequency vs time, single PE | [`experiments::fig06`] |
//! | Fig. 8 | marker traffic per synchronization point | [`experiments::fig08`] |
//! | Table III/IV | MUC-4 sentence parse times | [`experiments::table4`] |
//! | Fig. 15 | inheritance: SNAP-1 vs CM-2 | [`experiments::fig15`] |
//! | Fig. 16 | speedup vs processors for α | [`experiments::fig16`] |
//! | Fig. 17 | speedup vs β | [`experiments::fig17`] |
//! | Fig. 18 | instruction profile vs cluster count | [`experiments::fig18`] |
//! | Fig. 19 | instruction profile vs KB size | [`experiments::fig19`] |
//! | Fig. 20 | propagation counts vs KB size | [`experiments::fig20`] |
//! | Fig. 21 | parallel overhead components | [`experiments::fig21`] |
//! | §IV text | β statistics of PASS/DMSNAP analogues | [`experiments::beta`] |
//! | Table I | design capacities exercised end to end | [`experiments::table1`] |
//! | §V | million-concept projection, SNAP-1 vs CM-2 | [`experiments::projection`] |
//! | ablations | tiered sync, partitioning, topology | [`experiments::ablations`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod table;
pub mod workloads;

pub use output::ExperimentOutput;
