//! Per-query results, kept as the server's answer table.

use snap_core::{CoreError, Prepared, RunReport};
use snap_isa::Program;

/// One entry of the [`Server`](crate::Server)'s answer table: a
/// program, the report of running it and how the run ended. The marker
/// tables it ran in are the server's one region, which the next run
/// resets: everything a completion reads — the collects above all — is
/// in the report.
///
/// A server serves one immutable snapshot, so a context is the answer
/// to its program for the server's whole life. A later query asking an
/// equal program, in the same pump or a later one, completes from it
/// without running; a query asking a program the table does not hold
/// takes a new context, or the least recently used one once the table
/// is full, and runs there. The program is moved in from the query,
/// never cloned.
///
/// The walker clears the report in place at the start of each run, so
/// steady-state serving reuses report maps and collect buffers instead
/// of rebuilding them — zero allocations per query once warm. The
/// partition stats are stamped into the report once, at construction,
/// and survive every run.
pub struct QueryContext {
    pub(crate) report: RunReport,
    pub(crate) outcome: Result<(), CoreError>,
    /// The program `report` and `outcome` answer.
    pub(crate) program: Program,
}

impl QueryContext {
    pub(crate) fn new(prepared: &Prepared, program: Program) -> Self {
        QueryContext {
            report: RunReport {
                partition: Some(prepared.partition_stats().clone()),
                ..RunReport::default()
            },
            outcome: Ok(()),
            program,
        }
    }
}
