//! Per-query results, pooled across queries.

use snap_core::{CoreError, Prepared, RunReport};
use snap_isa::Program;

/// What one served lane leaves behind: the program it ran, the report
/// of that run and how the run ended. The marker tables it ran in are
/// the [`Server`](crate::Server)'s one region, which the next lane
/// resets: everything a completion reads — the collects above all — is
/// in the report.
///
/// A server serves one immutable snapshot, so a finished context is the
/// answer to its program for the server's whole life. A later lane
/// asking an equal program completes from it without running; a lane
/// asking anything else takes the least recently used context and runs
/// there. The program is moved in from the lane that ran it at the end
/// of its pump, never cloned.
///
/// Contexts are pooled by the server: a finished context goes back as
/// it is, and the walker clears the report in place at the start of
/// the next lane it runs, so steady-state serving reuses report maps
/// and collect buffers instead of rebuilding them — zero allocations
/// per query once warm. The partition stats are stamped into the report
/// once, at construction, and survive every run.
pub struct QueryContext {
    pub(crate) report: RunReport,
    pub(crate) outcome: Result<(), CoreError>,
    /// The program `report` and `outcome` answer; `None` until a lane
    /// has run here. Dropping it drops the answer.
    pub(crate) program: Option<Program>,
}

impl QueryContext {
    pub(crate) fn new(prepared: &Prepared) -> Self {
        QueryContext {
            report: RunReport {
                partition: Some(prepared.partition_stats().clone()),
                ..RunReport::default()
            },
            outcome: Ok(()),
            program: None,
        }
    }
}
