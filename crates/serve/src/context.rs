//! Per-query results, pooled across queries.

use snap_core::{CoreError, Prepared, RunReport};

/// What one served lane leaves behind: the report of its run and how
/// the run ended. The marker tables it ran in are the
/// [`Server`](crate::Server)'s one region, which the next lane resets:
/// everything a completion reads — the collects above all — is in the
/// report.
///
/// Contexts are pooled by the server: a finished context goes back as
/// it is, and the walker clears the report in place at the start of
/// the next lane it serves, so steady-state serving reuses report maps
/// and collect buffers instead of rebuilding them — zero allocations
/// per query once warm. The partition stats are stamped into the report
/// once, at construction, and survive every run.
pub struct QueryContext {
    pub(crate) report: RunReport,
    pub(crate) outcome: Result<(), CoreError>,
}

impl QueryContext {
    pub(crate) fn new(prepared: &Prepared) -> Self {
        QueryContext {
            report: RunReport {
                partition: Some(prepared.partition_stats().clone()),
                ..RunReport::default()
            },
            outcome: Ok(()),
        }
    }
}
