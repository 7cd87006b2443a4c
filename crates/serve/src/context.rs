//! Per-query execution contexts, pooled across queries.

use snap_core::{CoreError, Prepared, Region, RunReport};
use snap_kb::{ClusterId, SemanticNetwork};
use std::sync::Arc;

/// One query's isolated execution state: its marker tables (a
/// [`Region`] over the shared snapshot), the report of its run and how
/// the run ended.
///
/// Contexts are pooled by the [`Server`](crate::Server): a finished
/// context goes back as it is, and the sequential engine's walker
/// clears region and report in place at the start of the next query it
/// serves, so steady-state serving reuses the per-query marker tables,
/// report maps and collect buffers instead of rebuilding them — zero
/// allocations per query once warm. The partition stats are stamped
/// into the report once, at construction, and survive every run.
pub struct QueryContext {
    pub(crate) region: Region,
    pub(crate) report: RunReport,
    pub(crate) outcome: Result<(), CoreError>,
}

impl QueryContext {
    pub(crate) fn new(prepared: &Prepared, network: &SemanticNetwork) -> Self {
        QueryContext {
            region: Region::new(ClusterId(0), Arc::clone(prepared.map()), network),
            report: RunReport {
                partition: Some(prepared.partition_stats().clone()),
                ..RunReport::default()
            },
            outcome: Ok(()),
        }
    }
}
