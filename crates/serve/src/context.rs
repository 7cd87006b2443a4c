//! Per-query execution contexts, pooled across queries.

use snap_core::{CollectOutput, Prepared, Region, RunReport};
use snap_kb::{ClusterId, SemanticNetwork};
use std::sync::Arc;

/// One query's isolated execution state: its marker tables (a
/// [`Region`] over the shared snapshot) and the report being
/// accumulated for it.
///
/// Contexts are pooled by the [`Server`](crate::Server): after a batch
/// completes, each context is reset in place and returned to the pool,
/// so steady-state serving reuses the per-query marker tables and
/// report maps instead of rebuilding them — zero allocations per query
/// once warm. The partition stats are stamped into the report
/// once, at construction, and survive every reset.
pub struct QueryContext {
    pub(crate) region: Region,
    pub(crate) report: RunReport,
    /// Emptied collect buffers reclaimed from the previous query's
    /// report; the batch executor pre-seeds the instruction executor
    /// with them so `COLLECT-*` results reuse their capacity.
    pub(crate) spare_collects: Vec<CollectOutput>,
}

impl QueryContext {
    pub(crate) fn new(prepared: &Prepared, network: &SemanticNetwork) -> Self {
        QueryContext {
            region: Region::new(ClusterId(0), Arc::clone(prepared.map()), network),
            report: RunReport {
                partition: Some(prepared.partition_stats().clone()),
                ..RunReport::default()
            },
            spare_collects: Vec::new(),
        }
    }

    /// Clears all query-local state, keeping allocations (and the
    /// stamped partition stats). Collect payloads migrate — emptied —
    /// into the spare pool instead of being dropped.
    pub(crate) fn reset(&mut self) {
        self.region.reset();
        for mut c in self.report.collects.drain(..) {
            match &mut c {
                CollectOutput::Nodes(v) => v.clear(),
                CollectOutput::Links(v) => v.clear(),
                CollectOutput::Colors(v) => v.clear(),
            }
            self.spare_collects.push(c);
        }
        self.report.reset_for_pool();
    }
}
