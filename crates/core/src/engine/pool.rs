//! The machine's run-state pool.
//!
//! A run on the sequential engine or the simulator works in tables sized
//! by the network and the machine — marker rows, visited tables, and on
//! the simulator its clusters' regions, event queue and server
//! timelines — none of which depends on the program. [`RunPool`] keeps
//! them between runs on one knowledge-base revision, the way SNAP-1
//! keeps its loaded array between the programs broadcast at it.

use crate::config::{EngineKind, MachineConfig};
use crate::cost::CostModel;
use crate::engine::common::NetAccess;
use crate::engine::des::DesState;
use crate::engine::sequential::SeqState;
use crate::error::CoreError;
use crate::lock_unpoisoned;
use crate::prepared::Prepared;
use crate::report::RunReport;
use snap_isa::Program;
use snap_kb::SemanticNetwork;
use std::fmt;
use std::sync::Mutex;

/// What one run of a pooled engine works in. A machine runs on one
/// engine, so its pool holds one kind.
#[derive(Debug)]
pub(crate) enum RunState {
    Sequential(SeqState),
    Des(DesState),
}

impl RunState {
    /// An empty state for `engine` over `prepared`, the set-up of
    /// `network` for `config`'s geometry.
    fn new(
        engine: EngineKind,
        config: &MachineConfig,
        prepared: &Prepared,
        network: &SemanticNetwork,
    ) -> Self {
        match engine {
            EngineKind::Sequential => RunState::Sequential(SeqState::new(prepared, network)),
            EngineKind::Des => RunState::Des(DesState::new(config, prepared, network)),
            EngineKind::Threaded => unreachable!("threaded runs keep their state on their workers"),
        }
    }

    /// `true` if this state was built over `prepared`'s region map.
    fn is_for(&self, prepared: &Prepared) -> bool {
        match self {
            RunState::Sequential(state) => state.is_over(prepared.map()),
            RunState::Des(state) => state.is_over(prepared.map()),
        }
    }
}

/// Run states of the network revision [`Snap1::run`](crate::Snap1::run)
/// and [`Snap1::run_shared`](crate::Snap1::run_shared) last ran on, one
/// per concurrent caller at most, so a warm run on the sequential engine
/// or the simulator builds and zeroes no node-count-sized table — and a
/// sequential one plans into a kept buffer and compiles no rule it has
/// compiled before.
///
/// A state belongs to the [`Prepared`] whose region map its regions were
/// built over and is used for no other: a run checks out only a state
/// whose map is the one it obtained itself (whatever the memo holds by
/// then), and the rest — an earlier revision's — are dropped. A state
/// goes back however the run ended, but only while its `Prepared` still
/// describes the network, so one whose run edited the network
/// (maintenance) is dropped with it. The next run clears it in place.
/// The pool holds region maps, never a network.
/// Only whole states are pushed and popped under the lock, so a caller
/// that panics holding it leaves a valid pool.
#[derive(Default)]
pub(crate) struct RunPool(pub(crate) Mutex<Vec<RunState>>);

impl RunPool {
    /// Executes `program` on `engine` (the sequential engine or the
    /// simulator) over `prepared`, the set-up of `network`'s revision
    /// for `config`, in a pooled state when there is one for it,
    /// returning the measured report.
    pub(crate) fn run(
        &self,
        engine: EngineKind,
        config: &MachineConfig,
        cost: &CostModel,
        mut network: NetAccess<'_>,
        prepared: &Prepared,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        let pooled = {
            let mut pool = lock_unpoisoned(&self.0);
            pool.retain(|state| state.is_for(prepared));
            pool.pop()
        };
        let mut state =
            pooled.unwrap_or_else(|| RunState::new(engine, config, prepared, network.get()));
        let result = match &mut state {
            RunState::Sequential(state) => state.run(config, cost, &mut network, prepared, program),
            RunState::Des(state) => state.run(config, cost, &mut network, prepared, program),
        };
        if prepared.is_for(network.get()) {
            lock_unpoisoned(&self.0).push(state);
        }
        result
    }
}

impl Clone for RunPool {
    /// A cloned machine starts with an empty pool.
    fn clone(&self) -> Self {
        RunPool::default()
    }
}

impl fmt::Debug for RunPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunPool")
            .field("idle", &lock_unpoisoned(&self.0).len())
            .finish()
    }
}
