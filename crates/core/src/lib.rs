//! # snap-core — the SNAP-1 machine
//!
//! The Semantic Network Array Processor executes marker-propagation
//! programs on an array of processing clusters managed by a
//! dual-processor controller. This crate is the paper's primary
//! contribution reproduced in software:
//!
//! * [`Snap1`] — the machine facade: configure geometry
//!   ([`MachineConfig`]), costs ([`CostModel`]), and engine
//!   ([`EngineKind`]), then [`Snap1::run`] programs against a
//!   [`snap_kb::SemanticNetwork`];
//! * three execution engines over one instruction semantics —
//!   a sequential reference, a deterministic discrete-event simulator
//!   (used for every timing figure), and a threaded engine with one real
//!   thread per cluster;
//! * [`RunReport`] — the integrated measurement system: per-class
//!   instruction profiles (Figs. 6, 18, 19), marker traffic per barrier
//!   (Fig. 8), α per propagation (Fig. 16), and the four overhead
//!   components (Fig. 21);
//! * [`Cm2`] — Fig. 15's CM-2 comparator, a second cost model over the
//!   same semantics;
//! * the machine's subsystems, as private modules. Of its two networks,
//!   which never contend, the global bus the controller broadcasts
//!   instructions over is a constant per instruction
//!   ([`CostModel::broadcast_ns`]); `topology` is the other, the 4-ary
//!   hypercube of spanning four-port memories that carries marker
//!   messages in at most `O(log N)` hops (`fabric` realizes it as
//!   channels for the threaded engine, with identical hop accounting).
//!   The paper's third,
//!   the performance-collection network, has no model here: the tracer
//!   `obs` is the instrument, off unless an [`ObsConfig`] turns it on.
//!   `sync` holds the AND-tree and the tiered marker counters. The
//!   seeded fault model is `plan` (what to inject), `inject` (the
//!   runtime decisions, pure functions of `(seed, site, counter)`, and
//!   the retry policy) and `envelope` (the resilience protocol's
//!   checksummed, sequence-numbered envelopes and duplicate
//!   suppression). What
//!   callers configure or read from them is re-exported: [`FaultPlan`],
//!   [`FaultReport`], [`ObsConfig`], [`TraceReport`], and the
//!   [`TieredSyncModel`] and [`NaiveSyncModel`] the ablation compares.
//!
//! The crate exports what a caller outside it uses: [`kernel`],
//! [`propagate`], [`Region`] and [`RegionMap`] because the repository
//! benchmark's probe (`benchmark/src/probe.rs`) times them directly,
//! [`exec::Walker`] because each served query runs on it.
//!
//! # Examples
//!
//! See [`Snap1`] for an end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A failure is a typed error, never an unwind: non-test code may not
// unwrap, expect or panic except where an `allow` names the invariant.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::{Mutex, MutexGuard, PoisonError};

mod config;
mod controller;
mod cost;
mod engine;
mod envelope;
mod error;
mod fabric;
mod inject;
pub mod kernel;
mod machine;
mod obs;
mod plan;
mod prepared;
pub mod propagate;
mod region;
mod report;
mod sync;
mod topology;

#[cfg(test)]
mod envelope_props;

/// What the serving layer executes with: the sequential engine's
/// program walker, so a served query is a sequential-engine run.
pub mod exec {
    pub use crate::engine::sequential::Walker;
}

pub use config::{EngineKind, MachineConfig};
pub use cost::CostModel;
pub use engine::cm2::Cm2;
pub use engine::sched::ScheduleStrategy;
pub use error::CoreError;
pub use machine::{Snap1, Snap1Builder};
pub use prepared::Prepared;
pub use region::{Arrival, Region, RegionMap, VALUE_EPSILON};
pub use report::{CollectOutput, FaultReport, OverheadBreakdown, RunReport, TrafficStats};
// Fault-injection vocabulary: applications build plans and read
// reports through these.
pub use inject::RetryPolicy;
pub use plan::{FaultPlan, PanicSpec};
// Observability vocabulary: configure tracing via the builder, read
// `RunReport::trace`, export with `chrome_trace_json`.
pub use obs::{chrome_trace_json, ObsConfig, PhaseKind, TraceReport};
// The tiered and the naive termination detector, for the ablation that
// compares them.
pub use sync::{NaiveSyncModel, TieredSyncModel};

/// Simulated time in nanoseconds, the one time base of every engine
/// and of the layers above snap-core.
pub type SimTime = u64;

/// Locks `mutex` whether or not a thread panicked while holding it. For
/// data that every update leaves valid: a worker's crash (the threaded
/// engine injects them) must not take the lock away from the
/// controller's recovery or from the next caller.
pub(crate) fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
