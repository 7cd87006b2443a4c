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
//!   same semantics.
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

mod config;
mod controller;
mod cost;
mod engine;
mod error;
pub mod kernel;
mod machine;
mod prepared;
pub mod propagate;
mod region;
mod report;

/// What the serving layer executes with: the sequential engine's
/// program walker, so a served query is a sequential-engine run.
pub mod exec {
    pub use crate::engine::sequential::Walker;
}

pub use config::{EngineKind, MachineConfig};
pub use cost::CostModel;
pub use engine::cm2::{Cm2, Cm2Cost};
pub use engine::sched::ScheduleStrategy;
pub use error::CoreError;
pub use machine::{Snap1, Snap1Builder};
pub use prepared::Prepared;
pub use region::{Arrival, Region, RegionMap, VALUE_EPSILON};
pub use report::{CollectOutput, OverheadBreakdown, RunReport, TrafficStats};
// Fault-injection vocabulary, re-exported so applications can build
// plans and read reports without depending on snap-fault directly.
pub use snap_fault::{FaultPlan, FaultReport, PanicSpec, RetryPolicy};
// Simulated nanoseconds, defined in the lowest crate that computes with
// them; re-exported so the layers above snap-core name one type.
pub use snap_net::SimTime;
// Observability vocabulary, re-exported likewise: configure tracing via
// the builder, read `RunReport::trace`, export with `chrome_trace_json`.
pub use snap_obs::{chrome_trace_json, ObsConfig, PhaseKind, TraceReport};
