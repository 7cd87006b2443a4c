//! # snap-sync — tiered barrier synchronization for marker propagation
//!
//! Before an accumulation-phase instruction can execute, every in-flight
//! propagation must have terminated — but in MIMD mode nobody knows a
//! priori how many propagations take place or which PEs are involved.
//! SNAP-1 solves this with hardware support: an AND-tree reporting PE
//! idleness plus per-level marker creation/termination counters. The
//! barrier is complete when all PEs are idle and the number of markers
//! produced equals the number consumed at every propagation tier.
//!
//! * [`TieredSyncModel`] — deterministic detector for the discrete-event
//!   engine;
//! * [`TieredBarrier`] — atomic implementation for the threaded engine;
//! * [`NaiveSyncModel`] — the ablation (idle-only detection) that falsely
//!   completes while messages are in transit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod threaded;

pub use model::{NaiveSyncModel, TieredSyncModel, MAX_LEVELS};
pub use threaded::{BarrierStall, TieredBarrier};
