//! # snap-obs — tracing and metrics for the SNAP-1 reproduction
//!
//! A zero-cost-when-disabled observability layer shared by all three
//! engines. It has three pieces:
//!
//! * **events** ([`event`]) — a structured vocabulary (phase start/end,
//!   message send/recv/retry, barrier arrive/release/stall, arbiter
//!   grant/defer, fault injections, queue depths) on per-cluster
//!   tracks, stamped in the emitting engine's timebase: simulated
//!   nanoseconds from the discrete-event and sequential engines,
//!   monotonic wall nanoseconds plus logical phase from the threaded
//!   engine;
//! * **aggregation** ([`report`], [`tracer`]) — per-cluster counters and
//!   power-of-two histograms folded into a [`TraceReport`] carried in
//!   the machine's `RunReport` next to the fault report, plus per-phase
//!   statistics that let the differential test harness localize the
//!   first phase where two engines diverge;
//! * **export** ([`chrome`]) — a chrome-trace (`about:tracing` /
//!   Perfetto) JSON exporter and a compact text [`TraceReport::summary`].
//!
//! ## Cost model
//!
//! Recording is double-gated. The `record` cargo feature compiles the
//! machinery in at all; without it every [`Tracer`] method is an empty
//! `#[inline(always)]` stub and the types still exist, so dependent
//! crates compile identically and release benchmarks measure the real
//! hot path. With the feature on, runtime behaviour is governed by
//! [`ObsConfig`]: absent, the tracer is a null pointer check; present,
//! raw events are subsampled by `sample_every` and capped at
//! `max_events` while counters and histograms stay exact.

#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod chrome;
pub mod event;
pub mod report;
pub mod tracer;

pub use chrome::chrome_trace_json;
pub use event::{
    EventKind, FaultKind, PhaseKind, Stamp, TraceEvent, CONTROLLER_TRACK, GLOBAL_TRACK,
};
pub use report::{ClusterMetrics, Histogram, PhaseStat, TraceReport, HISTOGRAM_BUCKETS};
pub use tracer::{ObsConfig, Tracer};

/// Locks `mutex` whether or not a thread panicked while holding it. For
/// data that every update leaves valid: a worker's crash (the threaded
/// engine injects them) must not take the lock away from the
/// controller's recovery or from the next caller.
pub fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
