//! Tracing and metrics.
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
//! Recording is double-gated. The crate's `obs` cargo feature compiles
//! the machinery in at all; without it every [`Tracer`] method is an
//! empty `#[inline(always)]` stub and the types still exist, so the
//! engines compile identically and release benchmarks measure the real
//! hot path. With the feature on, runtime behaviour is governed by
//! [`ObsConfig`]: absent, the tracer is a null pointer check; present,
//! raw events are subsampled by `sample_every` and capped at
//! `max_events` while counters and histograms stay exact.

#![forbid(unsafe_code)]

mod chrome;
pub(crate) mod event;
mod report;
mod tracer;

pub use chrome::chrome_trace_json;
pub use event::PhaseKind;
pub(crate) use event::{FaultKind, Stamp, CONTROLLER_TRACK};
pub use report::TraceReport;
pub use tracer::ObsConfig;
pub(crate) use tracer::Tracer;
