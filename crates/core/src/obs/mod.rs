//! Tracing and metrics.
//!
//! An observability layer, off unless a run asks, shared by all three
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
//! The tracer is always compiled in and has one gate, the run-time
//! [`ObsConfig`] in the machine config: absent, every [`Tracer`] call
//! returns after one null-pointer test; present, raw events are capped
//! at `max_events` while counters, histograms and phases stay exact.
//! The disabled path's cost on the timed workloads is measured in
//! DESIGN.md ("What the always-compiled tracer costs").

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
