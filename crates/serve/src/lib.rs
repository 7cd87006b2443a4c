//! # snap-serve — query serving over a shared KB snapshot
//!
//! The SNAP-1 prototype answers one marker-propagation program at a
//! time; a deployed knowledge-base machine answers thousands of them
//! concurrently against the same network. This crate is that serving
//! layer, built on [`Snap1::run_shared`](snap_core::Snap1::run_shared)
//! semantics:
//!
//! * [`QueryContext`] — one query's isolated execution state (marker
//!   tables and the report being built), pooled and reset in place so
//!   steady-state serving recycles the heavy per-query allocations;
//! * [`Server`] — bounded admission ([`ServeConfig::queue_capacity`])
//!   with graceful shedding and exact accounting, plus a batching
//!   scheduler that gathers compatible queries (same program shape,
//!   same KB snapshot) into one batch of up to 64 lanes: one controller
//!   plan, one warm wave scratch, bit-identical queries collapsed onto
//!   a single lane whose report they share, and each lane's
//!   propagations run as the sequential engine runs them
//!   ([`propagate_region`]) — independent marker streams, as SNAP-1
//!   overlaps them, not a lockstep sweep;
//! * every batched query's report is bit-identical to running it alone
//!   through the serial sequential-engine oracle, because it is the
//!   oracle's code that runs it.
//!
//! [`propagate_region`]: snap_core::exec::propagate_region
//!
//! One [`Server`] serves one immutable snapshot, and that is what a KB
//! epoch is here: the server holds one [`Prepared`](snap_core::Prepared)
//! — the snapshot's region map and partition statistics, built once in
//! [`Server::new`] and shared with the oracle fallback — so one server =
//! one `Prepared` = one epoch, expressed by the type rather than a
//! number. Updates mean flushing links, wrapping the new network in an
//! `Arc`, and standing up a new server. Maintenance programs are shed at
//! admission for the same reason `run_shared` rejects them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod context;
mod server;

pub use context::QueryContext;
pub use server::{
    Admission, Completion, CompletionRef, QueryId, ServeConfig, ServeStats, Server, ShedReason,
};
