//! # snap-serve — query serving over a shared KB snapshot
//!
//! The SNAP-1 prototype answers one marker-propagation program at a
//! time; a deployed knowledge-base machine answers thousands of them
//! concurrently against the same network. This crate is that serving
//! layer, built on [`Snap1::run_shared`](snap_core::Snap1::run_shared)
//! semantics:
//!
//! * [`QueryContext`] — one entry of the server's answer table: a
//!   program, the report of running it and its outcome, cleared in
//!   place by the next run it holds so steady-state serving recycles
//!   the per-query allocations;
//! * [`Server`] — bounded admission ([`ServeConfig::queue_capacity`])
//!   with graceful shedding and exact accounting, plus a pump that
//!   takes the oldest [`ServeConfig::max_batch`] queued queries (64 at
//!   most) in arrival order and looks each one up in one answer table
//!   of at most 64 contexts. A query whose program the table holds —
//!   run by an earlier query of the same pump or of an earlier one —
//!   completes from that report without running
//!   ([`ServeStats::reused`]); any other runs as a sequential-engine
//!   run into a new context, or the least recently used one once the
//!   table is full: [`Walker::run`](snap_core::exec::Walker::run), the
//!   same program walker `Snap1::run` and `Snap1::run_shared` use on
//!   that engine — one controller plan per query, `PROPAGATE`s as
//!   independent marker streams, as SNAP-1 overlaps them, each through
//!   the wave kernel — all in the server's one region of marker tables,
//!   as a SNAP-1 cluster's marker streams share its one status table;
//! * a batch is a count of queries, not a program shape: nothing
//!   overtakes anything, completions come back in admission order, and
//!   a query that fails does so alone, with its typed error;
//! * every served report is bit-identical to running the query alone
//!   through the serial sequential-engine oracle, because it is the
//!   oracle's code that runs it, end to end.
//!
//! One [`Server`] serves one immutable snapshot, and that is what a KB
//! epoch is here: the server holds one [`Prepared`](snap_core::Prepared)
//! — the snapshot's one-region map and partition statistics, built once
//! in [`Server::new`] — so one server = one `Prepared` = one epoch,
//! expressed by the type rather than a number. It is also why a
//! context's report stays a valid answer for the server's whole life.
//! Updates mean flushing links, wrapping the new network in an `Arc`,
//! and standing up a new server. Maintenance programs are shed at admission
//! for the same reason `run_shared` rejects them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A failure is a typed error, never an unwind: non-test code may not
// unwrap, expect or panic except where an `allow` names the invariant.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod context;
mod server;

pub use context::QueryContext;
pub use server::{
    Admission, Completion, CompletionRef, QueryId, ServeConfig, ServeStats, Server, ShedReason,
};
