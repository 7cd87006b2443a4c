//! # snap-serve — query serving over a shared KB snapshot
//!
//! The SNAP-1 prototype answers one marker-propagation program at a
//! time; a deployed knowledge-base machine answers thousands of them
//! concurrently against the same network. This crate is that serving
//! layer, built on [`Snap1::run_shared`](snap_core::Snap1::run_shared)
//! semantics:
//!
//! * [`QueryContext`] — what one lane leaves behind: the program it ran,
//!   the report of that run and its outcome, pooled and cleared in
//!   place so steady-state serving recycles the per-query allocations,
//!   and kept as the answer to that program until a lane that misses
//!   the pool takes the least recently used context;
//! * [`Server`] — bounded admission ([`ServeConfig::queue_capacity`])
//!   with graceful shedding and exact accounting, plus a pump that
//!   takes the oldest [`ServeConfig::max_batch`] queued queries (64 at
//!   most) in arrival order, collapses bit-identical ones onto a single
//!   lane whose result they share, answers a lane whose program a
//!   pooled context already ran from that context's report
//!   ([`ServeStats::reused`]), and runs each other lane as a
//!   sequential-engine run: [`Walker::run`](snap_core::exec::Walker::run),
//!   the same program walker `Snap1::run` and `Snap1::run_shared` use
//!   on that engine — one controller plan per query, `PROPAGATE`s as
//!   independent marker streams, as SNAP-1 overlaps them, each through
//!   the wave kernel — all in the server's one region of marker tables,
//!   as a SNAP-1 cluster's marker streams share its one status table;
//! * a batch is that coalescing window, not a program shape: nothing
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
//! expressed by the type rather than a number. It is also why a pooled
//! report stays a valid answer for the server's whole life. Updates
//! mean flushing links, wrapping the new network in an `Arc`, and
//! standing up a new server. Maintenance programs are shed at admission
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
