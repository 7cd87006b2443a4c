//! Offline stand-in for the `crossbeam` crate.
//!
//! Implements the subset of the crossbeam API this workspace uses —
//! MPMC [`channel`]s — over `std::sync` primitives, so the workspace
//! builds without network access. Semantics match crossbeam for the
//! covered surface: cloneable senders *and* receivers, and disconnect
//! detection on both sides.

pub mod channel;
