//! Execution engines sharing one instruction semantics.

pub(crate) mod common;
pub(crate) mod sched;

pub(crate) mod des;
pub(crate) mod pool;
pub(crate) mod sequential;
pub(crate) mod threaded;
