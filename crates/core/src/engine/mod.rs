//! Execution engines sharing one instruction semantics, and the CM-2
//! comparator's cost model over it.

pub(crate) mod cm2;
pub(crate) mod common;
pub(crate) mod sched;

pub(crate) mod des;
pub(crate) mod pool;
pub(crate) mod sequential;
pub(crate) mod threaded;
