//! # snap-net — the SNAP-1 interconnect
//!
//! SNAP-1 separates communication onto three independent networks so that
//! instruction broadcast, marker traffic, and instrumentation never
//! contend:
//!
//! * [`BusModel`] — the **global bus** the controller broadcasts SNAP
//!   instructions over (and retrieves results through);
//! * [`HypercubeTopology`] — the **4-ary hypercube** of spanning
//!   four-port memories carrying marker messages between clusters in at
//!   most `O(log N)` hops;
//! * [`PerfCollector`] — the **performance-collection network** of 2 Mb/s
//!   serial links feeding a central timestamped FIFO.
//!
//! [`Fabric`] is the threaded engine's realization of the hypercube using
//! channels, with identical hop accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod fabric;
mod perf;
mod topology;

pub use bus::BusModel;
pub use fabric::{Fabric, Inbox};
pub use perf::{PerfCollector, PerfEvent, RECORD_BITS, RECORD_SHIFT_NS, SERIAL_LINK_BPS};
pub use topology::HypercubeTopology;

/// Simulated time in nanoseconds.
pub type SimTime = u64;
