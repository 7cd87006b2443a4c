//! The structured event vocabulary.
//!
//! Every engine and runtime subsystem reports its activity as
//! [`TraceEvent`]s: a source track (a cluster, or one of the pseudo
//! tracks for the controller and global structures), a [`Stamp`], and an
//! [`EventKind`]. The same vocabulary covers both timebases — the
//! discrete-event engine stamps events with simulated nanoseconds, the
//! threaded engine with monotonic wall-clock nanoseconds plus the
//! logical phase index — so one exporter renders either.

/// Pseudo-track for events raised by the controller rather than a
/// cluster (phase transitions, barrier completion).
pub const CONTROLLER_TRACK: u16 = u16::MAX;

/// Pseudo-track for events raised by shared structures that have no
/// cluster identity (the tiered barrier's counter network).
pub const GLOBAL_TRACK: u16 = u16::MAX - 1;

/// When an event happened, in the emitting engine's timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// Simulated nanoseconds (the DES and sequential engines; the same
    /// clock their run-report totals use).
    Sim(u64),
    /// Monotonic wall-clock nanoseconds since run start, plus the
    /// logical phase index the run was in (the threaded engine; wall
    /// time alone cannot be compared across runs, the phase can).
    Wall {
        /// Nanoseconds since the tracer was created.
        ns: u64,
        /// Logical phase index at emission time.
        phase: u32,
    },
}

impl Stamp {
    /// The stamp's time in microseconds (the chrome-trace unit).
    pub fn micros(&self) -> f64 {
        let ns = match self {
            Stamp::Sim(ns) => *ns,
            Stamp::Wall { ns, .. } => *ns,
        };
        ns as f64 / 1_000.0
    }

    /// The stamp's raw nanosecond value, timebase notwithstanding.
    pub fn nanos(&self) -> u64 {
        match self {
            Stamp::Sim(ns) => *ns,
            Stamp::Wall { ns, .. } => *ns,
        }
    }
}

/// The controller-visible phases a run moves through. One `PhaseStat`
/// is accumulated per phase in program order, which is what makes
/// cross-engine phase-by-phase comparison possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Marker configuration: search, boolean, and set/clear
    /// instructions broadcast to the array.
    Configure,
    /// An overlapped group of `PROPAGATE` instructions.
    Propagate,
    /// Result accumulation (`COLLECT-*`).
    Collect,
    /// Controller-side node/link maintenance.
    Maintenance,
    /// A barrier synchronization (explicit or group-closing).
    Barrier,
}

impl PhaseKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Configure => "configure",
            PhaseKind::Propagate => "propagate",
            PhaseKind::Collect => "collect",
            PhaseKind::Maintenance => "maintenance",
            PhaseKind::Barrier => "barrier",
        }
    }
}

/// Which fault class an injection event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A message copy was dropped in flight.
    Drop,
    /// A message was duplicated in flight.
    Duplicate,
    /// A message was held back by an injected delay.
    Delay,
    /// A message was corrupted in flight.
    Corruption,
    /// A PE expansion was stretched by an injected stall.
    Stall,
    /// The cluster arbiter starved a request.
    Starvation,
    /// A worker thread was panicked by the plan.
    Panic,
}

impl FaultKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Corruption => "corruption",
            FaultKind::Stall => "stall",
            FaultKind::Starvation => "starvation",
            FaultKind::Panic => "panic",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A phase opened (controller track).
    PhaseStart {
        /// The phase's kind.
        kind: PhaseKind,
        /// Program-order phase index.
        index: u32,
    },
    /// A phase closed (controller track).
    PhaseEnd {
        /// The phase's kind.
        kind: PhaseKind,
        /// Program-order phase index.
        index: u32,
    },
    /// An off-cluster marker message left its sending cluster.
    MsgSend {
        /// Sending cluster.
        from: u8,
        /// Destination cluster.
        to: u8,
        /// Hypercube hops on the route.
        hops: u8,
    },
    /// A marker message was applied at its destination cluster.
    MsgRecv {
        /// Sending cluster.
        from: u8,
        /// Destination cluster.
        to: u8,
    },
    /// An unacknowledged (or dropped/corrupted) message was
    /// retransmitted.
    MsgRetry {
        /// Sending cluster.
        from: u8,
        /// Destination cluster.
        to: u8,
    },
    /// A created-token arrived at the tiered barrier's counter network.
    BarrierArrive {
        /// Propagation tier of the token.
        level: u8,
    },
    /// The barrier condition held and the waiters were released.
    BarrierRelease {
        /// How long the controller waited, in the emitting timebase's
        /// nanoseconds.
        wait_ns: u64,
    },
    /// The barrier watchdog classified a stall instead of completing.
    BarrierStall {
        /// Tokens still accounted in flight.
        in_flight: i64,
        /// PEs still holding the AND-tree low.
        busy_pes: u64,
    },
    /// The arbiter granted a critical section immediately.
    ArbiterGrant,
    /// The arbiter deferred a request behind an earlier holder.
    ArbiterDefer {
        /// How long the request waited for its grant.
        wait_ns: u64,
    },
    /// The fault plan injected a fault here.
    Fault {
        /// Which class of fault.
        kind: FaultKind,
    },
    /// A sampled work-queue / outbox depth observation.
    QueueDepth {
        /// Entries queued at observation time.
        depth: u32,
    },
}

impl EventKind {
    /// Short display name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PhaseStart { kind, .. } | EventKind::PhaseEnd { kind, .. } => kind.name(),
            EventKind::MsgSend { .. } => "send",
            EventKind::MsgRecv { .. } => "recv",
            EventKind::MsgRetry { .. } => "retry",
            EventKind::BarrierArrive { .. } => "barrier-arrive",
            EventKind::BarrierRelease { .. } => "barrier-release",
            EventKind::BarrierStall { .. } => "barrier-stall",
            EventKind::ArbiterGrant => "arbiter-grant",
            EventKind::ArbiterDefer { .. } => "arbiter-defer",
            EventKind::Fault { kind } => kind.name(),
            EventKind::QueueDepth { .. } => "queue-depth",
        }
    }
}

/// One recorded observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Source track: a cluster index, or [`CONTROLLER_TRACK`] /
    /// [`GLOBAL_TRACK`].
    pub track: u16,
    /// When it happened.
    pub stamp: Stamp,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_convert_to_micros() {
        assert_eq!(Stamp::Sim(2_500).micros(), 2.5);
        assert_eq!(
            Stamp::Wall {
                ns: 1_000,
                phase: 3
            }
            .micros(),
            1.0
        );
        assert_eq!(Stamp::Wall { ns: 7, phase: 0 }.nanos(), 7);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PhaseKind::Propagate.name(), "propagate");
        assert_eq!(FaultKind::Corruption.name(), "corruption");
        assert_eq!(
            EventKind::MsgSend {
                from: 0,
                to: 1,
                hops: 2
            }
            .name(),
            "send"
        );
        assert_eq!(
            EventKind::PhaseStart {
                kind: PhaseKind::Barrier,
                index: 0
            }
            .name(),
            "barrier"
        );
    }
}
