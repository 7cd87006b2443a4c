//! The recording handle engines carry.
//!
//! A [`Tracer`] is cheap to clone and thread-safe; engines call its
//! recording methods from hot paths. Two gates keep release benchmarks
//! honest:
//!
//! * **compile time** — without the crate's `obs` feature every
//!   method body is empty and `is_enabled` is a constant `false`, so
//!   instrumented call sites (and any `if tracer.is_enabled()` guards
//!   around stamp computation) optimize away entirely;
//! * **run time** — with the feature compiled in, a machine without an
//!   [`ObsConfig`] gets a disabled tracer whose methods return after one
//!   pointer test, and an enabled tracer still subsamples raw events by
//!   `sample_every` and stops appending at `max_events` (counters and
//!   histograms are always exact).

#[cfg(feature = "obs")]
use super::event::{EventKind, TraceEvent};
use super::event::{FaultKind, PhaseKind, Stamp};
use super::report::TraceReport;
#[cfg(feature = "obs")]
use super::report::{ClusterMetrics, Histogram, PhaseStat};

/// Runtime tracing configuration, carried in the machine config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record one of every `sample_every` raw events (1 = all). Phase
    /// transitions are structural and never sampled out.
    pub sample_every: u32,
    /// Hard cap on recorded events; once reached, further events only
    /// bump the dropped count. Zero keeps counters/histograms/phases
    /// without any event buffer.
    pub max_events: usize,
}

impl ObsConfig {
    /// Record everything (bounded by a generous default cap).
    pub fn full() -> Self {
        ObsConfig {
            sample_every: 1,
            max_events: 1 << 20,
        }
    }

    /// Keep counters, histograms, and phase statistics but no raw
    /// event buffer.
    pub fn counters_only() -> Self {
        ObsConfig {
            sample_every: 1,
            max_events: 0,
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(feature = "obs")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError, RwLock};
    use std::time::Instant;

    #[derive(Default)]
    pub(super) struct Cells {
        pub msgs_sent: AtomicU64,
        pub msgs_recv: AtomicU64,
        pub retries: AtomicU64,
        pub activations: AtomicU64,
        pub expansions: AtomicU64,
        pub arbiter_grants: AtomicU64,
        pub arbiter_defers: AtomicU64,
        pub arbiter_wait_ns: AtomicU64,
        pub barrier_waits: AtomicU64,
        pub barrier_wait_ns: AtomicU64,
        pub faults_injected: AtomicU64,
        pub max_queue_depth: AtomicU64,
    }

    impl Cells {
        pub(super) fn snapshot(&self) -> ClusterMetrics {
            ClusterMetrics {
                msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
                msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
                retries: self.retries.load(Ordering::Relaxed),
                activations: self.activations.load(Ordering::Relaxed),
                expansions: self.expansions.load(Ordering::Relaxed),
                arbiter_grants: self.arbiter_grants.load(Ordering::Relaxed),
                arbiter_defers: self.arbiter_defers.load(Ordering::Relaxed),
                arbiter_wait_ns: self.arbiter_wait_ns.load(Ordering::Relaxed),
                barrier_waits: self.barrier_waits.load(Ordering::Relaxed),
                barrier_wait_ns: self.barrier_wait_ns.load(Ordering::Relaxed),
                faults_injected: self.faults_injected.load(Ordering::Relaxed),
                max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            }
        }
    }

    pub(super) struct AtomicHist {
        buckets: Vec<AtomicU64>,
        count: AtomicU64,
        sum: AtomicU64,
        max: AtomicU64,
    }

    impl AtomicHist {
        pub(super) fn new() -> Self {
            AtomicHist {
                buckets: (0..crate::obs::report::HISTOGRAM_BUCKETS)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }
        }

        pub(super) fn record(&self, value: u64) {
            self.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
            self.max.fetch_max(value, Ordering::Relaxed);
        }

        pub(super) fn snapshot(&self) -> Histogram {
            Histogram {
                buckets: self
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: self.count.load(Ordering::Relaxed),
                sum: self.sum.load(Ordering::Relaxed),
                max: self.max.load(Ordering::Relaxed),
            }
        }
    }

    /// The currently-open phase's accumulator.
    pub(super) struct PhaseCells {
        pub kind: PhaseKind,
        pub start_ns: u64,
        pub activations: AtomicU64,
        pub expansions: AtomicU64,
        pub messages: AtomicU64,
    }

    /// The locks guard appends and whole-value swaps, valid at every
    /// step: a worker that crashes tracing must not poison the report.
    pub(super) struct Inner {
        pub cfg: ObsConfig,
        pub t0: Instant,
        pub clusters: Vec<Cells>,
        pub current_phase: RwLock<Option<PhaseCells>>,
        pub done_phases: Mutex<Vec<PhaseStat>>,
        pub phase_count: AtomicU64,
        pub events: Mutex<Vec<TraceEvent>>,
        pub dropped: AtomicU64,
        pub tick: AtomicU64,
        pub queue_depth: AtomicHist,
        pub barrier_wait: AtomicHist,
    }

    impl Inner {
        pub(super) fn new(cfg: ObsConfig, clusters: usize) -> Self {
            Inner {
                cfg,
                t0: Instant::now(),
                clusters: (0..clusters).map(|_| Cells::default()).collect(),
                current_phase: RwLock::new(None),
                done_phases: Mutex::new(Vec::new()),
                phase_count: AtomicU64::new(0),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                tick: AtomicU64::new(0),
                queue_depth: AtomicHist::new(),
                barrier_wait: AtomicHist::new(),
            }
        }

        /// Appends a raw event, honoring sampling and the cap.
        /// `structural` events (phase transitions) bypass sampling.
        pub(super) fn push(&self, ev: TraceEvent, structural: bool) {
            if !structural {
                let tick = self.tick.fetch_add(1, Ordering::Relaxed);
                if self.cfg.sample_every > 1
                    && !tick.is_multiple_of(u64::from(self.cfg.sample_every))
                {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            let mut events = lock_unpoisoned(&self.events);
            if events.len() >= self.cfg.max_events {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                events.push(ev);
            }
        }

        pub(super) fn cells(&self, track: u16) -> Option<&Cells> {
            self.clusters.get(usize::from(track))
        }

        pub(super) fn phase_add(&self, f: impl FnOnce(&PhaseCells)) {
            if let Some(p) = self
                .current_phase
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
            {
                f(p);
            }
        }
    }

    impl Inner {
        pub(super) fn queue_hist(&self) -> &AtomicHist {
            &self.queue_depth
        }
        pub(super) fn barrier_hist(&self) -> &AtomicHist {
            &self.barrier_wait
        }
    }
}

#[cfg(feature = "obs")]
use crate::lock_unpoisoned;
#[cfg(feature = "obs")]
use imp::{Inner, PhaseCells};
#[cfg(feature = "obs")]
use std::sync::{atomic::Ordering, Arc, PoisonError};

/// The recording handle; the default records nothing. See the module
/// docs for the gating model.
#[derive(Clone, Default)]
pub(crate) struct Tracer {
    #[cfg(feature = "obs")]
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer from an optional runtime config: `None` disables.
    /// Without the `obs` feature the result is always disabled.
    pub(crate) fn from_config(cfg: Option<&ObsConfig>, clusters: usize) -> Self {
        #[cfg(feature = "obs")]
        {
            Tracer {
                inner: cfg.map(|c| Arc::new(Inner::new(*c, clusters))),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (cfg, clusters);
            Tracer::default()
        }
    }
}

#[cfg(feature = "obs")]
impl Tracer {
    /// `true` when this tracer records.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A wall-clock stamp (ns since tracer creation) carrying the
    /// current logical phase index.
    #[inline]
    pub(crate) fn wall_stamp(&self) -> Stamp {
        match &self.inner {
            Some(i) => Stamp::Wall {
                ns: i.t0.elapsed().as_nanos() as u64,
                phase: i.phase_count.load(Ordering::Relaxed) as u32,
            },
            None => Stamp::Wall { ns: 0, phase: 0 },
        }
    }

    /// Opens a phase of `kind` at `stamp`.
    pub(crate) fn phase_start(&self, kind: PhaseKind, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        let index = i.phase_count.fetch_add(1, Ordering::Relaxed) as u32;
        *i.current_phase
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(PhaseCells {
            kind,
            start_ns: stamp.nanos(),
            activations: Default::default(),
            expansions: Default::default(),
            messages: Default::default(),
        });
        i.push(
            TraceEvent {
                track: super::event::CONTROLLER_TRACK,
                stamp,
                kind: EventKind::PhaseStart { kind, index },
            },
            true,
        );
    }

    /// Closes the open phase at `stamp`, folding its accumulators into
    /// the report's phase list.
    pub(crate) fn phase_end(&self, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        let Some(p) = i
            .current_phase
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        else {
            return;
        };
        let mut done = lock_unpoisoned(&i.done_phases);
        let index = done.len() as u32;
        done.push(PhaseStat {
            kind: p.kind,
            activations: p.activations.load(Ordering::Relaxed),
            expansions: p.expansions.load(Ordering::Relaxed),
            messages: p.messages.load(Ordering::Relaxed),
            duration_ns: stamp.nanos().saturating_sub(p.start_ns),
        });
        let kind = p.kind;
        drop(done);
        i.push(
            TraceEvent {
                track: super::event::CONTROLLER_TRACK,
                stamp,
                kind: EventKind::PhaseEnd { kind, index },
            },
            true,
        );
    }

    /// Records one applied marker activation on `track`.
    #[inline]
    pub(crate) fn activation(&self, track: u16) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(track) {
            c.activations.fetch_add(1, Ordering::Relaxed);
        }
        i.phase_add(|p| {
            p.activations.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Records one node expansion on `track`.
    #[inline]
    pub(crate) fn expansion(&self, track: u16) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(track) {
            c.expansions.fetch_add(1, Ordering::Relaxed);
        }
        i.phase_add(|p| {
            p.expansions.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Records an off-cluster message send.
    pub(crate) fn msg_send(&self, from: u16, to: u16, hops: u8, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(from) {
            c.msgs_sent.fetch_add(1, Ordering::Relaxed);
        }
        i.phase_add(|p| {
            p.messages.fetch_add(1, Ordering::Relaxed);
        });
        i.push(
            TraceEvent {
                track: from,
                stamp,
                kind: EventKind::MsgSend {
                    from: from as u8,
                    to: to as u8,
                    hops,
                },
            },
            false,
        );
    }

    /// Records a message applied at its destination.
    pub(crate) fn msg_recv(&self, from: u16, to: u16, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(to) {
            c.msgs_recv.fetch_add(1, Ordering::Relaxed);
        }
        i.push(
            TraceEvent {
                track: to,
                stamp,
                kind: EventKind::MsgRecv {
                    from: from as u8,
                    to: to as u8,
                },
            },
            false,
        );
    }

    /// Records a retransmission from `from` toward `to`.
    pub(crate) fn msg_retry(&self, from: u16, to: u16, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(from) {
            c.retries.fetch_add(1, Ordering::Relaxed);
        }
        i.push(
            TraceEvent {
                track: from,
                stamp,
                kind: EventKind::MsgRetry {
                    from: from as u8,
                    to: to as u8,
                },
            },
            false,
        );
    }

    /// Records a created-token arrival at the barrier counter network.
    pub(crate) fn barrier_arrive(&self, level: u8, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        i.push(
            TraceEvent {
                track: super::event::GLOBAL_TRACK,
                stamp,
                kind: EventKind::BarrierArrive { level },
            },
            false,
        );
    }

    /// Records a completed barrier wait of `wait_ns` on `track`.
    pub(crate) fn barrier_wait(&self, track: u16, wait_ns: u64, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(track) {
            c.barrier_waits.fetch_add(1, Ordering::Relaxed);
            c.barrier_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        }
        i.barrier_hist().record(wait_ns);
        i.push(
            TraceEvent {
                track,
                stamp,
                kind: EventKind::BarrierRelease { wait_ns },
            },
            false,
        );
    }

    /// Records a watchdog stall classification.
    pub(crate) fn barrier_stall(&self, in_flight: i64, busy_pes: u64, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        i.push(
            TraceEvent {
                track: super::event::GLOBAL_TRACK,
                stamp,
                kind: EventKind::BarrierStall {
                    in_flight,
                    busy_pes,
                },
            },
            true,
        );
    }

    /// Records an arbiter decision on `track`: an immediate grant when
    /// `wait_ns` is zero, a deferral otherwise.
    pub(crate) fn arbiter(&self, track: u16, wait_ns: u64, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(track) {
            if wait_ns == 0 {
                c.arbiter_grants.fetch_add(1, Ordering::Relaxed);
            } else {
                c.arbiter_defers.fetch_add(1, Ordering::Relaxed);
                c.arbiter_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
            }
        }
        i.push(
            TraceEvent {
                track,
                stamp,
                kind: if wait_ns == 0 {
                    EventKind::ArbiterGrant
                } else {
                    EventKind::ArbiterDefer { wait_ns }
                },
            },
            false,
        );
    }

    /// Records an injected fault of `kind` on `track`.
    pub(crate) fn fault(&self, track: u16, kind: FaultKind, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(track) {
            c.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        i.push(
            TraceEvent {
                track,
                stamp,
                kind: EventKind::Fault { kind },
            },
            false,
        );
    }

    /// Records a work-queue / outbox depth observation on `track`.
    pub(crate) fn queue_depth(&self, track: u16, depth: u64, stamp: Stamp) {
        let Some(i) = &self.inner else { return };
        if let Some(c) = i.cells(track) {
            c.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        }
        i.queue_hist().record(depth);
        i.push(
            TraceEvent {
                track,
                stamp,
                kind: EventKind::QueueDepth {
                    depth: depth.min(u64::from(u32::MAX)) as u32,
                },
            },
            false,
        );
    }

    /// Snapshots everything recorded so far into a [`TraceReport`].
    pub(crate) fn report(&self) -> TraceReport {
        let Some(i) = &self.inner else {
            return TraceReport::default();
        };
        TraceReport {
            enabled: true,
            clusters: i.clusters.iter().map(|c| c.snapshot()).collect(),
            phases: lock_unpoisoned(&i.done_phases).clone(),
            events: lock_unpoisoned(&i.events).clone(),
            events_dropped: i.dropped.load(Ordering::Relaxed),
            queue_depth: i.queue_hist().snapshot(),
            barrier_wait: i.barrier_hist().snapshot(),
        }
    }
}

#[cfg(not(feature = "obs"))]
impl Tracer {
    /// Constant `false`: the `obs` feature is compiled out, so every
    /// guard folds to a no-op.
    #[inline(always)]
    pub(crate) fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn wall_stamp(&self) -> Stamp {
        Stamp::Wall { ns: 0, phase: 0 }
    }

    #[inline(always)]
    pub(crate) fn phase_start(&self, _kind: PhaseKind, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn phase_end(&self, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn activation(&self, _track: u16) {}

    #[inline(always)]
    pub(crate) fn expansion(&self, _track: u16) {}

    #[inline(always)]
    pub(crate) fn msg_send(&self, _from: u16, _to: u16, _hops: u8, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn msg_recv(&self, _from: u16, _to: u16, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn msg_retry(&self, _from: u16, _to: u16, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn barrier_arrive(&self, _level: u8, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn barrier_wait(&self, _track: u16, _wait_ns: u64, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn barrier_stall(&self, _in_flight: i64, _busy_pes: u64, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn arbiter(&self, _track: u16, _wait_ns: u64, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn fault(&self, _track: u16, _kind: FaultKind, _stamp: Stamp) {}

    #[inline(always)]
    pub(crate) fn queue_depth(&self, _track: u16, _depth: u64, _stamp: Stamp) {}

    /// Always the default (empty, disabled) report.
    pub(crate) fn report(&self) -> TraceReport {
        TraceReport::default()
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::obs::event::{FaultKind, CONTROLLER_TRACK};

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        assert!(!t.is_enabled());
        t.activation(0);
        t.msg_send(0, 1, 1, Stamp::Sim(5));
        assert!(t.report().is_empty());
    }

    #[test]
    fn counters_phases_and_events_accumulate() {
        let t = Tracer::from_config(Some(&ObsConfig::full()), 2);
        assert!(t.is_enabled());
        t.phase_start(PhaseKind::Propagate, Stamp::Sim(10));
        t.activation(0);
        t.activation(1);
        t.expansion(0);
        t.msg_send(0, 1, 2, Stamp::Sim(20));
        t.msg_recv(0, 1, Stamp::Sim(30));
        t.phase_end(Stamp::Sim(40));
        t.barrier_wait(CONTROLLER_TRACK, 100, Stamp::Sim(140));
        t.fault(1, FaultKind::Drop, Stamp::Sim(150));
        t.queue_depth(0, 4, Stamp::Sim(160));
        let r = t.report();
        assert!(r.enabled);
        assert_eq!(r.clusters[0].activations, 1);
        assert_eq!(r.clusters[0].msgs_sent, 1);
        assert_eq!(r.clusters[1].msgs_recv, 1);
        assert_eq!(r.clusters[1].faults_injected, 1);
        assert_eq!(r.clusters[0].max_queue_depth, 4);
        assert_eq!(r.phases.len(), 1);
        let p = &r.phases[0];
        assert_eq!(p.kind, PhaseKind::Propagate);
        assert_eq!(p.activations, 2);
        assert_eq!(p.expansions, 1);
        assert_eq!(p.messages, 1);
        assert_eq!(p.duration_ns, 30);
        assert_eq!(r.barrier_wait.count, 1);
        assert!(r.events.len() >= 7);
        assert_eq!(r.events_dropped, 0);
    }

    #[test]
    fn sampling_drops_raw_events_but_not_counters() {
        let t = Tracer::from_config(
            Some(&ObsConfig {
                sample_every: 10,
                ..ObsConfig::full()
            }),
            1,
        );
        for i in 0..100 {
            t.msg_send(0, 0, 1, Stamp::Sim(i));
        }
        let r = t.report();
        assert_eq!(r.clusters[0].msgs_sent, 100, "counters stay exact");
        assert_eq!(r.events.len(), 10);
        assert_eq!(r.events_dropped, 90);
    }

    #[test]
    fn event_cap_is_honored() {
        let t = Tracer::from_config(
            Some(&ObsConfig {
                sample_every: 1,
                max_events: 3,
            }),
            1,
        );
        for i in 0..10 {
            t.msg_send(0, 0, 1, Stamp::Sim(i));
        }
        let r = t.report();
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.events_dropped, 7);
        assert_eq!(r.clusters[0].msgs_sent, 10);
    }

    #[test]
    fn counters_only_config_keeps_no_events() {
        let t = Tracer::from_config(Some(&ObsConfig::counters_only()), 1);
        t.phase_start(PhaseKind::Configure, Stamp::Sim(0));
        t.activation(0);
        t.phase_end(Stamp::Sim(5));
        let r = t.report();
        assert!(r.events.is_empty());
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.clusters[0].activations, 1);
    }

    #[test]
    fn wall_stamp_tracks_phase_index() {
        let t = Tracer::from_config(Some(&ObsConfig::full()), 1);
        let s0 = t.wall_stamp();
        assert!(matches!(s0, Stamp::Wall { phase: 0, .. }));
        t.phase_start(PhaseKind::Configure, t.wall_stamp());
        let s1 = t.wall_stamp();
        assert!(matches!(s1, Stamp::Wall { phase: 1, .. }));
    }
}
