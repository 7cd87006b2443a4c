//! Threaded implementation of the tiered barrier for the parallel engine.
//!
//! The hardware reports per-PE idle state through an AND-tree of general
//! purpose I/O lines (the SIGI interlock signal) and per-level marker
//! counters through the counter network. The logical equivalent here is a
//! set of shared atomics: a busy-PE count (the AND-tree) and one signed
//! counter per propagation level. The protocol invariant that prevents
//! false detection carries over directly: a creation is counted **before**
//! the message becomes visible to any other thread, so whenever a message
//! is in flight some counter is positive.

use super::model::{tier, MAX_LEVELS};
use crate::inject::FaultInjector;
use crate::obs::Tracer;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a watched barrier wait gave up, as classified by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub(crate) enum BarrierStall {
    /// Every PE is idle and no counter has moved for the whole timeout,
    /// yet levels remain positive: the counted messages will never
    /// arrive — they were lost in the interconnect.
    MessagesLost {
        /// Messages still accounted as in flight.
        in_flight: i64,
    },
    /// PEs are still marked busy but nothing has progressed for the
    /// whole timeout — a wedged worker rather than lost traffic.
    Wedged {
        /// PEs still holding the AND-tree low.
        busy_pes: usize,
    },
}

impl fmt::Display for BarrierStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarrierStall::MessagesLost { in_flight } => {
                write!(f, "{in_flight} in-flight messages lost (all PEs idle)")
            }
            BarrierStall::Wedged { busy_pes } => {
                write!(f, "{busy_pes} PEs wedged (no barrier activity)")
            }
        }
    }
}

/// Shared tiered-barrier state for one array run.
#[derive(Debug)]
pub(crate) struct TieredBarrier {
    levels: Vec<AtomicI64>,
    busy_pes: AtomicUsize,
    /// Bumped on every counter/AND-tree transition; the watchdog
    /// distinguishes "still propagating" (activity advancing) from
    /// "stalled" (activity frozen) by watching this.
    activity: AtomicU64,
    injector: Option<Arc<FaultInjector>>,
    tracer: Tracer,
}

impl TieredBarrier {
    /// Creates the barrier; all PEs start idle. With an `injector`,
    /// counter updates may be stalled (after publication, so the
    /// no-false-termination invariant is untouched), modeling
    /// counter-network contention. `tracer` receives every created-token
    /// arrival on the counter-network track of the trace (subject to its
    /// sampling; a default tracer for none).
    pub(crate) fn with_instruments(
        injector: Option<Arc<FaultInjector>>,
        tracer: Tracer,
    ) -> Arc<Self> {
        Arc::new(TieredBarrier {
            levels: (0..MAX_LEVELS).map(|_| AtomicI64::new(0)).collect(),
            busy_pes: AtomicUsize::new(0),
            activity: AtomicU64::new(0),
            injector,
            tracer,
        })
    }

    fn touch(&self) -> u64 {
        self.activity.fetch_add(1, Ordering::SeqCst)
    }

    /// Records a marker/process creation at `level`. Call **before**
    /// publishing the message. Levels beyond the tier table saturate
    /// into the top tier.
    pub(crate) fn created(&self, level: u8) {
        self.levels[tier(level)].fetch_add(1, Ordering::SeqCst);
        if self.tracer.is_enabled() {
            self.tracer.barrier_arrive(level, self.tracer.wall_stamp());
        }
        let op = self.touch();
        if let Some(injector) = &self.injector {
            let ns = injector.barrier_stall_ns(level, op);
            if ns > 0 {
                spin_for(Duration::from_nanos(ns));
            }
        }
    }

    /// Records a termination at `level`. Call **after** fully processing
    /// the message (including counting any children it created).
    pub(crate) fn consumed(&self, level: u8) {
        let prev = self.levels[tier(level)].fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "level {level} terminated more than created");
        self.touch();
    }

    /// Marks one PE busy (clears its AND-tree input).
    pub(crate) fn enter_busy(&self) {
        self.busy_pes.fetch_add(1, Ordering::SeqCst);
        self.touch();
    }

    /// Marks one PE idle again.
    pub(crate) fn exit_busy(&self) {
        let prev = self.busy_pes.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "exit_busy without matching enter_busy");
        self.touch();
    }

    /// Snapshot check: all PEs idle and every level drained.
    ///
    /// Reads the busy count first and re-checks it after scanning the
    /// counters, so a PE that went busy mid-scan cannot slip through.
    pub(crate) fn is_complete(&self) -> bool {
        self.busy_pes.load(Ordering::SeqCst) == 0
            && self.levels_drained()
            && self.busy_pes.load(Ordering::SeqCst) == 0
    }

    /// Snapshot check on the counter network alone: every level counter
    /// reads zero, whatever the AND-tree says.
    ///
    /// This is the predicate the no-false-termination invariant is
    /// stated on — a token is counted before its message is visible, so
    /// a message in flight keeps some counter positive — and therefore
    /// the one to re-verify a reported closure with. The AND-tree is
    /// left out on purpose: a PE may pulse busy after closure with no
    /// token involved (handling a late ack, a suppressed duplicate or a
    /// stale-epoch envelope, retransmitting a batch whose ack was lost),
    /// and that pulse is not a re-opened phase.
    pub(crate) fn levels_drained(&self) -> bool {
        self.levels.iter().all(|l| l.load(Ordering::SeqCst) == 0)
    }

    /// Waits for the barrier with a watchdog: returns `Ok(())` on
    /// completion, or a [`BarrierStall`] classification once no counter
    /// or AND-tree transition has occurred for `stall_after`. Progress
    /// resets the clock, so long-but-live propagations never trip it.
    ///
    /// # Errors
    ///
    /// [`BarrierStall::MessagesLost`] when everything is idle but
    /// levels stay positive; [`BarrierStall::Wedged`] when PEs hold the
    /// AND-tree low without progressing.
    pub(crate) fn wait_complete_timeout(&self, stall_after: Duration) -> Result<(), BarrierStall> {
        let mut last_activity = self.activity.load(Ordering::SeqCst);
        let mut last_progress = Instant::now();
        loop {
            if self.is_complete() {
                return Ok(());
            }
            let now_activity = self.activity.load(Ordering::SeqCst);
            if now_activity != last_activity {
                last_activity = now_activity;
                last_progress = Instant::now();
            } else if last_progress.elapsed() >= stall_after {
                let busy = self.busy_pes.load(Ordering::SeqCst);
                return Err(if busy == 0 {
                    BarrierStall::MessagesLost {
                        in_flight: self.in_flight(),
                    }
                } else {
                    BarrierStall::Wedged { busy_pes: busy }
                });
            }
            std::thread::yield_now();
        }
    }

    /// Total messages currently accounted as in flight.
    pub(crate) fn in_flight(&self) -> i64 {
        self.levels.iter().map(|l| l.load(Ordering::SeqCst)).sum()
    }

    /// PEs currently holding the AND-tree low.
    pub(crate) fn busy_pes(&self) -> usize {
        self.busy_pes.load(Ordering::SeqCst)
    }

    /// Zeroes every level counter and the busy count, abandoning any
    /// outstanding accounting. Recovery support: after a cluster dies
    /// mid-phase its created-tokens can never be consumed, so the
    /// controller quiesces the surviving workers, resets the barrier,
    /// and replays the phase. Only call while no worker is touching the
    /// barrier.
    pub(crate) fn reset(&self) {
        for l in &self.levels {
            l.store(0, Ordering::SeqCst);
        }
        self.busy_pes.store(0, Ordering::SeqCst);
        self.touch();
    }
}

/// Busy-waits for sub-millisecond injected stalls (`thread::sleep` is
/// too coarse at ns granularity).
pub(crate) fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;

    #[test]
    fn starts_complete() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        assert!(b.is_complete());
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn busy_pe_blocks_completion() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.enter_busy();
        assert!(!b.is_complete());
        assert!(b.levels_drained(), "the AND-tree is not a counter");
        b.exit_busy();
        assert!(b.is_complete());
    }

    #[test]
    fn in_flight_message_blocks_completion() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.created(3);
        assert!(!b.is_complete());
        assert!(!b.levels_drained());
        assert_eq!(b.in_flight(), 1);
        b.consumed(3);
        assert!(b.is_complete());
    }

    /// End-to-end: worker threads forward messages in random-ish chains;
    /// the controller's watched wait must not return until every message
    /// has been fully processed.
    #[test]
    fn wait_complete_never_fires_early() {
        const WORKERS: usize = 4;
        const SEEDS: u32 = 200;
        let barrier = TieredBarrier::with_instruments(None, Tracer::default());
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..WORKERS).map(|_| channel::<(u8, u32)>()).unzip();
        let processed = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        for (w, rx) in rxs.into_iter().enumerate() {
            let barrier = Arc::clone(&barrier);
            let txs = txs.clone();
            let processed = Arc::clone(&processed);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                loop {
                    match rx.try_recv() {
                        Ok((level, hop)) => {
                            barrier.enter_busy();
                            // Forward a child message for a few hops.
                            if hop > 0 {
                                let next = (w + 1) % WORKERS;
                                barrier.created(level + 1);
                                txs[next].send((level + 1, hop - 1)).unwrap();
                            }
                            processed.fetch_add(1, Ordering::SeqCst);
                            barrier.consumed(level);
                            barrier.exit_busy();
                        }
                        Err(_) => {
                            if done.load(Ordering::SeqCst) {
                                return;
                            }
                            thread::yield_now();
                        }
                    }
                }
            }));
        }

        // Seed the system: SEEDS level-0 messages, each forwarding 3 hops.
        let mut expected = 0usize;
        for i in 0..SEEDS {
            barrier.created(0);
            txs[(i % WORKERS as u32) as usize].send((0, 3)).unwrap();
            expected += 4; // each seed is processed once per hop level 0..=3
        }
        barrier
            .wait_complete_timeout(Duration::from_secs(60))
            .unwrap();
        // At completion every created message must have been processed.
        assert_eq!(processed.load(Ordering::SeqCst), expected);
        assert_eq!(barrier.in_flight(), 0);
        done.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn deep_levels_saturate_in_threaded_barrier() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.created(250);
        b.created(MAX_LEVELS as u8);
        assert!(!b.is_complete());
        assert_eq!(b.in_flight(), 2);
        b.consumed(MAX_LEVELS as u8);
        b.consumed(250);
        assert!(b.is_complete());
    }

    #[test]
    fn watchdog_classifies_lost_messages() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.created(0); // never consumed: models a dropped message
        let err = b
            .wait_complete_timeout(Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, BarrierStall::MessagesLost { in_flight: 1 });
        assert!(err.to_string().contains("lost"));
    }

    #[test]
    fn watchdog_classifies_wedged_pes() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.enter_busy(); // never exits: models a wedged worker
        let err = b
            .wait_complete_timeout(Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, BarrierStall::Wedged { busy_pes: 1 });
        b.exit_busy();
    }

    #[test]
    fn watchdog_tolerates_slow_but_live_traffic() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.created(0);
        let worker = {
            let b = Arc::clone(&b);
            thread::spawn(move || {
                // Progress slower than the stall window, but steady:
                // each transition resets the watchdog clock.
                for _ in 0..5 {
                    thread::sleep(Duration::from_millis(5));
                    b.created(1);
                    b.consumed(1);
                }
                thread::sleep(Duration::from_millis(5));
                b.consumed(0);
            })
        };
        b.wait_complete_timeout(Duration::from_millis(250)).unwrap();
        worker.join().unwrap();
        assert!(b.is_complete());
    }

    #[test]
    fn reset_abandons_outstanding_accounting() {
        let b = TieredBarrier::with_instruments(None, Tracer::default());
        b.created(0);
        b.created(5);
        b.enter_busy();
        assert!(!b.is_complete());
        b.reset();
        assert!(b.is_complete());
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn injector_stall_delays_but_preserves_accounting() {
        use crate::inject::FaultInjector;
        use crate::plan::FaultPlan;
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(5).stalls(1.0, 10_000)));
        let b = TieredBarrier::with_instruments(Some(Arc::clone(&injector)), Tracer::default());
        for _ in 0..16 {
            b.created(0);
        }
        for _ in 0..16 {
            b.consumed(0);
        }
        assert!(b.is_complete());
        assert!(injector.report().injected_stalls > 0);
    }
}
