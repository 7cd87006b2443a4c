//! Threaded message fabric: the hypercube as real channels.
//!
//! The threaded execution engine exchanges marker messages between
//! cluster threads through this fabric. Logical delivery is direct (the
//! receiving cluster gets the message in one `send`), but the fabric
//! computes the hypercube hop count for every message so the traffic
//! statistics match the modelled network.

use crate::topology::HypercubeTopology;
use crossbeam::channel::{unbounded, Receiver, Sender};
use snap_fault::{Corruptible, FaultInjector, SendFate};
use snap_kb::ClusterId;
use snap_obs::{lock_unpoisoned, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A message held back by an injected delay, awaiting its due time.
#[derive(Debug)]
struct Delayed<T> {
    due: Instant,
    to: usize,
    message: T,
}

/// Seeded delivery-order permutation state: one holdback slot per
/// destination cluster plus a SplitMix64 stream deciding, per counted
/// send, whether the message overtakes the currently held one.
#[derive(Debug)]
struct Reorder<T> {
    rng: u64,
    /// At most one in-flight message held back per destination.
    held: Vec<Option<T>>,
}

impl<T> Reorder<T> {
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Sending half of the fabric, cloneable across cluster threads.
/// `delayed` and `reorder` hold whole messages, valid at every step: a
/// worker that crashes holding one must not poison it for the rest.
#[derive(Debug, Clone)]
pub struct Fabric<T> {
    topology: Arc<HypercubeTopology>,
    senders: Vec<Sender<T>>,
    messages: Arc<AtomicU64>,
    hops: Arc<AtomicU64>,
    injector: Option<Arc<FaultInjector>>,
    /// Per-link decision counter streams for the injector.
    link_seq: Arc<Vec<AtomicU64>>,
    delayed: Arc<Mutex<Vec<Delayed<T>>>>,
    /// Delivery-order hook for the interleaving fuzzer (disabled by
    /// default; see [`enable_reorder`](Self::enable_reorder)).
    reorder: Arc<Mutex<Option<Reorder<T>>>>,
    /// Cheap hot-path check so the disabled case never takes the lock.
    reorder_on: Arc<AtomicBool>,
    /// Observability hook: records destination-mailbox depth per
    /// counted send (the ICN four-port mailbox occupancy).
    tracer: Tracer,
}

impl<T> Fabric<T> {
    /// Creates a fabric over `topology`; returns the fabric plus one
    /// receiver per cluster (in cluster order). With an `injector`, the
    /// [`send_faulty`](Self::send_faulty) and
    /// [`send_control`](Self::send_control) paths are subject to its
    /// plan; the plain [`send`](Self::send) path stays fault-free either
    /// way. `tracer` observes destination-mailbox depth on every counted
    /// send ([`Tracer::disabled`] for none).
    pub fn with_instruments(
        topology: HypercubeTopology,
        injector: Option<Arc<FaultInjector>>,
        tracer: Tracer,
    ) -> (Self, Vec<Receiver<T>>) {
        let n = topology.cluster_count();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        (
            Fabric {
                topology: Arc::new(topology),
                senders,
                messages: Arc::new(AtomicU64::new(0)),
                hops: Arc::new(AtomicU64::new(0)),
                injector,
                link_seq: Arc::new((0..n * n).map(|_| AtomicU64::new(0)).collect()),
                delayed: Arc::new(Mutex::new(Vec::new())),
                reorder: Arc::new(Mutex::new(None)),
                reorder_on: Arc::new(AtomicBool::new(false)),
                tracer,
            },
            receivers,
        )
    }

    /// Sends `message` from `from` to `to`, recording the hypercube hop
    /// count. Never faulted.
    ///
    /// # Panics
    ///
    /// Panics if either cluster is outside the topology or the receiver
    /// has been dropped.
    pub fn send(&self, from: ClusterId, to: ClusterId, message: T) {
        let hops = self.topology.distance(from, to) as u64;
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.hops.fetch_add(hops, Ordering::Relaxed);
        self.dispatch(to.index(), message);
        self.observe_depth(to.index());
    }

    /// Counted-marker delivery point: when the fuzzer's reorder hook is
    /// armed, a seeded coin per message decides whether it is held back
    /// in the destination's one-deep holdback slot (any previously held
    /// message is released) or delivered at once, overtaking whatever
    /// the slot still holds. With the hook off this is `deliver`.
    fn dispatch(&self, to: usize, message: T) {
        if self.reorder_on.load(Ordering::Relaxed) {
            let mut guard = lock_unpoisoned(&self.reorder);
            if let Some(state) = guard.as_mut() {
                if state.next() & 1 == 0 {
                    if let Some(prev) = state.held[to].replace(message) {
                        self.deliver(to, prev);
                    }
                    return;
                }
            }
        }
        self.deliver(to, message);
    }

    /// Arms the seeded delivery-order permutation used by the
    /// interleaving fuzzer. Only counted marker sends are shaped;
    /// control traffic (acks) and injector-delayed deliveries always
    /// pass straight through. Callers that can go idle while markers
    /// are in flight must call [`flush_held`](Self::flush_held) from
    /// their receive loops, exactly like [`poll_delayed`](Self::poll_delayed).
    pub fn enable_reorder(&self, seed: u64) {
        let n = self.senders.len();
        *lock_unpoisoned(&self.reorder) = Some(Reorder {
            rng: seed ^ 0x5851_F42D_4C95_7F2D,
            held: (0..n).map(|_| None).collect(),
        });
        self.reorder_on.store(true, Ordering::Relaxed);
    }

    /// Releases every message currently held back by the reorder hook.
    /// No-op when the hook is disarmed.
    pub fn flush_held(&self) {
        if !self.reorder_on.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = lock_unpoisoned(&self.reorder);
        if let Some(state) = guard.as_mut() {
            for to in 0..state.held.len() {
                if let Some(message) = state.held[to].take() {
                    self.deliver(to, message);
                }
            }
        }
    }

    fn deliver(&self, to: usize, message: T) {
        self.senders[to]
            .send(message)
            .expect("fabric receiver dropped while senders alive");
    }

    /// Reports the destination mailbox's current depth to the tracer.
    fn observe_depth(&self, to: usize) {
        if self.tracer.is_enabled() {
            self.tracer.queue_depth(
                to as u16,
                self.senders[to].len() as u64,
                self.tracer.wall_stamp(),
            );
        }
    }

    /// The topology the fabric routes over.
    pub fn topology(&self) -> &HypercubeTopology {
        &self.topology
    }

    /// Total messages sent (marker traffic; control sends are not
    /// counted, matching the modelled network's accounting).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total hypercube hops across all messages.
    pub fn hops(&self) -> u64 {
        self.hops.load(Ordering::Relaxed)
    }

    /// Injected-delay messages not yet delivered.
    pub fn pending_delayed(&self) -> usize {
        lock_unpoisoned(&self.delayed).len()
    }

    /// Delivers every delayed message whose due time has passed.
    /// Workers call this from their receive loops; without a caller,
    /// delayed messages would never arrive (and the barrier watchdog
    /// would classify them as lost).
    pub fn poll_delayed(&self) {
        let mut queue = lock_unpoisoned(&self.delayed);
        if queue.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].due <= now {
                let entry = queue.swap_remove(i);
                self.deliver(entry.to, entry.message);
            } else {
                i += 1;
            }
        }
    }
}

impl<T: Clone + Corruptible> Fabric<T> {
    /// Marker-path send: counted in traffic stats and subject to the
    /// attached injector's plan (drop, duplicate, delay, corrupt).
    /// Returns what was done to the message so the sender's resilience
    /// protocol and the run report can account for it.
    pub fn send_faulty(&self, from: ClusterId, to: ClusterId, message: T) -> SendFate {
        self.send_shaped(from, to, message, true)
    }

    /// Control-path send (acks, recovery coordination): NOT counted in
    /// traffic stats — the modelled network carries these on dedicated
    /// wires — but still subject to faults, so a lost or corrupted ack
    /// exercises the retry path like a lost marker does.
    pub fn send_control(&self, from: ClusterId, to: ClusterId, message: T) -> SendFate {
        self.send_shaped(from, to, message, false)
    }

    fn send_shaped(
        &self,
        from: ClusterId,
        to: ClusterId,
        mut message: T,
        counted: bool,
    ) -> SendFate {
        if counted {
            let hops = self.topology.distance(from, to) as u64;
            self.messages.fetch_add(1, Ordering::Relaxed);
            self.hops.fetch_add(hops, Ordering::Relaxed);
        }
        let Some(injector) = &self.injector else {
            if counted {
                self.dispatch(to.index(), message);
                self.observe_depth(to.index());
            } else {
                self.deliver(to.index(), message);
            }
            return SendFate::default();
        };
        let n = self.senders.len();
        let counter = self.link_seq[from.index() * n + to.index()].fetch_add(1, Ordering::Relaxed);
        let fate = injector.fate(from.index() as u8, to.index() as u8, counter);
        if fate.dropped {
            return fate;
        }
        if fate.corrupted {
            message.corrupt(fate.salt);
        }
        let duplicate = fate.duplicated.then(|| message.clone());
        if fate.delay_ns > 0 {
            let due = Instant::now() + Duration::from_nanos(fate.delay_ns);
            let mut queue = lock_unpoisoned(&self.delayed);
            let to = to.index();
            queue.push(Delayed { due, to, message });
            if let Some(dup) = duplicate {
                queue.push(Delayed {
                    due,
                    to,
                    message: dup,
                });
            }
        } else if counted {
            self.dispatch(to.index(), message);
            if let Some(dup) = duplicate {
                self.dispatch(to.index(), dup);
            }
            self.observe_depth(to.index());
        } else {
            self.deliver(to.index(), message);
            if let Some(dup) = duplicate {
                self.deliver(to.index(), dup);
            }
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn messages_arrive_at_their_cluster() {
        let (fabric, receivers) =
            Fabric::with_instruments(HypercubeTopology::snap1(), None, Tracer::disabled());
        fabric.send(ClusterId(0), ClusterId(23), 42u32);
        fabric.send(ClusterId(5), ClusterId(23), 43u32);
        let rx = &receivers[23];
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![42, 43]);
        assert!(receivers[0].try_recv().is_err());
        assert_eq!(fabric.messages(), 2);
        // 0→23 differs in all three fields, 5→23 (L:1→3, X:1→1, Y:0→1) in two.
        assert_eq!(fabric.hops(), 5);
    }

    #[test]
    fn fabric_works_across_threads() {
        let (fabric, receivers) =
            Fabric::with_instruments(HypercubeTopology::snap1(), None, Tracer::disabled());
        let f2 = fabric.clone();
        let sender = thread::spawn(move || {
            for i in 0..100u32 {
                f2.send(ClusterId((i % 32) as u8), ClusterId(7), i);
            }
        });
        let mut sum = 0u32;
        for _ in 0..100 {
            sum += receivers[7].recv().unwrap();
        }
        sender.join().unwrap();
        assert_eq!(sum, (0..100).sum());
        assert_eq!(fabric.messages(), 100);
    }

    #[test]
    fn reorder_hook_permutes_but_loses_nothing() {
        let drain = |rx: &Receiver<u32>| {
            let mut got = Vec::new();
            while let Ok(v) = rx.try_recv() {
                got.push(v);
            }
            got
        };
        let run = |seed: u64| {
            let (fabric, receivers) =
                Fabric::with_instruments(HypercubeTopology::snap1(), None, Tracer::disabled());
            fabric.enable_reorder(seed);
            for i in 0..50u32 {
                fabric.send(ClusterId(0), ClusterId(9), i);
            }
            fabric.flush_held();
            drain(&receivers[9])
        };
        let got = run(42);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..50).collect::<Vec<_>>(),
            "nothing lost or duplicated"
        );
        assert_ne!(got, sorted, "delivery order was permuted");
        assert_eq!(got, run(42), "same seed replays the same order");
        assert_ne!(got, run(43), "different seed permutes differently");
    }

    use snap_fault::{Corruptible, FaultInjector, FaultPlan};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Payload(u32);

    impl Corruptible for Payload {
        fn corrupt(&mut self, salt: u64) {
            self.0 ^= (salt as u32) | 1;
        }
    }

    #[test]
    fn faulty_path_without_injector_is_plain_delivery() {
        let (fabric, receivers) =
            Fabric::with_instruments(HypercubeTopology::snap1(), None, Tracer::disabled());
        let fate = fabric.send_faulty(ClusterId(0), ClusterId(1), Payload(7));
        assert!(fate.is_clean());
        assert_eq!(receivers[1].try_recv().unwrap(), Payload(7));
        assert_eq!(fabric.messages(), 1);
        let fate = fabric.send_control(ClusterId(0), ClusterId(1), Payload(8));
        assert!(fate.is_clean());
        assert_eq!(receivers[1].try_recv().unwrap(), Payload(8));
        assert_eq!(fabric.messages(), 1, "control sends are uncounted");
    }

    #[test]
    fn injected_drops_never_arrive_but_are_counted() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(11).drops(1.0)));
        let (fabric, receivers) = Fabric::with_instruments(
            HypercubeTopology::snap1(),
            Some(Arc::clone(&injector)),
            Tracer::disabled(),
        );
        for i in 0..20 {
            let fate = fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(i));
            assert!(fate.dropped);
        }
        assert!(receivers[3].try_recv().is_err());
        assert_eq!(fabric.messages(), 20, "drops still count as traffic");
        assert_eq!(injector.report().injected_drops, 20);
    }

    #[test]
    fn injected_duplicates_arrive_twice() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(11).duplicates(1.0)));
        let (fabric, receivers) = Fabric::with_instruments(
            HypercubeTopology::snap1(),
            Some(Arc::clone(&injector)),
            Tracer::disabled(),
        );
        let fate = fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(9));
        assert!(fate.duplicated);
        assert_eq!(receivers[3].try_recv().unwrap(), Payload(9));
        assert_eq!(receivers[3].try_recv().unwrap(), Payload(9));
        assert!(receivers[3].try_recv().is_err());
    }

    #[test]
    fn injected_corruption_alters_payload() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(11).corruptions(1.0)));
        let (fabric, receivers) = Fabric::with_instruments(
            HypercubeTopology::snap1(),
            Some(Arc::clone(&injector)),
            Tracer::disabled(),
        );
        fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(9));
        assert_ne!(receivers[3].try_recv().unwrap(), Payload(9));
    }

    #[test]
    fn delayed_messages_arrive_after_poll() {
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::seeded(11).delays(1.0, 2_000_000),
        ));
        let (fabric, receivers) = Fabric::with_instruments(
            HypercubeTopology::snap1(),
            Some(Arc::clone(&injector)),
            Tracer::disabled(),
        );
        let fate = fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(5));
        assert!(fate.delay_ns > 0);
        assert!(receivers[3].try_recv().is_err(), "not delivered yet");
        assert_eq!(fabric.pending_delayed(), 1);
        // A worker that crashes holding the queue costs it nothing.
        let worker = fabric.clone();
        let crashed = thread::spawn(move || {
            let _queue = worker.delayed.lock().unwrap();
            panic!("worker dies holding the delayed queue");
        });
        assert!(crashed.join().is_err());
        assert!(fabric.delayed.is_poisoned());
        assert_eq!(fabric.pending_delayed(), 1);
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            fabric.poll_delayed();
            if let Ok(got) = receivers[3].try_recv() {
                assert_eq!(got, Payload(5));
                break;
            }
            assert!(Instant::now() < deadline, "delayed message never arrived");
            thread::yield_now();
        }
        assert_eq!(fabric.pending_delayed(), 0);
    }
}
