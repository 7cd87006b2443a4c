//! Threaded message fabric: the hypercube as real channels.
//!
//! The threaded execution engine exchanges marker messages between
//! cluster threads through this fabric: one `std::sync::mpsc` channel
//! per cluster slot, its [`Inbox`] held by the worker on that cluster.
//! Logical delivery is direct (the receiving cluster gets the message in
//! one send), but the fabric computes the hypercube hop count for every
//! message so the traffic statistics match the modelled network.
//!
//! An inbox closes with the worker that holds it. A message sent to a
//! closed inbox is lost, as one written to a dead PE's mailbox would
//! be: it still counts as traffic, and the sender's resilience protocol
//! (ack, retry to the region's new owner, barrier watchdog, replay)
//! covers it like any other lost message.

use crate::envelope::{splitmix64, Corruptible};
use crate::inject::{FaultInjector, SendFate};
use crate::lock_unpoisoned;
use crate::obs::Tracer;
use crate::topology::HypercubeTopology;
use snap_kb::ClusterId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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

/// Sending half of the fabric, cloneable across cluster threads.
/// `delayed` and `reorder` hold whole messages, valid at every step: a
/// worker that crashes holding one must not poison it for the rest.
#[derive(Debug, Clone)]
pub(crate) struct Fabric<T> {
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
    /// Messages put in each slot and not yet received, kept only when
    /// `tracer` records: sends add, the slot's [`Inbox`] subtracts. A
    /// closed slot's count keeps what its dead worker never read.
    depth: Option<Arc<[AtomicU64]>>,
}

/// Receiving half of one cluster slot's mailbox, owned by the worker on
/// that cluster. Dropping it closes the slot: later sends to it are
/// lost.
#[derive(Debug)]
pub(crate) struct Inbox<T> {
    rx: Receiver<T>,
    depth: Option<Arc<[AtomicU64]>>,
    slot: usize,
}

impl<T> Inbox<T> {
    /// The next queued message, if one has arrived.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let message = self.rx.try_recv().ok()?;
        if let Some(depth) = &self.depth {
            depth[self.slot].fetch_sub(1, Ordering::Relaxed);
        }
        Some(message)
    }
}

impl<T> Fabric<T> {
    /// Creates a fabric over `topology`; returns the fabric plus one
    /// inbox per cluster slot (in slot order). With an `injector`, the
    /// [`send_faulty`](Self::send_faulty) and
    /// [`send_control`](Self::send_control) paths are subject to its
    /// plan. `tracer` observes destination-mailbox depth on every counted
    /// send (a default tracer for none).
    pub(crate) fn with_instruments(
        topology: HypercubeTopology,
        injector: Option<Arc<FaultInjector>>,
        tracer: Tracer,
    ) -> (Self, Vec<Inbox<T>>) {
        let n = topology.cluster_count();
        let depth: Option<Arc<[AtomicU64]>> = tracer
            .is_enabled()
            .then(|| (0..n).map(|_| AtomicU64::new(0)).collect());
        let (senders, inboxes) = (0..n)
            .map(|slot| {
                let (tx, rx) = channel();
                let depth = depth.clone();
                (tx, Inbox { rx, depth, slot })
            })
            .unzip();
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
                depth,
            },
            inboxes,
        )
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
                if splitmix64(&mut state.rng) & 1 == 0 {
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
    pub(crate) fn enable_reorder(&self, seed: u64) {
        let n = self.senders.len();
        *lock_unpoisoned(&self.reorder) = Some(Reorder {
            rng: seed ^ 0x5851_F42D_4C95_7F2D,
            held: (0..n).map(|_| None).collect(),
        });
        self.reorder_on.store(true, Ordering::Relaxed);
    }

    /// Releases every message currently held back by the reorder hook.
    /// No-op when the hook is disarmed.
    pub(crate) fn flush_held(&self) {
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

    /// Puts `message` in slot `to`'s inbox; a closed inbox loses it.
    fn deliver(&self, to: usize, message: T) {
        // Count before the send, so the receiver never subtracts first.
        if let Some(depth) = &self.depth {
            depth[to].fetch_add(1, Ordering::Relaxed);
        }
        let _ = self.senders[to].send(message);
    }

    /// Reports the destination mailbox's current depth to the tracer.
    fn observe_depth(&self, to: usize) {
        if let Some(depth) = &self.depth {
            let queued = depth[to].load(Ordering::Relaxed);
            self.tracer
                .queue_depth(to as u16, queued, self.tracer.wall_stamp());
        }
    }

    /// The topology the fabric routes over.
    pub(crate) fn topology(&self) -> &HypercubeTopology {
        &self.topology
    }

    /// Total messages sent (marker traffic; control sends are not
    /// counted, matching the modelled network's accounting).
    pub(crate) fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total hypercube hops across all messages.
    pub(crate) fn hops(&self) -> u64 {
        self.hops.load(Ordering::Relaxed)
    }

    /// Delivers every delayed message whose due time has passed.
    /// Workers call this from their receive loops; without a caller,
    /// delayed messages would never arrive (and the barrier watchdog
    /// would classify them as lost).
    pub(crate) fn poll_delayed(&self) {
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
    /// Marker-path send, the only one: counted in traffic stats and
    /// subject to the attached injector's plan (drop, duplicate, delay,
    /// corrupt); without an injector, plain delivery. Returns what was
    /// done to the message so the sender's resilience protocol and the
    /// run report can account for it.
    pub(crate) fn send_faulty(&self, from: ClusterId, to: ClusterId, message: T) -> SendFate {
        self.send_shaped(from, to, message, true)
    }

    /// Control-path send (acks, recovery coordination): NOT counted in
    /// traffic stats — the modelled network carries these on dedicated
    /// wires — but still subject to faults, so a lost or corrupted ack
    /// exercises the retry path like a lost marker does.
    pub(crate) fn send_control(&self, from: ClusterId, to: ClusterId, message: T) -> SendFate {
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
    use crate::plan::FaultPlan;
    use std::thread;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Payload(u32);

    impl Corruptible for Payload {
        fn corrupt(&mut self, salt: u64) {
            self.0 ^= (salt as u32) | 1;
        }
    }

    fn clean_fabric() -> (Fabric<Payload>, Vec<Inbox<Payload>>) {
        Fabric::with_instruments(HypercubeTopology::covering(32), None, Tracer::default())
    }

    fn faulty_fabric(
        plan: FaultPlan,
    ) -> (Fabric<Payload>, Vec<Inbox<Payload>>, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(plan));
        let (fabric, inboxes) = Fabric::with_instruments(
            HypercubeTopology::covering(32),
            Some(Arc::clone(&injector)),
            Tracer::default(),
        );
        (fabric, inboxes, injector)
    }

    fn drain(inbox: &Inbox<Payload>) -> Vec<Payload> {
        std::iter::from_fn(|| inbox.try_recv()).collect()
    }

    #[test]
    fn messages_arrive_at_their_cluster() {
        let (fabric, inboxes) = clean_fabric();
        fabric.send_faulty(ClusterId(0), ClusterId(23), Payload(42));
        fabric.send_faulty(ClusterId(5), ClusterId(23), Payload(43));
        let mut got = drain(&inboxes[23]);
        got.sort_unstable();
        assert_eq!(got, vec![Payload(42), Payload(43)]);
        assert!(inboxes[0].try_recv().is_none());
        assert_eq!(fabric.messages(), 2);
        // 0→23 differs in all three fields, 5→23 (L:1→3, X:1→1, Y:0→1) in two.
        assert_eq!(fabric.hops(), 5);
    }

    #[test]
    fn fabric_works_across_threads() {
        let (fabric, inboxes) = clean_fabric();
        let f2 = fabric.clone();
        let sender = thread::spawn(move || {
            for i in 0..100u32 {
                f2.send_faulty(ClusterId((i % 32) as u8), ClusterId(7), Payload(i));
            }
        });
        let (mut sum, mut got) = (0, 0);
        while got < 100 {
            match inboxes[7].try_recv() {
                Some(Payload(v)) => (sum, got) = (sum + v, got + 1),
                None => thread::yield_now(),
            }
        }
        sender.join().unwrap();
        assert_eq!(sum, (0..100).sum());
        assert_eq!(fabric.messages(), 100);
    }

    /// A dead worker's inbox is closed: what is sent to it is counted
    /// traffic and lost, and the sender carries on.
    #[test]
    fn send_to_a_closed_inbox_is_counted_and_lost() {
        let (fabric, inboxes) = clean_fabric();
        let mut inboxes = inboxes.into_iter();
        let open = inboxes.next().expect("slot 0");
        drop(inboxes);
        let fate = fabric.send_faulty(ClusterId(1), ClusterId(3), Payload(1));
        assert_eq!(fate, SendFate::default());
        fabric.send_control(ClusterId(1), ClusterId(3), Payload(2));
        assert_eq!(fabric.messages(), 1, "the marker counts, control does not");
        fabric.send_faulty(ClusterId(1), ClusterId(0), Payload(3));
        assert_eq!(drain(&open), vec![Payload(3)]);
    }

    #[test]
    fn reorder_hook_permutes_but_loses_nothing() {
        let run = |seed: u64| {
            let (fabric, inboxes) = clean_fabric();
            fabric.enable_reorder(seed);
            for i in 0..50u32 {
                fabric.send_faulty(ClusterId(0), ClusterId(9), Payload(i));
            }
            fabric.flush_held();
            drain(&inboxes[9])
        };
        let got = run(42);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..50).map(Payload).collect::<Vec<_>>(),
            "nothing lost or duplicated"
        );
        assert_ne!(got, sorted, "delivery order was permuted");
        assert_eq!(got, run(42), "same seed replays the same order");
        assert_ne!(got, run(43), "different seed permutes differently");
    }

    #[test]
    fn faulty_path_without_injector_is_plain_delivery() {
        let (fabric, inboxes) = clean_fabric();
        let fate = fabric.send_faulty(ClusterId(0), ClusterId(1), Payload(7));
        assert_eq!(fate, SendFate::default());
        assert_eq!(inboxes[1].try_recv(), Some(Payload(7)));
        assert_eq!(fabric.messages(), 1);
        let fate = fabric.send_control(ClusterId(0), ClusterId(1), Payload(8));
        assert_eq!(fate, SendFate::default());
        assert_eq!(inboxes[1].try_recv(), Some(Payload(8)));
        assert_eq!(fabric.messages(), 1, "control sends are uncounted");
    }

    #[test]
    fn injected_drops_never_arrive_but_are_counted() {
        let (fabric, inboxes, injector) = faulty_fabric(FaultPlan::seeded(11).drops(1.0));
        for i in 0..20 {
            let fate = fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(i));
            assert!(fate.dropped);
        }
        assert!(inboxes[3].try_recv().is_none());
        assert_eq!(fabric.messages(), 20, "drops still count as traffic");
        assert_eq!(injector.report().injected_drops, 20);
    }

    #[test]
    fn injected_duplicates_arrive_twice() {
        let (fabric, inboxes, _) = faulty_fabric(FaultPlan::seeded(11).duplicates(1.0));
        let fate = fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(9));
        assert!(fate.duplicated);
        assert_eq!(drain(&inboxes[3]), vec![Payload(9), Payload(9)]);
    }

    #[test]
    fn injected_corruption_alters_payload() {
        let (fabric, inboxes, _) = faulty_fabric(FaultPlan::seeded(11).corruptions(1.0));
        fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(9));
        assert_ne!(inboxes[3].try_recv(), Some(Payload(9)));
    }

    #[test]
    fn delayed_messages_arrive_after_poll() {
        let (fabric, inboxes, _) = faulty_fabric(FaultPlan::seeded(11).delays(1.0, 2_000_000));
        let pending = |fabric: &Fabric<Payload>| lock_unpoisoned(&fabric.delayed).len();
        let fate = fabric.send_faulty(ClusterId(0), ClusterId(3), Payload(5));
        assert!(fate.delay_ns > 0);
        assert!(inboxes[3].try_recv().is_none(), "not delivered yet");
        assert_eq!(pending(&fabric), 1);
        // A worker that crashes holding the queue costs it nothing.
        let worker = fabric.clone();
        let crashed = thread::spawn(move || {
            let _queue = worker.delayed.lock().unwrap();
            panic!("worker dies holding the delayed queue");
        });
        assert!(crashed.join().is_err());
        assert!(fabric.delayed.is_poisoned());
        assert_eq!(pending(&fabric), 1);
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            fabric.poll_delayed();
            if let Some(got) = inboxes[3].try_recv() {
                assert_eq!(got, Payload(5));
                break;
            }
            assert!(Instant::now() < deadline, "delayed message never arrived");
            thread::yield_now();
        }
        assert_eq!(pending(&fabric), 0);
    }
}
