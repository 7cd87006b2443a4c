//! The shared scheduler core: one ordering discipline for the two
//! engines with concurrent actors (one PE has nothing to order).
//!
//! The discrete-event simulator and the threaded engine run the same
//! phase shape — seed sources, drain a pool of ready work, apply
//! arrivals, close the phase — and each used to hand-roll the ordering
//! of that pool. This module centralizes the *choice of what fires
//! next* behind a [`ScheduleStrategy`]:
//!
//! * [`ReadyQueue`] orders the ready-task pool of each threaded worker;
//! * [`EventQueue`] orders the discrete-event simulator's event heap,
//!   breaking ties between equal-time events;
//! * [`Picker`] is the per-stream deterministic decision source behind
//!   both.
//!
//! Under [`ScheduleStrategy::Fifo`] (the default) every primitive
//! reproduces the historical orders bit for bit: `ReadyQueue` pops the
//! front and `EventQueue` orders by `(time, seq)`. Under
//! [`ScheduleStrategy::Fuzzed`] a seeded RNG permutes exactly the
//! decisions that a legal but adversarial machine could make — which
//! ready task runs next, which of two equal-time events fires first,
//! whether a worker drains the fabric or its local queue, how long the
//! controller waits before re-checking a closed phase — while the
//! propagation semantics (min-`(value, origin)` convergence) guarantee
//! the *results* must not change. The interleaving fuzzer in the
//! integration-test crate sweeps seeds through the differential grid and
//! shrinks any divergence to a minimal decision prefix via the
//! strategy's `limit` knob.

use crate::envelope::splitmix64;
use crate::propagate::PropArrival;
use crate::region::Region;
use crate::CoreError;
use snap_kb::{Marker, NodeId};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// How the scheduler core orders ready work.
///
/// Lives on [`crate::MachineConfig::schedule`]. The simulator and the
/// threaded engine consult it; the one-PE sequential engine runs
/// identically under every strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleStrategy {
    /// Deterministic first-in-first-out: the historical order of every
    /// engine, preserved bit for bit.
    #[default]
    Fifo,
    /// Seeded adversarial order: a decision stream derived from `seed`
    /// permutes ready-task picks, equal-time event ties, worker
    /// fabric-vs-queue polling, and close re-check timing. Only the first
    /// `limit` decisions of each stream are fuzzed; later ones fall back
    /// to the FIFO default, which is the shrinking knob the fuzz harness
    /// bisects (`limit = u64::MAX` fuzzes everything).
    Fuzzed {
        /// RNG seed; same seed ⇒ same decision stream per picker stream.
        seed: u64,
        /// Number of leading decisions to fuzz before reverting to FIFO.
        limit: u64,
    },
}

impl ScheduleStrategy {
    /// A fully-fuzzed strategy (no decision limit).
    pub fn fuzzed(seed: u64) -> Self {
        ScheduleStrategy::Fuzzed {
            seed,
            limit: u64::MAX,
        }
    }
}

/// One deterministic decision stream of the schedule.
///
/// Each concurrent consumer (the DES event heap, every threaded worker,
/// the controller) owns a picker salted with its own `stream` id, so
/// decisions taken by one never perturb another's — the property that
/// makes a threaded fuzzed run replayable per stream even though real
/// threads race.
#[derive(Debug, Clone)]
pub struct Picker {
    strategy: ScheduleStrategy,
    rng: u64,
    /// Decisions drawn so far (compared against the strategy's limit).
    decisions: u64,
    /// FNV-style fold of every decision, for replay fingerprinting.
    digest: u64,
    /// Whether the most recent pick, or the most recent event popped
    /// from an [`EventQueue`], deviated from the FIFO order.
    reordered: bool,
}

/// Stream id of the controller and of the DES event heap.
pub const CONTROL_STREAM: u64 = 0;

impl Picker {
    /// Creates the picker for decision stream `stream`.
    pub fn new(strategy: ScheduleStrategy, stream: u64) -> Self {
        let seed = match strategy {
            ScheduleStrategy::Fifo => 0,
            ScheduleStrategy::Fuzzed { seed, .. } => seed,
        };
        let mut state = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        // Warm the state so small seeds and streams decorrelate.
        let rng = splitmix64(&mut state) ^ state;
        Picker {
            strategy,
            rng,
            decisions: 0,
            digest: 0,
            reordered: false,
        }
    }

    /// True while fuzzed decisions are still being issued.
    fn fuzzing(&self) -> bool {
        match self.strategy {
            ScheduleStrategy::Fifo => false,
            ScheduleStrategy::Fuzzed { limit, .. } => self.decisions < limit,
        }
    }

    fn draw(&mut self) -> u64 {
        self.decisions += 1;
        let v = splitmix64(&mut self.rng);
        self.digest = (self.digest ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        v
    }

    /// Picks an index in `0..len`. FIFO always answers `0` (the front);
    /// a fuzzed pick is uniform over the pool.
    pub fn pick(&mut self, len: usize) -> usize {
        if len <= 1 || !self.fuzzing() {
            self.reordered = false;
            return 0;
        }
        let idx = (self.draw() % len as u64) as usize;
        self.reordered = idx != 0;
        idx
    }

    /// A boolean decision whose FIFO default is `true`.
    pub fn coin(&mut self) -> bool {
        if !self.fuzzing() {
            return true;
        }
        self.draw() & 1 == 0
    }

    /// Tie-break key for equal-time events: FIFO answers `0` for every
    /// event (preserving arrival order), fuzzed draws a random key.
    pub fn tie_key(&mut self) -> u64 {
        if !self.fuzzing() {
            return 0;
        }
        self.draw()
    }

    /// Replay fingerprint: a fold of every decision drawn. Two runs of a
    /// deterministic engine with the same seed must produce the same
    /// digest (asserted by the fuzz harness).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The planted ordering bug (test-only, behind the `fuzz-bug`
    /// feature): reports whether the last ready-pool pick took a task
    /// other than the front, or the last event popped from the DES queue
    /// overtook an equal-time event pushed before it. The engine then
    /// drops the arrivals of the expansion it is scheduling, truncating
    /// propagation without disturbing barrier accounting, so the
    /// differential grid sees a clean result divergence instead of a
    /// hang. Never fires under FIFO, so the feature is inert for the
    /// normal test suite.
    #[cfg(feature = "fuzz-bug")]
    pub fn bug_armed(&self) -> bool {
        self.reordered
    }

    /// Without the `fuzz-bug` feature the planted bug does not exist.
    #[cfg(not(feature = "fuzz-bug"))]
    #[inline(always)]
    pub fn bug_armed(&self) -> bool {
        false
    }
}

/// Strategy-aware pool of ready tasks.
///
/// FIFO pops the front — exactly the `VecDeque` the engines used before
/// — while fuzzed picks uniformly among everything ready, modelling a
/// marker unit that may legally grab any queued task.
#[derive(Debug)]
pub struct ReadyQueue<T> {
    items: VecDeque<T>,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        ReadyQueue {
            items: VecDeque::new(),
        }
    }
}

impl<T> ReadyQueue<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a ready task.
    pub fn push(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// Removes and returns the task the strategy fires next.
    pub fn pop(&mut self, picker: &mut Picker) -> Option<T> {
        let idx = picker.pick(self.items.len());
        if idx == 0 {
            self.items.pop_front()
        } else {
            // swap_remove_front keeps this O(1); the pool is unordered
            // under a fuzzed strategy anyway.
            self.items.swap_remove_front(idx)
        }
    }

    /// Tasks currently ready.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is ready.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all queued tasks.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// Ordering key of one scheduled event — the 32 bytes the heap sifts.
/// The payload waits in the queue's slab at `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: u64,
    /// Strategy tie-break between equal-time events (0 under FIFO).
    tie: u64,
    /// Insertion order, the final tie-break (restores the historical
    /// `(time, seq)` total order when `tie` is uniformly zero). Unique,
    /// so the fields below never decide a comparison.
    seq: u64,
    slot: u32,
    /// Lane the event queues in, or [`NO_LANE`] when it sits in the
    /// heap on its own.
    lane: u32,
}

const NO_LANE: u32 = u32::MAX;

/// The events of one source that schedules in ascending key order.
#[derive(Debug, Default)]
struct Lane {
    /// Keys behind the lane's head (which is in the heap), ascending.
    waiting: VecDeque<EventKey>,
    /// `(time, tie)` of the newest key, while the lane holds any event.
    newest: Option<(u64, u64)>,
}

/// Strategy-aware discrete-event queue ordered by `(time, tie, seq)`.
///
/// Simulated time is authoritative: fuzzing never reorders events across
/// distinct timestamps — only the *tie-breaks between equal-time events*
/// are permuted, which are exactly the orderings real concurrent
/// hardware leaves unspecified.
///
/// `seq` is unique, so the order is total and [`pop`](Self::pop) has
/// exactly one right answer: the smallest pending key. How the queue
/// finds it is free, and the layout is chosen for a simulator whose
/// events come from servers (a marker unit, a CU link) that each
/// schedule in ascending time: a *lane* per such source holds its
/// events first-in-first-out with only the lane's head in the binary
/// heap, so the heap stays as small as the machine has servers however
/// many events are pending. A lane event that does not ascend (a fault
/// delay, a retransmission, a fuzzed tie key below its predecessor's)
/// goes into the heap on its own: lanes are a fast path, never a
/// precondition.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Every event out of its lane's order and the head of every
    /// non-empty lane.
    heap: BinaryHeap<Reverse<EventKey>>,
    lanes: Vec<Lane>,
    /// Payloads by key slot; `free` lists the vacant slots.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue with `lanes` lanes for [`push_lane`](Self::push_lane).
    pub fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Draws the event's tie-break key, numbers it and parks `item`.
    fn key(&mut self, time: u64, item: T, picker: &mut Picker) -> EventKey {
        let tie = picker.tie_key();
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            #[allow(
                clippy::expect_used,
                reason = "a run schedules fewer than 2^32 events at once"
            )]
            None => {
                self.slab.push(Some(item));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        EventKey {
            time,
            tie,
            seq,
            slot,
            lane: NO_LANE,
        }
    }

    /// Schedules `item` at `time` for the source that owns `lane`; the
    /// picker draws its tie-break key.
    ///
    /// Ordering contract: events pop in ascending `(time, tie, seq)`,
    /// where `tie` is the key drawn here (one [`Picker::tie_key`] per
    /// call, in call order) and `seq` counts calls. Nothing else — not
    /// the lane, not what was popped in between — enters the order: the
    /// lane changes where the event waits, never when it pops. A source
    /// whose events ascend in `(time, tie)` keeps one heap entry however
    /// many it has pending; an event below its lane's newest waits in the
    /// heap on its own, so callers need not guarantee monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if the queue was built with `lane` or fewer lanes.
    pub fn push_lane(&mut self, lane: usize, time: u64, item: T, picker: &mut Picker) {
        let mut key = self.key(time, item, picker);
        let at = &mut self.lanes[lane];
        let rank = (key.time, key.tie);
        if at.newest.is_none_or(|newest| rank >= newest) {
            key.lane = lane as u32;
            if at.newest.replace(rank).is_some() {
                // Behind the lane's head: out of the heap until its turn.
                at.waiting.push_back(key);
                return;
            }
        }
        self.heap.push(Reverse(key));
    }

    /// Fires the next event, returning `(time, item)`. Under `fuzz-bug`,
    /// marks `picker` reordered when the event overtook an equal-time one
    /// pushed before it (see [`Picker::bug_armed`]); the scan is no hot path.
    pub fn pop(&mut self, picker: &mut Picker) -> Option<(u64, T)> {
        let mut top = self.heap.peek_mut()?;
        let key = top.0;
        let successor = if key.lane == NO_LANE {
            None
        } else {
            let lane = &mut self.lanes[key.lane as usize];
            let next = lane.waiting.pop_front();
            if next.is_none() {
                lane.newest = None;
            }
            next
        };
        match successor {
            // The lane's next event takes the popped head's place: one
            // sift instead of a pop and a push.
            Some(next) => {
                *top = Reverse(next);
                drop(top);
            }
            None => {
                PeekMut::pop(top);
            }
        }
        self.free.push(key.slot);
        #[allow(
            clippy::expect_used,
            reason = "a key leaves the heap once, and its slot is freed only then"
        )]
        let item = self.slab[key.slot as usize]
            .take()
            .expect("a queued key owns its slot");
        if cfg!(feature = "fuzz-bug") {
            // Overtaken: an equal-time event pushed earlier still waits.
            let earlier = |k: &EventKey| k.time == key.time && k.seq < key.seq;
            picker.reordered = picker.strategy != ScheduleStrategy::Fifo
                && (self.heap.iter().any(|Reverse(k)| earlier(k))
                    || self.lanes.iter().any(|l| l.waiting.iter().any(earlier)));
        }
        Some((key.time, item))
    }

    /// True when no event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every scheduled event and restarts the insertion count,
    /// keeping the lanes and every allocation: the queue then pops
    /// exactly like a new one with as many lanes.
    pub fn clear(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.waiting.clear();
            lane.newest = None;
        }
        self.slab.clear();
        self.free.clear();
        self.next_seq = 0;
    }
}

/// Applies one propagation arrival at its home region and decides
/// whether it warrants a follow-on expansion.
///
/// This is the single arrival discipline every engine shares: merge the
/// value into the marker table (min-`(value, origin)` cost semantics),
/// then consult the visited map. Returns `Ok(true)` when the arrival
/// improved its site and the caller should schedule the expansion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_arrival(
    region: &mut Region,
    visited: &mut crate::propagate::VisitedMap,
    target: Marker,
    prop: usize,
    state: u8,
    node: NodeId,
    value: f32,
    origin: NodeId,
) -> Result<bool, CoreError> {
    region.arrive(target, node, value, origin)?;
    Ok(visited.should_expand(prop, state, node, value, origin))
}

/// Drops a reordered expansion's arrivals when the planted ordering bug
/// (`fuzz-bug` feature) is armed. Inert — and fully optimized out — in
/// normal builds.
#[inline]
pub(crate) fn maybe_plant_bug(picker: &Picker, arrivals: &mut Vec<PropArrival>) {
    if picker.bug_armed() {
        arrivals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_picker_never_reorders_and_never_draws() {
        let mut p = Picker::new(ScheduleStrategy::Fifo, CONTROL_STREAM);
        for len in [0, 1, 2, 100] {
            assert_eq!(p.pick(len), 0);
            assert!(!p.reordered);
        }
        assert!(p.coin());
        assert_eq!(p.tie_key(), 0);
        assert_eq!(p.decisions, 0);
        assert_eq!(p.digest(), 0);
    }

    #[test]
    fn fuzzed_picker_is_deterministic_per_seed_and_stream() {
        let draws = |seed, stream| {
            let mut p = Picker::new(ScheduleStrategy::fuzzed(seed), stream);
            let v: Vec<usize> = (0..64).map(|_| p.pick(10)).collect();
            (v, p.digest())
        };
        assert_eq!(draws(7, 0), draws(7, 0));
        assert_ne!(draws(7, 0).0, draws(8, 0).0, "seed must matter");
        assert_ne!(draws(7, 0).0, draws(7, 1).0, "stream must matter");
    }

    #[test]
    fn fuzzed_limit_reverts_to_fifo() {
        let mut p = Picker::new(
            ScheduleStrategy::Fuzzed { seed: 3, limit: 5 },
            CONTROL_STREAM,
        );
        for _ in 0..5 {
            p.pick(100);
        }
        assert_eq!(p.decisions, 5);
        // Decision budget exhausted: everything is FIFO from here on.
        for _ in 0..20 {
            assert_eq!(p.pick(100), 0);
            assert!(p.coin());
            assert_eq!(p.tie_key(), 0);
        }
        assert_eq!(p.decisions, 5);
    }

    #[test]
    fn ready_queue_fifo_matches_vecdeque() {
        let mut p = Picker::new(ScheduleStrategy::Fifo, CONTROL_STREAM);
        let mut q = ReadyQueue::new();
        for i in 0..10 {
            q.push(i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop(&mut p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ready_queue_fuzzed_permutes_but_loses_nothing() {
        let mut p = Picker::new(ScheduleStrategy::fuzzed(42), 1);
        let mut q = ReadyQueue::new();
        for i in 0..64 {
            q.push(i);
        }
        let mut order: Vec<i32> = std::iter::from_fn(|| q.pop(&mut p)).collect();
        assert_ne!(order, (0..64).collect::<Vec<_>>(), "seed 42 reorders");
        order.sort_unstable();
        assert_eq!(order, (0..64).collect::<Vec<_>>(), "every task fires");
    }

    #[test]
    fn event_queue_fifo_orders_by_time_then_insertion() {
        let mut p = Picker::new(ScheduleStrategy::Fifo, CONTROL_STREAM);
        let mut q = EventQueue::with_lanes(1);
        q.push_lane(0, 20, "c", &mut p);
        q.push_lane(0, 10, "a", &mut p);
        q.push_lane(0, 10, "b", &mut p);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop(&mut p).map(|(_, i)| i)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn event_queue_fuzzed_permutes_only_equal_times() {
        // Distinct timestamps must stay in time order whatever the seed.
        for seed in 0..20 {
            let mut p = Picker::new(ScheduleStrategy::fuzzed(seed), 2);
            let mut q = EventQueue::with_lanes(1);
            for t in [30u64, 10, 20, 10, 20, 10] {
                q.push_lane(0, t, t, &mut p);
            }
            let times: Vec<u64> = std::iter::from_fn(|| q.pop(&mut p).map(|(t, _)| t)).collect();
            assert_eq!(times, vec![10, 10, 10, 20, 20, 30], "seed {seed}");
        }
        // And some seed does permute equal-time insertion order.
        let permuted = (0..50).any(|seed| {
            let mut p = Picker::new(ScheduleStrategy::fuzzed(seed), 2);
            let mut q = EventQueue::with_lanes(1);
            for i in 0..8 {
                q.push_lane(0, 5, i, &mut p);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop(&mut p).map(|(_, i)| i)).collect();
            order != (0..8).collect::<Vec<_>>()
        });
        assert!(permuted, "no seed permuted equal-time events");
    }

    /// Events still scheduled: every slab slot not on the free list.
    fn pending<T>(q: &EventQueue<T>) -> usize {
        q.slab.len() - q.free.len()
    }

    /// The executable spec of [`EventQueue`]: every event whole in one
    /// heap keyed `(time, tie, seq)`, one tie key drawn per push.
    struct ModelQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u64, u32)>>,
        picker: Picker,
    }

    impl ModelQueue {
        fn push(&mut self, time: u64, item: u32) {
            let tie = self.picker.tie_key();
            // Items are numbered in push order, so they double as `seq`.
            self.heap.push(Reverse((time, tie, u64::from(item), item)));
        }

        /// The next `(time, item)`, and whether it overtook an
        /// equal-time event pushed before it.
        fn pop(&mut self) -> Option<((u64, u32), bool)> {
            let Reverse((time, _, seq, item)) = self.heap.pop()?;
            let overtook = self
                .heap
                .iter()
                .any(|&Reverse((t, _, s, _))| t == time && s < seq);
            Some(((time, item), overtook))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Arbitrary interleavings of pushes — in their lane's order, at
        /// equal times, out of order — pops and clears fire
        /// exactly the model's `(time, item)` sequence and draw exactly
        /// its picker decisions, under FIFO, fuzzed and limit-capped
        /// fuzzed schedules. With the planted bug compiled in, each pop
        /// marks the picker reordered exactly when the model's event
        /// overtook an equal-time one.
        #[test]
        fn event_queue_pops_like_the_one_heap_model(
            ops in proptest::collection::vec((0u8..8, 0usize..4, 0u64..10), 0..160),
            strategy in prop_oneof![
                Just(ScheduleStrategy::Fifo),
                (0u64..64).prop_map(ScheduleStrategy::fuzzed),
                (0u64..64, 0u64..40).prop_map(|(seed, limit)| ScheduleStrategy::Fuzzed { seed, limit }),
            ],
        ) {
            let mut picker = Picker::new(strategy, 2);
            let mut queue = EventQueue::with_lanes(4);
            let mut model = ModelQueue { heap: BinaryHeap::new(), picker: picker.clone() };
            let mut lane_clock = [0u64; 4];
            let mut pushed = 0u32;
            for (kind, lane, t) in ops {
                match kind {
                    // A lane fed like a server: each event at or after
                    // the lane's previous one.
                    0..=2 => {
                        lane_clock[lane] += t % 3;
                        queue.push_lane(lane, lane_clock[lane], pushed, &mut picker);
                        model.push(lane_clock[lane], pushed);
                        pushed += 1;
                    }
                    // A lane event at an arbitrary time: mostly below
                    // the lane's newest.
                    3 => {
                        queue.push_lane(lane, t, pushed, &mut picker);
                        model.push(t, pushed);
                        pushed += 1;
                    }
                    // A pooled queue is cleared with events pending.
                    7 => {
                        queue.clear();
                        model.heap.clear();
                        lane_clock = [0; 4];
                    }
                    _ => {
                        let fired = model.pop();
                        prop_assert_eq!(queue.pop(&mut picker), fired.map(|(event, _)| event));
                        if let (true, Some((_, overtook))) = (cfg!(feature = "fuzz-bug"), fired) {
                            prop_assert_eq!(picker.reordered, overtook);
                        }
                    }
                }
                prop_assert_eq!(pending(&queue), model.heap.len());
                prop_assert_eq!(queue.is_empty(), model.heap.is_empty());
            }
            while let Some((event, overtook)) = model.pop() {
                prop_assert_eq!(queue.pop(&mut picker), Some(event));
                if cfg!(feature = "fuzz-bug") {
                    prop_assert_eq!(picker.reordered, overtook);
                }
            }
            prop_assert_eq!(queue.pop(&mut picker), None);
            prop_assert_eq!((pending(&queue), queue.is_empty()), (0, true));
            prop_assert_eq!(picker.decisions, model.picker.decisions);
            prop_assert_eq!(picker.digest(), model.picker.digest());
        }
    }

    /// The point of the lanes: however many events ascending sources
    /// have pending, the heap holds one key per source.
    #[test]
    fn event_queue_lanes_keep_one_heap_entry_per_ascending_source() {
        let mut p = Picker::new(ScheduleStrategy::Fifo, CONTROL_STREAM);
        let mut q = EventQueue::with_lanes(3);
        for t in 0..100u64 {
            for lane in 0..3 {
                q.push_lane(lane, 10 * t + lane as u64, (t, lane), &mut p);
            }
        }
        assert_eq!((pending(&q), q.heap.len()), (300, 3));
        // A straggler joins the heap on its own and fires in its turn.
        q.push_lane(1, 5, (0, 9), &mut p);
        assert_eq!((pending(&q), q.heap.len()), (301, 4));
        let fired: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop(&mut p).map(|(_, i)| i))
            .take(7)
            .collect();
        assert_eq!(
            fired,
            vec![(0, 0), (0, 1), (0, 2), (0, 9), (1, 0), (1, 1), (1, 2)]
        );
        assert_eq!((pending(&q), q.heap.len()), (294, 3));
    }

    #[test]
    fn strategy_default_is_fifo() {
        assert_eq!(ScheduleStrategy::default(), ScheduleStrategy::Fifo);
    }
}
