//! Runtime injection decisions and resilience policies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::envelope::mix64;
use crate::plan::FaultPlan;
use crate::report::FaultReport;

// Per-class salts keep the decision streams independent: a message that
// would be dropped at one probability is not automatically the one that
// gets duplicated when drops are disabled.
const SITE_DROP: u64 = 0x01;
const SITE_DUPLICATE: u64 = 0x02;
const SITE_DELAY: u64 = 0x03;
const SITE_CORRUPT: u64 = 0x04;
const SITE_STALL: u64 = 0x05;
const SITE_STARVE: u64 = 0x06;

/// What the injector decided to do with one off-cluster message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SendFate {
    /// Message vanishes in flight (never delivered on first attempt).
    pub dropped: bool,
    /// Message is delivered a second time.
    pub duplicated: bool,
    /// Message payload is damaged in flight (checksum mismatch at the
    /// receiver).
    pub corrupted: bool,
    /// Extra in-flight latency in simulated ns (0 = none).
    pub delay_ns: u64,
    /// Decision hash, usable as a corruption salt.
    pub salt: u64,
}

/// Atomic tally cells behind a [`FaultInjector`].
#[derive(Debug, Default)]
pub(crate) struct FaultStats {
    pub injected_drops: AtomicU64,
    pub injected_duplicates: AtomicU64,
    pub injected_delays: AtomicU64,
    pub injected_corruptions: AtomicU64,
    pub injected_stalls: AtomicU64,
    pub injected_starvations: AtomicU64,
    pub injected_panics: AtomicU64,
    pub detected_corruptions: AtomicU64,
    pub detected_duplicates: AtomicU64,
    pub retries: AtomicU64,
    pub replays: AtomicU64,
    pub recovered_workers: AtomicU64,
    pub remapped_regions: AtomicU64,
}

impl FaultStats {
    pub(crate) fn snapshot(&self) -> FaultReport {
        FaultReport {
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            injected_duplicates: self.injected_duplicates.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
            injected_corruptions: self.injected_corruptions.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
            injected_starvations: self.injected_starvations.load(Ordering::Relaxed),
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            detected_corruptions: self.detected_corruptions.load(Ordering::Relaxed),
            detected_duplicates: self.detected_duplicates.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            recovered_workers: self.recovered_workers.load(Ordering::Relaxed),
            remapped_regions: self.remapped_regions.load(Ordering::Relaxed),
        }
    }
}

/// Evaluates a [`FaultPlan`] at runtime.
///
/// Decisions are pure functions of `(plan.seed, site, counter)` — the
/// caller supplies the counter (the DES uses its event sequence, the
/// threaded engine its per-link send sequence), so the injector itself
/// adds no nondeterminism. Tallies are atomic and surface through
/// [`report`](FaultInjector::report).
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    stats: FaultStats,
    panic_fired: AtomicBool,
}

impl FaultInjector {
    /// Wraps `plan` for runtime evaluation.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            stats: FaultStats::default(),
            panic_fired: AtomicBool::new(false),
        }
    }

    fn chance(&self, site: u64, route: u64, counter: u64, prob: f64) -> Option<u64> {
        if prob <= 0.0 {
            return None;
        }
        let h = mix64(self.plan.seed ^ mix64(site ^ (route << 16)) ^ mix64(counter));
        // Top 53 bits → uniform in [0, 1).
        let unit = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        (unit < prob).then_some(h)
    }

    /// Decides the fate of message number `counter` on link `from → to`.
    /// Sends over a downed link always drop.
    pub(crate) fn fate(&self, from: u8, to: u8, counter: u64) -> SendFate {
        let route = u64::from(from) | (u64::from(to) << 8);
        let mut fate = SendFate::default();
        if self.link_is_down(from, to) {
            fate.dropped = true;
            self.stats.injected_drops.fetch_add(1, Ordering::Relaxed);
            return fate;
        }
        if self
            .chance(SITE_DROP, route, counter, self.plan.drop_prob)
            .is_some()
        {
            fate.dropped = true;
            self.stats.injected_drops.fetch_add(1, Ordering::Relaxed);
        }
        if self
            .chance(SITE_DUPLICATE, route, counter, self.plan.duplicate_prob)
            .is_some()
        {
            fate.duplicated = true;
            self.stats
                .injected_duplicates
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(h) = self.chance(SITE_DELAY, route, counter, self.plan.delay_prob) {
            if self.plan.delay_ns > 0 {
                fate.delay_ns = 1 + mix64(h) % self.plan.delay_ns;
                self.stats.injected_delays.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(h) = self.chance(SITE_CORRUPT, route, counter, self.plan.corrupt_prob) {
            fate.corrupted = true;
            fate.salt = mix64(h ^ 0xC0);
            self.stats
                .injected_corruptions
                .fetch_add(1, Ordering::Relaxed);
        }
        fate
    }

    /// `true` when the plan forces the `from ↔ to` link down.
    pub(crate) fn link_is_down(&self, from: u8, to: u8) -> bool {
        self.plan
            .down_links
            .iter()
            .any(|&(a, b)| (a == from && b == to) || (a == to && b == from))
    }

    /// Injected stall, in ns, before PE task number `counter` on
    /// `cluster` executes (0 = no stall).
    pub(crate) fn stall_ns(&self, cluster: u8, counter: u64) -> u64 {
        match self.chance(
            SITE_STALL,
            u64::from(cluster),
            counter,
            self.plan.stall_prob,
        ) {
            Some(_) if self.plan.stall_ns > 0 => {
                self.stats.injected_stalls.fetch_add(1, Ordering::Relaxed);
                self.plan.stall_ns
            }
            _ => 0,
        }
    }

    /// Injected stall, in ns, on barrier counter-network update number
    /// `counter` for `level` (0 = no stall). Shares the plan's PE-stall
    /// rate but draws from an independent decision stream.
    pub(crate) fn barrier_stall_ns(&self, level: u8, counter: u64) -> u64 {
        match self.chance(
            SITE_STALL,
            0x100 | u64::from(level),
            counter,
            self.plan.stall_prob,
        ) {
            Some(_) if self.plan.stall_ns > 0 => {
                self.stats.injected_stalls.fetch_add(1, Ordering::Relaxed);
                self.plan.stall_ns
            }
            _ => 0,
        }
    }

    /// Injected starvation, in ns, before arbiter grant number
    /// `counter` on `cluster` issues (0 = no starvation).
    pub(crate) fn starvation_ns(&self, cluster: u8, counter: u64) -> u64 {
        match self.chance(
            SITE_STARVE,
            u64::from(cluster),
            counter,
            self.plan.starvation_prob,
        ) {
            Some(_) if self.plan.starvation_ns > 0 => {
                self.stats
                    .injected_starvations
                    .fetch_add(1, Ordering::Relaxed);
                self.plan.starvation_ns
            }
            _ => 0,
        }
    }

    /// `true` exactly once: when `cluster` starts program step `step`
    /// and the plan schedules its worker to panic there.
    pub(crate) fn should_panic(&self, cluster: u8, step: usize) -> bool {
        match self.plan.panic_worker {
            Some(spec) if spec.cluster == cluster && spec.step == step => {
                let first = !self.panic_fired.swap(true, Ordering::SeqCst);
                if first {
                    self.stats.injected_panics.fetch_add(1, Ordering::Relaxed);
                }
                first
            }
            _ => false,
        }
    }

    /// Records a checksum mismatch caught by a receiver.
    pub(crate) fn note_detected_corruption(&self) {
        self.stats
            .detected_corruptions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duplicate suppressed by a receiver.
    pub(crate) fn note_detected_duplicate(&self) {
        self.stats
            .detected_duplicates
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retransmission of an unacked envelope.
    pub(crate) fn note_retry(&self) {
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one replayed propagation phase after a recovery.
    pub(crate) fn note_replay(&self) {
        self.stats.replays.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker panic survived via recovery.
    pub(crate) fn note_recovered_worker(&self) {
        self.stats.recovered_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one region remapped to a neighbor cluster.
    pub(crate) fn note_remapped_region(&self) {
        self.stats.remapped_regions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of every tally so far.
    pub(crate) fn report(&self) -> FaultReport {
        self.stats.snapshot()
    }
}

/// Bounded exponential backoff for unacked envelope retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wait before the first retransmission.
    pub initial: Duration,
    /// Hard cap on any single wait.
    pub max_backoff: Duration,
    /// Retransmissions before the sender declares the message lost.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            max_retries: 12,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): doubles each
    /// attempt, capped at `max_backoff`.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let scaled = self
            .initial
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        scaled.min(self.max_backoff)
    }

    /// `true` when `attempt` retransmissions exhaust the policy.
    pub(crate) fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::seeded(1));
        for counter in 0..500 {
            assert_eq!(inj.fate(0, 1, counter), SendFate::default());
            assert_eq!(inj.stall_ns(2, counter), 0);
            assert_eq!(inj.starvation_ns(2, counter), 0);
        }
        assert_eq!(inj.report(), FaultReport::default());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::seeded(42)
            .drops(0.2)
            .duplicates(0.2)
            .delays(0.2, 1_000)
            .corruptions(0.2);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for counter in 0..200 {
            assert_eq!(a.fate(1, 2, counter), b.fate(1, 2, counter));
        }
        let c = FaultInjector::new(FaultPlan::seeded(43).drops(0.2));
        let drops_a: Vec<bool> = (0..200).map(|i| a.fate(1, 2, i).dropped).collect();
        let drops_c: Vec<bool> = (0..200).map(|i| c.fate(1, 2, i).dropped).collect();
        assert_ne!(drops_a, drops_c, "different seeds should differ");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let inj = FaultInjector::new(FaultPlan::seeded(7).drops(0.25));
        let drops = (0..4000).filter(|&i| inj.fate(0, 1, i).dropped).count();
        assert!((700..1300).contains(&drops), "got {drops} drops of 4000");
        assert_eq!(inj.report().injected_drops, drops as u64);
    }

    #[test]
    fn down_link_always_drops_both_directions() {
        let inj = FaultInjector::new(FaultPlan::seeded(1).link_down(2, 6));
        for counter in 0..50 {
            assert!(inj.fate(2, 6, counter).dropped);
            assert!(inj.fate(6, 2, counter).dropped);
            assert!(!inj.fate(2, 5, counter).dropped);
        }
        assert!(inj.link_is_down(6, 2));
    }

    #[test]
    fn panic_fires_exactly_once_at_the_right_site() {
        let inj = FaultInjector::new(FaultPlan::seeded(1).worker_panic(3, 2));
        assert!(!inj.should_panic(3, 1));
        assert!(!inj.should_panic(2, 2));
        assert!(inj.should_panic(3, 2));
        assert!(!inj.should_panic(3, 2));
        assert_eq!(inj.report().injected_panics, 1);
    }

    #[test]
    fn delays_are_bounded_and_nonzero() {
        let inj = FaultInjector::new(FaultPlan::seeded(3).delays(1.0, 100));
        for counter in 0..200 {
            let d = inj.fate(0, 1, counter).delay_ns;
            assert!((1..=100).contains(&d));
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            initial: Duration::from_millis(1),
            max_backoff: Duration::from_millis(6),
            max_retries: 4,
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(1));
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(2), Duration::from_millis(4));
        assert_eq!(policy.backoff(3), Duration::from_millis(6));
        assert_eq!(policy.backoff(31), Duration::from_millis(6));
        assert!(!policy.exhausted(3));
        assert!(policy.exhausted(4));
    }

    #[test]
    fn notes_accumulate_into_report() {
        let inj = FaultInjector::new(FaultPlan::seeded(1));
        inj.note_detected_corruption();
        inj.note_detected_duplicate();
        inj.note_retry();
        inj.note_retry();
        inj.note_replay();
        inj.note_recovered_worker();
        inj.note_remapped_region();
        let report = inj.report();
        assert_eq!(report.detected_corruptions, 1);
        assert_eq!(report.detected_duplicates, 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.replays, 1);
        assert_eq!(report.recovered_workers, 1);
        assert_eq!(report.remapped_regions, 1);
    }
}
