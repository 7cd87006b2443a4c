//! Injected/detected/recovered tallies.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic tally cells behind a [`FaultInjector`](crate::FaultInjector).
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

/// What the fault subsystem did to a run and how the engines coped.
///
/// `injected_*` counts come from the injector's own decisions;
/// `detected_*` and the recovery counters are reported back by the
/// engines. A populated report with a correct final result is the
/// evidence a chaos run actually exercised the resilience paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages the injector made vanish (incl. downed-link sends).
    pub injected_drops: u64,
    /// Messages the injector delivered twice.
    pub injected_duplicates: u64,
    /// Messages the injector held back.
    pub injected_delays: u64,
    /// Payloads the injector damaged in flight.
    pub injected_corruptions: u64,
    /// PE tasks the injector stalled.
    pub injected_stalls: u64,
    /// Arbiter grants the injector starved.
    pub injected_starvations: u64,
    /// Worker panics the injector triggered.
    pub injected_panics: u64,
    /// Checksum mismatches receivers caught (and discarded).
    pub detected_corruptions: u64,
    /// Duplicates receivers suppressed.
    pub detected_duplicates: u64,
    /// Envelope retransmissions senders performed.
    pub retries: u64,
    /// Propagation phases replayed after a recovery.
    pub replays: u64,
    /// Worker panics survived via graceful degradation.
    pub recovered_workers: u64,
    /// Regions remapped from a dead cluster to a neighbor.
    pub remapped_regions: u64,
}

impl FaultReport {
    /// Total faults injected across every class.
    pub fn total_injected(&self) -> u64 {
        self.injected_drops
            + self.injected_duplicates
            + self.injected_delays
            + self.injected_corruptions
            + self.injected_stalls
            + self.injected_starvations
            + self.injected_panics
    }

    /// `true` when nothing was injected and nothing recovered — the
    /// report of a fault-free run.
    pub fn is_empty(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Field-wise sum, for aggregating multi-run campaigns.
    #[must_use]
    pub fn merged(&self, other: &FaultReport) -> FaultReport {
        FaultReport {
            injected_drops: self.injected_drops + other.injected_drops,
            injected_duplicates: self.injected_duplicates + other.injected_duplicates,
            injected_delays: self.injected_delays + other.injected_delays,
            injected_corruptions: self.injected_corruptions + other.injected_corruptions,
            injected_stalls: self.injected_stalls + other.injected_stalls,
            injected_starvations: self.injected_starvations + other.injected_starvations,
            injected_panics: self.injected_panics + other.injected_panics,
            detected_corruptions: self.detected_corruptions + other.detected_corruptions,
            detected_duplicates: self.detected_duplicates + other.detected_duplicates,
            retries: self.retries + other.retries,
            replays: self.replays + other.replays,
            recovered_workers: self.recovered_workers + other.recovered_workers,
            remapped_regions: self.remapped_regions + other.remapped_regions,
        }
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected: {} drops, {} dups, {} delays, {} corruptions, {} stalls, \
             {} starvations, {} panics | detected: {} corruptions, {} dups | \
             recovered: {} retries, {} replays, {} workers, {} regions remapped",
            self.injected_drops,
            self.injected_duplicates,
            self.injected_delays,
            self.injected_corruptions,
            self.injected_stalls,
            self.injected_starvations,
            self.injected_panics,
            self.detected_corruptions,
            self.detected_duplicates,
            self.retries,
            self.replays,
            self.recovered_workers,
            self.remapped_regions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        assert!(FaultReport::default().is_empty());
        assert_eq!(FaultReport::default().total_injected(), 0);
    }

    #[test]
    fn merged_sums_fieldwise() {
        let a = FaultReport {
            injected_drops: 2,
            retries: 3,
            ..FaultReport::default()
        };
        let b = FaultReport {
            injected_drops: 1,
            recovered_workers: 1,
            ..FaultReport::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.injected_drops, 3);
        assert_eq!(m.retries, 3);
        assert_eq!(m.recovered_workers, 1);
        assert_eq!(m.total_injected(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn display_mentions_every_class() {
        let text = FaultReport::default().to_string();
        for needle in ["drops", "dups", "corruptions", "panics", "replays"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
