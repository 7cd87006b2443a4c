//! Run results and measurements.
//!
//! A [`RunReport`] is what a machine returns after executing a program:
//! the retrieval results the application asked for plus the integrated
//! measurement data the paper's evaluation is built from — per-class
//! instruction counts and times, marker-traffic statistics per barrier
//! synchronization, and the four parallel-overhead components of Fig. 21.

use crate::obs::TraceReport;
use crate::SimTime;
use snap_isa::InstrClass;
use snap_kb::{Color, Link, MarkerValue, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// The output of one retrieval (`COLLECT-*`) instruction, in program
/// order. Node lists are sorted by ID for engine-independent comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectOutput {
    /// `COLLECT-MARKER`: marked nodes with their complex-marker payloads.
    Nodes(Vec<(NodeId, Option<MarkerValue>)>),
    /// `COLLECT-RELATION`: links of the requested type at marked nodes.
    Links(Vec<(NodeId, Link)>),
    /// `COLLECT-COLOR`: colors of marked nodes.
    Colors(Vec<(NodeId, Color)>),
}

impl CollectOutput {
    /// Number of collected items.
    pub fn len(&self) -> usize {
        match self {
            CollectOutput::Nodes(v) => v.len(),
            CollectOutput::Links(v) => v.len(),
            CollectOutput::Colors(v) => v.len(),
        }
    }

    /// `true` when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node IDs in this output (for result comparison across
    /// engines).
    pub fn node_ids(&self) -> Vec<NodeId> {
        match self {
            CollectOutput::Nodes(v) => v.iter().map(|(n, _)| *n).collect(),
            CollectOutput::Links(v) => v.iter().map(|(n, _)| *n).collect(),
            CollectOutput::Colors(v) => v.iter().map(|(n, _)| *n).collect(),
        }
    }
}

/// The four components of parallel overhead (Fig. 21).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Instruction broadcast time (configuration phase).
    pub broadcast_ns: SimTime,
    /// Inter-PE message communication time (propagation phase).
    pub communication_ns: SimTime,
    /// Barrier synchronization time (propagation → accumulation
    /// transition).
    pub sync_ns: SimTime,
    /// Result collection time (accumulation phase).
    pub collect_ns: SimTime,
}

impl OverheadBreakdown {
    /// Sum of all four components.
    pub fn total_ns(&self) -> SimTime {
        self.broadcast_ns + self.communication_ns + self.sync_ns + self.collect_ns
    }
}

/// Marker-traffic statistics (Fig. 8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Inter-cluster marker activation messages sent between each pair
    /// of consecutive barrier synchronizations, in barrier order.
    pub messages_per_sync: Vec<u64>,
    /// Total inter-cluster messages.
    pub total_messages: u64,
    /// Individual marker tasks carried by those messages. The threaded
    /// engine coalesces same-destination tasks into one envelope, so
    /// `tasks_sent >= total_messages` there; engines without batching
    /// leave this zero.
    pub tasks_sent: u64,
    /// Total hypercube hops crossed.
    pub total_hops: u64,
    /// Total intra-cluster marker activations (no network traversal).
    pub local_activations: u64,
    /// Sends that found the CU outbox full and had to wait for a
    /// delivery to free a slot (burst overflow).
    pub blocked_sends: u64,
}

impl TrafficStats {
    /// Mean messages per synchronization point (the paper reports
    /// 11.49 for parsing).
    pub fn mean_messages_per_sync(&self) -> f64 {
        if self.messages_per_sync.is_empty() {
            0.0
        } else {
            self.messages_per_sync.iter().sum::<u64>() as f64 / self.messages_per_sync.len() as f64
        }
    }
}

/// Everything measured during one program execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Total simulated execution time (ns). Zero for engines that only
    /// measure wall-clock time.
    pub total_ns: SimTime,
    /// Wall-clock execution time (ns), where measured (threaded engine).
    pub wall_ns: u128,
    /// Instructions executed, per class.
    pub class_counts: BTreeMap<InstrClass, u64>,
    /// Simulated time attributed to each class (ns).
    pub class_time_ns: BTreeMap<InstrClass, SimTime>,
    /// Retrieval results, in program order.
    pub collects: Vec<CollectOutput>,
    /// Parallel-overhead components.
    pub overhead: OverheadBreakdown,
    /// Marker traffic statistics.
    pub traffic: TrafficStats,
    /// Number of barrier synchronizations performed.
    pub barriers: u64,
    /// Total node expansions performed during propagation (a measure of
    /// propagation work).
    pub expansions: u64,
    /// Source activations (α) of each `PROPAGATE` executed, in issue
    /// order.
    pub alpha_per_propagate: Vec<u64>,
    /// Deepest propagation tier reached (longest path traversed).
    pub max_propagation_depth: u8,
    /// What the fault subsystem injected and how the engine coped
    /// (empty for fault-free runs).
    pub faults: FaultReport,
    /// Structured trace aggregates (empty unless the machine was
    /// configured with tracing).
    pub trace: TraceReport,
    /// Locality/balance statistics of the knowledge-base partition the
    /// run used (`None` only in a default report; every engine sets it).
    pub partition: Option<snap_kb::PartitionStats>,
    /// Fingerprint of the schedule decisions the run drew (zero under
    /// the default FIFO strategy, which draws none). For the
    /// deterministic engines (sequential, DES) the same seed must
    /// reproduce the same digest — the fuzz harness's replay check. The
    /// threaded engine records only its controller stream (worker
    /// decision consumption is wall-clock-dependent).
    pub schedule_digest: u64,
}

impl RunReport {
    /// Number of instructions executed in total.
    pub fn instruction_count(&self) -> u64 {
        self.class_counts.values().sum()
    }

    /// Count of instructions in `class`.
    pub fn count_of(&self, class: InstrClass) -> u64 {
        self.class_counts.get(&class).copied().unwrap_or(0)
    }

    /// Simulated time attributed to `class`, ns.
    pub fn time_of(&self, class: InstrClass) -> SimTime {
        self.class_time_ns.get(&class).copied().unwrap_or(0)
    }

    /// Fraction of total attributed time spent in `class` (0..=1).
    pub fn time_fraction(&self, class: InstrClass) -> f64 {
        let total: SimTime = self.class_time_ns.values().sum();
        if total == 0 {
            0.0
        } else {
            self.time_of(class) as f64 / total as f64
        }
    }

    /// Fraction of instructions in `class` (0..=1).
    pub fn count_fraction(&self, class: InstrClass) -> f64 {
        let total = self.instruction_count();
        if total == 0 {
            0.0
        } else {
            self.count_of(class) as f64 / total as f64
        }
    }

    /// Records an executed instruction of `class` taking `ns`.
    pub fn record(&mut self, class: InstrClass, ns: SimTime) {
        *self.class_counts.entry(class).or_insert(0) += 1;
        *self.class_time_ns.entry(class).or_insert(0) += ns;
    }

    /// Resets a pooled report in place for the next query, keeping
    /// every allocation warm: vectors clear but keep capacity, and the
    /// class maps **zero their values instead of dropping keys** — so
    /// steady-state [`RunReport::record`] hits existing entries and
    /// allocates no tree nodes. Stale zero-count keys are purged by
    /// [`RunReport::seal_for_pool`] after the run (removal frees, it
    /// never allocates), keeping the finished report structurally equal
    /// to a freshly built one. The `partition` field is deliberately
    /// preserved: it describes the serving snapshot, which outlives the
    /// query.
    pub fn reset_for_pool(&mut self) {
        self.total_ns = 0;
        self.wall_ns = 0;
        for v in self.class_counts.values_mut() {
            *v = 0;
        }
        for v in self.class_time_ns.values_mut() {
            *v = 0;
        }
        self.collects.clear();
        self.overhead = OverheadBreakdown::default();
        self.traffic.messages_per_sync.clear();
        self.traffic.total_messages = 0;
        self.traffic.tasks_sent = 0;
        self.traffic.total_hops = 0;
        self.traffic.local_activations = 0;
        self.traffic.blocked_sends = 0;
        self.barriers = 0;
        self.expansions = 0;
        self.alpha_per_propagate.clear();
        self.max_propagation_depth = 0;
        self.faults = FaultReport::default();
        self.trace = TraceReport::default();
        self.schedule_digest = 0;
    }

    /// Drops the class-map keys a pooled run never touched, making the
    /// report byte-equal to one built from `RunReport::default()` —
    /// the other half of [`RunReport::reset_for_pool`]'s contract.
    pub fn seal_for_pool(&mut self) {
        let RunReport {
            class_counts,
            class_time_ns,
            ..
        } = self;
        class_counts.retain(|_, v| *v > 0);
        class_time_ns.retain(|c, _| class_counts.contains_key(c));
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
    fn record_accumulates_counts_and_time() {
        let mut r = RunReport::default();
        r.record(InstrClass::Propagate, 100);
        r.record(InstrClass::Propagate, 50);
        r.record(InstrClass::Boolean, 50);
        assert_eq!(r.instruction_count(), 3);
        assert_eq!(r.count_of(InstrClass::Propagate), 2);
        assert_eq!(r.time_of(InstrClass::Propagate), 150);
        assert!((r.time_fraction(InstrClass::Propagate) - 0.75).abs() < 1e-12);
        assert!((r.count_fraction(InstrClass::Boolean) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_summary() {
        let t = TrafficStats {
            messages_per_sync: vec![5, 30, 1],
            total_messages: 36,
            tasks_sent: 36,
            total_hops: 50,
            local_activations: 100,
            blocked_sends: 0,
        };
        assert_eq!(t.mean_messages_per_sync(), 12.0);
    }

    #[test]
    fn collect_output_accessors() {
        let c = CollectOutput::Nodes(vec![(NodeId(3), None), (NodeId(5), None)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.node_ids(), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn overhead_total() {
        let o = OverheadBreakdown {
            broadcast_ns: 1,
            communication_ns: 2,
            sync_ns: 3,
            collect_ns: 4,
        };
        assert_eq!(o.total_ns(), 10);
    }

    #[test]
    fn pooled_reset_and_seal_reproduce_a_fresh_report() {
        let mut pooled = RunReport::default();
        pooled.record(InstrClass::Propagate, 100);
        pooled.record(InstrClass::Boolean, 25);
        pooled.collects.push(CollectOutput::Nodes(vec![]));
        pooled.traffic.local_activations = 9;
        pooled.alpha_per_propagate.push(4);
        pooled.total_ns = 125;
        // Next query touches a different class mix: the Boolean keys go
        // stale at zero and must be purged by seal.
        pooled.reset_for_pool();
        pooled.record(InstrClass::Search, 10);
        pooled.record(InstrClass::Propagate, 70);
        pooled.total_ns = 80;
        pooled.seal_for_pool();
        let mut fresh = RunReport::default();
        fresh.record(InstrClass::Search, 10);
        fresh.record(InstrClass::Propagate, 70);
        fresh.total_ns = 80;
        assert_eq!(pooled, fresh);
    }

    #[test]
    fn pooled_reset_preserves_partition() {
        let mut r = RunReport {
            partition: Some(snap_kb::PartitionStats {
                scheme: snap_kb::PartitionScheme::RoundRobin,
                clusters: 1,
                nodes: 0,
                total_links: 0,
                cut_links: 0,
                cut_fraction: 0.0,
                max_load: 0,
                load_balance: 1.0,
                per_cluster: Vec::new(),
            }),
            ..RunReport::default()
        };
        r.reset_for_pool();
        assert!(r.partition.is_some(), "partition outlives the query");
    }

    #[test]
    fn empty_report_fractions_are_zero() {
        let r = RunReport::default();
        assert_eq!(r.time_fraction(InstrClass::Propagate), 0.0);
        assert_eq!(r.count_fraction(InstrClass::Propagate), 0.0);
    }

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
