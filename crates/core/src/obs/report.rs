//! Aggregated trace metrics: per-cluster counters, histograms, and
//! per-phase statistics, plus the cross-engine comparison helpers the
//! differential test harness is built on.

use super::event::{PhaseKind, TraceEvent};

/// Number of power-of-two buckets in a [`Histogram`]. Bucket `i` counts
/// values `v` with `floor(log2(v)) == i` (bucket 0 additionally holds
/// zero), so the top bucket covers everything from `2^31` up.
pub(super) const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-footprint power-of-two histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: Vec<u64>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket index `value` falls in (only the tracer records).
    #[cfg(any(test, feature = "obs"))]
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Mean of the observed values (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `true` when nothing was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Counters gathered for one cluster over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Off-cluster marker messages sent.
    pub msgs_sent: u64,
    /// Marker messages received and applied.
    pub msgs_recv: u64,
    /// Retransmissions issued (resilient protocol or modelled link
    /// layer).
    pub retries: u64,
    /// Marker activations applied (arrivals merged into the status
    /// table).
    pub activations: u64,
    /// Node expansions executed by this cluster's marker units.
    pub expansions: u64,
    /// Immediate arbiter grants.
    pub arbiter_grants: u64,
    /// Deferred arbiter grants (the request waited).
    pub arbiter_defers: u64,
    /// Nanoseconds spent waiting for deferred grants.
    pub arbiter_wait_ns: u64,
    /// Barrier waits this cluster participated in.
    pub barrier_waits: u64,
    /// Nanoseconds this cluster spent in barrier waits.
    pub barrier_wait_ns: u64,
    /// Faults the plan injected on this cluster's traffic or PEs.
    pub faults_injected: u64,
    /// Deepest work-queue / outbox occupancy observed.
    pub max_queue_depth: u64,
}

impl ClusterMetrics {
    /// Merges `other`'s counts into `self`.
    pub(crate) fn merge(&mut self, other: &ClusterMetrics) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.retries += other.retries;
        self.activations += other.activations;
        self.expansions += other.expansions;
        self.arbiter_grants += other.arbiter_grants;
        self.arbiter_defers += other.arbiter_defers;
        self.arbiter_wait_ns += other.arbiter_wait_ns;
        self.barrier_waits += other.barrier_waits;
        self.barrier_wait_ns += other.barrier_wait_ns;
        self.faults_injected += other.faults_injected;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// Engine-independent statistics for one controller phase, in program
/// order. Identical programs on equivalent engines produce the same
/// phase sequence, so the first index whose counts differ localizes a
/// divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase's kind.
    pub kind: PhaseKind,
    /// Marker activations applied during the phase.
    pub activations: u64,
    /// Node expansions executed during the phase.
    pub expansions: u64,
    /// Off-cluster messages sent during the phase (engine-dependent:
    /// zero on the sequential engine, so cross-engine comparison uses
    /// kind + activations).
    pub messages: u64,
    /// Duration of the phase in the engine's own timebase (not
    /// comparable across timebases).
    pub duration_ns: u64,
}

/// Everything the tracer aggregated over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// `true` when tracing was enabled for the run (an all-default
    /// report also appears when the `obs` feature is compiled out).
    pub enabled: bool,
    /// Per-cluster counters, indexed by cluster.
    pub clusters: Vec<ClusterMetrics>,
    /// Per-phase statistics, in program order.
    pub phases: Vec<PhaseStat>,
    /// Recorded events (subject to sampling and the event cap).
    pub events: Vec<TraceEvent>,
    /// Events not recorded because of sampling or the cap.
    pub events_dropped: u64,
    /// Work-queue / outbox depth observations across all clusters.
    pub queue_depth: Histogram,
    /// Barrier wait durations (engine timebase ns).
    pub barrier_wait: Histogram,
}

impl TraceReport {
    /// `true` when the report carries no observations.
    pub fn is_empty(&self) -> bool {
        !self.enabled && self.events.is_empty() && self.phases.is_empty()
    }

    /// All cluster counters merged into one.
    pub(crate) fn totals(&self) -> ClusterMetrics {
        let mut total = ClusterMetrics::default();
        for c in &self.clusters {
            total.merge(c);
        }
        total
    }

    /// Index of the first phase whose `(kind, activations)` differs
    /// from `other`'s, or where one run has a phase the other lacks.
    /// `None` when the phase sequences agree.
    ///
    /// Activations-per-phase is the engine-independent quantity: every
    /// engine applies the same logical arrivals for deterministic
    /// (monotone, order-independent) workloads, while messages and
    /// durations legitimately differ by engine.
    pub fn first_diverging_phase(&self, other: &TraceReport) -> Option<usize> {
        let n = self.phases.len().max(other.phases.len());
        for i in 0..n {
            match (self.phases.get(i), other.phases.get(i)) {
                (Some(a), Some(b)) => {
                    if a.kind != b.kind || a.activations != b.activations {
                        return Some(i);
                    }
                }
                _ => return Some(i),
            }
        }
        None
    }

    /// A compact text rendering: totals, the per-cluster table, and the
    /// phase sequence. Empty string for empty reports.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let t = self.totals();
        out.push_str(&format!(
            "trace: {} events ({} dropped), {} phases\n",
            self.events.len(),
            self.events_dropped,
            self.phases.len()
        ));
        out.push_str(&format!(
            "totals: sent {} recv {} retries {} activations {} expansions {} faults {}\n",
            t.msgs_sent, t.msgs_recv, t.retries, t.activations, t.expansions, t.faults_injected
        ));
        if !self.queue_depth.is_empty() {
            out.push_str(&format!(
                "queue depth: mean {:.1} max {}\n",
                self.queue_depth.mean(),
                self.queue_depth.max
            ));
        }
        if !self.barrier_wait.is_empty() {
            out.push_str(&format!(
                "barrier wait: mean {:.0} ns max {} ns over {} waits\n",
                self.barrier_wait.mean(),
                self.barrier_wait.max,
                self.barrier_wait.count
            ));
        }
        out.push_str("cluster  sent  recv  retry   activ  expand  arb-defer  barrier-ns\n");
        for (i, c) in self.clusters.iter().enumerate() {
            out.push_str(&format!(
                "{i:>7}  {:>4}  {:>4}  {:>5}  {:>6}  {:>6}  {:>9}  {:>10}\n",
                c.msgs_sent,
                c.msgs_recv,
                c.retries,
                c.activations,
                c.expansions,
                c.arbiter_defers,
                c.barrier_wait_ns
            ));
        }
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "phase {i:>3} {:<11} activ {:>6}  msgs {:>5}  expand {:>6}  {} ns\n",
                p.kind.name(),
                p.activations,
                p.messages,
                p.expansions,
                p.duration_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let buckets = [0, 1, 2, 3, 8, 1024, u64::MAX].map(Histogram::bucket_of);
        assert_eq!(buckets, [0, 0, 1, 1, 3, 10, HISTOGRAM_BUCKETS - 1]);
        let empty = Histogram::default();
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
        let h = Histogram {
            count: 6,
            sum: 1038,
            ..Histogram::default()
        };
        assert!(!h.is_empty());
        assert!((h.mean() - (1038.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn cluster_metrics_merge() {
        let a = ClusterMetrics {
            msgs_sent: 3,
            max_queue_depth: 5,
            ..Default::default()
        };
        let mut b = ClusterMetrics {
            msgs_sent: 2,
            max_queue_depth: 9,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.msgs_sent, 5);
        assert_eq!(b.max_queue_depth, 9);
    }

    fn phase(kind: PhaseKind, activations: u64) -> PhaseStat {
        PhaseStat {
            kind,
            activations,
            expansions: 0,
            messages: 0,
            duration_ns: 0,
        }
    }

    #[test]
    fn diverging_phase_is_localized() {
        let mut a = TraceReport::default();
        let mut b = TraceReport::default();
        a.phases = vec![
            phase(PhaseKind::Configure, 0),
            phase(PhaseKind::Propagate, 40),
            phase(PhaseKind::Barrier, 0),
        ];
        b.phases = a.phases.clone();
        assert_eq!(a.first_diverging_phase(&b), None);
        b.phases[1].activations = 12;
        assert_eq!(a.first_diverging_phase(&b), Some(1));
        // Extra trailing phase also diverges.
        b.phases[1].activations = 40;
        b.phases.push(phase(PhaseKind::Collect, 1));
        assert_eq!(a.first_diverging_phase(&b), Some(3));
        // Messages may differ freely (engine-dependent).
        b.phases.pop();
        b.phases[1].messages = 99;
        assert_eq!(a.first_diverging_phase(&b), None);
    }

    #[test]
    fn summary_renders_non_empty_reports() {
        let mut r = TraceReport {
            enabled: true,
            clusters: vec![ClusterMetrics::default(); 2],
            ..Default::default()
        };
        r.phases.push(phase(PhaseKind::Propagate, 7));
        let s = r.summary();
        assert!(s.contains("propagate"));
        assert!(s.contains("cluster"));
        assert!(TraceReport::default().summary().is_empty());
    }
}
