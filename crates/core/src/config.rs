//! Machine configuration: array geometry and run policy.

use crate::engine::sched::ScheduleStrategy;
use crate::obs::ObsConfig;
use crate::plan::FaultPlan;
use snap_kb::PartitionScheme;

/// Which execution engine a [`crate::Snap1`] machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Single-PE reference engine (the semantics oracle; also the
    /// uniprocessor used for the Fig. 6 instruction profile).
    Sequential,
    /// Deterministic discrete-event simulation of the cluster array with
    /// the calibrated cost model. Used for every timing figure.
    #[default]
    Des,
    /// Real threads (one per cluster) exchanging messages through
    /// channels; logically identical results, wall-clock timing.
    Threaded,
}

/// Geometry and run policy of a SNAP-1 machine. What an operation
/// costs is [`crate::CostModel`], not a field here.
///
/// The constructors encode the paper's configurations:
/// [`MachineConfig::snap1_full`] is the constructed prototype (32
/// clusters, 144 PEs) and [`MachineConfig::snap1_eval`] the 16-cluster /
/// 72-PE array used for Section IV's experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processing clusters.
    pub clusters: usize,
    /// Marker units per cluster, indexed by cluster. Each cluster also
    /// has one PU and one CU, so its PE count is `mus[i] + 2`.
    pub mus: Vec<usize>,
    /// Knowledge-base partitioning function.
    pub partition: PartitionScheme,
    /// Maximum propagation depth before a marker is dropped (guards
    /// cyclic knowledge bases; the paper's longest paths are 10–15).
    pub max_hops: u8,
    /// Force a barrier after every propagation wave (the CM-2-style
    /// SIMD-only ablation). Off in the real machine.
    pub lockstep_waves: bool,
    /// Capacity of each cluster's outgoing marker-activation buffer (the
    /// CU's share of the marker activation memory plus its ICN
    /// mailboxes). When a traffic burst exceeds it, the sending marker
    /// units block until deliveries free slots — the paper's network
    /// absorption requirement (§II-C, Fig. 8).
    pub cu_outbox_capacity: usize,
    /// Record an event on the performance-collection network for every
    /// instruction and barrier (the paper's instrumentation system).
    pub instrument: bool,
    /// Seeded fault schedule to inject during execution. `None` (the
    /// default) runs fault-free. The DES applies it deterministically
    /// (same seed + same plan ⇒ same injected schedule); the threaded
    /// engine applies it per-link deterministically and survives it via
    /// ack/retry, watchdog, and cluster-failover recovery. The
    /// sequential engine ignores it.
    pub fault_plan: Option<FaultPlan>,
    /// Structured event tracing configuration. `None` (the default)
    /// disables tracing; recording additionally requires building
    /// `snap-core` with the `obs` feature, without which this setting is
    /// inert. The aggregated `TraceReport` lands in the run report next
    /// to the fault report.
    pub trace: Option<ObsConfig>,
    /// How the engines with concurrent actors order their work. The
    /// default ([`ScheduleStrategy::Fifo`]) reproduces the historical
    /// deterministic orders bit for bit; a seeded
    /// [`ScheduleStrategy::Fuzzed`] schedule permutes the orderings a
    /// legal machine leaves unspecified — the discrete-event simulator's
    /// equal-time event ties, and the threaded engine's ready-task
    /// picks, worker polling order and close re-check timing — so the
    /// interleaving fuzzer can hunt ordering bugs. Results must be
    /// identical either way. The sequential engine is one PE with
    /// nothing to order: it runs the same under every schedule.
    pub schedule: ScheduleStrategy,
    /// Inert: read only by `benchmark/src/probe.rs`, which passes it to
    /// `propagate_wave`'s ignored parameter.
    pub pull_density: f64,
}

impl MachineConfig {
    /// The full constructed prototype: 32 clusters — 16 in the five-PE
    /// configuration (3 MUs) and 16 with four PEs (2 MUs) — totalling
    /// 144 PEs.
    pub fn snap1_full() -> Self {
        let mut mus = vec![3; 16];
        mus.extend(vec![2; 16]);
        MachineConfig {
            clusters: 32,
            mus,
            partition: PartitionScheme::Semantic,
            max_hops: 48,
            lockstep_waves: false,
            cu_outbox_capacity: 1024,
            instrument: false,
            fault_plan: None,
            trace: None,
            schedule: ScheduleStrategy::Fifo,
            pull_density: 0.0,
        }
    }

    /// The 16-cluster, 72-processor array used for the paper's
    /// performance evaluation (Section IV).
    pub fn snap1_eval() -> Self {
        // 16 clusters × (PU + CU) = 32 PEs; 40 MUs distributed as
        // 8 clusters with 3 MUs and 8 with 2 MUs → 72 PEs total.
        let mut mus = vec![3; 8];
        mus.extend(vec![2; 8]);
        MachineConfig {
            clusters: 16,
            mus,
            ..Self::snap1_full()
        }
    }

    /// A uniform array: `clusters` clusters with `mus_per_cluster` MUs
    /// each (used for scaling sweeps).
    pub fn uniform(clusters: usize, mus_per_cluster: usize) -> Self {
        MachineConfig {
            clusters,
            mus: vec![mus_per_cluster; clusters],
            ..Self::snap1_full()
        }
    }

    /// Total processing elements: per cluster, one PU, one CU, and its
    /// MUs. (Single-cluster arrays have no CU.)
    pub fn pe_count(&self) -> usize {
        let cu = usize::from(self.clusters > 1);
        self.mus.iter().map(|&m| m + 1 + cu).sum()
    }

    /// MUs in cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn mus_in(&self, c: usize) -> usize {
        self.mus[c]
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the MU table does not match the cluster count, any
    /// cluster has no MU, or there are no clusters.
    pub fn validate(&self) {
        assert!(self.clusters > 0, "machine needs at least one cluster");
        assert!(
            self.clusters <= snap_kb::MAX_CLUSTERS,
            "cluster IDs are a byte: at most {} clusters, got {}",
            snap_kb::MAX_CLUSTERS,
            self.clusters
        );
        assert_eq!(
            self.mus.len(),
            self.clusters,
            "MU table covers {} clusters but machine has {}",
            self.mus.len(),
            self.clusters
        );
        assert!(
            self.mus.iter().all(|&m| m >= 1),
            "every cluster needs at least one marker unit"
        );
        assert!(self.max_hops > 0, "max_hops must be positive");
        assert!(
            self.cu_outbox_capacity > 0,
            "the CU needs at least one outbox slot"
        );
        if let Some(plan) = &self.fault_plan {
            if let Err(e) = plan.validate() {
                panic!("invalid fault plan: {e}");
            }
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::snap1_eval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_prototype_has_144_pes() {
        let c = MachineConfig::snap1_full();
        c.validate();
        assert_eq!(c.clusters, 32);
        assert_eq!(c.pe_count(), 144);
    }

    #[test]
    fn eval_array_has_72_pes() {
        let c = MachineConfig::snap1_eval();
        c.validate();
        assert_eq!(c.clusters, 16);
        assert_eq!(c.pe_count(), 72);
    }

    #[test]
    fn uniform_geometry() {
        let c = MachineConfig::uniform(4, 2);
        c.validate();
        assert_eq!(c.pe_count(), 4 * (2 + 2));
        assert_eq!(c.mus_in(3), 2);
    }

    #[test]
    fn single_cluster_has_no_cu() {
        let c = MachineConfig::uniform(1, 1);
        c.validate();
        assert_eq!(c.pe_count(), 2); // PU + 1 MU
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn bad_fault_plan_rejected() {
        MachineConfig {
            fault_plan: Some(FaultPlan::seeded(1).drops(2.0)),
            ..MachineConfig::snap1_full()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one marker unit")]
    fn zero_mu_cluster_rejected() {
        MachineConfig {
            mus: vec![0],
            clusters: 1,
            ..MachineConfig::snap1_full()
        }
        .validate();
    }
}
