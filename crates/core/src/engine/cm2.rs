//! A CM-2-class SIMD comparator.
//!
//! The paper compares SNAP-1 against marker propagation on the
//! Connection Machine CM-2 (Fig. 15): the CM-2's 65 536 single-bit PEs
//! give it essentially flat scaling with knowledge-base size, but every
//! propagation step on the critical path requires iterating between the
//! front-end controller and the array, so its constant factor is large.
//! SNAP-1's MIMD capability performs *selective* propagation without the
//! per-step round-trip, but with only 32 clusters its execution time
//! grows faster as the knowledge base grows — the lines cross for large
//! enough knowledge bases.
//!
//! A second cost model over the engines' semantics, not a SNAP
//! configuration: instructions go through [`NetAccess::exec`] and every
//! propagation through [`propagate_wave_in`] (lockstep waves are what a
//! SIMD array executes), charged per `PROPAGATE` with a hop cap of its
//! own where the engines charge per overlap group.

use crate::engine::common::NetAccess;
use crate::error::CoreError;
use crate::kernel::{propagate_wave_in, WaveScratch, WaveSink};
use crate::propagate::{PropArrival, PropTask};
use crate::region::{Region, RegionMap};
use crate::report::RunReport;
use crate::SimTime;
use snap_isa::{InstrClass, Instruction, Program, PropRule, StepFunc};
use snap_kb::{ClusterId, Marker, PartitionScheme, SemanticNetwork};

/// Propagation depth cap of the comparator's front end.
const MAX_HOPS: u8 = 48;

/// Cost model of the SIMD comparator, nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cm2Cost {
    /// Single-bit processing elements in the array (65 536 on a full
    /// CM-2).
    pub pes: usize,
    /// Front-end ↔ array round-trip paid on **every** propagation wave
    /// (the critical-path iteration the paper highlights).
    pub roundtrip_ns: SimTime,
    /// Data-parallel slice time: processing one virtual-processor slice
    /// (all PEs once) for one wave or global operation.
    pub slice_ns: SimTime,
    /// Front-end cost to issue any instruction.
    pub issue_ns: SimTime,
    /// Moving one collected item back to the front end.
    pub collect_per_item_ns: SimTime,
}

impl Cm2Cost {
    /// Default calibration: large per-wave round-trip, cheap slices.
    pub(crate) fn cm2() -> Self {
        Cm2Cost {
            pes: 65_536,
            roundtrip_ns: 5_000_000, // 5 ms per controller-array iteration
            slice_ns: 300_000,
            issue_ns: 1_000_000,
            collect_per_item_ns: 20_000,
        }
    }
}

impl Default for Cm2Cost {
    fn default() -> Self {
        Self::cm2()
    }
}

/// The CM-2-style lockstep SIMD machine.
///
/// # Examples
///
/// ```
/// use snap_core::Cm2;
/// use snap_isa::{Program, PropRule, StepFunc};
/// use snap_kb::{Color, Marker, NetworkConfig, RelationType, SemanticNetwork};
///
/// let mut net = SemanticNetwork::new(NetworkConfig::default());
/// let a = net.add_node(Color(1))?;
/// let b = net.add_node(Color(2))?;
/// net.add_link(a, RelationType(0), 1.0, b)?;
/// let program = Program::builder()
///     .search_color(Color(1), Marker::binary(0), 0.0)
///     .propagate(Marker::binary(0), Marker::binary(1),
///                PropRule::Star(RelationType(0)), StepFunc::Identity)
///     .collect_marker(Marker::binary(1))
///     .build();
/// let report = Cm2::new().run(&mut net, &program)?;
/// assert_eq!(report.collects[0].node_ids(), vec![b]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cm2 {
    cost: Cm2Cost,
}

impl Cm2 {
    /// A CM-2 with the default calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes `program`, returning the measured report. Logical
    /// results match the SNAP engines exactly. Staged links are flushed
    /// first, as every SNAP engine does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for the same program errors as the SNAP
    /// engines.
    pub fn run(
        &self,
        network: &mut SemanticNetwork,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        network.flush_links();
        let map = RegionMap::build(network, 1, PartitionScheme::Sequential);
        let mut region = Region::new(ClusterId(0), map, network);
        let mut scratch = WaveScratch::new();
        let mut report = RunReport::default();
        let mut now: SimTime = 0;
        // Virtual-processor ratio: slices needed to cover the network.
        let vp = network.node_count().div_ceil(self.cost.pes).max(1) as SimTime;

        for instr in program {
            let start = now;
            match instr {
                Instruction::Propagate {
                    source,
                    target,
                    rule,
                    func,
                } => {
                    now += self.cost.issue_ns;
                    now += self.run_propagate(
                        network,
                        &mut region,
                        &mut scratch,
                        *source,
                        *target,
                        rule,
                        *func,
                        vp,
                        &mut report,
                    )?;
                    report.barriers += 1;
                    report.traffic.messages_per_sync.push(0);
                }
                other => {
                    let regions = std::slice::from_mut(&mut region);
                    let out = NetAccess::Exclusive(network).exec(other, regions)?;
                    now += self.cost.issue_ns;
                    now += match other.class() {
                        InstrClass::Collect => {
                            let items = out.work[0].items as SimTime;
                            let ns = self.cost.roundtrip_ns + items * self.cost.collect_per_item_ns;
                            report.overhead.collect_ns += ns;
                            ns
                        }
                        InstrClass::Maintenance => {
                            self.cost.issue_ns * out.maintenance_ops.max(1) as SimTime
                        }
                        // Word-parallel over the whole array in vp slices.
                        _ => self.cost.slice_ns * vp,
                    };
                    if let Some(c) = out.collect {
                        report.collects.push(c);
                    }
                }
            }
            report.record(instr.class(), now - start);
        }
        report.total_ns = now;
        Ok(report)
    }

    /// Lockstep wave propagation: all active nodes expand data-parallel
    /// in one slice pass, then the front end intervenes before the next
    /// wave. Both registers are resolved first, as every engine resolves
    /// a group's.
    #[allow(clippy::too_many_arguments)]
    fn run_propagate(
        &self,
        network: &SemanticNetwork,
        region: &mut Region,
        scratch: &mut WaveScratch,
        source: Marker,
        target: Marker,
        rule: &PropRule,
        func: StepFunc,
        vp: SimTime,
        report: &mut RunReport,
    ) -> Result<SimTime, CoreError> {
        region.check_group([(source, target)])?;
        let mut seeds = Vec::new();
        region.seeds_into(source, &mut seeds)?;
        report.alpha_per_propagate.push(seeds.len() as u64);
        let mut sink = Cm2Sink {
            region,
            target,
            report,
        };
        let stats = propagate_wave_in(
            network,
            &rule.compile(),
            func,
            0,
            MAX_HOPS,
            &seeds,
            scratch,
            &mut sink,
        )?;
        // Each data-parallel wave: the round-trip plus one slice pass
        // per VP slice, whatever the number of active nodes.
        let waves = stats.waves as SimTime;
        report.overhead.sync_ns += waves * self.cost.roundtrip_ns;
        Ok(waves * (self.cost.roundtrip_ns + self.cost.slice_ns * vp))
    }
}

/// The comparator's accounting per wave-kernel event: expansions,
/// marker merges, activations and depth — no per-event time, which the
/// array charges per wave.
struct Cm2Sink<'a> {
    region: &'a mut Region,
    target: Marker,
    report: &'a mut RunReport,
}

impl WaveSink for Cm2Sink<'_> {
    fn on_expand(&mut self, _: &PropTask, _: usize, _: usize, _: usize) {
        self.report.expansions += 1;
    }

    fn on_arrival(&mut self, task: &PropTask, arrival: &PropArrival) -> Result<(), CoreError> {
        self.region
            .arrive(self.target, arrival.node, arrival.value, task.origin)?;
        self.report.traffic.local_activations += 1;
        self.report.max_propagation_depth = self.report.max_propagation_depth.max(task.level + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineKind, Snap1};
    use snap_kb::{Color, NetworkConfig, NodeId, RelationType};

    fn chain(n: usize) -> SemanticNetwork {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for i in 0..n {
            net.add_node(Color((i == 0) as u8)).unwrap();
        }
        for i in 0..n - 1 {
            net.add_link(NodeId(i as u32), RelationType(1), 1.0, NodeId(i as u32 + 1))
                .unwrap();
        }
        net
    }

    fn walk_program() -> Program {
        Program::builder()
            .search_color(Color(1), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::complex(1),
                PropRule::Star(RelationType(1)),
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(1))
            .build()
    }

    #[test]
    fn cm2_matches_snap_results() {
        let program = walk_program();
        let mut n1 = chain(40);
        let snap = Snap1::builder()
            .clusters(4)
            .engine(EngineKind::Des)
            .build()
            .run(&mut n1, &program)
            .unwrap();
        let mut n2 = chain(40);
        let cm2 = Cm2::new().run(&mut n2, &program).unwrap();
        assert_eq!(snap.collects, cm2.collects);
    }

    #[test]
    fn per_wave_roundtrip_dominates_cm2_time() {
        let program = walk_program();
        let mut net = chain(30);
        let report = Cm2::new().run(&mut net, &program).unwrap();
        // 29 waves of propagation → at least 29 round-trips.
        assert!(report.total_ns >= 29 * Cm2Cost::cm2().roundtrip_ns);
        assert_eq!(report.max_propagation_depth, 29);
    }

    #[test]
    fn cm2_is_flatter_than_snap_in_kb_size() {
        // Same path depth, growing total nodes: pad the network with
        // disconnected nodes. CM-2 time barely moves; SNAP's per-cluster
        // word operations grow.
        let depth = 10usize;
        let mut times_cm2 = Vec::new();
        let mut times_snap = Vec::new();
        for pad in [0usize, 20_000] {
            let mut net = chain(depth);
            for _ in 0..pad {
                net.add_node(Color(3)).unwrap();
            }
            let program = walk_program();
            let mut n1 = net.clone();
            times_cm2.push(Cm2::new().run(&mut n1, &program).unwrap().total_ns as f64);
            let mut n2 = net;
            times_snap.push(
                Snap1::builder()
                    .clusters(4)
                    .build()
                    .run(&mut n2, &program)
                    .unwrap()
                    .total_ns as f64,
            );
        }
        let cm2_growth = times_cm2[1] / times_cm2[0];
        let snap_growth = times_snap[1] / times_snap[0];
        assert!(
            snap_growth > cm2_growth,
            "SNAP grows faster with KB size: snap {snap_growth:.2}× vs cm2 {cm2_growth:.2}×"
        );
    }
}
