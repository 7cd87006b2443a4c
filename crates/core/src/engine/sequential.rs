//! The single-PE reference engine.
//!
//! Runs the whole knowledge base in one region on one (simulated)
//! processing element — no broadcast, no network, no overlap. It serves
//! three purposes: it is the semantics oracle the parallel engines are
//! compared against, it produces the uniprocessor instruction profile
//! of Fig. 6 (instruction frequency vs execution time measured "for NLU
//! applications on a single processor"), and — through [`Walker`] — it
//! is what a served query runs on.
//!
//! Every `PROPAGATE` runs through the wave kernel
//! ([`propagate_wave_in`]). One PE has no concurrent actors, so there is
//! no ordering for a schedule to permute: the engine draws no schedule
//! decisions, a fuzzed run is the FIFO run bit for bit, and its
//! `schedule_digest` is 0 under every [`ScheduleStrategy`].
//!
//! [`ScheduleStrategy`]: crate::ScheduleStrategy

use crate::config::MachineConfig;
use crate::controller::{PlanBuf, PlanOp, PropSpec};
use crate::cost::CostModel;
use crate::engine::common::{phase_of, NetAccess, SingleOutcome};
use crate::error::CoreError;
use crate::kernel::{propagate_wave_in, WaveScratch, WaveSink};
use crate::obs::{PhaseKind, Stamp, Tracer};
use crate::prepared::Prepared;
use crate::propagate::{PropArrival, PropTask};
use crate::region::{Region, RegionMap, Target};
use crate::report::{CollectOutput, RunReport};
use crate::SimTime;
use snap_isa::{InstrClass, Instruction, Program};
use snap_kb::{ClusterId, Marker, SemanticNetwork};
use std::sync::Arc;

/// The sequential engine's executor: walks one program on one region.
///
/// Everything a run needs that is sized by the executor rather than by
/// the query lives here and keeps its capacity between runs — the
/// controller plan, the instruction outcome, the wave kernel's scratch,
/// compiled `PROPAGATE` rules and emptied collect buffers — so a caller
/// that also keeps its regions and reports
/// ([`Snap1::run_shared`](crate::Snap1::run_shared) does the former,
/// the serving layer both) runs warm queries without allocating.
#[derive(Debug, Default)]
pub struct Walker {
    plan: PlanBuf,
    single: SingleOutcome,
    wave: WaveScratch,
    /// Compiled `PROPAGATE`s keyed by their instruction. Serving
    /// workloads cycle through a handful of rules, so a small linear
    /// cache removes `RuleProgram` compilation (and its allocations)
    /// from the steady state; it is cleared if it ever overflows.
    rules: Vec<(Instruction, PropSpec)>,
    /// Collect buffers reclaimed from the reports runs were handed, so
    /// `COLLECT-*` results reuse their capacity.
    spare_collects: Vec<CollectOutput>,
}

impl Walker {
    /// An executor for runs over any network; the first run sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes a maintenance-free `program` against the shared
    /// `network` in `region` — the one region of a one-cluster set-up
    /// of that network — leaving the measured run in `report`. Whatever
    /// `region` and `report` held before is cleared first, capacity
    /// kept; only `report.partition` is the caller's and stays. The
    /// report is the one [`Snap1::run_shared`](crate::Snap1::run_shared)
    /// returns on the sequential engine under `config` and `cost`,
    /// because this is what it runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MaintenanceOnShared`] at a node-maintenance
    /// instruction and otherwise the errors of
    /// [`Snap1::run`](crate::Snap1::run); `report` then holds the run up
    /// to the failing instruction.
    pub fn run(
        &mut self,
        config: &MachineConfig,
        cost: &CostModel,
        network: &SemanticNetwork,
        region: &mut Region,
        program: &Program,
        report: &mut RunReport,
    ) -> Result<(), CoreError> {
        let mut network = NetAccess::Shared(network);
        self.walk(config, cost, &mut network, region, program, report)
    }

    /// [`Walker::run`] over either access: exclusive and shared-snapshot
    /// runs share this body — identical semantics and accounting — and
    /// differ only in what [`NetAccess::exec_into`] permits.
    pub(crate) fn walk(
        &mut self,
        config: &MachineConfig,
        cost: &CostModel,
        network: &mut NetAccess<'_>,
        region: &mut Region,
        program: &Program,
        report: &mut RunReport,
    ) -> Result<(), CoreError> {
        let Walker {
            plan,
            single,
            wave,
            rules,
            spare_collects,
        } = self;
        region.reset();
        spare_collects.append(&mut report.collects);
        report.reset_for_pool();
        plan.plan(program);
        let mut now: SimTime = 0;
        let tracer = Tracer::from_config(config.trace.as_ref(), 1);

        for &op in plan.ops() {
            match op {
                PlanOp::Instr(idx) => {
                    let instr = &program.instructions()[idx];
                    tracer.phase_start(phase_of(instr.class()), Stamp::Sim(now));
                    if instr.class() == InstrClass::Collect {
                        // The collect arms refill a leftover buffer.
                        single.collect = spare_collects.pop();
                    }
                    network.exec_into(instr, std::slice::from_mut(region), single)?;
                    let ns = instr_cost(cost, instr.class(), single, report);
                    now += ns;
                    tracer.phase_end(Stamp::Sim(now));
                    report.record(instr.class(), ns);
                    report.collects.extend(single.collect.take());
                }
                PlanOp::Group { start, len } => {
                    // Registers resolve before any member runs; a single
                    // PE cannot overlap propagations: run them in order.
                    let (members, instrs) = (plan.members(start, len), program.instructions());
                    region.check_group(members.iter().map(|&i| registers(&instrs[i as usize])))?;
                    tracer.phase_start(PhaseKind::Propagate, Stamp::Sim(now));
                    for (g, &idx) in members.iter().enumerate() {
                        let spec = cached_spec(rules, &instrs[idx as usize], g);
                        let (expansions, activations) =
                            (report.expansions, report.traffic.local_activations);
                        let ns = propagate_region(
                            cost,
                            config.max_hops,
                            network.get(),
                            region,
                            wave,
                            spec,
                            report,
                        )?;
                        // The trace keeps per-phase sums, so the kernel's
                        // counts are posted after the propagation.
                        tracer.expansion(0, report.expansions - expansions);
                        tracer.activation(0, report.traffic.local_activations - activations);
                        now += ns;
                        report.record(InstrClass::Propagate, ns);
                    }
                    tracer.phase_end(Stamp::Sim(now));
                    // Implicit barrier closing the group (trivial on one PE).
                    tracer.phase_start(PhaseKind::Barrier, Stamp::Sim(now));
                    now += cost.sync_base_ns;
                    tracer.barrier_wait(0, cost.sync_base_ns, Stamp::Sim(now));
                    tracer.phase_end(Stamp::Sim(now));
                    report.overhead.sync_ns += cost.sync_base_ns;
                    report.barriers += 1;
                    report.traffic.messages_per_sync.push(0);
                }
            }
        }
        report.total_ns = now;
        report.trace = tracer.report();
        // Purge classes this run never recorded, so a pooled report is
        // indistinguishable from a freshly built one.
        report.seal_for_pool();
        Ok(())
    }
}

/// Looks up (or compiles and caches) a `PROPAGATE` instruction as
/// member `prop` of its overlap group.
fn cached_spec<'a>(
    rules: &'a mut Vec<(Instruction, PropSpec)>,
    instr: &Instruction,
    prop: usize,
) -> &'a PropSpec {
    let idx = match rules.iter().position(|(key, _)| key == instr) {
        Some(i) => i,
        None => {
            if rules.len() >= 64 {
                rules.clear();
            }
            rules.push((instr.clone(), PropSpec::compile(prop, instr)));
            rules.len() - 1
        }
    };
    let spec = &mut rules[idx].1;
    spec.prop = prop;
    spec
}

/// The `(source, target)` registers of a `PROPAGATE` the plan grouped.
fn registers(instr: &Instruction) -> (Marker, Marker) {
    match instr {
        Instruction::Propagate { source, target, .. } => (*source, *target),
        _ => unreachable!("a plan groups only propagations"),
    }
}

/// What one sequential run works in: the single region's marker state
/// and the executor over it. Every table in it is node-count-sized, so
/// the machine's run-state pool keeps it between runs.
#[derive(Debug)]
pub(crate) struct SeqState {
    region: Region,
    walker: Walker,
}

impl SeqState {
    /// Empty state for runs over `prepared`'s one-cluster set-up.
    pub(crate) fn new(prepared: &Prepared, network: &SemanticNetwork) -> Self {
        debug_assert_eq!(prepared.map().cluster_count(), 1);
        SeqState {
            region: Region::new(ClusterId(0), Arc::clone(prepared.map()), network),
            walker: Walker::new(),
        }
    }

    /// `true` if this state's region was built over exactly `map`.
    pub(crate) fn is_over(&self, map: &Arc<RegionMap>) -> bool {
        self.region.is_over(map)
    }

    /// Executes `program` over `prepared` (the one-cluster set-up of
    /// this network the state was built for), returning the measured
    /// report.
    pub(crate) fn run(
        &mut self,
        config: &MachineConfig,
        cost: &CostModel,
        network: &mut NetAccess<'_>,
        prepared: &Prepared,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        let mut report = RunReport {
            partition: Some(prepared.partition_stats().clone()),
            ..RunReport::default()
        };
        let SeqState { region, walker } = self;
        walker.walk(config, cost, network, region, program, &mut report)?;
        Ok(report)
    }
}

/// Single-PE cost of one non-propagate instruction, with the overhead
/// and barrier side accounting.
fn instr_cost(
    cost: &CostModel,
    class: InstrClass,
    out: &SingleOutcome,
    report: &mut RunReport,
) -> SimTime {
    let w = out.work[0];
    cost.pcp_ns
        + match class {
            InstrClass::Search => {
                cost.pu_decode_ns
                    + w.scans as SimTime * cost.link_scan_ns
                    + w.value_ops as SimTime * cost.value_op_ns
            }
            InstrClass::Boolean | InstrClass::SetClear => {
                cost.global_op_ns(w.words) + w.value_ops as SimTime * cost.value_op_ns
            }
            InstrClass::Collect => {
                let ns = cost.collect_ns(1, w.items);
                report.overhead.collect_ns += ns;
                ns
            }
            InstrClass::Maintenance => {
                cost.maintenance_ns * (out.maintenance_ops.max(1) as SimTime)
            }
            InstrClass::Barrier => {
                let ns = cost.sync_base_ns;
                report.overhead.sync_ns += ns;
                report.barriers += 1;
                ns
            }
            InstrClass::Propagate => unreachable!("plan puts propagates in groups"),
        }
}

/// One `PROPAGATE` on one region through the wave kernel: gathers the
/// seeds where `spec.source` is active, records α, resolves the target
/// marker once and runs [`propagate_wave_in`] over `scratch`, merging
/// every arrival through that one resolution, returning the
/// propagation's simulated nanoseconds (`pu_decode_ns` plus every
/// expansion). `report` gains the expansions, local activations and
/// depth; recording the instruction is the caller's, like the clock.
///
/// # Errors
///
/// Returns [`CoreError`] for an out-of-range source or target marker.
fn propagate_region(
    cost: &CostModel,
    max_hops: u8,
    network: &SemanticNetwork,
    region: &mut Region,
    scratch: &mut WaveScratch,
    spec: &PropSpec,
    report: &mut RunReport,
) -> Result<SimTime, CoreError> {
    let mut seeds = std::mem::take(&mut scratch.seeds);
    seeds.clear();
    let ran = region.seeds_into(spec.source, &mut seeds).and_then(|()| {
        report.alpha_per_propagate.push(seeds.len() as u64);
        let mut sink = SeqWaveSink {
            cost,
            target: region.target(spec.target)?,
            report,
            ns: cost.pu_decode_ns,
        };
        propagate_wave_in(
            network, &spec.rule, spec.func, spec.prop, max_hops, &seeds, scratch, &mut sink,
        )?;
        Ok(sink.ns)
    });
    scratch.seeds = seeds;
    ran
}

/// Engine accounting behind the wave kernel: each expansion charges
/// its cost-model nanoseconds and counts; each arrival merges into the
/// resolved target marker and counts a local activation and its depth.
struct SeqWaveSink<'a> {
    cost: &'a CostModel,
    target: Target<'a>,
    report: &'a mut RunReport,
    ns: SimTime,
}

impl WaveSink for SeqWaveSink<'_> {
    fn on_expand(
        &mut self,
        _task: &PropTask,
        segments: usize,
        links_scanned: usize,
        arrivals: usize,
    ) {
        self.report.expansions += 1;
        self.ns += self.cost.expand_ns(segments, links_scanned, arrivals);
    }

    fn on_arrival(&mut self, task: &PropTask, arrival: &PropArrival) -> Result<(), CoreError> {
        self.target.arrive(arrival.node, arrival.value, task.origin);
        self.report.traffic.local_activations += 1;
        self.report.max_propagation_depth = self.report.max_propagation_depth.max(task.level + 1);
        Ok(())
    }
}

/// A cold run the way [`Snap1::run`](crate::Snap1::run) drives it —
/// flush, one-cluster set-up, exclusive access — for engine unit tests.
#[cfg(test)]
pub(crate) fn run_exclusive(
    config: &MachineConfig,
    cost: &CostModel,
    network: &mut SemanticNetwork,
    program: &Program,
) -> Result<RunReport, CoreError> {
    network.flush_links();
    let prepared = Prepared::for_snapshot(network, 1, snap_kb::PartitionScheme::Sequential)?;
    SeqState::new(&prepared, network).run(
        config,
        cost,
        &mut NetAccess::Exclusive(network),
        &prepared,
        program,
    )
}

#[cfg(test)]
mod tests {
    use super::run_exclusive as run;
    use super::*;
    use snap_isa::{CombineFunc, PropRule, StepFunc};
    use snap_kb::{Color, Marker, NetworkConfig, RelationType};

    fn run_default(
        network: &mut SemanticNetwork,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        run(
            &MachineConfig::snap1_eval(),
            &CostModel::snap1(),
            network,
            program,
        )
    }

    /// The Fig. 1 / Fig. 5 miniature: lexical nodes under syntactic
    /// categories, a concept sequence with first/last elements.
    fn fig1_network() -> SemanticNetwork {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let np = Color(1);
        let vp = Color(2);
        let cs = Color(3);
        let is_a = RelationType(0);
        let first = RelationType(1);
        let last = RelationType(2);
        let we = net.add_named_node("we", np).unwrap();
        let ship = net.add_named_node("ship", np).unwrap();
        let see = net.add_named_node("see", vp).unwrap();
        let nphr = net.add_named_node("noun-phrase", np).unwrap();
        let vphr = net.add_named_node("verb-phrase", vp).unwrap();
        let seeing = net.add_named_node("seeing-event", cs).unwrap();
        net.add_link(we, is_a, 0.1, nphr).unwrap();
        net.add_link(ship, is_a, 0.2, nphr).unwrap();
        net.add_link(see, is_a, 0.1, vphr).unwrap();
        net.add_link(nphr, first, 0.5, seeing).unwrap();
        net.add_link(vphr, last, 0.5, seeing).unwrap();
        net
    }

    #[test]
    fn fig5_parse_intersects_at_concept_sequence() {
        let mut net = fig1_network();
        let is_a = RelationType(0);
        let first = RelationType(1);
        let last = RelationType(2);
        let (m1, m2, m3, m4, m5) = (
            Marker::binary(1),
            Marker::binary(2),
            Marker::complex(3),
            Marker::complex(4),
            Marker::complex(5),
        );
        let program = Program::builder()
            .search_color(Color(1), m1, 0.0) // NP words + noun-phrase
            .search_color(Color(2), m2, 0.0) // VP words + verb-phrase
            .propagate(m1, m3, PropRule::Spread(is_a, first), StepFunc::AddWeight)
            .propagate(m2, m4, PropRule::Spread(is_a, last), StepFunc::AddWeight)
            .and_marker(m3, m4, m5, CombineFunc::Add)
            .collect_marker(m5)
            .build();
        let report = run_default(&mut net, &program).unwrap();
        assert_eq!(report.collects.len(), 1);
        let ids = report.collects[0].node_ids();
        assert_eq!(ids, vec![net.lookup("seeing-event").unwrap()]);
        // Cost semantics keep the minimum-cost binding: noun-phrase and
        // verb-phrase are themselves colored sources (value 0), so the
        // cheapest paths are first(0.5) and last(0.5); AND with Add → 1.0.
        let crate::report::CollectOutput::Nodes(nodes) = &report.collects[0] else {
            panic!("expected nodes");
        };
        let v = nodes[0].1.unwrap();
        assert!((v.value - 1.0).abs() < 1e-5, "got {}", v.value);
    }

    #[test]
    fn propagate_dominates_time_not_count() {
        let mut net = fig1_network();
        let is_a = RelationType(0);
        let m1 = Marker::binary(1);
        let m2 = Marker::complex(2);
        let program = Program::builder()
            .search_color(Color(1), m1, 0.0)
            .set_marker(Marker::binary(9), 0.0)
            .clear_marker(Marker::binary(9))
            .propagate(m1, m2, PropRule::Star(is_a), StepFunc::AddWeight)
            .collect_marker(m2)
            .build();
        let report = run_default(&mut net, &program).unwrap();
        assert_eq!(report.count_of(InstrClass::Propagate), 1);
        assert_eq!(report.instruction_count(), 5);
        assert!(report.time_of(InstrClass::Propagate) > 0);
        assert!(report.total_ns > 0);

        // Traced, the run records a trace that counts what the report
        // counts.
        let config = MachineConfig {
            trace: Some(crate::obs::ObsConfig::full()),
            ..MachineConfig::snap1_eval()
        };
        let mut traced = run(&config, &CostModel::snap1(), &mut net, &program).unwrap();
        assert!(traced.trace.enabled);
        let trace = std::mem::take(&mut traced.trace);
        assert_eq!(traced, report, "tracing changes nothing else");
        let expansions: u64 = trace.phases.iter().map(|p| p.expansions).sum();
        let activations: u64 = trace.phases.iter().map(|p| p.activations).sum();
        assert_eq!(expansions, report.expansions);
        assert_eq!(activations, report.traffic.local_activations);
        assert!(report.expansions > 0);
    }

    #[test]
    fn alpha_and_depth_recorded() {
        let mut net = fig1_network();
        let m1 = Marker::binary(1);
        let m2 = Marker::binary(2);
        let program = Program::builder()
            .search_color(Color(1), m1, 0.0)
            .propagate(
                m1,
                m2,
                PropRule::Spread(RelationType(0), RelationType(1)),
                StepFunc::Identity,
            )
            .build();
        let report = run_default(&mut net, &program).unwrap();
        assert_eq!(report.alpha_per_propagate, vec![3]); // we, ship, noun-phrase
                                                         // `we` (the smallest origin ID) wins the equal-cost binding at
                                                         // noun-phrase and re-expands it, so the deepest recorded arrival
                                                         // is the two-link path we → noun-phrase → seeing-event.
        assert_eq!(report.max_propagation_depth, 2);
        assert!(report.expansions >= 3);
    }

    #[test]
    fn cyclic_network_terminates() {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let a = net.add_node(Color(0)).unwrap();
        let b = net.add_node(Color(0)).unwrap();
        let r = RelationType(1);
        net.add_link(a, r, 1.0, b).unwrap();
        net.add_link(b, r, 1.0, a).unwrap();
        let program = Program::builder()
            .search_node(a, Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::complex(1),
                PropRule::Star(r),
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(1))
            .build();
        let report = run_default(&mut net, &program).unwrap();
        let ids = report.collects[0].node_ids();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn barrier_instruction_counts() {
        let mut net = fig1_network();
        let program = Program::builder().barrier().build();
        let report = run_default(&mut net, &program).unwrap();
        assert_eq!(report.count_of(InstrClass::Barrier), 1);
        assert_eq!(report.barriers, 1);
        assert!(report.overhead.sync_ns > 0);
    }
}
