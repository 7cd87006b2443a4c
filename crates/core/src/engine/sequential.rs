//! The single-PE reference engine.
//!
//! Runs the whole knowledge base in one region on one (simulated)
//! processing element — no broadcast, no network, no overlap. It serves
//! two purposes: it is the semantics oracle the parallel engines are
//! compared against, and it produces the uniprocessor instruction
//! profile of Fig. 6 (instruction frequency vs execution time measured
//! "for NLU applications on a single processor").

use crate::config::MachineConfig;
use crate::controller::{plan, PropSpec, Step};
use crate::cost::CostModel;
use crate::engine::common::{phase_of, NetAccess, SingleOutcome};
use crate::engine::sched::{apply_arrival, maybe_plant_bug, Picker, ReadyQueue, CONTROL_STREAM};
use crate::error::CoreError;
use crate::kernel::{propagate_wave_in, wave_supported, WaveScratch, WaveSink};
use crate::prepared::Prepared;
use crate::propagate::{expand_into, PropArrival, PropTask, VisitedMap};
use crate::region::Region;
use crate::report::RunReport;
use snap_isa::{InstrClass, Program};
use snap_kb::{ClusterId, SemanticNetwork};
use snap_net::SimTime;
use snap_obs::{lock_unpoisoned, PhaseKind, Stamp, Tracer};
use std::fmt;
use std::sync::{Arc, Mutex};

/// What one sequential run works in: the single region's marker state,
/// the wave kernel's scratch, and the scalar loop's visited map (reset
/// per propagation). Every table in it is node-count-sized, so a run
/// builds it once and [`SeqPool`] keeps it between shared runs.
#[derive(Debug)]
pub(crate) struct SeqState {
    region: Region,
    wave: WaveScratch,
    visited: VisitedMap,
}

impl SeqState {
    /// Empty state for one run over `prepared`'s one-cluster set-up.
    pub(crate) fn new(prepared: &Prepared, network: &SemanticNetwork) -> Self {
        debug_assert_eq!(prepared.map().cluster_count(), 1);
        SeqState {
            region: Region::new(ClusterId(0), Arc::clone(prepared.map()), network),
            wave: WaveScratch::new(),
            visited: VisitedMap::for_nodes(network.node_count()),
        }
    }
}

/// Run states of the snapshot [`Snap1::run_shared`](crate::Snap1::run_shared)
/// last served, one per concurrent caller at most, so a warm call
/// builds and zeroes no node-count-sized table.
///
/// A state belongs to the [`Prepared`] whose region map its region was
/// built over and is used for no other: a call checks out only a state
/// whose map is the one it obtained itself (whatever the memo holds by
/// then), and the rest — an earlier snapshot's — are dropped. The pool
/// holds region maps, never a network. Exclusive runs stay outside it:
/// maintenance may add nodes under their region.
/// Only whole states are pushed and popped under the lock, so a caller
/// that panics holding it leaves a valid pool.
#[derive(Default)]
pub(crate) struct SeqPool(pub(crate) Mutex<Vec<SeqState>>);

impl SeqPool {
    /// [`run`] on a shared snapshot, in a pooled state when there is one
    /// for `prepared`. The state goes back however the run ended; the
    /// next call resets it.
    pub(crate) fn run_shared(
        &self,
        config: &MachineConfig,
        cost: &CostModel,
        network: &SemanticNetwork,
        prepared: &Prepared,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        let pooled = {
            let mut pool = lock_unpoisoned(&self.0);
            pool.retain(|state| state.region.is_over(prepared.map()));
            pool.pop()
        };
        let mut state = match pooled {
            Some(mut state) => {
                state.region.reset();
                state
            }
            None => SeqState::new(prepared, network),
        };
        let result = run(
            config,
            cost,
            NetAccess::Shared(network),
            prepared,
            program,
            &mut state,
        );
        lock_unpoisoned(&self.0).push(state);
        result
    }
}

impl Clone for SeqPool {
    /// A cloned machine starts with an empty pool.
    fn clone(&self) -> Self {
        SeqPool::default()
    }
}

impl fmt::Debug for SeqPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqPool")
            .field("idle", &lock_unpoisoned(&self.0).len())
            .finish()
    }
}

/// Executes `program` sequentially over `prepared` (a one-cluster
/// set-up of this network) in `state`, which must be empty, returning
/// the measured report. Exclusive and shared-snapshot runs share this
/// body — identical semantics and accounting — and differ only in what
/// [`NetAccess::exec`] permits.
pub(crate) fn run(
    config: &MachineConfig,
    cost: &CostModel,
    mut network: NetAccess<'_>,
    prepared: &Prepared,
    program: &Program,
    state: &mut SeqState,
) -> Result<RunReport, CoreError> {
    let SeqState {
        region,
        wave,
        visited,
    } = state;
    let mut report = RunReport {
        partition: Some(prepared.partition_stats().clone()),
        ..RunReport::default()
    };
    let mut now: SimTime = 0;
    let tracer = Tracer::from_config(config.trace.as_ref(), 1);
    // One decision stream for the whole run: the single PE is the only
    // scheduling consumer, so every ready-pool pick draws from it.
    let mut picker = Picker::new(config.schedule, CONTROL_STREAM);

    for step in plan(program) {
        match step {
            Step::Instr(idx) => {
                let instr = &program.instructions()[idx];
                tracer.phase_start(phase_of(instr.class()), Stamp::Sim(now));
                let out = network.exec(instr, std::slice::from_mut(region))?;
                let ns = instr_cost(cost, instr.class(), &out, &mut report);
                now += ns;
                tracer.phase_end(Stamp::Sim(now));
                report.record(instr.class(), ns);
                if let Some(c) = out.collect {
                    report.collects.push(c);
                }
            }
            Step::Group(indices) => {
                // A single PE cannot overlap propagations: run them in order.
                tracer.phase_start(PhaseKind::Propagate, Stamp::Sim(now));
                for (g, &idx) in indices.iter().enumerate() {
                    let instr = &program.instructions()[idx];
                    let spec = PropSpec::compile(g, instr);
                    let ns = run_propagate(
                        config,
                        cost,
                        network.get(),
                        region,
                        wave,
                        visited,
                        &spec,
                        &mut report,
                        &tracer,
                        &mut picker,
                    )?;
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
    report.schedule_digest = picker.digest();
    Ok(report)
}

/// Single-PE cost of one non-propagate instruction, with the overhead
/// and barrier side accounting. The serving layer charges each lane of
/// a fused batch through this same function, which is what keeps a
/// served report's `total_ns` equal to the solo run's.
pub fn instr_cost(
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

/// One `PROPAGATE` on the single region. Under the FIFO schedule a
/// wave-supported propagation is [`propagate_region`]; everything else
/// — fuzzed schedules, staged links, oversized rules — takes the
/// breadth-first scalar loop with value re-relaxation (SPFA-style),
/// which stays the executable spec the differential grid holds the
/// kernel to. Its ready-task order comes from the shared scheduler
/// core: FIFO preserves the historical breadth-first order exactly, a
/// fuzzed strategy picks any ready task — which the min-`(value,
/// origin)` convergence must absorb without changing the result.
#[allow(clippy::too_many_arguments)]
fn run_propagate(
    config: &MachineConfig,
    cost: &CostModel,
    network: &SemanticNetwork,
    region: &mut Region,
    wave: &mut WaveScratch,
    visited: &mut VisitedMap,
    spec: &PropSpec,
    report: &mut RunReport,
    tracer: &Tracer,
    picker: &mut Picker,
) -> Result<SimTime, CoreError> {
    // The wave kernel draws no picker decisions, so a fuzzed schedule
    // never takes it.
    if !config.schedule.is_fuzzed() && wave_supported(network, &spec.rule) {
        let (expansions, activations) = (report.expansions, report.traffic.local_activations);
        let ns = propagate_region(cost, config.max_hops, network, region, wave, spec, report)?;
        // The tracer counts what the scalar loop below reports event by
        // event; both are plain per-phase sums.
        (expansions..report.expansions).for_each(|_| tracer.expansion(0));
        (activations..report.traffic.local_activations).for_each(|_| tracer.activation(0));
        return Ok(ns);
    }
    let sources = region.active_nodes(spec.source);
    report.alpha_per_propagate.push(sources.len() as u64);
    visited.reset();
    let mut queue: ReadyQueue<PropTask> = ReadyQueue::new();
    for node in sources {
        let value = region.source_value(spec.source, node);
        if visited.should_expand(spec.prop, 0, node, value, node) {
            queue.push(PropTask {
                prop: spec.prop,
                node,
                state: 0,
                value,
                origin: node,
                level: 0,
            });
        }
    }

    let mut ns = cost.pu_decode_ns;
    let mut arrivals: Vec<PropArrival> = Vec::new();
    while let Some(task) = queue.pop(picker) {
        let (segments, links_scanned) =
            expand_into(network, &spec.rule, spec.func, &task, &mut arrivals);
        maybe_plant_bug(picker, &mut arrivals);
        report.expansions += 1;
        tracer.expansion(0);
        ns += cost.expand_ns(segments, links_scanned, arrivals.len());
        if task.level >= config.max_hops {
            continue;
        }
        for &arrival in &arrivals {
            let expand = apply_arrival(
                region,
                visited,
                spec.target,
                spec.prop,
                arrival.state,
                arrival.node,
                arrival.value,
                task.origin,
            )?;
            report.traffic.local_activations += 1;
            tracer.activation(0);
            let level = task.level + 1;
            report.max_propagation_depth = report.max_propagation_depth.max(level);
            if expand {
                queue.push(PropTask {
                    prop: spec.prop,
                    node: arrival.node,
                    state: arrival.state,
                    value: arrival.value,
                    origin: task.origin,
                    level,
                });
            }
        }
    }
    Ok(ns)
}

/// One `PROPAGATE` on one region through the wave kernel: gathers the
/// seeds where `spec.source` is active, records α, runs
/// [`propagate_wave_in`] over `scratch` and delivers every arrival
/// through [`Region::arrive`], returning the propagation's simulated
/// nanoseconds (`pu_decode_ns` plus every expansion). `report` gains
/// the expansions, local activations and depth; recording the
/// instruction is the caller's, like the clock.
///
/// The sequential engine runs every FIFO wave through this, and the
/// serving layer every lane of a batch, so a served report equals the
/// solo report by shared code.
///
/// # Errors
///
/// Returns [`CoreError`] for an out-of-range target marker.
///
/// # Panics
///
/// Panics unless [`wave_supported`] holds for `spec.rule`.
pub fn propagate_region(
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
    seeds.extend(
        region
            .active_nodes_iter(spec.source)
            .map(|node| (node, region.source_value(spec.source, node))),
    );
    report.alpha_per_propagate.push(seeds.len() as u64);
    let mut sink = SeqWaveSink {
        cost,
        region,
        target: spec.target,
        report,
        ns: cost.pu_decode_ns,
    };
    let ran = propagate_wave_in(
        network, &spec.rule, spec.func, spec.prop, max_hops, &seeds, scratch, &mut sink,
    );
    scratch.seeds = seeds;
    ran?;
    Ok(sink.ns)
}

/// Engine accounting behind the wave kernel: expansion and arrival
/// events mutate the same report fields, cost-model nanoseconds, and
/// region the scalar loop touches — in the same places.
struct SeqWaveSink<'a> {
    cost: &'a CostModel,
    region: &'a mut Region,
    target: snap_kb::Marker,
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
        self.region
            .arrive(self.target, arrival.node, arrival.value, task.origin)?;
        self.report.traffic.local_activations += 1;
        self.report.max_propagation_depth = self.report.max_propagation_depth.max(task.level + 1);
        Ok(())
    }
}

/// [`run`] the way [`Snap1::run`](crate::Snap1::run) drives it —
/// flush, one-cluster set-up, exclusive access — for engine unit tests.
#[cfg(test)]
pub(crate) fn run_exclusive(
    config: &MachineConfig,
    cost: &CostModel,
    network: &mut SemanticNetwork,
    program: &Program,
) -> Result<RunReport, CoreError> {
    network.flush_links();
    let prepared = Prepared::build(network, 1, snap_kb::PartitionScheme::Sequential);
    let mut state = SeqState::new(&prepared, network);
    run(
        config,
        cost,
        NetAccess::Exclusive(network),
        &prepared,
        program,
        &mut state,
    )
}

#[cfg(test)]
mod tests {
    use super::run_exclusive as run;
    use super::*;
    use crate::engine::sched::ScheduleStrategy;
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
    fn fuzzed_fifo_scalar_loop_reports_identically_to_the_wave() {
        // Scalar loop (a fuzzed schedule that never deviates from FIFO)
        // vs wave kernel: one report, instruction for instruction.
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
            .search_color(Color(1), m1, 0.0)
            .search_color(Color(2), m2, 0.0)
            .propagate(m1, m3, PropRule::Spread(is_a, first), StepFunc::AddWeight)
            .propagate(m2, m4, PropRule::Spread(is_a, last), StepFunc::AddWeight)
            .and_marker(m3, m4, m5, CombineFunc::Add)
            .collect_marker(m5)
            .build();
        let run_with = |schedule| {
            let mut net = fig1_network();
            let config = MachineConfig {
                schedule,
                ..MachineConfig::snap1_eval()
            };
            run(&config, &CostModel::snap1(), &mut net, &program).unwrap()
        };
        let scalar = run_with(ScheduleStrategy::Fuzzed { seed: 7, limit: 0 });
        let wave = run_with(ScheduleStrategy::Fifo);
        assert_eq!(wave, scalar);
        assert!(wave.expansions > 0);
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
