//! The deterministic discrete-event engine.
//!
//! Simulates the cluster array at the functional-unit level: the SCP
//! broadcasts each instruction over the global bus; PUs decode and
//! enqueue tasks; MUs execute marker work (each cluster has its
//! configured number of MU servers); CUs serialize outgoing messages
//! onto the hypercube, which delivers them after the per-hop wire and
//! relay latencies; and the controller closes each propagation group
//! with a tiered barrier synchronization. Simulated time is nanoseconds;
//! processing is totally ordered by `(time, sequence)` so results and
//! timings are exactly reproducible.
//!
//! # Fault injection
//!
//! With a [`FaultPlan`](crate::FaultPlan) attached, injection decisions key off
//! the simulator's event sequence number, so a seeded plan perturbs the
//! *timing* of a run absolutely deterministically while the modelled
//! reliable link layer (detect + retransmit, one extra CU service and
//! wire traversal per lost or corrupted copy) keeps the logical results
//! identical. Worker panics are a threaded-engine concept and are not
//! modelled here; the SIMD lockstep ablation path is likewise
//! uninjected.

use crate::bus::BusModel;
use crate::config::MachineConfig;
use crate::controller::{PlanBuf, PlanOp, PropSpec};
use crate::cost::CostModel;
use crate::engine::common::{phase_of, NetAccess, SingleOutcome};
use crate::engine::sched::{apply_arrival, maybe_plant_bug, EventQueue, Picker, CONTROL_STREAM};
use crate::error::CoreError;
use crate::obs::{FaultKind, PhaseKind, Stamp, Tracer, CONTROLLER_TRACK};
use crate::perf::PerfCollector;
use crate::prepared::Prepared;
use crate::propagate::{expand_into, PropArrival, PropTask, VisitedMap};
use crate::region::{Region, RegionMap};
use crate::report::RunReport;
use crate::sync::TieredSyncModel;
use crate::topology::HypercubeTopology;
use crate::SimTime;
use snap_isa::{InstrClass, Program};
use snap_kb::{ClusterId, SemanticNetwork};
use std::collections::VecDeque;
use std::sync::Arc;

/// [`DesState::run`] the way [`Snap1::run`](crate::Snap1::run) drives
/// it on a new machine — flush, set-up for `config`, a fresh state,
/// exclusive access — for engine unit tests.
#[cfg(test)]
pub(crate) fn run_exclusive(
    config: &MachineConfig,
    cost: &CostModel,
    network: &mut SemanticNetwork,
    program: &Program,
) -> Result<RunReport, CoreError> {
    network.flush_links();
    let prepared = Prepared::for_snapshot(network, config.clusters, config.partition)?;
    DesState::new(config, &prepared, network).run(
        config,
        cost,
        &mut NetAccess::Exclusive(network),
        &prepared,
        program,
    )
}

/// One scheduled event of the propagation phase. Ordering lives in the
/// shared [`EventQueue`]: `(time, tie, insertion seq)`, where the tie is
/// zero under FIFO — restoring the historical `(time, seq)` total order
/// — and a seeded draw under a fuzzed schedule, permuting exactly the
/// equal-time orderings concurrent hardware leaves unspecified.
#[derive(Debug, Clone)]
enum EventKind {
    /// An MU finishes expanding a task; its arrivals — the run
    /// `expanded[arrivals.0..arrivals.1]` of the group's arrival arena,
    /// where `schedule_task` left them — take effect.
    Completion {
        cluster: usize,
        task: PropTask,
        arrivals: (u32, u32),
    },
    /// A marker message arrives at its destination cluster.
    Delivery { cluster: usize, task: PropTask },
}

/// What a simulator run works in: the clusters' regions, the visited
/// tables, the event queue, the per-server timelines and the array's
/// hop table, with the arrival buffers beside them. None of it is built
/// for a program — the regions and visited tables are sized by the
/// network, the lanes, timelines and hop table by the machine, and the
/// buffers keep the largest group's capacity — so the machine's
/// run-state pool keeps one per concurrent caller for the network
/// revision it last ran on, and a run clears it in place instead of
/// building it.
#[derive(Debug)]
pub(crate) struct DesState {
    map: Arc<RegionMap>,
    regions: Vec<Region>,
    /// Hypercube hop count from cluster `a` to `b` at `a * clusters + b`.
    hops: Vec<u8>,
    /// The propagation phase's events (a group drains it). One lane per
    /// server whose events ascend in time: per MU for completions
    /// (`mu_free` only grows), then per (sending cluster, hop count) for
    /// deliveries (`cu_free` only grows and the wire time is a function
    /// of the hops).
    events: EventQueue<EventKind>,
    /// First completion lane of each cluster; the delivery lanes start
    /// at the last entry (the machine's MU count).
    mu_lanes: Vec<usize>,
    /// Network diameter: delivery lanes per sending cluster.
    diameter: usize,
    mu_free: Vec<Vec<SimTime>>,
    cu_free: Vec<SimTime>,
    /// In-flight delivery times per sending cluster, ascending: the
    /// occupancy of the CU's outgoing marker-activation buffer.
    outbox: Vec<VecDeque<SimTime>>,
    /// Reset per propagation group.
    visited: VisitedMap,
    /// Arrival buffer `schedule_task` expands into to cost a task
    /// before appending it to `expanded`.
    arrivals: Vec<PropArrival>,
    /// Every arrival costed this propagation group, in scheduling order:
    /// an expansion is computed once, when its task is scheduled, and
    /// its completion event names its run here.
    expanded: Vec<PropArrival>,
}

impl DesState {
    /// An empty state for `config`'s array over `prepared`, the set-up of
    /// `network` for that geometry.
    pub(crate) fn new(
        config: &MachineConfig,
        prepared: &Prepared,
        network: &SemanticNetwork,
    ) -> Self {
        let map = Arc::clone(prepared.map());
        debug_assert_eq!(map.cluster_count(), config.clusters);
        let regions = (0..config.clusters)
            .map(|c| Region::new(ClusterId(c as u8), Arc::clone(&map), network))
            .collect();
        let topology = HypercubeTopology::covering(config.clusters);
        let ids = || (0..config.clusters).map(|c| ClusterId(c as u8));
        let hops = ids()
            .flat_map(|a| ids().map(move |b| (a, b)))
            .map(|(a, b)| topology.distance(a, b) as u8)
            .collect();
        let mu_lanes: Vec<usize> = std::iter::once(0)
            .chain(config.mus.iter().scan(0, |sum, &m| {
                *sum += m;
                Some(*sum)
            }))
            .collect();
        let diameter = topology.field_count();
        let lanes = mu_lanes[config.clusters] + config.clusters * diameter;
        DesState {
            map,
            regions,
            hops,
            events: EventQueue::with_lanes(lanes),
            mu_lanes,
            diameter,
            mu_free: config.mus.iter().map(|&m| vec![0; m]).collect(),
            cu_free: vec![0; config.clusters],
            outbox: vec![VecDeque::new(); config.clusters],
            visited: VisitedMap::dense(network.node_count()),
            arrivals: Vec::new(),
            expanded: Vec::new(),
        }
    }

    /// `true` if this state's regions were built over exactly `map` —
    /// the identity the pool matches a state to its set-up by.
    pub(crate) fn is_over(&self, map: &Arc<RegionMap>) -> bool {
        Arc::ptr_eq(&self.map, map)
    }

    /// Executes `program` on the simulated array over `prepared` (this
    /// network partitioned for `config`, the set-up the state was built
    /// over). Exclusive and shared-snapshot runs share this body —
    /// identical simulation and accounting — and differ only in what
    /// [`NetAccess::exec_into`] permits. Whatever an earlier run left in
    /// the state, finished or failed, is cleared first.
    pub(crate) fn run(
        &mut self,
        config: &MachineConfig,
        cost: &CostModel,
        network: &mut NetAccess<'_>,
        prepared: &Prepared,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        config.validate();
        let mut machine = Des::new(config, cost, prepared, self);
        let mut plan = PlanBuf::new();
        plan.plan(program);
        for &op in plan.ops() {
            match op {
                PlanOp::Instr(idx) => machine.exec_instr(network, &program.instructions()[idx])?,
                PlanOp::Group { start, len } => {
                    let specs = PropSpec::compile_group(program, plan.members(start, len));
                    machine.exec_group(network.get(), &specs)?;
                }
            }
        }
        Ok(machine.finish())
    }
}

/// One run on the simulated array: the machine's clocks, models and
/// report, over a borrowed [`DesState`].
struct Des<'c> {
    config: &'c MachineConfig,
    cost: &'c CostModel,
    st: &'c mut DesState,
    bus: BusModel,
    sync: TieredSyncModel,
    perf: Option<PerfCollector>,
    injector: Option<crate::inject::FaultInjector>,
    tracer: Tracer,
    /// Schedule decision stream (event tie-breaks). Distinct from `seq`,
    /// which keys fault-injection draws and must stay untouched so a
    /// seeded fault plan reproduces bit-identically under any schedule.
    picker: Picker,
    now: SimTime,
    seq: u64,
    pending_msgs: u64,
    report: RunReport,
}

impl<'c> Des<'c> {
    fn new(
        config: &'c MachineConfig,
        cost: &'c CostModel,
        prepared: &Prepared,
        st: &'c mut DesState,
    ) -> Self {
        debug_assert!(st.is_over(prepared.map()));
        // Clear what the last run left: marker rows, events a failed
        // group never fired, outbox occupancy on its clock. The visited
        // tables, the arrival arena and the MU and CU timelines restart
        // at every group.
        st.regions.iter_mut().for_each(Region::reset);
        st.events.clear();
        st.outbox.iter_mut().for_each(VecDeque::clear);
        let report = RunReport {
            partition: Some(prepared.partition_stats().clone()),
            ..RunReport::default()
        };
        Des {
            config,
            cost,
            st,
            bus: BusModel::new(),
            sync: TieredSyncModel::new(config.pe_count()),
            perf: config
                .instrument
                .then(|| PerfCollector::new(config.pe_count(), 1 << 16)),
            injector: config
                .fault_plan
                .clone()
                .map(crate::inject::FaultInjector::new),
            tracer: Tracer::from_config(config.trace.as_ref(), config.clusters),
            picker: Picker::new(config.schedule, CONTROL_STREAM),
            now: 0,
            seq: 0,
            pending_msgs: 0,
            report,
        }
    }

    /// Hypercube hops between two clusters of this machine.
    fn hops(&self, from: usize, to: usize) -> usize {
        self.st.hops[from * self.config.clusters + to] as usize
    }

    /// The delivery lane of `cluster`'s messages that cross `hops` hops.
    fn link_lane(&self, cluster: usize, hops: usize) -> usize {
        self.st.mu_lanes[self.config.clusters] + cluster * self.st.diameter + hops - 1
    }

    fn finish(mut self) -> RunReport {
        self.report.total_ns = self.now;
        self.report.schedule_digest = self.picker.digest();
        if let Some(inj) = &self.injector {
            self.report.faults = inj.report();
        }
        self.report.trace = self.tracer.report();
        self.report
    }

    /// Reports an event on the performance-collection network. The PE
    /// resumes immediately; only the serial-link shift and FIFO are
    /// modelled.
    fn record_perf(&mut self, code: u8) {
        if let Some(pc) = &mut self.perf {
            match pc.record(0, self.now, code, self.report.barriers as u32) {
                Some(_) => self.report.perf_events += 1,
                None => self.report.perf_dropped += 1,
            }
        }
    }

    /// Executes one non-propagate instruction with barrier-stable
    /// markers.
    fn exec_instr(
        &mut self,
        network: &mut NetAccess<'_>,
        instr: &snap_isa::Instruction,
    ) -> Result<(), CoreError> {
        let start = self.now;
        let class = instr.class();
        self.tracer.phase_start(phase_of(class), Stamp::Sim(start));
        let out = network.exec(instr, &mut self.st.regions)?;
        self.account_instr(class, out, start);
        Ok(())
    }

    /// Converts one instruction's work counts into simulated time and
    /// report entries.
    fn account_instr(&mut self, class: InstrClass, out: SingleOutcome, start: SimTime) {
        let items: usize = out.work.iter().map(|w| w.items).sum();
        match class {
            InstrClass::Maintenance => {
                // Controller housekeeping; no broadcast to the array.
                self.now += self.cost.pcp_ns
                    + self.cost.maintenance_ns * out.maintenance_ops.max(1) as SimTime;
            }
            InstrClass::Collect => {
                let bcast = self.cost.broadcast_ns;
                self.bus.broadcast(self.now, 2, bcast / 2);
                self.report.overhead.broadcast_ns += bcast;
                let ns = self.cost.collect_ns(self.config.clusters, items);
                self.report.overhead.collect_ns += ns;
                self.now += self.cost.pcp_ns + bcast + ns;
            }
            InstrClass::Barrier => {
                self.barrier();
            }
            InstrClass::Search | InstrClass::Boolean | InstrClass::SetClear => {
                let bcast = self.cost.broadcast_ns;
                self.bus.broadcast(self.now, 2, bcast / 2);
                self.report.overhead.broadcast_ns += bcast;
                let t0 = self.now + bcast;
                // Each cluster executes its local part on one MU.
                let done = out
                    .work
                    .iter()
                    .map(|w| {
                        let work_ns = match class {
                            InstrClass::Search => {
                                w.scans as SimTime * self.cost.link_scan_ns
                                    + w.value_ops as SimTime * self.cost.value_op_ns
                            }
                            _ => {
                                w.words as SimTime * self.cost.word_op_ns
                                    + w.value_ops as SimTime * self.cost.value_op_ns
                            }
                        };
                        t0 + self.cost.pu_decode_ns + work_ns
                    })
                    .max()
                    .unwrap_or(t0);
                self.now = done + self.cost.pcp_ns;
            }
            InstrClass::Propagate => unreachable!("plan puts propagates in groups"),
        }
        if let Some(c) = out.collect {
            self.report.collects.push(c);
        }
        self.report.record(class, self.now - start);
        self.record_perf(class as u8);
        self.tracer.phase_end(Stamp::Sim(self.now));
    }

    /// Executes an overlapped group of propagations, then barriers.
    fn exec_group(
        &mut self,
        network: &SemanticNetwork,
        specs: &[PropSpec],
    ) -> Result<(), CoreError> {
        let registers = specs.iter().map(|s| (s.source, s.target));
        self.st.regions[0].check_group(registers)?;
        let start = self.now;
        self.tracer
            .phase_start(PhaseKind::Propagate, Stamp::Sim(start));
        // Broadcast each PROPAGATE of the group over the bus.
        for _ in specs {
            self.bus.broadcast(self.now, 2, self.cost.broadcast_ns / 2);
            self.report.overhead.broadcast_ns += self.cost.broadcast_ns;
            self.now += self.cost.broadcast_ns;
        }
        let t0 = self.now + self.cost.pu_decode_ns;
        // Reset MU/CU timelines to the phase start (they were drained by
        // the previous barrier).
        for mus in &mut self.st.mu_free {
            mus.iter_mut().for_each(|t| *t = t0);
        }
        self.st.cu_free.iter_mut().for_each(|t| *t = t0);

        let phase_end = if self.config.lockstep_waves {
            self.run_group_lockstep(network, specs, t0)?
        } else {
            self.run_group_events(network, specs, t0)?
        };

        let phase_ns = phase_end.saturating_sub(start);
        let share = phase_ns / specs.len() as SimTime;
        for _ in specs {
            self.report.record(InstrClass::Propagate, share);
        }
        self.now = phase_end;
        self.tracer.phase_end(Stamp::Sim(self.now));
        self.tracer
            .phase_start(PhaseKind::Barrier, Stamp::Sim(self.now));
        self.barrier();
        self.tracer.phase_end(Stamp::Sim(self.now));
        Ok(())
    }

    /// MIMD propagation: the normal SNAP-1 mode.
    fn run_group_events(
        &mut self,
        network: &SemanticNetwork,
        specs: &[PropSpec],
        t0: SimTime,
    ) -> Result<SimTime, CoreError> {
        debug_assert!(
            self.st.events.is_empty(),
            "the previous group drained its events"
        );
        self.st.visited.reset();
        let mut phase_end = t0;
        self.st.expanded.clear();

        // Seed: every cluster scans its marker status table for sources.
        for spec in specs {
            let mut alpha = 0u64;
            for c in 0..self.st.regions.len() {
                let sources: Vec<_> = self.st.regions[c].seeds(spec.source)?.collect();
                alpha += sources.len() as u64;
                for (node, value) in sources {
                    if self
                        .st
                        .visited
                        .should_expand(spec.prop, 0, node, value, node)
                    {
                        let task = PropTask {
                            prop: spec.prop,
                            node,
                            state: 0,
                            value,
                            origin: node,
                            level: 0,
                        };
                        self.schedule_task(network, specs, c, task, t0);
                    }
                }
            }
            self.report.alpha_per_propagate.push(alpha);
        }

        while let Some((ev_time, kind)) = self.st.events.pop(&mut self.picker) {
            phase_end = phase_end.max(ev_time);
            match kind {
                EventKind::Completion {
                    cluster,
                    task,
                    arrivals,
                } => {
                    self.report.expansions += 1;
                    self.tracer.expansion(cluster as u16);
                    if task.level >= self.config.max_hops {
                        self.sync.consumed(task.level.min(63));
                        continue;
                    }
                    // By index: delivering schedules more expansions,
                    // which append to the arena.
                    for at in arrivals.0..arrivals.1 {
                        let arrival = self.st.expanded[at as usize];
                        let level = task.level + 1;
                        self.report.max_propagation_depth =
                            self.report.max_propagation_depth.max(level);
                        let next = PropTask {
                            prop: task.prop,
                            node: arrival.node,
                            state: arrival.state,
                            value: arrival.value,
                            origin: task.origin,
                            level,
                        };
                        let dest = self.st.map.cluster_of(arrival.node).index();
                        if dest == cluster {
                            self.deliver_local(network, specs, dest, next, ev_time)?;
                        } else {
                            // Off-cluster: CU serializes, hypercube carries.
                            self.pending_msgs += 1;
                            self.report.traffic.total_messages += 1;
                            let hops = self.hops(cluster, dest);
                            self.report.traffic.total_hops += hops as u64;
                            // The outbox absorbs the burst; when full,
                            // the sender blocks until a delivery frees a
                            // slot (§II-C).
                            let capacity = self.config.cu_outbox_capacity;
                            let mut ready = ev_time;
                            let mut blocked = false;
                            {
                                let ob = &mut self.st.outbox[cluster];
                                while ob.front().is_some_and(|&t| t <= ev_time) {
                                    ob.pop_front();
                                }
                                if ob.len() >= capacity {
                                    let freed = ob.pop_front().expect("full outbox is nonempty");
                                    ready = ready.max(freed);
                                    blocked = true;
                                }
                            }
                            if blocked {
                                self.report.traffic.blocked_sends += 1;
                            }
                            let mut cu_start = ready.max(self.st.cu_free[cluster]);
                            if let Some(inj) = &self.injector {
                                // Arbiter starvation delays the CU grant.
                                let starve = inj.starvation_ns(cluster as u8, self.seq);
                                if starve > 0 {
                                    self.tracer.fault(
                                        cluster as u16,
                                        FaultKind::Starvation,
                                        Stamp::Sim(cu_start),
                                    );
                                }
                                cu_start += starve;
                            }
                            // CU grant decision: an idle CU grants at
                            // once; a busy (or starved) one defers.
                            self.tracer.arbiter(
                                cluster as u16,
                                cu_start - ready,
                                Stamp::Sim(cu_start),
                            );
                            let cu_done = cu_start + self.cost.cu_service_ns;
                            self.st.cu_free[cluster] = cu_done;
                            let wire = hops as SimTime * self.cost.hop_ns
                                + hops.saturating_sub(1) as SimTime * self.cost.cu_service_ns;
                            let mut deliver = cu_done + wire;
                            let mut duplicated = false;
                            self.tracer.msg_send(
                                cluster as u16,
                                dest as u16,
                                hops.min(u8::MAX as usize) as u8,
                                Stamp::Sim(ev_time),
                            );
                            if let Some(inj) = &self.injector {
                                let fate = inj.fate(cluster as u8, dest as u8, self.seq);
                                if fate.corrupted {
                                    inj.note_detected_corruption();
                                    self.tracer.fault(
                                        cluster as u16,
                                        FaultKind::Corruption,
                                        Stamp::Sim(deliver),
                                    );
                                } else if fate.dropped {
                                    self.tracer.fault(
                                        cluster as u16,
                                        FaultKind::Drop,
                                        Stamp::Sim(deliver),
                                    );
                                }
                                if fate.dropped || fate.corrupted {
                                    // Modelled reliable link layer: the
                                    // first copy is lost (or discarded on
                                    // checksum mismatch) and the
                                    // retransmission pays one more CU
                                    // service plus wire traversal.
                                    inj.note_retry();
                                    self.tracer.msg_retry(
                                        cluster as u16,
                                        dest as u16,
                                        Stamp::Sim(deliver),
                                    );
                                    deliver += self.cost.cu_service_ns + wire;
                                }
                                if fate.delay_ns > 0 {
                                    self.tracer.fault(
                                        cluster as u16,
                                        FaultKind::Delay,
                                        Stamp::Sim(deliver),
                                    );
                                }
                                deliver += fate.delay_ns;
                                duplicated = fate.duplicated;
                            }
                            // Deliveries leave the CU nearly in order
                            // (they differ by hop count and fault delay),
                            // so the slot is at or near the back.
                            let ob = &mut self.st.outbox[cluster];
                            let at = ob.iter().rposition(|&t| t <= deliver).map_or(0, |i| i + 1);
                            ob.insert(at, deliver);
                            if self.tracer.is_enabled() {
                                self.tracer.queue_depth(
                                    cluster as u16,
                                    self.st.outbox[cluster].len() as u64,
                                    Stamp::Sim(ev_time),
                                );
                            }
                            self.tracer
                                .msg_recv(cluster as u16, dest as u16, Stamp::Sim(deliver));
                            self.report.overhead.communication_ns += deliver - ev_time;
                            // Fault delays and retransmissions leave the
                            // lane's order; the queue takes those singly.
                            let lane = self.link_lane(cluster, hops);
                            self.sync.created(level.min(63));
                            self.seq += 1;
                            self.st.events.push_lane(
                                lane,
                                deliver,
                                EventKind::Delivery {
                                    cluster: dest,
                                    task: next,
                                },
                                &mut self.picker,
                            );
                            if duplicated {
                                // The duplicate copy also arrives; the
                                // receiver's idempotent merge absorbs it.
                                if let Some(inj) = &self.injector {
                                    inj.note_detected_duplicate();
                                }
                                self.tracer.fault(
                                    cluster as u16,
                                    FaultKind::Duplicate,
                                    Stamp::Sim(deliver),
                                );
                                self.sync.created(level.min(63));
                                self.seq += 1;
                                self.st.events.push_lane(
                                    lane,
                                    deliver + self.cost.cu_service_ns,
                                    EventKind::Delivery {
                                        cluster: dest,
                                        task: next,
                                    },
                                    &mut self.picker,
                                );
                            }
                        }
                    }
                    self.sync.consumed(task.level.min(63));
                }
                EventKind::Delivery { cluster, task } => {
                    let level = task.level;
                    self.deliver_local(network, specs, cluster, task, ev_time)?;
                    self.sync.consumed(level.min(63));
                }
            }
        }
        debug_assert_eq!(self.sync.in_flight(), 0, "tiered counters drained");
        Ok(phase_end)
    }

    /// Applies an arrival at its home cluster and schedules the follow-on
    /// expansion if warranted.
    fn deliver_local(
        &mut self,
        network: &SemanticNetwork,
        specs: &[PropSpec],
        cluster: usize,
        task: PropTask,
        now: SimTime,
    ) -> Result<(), CoreError> {
        let spec = &specs[task.prop];
        let expand = apply_arrival(
            &mut self.st.regions[cluster],
            &mut self.st.visited,
            spec.target,
            task.prop,
            task.state,
            task.node,
            task.value,
            task.origin,
        )?;
        self.report.traffic.local_activations += 1;
        self.tracer.activation(cluster as u16);
        if expand {
            self.schedule_task(network, specs, cluster, task, now);
        }
        Ok(())
    }

    /// Assigns a task to the earliest-free MU of `cluster` and schedules
    /// its completion.
    fn schedule_task(
        &mut self,
        network: &SemanticNetwork,
        specs: &[PropSpec],
        cluster: usize,
        task: PropTask,
        ready: SimTime,
    ) {
        let spec = &specs[task.prop];
        let (segments, links_scanned) =
            expand_into(network, &spec.rule, spec.func, &task, &mut self.st.arrivals);
        maybe_plant_bug(&self.picker, &mut self.st.arrivals);
        let local_sets = self
            .st
            .arrivals
            .iter()
            .filter(|a| self.st.map.cluster_of(a.node).index() == cluster)
            .count();
        let first = self.st.expanded.len();
        self.st.expanded.extend_from_slice(&self.st.arrivals);
        let end = |len: usize| u32::try_from(len).expect("fewer than 2^32 arrivals per group");
        let arrivals = (end(first), end(self.st.expanded.len()));
        let mut dur = self
            .cost
            .expand_ns(segments, links_scanned, local_sets)
            .max(1);
        if let Some(inj) = &self.injector {
            // An injected PE stall lengthens this expansion's service.
            let stall = inj.stall_ns(cluster as u8, self.seq);
            if stall > 0 {
                self.tracer
                    .fault(cluster as u16, FaultKind::Stall, Stamp::Sim(ready));
            }
            dur += stall;
        }
        let mu_free = &mut self.st.mu_free[cluster];
        let mu = (0..mu_free.len())
            .min_by_key(|&i| mu_free[i])
            .expect("cluster has at least one MU");
        let start = ready.max(mu_free[mu]);
        let done = start + dur;
        mu_free[mu] = done;
        self.sync.created(task.level.min(63));
        self.seq += 1;
        self.st.events.push_lane(
            self.st.mu_lanes[cluster] + mu,
            done,
            EventKind::Completion {
                cluster,
                task,
                arrivals,
            },
            &mut self.picker,
        );
    }

    /// SIMD-only ablation: a global barrier plus controller round-trip
    /// after every propagation wave, the way the CM-2 had to iterate
    /// between controller and array on the critical path. Every member
    /// of the group advances in one shared wave, which the one-spec wave
    /// kernel cannot express (DESIGN.md "Propagation kernel").
    fn run_group_lockstep(
        &mut self,
        network: &SemanticNetwork,
        specs: &[PropSpec],
        t0: SimTime,
    ) -> Result<SimTime, CoreError> {
        self.st.visited.reset();
        // (cluster, task) pairs of the current wave.
        let mut wave: Vec<(usize, PropTask)> = Vec::new();
        for spec in specs {
            let mut alpha = 0u64;
            for c in 0..self.st.regions.len() {
                for (node, value) in self.st.regions[c].seeds(spec.source)? {
                    alpha += 1;
                    if self
                        .st
                        .visited
                        .should_expand(spec.prop, 0, node, value, node)
                    {
                        wave.push((
                            c,
                            PropTask {
                                prop: spec.prop,
                                node,
                                state: 0,
                                value,
                                origin: node,
                                level: 0,
                            },
                        ));
                    }
                }
            }
            self.report.alpha_per_propagate.push(alpha);
        }

        let mut wave_start = t0;
        let mut next_wave = Vec::new();
        let mut arrivals = Vec::new();
        while !wave.is_empty() {
            for mus in &mut self.st.mu_free {
                mus.fill(wave_start);
            }
            let mut wave_end = wave_start;
            for (cluster, task) in wave.drain(..) {
                let spec = &specs[task.prop];
                let (segments, links_scanned) =
                    expand_into(network, &spec.rule, spec.func, &task, &mut arrivals);
                self.report.expansions += 1;
                self.tracer.expansion(cluster as u16);
                let dur = self
                    .cost
                    .expand_ns(segments, links_scanned, arrivals.len())
                    .max(1);
                let mu_free = &mut self.st.mu_free[cluster];
                let mu = (0..mu_free.len())
                    .min_by_key(|&i| mu_free[i])
                    .expect("cluster has at least one MU");
                let done = mu_free[mu] + dur;
                mu_free[mu] = done;
                wave_end = wave_end.max(done);
                if task.level >= self.config.max_hops {
                    continue;
                }
                for arrival in &arrivals {
                    let level = task.level + 1;
                    self.report.max_propagation_depth =
                        self.report.max_propagation_depth.max(level);
                    let dest = self.st.map.cluster_of(arrival.node).index();
                    if dest != cluster {
                        self.pending_msgs += 1;
                        self.report.traffic.total_messages += 1;
                        let hops = self.hops(cluster, dest);
                        self.report.traffic.total_hops += hops as u64;
                        let wire = self.cost.cu_service_ns
                            + hops as SimTime * self.cost.hop_ns
                            + hops.saturating_sub(1) as SimTime * self.cost.cu_service_ns;
                        wave_end = wave_end.max(done + wire);
                        self.report.overhead.communication_ns += wire;
                    }
                    let next = PropTask {
                        prop: task.prop,
                        node: arrival.node,
                        state: arrival.state,
                        value: arrival.value,
                        origin: task.origin,
                        level,
                    };
                    self.st.regions[dest].arrive(
                        spec.target,
                        next.node,
                        next.value,
                        next.origin,
                    )?;
                    self.report.traffic.local_activations += u64::from(dest == cluster);
                    self.tracer.activation(dest as u16);
                    if self.st.visited.should_expand(
                        next.prop,
                        next.state,
                        next.node,
                        next.value,
                        next.origin,
                    ) {
                        next_wave.push((dest, next));
                    }
                }
            }
            // Controller round-trip: global barrier + re-broadcast before
            // the next wave may start.
            let sync = self.cost.barrier_ns(self.config.pe_count());
            let rebroadcast = self.cost.broadcast_ns + self.cost.pcp_ns;
            self.report.overhead.sync_ns += sync;
            self.report.overhead.broadcast_ns += self.cost.broadcast_ns;
            self.report.barriers += 1;
            wave_start = wave_end + sync + rebroadcast;
            std::mem::swap(&mut wave, &mut next_wave);
        }
        Ok(wave_start)
    }

    /// The tiered barrier closing a propagation group.
    fn barrier(&mut self) {
        let ns = self.cost.barrier_ns(self.config.pe_count());
        self.now += ns;
        self.tracer
            .barrier_wait(CONTROLLER_TRACK, ns, Stamp::Sim(self.now));
        self.report.overhead.sync_ns += ns;
        self.report.barriers += 1;
        self.report
            .traffic
            .messages_per_sync
            .push(self.pending_msgs);
        self.pending_msgs = 0;
        self.record_perf(0xFF);
        debug_assert!(self.sync.is_complete(), "barrier with in-flight markers");
    }
}

#[cfg(test)]
mod tests {
    use super::run_exclusive as run;
    use super::*;
    use crate::engine::sequential;
    use snap_isa::{CombineFunc, PropRule, StepFunc};
    use snap_kb::{Color, Marker, NetworkConfig, NodeId, RelationType};

    fn chain_network(n: usize) -> SemanticNetwork {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let mut prev = None;
        for i in 0..n {
            let id = net.add_node(Color((i % 4) as u8)).unwrap();
            if let Some(p) = prev {
                net.add_link(p, RelationType(1), 1.0, id).unwrap();
            }
            prev = Some(id);
        }
        net
    }

    fn parse_like_program() -> Program {
        Program::builder()
            .search_color(Color(0), Marker::binary(1), 0.0)
            .search_color(Color(1), Marker::binary(2), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(3),
                PropRule::Star(RelationType(1)),
                StepFunc::AddWeight,
            )
            .propagate(
                Marker::binary(2),
                Marker::complex(4),
                PropRule::Star(RelationType(1)),
                StepFunc::AddWeight,
            )
            .and_marker(
                Marker::complex(3),
                Marker::complex(4),
                Marker::complex(5),
                CombineFunc::Min,
            )
            .collect_marker(Marker::complex(5))
            .build()
    }

    #[test]
    fn des_matches_sequential_results() {
        let program = parse_like_program();
        let mut net1 = chain_network(64);
        let mut net2 = chain_network(64);
        let seq = sequential::run_exclusive(
            &MachineConfig::snap1_eval(),
            &CostModel::snap1(),
            &mut net1,
            &program,
        )
        .unwrap();
        let des = run(
            &MachineConfig::snap1_eval(),
            &CostModel::snap1(),
            &mut net2,
            &program,
        )
        .unwrap();
        assert_eq!(seq.collects, des.collects);
    }

    #[test]
    fn more_clusters_reduce_propagation_time() {
        // A wide star: many independent sources propagate one hop.
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let hub_color = Color(2);
        for _ in 0..256 {
            let src = net.add_node(Color(0)).unwrap();
            let dst = net.add_node(hub_color).unwrap();
            net.add_link(src, RelationType(1), 1.0, dst).unwrap();
        }
        let program = Program::builder()
            .search_color(Color(0), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Once(RelationType(1)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        let cost = CostModel::snap1();
        let t1 = {
            let mut net = net.clone();
            run(&MachineConfig::uniform(1, 1), &cost, &mut net, &program)
                .unwrap()
                .time_of(InstrClass::Propagate)
        };
        let t16 = {
            let mut net = net.clone();
            run(&MachineConfig::uniform(16, 3), &cost, &mut net, &program)
                .unwrap()
                .time_of(InstrClass::Propagate)
        };
        assert!(
            t16 * 4 < t1,
            "16×3MU clusters should be ≫ faster: t1={t1} t16={t16}"
        );
    }

    #[test]
    fn messages_counted_per_sync_point() {
        let mut net = chain_network(32);
        let program = Program::builder()
            .search_node(NodeId(0), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Star(RelationType(1)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        // Round-robin over 4 clusters: every chain hop crosses clusters.
        let mut cfg = MachineConfig::uniform(4, 1);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        let report = run(&cfg, &CostModel::snap1(), &mut net, &program).unwrap();
        assert_eq!(
            report.traffic.messages_per_sync.len() as u64,
            report.barriers
        );
        assert_eq!(report.traffic.total_messages, 31);
        assert!(report.overhead.communication_ns > 0);
        assert!(report.overhead.sync_ns > 0);
        // Collect returns all 31 reached nodes.
        assert_eq!(report.collects[0].len(), 31);
    }

    #[test]
    fn lockstep_ablation_is_slower_and_equal_results() {
        let mut cfg = MachineConfig::uniform(4, 2);
        let cost = CostModel::snap1();
        let program = parse_like_program();
        let mut net1 = chain_network(64);
        let normal = run(&cfg, &cost, &mut net1, &program).unwrap();
        cfg.lockstep_waves = true;
        let mut net2 = chain_network(64);
        let lockstep = run(&cfg, &cost, &mut net2, &program).unwrap();
        assert_eq!(normal.collects, lockstep.collects);
        assert!(
            lockstep.total_ns > normal.total_ns,
            "per-wave round-trips must cost time: {} vs {}",
            lockstep.total_ns,
            normal.total_ns
        );
    }

    #[test]
    fn tiny_outbox_blocks_senders_and_slows_the_run() {
        // A single source bursting at many off-cluster destinations.
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let hub = net.add_node(Color(1)).unwrap();
        for _ in 0..120 {
            let leaf = net.add_node(Color(0)).unwrap();
            net.add_link(hub, RelationType(1), 1.0, leaf).unwrap();
        }
        let program = Program::builder()
            .search_color(Color(1), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Once(RelationType(1)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        let mut cfg = MachineConfig::uniform(4, 1);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        let roomy = {
            let mut net = net.clone();
            run(&cfg, &CostModel::snap1(), &mut net, &program).unwrap()
        };
        assert_eq!(
            roomy.traffic.blocked_sends, 0,
            "1024 slots absorb the burst"
        );
        cfg.cu_outbox_capacity = 4;
        let cramped = {
            let mut net = net.clone();
            run(&cfg, &CostModel::snap1(), &mut net, &program).unwrap()
        };
        assert!(cramped.traffic.blocked_sends > 0, "4 slots overflow");
        assert_eq!(roomy.collects, cramped.collects, "results unchanged");
        assert!(
            cramped.total_ns >= roomy.total_ns,
            "blocking cannot make the run faster"
        );
    }

    #[test]
    fn instrumentation_records_events_without_perturbing_results() {
        let mut cfg = MachineConfig::uniform(4, 2);
        let program = parse_like_program();
        let mut n1 = chain_network(64);
        let plain = run(&cfg, &CostModel::snap1(), &mut n1, &program).unwrap();
        cfg.instrument = true;
        let mut n2 = chain_network(64);
        let instrumented = run(&cfg, &CostModel::snap1(), &mut n2, &program).unwrap();
        assert_eq!(plain.collects, instrumented.collects);
        assert_eq!(plain.total_ns, instrumented.total_ns, "separate network");
        assert_eq!(plain.perf_events, 0);
        // One event per non-propagate instruction + one per barrier.
        assert_eq!(
            instrumented.perf_events,
            plain.instruction_count() - plain.count_of(InstrClass::Propagate) + plain.barriers
        );
        assert_eq!(instrumented.perf_dropped, 0);
    }

    #[test]
    fn injected_faults_stretch_time_but_not_results() {
        let program = parse_like_program();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        let mut net1 = chain_network(64);
        let clean = run(&cfg, &CostModel::snap1(), &mut net1, &program).unwrap();
        cfg.fault_plan = Some(
            crate::plan::FaultPlan::seeded(9)
                .drops(0.2)
                .duplicates(0.1)
                .delays(0.2, 10_000)
                .corruptions(0.1)
                .stalls(0.2, 5_000),
        );
        let mut net2 = chain_network(64);
        let faulty = run(&cfg, &CostModel::snap1(), &mut net2, &program).unwrap();
        assert_eq!(
            clean.collects, faulty.collects,
            "faults must not change results"
        );
        assert!(faulty.faults.total_injected() > 0);
        assert!(faulty.faults.retries > 0);
        assert!(
            faulty.total_ns > clean.total_ns,
            "retransmits and stalls cost simulated time: {} vs {}",
            faulty.total_ns,
            clean.total_ns
        );
        assert!(clean.faults.is_empty());
    }

    #[test]
    fn faulty_des_runs_are_bit_identical_per_seed() {
        let program = parse_like_program();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        cfg.fault_plan = Some(
            crate::plan::FaultPlan::seeded(77)
                .drops(0.15)
                .delays(0.2, 8_000)
                .corruptions(0.1),
        );
        let mut net1 = chain_network(64);
        let a = run(&cfg, &CostModel::snap1(), &mut net1, &program).unwrap();
        let mut net2 = chain_network(64);
        let b = run(&cfg, &CostModel::snap1(), &mut net2, &program).unwrap();
        assert_eq!(a, b, "same seed must reproduce the whole report");
        cfg.fault_plan = Some(crate::plan::FaultPlan::seeded(78).drops(0.15));
        let mut net3 = chain_network(64);
        let c = run(&cfg, &CostModel::snap1(), &mut net3, &program).unwrap();
        assert_eq!(a.collects, c.collects);
        assert_ne!(
            a.faults, c.faults,
            "a different seed should draw a different schedule"
        );
    }

    #[test]
    fn a_pooled_state_runs_like_a_fresh_one_after_any_run() {
        // A group whose first arrival fails leaves events queued, visited
        // tables written and markers set on the state; the outbox and the
        // arrival arena keep the last run's times and arrivals. None of
        // it may reach the next run.
        let fails_mid_group = Program::builder()
            .search_color(Color(0), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(70),
                PropRule::Star(RelationType(1)),
                StepFunc::AddWeight,
            )
            .build();
        let from_node_0 = Program::builder()
            .search_node(NodeId(0), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Star(RelationType(1)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        let programs = [
            parse_like_program(),
            fails_mid_group,
            from_node_0,
            parse_like_program(),
        ];
        let mut small_outbox = MachineConfig::uniform(4, 2);
        small_outbox.partition = snap_kb::PartitionScheme::RoundRobin;
        small_outbox.cu_outbox_capacity = 2;
        let mut faulty = small_outbox.clone();
        faulty.fault_plan = Some(
            crate::plan::FaultPlan::seeded(5)
                .drops(0.2)
                .delays(0.2, 8_000)
                .stalls(0.1, 3_000),
        );
        let mut lockstep = MachineConfig::uniform(4, 2);
        lockstep.lockstep_waves = true;
        let cost = CostModel::snap1();
        for (label, cfg) in [
            ("plain", MachineConfig::uniform(4, 2)),
            ("small outbox", small_outbox),
            ("faulty", faulty),
            ("lockstep", lockstep),
        ] {
            let mut net = chain_network(64);
            net.flush_links();
            let prepared = Prepared::for_snapshot(&net, cfg.clusters, cfg.partition).unwrap();
            let mut pooled = DesState::new(&cfg, &prepared, &net);
            for (i, program) in programs.iter().enumerate() {
                let mut access = NetAccess::Shared(&net);
                let warm = pooled.run(&cfg, &cost, &mut access, &prepared, program);
                let fresh = run(&cfg, &cost, &mut net.clone(), program);
                assert_eq!(warm, fresh, "{label}: program {i}");
            }
        }
    }

    #[test]
    fn alpha_recorded_per_propagate() {
        let mut net = chain_network(16);
        let program = parse_like_program();
        let report = run(
            &MachineConfig::snap1_eval(),
            &CostModel::snap1(),
            &mut net,
            &program,
        )
        .unwrap();
        assert_eq!(report.alpha_per_propagate.len(), 2);
        assert_eq!(report.alpha_per_propagate[0], 4); // colors cycle 0..4 over 16 nodes
    }
}
