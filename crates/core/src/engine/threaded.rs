//! The threaded parallel engine: one real thread per cluster.
//!
//! Cluster threads own their regions and exchange marker messages
//! through the [`Fabric`]; the controller (the calling thread)
//! broadcasts commands over channels, overlaps independent propagations,
//! and closes each propagation group with the tiered barrier
//! ([`TieredBarrier`]) — the same protocol the hardware
//! implements with its AND-tree and counter network. Logical results are
//! identical to the other engines; timing is wall-clock.
//!
//! # Resilience
//!
//! When a [`FaultPlan`](crate::FaultPlan) is attached, marker traffic runs a
//! resilient protocol instead of trusting the channels:
//!
//! * off-cluster markers bound for the same destination cluster are
//!   coalesced into one sequence-numbered, checksummed batch
//!   [`Envelope`] per expansion; receivers discard corrupted envelopes,
//!   suppress duplicates, and acknowledge everything else over the
//!   (uncounted but still faultable) control path — one ack and one
//!   barrier token per batch;
//! * senders hold each message's barrier created-token until the ack
//!   arrives, retransmitting with bounded exponential backoff
//!   ([`RetryPolicy`]) — so a dropped message can never produce a false
//!   termination, only a retry;
//! * the controller waits on the barrier through a watchdog
//!   ([`TieredBarrier::wait_complete_timeout`]) that distinguishes
//!   lost in-flight messages from wedged PEs instead of hanging;
//! * a worker-thread panic is caught, the dead cluster's region (as
//!   checkpointed at the phase start) is adopted by a live hypercube
//!   neighbor, and the propagation phase is replayed under a new epoch —
//!   graceful degradation in place of a crashed run.

use crate::config::MachineConfig;
use crate::controller::{PlanBuf, PlanOp, PropSpec};
use crate::engine::common::{
    all_active, exec_maintenance, exec_single_shared_into, phase_of, sorted_collect, SingleOutcome,
};
use crate::engine::sched::{
    apply_arrival, maybe_plant_bug, Picker, ReadyQueue, ScheduleStrategy, CONTROL_STREAM,
};
use crate::envelope::{Corruptible, DedupTable, Envelope};
use crate::error::CoreError;
use crate::fabric::{Fabric, Inbox};
use crate::inject::{FaultInjector, RetryPolicy};
use crate::lock_unpoisoned;
use crate::obs::{FaultKind, PhaseKind, Tracer, CONTROLLER_TRACK};
use crate::prepared::Prepared;
use crate::propagate::{expand_into, PropArrival, PropTask, VisitedMap};
use crate::region::{Region, RegionMap};
use crate::report::{CollectOutput, RunReport};
use crate::sync::{spin_for, TieredBarrier};
use crate::topology::HypercubeTopology;
use snap_isa::{InstrClass, Instruction, Program};
use snap_kb::{ClusterId, Marker, NodeId, SemanticNetwork};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a reply from a worker may reasonably take; exceeding it
/// means the worker died or wedged, and the run fails typed rather than
/// hanging.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Dead-air window after which the barrier watchdog classifies a stall
/// when faults are being injected (must comfortably exceed the longest
/// injected delay plus the retry backoff cap).
const FAULTY_STALL_WINDOW: Duration = Duration::from_millis(400);

/// Dead-air window for fault-free runs: nothing should ever stall, so
/// this is pure hang protection.
const CLEAN_STALL_WINDOW: Duration = Duration::from_secs(2);

/// Consecutive dead-air windows (with no crash to recover from) before
/// the controller gives up on a phase.
const MAX_STALL_STRIKES: u32 = 3;

/// Phase replays (cluster recoveries) before the controller declares the
/// run unrecoverable.
const MAX_REPLAYS: u32 = 4;

/// Commands from the controller to the cluster workers.
///
/// Commands that read the knowledge base carry the controller's current
/// network snapshot as an `Arc` clone: workers drop the clone before
/// replying, so between instructions the controller holds the only
/// reference and maintenance can mutate in place.
enum Cmd {
    /// Execute one non-propagate, non-maintenance instruction over the
    /// regions this worker holds; reply `Collected` with the local part
    /// of a retrieval, `Done` otherwise.
    Exec(Arc<Instruction>, Arc<SemanticNetwork>),
    /// Report the nodes where a marker is active (marker-node
    /// maintenance support); reply `Active`.
    ActiveNodes(Marker),
    /// Enter propagation mode for these overlapped specs, under the
    /// given recovery epoch, over the given network snapshot.
    Prop {
        specs: Arc<Vec<PropSpec>>,
        epoch: u32,
        net: Arc<SemanticNetwork>,
    },
    /// Leave propagation mode (sent after the barrier completes).
    PhaseEnd,
    /// Abandon the current propagation phase: discard in-flight state,
    /// restore the phase-start checkpoint, reply `Done`.
    Abort,
    /// Adopt a dead neighbor's region (recovery); reply `Done`.
    Adopt(Box<Region>),
    /// Stop the worker.
    Shutdown,
}

/// Replies from workers to the controller.
enum Reply {
    Done,
    Collected(CollectOutput),
    /// The nodes asked for, or why the marker could not be read.
    Active(Result<Vec<NodeId>, CoreError>),
    /// A worker thread panicked; sent by its catch-unwind wrapper.
    Crashed(usize),
}

/// Messages crossing the fabric during propagation.
#[derive(Debug, Clone)]
enum NetMsg {
    /// An enveloped batch of marker tasks, all bound for the same
    /// destination cluster: one checksum, one ack, one barrier token
    /// for the whole batch.
    Marker(Envelope<Vec<PropTask>>),
    /// Receiver → sender acknowledgement, echoing the envelope checksum
    /// so a corrupted ack cannot acknowledge the wrong payload.
    Ack { seq: u64, checksum: u64 },
}

impl Corruptible for NetMsg {
    fn corrupt(&mut self, salt: u64) {
        match self {
            NetMsg::Marker(env) => env.corrupt_in_flight(salt),
            NetMsg::Ack { checksum, .. } => *checksum ^= salt | 1,
        }
    }
}

/// An unacknowledged envelope awaiting its ack or retransmission.
struct PendingSend {
    env: Envelope<Vec<PropTask>>,
    /// Destination cluster — every task in the batch shares it.
    dest: ClusterId,
    attempts: u32,
    due: Instant,
}

/// How a worker left its propagation phase.
enum PhaseExit {
    /// Barrier completed; `PhaseEnd` received.
    Ended,
    /// Controller aborted the phase for a recovery replay.
    Aborted,
    /// Shutdown while in the phase.
    Shutdown,
}

/// Executes `program` on real threads over the network snapshot
/// `shared`, and hands the snapshot back beside the report: the same
/// `Arc` unless a maintenance instruction forked it.
///
/// The caller has flushed staged relation-table inserts and built
/// `prepared` from the flushed network, so every worker's expansions
/// take the indexed CSR fast path. Workers read the snapshot through
/// `Arc` clones shipped with each command — the propagation hot path
/// touches no lock at all — and drop the clone before replying, so
/// between instructions the controller holds the only reference the
/// run took, and maintenance mutates in place through `Arc::make_mut`
/// when the caller holds none.
pub(crate) fn run(
    config: &MachineConfig,
    mut shared: Arc<SemanticNetwork>,
    prepared: &Prepared,
    program: &Program,
) -> (Arc<SemanticNetwork>, Result<RunReport, CoreError>) {
    config.validate();
    let started = Instant::now();
    let injector = config
        .fault_plan
        .clone()
        .map(|plan| Arc::new(FaultInjector::new(plan)));
    let map = prepared.map();
    debug_assert_eq!(map.cluster_count(), config.clusters);
    let topology = HypercubeTopology::covering(config.clusters);
    let tracer = Tracer::from_config(config.trace.as_ref(), config.clusters);
    let (fabric, mut inboxes) =
        Fabric::<NetMsg>::with_instruments(topology, injector.clone(), tracer.clone());
    // The covering topology may span more address slots than the machine
    // has clusters (e.g. 5 clusters on a 4x2 cube); the fabric allocates
    // one channel per slot. Keep only the first `clusters` inboxes so
    // the reversed pop below pairs worker c with inbox c — a worker
    // listening on the wrong slot silently strands every message sent to
    // it, which the barrier watchdog then reports as lost. Each inbox
    // closes with its worker, so a dead worker's traffic is lost at the
    // send, like any other lost message.
    inboxes.truncate(config.clusters);
    let barrier = TieredBarrier::with_instruments(injector.clone(), tracer.clone());
    // A fuzzed schedule additionally permutes fabric delivery order:
    // counted marker envelopes may be held back one-deep per destination
    // until overtaken or flushed by an idle worker.
    if let ScheduleStrategy::Fuzzed { seed, .. } = config.schedule {
        fabric.enable_reorder(seed);
    }
    // owners[c] = worker currently holding cluster c's region.
    let owners: Arc<Vec<AtomicUsize>> =
        Arc::new((0..config.clusters).map(AtomicUsize::new).collect());
    let checkpoints: Arc<Checkpoints> = Arc::new(Mutex::new(vec![None; config.clusters]));
    let first_error: Mutex<Option<CoreError>> = Mutex::new(None);
    let tasks_sent = Arc::new(AtomicU64::new(0));

    let (reply_tx, reply_rx) = channel::<Reply>();
    let (cmd_txs, mut cmd_rxs): (Vec<Sender<Cmd>>, Vec<Receiver<Cmd>>) =
        (0..config.clusters).map(|_| channel()).unzip();

    let mut plan = PlanBuf::new();
    plan.plan(program);

    let mut controller = Controller {
        clusters: config.clusters,
        cmd_txs,
        reply_rx,
        live: vec![true; config.clusters],
        owners: Arc::clone(&owners),
        checkpoints: Arc::clone(&checkpoints),
        barrier: Arc::clone(&barrier),
        fabric: fabric.clone(),
        injector: injector.clone(),
        epoch: 0,
        pending_crash: None,
        report: RunReport::default(),
        msgs_before_phase: 0,
        replays: 0,
        tracer: tracer.clone(),
        picker: Picker::new(config.schedule, CONTROL_STREAM),
    };

    let scope_result = std::thread::scope(|scope| -> Result<(), CoreError> {
        // Spawn one worker per cluster, each under a panic catcher that
        // reports the crash instead of aborting the whole scope.
        for c in (0..config.clusters).rev() {
            #[allow(
                clippy::expect_used,
                reason = "one command channel and one inbox were made per cluster"
            )]
            let worker = Worker {
                cluster: c,
                max_hops: config.max_hops,
                regions: vec![Region::new(ClusterId(c as u8), Arc::clone(map), &shared)],
                outcome: SingleOutcome::default(),
                map: Arc::clone(map),
                cmd_rx: cmd_rxs.pop().expect("one rx per cluster"),
                reply_tx: reply_tx.clone(),
                fabric: fabric.clone(),
                inbox: inboxes.pop().expect("one inbox per cluster"),
                barrier: Arc::clone(&barrier),
                first_error: &first_error,
                injector: injector.clone(),
                retry: RetryPolicy::default(),
                owners: Arc::clone(&owners),
                checkpoints: Arc::clone(&checkpoints),
                epoch: 0,
                next_seq: 0,
                pending: HashMap::new(),
                dedup: DedupTable::new(),
                steps: 0,
                arrivals: Vec::new(),
                queue: ReadyQueue::new(),
                visited: VisitedMap::dense(shared.node_count()),
                picker: Picker::new(config.schedule, c as u64 + 1),
                batch_bufs: vec![Vec::new(); config.clusters],
                batch_order: Vec::new(),
                tasks_sent: Arc::clone(&tasks_sent),
                tracer: tracer.clone(),
            };
            let crash_tx = reply_tx.clone();
            scope.spawn(move || {
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || worker.run()));
                if caught.is_err() {
                    let _ = crash_tx.send(Reply::Crashed(c));
                }
            });
        }
        drop(reply_tx);

        let result = (|| -> Result<(), CoreError> {
            for &op in plan.ops() {
                match op {
                    PlanOp::Instr(idx) => {
                        let instr = &program.instructions()[idx];
                        tracer.phase_start(phase_of(instr.class()), tracer.wall_stamp());
                        let t0 = Instant::now();
                        controller.exec_instr(instr, &mut shared)?;
                        check_error(&first_error)?;
                        let ns = t0.elapsed().as_nanos() as u64;
                        controller.report.record(instr.class(), ns);
                        tracer.phase_end(tracer.wall_stamp());
                    }
                    PlanOp::Group { start, len } => {
                        let t0 = Instant::now();
                        let members = plan.members(start, len);
                        let specs = Arc::new(PropSpec::compile_group(program, members));
                        controller.run_phase(&specs, &shared, &first_error)?;
                        let ns = t0.elapsed().as_nanos() as u64;
                        for _ in members {
                            controller
                                .report
                                .record(InstrClass::Propagate, ns / u64::from(len));
                        }
                    }
                }
            }
            Ok(())
        })();
        for (c, tx) in controller.cmd_txs.iter().enumerate() {
            if controller.live[c] {
                let _ = tx.send(Cmd::Shutdown);
            }
        }
        result
    });
    // Dropping the command channels releases any snapshot clones
    // stranded in a dead worker's queue before the caller inspects the
    // Arc's reference count.
    controller.cmd_txs.clear();
    if let Err(e) = scope_result {
        return (shared, Err(e));
    }

    let mut report = controller.report;
    // Replay fingerprint: the control stream's decisions only. Worker
    // streams are individually deterministic per seed, but which worker
    // draws how many decisions depends on real thread timing.
    report.schedule_digest = controller.picker.digest();
    report.partition = Some(prepared.partition_stats().clone());
    report.traffic.total_messages = fabric.messages();
    report.traffic.total_hops = fabric.hops();
    report.traffic.tasks_sent = tasks_sent.load(Ordering::Relaxed);
    if let Some(inj) = &injector {
        report.faults = inj.report();
    }
    report.trace = tracer.report();
    report.wall_ns = started.elapsed().as_nanos();
    (shared, Ok(report))
}

/// Phase-start copies of every region, indexed by cluster. A worker
/// that dies mid-phase may die holding this lock; each slot is replaced
/// whole, so the poison flag is ignored and recovery reads what is there.
type Checkpoints = Mutex<Vec<Option<Region>>>;

fn save_checkpoints(checkpoints: &Checkpoints, regions: &[Region]) {
    let mut cps = lock_unpoisoned(checkpoints);
    for r in regions {
        cps[r.cluster().index()] = Some(r.clone());
    }
}

fn restore_checkpoints(checkpoints: &Checkpoints, regions: &mut [Region]) {
    let cps = lock_unpoisoned(checkpoints);
    for r in regions {
        if let Some(cp) = &cps[r.cluster().index()] {
            *r = cp.clone();
        }
    }
}

fn check_error(slot: &Mutex<Option<CoreError>>) -> Result<(), CoreError> {
    match lock_unpoisoned(slot).take() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Controller-side state: command routing, liveness, and recovery.
struct Controller {
    clusters: usize,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rx: Receiver<Reply>,
    live: Vec<bool>,
    owners: Arc<Vec<AtomicUsize>>,
    checkpoints: Arc<Checkpoints>,
    barrier: Arc<TieredBarrier>,
    fabric: Fabric<NetMsg>,
    injector: Option<Arc<FaultInjector>>,
    epoch: u32,
    pending_crash: Option<usize>,
    report: RunReport,
    msgs_before_phase: u64,
    replays: u32,
    tracer: Tracer,
    /// Control-stream schedule decisions (close re-checks).
    picker: Picker,
}

impl Controller {
    fn live_count(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }

    /// Sends `cmd` to worker `c`, converting a closed channel into the
    /// typed worker failure it signifies.
    fn send_cmd(&self, c: usize, cmd: Cmd) -> Result<(), CoreError> {
        self.cmd_txs[c]
            .send(cmd)
            .map_err(|_| CoreError::WorkerFailed {
                cluster: c,
                cause: "command channel closed".into(),
            })
    }

    /// Receives one worker reply, stashing crash notices; a silent
    /// worker fails the run typed instead of hanging it.
    fn recv_reply(&mut self) -> Result<Reply, CoreError> {
        loop {
            match self.reply_rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(Reply::Crashed(c)) => self.pending_crash = Some(c),
                Ok(reply) => return Ok(reply),
                Err(_) => {
                    return Err(CoreError::WorkerFailed {
                        cluster: self.pending_crash.unwrap_or(0),
                        cause: "no reply from workers within the timeout".into(),
                    })
                }
            }
        }
    }

    /// Collects `n` `Done` replies.
    fn collect_done(&mut self, n: usize) -> Result<(), CoreError> {
        let mut done = 0;
        while done < n {
            if let Reply::Done = self.recv_reply()? {
                done += 1;
            }
        }
        Ok(())
    }

    /// The most recent crash notice, if any.
    fn poll_crash(&mut self) -> Option<usize> {
        if let Some(c) = self.pending_crash.take() {
            return Some(c);
        }
        while let Ok(reply) = self.reply_rx.try_recv() {
            // Anything else is a stray reply from an aborted phase.
            if let Reply::Crashed(c) = reply {
                return Some(c);
            }
        }
        None
    }

    /// Runs one overlapped propagation group to barrier completion,
    /// recovering from worker crashes by replaying the phase.
    fn run_phase(
        &mut self,
        specs: &Arc<Vec<PropSpec>>,
        shared: &Arc<SemanticNetwork>,
        first_error: &Mutex<Option<CoreError>>,
    ) -> Result<(), CoreError> {
        let window = if self.injector.is_some() {
            FAULTY_STALL_WINDOW
        } else {
            CLEAN_STALL_WINDOW
        };
        // One Propagate phase per group; a replayed phase keeps
        // accumulating into the same slot (replays only happen on
        // faulted runs, where phase statistics are advisory).
        self.tracer
            .phase_start(PhaseKind::Propagate, self.tracer.wall_stamp());
        'replay: loop {
            self.epoch += 1;
            for c in 0..self.clusters {
                if self.live[c] {
                    // One phase token per worker prevents completion
                    // before every cluster has seeded its sources.
                    self.barrier.created(0);
                    self.send_cmd(
                        c,
                        Cmd::Prop {
                            specs: Arc::clone(specs),
                            epoch: self.epoch,
                            net: Arc::clone(shared),
                        },
                    )?;
                }
            }
            let wait_t0 = Instant::now();
            let mut strikes = 0;
            loop {
                match self.barrier.wait_complete_timeout(window) {
                    Ok(()) => {
                        if confirm_complete(&self.barrier, &mut self.picker) {
                            break;
                        }
                        return Err(CoreError::BarrierStalled {
                            reason:
                                "barrier re-opened after reporting completion (false termination)"
                                    .into(),
                        });
                    }
                    Err(stall) => {
                        // A held-back envelope must never be mistaken for
                        // a stall: release the reorder hook's slots.
                        self.fabric.flush_held();
                        self.tracer.barrier_stall(
                            self.barrier.in_flight(),
                            self.barrier.busy_pes() as u64,
                            self.tracer.wall_stamp(),
                        );
                        if let Some(dead) = self.poll_crash() {
                            self.recover(dead, first_error)?;
                            continue 'replay;
                        }
                        check_error(first_error)?;
                        strikes += 1;
                        if strikes >= MAX_STALL_STRIKES {
                            return Err(CoreError::BarrierStalled {
                                reason: stall.to_string(),
                            });
                        }
                    }
                }
            }
            let wait_ns = wait_t0.elapsed().as_nanos() as u64;
            for c in 0..self.clusters {
                if self.live[c] {
                    self.send_cmd(c, Cmd::PhaseEnd)?;
                }
            }
            self.collect_done(self.live_count())?;
            // A crash racing barrier completion surfaces here; replaying
            // is still correct because phase checkpoints are intact.
            if let Some(dead) = self.poll_crash() {
                self.recover(dead, first_error)?;
                continue 'replay;
            }
            check_error(first_error)?;
            let stamp = self.tracer.wall_stamp();
            self.tracer.phase_end(stamp);
            self.tracer.phase_start(PhaseKind::Barrier, stamp);
            self.tracer
                .barrier_wait(CONTROLLER_TRACK, wait_ns, self.tracer.wall_stamp());
            self.tracer.phase_end(self.tracer.wall_stamp());
            self.report.barriers += 1;
            let now_msgs = self.fabric.messages();
            self.report
                .traffic
                .messages_per_sync
                .push(now_msgs - self.msgs_before_phase);
            self.msgs_before_phase = now_msgs;
            return Ok(());
        }
    }

    /// Graceful degradation after worker `dead` panicked: quiesce the
    /// survivors, reset the barrier, hand every region the dead worker
    /// held to a live hypercube neighbor, and let the caller replay the
    /// phase under a fresh epoch.
    fn recover(
        &mut self,
        dead: usize,
        first_error: &Mutex<Option<CoreError>>,
    ) -> Result<(), CoreError> {
        self.replays += 1;
        if self.replays > MAX_REPLAYS {
            return Err(CoreError::WorkerFailed {
                cluster: dead,
                cause: format!("unrecoverable: {MAX_REPLAYS} phase replays exhausted"),
            });
        }
        self.live[dead] = false;
        if self.live_count() == 0 {
            return Err(CoreError::WorkerFailed {
                cluster: dead,
                cause: "worker panicked with no surviving cluster to adopt its region".into(),
            });
        }
        for c in 0..self.clusters {
            if self.live[c] {
                self.send_cmd(c, Cmd::Abort)?;
            }
        }
        self.collect_done(self.live_count())?;
        // Survivors are idle now. Errors raised during the crashed phase
        // (e.g. retransmissions to the dead worker exhausting) are
        // symptoms of the crash; the replay re-raises any that are real.
        *lock_unpoisoned(first_error) = None;
        // Abandon the dead phase's barrier accounting; the traffic the
        // dead worker never read went with its inbox.
        self.barrier.reset();
        // Prefer a hypercube neighbor (cheapest adoption in the modelled
        // network); fall back to any live worker.
        #[allow(clippy::expect_used, reason = "live_count() > 0 was checked above")]
        let heir = self
            .fabric
            .topology()
            .neighbors(ClusterId(dead as u8))
            .into_iter()
            .map(|c| c.index())
            .find(|&n| self.live[n])
            .or_else(|| (0..self.clusters).find(|&n| self.live[n]))
            .expect("live_count checked above");
        let mut adoptions = Vec::new();
        {
            let checkpoints = lock_unpoisoned(&self.checkpoints);
            for cl in 0..self.clusters {
                if self.owners[cl].load(Ordering::Acquire) == dead {
                    let region =
                        checkpoints[cl]
                            .clone()
                            .ok_or_else(|| CoreError::WorkerFailed {
                                cluster: dead,
                                cause: format!("no checkpoint for cluster {cl}'s region"),
                            })?;
                    adoptions.push((cl, region));
                }
            }
        }
        for (cl, region) in adoptions {
            self.owners[cl].store(heir, Ordering::Release);
            self.send_cmd(heir, Cmd::Adopt(Box::new(region)))?;
            self.collect_done(1)?;
            if let Some(inj) = &self.injector {
                inj.note_remapped_region();
            }
        }
        if let Some(inj) = &self.injector {
            inj.note_recovered_worker();
            inj.note_replay();
        }
        self.report.faults.recovered_workers += 1;
        Ok(())
    }

    /// Controller-side execution of one non-propagate instruction.
    fn exec_instr(
        &mut self,
        instr: &Instruction,
        net: &mut Arc<SemanticNetwork>,
    ) -> Result<(), CoreError> {
        match instr.class() {
            InstrClass::Maintenance => {
                // Node/marker maintenance runs on the controller while
                // the array is quiescent (the paper's "housekeeping when
                // the pipeline is empty"). Workers drop their snapshot
                // clones before replying to each command, so the
                // controller normally holds the only reference and
                // `Arc::make_mut` mutates in place; it only falls back
                // to a copy when a crashed worker stranded a clone.
                let marked = match instr.reads_fixed()[0] {
                    Some(marker) => self.active_marked(marker)?,
                    None => Vec::new(),
                };
                exec_maintenance(instr, Arc::make_mut(net), &marked)?;
                Ok(())
            }
            InstrClass::Barrier => {
                self.report.barriers += 1;
                self.report.traffic.messages_per_sync.push(0);
                Ok(())
            }
            _ => {
                let shared = Arc::new(instr.clone());
                for c in 0..self.clusters {
                    if self.live[c] {
                        self.send_cmd(c, Cmd::Exec(Arc::clone(&shared), Arc::clone(net)))?;
                    }
                }
                let mut parts = Vec::new();
                for _ in 0..self.live_count() {
                    if let Reply::Collected(part) = self.recv_reply()? {
                        parts.push(part);
                    }
                }
                self.report.collects.extend(merge_collects(parts));
                Ok(())
            }
        }
    }

    /// Nodes where `marker` is active, across every live region.
    fn active_marked(&mut self, marker: Marker) -> Result<Vec<NodeId>, CoreError> {
        for c in 0..self.clusters {
            if self.live[c] {
                self.send_cmd(c, Cmd::ActiveNodes(marker))?;
            }
        }
        let mut nodes = Vec::new();
        let mut unreadable = None;
        // Every reply is taken, failed or not, so none is left behind for
        // the next command to read.
        for _ in 0..self.live_count() {
            match self.recv_reply()? {
                Reply::Active(Ok(mut part)) => nodes.append(&mut part),
                Reply::Active(Err(e)) => unreadable = Some(e),
                _ => {}
            }
        }
        if let Some(e) = unreadable {
            return Err(e);
        }
        nodes.sort_unstable();
        Ok(nodes)
    }
}

/// Fuzzed close timing: after the barrier first reports completion,
/// yield the controller a strategy-chosen number of times and
/// re-verify. A protocol that can close while a token is still in
/// flight (false termination) is caught here as a counter that went
/// positive again; a correct protocol never re-opens once the phase is
/// quiet, because workers create tokens only while consuming one.
///
/// The re-check reads the token counters only
/// ([`TieredBarrier::levels_drained`]): under the resilient protocol
/// workers pulse the busy bit after closure with no token involved, so
/// the AND-tree says nothing about a re-opened phase.
fn confirm_complete(barrier: &TieredBarrier, picker: &mut Picker) -> bool {
    for _ in 0..picker.pick(4) {
        std::thread::yield_now();
    }
    barrier.levels_drained()
}

/// One retrieval from the parts the workers gathered, each over the
/// regions it holds.
fn merge_collects(parts: Vec<CollectOutput>) -> Option<CollectOutput> {
    let mut parts = parts.into_iter();
    let mut all = parts.next()?;
    for part in parts {
        match (&mut all, part) {
            (CollectOutput::Nodes(a), CollectOutput::Nodes(b)) => a.extend(b),
            (CollectOutput::Links(a), CollectOutput::Links(b)) => a.extend(b),
            (CollectOutput::Colors(a), CollectOutput::Colors(b)) => a.extend(b),
            _ => unreachable!("every part answers the same instruction"),
        }
    }
    Some(sorted_collect(all))
}

/// One cluster's worker thread.
struct Worker<'env> {
    cluster: usize,
    max_hops: u8,
    /// This cluster's region, then any adopted from dead clusters
    /// (graceful degradation): the heir does the work of the clusters it
    /// covers.
    regions: Vec<Region>,
    /// Reused instruction outcome (the work counts go unread: this
    /// engine's timing is wall-clock).
    outcome: SingleOutcome,
    map: Arc<RegionMap>,
    cmd_rx: Receiver<Cmd>,
    reply_tx: Sender<Reply>,
    fabric: Fabric<NetMsg>,
    inbox: Inbox<NetMsg>,
    barrier: Arc<TieredBarrier>,
    first_error: &'env Mutex<Option<CoreError>>,
    injector: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    owners: Arc<Vec<AtomicUsize>>,
    checkpoints: Arc<Checkpoints>,
    /// Current recovery epoch; envelopes from older epochs are stale.
    epoch: u32,
    next_seq: u64,
    pending: HashMap<u64, PendingSend>,
    dedup: DedupTable,
    /// Tasks this worker has executed (the injected-panic step counter).
    steps: u64,
    /// Reused arrival buffer for [`expand_into`] (no per-task allocation).
    arrivals: Vec<PropArrival>,
    /// Reused propagation work queue (cleared, not dropped, per phase).
    queue: ReadyQueue<PropTask>,
    /// Reused visited map (reset, not reallocated, per phase).
    visited: VisitedMap,
    /// This worker's schedule decision stream (stream id `cluster + 1`;
    /// stream 0 is the controller's).
    picker: Picker,
    /// Per-destination-cluster send staging, indexed by cluster; paired
    /// with `batch_order` so expansion routes off-cluster arrivals in
    /// O(1) instead of a linear scan per arrival.
    batch_bufs: Vec<Vec<PropTask>>,
    /// Destinations touched by the current expansion, in first-touch
    /// order (which fixes envelope sequence numbering).
    batch_order: Vec<ClusterId>,
    /// Run-wide count of individual tasks sent off-cluster (batching
    /// evidence next to the fabric's envelope count).
    tasks_sent: Arc<AtomicU64>,
    tracer: Tracer,
}

impl Worker<'_> {
    fn id(&self) -> ClusterId {
        ClusterId(self.cluster as u8)
    }

    fn resilient(&self) -> bool {
        self.injector.is_some()
    }

    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            // Every arm drops its snapshot clone (`net`) before replying:
            // the reply releases the reference back to the controller,
            // which lets maintenance mutate the network without copying.
            match cmd {
                Cmd::Shutdown => return,
                Cmd::Exec(instr, net) => {
                    let executed =
                        exec_single_shared_into(&instr, &net, &mut self.regions, &mut self.outcome);
                    if let Err(e) = executed {
                        self.report_error(e);
                    }
                    let part = self.outcome.collect.take();
                    let reply = part.map_or(Reply::Done, Reply::Collected);
                    drop(net);
                    let _ = self.reply_tx.send(reply);
                }
                Cmd::ActiveNodes(marker) => {
                    let _ = self
                        .reply_tx
                        .send(Reply::Active(all_active(&self.regions, marker)));
                }
                Cmd::Adopt(region) => {
                    self.regions.push(*region);
                    let _ = self.reply_tx.send(Reply::Done);
                }
                Cmd::Prop { specs, epoch, net } => {
                    self.epoch = epoch;
                    let exit = self.propagation_phase(&specs, &net);
                    drop(net);
                    match exit {
                        PhaseExit::Shutdown => return,
                        PhaseExit::Ended | PhaseExit::Aborted => {
                            let _ = self.reply_tx.send(Reply::Done);
                        }
                    }
                }
                Cmd::PhaseEnd | Cmd::Abort => {} // stray after an abort race
            }
        }
    }

    fn report_error(&self, e: CoreError) {
        lock_unpoisoned(self.first_error).get_or_insert(e);
    }

    /// The region holding `node` on this worker (own or adopted).
    fn region_for(&mut self, node: NodeId) -> Option<&mut Region> {
        let cluster = self.map.cluster_of(node);
        self.regions.iter_mut().find(|r| r.cluster() == cluster)
    }

    /// MIMD propagation under local control, with counted accounting:
    /// every task/message is counted created before it becomes visible
    /// and consumed after it is fully processed.
    fn propagation_phase(&mut self, specs: &[PropSpec], net: &SemanticNetwork) -> PhaseExit {
        if self.resilient() {
            // Checkpoint every region this worker holds so the phase can
            // be replayed (by us or by an heir) after a crash.
            save_checkpoints(&self.checkpoints, &self.regions);
            self.next_seq = 0;
            self.pending.clear();
            self.dedup.clear();
        }
        // The visited map and work queue persist across phases; only
        // their contents are per-phase (reset keeps capacity).
        let mut visited = std::mem::take(&mut self.visited);
        visited.reset();
        let mut queue = std::mem::take(&mut self.queue);
        let exit = self.phase_loop(specs, net, &mut visited, &mut queue);
        queue.clear();
        self.queue = queue;
        self.visited = visited;
        exit
    }

    fn phase_loop(
        &mut self,
        specs: &[PropSpec],
        net: &SemanticNetwork,
        visited: &mut VisitedMap,
        queue: &mut ReadyQueue<PropTask>,
    ) -> PhaseExit {
        // Seed local sources, then consume the controller's phase token.
        // A bad register seeds nothing; the controller returns the error
        // once the (empty) phase closes.
        self.barrier.enter_busy();
        let registers = specs.iter().map(|s| (s.source, s.target));
        let seeded = match self.regions.first().map(|r| r.check_group(registers)) {
            Some(Err(e)) => {
                self.report_error(e);
                &[]
            }
            _ => specs,
        };
        for spec in seeded {
            let mut sources: Vec<(NodeId, f32)> = Vec::new();
            for r in &self.regions {
                if let Err(e) = r.seeds_into(spec.source, &mut sources) {
                    self.report_error(e);
                }
            }
            for (node, value) in sources {
                if visited.should_expand(spec.prop, 0, node, value, node) {
                    self.barrier.created(0);
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
        }
        self.barrier.consumed(0);
        self.barrier.exit_busy();

        loop {
            if self.resilient() {
                // Deliver any injected-delay traffic that has come due.
                self.fabric.poll_delayed();
            }
            // Remote arrivals first, then local work — unless a fuzzed
            // schedule flips the coin and lets queued work overtake the
            // fabric. FIFO's coin is always `true`, so the historical
            // fabric-first order is preserved bit for bit; the coin is
            // only drawn while local work exists, so idle spinning never
            // burns fuzz-decision budget.
            let queue_first = !queue.is_empty() && !self.picker.coin();
            if !queue_first {
                if let Some(msg) = self.inbox.try_recv() {
                    self.barrier.enter_busy();
                    self.handle_net(specs, visited, queue, msg);
                    self.barrier.exit_busy();
                    continue;
                }
            }
            if let Some(task) = queue.pop(&mut self.picker) {
                if self.tracer.is_enabled() {
                    self.tracer.queue_depth(
                        self.cluster as u16,
                        queue.len() as u64,
                        self.tracer.wall_stamp(),
                    );
                }
                self.barrier.enter_busy();
                self.expand_task(specs, net, visited, queue, &task);
                self.barrier.consumed(task.level.min(63));
                self.barrier.exit_busy();
                continue;
            }
            if self.resilient() && self.drive_retries() {
                continue;
            }
            match self.cmd_rx.try_recv() {
                Ok(Cmd::PhaseEnd) => return PhaseExit::Ended,
                Ok(Cmd::Abort) => {
                    self.abort_phase();
                    return PhaseExit::Aborted;
                }
                Ok(Cmd::Shutdown) => return PhaseExit::Shutdown,
                _ => {
                    // Idle: release any envelopes the fuzzer's reorder
                    // hook is holding back, so held traffic cannot be
                    // mistaken for quiescence or a stall.
                    self.fabric.flush_held();
                    std::thread::yield_now()
                }
            }
        }
    }

    /// Discards the aborted phase's state and restores the phase-start
    /// checkpoints; the controller resets the barrier.
    fn abort_phase(&mut self) {
        while self.inbox.try_recv().is_some() {}
        self.pending.clear();
        self.dedup.clear();
        restore_checkpoints(&self.checkpoints, &mut self.regions);
    }

    /// Processes one fabric message under the resilient protocol.
    fn handle_net(
        &mut self,
        specs: &[PropSpec],
        visited: &mut VisitedMap,
        queue: &mut ReadyQueue<PropTask>,
        msg: NetMsg,
    ) {
        match msg {
            NetMsg::Marker(env) => {
                if self.resilient() {
                    if !env.is_intact() {
                        // Nothing in a corrupted envelope can be trusted,
                        // not even the sender: discard without consuming —
                        // the sender still holds the token and retries.
                        if let Some(inj) = &self.injector {
                            inj.note_detected_corruption();
                        }
                        self.tracer.fault(
                            self.cluster as u16,
                            FaultKind::Corruption,
                            self.tracer.wall_stamp(),
                        );
                        return;
                    }
                    if env.epoch != self.epoch {
                        // Stale traffic from before a recovery; its
                        // accounting was reset with the barrier.
                        return;
                    }
                    // Ack first (the previous ack may have been lost)...
                    self.fabric.send_control(
                        self.id(),
                        ClusterId(env.from),
                        NetMsg::Ack {
                            seq: env.seq,
                            checksum: env.checksum(),
                        },
                    );
                    // ...then suppress duplicates: the fresh copy already
                    // consumed this envelope's created-token.
                    if !self.dedup.insert(env.key()) {
                        if let Some(inj) = &self.injector {
                            inj.note_detected_duplicate();
                        }
                        self.tracer.fault(
                            self.cluster as u16,
                            FaultKind::Duplicate,
                            self.tracer.wall_stamp(),
                        );
                        return;
                    }
                }
                self.tracer.msg_recv(
                    u16::from(env.from),
                    self.cluster as u16,
                    self.tracer.wall_stamp(),
                );
                // One batch = one barrier token: every task in the
                // envelope shares a level, and the batch is consumed once
                // after all of its arrivals are processed.
                let Some(level) = env.payload.first().map(|t| t.level.min(63)) else {
                    return;
                };
                for task in env.payload {
                    self.handle_arrival(specs, visited, queue, task);
                }
                self.barrier.consumed(level);
            }
            NetMsg::Ack { seq, checksum } => {
                if self
                    .pending
                    .get(&seq)
                    .is_some_and(|p| p.env.checksum() == checksum)
                {
                    self.pending.remove(&seq);
                }
            }
        }
    }

    /// Retransmits due unacked envelopes; returns `true` if any fired.
    fn drive_retries(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let now = Instant::now();
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.due <= now)
            .map(|(seq, _)| *seq)
            .collect();
        if due.is_empty() {
            return false;
        }
        for seq in due {
            let Some(mut p) = self.pending.remove(&seq) else {
                continue;
            };
            if self.retry.exhausted(p.attempts) {
                self.report_error(CoreError::WorkerFailed {
                    cluster: self.cluster,
                    cause: format!(
                        "marker batch to cluster {} unacknowledged after {} retransmissions",
                        p.dest.index(),
                        p.attempts
                    ),
                });
                // The token stays counted: only the receiver consumes
                // an envelope's token, and it may already have (then
                // died, or lost every ack). The typed error above fails
                // the run either way — at `PhaseEnd` if the phase
                // closes, through the stall path if it cannot.
            } else {
                // Retransmission is work: flag the PE busy so the barrier
                // watchdog sees live recovery activity, not dead air.
                self.barrier.enter_busy();
                let owner = self.owners[p.dest.index()].load(Ordering::Acquire);
                self.fabric.send_faulty(
                    self.id(),
                    ClusterId(owner as u8),
                    NetMsg::Marker(p.env.clone()),
                );
                self.tracer
                    .msg_retry(self.cluster as u16, owner as u16, self.tracer.wall_stamp());
                if let Some(inj) = &self.injector {
                    inj.note_retry();
                }
                p.attempts += 1;
                p.due = Instant::now() + self.retry.backoff(p.attempts);
                self.pending.insert(seq, p);
                self.barrier.exit_busy();
            }
        }
        true
    }

    fn handle_arrival(
        &mut self,
        specs: &[PropSpec],
        visited: &mut VisitedMap,
        queue: &mut ReadyQueue<PropTask>,
        task: PropTask,
    ) {
        let spec = &specs[task.prop];
        let Some(region) = self.region_for(task.node) else {
            // A marker for a region this worker no longer holds (it
            // moved in a recovery): stale, and safely dropped — replay
            // re-derives it at the new owner.
            return;
        };
        let expand = match apply_arrival(
            region,
            visited,
            spec.target,
            task.prop,
            task.state,
            task.node,
            task.value,
            task.origin,
        ) {
            Ok(expand) => expand,
            Err(e) => {
                self.report_error(e);
                return;
            }
        };
        if self.tracer.is_enabled() {
            // Attribute the activation to the region's home cluster (as
            // the other engines do), not to an adopting worker.
            self.tracer
                .activation(self.map.cluster_of(task.node).index() as u16, 1);
        }
        if expand {
            self.barrier.created(task.level.min(63));
            queue.push(task);
        }
    }

    fn expand_task(
        &mut self,
        specs: &[PropSpec],
        net: &SemanticNetwork,
        visited: &mut VisitedMap,
        queue: &mut ReadyQueue<PropTask>,
        task: &PropTask,
    ) {
        self.steps += 1;
        self.tracer.expansion(self.cluster as u16, 1);
        if let Some(inj) = &self.injector {
            #[allow(
                clippy::panic,
                reason = "the fault plan asked for a worker panic; the run recovers from it"
            )]
            if inj.should_panic(self.cluster as u8, self.steps as usize) {
                self.tracer.fault(
                    self.cluster as u16,
                    FaultKind::Panic,
                    self.tracer.wall_stamp(),
                );
                panic!(
                    "injected fault-plan panic: cluster {} at step {}",
                    self.cluster, self.steps
                );
            }
            let ns = inj.stall_ns(self.cluster as u8, self.steps);
            if ns > 0 {
                self.tracer.fault(
                    self.cluster as u16,
                    FaultKind::Stall,
                    self.tracer.wall_stamp(),
                );
                spin_for(Duration::from_nanos(ns));
            }
        }
        let spec = &specs[task.prop];
        let mut arrivals = std::mem::take(&mut self.arrivals);
        expand_into(net, &spec.rule, spec.func, task, &mut arrivals);
        maybe_plant_bug(&self.picker, &mut arrivals);
        if task.level >= self.max_hops {
            self.arrivals = arrivals;
            return;
        }
        // Local arrivals are applied immediately; off-cluster arrivals
        // are coalesced per destination cluster into one envelope each —
        // a single checksum, ack/retry slot, and barrier token covers
        // the whole batch. Staging is indexed by destination cluster
        // (O(1) routing); `batch_order` preserves first-touch order so
        // envelope sequence numbers are assigned as before.
        debug_assert!(self.batch_order.is_empty());
        for arrival in &arrivals {
            let next = PropTask {
                prop: task.prop,
                node: arrival.node,
                state: arrival.state,
                value: arrival.value,
                origin: task.origin,
                level: task.level + 1,
            };
            let dest = self.map.cluster_of(arrival.node);
            let owner = self.owners[dest.index()].load(Ordering::Acquire);
            if owner == self.cluster {
                self.handle_arrival(specs, visited, queue, next);
            } else {
                let buf = &mut self.batch_bufs[dest.index()];
                if buf.is_empty() {
                    self.batch_order.push(dest);
                }
                buf.push(next);
            }
        }
        self.arrivals = arrivals;
        let level = (task.level + 1).min(63);
        for i in 0..self.batch_order.len() {
            let dest = self.batch_order[i];
            let batch = std::mem::take(&mut self.batch_bufs[dest.index()]);
            let owner = self.owners[dest.index()].load(Ordering::Acquire);
            self.barrier.created(level);
            self.tasks_sent
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if self.tracer.is_enabled() {
                let hops = self.fabric.topology().distance(self.id(), dest);
                self.tracer.msg_send(
                    self.cluster as u16,
                    owner as u16,
                    hops.min(u8::MAX as usize) as u8,
                    self.tracer.wall_stamp(),
                );
            }
            let env = Envelope::seal(self.epoch, self.cluster as u8, self.next_seq, batch);
            self.next_seq += 1;
            if self.resilient() {
                self.pending.insert(
                    env.seq,
                    PendingSend {
                        env: env.clone(),
                        dest,
                        attempts: 0,
                        due: Instant::now() + self.retry.backoff(0),
                    },
                );
            }
            self.fabric
                .send_faulty(self.id(), ClusterId(owner as u8), NetMsg::Marker(env));
        }
        self.batch_order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::engine::des;
    use crate::plan::FaultPlan;
    use snap_isa::{CombineFunc, PropRule, StepFunc};
    use snap_kb::{Color, NetworkConfig, RelationType};

    /// The engine through [`Snap1::run`](crate::Snap1::run).
    fn run(
        config: &MachineConfig,
        network: &mut SemanticNetwork,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        crate::Snap1::builder()
            .config(config.clone())
            .engine(crate::EngineKind::Threaded)
            .build()
            .run(network, program)
    }

    fn grid_network(n: usize) -> SemanticNetwork {
        // A chain with extra skip links to create cross-cluster traffic.
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for i in 0..n {
            net.add_node(Color((i % 5) as u8)).unwrap();
        }
        for i in 0..n - 1 {
            net.add_link(NodeId(i as u32), RelationType(1), 1.0, NodeId(i as u32 + 1))
                .unwrap();
        }
        for i in 0..n - 7 {
            net.add_link(NodeId(i as u32), RelationType(2), 2.0, NodeId(i as u32 + 7))
                .unwrap();
        }
        net
    }

    fn workload() -> Program {
        Program::builder()
            .search_color(Color(0), Marker::binary(1), 0.0)
            .search_color(Color(2), Marker::binary(2), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(3),
                PropRule::Union(RelationType(1), RelationType(2)),
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
            .func_marker(Marker::complex(5), snap_isa::ValueFunc::Scale(2.0))
            .collect_marker(Marker::complex(5))
            .collect_color(Marker::complex(5))
            .build()
    }

    #[test]
    fn threaded_matches_des_results() {
        let program = workload();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        let mut net1 = grid_network(100);
        let des_report =
            des::run_exclusive(&cfg, &CostModel::snap1(), &mut net1, &program).unwrap();
        let mut net2 = grid_network(100);
        let thr_report = run(&cfg, &mut net2, &program).unwrap();
        assert_eq!(des_report.collects.len(), thr_report.collects.len());
        for (a, b) in des_report.collects.iter().zip(&thr_report.collects) {
            assert_eq!(a.node_ids(), b.node_ids());
        }
        // Values agree too (monotone AddWeight converges identically).
        let (CollectOutput::Nodes(a), CollectOutput::Nodes(b)) =
            (&des_report.collects[0], &thr_report.collects[0])
        else {
            panic!("expected node collects");
        };
        for ((n1, v1), (n2, v2)) in a.iter().zip(b) {
            assert_eq!(n1, n2);
            let (v1, v2) = (v1.unwrap(), v2.unwrap());
            assert!(
                (v1.value - v2.value).abs() < 1e-4,
                "{n1}: {} vs {}",
                v1.value,
                v2.value
            );
        }
        assert!(thr_report.wall_ns > 0);
        assert!(thr_report.traffic.total_messages > 0);
        // Batching: envelopes never outnumber the tasks they carry.
        assert!(thr_report.traffic.tasks_sent >= thr_report.traffic.total_messages);
        assert!(thr_report.faults.is_empty(), "fault-free run");
    }

    /// Regression: cluster counts the covering cube can't hit exactly
    /// (5 on a 4x2 cube) allocate more fabric slots than workers; every
    /// worker must still listen on its own cluster's receiver, or
    /// cross-cluster markers strand and the barrier watchdog fires.
    #[test]
    fn non_power_of_two_cluster_count_delivers_cross_cluster_markers() {
        let program = workload();
        for clusters in [5, 6, 7] {
            let mut cfg = MachineConfig::uniform(clusters, 2);
            cfg.partition = snap_kb::PartitionScheme::RoundRobin;
            let mut net1 = grid_network(100);
            let des_report =
                des::run_exclusive(&cfg, &CostModel::snap1(), &mut net1, &program).unwrap();
            let mut net2 = grid_network(100);
            let thr_report =
                run(&cfg, &mut net2, &program).unwrap_or_else(|e| panic!("{clusters}: {e}"));
            assert!(
                thr_report.traffic.total_messages > 0,
                "{clusters} clusters produced no cross-cluster traffic"
            );
            for (a, b) in des_report.collects.iter().zip(&thr_report.collects) {
                assert_eq!(a.node_ids(), b.node_ids(), "{clusters} clusters diverged");
            }
        }
    }

    #[test]
    fn maintenance_instructions_work_threaded() {
        let mut net = grid_network(20);
        let program = Program::builder()
            .search_node(NodeId(0), Marker::binary(0), 0.0)
            .search_node(NodeId(5), Marker::binary(0), 0.0)
            .marker_create(
                Marker::binary(0),
                RelationType(9),
                NodeId(10),
                RelationType(10),
            )
            .collect_relation(Marker::binary(0), RelationType(9))
            .build();
        let cfg = MachineConfig::uniform(2, 1);
        let report = run(&cfg, &mut net, &program).unwrap();
        let CollectOutput::Links(links) = &report.collects[0] else {
            panic!("expected links");
        };
        assert_eq!(links.len(), 2);
        assert_eq!(net.links_by(NodeId(10), RelationType(10)).count(), 2);
    }

    #[test]
    fn worker_errors_propagate_to_controller() {
        let mut net = grid_network(10);
        // Marker index 70 exceeds the 64-register file.
        let program = Program::builder()
            .set_marker(Marker::binary(70), 0.0)
            .build();
        let cfg = MachineConfig::uniform(2, 1);
        assert!(run(&cfg, &mut net, &program).is_err());
    }

    /// A busy PE with no token outstanding is not a re-opened phase; an
    /// outstanding token is, whatever the AND-tree reads.
    #[test]
    fn gate_confirm_complete_holds_on_quiet_gate() {
        let mut p = Picker::new(ScheduleStrategy::fuzzed(9), CONTROL_STREAM);
        let barrier = TieredBarrier::with_instruments(None, Tracer::default());
        barrier.enter_busy();
        assert!(confirm_complete(&barrier, &mut p));
        barrier.created(3);
        assert!(!confirm_complete(&barrier, &mut p));
        barrier.exit_busy();
        assert!(!confirm_complete(&barrier, &mut p));
        barrier.consumed(3);
        assert!(confirm_complete(&barrier, &mut p));
    }

    #[test]
    fn single_cluster_threaded_works() {
        let mut net = grid_network(30);
        let program = workload();
        let cfg = MachineConfig::uniform(1, 2);
        let report = run(&cfg, &mut net, &program).unwrap();
        assert_eq!(report.collects.len(), 2);
        assert_eq!(report.traffic.total_messages, 0);
    }

    /// Results under each single fault class must equal the fault-free
    /// run's: the resilient protocol hides the faults.
    #[test]
    fn fault_classes_do_not_change_results() {
        let program = workload();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        let mut clean_net = grid_network(80);
        let clean = run(&cfg, &mut clean_net, &program).unwrap();
        let plans = [
            ("drops", FaultPlan::seeded(21).drops(0.25)),
            ("dups", FaultPlan::seeded(22).duplicates(0.25)),
            ("delays", FaultPlan::seeded(23).delays(0.3, 2_000_000)),
            ("corruptions", FaultPlan::seeded(24).corruptions(0.25)),
            ("stalls", FaultPlan::seeded(25).stalls(0.2, 50_000)),
        ];
        for (name, plan) in plans {
            let mut cfg = cfg.clone();
            cfg.fault_plan = Some(plan);
            let mut net = grid_network(80);
            let report = run(&cfg, &mut net, &program).unwrap_or_else(|e| panic!("{name}: {e}"));
            for (a, b) in clean.collects.iter().zip(&report.collects) {
                assert_eq!(a.node_ids(), b.node_ids(), "{name} changed results");
            }
            assert!(
                report.faults.total_injected() > 0,
                "{name} injected nothing"
            );
        }
    }

    #[test]
    fn drops_force_retries_and_report_them() {
        let program = workload();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        cfg.fault_plan = Some(FaultPlan::seeded(31).drops(0.3));
        let mut net = grid_network(80);
        let report = run(&cfg, &mut net, &program).unwrap();
        assert!(report.faults.injected_drops > 0);
        // Every dropped *marker* forces at least one retransmission
        // (dropped acks may resolve without one if the phase ends first).
        assert!(report.faults.retries > 0);
    }

    #[test]
    fn corruption_is_detected_and_survived() {
        let program = workload();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        cfg.fault_plan = Some(FaultPlan::seeded(32).corruptions(0.4));
        let mut net = grid_network(80);
        let report = run(&cfg, &mut net, &program).unwrap();
        assert!(report.faults.injected_corruptions > 0);
        assert!(report.faults.detected_corruptions > 0);
    }

    #[test]
    fn down_link_fails_typed_not_hung() {
        let program = workload();
        let mut cfg = MachineConfig::uniform(4, 2);
        cfg.partition = snap_kb::PartitionScheme::RoundRobin;
        // Every link out of every cluster to cluster 2 is down: traffic
        // to it can never arrive, so retries must exhaust into a typed
        // error rather than hanging the barrier.
        cfg.fault_plan = Some(
            FaultPlan::seeded(33)
                .link_down(0, 2)
                .link_down(1, 2)
                .link_down(3, 2),
        );
        let mut net = grid_network(60);
        let err = run(&cfg, &mut net, &program).unwrap_err();
        match err {
            CoreError::WorkerFailed { cause, .. } => {
                assert!(
                    cause.contains("unacknowledged"),
                    "unexpected cause: {cause}"
                )
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    /// Also at 5 clusters, whose covering cube leaves a fabric slot no
    /// worker holds.
    #[test]
    fn worker_panic_recovers_with_identical_results() {
        let program = workload();
        for clusters in [4, 5] {
            let mut cfg = MachineConfig::uniform(clusters, 2);
            cfg.partition = snap_kb::PartitionScheme::RoundRobin;
            let mut clean_net = grid_network(80);
            let clean = run(&cfg, &mut clean_net, &program).unwrap();
            cfg.fault_plan = Some(FaultPlan::seeded(34).worker_panic(2, 5));
            let mut net = grid_network(80);
            let report =
                run(&cfg, &mut net, &program).unwrap_or_else(|e| panic!("{clusters}: {e}"));
            assert_eq!(report.faults.injected_panics, 1, "{clusters} clusters");
            assert_eq!(report.faults.recovered_workers, 1, "{clusters} clusters");
            assert!(report.faults.remapped_regions >= 1);
            assert!(report.faults.replays >= 1);
            for (a, b) in clean.collects.iter().zip(&report.collects) {
                assert_eq!(
                    a.node_ids(),
                    b.node_ids(),
                    "{clusters}: recovery changed results"
                );
            }
        }
    }

    /// The fabric counts each slot's undelivered messages itself; the
    /// traced mailbox depth is that count.
    #[test]
    fn traced_fabric_reads_back_undelivered_depth() {
        use crate::obs::event::EventKind;
        use crate::obs::ObsConfig;
        let tracer = Tracer::from_config(Some(&ObsConfig::full()), 4);
        let (fabric, inboxes) = Fabric::<NetMsg>::with_instruments(
            HypercubeTopology::covering(4),
            None,
            tracer.clone(),
        );
        let send = |seq| {
            let env = Envelope::seal(0, 0, seq, Vec::new());
            fabric.send_faulty(ClusterId(0), ClusterId(3), NetMsg::Marker(env));
        };
        let depths = || -> Vec<u32> {
            let events = tracer.report().events;
            let at_3 = events.into_iter().filter(|e| e.track == 3);
            at_3.filter_map(|e| match e.kind {
                EventKind::QueueDepth { depth } => Some(depth),
                _ => None,
            })
            .collect()
        };
        for seq in 0..5 {
            send(seq);
        }
        assert_eq!(depths(), [1, 2, 3, 4, 5]);
        assert_eq!(tracer.report().clusters[3].max_queue_depth, 5);
        for _ in 0..3 {
            assert!(inboxes[3].try_recv().is_some());
        }
        send(5);
        assert_eq!(depths().last(), Some(&3), "two unread plus the new one");
    }

    #[test]
    fn panic_holding_checkpoints_leaves_them_restorable() {
        let net = grid_network(40);
        let map = RegionMap::build(&net, 2, snap_kb::PartitionScheme::RoundRobin);
        let mut regions: Vec<Region> = (0..2)
            .map(|c| Region::new(ClusterId(c), Arc::clone(&map), &net))
            .collect();
        let marker = Marker::binary(3);
        regions[1].set_marker(marker, 0.0).unwrap();
        let marked = regions[1].active_nodes(marker).unwrap();
        let checkpoints: Arc<Checkpoints> = Arc::new(Mutex::new(vec![None; 2]));
        save_checkpoints(&checkpoints, &regions);
        let worker = Arc::clone(&checkpoints);
        let crashed = std::thread::spawn(move || {
            let _cps = worker.lock().unwrap();
            panic!("worker dies holding the checkpoints");
        });
        assert!(crashed.join().is_err());
        assert!(checkpoints.is_poisoned());
        regions[1].reset();
        assert_eq!(regions[1].count(marker), 0);
        restore_checkpoints(&checkpoints, &mut regions);
        assert_eq!(regions[1].active_nodes(marker).unwrap(), marked);
        // The replayed phase checkpoints again through the same lock.
        save_checkpoints(&checkpoints, &regions);
    }
}
