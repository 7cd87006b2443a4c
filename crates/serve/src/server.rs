//! Admission, arrival-order batching, and exact shed accounting.

use crate::context::QueryContext;
use snap_core::exec::Walker;
use snap_core::{CoreError, CostModel, MachineConfig, Prepared, Region, RunReport};
use snap_isa::{InstrClass, Program};
use snap_kb::{ClusterId, PartitionScheme, SemanticNetwork};
use std::collections::VecDeque;
use std::sync::Arc;

/// Most queries one pump serves, whatever [`ServeConfig::max_batch`]
/// asks for: coalescing compares each query with every lane before it,
/// and this bounds that square.
const MAX_PUMP: usize = 64;

/// Serving parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most queries served by one pump as one batch: the oldest
    /// `max_batch` in the queue, whatever they ask, which is also the
    /// window identical queries coalesce in. Depth 1 degrades to
    /// one-query-at-a-time serving (the bench baseline). A pump takes
    /// at most 64 queries, so a deeper setting becomes more pumps.
    pub max_batch: usize,
    /// Bounded admission queue: offers beyond this capacity shed with
    /// [`ShedReason::QueueFull`] instead of growing without bound.
    pub queue_capacity: usize,
    /// Propagation hop cap of the sequential machine every query runs
    /// on (the rest of it is [`MachineConfig::snap1_eval`]).
    pub max_hops: u8,
    /// Cost model stamped into per-query reports.
    pub cost: CostModel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            queue_capacity: 1024,
            max_hops: MachineConfig::snap1_eval().max_hops,
            cost: CostModel::snap1(),
        }
    }
}

/// Handle naming an admitted query; completions carry it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub u64);

/// Why an offer was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue is full (overload).
    QueueFull,
    /// The program contains node-maintenance instructions, which cannot
    /// run against a shared snapshot (see
    /// [`CoreError::MaintenanceOnShared`]).
    Maintenance,
}

/// Outcome of one [`Server::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Query admitted to the queue; its completion will carry this ID.
    Admitted(QueryId),
    /// Query shed at admission, never queued.
    Shed(ShedReason),
}

/// Exact admission/completion accounting. Two invariants hold at every
/// quiescent point (checked by [`Server::assert_accounting`]):
/// `offered == admitted + shed_overload + shed_invalid` and
/// `admitted == completed + failed + queued`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries offered to the server.
    pub offered: u64,
    /// Offers admitted to the queue.
    pub admitted: u64,
    /// Offers shed because the queue was full.
    pub shed_overload: u64,
    /// Offers shed because the program cannot run on a shared snapshot.
    pub shed_invalid: u64,
    /// Admitted queries completed with a report.
    pub completed: u64,
    /// Admitted queries that failed with an error.
    pub failed: u64,
}

impl ServeStats {
    /// Total offers shed, for any reason.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_invalid
    }
}

/// One finished query.
#[derive(Debug)]
pub struct Completion {
    /// The admission handle this completion answers.
    pub id: QueryId,
    /// How many queries the pump that served this one took from the
    /// queue, duplicates included (1 = served alone).
    pub batch_depth: usize,
    /// The query's report, identical to running it alone on the
    /// sequential engine against the same snapshot, or the error that
    /// failed it.
    pub result: Result<RunReport, CoreError>,
}

/// Borrowed view of one finished query, as [`Server::pump_with`]
/// delivers it: the report stays in its pooled context, so the
/// steady-state serving loop observes completions without cloning — or
/// allocating — anything.
#[derive(Debug)]
pub struct CompletionRef<'a> {
    /// The admission handle this completion answers.
    pub id: QueryId,
    /// How many queries the pump took from the queue, this one and
    /// duplicates included (1 = served alone).
    pub batch_depth: usize,
    /// The query's report (identical to a solo run), or its error.
    pub result: Result<&'a RunReport, &'a CoreError>,
}

struct Pending {
    id: QueryId,
    program: Program,
}

/// A query server over one immutable KB snapshot.
///
/// [`offer`](Server::offer) admits programs into a bounded queue;
/// [`pump`](Server::pump) takes the oldest
/// [`ServeConfig::max_batch`] of them, in arrival order, coalesces
/// bit-identical programs onto one lane and runs each lane through the
/// sequential engine's [`Walker`] in the server's one [`Region`], as a
/// SNAP-1 cluster runs every marker stream in its one marker table.
/// Nothing overtakes anything, so completions come back in [`QueryId`]
/// order and no query can starve; a lane that fails is a lane like any
/// other. Every buffer the pump touches — the queue, batch staging, the
/// region, pooled reports, the walker's scratch — is kept here, so
/// steady-state serving ([`Server::pump_with`] after warm-up) performs
/// no heap allocation per query.
pub struct Server {
    network: Arc<SemanticNetwork>,
    /// The snapshot's one-region set-up, built once here: the region
    /// and the pooled reports' partition statistics come from it.
    prepared: Prepared,
    cfg: ServeConfig,
    /// The sequential machine every lane runs as:
    /// [`ServeConfig::max_hops`] on the evaluation configuration.
    machine: MachineConfig,
    walker: Walker,
    /// The marker tables every lane runs in; each run resets them.
    region: Region,
    queue: VecDeque<Pending>,
    /// The batch being served.
    batch: Vec<Pending>,
    /// Indices into `batch`: one per distinct program (lane owners).
    uniq: Vec<usize>,
    pool: Vec<QueryContext>,
    /// Contexts checked out for the batch in flight: `active[j]` is the
    /// lane `batch[uniq[j]]` owns.
    active: Vec<QueryContext>,
    stats: ServeStats,
    next_id: u64,
}

impl Server {
    /// Builds a server over `network`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SharedStagedLinks`] if the snapshot still
    /// has staged links — call
    /// [`flush_links`](SemanticNetwork::flush_links) before wrapping it
    /// in the `Arc`.
    pub fn new(network: Arc<SemanticNetwork>, cfg: ServeConfig) -> Result<Self, CoreError> {
        // The sequential engine holds the whole network in one region.
        let prepared = Prepared::for_snapshot(&network, 1, PartitionScheme::Sequential)?;
        let machine = MachineConfig {
            max_hops: cfg.max_hops,
            ..MachineConfig::snap1_eval()
        };
        Ok(Server {
            walker: Walker::new(),
            region: Region::new(ClusterId(0), Arc::clone(prepared.map()), &network),
            network,
            prepared,
            cfg,
            machine,
            queue: VecDeque::new(),
            batch: Vec::new(),
            uniq: Vec::new(),
            pool: Vec::new(),
            active: Vec::new(),
            stats: ServeStats::default(),
            next_id: 0,
        })
    }

    /// Offers one query. Admits it to the queue, or sheds it — with the
    /// reason — when the queue is full or the program cannot run on a
    /// shared snapshot. Every offer is accounted exactly once.
    pub fn offer(&mut self, program: Program) -> Admission {
        self.stats.offered += 1;
        if program
            .instructions()
            .iter()
            .any(|i| i.class() == InstrClass::Maintenance)
        {
            self.stats.shed_invalid += 1;
            return Admission::Shed(ShedReason::Maintenance);
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.stats.shed_overload += 1;
            return Admission::Shed(ShedReason::QueueFull);
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.stats.admitted += 1;
        self.queue.push_back(Pending { id, program });
        Admission::Admitted(id)
    }

    /// Serves one batch: the oldest [`ServeConfig::max_batch`] queued
    /// queries, with bit-identical queries coalesced onto a single lane
    /// and sharing its result. Returns their completions in admission
    /// order (empty when the queue is idle).
    ///
    /// This convenience form clones each report out of its pooled
    /// context; the steady-state serving loop uses
    /// [`Server::pump_with`], which does not.
    pub fn pump(&mut self) -> Vec<Completion> {
        let mut done = Vec::new();
        self.pump_with(|c| {
            done.push(Completion {
                id: c.id,
                batch_depth: c.batch_depth,
                result: c.result.cloned().map_err(Clone::clone),
            });
        });
        done
    }

    /// [`Server::pump`] without the clones: serves one batch and hands
    /// each completion to `sink` as a borrowed [`CompletionRef`]. Once
    /// the pools are warm, a pump performs no heap allocation.
    pub fn pump_with(&mut self, mut sink: impl FnMut(CompletionRef<'_>)) {
        debug_assert!(self.batch.is_empty() && self.active.is_empty());
        let depth = self.queue.len().min(self.cfg.max_batch).min(MAX_PUMP);
        self.batch.extend(self.queue.drain(..depth));
        // One lane per *distinct* program: a duplicate shares its
        // lane's result and skips execution entirely — the report of an
        // identical program on an immutable snapshot is identical by
        // construction (the differential tests pin this down).
        self.uniq.clear();
        for (i, p) in self.batch.iter().enumerate() {
            let owns = |&u: &usize| self.batch[u].program == p.program;
            let lane = self.uniq.iter().position(owns).unwrap_or_else(|| {
                let mut ctx = self
                    .pool
                    .pop()
                    .unwrap_or_else(|| QueryContext::new(&self.prepared));
                ctx.outcome = self.walker.run(
                    &self.machine,
                    &self.cfg.cost,
                    &self.network,
                    &mut self.region,
                    &p.program,
                    &mut ctx.report,
                );
                self.active.push(ctx);
                self.uniq.push(i);
                self.uniq.len() - 1
            });
            let ctx = &self.active[lane];
            let result = ctx.outcome.as_ref().map(|_| &ctx.report);
            match result {
                Ok(_) => self.stats.completed += 1,
                Err(_) => self.stats.failed += 1,
            }
            sink(CompletionRef {
                id: p.id,
                batch_depth: depth,
                result,
            });
        }
        self.pool.append(&mut self.active);
        self.batch.clear();
    }

    /// Pumps until the queue is empty, returning all completions.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.pump());
        }
        out
    }

    /// Current accounting counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Queries admitted but not yet served.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Idle pooled reports (diagnostic: steady-state serving holds this
    /// at the most lanes one batch has had, allocating nothing new).
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// The shared snapshot being served.
    pub fn network(&self) -> &Arc<SemanticNetwork> {
        &self.network
    }

    /// Panics unless the accounting invariants hold:
    /// `offered == admitted + shed` and
    /// `admitted == completed + failed + queued`.
    pub fn assert_accounting(&self) {
        let s = self.stats;
        assert_eq!(
            s.offered,
            s.admitted + s.shed(),
            "offered = admitted + shed"
        );
        assert_eq!(
            s.admitted,
            s.completed + s.failed + self.queue.len() as u64,
            "admitted = completed + failed + queued"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::{EngineKind, Snap1};
    use snap_isa::{
        Cmp, Instruction, PropRule, RuleArc, RuleProgram, RuleState, StepFunc, ValueFunc,
    };
    use snap_kb::synth::scale_free_network;
    use snap_kb::{Marker, NodeId, RelationType};

    fn snapshot() -> Arc<SemanticNetwork> {
        let mut net = scale_free_network(300, 2, 11);
        net.flush_links();
        Arc::new(net)
    }

    /// A parse-style query: seed one word node, walk the taxonomy,
    /// collect the bindings. Varying the node varies the whole frontier.
    fn query(node: u32) -> Program {
        Program::builder()
            .search_node(NodeId(node), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(2),
                PropRule::Star(RelationType(0)),
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(2))
            .build()
    }

    /// Another shape: two-relation spread with another target.
    fn spread_query(node: u32) -> Program {
        Program::builder()
            .search_node(NodeId(node), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(3),
                PropRule::Spread(RelationType(0), RelationType(1)),
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(3))
            .build()
    }

    fn oracle() -> Snap1 {
        Snap1::builder().engine(EngineKind::Sequential).build()
    }

    #[test]
    fn batched_queries_match_the_serial_oracle_exactly() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        let nodes = [0u32, 17, 42, 99, 123, 200, 250, 299];
        for &n in &nodes {
            assert!(matches!(server.offer(query(n)), Admission::Admitted(_)));
        }
        let done = server.drain();
        assert_eq!(done.len(), nodes.len());
        let oracle = oracle();
        for (c, &n) in done.iter().zip(&nodes) {
            assert_eq!(c.batch_depth, nodes.len(), "one batch");
            let got = c.result.as_ref().unwrap();
            let want = oracle.run_shared(&net, &query(n)).unwrap();
            assert_eq!(got.collects, want.collects, "node {n}");
            assert_eq!(got.expansions, want.expansions, "node {n}");
            assert_eq!(
                got.traffic.local_activations, want.traffic.local_activations,
                "node {n}"
            );
            assert_eq!(got.alpha_per_propagate, want.alpha_per_propagate);
            assert_eq!(got.max_propagation_depth, want.max_propagation_depth);
            assert_eq!(got.total_ns, want.total_ns, "node {n}");
        }
        server.assert_accounting();
        assert_eq!(server.stats().completed, nodes.len() as u64);
    }

    #[test]
    fn batches_wider_than_the_pump_cap_split_into_more_pumps() {
        let net = snapshot();
        let cfg = ServeConfig {
            max_batch: 100,
            ..ServeConfig::default()
        };
        let oracle = oracle();

        // 100 distinct batchable queries: two pumps of 64 and 36 lanes,
        // arrival order kept, every report the solo oracle's.
        let mut server = Server::new(Arc::clone(&net), cfg.clone()).unwrap();
        for n in 0..100u32 {
            assert_eq!(
                server.offer(query(n)),
                Admission::Admitted(QueryId(n as u64))
            );
        }
        let first = server.pump();
        let second = server.pump();
        assert_eq!((first.len(), second.len()), (MAX_PUMP, 36));
        assert!(first.iter().all(|c| c.batch_depth == MAX_PUMP));
        assert!(second.iter().all(|c| c.batch_depth == 36));
        assert_eq!(server.queue_len(), 0);
        server.assert_accounting();
        for (n, c) in first.iter().chain(&second).enumerate() {
            assert_eq!(c.id, QueryId(n as u64), "arrival order kept");
            let want = oracle.run_shared(&net, &query(n as u32)).unwrap();
            assert_eq!(c.result.as_ref().unwrap(), &want, "query {n}");
        }

        // 100 copies of one program: the same two pumps, each coalesced
        // onto a single lane.
        let mut server = Server::new(Arc::clone(&net), cfg).unwrap();
        for _ in 0..100 {
            server.offer(query(42));
        }
        let depths: Vec<usize> = (0..2).map(|_| server.pump().len()).collect();
        assert_eq!(depths, vec![MAX_PUMP, 36]);
        assert_eq!(server.pool_size(), 1, "each pump ran one lane");
        server.assert_accounting();
        assert_eq!(server.stats().completed, 100);
    }

    /// A third shape: one hop into a binary target.
    fn once_query(node: u32) -> Program {
        Program::builder()
            .search_node(NodeId(node), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::binary(4),
                PropRule::Once(RelationType(1)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(4))
            .build()
    }

    #[test]
    fn interleaved_shapes_are_served_in_arrival_order_at_full_depth() {
        let net = snapshot();
        let cfg = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let mut server = Server::new(Arc::clone(&net), cfg).unwrap();
        let offered: Vec<Program> = (0..10u32)
            .map(|n| [query, spread_query, once_query][n as usize % 3](n * 7))
            .collect();
        for p in &offered {
            assert!(matches!(server.offer(p.clone()), Admission::Admitted(_)));
        }
        // Nothing overtakes anything: each pump takes the oldest four,
        // whatever their shapes, and answers them in admission order.
        let oracle = oracle();
        let mut next = 0;
        for depth in [4, 4, 2] {
            let done = server.pump();
            assert_eq!(done.len(), depth);
            for c in done {
                assert_eq!((c.id, c.batch_depth), (QueryId(next), depth));
                let want = oracle.run_shared(&net, &offered[next as usize]);
                assert_eq!(c.result, want, "query {next}");
                next += 1;
            }
        }
        assert_eq!(server.queue_len(), 0);
        server.assert_accounting();
    }

    #[test]
    fn a_nan_constant_shares_a_pump_but_never_a_lane() {
        let net = snapshot();
        // `value < NaN` never holds, so KEEP-IF clears every reached node
        // and the report carries no NaN of its own to upset `assert_eq!`;
        // the program, though, equals nothing — itself included.
        let program = Program::builder()
            .search_node(NodeId(3), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(2),
                PropRule::Star(RelationType(0)),
                StepFunc::AddWeight,
            )
            .func_marker(Marker::complex(2), ValueFunc::KeepIf(Cmp::Lt, f32::NAN))
            .collect_marker(Marker::complex(2))
            .build();
        assert_ne!(program, program.clone());
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        server.offer(program.clone());
        server.offer(program.clone());
        let done = server.pump();
        assert_eq!(done.len(), 2);
        assert_eq!(server.pool_size(), 2, "two lanes: nothing coalesced");
        let want = oracle().run_shared(&net, &program);
        for c in &done {
            assert_eq!(c.batch_depth, 2);
            assert_eq!(c.result, want);
        }
        server.assert_accounting();
    }

    #[test]
    fn saturated_queue_forms_full_batches_every_pump() {
        let net = snapshot();
        let cfg = ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        };
        let mut server = Server::new(net, cfg).unwrap();
        // 20 same-shape queries: a saturated queue must fill every
        // batch to min(max_batch, queued) — the depth-curve benches
        // depend on this.
        for n in 0..20u32 {
            server.offer(query(n % 5));
        }
        let mut depths = Vec::new();
        while server.queue_len() > 0 {
            depths.push(server.pump().len());
        }
        assert_eq!(depths, vec![8, 8, 4], "every pump fills its batch");
        server.assert_accounting();
    }

    #[test]
    fn overload_sheds_with_exact_accounting() {
        let net = snapshot();
        let cfg = ServeConfig {
            queue_capacity: 4,
            max_batch: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(net, cfg).unwrap();
        let mut shed = 0;
        for n in 0..10u32 {
            match server.offer(query(n)) {
                Admission::Admitted(_) => {}
                Admission::Shed(ShedReason::QueueFull) => shed += 1,
                Admission::Shed(r) => panic!("unexpected shed: {r:?}"),
            }
        }
        assert_eq!(shed, 6, "capacity 4 admits 4 of 10");
        let s = server.stats();
        assert_eq!((s.offered, s.admitted, s.shed_overload), (10, 4, 6));
        server.assert_accounting();
        let done = server.drain();
        assert_eq!(done.len(), 4);
        assert!(
            done.iter().all(|c| c.batch_depth == 2),
            "max_batch caps depth"
        );
        server.assert_accounting();
        assert_eq!(server.stats().completed, 4);
    }

    #[test]
    fn maintenance_programs_are_shed_as_invalid() {
        let net = snapshot();
        let mut server = Server::new(net, ServeConfig::default()).unwrap();
        let program = Program::builder()
            .instruction(Instruction::SetColor {
                node: NodeId(0),
                color: snap_kb::Color(7),
            })
            .build();
        assert_eq!(
            server.offer(program),
            Admission::Shed(ShedReason::Maintenance)
        );
        assert_eq!(server.stats().shed_invalid, 1);
        server.assert_accounting();
    }

    #[test]
    fn one_failing_lane_fails_alone_in_a_full_batch() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        // Warm the pool with one clean depth-16 batch.
        for n in 0..16u32 {
            server.offer(query(n));
        }
        assert_eq!(server.pump().len(), 16);
        let (pool, warm) = (server.pool_size(), server.stats().completed);
        // Lanes 5 and 9 ask — identically — about a node the KB does not
        // have: one lane fails, both queries get its error.
        let node = |lane: u32| {
            if lane == 5 || lane == 9 {
                300
            } else {
                100 + lane
            }
        };
        for lane in 0..16u32 {
            server.offer(query(node(lane)));
        }
        let done = server.pump();
        assert_eq!(done.len(), 16, "one pump serves the whole batch");
        let oracle = oracle();
        for (lane, c) in done.iter().enumerate() {
            let want = oracle.run_shared(&net, &query(node(lane as u32)));
            assert_eq!(c.result, want, "lane {lane}");
            assert_eq!(c.result.is_err(), lane == 5 || lane == 9, "lane {lane}");
            assert_eq!(c.batch_depth, 16, "lane {lane} shared the pump");
        }
        assert_eq!(done[5].result, done[9].result);
        let s = server.stats();
        assert_eq!((s.completed - warm, s.failed), (14, 2));
        assert_eq!(server.pool_size(), pool, "every context came back");
        server.assert_accounting();
    }

    #[test]
    fn staged_links_are_rejected_at_construction() {
        let mut net = scale_free_network(10, 1, 3);
        net.flush_links();
        net.add_link(NodeId(0), RelationType(0), 1.0, NodeId(5))
            .unwrap();
        let err = match Server::new(Arc::new(net), ServeConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("staged links must be rejected"),
        };
        assert_eq!(err, CoreError::SharedStagedLinks { staged: 1 });
    }

    #[test]
    fn contexts_pool_across_pumps_without_growing() {
        let net = snapshot();
        let cfg = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let mut server = Server::new(net, cfg).unwrap();
        for round in 0..3 {
            for n in 0..4u32 {
                server.offer(query(n + round));
            }
            let done = server.drain();
            assert_eq!(done.len(), 4);
            assert_eq!(server.pool_size(), 4, "round {round}: pool stable");
        }
        server.assert_accounting();
    }

    #[test]
    fn duplicate_queries_coalesce_onto_one_lane() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        // Six offers, two distinct programs — one lane each.
        for n in [7u32, 7, 120, 7, 120, 7] {
            server.offer(query(n));
        }
        let done = server.drain();
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|c| c.batch_depth == 6));
        assert_eq!(
            server.pool_size(),
            2,
            "only distinct programs took a context"
        );
        let oracle = oracle();
        for (c, n) in done.iter().zip([7u32, 7, 120, 7, 120, 7]) {
            let want = oracle.run_shared(&net, &query(n)).unwrap();
            assert_eq!(c.result.as_ref().unwrap(), &want, "seed {n}");
        }
        server.assert_accounting();
        assert_eq!(server.stats().completed, 6);
    }

    #[test]
    fn widest_custom_rules_share_a_batch() {
        let net = snapshot();
        // Eight arcs in one state is the widest a rule program admits
        // and the kernel merges: the query is a lane like any other.
        let arcs: Vec<RuleArc> = (0..8).map(|r| RuleArc::new(RelationType(r), 1)).collect();
        let rule = PropRule::Custom(RuleProgram::from_states(vec![
            RuleState::new(arcs),
            RuleState::terminal(),
        ]));
        let program = Program::builder()
            .search_node(NodeId(0), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(2),
                rule,
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(2))
            .build();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        server.offer(program.clone());
        server.offer(query(17));
        let done = server.drain();
        assert_eq!(done.len(), 2);
        let oracle = oracle();
        for (c, p) in done.iter().zip([&program, &query(17)]) {
            assert_eq!(c.batch_depth, 2);
            assert_eq!(c.result, oracle.run_shared(&net, p));
            assert!(c.result.as_ref().unwrap().total_ns > 0);
        }
        server.assert_accounting();
    }
}
