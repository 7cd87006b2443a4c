//! Admission, arrival-order batching, the answer table and exact shed
//! accounting.

use crate::context::QueryContext;
use snap_core::exec::Walker;
use snap_core::{CoreError, CostModel, MachineConfig, Prepared, Region, RunReport};
use snap_isa::{Instruction, Program};
use snap_kb::{ClusterId, Marker, MarkerKind, PartitionScheme, SemanticNetwork};
use std::collections::VecDeque;
use std::sync::Arc;

/// Most queries one pump serves, whatever [`ServeConfig::max_batch`]
/// asks for, and most answers the server's answer table holds: a
/// lookup scans one fingerprint per answer, and a full table is what a
/// pump of this many distinct programs needs.
const MAX_PUMP: usize = 64;

/// Serving parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most queries served by one pump as one batch: the oldest
    /// `max_batch` in the queue, whatever they ask. It bounds how many
    /// queries a pump serves, not which answers they can share: every
    /// query is looked up in the whole answer table. Depth 1 degrades
    /// to one-query-at-a-time serving (the bench baseline), and so does
    /// depth 0: a pump takes at least one query. A pump takes at most 64
    /// queries, so a deeper setting becomes more pumps.
    pub max_batch: usize,
    /// Bounded admission queue: offers beyond this capacity shed with
    /// [`ShedReason::QueueFull`] instead of growing without bound.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            queue_capacity: 1024,
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
    /// Queries answered without running: each asked a program the
    /// answer table held, whether an earlier query of the same pump or
    /// of an earlier one ran it. They count in `completed` or `failed`
    /// like any other.
    pub reused: u64,
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
/// delivers it: the report stays in its context, so the
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
    /// [`fingerprint`] of `program`: programs that differ here differ.
    fingerprint: u64,
    program: Program,
}

/// The multiplier of [`fold`]: the 64-bit golden ratio.
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

/// One multiply-rotate step of a fingerprint.
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FOLD)
}

/// The fingerprint of a program a shared snapshot can run: a fold of
/// each instruction's kind, the markers it names and its node, relation
/// or colour id. Floats and rules are left out, so equal programs share
/// a fingerprint and `Program ==` confirms every match. `None` when the
/// program holds a maintenance instruction: [`Server::offer`] sheds it,
/// in this one pass over the instructions.
fn fingerprint(program: &Program) -> Option<u64> {
    use Instruction::*;
    // A marker register as nine bits: its index and its kind.
    let m = |m: &Marker| u64::from(m.index()) << 1 | u64::from(m.kind() == MarkerKind::Binary);
    let mut h = 0;
    for instruction in program {
        let (kind, markers, id) = match instruction {
            SearchNode { node, marker, .. } => (0, m(marker), u64::from(node.0)),
            SearchRelation {
                relation, marker, ..
            } => (1, m(marker), u64::from(relation.0)),
            SearchColor { color, marker, .. } => (2, m(marker), u64::from(color.0)),
            Propagate { source, target, .. } => (3, m(source) | m(target) << 16, 0),
            AndMarker { a, b, target, .. } => (4, m(a) | m(b) << 16 | m(target) << 32, 0),
            OrMarker { a, b, target, .. } => (5, m(a) | m(b) << 16 | m(target) << 32, 0),
            NotMarker { source, target } => (6, m(source) | m(target) << 16, 0),
            SetMarker { marker, .. } => (7, m(marker), 0),
            ClearMarker { marker } => (8, m(marker), 0),
            FuncMarker { marker, .. } => (9, m(marker), 0),
            CollectMarker { marker } => (10, m(marker), 0),
            CollectRelation { marker, relation } => (11, m(marker), u64::from(relation.0)),
            CollectColor { marker } => (12, m(marker), 0),
            Barrier => (13, 0, 0),
            Create { .. }
            | Delete { .. }
            | SetColor { .. }
            | MarkerCreate { .. }
            | MarkerDelete { .. }
            | MarkerSetColor { .. } => return None,
        };
        h = fold(fold(h, kind | markers << 8), id);
    }
    Some(h)
}

/// A query server over one immutable KB snapshot.
///
/// [`offer`](Server::offer) admits programs into a bounded queue;
/// [`pump`](Server::pump) takes the oldest
/// [`ServeConfig::max_batch`] of them, in arrival order, and answers
/// each from the server's answer table or by running it through the
/// sequential engine's [`Walker`] in the server's one [`Region`], as a
/// SNAP-1 cluster runs every marker stream in its one marker table.
/// Nothing overtakes anything, so completions come back in [`QueryId`]
/// order and no query can starve; a query that fails is a query like
/// any other. Every buffer the pump touches — the queue, the answer
/// table, the region, the walker's scratch — is kept here, so
/// steady-state serving ([`Server::pump_with`] after warm-up) performs
/// no heap allocation per query.
///
/// The snapshot never changes, so a context's report stays the answer
/// to the program that produced it for the server's life. The answer
/// table is at most 64 contexts, with each context's program
/// fingerprint — a multiply-rotate fold of its instructions' kinds and
/// integer operands, taken in the pass [`offer`](Server::offer) makes
/// anyway — and the [`QueryId`] it last answered kept beside it in
/// dense arrays. A query scans the fingerprints, and `Program ==`
/// confirms a match: a query whose program the table holds completes
/// from that report, error included, without running
/// ([`ServeStats::reused`]), whether the run it reads came in this pump
/// or an earlier one. Any other query runs into a new context while the
/// table has fewer than 64, otherwise into the least recently used one,
/// and its program moves in. A program with a NaN constant equals
/// nothing, itself included, so its answer is read once: the next miss
/// runs in its context, and such programs never hold more than one.
pub struct Server {
    network: Arc<SemanticNetwork>,
    /// The snapshot's one-region set-up, built once here: the region
    /// and the contexts' partition statistics come from it.
    prepared: Prepared,
    cfg: ServeConfig,
    /// The sequential machine every run is: the evaluation
    /// configuration ([`MachineConfig::snap1_eval`]).
    machine: MachineConfig,
    /// The cost model stamped into every report.
    cost: CostModel,
    walker: Walker,
    /// The marker tables every run uses; each run resets them.
    region: Region,
    queue: VecDeque<Pending>,
    /// The answer table: at most [`MAX_PUMP`] contexts, each the answer
    /// to its program.
    contexts: Vec<QueryContext>,
    /// `fingerprints[k]` is the [`fingerprint`] of `contexts[k]`'s
    /// program: a lookup reads these, and a context only on a match.
    fingerprints: Vec<u64>,
    /// `last_used[k]` is the last query `contexts[k]` answered: a miss
    /// in a full table runs in the context with the smallest.
    last_used: Vec<u64>,
    /// The context, if any, whose program is not equal to itself: its
    /// answer matches no query, so the next miss runs there.
    unreadable: Option<usize>,
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
        Ok(Server {
            walker: Walker::new(),
            region: Region::new(ClusterId(0), Arc::clone(prepared.map()), &network),
            network,
            prepared,
            cfg,
            machine: MachineConfig::snap1_eval(),
            cost: CostModel::snap1(),
            queue: VecDeque::new(),
            contexts: Vec::new(),
            fingerprints: Vec::new(),
            last_used: Vec::new(),
            unreadable: None,
            stats: ServeStats::default(),
            next_id: 0,
        })
    }

    /// Offers one query. Admits it to the queue, or sheds it — with the
    /// reason — when the queue is full or the program cannot run on a
    /// shared snapshot. Every offer is accounted exactly once.
    pub fn offer(&mut self, program: Program) -> Admission {
        self.stats.offered += 1;
        let Some(fingerprint) = fingerprint(&program) else {
            self.stats.shed_invalid += 1;
            return Admission::Shed(ShedReason::Maintenance);
        };
        if self.queue.len() >= self.cfg.queue_capacity {
            self.stats.shed_overload += 1;
            return Admission::Shed(ShedReason::QueueFull);
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.stats.admitted += 1;
        self.queue.push_back(Pending {
            id,
            fingerprint,
            program,
        });
        Admission::Admitted(id)
    }

    /// Serves one batch: the oldest [`ServeConfig::max_batch`] queued
    /// queries, each answered from the answer table when it holds the
    /// query's program and run otherwise. Returns their completions in
    /// admission order (empty when the queue is idle).
    ///
    /// This convenience form clones each report out of its context; the
    /// steady-state serving loop uses [`Server::pump_with`], which does
    /// not.
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
    /// the answer table is warm, a pump performs no heap allocation.
    pub fn pump_with(&mut self, mut sink: impl FnMut(CompletionRef<'_>)) {
        let depth = self.queue.len().min(self.cfg.max_batch.clamp(1, MAX_PUMP));
        for _ in 0..depth {
            let Some(p) = self.queue.pop_front() else {
                break;
            };
            let k = self.answer(p.fingerprint, p.program);
            self.last_used[k] = p.id.0;
            let ctx = &self.contexts[k];
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
    }

    /// The context that answers `program`. The report of a program on
    /// an immutable snapshot is fixed by construction (the differential
    /// tests pin this down), so a context that already holds `program`
    /// answers without running. Otherwise `program` moves into the
    /// context whose answer no query can read, if there is one, else a
    /// new context or the least recently used one, and runs there.
    fn answer(&mut self, fingerprint: u64, program: Program) -> usize {
        let held = (self.fingerprints.iter().zip(&self.contexts))
            .position(|(&f, ctx)| f == fingerprint && ctx.program == program);
        if let Some(k) = held {
            self.stats.reused += 1;
            return k;
        }
        let k = match self.unreadable.take() {
            Some(k) => k,
            None if self.contexts.len() < MAX_PUMP => {
                self.contexts
                    .push(QueryContext::new(&self.prepared, Program::new()));
                self.fingerprints.push(0);
                self.last_used.push(0);
                self.contexts.len() - 1
            }
            None => (self.last_used.iter().enumerate())
                .min_by_key(|&(_, &used)| used)
                .map_or(0, |(k, _)| k),
        };
        self.fingerprints[k] = fingerprint;
        let ctx = &mut self.contexts[k];
        ctx.program = program;
        // A program with a NaN constant is not equal to itself, so no
        // later query reads this answer: the next miss runs here rather
        // than displace an answer that can be read.
        #[allow(clippy::eq_op)]
        let unreadable = ctx.program != ctx.program;
        if unreadable {
            self.unreadable = Some(k);
        }
        ctx.outcome = self.walker.run(
            &self.machine,
            &self.cost,
            &self.network,
            &mut self.region,
            &ctx.program,
            &mut ctx.report,
        );
        k
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

    /// Answers the answer table holds, one per context, each the answer
    /// to the last program that context ran (diagnostic: at most 64, so
    /// once the table is full serving allocates no new context).
    pub fn pool_size(&self) -> usize {
        self.contexts.len()
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
        Cmp, InstrClass, Instruction, PropRule, RuleArc, RuleProgram, RuleState, StepFunc,
        ValueFunc,
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
    fn a_depth_zero_server_serves_one_query_per_pump() {
        let net = snapshot();
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        let mut server = Server::new(net, cfg).unwrap();
        for n in 0..3 {
            server.offer(query(n));
        }
        let pumps: Vec<Vec<usize>> = (0..3)
            .map(|_| server.pump().iter().map(|c| c.batch_depth).collect())
            .collect();
        assert_eq!(pumps, vec![vec![1]; 3]);
        assert_eq!(server.queue_len(), 0);
        server.assert_accounting();
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

        // 100 copies of one program: the same two pumps, and one run.
        let mut server = Server::new(Arc::clone(&net), cfg).unwrap();
        for _ in 0..100 {
            server.offer(query(42));
        }
        let depths: Vec<usize> = (0..2).map(|_| server.pump().len()).collect();
        assert_eq!(depths, vec![MAX_PUMP, 36]);
        assert_eq!(server.pool_size(), 1, "one program, one answer");
        server.assert_accounting();
        assert_eq!(server.stats().completed, 100);
        assert_eq!(server.stats().reused, 99, "only the first query ran");
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
        assert_eq!(
            server.pool_size(),
            1,
            "both ran, in the one unreadable context"
        );
        assert_eq!(server.stats().reused, 0);
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
        let (node, relation, color) = (NodeId(0), RelationType(1), snap_kb::Color(7));
        let marker = Marker::binary(1);
        let maintenance = [
            Instruction::Create {
                source: node,
                relation,
                weight: 1.0,
                destination: node,
            },
            Instruction::Delete {
                source: node,
                relation,
                destination: node,
            },
            Instruction::SetColor { node, color },
            Instruction::MarkerCreate {
                marker,
                forward: relation,
                end: node,
                reverse: relation,
            },
            Instruction::MarkerDelete {
                marker,
                forward: relation,
                end: node,
                reverse: relation,
            },
            Instruction::MarkerSetColor { marker, color },
        ];
        for instruction in maintenance {
            assert_eq!(instruction.class(), InstrClass::Maintenance);
            // Behind a query, so the whole program is looked at.
            let program = Program::builder()
                .search_node(node, marker, 0.0)
                .instruction(instruction)
                .build();
            assert_eq!(
                server.offer(program),
                Admission::Shed(ShedReason::Maintenance)
            );
        }
        assert_eq!(server.stats().shed_invalid, 6);
        server.assert_accounting();
    }

    #[test]
    fn one_failing_lane_fails_alone_in_a_full_batch() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        // Warm the table with one clean depth-16 batch.
        for n in 0..16u32 {
            server.offer(query(n));
        }
        assert_eq!(server.pump().len(), 16);
        let warm = server.stats().completed;
        // Lanes 5 and 9 ask — identically — about a node the KB does not
        // have: lane 5 runs and fails, lane 9 gets its error unrun.
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
        assert_eq!((s.completed - warm, s.failed, s.reused), (14, 2, 1));
        assert_eq!(server.pool_size(), 16 + 15, "one answer per program");
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
        // The same four programs each round, in a rotated order: the
        // first round runs them, every later one answers from the table.
        for round in 0..3 {
            for n in 0..4u32 {
                server.offer(query((n + round) % 4));
            }
            let done = server.drain();
            assert_eq!(done.len(), 4);
            assert_eq!(server.pool_size(), 4, "round {round}: table stable");
            assert_eq!(server.stats().reused, 4 * u64::from(round));
        }
        server.assert_accounting();
    }

    #[test]
    fn duplicate_queries_coalesce_onto_one_lane() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        // Six offers, two distinct programs — one run each.
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
        assert_eq!(server.stats().reused, 4, "four duplicates did not run");
        let oracle = oracle();
        for (c, n) in done.iter().zip([7u32, 7, 120, 7, 120, 7]) {
            let want = oracle.run_shared(&net, &query(n)).unwrap();
            assert_eq!(c.result.as_ref().unwrap(), &want, "seed {n}");
        }
        server.assert_accounting();
        assert_eq!(server.stats().completed, 6);
    }

    #[test]
    fn a_program_repeated_in_the_next_pump_does_not_run_again() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        server.offer(query(7));
        server.offer(spread_query(7));
        assert_eq!(server.pump().len(), 2);
        assert_eq!(server.stats().reused, 0, "a cold table answers nothing");
        // The next pump asks both again, one of them twice: all three
        // queries are answered from the table.
        for p in [spread_query(7), query(7), spread_query(7)] {
            server.offer(p);
        }
        let done = server.pump();
        assert_eq!(server.stats().reused, 3, "neither program ran again");
        assert_eq!(server.pool_size(), 2);
        let oracle = oracle();
        for (c, p) in done
            .iter()
            .zip([spread_query(7), query(7), spread_query(7)])
        {
            assert_eq!(c.result, oracle.run_shared(&net, &p));
            assert_eq!(c.batch_depth, 3);
        }
        assert_eq!(done.iter().map(|c| c.id.0).collect::<Vec<_>>(), [2, 3, 4]);
        server.assert_accounting();
        assert_eq!(server.stats().completed, 5);
    }

    #[test]
    fn a_failing_program_answered_from_the_pool_fails_alike() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        // Node 300 is past the KB: the search fails.
        let want = oracle().run_shared(&net, &query(300));
        assert!(want.is_err());
        server.offer(query(300));
        let first = server.pump();
        server.offer(query(300));
        let second = server.pump();
        assert_eq!(server.stats().reused, 1, "the second pump ran nothing");
        assert_eq!(first[0].result, want);
        assert_eq!(second[0].result, want, "the same error, without running");
        let s = server.stats();
        assert_eq!((s.completed, s.failed), (0, 2));
        server.assert_accounting();
    }

    /// A one-node walk whose `KEEP-IF value < NaN` makes it unequal to
    /// itself: it matches no query, not even its own repeat.
    fn nan_query(node: u32) -> Program {
        Program::builder()
            .search_node(NodeId(node), Marker::complex(2), 0.0)
            .func_marker(Marker::complex(2), ValueFunc::KeepIf(Cmp::Lt, f32::NAN))
            .collect_marker(Marker::complex(2))
            .build()
    }

    #[test]
    fn a_nan_program_is_never_answered_from_the_pool() {
        let net = snapshot();
        let program = nan_query(3);
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        let want = oracle().run_shared(&net, &program);
        for _ in 0..3 {
            server.offer(program.clone());
            assert_eq!(server.pump()[0].result, want);
        }
        assert_eq!(server.stats().reused, 0, "NaN equals nothing");
        assert_eq!(
            server.pool_size(),
            1,
            "each run took the unreadable context"
        );
        server.assert_accounting();
    }

    #[test]
    fn nan_programs_never_displace_a_readable_answer() {
        let net = snapshot();
        let oracle = oracle();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        let p = query(5);
        server.offer(p.clone());
        for n in 0..70 {
            server.offer(nan_query(n));
        }
        server.offer(p.clone());
        for c in server.drain() {
            let want = match c.id.0 {
                0 | 71 => oracle.run_shared(&net, &p),
                n => oracle.run_shared(&net, &nan_query(n as u32 - 1)),
            };
            assert_eq!(c.result, want, "query {}", c.id.0);
        }
        assert_eq!(server.stats().reused, 1, "the repeat of p did not run");
        assert!(server.pool_size() <= 2, "{}", server.pool_size());
        // A readable miss takes the unreadable context, and is then held.
        let q = query(9);
        for _ in 0..2 {
            server.offer(q.clone());
            assert_eq!(server.pump()[0].result, oracle.run_shared(&net, &q));
        }
        assert_eq!(server.stats().reused, 2);
        assert_eq!(server.pool_size(), 2);
        server.assert_accounting();
    }

    #[test]
    fn a_miss_overwrites_the_least_recently_used_answer() {
        let net = snapshot();
        let cfg = ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(Arc::clone(&net), cfg).unwrap();
        let oracle = oracle();
        // Fill the table: `query(n)` for n in 0..64, query 0 answered
        // first, so least recently used.
        for n in 0..MAX_PUMP as u32 {
            server.offer(query(n));
        }
        server.drain();
        assert_eq!(server.pool_size(), MAX_PUMP);
        // Each step: the program one pump asks, and `reused` after it.
        // Asking 0 makes 1 the least recently used; 64 overwrites 1, so
        // asking 1 runs again and overwrites 2, the next oldest; 0 and
        // 64 are still held.
        let steps = [(0, 1), (64, 1), (1, 1), (0, 2), (64, 3), (2, 3)];
        for (step, (n, reused)) in steps.into_iter().enumerate() {
            server.offer(query(n));
            let done = server.pump();
            assert_eq!(
                done[0].result,
                oracle.run_shared(&net, &query(n)),
                "step {step}"
            );
            assert_eq!(server.stats().reused, reused, "step {step}");
            assert_eq!(server.pool_size(), MAX_PUMP, "step {step}");
        }
        server.assert_accounting();
    }

    #[test]
    fn a_zipf_stream_runs_each_program_once() {
        let net = snapshot();
        let mut server = Server::new(Arc::clone(&net), ServeConfig::default()).unwrap();
        // Zipf(1.2) over 32 programs, two shapes over sixteen nodes,
        // drawn by a fixed xorshift: the serve-hot workload in small.
        let programs: Vec<Program> = (0..16u32)
            .flat_map(|n| [query(n * 17), spread_query(n * 17)])
            .collect();
        let weights: Vec<f64> = (1..=32).map(|r| f64::from(r).powf(-1.2)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let stream: Vec<usize> = (0..2_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut draw = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
                weights
                    .iter()
                    .position(|&w| {
                        draw -= w;
                        draw < 0.0
                    })
                    .unwrap_or(31)
            })
            .collect();
        let mut seen = [false; 32];
        stream.iter().for_each(|&i| seen[i] = true);
        assert!(seen.iter().all(|&s| s), "the stream asks every program");
        let oracle = oracle();
        let solo: Vec<_> = programs
            .iter()
            .map(|p| oracle.run_shared(&net, p))
            .collect();
        for chunk in stream.chunks(64) {
            for &i in chunk {
                server.offer(programs[i].clone());
            }
            while server.queue_len() > 0 {
                let done = server.pump();
                assert!(done.iter().all(|c| c.batch_depth == 16));
                for c in done {
                    assert_eq!(c.result, solo[stream[c.id.0 as usize]], "query {}", c.id.0);
                }
            }
        }
        let s = server.stats();
        assert_eq!(s.completed + s.failed - s.reused, 32, "one run per program");
        assert_eq!(server.pool_size(), 32);
        server.assert_accounting();
    }

    #[test]
    fn equal_programs_share_a_fingerprint() {
        let programs = [query(7), spread_query(7), once_query(7), query(8)];
        for p in &programs {
            assert_eq!(fingerprint(p), fingerprint(&p.clone()));
        }
        let mut prints: Vec<u64> = programs.iter().map(|p| fingerprint(p).unwrap()).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), programs.len());
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
