//! The wave kernel: level-synchronous frontier propagation for one
//! query ([`propagate_wave_in`], over a pooled [`WaveScratch`]). The
//! lockstep 64-lane sweep ([`propagate_multi_wave_sliced`]) is kept for
//! the benchmark's probe only; no engine and no server calls it.
//!
//! The scalar loop in the sequential engine is the executable spec for
//! `PROPAGATE`: pop one task, expand it, merge its arrivals, repeat.
//! Because the FIFO schedule is level-synchronous — seeds sit at level 0
//! and every accepted arrival is requeued at `parent + 1` — the same
//! computation can be restructured into *waves*: all tasks of one level
//! expand together against dense per-state bitmaps over the node arena.
//! [`propagate_wave_in`] runs that restructured loop: it scatters from the
//! frontier through the CSR out-runs, one expansion per task in wave
//! order with its arrivals interleaved immediately. That is literally
//! the scalar loop minus the ready-queue shuffling, so the whole event
//! sequence — every expansion, every arrival, in order — matches the
//! spec, which the differential grid asserts on whole reports.
//!
//! There is one direction. SNAP-1 scatters a marker from the active
//! node through that node's relation slots and its tiered
//! synchronization counts every marker produced and consumed, so no
//! step may skip an arrival: a gather (pull) direction has nothing to
//! early-exit on (DESIGN.md "Propagation kernel" has the measurement).
//!
//! Visited decisions go through the one table every engine uses
//! ([`VisitedMap`]), pooled in the caller's [`WaveScratch`]: a wave
//! clears the seen words of the tables it touches and nothing else, so
//! no node-count-sized table is built or zeroed per `PROPAGATE`. The
//! kernel runs one propagation per reset, so it keys every probe by
//! propagation 0. Rule states have at most [`MAX_RULE_ARCS`] arcs and
//! every engine flushes its relation table at entry, so the kernel takes
//! any `PROPAGATE`: the sequential engine (and every served query) and
//! the CM-2 comparator run all of theirs here, and the sequential
//! engine's scalar loop is taken for fuzzed schedules only.

use crate::error::CoreError;
use crate::propagate::{expand_into, PropArrival, PropTask, VisitedMap};
use crate::region::improves;
use snap_isa::{RuleProgram, StepFunc, MAX_RULE_ARCS};
use snap_kb::{LanePlane, MarkerValue, NodeId, SemanticNetwork};

/// Lane capacity of the bit-sliced multi-query kernel: one bit per lane
/// in a host word, so one sweep fuses at most 64 queries.
pub const MAX_SLICED_LANES: usize = 64;

/// Engine-side observer for a wave run.
///
/// The kernel owns task ordering and visited decisions; the sink owns
/// everything the engine accounts per event — expansion counts, cost-
/// model nanoseconds, marker merges ([`Region::arrive`]), traffic stats,
/// and depth tracking. One trait (rather than two closures) so a single
/// `&mut` engine context can back both callbacks.
///
/// [`Region::arrive`]: crate::Region::arrive
pub trait WaveSink {
    /// One task expanded: `segments`/`links_scanned` are the relation-
    /// table cost units and `arrivals` the number of arrivals it
    /// produced. Called once per task in spec order, including tasks at
    /// the hop cap, whose arrivals are charged but never delivered
    /// (exactly like the scalar loop).
    fn on_expand(
        &mut self,
        task: &PropTask,
        segments: usize,
        links_scanned: usize,
        arrivals: usize,
    );

    /// One arrival delivered (counted whether or not it improves the
    /// visited entry), in exact spec order.
    fn on_arrival(&mut self, task: &PropTask, arrival: &PropArrival) -> Result<(), CoreError>;
}

/// What a wave run did: total waves and distinct `(state, node)` sites
/// visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveStats {
    /// Frontier waves processed (= deepest level reached + 1).
    pub waves: usize,
    /// Always 0: kept only because `benchmark/src/probe.rs` reads it.
    pub pull_waves: usize,
    /// Distinct `(state, node)` sites expanded: the
    /// [`VisitedMap::len`] of the run's table.
    pub visited: usize,
}

/// Runs one `PROPAGATE` as level-synchronous waves over a pooled
/// `scratch`, reporting every expansion and arrival to `sink`.
///
/// `seeds` are gated through the visited tables in order (duplicates
/// and non-improvements drop, exactly like the scalar seed loop) and
/// become wave 0. A wave at `max_hops` still expands — its cost is
/// charged — but delivers no arrivals. Whatever `scratch` last ran —
/// another network, another rule, a wave its sink failed — is
/// unobservable here.
///
/// # Errors
///
/// Propagates the first error `sink.on_arrival` returns.
///
/// # Panics
///
/// Panics if `network` has staged links, like [`expand_into`].
#[allow(clippy::too_many_arguments)]
pub fn propagate_wave_in<S: WaveSink>(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    prop: usize,
    max_hops: u8,
    seeds: &[(NodeId, f32)],
    scratch: &mut WaveScratch,
    sink: &mut S,
) -> Result<WaveStats, CoreError> {
    assert_eq!(
        network.staged_link_count(),
        0,
        "wave kernel needs a flushed relation table"
    );
    let WaveScratch {
        visited,
        wave,
        next,
        arrivals,
        ..
    } = scratch;
    visited.reset_for(network.node_count());
    wave.clear();
    next.clear();
    let mut stats = WaveStats::default();

    for &(node, value) in seeds {
        if visited.should_expand(0, 0, node, value, node) {
            wave.push(PropTask {
                prop,
                node,
                state: 0,
                value,
                origin: node,
                level: 0,
            });
        }
    }

    while !wave.is_empty() {
        stats.waves += 1;
        let capped = wave[0].level >= max_hops;
        push_wave(
            network, rule, func, prop, capped, wave, visited, sink, next, arrivals,
        )?;
        std::mem::swap(wave, next);
        next.clear();
    }
    stats.visited = visited.len();
    Ok(stats)
}

/// [`propagate_wave_in`] over a fresh [`WaveScratch`], with the
/// signature `benchmark/src/probe.rs` calls; `_pull_density` is ignored.
///
/// # Errors
///
/// Propagates the first error `sink.on_arrival` returns.
///
/// # Panics
///
/// Panics if `network` has staged links.
#[allow(clippy::too_many_arguments)]
pub fn propagate_wave<S: WaveSink>(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    prop: usize,
    max_hops: u8,
    _pull_density: f64,
    seeds: &[(NodeId, f32)],
    sink: &mut S,
) -> Result<WaveStats, CoreError> {
    let scratch = &mut WaveScratch::new();
    propagate_wave_in(network, rule, func, prop, max_hops, seeds, scratch, sink)
}

/// The scalar loop restructured over one wave. Expands each task in
/// wave order and interleaves its arrivals immediately, so the full
/// event sequence matches the spec.
#[allow(clippy::too_many_arguments)]
fn push_wave<S: WaveSink>(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    prop: usize,
    capped: bool,
    wave: &[PropTask],
    visited: &mut VisitedMap,
    sink: &mut S,
    next: &mut Vec<PropTask>,
    arrivals: &mut Vec<PropArrival>,
) -> Result<(), CoreError> {
    // Single-state single-arc rules (`Star`) never change state, so the
    // arc — and the whole dispatch below — hoists out of the task loop.
    if let [state] = rule.states() {
        if let [arc] = state.arcs() {
            for task in wave {
                let (segments, fanout, run, _) =
                    network.ranked_links_with_cost(task.node, arc.relation);
                sink.on_expand(task, segments, fanout, run.len());
                if capped {
                    continue;
                }
                stream_run(task, run, arc.next, func, prop, visited, sink, next)?;
            }
            return Ok(());
        }
    }
    for task in wave {
        match rule.state(task.state).arcs() {
            // Single-arc fast path — most built-in rule states. One
            // fused row lookup yields cost units and the relation run,
            // and arrivals stream straight off the run (already in
            // insertion order, so the event sequence matches
            // expand_into's single-arc path exactly) without touching
            // the scratch buffer.
            [arc] => {
                let (segments, fanout, run, _) =
                    network.ranked_links_with_cost(task.node, arc.relation);
                sink.on_expand(task, segments, fanout, run.len());
                if capped {
                    continue;
                }
                stream_run(task, run, arc.next, func, prop, visited, sink, next)?;
            }
            // Two arcs (Spread's live state, Union): inline two-pointer
            // merge of the ranked runs in ascending `(rank, arc)` order
            // — arc 0 wins rank ties, exactly like expand_into's merge
            // cursor — again without the arrivals buffer. Nodes carrying
            // only one of the two relations (the common case in a
            // taxonomy KB) degenerate to the streaming path.
            [a0, a1] => {
                let (segments, fanout, run0, ranks0) =
                    network.ranked_links_with_cost(task.node, a0.relation);
                let (run1, ranks1) = network.ranked_links_by(task.node, a1.relation);
                sink.on_expand(task, segments, fanout, run0.len() + run1.len());
                if capped {
                    continue;
                }
                if run1.is_empty() {
                    stream_run(task, run0, a0.next, func, prop, visited, sink, next)?;
                    continue;
                }
                if run0.is_empty() {
                    stream_run(task, run1, a1.next, func, prop, visited, sink, next)?;
                    continue;
                }
                let level = task.level + 1;
                let (mut i, mut j) = (0, 0);
                loop {
                    let take0 = match (ranks0.get(i), ranks1.get(j)) {
                        (Some(&r0), Some(&r1)) => r0 <= r1,
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => break,
                    };
                    let (link, state) = if take0 {
                        let link = &run0[i];
                        i += 1;
                        (link, a0.next)
                    } else {
                        let link = &run1[j];
                        j += 1;
                        (link, a1.next)
                    };
                    let value = func.apply(task.value, link.weight);
                    let arrival = PropArrival {
                        node: link.destination,
                        state,
                        value,
                    };
                    sink.on_arrival(task, &arrival)?;
                    if visited.should_expand(0, state, link.destination, value, task.origin) {
                        next.push(PropTask {
                            prop,
                            node: link.destination,
                            state,
                            value,
                            origin: task.origin,
                            level,
                        });
                    }
                }
            }
            // Terminal and 3+-arc states take the shared merge path.
            _ => {
                let (segments, links_scanned) = expand_into(network, rule, func, task, arrivals);
                sink.on_expand(task, segments, links_scanned, arrivals.len());
                if capped {
                    continue;
                }
                let level = task.level + 1;
                for arrival in arrivals.iter() {
                    sink.on_arrival(task, arrival)?;
                    if visited.should_expand(
                        0,
                        arrival.state,
                        arrival.node,
                        arrival.value,
                        task.origin,
                    ) {
                        next.push(PropTask {
                            prop,
                            node: arrival.node,
                            state: arrival.state,
                            value: arrival.value,
                            origin: task.origin,
                            level,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Delivers one relation run's arrivals in slice order: the inner loop
/// of both fast paths.
#[allow(clippy::too_many_arguments)]
#[inline]
fn stream_run<S: WaveSink>(
    task: &PropTask,
    run: &[snap_kb::Link],
    state: u8,
    func: StepFunc,
    prop: usize,
    visited: &mut VisitedMap,
    sink: &mut S,
    next: &mut Vec<PropTask>,
) -> Result<(), CoreError> {
    let level = task.level + 1;
    for link in run {
        let value = func.apply(task.value, link.weight);
        let arrival = PropArrival {
            node: link.destination,
            state,
            value,
        };
        sink.on_arrival(task, &arrival)?;
        if visited.should_expand(0, state, link.destination, value, task.origin) {
            next.push(PropTask {
                prop,
                node: link.destination,
                state,
                value,
                origin: task.origin,
                level,
            });
        }
    }
    Ok(())
}

/// One query's lane through a fused multi-query sweep: its
/// current/next frontier and the per-task site index the sweep scatters
/// back each level (the lane's visited state lives in the scratch's
/// lane-major planes). Pool lanes across batches — each sweep clears
/// them in place, so a steady-state replay allocates nothing per query.
///
/// Kept for `benchmark/src/probe.rs:437-515` until ROADMAP item 9: no
/// engine and no server runs the fused sweep.
#[derive(Default)]
pub struct BatchLane {
    wave: Vec<PropTask>,
    next: Vec<PropTask>,
    /// `rec_of[pos]` = index into the scratch site records for the
    /// task at `wave[pos]`, valid for the current level only.
    rec_of: Vec<u32>,
}

impl BatchLane {
    /// Creates an empty lane; the first sweep sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Caller-pooled scratch shared by every lane of a fused sweep: one
/// site record per distinct `(node, state)`, the flat arrival templates
/// the records slice into, and a generation-stamped site index that
/// dedups sites in O(1) per task (no sorting — the per-level cost is
/// linear in the summed frontier size). Reuse one scratch across
/// batches; each sweep clears it in place.
///
/// Kept for `benchmark/src/probe.rs:437-515` until ROADMAP item 9: no
/// engine and no server runs the fused sweep.
#[derive(Default)]
pub struct MultiWaveScratch {
    recs: Vec<SiteRec>,
    template: Vec<TemplateArrival>,
    /// `site_gen[state][node] == gen` marks the site as already probed
    /// this level; `site_rec[state][node]` then holds its record index.
    /// Stamping makes per-level reset free.
    site_gen: Vec<Vec<u64>>,
    site_rec: Vec<Vec<u32>>,
    gen: u64,
    sliced: SlicedPlanes,
}

impl MultiWaveScratch {
    /// Creates an empty scratch; the first sweep sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the bit-sliced planes for a `lanes`-query sweep over a
    /// `states`-state rule and `nodes` node slots: clears every plane
    /// (O(slots touched last sweep)) and sets the lane stride. Must run
    /// before [`MultiWaveScratch::seed_marker`] and
    /// [`propagate_multi_wave_sliced`], which assert the stride.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_SLICED_LANES`].
    pub fn begin_sliced(&mut self, lanes: usize, states: usize, nodes: usize) {
        assert!(
            (1..=MAX_SLICED_LANES).contains(&lanes),
            "sliced sweeps hold 1..=64 lanes"
        );
        let p = &mut self.sliced;
        p.k = lanes;
        while p.seen.len() < states {
            p.seen.push(LanePlane::new());
            p.best.push(Vec::new());
        }
        let stride = nodes * lanes;
        for s in 0..states {
            p.seen[s].reset();
            p.seen[s].ensure(nodes);
            if p.best[s].len() < stride {
                p.best[s].resize(stride, (0.0, NodeId(0)));
            }
        }
        p.marker_seen.reset();
        p.marker_seen.ensure(nodes);
        if p.marker_best.len() < stride {
            p.marker_best.resize(stride, MarkerValue::default());
        }
    }

    /// Pre-loads `lane`'s marker plane with one node of the target
    /// marker's *existing* region state (`value` carries the payload
    /// for a complex target, `None` for binary). Required for
    /// bit-identity whenever the target marker is already active
    /// before the propagation: the epsilon merge fold is
    /// order-sensitive, so folding arrivals from an empty plane and
    /// reconciling with the region afterwards can pick a different
    /// `(value, origin)` than the spec's arrival-by-arrival merge
    /// against the pre-existing entry.
    pub fn seed_marker(&mut self, lane: usize, node: NodeId, value: Option<MarkerValue>) {
        let p = &mut self.sliced;
        debug_assert!(lane < p.k, "seed_marker after begin_sliced");
        let n = node.index();
        p.marker_seen.or(n, 1 << lane);
        if let Some(v) = value {
            let idx = n * p.k + lane;
            if idx >= p.marker_best.len() {
                p.marker_best.resize((n + 1) * p.k, MarkerValue::default());
            }
            p.marker_best[idx] = v;
        }
    }

    /// Drains one lane's folded target-marker state after a sliced
    /// sweep: every node the lane's propagation (or pre-seed) touched,
    /// with the final merged payload when `complex` (binary markers
    /// carry none). Node order follows first touch across the whole
    /// batch, which is fine for the content-addressed absorb — the
    /// fold already happened per arrival, in spec order.
    pub fn marker_results(
        &self,
        lane: usize,
        complex: bool,
    ) -> impl Iterator<Item = (NodeId, Option<MarkerValue>)> + '_ {
        let p = &self.sliced;
        let bit = 1u64 << lane;
        let k = p.k;
        p.marker_seen.touched().iter().filter_map(move |&slot| {
            let s = slot as usize;
            if p.marker_seen.word(s) & bit == 0 {
                return None;
            }
            let value = if complex {
                Some(p.marker_best[s * k + lane])
            } else {
                None
            };
            Some((NodeId(slot), value))
        })
    }
}

/// The lane-major state of one sliced sweep: per rule state one
/// [`LanePlane`] (slot = node) answering "which lanes have visited this
/// site?" in a single word, plus a lane-strided `(value, origin)` array
/// for the comparator fallback; the same pair again for the target
/// marker; and the round-grouping scratch that gangs each round's tasks
/// into per-site lane masks.
#[derive(Default)]
struct SlicedPlanes {
    /// Lane stride of the arrays below — the batch depth K ≤ 64.
    k: usize,
    /// Visited plane per rule state.
    seen: Vec<LanePlane>,
    /// `best[state][node * k + lane]` — valid behind a set seen bit.
    best: Vec<Vec<(f32, NodeId)>>,
    /// Which lanes hold the target marker at each node.
    marker_seen: LanePlane,
    /// `marker_best[node * k + lane]` — the folded payload.
    marker_best: Vec<MarkerValue>,
    /// Round-stamped site grouping: `round_gen[rec] == round` marks the
    /// site live this round with lane mask `round_mask[rec]`.
    round_gen: Vec<u64>,
    round_mask: Vec<u64>,
    /// Distinct site records of the current round, in first-lane order.
    round_sites: Vec<u32>,
    round: u64,
    /// Per-site expansion cost of the current level, from the caller's
    /// cost closure — computed once per site, charged once per lane.
    rec_ns: Vec<u64>,
    /// Each live lane's task at the current round position.
    round_task: Vec<PropTask>,
}

/// Cost units and template slice of one distinct `(node, state)` site,
/// probed once per level no matter how many lanes expand it.
#[derive(Clone, Copy)]
struct SiteRec {
    segments: u32,
    fanout: u32,
    start: u32,
    len: u32,
}

/// One arrival of a site's expansion template: everything about the
/// arrival except the task-dependent value, which each lane computes by
/// applying the step function to its own task value — the exact
/// operation [`expand_into`] performs, so values are bit-identical.
#[derive(Clone, Copy)]
struct TemplateArrival {
    node: NodeId,
    state: u8,
    weight: f32,
}

/// Per-lane outcome of one bit-sliced sweep: the [`WaveStats`] of a solo
/// [`propagate_wave`] run plus the counters its sink would have
/// accumulated — task expansions, arrival deliveries, deepest delivered
/// level, and the summed per-expansion nanoseconds from the caller's
/// cost closure.
///
/// Kept for `benchmark/src/probe.rs:437-515` until ROADMAP item 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlicedLaneReport {
    /// Wave/visited statistics, identical to a solo run's.
    pub stats: WaveStats,
    /// Tasks expanded (hop-capped and empty expansions included).
    pub expansions: u64,
    /// Arrivals delivered (counted whether or not they improved).
    pub activations: u64,
    /// Deepest level that delivered an arrival, plus one.
    pub max_depth: u8,
    /// Summed expansion cost from the caller's closure.
    pub expand_ns: u64,
}

/// One lane's visited fold through the sliced planes — the single-lane
/// form (seed gating) of the word-parallel fold in the round loop.
fn sliced_visit(
    p: &mut SlicedPlanes,
    state: u8,
    node: NodeId,
    lane: usize,
    value: f32,
    origin: NodeId,
    visited: &mut usize,
) -> bool {
    let n = node.index();
    let bit = 1u64 << lane;
    let prev = p.seen[state as usize].or(n, bit);
    let best = &mut p.best[state as usize];
    let idx = n * p.k + lane;
    if idx >= best.len() {
        best.resize((n + 1) * p.k, (0.0, NodeId(0)));
    }
    let slot = &mut best[idx];
    if prev & bit == 0 {
        *slot = (value, origin);
        *visited += 1;
        return true;
    }
    if improves(*slot, value, origin) {
        *slot = (value.min(slot.0), origin);
        true
    } else {
        false
    }
}

/// Runs one `PROPAGATE` for `K = lanes.len() ≤ 64` independent queries
/// as fused level-synchronous waves with all per-lane state transposed
/// into lane-major bit-planes: `seeds[k]` feeds lane `k`, whose outcome
/// lands in `out[k]`.
///
/// Kept for `benchmark/src/probe.rs:437-515` until ROADMAP item 9: the
/// server ran this sweep until one [`propagate_wave_in`] per lane over
/// a pooled [`WaveScratch`] measured faster (DESIGN.md "Serving"), and
/// nothing but the benchmark's replay calls it now.
///
/// All lanes advance in lockstep, one level at a time. Each level the
/// frontier tasks of every lane are grouped by `(node, state)`
/// site; each distinct site's CSR row probe, rank merge, and arrival
/// template are computed **once** and shared by every lane holding a
/// task there.
/// The level then walks **rounds** (wave position `p` ascending) and
/// each round's tasks grouped by site into one K-bit lane-mask word.
/// That grouping is sound because visited and marker decisions at
/// distinct sites are independent — only the per-(lane, destination)
/// arrival order matters, and a lane holds at most one task per round,
/// so its arrivals still land in (round ascending, template order) =
/// wave order × template order: exactly the scalar spec's sequence, so
/// every lane is bit-identical to running [`propagate_wave`] — and
/// therefore the scalar loop — on that lane's seeds alone. Per template
/// arrival, one `OR` on the site's lane plane check-and-sets **all**
/// lanes at once; lanes whose bit was clear are guaranteed first visits
/// and skip the comparator, and only the rest replay the per-lane
/// `(value, origin)` merge.
///
/// A level at `max_hops` still counts every lane's expansions (their
/// cost is charged) but delivers no arrivals, like the scalar loop.
///
/// The target-marker fold runs in the same planes ([`Region::arrive`]'s
/// exact merge, keyed by node), so the region is untouched during the
/// sweep: the caller pre-seeds any existing target state with
/// [`MultiWaveScratch::seed_marker`], absorbs the fixed point from
/// [`MultiWaveScratch::marker_results`] afterwards, and charges
/// `out[k].expand_ns` (accumulated through `expand_cost`, computed
/// once per site per level) instead of running a sink per event.
///
/// [`Region::arrive`]: crate::Region::arrive
///
/// # Panics
///
/// Panics if `network` has staged links, if `seeds`/`lanes`/`out`
/// disagree on the query count, or if
/// [`MultiWaveScratch::begin_sliced`] wasn't called for this lane
/// count.
#[allow(clippy::too_many_arguments)]
pub fn propagate_multi_wave_sliced(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    prop: usize,
    max_hops: u8,
    seeds: &[&[(NodeId, f32)]],
    lanes: &mut [BatchLane],
    scratch: &mut MultiWaveScratch,
    complex_target: bool,
    expand_cost: impl Fn(usize, usize, usize) -> u64,
    out: &mut [SlicedLaneReport],
) {
    assert_eq!(
        network.staged_link_count(),
        0,
        "wave kernel needs a flushed relation table"
    );
    let k = lanes.len();
    assert!(
        seeds.len() == k && out.len() == k,
        "seeds, lanes, and out must agree on the query count"
    );
    assert_eq!(
        scratch.sliced.k, k,
        "call begin_sliced for this lane count before the sweep"
    );
    let states = rule.states().len();

    // Seeds gate through the state-0 visited plane in order, exactly
    // like the scalar seed loop.
    for (li, (lane, &lane_seeds)) in lanes.iter_mut().zip(seeds).enumerate() {
        lane.wave.clear();
        lane.next.clear();
        lane.rec_of.clear();
        for &(node, value) in lane_seeds {
            if sliced_visit(
                &mut scratch.sliced,
                0,
                node,
                li,
                value,
                node,
                &mut out[li].stats.visited,
            ) {
                lane.wave.push(PropTask {
                    prop,
                    node,
                    state: 0,
                    value,
                    origin: node,
                    level: 0,
                });
            }
        }
    }

    let MultiWaveScratch {
        recs,
        template,
        site_gen,
        site_rec,
        gen,
        sliced,
    } = scratch;
    while site_gen.len() < states {
        site_gen.push(Vec::new());
        site_rec.push(Vec::new());
    }
    sliced.round_task.resize(
        k,
        PropTask {
            prop: 0,
            node: NodeId(0),
            state: 0,
            value: 0.0,
            origin: NodeId(0),
            level: 0,
        },
    );

    let mut level: usize = 0;
    loop {
        let mut live = false;
        let mut max_len = 0;
        for (li, lane) in lanes.iter_mut().enumerate() {
            if lane.wave.is_empty() {
                continue;
            }
            live = true;
            out[li].stats.waves += 1;
            max_len = max_len.max(lane.wave.len());
            lane.rec_of.clear();
            lane.rec_of.resize(lane.wave.len(), 0);
        }
        if !live {
            break;
        }

        // Build each distinct site's record — cost units plus arrival
        // template — once, stamping its index into the site table so
        // every later task at the site (any lane) reuses it in O(1).
        *gen += 1;
        recs.clear();
        template.clear();
        for lane in lanes.iter_mut() {
            for (pi, task) in lane.wave.iter().enumerate() {
                let st = task.state as usize;
                let n = task.node.index();
                if n >= site_gen[st].len() {
                    site_gen[st].resize(n + 1, 0);
                    site_rec[st].resize(n + 1, 0);
                }
                let rec_id = if site_gen[st][n] == *gen {
                    site_rec[st][n]
                } else {
                    let rec = expand_template(network, rule, task.node, task.state, template);
                    let id = recs.len() as u32;
                    recs.push(rec);
                    site_gen[st][n] = *gen;
                    site_rec[st][n] = id;
                    id
                };
                lane.rec_of[pi] = rec_id;
            }
        }
        // Expansion cost once per distinct site, charged per lane.
        sliced.rec_ns.clear();
        sliced.rec_ns.extend(
            recs.iter()
                .map(|r| expand_cost(r.segments as usize, r.fanout as usize, r.len as usize)),
        );
        if sliced.round_gen.len() < recs.len() {
            sliced.round_gen.resize(recs.len(), 0);
            sliced.round_mask.resize(recs.len(), 0);
        }

        let SlicedPlanes {
            k: stride,
            seen,
            best,
            marker_seen,
            marker_best,
            round_gen,
            round_mask,
            round_sites,
            round,
            rec_ns,
            round_task,
        } = sliced;
        let stride = *stride;
        let capped = level >= max_hops as usize;
        let depth = (level + 1).min(u8::MAX as usize) as u8;

        for pos in 0..max_len {
            // Gang this round's tasks — at most one per lane — into
            // per-site lane masks.
            *round += 1;
            round_sites.clear();
            for (li, lane) in lanes.iter().enumerate() {
                let Some(task) = lane.wave.get(pos) else {
                    continue;
                };
                let rec = lane.rec_of[pos] as usize;
                if round_gen[rec] != *round {
                    round_gen[rec] = *round;
                    round_mask[rec] = 0;
                    round_sites.push(rec as u32);
                }
                round_mask[rec] |= 1 << li;
                round_task[li] = *task;
            }
            for &rec_id in round_sites.iter() {
                let rec_id = rec_id as usize;
                let mask = round_mask[rec_id];
                let rec = recs[rec_id];
                let ns = rec_ns[rec_id];
                let mut m = mask;
                while m != 0 {
                    let li = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[li].expansions += 1;
                    out[li].expand_ns += ns;
                }
                if capped || rec.len == 0 {
                    continue;
                }
                let mut m = mask;
                while m != 0 {
                    let li = m.trailing_zeros() as usize;
                    m &= m - 1;
                    out[li].activations += rec.len as u64;
                    if out[li].max_depth < depth {
                        out[li].max_depth = depth;
                    }
                }
                let window = rec.start as usize..(rec.start + rec.len) as usize;
                for t in &template[window] {
                    let n = t.node.index();
                    let st = t.state as usize;
                    // One word op check-and-sets the site for every
                    // lane in the round: `!prev & mask` are guaranteed
                    // first visits that skip the comparator.
                    let prev_m = marker_seen.or(n, mask);
                    let prev_v = seen[st].or(n, mask);
                    let need = (n + 1) * stride;
                    if best[st].len() < need {
                        best[st].resize(need, (0.0, NodeId(0)));
                    }
                    if complex_target && marker_best.len() < need {
                        marker_best.resize(need, MarkerValue::default());
                    }
                    let vbest = &mut best[st];
                    let mut m = mask;
                    while m != 0 {
                        let li = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let bit = 1u64 << li;
                        let task = &round_task[li];
                        let value = func.apply(task.value, t.weight);
                        if complex_target {
                            let slot = &mut marker_best[n * stride + li];
                            if prev_m & bit == 0 {
                                *slot = MarkerValue {
                                    value,
                                    origin: task.origin,
                                };
                            } else if improves((slot.value, slot.origin), value, task.origin) {
                                *slot = MarkerValue {
                                    value: value.min(slot.value),
                                    origin: task.origin,
                                };
                            }
                        }
                        let slot = &mut vbest[n * stride + li];
                        let accept = if prev_v & bit == 0 {
                            *slot = (value, task.origin);
                            out[li].stats.visited += 1;
                            true
                        } else if improves(*slot, value, task.origin) {
                            *slot = (value.min(slot.0), task.origin);
                            true
                        } else {
                            false
                        };
                        if accept {
                            lanes[li].next.push(PropTask {
                                prop,
                                node: t.node,
                                state: t.state,
                                value,
                                origin: task.origin,
                                level: depth,
                            });
                        }
                    }
                }
            }
        }
        for lane in lanes.iter_mut() {
            std::mem::swap(&mut lane.wave, &mut lane.next);
            lane.next.clear();
        }
        level += 1;
    }
}

/// Expands one `(node, state)` site into weight-level template
/// arrivals, mirroring [`expand_into`]'s order and cost units exactly:
/// terminal states scan nothing; a single arc streams its run; multi-
/// arc states merge their runs in ascending `(insertion rank, arc
/// index)` order.
fn expand_template(
    network: &SemanticNetwork,
    rule: &RuleProgram,
    node: NodeId,
    state: u8,
    template: &mut Vec<TemplateArrival>,
) -> SiteRec {
    let start = template.len() as u32;
    let s = rule.state(state);
    if s.is_terminal() {
        return SiteRec {
            segments: 0,
            fanout: 0,
            start,
            len: 0,
        };
    }
    let segments = network.segments(node) as u32;
    let fanout = network.fanout(node) as u32;
    let arcs = s.arcs();
    if let [arc] = arcs {
        let (run, _) = network.ranked_links_by(node, arc.relation);
        template.reserve(run.len());
        for link in run {
            template.push(TemplateArrival {
                node: link.destination,
                state: arc.next,
                weight: link.weight,
            });
        }
    } else {
        let mut runs = [(&[] as &[snap_kb::Link], &[] as &[u32]); MAX_RULE_ARCS];
        let mut cursors = [0usize; MAX_RULE_ARCS];
        for (slot, arc) in runs.iter_mut().zip(arcs) {
            *slot = network.ranked_links_by(node, arc.relation);
        }
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (a, (_, ranks)) in runs[..arcs.len()].iter().enumerate() {
                if let Some(&rank) = ranks.get(cursors[a]) {
                    if best.is_none_or(|b| (rank, a) < b) {
                        best = Some((rank, a));
                    }
                }
            }
            let Some((_, a)) = best else { break };
            let link = &runs[a].0[cursors[a]];
            cursors[a] += 1;
            template.push(TemplateArrival {
                node: link.destination,
                state: arcs[a].next,
                weight: link.weight,
            });
        }
    }
    SiteRec {
        segments,
        fanout,
        start,
        len: template.len() as u32 - start,
    }
}

/// Pooled state of one K = 1 wave: the visited table, the current and
/// next frontier, the merge path's arrival buffer and the seed buffer
/// the engines gather into. One scratch serves any sequence of networks
/// and rules: a wave resets the table, which clears the seen words of
/// each rule state it touches — O(nodes / 64) per state — and never
/// zeroes the `(value, origin)` arrays, which are read only behind a
/// set seen bit.
#[derive(Debug, Default)]
pub struct WaveScratch {
    /// Also the sequential engine's scalar loop's table, so a walker
    /// keeps one.
    pub(crate) visited: VisitedMap,
    wave: Vec<PropTask>,
    next: Vec<PropTask>,
    arrivals: Vec<PropArrival>,
    /// Seeds of the propagation being set up (see
    /// `propagate_region` in the sequential engine).
    pub(crate) seeds: Vec<(NodeId, f32)>,
}

impl WaveScratch {
    /// Creates an empty scratch; the first wave sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::tests::{scan_into, HashedVisited};
    use snap_isa::PropRule;
    use snap_kb::synth::{line_network, scale_free_network, star_network};
    use snap_kb::{Color, NetworkConfig, RelationType};
    use std::collections::VecDeque;

    /// Records the full event stream a sink sees.
    #[derive(Debug, Default, PartialEq)]
    struct Recorder {
        expands: Vec<(PropTask, usize, usize, usize)>,
        arrivals: Vec<(PropTask, PropArrival)>,
    }

    impl WaveSink for Recorder {
        fn on_expand(
            &mut self,
            task: &PropTask,
            segments: usize,
            links_scanned: usize,
            arrivals: usize,
        ) {
            self.expands
                .push((*task, segments, links_scanned, arrivals));
        }

        fn on_arrival(&mut self, task: &PropTask, arrival: &PropArrival) -> Result<(), CoreError> {
            self.arrivals.push((*task, *arrival));
            Ok(())
        }
    }

    /// The scalar spec's event stream alone.
    fn scalar_reference(
        network: &SemanticNetwork,
        rule: &RuleProgram,
        func: StepFunc,
        max_hops: u8,
        seeds: &[(NodeId, f32)],
    ) -> Recorder {
        scalar_reference_with_stats(network, rule, func, max_hops, seeds).0
    }

    /// The scalar spec, reduced to its schedule-relevant core: a FIFO
    /// queue over the cross-product scan and the hashed visited map —
    /// the references `propagate.rs` keeps, not the kernel's own
    /// expansion and table. The stats are what a wave run of the same
    /// propagation must report.
    fn scalar_reference_with_stats(
        network: &SemanticNetwork,
        rule: &RuleProgram,
        func: StepFunc,
        max_hops: u8,
        seeds: &[(NodeId, f32)],
    ) -> (Recorder, WaveStats) {
        let mut visited = HashedVisited::default();
        let mut queue = VecDeque::new();
        for &(node, value) in seeds {
            if visited.should_expand(0, 0, node, value, node) {
                queue.push_back(PropTask {
                    prop: 0,
                    node,
                    state: 0,
                    value,
                    origin: node,
                    level: 0,
                });
            }
        }
        let mut rec = Recorder::default();
        let mut buf = Vec::new();
        while let Some(task) = queue.pop_front() {
            let (segments, links_scanned) = scan_into(network, rule, func, &task, &mut buf);
            rec.expands.push((task, segments, links_scanned, buf.len()));
            if task.level >= max_hops {
                continue;
            }
            for arrival in &buf {
                rec.arrivals.push((task, *arrival));
                if visited.should_expand(0, arrival.state, arrival.node, arrival.value, task.origin)
                {
                    queue.push_back(PropTask {
                        prop: 0,
                        node: arrival.node,
                        state: arrival.state,
                        value: arrival.value,
                        origin: task.origin,
                        level: task.level + 1,
                    });
                }
            }
        }
        let stats = WaveStats {
            waves: rec.expands.last().map_or(0, |(t, ..)| t.level as usize + 1),
            pull_waves: 0,
            visited: visited.len(),
        };
        (rec, stats)
    }

    fn run_kernel(
        network: &SemanticNetwork,
        rule: &RuleProgram,
        func: StepFunc,
        max_hops: u8,
        seeds: &[(NodeId, f32)],
    ) -> (Recorder, WaveStats) {
        let mut rec = Recorder::default();
        let stats = propagate_wave(network, rule, func, 0, max_hops, 0.0, seeds, &mut rec).unwrap();
        (rec, stats)
    }

    /// A mixed workload: a scale-free hub network with a multi-value
    /// seed set, including a duplicate and an improving re-seed.
    fn workload() -> (SemanticNetwork, RuleProgram, Vec<(NodeId, f32)>) {
        let mut net = scale_free_network(300, 2, 11);
        net.flush_links();
        let rule = PropRule::Star(RelationType(0)).compile();
        let seeds = vec![
            (NodeId(250), 0.0),
            (NodeId(299), 1.5),
            (NodeId(250), 0.0),  // duplicate: gated out
            (NodeId(299), 0.25), // improvement: re-seeded
            (NodeId(120), 0.5),
        ];
        (net, rule, seeds)
    }

    #[test]
    fn push_matches_scalar_spec_event_for_event() {
        let (net, rule, seeds) = workload();
        let spec = scalar_reference(&net, &rule, StepFunc::AddWeight, 63, &seeds);
        let (push, stats) = run_kernel(&net, &rule, StepFunc::AddWeight, 63, &seeds);
        assert_eq!(push, spec, "push replays the spec event for event");
        assert!(!spec.arrivals.is_empty(), "workload actually propagates");
        assert!(stats.waves > 1);
    }

    #[test]
    fn a_fully_seeded_frontier_matches_scalar_spec_event_for_event() {
        // Density 1.0 from wave 0 — every node a seed — then a star's
        // one-task wave fanning out to every leaf: the densest and the
        // most skewed frontier a wave can have.
        let mut net = scale_free_network(300, 2, 11);
        net.flush_links();
        let rule = PropRule::Star(RelationType(0)).compile();
        let all: Vec<(NodeId, f32)> = (0..300).map(|n| (NodeId(n), 0.0)).collect();
        let spec = scalar_reference(&net, &rule, StepFunc::AddWeight, 63, &all);
        let (wave, stats) = run_kernel(&net, &rule, StepFunc::AddWeight, 63, &all);
        assert_eq!(wave, spec);
        assert_eq!(stats.visited, 300);

        let mut star = star_network(100);
        star.flush_links();
        let hub = vec![(NodeId(0), 0.0)];
        let spec = scalar_reference(&star, &rule, StepFunc::AddWeight, 63, &hub);
        let (wave, stats) = run_kernel(&star, &rule, StepFunc::AddWeight, 63, &hub);
        assert_eq!(wave, spec);
        assert_eq!((stats.waves, stats.visited), (2, 101));
    }

    #[test]
    fn hop_cap_charges_the_capped_wave_but_stops_it() {
        let mut net = line_network(10);
        net.flush_links();
        let rule = PropRule::Star(RelationType(0)).compile();
        let seeds = vec![(NodeId(0), 0.0)];
        let spec = scalar_reference(&net, &rule, StepFunc::AddWeight, 3, &seeds);
        let (kernel, stats) = run_kernel(&net, &rule, StepFunc::AddWeight, 3, &seeds);
        assert_eq!(kernel, spec);
        // Levels 0..=3 expand (the level-3 task is charged, its
        // arrival suppressed), nothing deeper.
        assert_eq!(stats.waves, 4);
        assert_eq!(kernel.expands.len(), 4);
        assert_eq!(kernel.arrivals.len(), 3);
    }

    #[test]
    fn multi_arc_rules_match_scalar_spec_event_for_event() {
        // Spread walks two relations; the bridge communities carry
        // three, so arcs must filter and rank ties must break on the
        // arc index.
        let mut net = snap_kb::synth::bridge_network(4, 32);
        net.flush_links();
        let rule = PropRule::Spread(RelationType(0), RelationType(2)).compile();
        let seeds = vec![(NodeId(0), 0.0)];
        let spec = scalar_reference(&net, &rule, StepFunc::AddWeight, 63, &seeds);
        let (push, _) = run_kernel(&net, &rule, StepFunc::AddWeight, 63, &seeds);
        assert_eq!(push, spec);
    }

    /// Replays a spec event stream through [`Region::arrive`]'s exact
    /// merge, starting from `pre` — the expected target-marker fixed
    /// point a sliced sweep must produce.
    fn reference_marker_fold(
        spec: &Recorder,
        complex: bool,
        pre: &std::collections::BTreeMap<u32, MarkerValue>,
    ) -> std::collections::BTreeMap<u32, Option<MarkerValue>> {
        use std::collections::btree_map::Entry;
        let mut state: std::collections::BTreeMap<u32, Option<MarkerValue>> = pre
            .iter()
            .map(|(&n, &v)| (n, complex.then_some(v)))
            .collect();
        for (task, arrival) in &spec.arrivals {
            match state.entry(arrival.node.0) {
                Entry::Vacant(v) => {
                    v.insert(complex.then_some(MarkerValue {
                        value: arrival.value,
                        origin: task.origin,
                    }));
                }
                Entry::Occupied(mut o) => {
                    if !complex {
                        continue;
                    }
                    let cur = o.get_mut().as_mut().unwrap();
                    if improves((cur.value, cur.origin), arrival.value, task.origin) {
                        *cur = MarkerValue {
                            value: arrival.value.min(cur.value),
                            origin: task.origin,
                        };
                    }
                }
            }
        }
        state
    }

    /// Per-lane expectation from the scalar spec: the counters and
    /// cost sum the sliced sweep must reproduce without a sink.
    fn expected_report(
        spec: &Recorder,
        solo: WaveStats,
        cost: impl Fn(usize, usize, usize) -> u64,
    ) -> SlicedLaneReport {
        SlicedLaneReport {
            stats: solo,
            expansions: spec.expands.len() as u64,
            activations: spec.arrivals.len() as u64,
            max_depth: spec
                .arrivals
                .iter()
                .map(|(t, _)| t.level + 1)
                .max()
                .unwrap_or(0),
            expand_ns: spec.expands.iter().map(|&(_, s, l, a)| cost(s, l, a)).sum(),
        }
    }

    /// Runs a sliced batch and checks every lane against the scalar
    /// spec: counters, stats, cost sum, and the target-marker fold.
    #[allow(clippy::too_many_arguments)]
    fn assert_sliced_matches_spec(
        net: &SemanticNetwork,
        rule: &RuleProgram,
        max_hops: u8,
        queries: &[Vec<(NodeId, f32)>],
        complex: bool,
        pre: &[std::collections::BTreeMap<u32, MarkerValue>],
        lanes: &mut [BatchLane],
        scratch: &mut MultiWaveScratch,
        tag: &str,
    ) {
        let cost = |s: usize, l: usize, a: usize| (7 * s + 3 * l + a) as u64;
        let slices: Vec<&[(NodeId, f32)]> = queries.iter().map(|q| q.as_slice()).collect();
        scratch.begin_sliced(queries.len(), rule.states().len(), net.node_count());
        for (li, lane_pre) in pre.iter().enumerate() {
            for (&n, &v) in lane_pre {
                scratch.seed_marker(li, NodeId(n), complex.then_some(v));
            }
        }
        let mut out = vec![SlicedLaneReport::default(); queries.len()];
        propagate_multi_wave_sliced(
            net,
            rule,
            StepFunc::AddWeight,
            0,
            max_hops,
            &slices,
            lanes,
            scratch,
            complex,
            cost,
            &mut out,
        );
        for (li, q) in queries.iter().enumerate() {
            let spec = scalar_reference(net, rule, StepFunc::AddWeight, max_hops, q);
            let (_, solo_stats) = run_kernel(net, rule, StepFunc::AddWeight, max_hops, q);
            assert_eq!(
                out[li],
                expected_report(&spec, solo_stats, cost),
                "{tag}: lane {li} counters"
            );
            let got: std::collections::BTreeMap<u32, Option<MarkerValue>> = scratch
                .marker_results(li, complex)
                .map(|(n, v)| (n.0, v))
                .collect();
            assert_eq!(
                got,
                reference_marker_fold(&spec, complex, &pre[li]),
                "{tag}: lane {li} marker fold"
            );
        }
    }

    #[test]
    fn sliced_matches_scalar_spec_counters_and_marker_fold() {
        let (net, rule, seeds) = workload();
        let queries: Vec<Vec<(NodeId, f32)>> = vec![
            seeds,
            vec![(NodeId(5), 0.3), (NodeId(250), 1.0), (NodeId(42), 0.0)],
            vec![], // idle lane rides along untouched
            vec![(NodeId(299), 0.0)],
        ];
        let mut lanes: Vec<BatchLane> = (0..queries.len()).map(|_| BatchLane::new()).collect();
        let mut scratch = MultiWaveScratch::new();
        let no_pre = vec![std::collections::BTreeMap::new(); queries.len()];
        // Two rounds over pooled lanes and scratch: the second must
        // replay identically, proving begin_sliced fully resets.
        for round in 0..2 {
            assert_sliced_matches_spec(
                &net,
                &rule,
                63,
                &queries,
                true,
                &no_pre,
                &mut lanes,
                &mut scratch,
                &format!("round {round}"),
            );
        }
        // A narrower batch over the same pooled planes: the stride
        // changes and stale wide-batch state must be unobservable.
        assert_sliced_matches_spec(
            &net,
            &rule,
            63,
            &queries[..2],
            true,
            &no_pre[..2],
            &mut lanes[..2],
            &mut scratch,
            "narrow",
        );
    }

    #[test]
    fn sliced_handles_multi_arc_rules_hop_caps_and_binary_targets() {
        let mut net = snap_kb::synth::bridge_network(4, 32);
        net.flush_links();
        let rule = PropRule::Spread(RelationType(0), RelationType(2)).compile();
        let queries: Vec<Vec<(NodeId, f32)>> = vec![
            vec![(NodeId(0), 0.0)],
            vec![(NodeId(1), 0.5), (NodeId(0), 0.25)],
            vec![(NodeId(9), 0.75)],
        ];
        let mut lanes: Vec<BatchLane> = (0..queries.len()).map(|_| BatchLane::new()).collect();
        let mut scratch = MultiWaveScratch::new();
        let no_pre = vec![std::collections::BTreeMap::new(); queries.len()];
        for max_hops in [0u8, 2, 63] {
            for complex in [true, false] {
                assert_sliced_matches_spec(
                    &net,
                    &rule,
                    max_hops,
                    &queries,
                    complex,
                    &no_pre,
                    &mut lanes,
                    &mut scratch,
                    &format!("hops {max_hops} complex {complex}"),
                );
            }
        }
    }

    #[test]
    fn sliced_runs_a_full_width_64_lane_batch() {
        let mut net = scale_free_network(200, 2, 7);
        net.flush_links();
        let rule = PropRule::Star(RelationType(0)).compile();
        let queries: Vec<Vec<(NodeId, f32)>> = (0..MAX_SLICED_LANES)
            .map(|i| vec![(NodeId((i * 3 % 200) as u32), i as f32 * 0.125)])
            .collect();
        let mut lanes: Vec<BatchLane> = (0..queries.len()).map(|_| BatchLane::new()).collect();
        let mut scratch = MultiWaveScratch::new();
        let no_pre = vec![std::collections::BTreeMap::new(); queries.len()];
        assert_sliced_matches_spec(
            &net,
            &rule,
            63,
            &queries,
            true,
            &no_pre,
            &mut lanes,
            &mut scratch,
            "full width",
        );
    }

    #[test]
    // The seed literals are deliberately written with more digits than
    // f32 keeps: they document the intended epsilon offsets from 1.0.
    #[allow(clippy::excessive_precision)]
    fn sliced_preseeded_marker_reproduces_order_sensitive_fold() {
        // The epsilon merge is a non-associative fold: two arrivals
        // that each lose individually against a pre-existing entry can
        // *win* when folded from an empty plane first. The pre-seed
        // must therefore load the region's existing target state.
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for _ in 0..8 {
            net.add_node(Color(0)).unwrap();
        }
        net.add_link(NodeId(7), RelationType(0), 0.0, NodeId(1))
            .unwrap();
        net.add_link(NodeId(3), RelationType(0), 0.0, NodeId(1))
            .unwrap();
        net.flush_links();
        let rule = PropRule::Star(RelationType(0)).compile();
        let queries = vec![vec![(NodeId(7), 1.000_000_9), (NodeId(3), 1.000_001_8)]];
        let pre_entry = MarkerValue {
            value: 1.0,
            origin: NodeId(5),
        };
        let pre = vec![std::collections::BTreeMap::from([(1u32, pre_entry)])];
        let mut lanes = vec![BatchLane::new()];
        let mut scratch = MultiWaveScratch::new();
        assert_sliced_matches_spec(
            &net,
            &rule,
            63,
            &queries,
            true,
            &pre,
            &mut lanes,
            &mut scratch,
            "pre-seeded",
        );
        // With the pre-seed, both arrivals lose: node 1 keeps (1.0, 5).
        let folded = scratch.marker_results(0, true).collect::<Vec<_>>();
        assert!(folded.contains(&(NodeId(1), Some(pre_entry))));
        // Sanity: folding from empty picks a different fixed point —
        // the divergence the pre-seed exists to prevent.
        let spec = scalar_reference(&net, &rule, StepFunc::AddWeight, 63, &queries[0]);
        let from_empty = reference_marker_fold(&spec, true, &std::collections::BTreeMap::new());
        assert_ne!(from_empty[&1], Some(pre_entry));
    }

    /// The rules the pooled-scratch property draws from: one to three
    /// states, every arc count the kernel dispatches on (one, two, the
    /// three-arc merge path, terminal).
    fn rule_menu() -> Vec<RuleProgram> {
        use snap_isa::{RuleArc, RuleState};
        let (r0, r1, r2) = (RelationType(0), RelationType(1), RelationType(2));
        vec![
            PropRule::Star(r0).compile(),
            PropRule::Once(r1).compile(),
            PropRule::Union(r0, r1).compile(),
            PropRule::Spread(r0, r2).compile(),
            PropRule::Seq(r2, r0).compile(),
            RuleProgram::from_states(vec![
                RuleState::new(vec![
                    RuleArc::new(r0, 0),
                    RuleArc::new(r1, 1),
                    RuleArc::new(r2, 2),
                ]),
                RuleState::new(vec![RuleArc::new(r1, 1), RuleArc::new(r0, 2)]),
                RuleState::new(vec![RuleArc::new(r2, 2)]),
            ]),
        ]
    }

    proptest::proptest! {
        /// One [`WaveScratch`] reused across a random sequence of
        /// propagations — networks of 8–300 nodes going up *and* down
        /// in size, rules of one to three states, seeds with duplicates,
        /// value ties and nodes past the declared node count (the
        /// growth path), hop caps 0–6 — replays every call exactly like
        /// a fresh scratch and like the scalar spec: stale `best`
        /// entries, stale frontiers and seen bits past the current node
        /// count are all unobservable. A mutant whose [`VisitedMap`]
        /// skips arming one state's table — its seen bits survive the
        /// reset — fails here (planted by hand for each of the three
        /// states: tables 0 and 1 fail at case 1, table 2 at case 21 of
        /// 64).
        #[test]
        fn prop_a_pooled_scratch_replays_like_a_fresh_one(
            calls in proptest::collection::vec(
                (
                    8usize..=300,
                    proptest::collection::vec((0u32..4096, 0u16..3, 0u8..3, 0u32..4096), 0..600),
                    0usize..6,
                    proptest::collection::vec((0u32..4096, 0u8..3), 0..8),
                    0u8..=6,
                ),
                2..7,
            ),
        ) {
            use proptest::prop_assert_eq;
            let rules = rule_menu();
            let mut pooled = WaveScratch::new();
            for (nodes, links, rule, seeds, max_hops) in calls {
                let mut net = SemanticNetwork::new(NetworkConfig::default());
                for _ in 0..nodes {
                    net.add_node(Color(0)).unwrap();
                }
                let n = nodes as u32;
                for (src, rel, w, dst) in links {
                    // Weights from {0, 0.5, 1}: equal-cost paths abound.
                    net.add_link(NodeId(src % n), RelationType(rel), w as f32 * 0.5, NodeId(dst % n))
                        .unwrap();
                }
                net.flush_links();
                let rule = &rules[rule];
                // One seed in nine or so lies past the node count.
                let seeds: Vec<(NodeId, f32)> = seeds
                    .into_iter()
                    .map(|(raw, v)| (NodeId(raw % (n + n / 8 + 1)), v as f32 * 0.25))
                    .collect();

                let (spec, spec_stats) =
                    scalar_reference_with_stats(&net, rule, StepFunc::AddWeight, max_hops, &seeds);
                let (fresh, fresh_stats) = run_kernel(&net, rule, StepFunc::AddWeight, max_hops, &seeds);
                let mut reused = Recorder::default();
                let reused_stats = propagate_wave_in(
                    &net, rule, StepFunc::AddWeight, 0, max_hops, &seeds, &mut pooled, &mut reused,
                )
                .unwrap();
                prop_assert_eq!(&reused, &fresh, "pooled vs fresh events");
                prop_assert_eq!(reused_stats, fresh_stats, "pooled vs fresh stats");
                prop_assert_eq!(&reused, &spec, "pooled vs scalar events");
                prop_assert_eq!(reused_stats, spec_stats, "pooled vs scalar stats");
            }
        }
    }
}
