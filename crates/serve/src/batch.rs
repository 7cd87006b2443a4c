//! The fused batch executor: one controller plan walked for `K` queries
//! at once.
//!
//! Non-propagate instructions execute per query through the shared
//! read-only semantics ([`exec_single_shared_into`]); every `PROPAGATE`
//! runs as one fused multi-query wave through the bit-sliced sweep
//! ([`propagate_multi_wave_sliced`]): per-lane visited state lives in
//! lane-major bit-planes, so the first-touch check-and-set for all
//! `K ≤ 64` lanes is one AND/OR per site and only improvement
//! comparisons replay per lane. The server never forms a batch wider
//! than [`MAX_SLICED_LANES`], so this is the only fused kernel.
//!
//! Accounting replicates the sequential engine's shared-snapshot entry
//! point instruction for instruction, which is what the differential
//! tests pin down: each lane's `RunReport` is identical, field for
//! field, to running that query alone through
//! [`Snap1::run_shared`](snap_core::Snap1::run_shared).
//!
//! Everything the executor needs per pump lives in [`BatchScratch`] and
//! the pooled [`QueryContext`]s, so steady-state serving allocates
//! nothing: plans, seed buffers, lane frontiers, bit-planes, and report
//! maps all keep their capacity across batches.

use crate::context::QueryContext;
use snap_core::controller::{PlanBuf, PlanOp};
use snap_core::exec::{exec_single_shared_into, instr_cost, SingleOutcome};
use snap_core::kernel::{
    propagate_multi_wave_sliced, BatchLane, MultiWaveScratch, SlicedLaneReport, MAX_SLICED_LANES,
};
use snap_core::{CoreError, CostModel, SimTime};
use snap_isa::{InstrClass, Instruction, Program, RuleProgram, StepFunc};
use snap_kb::{Marker, MarkerKind, NodeId, SemanticNetwork};

/// Pooled executor state shared by every batch a server pumps: the
/// controller plan, instruction outcome, lane frontiers, wave scratch,
/// per-lane clocks and sliced reports, and the compiled-rule cache.
/// Everything resets in place, so the steady-state pump allocates
/// nothing.
pub(crate) struct BatchScratch {
    plan: PlanBuf,
    single: SingleOutcome,
    lanes: Vec<BatchLane>,
    wave: MultiWaveScratch,
    now: Vec<SimTime>,
    out: Vec<SlicedLaneReport>,
    /// Compiled rules keyed by their `PROPAGATE` instruction. Serving
    /// workloads cycle through a handful of shapes, so a small linear
    /// cache removes `RuleProgram` compilation (and its allocations)
    /// from the steady state; it is cleared if it ever overflows.
    rules: Vec<(Instruction, RuleProgram)>,
}

impl BatchScratch {
    pub(crate) fn new() -> Self {
        BatchScratch {
            plan: PlanBuf::new(),
            single: SingleOutcome::default(),
            lanes: Vec::new(),
            wave: MultiWaveScratch::new(),
            now: Vec::new(),
            out: Vec::new(),
            rules: Vec::new(),
        }
    }
}

/// Looks up (or compiles and caches) the rule of a `PROPAGATE`
/// instruction.
fn cached_rule<'a>(
    rules: &'a mut Vec<(Instruction, RuleProgram)>,
    instr: &Instruction,
) -> &'a RuleProgram {
    let idx = match rules.iter().position(|(key, _)| key == instr) {
        Some(i) => i,
        None => {
            let Instruction::Propagate { rule, .. } = instr else {
                unreachable!("plan groups only propagates");
            };
            if rules.len() >= 64 {
                rules.clear();
            }
            rules.push((instr.clone(), rule.compile()));
            rules.len() - 1
        }
    };
    &rules[idx].1
}

/// Executes `programs` (all of one shape — same instruction classes,
/// markers, and propagation rules; at most [`MAX_SLICED_LANES`] of
/// them) against the shared snapshot, one context per query,
/// accumulating each query's report in its context (in input order).
pub(crate) fn run_batch(
    cost: &CostModel,
    max_hops: u8,
    network: &SemanticNetwork,
    programs: &[&Program],
    ctxs: &mut [QueryContext],
    scratch: &mut BatchScratch,
) -> Result<(), CoreError> {
    debug_assert_eq!(programs.len(), ctxs.len());
    let k = programs.len();
    let BatchScratch {
        plan,
        single,
        lanes,
        wave,
        now,
        out,
        rules,
    } = scratch;
    now.clear();
    now.resize(k, 0);
    plan.plan(programs[0]);

    for oi in 0..plan.ops().len() {
        match plan.ops()[oi] {
            PlanOp::Instr(idx) => {
                for (q, ctx) in ctxs.iter_mut().enumerate() {
                    let instr = &programs[q].instructions()[idx];
                    if instr.class() == InstrClass::Collect {
                        // Hand the executor an emptied collect buffer
                        // reclaimed from this context's previous report,
                        // so the result payload reuses its capacity.
                        single.collect = ctx.spare_collects.pop();
                    }
                    exec_single_shared_into(
                        instr,
                        network,
                        std::slice::from_mut(&mut ctx.region),
                        single,
                    )?;
                    let ns = instr_cost(cost, instr.class(), single, &mut ctx.report);
                    now[q] += ns;
                    ctx.report.record(instr.class(), ns);
                    if let Some(c) = single.collect.take() {
                        ctx.report.collects.push(c);
                    }
                }
            }
            PlanOp::Group { start, len } => {
                for g in 0..len as usize {
                    let idx = plan.members(start, len)[g] as usize;
                    let instr = &programs[0].instructions()[idx];
                    let (source, target, func) = match *instr {
                        Instruction::Propagate {
                            source,
                            target,
                            func,
                            ..
                        } => (source, target, func),
                        _ => unreachable!("plan groups only propagates"),
                    };
                    let rule = cached_rule(rules, instr);
                    // Seed frontiers and α accounting, per lane.
                    for ctx in ctxs.iter_mut() {
                        let QueryContext {
                            region,
                            report,
                            seeds,
                            ..
                        } = ctx;
                        seeds.clear();
                        for n in region.active_nodes_iter(source) {
                            seeds.push((n, region.source_value(source, n)));
                        }
                        report.alpha_per_propagate.push(seeds.len() as u64);
                    }
                    run_group_sliced(
                        cost, max_hops, network, ctxs, lanes, wave, out, rule, func, g, target, now,
                    )?;
                }
                // Implicit barrier closing the group, per query.
                for (q, ctx) in ctxs.iter_mut().enumerate() {
                    now[q] += cost.sync_base_ns;
                    ctx.report.overhead.sync_ns += cost.sync_base_ns;
                    ctx.report.barriers += 1;
                    ctx.report.traffic.messages_per_sync.push(0);
                }
            }
        }
    }
    for (q, ctx) in ctxs.iter_mut().enumerate() {
        ctx.report.total_ns = now[q];
        // Purge classes this query never recorded, so a pooled report is
        // indistinguishable from a freshly built one.
        ctx.report.seal_for_pool();
    }
    Ok(())
}

/// One propagation of a group through the bit-sliced kernel: pre-seed
/// the marker plane with any existing target state, sweep, then absorb
/// each lane's folded fixed point and charge its accumulated cost.
#[allow(clippy::too_many_arguments)]
fn run_group_sliced(
    cost: &CostModel,
    max_hops: u8,
    network: &SemanticNetwork,
    ctxs: &mut [QueryContext],
    lanes: &mut Vec<BatchLane>,
    wave: &mut MultiWaveScratch,
    out: &mut Vec<SlicedLaneReport>,
    rule: &RuleProgram,
    func: StepFunc,
    prop: usize,
    target: Marker,
    now: &mut [SimTime],
) -> Result<(), CoreError> {
    let k = ctxs.len();
    let complex = target.kind() == MarkerKind::Complex;
    wave.begin_sliced(k, rule.states().len(), network.node_count());
    // The epsilon merge fold is order-sensitive, so any pre-existing
    // target state must enter the plane *before* arrivals fold into it.
    for (q, ctx) in ctxs.iter().enumerate() {
        if ctx.region.count(target) > 0 {
            for node in ctx.region.active_nodes_iter(target) {
                let value = if complex {
                    ctx.region.value(target, node)
                } else {
                    None
                };
                wave.seed_marker(q, node, value);
            }
        }
    }
    if lanes.len() < k {
        lanes.resize_with(k, BatchLane::new);
    }
    out.clear();
    out.resize(k, SlicedLaneReport::default());
    let mut seed_slices: [&[(NodeId, f32)]; MAX_SLICED_LANES] = [&[]; MAX_SLICED_LANES];
    for (q, ctx) in ctxs.iter().enumerate() {
        seed_slices[q] = &ctx.seeds;
    }
    propagate_multi_wave_sliced(
        network,
        rule,
        func,
        prop,
        max_hops,
        &seed_slices[..k],
        &mut lanes[..k],
        wave,
        complex,
        |segments, links, arrivals| cost.expand_ns(segments, links, arrivals),
        out,
    );
    for (q, ctx) in ctxs.iter_mut().enumerate() {
        let r = &out[q];
        let ns = cost.pu_decode_ns + r.expand_ns;
        now[q] += ns;
        ctx.report.expansions += r.expansions;
        ctx.report.traffic.local_activations += r.activations;
        ctx.report.max_propagation_depth = ctx.report.max_propagation_depth.max(r.max_depth);
        ctx.report.record(InstrClass::Propagate, ns);
        if complex {
            ctx.region.absorb_values(
                target,
                wave.marker_results(q, true)
                    .map(|(n, v)| (n, v.expect("complex lanes carry payloads"))),
            )?;
        } else {
            ctx.region
                .absorb_bits(target, wave.marker_results(q, false).map(|(n, _)| n))?;
        }
    }
    Ok(())
}
