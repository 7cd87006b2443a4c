//! The batch executor: one controller plan, walked once per query.
//!
//! A batch is `K` programs of one shape, so the plan is computed once
//! and every query walks it through the sequential engine's own
//! executors: non-propagate instructions through the shared read-only
//! semantics ([`exec_single_shared_into`] and [`instr_cost`]), every
//! `PROPAGATE` through [`propagate_region`] — the K = 1 wave kernel
//! over one pooled [`WaveScratch`], arrivals delivered straight into
//! the query's region. Queries run one after another: SNAP-1 overlaps
//! propagations as independent marker streams, and a lockstep sweep
//! over all lanes lost to this loop on every workload (DESIGN.md
//! "Serving").
//!
//! Each query's `RunReport` is identical, field for field, to running
//! it alone through [`Snap1::run_shared`](snap_core::Snap1::run_shared)
//! — by shared code, and the differential tests pin it down.
//!
//! Everything the executor needs per pump lives in [`BatchScratch`] and
//! the pooled [`QueryContext`]s, so steady-state serving allocates
//! nothing: the plan, the wave scratch, compiled rules and report maps
//! all keep their capacity across batches.

use crate::context::QueryContext;
use snap_core::controller::{PlanBuf, PlanOp, PropSpec};
use snap_core::exec::{exec_single_shared_into, instr_cost, propagate_region, SingleOutcome};
use snap_core::kernel::WaveScratch;
use snap_core::{CoreError, CostModel, SimTime};
use snap_isa::{InstrClass, Instruction, Program};
use snap_kb::SemanticNetwork;

/// Pooled executor state shared by every batch a server pumps: the
/// controller plan, instruction outcome, wave scratch, and the
/// compiled-rule cache. Everything resets in place, so the steady-state
/// pump allocates nothing.
pub(crate) struct BatchScratch {
    plan: PlanBuf,
    single: SingleOutcome,
    wave: WaveScratch,
    /// Compiled `PROPAGATE`s keyed by their instruction. Serving
    /// workloads cycle through a handful of shapes, so a small linear
    /// cache removes `RuleProgram` compilation (and its allocations)
    /// from the steady state; it is cleared if it ever overflows.
    rules: Vec<(Instruction, PropSpec)>,
}

impl BatchScratch {
    pub(crate) fn new() -> Self {
        BatchScratch {
            plan: PlanBuf::new(),
            single: SingleOutcome::default(),
            wave: WaveScratch::new(),
            rules: Vec::new(),
        }
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

/// Executes `programs` (all of one shape — same instruction classes,
/// markers, and propagation rules) against the shared snapshot, one
/// context per query, accumulating each query's report in its context
/// (in input order).
pub(crate) fn run_batch(
    cost: &CostModel,
    max_hops: u8,
    network: &SemanticNetwork,
    programs: &[&Program],
    ctxs: &mut [QueryContext],
    scratch: &mut BatchScratch,
) -> Result<(), CoreError> {
    debug_assert_eq!(programs.len(), ctxs.len());
    let BatchScratch {
        plan,
        single,
        wave,
        rules,
    } = scratch;
    plan.plan(programs[0]);

    for (program, ctx) in programs.iter().zip(ctxs) {
        let QueryContext {
            region,
            report,
            spare_collects,
        } = ctx;
        let mut now: SimTime = 0;
        for &op in plan.ops() {
            match op {
                PlanOp::Instr(idx) => {
                    let instr = &program.instructions()[idx];
                    if instr.class() == InstrClass::Collect {
                        // Hand the executor an emptied collect buffer
                        // reclaimed from this context's previous report,
                        // so the result payload reuses its capacity.
                        single.collect = spare_collects.pop();
                    }
                    exec_single_shared_into(instr, network, std::slice::from_mut(region), single)?;
                    let ns = instr_cost(cost, instr.class(), single, report);
                    now += ns;
                    report.record(instr.class(), ns);
                    if let Some(c) = single.collect.take() {
                        report.collects.push(c);
                    }
                }
                PlanOp::Group { start, len } => {
                    for (g, &idx) in plan.members(start, len).iter().enumerate() {
                        let spec = cached_spec(rules, &program.instructions()[idx as usize], g);
                        let ns =
                            propagate_region(cost, max_hops, network, region, wave, spec, report)?;
                        now += ns;
                        report.record(InstrClass::Propagate, ns);
                    }
                    // Implicit barrier closing the group.
                    now += cost.sync_base_ns;
                    report.overhead.sync_ns += cost.sync_base_ns;
                    report.barriers += 1;
                    report.traffic.messages_per_sync.push(0);
                }
            }
        }
        report.total_ns = now;
        // Purge classes this query never recorded, so a pooled report is
        // indistinguishable from a freshly built one.
        report.seal_for_pool();
    }
    Ok(())
}
