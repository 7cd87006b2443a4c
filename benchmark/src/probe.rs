//! The traced run: the workload repeated with a span around every call
//! into a layer, then a probe phase that replays what the workload did
//! straight through the lower layers' public functions, so that a
//! pump's time splits into kernel + collect + residual from outside.
//! Nothing here is gated; these numbers say where an end-to-end change
//! came from.

use crate::gen::{Query, Schedule};
use crate::host::HostRef;
use crate::loops::{self, Checked, ClosedLoop, OpenOut};
use crate::run::{finish_traced, keep_tracer, open_summary, Outcome};
use crate::stats::{self, Better};
use crate::trace::{Name, Tracer};
use crate::world::{self, Workload, World};
use snap_core::kernel::{
    propagate_multi_wave_sliced, propagate_wave, BatchLane, MultiWaveScratch, SlicedLaneReport,
    WaveSink,
};
use snap_core::propagate::{expand_into, PropArrival, PropTask, VisitedMap};
use snap_core::{
    CoreError, CostModel, EngineKind, MachineConfig, Region, RegionMap, RunReport, Snap1,
};
use snap_isa::{Instruction, Program, PropRule, RuleProgram, StepFunc};
use snap_kb::{ClusterId, MarkerKind, NodeId, Partition, PartitionScheme, SemanticNetwork};
use snap_nlu::ParseResult;
use snap_serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// Repeats `f` until `budget_s` is spent (at least three times) and
/// returns the quiet quartile of its durations, in ns.
fn timed(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ns: Vec<f64> = Vec::new();
    while ns.len() < 3 || (start.elapsed().as_secs_f64() < budget_s && ns.len() < 100_000) {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    stats::quiet(&mut ns, Better::Lower).value
}

/// One propagation as the layers below serving see it.
struct ProbeQuery {
    seeds: Vec<(NodeId, f32)>,
    rule: RuleProgram,
    prop_rule: PropRule,
    func: StepFunc,
    program: Program,
}

impl ProbeQuery {
    fn of(q: &Query) -> Self {
        ProbeQuery {
            seeds: vec![(q.node, 0.0)],
            rule: q.shape.rule().compile(),
            prop_rule: q.shape.rule(),
            func: q.shape.func(),
            program: q.program.clone(),
        }
    }

    fn wave(net: &SemanticNetwork, program: &Program) -> Self {
        let (prop_rule, func) = program
            .iter()
            .find_map(|i| match i {
                Instruction::Propagate { rule, func, .. } => Some((rule.clone(), *func)),
                _ => None,
            })
            .expect("the wave program propagates");
        ProbeQuery {
            seeds: net.nodes().map(|n| (n, 0.0)).collect(),
            rule: prop_rule.compile(),
            prop_rule,
            func,
            program: program.clone(),
        }
    }
}

/// Most distinct stream queries the probes replay.
const PROBE_QUERIES: usize = 256;

fn probe_queries(world: &World) -> Vec<ProbeQuery> {
    if let Some(program) = &world.wave {
        return vec![ProbeQuery::wave(world.net(), program)];
    }
    let mut seen = Vec::new();
    for &i in &world.stream {
        if !seen.contains(&i) {
            seen.push(i);
            if seen.len() == PROBE_QUERIES {
                break;
            }
        }
    }
    seen.iter()
        .map(|&i| ProbeQuery::of(&world.pool[i as usize]))
        .collect()
}

#[derive(Default)]
struct CountingSink {
    expansions: u64,
    arrivals: u64,
}

impl WaveSink for CountingSink {
    fn on_expand(&mut self, _: &PropTask, _: usize, _: usize, _: usize) {
        self.expansions += 1;
    }
    fn on_arrival(&mut self, _: &PropTask, _: &PropArrival) -> Result<(), CoreError> {
        self.arrivals += 1;
        Ok(())
    }
}

/// The scalar walk of the probe queries, recorded: every task expanded
/// and every visited check made, in spec order.
struct Walk {
    tasks: Vec<(u32, PropTask)>,
    checks: Vec<(u32, u8, NodeId, f32, NodeId)>,
}

const MAX_WALK_TASKS: usize = 300_000;

fn record_walk(net: &SemanticNetwork, queries: &[ProbeQuery], max_hops: u8) -> Walk {
    let mut walk = Walk {
        tasks: Vec::new(),
        checks: Vec::new(),
    };
    let mut visited = VisitedMap::dense(net.node_count());
    let mut arrivals = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        visited.reset();
        let mut queue: Vec<PropTask> = Vec::new();
        for &(node, value) in &q.seeds {
            walk.checks.push((qi as u32, 0, node, value, node));
            if visited.should_expand(0, 0, node, value, node) {
                queue.push(PropTask {
                    prop: 0,
                    node,
                    state: 0,
                    value,
                    origin: node,
                    level: 0,
                });
            }
        }
        let mut head = 0;
        while head < queue.len() && walk.tasks.len() < MAX_WALK_TASKS {
            let task = queue[head];
            head += 1;
            walk.tasks.push((qi as u32, task));
            expand_into(net, &q.rule, q.func, &task, &mut arrivals);
            if task.level >= max_hops {
                continue;
            }
            for a in &arrivals {
                walk.checks
                    .push((qi as u32, a.state, a.node, a.value, task.origin));
                if visited.should_expand(0, a.state, a.node, a.value, task.origin) {
                    queue.push(PropTask {
                        prop: 0,
                        node: a.node,
                        state: a.state,
                        value: a.value,
                        origin: task.origin,
                        level: task.level + 1,
                    });
                }
            }
        }
    }
    walk
}

/// Probes of `kb`, `core.propagate`, `core.kernel` (K = 1), `core.region`,
/// the engines, the modelled hardware and `isa`, on the workload's own
/// network and queries. `des` is the simulator's report of the
/// workload's own run, when it has one.
pub fn layers(world: &World, des: Option<&RunReport>, seconds: f64, out: &mut Outcome) {
    let net = world.net().clone();
    let queries = probe_queries(world);
    let is_wave = world.wave.is_some();
    let cfg = MachineConfig::snap1_eval();
    let each = seconds / 16.0;

    // kb: one row probe per (task, live arc), as the wave kernel makes.
    let walk = record_walk(&net, &queries, cfg.max_hops);
    let mut probes = 0u64;
    let mut links = 0u64;
    let row_ns = timed(each, || {
        probes = 0;
        links = 0;
        for (qi, task) in &walk.tasks {
            for arc in queries[*qi as usize].rule.state(task.state).arcs() {
                let (_, _, run, _) = net.ranked_links_with_cost(task.node, arc.relation);
                links += run.len() as u64;
                probes += 1;
            }
        }
        std::hint::black_box(links);
    });
    out.set("kb.row_probe_ns", row_ns / probes.max(1) as f64);
    out.set("kb.links_per_probe", links as f64 / probes.max(1) as f64);

    // core.propagate: the scalar expansion and the visited check.
    let mut arrivals = Vec::new();
    let expand_ns = timed(each, || {
        for (qi, task) in &walk.tasks {
            let q = &queries[*qi as usize];
            expand_into(&net, &q.rule, q.func, task, &mut arrivals);
        }
    });
    out.set(
        "core.propagate.expand_ns",
        expand_ns / walk.tasks.len().max(1) as f64,
    );
    let mut visited = VisitedMap::dense(net.node_count());
    let visit_ns = timed(each, || {
        let mut current = u32::MAX;
        let mut fresh = 0u64;
        for &(qi, state, node, value, origin) in &walk.checks {
            if qi != current {
                visited.reset();
                current = qi;
            }
            fresh += u64::from(visited.should_expand(0, state, node, value, origin));
        }
        std::hint::black_box(fresh);
    });
    out.set(
        "core.propagate.visit_ns",
        visit_ns / walk.checks.len().max(1) as f64,
    );

    // core.kernel: the single-query wave kernel with a counting sink.
    let mut sink = CountingSink::default();
    let mut waves = 0usize;
    let mut pull_waves = 0usize;
    let wave_ns = timed(each, || {
        sink = CountingSink::default();
        waves = 0;
        pull_waves = 0;
        for q in &queries {
            let stats = propagate_wave(
                &net,
                &q.rule,
                q.func,
                0,
                cfg.max_hops,
                cfg.pull_density,
                &q.seeds,
                &mut sink,
            )
            .expect("a counting sink never fails");
            waves += stats.waves;
            pull_waves += stats.pull_waves;
        }
    });
    out.set(
        "core.kernel.wave_ns_per_expansion",
        wave_ns / sink.expansions.max(1) as f64,
    );
    out.set("core.kernel.waves", waves as f64 / queries.len() as f64);
    out.set(
        "core.kernel.pull_waves",
        pull_waves as f64 / queries.len() as f64,
    );

    // core.region and kb.partition: the per-run set-up of `run_shared`.
    let map_ns = timed(each, || {
        std::hint::black_box(RegionMap::build(&net, 1, PartitionScheme::Sequential));
    });
    let map = RegionMap::build(&net, 1, PartitionScheme::Sequential);
    let region_ns = timed(each, || {
        std::hint::black_box(Region::new(ClusterId(0), Arc::clone(&map), &net));
    });
    let stats_ns = timed(each, || {
        std::hint::black_box(map.partition().stats(&net));
    });
    let part_ns = timed(each, || {
        std::hint::black_box(Partition::build(
            &net,
            world::DES_CLUSTERS,
            PartitionScheme::EdgeCut,
        ));
    });
    out.set("core.region.map_build_us", map_ns / 1e3);
    out.set("core.region.new_us", region_ns / 1e3);
    out.set("kb.partition_stats_us", stats_ns / 1e3);
    out.set("kb.partition_build_ms", part_ns / 1e6);

    // core.seq: the library path, one call per query.
    let seq = world::sequential_machine();
    let run_ns = timed(each, || {
        for q in &queries {
            std::hint::black_box(seq.run_shared(&net, &q.program).is_ok());
        }
    }) / queries.len() as f64;
    out.set("core.seq.run_shared_us", run_ns / 1e3);
    out.set(
        "core.seq.setup_share",
        (map_ns + stats_ns + region_ns) / run_ns,
    );

    // core.des and the modelled hardware.
    let des_machine = if is_wave {
        world::des_wave_machine()
    } else {
        Snap1::builder()
            .clusters(world::DES_CLUSTERS)
            .partition(PartitionScheme::EdgeCut)
            .engine(EngineKind::Des)
            .build()
    };
    let sample = &queries[..queries.len().min(16)];
    let mut reports: Vec<RunReport> = Vec::new();
    let des_ns = timed(each, || {
        reports.clear();
        for q in sample {
            if let Ok(r) = des_machine.run_shared(&net, &q.program) {
                reports.push(r);
            }
        }
    }) / sample.len() as f64;
    out.set("core.des.run_us", des_ns / 1e3);
    let own;
    let sims: &[RunReport] = match des {
        Some(r) => {
            own = [r.clone()];
            &own
        }
        None => &reports,
    };
    set_sim(out, sims.iter(), 0);
    let sim_us =
        sims.iter().map(|r| r.total_ns as f64).sum::<f64>() / 1e3 / sims.len().max(1) as f64;
    out.set("core.des.host_ns_per_sim_us", des_ns / sim_us.max(1e-9));

    // core.threaded: informational, and only where the frontier is big
    // enough for a thread per cluster to have anything to do.
    if is_wave {
        for (name, clusters) in [
            ("core.threaded.run_us_c1", 1),
            ("core.threaded.run_us_c2", 2),
        ] {
            let machine = Snap1::builder()
                .clusters(clusters)
                .partition(PartitionScheme::EdgeCut)
                .engine(EngineKind::Threaded)
                .build();
            let ns = timed(each / 2.0, || {
                std::hint::black_box(machine.run_shared(&net, &queries[0].program).is_ok());
            });
            out.set(name, ns / 1e3);
        }
    }

    // isa: what admission and coalescing pay per program.
    let programs: Vec<&Program> = queries.iter().map(|q| &q.program).collect();
    let clone_ns = timed(each, || {
        for p in &programs {
            std::hint::black_box((*p).clone());
        }
    }) / programs.len() as f64;
    // Each program against its own copy (the coalescing hit: a full
    // compare) and against its neighbour (the miss: an early exit).
    let copies: Vec<Program> = programs.iter().map(|p| (*p).clone()).collect();
    let eq_ns = timed(each, || {
        let mut same = 0u32;
        for (w, p) in programs.iter().enumerate() {
            same += u32::from(**p == copies[(w + 1) % copies.len()]) + u32::from(**p == copies[w]);
        }
        std::hint::black_box(same);
    }) / (2 * programs.len()) as f64;
    let compile_ns = timed(each, || {
        for q in &queries {
            std::hint::black_box(q.prop_rule.compile());
        }
    }) / queries.len() as f64;
    out.set("isa.program_clone_ns", clone_ns);
    out.set("isa.program_eq_ns", eq_ns);
    out.set("isa.rule_compile_ns", compile_ns);
}

/// Sums the simulator's exact counts over `reports`; `extra_ns` is
/// simulated time spent outside the machine (the phrasal parser).
fn set_sim<'a>(out: &mut Outcome, reports: impl Iterator<Item = &'a RunReport>, extra_ns: u64) {
    let mut n = 0u64;
    let mut total = RunReport::default();
    let mut sim_ns = extra_ns;
    for r in reports {
        n += 1;
        sim_ns += r.total_ns;
        total.expansions += r.expansions;
        total.barriers += r.barriers;
        total.traffic.total_messages += r.traffic.total_messages;
        total.traffic.total_hops += r.traffic.total_hops;
        total.traffic.blocked_sends += r.traffic.blocked_sends;
        total.overhead.broadcast_ns += r.overhead.broadcast_ns;
        total.overhead.communication_ns += r.overhead.communication_ns;
        total.overhead.sync_ns += r.overhead.sync_ns;
        total.overhead.collect_ns += r.overhead.collect_ns;
    }
    out.set("sim.us_per_op", sim_ns as f64 / 1e3 / n.max(1) as f64);
    out.set("sim.expansions", total.expansions as f64);
    out.set("sim.barriers", total.barriers as f64);
    out.set("sim.messages", total.traffic.total_messages as f64);
    out.set("sim.hops", total.traffic.total_hops as f64);
    out.set("sim.blocked_sends", total.traffic.blocked_sends as f64);
    out.set("sim.broadcast_ns", total.overhead.broadcast_ns as f64);
    out.set(
        "sim.communication_ns",
        total.overhead.communication_ns as f64,
    );
    out.set("sim.sync_ns", total.overhead.sync_ns as f64);
    out.set("sim.collect_ns", total.overhead.collect_ns as f64);
}

/// What replaying batches through the sliced kernel and the region
/// collect cost, summed over the batches replayed.
#[derive(Default)]
struct SlicedProbe {
    batches: usize,
    kernel_ns: f64,
    collect_ns: f64,
    queries: u64,
    expansions: u64,
    visited: u64,
    collected: u64,
}

/// Replays `batches` (stream indices of each batch's distinct programs)
/// the way `snap-serve` runs a fused group: seed, sliced sweep, absorb,
/// collect. Kernel time is `begin_sliced` plus the sweep; absorbing the
/// lanes' fixed points into their regions is left to the residual.
fn sliced_probe(
    net: &Arc<SemanticNetwork>,
    pool: &[Query],
    batches: &[Vec<u32>],
    budget_s: f64,
) -> SlicedProbe {
    let cfg = MachineConfig::snap1_eval();
    let cost = CostModel::snap1();
    let map = RegionMap::build(net, 1, PartitionScheme::Sequential);
    let mut regions: Vec<Region> = Vec::new();
    let mut lanes: Vec<BatchLane> = Vec::new();
    let mut scratch = MultiWaveScratch::new();
    let mut reports: Vec<SlicedLaneReport> = Vec::new();
    let mut collected: Vec<(NodeId, Option<snap_kb::MarkerValue>)> = Vec::new();
    let mut probe = SlicedProbe::default();
    let start = Instant::now();
    // Two passes: the first warms the planes the way the server's pools
    // are warm, the second is the one counted.
    for pass in 0..2 {
        probe = SlicedProbe::default();
        for batch in batches {
            if pass == 1 && start.elapsed().as_secs_f64() > budget_s && probe.batches >= 16 {
                break;
            }
            // A pump's batch shares one shape; its lanes are distinct.
            let shape = pool[batch[0] as usize].shape;
            let rule = shape.rule().compile();
            let target = shape.target();
            let complex = target.kind() == MarkerKind::Complex;
            let k = batch.len();
            let seeds: Vec<[(NodeId, f32); 1]> = batch
                .iter()
                .map(|&i| [(pool[i as usize].node, 0.0)])
                .collect();
            let seed_refs: Vec<&[(NodeId, f32)]> = seeds.iter().map(|s| &s[..]).collect();
            while regions.len() < k {
                regions.push(Region::new(ClusterId(0), Arc::clone(&map), net));
            }
            if lanes.len() < k {
                lanes.resize_with(k, BatchLane::new);
            }
            reports.clear();
            reports.resize(k, SlicedLaneReport::default());
            let t = Instant::now();
            scratch.begin_sliced(k, rule.states().len(), net.node_count());
            propagate_multi_wave_sliced(
                net,
                &rule,
                shape.func(),
                0,
                cfg.max_hops,
                &seed_refs,
                &mut lanes[..k],
                &mut scratch,
                complex,
                |segments, links, arrivals| cost.expand_ns(segments, links, arrivals),
                &mut reports,
            );
            probe.kernel_ns += t.elapsed().as_nanos() as f64;
            for (lane, region) in regions[..k].iter_mut().enumerate() {
                region.reset();
                let absorbed = if complex {
                    region.absorb_values(
                        target,
                        scratch
                            .marker_results(lane, true)
                            .map(|(n, v)| (n, v.expect("complex lanes carry payloads"))),
                    )
                } else {
                    region.absorb_bits(target, scratch.marker_results(lane, false).map(|(n, _)| n))
                };
                absorbed.expect("probe markers are in range");
            }
            let t = Instant::now();
            for region in &regions[..k] {
                collected.clear();
                probe.collected += region.collect_marker_into(target, &mut collected) as u64;
            }
            probe.collect_ns += t.elapsed().as_nanos() as f64;
            probe.batches += 1;
            probe.queries += k as u64;
            probe.expansions += reports.iter().map(|r| r.expansions).sum::<u64>();
            probe.visited += reports.iter().map(|r| r.stats.visited as u64).sum::<u64>();
        }
    }
    probe
}

fn set_sliced(out: &mut Outcome, probe: &SlicedProbe) {
    out.set(
        "core.kernel.sliced_ns_per_expansion",
        probe.kernel_ns / probe.expansions.max(1) as f64,
    );
    out.set(
        "core.kernel.sliced_expansions_per_query",
        probe.expansions as f64 / probe.queries.max(1) as f64,
    );
    out.set(
        "core.kernel.sliced_visited_per_query",
        probe.visited as f64 / probe.queries.max(1) as f64,
    );
    out.set(
        "core.region.collect_ns_per_node",
        probe.collect_ns / probe.collected.max(1) as f64,
    );
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&mut v)
    }
}

fn set_serve_spans(out: &mut Outcome, tracer: &Tracer, completions: u64) {
    out.set(
        "serve.offer_ns",
        median_of(tracer.durations(Name::Offer).into_iter()),
    );
    out.set(
        "serve.pump_ns_per_query",
        tracer.total_ns(Name::Pump) as f64 / completions.max(1) as f64,
    );
}

/// The traced run of a closed-loop workload.
pub fn closed_traced(
    world: &mut World,
    mut server: Server,
    lens: &[u32],
    href: &mut HostRef,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut off = Tracer::new(false);
    let mut lp = ClosedLoop::new(&mut server, &world.pool, &world.stream, lens);
    lp.run(1.0, href, &mut off, &mut out.check);
    let plain = lp.run(seconds * 0.25, href, &mut off, &mut out.check);
    let mut tracer = Tracer::new(true);
    let traced = lp.run(seconds * 0.3, href, &mut tracer, &mut out.check);
    set_serve_spans(out, &tracer, traced.depth_sum);
    let batches = traced.batches.max(1) as f64;
    out.set("serve.batch_depth_mean", traced.depth_sum as f64 / batches);
    out.set(
        "serve.lanes_per_batch_mean",
        traced.lanes_sum as f64 / batches,
    );
    out.set(
        "serve.coalesce_share",
        1.0 - traced.lanes_sum as f64 / traced.depth_sum.max(1) as f64,
    );
    out.set("serve.pool_size", server.pool_size() as f64);

    // The pump split: replay the observed batches below the server.
    let probe = sliced_probe(world.net(), &world.pool, &traced.observed, seconds * 0.1);
    set_sliced(out, &probe);
    let pump_ns: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == Name::Pump)
        .take(probe.batches)
        .map(|s| s.ns() as f64)
        .sum();
    out.set(
        "serve.pump_residual_share",
        1.0 - (probe.kernel_ns + probe.collect_ns) / pump_ns.max(1.0),
    );
    let plain_summary = loops::summarise(&plain.slices);
    finish_traced(out, &plain.slices, &traced.slices, tracer);

    // The same stream at depth 1: what batching buys.
    let mut shallow = Server::new(
        Arc::clone(world.net()),
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    )
    .expect("the snapshot was flushed");
    let mut lp = ClosedLoop::new(&mut shallow, &world.pool, &world.stream, lens);
    lp.run(0.3, href, &mut off, &mut out.check);
    let depth1 = loops::summarise(
        &lp.run(seconds * 0.15, href, &mut off, &mut out.check)
            .slices,
    );
    out.set("serve.depth1_qps", depth1.norm_ops_per_s);
    out.set(
        "serve.batch_gain",
        plain_summary.norm_ops_per_s / depth1.norm_ops_per_s.max(1e-9),
    );
    layers(world, None, seconds * 0.2, out);
}

/// Rates of the ladder behind `serve.max_rung_in_slo_qps`.
const RUNGS: [u64; 5] = [10_000, 20_000, 40_000, 80_000, 160_000];
/// Share of offers that must complete inside the limit at a rung.
const RUNG_SHARE: f64 = 0.95;

/// Generator lateness and the burst interval it is held against; a
/// burst phase that shed anything was stalled by the host.
pub fn set_lateness(out: &mut Outcome, burst: &OpenOut) {
    let mut late: Vec<f64> = burst.late_us.iter().map(|&l| f64::from(l)).collect();
    if late.is_empty() {
        return;
    }
    let p99 = stats::quantile(&mut late, 0.99);
    out.set("serve.gen_late_p99_us", p99);
    out.set("serve.gen_late_max_us", late[late.len() - 1]);
    let Schedule::Burst { period_ns, .. } = Schedule::BURST else {
        unreachable!("BURST is a burst schedule");
    };
    out.disturbed |= p99 > period_ns as f64 / 1e3 || burst.shed > 0;
    if burst.shed > 0 {
        eprintln!(
            "note: {} offers refused in the burst phase: the host stalled for 64 ms or more",
            burst.shed
        );
    }
}

/// The traced run of the open-loop workload.
pub fn open_traced(
    world: &mut World,
    mut burst_server: Server,
    mut overload_server: Server,
    lens: &[u32],
    href: &mut HostRef,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut off = Tracer::new(false);
    let go = |server: &mut Server,
              schedule: Schedule,
              secs: f64,
              tracer: &mut Tracer,
              check: &mut Checked,
              href: &mut HostRef| {
        loops::open_loop(
            server,
            &world.pool,
            &world.stream,
            lens,
            schedule,
            secs,
            href,
            tracer,
            check,
        )
    };
    let plain = go(
        &mut burst_server,
        Schedule::BURST,
        seconds * 0.2,
        &mut off,
        &mut out.check,
        href,
    );
    let mut tracer = Tracer::new(true);
    let burst = go(
        &mut burst_server,
        Schedule::BURST,
        seconds * 0.25,
        &mut tracer,
        &mut out.check,
        href,
    );
    let overload = go(
        &mut overload_server,
        Schedule::OVERLOAD,
        seconds * 0.2,
        &mut tracer,
        &mut out.check,
        href,
    );
    set_serve_spans(out, &tracer, burst.depth_sum + overload.depth_sum);
    let batches = burst.batches.max(1) as f64;
    out.set("serve.batch_depth_mean", burst.depth_sum as f64 / batches);
    out.set(
        "serve.queue_wait_us",
        median_of(burst.wait_us.iter().map(|&v| f64::from(v))),
    );
    out.set(
        "serve.service_us",
        median_of(burst.service_us.iter().map(|&v| f64::from(v))),
    );
    let Schedule::Burst { size, .. } = Schedule::BURST else {
        unreachable!("BURST is a burst schedule");
    };
    out.set(
        "serve.batches_per_burst",
        batches / (burst.arrivals / size).max(1) as f64,
    );
    out.set(
        "serve.scan_fragment_share",
        burst.fragments as f64 / batches,
    );
    out.set(
        "serve.shed_share",
        overload.shed as f64 / overload.arrivals.max(1) as f64,
    );
    out.set(
        "serve.shed_offer_ns",
        median_of(overload.shed_offer_ns.iter().map(|&v| f64::from(v))),
    );
    let mut lat: Vec<f64> = burst
        .lat_us
        .iter()
        .filter(|l| !l.is_nan())
        .map(|&l| f64::from(l))
        .collect();
    if !lat.is_empty() {
        out.set("serve.open.p99_us", stats::quantile(&mut lat, 0.99));
    }
    set_lateness(out, &burst);
    out.set("serve.pool_size", burst_server.pool_size() as f64);

    let a = loops::summarise(&plain.window_slices(Schedule::BURST));
    let b = loops::summarise(&burst.window_slices(Schedule::BURST));
    keep_tracer(out, tracer);
    crate::run::set_summary(out, &open_summary(&plain, &overload));
    // The open loop is not saturated, so tracing shows in latency.
    out.set(
        "bench.trace_overhead_share",
        (b.norm_p50_us - a.norm_p50_us) / a.norm_p50_us.max(1e-9),
    );

    // The rate ladder: evenly spaced arrivals, one fresh server a rung.
    let mut best = 0u64;
    for rate in RUNGS {
        let mut server = Server::new(Arc::clone(world.net()), world::burst_config())
            .expect("the snapshot was flushed");
        let rung = go(
            &mut server,
            Schedule::even(rate),
            (seconds * 0.04).max(0.1),
            &mut off,
            &mut out.check,
            href,
        );
        if rung.share_in_slo() >= RUNG_SHARE {
            best = rate;
        }
    }
    out.set("serve.max_rung_in_slo_qps", best as f64);
    layers(world, None, seconds * 0.15, out);
}

/// The probes of the parse workloads: the parser's stages on each
/// sentence, the per-run set-up they pay, and the simulated machine's
/// counts for one pass.
pub fn nlu_layers(
    workload: Workload,
    world: &mut World,
    last_pass: &[ParseResult],
    seconds: f64,
    out: &mut Outcome,
) {
    let machine = world.machine.clone();
    let nlu = world
        .nlu
        .as_mut()
        .expect("parse workloads build the parser");
    let each = seconds / 8.0;
    let n = nlu.sentences.len() as f64;

    let phrasal_ns = timed(each, || {
        for s in &nlu.sentences {
            std::hint::black_box(nlu.parser.phrasal().parse(&s.words));
        }
    });
    let chunked: Vec<_> = nlu
        .sentences
        .iter()
        .map(|s| nlu.parser.phrasal().parse(&s.words))
        .collect();
    let compile_ns = timed(each, || {
        for c in &chunked {
            std::hint::black_box(nlu.parser.compile(c));
        }
    });
    let plans: Vec<_> = chunked.iter().map(|c| nlu.parser.compile(c)).collect();
    let run_ns = timed(each, || {
        for p in &plans {
            std::hint::black_box(machine.run(&mut nlu.kb.network, &p.program).is_ok());
        }
    });
    // What `parse` does after the machine returns: the event template of
    // each clause's best winner, read off the network on the host.
    let roots: Vec<snap_kb::NodeId> = last_pass
        .iter()
        .flat_map(|r| {
            r.clauses
                .iter()
                .filter_map(|c| c.winners.first().map(|w| w.0))
        })
        .collect();
    let extract_ns = timed(each, || {
        for &root in &roots {
            std::hint::black_box(snap_nlu::MemoryBasedParser::extract_template(
                &nlu.kb.network,
                root,
            ));
        }
    });
    out.set("nlu.phrasal_us", phrasal_ns / n / 1e3);
    out.set("nlu.compile_us", compile_ns / n / 1e3);
    out.set("nlu.machine_run_us", run_ns / n / 1e3);
    out.set("nlu.extract_us", extract_ns / n / 1e3);
    out.set(
        "nlu.instrs_per_sentence",
        plans.iter().map(|p| p.program.len() as f64).sum::<f64>() / n,
    );
    if workload.is_des() {
        out.set("core.des.run_us", run_ns / n / 1e3);
    }

    // The set-up every `Snap1::run` pays, on this network.
    let net = &nlu.kb.network;
    let map_ns = timed(each, || {
        std::hint::black_box(RegionMap::build(net, 1, PartitionScheme::Sequential));
    });
    let map = RegionMap::build(net, 1, PartitionScheme::Sequential);
    let region_ns = timed(each, || {
        std::hint::black_box(Region::new(ClusterId(0), Arc::clone(&map), net));
    });
    let stats_ns = timed(each, || {
        std::hint::black_box(map.partition().stats(net));
    });
    let part_ns = timed(each, || {
        std::hint::black_box(Partition::build(
            net,
            world::DES_CLUSTERS,
            PartitionScheme::EdgeCut,
        ));
    });
    out.set("core.region.map_build_us", map_ns / 1e3);
    out.set("core.region.new_us", region_ns / 1e3);
    out.set("kb.partition_stats_us", stats_ns / 1e3);
    out.set("kb.partition_build_ms", part_ns / 1e6);
    if !workload.is_des() {
        out.set("core.seq.run_shared_us", run_ns / n / 1e3);
        out.set(
            "core.seq.setup_share",
            (map_ns + stats_ns + region_ns) / (run_ns / n),
        );
    }

    // The modelled machine: one pass on the simulator.
    let des_pass: Vec<ParseResult>;
    let pass: &[ParseResult] = if workload.is_des() {
        last_pass
    } else {
        let des = world::des_parse_machine();
        des_pass = nlu
            .sentences
            .iter()
            .filter_map(|s| nlu.parser.parse(&mut nlu.kb.network, &des, s).ok())
            .collect();
        &des_pass
    };
    let pp_ns: u64 = pass.iter().map(|r| r.pp_time_ns).sum();
    set_sim(out, pass.iter().map(|r| &r.report), pp_ns);
    if workload.is_des() {
        let sim_us: f64 = pass.iter().map(|r| r.mb_time_ns as f64).sum::<f64>() / 1e3;
        out.set("core.des.host_ns_per_sim_us", run_ns / sim_us.max(1e-9));
    }
}
