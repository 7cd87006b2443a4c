//! `hotpath` — wall-clock propagation throughput and end-to-end engine
//! runtimes, written to `BENCH_hotpath.json` at the repository root.
//!
//! Unlike the figure experiments (which report deterministic simulated
//! time and regenerate `results/`), this harness measures real elapsed
//! time on the current machine, so its output lives in a separate JSON
//! file that every future change can be compared against.
//!
//! Two measurements per workload:
//!
//! * **kernel throughput** — the same SPFA propagation driver run over
//!   the historical datapath (nested-segment
//!   [`NestedRelationTable`] scan, hashed visited map, a fresh arrival
//!   `Vec` per task) and over the current one
//!   ([`expand_into`] on the CSR table, dense visited map, one reused
//!   arrival buffer). Both visit the identical task set, so the
//!   tasks/sec ratio isolates the datapath speedup;
//! * **end-to-end runtime** — the fig16 α workload and the fig19
//!   parse-batch workload on the sequential, DES, and threaded engines,
//!   plus the threaded engine's envelope-batching evidence
//!   (tasks sent vs. envelopes on the wire).

use crate::output::{ms, ratio, ExperimentOutput};
use crate::workloads::{alpha_network, alpha_program, parse_batch, CHAIN_REL, SRC_COLOR};
use snap_core::propagate::{expand_into, PropArrival, PropTask, VisitedMap};
use snap_core::{EngineKind, Snap1, VALUE_EPSILON};
use snap_isa::{PropRule, RuleProgram, StepFunc};
use snap_kb::reference::NestedRelationTable;
use snap_kb::{NodeId, SemanticNetwork};
use snap_nlu::{kb::rel, DomainSpec, PartOfSpeech};
use snap_stats::Table;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::Instant;

/// Propagation depth cap for the kernel drivers (the barrier's level
/// range; deep enough that no workload here ever hits it).
const KERNEL_MAX_HOPS: u8 = 63;

/// One kernel measurement: tasks expanded, arrivals produced, and the
/// best (minimum) wall time over the repeat iterations.
struct KernelRun {
    tasks: u64,
    arrivals: u64,
    best_ns: u128,
}

impl KernelRun {
    fn tasks_per_sec(&self) -> f64 {
        self.tasks as f64 * 1e9 / self.best_ns.max(1) as f64
    }
}

/// The historical improvement rule, verbatim: first visit, or a value
/// below the best by more than epsilon, or an epsilon-tie broken toward
/// the smaller origin ID.
fn legacy_should_expand(
    map: &mut HashMap<(usize, u8, NodeId), (f32, NodeId)>,
    state: u8,
    node: NodeId,
    value: f32,
    origin: NodeId,
) -> bool {
    match map.get_mut(&(0, state, node)) {
        None => {
            map.insert((0, state, node), (value, origin));
            true
        }
        Some((best, best_origin)) => {
            if value < *best - VALUE_EPSILON
                || ((value - *best).abs() <= VALUE_EPSILON && origin < *best_origin)
            {
                *best = value.min(*best);
                *best_origin = origin;
                true
            } else {
                false
            }
        }
    }
}

/// One SPFA pass over the pre-CSR datapath: nested-segment table scan,
/// tuple-keyed hash map, and a freshly allocated arrival vector per
/// task — the hot path as it was before the overhaul.
fn legacy_pass(
    table: &NestedRelationTable,
    rule: &RuleProgram,
    func: StepFunc,
    sources: &[NodeId],
    max_hops: u8,
) -> (u64, u64) {
    let mut visited: HashMap<(usize, u8, NodeId), (f32, NodeId)> = HashMap::new();
    let mut queue: VecDeque<PropTask> = VecDeque::new();
    for &node in sources {
        if legacy_should_expand(&mut visited, 0, node, 0.0, node) {
            queue.push_back(PropTask {
                prop: 0,
                node,
                state: 0,
                value: 0.0,
                origin: node,
                level: 0,
            });
        }
    }
    let (mut tasks, mut produced) = (0u64, 0u64);
    while let Some(task) = queue.pop_front() {
        tasks += 1;
        let state = rule.state(task.state);
        let _segments = table.segments(task.node);
        let mut arrivals: Vec<PropArrival> = Vec::new();
        if !state.is_terminal() {
            for link in table.links(task.node) {
                for arc in state.arcs() {
                    if link.relation == arc.relation {
                        arrivals.push(PropArrival {
                            node: link.destination,
                            state: arc.next,
                            value: func.apply(task.value, link.weight),
                        });
                    }
                }
            }
        }
        produced += arrivals.len() as u64;
        if task.level >= max_hops {
            continue;
        }
        for a in arrivals {
            if legacy_should_expand(&mut visited, a.state, a.node, a.value, task.origin) {
                queue.push_back(PropTask {
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
    (tasks, produced)
}

/// The same SPFA pass over the current datapath: [`expand_into`] on the
/// CSR relation table, a dense visited map, and one reused arrival
/// buffer.
fn csr_pass(
    net: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    sources: &[NodeId],
    max_hops: u8,
) -> (u64, u64) {
    let mut visited = VisitedMap::for_nodes(net.node_count());
    let mut queue: VecDeque<PropTask> = VecDeque::new();
    for &node in sources {
        if visited.should_expand(0, 0, node, 0.0, node) {
            queue.push_back(PropTask {
                prop: 0,
                node,
                state: 0,
                value: 0.0,
                origin: node,
                level: 0,
            });
        }
    }
    let (mut tasks, mut produced) = (0u64, 0u64);
    let mut arrivals: Vec<PropArrival> = Vec::new();
    while let Some(task) = queue.pop_front() {
        tasks += 1;
        expand_into(net, rule, func, &task, &mut arrivals);
        produced += arrivals.len() as u64;
        if task.level >= max_hops {
            continue;
        }
        for a in &arrivals {
            if visited.should_expand(0, a.state, a.node, a.value, task.origin) {
                queue.push_back(PropTask {
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
    (tasks, produced)
}

/// Times `pass` over `iters` repetitions, keeping the fastest.
fn measure(iters: usize, mut pass: impl FnMut() -> (u64, u64)) -> KernelRun {
    let mut best = KernelRun {
        tasks: 0,
        arrivals: 0,
        best_ns: u128::MAX,
    };
    for _ in 0..iters {
        let t0 = Instant::now();
        let (tasks, arrivals) = pass();
        let ns = t0.elapsed().as_nanos();
        if ns < best.best_ns {
            best.best_ns = ns;
        }
        best.tasks = tasks;
        best.arrivals = arrivals;
    }
    best
}

/// Rebuilds `net`'s relation table in the historical nested-segment
/// representation (construction time is excluded from the measurement,
/// as the CSR table inside `net` is likewise prebuilt).
fn nested_copy(net: &SemanticNetwork) -> NestedRelationTable {
    let mut table = NestedRelationTable::new();
    for node in net.nodes() {
        table.ensure_node(node);
        for link in net.links(node) {
            table
                .add_link(node, link.relation, link.weight, link.destination)
                .expect("rebuilding an existing link set");
        }
    }
    table
}

/// Legacy-vs-CSR kernel comparison on one workload.
struct KernelResult {
    legacy: KernelRun,
    csr: KernelRun,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.csr.tasks_per_sec() / self.legacy.tasks_per_sec()
    }
}

fn kernel_compare(
    net: &SemanticNetwork,
    rule: &RuleProgram,
    func: StepFunc,
    sources: &[NodeId],
    iters: usize,
) -> KernelResult {
    let table = nested_copy(net);
    let legacy = measure(iters, || {
        legacy_pass(&table, rule, func, sources, KERNEL_MAX_HOPS)
    });
    let csr = measure(iters, || {
        csr_pass(net, rule, func, sources, KERNEL_MAX_HOPS)
    });
    assert_eq!(
        (legacy.tasks, legacy.arrivals),
        (csr.tasks, csr.arrivals),
        "kernel datapaths diverged on the same workload"
    );
    KernelResult { legacy, csr }
}

/// One engine's end-to-end wall time on a workload, with the traffic
/// counters that evidence envelope batching and the partition context
/// that explains them (a zero envelope count on a fully-local partition
/// is locality, not a broken counter).
struct EngineRun {
    wall_ns: u128,
    envelopes: u64,
    tasks_sent: u64,
    clusters: usize,
    partition: String,
    cut_fraction: f64,
    collects: Vec<snap_core::CollectOutput>,
}

/// Panics unless every engine's collect results are identical to the
/// sequential run's — a timing bench must never paper over a count
/// mismatch with a table footnote.
fn assert_engines_agree(name: &str, runs: &[(EngineKind, EngineRun)]) {
    let (_, oracle) = runs
        .iter()
        .find(|(k, _)| *k == EngineKind::Sequential)
        .expect("sequential engine in sweep");
    for (kind, run) in runs {
        assert_eq!(
            oracle.collects, run.collects,
            "{name}: {kind:?} collect results diverged from the sequential engine"
        );
    }
}

fn engine_machine(kind: EngineKind, clusters: usize) -> Snap1 {
    Snap1::builder().clusters(clusters).engine(kind).build()
}

fn partition_context(report: &snap_core::RunReport) -> (String, f64) {
    report
        .partition
        .as_ref()
        .map_or(("unknown".into(), 0.0), |p| {
            (format!("{:?}", p.scheme), p.cut_fraction)
        })
}

fn run_alpha(kind: EngineKind, alpha: usize, depth: usize, clusters: usize) -> EngineRun {
    let machine = engine_machine(kind, clusters);
    let mut net = alpha_network(alpha, depth).expect("alpha network");
    let program = alpha_program();
    let t0 = Instant::now();
    let report = machine.run(&mut net, &program).expect("alpha run");
    let (partition, cut_fraction) = partition_context(&report);
    EngineRun {
        wall_ns: t0.elapsed().as_nanos(),
        envelopes: report.traffic.total_messages,
        tasks_sent: report.traffic.tasks_sent,
        clusters,
        partition,
        cut_fraction,
        collects: report.collects,
    }
}

fn run_parse(kind: EngineKind, kb_nodes: usize, sentences: usize, clusters: usize) -> EngineRun {
    let machine = engine_machine(kind, clusters);
    let t0 = Instant::now();
    let results = parse_batch(kb_nodes, sentences, &machine, 0x4001_BEEF).expect("parse batch");
    let wall_ns = t0.elapsed().as_nanos();
    let (mut envelopes, mut tasks_sent) = (0u64, 0u64);
    let mut collects = Vec::new();
    for r in &results {
        envelopes += r.report.traffic.total_messages;
        tasks_sent += r.report.traffic.tasks_sent;
        collects.extend(r.report.collects.iter().cloned());
    }
    let (partition, cut_fraction) = results
        .first()
        .map_or(("unknown".into(), 0.0), |r| partition_context(&r.report));
    EngineRun {
        wall_ns,
        envelopes,
        tasks_sent,
        clusters,
        partition,
        cut_fraction,
        collects,
    }
}

/// The repository root (two levels above this crate's manifest).
fn repo_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    std::path::Path::new(&manifest)
        .join("../..")
        .components()
        .collect()
}

fn json_kernel(name: &str, k: &KernelResult, host_cpus: usize) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"tasks\": {},\n",
            "      \"arrivals\": {},\n",
            "      \"legacy_ns\": {},\n",
            "      \"csr_ns\": {},\n",
            "      \"legacy_tasks_per_sec\": {:.0},\n",
            "      \"csr_tasks_per_sec\": {:.0},\n",
            "      \"speedup\": {:.2},\n",
            "      \"wall_reliable\": {}\n",
            "    }}"
        ),
        name,
        k.csr.tasks,
        k.csr.arrivals,
        k.legacy.best_ns,
        k.csr.best_ns,
        k.legacy.tasks_per_sec(),
        k.csr.tasks_per_sec(),
        k.speedup(),
        // Both drivers are single-threaded: the wall number only needs
        // one unshared core.
        host_cpus >= 1,
    )
}

fn json_engine(name: &str, runs: &[(EngineKind, EngineRun)], host_cpus: usize) -> String {
    let fields: Vec<String> = runs
        .iter()
        .map(|(kind, r)| {
            let label = match kind {
                EngineKind::Sequential => "sequential",
                EngineKind::Des => "des",
                EngineKind::Threaded => "threaded",
            };
            // Sequential and DES run on one thread; the threaded engine
            // needs a core per cluster worker before its wall time means
            // anything (the same rule the scaling bench applies).
            let reliable = match kind {
                EngineKind::Threaded => host_cpus >= r.clusters,
                _ => host_cpus >= 1,
            };
            let mut s = format!(
                "      \"{}_wall_ms\": {:.2},\n      \"{}_wall_reliable\": {}",
                label,
                r.wall_ns as f64 / 1e6,
                label,
                reliable
            );
            if *kind == EngineKind::Threaded {
                s.push_str(&format!(
                    concat!(
                        ",\n      \"threaded_envelopes\": {},\n",
                        "      \"threaded_tasks_sent\": {},\n",
                        "      \"threaded_clusters\": {},\n",
                        "      \"threaded_partition\": \"{}\",\n",
                        "      \"threaded_cut_fraction\": {:.4}"
                    ),
                    r.envelopes, r.tasks_sent, r.clusters, r.partition, r.cut_fraction
                ));
            }
            s
        })
        .collect();
    format!("    \"{}\": {{\n{}\n    }}", name, fields.join(",\n"))
}

/// Runs the experiment and writes `BENCH_hotpath.json` at the repo root.
///
/// # Panics
///
/// Panics if a run fails or the JSON file cannot be written.
pub fn run(quick: bool) -> ExperimentOutput {
    run_to(quick, repo_root().join("BENCH_hotpath.json"))
}

/// [`run`] with an explicit output path (tests point it at a temp dir so
/// a test run never overwrites the checked-in baseline).
fn run_to(quick: bool, path: PathBuf) -> ExperimentOutput {
    let iters = if quick { 2 } else { 3 };
    let (alpha, depth) = if quick { (32, 24) } else { (192, 96) };
    let kb_nodes = if quick { 2_500 } else { 12_000 };
    let sentences = if quick { 1 } else { 2 };
    let clusters = 8;

    // Kernel throughput: fig16 α chains (Star over one relation). The
    // networks are flushed up front, as every engine does at run entry —
    // otherwise expansion takes the staged-links fallback scan.
    let star = PropRule::Star(CHAIN_REL).compile();
    let mut alpha_net = alpha_network(alpha, depth).expect("alpha network");
    alpha_net.flush_links();
    let alpha_sources: Vec<NodeId> = alpha_net.nodes_with_color(SRC_COLOR).collect();
    let fig16_kernel = kernel_compare(
        &alpha_net,
        &star,
        StepFunc::AddWeight,
        &alpha_sources,
        iters,
    );

    // Kernel throughput: fig19 large parse KB (Spread over the
    // subsumption relations, sourced at the noun lexicon).
    let mut kb = DomainSpec::sized(kb_nodes).build().expect("parse KB");
    kb.network.flush_links();
    let spread = PropRule::Spread(rel::IS_A, rel::ELEM_OF).compile();
    let kb_sources: Vec<NodeId> = kb
        .words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect();
    let fig19_kernel = kernel_compare(
        &kb.network,
        &spread,
        StepFunc::AddWeight,
        &kb_sources,
        iters,
    );

    // End-to-end engine runtimes.
    let engines = [
        EngineKind::Sequential,
        EngineKind::Des,
        EngineKind::Threaded,
    ];
    let fig16_engines: Vec<(EngineKind, EngineRun)> = engines
        .iter()
        .map(|&k| (k, run_alpha(k, alpha, depth, clusters)))
        .collect();
    let fig19_engines: Vec<(EngineKind, EngineRun)> = engines
        .iter()
        .map(|&k| (k, run_parse(k, kb_nodes, sentences, clusters)))
        .collect();
    assert_engines_agree("fig16 alpha", &fig16_engines);
    assert_engines_agree("fig19 parse", &fig19_engines);

    // BENCH_hotpath.json at the repo root. `host_cpus` qualifies every
    // wall number: this file is compared across machines, so each row
    // says whether the host could actually time it honestly.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"hotpath\",\n",
            "  \"quick\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"kernel\": {{\n{},\n{}\n  }},\n",
            "  \"end_to_end\": {{\n{},\n{}\n  }}\n",
            "}}\n"
        ),
        quick,
        host_cpus,
        json_kernel("fig16_alpha", &fig16_kernel, host_cpus),
        json_kernel("fig19_parse_kb", &fig19_kernel, host_cpus),
        json_engine("fig16_alpha", &fig16_engines, host_cpus),
        json_engine("fig19_parse", &fig19_engines, host_cpus),
    );
    std::fs::write(&path, &json).expect("write BENCH_hotpath.json");

    // Rendered output.
    let mut kernel_table = Table::new(
        [
            "workload",
            "tasks",
            "legacy ktasks/s",
            "csr ktasks/s",
            "speedup",
        ]
        .map(str::to_string)
        .to_vec(),
    );
    for (name, k) in [
        ("fig16 alpha", &fig16_kernel),
        ("fig19 parse KB", &fig19_kernel),
    ] {
        kernel_table.row(vec![
            name.to_string(),
            k.csr.tasks.to_string(),
            ratio(k.legacy.tasks_per_sec() / 1e3),
            ratio(k.csr.tasks_per_sec() / 1e3),
            ratio(k.speedup()),
        ]);
    }
    let mut engine_table = Table::new(
        ["workload", "engine", "wall ms", "envelopes", "tasks sent"]
            .map(str::to_string)
            .to_vec(),
    );
    for (name, runs) in [
        ("fig16 alpha", &fig16_engines),
        ("fig19 parse", &fig19_engines),
    ] {
        for (kind, r) in runs.iter() {
            engine_table.row(vec![
                name.to_string(),
                format!("{kind:?}"),
                ms(r.wall_ns as u64),
                r.envelopes.to_string(),
                r.tasks_sent.to_string(),
            ]);
        }
    }

    let mut out = ExperimentOutput::new("hotpath", "Wall-clock hot-path throughput");
    out.table("propagation kernel: legacy vs CSR datapath", kernel_table);
    out.table("end-to-end engine wall time", engine_table);
    out.note(format!(
        "fig19 large-KB sequential kernel speedup: {} (target >= 2.0)",
        ratio(fig19_kernel.speedup())
    ));
    for (name, engines) in [
        ("fig16 alpha", &fig16_engines),
        ("fig19 parse", &fig19_engines),
    ] {
        let Some((_, thr)) = engines.iter().find(|(k, _)| *k == EngineKind::Threaded) else {
            continue;
        };
        if thr.envelopes > 0 {
            out.note(format!(
                "{name} threaded batching: {} tasks in {} envelopes ({} tasks/envelope)",
                thr.tasks_sent,
                thr.envelopes,
                ratio(thr.tasks_sent as f64 / thr.envelopes as f64)
            ));
        } else {
            out.note(format!(
                "{name} threaded envelopes: 0 — the {} partition over {} clusters \
                 cut {:.2}% of links, so propagation stayed intra-cluster",
                thr.partition,
                thr.clusters,
                thr.cut_fraction * 100.0
            ));
        }
    }
    if host_cpus < clusters {
        out.note(format!(
            "host_cpus: {host_cpus} < {clusters} clusters — threaded wall rows are marked \
             \"wall_reliable\": false"
        ));
    } else {
        out.note(format!("host_cpus: {host_cpus}"));
    }
    out.note(format!("wrote {}", path.display()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_and_json_is_written() {
        let dir = std::env::temp_dir().join(format!("snapbench-hotpath-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_hotpath.json");
        let out = run_to(true, path.clone());
        assert!(out.notes.iter().any(|n| n.contains("speedup")));
        assert!(out.notes.iter().any(|n| n.contains("host_cpus")));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"fig19_parse_kb\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"wall_reliable\": true"));
        assert!(json.contains("\"threaded_wall_reliable\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
