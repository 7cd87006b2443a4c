//! Serve isolation differential: queries answered through the batching
//! server — arrival-order batches, duplicates and repeats answered from
//! its answer table — must be indistinguishable from the same queries run
//! serially, one at a time, on the sequential engine, and come back in
//! the order they were admitted. The whole `RunReport` is compared per
//! query.
//!
//! Two layers:
//!
//! * a **deterministic grid** over the shared KB axis × batch depth
//!   {1, 4, 16, 64}, with a threaded cross-check of the same queries;
//! * a **proptest sweep** over fuzzed networks and programs, offering
//!   each random program several times so batches mix duplicates
//!   (answered from the table) with distinct shapes and, now and then, a rule
//!   as wide as a rule state may be or a query that fails beside
//!   siblings that must not notice;
//! * a **pooled-answer sweep** over streams that repeat a few programs
//!   across pumps, Zipf-like, so most queries are answered from a
//!   report the answer table holds — a failing program's included,
//!   and never one with a NaN constant, which equals nothing.

use proptest::prelude::*;
use snap_core::{Cm2, CoreError, EngineKind, MachineConfig, RunReport, Snap1};
use snap_integration_tests::grid;
use snap_isa::{Cmp, Program, PropRule, RuleArc, RuleProgram, RuleState, StepFunc, ValueFunc};
use snap_kb::{Color, KbError, Marker, NetworkConfig, NodeId, RelationType, SemanticNetwork};
use snap_nlu::{kb::rel, DomainSpec, PartOfSpeech};
use snap_serve::{Admission, Completion, ServeConfig, ServeStats, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Batch depths swept; 64 is the deepest pump the server forms.
const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// The serial one-query-at-a-time oracle, configured exactly as the
/// server configures the machine its lanes run on.
fn serial_oracle() -> Snap1 {
    Snap1::builder()
        .config(MachineConfig::snap1_eval())
        .engine(EngineKind::Sequential)
        .build()
}

/// Asserts one served completion is indistinguishable from running its
/// program alone on the sequential engine: the identical report (or the
/// identical typed error, when the program fails).
fn assert_isolated(label: &str, c: &Completion, want: &Result<RunReport, CoreError>) {
    match (&c.result, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "[{label}] report"),
        (Err(got), Err(want)) => assert_eq!(got, want, "[{label}] error"),
        (got, want) => panic!("[{label}] served {got:?} but serial oracle says {want:?}"),
    }
}

/// Serves `programs` (each repeated `copies` times, round-robin so
/// batches interleave shapes) at `depth`, returning completions paired
/// with the index of the program they carried.
fn serve_all(
    net: &Arc<SemanticNetwork>,
    programs: &[Program],
    copies: usize,
    depth: usize,
) -> Vec<(usize, Completion)> {
    let stream: Vec<usize> = (0..copies).flat_map(|_| 0..programs.len()).collect();
    serve_stream(net, programs, &stream, depth, stream.len()).0
}

/// Serves the stream of program indices `stream` at `depth`, offering
/// `burst` queries between pumps and draining at the end. Returns the
/// completions paired with the index of the program they carried, and
/// the server's final counters.
fn serve_stream(
    net: &Arc<SemanticNetwork>,
    programs: &[Program],
    stream: &[usize],
    depth: usize,
    burst: usize,
) -> (Vec<(usize, Completion)>, ServeStats) {
    let cfg = ServeConfig {
        max_batch: depth,
        queue_capacity: stream.len(),
    };
    let mut server = Server::new(Arc::clone(net), cfg).expect("flushed snapshot");
    let mut done = Vec::with_capacity(stream.len());
    for (nth, &pi) in stream.iter().enumerate() {
        match server.offer(programs[pi].clone()) {
            Admission::Admitted(id) => assert_eq!(id.0 as usize, nth, "IDs are dense"),
            Admission::Shed(why) => panic!("capacity covers all offers: {why:?}"),
        }
        if (nth + 1) % burst == 0 {
            done.extend(server.pump());
        }
    }
    done.extend(server.drain());
    server.assert_accounting();
    assert_eq!(done.len(), stream.len(), "every admitted query completes");
    let served = done.into_iter().enumerate().map(|(nth, c)| {
        assert_eq!(c.id.0 as usize, nth, "completion order is admission order");
        (stream[nth], c)
    });
    (served.collect(), server.stats())
}

/// The deterministic grid: shared KBs × batch depth, plus the same
/// programs one at a time on the threaded engine, so served results
/// agree with real threads and the tiered barrier, not just with the
/// serial reference.
#[test]
fn served_batches_match_serial_runs_across_grid() {
    let programs: Vec<(&str, Program)> = grid::programs();
    for &(kb_name, kb) in grid::KBS {
        let mut raw = kb();
        raw.flush_links();
        let net = Arc::new(raw);
        let oracle = serial_oracle();
        let serial: Vec<Result<RunReport, CoreError>> = programs
            .iter()
            .map(|(_, p)| oracle.run_shared(&net, p))
            .collect();
        let all: Vec<Program> = programs.iter().map(|(_, p)| p.clone()).collect();
        for depth in DEPTHS {
            for (pi, c) in serve_all(&net, &all, 4, depth) {
                let label = format!("{kb_name}/{}/depth{depth}", programs[pi].0);
                assert_isolated(&label, &c, &serial[pi]);
            }
        }
        let threaded = Snap1::builder()
            .config(MachineConfig::uniform(2, 3))
            .engine(EngineKind::Threaded)
            .build();
        for ((pname, p), want) in programs.iter().zip(&serial) {
            let got = threaded.run_shared(&net, p).expect("threaded run");
            let want = want.as_ref().expect("grid programs succeed");
            let label = format!("{kb_name}/{pname}/threaded");
            grid::assert_equivalent(&label, &got.collects, &want.collects);
        }
    }
}

/// A marker register past the 64-entry file — a `COLLECT` of it, a
/// `PROPAGATE` sourced at it, one overlap group naming it and another
/// bad register, or a `PROPAGATE` into it that reaches no node — is one
/// typed error on every engine, exclusive or shared, on the CM-2
/// comparator and in a served batch at depths 1 and 16, beside clean
/// queries that must not notice and with exact accounting. Each program
/// carries a second, different fault after the bad register, so the
/// error also says which instruction the run stopped at.
/// One lane of the benchmark's parse-KB serve streams: seed `node`,
/// propagate by `rule` into `target`, collect it.
fn kb_query(node: NodeId, rule: PropRule, func: StepFunc, target: Marker) -> Program {
    Program::builder()
        .search_node(node, Marker::binary(1), 0.0)
        .propagate(Marker::binary(1), target, rule, func)
        .collect_marker(target)
        .build()
}

#[test]
fn a_lane_failing_mid_propagation_leaves_the_shared_region_clean() {
    let mut kb = DomainSpec::sized(2_000).build().expect("parse KB");
    kb.network.flush_links();
    let nouns: Vec<NodeId> = kb
        .words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect();
    let (categories, net) = (kb.categories, Arc::new(kb.network));
    // Every fourth lane's search marks its noun in the server's one
    // region, then its `PROPAGATE` fails on a target register out of
    // range; the next lane seeds from that same source marker. The
    // clean lanes are the three shapes of the serve workloads: the
    // parse query, a climb and a descent from a category.
    let lane = |i: usize| {
        let noun = nouns[i * 7 % nouns.len()];
        let (rule, func, target) = match i % 4 {
            0 => (
                PropRule::Star(rel::IS_A),
                StepFunc::AddWeight,
                Marker::complex(70),
            ),
            1 => (
                PropRule::Spread(rel::IS_A, rel::ELEM_OF),
                StepFunc::AddWeight,
                Marker::complex(2),
            ),
            2 => (
                PropRule::Star(rel::IS_A),
                StepFunc::AddWeight,
                Marker::complex(3),
            ),
            _ => {
                let category = categories[i * 5 % categories.len()];
                let rule = PropRule::Star(rel::SUBSUMES);
                return kb_query(category, rule, StepFunc::Identity, Marker::binary(2));
            }
        };
        kb_query(noun, rule, func, target)
    };
    let offered: Vec<Program> = (0..16).map(lane).collect();
    let mut server =
        Server::new(Arc::clone(&net), ServeConfig::default()).expect("flushed snapshot");
    for p in &offered {
        assert!(matches!(server.offer(p.clone()), Admission::Admitted(_)));
    }
    let done = server.pump();
    assert_eq!(done.len(), 16, "one pump serves every lane");
    for (i, (c, p)) in done.iter().zip(&offered).enumerate() {
        let want = serial_oracle().run_shared(&net, p);
        assert_isolated(&format!("lane {i}"), c, &want);
        assert_eq!(c.result.is_err(), i % 4 == 0, "lane {i}");
        if let Ok(report) = &c.result {
            assert!(!report.collects[0].is_empty(), "lane {i} reached nothing");
        }
    }
    let s = server.stats();
    assert_eq!((s.completed, s.failed), (12, 4));
    server.assert_accounting();
}

#[test]
fn an_out_of_range_marker_read_is_one_typed_error_everywhere() {
    let out_of_range = CoreError::Kb(KbError::MarkerOutOfRange {
        index: 70,
        capacity: 64,
    });
    let (bad, past_kb) = (Marker::binary(70), NodeId(9_999));
    let star = PropRule::Star(RelationType(0));
    let clean = Program::builder()
        .search_node(NodeId(0), Marker::binary(1), 0.0)
        .propagate(
            Marker::binary(1),
            Marker::complex(2),
            star.clone(),
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(2))
        .build();
    let collect = Program::builder()
        .collect_marker(bad)
        .search_node(past_kb, Marker::binary(1), 0.0)
        .build();
    let propagate = Program::builder()
        .search_node(NodeId(0), Marker::binary(1), 0.0)
        .propagate(bad, Marker::complex(2), star.clone(), StepFunc::AddWeight)
        .search_node(past_kb, Marker::binary(1), 0.0)
        .collect_marker(Marker::complex(2))
        .build();
    // Two independent propagations the controller overlaps in one group:
    // the first fails on its target, the second on its source. Every
    // member's registers resolve, in member order, before any member
    // propagates, so no engine reports the second.
    let (b1, c70, add) = (Marker::binary(1), Marker::complex(70), StepFunc::AddWeight);
    let group = Program::builder()
        .search_node(NodeId(0), b1, 0.0)
        .propagate(b1, c70, star.clone(), add)
        .propagate(Marker::binary(71), Marker::complex(3), star.clone(), add)
        .search_node(past_kb, b1, 0.0)
        .build();
    // From a marker active nowhere: the bad target is never written.
    let reaches_nothing = Program::builder()
        .propagate(b1, c70, star, add)
        .search_node(past_kb, b1, 0.0)
        .build();
    let mut raw = grid::kb_chain();
    raw.flush_links();
    let net = Arc::new(raw);
    let oracle = serial_oracle();
    let want_clean = oracle.run_shared(&net, &clean);
    assert!(want_clean.is_ok());
    for (name, program) in [
        ("collect", &collect),
        ("propagate", &propagate),
        ("group", &group),
        ("reaches nothing", &reaches_nothing),
    ] {
        for engine in [
            EngineKind::Sequential,
            EngineKind::Des,
            EngineKind::Threaded,
        ] {
            let machine = Snap1::builder()
                .config(MachineConfig::uniform(4, 3))
                .engine(engine)
                .build();
            let shared = machine.run_shared(&net, program);
            assert_eq!(
                shared.unwrap_err(),
                out_of_range,
                "{name} {engine:?} shared"
            );
            let mut copy = SemanticNetwork::clone(&net);
            let exclusive = machine.run(&mut copy, program);
            assert_eq!(
                exclusive.unwrap_err(),
                out_of_range,
                "{name} {engine:?} exclusive"
            );
            // The failure is the query's alone: the machine serves on.
            assert!(
                machine.run_shared(&net, &clean).is_ok(),
                "{name} {engine:?}"
            );
        }
        let mut copy = SemanticNetwork::clone(&net);
        let cm2 = Cm2::new().run(&mut copy, program);
        assert_eq!(cm2.unwrap_err(), out_of_range, "{name} cm2");
        let batch = [clean.clone(), program.clone(), clean.clone()];
        for depth in [1, 16] {
            for (pi, c) in serve_all(&net, &batch, 6, depth) {
                let want = if pi == 1 {
                    Err(out_of_range.clone())
                } else {
                    want_clean.clone()
                };
                assert_isolated(&format!("{name} depth {depth} #{pi}"), &c, &want);
            }
        }
    }
    // The other way round, the unknown node is read first and wins.
    let swapped = Program::builder()
        .search_node(past_kb, Marker::binary(1), 0.0)
        .collect_marker(bad)
        .build();
    assert_eq!(
        oracle.run_shared(&net, &swapped).unwrap_err(),
        CoreError::Kb(KbError::UnknownNode(past_kb))
    );
}

// ---- proptest sweep over fuzzed networks and programs ----

#[derive(Debug, Clone)]
struct NetSpec {
    nodes: usize,
    links: Vec<(u32, u16, u32, u32)>, // (src, rel, weight_milli, dst)
}

fn net_strategy() -> impl Strategy<Value = NetSpec> {
    (8usize..32).prop_flat_map(|nodes| {
        let links = proptest::collection::vec(
            (
                0u32..nodes as u32,
                0u16..4,
                1u32..3000, // strictly positive weights: few value ties
                0u32..nodes as u32,
            ),
            0..nodes * 2,
        );
        links.prop_map(move |links| NetSpec { nodes, links })
    })
}

fn build_net(spec: &NetSpec) -> SemanticNetwork {
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    for i in 0..spec.nodes {
        net.add_node(Color((i % 5) as u8)).unwrap();
    }
    for &(s, r, w, d) in &spec.links {
        net.add_link(NodeId(s), RelationType(r), w as f32 / 1000.0, NodeId(d))
            .unwrap();
    }
    net.flush_links();
    net
}

/// One random query: seed a node, propagate under a random rule, observe
/// the target marker. Shapes differ across rules, so a served stream of
/// these mixes shapes within a batch, runs every arc-count path of the
/// wave kernel side by side (rule 4 has an eight-arc state over four
/// relations, the widest a rule admits, so arcs share relations) and,
/// via repeats, answers duplicates from the table.
#[derive(Debug, Clone)]
struct QuerySpec {
    seed: u32,
    rule: u8,
    rels: (u16, u16),
    fault: Fault,
}

/// What is wrong with a query, if anything: the node it seeds is past
/// the KB (fails at the search) or its source marker register is past
/// the file. Either fails in a batch beside clean queries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    NodePastKb,
    MarkerPastFile,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (any::<u32>(), 0u8..5, (0u16..4, 0u16..4), 0u8..6).prop_map(|(seed, rule, rels, fault)| {
        QuerySpec {
            seed,
            rule,
            rels,
            fault: match fault {
                0 => Fault::NodePastKb,
                1 => Fault::MarkerPastFile,
                _ => Fault::None,
            },
        }
    })
}

fn build_query(q: &QuerySpec, nodes: usize) -> Program {
    let rule = match q.rule {
        0 => PropRule::Star(RelationType(q.rels.0)),
        1 => PropRule::Once(RelationType(q.rels.0)),
        2 => PropRule::Spread(RelationType(q.rels.0), RelationType(q.rels.1)),
        3 => PropRule::Union(RelationType(q.rels.0), RelationType(q.rels.1)),
        _ => {
            let arcs = (0..8).map(|r| RuleArc::new(RelationType((q.rels.0 + r) % 4), 1));
            PropRule::Custom(RuleProgram::from_states(vec![
                RuleState::new(arcs.collect()),
                RuleState::terminal(),
            ]))
        }
    };
    let seed = q.seed % nodes as u32;
    let (node, source) = match q.fault {
        Fault::None => (seed, Marker::complex(1)),
        Fault::NodePastKb => (nodes as u32 + seed, Marker::complex(1)),
        Fault::MarkerPastFile => (seed, Marker::complex(70)),
    };
    Program::builder()
        .search_node(NodeId(node), source, 0.0)
        .propagate(source, Marker::complex(2), rule, StepFunc::AddWeight)
        .collect_marker(Marker::complex(2))
        .collect_marker(source)
        .build()
}

/// Cases of the sweep below in which a failing lane shared a batch
/// with a clean one, and in which a widest rule was served.
static MIXED_BATCHES: AtomicUsize = AtomicUsize::new(0);
static WIDEST_RULES: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Not a `#[test]` itself: the wrapper below runs the cases and then
    // checks they offered what the sweep is for.
    fn fuzzed_inputs_cases(
        spec in net_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..8),
        depth in prop_oneof![Just(1usize), Just(4), Just(16), Just(64)],
    ) {
        let net = Arc::new(build_net(&spec));
        let programs: Vec<Program> =
            queries.iter().map(|q| build_query(q, spec.nodes)).collect();
        let oracle = serial_oracle();
        let serial: Vec<Result<RunReport, CoreError>> = programs
            .iter()
            .map(|p| oracle.run_shared(&net, p))
            .collect();
        for (q, want) in queries.iter().zip(&serial) {
            prop_assert_eq!(want.is_err(), q.fault != Fault::None);
        }
        // Offers go round-robin and pumps take them `depth` at a time.
        let bad: Vec<bool> = queries.iter().map(|q| q.fault != Fault::None).collect();
        let offers: Vec<bool> = bad.iter().cycle().take(3 * bad.len()).copied().collect();
        if offers.chunks(depth).any(|pump| pump.contains(&true) && pump.contains(&false)) {
            MIXED_BATCHES.fetch_add(1, Ordering::Relaxed);
        }
        if queries.iter().any(|q| q.rule == 4 && q.fault == Fault::None) {
            WIDEST_RULES.fetch_add(1, Ordering::Relaxed);
        }
        for (pi, c) in serve_all(&net, &programs, 3, depth) {
            assert_isolated(&format!("fuzzed #{pi} depth {depth}"), &c, &serial[pi]);
        }
    }
}

/// Fuzzed batches, some with a lane that fails: every sibling must still
/// equal its solo `run_shared` report and the failing query its solo
/// typed error (`assert_isolated`), with exact accounting (`serve_all`).
#[test]
fn served_batches_match_serial_runs_on_fuzzed_inputs() {
    fuzzed_inputs_cases();
    // The runner seeds a property from its name, so this is one fixed
    // set of cases, not a chance.
    assert!(
        MIXED_BATCHES.load(Ordering::Relaxed) > 0,
        "no generated batch mixed a failing lane with a clean one"
    );
    assert!(
        WIDEST_RULES.load(Ordering::Relaxed) > 0,
        "no generated query carried an eight-arc rule state"
    );
}

// ---- answers from the table equal fresh runs ----

/// Zipf(1) over eight ranks, as integer weights `840 / rank`.
const ZIPF_8: [u32; 8] = [840, 420, 280, 210, 168, 140, 120, 105];

/// The rank a draw in `0..ZIPF_8.iter().sum()` falls on.
fn zipf_rank(mut draw: u32) -> usize {
    ZIPF_8
        .iter()
        .position(|&w| {
            let hit = draw < w;
            draw = draw.saturating_sub(w);
            hit
        })
        .expect("draw below the total weight")
}

/// Queries answered from the table, over all cases of the sweep below.
static REUSED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    // Not a `#[test]` itself: the wrapper below runs the cases and then
    // checks that the table answered queries. Cases follow
    // `PROPTEST_CASES`.
    fn pooled_answers_cases(
        spec in net_strategy(),
        clean in proptest::collection::vec(query_strategy(), 7),
        draws in proptest::collection::vec(0u32..2283, 16..96),
        depth in prop_oneof![Just(1usize), Just(4), Just(16)],
        burst in 1usize..24,
    ) {
        let net = Arc::new(build_net(&spec));
        // Rank 1 fails at its search, rank 2 carries a NaN constant
        // (`value < NaN` never holds, so its report is NaN-free, but the
        // program equals nothing), the rest run clean.
        let mut programs: Vec<Program> = clean
            .iter()
            .map(|q| build_query(&QuerySpec { fault: Fault::None, ..q.clone() }, spec.nodes))
            .collect();
        let failing = QuerySpec { fault: Fault::NodePastKb, ..clean[1].clone() };
        programs.insert(1, build_query(&failing, spec.nodes));
        let mut nan = programs[2].clone();
        nan.push(snap_isa::Instruction::FuncMarker {
            marker: Marker::complex(2),
            func: ValueFunc::KeepIf(Cmp::Lt, f32::NAN),
        });
        nan.push(snap_isa::Instruction::CollectMarker { marker: Marker::complex(2) });
        programs[2] = nan;
        prop_assert_ne!(&programs[2], &programs[2].clone());
        let oracle = serial_oracle();
        let solo: Vec<Result<RunReport, CoreError>> = programs
            .iter()
            .map(|p| oracle.run_shared(&net, p))
            .collect();
        prop_assert!(solo[1].is_err());
        let stream: Vec<usize> = draws.iter().map(|&d| zipf_rank(d)).collect();
        let (served, stats) = serve_stream(&net, &programs, &stream, depth, burst);
        for (pi, c) in served {
            assert_isolated(&format!("pooled #{pi} depth {depth}"), &c, &solo[pi]);
        }
        // The answer table holds all eight programs, so each distinct
        // program ran once, except the NaN one: every one of its
        // queries ran.
        let nan_queries = stream.iter().filter(|&&pi| pi == 2).count() as u64;
        let mut distinct: Vec<&Program> = Vec::new();
        for &pi in stream.iter().filter(|&&pi| pi != 2) {
            if !distinct.contains(&&programs[pi]) {
                distinct.push(&programs[pi]);
            }
        }
        let runs = stats.completed + stats.failed - stats.reused;
        prop_assert_eq!(runs, distinct.len() as u64 + nan_queries);
        REUSED.fetch_add(stats.reused as usize, Ordering::Relaxed);
    }
}

/// Streams that repeat eight programs across pumps at depths 1, 4 and
/// 16: every completion — answered from the table or run —
/// equals the program's solo `run_shared` report or error, in arrival
/// order, with exact accounting.
#[test]
fn pooled_answers_equal_fresh_runs() {
    pooled_answers_cases();
    assert!(
        REUSED.load(Ordering::Relaxed) > 0,
        "no generated stream was answered from the table"
    );
}
