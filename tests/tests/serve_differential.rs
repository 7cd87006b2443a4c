//! Serve isolation differential: queries answered through the batching
//! server — arrival-order batches, coalesced duplicates, pooled
//! contexts — must be indistinguishable from the same queries run
//! serially, one at a time, on the sequential engine, and come back in
//! the order they were admitted. The whole `RunReport` is compared per
//! query.
//!
//! Two layers:
//!
//! * a **deterministic grid** over the shared KB axis × batch depth
//!   {1, 4, 16, 64}, with a threaded cross-check of the same queries;
//! * a **proptest sweep** over fuzzed networks and programs, offering
//!   each random program several times so batches mix duplicates (the
//!   coalescing path) with distinct shapes and, now and then, a rule
//!   as wide as a rule state may be or a query that fails beside
//!   siblings that must not notice.

use proptest::prelude::*;
use snap_core::{Cm2, CoreError, EngineKind, MachineConfig, RunReport, Snap1};
use snap_integration_tests::grid;
use snap_isa::{Program, PropRule, RuleArc, RuleProgram, RuleState, StepFunc};
use snap_kb::{Color, KbError, Marker, NetworkConfig, NodeId, RelationType, SemanticNetwork};
use snap_serve::{Admission, Completion, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Batch depths swept; 64 is the deepest pump the server forms.
const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// The serial one-query-at-a-time oracle, configured exactly as the
/// server configures the machine its lanes run on.
fn serial_oracle(cfg: &ServeConfig) -> Snap1 {
    Snap1::builder()
        .config(MachineConfig {
            max_hops: cfg.max_hops,
            ..MachineConfig::snap1_eval()
        })
        .cost(cfg.cost.clone())
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
    let total = programs.len() * copies;
    let cfg = ServeConfig {
        max_batch: depth,
        queue_capacity: total,
        ..ServeConfig::default()
    };
    let mut server = Server::new(Arc::clone(net), cfg).expect("flushed snapshot");
    let mut offered: Vec<usize> = Vec::with_capacity(total);
    for _ in 0..copies {
        for (pi, p) in programs.iter().enumerate() {
            match server.offer(p.clone()) {
                Admission::Admitted(id) => {
                    assert_eq!(id.0 as usize, offered.len(), "IDs are dense");
                    offered.push(pi);
                }
                Admission::Shed(why) => panic!("capacity covers all offers: {why:?}"),
            }
        }
    }
    let done = server.drain();
    server.assert_accounting();
    assert_eq!(done.len(), total, "every admitted query completes");
    let served = done.into_iter().enumerate().map(|(nth, c)| {
        assert_eq!(c.id.0 as usize, nth, "completion order is admission order");
        (offered[nth], c)
    });
    served.collect()
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
        let serve_cfg = ServeConfig::default();
        let oracle = serial_oracle(&serve_cfg);
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
        let mut cfg = MachineConfig::uniform(2, 3);
        cfg.max_hops = serve_cfg.max_hops;
        let threaded = Snap1::builder()
            .config(cfg)
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
    let oracle = serial_oracle(&ServeConfig::default());
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
/// via repeats, coalesces duplicates.
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
        let serve_cfg = ServeConfig::default();
        let oracle = serial_oracle(&serve_cfg);
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
