//! Serve isolation differential: queries answered through the batching
//! server — fused lanes, coalesced duplicates, pooled contexts — must be
//! indistinguishable from the same queries run serially, one at a time,
//! on the sequential engine. The whole `RunReport` is compared per
//! query.
//!
//! Two layers:
//!
//! * a **deterministic grid** over the shared KB axis × batch depth
//!   {1, 4, 16, 64} × both phase-closure gate kinds (the counting fast
//!   gate and the tiered barrier, forced via the tracing knob on a
//!   threaded cross-check of the same queries);
//! * a **proptest sweep** over fuzzed networks and programs, offering
//!   each random program several times so batches mix duplicates (the
//!   coalescing path) with distinct shapes (the splitting path).

use proptest::prelude::*;
use snap_core::{CoreError, EngineKind, MachineConfig, RunReport, Snap1};
use snap_integration_tests::grid;
use snap_isa::{Program, PropRule, StepFunc};
use snap_kb::{Color, Marker, NetworkConfig, NodeId, RelationType, SemanticNetwork};
use snap_serve::{Admission, Completion, ServeConfig, Server};
use std::sync::Arc;

/// Batch depths swept; 64 is the widest fused sweep (one lane-mask word).
const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// The serial one-query-at-a-time oracle, configured exactly as the
/// server configures its internal fallback engine.
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
    done.into_iter()
        .map(|c| (offered[c.id.0 as usize], c))
        .collect()
}

/// The deterministic grid: shared KBs × batch depth × gate kind. The
/// gate axis forces the threaded engine's two phase-closure protocols —
/// the counting fast gate (clean FIFO) and the tiered barrier (tracing
/// requires per-level attribution) — on a cross-check of the same
/// queries, so served results agree with both closure paths, not just
/// the serial reference.
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
        for depth in DEPTHS {
            for (gate, trace) in [("counting", false), ("tiered", true)] {
                let label = |pname: &str| format!("{kb_name}/{pname}/depth{depth}/{gate}");
                let all: Vec<Program> = programs.iter().map(|(_, p)| p.clone()).collect();
                for (pi, c) in serve_all(&net, &all, 4, depth) {
                    assert_isolated(&label(programs[pi].0), &c, &serial[pi]);
                }
                // Gate-kind cross-check: the same programs, one at a
                // time, on the threaded engine with this phase-closure
                // protocol; logical results must match the serial
                // reference the server was held to.
                let mut cfg = MachineConfig::uniform(2, 3);
                cfg.max_hops = serve_cfg.max_hops;
                if trace {
                    cfg.trace = Some(snap_core::ObsConfig::counters_only());
                }
                let threaded = Snap1::builder()
                    .config(cfg)
                    .engine(EngineKind::Threaded)
                    .build();
                for ((pname, p), want) in programs.iter().zip(&serial) {
                    let got = threaded.run_shared(&net, p).expect("threaded run");
                    let want = want.as_ref().expect("grid programs succeed");
                    grid::assert_equivalent(&label(pname), &got.collects, &want.collects);
                }
            }
        }
    }
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
/// these exercises same-shape fusion, shape splitting, the non-fusable
/// solo fallback, and (via repeats) duplicate coalescing.
#[derive(Debug, Clone)]
struct QuerySpec {
    seed: u32,
    rule: u8,
    rels: (u16, u16),
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (any::<u32>(), 0u8..4, (0u16..4, 0u16..4)).prop_map(|(seed, rule, rels)| QuerySpec {
        seed,
        rule,
        rels,
    })
}

fn build_query(q: &QuerySpec, nodes: usize) -> Program {
    let rule = match q.rule {
        0 => PropRule::Star(RelationType(q.rels.0)),
        1 => PropRule::Once(RelationType(q.rels.0)),
        2 => PropRule::Spread(RelationType(q.rels.0), RelationType(q.rels.1)),
        _ => PropRule::Union(RelationType(q.rels.0), RelationType(q.rels.1)),
    };
    Program::builder()
        .search_node(NodeId(q.seed % nodes as u32), Marker::complex(1), 0.0)
        .propagate(
            Marker::complex(1),
            Marker::complex(2),
            rule,
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(2))
        .collect_marker(Marker::complex(1))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn served_batches_match_serial_runs_on_fuzzed_inputs(
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
        for (pi, c) in serve_all(&net, &programs, 3, depth) {
            assert_isolated(&format!("fuzzed #{pi} depth {depth}"), &c, &serial[pi]);
        }
    }
}
