//! Property-based cross-engine equivalence: the sequential reference,
//! the discrete-event simulator, the threaded engine, and the CM-2
//! baseline must produce identical logical results for any program in
//! the monotone fragment (non-negative weights, value-decreasing-free
//! step functions), per the engine semantics contract in DESIGN.md.

use proptest::prelude::*;
use snap_core::{Cm2, CollectOutput, EngineKind, Snap1};
use snap_isa::{CombineFunc, Program, PropRule, StepFunc, ValueFunc};
use snap_kb::{
    Color, Marker, NetworkConfig, NodeId, PartitionScheme, RelationType, SemanticNetwork,
};

#[derive(Debug, Clone)]
struct NetSpec {
    nodes: usize,
    links: Vec<(u32, u16, u32, u32)>, // (src, rel, weight_milli, dst)
}

fn net_strategy() -> impl Strategy<Value = NetSpec> {
    // Modest sizes: equal-value origin tie-breaking makes worst-case
    // propagation quadratic, and this test runs every engine.
    (8usize..36).prop_flat_map(|nodes| {
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
    net
}

#[derive(Debug, Clone)]
enum Op {
    SearchColor(u8, u8),
    SearchNode(u32, u8),
    Propagate(u8, u8, u8, u16, u16),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Not(u8, u8),
    Set(u8),
    Clear(u8),
    Threshold(u8, u32),
    Collect(u8),
}

fn op_strategy(nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, 0u8..8).prop_map(|(c, m)| Op::SearchColor(c, m)),
        (0u32..nodes as u32, 0u8..8).prop_map(|(n, m)| Op::SearchNode(n, m)),
        (0u8..8, 0u8..8, 0u8..4, 0u16..4, 0u16..4)
            .prop_map(|(s, t, rule, r1, r2)| Op::Propagate(s, t, rule, r1, r2)),
        (0u8..8, 0u8..8, 0u8..8).prop_map(|(a, b, t)| Op::And(a, b, t)),
        (0u8..8, 0u8..8, 0u8..8).prop_map(|(a, b, t)| Op::Or(a, b, t)),
        (0u8..8, 0u8..8).prop_map(|(s, t)| Op::Not(s, t)),
        (0u8..8).prop_map(Op::Set),
        (0u8..8).prop_map(Op::Clear),
        (0u8..8, 0u32..4000).prop_map(|(m, t)| Op::Threshold(m, t)),
        (0u8..8).prop_map(Op::Collect),
    ]
}

fn build_program(ops: &[Op], nodes: usize) -> Program {
    let mk = |i: u8| Marker::complex(i); // complex markers exercise values
    let mut b = Program::builder();
    for op in ops {
        b = match *op {
            Op::SearchColor(c, m) => b.search_color(Color(c), mk(m), 0.0),
            Op::SearchNode(n, m) => b.search_node(NodeId(n % nodes as u32), mk(m), 0.0),
            Op::Propagate(s, t, rule, r1, r2) => {
                let rule = match rule {
                    0 => PropRule::Star(RelationType(r1)),
                    1 => PropRule::Once(RelationType(r1)),
                    2 => PropRule::Spread(RelationType(r1), RelationType(r2)),
                    _ => PropRule::Union(RelationType(r1), RelationType(r2)),
                };
                b.propagate(mk(s), mk(t), rule, StepFunc::AddWeight)
            }
            Op::And(a, x, t) => b.and_marker(mk(a), mk(x), mk(t), CombineFunc::Min),
            Op::Or(a, x, t) => b.or_marker(mk(a), mk(x), mk(t), CombineFunc::Min),
            Op::Not(s, t) => b.not_marker(mk(s), mk(t)),
            Op::Set(m) => b.set_marker(mk(m), 1.0),
            Op::Clear(m) => b.clear_marker(mk(m)),
            Op::Threshold(m, t) => b.func_marker(
                mk(m),
                ValueFunc::ClearIf(snap_isa::Cmp::Gt, t as f32 / 1000.0),
            ),
            Op::Collect(m) => b.collect_marker(mk(m)),
        };
    }
    // Always end with a deterministic observation of every marker.
    for m in 0..8 {
        b = b.collect_marker(mk(m));
    }
    b.build()
}

/// Compares collect outputs; values compared with a small tolerance
/// (different engines order float additions differently).
fn assert_equivalent(kind: &str, a: &[CollectOutput], b: &[CollectOutput]) {
    assert_eq!(a.len(), b.len(), "[{kind}] collect count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.node_ids(),
            y.node_ids(),
            "[{kind}] collect #{i} node sets"
        );
        if let (CollectOutput::Nodes(xs), CollectOutput::Nodes(ys)) = (x, y) {
            for ((n1, v1), (n2, v2)) in xs.iter().zip(ys) {
                assert_eq!(n1, n2);
                let (v1, v2) = (v1.map_or(0.0, |v| v.value), v2.map_or(0.0, |v| v.value));
                assert!(
                    (v1 - v2).abs() < 1e-3,
                    "[{kind}] collect #{i} value at {n1}: {v1} vs {v2}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_on_random_programs(
        spec in net_strategy(),
        ops in proptest::collection::vec(op_strategy(36), 1..12),
        clusters in 1usize..6,
        scheme in prop_oneof![
            Just(PartitionScheme::Sequential),
            Just(PartitionScheme::RoundRobin),
            Just(PartitionScheme::Semantic),
        ],
    ) {
        let program = build_program(&ops, spec.nodes);

        let run = |engine: EngineKind| {
            let mut net = build_net(&spec);
            let machine = Snap1::builder()
                .clusters(clusters)
                .partition(scheme)
                .engine(engine)
                .build();
            machine.run(&mut net, &program).expect("run").collects
        };
        let sequential = run(EngineKind::Sequential);
        let des = run(EngineKind::Des);
        let threaded = run(EngineKind::Threaded);
        let cm2 = {
            let mut net = build_net(&spec);
            Cm2::new().run(&mut net, &program).expect("cm2").collects
        };

        assert_equivalent("des", &sequential, &des);
        assert_equivalent("threaded", &sequential, &threaded);
        assert_equivalent("cm2", &sequential, &cm2);
    }
}
