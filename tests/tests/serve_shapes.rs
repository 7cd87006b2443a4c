//! Which queued queries share a batch.
//!
//! The server compares a candidate with the head of the queue
//! structurally (`same_shape` in `snap-serve`): what a query searches
//! for — node, relation, color, initial value — is masked, everything
//! else must be equal. These tests pin both directions through the
//! public API (`batch_depth` says who shared a pump) and hold every
//! completion to the solo oracle's report, so a batching decision can
//! never change an answer.

use snap_core::{EngineKind, Snap1};
use snap_isa::{Cmp, Instruction, Program, PropRule, StepFunc, ValueFunc};
use snap_kb::synth::scale_free_network;
use snap_kb::{Color, Marker, NodeId, RelationType, SemanticNetwork};
use snap_serve::{ServeConfig, Server};
use std::sync::Arc;

const SOURCE: Marker = Marker::binary(1);
const TARGET: Marker = Marker::complex(2);
const R0: RelationType = RelationType(0);

fn snapshot() -> Arc<SemanticNetwork> {
    let mut net = scale_free_network(300, 2, 11);
    net.flush_links();
    Arc::new(net)
}

/// A query assembled from the parts a shape is made of, so a test
/// varies exactly one: search, walk by `rule` and `step` into `target`,
/// keep the values below `keep_below`, collect.
fn walk(
    search: Instruction,
    target: Marker,
    rule: PropRule,
    step: StepFunc,
    keep_below: f32,
) -> Program {
    Program::builder()
        .instruction(search)
        .propagate(SOURCE, target, rule, step)
        .func_marker(target, ValueFunc::KeepIf(Cmp::Lt, keep_below))
        .collect_marker(target)
        .build()
}

fn seed(node: u32, value: f32) -> Instruction {
    Instruction::SearchNode {
        node: NodeId(node),
        marker: SOURCE,
        value,
    }
}

/// The shape every variant below departs from.
fn base(search: Instruction) -> Program {
    walk(search, TARGET, PropRule::Star(R0), StepFunc::AddWeight, 9.0)
}

/// Offers `offered` to a fresh server and pumps it dry, returning one
/// `(query, batch depth)` list per pump; every completion must be the
/// solo oracle's result for the program offered under its ID.
fn serve(net: &Arc<SemanticNetwork>, offered: &[Program]) -> Vec<Vec<(u64, usize)>> {
    let oracle = Snap1::builder().engine(EngineKind::Sequential).build();
    let mut server = Server::new(Arc::clone(net), ServeConfig::default()).unwrap();
    for p in offered {
        server.offer(p.clone());
    }
    let mut pumps = Vec::new();
    while server.queue_len() > 0 {
        let done = server.pump().into_iter().map(|c| {
            let want = oracle.run_shared(net, &offered[c.id.0 as usize]);
            assert_eq!(c.result, want, "query {}", c.id.0);
            (c.id.0, c.batch_depth)
        });
        pumps.push(done.collect());
    }
    server.assert_accounting();
    pumps
}

#[test]
fn queries_differing_only_in_what_they_search_for_share_a_batch() {
    let net = snapshot();
    let by_relation = |r: u16, value: f32| Instruction::SearchRelation {
        relation: RelationType(r),
        marker: SOURCE,
        value,
    };
    let by_color = |c: u8, value: f32| Instruction::SearchColor {
        color: Color(c),
        marker: SOURCE,
        value,
    };
    for (x, y) in [
        (seed(3, 0.0), seed(250, 2.5)),
        (by_relation(0, 0.0), by_relation(1, 1.0)),
        (by_color(0, 0.0), by_color(1, -0.0)),
    ] {
        let offered = [base(x), base(y)];
        assert_ne!(offered[0], offered[1]);
        assert_eq!(serve(&net, &offered), vec![vec![(0, 2), (1, 2)]]);
    }
}

#[test]
fn a_differing_marker_rule_function_constant_or_length_splits_the_batch() {
    let net = snapshot();
    let star = || PropRule::Star(R0);
    let longer: Program = base(seed(3, 0.0))
        .iter()
        .cloned()
        .chain([Instruction::Barrier])
        .collect();
    let other_source: Program = base(seed(3, 0.0))
        .iter()
        .cloned()
        .map(|i| match i {
            Instruction::SearchNode { node, value, .. } => Instruction::SearchNode {
                node,
                marker: Marker::binary(4),
                value,
            },
            other => other,
        })
        .collect();
    for (what, variant) in [
        (
            "target marker",
            walk(
                seed(3, 0.0),
                Marker::complex(3),
                star(),
                StepFunc::AddWeight,
                9.0,
            ),
        ),
        (
            "rule",
            walk(
                seed(3, 0.0),
                TARGET,
                PropRule::Star(RelationType(1)),
                StepFunc::AddWeight,
                9.0,
            ),
        ),
        (
            "step function",
            walk(seed(3, 0.0), TARGET, star(), StepFunc::MaxWeight, 9.0),
        ),
        (
            "function constant",
            walk(seed(3, 0.0), TARGET, star(), StepFunc::AddWeight, 1.5),
        ),
        ("instruction count", longer),
        ("search marker", other_source),
    ] {
        // The head's shape on either side of the variant: the queue
        // scan steals the third offer into the head's batch and leaves
        // the variant to a pump of its own.
        let offered = [base(seed(3, 0.0)), variant, base(seed(200, 1.0))];
        assert_eq!(
            serve(&net, &offered),
            vec![vec![(0, 2), (2, 2)], vec![(1, 1)]],
            "{what}"
        );
    }
}

#[test]
fn a_nan_constant_equals_nothing_so_its_query_never_batches() {
    let net = snapshot();
    // `value < NaN` never holds, so KEEP-IF clears every reached node
    // and the report carries no NaN of its own to upset `assert_eq!`.
    let program = walk(
        seed(3, 0.0),
        TARGET,
        PropRule::Star(R0),
        StepFunc::AddWeight,
        f32::NAN,
    );
    let offered = [program.clone(), program];
    assert_eq!(serve(&net, &offered), vec![vec![(0, 1)], vec![(1, 1)]]);
}
