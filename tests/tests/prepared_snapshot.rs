//! The prepared-snapshot memo behind `Snap1::run_shared`.
//!
//! A machine maps a shared snapshot onto its clusters on the first call
//! and remembers the mapping for the next. These tests pin what that
//! must never change: a long-lived machine reports exactly what a fresh
//! one does, no snapshot is ever served another's map, the memo holds
//! no strong reference, concurrent callers agree with serial ones, and
//! the per-call checks still run on a warm machine. The sequential
//! engine also keeps its run state (region, kernel tables) per
//! snapshot, so the same tests are what a state returned dirty, or
//! checked out for the wrong snapshot, has to get past.

use snap_core::{CoreError, EngineKind, MachineConfig, RunReport, Snap1};
use snap_integration_tests::grid::{kb_chain, kb_tree, kb_web, programs};
use snap_isa::{Instruction, Program, PropRule, StepFunc};
use snap_kb::{Color, Marker, NodeId, RelationType, SemanticNetwork};
use std::sync::{Arc, Barrier};

const ENGINES: [EngineKind; 3] = [
    EngineKind::Sequential,
    EngineKind::Des,
    EngineKind::Threaded,
];

fn machine(engine: EngineKind) -> Snap1 {
    Snap1::builder()
        .config(MachineConfig::uniform(4, 3))
        .engine(engine)
        .build()
}

fn frozen(mut net: SemanticNetwork) -> Arc<SemanticNetwork> {
    net.flush_links();
    Arc::new(net)
}

/// Seed one node, propagate, collect.
fn walk(node: u32, rule: PropRule) -> Program {
    Program::builder()
        .search_node(NodeId(node), Marker::complex(0), node as f32 * 0.25)
        .propagate(
            Marker::complex(0),
            Marker::complex(1),
            rule,
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(1))
        .build()
}

/// 27 pairwise different programs valid on every grid KB (≥ 20 nodes):
/// 24 single-seed walks over four rule kinds, the serving layer's parse
/// shape (a binary seed spread into a complex target other than the
/// walks') and the grid's pipelines.
fn many_programs() -> Vec<Program> {
    let (r0, r1, r2) = (RelationType(0), RelationType(1), RelationType(2));
    let rules = [
        PropRule::Star(r0),
        PropRule::Once(r1),
        PropRule::Spread(r0, r2),
        PropRule::Union(r0, r1),
    ];
    let mut all: Vec<Program> = (0..24u32)
        // The rule index shifts on the second lap over the 20 seeds.
        .map(|i| walk(i % 20, rules[(i + i / 20) as usize % rules.len()].clone()))
        .collect();
    all.push(
        Program::builder()
            .search_node(NodeId(2), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(2),
                PropRule::Spread(r0, r2),
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(2))
            .build(),
    );
    all.extend(programs().into_iter().map(|(_, p)| p));
    all
}

/// Asserts a long-lived machine's report equals a fresh machine's. The
/// sequential engine and the simulator are deterministic down to
/// `total_ns`; the threaded engine times with the wall clock and its
/// expansion order follows the scheduler, so it is held to the fields
/// that do not.
fn assert_same(engine: EngineKind, label: &str, warm: &RunReport, fresh: &RunReport) {
    assert_eq!(warm.partition, fresh.partition, "{engine:?} {label}");
    assert_eq!(
        warm.schedule_digest, fresh.schedule_digest,
        "{engine:?} {label}"
    );
    if engine == EngineKind::Threaded {
        assert_eq!(warm.collects, fresh.collects, "{engine:?} {label}");
        assert_eq!(warm.class_counts, fresh.class_counts, "{engine:?} {label}");
        assert_eq!(
            warm.alpha_per_propagate, fresh.alpha_per_propagate,
            "{engine:?} {label}"
        );
        assert_eq!(warm.barriers, fresh.barriers, "{engine:?} {label}");
    } else {
        assert_eq!(warm.total_ns, fresh.total_ns, "{engine:?} {label}");
        assert_eq!(warm.expansions, fresh.expansions, "{engine:?} {label}");
        assert_eq!(warm, fresh, "{engine:?} {label}");
    }
}

#[test]
fn long_lived_machine_reports_like_a_fresh_one_per_call() {
    let net = frozen(kb_web());
    let all = many_programs();
    assert!(all.len() >= 20);
    for (i, a) in all.iter().enumerate() {
        assert!(all[i + 1..].iter().all(|b| a != b), "programs differ");
    }
    for engine in ENGINES {
        let long_lived = machine(engine);
        for (i, program) in all.iter().enumerate() {
            let warm = long_lived.run_shared(&net, program).unwrap();
            let fresh = machine(engine).run_shared(&net, program).unwrap();
            assert_same(engine, &format!("program {i}"), &warm, &fresh);
            assert_eq!(warm.partition.as_ref().unwrap().nodes, net.node_count());
        }
    }
}

#[test]
fn alternating_and_edited_snapshots_are_never_served_a_stale_map() {
    let (a, b) = (frozen(kb_chain()), frozen(kb_tree()));
    assert_ne!(a.node_count(), b.node_count());
    let program = walk(0, PropRule::Star(RelationType(0)));
    for engine in ENGINES {
        let m = machine(engine);
        for (label, net) in [("A", &a), ("B", &b), ("A again", &a), ("B again", &b)] {
            let warm = m.run_shared(net, &program).unwrap();
            let fresh = machine(engine).run_shared(net, &program).unwrap();
            assert_same(engine, label, &warm, &fresh);
            assert_eq!(warm.partition.as_ref().unwrap().nodes, net.node_count());
        }

        // The sole owner edits the snapshot the machine last served:
        // one node and the link that reaches it. A map kept from before
        // the edit has no entry for the new node.
        let mut edited = frozen(kb_chain());
        let before = m.run_shared(&edited, &program).unwrap();
        let tail = NodeId(edited.node_count() as u32 - 1);
        let net = Arc::make_mut(&mut edited);
        let added = net.add_node(Color(0)).unwrap();
        net.add_link(tail, RelationType(0), 1.0, added).unwrap();
        net.flush_links();
        let after = m.run_shared(&edited, &program).unwrap();
        assert!(!before.collects[0].node_ids().contains(&added));
        assert!(
            after.collects[0].node_ids().contains(&added),
            "{engine:?}: the new node is reachable"
        );
        assert_eq!(
            after.partition.as_ref().unwrap().nodes,
            edited.node_count(),
            "{engine:?}"
        );
        let fresh = machine(engine).run_shared(&edited, &program).unwrap();
        assert_same(engine, "edited", &after, &fresh);
    }
}

#[test]
fn dropped_snapshots_leave_no_stale_entry_and_no_strong_reference() {
    let program = walk(0, PropRule::Star(RelationType(0)));
    for engine in ENGINES {
        let m = machine(engine);
        // Each snapshot is dropped before the next is allocated, which
        // invites the allocator to hand the same address out again.
        for extra in 0..24u32 {
            let mut net = kb_chain();
            for _ in 0..extra {
                let n = net.add_node(Color(0)).unwrap();
                net.add_link(NodeId(n.0 - 1), RelationType(0), 1.0, n)
                    .unwrap();
            }
            let net = frozen(net);
            for _ in 0..3 {
                let report = m.run_shared(&net, &program).unwrap();
                assert_eq!(
                    report.partition.as_ref().unwrap().nodes,
                    net.node_count(),
                    "{engine:?} extra={extra}"
                );
                // The whole chain is reachable from node 0.
                assert_eq!(
                    report.collects[0].len(),
                    net.node_count() - 1,
                    "{engine:?} extra={extra}"
                );
                assert_eq!(Arc::strong_count(&net), 1, "{engine:?} extra={extra}");
            }
        }
    }
}

#[test]
fn concurrent_callers_on_one_machine_match_serial_reports() {
    const THREADS: usize = 4;
    const CALLS: usize = 200;
    let nets = [frozen(kb_web()), frozen(kb_tree())];
    let all = many_programs();
    for engine in [EngineKind::Sequential, EngineKind::Des] {
        let expected: Vec<Vec<RunReport>> = nets
            .iter()
            .map(|net| {
                all.iter()
                    .map(|p| machine(engine).run_shared(net, p).unwrap())
                    .collect()
            })
            .collect();
        let shared = machine(engine);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (shared, start, nets, all, expected) =
                    (&shared, &start, &nets, &all, &expected);
                scope.spawn(move || {
                    // Threads 0 and 2 hammer one snapshot, 1 and 3 the
                    // other, so hits, misses and rebuilds all interleave.
                    let which = t % nets.len();
                    start.wait();
                    for k in 0..CALLS {
                        let i = (t * 7 + k) % all.len();
                        let report = shared.run_shared(&nets[which], &all[i]).unwrap();
                        assert_eq!(report, expected[which][i], "{engine:?} thread {t} call {k}");
                    }
                });
            }
        });
        for net in &nets {
            assert_eq!(Arc::strong_count(net), 1);
        }
    }
}

#[test]
fn per_call_checks_still_run_on_a_warm_machine() {
    let net = frozen(kb_chain());
    let program = walk(0, PropRule::Star(RelationType(0)));
    let maintenance = Program::builder()
        .instruction(Instruction::SetColor {
            node: NodeId(0),
            color: Color(7),
        })
        .build();
    // A snapshot frozen with its links still staged: the caller bug
    // `SharedStagedLinks` reports. (A snapshot the memo already holds
    // cannot grow staged links — it is immutable — so the check can
    // only ever fire on an arriving snapshot, warm machine or not.)
    let staged = Arc::new(kb_chain());
    assert!(staged.staged_link_count() > 0);
    // A program that fails midway: markers written and propagated, then
    // a search for a node past the KB.
    let failing = Program::builder()
        .search_node(NodeId(0), Marker::complex(0), 0.0)
        .propagate(
            Marker::complex(0),
            Marker::complex(1),
            PropRule::Star(RelationType(0)),
            StepFunc::AddWeight,
        )
        .search_node(NodeId(net.node_count() as u32 + 7), Marker::complex(1), 0.0)
        .collect_marker(Marker::complex(1))
        .build();
    let later = walk(3, PropRule::Star(RelationType(0)));
    for engine in ENGINES {
        let m = machine(engine);
        let warm = m.run_shared(&net, &program).unwrap();
        // The failed run sits between two that succeed: whatever state
        // it left behind, each of the three is a fresh machine's.
        assert_same(
            engine,
            "before the failure",
            &warm,
            &machine(engine).run_shared(&net, &program).unwrap(),
        );
        assert_eq!(
            m.run_shared(&net, &failing).unwrap_err(),
            machine(engine).run_shared(&net, &failing).unwrap_err(),
            "{engine:?}"
        );
        assert_same(
            engine,
            "after the failure",
            &m.run_shared(&net, &later).unwrap(),
            &machine(engine).run_shared(&net, &later).unwrap(),
        );
        assert!(matches!(
            m.run_shared(&net, &maintenance),
            Err(CoreError::MaintenanceOnShared { .. })
        ));
        assert!(matches!(
            m.run_shared(&staged, &program),
            Err(CoreError::SharedStagedLinks { .. })
        ));
        assert!(matches!(
            m.prepare(&staged),
            Err(CoreError::SharedStagedLinks { .. })
        ));
        // Neither rejection disturbed the remembered snapshot.
        assert_eq!(
            net.color(NodeId(0)).unwrap(),
            kb_chain().color(NodeId(0)).unwrap()
        );
        let again = m.run_shared(&net, &program).unwrap();
        assert_same(engine, "after rejections", &again, &warm);
    }
}
