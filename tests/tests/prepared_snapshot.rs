//! The prepared-snapshot memo behind `Snap1::run` and `Snap1::run_shared`.
//!
//! A machine maps a knowledge base onto its clusters on the first run
//! for its content revision and remembers the mapping for the next,
//! whether the run holds the network exclusively (`&mut`) or shares it
//! (`Arc`). These tests pin what that must never change: a long-lived
//! machine reports exactly what a fresh one does, no network is ever
//! served another revision's map, the memo holds no reference,
//! concurrent callers agree with serial ones, and the per-call checks
//! still run on a warm machine. The sequential engine and the simulator
//! also keep their run state (regions, visited tables and — simulated —
//! the event queue and server timelines) per revision, so the same tests
//! are what a state returned dirty, or checked out for the wrong
//! revision, has to get past.

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
    // `SharedStagedLinks` reports, on a warm machine too. (An unflushed
    // clone of a remembered network carries its revision: see
    // `an_unflushed_clone_of_a_remembered_network`.)
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

/// Each node's color and `(relation, destination, weight bits)` links.
type Contents = Vec<(Color, Vec<(u16, u32, u32)>)>;

/// What a network holds, for comparing two that were edited apart.
fn contents(net: &SemanticNetwork) -> Contents {
    net.nodes()
        .map(|n| {
            let links = net.links(n);
            let links = links.map(|l| (l.relation.0, l.destination.0, l.weight.to_bits()));
            (net.color(n).unwrap(), links.collect())
        })
        .collect()
}

/// One step of an exclusive stream: a program run on the network, or
/// an edit made on the host between two runs.
enum Step {
    Run(&'static str, Program),
    Edit(&'static str, fn(&mut SemanticNetwork)),
}

/// Walks, every maintenance instruction that edits the network, three
/// failing programs (one in a propagation, one after an edit) and host-side edits
/// between runs, on `kb_chain` (24 nodes, `rel0` chain, `rel2` skips).
/// Each walk runs at least twice in a row, so most runs are warm.
fn exclusive_stream() -> Vec<Step> {
    let (r0, r2, r3) = (RelationType(0), RelationType(2), RelationType(3));
    let star = |node| walk(node, PropRule::Star(r0));
    let recolored = Program::builder()
        .set_color(NodeId(5), Color(9))
        .search_color(Color(9), Marker::complex(0), 0.0)
        .collect_marker(Marker::complex(0))
        .build();
    let by_color = Program::builder()
        .search_color(Color(9), Marker::binary(0), 0.0)
        .propagate(
            Marker::binary(0),
            Marker::complex(1),
            PropRule::Star(r0),
            StepFunc::AddWeight,
        )
        .collect_color(Marker::complex(1))
        .build();
    let failing = Program::builder()
        .search_node(NodeId(0), Marker::complex(0), 0.0)
        .search_node(NodeId(999), Marker::complex(0), 0.0)
        .collect_marker(Marker::complex(0))
        .build();
    // Fails at the first arrival, with expansions still scheduled.
    let fails_mid_propagation = Program::builder()
        .search_color(Color(0), Marker::binary(0), 0.0)
        .propagate(
            Marker::binary(0),
            Marker::complex(70),
            PropRule::Star(r0),
            StepFunc::AddWeight,
        )
        .build();
    let edits_then_fails = Program::builder()
        .set_color(NodeId(6), Color(9))
        .delete(NodeId(6), r3, NodeId(7))
        .build();
    let bind = Program::builder()
        .search_node(NodeId(2), Marker::binary(1), 0.0)
        .search_node(NodeId(4), Marker::binary(1), 0.0)
        .marker_create(Marker::binary(1), r3, NodeId(20), r3)
        .search_node(NodeId(20), Marker::binary(2), 0.0)
        .propagate(
            Marker::binary(2),
            Marker::binary(3),
            PropRule::Once(r3),
            StepFunc::Identity,
        )
        .collect_relation(Marker::binary(3), r0)
        .build();
    vec![
        Step::Run("star 0", star(0)),
        Step::Run("star 0 again", star(0)),
        Step::Run("spread 3", walk(3, PropRule::Spread(r0, r2))),
        Step::Run("set-color", recolored),
        Step::Run("by color", by_color.clone()),
        Step::Run("by color again", by_color),
        Step::Run(
            "create",
            Program::builder()
                .create(NodeId(23), r0, 0.5, NodeId(1))
                .build(),
        ),
        Step::Run("star 20 over the new link", star(20)),
        Step::Run("star 20 again", star(20)),
        Step::Run("failing", failing.clone()),
        Step::Run("star 20 after the failure", star(20)),
        Step::Run("fails mid-propagation", fails_mid_propagation),
        Step::Run("star 20 after that", star(20)),
        Step::Run(
            "delete",
            Program::builder().delete(NodeId(23), r0, NodeId(1)).build(),
        ),
        Step::Run("star 20 after the delete", star(20)),
        Step::Run("edits, then fails", edits_then_fails),
        Step::Run("star 5", star(5)),
        Step::Edit("host adds a node and a link to it", |net| {
            let tail = NodeId(net.node_count() as u32 - 1);
            let added = net.add_node(Color(4)).unwrap();
            net.add_link(tail, RelationType(0), 1.0, added).unwrap();
        }),
        Step::Run("star 0 reaches the new node", star(0)),
        Step::Run("star 0 once more", star(0)),
        Step::Run("marker-create", bind),
        Step::Run("failing again", failing),
        Step::Edit("host recolors a node", |net| {
            net.set_color(NodeId(1), Color(9)).unwrap()
        }),
        Step::Run("star 1", star(1)),
        Step::Run("star 1 again", star(1)),
    ]
}

#[test]
fn warm_exclusive_runs_report_like_a_fresh_machine_through_edits() {
    for engine in ENGINES {
        let long_lived = machine(engine);
        let mut kb = kb_chain();
        let (mut warm_runs, mut editing_runs) = (0, 0);
        for step in exclusive_stream() {
            let (label, program) = match step {
                Step::Edit(label, edit) => {
                    let revision = kb.revision();
                    edit(&mut kb);
                    assert_ne!(kb.revision(), revision, "{label}");
                    continue;
                }
                Step::Run(label, program) => (label, program),
            };
            // A fresh machine runs the same program on a copy of the
            // network as it stands; the long-lived one on the network.
            let mut copy = kb.clone();
            let fresh = machine(engine).run(&mut copy, &program);
            kb.flush_links();
            let revision = kb.revision();
            let before = long_lived.prepare(&kb).unwrap();
            let warm = long_lived.run(&mut kb, &program);
            match (&warm, &fresh) {
                (Ok(w), Ok(f)) => assert_same(engine, label, w, f),
                (Err(w), Err(f)) => assert_eq!(w, f, "{engine:?} {label}"),
                _ => panic!("{engine:?} {label}: {warm:?} but a fresh machine says {fresh:?}"),
            }
            assert_eq!(contents(&kb), contents(&copy), "{engine:?} {label}");
            if kb.revision() == revision {
                // Nothing was edited: the run used the remembered set-up.
                assert!(
                    Arc::ptr_eq(&before, &long_lived.prepare(&kb).unwrap()),
                    "{engine:?} {label}"
                );
                warm_runs += 1;
            } else {
                // An editing run keeps no run state over the pre-edit map:
                // the set-up it ran on is all that still holds it.
                assert_eq!(Arc::strong_count(before.map()), 1, "{engine:?} {label}");
                assert!(!before.is_for(&kb), "{engine:?} {label}");
                editing_runs += 1;
            }
        }
        assert_eq!(editing_runs, 5, "{engine:?}: the stream's edits are edits");
        assert!(warm_runs >= 12, "{engine:?}: {warm_runs} warm runs");
    }
}

#[test]
fn arc_get_mut_edits_between_shared_runs_are_seen() {
    let program = walk(0, PropRule::Star(RelationType(0)));
    for engine in ENGINES {
        let m = machine(engine);
        let mut net = frozen(kb_chain());
        let before = m.run_shared(&net, &program).unwrap();
        // The memo holds no reference to the snapshot, so its sole owner
        // edits it in place.
        let edit = Arc::get_mut(&mut net).expect("the machine holds no reference");
        let tail = NodeId(edit.node_count() as u32 - 1);
        let added = edit.add_node(Color(0)).unwrap();
        edit.add_link(tail, RelationType(0), 1.0, added).unwrap();
        edit.flush_links();
        let after = m.run_shared(&net, &program).unwrap();
        assert!(!before.collects[0].node_ids().contains(&added));
        assert!(after.collects[0].node_ids().contains(&added), "{engine:?}");
        let fresh = machine(engine).run_shared(&net, &program).unwrap();
        assert_same(engine, "after get_mut", &after, &fresh);
        // And once more without an edit: warm, and still the same.
        let again = m.run_shared(&net, &program).unwrap();
        assert_same(engine, "again", &again, &fresh);
    }
}

#[test]
fn an_unflushed_clone_of_a_remembered_network() {
    let program = walk(0, PropRule::Star(RelationType(0)));
    for engine in ENGINES {
        let m = machine(engine);
        let raw = kb_chain();
        assert!(raw.staged_link_count() > 0);
        let mut unflushed = raw.clone();
        let net = frozen(raw);
        let warm = m.run_shared(&net, &program).unwrap();
        let remembered = m.prepare(&net).unwrap();
        // The clone carries the remembered revision and its staged links.
        assert_eq!(unflushed.revision(), net.revision());
        assert!(remembered.is_for(&unflushed));
        let shared = Arc::new(unflushed.clone());
        assert_eq!(
            m.run_shared(&shared, &program).unwrap_err(),
            CoreError::SharedStagedLinks {
                staged: unflushed.staged_link_count()
            },
            "{engine:?}"
        );
        assert!(matches!(
            m.prepare(&unflushed),
            Err(CoreError::SharedStagedLinks { .. })
        ));
        // An exclusive run flushes first, and then it is the remembered
        // network's contents: served warm, reported the same.
        let exclusive = m.run(&mut unflushed, &program).unwrap();
        assert_same(engine, "unflushed clone", &exclusive, &warm);
        assert!(Arc::ptr_eq(&remembered, &m.prepare(&unflushed).unwrap()));
        assert_same(
            engine,
            "the original after the clone",
            &m.run_shared(&net, &program).unwrap(),
            &warm,
        );
    }
}
