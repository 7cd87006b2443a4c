//! Differential test harness: a fixed grid of knowledge bases ×
//! programs × cluster counts, executed on all three engines
//! (sequential oracle, discrete-event, threaded). Marker states
//! observed through collects must agree exactly on node sets and
//! within float tolerance on values.
//!
//! The grid itself (knowledge bases, programs, cell runners, the
//! equivalence check) lives in `snap_integration_tests::grid` so the
//! interleaving fuzzer (`fuzz_interleave.rs`) sweeps the exact same
//! cells under adversarial schedules.
//!
//! The harness also compares the engines' `TraceReport` phase
//! sequences: identical runs must have no diverging phase, and an
//! intentionally perturbed run (propagation hop budget cut to 1) must
//! be localized to the first `Propagate` phase by
//! `TraceReport::first_diverging_phase`.

use snap_core::{Cm2, EngineKind, FaultPlan};
use snap_integration_tests::grid::{
    assert_equivalent, kb_tree, program_classify, program_wave, programs, run_cell, run_cell_cfg,
    try_run_cell, KbBuilder, CLUSTER_COUNTS, KBS,
};
use snap_isa::{Program, PropRule, StepFunc};
use snap_kb::synth::{bridge_network, scale_free_network, star_network};
use snap_kb::{Color, Marker, NodeId, PartitionScheme, RelationType};

/// The full differential grid: every engine, and the CM-2 comparator,
/// must agree with the sequential oracle on every cell. 3 KBs × 3
/// programs × 2 cluster counts = 18 configurations, each run on 3
/// engines and `Cm2`.
#[test]
fn differential_grid_engines_agree() {
    let mut combos = 0;
    for &(kb_name, kb) in KBS {
        for (prog_name, program) in &programs() {
            for &clusters in CLUSTER_COUNTS {
                combos += 1;
                let label = format!("{kb_name}/{prog_name}/c{clusters}");
                let oracle = run_cell(kb, program, clusters, EngineKind::Sequential, None, false);
                let des = run_cell(kb, program, clusters, EngineKind::Des, None, false);
                let threaded = run_cell(kb, program, clusters, EngineKind::Threaded, None, false);
                assert_equivalent(&format!("{label}/des"), &oracle.collects, &des.collects);
                assert_equivalent(
                    &format!("{label}/threaded"),
                    &oracle.collects,
                    &threaded.collects,
                );
                let cm2 = Cm2::new().run(&mut kb(), program).expect("cm2 run");
                assert_equivalent(&format!("{label}/cm2"), &oracle.collects, &cm2.collects);
            }
        }
    }
    assert!(
        combos >= 18,
        "grid shrank below the 18-combo floor: {combos}"
    );

    // A program that must fail fails alike: a search for a node past the
    // KB and a marker register past the 64-register file return the same
    // typed error on every engine and on the CM-2 comparator, not a
    // collect on some.
    let failing = [
        (
            "unknown-node",
            Program::builder()
                .search_node(NodeId(1_000), Marker::complex(0), 1.0)
                .collect_marker(Marker::complex(0))
                .build(),
        ),
        (
            "marker-range",
            Program::builder()
                .set_marker(Marker::binary(70), 0.0)
                .build(),
        ),
    ];
    for &(kb_name, kb) in KBS {
        for (prog_name, program) in &failing {
            for &clusters in CLUSTER_COUNTS {
                let run = |engine| {
                    try_run_cell(kb, program, clusters, engine, |_| {}).map(|r| r.collects)
                };
                let oracle = run(EngineKind::Sequential);
                assert!(oracle.is_err(), "{kb_name}/{prog_name}: {oracle:?}");
                for engine in [EngineKind::Des, EngineKind::Threaded] {
                    assert_eq!(
                        run(engine),
                        oracle,
                        "{kb_name}/{prog_name}/c{clusters}/{engine:?}"
                    );
                }
                let cm2 = Cm2::new().run(&mut kb(), program).map(|r| r.collects);
                assert_eq!(cm2, oracle, "{kb_name}/{prog_name}/cm2");
            }
        }
    }
}

/// Cluster count must not change logical results on any single engine
/// (re-partitioning invariance, cheap cross-check of the grid axes).
#[test]
fn differential_grid_cluster_count_invariant() {
    for &(kb_name, kb) in KBS {
        for (prog_name, program) in &programs() {
            for engine in [EngineKind::Des, EngineKind::Threaded] {
                let base = run_cell(kb, program, CLUSTER_COUNTS[0], engine, None, false);
                for &clusters in &CLUSTER_COUNTS[1..] {
                    let other = run_cell(kb, program, clusters, engine, None, false);
                    assert_equivalent(
                        &format!("{kb_name}/{prog_name}/{engine:?}/c{clusters}"),
                        &base.collects,
                        &other.collects,
                    );
                }
            }
        }
    }
}

/// Every partition scheme — including the locality-aware `EdgeCut` —
/// must leave logical results untouched on both parallel engines: the
/// placement of a node decides who computes it, never what is computed.
#[test]
fn differential_grid_partition_schemes_agree() {
    const SCHEMES: &[PartitionScheme] = &[
        PartitionScheme::Sequential,
        PartitionScheme::RoundRobin,
        PartitionScheme::Semantic,
        PartitionScheme::EdgeCut,
    ];
    for &(kb_name, kb) in KBS {
        for (prog_name, program) in &programs() {
            let oracle = run_cell(kb, program, 2, EngineKind::Sequential, None, false);
            for &clusters in CLUSTER_COUNTS {
                for &scheme in SCHEMES {
                    for engine in [EngineKind::Des, EngineKind::Threaded] {
                        let report = run_cell_cfg(kb, program, clusters, engine, |c| {
                            c.partition = scheme;
                        });
                        assert_equivalent(
                            &format!("{kb_name}/{prog_name}/c{clusters}/{scheme:?}/{engine:?}"),
                            &oracle.collects,
                            &report.collects,
                        );
                    }
                }
            }
        }
    }

    // Hub-heavy topologies at the paper's cluster counts, where the
    // schemes place nodes very differently, every node seeded: a
    // preferential-attachment graph and a one-hub star under the `Star`
    // wave, and bridged communities under a `Spread` that walks the
    // lines (rel 0) and crosses the single bridge links (rel 2). The
    // simulator runs them at 16 clusters; real threads at what the host
    // has, up to 4.
    let bridged_program = Program::builder()
        .search_color(Color(0), Marker::binary(0), 0.0)
        .propagate(
            Marker::binary(0),
            Marker::complex(1),
            PropRule::Spread(RelationType(0), RelationType(2)),
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(1))
        .build();
    let hub_heavy: [(&str, KbBuilder, Program); 3] = [
        (
            "scale-free",
            || scale_free_network(400, 2, 7),
            program_wave(),
        ),
        ("star-hub", || star_network(256), program_wave()),
        ("bridged", || bridge_network(4, 64), bridged_program),
    ];
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    for (kb_name, kb, program) in &hub_heavy {
        let oracle = run_cell(*kb, program, 1, EngineKind::Sequential, None, false);
        assert!(
            oracle.collects[0].len() > 100,
            "{kb_name}: the propagation reached only {} nodes",
            oracle.collects[0].len()
        );
        for &scheme in &SCHEMES[1..] {
            for (engine, clusters) in [(EngineKind::Des, 16), (EngineKind::Threaded, threads)] {
                let report = run_cell_cfg(*kb, program, clusters, engine, |c| {
                    c.partition = scheme;
                });
                assert_eq!(
                    oracle.collects, report.collects,
                    "{kb_name}/c{clusters}/{scheme:?}/{engine:?}"
                );
            }
        }
    }
}

/// The threaded engine sends plain messages on a fault-free run and
/// switches to the resilient protocol (envelopes, acks, retries,
/// checkpoints) whenever a fault injector is armed; the tiered barrier
/// closes the phases of both. Both must produce oracle-identical results
/// on awkward (non-power-of-two) cluster counts — an armed-but-silent
/// fault plan runs the resilient protocol without perturbing a single
/// message, and a lossy plan exercises it under real retries.
#[test]
fn differential_plain_and_resilient_protocols_agree() {
    for &(kb_name, kb) in KBS {
        for (prog_name, program) in &programs() {
            let oracle = run_cell(kb, program, 2, EngineKind::Sequential, None, false);
            for clusters in [2, 5, 6, 7] {
                let label = format!("{kb_name}/{prog_name}/c{clusters}");
                let plain = run_cell_cfg(kb, program, clusters, EngineKind::Threaded, |c| {
                    c.partition = PartitionScheme::EdgeCut;
                });
                assert_equivalent(&format!("{label}/plain"), &oracle.collects, &plain.collects);
                // Zero injected faults: a pure protocol A/B.
                let quiet = run_cell_cfg(kb, program, clusters, EngineKind::Threaded, |c| {
                    c.partition = PartitionScheme::EdgeCut;
                    c.fault_plan = Some(FaultPlan::seeded(0xD1FF));
                });
                assert_equivalent(
                    &format!("{label}/resilient-quiet"),
                    &oracle.collects,
                    &quiet.collects,
                );
                // Under drops, ack/retry must still converge to the
                // oracle.
                let lossy = run_cell_cfg(kb, program, clusters, EngineKind::Threaded, |c| {
                    c.partition = PartitionScheme::EdgeCut;
                    c.fault_plan = Some(FaultPlan::seeded(0x5EED).drops(0.05));
                });
                assert_equivalent(
                    &format!("{label}/resilient-lossy"),
                    &oracle.collects,
                    &lossy.collects,
                );
            }
        }
    }
}

/// The grid's classification cell finds something, so the comparisons
/// above are not empty against empty: on the tree, features 0, 2 and 6
/// lie on the right spine, and what all three subsume is its tail.
#[test]
fn classification_on_the_tree_is_the_spine_tail() {
    let report = run_cell(
        kb_tree,
        &program_classify(),
        2,
        EngineKind::Des,
        None,
        false,
    );
    assert_eq!(report.collects[0].node_ids(), [NodeId(14), NodeId(30)]);
}

/// Phase-sequence comparison over recorded traces.
mod obs {
    use super::*;
    use snap_core::PhaseKind;
    use snap_integration_tests::grid::{kb_chain, program_parse};

    /// On unique-path topologies the per-phase activation counts are
    /// engine-independent, so equivalent engines must produce fully
    /// aligned phase sequences (no diverging phase).
    #[test]
    fn phase_sequences_align_across_engines() {
        for (prog_name, program) in &programs() {
            for &clusters in CLUSTER_COUNTS {
                let oracle = run_cell(
                    kb_tree,
                    program,
                    clusters,
                    EngineKind::Sequential,
                    None,
                    true,
                );
                let des = run_cell(kb_tree, program, clusters, EngineKind::Des, None, true);
                let threaded =
                    run_cell(kb_tree, program, clusters, EngineKind::Threaded, None, true);

                assert!(oracle.trace.enabled, "oracle trace disabled");
                assert!(!oracle.trace.phases.is_empty(), "oracle recorded no phases");
                assert_eq!(
                    oracle.trace.first_diverging_phase(&des.trace),
                    None,
                    "[tree/{prog_name}/c{clusters}] sequential vs des phases: {:?} vs {:?}",
                    oracle.trace.phases,
                    des.trace.phases,
                );
                assert_eq!(
                    oracle.trace.first_diverging_phase(&threaded.trace),
                    None,
                    "[tree/{prog_name}/c{clusters}] sequential vs threaded phases: {:?} vs {:?}",
                    oracle.trace.phases,
                    threaded.trace.phases,
                );
            }
        }
    }

    /// Cutting the hop budget to 1 truncates propagation: the harness
    /// must localize the divergence to the first `Propagate` phase.
    #[test]
    fn perturbation_localizes_to_first_propagate_phase() {
        let program = program_parse();
        let baseline = run_cell(kb_chain, &program, 2, EngineKind::Des, None, true);
        let perturbed = run_cell(kb_chain, &program, 2, EngineKind::Des, Some(1), true);

        let expected = baseline
            .trace
            .phases
            .iter()
            .position(|p| p.kind == PhaseKind::Propagate)
            .expect("baseline has a Propagate phase");
        let diverged = baseline.trace.first_diverging_phase(&perturbed.trace);
        assert_eq!(
            diverged,
            Some(expected),
            "divergence not localized to the first Propagate phase; baseline {:?} perturbed {:?}",
            baseline.trace.phases,
            perturbed.trace.phases,
        );
    }

    /// The same perturbation must also localize on the threaded
    /// engine's wall-clock-stamped trace (stamps differ, phase counts
    /// must not).
    #[test]
    fn perturbation_localizes_on_threaded_engine() {
        let program = program_parse();
        let baseline = run_cell(kb_chain, &program, 2, EngineKind::Threaded, None, true);
        let perturbed = run_cell(kb_chain, &program, 2, EngineKind::Threaded, Some(1), true);

        let expected = baseline
            .trace
            .phases
            .iter()
            .position(|p| p.kind == PhaseKind::Propagate)
            .expect("baseline has a Propagate phase");
        assert_eq!(
            baseline.trace.first_diverging_phase(&perturbed.trace),
            Some(expected),
            "baseline {:?} perturbed {:?}",
            baseline.trace.phases,
            perturbed.trace.phases,
        );
    }

    /// Without a trace config the report stays empty.
    #[test]
    fn trace_stays_empty_without_config() {
        let report = run_cell(kb_tree, &program_parse(), 2, EngineKind::Des, None, false);
        assert!(report.trace.is_empty());
    }
}
