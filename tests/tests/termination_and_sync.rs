//! Tiered-synchronization safety under real concurrency: the threaded
//! engine's barrier must never complete while marker work is pending,
//! across repeated runs, deep chains, and heavy fan-out.

use snap_core::{EngineKind, Snap1};
use snap_isa::{Program, PropRule, StepFunc};
use snap_kb::{
    Color, Marker, NetworkConfig, NodeId, PartitionScheme, RelationType, SemanticNetwork,
};

const REL: RelationType = RelationType(1);

/// A deep chain: termination depends on counting multi-hop forwarding
/// correctly (the case a naive idle-check gets wrong).
fn chain(n: usize) -> SemanticNetwork {
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    for i in 0..n {
        net.add_node(Color(u8::from(i == 0))).unwrap();
    }
    for i in 0..n - 1 {
        net.add_link(NodeId(i as u32), REL, 1.0, NodeId(i as u32 + 1))
            .unwrap();
    }
    net
}

/// A two-level fan-out tree: 1 → k → k² bursts the network.
fn burst_tree(fanout: usize) -> SemanticNetwork {
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    let root = net.add_node(Color(1)).unwrap();
    for _ in 0..fanout {
        let mid = net.add_node(Color(0)).unwrap();
        net.add_link(root, REL, 1.0, mid).unwrap();
        for _ in 0..fanout {
            let leaf = net.add_node(Color(0)).unwrap();
            net.add_link(mid, REL, 1.0, leaf).unwrap();
        }
    }
    net
}

fn walk() -> Program {
    Program::builder()
        .search_color(Color(1), Marker::binary(0), 0.0)
        .propagate(
            Marker::binary(0),
            Marker::binary(1),
            PropRule::Star(REL),
            StepFunc::Identity,
        )
        .collect_marker(Marker::binary(1))
        .build()
}

#[test]
fn deep_chain_fully_traversed_before_collect() {
    // If the barrier fired early, COLLECT would see a partial frontier.
    let machine = Snap1::builder()
        .clusters(8)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Threaded)
        .build();
    for _ in 0..10 {
        let mut net = chain(40);
        let report = machine.run(&mut net, &walk()).unwrap();
        assert_eq!(
            report.collects[0].len(),
            39,
            "all 39 downstream nodes reached"
        );
    }
}

#[test]
fn burst_fanout_fully_absorbed() {
    let machine = Snap1::builder()
        .clusters(4)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Threaded)
        .build();
    for _ in 0..5 {
        let mut net = burst_tree(20);
        let report = machine.run(&mut net, &walk()).unwrap();
        assert_eq!(report.collects[0].len(), 20 + 20 * 20);
        assert!(report.traffic.total_messages > 0, "bursts cross clusters");
    }
}

#[test]
fn explicit_barriers_are_counted() {
    let mut net = chain(10);
    let program = Program::builder()
        .barrier()
        .search_color(Color(1), Marker::binary(0), 0.0)
        .barrier()
        .build();
    let machine = Snap1::builder()
        .clusters(2)
        .engine(EngineKind::Threaded)
        .build();
    let report = machine.run(&mut net, &program).unwrap();
    assert_eq!(report.barriers, 2);
}

#[test]
fn repeated_runs_are_logically_deterministic() {
    let machine = Snap1::builder()
        .clusters(8)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Threaded)
        .build();
    let mut reference = None;
    for _ in 0..8 {
        let mut net = burst_tree(8);
        let report = machine.run(&mut net, &walk()).unwrap();
        let ids = report.collects[0].node_ids();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(r, &ids, "thread scheduling must not change results"),
        }
    }
}

// ---------------------------------------------------------------------
// Chaos suite: the same safety properties under injected faults.
//
// Acceptance: across 20+ seeded fault schedules (drops, delays,
// duplicates, corruption, one worker panic) the threaded engine must
// complete every run with logical results identical to the fault-free
// sequential engine, never falsely terminate (a short collect would
// betray it), and never hang (every run is wrapped in a hard timeout).
// ---------------------------------------------------------------------

use snap_core::{CoreError, FaultPlan, RunReport};
use std::time::Duration;

/// Runs `machine` on its own thread with a hard timeout, so an engine
/// hang fails the test instead of wedging the suite.
fn run_with_timeout(
    machine: Snap1,
    mut net: SemanticNetwork,
    program: Program,
    timeout: Duration,
) -> Result<RunReport, CoreError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(machine.run(&mut net, &program));
    });
    rx.recv_timeout(timeout)
        .expect("engine hung: no result within the timeout")
}

/// A mixed network: chain plus skip links, so propagation has both deep
/// paths and cross-cluster merges.
fn grid(n: usize) -> SemanticNetwork {
    let mut net = chain(n);
    for i in 0..n - 7 {
        net.add_link(NodeId(i as u32), REL, 2.0, NodeId(i as u32 + 7))
            .unwrap();
    }
    net
}

/// One of 20 distinct seeded fault schedules. Seed 7 additionally
/// panics cluster 2's worker mid-propagation.
fn chaos_plan(seed: u64) -> FaultPlan {
    let base = FaultPlan::seeded(seed);
    let plan = match seed % 4 {
        0 => base.drops(0.25).duplicates(0.1),
        1 => base.delays(0.35, 3_000_000).duplicates(0.2),
        2 => base.corruptions(0.25).drops(0.1),
        _ => base
            .drops(0.15)
            .duplicates(0.15)
            .delays(0.2, 1_000_000)
            .corruptions(0.15)
            .stalls(0.1, 20_000),
    };
    if seed == 7 {
        plan.worker_panic(2, 4)
    } else {
        plan
    }
}

#[test]
fn chaos_schedules_match_fault_free_sequential_results() {
    let program = walk();
    let sequential = Snap1::builder()
        .clusters(4)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Sequential)
        .build();
    let reference = sequential.run(&mut grid(50), &program).unwrap();
    // CI smoke jobs trim the sweep with e.g. CHAOS_SEEDS=5; the full
    // 20-seed envelope stays the local default. Seed 7 (the worker
    // panic) is only asserted on when the sweep reaches it.
    let seeds: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    for seed in 0..seeds {
        let plan = chaos_plan(seed);
        let machine = Snap1::builder()
            .clusters(4)
            .partition(PartitionScheme::RoundRobin)
            .engine(EngineKind::Threaded)
            .faults(plan)
            .build();
        let report = run_with_timeout(machine, grid(50), program.clone(), Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (a, b) in reference.collects.iter().zip(&report.collects) {
            assert_eq!(
                a.node_ids(),
                b.node_ids(),
                "seed {seed}: faults changed logical results"
            );
        }
        assert!(
            report.faults.total_injected() > 0,
            "seed {seed}: schedule injected nothing"
        );
        if seed == 7 {
            assert_eq!(report.faults.injected_panics, 1, "seed 7 panics a worker");
            assert_eq!(report.faults.recovered_workers, 1);
        }
    }
}

#[test]
fn delays_and_duplicates_never_false_terminate() {
    // A burst tree floods the fabric while every message is delayed or
    // duplicated: an early barrier would collect a partial frontier.
    let program = walk();
    for seed in 100..106 {
        let machine = Snap1::builder()
            .clusters(4)
            .partition(PartitionScheme::RoundRobin)
            .engine(EngineKind::Threaded)
            .faults(
                FaultPlan::seeded(seed)
                    .delays(0.5, 2_000_000)
                    .duplicates(0.4),
            )
            .build();
        let report = run_with_timeout(
            machine,
            burst_tree(12),
            program.clone(),
            Duration::from_secs(60),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            report.collects[0].len(),
            12 + 12 * 12,
            "seed {seed}: barrier completed with markers still in flight"
        );
        assert!(report.faults.injected_delays + report.faults.injected_duplicates > 0);
    }
}

#[test]
fn unreachable_cluster_is_a_typed_error_not_a_hang() {
    // Every route into cluster 3 is down: markers for it can never be
    // delivered, so the sender's retries must exhaust into a typed
    // WorkerFailed — within the timeout, not never.
    let machine = Snap1::builder()
        .clusters(4)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Threaded)
        .faults(
            FaultPlan::seeded(1)
                .link_down(0, 3)
                .link_down(1, 3)
                .link_down(2, 3),
        )
        .build();
    let err = run_with_timeout(machine, grid(50), walk(), Duration::from_secs(60))
        .expect_err("unreachable cluster must fail the run");
    match err {
        CoreError::WorkerFailed { cause, .. } => {
            assert!(cause.contains("unacknowledged"), "cause: {cause}")
        }
        other => panic!("expected WorkerFailed, got {other}"),
    }
}

#[test]
fn faulty_and_clean_threaded_reports_agree_on_work() {
    // The resilient protocol may retransmit, but the logical expansion
    // work (collects, barrier count) matches the clean run.
    //
    // The plan must make retries certain and exhaustion negligible. An
    // envelope is sent 13 times (once plus `max_retries` = 12) and a
    // round trip survives when marker and ack both escape drop and
    // corruption: with drops 0.2 and corruptions 0.1 that is
    // (0.8 * 0.9)^2 = 0.518, so one envelope exhausts with probability
    // at most (1 - 0.518)^13 = 7.6e-5. That is an upper bound — a lost
    // ack stops mattering once the phase closes; the marker itself is
    // lost 13 times with probability 0.28^13 = 6.5e-8. (0.3 / 0.2 gave
    // (1 - 0.314)^13 = 0.75 % per envelope, a red run in a hundred or
    // so.) This walk sends 92 envelopes and each loses its first marker
    // with probability 0.28, so `retries > 0` is as good as certain.
    let program = walk();
    let clean_machine = Snap1::builder()
        .clusters(4)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Threaded)
        .build();
    let clean = run_with_timeout(
        clean_machine,
        grid(50),
        program.clone(),
        Duration::from_secs(60),
    )
    .unwrap();
    assert!(clean.faults.is_empty(), "no plan, no faults");
    let faulty_machine = Snap1::builder()
        .clusters(4)
        .partition(PartitionScheme::RoundRobin)
        .engine(EngineKind::Threaded)
        .faults(FaultPlan::seeded(5).drops(0.2).corruptions(0.1))
        .build();
    let faulty =
        run_with_timeout(faulty_machine, grid(50), program, Duration::from_secs(60)).unwrap();
    assert_eq!(clean.barriers, faulty.barriers);
    assert_eq!(clean.collects.len(), faulty.collects.len());
    assert!(faulty.faults.retries > 0, "drops force retransmissions");
}
