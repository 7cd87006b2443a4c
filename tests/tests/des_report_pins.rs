//! Pinned discrete-event reports.
//!
//! The simulator's reports — every simulated nanosecond, message, hop,
//! blocked send, injected fault and schedule decision — are the
//! contract host-side work on the event loop must not move. Each case
//! below runs one program on one machine and pins the report's
//! simulated fields — `total_ns`, `class_counts`, `class_time_ns`,
//! `collects`, `overhead`, `traffic`, `barriers`, `expansions`,
//! `alpha_per_propagate`, `max_propagation_depth`, `faults` and
//! `schedule_digest` — as an FNV-1a digest of each field's name and
//! `Debug` rendering, with the headline fields beside it so a failure
//! says what moved. The host-side fields (`wall_ns`, `trace`,
//! `partition`) are left out, so adding, renaming or deleting a
//! `RunReport` field outside that list moves no digest. The headline
//! values were recorded from the engine at commit `18bb181` (a
//! `BinaryHeap` of whole events, per-message `Vec` hop counts, a heap
//! outbox), before the event queue and message path were rebuilt; a
//! change that alters any of them has changed the simulated machine,
//! not its speed. The digests were recorded with this field-by-field
//! `pin` at commit `e49cf02`, where the whole-report digests it replaced
//! still held.

#[cfg(not(feature = "fuzz-bug"))]
use snap_core::ScheduleStrategy;
use snap_core::{EngineKind, FaultPlan, MachineConfig, RunReport, Snap1};
use snap_integration_tests::grid::program_wave;
use snap_kb::synth::scale_free_network;
use snap_kb::{PartitionScheme, SemanticNetwork};
use snap_nlu::{DomainSpec, MemoryBasedParser, SentenceGenerator};
use std::sync::Arc;

/// What a case pins: a digest of the report's simulated fields, each
/// by name, then the fields a reader wants to see when it moves.
fn pin(report: &RunReport) -> String {
    let simulated = [
        format!("total_ns={:?}", report.total_ns),
        format!("class_counts={:?}", report.class_counts),
        format!("class_time_ns={:?}", report.class_time_ns),
        format!("collects={:?}", report.collects),
        format!("overhead={:?}", report.overhead),
        format!("traffic={:?}", report.traffic),
        format!("barriers={:?}", report.barriers),
        format!("expansions={:?}", report.expansions),
        format!("alpha_per_propagate={:?}", report.alpha_per_propagate),
        format!("max_propagation_depth={:?}", report.max_propagation_depth),
        format!("faults={:?}", report.faults),
        format!("schedule_digest={:?}", report.schedule_digest),
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for b in simulated.iter().flat_map(|field| field.bytes()) {
        digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "{digest:016x} total_ns={} comm_ns={} msgs={} hops={} blocked={} expansions={} depth={} \
         injected={} schedule={:016x}",
        report.total_ns,
        report.overhead.communication_ns,
        report.traffic.total_messages,
        report.traffic.total_hops,
        report.traffic.blocked_sends,
        report.expansions,
        report.max_propagation_depth,
        report.faults.total_injected(),
        report.schedule_digest,
    )
}

fn wave_network() -> Arc<SemanticNetwork> {
    let mut net = scale_free_network(2_000, 3, 17);
    net.flush_links();
    Arc::new(net)
}

/// The benchmark's `engine-wave-des` machine geometry: 16 clusters of
/// three MUs, `EdgeCut`.
fn wave_config() -> MachineConfig {
    MachineConfig {
        partition: PartitionScheme::EdgeCut,
        ..MachineConfig::uniform(16, 3)
    }
}

fn run_wave(config: MachineConfig) -> RunReport {
    // Twice on one machine: the second call runs on the memoised
    // set-up and must report exactly what the first did.
    let machine = Snap1::builder()
        .config(config)
        .engine(EngineKind::Des)
        .build();
    let (net, program) = (wave_network(), program_wave());
    let first = machine.run_shared(&net, &program).expect("wave runs");
    let again = machine.run_shared(&net, &program).expect("wave runs");
    assert_eq!(first, again, "the simulator is deterministic");
    first
}

#[test]
fn wave_on_16_edgecut_clusters() {
    let report = run_wave(wave_config());
    assert_eq!(
        report.traffic.messages_per_sync,
        vec![report.traffic.total_messages]
    );
    assert_eq!(report.alpha_per_propagate, vec![2_000]);
    assert_eq!(
        pin(&report),
        "4fd8a1a8a428c7e7 total_ns=2878380 comm_ns=496546920 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=0 schedule=0000000000000000"
    );
}

#[test]
fn wave_with_a_four_slot_outbox() {
    let report = run_wave(MachineConfig {
        cu_outbox_capacity: 4,
        ..wave_config()
    });
    assert_eq!(
        pin(&report),
        "eb9e1760d29b3caf total_ns=2878380 comm_ns=496546920 msgs=3958 hops=6398 blocked=3898 expansions=2006 depth=3 injected=0 schedule=0000000000000000"
    );
}

#[test]
fn wave_under_a_seeded_fault_plan() {
    let plan = FaultPlan::seeded(41)
        .drops(0.08)
        .duplicates(0.06)
        .delays(0.15, 12_000)
        .corruptions(0.05)
        .stalls(0.1, 4_000)
        .starvation(0.1, 3_000);
    let report = run_wave(MachineConfig {
        fault_plan: Some(plan.clone()),
        ..wave_config()
    });
    let f = &report.faults;
    assert!(
        f.injected_drops > 0
            && f.injected_duplicates > 0
            && f.injected_delays > 0
            && f.injected_corruptions > 0
            && f.injected_stalls > 0
            && f.injected_starvations > 0,
        "every armed class fired: {f:?}"
    );
    assert_eq!(
        pin(&report),
        "98fb4d635ad5226f total_ns=3003715 comm_ns=625733861 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=1944 schedule=0000000000000000"
    );
    // Faults and a cramped outbox together: delayed and retransmitted
    // deliveries leave a blocked sender's outbox out of send order.
    let cramped = run_wave(MachineConfig {
        fault_plan: Some(plan.clone()),
        cu_outbox_capacity: 4,
        ..wave_config()
    });
    assert_eq!(
        pin(&cramped),
        "eb5fcd6b354ec629 total_ns=3028254 comm_ns=672966670 msgs=3958 hops=6398 blocked=3898 expansions=2006 depth=3 injected=1944 schedule=0000000000000000"
    );
    // And under a fuzzed schedule: out-of-order deliveries and drawn
    // tie keys meet in the event queue. The planted ordering bug makes
    // fuzzed runs wrong on purpose, so fuzzed pins hold without it.
    #[cfg(not(feature = "fuzz-bug"))]
    {
        let fuzzed = run_wave(MachineConfig {
            fault_plan: Some(plan),
            schedule: ScheduleStrategy::fuzzed(7),
            ..wave_config()
        });
        assert_eq!(
            pin(&fuzzed),
            "f0616678a4a6feab total_ns=2994715 comm_ns=646001477 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=1999 schedule=ba87831da3722c17"
        );
    }
}

#[cfg(not(feature = "fuzz-bug"))]
#[test]
fn wave_under_fuzzed_schedules() {
    let fifo = run_wave(wave_config());
    let want = [
        "75168bb666fc39a6 total_ns=2878380 comm_ns=496546920 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=0 schedule=91562b6826a2b5c0",
        "86433ede5e46105d total_ns=2878380 comm_ns=496546920 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=0 schedule=ef87daf920483a3e",
        "d298adcd9369d806 total_ns=2878380 comm_ns=496546920 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=0 schedule=aa46f3b646df5324",
    ];
    for (seed, want) in (1u64..).zip(want) {
        let report = run_wave(MachineConfig {
            schedule: ScheduleStrategy::fuzzed(seed),
            ..wave_config()
        });
        assert_eq!(report.collects, fifo.collects, "seed {seed}");
        assert_ne!(report.schedule_digest, 0, "seed {seed} drew decisions");
        assert_eq!(pin(&report), want, "seed {seed}");
    }
}

#[test]
fn wave_in_lockstep() {
    let report = run_wave(MachineConfig {
        lockstep_waves: true,
        ..wave_config()
    });
    assert_eq!(
        pin(&report),
        "99e979e403f718ad total_ns=2904130 comm_ns=13691720 msgs=3958 hops=6398 blocked=0 expansions=2006 depth=3 injected=0 schedule=0000000000000000"
    );
}

#[test]
fn sentence_on_the_evaluation_array() {
    let mut kb = DomainSpec::sized(2_000).build().expect("parse KB");
    kb.network.flush_links();
    let parser = MemoryBasedParser::new(&kb);
    let sentence = SentenceGenerator::new(&kb, 5).generate(16);
    // `Snap1::new()` is the paper's machine: `snap1_eval` on the DES.
    let machine = Snap1::new();
    assert_eq!(machine.config(), &MachineConfig::snap1_eval());
    let parsed = parser
        .parse(&mut kb.network, &machine, &sentence)
        .expect("the generated sentence parses");
    let report = &parsed.report;
    assert!(report.barriers > 1, "several propagation groups");
    assert_eq!(
        report.traffic.messages_per_sync.iter().sum::<u64>(),
        report.traffic.total_messages
    );
    assert_eq!(
        pin(report),
        "6a1a41c2588fdb94 total_ns=4643202 comm_ns=106836490 msgs=3486 hops=5257 blocked=0 expansions=3641 depth=8 injected=0 schedule=0000000000000000"
    );
}
