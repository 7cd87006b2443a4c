//! Zero-allocation steady-state serving, warm solo calls free of
//! node-count-sized tables, and a discrete-event loop that does not
//! allocate per message.
//!
//! The serving layer's claim is that once its pools are warm — the
//! queue, query contexts, the walker's scratch, report maps — a
//! [`Server::pump_with`] cycle serves every query without touching the
//! heap. This test makes the claim falsifiable: a counting global
//! allocator (enabled by the `alloc-count` cargo feature, so the
//! counter never taxes the rest of the suite) is armed after a warm-up
//! phase, and the measured drain must record **zero** allocations.
//!
//! Admission is measured separately from the drain: the client builds
//! and clones a `Program` per offer, outside the counter; a warm
//! [`Server::offer`] of that program and the pump — the hot path the
//! saturated-throughput bench times — are each held to zero.
//!
//! The solo case pins the other amortisation: after its first call for
//! a network revision, [`Snap1::run_shared`] on the sequential engine
//! allocates no node-count-sized table at all — not the region map and
//! partition (remembered per revision), not marker rows or kernel tables
//! (pooled with it) — and nothing at all beyond the report it returns,
//! so a regression that silently re-partitions, builds and zeroes a
//! visited table per `PROPAGATE`, or plans and compiles per call fails
//! here, not just in a benchmark. [`Snap1::run`] on a `&mut` network
//! that no run edits is held to the same tables.
//!
//! The simulator is held to the same tables: its regions, visited tables
//! and event queue are pooled per revision like the sequential engine's
//! state, and its discrete-event loop allocates nothing per message or
//! per expansion.

#![cfg(feature = "alloc-count")]

use snap_core::{EngineKind, RegionMap, Snap1};
use snap_integration_tests::grid::program_wave;
use snap_isa::{Program, PropRule, RuleArc, RuleProgram, RuleState, StepFunc};
use snap_kb::synth::scale_free_network;
use snap_kb::{Marker, NodeId, PartitionScheme, RelationType, SemanticNetwork};
use snap_nlu::{kb::rel, DomainSpec, PartOfSpeech};
use snap_serve::{Admission, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// What one thread allocated while its probe was armed. Deallocations
/// are not counted: returning pooled memory is fine, taking new memory
/// is what the invariants forbid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    /// Allocations (and reallocations) of any size.
    allocs: u64,
    /// Allocations of at least the armed `large_at` bytes...
    large: u64,
    /// ...and the bytes they asked for.
    large_bytes: u64,
}

/// Per-thread probe state. Thread-local so the harness's own threads
/// and a sibling test running in parallel never count against a
/// measured region.
struct Probe {
    armed: Cell<bool>,
    large_at: Cell<usize>,
    counts: Cell<Counts>,
}

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static PROBE: Probe = const {
        Probe {
            armed: Cell::new(false),
            large_at: Cell::new(usize::MAX),
            counts: Cell::new(Counts { allocs: 0, large: 0, large_bytes: 0 }),
        }
    };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // locals are gone; it is not measuring anything then.
    let _ = PROBE.try_with(|p| {
        if p.armed.get() {
            let mut c = p.counts.get();
            c.allocs += 1;
            if size >= p.large_at.get() {
                c.large += 1;
                c.large_bytes += size as u64;
            }
            p.counts.set(c);
        }
    });
}

/// Runs `f` with this thread's probe armed, counting as large every
/// allocation of at least `large_at` bytes.
fn counted<R>(large_at: usize, f: impl FnOnce() -> R) -> (R, Counts) {
    PROBE.with(|p| {
        p.large_at.set(large_at);
        p.counts.set(Counts::default());
        p.armed.set(true);
    });
    let out = f();
    let counts = PROBE.with(|p| {
        p.armed.set(false);
        p.counts.get()
    });
    (out, counts)
}

/// Passes everything through to the system allocator, reporting each
/// request to the calling thread's probe.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One served shape: seed a node, propagate by `rule` into `target`,
/// collect it.
fn query(node: u32, rule: &PropRule, target: Marker) -> Program {
    Program::builder()
        .search_node(NodeId(node), Marker::binary(1), 0.0)
        .propagate(Marker::binary(1), target, rule.clone(), StepFunc::AddWeight)
        .collect_marker(target)
        .build()
}

#[test]
fn steady_state_pump_allocates_nothing_per_query() {
    let mut net = scale_free_network(300, 2, 11);
    net.flush_links();
    let cfg = ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    };
    let mut server = Server::new(Arc::new(net), cfg).unwrap();
    // Three shapes through one server — the bench's parse-style walk,
    // a three-state custom rule (two more visited tables to arm) and a
    // binary target (arrivals carry no payload) — interleaved, so every
    // pump mixes all three and re-plans and re-arms between lanes.
    let r0 = RelationType(0);
    let three_states = PropRule::Custom(RuleProgram::from_states(vec![
        RuleState::new(vec![RuleArc::new(r0, 1)]),
        RuleState::new(vec![RuleArc::new(r0, 2)]),
        RuleState::new(vec![RuleArc::new(r0, 2)]),
    ]));
    let shapes = [
        (PropRule::Star(r0), Marker::complex(2)),
        (three_states, Marker::complex(2)),
        (PropRule::Star(r0), Marker::binary(2)),
    ];
    // 32 distinct seeds × 3 shapes: 96 programs, more than the 64
    // answers the server's table holds, so a round robin over them
    // misses on every query (no answered-without-running shortcut).
    let programs: Vec<Program> = (0..32u32)
        .map(|i| i * 9)
        .flat_map(|n| {
            shapes
                .iter()
                .map(move |(rule, target)| query(n, rule, *target))
        })
        .collect();

    // Warm-up: several full offer-and-drain rounds grow every pool to
    // its steady-state footprint (the queue, the answer table, wave
    // scratch, report maps, the compiled-rule cache). 96 distinct
    // programs round robin through a table of 64 answers: every query
    // misses and runs, the first 64 into new contexts and each later
    // one into the least recently used, so query `i` runs in context
    // `i % 64` and every context meets each of the three programs its
    // cycle brings it.
    for _ in 0..3 {
        for p in &programs {
            assert!(matches!(server.offer(p.clone()), Admission::Admitted(_)));
        }
        while server.queue_len() > 0 {
            server.pump_with(|c| {
                c.result.expect("warm-up query succeeds");
            });
            assert!(server.pool_size() <= 64, "more than 64 answers");
        }
    }
    assert_eq!(server.pool_size(), 64, "the table is full");

    // Measured rounds: programs are cloned before the counter is armed
    // (cloning a Program allocates, and that is the client's work), then
    // admission and the drain — the path the throughput bench times —
    // each run under the armed counter. A warm offer moves the program
    // into the queue and reads nothing but its instructions.
    let mut measure = |label: &str, stream: &[usize]| {
        let clones: Vec<Program> = stream.iter().map(|&i| programs[i].clone()).collect();
        let ((), Counts { allocs, .. }) = counted(usize::MAX, || {
            for p in clones {
                assert!(matches!(server.offer(p), Admission::Admitted(_)));
            }
        });
        assert_eq!(
            allocs, 0,
            "{label}: warm admission allocated {allocs} time(s)"
        );
        let reused = server.stats().reused;
        let mut served = 0u64;
        let mut reached = 0usize;
        let mut pool = 0;
        let ((), Counts { allocs, .. }) = counted(usize::MAX, || {
            while server.queue_len() > 0 {
                server.pump_with(|c| {
                    let report = c.result.expect("measured query succeeds");
                    assert_eq!(c.batch_depth, 8, "full batches, three shapes in each");
                    reached += report.collects[0].len();
                    served += 1;
                });
                pool = pool.max(server.pool_size());
            }
        });
        assert_eq!(
            served,
            stream.len() as u64,
            "{label}: every offer completed"
        );
        assert!(
            reached > served as usize,
            "{label}: the waves went somewhere"
        );
        assert_eq!(
            allocs, 0,
            "{label}: steady-state pump allocated {allocs} time(s) serving {served} queries"
        );
        assert!(pool <= 64, "{label}: {pool} answers, more than 64");
        server.stats().reused - reused
    };
    // Misses: the 96 round robin again, every query runs.
    let all: Vec<usize> = (0..programs.len()).collect();
    assert_eq!(measure("misses", &all), 0, "every query ran");
    // Both: the table answers 32..96, least recently used first. Each
    // pump asks four of its newest answers again and four programs it
    // does not hold, which overwrite its four oldest answers — in the
    // contexts that ran those programs before.
    let mixed: Vec<usize> = [0, 4, 8]
        .iter()
        .flat_map(|&k| (88..92).chain(k..k + 4))
        .collect();
    assert_eq!(
        measure("hits and misses", &mixed),
        12,
        "four of eight queries"
    );
    // Hits: the last pump's eight programs, all answered from the table.
    let last: Vec<usize> = mixed[16..].to_vec();
    assert_eq!(measure("hits", &last), 8, "no query ran");
    server.assert_accounting();
}

/// The benchmark's parse query (`solo-shared`, `serve-distinct`).
fn parse_query(node: NodeId) -> Program {
    Program::builder()
        .search_node(node, Marker::binary(1), 0.0)
        .propagate(
            Marker::binary(1),
            Marker::complex(2),
            PropRule::Spread(rel::IS_A, rel::ELEM_OF),
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(2))
        .build()
}

#[test]
fn warm_solo_call_allocates_no_map_or_partition_tables() {
    let mut kb = DomainSpec::sized(12_000).build().expect("parse KB");
    kb.network.flush_links();
    let nouns: Vec<NodeId> = kb
        .words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect();
    let net = Arc::new(kb.network);
    let programs: Vec<Program> = nouns.iter().take(8).map(|&n| parse_query(n)).collect();
    // The smallest node-count-sized table a call can build: the region
    // map's u32 local index per node. Marker value rows and the wave
    // kernel's `(value, origin)` tables are twice that per node.
    let large_at = net.node_count() * 4;

    // The probe sees such tables: this is what the set-up alone takes.
    let (_, setup) = counted(large_at, || {
        let map = RegionMap::build(&net, 1, PartitionScheme::Sequential);
        let stats = map.partition().stats(&net);
        (map, stats)
    });
    assert!(
        setup.large >= 1 && setup.large_bytes >= large_at as u64,
        "the probe sees the region map's tables: {setup:?}"
    );

    let machine = Snap1::builder().engine(EngineKind::Sequential).build();
    let (first, cold) = counted(large_at, || machine.run_shared(&net, &programs[0]));
    let first = first.expect("cold call succeeds");
    // A cold call builds the set-up and, on top of it, the run state:
    // marker rows and the kernel's visited tables.
    assert!(
        cold.large > setup.large && cold.large_bytes > setup.large_bytes,
        "a cold call builds the set-up and a run state (set-up {setup:?}, cold {cold:?})"
    );
    // Every warm call finds both where the first call left them.
    for (i, program) in programs.iter().cycle().take(24).enumerate() {
        let (report, warm) = counted(large_at, || machine.run_shared(&net, program));
        let report = report.expect("warm call succeeds");
        assert_eq!(
            (warm.large, warm.large_bytes),
            (0, 0),
            "warm call {i} took a node-count-sized table: {warm:?}"
        );
        // What is left is the report the caller is handed: six
        // allocations (its partition statistics, class maps and vectors)
        // and the collect payload doubling 4, 8, 16, … up to its length.
        // The plan, its dependency sets and the compiled `RuleProgram`
        // are the pooled walker's and cost a warm call nothing.
        let payload = report.collects[0].len().max(4).next_power_of_two();
        assert_eq!(
            warm.allocs,
            6 + u64::from(payload.trailing_zeros() - 1),
            "warm call {i}, {} nodes collected",
            report.collects[0].len()
        );
    }
    // And the warm call still answers like a fresh machine.
    let again = machine.run_shared(&net, &programs[0]).unwrap();
    assert_eq!(again, first);

    // A clone — another `Arc` over the same contents and revision — is
    // served from the same set-up and pooled state.
    let clone = Arc::new(SemanticNetwork::clone(&net));
    let (report, counts) = counted(large_at, || machine.run_shared(&clone, &programs[0]));
    assert_eq!(report.expect("clone call succeeds"), first);
    assert_eq!(counts.large, 0, "a clone's call is warm: {counts:?}");
    // An edited copy — same contents, but a mutator drew a new revision —
    // shares nothing with the first: its call is cold, drops the pooled
    // state, and so is the first snapshot's next call.
    let mut edited = SemanticNetwork::clone(&net);
    let color = edited.color(NodeId(0)).unwrap();
    edited.set_color(NodeId(0), color).unwrap();
    let other = Arc::new(edited);
    for (label, snapshot) in [("edited copy", &other), ("first again", &net)] {
        let (report, counts) = counted(large_at, || machine.run_shared(snapshot, &programs[0]));
        assert_eq!(report.expect("cold call succeeds"), first, "{label}");
        assert_eq!(
            (counts.large, counts.large_bytes),
            (cold.large, cold.large_bytes),
            "{label} is as cold as the very first call"
        );
        let (_, warm) = counted(large_at, || machine.run_shared(snapshot, &programs[1]));
        assert_eq!(warm.large, 0, "{label}, warm: {warm:?}");
    }
}

#[test]
fn a_deep_pump_holds_the_node_count_sized_tables_of_a_depth_one_server() {
    let mut kb = DomainSpec::sized(12_000).build().expect("parse KB");
    kb.network.flush_links();
    let nouns: Vec<NodeId> = kb
        .words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect();
    let net = Arc::new(kb.network);
    let programs: Vec<Program> = nouns.iter().take(16).map(|&n| parse_query(n)).collect();
    // A marker value row is twice this per node; collects, reports and
    // the queue stay far below it.
    let large_at = net.node_count() * 4;

    // Stand a server up and serve the 16 distinct queries twice, every
    // node-count-sized table it takes counted from construction on.
    let serve = |max_batch| {
        let cfg = ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        let rounds = [programs.clone(), programs.clone()];
        counted(large_at, || {
            let mut server = Server::new(Arc::clone(&net), cfg).unwrap();
            for round in rounds {
                for p in round {
                    assert!(matches!(server.offer(p), Admission::Admitted(_)));
                }
                while server.queue_len() > 0 {
                    server.pump_with(|c| {
                        c.result.expect("query succeeds");
                    });
                }
            }
            server
        })
    };
    let (_, alone) = serve(1);
    let (mut server, deep) = serve(16);
    assert!(alone.large >= 1, "the probe sees the tables: {alone:?}");
    // Sixteen lanes a pump run in the server's one region: no more
    // marker tables than one lane a pump.
    assert_eq!(
        (deep.large, deep.large_bytes),
        (alone.large, alone.large_bytes),
        "depth 16 against depth 1"
    );

    // The warm deep pump allocates nothing at all.
    for p in programs.clone() {
        assert!(matches!(server.offer(p), Admission::Admitted(_)));
    }
    let mut served = 0;
    let ((), Counts { allocs, .. }) = counted(usize::MAX, || {
        server.pump_with(|c| {
            assert_eq!(c.batch_depth, 16);
            c.result.expect("warm query succeeds");
            served += 1;
        });
    });
    assert_eq!((served, allocs), (16, 0), "one warm pump of 16 lanes");
    server.assert_accounting();
}

#[test]
fn warm_exclusive_runs_allocate_no_map_or_partition_tables() {
    let kb = DomainSpec::sized(12_000).build().expect("parse KB");
    let nouns: Vec<NodeId> = kb
        .words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect();
    let programs: Vec<Program> = nouns.iter().take(8).map(|&n| parse_query(n)).collect();
    let mut net = kb.network;
    net.flush_links();
    let large_at = net.node_count() * 4;

    // `Snap1::run` on a `&mut` network the runs leave unedited: the
    // first run builds the set-up and a run state, every later one finds
    // both where the first left them, as a warm `run_shared` does.
    let machine = Snap1::builder().engine(EngineKind::Sequential).build();
    let (first, cold) = counted(large_at, || machine.run(&mut net, &programs[0]));
    let first = first.expect("cold run succeeds");
    assert!(cold.large > 0, "the first run builds the set-up: {cold:?}");
    for (i, program) in programs.iter().cycle().take(24).enumerate() {
        let (report, warm) = counted(large_at, || machine.run(&mut net, program));
        report.expect("warm run succeeds");
        assert_eq!(
            (warm.large, warm.large_bytes),
            (0, 0),
            "warm exclusive run {i} took a node-count-sized table: {warm:?}"
        );
    }
    assert_eq!(machine.run(&mut net, &programs[0]).unwrap(), first);

    // One `add_link` draws a new revision: the next run maps the network
    // afresh and builds a new run state, exactly as cold as the first.
    net.add_link(nouns[0], rel::IS_A, 0.5, nouns[1]).unwrap();
    net.flush_links();
    let (report, counts) = counted(large_at, || machine.run(&mut net, &programs[0]));
    report.expect("run after the edit succeeds");
    assert_eq!(
        (counts.large, counts.large_bytes),
        (cold.large, cold.large_bytes),
        "the run after an add_link is as cold as the very first"
    );
    let (_, warm) = counted(large_at, || machine.run(&mut net, &programs[1]));
    assert_eq!(
        warm.large, 0,
        "and the one after it is warm again: {warm:?}"
    );
}

#[test]
fn warm_des_runs_allocate_no_node_count_sized_tables() {
    let kb = DomainSpec::sized(12_000).build().expect("parse KB");
    let nouns: Vec<NodeId> = kb
        .words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect();
    let programs: Vec<Program> = nouns.iter().take(8).map(|&n| parse_query(n)).collect();
    let mut net = kb.network;
    net.flush_links();
    let large_at = net.node_count() * 4;

    // The paper's 16-cluster machine on the simulator. The first run
    // maps the network and builds a run state: sixteen regions, the
    // visited tables (`(value, origin)` per node), the event queue.
    let machine = Snap1::builder().engine(EngineKind::Des).build();
    let (first, cold) = counted(large_at, || machine.run(&mut net, &programs[0]));
    let first = first.expect("cold run succeeds");
    assert!(
        cold.large >= 2,
        "the first run builds the set-up and a visited table: {cold:?}"
    );
    // Every later run on the unedited network, exclusive or shared,
    // finds both where the first left them. Once the first lap has grown
    // the pooled buffers to its largest program, a run pays the same on
    // every lap: nothing pooled keeps growing.
    let snapshot = Arc::new(net.clone());
    let mut second_lap = Vec::new();
    for (i, program) in programs.iter().cycle().take(24).enumerate() {
        let (report, warm) = if i % 2 == 0 {
            counted(large_at, || machine.run(&mut net, program))
        } else {
            counted(large_at, || machine.run_shared(&snapshot, program))
        };
        report.expect("warm run succeeds");
        assert_eq!(
            (warm.large, warm.large_bytes),
            (0, 0),
            "warm simulator run {i} took a node-count-sized table: {warm:?}"
        );
        match (i / programs.len(), second_lap.get(i % programs.len())) {
            (0, _) => {}
            (_, Some(&allocs)) => assert_eq!(warm.allocs, allocs, "warm simulator run {i}"),
            (_, None) => second_lap.push(warm.allocs),
        }
    }
    assert_eq!(machine.run(&mut net, &programs[0]).unwrap(), first);

    // One `add_link` draws a new revision: the next run is exactly as
    // cold as the first, and the one after it warm again.
    net.add_link(nouns[0], rel::IS_A, 0.5, nouns[1]).unwrap();
    net.flush_links();
    let (report, counts) = counted(large_at, || machine.run(&mut net, &programs[0]));
    report.expect("run after the edit succeeds");
    assert_eq!(
        (counts.large, counts.large_bytes),
        (cold.large, cold.large_bytes),
        "the run after an add_link is as cold as the very first"
    );
    let (_, warm) = counted(large_at, || machine.run(&mut net, &programs[1]));
    assert_eq!(warm.large, 0, "and the one after it is warm: {warm:?}");
}

/// One warm `engine-wave` run on the benchmark's simulated machine
/// (16 `EdgeCut` clusters): allocations, messages, expansions.
fn des_wave(nodes: usize) -> (u64, u64, u64) {
    let mut net = scale_free_network(nodes, 3, 17);
    net.flush_links();
    let net = Arc::new(net);
    let program = program_wave();
    let machine = Snap1::builder()
        .clusters(16)
        .partition(PartitionScheme::EdgeCut)
        .engine(EngineKind::Des)
        .build();
    // The first call builds the snapshot's set-up; measure a warm one.
    machine.run_shared(&net, &program).expect("cold run");
    let (report, counts) = counted(usize::MAX, || machine.run_shared(&net, &program));
    let report = report.expect("warm run");
    (
        counts.allocs,
        report.traffic.total_messages,
        report.expansions,
    )
}

#[test]
fn des_run_allocations_do_not_scale_with_messages() {
    // A warm run allocates its report and per-run models, and its
    // pooled queues only grow past their last size; nothing is taken
    // from the heap per message or per expansion. The engine this
    // replaced took two hop-count vectors per message and an arrival
    // vector per expansion: more than 2.5 allocations for each message
    // added.
    let (small_allocs, small_msgs, small_expansions) = des_wave(2_000);
    let (large_allocs, large_msgs, large_expansions) = des_wave(8_000);
    assert!(
        large_msgs > 3 * small_msgs && large_expansions > 3 * small_expansions,
        "the larger wave does several times the work: {small_msgs} → {large_msgs} messages, \
         {small_expansions} → {large_expansions} expansions"
    );
    let (more_allocs, more_msgs) = (
        large_allocs.saturating_sub(small_allocs),
        large_msgs - small_msgs,
    );
    assert!(
        more_allocs * 32 < more_msgs,
        "{more_msgs} more messages took {more_allocs} more allocations \
         ({small_allocs} → {large_allocs})"
    );
}

#[test]
fn kb_build_allocations_scale_linearly_with_nodes() {
    // Building the parse KB allocates a bounded number of times per
    // node: its names, the relation table's growth and the lexicon. A
    // constraint pass that cloned a part-of-speech pool per sequence
    // element made it quadratic (4.0× from 6K to 12K nodes, 581
    // allocations per node at 12K).
    let allocs = |n| {
        counted(usize::MAX, || DomainSpec::sized(n).build().unwrap())
            .1
            .allocs
    };
    let (small, large) = (allocs(6_000), allocs(12_000));
    assert!(
        large * 10 <= small * 22,
        "doubling the KB from 6K to 12K nodes took {small} → {large} allocations"
    );
    assert!(
        large <= 4 * 12_000,
        "the 12K-node KB took {large} allocations, more than 4 per node"
    );
}
