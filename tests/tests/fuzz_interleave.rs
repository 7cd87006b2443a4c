//! The interleaving fuzzer against the differential grid.
//!
//! A seeded `ScheduleStrategy::Fuzzed` schedule permutes every ordering
//! a legal but adversarial machine could choose — the simulator's
//! equal-time event ties, and the threaded engine's ready-task picks,
//! worker fabric-vs-queue polling, fabric delivery order and
//! barrier-close timing — while the marker-propagation semantics
//! guarantee results must not change. Any divergence from the FIFO
//! sequential oracle is therefore a real ordering bug, and the harness
//! shrinks it to the minimal fuzzed decision prefix (`limit` bisection)
//! plus a replayable JSON repro. The sequential engine is one PE with
//! no ordering to permute: under any schedule it runs its FIFO run.
//!
//! The sweep width follows the `FUZZ_SEEDS` env var (like
//! `CHAOS_SEEDS` in the chaos tests); CI smoke jobs trim it.
//!
//! With the `fuzz-bug` feature the simulator and the threaded engine
//! carry a planted ordering bug (an expansion scheduled right after a
//! reordered decision — an event whose drawn tie key put it ahead of an
//! equal-time event pushed before it, a ready-pool pick other than the
//! front — silently drops its arrivals); the clean-sweep tests are compiled out
//! and replaced by the catch-and-shrink test, which demands the fuzzer
//! find the plant.

use snap_core::{EngineKind, ScheduleStrategy};
use snap_integration_tests::{fuzz, grid};

/// Same seed ⇒ same interleaving ⇒ same `RunReport`: collects and the
/// schedule digest (the fold of every schedule decision drawn on the
/// deterministic control stream) must replay bit-identically.
///
/// With the planted bug compiled in the threaded engine is excluded:
/// the plant makes collects depend on the worker streams' draw counts,
/// which follow thread timing — exactly the class of defect the fuzzer
/// exists to catch, but fatal to a bit-replay assertion.
#[test]
fn fuzzed_schedule_replays_deterministically() {
    #[cfg(feature = "fuzz-bug")]
    let engines = &[EngineKind::Des];
    #[cfg(not(feature = "fuzz-bug"))]
    let engines = fuzz::ENGINES;
    for &engine in engines {
        let run = || {
            grid::run_cell_cfg(grid::kb_chain, &grid::program_parse(), 2, engine, |c| {
                c.schedule = ScheduleStrategy::fuzzed(11);
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(
            grid::check_equivalent(&a.collects, &b.collects),
            None,
            "{engine:?}: same seed must reproduce the same collects"
        );
        assert_eq!(
            a.schedule_digest, b.schedule_digest,
            "{engine:?}: same seed must reproduce the same decision digest"
        );
    }
}

/// FIFO draws no schedule decisions (digest 0); a fuzzed schedule
/// draws and fingerprints them, and different seeds fingerprint
/// differently on the simulator. The sequential engine draws nothing
/// under any schedule: its fuzzed run is its FIFO run, report for
/// report.
#[test]
fn schedule_digest_fingerprints_the_schedule() {
    let run = |engine, schedule| {
        grid::run_cell_cfg(grid::kb_chain, &grid::program_parse(), 2, engine, |c| {
            c.schedule = schedule;
        })
    };
    let digest = |engine, schedule| run(engine, schedule).schedule_digest;
    for &engine in fuzz::ENGINES {
        assert_eq!(
            digest(engine, ScheduleStrategy::Fifo),
            0,
            "{engine:?}: FIFO must not draw decisions"
        );
        assert_ne!(
            digest(engine, ScheduleStrategy::fuzzed(3)),
            0,
            "{engine:?}: a fuzzed run must fingerprint its decisions"
        );
    }
    assert_ne!(
        digest(EngineKind::Des, ScheduleStrategy::fuzzed(3)),
        digest(EngineKind::Des, ScheduleStrategy::fuzzed(4)),
        "Des: different seeds must fingerprint differently"
    );
    let fifo = run(EngineKind::Sequential, ScheduleStrategy::Fifo);
    assert!(fifo.expansions > 0, "the cell propagates");
    for seed in [3, 4] {
        let fuzzed = run(EngineKind::Sequential, ScheduleStrategy::fuzzed(seed));
        assert_eq!(fuzzed, fifo, "Sequential: fuzzed({seed}) is the FIFO run");
        assert_eq!(fuzzed.schedule_digest, 0, "Sequential draws no decisions");
    }
}

#[cfg(not(feature = "fuzz-bug"))]
mod clean {
    use super::*;
    use snap_core::FaultPlan;

    /// The headline sweep: N seeds × the fuzz grid × 2 engines, every
    /// cell compared against the FIFO sequential oracle. On divergence
    /// the harness shrinks to the minimal repro, writes the JSON
    /// artifact, and fails with the replay line.
    #[test]
    fn fuzz_sweep_differential_grid_is_clean() {
        let seeds = fuzz::seed_count(8);
        if let Some(d) = fuzz::sweep(seeds).into_iter().next() {
            let minimal = fuzz::shrink(&d);
            let path = fuzz::write_repro(&d, &minimal);
            panic!(
                "interleaving fuzzer found an ordering bug (repro: {}):\n  full:    {d}\n  minimal: {minimal}",
                path.display()
            );
        }
    }

    /// A fuzzed schedule composes with fault injection: the reorder
    /// hook, the (injector-forced) tiered barrier, and the ack/retry
    /// protocol together must still converge to the oracle.
    #[test]
    fn fuzzed_schedule_composes_with_fault_injection() {
        let program = grid::program_parse();
        let oracle = grid::run_cell(
            grid::kb_chain,
            &program,
            2,
            EngineKind::Sequential,
            None,
            false,
        );
        let mut injected = 0;
        for seed in 0..4 {
            let report =
                grid::run_cell_cfg(grid::kb_chain, &program, 5, EngineKind::Threaded, |c| {
                    c.schedule = ScheduleStrategy::fuzzed(seed);
                    c.fault_plan = Some(FaultPlan::seeded(seed ^ 0xFA17).drops(0.1));
                });
            grid::assert_equivalent(
                &format!("chain/parse/c5/fuzzed{seed}+drops"),
                &oracle.collects,
                &report.collects,
            );
            injected += report.faults.total_injected();
        }
        assert!(injected > 0, "no seed injected a single fault");
    }
}

#[cfg(feature = "fuzz-bug")]
mod planted {
    use super::*;

    /// The fuzzer must catch the planted ordering bug (an expansion the
    /// simulator schedules while handling an event that overtook an
    /// equal-time one drops its arrivals)
    /// and shrink it to a boundary-verified minimal decision prefix:
    /// the divergence reproduces at `limit` and vanishes at `limit - 1`.
    #[test]
    fn planted_bug_is_caught_and_shrunk() {
        // The simulator makes the whole hunt deterministic. The plant
        // fires only where a drawn tie key changed the pop order, so a
        // catch shows that the permutations expose ordering bugs.
        let found = (0..32).find_map(|seed| fuzz::check_seed_on(seed, EngineKind::Des));
        let d = found.expect("planted bug escaped a 32-seed sweep");

        let minimal = fuzz::shrink(&d);
        assert!(
            minimal.limit >= 1,
            "limit 0 is pure FIFO and must not diverge"
        );
        assert!(
            fuzz::recheck(&minimal, minimal.limit).is_some(),
            "minimal repro must reproduce at its own limit"
        );
        assert!(
            fuzz::recheck(&minimal, minimal.limit - 1).is_none(),
            "shrink boundary is not minimal: limit {} also diverges",
            minimal.limit - 1
        );

        let path = fuzz::write_repro(&d, &minimal);
        let written = std::fs::read_to_string(&path).expect("repro artifact written");
        assert!(
            written.contains("minimal_limit") && written.contains("Fuzzed"),
            "repro artifact missing replay info: {written}"
        );
        println!("caught and shrunk: {minimal}\nrepro at {}", path.display());
    }

    /// The plant is schedule-gated: under FIFO (never reorders) the
    /// bugged build still matches the oracle everywhere, so the normal
    /// suite stays green even with the feature compiled in.
    #[test]
    fn planted_bug_is_inert_under_fifo() {
        for &(label, kb) in &[
            ("chain", grid::kb_chain as grid::KbBuilder),
            ("web", grid::kb_web),
        ] {
            let program = grid::program_parse();
            let oracle = grid::run_cell(kb, &program, 2, EngineKind::Sequential, None, false);
            for &engine in fuzz::ENGINES {
                let report = grid::run_cell_cfg(kb, &program, 2, engine, |c| {
                    c.schedule = ScheduleStrategy::Fifo;
                });
                grid::assert_equivalent(
                    &format!("{label}/fifo-inert/{engine:?}"),
                    &oracle.collects,
                    &report.collects,
                );
            }
        }
    }
}
