//! Differential grid pinning the wave kernel to the scalar executable
//! spec.
//!
//! The scalar loop *is* the semantics; the wave kernel is an
//! optimisation that must be observationally indistinguishable. The
//! sequential engine picks between them from the schedule: FIFO runs
//! the wave kernel, a fuzzed schedule the scalar loop — and a fuzzed
//! schedule with a decision budget of 0 never deviates from FIFO, so it
//! is the scalar loop in spec order. Each cell runs both and compares
//! the whole `RunReport`: collects, every counter, simulated
//! nanoseconds, schedule digest and — with the `obs` feature — the
//! `TraceReport`.

use snap_core::{EngineKind, MachineConfig, ObsConfig, RunReport, ScheduleStrategy};
use snap_integration_tests::grid;
use snap_kb::{synth, SemanticNetwork};
use std::collections::BTreeMap;

/// A 600-node preferential-attachment network of one colour:
/// `grid::program_wave` seeds every node, so wave 0 has frontier
/// density 1.0 — the densest frontier a wave can have.
fn kb_scale_free() -> SemanticNetwork {
    synth::scale_free_network(600, 2, 7)
}

/// Runs one cell on the sequential engine through both kernels.
fn wave_and_scalar(
    kb: grid::KbBuilder,
    program: &snap_isa::Program,
    tweak: impl Fn(&mut MachineConfig),
) -> (RunReport, RunReport) {
    let run = |schedule| {
        grid::run_cell_cfg(kb, program, 1, EngineKind::Sequential, |c| {
            tweak(c);
            c.schedule = schedule;
        })
    };
    let wave = run(ScheduleStrategy::Fifo);
    let scalar = run(ScheduleStrategy::Fuzzed {
        seed: 0x5EED_0001,
        limit: 0,
    });
    (wave, scalar)
}

/// Every cell must produce one report under the scalar spec and the
/// wave kernel, untraced and traced. Without the `obs` feature the
/// trace setting is inert and the traced pass repeats the plain one;
/// with it, the two kernels must emit the same `TraceReport`.
#[test]
fn wave_kernel_matches_scalar_spec_on_whole_reports() {
    let mut cells: Vec<(String, grid::KbBuilder, snap_isa::Program, Option<u8>)> = Vec::new();
    for &(kb_name, kb) in grid::KBS {
        for (prog_name, program) in grid::programs() {
            cells.push((format!("{kb_name}/{prog_name}"), kb, program, None));
        }
    }
    // A hop cap that bites: the capped wave is charged but delivers
    // nothing, in both kernels.
    cells.push((
        "chain/parse/hops3".into(),
        grid::kb_chain,
        grid::program_parse(),
        Some(3),
    ));
    cells.push((
        "scale-free/all-seeded".into(),
        kb_scale_free,
        grid::program_wave(),
        None,
    ));
    let mut waves = BTreeMap::new();
    for (label, kb, program, max_hops) in cells {
        for traced in [false, true] {
            let (wave, scalar) = wave_and_scalar(kb, &program, |c| {
                if let Some(hops) = max_hops {
                    c.max_hops = hops;
                }
                if traced {
                    c.trace = Some(ObsConfig::full());
                }
            });
            assert_eq!(wave, scalar, "[{label}] traced={traced}");
            assert!(wave.expansions > 0, "[{label}] cell propagates");
            assert_eq!(
                wave.trace.enabled,
                traced && cfg!(feature = "obs"),
                "[{label}] trace recorded exactly when asked and compiled in"
            );
            waves.insert(label.clone(), wave);
        }
    }
    assert_eq!(
        waves["scale-free/all-seeded"].alpha_per_propagate,
        vec![600],
        "every node seeded"
    );
    assert!(
        waves["chain/parse/hops3"].expansions < waves["chain/parse"].expansions,
        "the hop cap bites"
    );
}
