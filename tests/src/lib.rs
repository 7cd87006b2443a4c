//! Cross-crate integration-test support for the SNAP-1 reproduction.
//!
//! * [`grid`] — the differential grid shared by the equivalence tests
//!   and the interleaving fuzzer: deterministic knowledge bases,
//!   exemplar programs, cell runners, and the equivalence check.
//! * [`fuzz`] — the deterministic interleaving fuzzer: sweeps seeded
//!   [`ScheduleStrategy::Fuzzed`](snap_core::ScheduleStrategy) schedules
//!   through the grid on the simulator and the threaded engine, and
//!   shrinks any divergence to a minimal decision prefix (the
//!   strategy's `limit` knob) plus a replayable JSON repro.

pub mod grid {
    //! The differential grid: knowledge bases × programs × cluster
    //! counts, executed on all three engines and compared against the
    //! sequential oracle.

    use snap_core::{CollectOutput, CoreError, EngineKind, MachineConfig, RunReport, Snap1};
    use snap_isa::{Cmp, CombineFunc, Program, PropRule, StepFunc, ValueFunc};
    use snap_kb::{Color, Marker, NetworkConfig, NodeId, RelationType, SemanticNetwork};

    /// A 24-node chain (`i --rel0--> i+1`) with skip links every third
    /// node (`i --rel2--> i+3`): deep propagation paths.
    pub fn kb_chain() -> SemanticNetwork {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let n = 24u32;
        for i in 0..n {
            net.add_node(Color((i % 5) as u8)).unwrap();
        }
        for i in 0..n - 1 {
            net.add_link(NodeId(i), RelationType(0), 1.0, NodeId(i + 1))
                .unwrap();
        }
        for i in (0..n - 3).step_by(3) {
            net.add_link(NodeId(i), RelationType(2), 0.5, NodeId(i + 3))
                .unwrap();
        }
        net
    }

    /// A 31-node complete binary tree; left edges are `rel0`, right
    /// edges `rel1`, and every leaf points back at the root via `rel2`.
    /// Every node has a unique path from the root for any {rel0, rel1}
    /// walk.
    pub fn kb_tree() -> SemanticNetwork {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let n = 31u32;
        for i in 0..n {
            net.add_node(Color((i % 5) as u8)).unwrap();
        }
        for i in 0..n {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            if l < n {
                net.add_link(NodeId(i), RelationType(0), 1.0, NodeId(l))
                    .unwrap();
            }
            if r < n {
                net.add_link(NodeId(i), RelationType(1), 2.0, NodeId(r))
                    .unwrap();
            }
            if l >= n {
                // Leaf: close the loop back to the root.
                net.add_link(NodeId(i), RelationType(2), 0.25, NodeId(0))
                    .unwrap();
            }
        }
        net
    }

    /// A 20-node pseudo-random web generated by a fixed LCG: many short
    /// cycles and converging paths.
    pub fn kb_web() -> SemanticNetwork {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let n = 20u32;
        for i in 0..n {
            net.add_node(Color((i % 5) as u8)).unwrap();
        }
        let mut state = 0x2545_f491u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..n * 2 {
            let s = next() % n;
            let d = next() % n;
            let r = next() % 4;
            let w = 1 + next() % 3000;
            net.add_link(
                NodeId(s),
                RelationType(r as u16),
                w as f32 / 1000.0,
                NodeId(d),
            )
            .unwrap();
        }
        net
    }

    fn mk(i: u8) -> Marker {
        Marker::complex(i)
    }

    fn collect_all(mut b: snap_isa::ProgramBuilder) -> Program {
        for m in 0..8 {
            b = b.collect_marker(mk(m));
        }
        b.build()
    }

    /// A parse-style pipeline: searches feeding overlapped propagations
    /// joined by AND.
    pub fn program_parse() -> Program {
        let b = Program::builder()
            .search_color(Color(0), mk(0), 1.0)
            .search_color(Color(1), mk(1), 1.0)
            .propagate(
                mk(0),
                mk(2),
                PropRule::Star(RelationType(0)),
                StepFunc::AddWeight,
            )
            .propagate(
                mk(1),
                mk(3),
                PropRule::Once(RelationType(1)),
                StepFunc::AddWeight,
            )
            .and_marker(mk(2), mk(3), mk(4), CombineFunc::Min)
            .propagate(
                mk(4),
                mk(5),
                PropRule::Spread(RelationType(0), RelationType(2)),
                StepFunc::AddWeight,
            );
        collect_all(b)
    }

    /// The repository benchmark's `engine-wave` program: mark every
    /// node of a one-color network, `Star`, `AddWeight`, collect.
    pub fn program_wave() -> Program {
        Program::builder()
            .search_color(Color(0), Marker::binary(1), 0.0)
            .propagate(
                Marker::binary(1),
                Marker::complex(2),
                PropRule::Star(RelationType(0)),
                StepFunc::AddWeight,
            )
            .collect_marker(Marker::complex(2))
            .build()
    }

    /// A marker-algebra pipeline: boolean/set/clear/threshold ops
    /// around propagations.
    pub fn program_algebra() -> Program {
        let b = Program::builder()
            .search_node(NodeId(0), mk(0), 1.0)
            .search_color(Color(2), mk(1), 0.5)
            .set_marker(mk(6), 1.0)
            .or_marker(mk(0), mk(1), mk(2), CombineFunc::Min)
            .propagate(
                mk(2),
                mk(3),
                PropRule::Union(RelationType(0), RelationType(1)),
                StepFunc::AddWeight,
            )
            .not_marker(mk(3), mk(4))
            .func_marker(mk(3), ValueFunc::ClearIf(Cmp::Gt, 2.5))
            .clear_marker(mk(6))
            .propagate(
                mk(0),
                mk(7),
                PropRule::Star(RelationType(2)),
                StepFunc::AddWeight,
            );
        collect_all(b)
    }

    /// Builder for one of the grid's knowledge bases.
    pub type KbBuilder = fn() -> SemanticNetwork;

    /// The grid's knowledge-base axis.
    pub const KBS: &[(&str, KbBuilder)] =
        &[("chain", kb_chain), ("tree", kb_tree), ("web", kb_web)];

    /// The grid's cluster-count axis.
    pub const CLUSTER_COUNTS: &[usize] = &[2, 5];

    /// The grid's program axis.
    pub fn programs() -> Vec<(&'static str, Program)> {
        vec![("parse", program_parse()), ("algebra", program_algebra())]
    }

    /// Runs one (kb, program, clusters) cell on `engine` with an
    /// arbitrary config tweak applied first, returning the engine's
    /// error instead of panicking (the fuzzer treats a typed failure
    /// under a legal schedule as a divergence).
    pub fn try_run_cell(
        kb: KbBuilder,
        program: &Program,
        clusters: usize,
        engine: EngineKind,
        tweak: impl FnOnce(&mut MachineConfig),
    ) -> Result<RunReport, CoreError> {
        let mut config = MachineConfig::uniform(clusters, 3);
        tweak(&mut config);
        let machine = Snap1::builder().config(config).engine(engine).build();
        let mut net = kb();
        machine.run(&mut net, program)
    }

    /// Runs one cell, panicking on engine error. `max_hops` overrides
    /// the propagation hop budget when given (the perturbation knob for
    /// the localization test); `trace` enables counters-only tracing so
    /// phase sequences land in the report.
    pub fn run_cell(
        kb: KbBuilder,
        program: &Program,
        clusters: usize,
        engine: EngineKind,
        max_hops: Option<u8>,
        trace: bool,
    ) -> RunReport {
        run_cell_cfg(kb, program, clusters, engine, |config| {
            if let Some(hops) = max_hops {
                config.max_hops = hops;
            }
            if trace {
                config.trace = Some(snap_core::ObsConfig::counters_only());
            }
        })
    }

    /// Runs one cell with an arbitrary config tweak (partition scheme,
    /// fault plan, schedule, …), panicking on engine error.
    pub fn run_cell_cfg(
        kb: KbBuilder,
        program: &Program,
        clusters: usize,
        engine: EngineKind,
        tweak: impl FnOnce(&mut MachineConfig),
    ) -> RunReport {
        try_run_cell(kb, program, clusters, engine, tweak)
            .unwrap_or_else(|e| panic!("{engine:?} run failed (clusters={clusters}): {e:?}"))
    }

    /// Non-panicking equivalence check: `None` when the collect outputs
    /// match exactly on node sets and within 1e-3 on values (engines
    /// order float additions differently), otherwise a description of
    /// the first mismatch.
    pub fn check_equivalent(a: &[CollectOutput], b: &[CollectOutput]) -> Option<String> {
        if a.len() != b.len() {
            return Some(format!("collect count {} vs {}", a.len(), b.len()));
        }
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if x.node_ids() != y.node_ids() {
                return Some(format!(
                    "collect #{i} node sets {:?} vs {:?}",
                    x.node_ids(),
                    y.node_ids()
                ));
            }
            if let (CollectOutput::Nodes(xs), CollectOutput::Nodes(ys)) = (x, y) {
                for ((n1, v1), (n2, v2)) in xs.iter().zip(ys) {
                    let (v1, v2) = (v1.map_or(0.0, |v| v.value), v2.map_or(0.0, |v| v.value));
                    if (v1 - v2).abs() >= 1e-3 {
                        return Some(format!("collect #{i} value at {n1}: {v1} vs {v2} ({n2})"));
                    }
                }
            }
        }
        None
    }

    /// Panicking form of [`check_equivalent`], labelled for grid use.
    pub fn assert_equivalent(label: &str, a: &[CollectOutput], b: &[CollectOutput]) {
        if let Some(mismatch) = check_equivalent(a, b) {
            panic!("[{label}] {mismatch}");
        }
    }
}

pub mod fuzz {
    //! The deterministic interleaving fuzzer.
    //!
    //! Instead of waiting for a race to strike in production, the
    //! fuzzer *constructs* adversarial-but-legal schedules: each seed
    //! derives a `ScheduleStrategy::Fuzzed` schedule that permutes
    //! the simulator's equal-time event ties and the threaded engine's
    //! ready-task picks, worker fabric-vs-queue polling, fabric delivery
    //! order and barrier-close timing, then runs the differential grid
    //! under it on those two engines ([`ENGINES`]). The propagation
    //! semantics are order-independent, so any divergence from the FIFO
    //! sequential oracle is a real ordering bug. The sequential engine
    //! itself is one PE with nothing to reorder: a schedule leaves it
    //! untouched.
    //!
    //! A divergence is shrunk by bisecting the strategy's `limit` knob
    //! (how many leading schedule decisions are fuzzed before the
    //! stream reverts to FIFO) down to the minimal decision prefix that
    //! still reproduces it, and written as a replayable JSON repro.

    use crate::grid;
    use snap_core::{EngineKind, ScheduleStrategy};
    use std::fmt;
    use std::path::PathBuf;

    /// Number of seeds to sweep: the `FUZZ_SEEDS` env var (mirroring
    /// `CHAOS_SEEDS`), defaulting to `default`. CI smoke jobs trim the
    /// sweep with e.g. `FUZZ_SEEDS=4`.
    pub fn seed_count(default: u64) -> u64 {
        std::env::var("FUZZ_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// One cell of the fuzz grid (a subset of the full differential
    /// grid, kept small because every seed re-runs all of it).
    struct FuzzCell {
        kb_name: &'static str,
        kb: grid::KbBuilder,
        prog_name: &'static str,
        clusters: usize,
    }

    const FUZZ_CELLS: &[FuzzCell] = &[
        FuzzCell {
            kb_name: "chain",
            kb: grid::kb_chain,
            prog_name: "parse",
            clusters: 2,
        },
        FuzzCell {
            kb_name: "tree",
            kb: grid::kb_tree,
            prog_name: "parse",
            clusters: 5,
        },
        FuzzCell {
            kb_name: "web",
            kb: grid::kb_web,
            prog_name: "algebra",
            clusters: 2,
        },
    ];

    /// The engines a fuzzed schedule is differentially checked on: the
    /// two with concurrent actors. The sequential engine is one PE and
    /// draws no decisions, so its fuzzed run is its FIFO oracle.
    pub const ENGINES: &[EngineKind] = &[EngineKind::Des, EngineKind::Threaded];

    fn program_for(name: &str) -> snap_isa::Program {
        match name {
            "parse" => grid::program_parse(),
            _ => grid::program_algebra(),
        }
    }

    /// A schedule-induced divergence from the FIFO sequential oracle:
    /// everything needed to replay it.
    #[derive(Debug, Clone)]
    pub struct Divergence {
        /// The fuzzed schedule's seed.
        pub seed: u64,
        /// Decision-prefix limit the divergence was observed at.
        pub limit: u64,
        /// Grid-cell label, e.g. `chain/parse/c2`.
        pub cell: String,
        /// Engine that diverged.
        pub engine: EngineKind,
        /// First mismatch, or the engine's typed error.
        pub detail: String,
        /// Index of the cell in the fuzz grid (for re-checks).
        cell_idx: usize,
    }

    impl fmt::Display for Divergence {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "{}/{:?} diverged under ScheduleStrategy::Fuzzed {{ seed: {}, limit: {} }}: {}",
                self.cell, self.engine, self.seed, self.limit, self.detail
            )
        }
    }

    /// Checks one cell × engine under `Fuzzed { seed, limit }` against
    /// the cell's FIFO sequential oracle.
    fn check_cell(
        cell_idx: usize,
        engine: EngineKind,
        seed: u64,
        limit: u64,
    ) -> Option<Divergence> {
        let cell = &FUZZ_CELLS[cell_idx];
        let program = program_for(cell.prog_name);
        let oracle = grid::run_cell_cfg(
            cell.kb,
            &program,
            cell.clusters,
            EngineKind::Sequential,
            |_| {},
        );
        let detail = match grid::try_run_cell(cell.kb, &program, cell.clusters, engine, |c| {
            c.schedule = ScheduleStrategy::Fuzzed { seed, limit };
        }) {
            Ok(report) => grid::check_equivalent(&oracle.collects, &report.collects)?,
            Err(e) => format!("typed failure under a legal schedule: {e}"),
        };
        Some(Divergence {
            seed,
            limit,
            cell: format!("{}/{}/c{}", cell.kb_name, cell.prog_name, cell.clusters),
            engine,
            detail,
            cell_idx,
        })
    }

    /// Runs the whole fuzz grid under one seed (full decision budget);
    /// returns the first divergence, if any.
    pub fn check_seed(seed: u64) -> Option<Divergence> {
        for idx in 0..FUZZ_CELLS.len() {
            for &engine in ENGINES {
                if let Some(d) = check_cell(idx, engine, seed, u64::MAX) {
                    return Some(d);
                }
            }
        }
        None
    }

    /// Like [`check_seed`] but restricted to one engine (the planted-
    /// bug test pins the deterministic discrete-event simulator).
    pub fn check_seed_on(seed: u64, engine: EngineKind) -> Option<Divergence> {
        (0..FUZZ_CELLS.len()).find_map(|idx| check_cell(idx, engine, seed, u64::MAX))
    }

    /// Re-runs a divergence's cell at a different decision-prefix
    /// limit (boundary verification for [`shrink`]).
    pub fn recheck(d: &Divergence, limit: u64) -> Option<Divergence> {
        check_cell(d.cell_idx, d.engine, d.seed, limit)
    }

    /// Sweeps seeds `0..seeds`, collecting every divergence (at most
    /// one per seed — the first found).
    pub fn sweep(seeds: u64) -> Vec<Divergence> {
        (0..seeds).filter_map(check_seed).collect()
    }

    /// Shrinks `d` to the minimal fuzzed-decision prefix that still
    /// reproduces it: bisects the strategy's `limit` knob over the
    /// diverging cell. Returns the divergence observed at the minimal
    /// limit, for which `limit` diverges and `limit - 1` does not
    /// (limit 0 is pure FIFO, which by construction passes).
    pub fn shrink(d: &Divergence) -> Divergence {
        let fails = |limit: u64| check_cell(d.cell_idx, d.engine, d.seed, limit);
        // Invariant: lo passes, hi fails. Limits beyond the run's total
        // decision count behave identically to u64::MAX, so the bisect
        // descends from the top without an exponential search.
        let mut lo = 0u64;
        let mut hi = u64::MAX;
        let mut at_hi = fails(hi).expect("divergence must reproduce at full budget");
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match fails(mid) {
                Some(div) => {
                    hi = mid;
                    at_hi = div;
                }
                None => lo = mid,
            }
        }
        at_hi
    }

    /// Renders a replayable JSON repro for a (minimized) divergence.
    pub fn repro_json(original: &Divergence, minimal: &Divergence) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        format!(
            concat!(
                "{{\n",
                "  \"seed\": {},\n",
                "  \"cell\": \"{}\",\n",
                "  \"engine\": \"{:?}\",\n",
                "  \"minimal_limit\": {},\n",
                "  \"detail\": \"{}\",\n",
                "  \"replay\": \"config.schedule = ScheduleStrategy::Fuzzed {{ seed: {}, limit: {} }}\"\n",
                "}}\n"
            ),
            original.seed,
            esc(&minimal.cell),
            minimal.engine,
            minimal.limit,
            esc(&minimal.detail),
            minimal.seed,
            minimal.limit,
        )
    }

    /// Writes the repro to `FUZZ_REPRO_PATH` (default
    /// `target/fuzz-repro.json` under the workspace root, wherever the
    /// test process's cwd is); CI uploads it as an artifact.
    /// Returns the path written.
    pub fn write_repro(original: &Divergence, minimal: &Divergence) -> PathBuf {
        let path = std::env::var("FUZZ_REPRO_PATH")
            .map(PathBuf::from)
            .unwrap_or_else(|_| {
                let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
                std::path::Path::new(&manifest)
                    .join("..")
                    .join("target")
                    .join("fuzz-repro.json")
                    .components()
                    .collect()
            });
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = std::fs::write(&path, repro_json(original, minimal));
        path
    }
}
