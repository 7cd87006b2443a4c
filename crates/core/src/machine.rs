//! The machine facade: configure once, load a knowledge base, run
//! programs.

use crate::config::{EngineKind, MachineConfig};
use crate::cost::CostModel;
use crate::engine::common::NetAccess;
use crate::engine::pool::RunPool;
use crate::engine::threaded;
use crate::error::CoreError;
use crate::prepared::{Prepared, PreparedMemo};
use crate::report::RunReport;
use snap_isa::Program;
use snap_kb::{PartitionScheme, SemanticNetwork};
use std::sync::Arc;

/// A configured SNAP-1 machine.
///
/// # Examples
///
/// ```
/// use snap_core::Snap1;
/// use snap_isa::{Program, PropRule, StepFunc};
/// use snap_kb::{Color, Marker, NetworkConfig, RelationType, SemanticNetwork};
///
/// let mut net = SemanticNetwork::new(NetworkConfig::default());
/// let a = net.add_named_node("a", Color(1))?;
/// let b = net.add_named_node("b", Color(2))?;
/// net.add_link(a, RelationType(0), 1.0, b)?;
///
/// let program = Program::builder()
///     .search_color(Color(1), Marker::binary(0), 0.0)
///     .propagate(Marker::binary(0), Marker::binary(1),
///                PropRule::Star(RelationType(0)), StepFunc::Identity)
///     .collect_marker(Marker::binary(1))
///     .build();
///
/// let machine = Snap1::builder().clusters(4).build();
/// let report = machine.run(&mut net, &program)?;
/// assert_eq!(report.collects[0].node_ids(), vec![b]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Snap1 {
    config: MachineConfig,
    cost: CostModel,
    engine: EngineKind,
    /// Set-up of the last network revision run on (see [`Snap1::prepare`]).
    memo: PreparedMemo,
    /// The sequential engine's or the simulator's run states for that
    /// revision.
    pool: RunPool,
}

impl Snap1 {
    /// A machine with the paper's evaluation configuration (16 clusters,
    /// 72 PEs) on the discrete-event engine.
    pub fn new() -> Self {
        Snap1::builder().build()
    }

    /// Starts a builder.
    pub fn builder() -> Snap1Builder {
        Snap1Builder::default()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The engine this machine executes on.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The `(clusters, partition)` this machine maps a knowledge base
    /// onto: its configured array, except that the single-PE reference
    /// engine holds the whole network in one region.
    fn geometry(&self) -> (usize, PartitionScheme) {
        match self.engine {
            EngineKind::Sequential => (1, PartitionScheme::Sequential),
            EngineKind::Des | EngineKind::Threaded => (self.config.clusters, self.config.partition),
        }
    }

    /// Executes `program` against `network`, returning the measured
    /// report. The network is borrowed mutably because node-maintenance
    /// instructions edit it.
    ///
    /// The knowledge base is mapped onto the clusters once per
    /// [revision](SemanticNetwork::revision), not once per call: a run on
    /// a network nobody has edited since the machine's last run on it
    /// (or on a clone of it) reuses that run's region map and partition
    /// statistics ([`Snap1::prepare`]) and, on the sequential engine and
    /// the simulator, its regions, visited tables and — simulated — event
    /// queue and server timelines, exactly as a warm [`Snap1::run_shared`]
    /// does. A program whose maintenance edits the network leaves a new
    /// revision behind, and the next run maps it afresh.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid marker registers, unknown nodes,
    /// or missing links referenced by the program.
    pub fn run(
        &self,
        network: &mut SemanticNetwork,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        // Settle staged relation-table inserts before the network is
        // partitioned, so the set-up and every expansion see the
        // indexed CSR.
        network.flush_links();
        let prepared = self.prepare(network)?;
        let (config, cost) = (&self.config, &self.cost);
        match self.engine {
            EngineKind::Threaded => {
                // The threaded engine shares the network with its workers
                // as an `Arc` snapshot: move it in, and hand the (possibly
                // maintenance-edited) network back even on error. The
                // engine has dropped every worker-side clone by then, so
                // the unwrap only falls back to a copy after an
                // unrecovered crash.
                let empty = SemanticNetwork::new(*network.config());
                let shared = Arc::new(std::mem::replace(network, empty));
                let (shared, result) = threaded::run(config, shared, &prepared, program);
                *network = Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone());
                result
            }
            engine => self.pool.run(
                engine,
                config,
                cost,
                NetAccess::Exclusive(network),
                &prepared,
                program,
            ),
        }
    }

    /// The per-network set-up (region map and partition statistics) of
    /// `network` on this machine, built on the first call for its
    /// [revision](SemanticNetwork::revision) and returned from a
    /// one-entry memo afterwards. [`Snap1::run`] and
    /// [`Snap1::run_shared`] obtain it here; a serving layer holds the
    /// same value to build its pooled regions from.
    ///
    /// The memo identifies a network by its content revision, never by
    /// its address: it holds no reference to any network, a new network
    /// never matches a dropped one, and an edit through any path —
    /// `&mut`, `Arc::get_mut`, `Arc::make_mut` — draws a new revision and
    /// so a new set-up. A clone shares its original's revision and set-up.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SharedStagedLinks`] if the network has staged
    /// (unflushed) links.
    pub fn prepare(&self, network: &SemanticNetwork) -> Result<Arc<Prepared>, CoreError> {
        let (clusters, scheme) = self.geometry();
        self.memo.get(network, clusters, scheme)
    }

    /// Executes a maintenance-free `program` against a shared network
    /// snapshot, without cloning it. This is the serving entry point:
    /// any number of callers may run programs against one `Arc`'d
    /// network concurrently — through one `&Snap1` or several — each
    /// getting an isolated report.
    ///
    /// The knowledge base is mapped onto the clusters once per
    /// revision, not once per call: the first call for a revision
    /// builds the region map and partition statistics
    /// ([`Snap1::prepare`]), later calls on the same contents reuse them
    /// and pay only for the program itself — on the sequential engine
    /// and the simulator not even for fresh run state: their regions,
    /// visited tables and (simulated) event queue are kept between calls
    /// and cleared, not rebuilt. Another network
    /// (including an edited copy of this one) replaces the remembered
    /// set-up and drops those tables. Concurrent callers share the
    /// remembered set-up read-only; concurrent first calls wait for one
    /// build. Exclusive [`Snap1::run`]s share the same memo and tables.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MaintenanceOnShared`] if the program contains
    /// a node-maintenance instruction (those must go through
    /// [`Snap1::run`] with exclusive access),
    /// [`CoreError::SharedStagedLinks`] if the snapshot was frozen with
    /// staged (unflushed) links, and otherwise the same errors as
    /// [`Snap1::run`].
    ///
    /// # Examples
    ///
    /// ```
    /// use snap_core::Snap1;
    /// use snap_isa::{Program, PropRule, StepFunc};
    /// use snap_kb::{Color, Marker, NetworkConfig, RelationType, SemanticNetwork};
    /// use std::sync::Arc;
    ///
    /// let mut net = SemanticNetwork::new(NetworkConfig::default());
    /// let a = net.add_named_node("a", Color(1))?;
    /// let b = net.add_named_node("b", Color(2))?;
    /// net.add_link(a, RelationType(0), 1.0, b)?;
    /// net.flush_links();
    /// let net = Arc::new(net);
    ///
    /// let program = Program::builder()
    ///     .search_color(Color(1), Marker::binary(0), 0.0)
    ///     .propagate(Marker::binary(0), Marker::binary(1),
    ///                PropRule::Star(RelationType(0)), StepFunc::Identity)
    ///     .collect_marker(Marker::binary(1))
    ///     .build();
    ///
    /// let machine = Snap1::builder().clusters(4).build();
    /// let report = machine.run_shared(&net, &program)?;
    /// assert_eq!(report.collects[0].node_ids(), vec![b]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_shared(
        &self,
        network: &Arc<SemanticNetwork>,
        program: &Program,
    ) -> Result<RunReport, CoreError> {
        if let Some(instr) = program
            .instructions()
            .iter()
            .find(|i| i.class() == snap_isa::InstrClass::Maintenance)
        {
            return Err(CoreError::MaintenanceOnShared {
                mnemonic: instr.mnemonic(),
            });
        }
        let prepared = self.prepare(network)?;
        let (config, cost) = (&self.config, &self.cost);
        match self.engine {
            EngineKind::Threaded => {
                threaded::run(config, Arc::clone(network), &prepared, program).1
            }
            engine => self.pool.run(
                engine,
                config,
                cost,
                NetAccess::Shared(network),
                &prepared,
                program,
            ),
        }
    }
}

impl Default for Snap1 {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder for [`Snap1`] machines.
#[derive(Debug, Clone)]
pub struct Snap1Builder {
    config: MachineConfig,
    cost: CostModel,
    engine: EngineKind,
}

impl Default for Snap1Builder {
    fn default() -> Self {
        Snap1Builder {
            config: MachineConfig::snap1_eval(),
            cost: CostModel::snap1(),
            engine: EngineKind::Des,
        }
    }
}

impl Snap1Builder {
    /// Uses a complete configuration.
    pub fn config(mut self, config: MachineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the cluster count (keeps 3 MUs per cluster unless a full
    /// config was given).
    pub fn clusters(mut self, clusters: usize) -> Self {
        self.config = MachineConfig {
            clusters,
            mus: vec![3; clusters],
            ..self.config
        };
        self
    }

    /// Sets a uniform MU count per cluster.
    pub fn mus_per_cluster(mut self, mus: usize) -> Self {
        self.config.mus = vec![mus; self.config.clusters];
        self
    }

    /// Sets the partitioning function.
    pub fn partition(mut self, scheme: PartitionScheme) -> Self {
        self.config.partition = scheme;
        self
    }

    /// Sets the execution engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Forces a global synchronization after every propagation wave
    /// (the SIMD-only ablation).
    pub fn lockstep_waves(mut self, lockstep: bool) -> Self {
        self.config.lockstep_waves = lockstep;
        self
    }

    /// Sets the CU outgoing-buffer capacity (sender blocks on overflow).
    pub fn cu_outbox_capacity(mut self, capacity: usize) -> Self {
        self.config.cu_outbox_capacity = capacity;
        self
    }

    /// Injects a seeded fault schedule during execution (see
    /// [`MachineConfig::fault_plan`]).
    pub fn faults(mut self, plan: crate::plan::FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Enables structured event tracing for the run (see
    /// [`MachineConfig::trace`]).
    pub fn trace(mut self, cfg: crate::obs::ObsConfig) -> Self {
        self.config.trace = Some(cfg);
        self
    }

    /// Finishes the machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`MachineConfig::validate`]).
    pub fn build(self) -> Snap1 {
        self.config.validate();
        Snap1 {
            config: self.config,
            cost: self.cost,
            engine: self.engine,
            memo: PreparedMemo::default(),
            pool: RunPool::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::{PropRule, StepFunc};
    use snap_kb::{Color, Marker, NetworkConfig, RelationType};

    fn tiny() -> (SemanticNetwork, Program) {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let a = net.add_named_node("a", Color(1)).unwrap();
        let b = net.add_named_node("b", Color(2)).unwrap();
        net.add_link(a, RelationType(0), 1.0, b).unwrap();
        let program = Program::builder()
            .search_color(Color(1), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Star(RelationType(0)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        (net, program)
    }

    #[test]
    fn all_engines_agree_on_tiny_example() {
        let mut ids = Vec::new();
        for engine in [
            EngineKind::Sequential,
            EngineKind::Des,
            EngineKind::Threaded,
        ] {
            let (mut net, program) = tiny();
            let machine = Snap1::builder().clusters(2).engine(engine).build();
            let report = machine.run(&mut net, &program).unwrap();
            ids.push(report.collects[0].node_ids());
        }
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
    }

    #[test]
    fn run_shared_agrees_with_run_on_every_engine() {
        for engine in [
            EngineKind::Sequential,
            EngineKind::Des,
            EngineKind::Threaded,
        ] {
            let (mut net, program) = tiny();
            let machine = Snap1::builder().clusters(2).engine(engine).build();
            let exclusive = machine.run(&mut net, &program).unwrap();
            net.flush_links();
            let shared = std::sync::Arc::new(net);
            let report = machine.run_shared(&shared, &program).unwrap();
            assert_eq!(
                report.collects[0].node_ids(),
                exclusive.collects[0].node_ids(),
                "{engine:?}"
            );
            // The caller's snapshot is untouched and still shared.
            assert_eq!(std::sync::Arc::strong_count(&shared), 1);
        }
    }

    #[test]
    fn run_shared_prepares_each_snapshot_once_on_every_engine() {
        for engine in [
            EngineKind::Sequential,
            EngineKind::Des,
            EngineKind::Threaded,
        ] {
            let machine = Snap1::builder().clusters(2).engine(engine).build();
            let snapshot = |extra: usize| {
                let (mut net, program) = tiny();
                for _ in 0..extra {
                    net.add_node(Color(3)).unwrap();
                }
                net.flush_links();
                (Arc::new(net), program)
            };
            let (a, program) = snapshot(0);
            let (b, _) = snapshot(5);
            let first = machine.run_shared(&a, &program).unwrap();
            let prepared = machine.prepare(&a).unwrap();
            assert!(prepared.is_for(&a), "{engine:?}");
            let second = machine.run_shared(&a, &program).unwrap();
            // The second call built nothing: the memo still holds the
            // value the first one left.
            assert!(Arc::ptr_eq(&prepared, &machine.prepare(&a).unwrap()));
            assert_eq!(first.collects, second.collects, "{engine:?}");
            assert_eq!(first.partition, second.partition, "{engine:?}");
            // Another snapshot replaces it, and gets its own partition.
            let other = machine.run_shared(&b, &program).unwrap();
            assert_eq!(other.partition.unwrap().nodes, b.node_count());
            assert!(machine.prepare(&b).unwrap().is_for(&b));
            assert!(!machine.prepare(&b).unwrap().is_for(&a));
            // A clone of a warm machine starts from the same entry.
            assert!(Arc::ptr_eq(
                &machine.prepare(&b).unwrap(),
                &machine.clone().prepare(&b).unwrap()
            ));
            assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
        }
    }

    #[test]
    fn panic_under_the_memo_or_pool_lock_does_not_stop_serving() {
        let sequential = || Snap1::builder().clusters(2).engine(EngineKind::Sequential);
        let (mut net, program) = tiny();
        let oracle = sequential().build().run(&mut net, &program).unwrap();
        let shared = Arc::new(net);
        let machine = Arc::new(sequential().build());
        // Warm: one entry in the memo, one idle state in the pool.
        machine.run_shared(&shared, &program).unwrap();
        let prepared = machine.prepare(&shared).unwrap();
        let server = Arc::clone(&machine);
        let serving = std::thread::spawn(move || {
            let _memo = server.memo.0.lock().unwrap();
            let _pool = server.pool.0.lock().unwrap();
            panic!("serving thread dies holding both locks");
        });
        assert!(serving.join().is_err());
        assert!(machine.memo.0.is_poisoned() && machine.pool.0.is_poisoned());
        assert_eq!(machine.run_shared(&shared, &program).unwrap(), oracle);
        // Both hold what they held before the panic.
        assert!(Arc::ptr_eq(&prepared, &machine.prepare(&shared).unwrap()));
        assert_eq!(format!("{:?}", machine.pool), "RunPool { idle: 1 }");
        assert!(Arc::ptr_eq(
            &prepared,
            &Snap1::clone(&machine).prepare(&shared).unwrap()
        ));
    }

    #[test]
    fn run_shared_rejects_maintenance_and_staged_links() {
        use snap_isa::Instruction;
        let (net, _) = tiny();
        let machine = Snap1::builder().clusters(2).build();
        // tiny() leaves its add_link staged: freezing it like this is the
        // caller bug SharedStagedLinks reports.
        let staged = std::sync::Arc::new(net);
        let program = Program::builder()
            .search_color(Color(1), Marker::binary(0), 0.0)
            .build();
        assert!(matches!(
            machine.run_shared(&staged, &program),
            Err(CoreError::SharedStagedLinks { staged: 1 })
        ));
        let mut net = std::sync::Arc::try_unwrap(staged).unwrap();
        net.flush_links();
        let shared = std::sync::Arc::new(net);
        let maint = Program::builder()
            .instruction(Instruction::SetColor {
                node: snap_kb::NodeId(0),
                color: Color(7),
            })
            .build();
        let err = machine.run_shared(&shared, &maint).unwrap_err();
        assert!(matches!(err, CoreError::MaintenanceOnShared { .. }));
        // The rejected program never touched the snapshot.
        assert_eq!(shared.color(snap_kb::NodeId(0)).unwrap(), Color(1));
    }

    #[test]
    fn builder_configures_geometry() {
        let m = Snap1::builder().clusters(8).mus_per_cluster(2).build();
        assert_eq!(m.config().clusters, 8);
        assert_eq!(m.config().pe_count(), 8 * 4);
        assert_eq!(m.engine(), EngineKind::Des);
    }

    #[test]
    fn default_machine_is_the_eval_array() {
        let m = Snap1::new();
        assert_eq!(m.config().clusters, 16);
        assert_eq!(m.config().pe_count(), 72);
    }
}
