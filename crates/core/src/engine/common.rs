//! Instruction execution shared by all engines.
//!
//! [`NetAccess::exec`] applies one non-propagate instruction to the
//! regions and network, returning per-cluster work counts that each
//! engine (and the CM-2 comparator) converts to time with its own cost
//! model. Keeping this logic in one place is what guarantees the
//! engines' logical results agree.

use crate::error::CoreError;
use crate::region::Region;
use crate::report::CollectOutput;
use snap_isa::{InstrClass, Instruction};
use snap_kb::{Marker, NodeId, SemanticNetwork};

/// Work performed by one cluster while executing a single instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterWork {
    /// Marker-status words manipulated.
    pub words: usize,
    /// Complex-marker value slots updated.
    pub value_ops: usize,
    /// Nodes examined (search scans).
    pub scans: usize,
    /// Items produced (collect results from this cluster).
    pub items: usize,
}

/// Outcome of executing one non-propagate instruction.
#[derive(Debug, Clone, Default)]
pub struct SingleOutcome {
    /// Per-cluster work, indexed like the regions slice.
    pub work: Vec<ClusterWork>,
    /// Retrieval output, for `COLLECT-*`.
    pub collect: Option<CollectOutput>,
    /// Controller-side maintenance operations performed (link edits,
    /// recolors).
    pub maintenance_ops: usize,
}

/// How one run reaches the knowledge base: exclusively
/// ([`Snap1::run`](crate::Snap1::run), maintenance allowed) or through a
/// shared snapshot ([`Snap1::run_shared`](crate::Snap1::run_shared),
/// which has already rejected maintenance and staged links). It is the
/// only difference between the two entry points, so each engine walks
/// the plan once, over this.
pub(crate) enum NetAccess<'a> {
    Exclusive(&'a mut SemanticNetwork),
    Shared(&'a SemanticNetwork),
}

impl NetAccess<'_> {
    /// The network, for reading.
    pub(crate) fn get(&self) -> &SemanticNetwork {
        match self {
            NetAccess::Exclusive(network) => network,
            NetAccess::Shared(network) => network,
        }
    }

    /// Executes one non-propagate instruction with the access held,
    /// into a pooled outcome: the six node-maintenance instructions
    /// edit an exclusively held network, everything else goes through
    /// [`exec_single_shared_into`].
    pub(crate) fn exec_into(
        &mut self,
        instr: &Instruction,
        regions: &mut [Region],
        out: &mut SingleOutcome,
    ) -> Result<(), CoreError> {
        let network = match self {
            NetAccess::Exclusive(network) if instr.class() == InstrClass::Maintenance => network,
            // Everything else reads the network without mutating it.
            _ => return exec_single_shared_into(instr, self.get(), regions, out),
        };
        let marked = match instr.reads_fixed()[0] {
            Some(marker) => all_active(regions, marker)?,
            None => Vec::new(),
        };
        *out = SingleOutcome {
            work: vec![ClusterWork::default(); regions.len()],
            collect: None,
            maintenance_ops: exec_maintenance(instr, network, &marked)?,
        };
        Ok(())
    }

    /// [`NetAccess::exec_into`] a fresh outcome.
    pub(crate) fn exec(
        &mut self,
        instr: &Instruction,
        regions: &mut [Region],
    ) -> Result<SingleOutcome, CoreError> {
        let mut out = SingleOutcome::default();
        self.exec_into(instr, regions, &mut out)?;
        Ok(out)
    }
}

/// Applies one node-maintenance instruction to `network`, returning the
/// number of controller-side operations performed. `marked` is where the
/// marker the instruction reads ([`Instruction::reads_fixed`]) is
/// active, ascending — gathered by the caller, because only the engine
/// knows where its regions live (one slice here, one thread per cluster
/// in the threaded engine); `CREATE`, `DELETE` and `SET-COLOR` read no
/// marker and ignore it.
///
/// # Errors
///
/// Returns [`CoreError`] for unknown nodes or missing links.
///
/// # Panics
///
/// Panics if `instr` is not a maintenance instruction.
pub(crate) fn exec_maintenance(
    instr: &Instruction,
    network: &mut SemanticNetwork,
    marked: &[NodeId],
) -> Result<usize, CoreError> {
    let ops = match instr {
        // ----- node maintenance (controller housekeeping) -----
        Instruction::Create {
            source,
            relation,
            weight,
            destination,
        } => {
            network.add_link(*source, *relation, *weight, *destination)?;
            1
        }
        Instruction::Delete {
            source,
            relation,
            destination,
        } => {
            network.remove_link(*source, *relation, *destination)?;
            1
        }
        Instruction::SetColor { node, color } => {
            network.set_color(*node, *color)?;
            1
        }

        // ----- marker node maintenance -----
        Instruction::MarkerCreate {
            forward,
            end,
            reverse,
            ..
        } => {
            for node in marked {
                network.add_link(*node, *forward, 0.0, *end)?;
                network.add_link(*end, *reverse, 0.0, *node)?;
            }
            marked.len() * 2
        }
        Instruction::MarkerDelete {
            forward,
            end,
            reverse,
            ..
        } => {
            for node in marked {
                network.remove_link(*node, *forward, *end)?;
                network.remove_link(*end, *reverse, *node)?;
            }
            marked.len() * 2
        }
        Instruction::MarkerSetColor { color, .. } => {
            for node in marked {
                network.set_color(*node, *color)?;
            }
            marked.len()
        }

        _ => unreachable!("not a maintenance instruction"),
    };
    // Keep the relation table's contiguous index complete so the next
    // propagation phase stays on the slice-lookup fast path.
    network.flush_links();
    Ok(ops)
}

/// Applies one non-propagate, non-maintenance instruction to `regions`
/// against an immutably borrowed network — the instruction subset a
/// shared-snapshot run ([`crate::Snap1::run_shared`]) may execute —
/// writing into a pooled [`SingleOutcome`]: the work vector keeps its
/// capacity across calls, so a steady-state serving loop allocates
/// nothing for collect-free instructions.
///
/// # Errors
///
/// Returns [`CoreError::MaintenanceOnShared`] for the six
/// node-maintenance instructions, and otherwise unknown nodes and
/// out-of-range markers.
///
/// # Panics
///
/// Panics if called with a `PROPAGATE` instruction — propagation goes
/// through each engine's phase executor.
pub(crate) fn exec_single_shared_into(
    instr: &Instruction,
    network: &SemanticNetwork,
    regions: &mut [Region],
    out: &mut SingleOutcome,
) -> Result<(), CoreError> {
    out.work.clear();
    out.work.resize(regions.len(), ClusterWork::default());
    // A leftover collect buffer (the sequential walker pre-seeds one
    // from the reports it is handed) is recycled by the collect arms
    // below; any other instruction discards it.
    let spare = out.collect.take();
    out.maintenance_ops = 0;
    match instr {
        Instruction::Propagate { .. } => {
            panic!("PROPAGATE must be executed by a propagation phase")
        }

        // ----- node maintenance: would mutate the shared network -----
        Instruction::Create { .. }
        | Instruction::Delete { .. }
        | Instruction::SetColor { .. }
        | Instruction::MarkerCreate { .. }
        | Instruction::MarkerDelete { .. }
        | Instruction::MarkerSetColor { .. } => {
            return Err(CoreError::MaintenanceOnShared {
                mnemonic: instr.mnemonic(),
            });
        }

        // ----- search -----
        Instruction::SearchNode {
            node,
            marker,
            value,
        } => {
            if !network.contains(*node) {
                return Err(CoreError::Kb(snap_kb::KbError::UnknownNode(*node)));
            }
            for (c, region) in regions.iter_mut().enumerate() {
                if region.search_node(*node, *marker, *value)? {
                    out.work[c].scans = 1;
                    out.work[c].value_ops = 1;
                }
            }
        }
        Instruction::SearchRelation {
            relation,
            marker,
            value,
        } => {
            for (c, region) in regions.iter_mut().enumerate() {
                let hits = region.search_relation(network, *relation, *marker, *value)?;
                out.work[c].scans = region.len();
                out.work[c].value_ops = hits;
            }
        }
        Instruction::SearchColor {
            color,
            marker,
            value,
        } => {
            for (c, region) in regions.iter_mut().enumerate() {
                let hits = region.search_color(network, *color, *marker, *value)?;
                out.work[c].scans = region.len();
                out.work[c].value_ops = hits;
            }
        }

        // ----- boolean -----
        Instruction::AndMarker {
            a,
            b,
            target,
            combine,
        } => {
            for (c, region) in regions.iter_mut().enumerate() {
                let (words, values) = region.bool_op(true, *a, *b, *target, *combine)?;
                out.work[c].words = words;
                out.work[c].value_ops = values;
            }
        }
        Instruction::OrMarker {
            a,
            b,
            target,
            combine,
        } => {
            for (c, region) in regions.iter_mut().enumerate() {
                let (words, values) = region.bool_op(false, *a, *b, *target, *combine)?;
                out.work[c].words = words;
                out.work[c].value_ops = values;
            }
        }
        Instruction::NotMarker { source, target } => {
            for (c, region) in regions.iter_mut().enumerate() {
                out.work[c].words = region.not_op(*source, *target)?;
            }
        }

        // ----- set/clear -----
        Instruction::SetMarker { marker, value } => {
            for (c, region) in regions.iter_mut().enumerate() {
                out.work[c].words = region.set_marker(*marker, *value)?;
            }
        }
        Instruction::ClearMarker { marker } => {
            for (c, region) in regions.iter_mut().enumerate() {
                out.work[c].words = region.clear_marker(*marker)?;
            }
        }
        Instruction::FuncMarker { marker, func } => {
            for (c, region) in regions.iter_mut().enumerate() {
                let (active, _) = region.func_marker(*marker, *func)?;
                out.work[c].words = region.words();
                out.work[c].value_ops = active;
            }
        }

        // ----- retrieval -----
        Instruction::CollectMarker { marker } => {
            let mut all = match spare {
                Some(CollectOutput::Nodes(mut v)) => {
                    v.clear();
                    v
                }
                _ => Vec::new(),
            };
            for (c, region) in regions.iter().enumerate() {
                out.work[c].items = region.collect_marker(*marker, &mut all)?;
            }
            out.collect = Some(sorted_collect(CollectOutput::Nodes(all)));
        }
        Instruction::CollectRelation { marker, relation } => {
            let mut all = match spare {
                Some(CollectOutput::Links(mut v)) => {
                    v.clear();
                    v
                }
                _ => Vec::new(),
            };
            for (c, region) in regions.iter().enumerate() {
                out.work[c].items =
                    region.collect_relation(network, *marker, *relation, &mut all)?;
            }
            out.collect = Some(sorted_collect(CollectOutput::Links(all)));
        }
        Instruction::CollectColor { marker } => {
            let mut all = match spare {
                Some(CollectOutput::Colors(mut v)) => {
                    v.clear();
                    v
                }
                _ => Vec::new(),
            };
            for (c, region) in regions.iter().enumerate() {
                out.work[c].items = region.collect_color(network, *marker, &mut all)?;
            }
            out.collect = Some(sorted_collect(CollectOutput::Colors(all)));
        }

        // ----- explicit barrier: no marker work -----
        Instruction::Barrier => {}
    }
    Ok(())
}

/// The trace phase an instruction class belongs to. Shared by the three
/// engines so their phase sequences line up index-for-index, which is
/// what the differential harness compares.
pub(crate) fn phase_of(class: snap_isa::InstrClass) -> crate::obs::PhaseKind {
    use crate::obs::PhaseKind;
    use snap_isa::InstrClass;
    match class {
        InstrClass::Search | InstrClass::Boolean | InstrClass::SetClear => PhaseKind::Configure,
        InstrClass::Propagate => PhaseKind::Propagate,
        InstrClass::Collect => PhaseKind::Collect,
        InstrClass::Maintenance => PhaseKind::Maintenance,
        InstrClass::Barrier => PhaseKind::Barrier,
    }
}

/// Puts a retrieval gathered region by region into the order every
/// engine reports: ascending by node (then by link destination).
pub(crate) fn sorted_collect(mut out: CollectOutput) -> CollectOutput {
    match &mut out {
        // Node IDs are unique across regions (each node lives in exactly
        // one), so the allocation-free unstable sort is order-equivalent
        // to a stable one.
        CollectOutput::Nodes(v) => v.sort_unstable_by_key(|(n, _)| *n),
        // Parallel links can tie on (node, destination); the stable sort
        // preserves their CSR order.
        CollectOutput::Links(v) => v.sort_by_key(|(n, l)| (*n, l.destination)),
        CollectOutput::Colors(v) => v.sort_unstable_by_key(|(n, _)| *n),
    }
    out
}

/// All nodes where `marker` is active, across every region, ascending.
///
/// # Errors
///
/// Returns [`CoreError`] for an out-of-range marker register.
pub(crate) fn all_active(regions: &[Region], marker: Marker) -> Result<Vec<NodeId>, CoreError> {
    let mut nodes = Vec::new();
    for region in regions {
        nodes.extend(region.active_nodes_iter(marker)?);
    }
    nodes.sort_unstable();
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::NetAccess::Exclusive;
    use super::*;
    use crate::region::RegionMap;
    use snap_isa::CombineFunc;
    use snap_kb::{ClusterId, Color, NetworkConfig, PartitionScheme, RelationType};
    use std::sync::Arc;

    fn setup(clusters: usize) -> (SemanticNetwork, Vec<Region>) {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for i in 0..6 {
            net.add_named_node(format!("n{i}"), Color(i as u8 % 2))
                .unwrap();
        }
        net.add_link(NodeId(0), RelationType(1), 0.5, NodeId(1))
            .unwrap();
        let map = RegionMap::build(&net, clusters, PartitionScheme::RoundRobin);
        let regions = (0..clusters)
            .map(|c| Region::new(ClusterId(c as u8), Arc::clone(&map), &net))
            .collect();
        (net, regions)
    }

    #[test]
    fn search_node_marks_exactly_one_cluster() {
        let (mut net, mut regions) = setup(2);
        let instr = Instruction::SearchNode {
            node: NodeId(3),
            marker: Marker::binary(0),
            value: 0.0,
        };
        let out = Exclusive(&mut net).exec(&instr, &mut regions).unwrap();
        // Node 3 is odd → cluster 1 under round-robin.
        assert_eq!(out.work[0].scans, 0);
        assert_eq!(out.work[1].scans, 1);
        assert!(regions[1].test(Marker::binary(0), NodeId(3)));
    }

    #[test]
    fn search_unknown_node_errors() {
        let (mut net, mut regions) = setup(2);
        let instr = Instruction::SearchNode {
            node: NodeId(100),
            marker: Marker::binary(0),
            value: 0.0,
        };
        assert!(Exclusive(&mut net).exec(&instr, &mut regions).is_err());
    }

    #[test]
    fn boolean_runs_on_every_cluster() {
        let (mut net, mut regions) = setup(3);
        let set = Instruction::SetMarker {
            marker: Marker::binary(0),
            value: 0.0,
        };
        Exclusive(&mut net).exec(&set, &mut regions).unwrap();
        let and = Instruction::AndMarker {
            a: Marker::binary(0),
            b: Marker::binary(0),
            target: Marker::binary(1),
            combine: CombineFunc::Add,
        };
        let out = Exclusive(&mut net).exec(&and, &mut regions).unwrap();
        assert!(out.work.iter().all(|w| w.words > 0));
        let total: usize = regions.iter().map(|r| r.count(Marker::binary(1))).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn collect_merges_and_sorts_across_clusters() {
        let (mut net, mut regions) = setup(2);
        regions[1]
            .arrive(Marker::binary(0), NodeId(5), 0.0, NodeId(5))
            .unwrap();
        regions[0]
            .arrive(Marker::binary(0), NodeId(0), 0.0, NodeId(0))
            .unwrap();
        regions[1]
            .arrive(Marker::binary(0), NodeId(1), 0.0, NodeId(1))
            .unwrap();
        let instr = Instruction::CollectMarker {
            marker: Marker::binary(0),
        };
        let out = Exclusive(&mut net).exec(&instr, &mut regions).unwrap();
        let Some(CollectOutput::Nodes(nodes)) = out.collect else {
            panic!("expected node collect");
        };
        let ids: Vec<u32> = nodes.iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![0, 1, 5]);
        assert_eq!(out.work[0].items, 1);
        assert_eq!(out.work[1].items, 2);
    }

    #[test]
    fn marker_create_binds_marked_nodes() {
        let (mut net, mut regions) = setup(2);
        regions[0]
            .arrive(Marker::binary(0), NodeId(2), 0.0, NodeId(2))
            .unwrap();
        regions[1]
            .arrive(Marker::binary(0), NodeId(3), 0.0, NodeId(3))
            .unwrap();
        let fwd = RelationType(10);
        let rev = RelationType(11);
        let instr = Instruction::MarkerCreate {
            marker: Marker::binary(0),
            forward: fwd,
            end: NodeId(5),
            reverse: rev,
        };
        let out = Exclusive(&mut net).exec(&instr, &mut regions).unwrap();
        assert_eq!(out.maintenance_ops, 4);
        assert_eq!(net.links_by(NodeId(2), fwd).count(), 1);
        assert_eq!(net.links_by(NodeId(5), rev).count(), 2);
        // And MARKER-DELETE undoes it.
        let del = Instruction::MarkerDelete {
            marker: Marker::binary(0),
            forward: fwd,
            end: NodeId(5),
            reverse: rev,
        };
        Exclusive(&mut net).exec(&del, &mut regions).unwrap();
        assert_eq!(net.links_by(NodeId(5), rev).count(), 0);
    }

    #[test]
    fn maintenance_edits_network() {
        let (mut net, mut regions) = setup(1);
        let create = Instruction::Create {
            source: NodeId(2),
            relation: RelationType(7),
            weight: 1.0,
            destination: NodeId(3),
        };
        Exclusive(&mut net).exec(&create, &mut regions).unwrap();
        assert_eq!(net.links_by(NodeId(2), RelationType(7)).count(), 1);
        let recolor = Instruction::SetColor {
            node: NodeId(2),
            color: Color(9),
        };
        Exclusive(&mut net).exec(&recolor, &mut regions).unwrap();
        assert_eq!(net.color(NodeId(2)).unwrap(), Color(9));
        let delete = Instruction::Delete {
            source: NodeId(2),
            relation: RelationType(7),
            destination: NodeId(3),
        };
        Exclusive(&mut net).exec(&delete, &mut regions).unwrap();
        assert_eq!(net.links_by(NodeId(2), RelationType(7)).count(), 0);
    }

    #[test]
    fn shared_exec_rejects_maintenance_with_mnemonic() {
        let (net, mut regions) = setup(1);
        let create = Instruction::Create {
            source: NodeId(2),
            relation: RelationType(7),
            weight: 1.0,
            destination: NodeId(3),
        };
        let err = NetAccess::Shared(&net)
            .exec(&create, &mut regions)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::MaintenanceOnShared {
                mnemonic: create.mnemonic()
            }
        );
        let recolor = Instruction::MarkerSetColor {
            marker: Marker::binary(0),
            color: Color(1),
        };
        assert!(matches!(
            NetAccess::Shared(&net).exec(&recolor, &mut regions),
            Err(CoreError::MaintenanceOnShared { .. })
        ));
    }

    #[test]
    fn shared_exec_matches_exec_single_on_read_only_instrs() {
        let (mut net, mut regions) = setup(2);
        let (net2, mut regions2) = setup(2);
        let instrs = [
            Instruction::SearchColor {
                color: Color(0),
                marker: Marker::binary(0),
                value: 0.0,
            },
            Instruction::NotMarker {
                source: Marker::binary(0),
                target: Marker::binary(1),
            },
            Instruction::CollectMarker {
                marker: Marker::binary(1),
            },
        ];
        for instr in &instrs {
            let a = Exclusive(&mut net).exec(instr, &mut regions).unwrap();
            let b = NetAccess::Shared(&net2).exec(instr, &mut regions2).unwrap();
            assert_eq!(a.work, b.work);
            assert_eq!(format!("{:?}", a.collect), format!("{:?}", b.collect));
        }
    }

    #[test]
    #[should_panic(expected = "PROPAGATE must be executed")]
    fn propagate_rejected() {
        let (mut net, mut regions) = setup(1);
        let instr = Instruction::Propagate {
            source: Marker::binary(0),
            target: Marker::binary(1),
            rule: snap_isa::PropRule::Star(RelationType(0)),
            func: snap_isa::StepFunc::Identity,
        };
        let _ = NetAccess::Exclusive(&mut net).exec(&instr, &mut regions);
    }
}
