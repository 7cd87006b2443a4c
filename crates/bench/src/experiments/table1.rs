//! Table I — design requirements and constraints, validated.
//!
//! The paper's Table I lists the capacities the prototype was designed
//! to: 32K semantic-network nodes, 256 node colors, 64K relation types,
//! 16 relation slots per node (with preprocessor splitting beyond), and
//! 64 complex + 64 binary markers per node. This experiment exercises
//! each limit on the running machine rather than just asserting the
//! constants.

use crate::output::ExperimentOutput;
use crate::table::Table;
use snap_core::{EngineKind, Snap1};
use snap_isa::{Program, PropRule, StepFunc};
use snap_kb::{
    Color, Marker, NetworkConfig, NodeId, RelationType, SemanticNetwork, SLOTS_PER_NODE,
};

/// Runs the validation.
///
/// # Panics
///
/// Panics if any requirement fails to validate (it is a test, in table
/// form).
pub fn run(quick: bool) -> ExperimentOutput {
    let mut table = Table::new(vec!["requirement", "design value", "validated"]);
    let node_target = if quick { 4_096 } else { 32 * 1024 };

    // --- capacity: N nodes, stored and processed ---
    {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for i in 0..node_target {
            net.add_node(Color((i % 256) as u8)).unwrap();
        }
        for i in 0..node_target - 1 {
            net.add_link(NodeId(i as u32), RelationType(0), 0.1, NodeId(i as u32 + 1))
                .unwrap();
        }
        assert!(
            net.add_node(Color(0)).is_err() || node_target < 32 * 1024,
            "capacity enforced at 32K"
        );
        let program = Program::builder()
            .search_node(NodeId(0), Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Star(RelationType(0)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        let machine = Snap1::builder()
            .clusters(16)
            .engine(EngineKind::Des)
            .build();
        let report = machine.run(&mut net, &program).unwrap();
        assert!(!report.collects[0].is_empty());
        table.row(vec![
            "semantic network nodes".into(),
            "32K".into(),
            format!("{node_target} stored + propagated"),
        ]);
    }

    // --- 256 colors ---
    {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        for c in 0..=255u8 {
            net.add_node(Color(c)).unwrap();
        }
        for c in [0u8, 127, 255] {
            assert_eq!(net.nodes_with_color(Color(c)).count(), 1);
        }
        table.row(vec![
            "node colors".into(),
            "256".into(),
            "all 256 colors searchable".into(),
        ]);
    }

    // --- 64K relation types ---
    {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let a = net.add_node(Color(0)).unwrap();
        let b = net.add_node(Color(0)).unwrap();
        for r in [0u16, 1_000, 65_534] {
            net.add_link(a, RelationType(r), 0.0, b).unwrap();
        }
        assert!(
            net.add_link(a, RelationType::SUBNODE, 0.0, b).is_err(),
            "the reserved type is the only excluded one"
        );
        table.row(vec![
            "relation types".into(),
            "64K".into(),
            "types up to 65534 stored; 65535 reserved".into(),
        ]);
    }

    // --- 16 relation slots with subnode splitting ---
    {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let hub = net.add_node(Color(0)).unwrap();
        for _ in 0..100 {
            let leaf = net.add_node(Color(1)).unwrap();
            net.add_link(hub, RelationType(1), 0.1, leaf).unwrap();
        }
        assert_eq!(net.fanout(hub), 100);
        assert_eq!(net.segments(hub), 100usize.div_ceil(SLOTS_PER_NODE));
        // Propagation still reaches everything through the subnodes.
        let program = Program::builder()
            .search_node(hub, Marker::binary(0), 0.0)
            .propagate(
                Marker::binary(0),
                Marker::binary(1),
                PropRule::Once(RelationType(1)),
                StepFunc::Identity,
            )
            .collect_marker(Marker::binary(1))
            .build();
        let report = Snap1::builder()
            .clusters(4)
            .build()
            .run(&mut net, &program)
            .unwrap();
        assert_eq!(report.collects[0].len(), 100);
        table.row(vec![
            "relation slots per node".into(),
            format!("{SLOTS_PER_NODE} (+subnodes)"),
            "fanout 100 split into 7 segments, fully traversed".into(),
        ]);
    }

    // --- 64 complex + 64 binary markers ---
    {
        let mut net = SemanticNetwork::new(NetworkConfig::default());
        let n = net.add_node(Color(0)).unwrap();
        let mut b = Program::builder();
        for i in 0..64u8 {
            b = b.search_node(n, Marker::complex(i), i as f32).search_node(
                n,
                Marker::binary(i),
                0.0,
            );
        }
        b = b
            .collect_marker(Marker::complex(63))
            .collect_marker(Marker::binary(63));
        let report = Snap1::builder()
            .clusters(1)
            .build()
            .run(&mut net, &b.build())
            .unwrap();
        assert_eq!(report.collects[0].len(), 1);
        assert_eq!(report.collects[1].len(), 1);
        // Register 64 is out of range.
        let bad = Program::builder()
            .set_marker(Marker::binary(64), 0.0)
            .build();
        assert!(Snap1::builder()
            .clusters(1)
            .build()
            .run(&mut net, &bad)
            .is_err());
        table.row(vec![
            "markers per node".into(),
            "64 complex + 64 binary".into(),
            "all 128 registers usable; #64 rejected".into(),
        ]);
    }

    // --- the 20-instruction ISA ---
    table.row(vec![
        "marker-propagation instructions".into(),
        "20".into(),
        "see snap-isa (exhaustively matched by every engine)".into(),
    ]);

    let mut out = ExperimentOutput::new("table1", "Design requirements (Table I), validated");
    out.table("requirement validation", table);
    out.note("every design-point capacity is enforced and exercised end-to-end");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_requirements_validate() {
        let out = crate::experiments::assert_quick_run_holds("table1");
        assert_eq!(out.tables[0].1.row_count(), 6);
    }
}
