//! Workload generators for the evaluation experiments.

use snap_core::{CoreError, RunReport, Snap1};
use snap_isa::{CombineFunc, Program, PropRule, StepFunc};
use snap_kb::{Color, KbError, Marker, NetworkConfig, NodeId, RelationType, SemanticNetwork};
use snap_nlu::{DomainSpec, LinguisticKb, MemoryBasedParser, ParseResult, SentenceGenerator};

/// Relation used by the synthetic propagation workloads.
pub const CHAIN_REL: RelationType = RelationType(40);

/// Color of the source nodes in the α workload.
pub const SRC_COLOR: Color = Color(10);

/// Builds the α-parallelism workload: `alpha` independent chains of
/// `depth` links each, heads colored [`SRC_COLOR`]. A single `PROPAGATE`
/// then has exactly `alpha` simultaneous source activations.
///
/// # Errors
///
/// Returns [`KbError`] if the network capacity is exceeded.
pub fn alpha_network(alpha: usize, depth: usize) -> Result<SemanticNetwork, KbError> {
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    // Interleave chain nodes so every partition scheme spreads the
    // chains across clusters: node (level, chain) = level*alpha + chain.
    for level in 0..=depth {
        for _chain in 0..alpha {
            let color = if level == 0 { SRC_COLOR } else { Color(0) };
            net.add_node(color)?;
        }
    }
    for level in 0..depth {
        for chain in 0..alpha {
            let from = NodeId((level * alpha + chain) as u32);
            let to = NodeId(((level + 1) * alpha + chain) as u32);
            net.add_link(from, CHAIN_REL, 1.0, to)?;
        }
    }
    Ok(net)
}

/// The α workload program: one propagation from all `SRC_COLOR` nodes.
pub fn alpha_program() -> Program {
    Program::builder()
        .search_color(SRC_COLOR, Marker::binary(0), 0.0)
        .propagate(
            Marker::binary(0),
            Marker::complex(1),
            PropRule::Star(CHAIN_REL),
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(1))
        .build()
}

/// Builds the β-parallelism workload: `beta` disjoint chain groups,
/// group `i` headed by `alpha_each` sources of color `10 + i`.
///
/// # Errors
///
/// Returns [`KbError`] if the network capacity is exceeded.
///
/// # Panics
///
/// Panics if `beta` exceeds 64 (the marker register file).
pub fn beta_network(
    beta: usize,
    alpha_each: usize,
    depth: usize,
) -> Result<SemanticNetwork, KbError> {
    assert!(beta <= 64, "β exceeds the marker register file");
    let mut net = SemanticNetwork::new(NetworkConfig::default());
    let chains = beta * alpha_each;
    for level in 0..=depth {
        for chain in 0..chains {
            let color = if level == 0 {
                Color(10 + (chain % beta) as u8)
            } else {
                Color(0)
            };
            net.add_node(color)?;
        }
    }
    for level in 0..depth {
        for chain in 0..chains {
            let from = NodeId((level * chains + chain) as u32);
            let to = NodeId(((level + 1) * chains + chain) as u32);
            net.add_link(from, CHAIN_REL, 1.0, to)?;
        }
    }
    Ok(net)
}

/// The β workload program: `beta` independent overlapped propagations.
pub fn beta_program(beta: usize) -> Program {
    let mut b = Program::builder();
    for i in 0..beta {
        b = b.search_color(Color(10 + i as u8), Marker::binary(i as u8), 0.0);
    }
    for i in 0..beta {
        b = b.propagate(
            Marker::binary(i as u8),
            Marker::complex(i as u8),
            PropRule::Star(CHAIN_REL),
            StepFunc::AddWeight,
        );
    }
    b.collect_marker(Marker::complex(0)).build()
}

/// A PASS-like speech-understanding program over a linguistic knowledge
/// base: a word lattice with several competing hypotheses per time slot.
/// Each slot's hypotheses propagate with independent markers (they
/// overlap), then the slots are merged — giving the inter-propagation
/// parallelism profile the paper reports for PASS (β between ~3 and 6).
pub fn speech_program(kb: &LinguisticKb, slots: &[usize]) -> Program {
    use snap_nlu::kb::rel;
    let nouns = kb.words(snap_nlu::PartOfSpeech::Noun);
    let mut b = Program::builder();
    let mut m = 0usize;
    let mut slot_markers = Vec::new();
    for (s, &hyps) in slots.iter().enumerate() {
        let mut markers = Vec::new();
        // Activate the competing word hypotheses of this slot.
        for h in 0..hyps {
            let word = &nouns[(s * 7 + h * 3) % nouns.len()];
            let node = kb.word(word).expect("generated vocabulary");
            b = b
                .clear_marker(Marker::binary(m as u8))
                .clear_marker(Marker::complex(m as u8))
                .search_node(node, Marker::binary(m as u8), (h as f32) * 0.1);
            markers.push(m);
            m += 1;
        }
        // All hypotheses of the slot propagate concurrently (β group).
        for &i in &markers {
            b = b.propagate(
                Marker::binary(i as u8),
                Marker::complex(i as u8),
                PropRule::Spread(rel::IS_A, rel::ELEM_OF),
                StepFunc::AddWeight,
            );
        }
        // Merge the slot's hypotheses (closes the group).
        let merged = Marker::complex((56 + s % 8) as u8);
        b = b.clear_marker(merged);
        let first = Marker::complex(markers[0] as u8);
        b = b.or_marker(first, first, merged, CombineFunc::Min);
        for &i in &markers[1..] {
            b = b.or_marker(merged, Marker::complex(i as u8), merged, CombineFunc::Min);
        }
        slot_markers.push(merged);
    }
    // Intersect adjacent slots (sequence constraints).
    let result = Marker::complex(55);
    b = b.clear_marker(result);
    if slot_markers.len() >= 2 {
        b = b.and_marker(slot_markers[0], slot_markers[1], result, CombineFunc::Add);
        for &mk in &slot_markers[2..] {
            b = b.and_marker(result, mk, result, CombineFunc::Add);
        }
    } else {
        b = b.or_marker(slot_markers[0], slot_markers[0], result, CombineFunc::Min);
    }
    b.collect_marker(result).build()
}

/// Parses `n_sentences` generated sentences on `machine` over a fresh
/// knowledge base of `kb_nodes` nodes; returns the per-sentence results.
///
/// # Errors
///
/// Returns [`CoreError`] if a compiled parse program fails.
pub fn parse_batch(
    kb_nodes: usize,
    n_sentences: usize,
    machine: &Snap1,
    seed: u64,
) -> Result<Vec<ParseResult>, CoreError> {
    let mut kb = DomainSpec::sized(kb_nodes).build().map_err(CoreError::Kb)?;
    let parser = MemoryBasedParser::new(&kb);
    let kb_ro = kb.clone();
    let mut generator = SentenceGenerator::new(&kb_ro, seed);
    let mut results = Vec::with_capacity(n_sentences);
    for i in 0..n_sentences {
        let sentence = generator.generate(8 + (i % 3) * 8);
        results.push(parser.parse(&mut kb.network, machine, &sentence)?);
    }
    Ok(results)
}

/// The per-class instruction counts and times of a [`parse_batch`],
/// summed into one report.
pub fn class_profile(results: &[ParseResult]) -> RunReport {
    let mut total = RunReport::default();
    for r in results {
        for (&class, &n) in &r.report.class_counts {
            *total.class_counts.entry(class).or_insert(0) += n;
        }
        for (&class, &ns) in &r.report.class_time_ns {
            *total.class_time_ns.entry(class).or_insert(0) += ns;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::EngineKind;
    use snap_isa::analyze_beta;

    #[test]
    fn alpha_network_has_exact_sources() {
        let net = alpha_network(50, 4).unwrap();
        assert_eq!(net.node_count(), 50 * 5);
        assert_eq!(net.nodes_with_color(SRC_COLOR).count(), 50);
        let machine = Snap1::builder().clusters(4).build();
        let mut net = net;
        let report = machine.run(&mut net, &alpha_program()).unwrap();
        assert_eq!(report.alpha_per_propagate, vec![50]);
        assert_eq!(report.collects[0].len(), 50 * 4);
    }

    #[test]
    fn beta_program_overlaps_as_designed() {
        let program = beta_program(6);
        let stats = analyze_beta(&program);
        assert_eq!(stats.beta_max(), 6);
        let mut net = beta_network(6, 4, 3).unwrap();
        let machine = Snap1::builder().clusters(4).build();
        let report = machine.run(&mut net, &program).unwrap();
        assert_eq!(report.alpha_per_propagate.len(), 6);
        assert!(report.alpha_per_propagate.iter().all(|&a| a == 4));
    }

    #[test]
    fn speech_program_beta_profile_matches_pass() {
        let kb = DomainSpec::sized(2000).build().unwrap();
        let program = speech_program(&kb, &[3, 5, 6, 3, 4]);
        let stats = analyze_beta(&program);
        assert!(stats.beta_max() >= 5, "βmax {}", stats.beta_max());
        assert!(stats.beta_min() >= 1);
        assert!(stats.beta_avg() >= 2.5, "βavg {}", stats.beta_avg());
        // And it actually runs.
        let mut kb = kb;
        let machine = Snap1::builder().clusters(4).engine(EngineKind::Des).build();
        machine.run(&mut kb.network, &program).unwrap();
    }

    #[test]
    fn parse_batch_runs() {
        let machine = Snap1::builder().clusters(2).build();
        let results = parse_batch(1000, 3, &machine, 5).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.mb_time_ns > 0));
    }
}
