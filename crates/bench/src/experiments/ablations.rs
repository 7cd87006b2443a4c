//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Tiered vs naive termination detection** — the naive (idle-only)
//!    detector falsely reports barrier completion while markers are in
//!    transit; the tiered counters never do.
//! 2. **Partitioning function** — sequential vs round-robin vs semantic
//!    allocation changes the inter-cluster message volume.
//! 3. **Marker units per cluster** — intra-cluster MIMD capacity.
//! 4. **SIMD-only (lockstep waves) vs SIMD/MIMD** — the CM-2-style
//!    per-wave round-trip on the SNAP array.

use crate::output::{ms, ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::{alpha_network, alpha_program, parse_batch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_core::{MachineConfig, NaiveSyncModel, Snap1, TieredSyncModel};
use snap_kb::PartitionScheme;

/// Measures false-completion rates of the naive detector under random
/// message schedules (the tiered detector is exact by construction).
fn sync_ablation(quick: bool, out: &mut ExperimentOutput) {
    let trials = if quick { 200 } else { 2_000 };
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    let mut naive_false = 0u64;
    let mut tiered_false = 0u64;
    let mut checks = 0u64;
    for _ in 0..trials {
        let pes = 4;
        let mut tiered = TieredSyncModel::new(pes);
        let mut naive = NaiveSyncModel::new(pes);
        let mut in_flight = 0i64;
        // Random schedule: sends, receives, busy toggles.
        for _ in 0..rng.gen_range(3..40) {
            match rng.gen_range(0..3) {
                0 => {
                    tiered.created(0);
                    in_flight += 1;
                }
                1 if in_flight > 0 => {
                    tiered.consumed(0);
                    in_flight -= 1;
                }
                _ => {
                    let pe = rng.gen_range(0..pes);
                    let idle = rng.gen_bool(0.7);
                    tiered.set_idle(pe, idle);
                    naive.set_idle(pe, idle);
                }
            }
            // A mid-schedule completion check, as the controller would.
            checks += 1;
            let truly_done = in_flight == 0;
            if naive.is_complete() && !truly_done {
                naive_false += 1;
            }
            if tiered.is_complete() && !truly_done {
                tiered_false += 1;
            }
        }
    }
    let mut table = Table::new(vec!["detector", "false completions", "checks"]);
    table.row(vec![
        "naive (idle only)".into(),
        naive_false.to_string(),
        checks.to_string(),
    ]);
    table.row(vec![
        "tiered (paper)".into(),
        tiered_false.to_string(),
        checks.to_string(),
    ]);
    out.table("tiered vs naive termination detection", table);
    out.check(
        format!("naive detector falsely completed {naive_false} times; tiered never did — "),
        tiered_false == 0 && naive_false > 0,
    );
}

/// Compares partitioning functions by inter-cluster traffic and time.
fn partition_ablation(quick: bool) -> Table {
    let (kb_nodes, sentences) = if quick { (1_200, 2) } else { (6_000, 6) };
    let mut table = Table::new(vec!["partition", "messages", "propagate ms"]);
    for (name, scheme) in [
        ("sequential", PartitionScheme::Sequential),
        ("round-robin", PartitionScheme::RoundRobin),
        ("semantic", PartitionScheme::Semantic),
    ] {
        let machine = Snap1::builder().clusters(16).partition(scheme).build();
        let results = parse_batch(kb_nodes, sentences, &machine, 0xAB1B).expect("parse");
        let msgs: u64 = results
            .iter()
            .map(|r| r.report.traffic.total_messages)
            .sum();
        let prop: u64 = results
            .iter()
            .map(|r| r.report.time_of(snap_isa::InstrClass::Propagate))
            .sum();
        table.row(vec![name.into(), msgs.to_string(), ms(prop)]);
    }
    table
}

/// Sweeps marker units per cluster at fixed cluster count.
fn mu_ablation(out: &mut ExperimentOutput) {
    let mut table = Table::new(vec!["MUs/cluster", "PEs", "time ms"]);
    let mut times = Vec::new();
    for mus in [1usize, 2, 3] {
        let config = MachineConfig::uniform(8, mus);
        let pes = config.pe_count();
        let machine = Snap1::builder().config(config).build();
        let mut net = alpha_network(256, 10).expect("network");
        let t = machine
            .run(&mut net, &alpha_program())
            .expect("run")
            .time_of(snap_isa::InstrClass::Propagate);
        table.row(vec![mus.to_string(), pes.to_string(), ms(t)]);
        times.push(t as f64);
    }
    out.table("marker units per cluster", table);
    out.check(
        format!(
            "more MUs per cluster shorten propagation (1→3 MUs: ×{}) — ",
            ratio(times[0] / times[2]),
        ),
        times[2] < times[0] * 0.6,
    );
}

/// ICN buffering capacity: the network must absorb marker bursts or
/// senders block (§II-C, Fig. 8).
fn icn_buffer_ablation(quick: bool, out: &mut ExperimentOutput) {
    let (kb_nodes, sentences) = if quick { (1_200, 2) } else { (4_000, 4) };
    let mut table = Table::new(vec!["outbox slots", "blocked sends", "total ms"]);
    let mut rows = Vec::new();
    for capacity in [4usize, 64, 1024] {
        let machine = Snap1::builder()
            .clusters(16)
            .partition(PartitionScheme::RoundRobin)
            .cu_outbox_capacity(capacity)
            .build();
        let results = parse_batch(kb_nodes, sentences, &machine, 0xAB1D).expect("parse");
        let blocked: u64 = results.iter().map(|r| r.report.traffic.blocked_sends).sum();
        let t: u64 = results.iter().map(|r| r.report.total_ns).sum();
        table.row(vec![capacity.to_string(), blocked.to_string(), ms(t)]);
        rows.push((blocked, t));
    }
    out.table("ICN burst-buffer capacity", table);
    out.check(
        format!(
            "a cramped outbox blocks senders ({} blocked at 4 slots vs {} at 1024) and \
             cannot be faster — ",
            rows[0].0, rows[2].0,
        ),
        rows[0].0 > rows[2].0 && rows[0].1 >= rows[2].1,
    );
}

/// Lockstep (SIMD-only) vs MIMD propagation on the same array.
fn lockstep_ablation(quick: bool, out: &mut ExperimentOutput) {
    let (kb_nodes, sentences) = if quick { (1_200, 2) } else { (4_000, 4) };
    let mut table = Table::new(vec!["mode", "total ms"]);
    let mut times = Vec::new();
    for (name, lockstep) in [
        ("MIMD (SNAP-1)", false),
        ("lockstep waves (SIMD-only)", true),
    ] {
        let machine = Snap1::builder()
            .clusters(16)
            .lockstep_waves(lockstep)
            .build();
        let results = parse_batch(kb_nodes, sentences, &machine, 0xAB1C).expect("parse");
        let t: u64 = results.iter().map(|r| r.report.total_ns).sum();
        table.row(vec![name.into(), ms(t)]);
        times.push(t as f64);
    }
    out.table("MIMD vs lockstep propagation", table);
    out.check(
        format!(
            "selective MIMD propagation beats per-wave round-trips ×{} — ",
            ratio(times[1] / times[0]),
        ),
        times[1] > times[0],
    );
}

/// Runs all ablations.
///
/// # Panics
///
/// Panics if a run fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("ablations", "Design-choice ablations");
    sync_ablation(quick, &mut out);
    out.table(
        "partitioning function vs traffic",
        partition_ablation(quick),
    );
    mu_ablation(&mut out);
    lockstep_ablation(quick, &mut out);
    icn_buffer_ablation(quick, &mut out);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_ablations_hold() {
        crate::experiments::assert_quick_run_holds("ablations");
    }
}
