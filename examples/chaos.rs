//! Chaos: natural-language parsing under an adversarial fault schedule.
//!
//! Builds a compact NLU knowledge base, parses the same sentences twice
//! on the threaded engine — once fault-free, once under a seeded
//! [`FaultPlan`] that drops, duplicates, delays, and corrupts marker
//! messages and panics one cluster's worker thread mid-propagation —
//! and shows that the resilient protocol (checksummed envelopes,
//! ack/retry, barrier watchdog, region adoption) delivers *identical*
//! logical results, then prints the [`FaultReport`] of what it survived.
//!
//! The schedule is deterministic: the same seed and plan reproduce the
//! same injected faults on every run.
//!
//! The chaotic run is also traced: a Perfetto-loadable chrome trace
//! with one track per cluster lands in `results/chaos_trace.json`.
//!
//! ```sh
//! cargo run --release --example chaos
//! ```

use snap_core::{EngineKind, FaultPlan, Snap1};
use snap_kb::PartitionScheme;
use snap_nlu::{DomainSpec, MemoryBasedParser, SentenceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Injected worker panics are caught and recovered by the engine;
    // a quiet hook keeps their backtraces out of the demo output.
    std::panic::set_hook(Box::new(|info| {
        eprintln!(
            "  [worker panicked: {}]",
            info.payload_as_str().unwrap_or("?")
        );
    }));

    println!("building a 3K-node NLU knowledge base...");
    let kb = DomainSpec::sized(3_000).build()?;
    let parser = MemoryBasedParser::new(&kb);
    let mut generator = SentenceGenerator::new(&kb, 1991);
    let sentences: Vec<_> = (0..3).map(|_| generator.generate(6)).collect();

    let builder = || {
        Snap1::builder()
            .clusters(8)
            .partition(PartitionScheme::RoundRobin)
            .engine(EngineKind::Threaded)
    };

    // Reference: fault-free threaded parse.
    let clean_machine = builder().build();
    let mut clean_net = kb.network.clone();
    let mut clean_results = Vec::new();
    for s in &sentences {
        clean_results.push(parser.parse(&mut clean_net, &clean_machine, s)?);
    }

    // The adversary: every fault class at once, plus a worker panic.
    let plan = FaultPlan::seeded(0x5AFE)
        .drops(0.15)
        .duplicates(0.10)
        .delays(0.20, 1_000_000) // up to 1 ms extra in-flight latency
        .corruptions(0.10)
        .stalls(0.05, 50_000)
        .worker_panic(3, 40);
    println!("\ninjecting: {plan:?}\n");
    // Full event tracing on the chaotic run only.
    let chaos_machine = builder()
        .faults(plan)
        .trace(snap_core::ObsConfig::full())
        .build();
    let mut chaos_net = kb.network.clone();

    let mut survived = snap_core::FaultReport::default();
    let mut last_trace = snap_core::TraceReport::default();
    for (i, s) in sentences.iter().enumerate() {
        let clean = &clean_results[i];
        let chaotic = parser.parse(&mut chaos_net, &chaos_machine, s)?;
        // Identical logical results, clause by clause.
        for (c, (a, b)) in clean.clauses.iter().zip(&chaotic.clauses).enumerate() {
            assert_eq!(
                a.winners,
                b.winners,
                "S{} clause {}: faults changed the interpretation",
                i + 1,
                c + 1
            );
        }
        let winner = chaotic
            .clauses
            .first()
            .and_then(|c| c.winners.first())
            .and_then(|&(root, _)| kb.network.name(root));
        println!(
            "S{}: \"{}\" -> {} (same as fault-free)",
            i + 1,
            s.text(),
            winner.unwrap_or("<no interpretation>")
        );
        survived = survived.merged(&chaotic.report.faults);
        last_trace = chaotic.report.trace;
    }

    println!("\nevery parse matched the fault-free run. survived:");
    println!("{survived}");
    assert!(
        survived.total_injected() > 0,
        "the schedule injected faults"
    );

    // Dump the last parse's events as a chrome trace (one track per
    // cluster) and print the compact phase summary.
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("chaos_trace.json");
    std::fs::write(&path, snap_core::chrome_trace_json(&last_trace))?;
    println!("\n{}", last_trace.summary());
    println!(
        "perfetto trace written to {} — open it at https://ui.perfetto.dev",
        path.display()
    );
    Ok(())
}
