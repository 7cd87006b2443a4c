//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, with units, directions and bounds. `BENCHMARK.json` is
//! printed from these tables (`--print-spec`), and a unit test holds
//! the checked-in file to them.

use crate::json::quote;
use crate::stats::Better;
use std::fmt::Write as _;

/// One workload: its name and why it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The workloads, in the order sets of runs interleave them.
pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "serve-distinct",
        why: "closed loop, uniform over 1,320 noun seeds: nothing coalesces, so the sliced kernel, CSR row probes and collect do the work",
    },
    WorkloadSpec {
        name: "serve-hot",
        why: "closed loop, Zipf(1.2) over 32 seeds: lanes collapse, so admission, batch formation, coalescing and report sharing dominate",
    },
    WorkloadSpec {
        name: "serve-open-mixed",
        why: "open loop, three shapes 60/30/10: 32-query bursts every 2 ms give queueing latency, then 200k qps into a 64-slot queue gives shedding and goodput",
    },
    WorkloadSpec {
        name: "solo-shared",
        why: "Snap1::run_shared one call per query, no serving layer: per-call region map, partition stats and region set-up dominate",
    },
    WorkloadSpec {
        name: "engine-wave-seq",
        why: "one 20,000-node wave per run on the sequential engine: the K=1 wave kernel alone, serving and set-up bypassed",
    },
    WorkloadSpec {
        name: "engine-wave-des",
        why: "the same wave on the 16-cluster discrete-event simulator: event queue, regions and the modelled network and barriers",
    },
    WorkloadSpec {
        name: "parse-newswire-seq",
        why: "24 generated sentences through the memory-based parser on the sequential engine: many short instructions around small propagations",
    },
    WorkloadSpec {
        name: "parse-newswire-des",
        why: "the same sentences on the 16-cluster simulator, the paper's headline application: controller and per-run set-up on the simulated machine",
    },
];

/// One metric: name, unit, direction, and for end-to-end metrics the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit, in the contract's alphabet.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off. Every
/// workload reports every one (an operation is a query, a wave run or a
/// sentence, as the workload defines).
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("norm_ops_per_s", "1/s", Higher, 0.25),
    e2e("norm_p50_us", "us", Lower, 0.25),
    e2e("norm_p90_us", "us", Lower, 0.25),
];

/// Single-layer metrics from the traced run; no bounds. A metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [MetricSpec; 73] = [
    // The raw (not host-normalised) forms of the end-to-end numbers.
    layer("raw.ops_per_s", "1/s", Higher),
    layer("raw.p50_us", "us", Lower),
    layer("raw.p90_us", "us", Lower),
    // Host and harness: they say whether the run was disturbed.
    layer("host.ref_per_s", "1/s", Higher),
    layer("host.peak_rss_mb", "MB", Lower),
    layer("host.calib_ns", "ns", Lower),
    layer("host.calib_drift", "ratio", Lower),
    layer("bench.slices", "count", Higher),
    layer("bench.slice_spread", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.disturbed", "count", Lower),
    layer("bench.loop_self_share", "ratio", Lower),
    // serve
    layer("serve.offer_ns", "ns", Lower),
    layer("serve.pump_ns_per_query", "ns", Lower),
    layer("serve.pump_residual_share", "ratio", Lower),
    layer("serve.batch_depth_mean", "count", Higher),
    layer("serve.lanes_per_batch_mean", "count", Lower),
    layer("serve.coalesce_share", "ratio", Higher),
    layer("serve.depth1_qps", "1/s", Higher),
    layer("serve.batch_gain", "ratio", Higher),
    layer("serve.queue_wait_us", "us", Lower),
    layer("serve.service_us", "us", Lower),
    layer("serve.batches_per_burst", "count", Lower),
    layer("serve.scan_fragment_share", "ratio", Lower),
    layer("serve.shed_share", "ratio", Lower),
    layer("serve.shed_offer_ns", "ns", Lower),
    layer("serve.open.p99_us", "us", Lower),
    layer("serve.max_rung_in_slo_qps", "1/s", Higher),
    layer("serve.gen_late_p99_us", "us", Lower),
    layer("serve.gen_late_max_us", "us", Lower),
    layer("serve.server_new_us", "us", Lower),
    layer("serve.pool_size", "count", Lower),
    // core.kernel
    layer("core.kernel.sliced_ns_per_expansion", "ns", Lower),
    layer("core.kernel.sliced_expansions_per_query", "count", Lower),
    layer("core.kernel.sliced_visited_per_query", "count", Lower),
    layer("core.kernel.wave_ns_per_expansion", "ns", Lower),
    layer("core.kernel.waves", "count", Lower),
    layer("core.kernel.pull_waves", "count", Lower),
    // core.propagate
    layer("core.propagate.expand_ns", "ns", Lower),
    layer("core.propagate.visit_ns", "ns", Lower),
    // core.region
    layer("core.region.map_build_us", "us", Lower),
    layer("core.region.new_us", "us", Lower),
    layer("core.region.collect_ns_per_node", "ns", Lower),
    // core engines
    layer("core.seq.run_shared_us", "us", Lower),
    layer("core.seq.setup_share", "ratio", Lower),
    layer("core.des.run_us", "us", Lower),
    layer("core.des.host_ns_per_sim_us", "ns", Lower),
    layer("core.threaded.run_us_c1", "us", Lower),
    layer("core.threaded.run_us_c2", "us", Lower),
    // The modelled hardware, from the simulator's RunReport: exact, and
    // identical across two commits unless the model itself changed.
    layer("sim.us_per_op", "sim_us", Lower),
    layer("sim.expansions", "count", Lower),
    layer("sim.barriers", "count", Lower),
    layer("sim.messages", "count", Lower),
    layer("sim.hops", "count", Lower),
    layer("sim.blocked_sends", "count", Lower),
    layer("sim.broadcast_ns", "sim_ns", Lower),
    layer("sim.communication_ns", "sim_ns", Lower),
    layer("sim.sync_ns", "sim_ns", Lower),
    layer("sim.collect_ns", "sim_ns", Lower),
    // kb
    layer("kb.row_probe_ns", "ns", Lower),
    layer("kb.links_per_probe", "count", Lower),
    layer("kb.flush_links_ms", "ms", Lower),
    layer("kb.partition_build_ms", "ms", Lower),
    layer("kb.partition_stats_us", "us", Lower),
    // nlu
    layer("nlu.kb_build_ms", "ms", Lower),
    layer("nlu.phrasal_us", "us", Lower),
    layer("nlu.compile_us", "us", Lower),
    layer("nlu.machine_run_us", "us", Lower),
    layer("nlu.extract_us", "us", Lower),
    layer("nlu.instrs_per_sentence", "count", Lower),
    // isa
    layer("isa.program_clone_ns", "ns", Lower),
    layer("isa.program_eq_ns", "ns", Lower),
    layer("isa.rule_compile_ns", "ns", Lower),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// Looks an end-to-end or per-layer metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            quote(w.name),
            quote(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            quote(m.name),
            quote(m.unit),
            quote(better_str(m.better)),
            m.bound.expect("end-to-end metrics carry a bound"),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            quote(m.name),
            quote(m.unit),
            quote(better_str(m.better)),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = std::collections::HashSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            json::parse(&text).unwrap(),
            json::parse(&benchmark_json()).unwrap(),
            "regenerate with `--print-spec > BENCHMARK.json`"
        );
        let v = json::parse(&text).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
