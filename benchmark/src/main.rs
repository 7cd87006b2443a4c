//! The repository benchmark. One command per workload checks outputs,
//! then prints every metric by name with its unit; the last line of
//! standard output is the result object the driver reads.
//!
//! ```text
//! snap-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
//! snap-benchmark --self-check [--workload <name>]
//! snap-benchmark --set <runs> --out <file> [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! snap-benchmark --compare <a.json> <b.json> [--spec BENCHMARK.json]
//! snap-benchmark --print-spec
//! ```

mod gen;
mod host;
mod json;
mod loops;
mod probe;
mod run;
mod sets;
mod spec;
mod stats;
mod trace;
mod world;

use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use world::Workload;

/// Seconds the phases share under `--smoke` (about 0.3 s each).
const SMOKE_SECONDS: f64 = 0.6;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    self_check: bool,
    print_spec: bool,
    set: Option<usize>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    spec: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--corrupt" => a.corrupt = true,
            "--self-check" => a.self_check = true,
            "--print-spec" => a.print_spec = true,
            "--set" => a.set = Some(value("--set")?.parse().map_err(|e| format!("--set: {e}"))?),
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("--compare")?),
                    PathBuf::from(value("--compare")?),
                ));
            }
            "--spec" => a.spec = Some(PathBuf::from(value("--spec")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        if self.smoke {
            SMOKE_SECONDS
        } else {
            self.seconds.unwrap_or(spec::RUN_SECONDS as f64)
        }
    }
}

/// The object the driver reads: every end-to-end metric of an untraced
/// run, every per-layer metric of a traced one.
fn result_line(out: &Outcome, trace: bool) -> String {
    let specs: &[spec::MetricSpec] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(out.metrics.get(m.name).copied().unwrap_or(0.0)),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check.failed == 0,
        out.check.attempted.max(1),
        out.check.failed,
        metrics.join(", ")
    )
}

/// The run record: everything the run measured, with where it came
/// from. One line, so a set file is a list of them.
fn record_line(name: &str, args: &Args, out: &Outcome) -> String {
    let p = host::Provenance::collect();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::num(*v)))
        .collect();
    format!(
        "{{\"record\": 1, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"disturbed\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \
         \"host_cpus\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \"metrics\": {{{}}}}}",
        json::quote(name),
        args.seed,
        json::num(args.seconds()),
        u8::from(args.trace),
        out.disturbed,
        out.check.attempted,
        out.check.failed,
        json::num(out.check.failed as f64 / out.check.attempted.max(1) as f64),
        p.host_cpus,
        json::quote(p.rustc),
        json::quote(p.profile),
        json::quote(&p.commit),
        metrics.join(", ")
    )
}

/// `benchmark/out/`, git-ignored, beside this package's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn run_workload(name: &str, workload: Workload, args: &Args) -> ExitCode {
    let out = run::run(
        workload,
        args.seed,
        Options {
            seconds: args.seconds(),
            trace: args.trace,
            corrupt: args.corrupt,
        },
    );
    for (metric, value) in &out.metrics {
        let unit = spec::metric(metric).map_or("", |m| m.unit);
        println!("{metric:<42} {value:>18.4} {unit}");
    }
    println!(
        "attempted {} succeeded {} failed {} failed_share {}{}",
        out.check.attempted,
        out.check.attempted.saturating_sub(out.check.failed),
        out.check.failed,
        out.check.failed as f64 / out.check.attempted.max(1) as f64,
        if out.disturbed {
            "  [disturbed: the host moved during this run]"
        } else {
            ""
        }
    );
    if let Some(tracer) = &out.tracer {
        let dir = out_dir();
        let path = dir.join(format!("trace-{name}-{}.json", args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!(
                "trace: {} spans ({} dropped), head written to {}",
                tracer.spans().len(),
                tracer.dropped,
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        for (layer, ns) in tracer.self_times() {
            println!(
                "self time {:<28} {:>12.3} ms",
                layer.label(),
                ns as f64 / 1e6
            );
        }
    }
    println!("{}", record_line(name, args, &out));
    println!("{}", result_line(&out, args.trace));
    if out.check.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Shows that the correctness gate bites: a child run with one memoised
/// expectation and one expected collect-length sum broken must report
/// failures and exit non-zero.
fn self_check(args: &Args) -> ExitCode {
    let names: Vec<&str> = match args.workload.as_deref() {
        Some(one) => vec![one],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in names {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--smoke", "--corrupt"])
            .output();
        let Ok(output) = output else {
            eprintln!("{name}: could not run the child");
            ok = false;
            continue;
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let failed = stdout
            .lines()
            .last()
            .and_then(|l| json::parse(l).ok())
            .and_then(|v| v.get("failed").and_then(json::Value::as_f64))
            .unwrap_or(0.0);
        let bit = failed > 0.0 && !output.status.success();
        println!(
            "{name:<20} corrupted run: failed {failed}, {} -> {}",
            output.status,
            if bit {
                "gate bites"
            } else {
                "GATE DID NOT BITE"
            }
        );
        ok &= bit;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let spec_path = args
            .spec
            .clone()
            .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
        let spec_text = std::fs::read_to_string(&spec_path).ok();
        if spec_text.is_none() {
            eprintln!(
                "note: {} not found, using the built-in bounds",
                spec_path.display()
            );
        }
        let result = read(a)
            .and_then(|ta| read(b).map(|tb| (ta, tb)))
            .and_then(|(ta, tb)| sets::compare(&ta, &tb, spec_text.as_deref()));
        return match result {
            Ok((table, bad)) => {
                print!("{table}");
                if bad {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.self_check {
        return self_check(&args);
    }
    if let Some(runs) = args.set {
        let Some(path) = &args.out else {
            eprintln!("error: --set needs --out <file>");
            return ExitCode::from(2);
        };
        return match sets::run_set(runs, args.seed, args.seconds(), args.trace).and_then(|text| {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("error: --workload <name> is required; one of:");
        for w in &spec::WORKLOADS {
            eprintln!("  {:<20} {}", w.name, w.why);
        }
        return ExitCode::from(2);
    };
    let Some(workload) = Workload::from_name(name) else {
        eprintln!("error: unknown workload `{name}`");
        return ExitCode::from(2);
    };
    run_workload(name, workload, &args)
}
