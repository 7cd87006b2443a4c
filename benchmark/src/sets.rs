//! Sets of runs. `--set N` runs every workload N times, interleaved
//! (A B C … A B C …) so that a slow minute of the host spreads over all
//! workloads instead of sinking one, and writes the run records to one
//! file; `--compare a.json b.json` holds two such files against the
//! bounds of `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::spec;
use crate::stats::{self, Better};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// Runs every workload `runs` times, interleaved, each run a child
/// process of this binary, and returns the set file's text.
///
/// # Errors
///
/// Returns the failing child's workload and status.
pub fn run_set(runs: usize, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records: Vec<String> = Vec::new();
    for round in 0..runs {
        for w in &spec::WORKLOADS {
            let output = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("{}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let record = stdout
                .lines()
                .rev()
                .find(|l| l.starts_with("{\"record\""))
                .ok_or(format!("{} printed no run record", w.name))?;
            eprintln!("round {} {:<20} {}", round + 1, w.name, output.status);
            records.push(record.to_string());
            if !output.status.success() {
                return Err(format!("{} exited with {}", w.name, output.status));
            }
        }
    }
    Ok(format!("{{\"runs\": [\n{}\n]}}\n", records.join(",\n")))
}

/// Values of one (workload, metric) across a set's runs.
type Cells = BTreeMap<(String, String), Vec<f64>>;

fn cells(set: &Value) -> Result<(Cells, u64), String> {
    let mut out = Cells::new();
    let mut failed = 0u64;
    let runs = set
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("a set file holds a `runs` array")?;
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run record names its workload")?;
        failed += run.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("a run record holds metrics")?;
        for (name, v) in metrics {
            if let Some(v) = v.as_f64() {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((out, failed))
}

/// Direction and bound per end-to-end metric, from `BENCHMARK.json`
/// text when given, else from the built-in tables.
fn bounds(spec_text: Option<&str>) -> Result<Vec<(String, Better, f64)>, String> {
    let Some(text) = spec_text else {
        return Ok(spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.better, m.bound.unwrap_or(0.0)))
            .collect());
    };
    let v = json::parse(text)?;
    v.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json holds `end_to_end`")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: `better` is higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric bound")?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// How one pairing of metric and workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// The runs spread wider than the bound and do not separate.
    Unresolved,
}

/// Median and interquartile spread (as a share of the median).
fn centre(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    let q = stats::quiet(&mut v, Better::Lower);
    (stats::quantile_sorted(&v, 0.5), q.spread)
}

/// The verdict for one pairing: `a` is the base, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, sa) = centre(a);
    let (mb, sb) = centre(b);
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    // Positive when B improves on A, as a share of A.
    let gain = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if gain < -bound {
        return Verdict::Worse;
    }
    let improved = |x: f64, y: f64| sign * (y - x) > 0.0;
    let separated = a.iter().all(|&x| b.iter().all(|&y| improved(x, y)))
        || a.iter().all(|&x| b.iter().all(|&y| improved(y, x)));
    if sa.max(sb) > bound && !separated {
        return Verdict::Unresolved;
    }
    if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares two set files; returns the table and whether any pairing is
/// worse, any exact count differs, or any operation failed.
///
/// # Errors
///
/// Returns what is malformed in the inputs.
pub fn compare(
    a_text: &str,
    b_text: &str,
    spec_text: Option<&str>,
) -> Result<(String, bool), String> {
    let (a, a_failed) = cells(&json::parse(a_text)?)?;
    let (b, b_failed) = cells(&json::parse(b_text)?)?;
    let bounds = bounds(spec_text)?;
    let mut table = String::new();
    let mut bad = a_failed + b_failed > 0;
    let _ = writeln!(
        table,
        "{:<20} {:<16} {:>14} {:>14} {:>7} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    );
    for w in &spec::WORKLOADS {
        for (metric, better, bound) in &bounds {
            let key = (w.name.to_string(), metric.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, sa) = centre(va);
            let (mb, sb) = centre(vb);
            let v = verdict(va, vb, *better, *bound);
            bad |= v == Verdict::Worse;
            let _ = writeln!(
                table,
                "{:<20} {:<16} {:>14.4} {:>14.4} {:>7.3} {:>7.3} {:>7.3} {:>6.2}  {}",
                w.name,
                metric,
                ma,
                mb,
                mb / ma,
                sa,
                sb,
                bound,
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // The simulated machine is exact: any difference is a change of
        // the model, never noise.
        for ((workload, metric), va) in a.range((w.name.to_string(), String::new())..) {
            if workload != w.name {
                break;
            }
            if !metric.starts_with("sim.") {
                continue;
            }
            let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let identical = va
                .iter()
                .chain(vb.iter())
                .all(|v| v.to_bits() == va[0].to_bits());
            bad |= !identical;
            let _ = writeln!(
                table,
                "{:<20} {:<16} {:>14} {:>14} {:>7} {:>7} {:>7} {:>6}  {}",
                w.name,
                metric,
                va[0],
                vb[0],
                "",
                "",
                "",
                "exact",
                if identical { "identical" } else { "DIFFERENT" }
            );
        }
    }
    let _ = writeln!(table, "failed operations: A {a_failed}, B {b_failed}");
    Ok((table, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let near = [101.0, 102.0, 100.0, 101.5, 100.5];
        let far_down = [80.0, 81.0, 79.0, 80.5, 79.5];
        let far_up = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &near, Better::Higher, 0.1), Verdict::Same);
        assert_eq!(verdict(&a, &far_down, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &far_up, Better::Higher, 0.1), Verdict::Better);
        // For a latency, down is better and up is worse.
        assert_eq!(verdict(&a, &far_down, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &far_up, Better::Lower, 0.1), Verdict::Worse);
        // Runs spread wider than the bound that overlap do not resolve.
        let wide_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let wide_b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            verdict(&wide_a, &wide_b, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Wide but fully separated runs do.
        let high = [200.0, 240.0, 280.0, 220.0, 260.0];
        assert_eq!(
            verdict(&wide_a, &high, Better::Higher, 0.1),
            Verdict::Better
        );
    }

    fn set(workload: &str, metric: &str, values: &[f64], sim: f64) -> String {
        let runs: Vec<String> = values
            .iter()
            .map(|v| {
                format!(
                    "{{\"record\": 1, \"workload\": \"{workload}\", \"failed\": 0, \
                     \"metrics\": {{\"{metric}\": {v}, \"sim.barriers\": {sim}}}}}"
                )
            })
            .collect();
        format!("{{\"runs\": [{}]}}", runs.join(","))
    }

    #[test]
    fn compare_reads_sets_and_flags_regressions_and_model_changes() {
        let a = set("serve-hot", "norm_ops_per_s", &[100.0, 102.0, 98.0], 7.0);
        let same = set("serve-hot", "norm_ops_per_s", &[101.0, 99.0, 100.0], 7.0);
        let slow = set("serve-hot", "norm_ops_per_s", &[70.0, 71.0, 69.0], 7.0);
        let model = set("serve-hot", "norm_ops_per_s", &[100.0, 101.0, 99.0], 8.0);
        let (table, bad) = compare(&a, &same, None).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("same") && table.contains("identical"));
        let (table, bad) = compare(&a, &slow, None).unwrap();
        assert!(bad && table.contains("worse"), "{table}");
        let (table, bad) = compare(&a, &model, None).unwrap();
        assert!(bad && table.contains("DIFFERENT"), "{table}");
        assert!(compare("{}", &a, None).is_err());
    }

    #[test]
    fn bounds_come_from_benchmark_json_when_given() {
        let text = spec::benchmark_json();
        let from_file = bounds(Some(&text)).unwrap();
        let built_in = bounds(None).unwrap();
        assert_eq!(from_file, built_in);
    }
}
