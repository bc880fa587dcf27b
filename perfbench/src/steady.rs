//! Steadiness mode: run one workload several times with consecutive seeds
//! and compare each end-to-end metric's spread with its bound.
//!
//! ```text
//! perfbench steady --workload <name> [--runs 10] [--first-seed 1] [--seconds <s>] [--sets 1]
//! ```
//!
//! For every metric it prints the median, the quartiles (as Python's
//! `statistics.quantiles(values, n=4)` computes them), and the
//! interquartile range as a share of the median next to the metric's
//! `bound` from `BENCHMARK.json`. A spread above the bound is flagged, and
//! so, with `--sets 2`, is a second set whose median is worse than the
//! first's by more than the bound. Any flag, failed run or failed output
//! check makes the exit code 1.

use crate::summary::{median, quartiles, relative_iqr};
use statvs::serve::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// A metric's declared gate.
struct Gate {
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn gates(bench: &Json) -> BTreeMap<String, Gate> {
    bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                Gate {
                    unit: m.get("unit")?.as_str()?.to_string(),
                    lower_is_better: m.get("better")?.as_str()? == "lower",
                    bound: m.get("bound")?.as_f64()?,
                },
            ))
        })
        .collect()
}

/// Runs the benchmark once, untraced, and returns its metrics, or why it
/// failed.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("unreadable result line: {e}"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run failed ({}): {last}", output.status));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

pub fn main(args: &[String]) -> ExitCode {
    match steady(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            ExitCode::from(2)
        }
    }
}

fn steady(args: &[String]) -> Result<bool, String> {
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        flag_value(args, flag).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{flag} {v}: {e}"))
        })
    };
    let workload = flag_value(args, "--workload").ok_or("--workload is required")?;
    let bench_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let bench = Json::parse(&bench_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let default_seconds = bench
        .get("run_seconds")
        .and_then(Json::as_u64)
        .unwrap_or(10);
    let runs = number("--runs", 10)?;
    let first_seed = number("--first-seed", 1)?;
    let seconds = number("--seconds", default_seconds)?;
    let sets = number("--sets", 1)?.max(1);
    let gates = gates(&bench);

    let mut ok = true;
    let mut set_medians: Vec<BTreeMap<String, f64>> = Vec::new();
    for set in 0..sets {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seed = first_seed + set * runs + i;
            match run_once(&workload, seed, seconds) {
                Ok(metrics) => {
                    for (name, v) in metrics {
                        values.entry(name).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("seed {seed}: {e}");
                    ok = false;
                }
            }
        }
        println!(
            "{workload}: set {} of {sets}, {runs} runs of {seconds} s from seed {}",
            set + 1,
            first_seed + set * runs
        );
        println!(
            "{:<26} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
            "metric", "median", "q1", "q3", "rel_iqr", "bound"
        );
        let mut medians = BTreeMap::new();
        for (name, v) in &values {
            let gate = gates.get(name);
            let (Some(med), Some([q1, _, q3])) = (median(v), quartiles(v)) else {
                continue;
            };
            medians.insert(name.clone(), med);
            let spread = relative_iqr(v);
            let bound = gate.map(|g| g.bound);
            let verdict = match (spread, bound) {
                (_, None) => "-",
                (None, Some(_)) => {
                    ok = false;
                    "NO SPREAD (zero median)"
                }
                (Some(s), Some(b)) if s > b => {
                    ok = false;
                    "SPREAD OVER BOUND"
                }
                (Some(s), Some(b)) if s > b / 3.0 => "over a third of bound",
                _ => "ok",
            };
            println!(
                "{:<26} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>7}  {verdict} {}",
                name,
                med,
                q1,
                q3,
                spread.unwrap_or(f64::NAN),
                bound.map_or("-".into(), |b| b.to_string()),
                gate.map_or("", |g| g.unit.as_str()),
            );
        }
        if let Some(prev) = set_medians.last() {
            for (name, &second) in &medians {
                let (Some(&first), Some(gate)) = (prev.get(name), gates.get(name)) else {
                    continue;
                };
                let bound = gate.bound;
                let worse = if gate.lower_is_better {
                    second > first * (1.0 + bound)
                } else {
                    second < first * (1.0 - bound)
                };
                let change = second / first - 1.0;
                println!(
                    "  {name}: median moved {:+.2}% from set {} (bound {:.0}%){}",
                    100.0 * change,
                    set_medians.len(),
                    100.0 * bound,
                    if worse { "  WORSE THAN BOUND" } else { "" }
                );
                ok &= !worse;
            }
        }
        set_medians.push(medians);
    }
    Ok(ok)
}
