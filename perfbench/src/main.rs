//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <snm_tail|dc_campaign|idsat_shards> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> [--runs 10] [--first-seed 1] [--seconds <s>] [--sets 1]
//! ```
//!
//! A run generates its inputs from `--seed`, runs a fixed amount of work
//! sized by `--seconds`, checks the outputs, and prints as its last stdout
//! line one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end figures; with `--trace 1`
//! they are the per-layer figures, taken from spans recorded around the
//! benchmark's calls into each layer, plus the tracing overhead. A failed
//! output check prints `correct: false` and exits with code 1.
//!
//! `steady` runs one workload several times with consecutive seeds and
//! prints, for every metric, the median, quartiles and relative
//! interquartile range against the bound in `BENCHMARK.json`.

mod checks;
mod dc_campaign;
mod http;
mod idsat_shards;
mod machine;
mod snm_tail;
mod steady;
mod summary;
mod trace;

use statvs::serve::json::{num, obj, s, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A metric
/// of a layer the workload does not exercise reads 0 (see
/// `perfbench/workloads.json` for each workload's layer map).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.extract_s", "s"),
    ("core.run_ms", "ms"),
    ("core.busy_ratio", "ratio"),
    ("core.sample_failures", "count"),
    ("circuits.bench_new_ms", "ms"),
    ("circuits.resample_us", "us"),
    ("circuits.eye_margins_us", "us"),
    ("stats.wpush_ns", "ns"),
    ("stats.payload_bytes", "bytes"),
    ("stats.decode_us", "us"),
    ("stats.merge_us", "us"),
    ("serve.boot_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.post_ms", "ms"),
    ("serve.get_ms", "ms"),
    ("serve.polls_per_request", "count"),
    ("serve.json_parse_us", "us"),
    ("serve.hex_decode_us", "us"),
    ("serve.runs_retained", "count"),
    ("serve.threads_peak", "count"),
    ("serve.rejected", "count"),
    ("fleet.campaign_ms", "ms"),
    ("fleet.shard_ms", "ms"),
    ("fleet.overhead_ms", "ms"),
    ("fleet.restore_ms", "ms"),
    ("fleet.artifact_bytes", "bytes"),
    ("fleet.reissues", "count"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["snm_tail", "dc_campaign", "idsat_shards"];

/// Parsed run arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal run length; sizes the fixed operation count.
    pub seconds: u64,
    /// Record spans and print per-layer metrics.
    pub trace: bool,
}

/// What a workload run reports: check results, accounting and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Why an output check failed; empty when every check passed.
    pub check_failures: Vec<String>,
    /// Operations attempted (samples, or requests).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: Result<(), String>) {
        if let Err(why) = ok {
            self.check_failures.push(why);
        }
    }
}

/// Mixes a run seed with a salt into an independent seed (SplitMix64
/// finalizer), kept to 53 bits so it survives a JSON number exactly.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}

/// Median of per-operation values, or 0 when none were recorded.
pub fn median_or_zero(values: &[f64]) -> f64 {
    summary::median(values).unwrap_or(0.0)
}

/// Per-name span durations (seconds) and self times, for the traced
/// metrics.
pub struct SpanTable {
    by_name: BTreeMap<&'static str, Vec<(f64, f64)>>,
}

impl SpanTable {
    /// Groups spans by name with their durations and self times.
    pub fn new(spans: &[trace::Span]) -> Self {
        let own = trace::self_times(spans);
        let mut by_name: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
        for sp in spans {
            by_name
                .entry(sp.name)
                .or_default()
                .push((sp.duration_ns() as f64 * 1e-9, own[&sp.id] as f64 * 1e-9));
        }
        SpanTable { by_name }
    }

    /// Durations of every span called `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|d| d.0).collect())
    }

    /// Median self time of spans called `name`, seconds (0 when none).
    pub fn median_self(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .by_name
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|d| d.1).collect());
        median_or_zero(&v)
    }

    /// Median duration of spans called `name`, seconds (0 when none).
    pub fn median(&self, name: &str) -> f64 {
        median_or_zero(&self.durations(name))
    }

    /// Total duration of spans called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

/// Per-operation wall times of a run, milliseconds, each with whether it
/// was traced.
#[derive(Debug, Default)]
pub struct OpTimes(Vec<(f64, bool)>);

impl OpTimes {
    /// Records one operation.
    pub fn push(&mut self, ms: f64, traced: bool) {
        self.0.push((ms, traced));
    }

    /// Moves another thread's operations into this set.
    pub fn append(&mut self, other: &mut OpTimes) {
        self.0.append(&mut other.0);
    }

    fn times(&self, traced: Option<bool>) -> Vec<f64> {
        self.0
            .iter()
            .filter(|op| traced.is_none_or(|t| op.1 == t))
            .map(|op| op.0)
            .collect()
    }

    /// Tracing overhead, percent: how much longer the median traced
    /// operation took than the median untraced one of the same run.
    pub fn overhead_pct(&self) -> f64 {
        let (t, u) = (self.times(Some(true)), self.times(Some(false)));
        match (summary::median(&t), summary::median(&u)) {
            (Some(t), Some(u)) if u > 0.0 => 100.0 * (t / u - 1.0),
            _ => 0.0,
        }
    }
}

/// Fills the end-to-end metrics of an untraced run: the median set-up,
/// samples per second of the timed loop, the p50 and p90 operation time,
/// and the peak RSS.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    samples: u64,
    wall_s: f64,
    ops: &OpTimes,
    rss_mb: f64,
) {
    let times = ops.times(None);
    let m = &mut out.metrics;
    m.insert("setup_s", median_or_zero(setup_s));
    m.insert("samples_per_s", samples as f64 / wall_s);
    m.insert("latency_ms_p50", median_or_zero(&times));
    m.insert(
        "latency_ms_p90",
        summary::tail_percentile(&times, 90.0).unwrap_or(0.0),
    );
    m.insert("peak_rss_mb", rss_mb);
}

/// Operations in a run: `per_second` for each second of `--seconds`, and
/// never fewer than 100, so that at least ten lie beyond the p90.
pub fn op_count(args: &RunArgs, per_second: u64) -> u64 {
    (args.seconds * per_second).max(100)
}

/// Ends a traced run: writes its spans inside the working directory and
/// prints, per span name, the count and the median duration and self time.
pub fn write_trace(args: &RunArgs, spans: &[trace::Span]) {
    let path = std::path::PathBuf::from(format!(
        ".perfbench/trace-{}-seed{}.tsv",
        args.workload, args.seed
    ));
    match trace::write_tsv(&path, spans) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    let table = SpanTable::new(spans);
    eprintln!(
        "{:<24} {:>8} {:>14} {:>14}",
        "span", "count", "median_ms", "self_ms"
    );
    for (name, rows) in &table.by_name {
        eprintln!(
            "{name:<24} {:>8} {:>14.4} {:>14.4}",
            rows.len(),
            table.median(name) * 1e3,
            table.median_self(name) * 1e3
        );
    }
}

/// Whether operation `k` of a traced run records spans: pairs of
/// operations alternate, so traced and untraced ones interleave on every
/// client thread and share the same drift.
pub fn traced_op(trace: bool, k: u64) -> bool {
    trace && (k / 2) % 2 == 1
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let as_u64 = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(as_u64()?),
            "--seconds" => seconds = Some(as_u64()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunArgs {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "snm_tail" => snm_tail::run(args),
        "dc_campaign" => dc_campaign::run(args),
        "idsat_shards" => idsat_shards::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn result_line(args: &RunArgs, out: &Outcome) -> Json {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            (name, obj(vec![("value", num(value)), ("unit", s(unit))]))
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(out.check_failures.is_empty())),
        ("attempted", num(out.attempted as f64)),
        ("failed", num(out.failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        return steady::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for why in &outcome.check_failures {
        eprintln!("perfbench: output check failed: {why}");
    }
    println!(
        "{}",
        obj(vec![(
            "stamp",
            machine::stamp(&args.workload, args.seed, args.seconds, args.trace)
        )])
        .to_text()
    );
    println!("{}", result_line(&args, &outcome).to_text());
    if outcome.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool) -> RunArgs {
        RunArgs {
            workload: "snm_tail".into(),
            seed: 1,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn result_line_names_every_metric_and_reports_failed_checks() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        out.metrics.insert("samples_per_s", 2.5);
        let line = result_line(&args(false), &out);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let sps = metrics.get("samples_per_s").and_then(|m| m.get("value"));
        assert_eq!(sps.and_then(Json::as_f64), Some(2.5));
        let traced = result_line(&args(true), &out);
        let layer = traced.get("metrics").unwrap();
        assert!(PER_LAYER.iter().all(|(name, _)| layer.get(name).is_some()));

        // A corrupted estimate fails its check, and the run reads incorrect.
        out.check(checks::snm_estimate(f64::NAN, 1e-7));
        let line = result_line(&args(false), &out);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload dc_campaign --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload snm_tail --trace 2")).is_err());
        assert!(parse_args(&argv("--workload snm_tail --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
    }

    #[test]
    fn traced_operations_interleave_in_pairs() {
        let traced: Vec<bool> = (0..8).map(|k| traced_op(true, k)).collect();
        assert_eq!(traced, [false, false, true, true, false, false, true, true]);
        assert!((0..8).all(|k| !traced_op(false, k)));
        assert_eq!(mix(1, 2) >> 53, 0);
    }
}
