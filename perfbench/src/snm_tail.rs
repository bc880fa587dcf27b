//! `snm_tail`: 5σ READ-SNM importance sampling of a 6T SRAM cell,
//! in-process.
//!
//! Set-up extracts the statistical VS model and fits the mean-shift
//! proposal the way the `highsigma` experiment does: exploratory draws for
//! the body statistics, then the worst-case direction of eye 1 by
//! central-difference probes refined at radius 5. One operation is one
//! fixed-length index chunk through `ParallelRunner::run_streaming_is` on
//! two workers; every sample resamples the cell and runs two 41-point
//! butterfly sweeps, and the records fold into `WeightedMoments::below`
//! and a `WeightedHistogram`.

use crate::trace::{self, Tracer};
use crate::{checks, machine, mix, OpTimes, Outcome, RunArgs, SpanTable};
use statvs::circuits::sram::{SnmBench, SnmMode, SramSizing};
use statvs::spice::SpiceError;
use statvs::stats::sink::Sink;
use statvs::stats::{Sampler, Welford};
use statvs::vscore::mc::{McFactory, ParallelRunner, WeightedHistogram, WeightedMoments};
use statvs::vscore::pipeline::{extract_statistical_vs_model, ExtractionConfig};
use std::sync::Arc;
use std::time::Instant;

/// Butterfly sweep resolution, as in `highsigma`.
const SWEEP_POINTS: usize = 41;
/// Samples per operation.
const CHUNK: usize = 64;
/// Fewest chunks in a run, so that at least ten lie beyond the p90.
const MIN_CHUNKS: u64 = 100;
/// Runner workers.
const WORKERS: usize = 2;
/// Exploratory plain-MC draws for the body statistics.
const EXPLORE: usize = 200;
/// Design-point radius in standardized mismatch space.
const BETA: f64 = 5.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// What set-up produces: the sampling factory and the fitted proposal.
struct Fitted {
    factory: McFactory,
    vdd: f64,
    shifts: Arc<[f64]>,
    threshold: f64,
    mu: f64,
    sigma: f64,
}

/// Per-worker state of one chunk: the bench and the worker's own spans.
struct Worker {
    bench: SnmBench,
    tracer: Tracer,
}

/// Pass-through sink that times each weighted push when tracing.
struct TimedSink<K> {
    inner: K,
    timing: bool,
    ns: u64,
    pushes: u64,
}

impl<K: Sink<(f64, f64)>> Sink<(f64, f64)> for TimedSink<K> {
    fn observe(&mut self, index: usize, value: (f64, f64)) {
        if self.timing {
            let t = Instant::now();
            self.inner.observe(index, value);
            self.ns += t.elapsed().as_nanos() as u64;
            self.pushes += 1;
        } else {
            self.inner.observe(index, value);
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Fitted, String> {
    let sz = SramSizing::default();
    let ext = tracer
        .time("core.extract", || {
            extract_statistical_vs_model(&ExtractionConfig::default())
        })
        .map_err(|e| format!("extraction: {e}"))?;
    let vdd = ext.config.vdd;
    let factory = McFactory::vs(
        ext.nmos.fit.params,
        ext.pmos.fit.params,
        ext.nmos.extracted,
        ext.pmos.extracted,
        Sampler::from_seed(0),
    );
    let open = tracer.begin("circuits.fit_proposal");
    let fitted = fit_proposal(seed, sz, vdd, &factory).map_err(|e| format!("proposal fit: {e}"));
    tracer.end(open);
    let (shifts, threshold, mu, sigma) = fitted?;
    Ok(Fitted {
        factory,
        vdd,
        shifts,
        threshold,
        mu,
        sigma,
    })
}

/// Phases 1 and 2 of `highsigma`: body statistics from exploratory draws,
/// then the radius-5 design point along the steepest descent of eye 1.
#[allow(clippy::type_complexity)]
fn fit_proposal(
    seed: u64,
    sz: SramSizing,
    vdd: f64,
    factory: &McFactory,
) -> Result<(Arc<[f64]>, f64, f64, f64), SpiceError> {
    let mut probe_f = factory.clone();
    probe_f.set_sampler(Sampler::from_seed(mix(seed, 0x9c0b)));
    let mut probe = SnmBench::new(sz, vdd, SnmMode::Read, SWEEP_POINTS, &mut probe_f)?;
    probe_f.clear_draw_mode();
    probe.resample(sz, &mut probe_f)?;
    let dims = probe_f.draws_taken();
    let mut eval = |pt: &[f64]| -> Result<(f64, f64), SpiceError> {
        probe_f.set_pinned(Arc::from(pt));
        probe.resample(sz, &mut probe_f)?;
        probe.eye_margins()
    };

    let mut draws = Sampler::from_seed(mix(seed, 0xe589));
    let mut body = Welford::new();
    for _ in 0..EXPLORE {
        let v: Vec<f64> = (0..dims).map(|_| draws.standard_normal()).collect();
        if let Ok((e1, e2)) = eval(&v) {
            body.push(e1.min(e2));
        }
    }
    let (mu, sigma) = (body.mean(), body.std());

    let unit = |v: &mut Vec<f64>| -> f64 {
        let n = v.iter().map(|d| d * d).sum::<f64>().sqrt();
        if n > 0.0 {
            v.iter_mut().for_each(|d| *d /= n);
        }
        n
    };
    let at = |u: &[f64]| -> Vec<f64> { u.iter().map(|d| BETA * d).collect() };
    let mut direction: Vec<f64> = gradient(&mut eval, &vec![0.0; dims])?
        .into_iter()
        .map(|g| -g)
        .collect();
    unit(&mut direction);
    let mut best = eval(&at(&direction))?.0;
    for _ in 0..3 {
        let mut g = gradient(&mut eval, &at(&direction))?;
        let norm = unit(&mut g);
        if norm.is_nan() || norm <= 0.0 {
            break;
        }
        let mut blended: Vec<f64> = direction.iter().zip(&g).map(|(u, gi)| u - gi).collect();
        let norm = unit(&mut blended);
        if norm.is_nan() || norm <= 0.0 {
            break;
        }
        let margin = eval(&at(&blended))?.0;
        if margin >= best {
            break;
        }
        best = margin;
        direction = blended;
    }
    Ok((at(&direction).into(), best, mu, sigma))
}

/// Central-difference gradient of the eye-1 margin (half-step 0.5σ).
fn gradient(
    eval: &mut impl FnMut(&[f64]) -> Result<(f64, f64), SpiceError>,
    pt: &[f64],
) -> Result<Vec<f64>, SpiceError> {
    let h = 0.5;
    (0..pt.len())
        .map(|i| {
            let mut up = pt.to_vec();
            up[i] += h;
            let mut dn = pt.to_vec();
            dn[i] -= h;
            Ok((eval(&up)?.0 - eval(&dn)?.0) / (2.0 * h))
        })
        .collect()
}

/// Builds a worker bench, retrying non-convergent construction draws with
/// fresh forks as `highsigma` does.
fn build_bench(fitted: &Fitted, setup: &mut Sampler) -> Result<SnmBench, SpiceError> {
    let sz = SramSizing::default();
    let mut last = None;
    for attempt in 0..8 {
        let mut f = fitted.factory.clone();
        f.set_sampler(setup.fork(attempt));
        match SnmBench::new(sz, fitted.vdd, SnmMode::Read, SWEEP_POINTS, &mut f) {
            Ok(b) => return Ok(b),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("eight attempts made"))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut main = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut fitted = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        fitted = Some(setup(args.seed, &mut main)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fitted = fitted.expect("at least one set-up");
    if !(fitted.threshold > 0.0 && fitted.threshold < fitted.mu && fitted.sigma > 0.0) {
        return Err(format!(
            "design-point margin {} V is outside (0, mean {} V)",
            fitted.threshold, fitted.mu
        ));
    }

    let sz = SramSizing::default();
    let mut sink = TimedSink {
        inner: (
            WeightedMoments::below(fitted.threshold),
            WeightedHistogram::new(
                (fitted.threshold - 3.0 * fitted.sigma).max(0.0),
                fitted.mu + 4.0 * fitted.sigma,
                44,
            ),
        ),
        timing: false,
        ns: 0,
        pushes: 0,
    };
    let runner = ParallelRunner::new(mix(args.seed, 0x15b0)).workers(WORKERS);
    let budget = std::time::Duration::from_secs(args.seconds);
    let (mut attempted, mut failed, mut observed) = (0u64, 0u64, 0u64);
    let mut ops = OpTimes::default();
    let mut traced_failures = 0u64;
    let wall = Instant::now();
    // In-process sinks are fixed-size, so the run is timed, not counted.
    let mut chunks = 0;
    while chunks < MIN_CHUNKS || wall.elapsed() < budget {
        let k = chunks;
        chunks += 1;
        let traced = crate::traced_op(args.trace, k);
        main.start_op(k + 1, traced);
        sink.timing = traced;
        let t = Instant::now();
        let open = main.begin("core.run");
        let parent = main.current();
        let out = runner.run_streaming_is(
            k as usize * CHUNK,
            CHUNK,
            |_, setup| {
                let mut tracer = Tracer::child_of(traced, k + 1, parent);
                let bench = tracer.time("circuits.bench_new", || build_bench(&fitted, setup))?;
                Ok(Worker { bench, tracer })
            },
            |w, sampler, _| {
                let open = w.tracer.begin("core.sample");
                let mut f = fitted.factory.clone();
                f.set_sampler(sampler.clone());
                f.set_proposal_shifts(fitted.shifts.clone());
                let resampled = w
                    .tracer
                    .time("circuits.resample", || w.bench.resample(sz, &mut f));
                let margins = match resampled {
                    Ok(()) => w
                        .tracer
                        .time("circuits.eye_margins", || w.bench.eye_margins()),
                    Err(e) => Err(e),
                };
                w.tracer.end(open);
                Ok::<_, SpiceError>((margins?.0, f.take_log_weight()))
            },
            &mut sink,
        );
        main.end(open);
        let dt = t.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("chunk {k}: worker build failed: {e}"))?;
        attempted += out.attempted as u64;
        failed += out.failures as u64;
        observed += out.observed as u64;
        if traced {
            traced_failures += out.failures as u64;
        }
        ops.push(dt * 1e3, traced);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let rss = machine::peak_rss_mb();
    drop(main);

    let moments = &sink.inner.0;
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.check(checks::snm_estimate(
        moments.estimate(),
        moments.ci_half_width(1.96),
    ));
    eprintln!(
        "snm_tail: {chunks} chunks x {CHUNK} samples, p(eye1 < {:.4} V) = {:.3e} ± {:.1e}, {failed} failed samples",
        fitted.threshold,
        moments.estimate(),
        moments.ci_half_width(1.96)
    );

    if args.trace {
        let spans = trace::take_all();
        let table = SpanTable::new(&spans);
        let m = &mut out.metrics;
        m.insert("core.extract_s", table.median("core.extract"));
        m.insert("core.run_ms", table.median("core.run") * 1e3);
        let runs = table.total("core.run");
        if runs > 0.0 {
            m.insert(
                "core.busy_ratio",
                table.total("core.sample") / (WORKERS as f64 * runs),
            );
        }
        m.insert("core.sample_failures", traced_failures as f64);
        m.insert(
            "circuits.bench_new_ms",
            table.median("circuits.bench_new") * 1e3,
        );
        m.insert(
            "circuits.resample_us",
            table.median("circuits.resample") * 1e6,
        );
        m.insert(
            "circuits.eye_margins_us",
            table.median("circuits.eye_margins") * 1e6,
        );
        if sink.pushes > 0 {
            m.insert("stats.wpush_ns", sink.ns as f64 / sink.pushes as f64);
        }
        m.insert("trace.overhead_pct", ops.overhead_pct());
        crate::write_trace(args, &spans);
    } else {
        crate::end_to_end(&mut out, &setup_s, observed, wall_s, &ops, rss);
    }
    Ok(out)
}
