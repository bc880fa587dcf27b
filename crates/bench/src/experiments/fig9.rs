//! Fig. 9 — 6T SRAM butterfly curves and READ/HOLD static noise margins
//! (2500 Monte Carlo samples), including the slightly non-Gaussian HOLD SNM
//! distribution. The SNM loops run through the streaming pipeline: a
//! t-digest sketch reports the 5th-percentile yield margin in O(δ) memory —
//! and, being mergeable, lets independent shards of a scaled-up run
//! combine their tail estimates (see `examples/fleet_merge.rs`) — fanned
//! out next to the explicit sample buffer the KDE/QQ curves need.

use super::ExpResult;
use crate::report::{write_csv, TextTable};
use crate::ExperimentContext;
use circuits::sram::{SnmBench, SnmMode, SramSizing};
use spice::SpiceError;
use stats::kde::Kde;
use stats::qq::QqPlot;
use stats::Summary;
use vscore::mc::{McFactory, TDigest, VecSink};

/// Regenerates butterfly curves and SNM distributions.
pub fn run(ctx: &ExperimentContext) -> ExpResult {
    let n = ctx.samples(2500);
    let sz = SramSizing::default();
    let mut table = TextTable::new(&[
        "mode",
        "model",
        "mean SNM (mV)",
        "sigma (mV)",
        "p5 SNM (mV)",
        "skewness",
        "QQ r",
        "fails",
    ]);
    let mut report =
        format!("Fig. 9 — 6T SRAM butterfly and SNM, {n} MC samples per mode/model\n\n");

    // Nominal butterfly curves (the characteristic pattern of Fig. 9a/d)
    // plus a handful of Monte Carlo traces from the VS model.
    for (mode, tag) in [(SnmMode::Read, "read"), (SnmMode::Hold, "hold")] {
        let mut f = ctx.vs_factory(ctx.seed ^ 0x5afe);
        // Half-cell sessions elaborate once; each trace swaps fresh devices.
        let mut bench = f.try_draw(|f| SnmBench::new(sz, ctx.vdd(), mode, 61, f))??;
        for trace in 0..6 {
            if trace > 0 {
                resample(&mut bench, sz, &mut f)?;
            }
            let (c1, c2) = bench.curves()?;
            write_csv(
                &ctx.out_dir,
                &format!("fig9_butterfly_{tag}_vs_trace{trace}.csv"),
                &["v_l", "v_r_curve1", "v_r_curve2"],
                c1.iter()
                    .zip(&c2)
                    .map(|(&(x1, y1), &(_, y2))| vec![x1, y1, y2]),
            )?;
        }
    }

    for (mode, tag) in [(SnmMode::Read, "read"), (SnmMode::Hold, "hold")] {
        for family in ["bsim", "vs"] {
            // Both half-cell sessions elaborate once per worker; every
            // sample swaps six freshly drawn devices in place and traces
            // both butterfly sweeps again (each sweep's first point starts
            // cold; later points start from the sweep's own earlier
            // points). A failed construction draw retries with a fresh one
            // (as the sequential loop did by rolling to the next trial) —
            // the initial devices are overwritten by the first sample
            // anyway.
            //
            // SNM records stream into a t-digest for the 5th-percentile
            // yield figure (O(δ) memory at any sample count, and mergeable
            // with other runs' digests) next to an explicit VecSink — the
            // KDE curve, QQ plot, and skewness are genuinely whole-sample
            // statistics.
            let mut sink = (VecSink::new(), TDigest::new(100.0));
            let out = ctx.runner(0x54a8).run_streaming(
                n,
                |_, setup| {
                    build_bench(sz, ctx.vdd(), mode, 61, |attempt| {
                        ctx.factory(family, setup.fork(attempt))
                    })
                },
                |bench, sampler, _| {
                    snm_sample(bench, sz, &mut ctx.factory(family, sampler.clone()))
                },
                &mut sink,
            )?;
            let failures = out.failures;
            let (values, sketch) = sink;
            let p5 = sketch.quantile(0.05).unwrap_or(f64::NAN);
            let samples = values.into_values();
            let s = Summary::from_slice(&samples);
            let kde = Kde::from_sample(&samples);
            let qq = QqPlot::from_sample(&samples);
            write_csv(
                &ctx.out_dir,
                &format!("fig9_snm_pdf_{tag}_{family}.csv"),
                &["snm_v", "density"],
                kde.curve(140).into_iter().map(|(x, y)| vec![x, y]),
            )?;
            if tag == "hold" {
                write_csv(
                    &ctx.out_dir,
                    &format!("fig9_qq_hold_{family}.csv"),
                    &["normal_quantile", "snm_quantile_v"],
                    qq.points.iter().map(|p| vec![p.theoretical, p.sample]),
                )?;
            }
            table.row(vec![
                tag.to_uppercase(),
                family.to_string(),
                format!("{:.1}", s.mean * 1e3),
                format!("{:.2}", s.std * 1e3),
                format!("{:.1}", p5 * 1e3),
                format!("{:+.3}", s.skewness),
                format!("{:.5}", qq.linearity_r),
                failures.to_string(),
            ]);
        }
    }
    report.push_str(&table.render());
    report.push_str(
        "\nshape: READ SNM well below HOLD SNM; VS matches the kit on both; the HOLD\n\
         SNM QQ plot shows the slight non-Gaussianity of paper Fig. 9(f).\n\
         CSV: fig9_butterfly_*.csv, fig9_snm_pdf_*.csv, fig9_qq_hold_*.csv\n",
    );
    Ok(report)
}

/// Builds an SNM bench from the first of eight factories, `factory(0)`,
/// `factory(1)`, ..., whose draw elaborates. A draw beyond physical
/// validity counts as a failed attempt like a non-convergent one; the
/// initial devices are overwritten by the first sample anyway.
///
/// # Errors
///
/// The last attempt's error when all eight fail.
pub(super) fn build_bench(
    sz: SramSizing,
    vdd: f64,
    mode: SnmMode,
    n_points: usize,
    mut factory: impl FnMut(u64) -> McFactory,
) -> Result<SnmBench, SpiceError> {
    let mut last_err = None;
    for attempt in 0..8 {
        match factory(attempt).try_draw(|f| SnmBench::new(sz, vdd, mode, n_points, f)) {
            Ok(Ok(b)) => return Ok(b),
            Ok(Err(e)) => last_err = Some(e),
            Err(e) => last_err = Some(e.into()),
        }
    }
    Err(last_err.expect("eight attempts made"))
}

/// Swaps six devices drawn from `f` into `bench`. A draw beyond physical
/// validity (a negative mobility deep in the tail, say) fails with
/// [`SpiceError::NonPhysicalDevice`] instead of panicking the run.
pub(super) fn resample(
    bench: &mut SnmBench,
    sz: SramSizing,
    f: &mut McFactory,
) -> Result<(), SpiceError> {
    f.try_draw(|f| bench.resample(sz, f))?
}

/// One SNM Monte Carlo sample: fresh devices from `f`, then the SNM.
fn snm_sample(bench: &mut SnmBench, sz: SramSizing, f: &mut McFactory) -> Result<f64, SpiceError> {
    resample(bench, sz, f)?;
    bench.snm()
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use mosfet::vs::VsParams;
    use mosfet::MismatchSpec;
    use stats::Sampler;
    use std::sync::Arc;
    use vscore::mc::ParallelRunner;

    /// The VS model at the paper's 40 nm point with its mismatch spec.
    pub(in crate::experiments) fn vs_factory() -> McFactory {
        let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
        McFactory::vs(
            VsParams::nmos_40nm(),
            VsParams::pmos_40nm(),
            spec,
            spec,
            Sampler::from_seed(0),
        )
    }

    /// Pinned draws for one resample: six devices of five draws each, in
    /// PD1, PD2, PU1, PU2, PG1, PG2 order, so draw 13 is PU1's mobility,
    /// pinned far below zero.
    pub(in crate::experiments) fn negative_mobility() -> Arc<[f64]> {
        let mut pinned = vec![0.0; 30];
        pinned[13] = -50.0;
        pinned.into()
    }

    #[test]
    fn a_non_physical_draw_fails_one_sample_not_the_run() {
        let sz = SramSizing::default();
        let pinned = negative_mobility();
        let sample = |bench: &mut SnmBench, sampler: &mut Sampler, i: usize| {
            let mut f = vs_factory();
            f.set_sampler(sampler.clone());
            if i == 5 {
                f.set_pinned(pinned.clone());
            }
            snm_sample(bench, sz, &mut f)
        };
        let build = |_: usize, setup: &mut Sampler| {
            build_bench(sz, 0.9, SnmMode::Read, 41, |attempt| {
                let mut f = vs_factory();
                f.set_sampler(setup.fork(attempt));
                f
            })
        };
        let mut sink = VecSink::new();
        let out = ParallelRunner::new(3)
            .workers(1)
            .run_streaming(12, build, sample, &mut sink)
            .expect("no setup step can fail");
        assert_eq!((out.observed, out.failures), (11, 1));

        let mut bench = build(0, &mut Sampler::from_seed(1)).unwrap();
        let mut f = vs_factory();
        f.set_pinned(pinned);
        let err = snm_sample(&mut bench, sz, &mut f).unwrap_err();
        assert!(
            matches!(err, SpiceError::NonPhysicalDevice(e) if e.mu < 0.0),
            "{err}"
        );
    }
}
