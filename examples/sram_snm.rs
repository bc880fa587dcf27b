//! SRAM static noise margin under within-die variation (paper Fig. 9).
//!
//! Traces a nominal butterfly plot as ASCII art, then runs a parallel
//! Monte Carlo on READ and HOLD static noise margins with the statistical
//! VS model — sharded across every available core, with a confidence-
//! interval stopping rule that ends each run as soon as the mean SNM is
//! pinned down to ±1%. SNM values are never buffered: they stream into a
//! `WelfordSink` (live moments) and a P² quantile sketch (the
//! 5th-percentile yield margin) as the run progresses.
//!
//! Run with `cargo run --release --example sram_snm`.

use statvs::circuits::cells::NominalVsFactory;
use statvs::circuits::sram::{butterfly, SnmBench, SnmMode, SramDevices, SramSizing};
use statvs::stats::Sampler;
use statvs::vscore::mc::{EarlyStop, McFactory, P2Quantiles, ParallelRunner, WelfordSink};
use statvs::vscore::pipeline::{extract_statistical_vs_model, ExtractionConfig};

const VDD: f64 = 0.9;
const N_SAMPLES: usize = 400;

fn ascii_butterfly(c1: &[(f64, f64)], c2: &[(f64, f64)]) {
    const W: usize = 56;
    const H: usize = 26;
    let mut grid = vec![vec![' '; W]; H];
    let plot = |grid: &mut Vec<Vec<char>>, pts: &[(f64, f64)], ch: char| {
        for &(x, y) in pts {
            let col = ((x / VDD) * (W - 1) as f64).round() as usize;
            let row = H - 1 - ((y / VDD) * (H - 1) as f64).round() as usize;
            if row < H && col < W {
                grid[row][col] = ch;
            }
        }
    };
    plot(&mut grid, c1, '*');
    plot(&mut grid, c2, 'o');
    println!("  V_R ^   (* = half-cell 1, o = half-cell 2)");
    for row in grid {
        println!("      |{}", row.into_iter().collect::<String>());
    }
    println!("      +{}> V_L", "-".repeat(W));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sz = SramSizing::default();

    // Nominal butterfly (READ mode — the stress case).
    let mut nominal = NominalVsFactory;
    let devices = SramDevices::draw(sz, &mut nominal);
    let (c1, c2) = butterfly(&devices, VDD, SnmMode::Read, 61)?;
    println!("nominal READ butterfly:");
    ascii_butterfly(&c1, &c2);

    // Monte Carlo SNM with the extracted statistical model.
    let config = ExtractionConfig {
        mc_samples: 600,
        ..ExtractionConfig::default()
    };
    let report = extract_statistical_vs_model(&config)?;
    let template = McFactory::vs(
        report.nmos.fit.params,
        report.pmos.fit.params,
        report.nmos.extracted,
        report.pmos.extracted,
        Sampler::from_seed(0),
    );
    for (mode, label) in [(SnmMode::Read, "READ"), (SnmMode::Hold, "HOLD")] {
        // Each worker elaborates both half-cell sessions once; every
        // sample swaps six freshly drawn devices in place and traces both
        // butterfly sweeps again (each sweep starts cold). The stopping rule ends the run at the first
        // 50-sample round boundary where the 95% CI half-width on the mean
        // SNM drops below 1% — deterministically, whatever the core count.
        //
        // Results stream: each SNM record folds into the moment
        // accumulator and the P² sketch the moment its round completes,
        // so the run holds O(workers) sample memory however large the
        // budget grows.
        let mut sink = (WelfordSink::new(), P2Quantiles::new(&[0.05]));
        let outcome = ParallelRunner::new(3000)
            .check_every(50)
            .early_stop(EarlyStop::relative(0.01).min_samples(100))
            .run_streaming(
                N_SAMPLES,
                |_, setup| {
                    let mut f = template.clone();
                    f.set_sampler(setup.clone());
                    SnmBench::new(sz, VDD, mode, 61, &mut f)
                },
                |bench, sampler, _| {
                    let mut f = template.clone();
                    f.set_sampler(sampler.clone());
                    bench.resample(sz, &mut f)?;
                    bench.snm()
                },
                &mut sink,
            )?;
        let (moments, sketch) = sink;
        let m = moments.moments();
        println!(
            "\n{label} SNM over {} samples ({} budgeted, {} workers): mean {:.1} mV, σ {:.2} mV, min {:.1} mV, p5 {:.1} mV, 95% CI ±{:.1}%",
            m.count(),
            N_SAMPLES,
            outcome.workers,
            m.mean() * 1e3,
            m.std() * 1e3,
            m.min() * 1e3,
            sketch.quantile(0.05).unwrap_or(f64::NAN) * 1e3,
            100.0 * m.ci_half_width(1.96) / m.mean(),
        );
    }
    println!("\n(READ margins sit well below HOLD margins — the paper's most variation-sensitive benchmark.)");
    Ok(())
}
