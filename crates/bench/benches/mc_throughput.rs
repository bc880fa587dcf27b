//! Monte Carlo throughput.
//!
//! Two levels:
//!
//! * **Device level** (Table III's workload): samples of
//!   `{Idsat, log10 Ioff, Cgg}` under Pelgrom mismatch, both model
//!   families.
//! * **Circuit level** (Figs. 5–9's and Table IV's workload): repeated
//!   solves of one SRAM topology with resampled devices, comparing the
//!   legacy shape (rebuild + re-elaborate every sample; per-point AC
//!   matrices) against the session shape (`Session::swap_devices` +
//!   warm-started re-solve; `Session::ac_batch` + reused `AcWorkspace`).
//!
//! Run `cargo bench --bench mc_throughput -- --json BENCH_mc_throughput.json`
//! to refresh the perf-trajectory baseline at the repo root.

use circuits::sram::{SnmBench, SnmMode, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
use numerics::complex::{CMatrix, C64};
use spice::Session;
use stats::Sampler;
use vsbench::microbench::{maybe_write_json, measure, Measurement};
use vscore::mc::{device_metric_samples, McFactory, P2Quantiles, ParallelRunner, WelfordSink};
use vscore::sensitivity::{BsimBuilder, VsBuilder};

fn mc_factory(seed: u64) -> McFactory {
    let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
    McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec,
        spec,
        Sampler::from_seed(seed),
    )
}

/// The seed's consuming complex solve, reproduced verbatim for the
/// `sram_ac_sample/per_point` "before" arm: `hypot` pivot selection, a full
/// Smith division per multiplier, and the right-hand side folded through
/// the elimination — the kernel the pre-batching AC path ran per frequency
/// point (the library kernel has since been optimized, so using it here
/// would understate the before/after gap).
fn legacy_complex_solve(mut m: CMatrix, b: &[C64]) -> Option<Vec<C64>> {
    let n = m.order();
    let mut x = b.to_vec();
    for k in 0..n {
        let mut p = k;
        let mut pmax = m.at(k, k).abs();
        for i in (k + 1)..n {
            let v = m.at(i, k).abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if !(pmax > 1e-300) || !pmax.is_finite() {
            return None;
        }
        if p != k {
            for j in 0..n {
                let tmp = m.at(k, j);
                *m.at_mut(k, j) = m.at(p, j);
                *m.at_mut(p, j) = tmp;
            }
            x.swap(k, p);
        }
        let pivot = m.at(k, k);
        for i in (k + 1)..n {
            let mult = m.at(i, k) / pivot;
            if mult != C64::ZERO {
                for j in (k + 1)..n {
                    let v = m.at(k, j);
                    *m.at_mut(i, j) = m.at(i, j) - mult * v;
                }
                x[i] = x[i] - mult * x[k];
            }
            *m.at_mut(i, k) = mult;
        }
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s = s - m.at(i, j) * x[j];
        }
        x[i] = s / m.at(i, i);
    }
    Some(x)
}

fn main() {
    let mut results = Vec::new();

    // ---- device level ---------------------------------------------------
    let geom = Geometry::from_nm(600.0, 40.0);
    let spec = MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29);
    let vs = VsBuilder {
        params: VsParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom,
    };
    let kit = BsimBuilder {
        params: mosfet::bsim::BsimParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom,
    };
    results.push(measure("device_mc_100_samples/vs", || {
        let mut s = Sampler::from_seed(1);
        device_metric_samples(&vs, &spec, 0.9, 100, &mut s);
    }));
    results.push(measure("device_mc_100_samples/bsim", || {
        let mut s = Sampler::from_seed(1);
        device_metric_samples(&kit, &spec, 0.9, 100, &mut s);
    }));

    // ---- circuit level: full-cell DC operating point --------------------
    // The inner solve of every SRAM Monte Carlo sample. "rebuild" is the
    // pre-session architecture: construct the netlist and elaborate a fresh
    // workspace per sample. "session" swaps the six devices into one live
    // elaboration and warm-starts Newton from the previous sample's
    // operating point.
    let sz = SramSizing::default();
    {
        let mut seed = 0u64;
        results.push(measure("sram_dc_sample/rebuild", || {
            seed += 1;
            let mut f = mc_factory(seed);
            let devices = SramDevices::draw(sz, &mut f);
            let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
            let mut s = Session::elaborate(c).expect("well-formed");
            // Extreme mismatch draws may settle in either stable state or
            // fail to converge; both are part of the measured workload.
            if let Ok(op) = s.dc_owned_with_guess(&[(l, 0.0), (r, 0.9)]) {
                assert!(op.voltage(r).is_finite());
            }
        }));
    }
    {
        let mut seed = 0u64;
        let mut f0 = mc_factory(0);
        let devices = SramDevices::draw(sz, &mut f0);
        let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
        let mut session = Session::elaborate(c).expect("well-formed");
        // Select the basin once; subsequent samples warm-start from the
        // previous sample's operating point instead of re-running the
        // guessed continuation.
        let _ = session
            .dc_owned_with_guess(&[(l, 0.0), (r, 0.9)])
            .expect("solves");
        let _ = l;
        results.push(measure("sram_dc_sample/session_swap", || {
            seed += 1;
            let mut f = mc_factory(seed);
            let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
            let [pd0, pd1] = pd;
            let [pu0, pu1] = pu;
            let [pg0, pg1] = pg;
            session
                .swap_devices([
                    ("PD1", pd0),
                    ("PD2", pd1),
                    ("PU1", pu0),
                    ("PU2", pu1),
                    ("PG1", pg0),
                    ("PG2", pg1),
                ])
                .expect("known instances");
            if let Ok(op) = session.dc_owned() {
                assert!(op.voltage(r).is_finite());
            }
        }));
    }

    // ---- circuit level: parallel + streaming SRAM DC Monte Carlo --------
    // The same per-sample workload as sram_dc_sample/session_swap, sharded
    // with ParallelRunner: one replicated session per worker, per-sample
    // device swaps from deterministically derived streams, warm-started
    // solves. One measured iteration = a PAR_BATCH-sample run (including
    // worker spawn + Session::replicate setup); the recorded entries are
    // normalized per sample, so aggregate throughput across threads is
    // directly comparable with the single-session baseline above.
    //
    // The `streaming_1t` entry runs the *identical* build/sample closures
    // through ParallelRunner::run_streaming into realistic sinks (live
    // Welford moments + a three-level P² quantile sketch) instead of the
    // buffered per-sample slots. Peak sample storage drops from O(n) slots
    // to O(workers + check_every) in-flight records; the per-sample cost
    // must stay within noise of the buffered `parallel_1t` entry (the sink
    // fold is nanoseconds against a ~20 µs DC solve).
    {
        const PAR_BATCH: usize = 512;
        let mut f0 = mc_factory(0);
        let devices = SramDevices::draw(sz, &mut f0);
        let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
        let master = Session::elaborate(c).expect("well-formed");
        // One shared pair of workload closures: the buffered and streaming
        // entries must measure exactly the same per-sample work.
        let build = |_: usize, _: &mut Sampler| {
            let mut s = master.replicate()?;
            // Select the basin once per worker; samples then warm-start
            // from the previous operating point.
            let op = s.dc_owned_with_guess(&[(l, 0.0), (r, 0.9)])?;
            assert!(op.voltage(r).is_finite());
            Ok(s)
        };
        let sample = |session: &mut Session, sampler: &mut Sampler, _: usize| {
            let mut f = mc_factory(0);
            f.set_sampler(sampler.clone());
            let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
            let [pd0, pd1] = pd;
            let [pu0, pu1] = pu;
            let [pg0, pg1] = pg;
            session
                .swap_devices([
                    ("PD1", pd0),
                    ("PD2", pd1),
                    ("PU1", pu0),
                    ("PU2", pu1),
                    ("PG1", pg0),
                    ("PG2", pg1),
                ])
                .expect("known instances");
            // Extreme draws may fail to converge; counted, not fatal —
            // part of the measured workload.
            session.dc_owned().map(|op| op.voltage(r))
        };
        let avail = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let mut thread_counts = vec![1, 4, avail];
        thread_counts.sort_unstable();
        thread_counts.dedup();
        for threads in thread_counts {
            let mut run_seed = 0u64;
            let m = measure(&format!("sram_dc_mc_batch512/aggregate_{threads}t"), || {
                run_seed += 1;
                let out = ParallelRunner::new(run_seed)
                    .workers(threads)
                    .run(PAR_BATCH, build, sample)
                    .expect("replication succeeds");
                assert_eq!(out.len() + out.failures, PAR_BATCH);
            });
            results.push(Measurement {
                label: format!("sram_dc_sample/parallel_{threads}t"),
                secs_per_iter: m.secs_per_iter / PAR_BATCH as f64,
                iters: m.iters * PAR_BATCH as u64,
            });
        }
        let mut run_seed = 0u64;
        let m = measure("sram_dc_mc_batch512/aggregate_streaming_1t", || {
            run_seed += 1;
            let mut sink = (WelfordSink::new(), P2Quantiles::new(&[0.01, 0.5, 0.99]));
            let out = ParallelRunner::new(run_seed)
                .workers(1)
                .run_streaming(PAR_BATCH, build, sample, &mut sink)
                .expect("replication succeeds");
            assert_eq!(out.observed + out.failures, PAR_BATCH);
            assert!(sink.0.moments().count() == out.observed as u64);
        });
        results.push(Measurement {
            label: "sram_dc_sample/streaming_1t".to_string(),
            secs_per_iter: m.secs_per_iter / PAR_BATCH as f64,
            iters: m.iters * PAR_BATCH as u64,
        });
    }

    // ---- circuit level: SRAM AC (the paper's Table IV workload) ---------
    // One Monte Carlo sample = resample the six cell devices, solve the
    // "l low" operating point, linearize, sweep 26 log-spaced frequency
    // points. Three shapes of the same workload:
    //
    // * "per_point" — the pre-batching architecture: a guessed DC solve
    //   every sample, a freshly allocated linearization, and a freshly
    //   allocated + fully factored complex matrix per frequency point.
    // * "workspace_guessed" — `Session::ac_owned`: the cached AcWorkspace
    //   removes the per-point/per-sample allocation, but the operating
    //   point still re-runs the guessed solve every sample.
    // * "batched" — `ReadDisturbBench::run` → `Session::ac_batch`: the
    //   operating point additionally warm-starts from the previous sample.
    {
        let freqs = spice::ac::log_sweep(1e6, 1e11, 5);
        let sz = SramSizing::default();
        {
            let mut seed = 0u64;
            let mut f0 = mc_factory(0);
            let devices = SramDevices::draw(sz, &mut f0);
            let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
            let mut session = Session::elaborate(c).expect("well-formed");
            let guess = [(l, 0.0), (r, 0.9)];
            let nn = session.circuit().node_count() - 1;
            let src_idx = session.circuit().vsource_index("VBL").expect("VBL exists");
            let li = l.unknown().expect("storage node is not ground");
            results.push(measure("sram_ac_sample/per_point", || {
                seed += 1;
                let mut f = mc_factory(seed);
                let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
                let [pd0, pd1] = pd;
                let [pu0, pu1] = pu;
                let [pg0, pg1] = pg;
                session
                    .swap_devices([
                        ("PD1", pd0),
                        ("PD2", pd1),
                        ("PU1", pu0),
                        ("PU2", pu1),
                        ("PG1", pg0),
                        ("PG2", pg1),
                    ])
                    .expect("known instances");
                // A guessed solve ignores the warm start — exactly the
                // pre-batching per-sample behaviour.
                let Ok(op) = session.dc_owned_with_guess(&guess) else {
                    return; // extreme draws may fail; part of the workload
                };
                let lin = session.circuit().linearize(op.raw());
                let n = lin.g.rows();
                let mut b = vec![C64::ZERO; n];
                b[nn + src_idx] = C64::ONE;
                for &fr in &freqs {
                    let omega = 2.0 * std::f64::consts::PI * fr;
                    let m = CMatrix::from_gc(&lin.g, &lin.c, omega);
                    let x = legacy_complex_solve(m, &b).expect("AC point solves");
                    assert!(x[li].abs().is_finite());
                }
            }));
        }
        {
            let mut seed = 0u64;
            let mut f0 = mc_factory(0);
            let devices = SramDevices::draw(sz, &mut f0);
            let (c, l, r) = circuits::sram::full_cell(&devices, 0.9);
            let mut session = Session::elaborate(c).expect("well-formed");
            let guess = [(l, 0.0), (r, 0.9)];
            results.push(measure("sram_ac_sample/workspace_guessed", || {
                seed += 1;
                let mut f = mc_factory(seed);
                let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
                let [pd0, pd1] = pd;
                let [pu0, pu1] = pu;
                let [pg0, pg1] = pg;
                session
                    .swap_devices([
                        ("PD1", pd0),
                        ("PD2", pd1),
                        ("PU1", pu0),
                        ("PU2", pu1),
                        ("PG1", pg0),
                        ("PG2", pg1),
                    ])
                    .expect("known instances");
                if let Ok(ac) = session.ac_owned("VBL", &freqs, &guess) {
                    assert!(ac.magnitudes(l)[0].is_finite());
                }
            }));
        }
        {
            let mut seed = 0u64;
            let mut f0 = mc_factory(0);
            let mut bench =
                circuits::sram::ReadDisturbBench::new(sz, 0.9, &mut f0).expect("well-formed");
            results.push(measure("sram_ac_sample/batched", || {
                seed += 1;
                let mut f = mc_factory(seed);
                bench.resample(sz, &mut f).expect("known instances");
                if let Ok(mags) = bench.run(&freqs) {
                    assert!(mags[0].is_finite());
                }
            }));
        }
    }

    // ---- circuit level: READ SNM (butterfly sweeps) ---------------------
    {
        let mut seed = 0u64;
        results.push(measure("sram_read_snm_sample/rebuild", || {
            seed += 1;
            let mut f = mc_factory(seed);
            let mut bench = SnmBench::new(sz, 0.9, SnmMode::Read, 31, &mut f).expect("well-formed");
            if let Ok(s) = bench.snm() {
                assert!(s.is_finite());
            }
        }));
    }
    {
        let mut seed = 0u64;
        let mut f0 = mc_factory(0);
        let mut bench = SnmBench::new(sz, 0.9, SnmMode::Read, 31, &mut f0).expect("well-formed");
        results.push(measure("sram_read_snm_sample/session_swap", || {
            seed += 1;
            let mut f = mc_factory(seed);
            bench.resample(sz, &mut f).expect("known instances");
            if let Ok(s) = bench.snm() {
                assert!(s.is_finite());
            }
        }));
    }

    maybe_write_json(&results);
}
