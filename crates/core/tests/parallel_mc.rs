//! Determinism contract of the parallel Monte Carlo executor.
//!
//! `ParallelRunner` promises that the set of `(sample index, value)` pairs
//! and the merged moments are *bit-identical* for any worker count when
//! each sample is a pure function of its derived sampler stream. These
//! tests pin that down on the device-level workload (stateless), on a
//! circuit-level SRAM workload (cold-started sessions), and for the
//! round-boundary early-stopping rule — and extend the same contract to
//! the streaming path: every shipped sink fed by `run_streaming` (P²
//! sketch, histogram, CSV bytes, Welford moments) must end in bit-identical
//! state for any worker count, under early stopping, and under panics.

use circuits::sram::{full_cell, SramDevices, SramSizing};
use mosfet::{vs::VsParams, Geometry, MismatchSpec, Polarity};
use spice::Session;
use stats::histogram::Histogram;
use stats::{Sampler, Welford};
use vscore::mc::{
    CsvSink, EarlyStop, GaussianProposal, McFactory, MergeableSink, P2Quantiles, ParallelRunner,
    Sink, TDigest, VecSink, WeightedHistogram, WeightedMoments, WeightedSink, WelfordSink,
};
use vscore::metrics::DeviceMetrics;
use vscore::sensitivity::{VariedModel, VsBuilder};

const VDD: f64 = 0.9;

fn builder() -> VsBuilder {
    VsBuilder {
        params: VsParams::nmos_40nm(),
        polarity: Polarity::Nmos,
        geom: Geometry::from_nm(600.0, 40.0),
    }
}

fn spec() -> MismatchSpec {
    MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29)
}

/// A VS-family device factory over the paper's mismatch spec, fed by the
/// given sampler — the template shape every SRAM workload here uses.
fn sram_factory(sampler: Sampler) -> McFactory {
    McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec(),
        spec(),
        sampler,
    )
}

/// Runs the stateless device-level workload on `workers` threads.
fn device_run(seed: u64, n: usize, workers: usize) -> (Vec<(usize, u64)>, Welford) {
    let b = builder();
    let sp = spec();
    let out = ParallelRunner::new(seed)
        .workers(workers)
        .run_scalar(
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
        )
        .expect("infallible setup");
    let bits = out
        .samples()
        .iter()
        .map(|&(i, x)| (i, x.to_bits()))
        .collect();
    (bits, out.moments())
}

#[test]
fn device_level_runs_are_thread_count_invariant() {
    // Property loop: several seeds and sizes, three worker counts each.
    for (seed, n) in [(1u64, 97), (42, 256), (0xdead_beef, 33)] {
        let (s1, m1) = device_run(seed, n, 1);
        assert_eq!(s1.len(), n, "stateless workload never fails");
        for workers in [2, 8] {
            let (sw, mw) = device_run(seed, n, workers);
            assert_eq!(
                s1, sw,
                "seed {seed}: sample set differs at {workers} workers"
            );
            assert_eq!(
                m1.mean().to_bits(),
                mw.mean().to_bits(),
                "seed {seed}: merged mean differs at {workers} workers"
            );
            assert_eq!(m1.variance().to_bits(), mw.variance().to_bits());
            assert_eq!(m1.count(), mw.count());
            assert_eq!(m1.min().to_bits(), mw.min().to_bits());
            assert_eq!(m1.max().to_bits(), mw.max().to_bits());
        }
    }
}

#[test]
fn device_level_runs_depend_on_seed() {
    let (a, _) = device_run(7, 64, 2);
    let (b, _) = device_run(8, 64, 2);
    assert_ne!(a, b);
}

/// Circuit-level workload: full 6T cell DC solve with per-sample device
/// swaps. Cold-starting every sample makes each one a pure function of its
/// sampler stream, so the bit-exactness guarantee applies; warm-started
/// production loops trade that for speed (same statistics, last-bit drift).
fn sram_run(seed: u64, n: usize, workers: usize) -> Vec<(usize, u64)> {
    let sz = SramSizing::default();
    let template = McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec(),
        spec(),
        Sampler::from_seed(0),
    );
    let out = ParallelRunner::new(seed)
        .workers(workers)
        .run(
            n,
            |_, setup_sampler| {
                let mut f = template.clone();
                f.set_sampler(setup_sampler.clone());
                let devices = SramDevices::draw(sz, &mut f);
                let (c, l, r) = full_cell(&devices, VDD);
                let session = Session::elaborate(c)?;
                Ok((session, l, r))
            },
            |(session, l, r), sampler, _| {
                let mut f = template.clone();
                f.set_sampler(sampler.clone());
                let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
                let [pd0, pd1] = pd;
                let [pu0, pu1] = pu;
                let [pg0, pg1] = pg;
                session.swap_devices([
                    ("PD1", pd0),
                    ("PD2", pd1),
                    ("PU1", pu0),
                    ("PU2", pu1),
                    ("PG1", pg0),
                    ("PG2", pg1),
                ])?;
                session.invalidate_warm_start();
                let op = session.dc_owned_with_guess(&[(*l, 0.0), (*r, VDD)])?;
                Ok::<f64, spice::SpiceError>(op.voltage(*r))
            },
        )
        .expect("elaboration succeeds");
    out.samples()
        .iter()
        .map(|&(i, x)| (i, x.to_bits()))
        .collect()
}

#[test]
fn sram_dc_runs_are_thread_count_invariant() {
    let s1 = sram_run(99, 24, 1);
    let s2 = sram_run(99, 24, 2);
    let s8 = sram_run(99, 24, 8);
    assert!(s1.len() >= 20, "almost all draws converge");
    assert_eq!(s1, s2);
    assert_eq!(s1, s8);
}

#[test]
fn early_stop_is_deterministic_and_bounded() {
    let run = |workers: usize| {
        ParallelRunner::new(5)
            .workers(workers)
            .check_every(50)
            .early_stop(EarlyStop::relative(0.05).min_samples(50))
            .run_scalar(
                100_000,
                |_, _| Ok::<(), std::convert::Infallible>(()),
                |(), s, _| Ok(10.0 + s.standard_normal()),
            )
            .expect("infallible")
    };
    let a = run(1);
    let b = run(3);
    // The 5% CI on N(10, 1) needs only a handful of rounds.
    assert!(a.attempted < 100_000, "early stop fired ({})", a.attempted);
    assert_eq!(
        a.attempted, b.attempted,
        "stop point must not depend on workers"
    );
    assert_eq!(a.moments().mean().to_bits(), b.moments().mean().to_bits());
    assert_eq!(a.len(), b.len());
    let m = a.moments();
    assert!(m.ci_half_width(1.96) <= 0.05 * m.mean().abs());
}

#[test]
fn failures_are_counted_not_fatal() {
    let out = ParallelRunner::new(3)
        .workers(2)
        .run_scalar(
            40,
            |_, _| Ok::<(), &'static str>(()),
            |(), _, i| {
                if i % 4 == 0 {
                    Err("synthetic")
                } else {
                    Ok(1.0)
                }
            },
        )
        .expect("setup is fine");
    assert_eq!(out.failures, 10);
    assert_eq!(out.len(), 30);
    assert_eq!(out.attempted, 40);
    // Indices of failed samples are absent from the sample set.
    assert!(out.samples().iter().all(|(i, _)| i % 4 != 0));
}

#[test]
fn setup_errors_propagate() {
    let err = ParallelRunner::new(1)
        .workers(4)
        .run_scalar(
            8,
            |w, _| {
                if w == 0 {
                    Err("worker zero failed")
                } else {
                    Ok(())
                }
            },
            |(), _, _| Ok(0.0),
        )
        .unwrap_err();
    assert_eq!(err, "worker zero failed");
}

#[test]
#[should_panic(expected = "synthetic sample panic")]
fn sample_panics_propagate_instead_of_deadlocking() {
    let _ = ParallelRunner::new(2).workers(3).run_scalar(
        64,
        |_, _| Ok::<(), std::convert::Infallible>(()),
        |(), _, i| {
            if i == 7 {
                panic!("synthetic sample panic");
            }
            Ok(1.0)
        },
    );
}

#[test]
#[should_panic(expected = "synthetic build panic")]
fn build_panics_propagate_instead_of_deadlocking() {
    let _ = ParallelRunner::new(2).workers(3).run_scalar(
        64,
        |w, _| {
            if w == 1 {
                panic!("synthetic build panic");
            }
            Ok::<(), std::convert::Infallible>(())
        },
        |(), _, _| Ok(1.0),
    );
}

// ---------------------------------------------------------------------------
// Streaming pipeline: run_streaming + sinks
// ---------------------------------------------------------------------------

/// Final state of every shipped sink after streaming the device-level
/// workload: CSV bytes, P² estimates, histogram counts, Welford moments.
struct SinkState {
    csv: Vec<u8>,
    p2: Vec<(f64, u64)>,
    hist: Vec<u64>,
    welford: Welford,
    moments: Welford,
    observed: usize,
}

/// Streams the stateless device-level workload through one of each shipped
/// sink on `workers` threads.
fn streaming_device_run(seed: u64, n: usize, workers: usize) -> SinkState {
    let b = builder();
    let sp = spec();
    // Every shipped sink at once, fanned out through nested tuples. The
    // histogram range brackets the idsat distribution; out-of-range draws
    // clamp deterministically into the edge bins.
    let mut sink = (
        (
            CsvSink::with_header(Vec::<u8>::new(), &["sample", "idsat_a"]),
            P2Quantiles::new(&[0.1, 0.5, 0.9]),
        ),
        (Histogram::new(0.0, 2e-3, 32), WelfordSink::new()),
    );
    let out = ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming(
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut sink,
        )
        .expect("infallible setup");
    let ((csv, p2), (hist, welford)) = sink;
    SinkState {
        csv: csv.into_inner(),
        p2: p2
            .estimates()
            .into_iter()
            .map(|(p, v)| (p, v.to_bits()))
            .collect(),
        hist: hist.counts().to_vec(),
        welford: welford.moments(),
        moments: out.moments(),
        observed: out.observed,
    }
}

#[test]
fn streaming_sinks_are_bit_identical_for_any_worker_count() {
    // The tentpole property: every shipped sink's output — raw CSV bytes
    // included — is a pure function of (seed, n), not of the sharding.
    for (seed, n) in [(1u64, 97), (42, 256)] {
        let r1 = streaming_device_run(seed, n, 1);
        assert_eq!(r1.observed, n);
        assert!(!r1.csv.is_empty());
        for workers in [2, 3, 7] {
            let rw = streaming_device_run(seed, n, workers);
            assert_eq!(
                r1.csv, rw.csv,
                "seed {seed}: CSV bytes differ at {workers} workers"
            );
            assert_eq!(
                r1.p2, rw.p2,
                "seed {seed}: P² marker state differs at {workers} workers"
            );
            assert_eq!(
                r1.hist, rw.hist,
                "seed {seed}: histogram counts differ at {workers} workers"
            );
            assert_eq!(r1.welford, rw.welford);
            assert_eq!(r1.moments, rw.moments);
        }
    }
}

#[test]
fn streaming_moments_match_buffered_run_scalar_bit_exactly() {
    // Same workload through both execution paths: the streaming fold must
    // reproduce the buffered moments to the last bit, and a VecSink must
    // retain exactly the records run_scalar would have buffered.
    let (_, buffered) = device_run(42, 256, 2);
    let r = streaming_device_run(42, 256, 3);
    assert_eq!(buffered.mean().to_bits(), r.moments.mean().to_bits());
    assert_eq!(
        buffered.variance().to_bits(),
        r.moments.variance().to_bits()
    );
    assert_eq!(buffered.count(), r.moments.count());
    assert_eq!(buffered.min().to_bits(), r.moments.min().to_bits());
    assert_eq!(buffered.max().to_bits(), r.moments.max().to_bits());
    // The sink-side Welford sees the same stream as the coordinator fold.
    assert_eq!(r.welford, r.moments);
}

/// The acceptance workload: cold-started SRAM DC samples, streaming vs
/// buffered, records retained by an explicit VecSink.
#[test]
fn streaming_matches_buffered_on_sram_dc() {
    let n = 16;
    let sz = SramSizing::default();
    let template = McFactory::vs(
        VsParams::nmos_40nm(),
        VsParams::pmos_40nm(),
        spec(),
        spec(),
        Sampler::from_seed(0),
    );
    let build = |_: usize, setup_sampler: &mut Sampler| {
        let mut f = template.clone();
        f.set_sampler(setup_sampler.clone());
        let devices = SramDevices::draw(sz, &mut f);
        let (c, l, r) = full_cell(&devices, VDD);
        let session = Session::elaborate(c)?;
        Ok((session, l, r))
    };
    let sample = |(session, l, r): &mut (Session, _, _), sampler: &mut Sampler, _: usize| {
        let mut f = template.clone();
        f.set_sampler(sampler.clone());
        let SramDevices { pd, pu, pg } = SramDevices::draw(sz, &mut f);
        let [pd0, pd1] = pd;
        let [pu0, pu1] = pu;
        let [pg0, pg1] = pg;
        session.swap_devices([
            ("PD1", pd0),
            ("PD2", pd1),
            ("PU1", pu0),
            ("PU2", pu1),
            ("PG1", pg0),
            ("PG2", pg1),
        ])?;
        session.invalidate_warm_start();
        let op = session.dc_owned_with_guess(&[(*l, 0.0), (*r, VDD)])?;
        Ok::<f64, spice::SpiceError>(op.voltage(*r))
    };
    let buffered = ParallelRunner::new(99)
        .workers(2)
        .run(n, build, sample)
        .expect("elaboration succeeds");
    let mut sink = VecSink::new();
    let streamed = ParallelRunner::new(99)
        .workers(3)
        .run_streaming(n, build, sample, &mut sink)
        .expect("elaboration succeeds");
    assert_eq!(sink.records(), buffered.samples());
    assert_eq!(streamed.failures, buffered.failures);
    assert_eq!(streamed.observed, buffered.len());
    let bm = buffered.moments();
    assert_eq!(bm.mean().to_bits(), streamed.moments().mean().to_bits());
    assert_eq!(
        bm.variance().to_bits(),
        streamed.moments().variance().to_bits()
    );
}

#[test]
fn streaming_early_stop_matches_run_scalar_at_the_same_round_boundary() {
    // A stopped streaming run must feed its sink exactly the sample prefix
    // the buffered run returns, and stop at the same round, whatever the
    // worker count.
    let runner = |workers: usize| {
        ParallelRunner::new(5)
            .workers(workers)
            .check_every(50)
            .early_stop(EarlyStop::relative(0.05).min_samples(50))
    };
    let build = |_: usize, _: &mut Sampler| Ok::<(), std::convert::Infallible>(());
    let sample = |(): &mut (), s: &mut Sampler, _: usize| Ok(10.0 + s.standard_normal());
    let buffered = runner(1)
        .run_scalar(100_000, build, sample)
        .expect("infallible");
    assert!(buffered.attempted < 100_000, "early stop fired");
    let mut sink = (VecSink::new(), CsvSink::new(Vec::<u8>::new()));
    let streamed = runner(3)
        .run_streaming(100_000, build, sample, &mut sink)
        .expect("infallible");
    let (records, csv) = sink;
    assert_eq!(streamed.attempted, buffered.attempted);
    assert_eq!(records.records(), buffered.samples());
    assert_eq!(
        streamed.moments().mean().to_bits(),
        buffered.moments().mean().to_bits()
    );
    // The CSV byte stream equals one generated from the buffered prefix.
    let mut expected = Vec::new();
    for &(i, x) in buffered.samples() {
        use std::io::Write as _;
        writeln!(expected, "{i},{x}").unwrap();
    }
    assert_eq!(csv.into_inner(), expected);
}

#[test]
fn streaming_counts_failures_and_skips_them_in_the_sink() {
    let mut sink = (VecSink::new(), WelfordSink::new());
    let out = ParallelRunner::new(3)
        .workers(2)
        .run_streaming(
            40,
            |_, _| Ok::<(), &'static str>(()),
            |(), _, i| {
                if i % 4 == 0 {
                    Err("synthetic")
                } else {
                    Ok(i as f64)
                }
            },
            &mut sink,
        )
        .expect("setup is fine");
    assert_eq!(out.failures, 10);
    assert_eq!(out.observed, 30);
    assert_eq!(out.attempted, 40);
    assert!(sink.0.records().iter().all(|(i, _)| i % 4 != 0));
    assert_eq!(sink.1.moments().count(), 30);
}

#[test]
#[should_panic(expected = "synthetic sink panic")]
fn sink_panics_propagate_on_the_coordinating_thread() {
    // A sink that panics in observe must shut the run down cleanly (no
    // deadlocked workers at the round barriers) and re-raise here, matching
    // the closure-panic guarantee.
    struct Exploding;
    impl Sink for Exploding {
        fn observe(&mut self, index: usize, _value: f64) {
            if index >= 7 {
                panic!("synthetic sink panic");
            }
        }
    }
    let _ = ParallelRunner::new(2)
        .workers(3)
        .check_every(8)
        .run_streaming(
            64,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), _, _| Ok(1.0),
            &mut Exploding,
        );
}

#[test]
fn streaming_setup_errors_propagate_and_leave_the_sink_unfinished() {
    let mut sink = CsvSink::with_header(Vec::<u8>::new(), &["sample", "value"]);
    let err = ParallelRunner::new(1)
        .workers(4)
        .run_streaming(
            8,
            |w, _| {
                if w == 0 {
                    Err("worker zero failed")
                } else {
                    Ok(())
                }
            },
            |(), _, _| Ok(0.0),
            &mut sink,
        )
        .unwrap_err();
    assert_eq!(err, "worker zero failed");
    // No records reached the sink; the header was written at construction.
    assert_eq!(sink.into_inner(), b"sample,value\n");
}

#[test]
fn streaming_records_are_thread_count_invariant() {
    // The generic-record variant: (value, value²) pairs into a two-column
    // CSV, byte-compared across worker counts.
    let run = |workers: usize| {
        let mut sink = CsvSink::new(Vec::<u8>::new());
        let out = ParallelRunner::new(11)
            .workers(workers)
            .run_streaming_records(
                200,
                |_, _| Ok::<(), std::convert::Infallible>(()),
                |(), s, _| {
                    let x = s.standard_normal();
                    Ok((x, x * x))
                },
                &mut sink,
            )
            .expect("infallible");
        assert_eq!(out.observed, 200);
        assert!(out.moments().is_empty(), "record runs carry no metric");
        sink.into_inner()
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    for workers in [2, 7] {
        assert_eq!(reference, run(workers), "bytes differ at {workers} workers");
    }
}

#[test]
fn zero_samples_streaming_finishes_the_sink_empty() {
    let mut sink = (
        CsvSink::with_header(Vec::<u8>::new(), &["sample", "value"]),
        WelfordSink::new(),
    );
    let out = ParallelRunner::new(1)
        .run_streaming(
            0,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), _, _| Ok(1.0),
            &mut sink,
        )
        .expect("no work");
    assert_eq!(out.observed, 0);
    assert_eq!(out.attempted, 0);
    assert!(out.moments().is_empty());
    assert_eq!(sink.0.into_inner(), b"sample,value\n");
}

#[test]
fn zero_samples_is_empty_outcome() {
    let out = ParallelRunner::new(1)
        .run_scalar(
            0,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), _, _| Ok(1.0),
        )
        .expect("no work");
    assert!(out.is_empty());
    assert_eq!(out.attempted, 0);
    assert!(out.moments().is_empty());
}

// ---------------------------------------------------------------------------
// Fleet partitioning: run_streaming_range + mergeable sinks
// ---------------------------------------------------------------------------

/// The fleet sink set: one of each mergeable sketch.
type FleetSinks = ((TDigest, Histogram), WelfordSink);

fn fleet_sinks() -> FleetSinks {
    (
        (TDigest::new(100.0), Histogram::new(0.0, 2e-3, 32)),
        WelfordSink::new(),
    )
}

/// Runs the sample index shard `offset..offset + len` of the stateless
/// device-level workload on `workers` threads, returning the sink states.
fn fleet_shard(seed: u64, offset: usize, len: usize, workers: usize) -> FleetSinks {
    let b = builder();
    let sp = spec();
    let mut sink = fleet_sinks();
    ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_range(
            offset,
            len,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut sink,
        )
        .expect("infallible setup");
    sink
}

/// Merges shard sink states into fleet aggregates, pushing every sketch
/// through its byte round-trip first (the wire a real fleet would cross).
fn merge_through_bytes(shards: Vec<FleetSinks>) -> (TDigest, Histogram, Welford) {
    let mut digest = TDigest::new(100.0);
    let mut hist = Histogram::new(0.0, 2e-3, 32);
    let mut moments = WelfordSink::new();
    for ((d, h), w) in shards {
        digest.merge_from(&TDigest::from_bytes(&d.to_bytes()).expect("digest round trip"));
        MergeableSink::merge_from(
            &mut hist,
            &Histogram::from_bytes(&MergeableSink::to_bytes(&h)).expect("histogram round trip"),
        );
        moments.merge_from(&WelfordSink::from_bytes(&w.to_bytes()).expect("welford round trip"));
    }
    (digest, hist, moments.moments())
}

/// The acceptance property: n samples as one run vs three disjoint
/// `run_streaming_range` shards, merged through the byte round-trip.
/// Histogram state and Welford count/extrema are bit-identical; Welford
/// moments agree to floating-point rounding (grouping pushes into shards
/// legitimately moves the last bits — see `Welford::merge`); t-digest
/// quantiles stay within the documented rank-error bound.
#[test]
fn partitioned_shards_merge_to_the_single_run_state() {
    let (seed, n) = (23u64, 450);
    // Unequal shards at awkward offsets, each on a different worker count
    // (shard-internal sharding must not leak into the merged state).
    let shards = vec![
        fleet_shard(seed, 0, 170, 1),
        fleet_shard(seed, 170, 63, 2),
        fleet_shard(seed, 233, n - 233, 3),
    ];
    let (digest, hist, moments) = merge_through_bytes(shards);

    // Single-run reference over the same index space, plus the buffered
    // sample values for exact empirical quantiles.
    let mut single = fleet_sinks();
    let b = builder();
    let sp = spec();
    let out = ParallelRunner::new(seed)
        .workers(2)
        .run_streaming(
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
            &mut single,
        )
        .expect("infallible setup");
    let ((single_digest, single_hist), single_welford) = single;
    assert_eq!(out.observed, n);

    // Histogram: integer counts — bit-identical.
    assert_eq!(hist.counts(), single_hist.counts());
    assert_eq!(hist.total(), single_hist.total());

    // Welford: count and extrema exact; moments to rounding.
    let single_m = single_welford.moments();
    assert_eq!(moments.count(), single_m.count());
    assert_eq!(moments.min().to_bits(), single_m.min().to_bits());
    assert_eq!(moments.max().to_bits(), single_m.max().to_bits());
    assert!((moments.mean() - single_m.mean()).abs() <= 1e-12 * single_m.mean().abs());
    assert!((moments.variance() - single_m.variance()).abs() <= 1e-12 * single_m.variance());

    // t-digest: counts and extrema exact; quantiles within the documented
    // bound of the single-run digest (both are within the pinned bound of
    // the exact empirical quantile, checked against the buffered values).
    assert_eq!(digest.count(), single_digest.count());
    assert_eq!(digest.min().to_bits(), single_digest.min().to_bits());
    assert_eq!(digest.max().to_bits(), single_digest.max().to_bits());
    let values: Vec<f64> = ParallelRunner::new(seed)
        .workers(2)
        .run_scalar(
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| {
                let delta = sp.sample(b.geometry(), || sampler.standard_normal());
                Ok(DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat)
            },
        )
        .expect("infallible setup")
        .into_values();
    let sigma = single_m.std();
    for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let exact = stats::descriptive::quantile(&values, p);
        let m = digest.quantile(p).expect("non-empty digest");
        let s = single_digest.quantile(p).expect("non-empty digest");
        // n = 450 is far below the n = 4000 pin, so allow the small-sample
        // rank error headroom on top of the asymptotic bound.
        let tol = 0.1 * sigma;
        assert!(
            (m - exact).abs() <= tol,
            "merged digest p{p}: {m:.6e} vs exact {exact:.6e} (sigma {sigma:.2e})"
        );
        assert!(
            (m - s).abs() <= tol,
            "merged vs single digest p{p}: {m:.6e} vs {s:.6e}"
        );
    }
}

/// Merged state must not depend on *how* the index space was partitioned.
#[test]
fn merged_state_is_invariant_to_the_partitioning() {
    let seed = 7u64; // both partitions cover indices 0..300
    let coarse = vec![fleet_shard(seed, 0, 100, 2), fleet_shard(seed, 100, 200, 1)];
    let fine = vec![
        fleet_shard(seed, 0, 37, 1),
        fleet_shard(seed, 37, 63, 3),
        fleet_shard(seed, 100, 100, 2),
        fleet_shard(seed, 200, 100, 1),
    ];
    let (dc, hc, mc) = merge_through_bytes(coarse);
    let (df, hf, mf) = merge_through_bytes(fine);
    assert_eq!(hc.counts(), hf.counts(), "histogram depends on the split");
    assert_eq!(hc.total(), hf.total());
    assert_eq!(mc.count(), mf.count());
    assert_eq!(mc.min().to_bits(), mf.min().to_bits());
    assert_eq!(mc.max().to_bits(), mf.max().to_bits());
    assert!((mc.mean() - mf.mean()).abs() <= 1e-12 * mf.mean().abs());
    assert_eq!(dc.count(), df.count());
    let sigma = mf.std();
    for p in [0.1, 0.5, 0.9] {
        let a = dc.quantile(p).unwrap();
        let b = df.quantile(p).unwrap();
        assert!(
            (a - b).abs() <= 0.1 * sigma,
            "digest split-sensitivity at p{p}: {a:.6e} vs {b:.6e}"
        );
    }
}

/// A shard draws exactly the global `(seed, i)` streams: its records are
/// the corresponding slice of the full run's record sequence, bit for bit.
#[test]
fn range_shards_draw_the_global_sample_streams() {
    let (seed, n) = (91u64, 120);
    let b = builder();
    let sp = spec();
    let sample = |(): &mut (), sampler: &mut Sampler, _i: usize| {
        let delta = sp.sample(b.geometry(), || sampler.standard_normal());
        Ok::<_, std::convert::Infallible>(
            DeviceMetrics::evaluate(b.build(delta).as_ref(), VDD).idsat,
        )
    };
    let mut full = VecSink::new();
    ParallelRunner::new(seed)
        .workers(2)
        .run_streaming(n, |_, _| Ok(()), sample, &mut full)
        .expect("infallible setup");
    let mut shard = VecSink::new();
    let out = ParallelRunner::new(seed)
        .workers(3)
        .run_streaming_range(40, 50, |_, _| Ok(()), sample, &mut shard)
        .expect("infallible setup");
    assert_eq!(out.attempted, 50);
    assert_eq!(out.observed, 50);
    let full_slice: Vec<(usize, u64)> = full.records()[40..90]
        .iter()
        .map(|&(i, v)| (i, v.to_bits()))
        .collect();
    let shard_records: Vec<(usize, u64)> = shard
        .records()
        .iter()
        .map(|&(i, v)| (i, v.to_bits()))
        .collect();
    assert_eq!(full_slice, shard_records);
    // The shard's own moments fold in index order too.
    assert_eq!(out.moments().count(), 50);
}

/// A shard must execute its whole slice even when the runner carries an
/// early-stopping rule: a locally evaluated CI stop would make the
/// executed sample set depend on the partitioning.
#[test]
fn range_shards_ignore_early_stop() {
    let mut sink = WelfordSink::new();
    let out = ParallelRunner::new(5)
        .workers(2)
        .check_every(8)
        .early_stop(EarlyStop::relative(0.5).min_samples(4))
        .run_streaming_range(
            16,
            96,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(10.0 + 0.01 * sampler.standard_normal()),
            &mut sink,
        )
        .expect("infallible setup");
    assert_eq!(out.attempted, 96, "shard stopped early");
    assert_eq!(out.observed, 96);
    assert_eq!(sink.moments().count(), 96);
}

/// Degenerate shards behave like degenerate runs: nothing executes, the
/// sink still finishes.
#[test]
fn zero_length_shard_finishes_the_sink_empty() {
    let mut sink = WelfordSink::new();
    let out = ParallelRunner::new(3)
        .run_streaming_range(
            1000,
            0,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), _, _| Ok(1.0),
            &mut sink,
        )
        .expect("no work");
    assert_eq!(out.attempted, 0);
    assert_eq!(out.observed, 0);
    assert!(sink.moments().is_empty());
}

// ---------------------------------------------------------------------------
// Importance sampling: run_streaming_is + weighted sinks
// ---------------------------------------------------------------------------

/// The weighted fleet sink set: estimator + weighted histogram, fanned out
/// through the generic tuple `Sink` impl exactly like the unweighted set.
type IsSinks = (WeightedMoments, WeightedHistogram);

fn is_sinks() -> IsSinks {
    (
        WeightedMoments::above(4.0),
        WeightedHistogram::new(-2.0, 9.0, 22),
    )
}

/// Runs the shard `offset..offset + len` of a shifted-proposal IS workload
/// on `workers` threads, returning the weighted sink states.
fn is_shard(seed: u64, offset: usize, len: usize, workers: usize) -> IsSinks {
    let proposal = GaussianProposal::new(4.0, 1.25);
    let mut sinks = is_sinks();
    ParallelRunner::new(seed)
        .workers(workers)
        .run_streaming_is(
            offset,
            len,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(proposal.draw_weighted(sampler)),
            &mut sinks,
        )
        .expect("infallible setup");
    sinks
}

/// Weighted sink bytes must be bit-identical across 1/2/3/7 workers — the
/// streaming determinism contract extended to `(value, log_weight)`
/// records.
#[test]
fn is_weighted_sink_bytes_are_worker_count_invariant() {
    let (m1, h1) = is_shard(61, 0, 700, 1);
    let (reference_m, reference_h) = (m1.to_bytes(), h1.to_bytes());
    for workers in [2, 3, 7] {
        let (m, h) = is_shard(61, 0, 700, workers);
        assert_eq!(
            m.to_bytes(),
            reference_m,
            "moments bytes at {workers} workers"
        );
        assert_eq!(
            h.to_bytes(),
            reference_h,
            "histogram bytes at {workers} workers"
        );
    }
    // Sanity: the run actually estimated the 4σ tail it was aimed at.
    assert!((m1.estimate() / stats::gaussian::tail(4.0) - 1.0).abs() < 0.3);
    assert!(m1.ess() > 0.0);
}

/// Disjoint `run_streaming_is` shards merged through the byte codec must
/// reproduce the single-run sink bytes *exactly* — stronger than the
/// Welford fleet guarantee, because the weighted sinks accumulate in
/// exact fixed-point sums. Any partitioning, any per-shard worker count.
#[test]
fn is_shards_merge_bit_identically_across_partitionings() {
    let (seed, n) = (29u64, 600);
    let (single_m, single_h) = is_shard(seed, 0, n, 2);
    let partitions: [&[(usize, usize, usize)]; 3] = [
        &[(0, 600, 1)],
        &[(0, 170, 1), (170, 63, 2), (233, 367, 3)],
        &[(0, 1, 1), (1, 299, 7), (300, 300, 2)],
    ];
    for cuts in partitions {
        let mut merged = is_sinks();
        for &(offset, len, workers) in cuts {
            let (m, h) = is_shard(seed, offset, len, workers);
            // Cross the wire: every shard round-trips through its codec.
            let m = WeightedMoments::from_bytes(&m.to_bytes()).expect("moments round trip");
            let h = WeightedHistogram::from_bytes(&h.to_bytes()).expect("histogram round trip");
            merged.0.merge_from(&m);
            merged.1.merge_from(&h);
        }
        assert_eq!(
            merged.0.to_bytes(),
            single_m.to_bytes(),
            "moments bytes differ for partition {cuts:?}"
        );
        assert_eq!(
            merged.1.to_bytes(),
            single_h.to_bytes(),
            "histogram bytes differ for partition {cuts:?}"
        );
    }
    assert_eq!(single_m.count(), n as u64);
    assert_eq!(single_h.total(), n as u64);
}

/// The nominal (shift = 0, scale = 1) proposal reduces `run_streaming_is`
/// to plain MC bit-exactly: the record values are the unweighted stream
/// and every log-weight is +0.0.
#[test]
fn nominal_proposal_reduces_to_plain_mc_bit_exactly() {
    let (seed, n) = (47u64, 500);
    let proposal = GaussianProposal::nominal();
    let mut is_records: VecSink<(f64, f64)> = VecSink::new();
    ParallelRunner::new(seed)
        .workers(3)
        .run_streaming_is(
            0,
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(proposal.draw_weighted(sampler)),
            &mut is_records,
        )
        .expect("infallible setup");
    let mut plain: VecSink<f64> = VecSink::new();
    ParallelRunner::new(seed)
        .workers(2)
        .run_streaming(
            n,
            |_, _| Ok::<(), std::convert::Infallible>(()),
            |(), sampler, _| Ok(sampler.standard_normal()),
            &mut plain,
        )
        .expect("infallible setup");
    assert_eq!(is_records.records().len(), n);
    for ((i, (x, log_w)), (j, z)) in is_records.records().iter().zip(plain.records()) {
        assert_eq!(i, j);
        assert_eq!(x.to_bits(), z.to_bits(), "sample {i}: value stream shifted");
        assert_eq!(
            log_w.to_bits(),
            0.0f64.to_bits(),
            "sample {i}: weight not +0.0"
        );
    }
}

/// Circuit-level IS through `McFactory::set_proposal_shifts`: the SRAM SNM
/// workload under a mean-shifted proposal stays worker-count invariant at
/// the byte level, and with zero shifts it reproduces the plain-MC SNM
/// values bit-exactly.
#[test]
fn sram_is_run_is_worker_count_invariant_and_degenerates_to_plain_mc() {
    let shifts: std::sync::Arc<[f64]> = (0..30)
        .map(|k| if k % 5 == 0 { -0.8 } else { 0.1 })
        .collect();
    let run = |workers: usize, shifts: std::sync::Arc<[f64]>| {
        let mut sinks = (
            WeightedMoments::below(0.1),
            WeightedHistogram::new(0.0, 0.4, 16),
        );
        ParallelRunner::new(5)
            .workers(workers)
            .run_streaming_is(
                0,
                24,
                |_, setup| {
                    let mut f = sram_factory(setup.fork(0));
                    let bench = circuits::sram::SnmBench::new(
                        SramSizing::default(),
                        VDD,
                        circuits::sram::SnmMode::Hold,
                        31,
                        &mut f,
                    )?;
                    Ok((f, bench))
                },
                |(f, bench), sampler, _| {
                    f.set_sampler(sampler.clone());
                    f.set_proposal_shifts(shifts.clone());
                    bench.resample(SramSizing::default(), f)?;
                    let snm = bench.snm()?;
                    Ok::<_, spice::SpiceError>((snm, f.take_log_weight()))
                },
                &mut sinks,
            )
            .expect("sram elaboration");
        (sinks.0.to_bytes(), sinks.1.to_bytes())
    };
    let reference = run(1, shifts.clone());
    for workers in [2, 3] {
        assert_eq!(run(workers, shifts.clone()), reference, "{workers} workers");
    }

    // Zero shifts: the weighted records must be the plain-MC SNM values
    // with +0.0 log-weights.
    let zero: std::sync::Arc<[f64]> = std::sync::Arc::from(vec![0.0; 30]);
    let mut is_records: VecSink<(f64, f64)> = VecSink::new();
    ParallelRunner::new(5)
        .workers(2)
        .run_streaming_is(
            0,
            12,
            |_, setup| {
                let mut f = sram_factory(setup.fork(0));
                let bench = circuits::sram::SnmBench::new(
                    SramSizing::default(),
                    VDD,
                    circuits::sram::SnmMode::Hold,
                    31,
                    &mut f,
                )?;
                Ok((f, bench))
            },
            |(f, bench), sampler, _| {
                f.set_sampler(sampler.clone());
                f.set_proposal_shifts(zero.clone());
                bench.resample(SramSizing::default(), f)?;
                let snm = bench.snm()?;
                Ok::<_, spice::SpiceError>((snm, f.take_log_weight()))
            },
            &mut is_records,
        )
        .expect("sram elaboration");
    let mut plain_records: VecSink<f64> = VecSink::new();
    ParallelRunner::new(5)
        .workers(3)
        .run_streaming(
            12,
            |_, setup| {
                let mut f = sram_factory(setup.fork(0));
                let bench = circuits::sram::SnmBench::new(
                    SramSizing::default(),
                    VDD,
                    circuits::sram::SnmMode::Hold,
                    31,
                    &mut f,
                )?;
                Ok((f, bench))
            },
            |(f, bench), sampler, _| {
                f.set_sampler(sampler.clone());
                bench.resample(SramSizing::default(), f)?;
                bench.snm()
            },
            &mut plain_records,
        )
        .expect("sram elaboration");
    assert_eq!(is_records.records().len(), plain_records.records().len());
    for ((i, (snm, log_w)), (j, plain)) in is_records.records().iter().zip(plain_records.records())
    {
        assert_eq!(i, j);
        assert_eq!(snm.to_bits(), plain.to_bits(), "sample {i}: SNM shifted");
        assert_eq!(log_w.to_bits(), 0.0f64.to_bits(), "sample {i}");
    }
}
