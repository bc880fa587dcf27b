//! Work-sharded, deterministic parallel Monte Carlo execution.
//!
//! [`ParallelRunner`] spreads the samples of one Monte Carlo experiment
//! across `std::thread` workers. Three properties shape the design:
//!
//! * **Elaborate once per worker.** Worker state (an elaborated
//!   [`spice::Session`], a bench, a device factory template) is built once
//!   by the `build` closure inside each worker thread — the per-sample fast
//!   path (swap devices, warm-started re-solve) never crosses a thread
//!   boundary. Use [`spice::Session::replicate`] to hand every worker its
//!   own copy of a shared elaboration.
//! * **Thread-count-invariant determinism.** Sample `i` always draws from
//!   [`stats::Sampler::stream`]`(i)` of the runner's base sampler — a pure
//!   function of `(seed, i)` — and work is handed out by index from a
//!   shared counter. Whichever worker happens to execute a sample, it
//!   computes bit-identical results; 1, 2, or 64 workers produce the same
//!   sample set. Merged moments reported by [`McOutcome::moments`] are
//!   accumulated in sample-index order, so they are bit-identical too.
//!
//!   The guarantee is as strong as the sample closure is pure: if a sample
//!   reads mutable worker state whose value depends on scheduling history —
//!   the classic case is a warm-started Newton solve seeded by whichever
//!   sample the worker ran previously — its result can drift in the last
//!   floating-point bits while remaining statistically identical (the
//!   mismatch draws are exactly the same devices). Call
//!   [`spice::Session::invalidate_warm_start`] per sample when bit-exact
//!   reproducibility matters more than the warm-start speedup.
//! * **Streaming aggregation with optional early stopping.** Workers write
//!   results into per-sample slots; the coordinating thread folds them into
//!   a [`Welford`] accumulator at deterministic round boundaries and can
//!   stop the run once the confidence interval on the mean is tight enough
//!   ([`EarlyStop`]). Because rounds are fixed multiples of
//!   [`ParallelRunner::check_every`] samples (independent of the worker
//!   count), the stopping sample count is deterministic as well.
//!
//!   When the sample values themselves should not be buffered —
//!   million-sample sweeps asking distribution questions —
//!   [`ParallelRunner::run_streaming`] feeds every `(index, value)` record
//!   to a [`Sink`] (quantile sketch, histogram, CSV writer, live moments)
//!   *during* the run: workers append to per-worker shards, and the
//!   coordinator folds the shards in ascending index order at each round
//!   boundary, so sink state is bit-identical for any worker count while
//!   peak sample storage stays O(workers + check_every) instead of O(n).
//! * **Fleet partitioning.** [`ParallelRunner::run_streaming_range`] runs
//!   one disjoint slice of the sample index space — the same pure
//!   `(seed, i)` streams, the same index-ordered fold — so N *processes or
//!   machines* each execute a shard of one experiment and merge their
//!   [`stats::sink::MergeableSink`] states (t-digest, histogram, Welford)
//!   afterwards, independent of how the space was partitioned.
//!
//! # Example
//!
//! ```
//! use vscore::mc::ParallelRunner;
//!
//! // Estimate E[X^2] for X ~ N(0,1): worker state is trivial (unit), the
//! // per-sample closure gets a deterministically derived sampler.
//! let runner = ParallelRunner::new(7).workers(2);
//! let out = runner
//!     .run_scalar(
//!         400,
//!         |_worker, _sampler| Ok::<(), std::convert::Infallible>(()),
//!         |(), sampler, _i| {
//!             let x = sampler.standard_normal();
//!             Ok(x * x)
//!         },
//!     )
//!     .unwrap();
//! let moments = out.moments();
//! assert_eq!(moments.count(), 400);
//! assert!((moments.mean() - 1.0).abs() < 0.2);
//! // Same seed, different worker count: bit-identical outcome.
//! let again = ParallelRunner::new(7)
//!     .workers(1)
//!     .run_scalar(
//!         400,
//!         |_, _| Ok::<(), std::convert::Infallible>(()),
//!         |(), s, _| {
//!             let x = s.standard_normal();
//!             Ok(x * x)
//!         },
//!     )
//!     .unwrap();
//! assert_eq!(moments.mean(), again.moments().mean());
//! ```

use stats::sink::Sink;
use stats::{Sampler, Welford};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Sentinel `limit` value signalling workers to shut down.
const SHUTDOWN: usize = usize::MAX;
/// Salt separating worker-setup streams from per-sample streams.
const WORKER_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Confidence-interval stopping rule for [`ParallelRunner::run_scalar`].
///
/// The run ends at the first round boundary where at least `min_samples`
/// samples have succeeded and the `z`-scaled half-width of the confidence
/// interval on the mean is below `rel_half_width · |mean|`. A mean of zero
/// never satisfies the relative criterion; use an absolute transform of the
/// metric if that can occur.
#[derive(Debug, Clone, Copy)]
pub struct EarlyStop {
    /// Target half-width of the CI, relative to the absolute mean.
    pub rel_half_width: f64,
    /// Normal quantile of the interval (1.96 ~ 95%).
    pub z: f64,
    /// Minimum number of successful samples before stopping is considered.
    pub min_samples: usize,
}

impl EarlyStop {
    /// A 95% (`z = 1.96`) rule with the given relative half-width and a
    /// 64-sample floor.
    #[must_use]
    pub fn relative(rel_half_width: f64) -> Self {
        EarlyStop {
            rel_half_width,
            z: 1.96,
            min_samples: 64,
        }
    }

    /// Overrides the minimum sample count.
    #[must_use]
    pub fn min_samples(mut self, n: usize) -> Self {
        self.min_samples = n;
        self
    }

    /// Overrides the normal quantile.
    #[must_use]
    pub fn z(mut self, z: f64) -> Self {
        self.z = z;
        self
    }

    /// True when the accumulated moments meet the stopping criterion.
    ///
    /// This is *the* predicate both execution paths evaluate at round
    /// boundaries — the buffered `run_scalar` and the streaming
    /// `run_streaming` stay bit-identical because they share it, and
    /// external progress loops (e.g. polling a
    /// [`stats::sink::WelfordWatch`]) can reuse it verbatim.
    #[must_use]
    pub fn satisfied(&self, watched: &Welford) -> bool {
        watched.count() >= self.min_samples as u64
            && watched.ci_half_width(self.z) <= self.rel_half_width * watched.mean().abs()
    }
}

/// Outcome of a parallel Monte Carlo run.
///
/// Successful samples are stored as `(index, value)` pairs sorted by sample
/// index; failed samples (the `sample` closure returned `Err`) are counted
/// in `failures` and omitted, matching the skip-and-count convention of the
/// sequential experiment loops.
#[derive(Debug, Clone)]
pub struct McOutcome<T> {
    samples: Vec<(usize, T)>,
    /// Samples whose closure returned an error (functional failures under
    /// extreme mismatch, non-convergence, ...).
    pub failures: usize,
    /// Number of sample indices actually scheduled — equals the requested
    /// count unless an [`EarlyStop`] rule ended the run sooner.
    pub attempted: usize,
    /// Worker threads the run executed on.
    pub workers: usize,
}

impl<T> McOutcome<T> {
    /// Number of successful samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample succeeded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `(sample index, value)` pairs, ascending by index.
    #[must_use]
    pub fn samples(&self) -> &[(usize, T)] {
        &self.samples
    }

    /// Successful sample values in index order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.samples.iter().map(|(_, t)| t)
    }

    /// Consumes the outcome into the values in index order.
    #[must_use]
    pub fn into_values(self) -> Vec<T> {
        self.samples.into_iter().map(|(_, t)| t).collect()
    }
}

impl McOutcome<f64> {
    /// Streaming moments of the successful samples, accumulated in sample-
    /// index order — bit-identical for any worker count.
    #[must_use]
    pub fn moments(&self) -> Welford {
        let mut w = Welford::new();
        for (_, x) in &self.samples {
            w.push(*x);
        }
        w
    }
}

/// Summary of a streaming Monte Carlo run — the counterpart of
/// [`McOutcome`] when results flow to a [`Sink`] during the run instead of
/// being buffered. The values themselves live in whatever state the sink
/// kept; this carries the run accounting and the index-ordered moments.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Samples whose closure returned an error (functional failures under
    /// extreme mismatch, non-convergence, ...).
    pub failures: usize,
    /// Number of sample indices actually scheduled — equals the requested
    /// count unless an [`EarlyStop`] rule ended the run sooner.
    pub attempted: usize,
    /// Worker threads the run executed on.
    pub workers: usize,
    /// Successful samples handed to the sink.
    pub observed: usize,
    moments: Welford,
}

impl StreamOutcome {
    /// Streaming moments of the observed samples, folded in sample-index
    /// order — bit-identical to [`McOutcome::moments`] of a buffered
    /// [`ParallelRunner::run_scalar`] of the same workload, for any worker
    /// count. Empty for [`ParallelRunner::run_streaming_records`] runs
    /// (generic records carry no scalar metric).
    #[must_use]
    pub fn moments(&self) -> Welford {
        self.moments
    }
}

/// Run accounting shared by the buffered and streaming execution paths.
struct RunStats {
    attempted: usize,
    failures: usize,
    workers: usize,
}

/// A deterministic, work-sharded Monte Carlo executor.
///
/// See the [module docs](self) for the determinism contract and a runnable
/// example. Construct with [`ParallelRunner::new`] (worker count defaults
/// to the machine's available parallelism) and adjust with the builder
/// methods.
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    workers: usize,
    seed: u64,
    early_stop: Option<EarlyStop>,
    check_every: usize,
}

impl ParallelRunner {
    /// A runner using every available hardware thread.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ParallelRunner {
            workers,
            seed,
            early_stop: None,
            check_every: 256,
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Configured worker count.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Enables confidence-interval early stopping for
    /// [`ParallelRunner::run_scalar`].
    #[must_use]
    pub fn early_stop(mut self, stop: EarlyStop) -> Self {
        self.early_stop = Some(stop);
        self
    }

    /// Sets the round granularity: the stopping rule is evaluated every
    /// `n` samples (clamped to at least 1). Rounds are independent of the
    /// worker count, keeping early-stopped runs deterministic.
    #[must_use]
    pub fn check_every(mut self, n: usize) -> Self {
        self.check_every = n.max(1);
        self
    }

    /// Runs `n` samples of a generic-valued experiment.
    ///
    /// `build(worker_id, sampler)` constructs each worker's private state
    /// inside its thread (elaborated sessions, benches, factory templates);
    /// the sampler it receives is derived per worker and is *not* part of
    /// the per-sample determinism contract — anything drawn from it must be
    /// overwritten per sample (as device-swapping benches do).
    ///
    /// `sample(state, sampler, i)` computes sample `i` with a sampler
    /// stream derived purely from the runner seed and `i`. An `Err` return
    /// marks that sample failed and is counted, not propagated.
    ///
    /// Early stopping does not apply (there is no scalar metric to watch);
    /// use [`ParallelRunner::run_scalar`] for that.
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error.
    pub fn run<W, T, E, B, S>(&self, n: usize, build: B, sample: S) -> Result<McOutcome<T>, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
    {
        self.run_impl(n, build, sample, None)
    }

    /// [`ParallelRunner::run`] for scalar metrics, with the configured
    /// [`EarlyStop`] rule applied at round boundaries. Moments of the
    /// outcome come from [`McOutcome::moments`].
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error.
    pub fn run_scalar<W, E, B, S>(&self, n: usize, build: B, sample: S) -> Result<McOutcome<f64>, E>
    where
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<f64, E> + Sync,
    {
        self.run_impl(n, build, sample, Some(&|x: &f64| *x))
    }

    /// Runs `n` samples of a scalar experiment, streaming every successful
    /// `(index, value)` record into `sink` *during* the run instead of
    /// buffering it — peak sample storage is O(workers + check_every),
    /// independent of `n`.
    ///
    /// Workers append records to per-worker shards; at every round boundary
    /// (fixed multiples of [`ParallelRunner::check_every`] samples) the
    /// coordinating thread folds the shards **in ascending sample-index
    /// order** and hands the batch to the sink on the calling thread. The
    /// sink therefore consumes one deterministic record sequence: its final
    /// state — sketch markers, histogram counts, CSV bytes — is
    /// bit-identical for any worker count, and [`StreamOutcome::moments`]
    /// reproduces [`McOutcome::moments`] of the equivalent
    /// [`ParallelRunner::run_scalar`] bit-exactly. The sink does not need
    /// to be `Send`; it never leaves the calling thread.
    ///
    /// The configured [`EarlyStop`] rule is honoured at the same round
    /// boundaries as `run_scalar`, so a stopped streaming run feeds the
    /// sink exactly the sample prefix the buffered run would return.
    /// [`Sink::finish`] is called once after the final record of a
    /// completed (or early-stopped) run; a panic inside the sink shuts the
    /// run down cleanly and re-raises on the calling thread, exactly like
    /// a panic in a sample closure.
    ///
    /// # Example
    ///
    /// ```
    /// use stats::sink::P2Quantiles;
    /// use vscore::mc::ParallelRunner;
    ///
    /// // Stream E[X] and the 90th percentile of X ~ N(0,1) without
    /// // buffering a single sample value.
    /// let mut sketch = P2Quantiles::new(&[0.9]);
    /// let out = ParallelRunner::new(7)
    ///     .workers(2)
    ///     .run_streaming(
    ///         2000,
    ///         |_, _| Ok::<(), std::convert::Infallible>(()),
    ///         |(), s, _| Ok(s.standard_normal()),
    ///         &mut sketch,
    ///     )
    ///     .unwrap();
    /// assert_eq!(out.observed, 2000);
    /// assert!(out.moments().mean().abs() < 0.1);
    /// assert!((sketch.quantile(0.9).unwrap() - 1.28).abs() < 0.15);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error (the sink is left
    /// unfinished).
    pub fn run_streaming<W, E, B, S, K>(
        &self,
        n: usize,
        build: B,
        sample: S,
        sink: &mut K,
    ) -> Result<StreamOutcome, E>
    where
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<f64, E> + Sync,
        K: Sink + ?Sized,
    {
        self.stream_impl(
            0,
            n,
            build,
            sample,
            sink,
            Some(&|x: &f64| *x),
            self.early_stop,
        )
    }

    /// [`ParallelRunner::run_streaming`] for generic record types — e.g. a
    /// scatter experiment streaming `(leakage, frequency)` pairs into a
    /// two-column [`stats::sink::CsvSink`]. There is no scalar metric, so
    /// [`EarlyStop`] does not apply and [`StreamOutcome::moments`] stays
    /// empty; everything else (index-ordered fold, bit-identical sink
    /// state, panic propagation) matches the scalar variant.
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error.
    pub fn run_streaming_records<W, T, E, B, S, K>(
        &self,
        n: usize,
        build: B,
        sample: S,
        sink: &mut K,
    ) -> Result<StreamOutcome, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
        K: Sink<T> + ?Sized,
    {
        self.stream_impl(0, n, build, sample, sink, None, None)
    }

    /// Executes the disjoint shard `offset .. offset + len` of a larger
    /// experiment's sample index space, streaming into `sink` — the
    /// fleet-scale primitive: N processes or machines each run one shard
    /// of the same `(seed, total)` experiment, serialize their
    /// [`stats::sink::MergeableSink`] states, and an aggregator merges
    /// them.
    ///
    /// Sample `i` draws from exactly the same pure `(seed, i)` stream as
    /// in a single [`ParallelRunner::run_streaming`] over the whole index
    /// space, and the shard's records fold into the sink in ascending
    /// index order — so the union of shard streams *is* the single-run
    /// stream, however the space is partitioned. Merged sketch guarantees
    /// (partitioned-and-merged vs single-run state): exact for
    /// [`stats::histogram::Histogram`] bin counts and for every
    /// count/min/max; [`stats::Welford`] moments to floating-point
    /// rounding (≲1e-12 relative — grouping pushes into shards moves the
    /// last bits, see [`stats::Welford::merge`]); [`stats::TDigest`]
    /// quantiles within the digest's documented rank-error bound. The
    /// determinism suite (`crates/core/tests/parallel_mc.rs`) pins all
    /// three, including through the byte round-trip.
    ///
    /// The configured [`EarlyStop`] rule is **ignored**: a shard observes
    /// only its slice of the samples, so a locally-evaluated CI rule would
    /// make the executed sample set depend on the partitioning — exactly
    /// what fleet merging must rule out. (Run accounting in the returned
    /// [`StreamOutcome`] is shard-local: `attempted` counts this shard's
    /// indices.)
    ///
    /// # Example
    ///
    /// Three shards of one experiment, merged, against the single run:
    ///
    /// ```
    /// use stats::sink::MergeableSink;
    /// use stats::TDigest;
    /// use vscore::mc::ParallelRunner;
    ///
    /// let runner = ParallelRunner::new(9);
    /// let sample = |(): &mut (), s: &mut stats::Sampler, _i: usize| {
    ///     Ok::<_, std::convert::Infallible>(s.standard_normal())
    /// };
    /// let mut merged = TDigest::new(100.0);
    /// for (offset, len) in [(0, 1000), (1000, 500), (1500, 1500)] {
    ///     let mut shard = TDigest::new(100.0);
    ///     runner
    ///         .run_streaming_range(offset, len, |_, _| Ok(()), sample, &mut shard)
    ///         .unwrap();
    ///     // In a real fleet the bytes cross a process/machine boundary.
    ///     merged.merge_from(&TDigest::from_bytes(&shard.to_bytes()).unwrap());
    /// }
    /// let mut single = TDigest::new(100.0);
    /// runner
    ///     .run_streaming(3000, |_, _| Ok(()), sample, &mut single)
    ///     .unwrap();
    /// assert_eq!(merged.count(), single.count());
    /// assert_eq!(merged.min(), single.min()); // extrema merge exactly
    /// let (m, s) = (
    ///     merged.quantile(0.95).unwrap(),
    ///     single.quantile(0.95).unwrap(),
    /// );
    /// assert!((m - s).abs() < 0.1); // within the documented rank error
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error (the sink is left
    /// unfinished).
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` overflows `usize` or reaches
    /// `usize::MAX` (reserved as the engine's shutdown sentinel) — shard
    /// specifications that cannot index a sample space are a caller bug.
    pub fn run_streaming_range<W, E, B, S, K>(
        &self,
        offset: usize,
        len: usize,
        build: B,
        sample: S,
        sink: &mut K,
    ) -> Result<StreamOutcome, E>
    where
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<f64, E> + Sync,
        K: Sink + ?Sized,
    {
        let end = offset
            .checked_add(len)
            .filter(|&end| end < usize::MAX)
            .expect("shard range must end below usize::MAX (the sample index space)");
        self.stream_impl(offset, end, build, sample, sink, Some(&|x: &f64| *x), None)
    }

    /// Executes the shard `offset .. offset + len` of an
    /// **importance-sampling** experiment: the `sample` closure returns a
    /// `(value, log_weight)` record — the metric drawn under a *proposal*
    /// distribution plus its exact log-likelihood-ratio against the
    /// nominal distribution — and every record flows through the unchanged
    /// index-ordered fold into a weighted sink
    /// ([`stats::WeightedMoments`], [`stats::WeightedHistogram`], or any
    /// [`Sink<(f64, f64)>`](Sink) fan-out tuple of them).
    ///
    /// Everything [`ParallelRunner::run_streaming_range`] guarantees holds
    /// verbatim: sample `i` draws the pure `(seed, i)` stream, records fold
    /// in ascending index order, the sink state is bit-identical for any
    /// worker count, and disjoint shards of one experiment merge through
    /// the [`stats::WeightedSink`] byte codec. The weighted sinks
    /// accumulate in exact fixed-point sums, so the merged-shard guarantee
    /// is *stronger* than for Welford moments: merged bytes equal
    /// single-run bytes exactly, for any partitioning. A configured
    /// [`EarlyStop`] rule is ignored for the same reason as in
    /// `run_streaming_range`, and [`StreamOutcome::moments`] stays empty —
    /// unweighted moments of proposal draws estimate nothing about the
    /// nominal distribution; read the weighted sink instead.
    ///
    /// With the nominal (identity) proposal every log-weight is exactly
    /// `0.0` and the record values are the plain-MC stream bit-for-bit, so
    /// degenerate IS runs reproduce unweighted runs exactly (pinned by the
    /// determinism suite).
    ///
    /// # Example
    ///
    /// A 4σ tail probability, resolved with 4000 proposal draws — plain MC
    /// would see roughly zero hits at this budget:
    ///
    /// ```
    /// use vscore::mc::{GaussianProposal, ParallelRunner, WeightedMoments};
    ///
    /// let proposal = GaussianProposal::new(4.0, 1.0);
    /// let mut sink = WeightedMoments::above(4.0);
    /// ParallelRunner::new(11)
    ///     .workers(2)
    ///     .run_streaming_is(
    ///         0,
    ///         4000,
    ///         |_, _| Ok::<(), std::convert::Infallible>(()),
    ///         |(), s, _| Ok(proposal.draw_weighted(s)),
    ///         &mut sink,
    ///     )
    ///     .unwrap();
    /// let truth = stats::gaussian::tail(4.0); // ~3.17e-5
    /// assert!((sink.estimate() / truth - 1.0).abs() < 0.2);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error (the sink is left
    /// unfinished).
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` overflows the sample index space, as
    /// [`ParallelRunner::run_streaming_range`].
    pub fn run_streaming_is<W, E, B, S, K>(
        &self,
        offset: usize,
        len: usize,
        build: B,
        sample: S,
        sink: &mut K,
    ) -> Result<StreamOutcome, E>
    where
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<(f64, f64), E> + Sync,
        K: Sink<(f64, f64)> + ?Sized,
    {
        let end = offset
            .checked_add(len)
            .filter(|&end| end < usize::MAX)
            .expect("shard range must end below usize::MAX (the sample index space)");
        self.stream_impl(offset, end, build, sample, sink, None, None)
    }

    /// Buffered execution: per-sample slots collected into an [`McOutcome`].
    fn run_impl<W, T, E, B, S>(
        &self,
        n: usize,
        build: B,
        sample: S,
        metric: Option<&dyn Fn(&T) -> f64>,
    ) -> Result<McOutcome<T>, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let results = Mutex::new(slots);
        // Without a stopping rule there is nothing to evaluate between
        // rounds, so the whole run is one round.
        let round = match (self.early_stop, metric.is_some()) {
            (Some(_), true) => self.check_every,
            _ => n.max(1),
        };
        // Early-stop accumulator: samples below a finished round's limit
        // never change, so each slot is folded exactly once, in index
        // order — bit-identical to a from-scratch refold, but O(round) per
        // check instead of O(hi).
        let mut watched = Welford::new();
        let stats = self.run_engine(
            0,
            n,
            round,
            &build,
            &sample,
            &|_, i, t| results.lock().expect("no poisoned locks")[i] = Some(t),
            &mut |lo, hi| {
                let (Some(stop), Some(metric)) = (self.early_stop, metric) else {
                    return false;
                };
                if hi >= n {
                    return false; // final round: the run is complete anyway
                }
                let res = results.lock().expect("no poisoned locks");
                for t in res[lo..hi].iter().flatten() {
                    watched.push(metric(t));
                }
                stop.satisfied(&watched)
            },
        )?;
        let samples = results
            .into_inner()
            .expect("no poisoned locks")
            .into_iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (i, t)))
            .collect();
        Ok(McOutcome {
            samples,
            failures: stats.failures,
            attempted: stats.attempted,
            workers: stats.workers,
        })
    }

    /// Streaming execution over the sample index range `start..end`:
    /// per-worker record shards folded into a sink in index order at every
    /// round boundary. `stop` is the early-stopping rule to honour (`None`
    /// for generic records and for partitioned shards, which must not let
    /// local state decide the executed sample set).
    fn stream_impl<W, T, E, B, S, K>(
        &self,
        start: usize,
        end: usize,
        build: B,
        sample: S,
        sink: &mut K,
        metric: Option<&dyn Fn(&T) -> f64>,
        stop: Option<EarlyStop>,
    ) -> Result<StreamOutcome, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
        K: Sink<T> + ?Sized,
    {
        let workers = self.workers.min((end - start).max(1));
        let shards: Vec<Mutex<Vec<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let mut batch: Vec<(usize, T)> = Vec::new();
        let mut moments = Welford::new();
        let mut observed = 0usize;
        let stats = self.run_engine(
            start,
            end,
            self.check_every,
            &build,
            &sample,
            &|w, i, t| shards[w].lock().expect("no poisoned locks").push((i, t)),
            &mut |_, hi| {
                // Fold the shards in ascending sample-index order: the sink
                // and the watched moments see one deterministic record
                // stream, whatever the worker count. Each worker pops
                // indices monotonically, so the concatenation sorts in one
                // cheap pass over ~check_every records.
                for shard in &shards {
                    batch.append(&mut shard.lock().expect("no poisoned locks"));
                }
                batch.sort_unstable_by_key(|&(i, _)| i);
                observed += batch.len();
                if let Some(metric) = metric {
                    for (_, t) in &batch {
                        moments.push(metric(t));
                    }
                }
                sink.merge(&mut batch);
                batch.clear();
                if hi < end {
                    if let (Some(stop), Some(_)) = (stop, metric) {
                        return stop.satisfied(&moments);
                    }
                }
                false
            },
        )?;
        sink.finish();
        Ok(StreamOutcome {
            failures: stats.failures,
            attempted: stats.attempted,
            workers: stats.workers,
            observed,
            moments,
        })
    }

    /// The sharded execution engine shared by every run flavor, executing
    /// the sample index range `start..end` (a full run passes `start = 0`;
    /// a fleet shard passes its offset — sample `i` draws the same pure
    /// `(seed, i)` stream either way).
    ///
    /// Workers hand each successful sample to `emit(worker, index, value)`
    /// from their own threads; after every round barrier the coordinator
    /// calls `fold(lo, hi)` exactly once on the calling thread for the
    /// now-final contiguous index range `lo..hi` — returning `true` stops
    /// the run at that round boundary. A panic inside `fold` (a sink
    /// panicking in `observe`, say) shuts the run down cleanly and
    /// re-raises on the coordinating thread, exactly like a worker-closure
    /// panic.
    fn run_engine<W, T, E, B, S>(
        &self,
        start: usize,
        end: usize,
        round: usize,
        build: &B,
        sample: &S,
        emit: &(dyn Fn(usize, usize, T) + Sync),
        fold: &mut dyn FnMut(usize, usize) -> bool,
    ) -> Result<RunStats, E>
    where
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
    {
        let len = end - start;
        let workers = self.workers.min(len.max(1));
        if len == 0 {
            return Ok(RunStats {
                attempted: 0,
                failures: 0,
                workers,
            });
        }

        // Two deterministic stream families: one per sample index (the
        // determinism contract), one per worker id (setup-only draws).
        let mut root = Sampler::from_seed(self.seed);
        let sample_base = root.fork(0);
        let worker_base = root.fork(WORKER_STREAM_SALT);

        let failures = AtomicUsize::new(0);
        let next = AtomicUsize::new(start);
        let limit = AtomicUsize::new(0);
        // Workers + the coordinating thread.
        let barrier = Barrier::new(workers + 1);
        let setup_err: Mutex<Option<E>> = Mutex::new(None);

        // A panic inside a user closure must not strand the other threads
        // at a barrier (std barriers do not poison): the unwinding worker
        // catches the payload, parks itself as idle, and keeps honouring
        // the barrier protocol; the coordinator shuts the run down and
        // re-raises the panic after the scope joins.
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let store_panic = |p: Box<dyn std::any::Any + Send>| {
            let mut slot = panic_slot.lock().expect("no poisoned locks");
            if slot.is_none() {
                *slot = Some(p);
            }
        };

        let attempted = std::thread::scope(|scope| {
            for worker_id in 0..workers {
                let (failures, emit) = (&failures, &emit);
                let (next, limit, barrier) = (&next, &limit, &barrier);
                let (setup_err, store_panic) = (&setup_err, &store_panic);
                let (sample_base, worker_base) = (&sample_base, &worker_base);
                scope.spawn(move || {
                    let mut wsampler = worker_base.stream(worker_id as u64);
                    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        build(worker_id, &mut wsampler)
                    }));
                    let mut state = match built {
                        Ok(Ok(w)) => Some(w),
                        Ok(Err(e)) => {
                            let mut slot = setup_err.lock().expect("no poisoned locks");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            None
                        }
                        Err(p) => {
                            store_panic(p);
                            None
                        }
                    };
                    barrier.wait(); // setup complete
                    loop {
                        barrier.wait(); // round start
                        let hi = limit.load(Ordering::SeqCst);
                        if hi == SHUTDOWN {
                            return;
                        }
                        let mut poisoned = false;
                        if let Some(st) = state.as_mut() {
                            // Bounded pop: never overshoots `hi`, so round
                            // boundaries lose no sample indices.
                            while let Ok(i) =
                                next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |i| {
                                    (i < hi).then_some(i + 1)
                                })
                            {
                                let mut s = sample_base.stream(i as u64);
                                let r =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        sample(st, &mut s, i)
                                    }));
                                match r {
                                    Ok(Ok(t)) => emit(worker_id, i, t),
                                    Ok(Err(_)) => {
                                        failures.fetch_add(1, Ordering::SeqCst);
                                    }
                                    Err(p) => {
                                        store_panic(p);
                                        poisoned = true;
                                        break;
                                    }
                                }
                            }
                        }
                        if poisoned {
                            // The state may be mid-mutation; retire it and
                            // idle through the remaining barriers.
                            state = None;
                        }
                        barrier.wait(); // round end
                    }
                });
            }

            // ---- coordinator ------------------------------------------------
            let shutdown = |hi: usize| {
                limit.store(SHUTDOWN, Ordering::SeqCst);
                barrier.wait();
                hi
            };
            barrier.wait(); // setup complete
            if setup_err.lock().expect("no poisoned locks").is_some()
                || panic_slot.lock().expect("no poisoned locks").is_some()
            {
                return shutdown(start);
            }
            let mut hi = start;
            let mut folded_to = start;
            while hi < end {
                hi = (hi + round).min(end);
                limit.store(hi, Ordering::SeqCst);
                barrier.wait(); // round start
                barrier.wait(); // round end: all samples < hi are final
                if panic_slot.lock().expect("no poisoned locks").is_some() {
                    return shutdown(hi);
                }
                let folded =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fold(folded_to, hi)));
                folded_to = hi;
                match folded {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(p) => {
                        store_panic(p);
                        return shutdown(hi);
                    }
                }
            }
            shutdown(hi)
        });

        if let Some(p) = panic_slot.into_inner().expect("no poisoned locks") {
            std::panic::resume_unwind(p);
        }
        if let Some(e) = setup_err.into_inner().expect("no poisoned locks") {
            return Err(e);
        }
        Ok(RunStats {
            attempted: attempted - start,
            failures: failures.into_inner(),
            workers,
        })
    }
}
