//! Session-based simulation: elaborate once, run many analyses.
//!
//! [`Session`] is the primary analysis surface of this crate. It takes
//! ownership of a finished [`Circuit`], elaborates it once (validation,
//! node/branch layout, workspace and LU scratch allocation), and then runs
//! any number of analyses against that fixed topology:
//!
//! * every [`Analysis`] request returns a stable [`RunId`] into the
//!   session's [`ResultStore`];
//! * `*_owned` convenience methods bypass the store for hot loops;
//! * [`Session::swap_devices`] / [`Session::swap_all_mosfets`] resample
//!   MOSFET instances *in place* — the Monte Carlo fast path: no re-parse,
//!   no re-elaboration, and the next DC solve warm-starts from the previous
//!   sample's operating point (stored results of the pre-swap circuit are
//!   invalidated);
//! * [`Session::ac_batch`] runs resample→sweep AC Monte Carlo batches,
//!   amortizing the guessed operating-point solve and reusing one cached
//!   [`AcWorkspace`] across all samples;
//! * [`Session::set_source`] retargets a stimulus (setup/hold searches,
//!   sweeps) without rebuilding the netlist.

use crate::ac::{AcResult, AcWorkspace};
use crate::dc::{DcResult, SweepResult};
use crate::elements::Element;
use crate::engine::{newton, Integrator, Mode, TranState, Workspace};
use crate::error::SpiceError;
use crate::netlist::{Circuit, NodeId};
use crate::tran::{TranOptions, TranResult};
use crate::waveform::Waveform;
use mosfet::MosfetModel;
use std::collections::HashMap;

/// Gmin continuation ladder (largest first).
const GMIN_STEPS: [f64; 7] = [1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12];
/// Source-stepping ladder.
const SOURCE_STEPS: [f64; 8] = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 1.0];
/// Maximum binary step-halving depth on transient Newton failure.
const MAX_HALVINGS: usize = 10;

/// Stable identifier of one analysis run within a session.
///
/// Ids are monotonically increasing and never reused, even after
/// [`ResultStore::take`] or [`ResultStore::clear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(u64);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run#{}", self.0)
    }
}

/// An analysis request for [`Session::run`].
#[derive(Debug, Clone)]
pub enum Analysis {
    /// Nonlinear DC operating point; `guess` seeds the Newton iteration
    /// (empty for a cold start) and selects the state of bistable circuits.
    Dc {
        /// Initial node-voltage guesses.
        guess: Vec<(NodeId, f64)>,
    },
    /// DC sweep of the named voltage source over `values`. The first point
    /// starts cold; each later point starts from a polynomial extrapolation
    /// of the points before it. The source's waveform is restored
    /// afterwards.
    DcSweep {
        /// Voltage source to sweep.
        source: String,
        /// Swept DC values.
        values: Vec<f64>,
    },
    /// Transient analysis.
    Tran(TranOptions),
    /// AC small-signal sweep: linearize at the DC operating point selected
    /// by `guess` (empty for a cold start), apply a unit excitation on
    /// `source`, solve at each frequency.
    Ac {
        /// Voltage source carrying the unit AC excitation.
        source: String,
        /// Sweep frequencies, Hz (all positive).
        freqs: Vec<f64>,
        /// Operating-point guesses for bistable circuits.
        guess: Vec<(NodeId, f64)>,
    },
}

impl Analysis {
    /// A cold-start DC operating point request.
    #[must_use]
    pub fn dc() -> Self {
        Analysis::Dc { guess: Vec::new() }
    }

    /// A DC operating point request seeded with node-voltage guesses.
    #[must_use]
    pub fn dc_with_guess(guess: &[(NodeId, f64)]) -> Self {
        Analysis::Dc {
            guess: guess.to_vec(),
        }
    }

    /// A DC sweep request.
    #[must_use]
    pub fn dc_sweep(source: &str, values: &[f64]) -> Self {
        Analysis::DcSweep {
            source: source.to_string(),
            values: values.to_vec(),
        }
    }

    /// A transient request.
    #[must_use]
    pub fn tran(opts: TranOptions) -> Self {
        Analysis::Tran(opts)
    }

    /// An AC sweep request (cold-start operating point).
    #[must_use]
    pub fn ac(source: &str, freqs: &[f64]) -> Self {
        Analysis::Ac {
            source: source.to_string(),
            freqs: freqs.to_vec(),
            guess: Vec::new(),
        }
    }

    /// An AC sweep request with operating-point guesses.
    #[must_use]
    pub fn ac_with_guess(source: &str, freqs: &[f64], guess: &[(NodeId, f64)]) -> Self {
        Analysis::Ac {
            source: source.to_string(),
            freqs: freqs.to_vec(),
            guess: guess.to_vec(),
        }
    }
}

/// A completed analysis result.
#[derive(Debug, Clone)]
pub enum AnalysisResult {
    /// DC operating point.
    Dc(DcResult),
    /// DC sweep.
    Sweep(SweepResult),
    /// Transient waveforms.
    Tran(TranResult),
    /// AC sweep.
    Ac(AcResult),
}

impl AnalysisResult {
    /// Short kind label ("dc", "sweep", "tran", "ac").
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisResult::Dc(_) => "dc",
            AnalysisResult::Sweep(_) => "sweep",
            AnalysisResult::Tran(_) => "tran",
            AnalysisResult::Ac(_) => "ac",
        }
    }

    /// The DC result, if this run was a DC operating point.
    #[must_use]
    pub fn as_dc(&self) -> Option<&DcResult> {
        match self {
            AnalysisResult::Dc(r) => Some(r),
            _ => None,
        }
    }

    /// The sweep result, if this run was a DC sweep.
    #[must_use]
    pub fn as_sweep(&self) -> Option<&SweepResult> {
        match self {
            AnalysisResult::Sweep(r) => Some(r),
            _ => None,
        }
    }

    /// The transient result, if this run was a transient.
    #[must_use]
    pub fn as_tran(&self) -> Option<&TranResult> {
        match self {
            AnalysisResult::Tran(r) => Some(r),
            _ => None,
        }
    }

    /// The AC result, if this run was an AC sweep.
    #[must_use]
    pub fn as_ac(&self) -> Option<&AcResult> {
        match self {
            AnalysisResult::Ac(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the DC result, if applicable.
    #[must_use]
    pub fn into_dc(self) -> Option<DcResult> {
        match self {
            AnalysisResult::Dc(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the sweep result, if applicable.
    #[must_use]
    pub fn into_sweep(self) -> Option<SweepResult> {
        match self {
            AnalysisResult::Sweep(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the transient result, if applicable.
    #[must_use]
    pub fn into_tran(self) -> Option<TranResult> {
        match self {
            AnalysisResult::Tran(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the AC result, if applicable.
    #[must_use]
    pub fn into_ac(self) -> Option<AcResult> {
        match self {
            AnalysisResult::Ac(r) => Some(r),
            _ => None,
        }
    }
}

/// Completed runs of a session, keyed by [`RunId`].
///
/// Runs are stored in completion order; ids are strictly increasing, so
/// lookups binary-search. Long-lived Monte Carlo sessions should either use
/// the `*_owned` methods on [`Session`] (which bypass the store) or call
/// [`ResultStore::clear`] periodically.
///
/// In-place circuit mutation ([`Session::swap_device`] and friends,
/// [`Session::set_source`]) invalidates the store: results recorded before
/// the mutation describe a circuit that no longer exists, so their ids stop
/// resolving ([`ResultStore::get`] returns `None`; ids are never reused).
#[derive(Debug, Clone, Default)]
pub struct ResultStore {
    runs: Vec<(RunId, AnalysisResult)>,
}

impl ResultStore {
    /// Looks up a run by id.
    #[must_use]
    pub fn get(&self, id: RunId) -> Option<&AnalysisResult> {
        self.runs
            .binary_search_by_key(&id, |(k, _)| *k)
            .ok()
            .map(|i| &self.runs[i].1)
    }

    /// Removes and returns a run by id.
    pub fn take(&mut self, id: RunId) -> Option<AnalysisResult> {
        self.runs
            .binary_search_by_key(&id, |(k, _)| *k)
            .ok()
            .map(|i| self.runs.remove(i).1)
    }

    /// The DC result of a run, if it exists and was a DC operating point.
    #[must_use]
    pub fn dc(&self, id: RunId) -> Option<&DcResult> {
        self.get(id).and_then(AnalysisResult::as_dc)
    }

    /// The sweep result of a run, if it exists and was a DC sweep.
    #[must_use]
    pub fn sweep(&self, id: RunId) -> Option<&SweepResult> {
        self.get(id).and_then(AnalysisResult::as_sweep)
    }

    /// The transient result of a run, if it exists and was a transient.
    #[must_use]
    pub fn tran(&self, id: RunId) -> Option<&TranResult> {
        self.get(id).and_then(AnalysisResult::as_tran)
    }

    /// The AC result of a run, if it exists and was an AC sweep.
    #[must_use]
    pub fn ac(&self, id: RunId) -> Option<&AcResult> {
        self.get(id).and_then(AnalysisResult::as_ac)
    }

    /// Number of stored runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates stored runs in completion order.
    pub fn iter(&self) -> impl Iterator<Item = (RunId, &AnalysisResult)> {
        self.runs.iter().map(|(id, r)| (*id, r))
    }

    /// Drops all stored runs (ids are never reused).
    pub fn clear(&mut self) {
        self.runs.clear();
    }
}

/// A persistent simulation session: one elaborated circuit, reusable
/// scratch, many analyses.
///
/// # Example
///
/// ```
/// use spice::{Analysis, Circuit, Session, Waveform};
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let mut c = Circuit::new();
/// let vin = c.node("in");
/// let mid = c.node("mid");
/// c.vsource("V1", vin, Circuit::GROUND, Waveform::dc(1.0));
/// c.resistor("R1", vin, mid, 1e3);
/// c.resistor("R2", mid, Circuit::GROUND, 1e3);
///
/// let mut s = Session::elaborate(c)?;
/// let op = s.run(Analysis::dc())?;
/// assert!((s.results().dc(op).unwrap().voltage(mid) - 0.5).abs() < 1e-9);
/// // Same elaboration, different stimulus: no rebuild.
/// s.set_source("V1", Waveform::dc(2.0))?;
/// let op2 = s.dc()?;
/// assert!((op2.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    circuit: Circuit,
    ws: Workspace,
    /// Number of node-voltage unknowns (nodes minus ground).
    nn: usize,
    /// Element index of every MOSFET, by instance name.
    mos_by_name: HashMap<String, usize>,
    store: ResultStore,
    next_run: u64,
    /// Last converged DC unknown vector — warm start for the next DC solve.
    warm: Option<Vec<f64>>,
    /// Transient dynamic-state double buffer, reused across runs.
    state: TranState,
    state_scratch: TranState,
    /// AC sweep scratch (linearization + complex system), allocated on the
    /// first AC request and reused for every sweep after that.
    ac_ws: Option<AcWorkspace>,
}

impl Session {
    /// Validates and elaborates a circuit into a ready session.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] for invalid netlists (e.g. empty,
    /// or duplicate MOSFET instance names).
    pub fn elaborate(circuit: Circuit) -> Result<Self, SpiceError> {
        circuit.validate()?;
        let mut mos_by_name = HashMap::new();
        for (idx, e) in circuit.elements().iter().enumerate() {
            if let Element::Mosfet { name, .. } = e {
                if mos_by_name.insert(name.clone(), idx).is_some() {
                    return Err(SpiceError::BadNetlist {
                        context: format!("duplicate MOSFET instance name {name}"),
                    });
                }
            }
        }
        let ws = Workspace::new(&circuit);
        let nn = circuit.node_count() - 1;
        Ok(Session {
            circuit,
            ws,
            nn,
            mos_by_name,
            store: ResultStore::default(),
            next_run: 0,
            warm: None,
            state: TranState::default(),
            state_scratch: TranState::default(),
            ac_ws: None,
        })
    }

    /// Re-elaborates this session's circuit into an independent session —
    /// fresh workspace, result store, and warm-start state, same topology
    /// and current device models.
    ///
    /// This is the worker-setup path of parallel Monte Carlo: elaborate a
    /// topology once on the coordinating thread, then hand each worker its
    /// own replica ([`Session`] is `Send`; every worker swaps devices and
    /// warm-starts independently). Results stored in this session are not
    /// copied.
    ///
    /// # Errors
    ///
    /// Re-validation cannot fail for a circuit that already elaborated, but
    /// the signature mirrors [`Session::elaborate`].
    ///
    /// # Example
    ///
    /// ```
    /// use spice::{Circuit, Session, Waveform};
    ///
    /// # fn main() -> Result<(), spice::SpiceError> {
    /// let mut c = Circuit::new();
    /// let a = c.node("a");
    /// c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
    /// c.resistor("R1", a, Circuit::GROUND, 1e3);
    /// let mut s = Session::elaborate(c)?;
    /// let mut replica = s.replicate()?; // e.g. moved into a worker thread
    /// assert_eq!(
    ///     s.dc()?.voltage(a).to_bits(),
    ///     replica.dc()?.voltage(a).to_bits(),
    /// );
    /// # Ok(())
    /// # }
    /// ```
    pub fn replicate(&self) -> Result<Self, SpiceError> {
        Session::elaborate(self.circuit.clone())
    }

    /// The elaborated circuit (read-only: the session owns the layout, so
    /// structural edits go through [`Session::swap_devices`] and
    /// [`Session::set_source`]).
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Completed runs.
    #[must_use]
    pub fn results(&self) -> &ResultStore {
        &self.store
    }

    /// Mutable access to completed runs (for [`ResultStore::take`] /
    /// [`ResultStore::clear`]).
    pub fn results_mut(&mut self) -> &mut ResultStore {
        &mut self.store
    }

    /// Runs an analysis and stores the result under a fresh [`RunId`].
    ///
    /// # Errors
    ///
    /// Propagates convergence, singularity, and argument errors from the
    /// underlying analysis.
    pub fn run(&mut self, analysis: Analysis) -> Result<RunId, SpiceError> {
        let result = self.run_inner(analysis)?;
        let id = RunId(self.next_run);
        self.next_run += 1;
        self.store.runs.push((id, result));
        Ok(id)
    }

    /// Runs an analysis and returns the result directly, bypassing the
    /// store — the zero-overhead path for Monte Carlo loops.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_owned(&mut self, analysis: Analysis) -> Result<AnalysisResult, SpiceError> {
        self.run_inner(analysis)
    }

    fn run_inner(&mut self, analysis: Analysis) -> Result<AnalysisResult, SpiceError> {
        match analysis {
            Analysis::Dc { guess } => {
                let g = if guess.is_empty() {
                    None
                } else {
                    Some(guess.as_slice())
                };
                let x = self.solve_dc_vec(g)?;
                Ok(AnalysisResult::Dc(DcResult::new(x, self.nn)))
            }
            Analysis::DcSweep { source, values } => self
                .run_dc_sweep(&source, &values)
                .map(AnalysisResult::Sweep),
            Analysis::Tran(opts) => self.run_tran(&opts).map(AnalysisResult::Tran),
            Analysis::Ac {
                source,
                freqs,
                guess,
            } => {
                let g = if guess.is_empty() {
                    None
                } else {
                    Some(guess.as_slice())
                };
                self.run_ac(&source, &freqs, g).map(AnalysisResult::Ac)
            }
        }
    }

    // ---- typed convenience wrappers -------------------------------------

    /// DC operating point; result stored and borrowed.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn dc(&mut self) -> Result<&DcResult, SpiceError> {
        let id = self.run(Analysis::dc())?;
        Ok(self.store.dc(id).expect("just stored"))
    }

    /// DC operating point with node-voltage guesses; result stored and
    /// borrowed.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn dc_with_guess(&mut self, guess: &[(NodeId, f64)]) -> Result<&DcResult, SpiceError> {
        let id = self.run(Analysis::dc_with_guess(guess))?;
        Ok(self.store.dc(id).expect("just stored"))
    }

    /// DC sweep; result stored and borrowed.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn dc_sweep(&mut self, source: &str, values: &[f64]) -> Result<&SweepResult, SpiceError> {
        let id = self.run(Analysis::dc_sweep(source, values))?;
        Ok(self.store.sweep(id).expect("just stored"))
    }

    /// Transient; result stored and borrowed.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn tran(&mut self, opts: &TranOptions) -> Result<&TranResult, SpiceError> {
        let id = self.run(Analysis::Tran(opts.clone()))?;
        Ok(self.store.tran(id).expect("just stored"))
    }

    /// AC sweep (cold operating point); result stored and borrowed.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn ac(&mut self, source: &str, freqs: &[f64]) -> Result<&AcResult, SpiceError> {
        let id = self.run(Analysis::ac(source, freqs))?;
        Ok(self.store.ac(id).expect("just stored"))
    }

    /// AC sweep with operating-point guesses; result stored and borrowed.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn ac_with_guess(
        &mut self,
        source: &str,
        freqs: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<&AcResult, SpiceError> {
        let id = self.run(Analysis::ac_with_guess(source, freqs, guess))?;
        Ok(self.store.ac(id).expect("just stored"))
    }

    /// DC operating point, returned by value without touching the store.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn dc_owned(&mut self) -> Result<DcResult, SpiceError> {
        Ok(self
            .run_owned(Analysis::dc())?
            .into_dc()
            .expect("dc request yields dc result"))
    }

    /// [`Session::dc_owned`] with guesses.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn dc_owned_with_guess(&mut self, guess: &[(NodeId, f64)]) -> Result<DcResult, SpiceError> {
        Ok(self
            .run_owned(Analysis::dc_with_guess(guess))?
            .into_dc()
            .expect("dc request yields dc result"))
    }

    /// DC sweep, returned by value without touching the store.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn dc_sweep_owned(
        &mut self,
        source: &str,
        values: &[f64],
    ) -> Result<SweepResult, SpiceError> {
        Ok(self
            .run_owned(Analysis::dc_sweep(source, values))?
            .into_sweep()
            .expect("sweep request yields sweep result"))
    }

    /// Transient, returned by value without touching the store.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn tran_owned(&mut self, opts: &TranOptions) -> Result<TranResult, SpiceError> {
        Ok(self
            .run_owned(Analysis::Tran(opts.clone()))?
            .into_tran()
            .expect("tran request yields tran result"))
    }

    /// AC sweep, returned by value without touching the store.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn ac_owned(
        &mut self,
        source: &str,
        freqs: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<AcResult, SpiceError> {
        Ok(self
            .run_owned(Analysis::ac_with_guess(source, freqs, guess))?
            .into_ac()
            .expect("ac request yields ac result"))
    }

    // ---- in-place mutation ----------------------------------------------

    /// Replaces the waveform of an existing voltage source (sweeps, setup
    /// and hold searches) without re-elaboration.
    ///
    /// Results stored before the change describe a circuit that no longer
    /// exists, so the [`ResultStore`] is invalidated: their [`RunId`]s stop
    /// resolving (see [`Session::swap_device`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when the source is missing.
    pub fn set_source(&mut self, name: &str, wave: Waveform) -> Result<(), SpiceError> {
        self.circuit.set_vsource(name, wave)?;
        self.store.clear();
        Ok(())
    }

    /// Replaces the compact model of one MOSFET instance in place. The
    /// node/branch layout, workspace, and LU scratch all stay valid; the
    /// next DC solve warm-starts from the previous operating point.
    ///
    /// Results stored before the swap were computed on a circuit that no
    /// longer exists; keeping them readable would silently mix samples, so
    /// the [`ResultStore`] is invalidated — stale [`RunId`]s stop resolving
    /// ([`ResultStore::get`] returns `None`). Extract anything you need
    /// (e.g. via [`ResultStore::take`]) before mutating, or use the
    /// `*_owned` methods, whose results the store never holds.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] when no MOSFET has that name.
    pub fn swap_device(
        &mut self,
        name: &str,
        model: Box<dyn MosfetModel>,
    ) -> Result<(), SpiceError> {
        let idx = *self
            .mos_by_name
            .get(name)
            .ok_or_else(|| SpiceError::BadNetlist {
                context: format!("no MOSFET named {name}"),
            })?;
        match &mut self.circuit.elements_mut()[idx] {
            Element::Mosfet { model: slot, .. } => {
                *slot = model;
                self.store.clear();
                Ok(())
            }
            _ => unreachable!("mos_by_name only indexes MOSFETs"),
        }
    }

    /// Replaces several MOSFET models in place; returns the number swapped.
    /// Stored results are invalidated, as for [`Session::swap_device`].
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] on the first unknown instance
    /// name (earlier swaps in the batch remain applied).
    pub fn swap_devices<I, S>(&mut self, swaps: I) -> Result<usize, SpiceError>
    where
        I: IntoIterator<Item = (S, Box<dyn MosfetModel>)>,
        S: AsRef<str>,
    {
        let mut n = 0;
        for (name, model) in swaps {
            self.swap_device(name.as_ref(), model)?;
            n += 1;
        }
        Ok(n)
    }

    /// Resamples every MOSFET in the circuit: `f` receives each instance's
    /// name and current model and returns the replacement. Returns the
    /// number of devices swapped. This is the circuit-level Monte Carlo
    /// inner loop — pair it with a mismatch-sampling factory. Stored
    /// results are invalidated, as for [`Session::swap_device`].
    pub fn swap_all_mosfets<F>(&mut self, mut f: F) -> usize
    where
        F: FnMut(&str, &dyn MosfetModel) -> Box<dyn MosfetModel>,
    {
        let mut n = 0;
        for e in self.circuit.elements_mut() {
            if let Element::Mosfet { name, model, .. } = e {
                *model = f(name, model.as_ref());
                n += 1;
            }
        }
        if n > 0 {
            self.store.clear();
        }
        n
    }

    /// Number of MOSFET instances in the elaborated circuit.
    #[must_use]
    pub fn mosfet_count(&self) -> usize {
        self.mos_by_name.len()
    }

    /// Drops the warm-start operating point, forcing the next DC solve to
    /// run the full continuation ladder from zero. Rarely needed — swapping
    /// devices intentionally keeps the warm start — but useful when a
    /// stimulus change moves the circuit to a very different region.
    pub fn invalidate_warm_start(&mut self) {
        self.warm = None;
    }

    // ---- analysis engines -----------------------------------------------

    /// Nonlinear DC solve with warm starting and the continuation ladder.
    fn solve_dc_vec(&mut self, guess: Option<&[(NodeId, f64)]>) -> Result<Vec<f64>, SpiceError> {
        let n = self.circuit.n_unknowns();
        let mut x0 = vec![0.0; n];
        match guess {
            Some(g) => {
                for &(node, v) in g {
                    if let Some(i) = node.unknown() {
                        x0[i] = v;
                    }
                }
            }
            None => {
                // Warm start: the previous converged point of this session.
                // For resampled-device Monte Carlo the new solution is close,
                // so plain Newton usually lands in a handful of iterations.
                if let Some(w) = &self.warm {
                    x0.copy_from_slice(w);
                }
            }
        }

        let dc = Mode::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        };
        if let Ok(x) = newton(&self.circuit, &x0, &dc, &mut self.ws) {
            self.warm = Some(x.clone());
            return Ok(x);
        }

        // Gmin stepping: relax with a large shunt conductance, then tighten.
        let cold = vec![0.0; n];
        let start = if guess.is_some() { &x0 } else { &cold };
        let mut x = start.clone();
        let mut ok = true;
        for &gmin in &GMIN_STEPS {
            match newton(
                &self.circuit,
                &x,
                &Mode::Dc {
                    gmin,
                    source_scale: 1.0,
                },
                &mut self.ws,
            ) {
                Ok(next) => x = next,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if let Ok(fin) = newton(&self.circuit, &x, &dc, &mut self.ws) {
                self.warm = Some(fin.clone());
                return Ok(fin);
            }
        }

        // Source stepping: ramp all independent sources from zero.
        let mut x = start.clone();
        let mut stepping_failed = None;
        for &scale in &SOURCE_STEPS {
            match newton(
                &self.circuit,
                &x,
                &Mode::Dc {
                    gmin: 0.0,
                    source_scale: scale,
                },
                &mut self.ws,
            ) {
                Ok(next) => x = next,
                Err(e) => {
                    stepping_failed = Some((scale, e));
                    break;
                }
            }
        }
        let Some((scale, e)) = stepping_failed else {
            self.warm = Some(x.clone());
            return Ok(x);
        };
        // A user-supplied guess can park the continuation in a basin that no
        // longer exists for this sample (e.g. mismatch destroyed one latch
        // state). A bad guess must never be worse than no guess: retry the
        // whole ladder cold. The same applies to a stale warm start.
        if guess.is_some() || self.warm.is_some() {
            self.warm = None;
            return self.solve_dc_vec(None);
        }
        Err(SpiceError::NoConvergence {
            analysis: "dc op",
            detail: format!("source stepping stuck at scale {scale}: {e}"),
        })
    }

    /// DC sweep with predicted starts within the sweep; restores the swept
    /// source's waveform afterwards.
    fn run_dc_sweep(&mut self, source: &str, values: &[f64]) -> Result<SweepResult, SpiceError> {
        if values.is_empty() {
            return Err(SpiceError::InvalidArgument {
                context: "empty sweep".into(),
            });
        }
        self.circuit.vsource_index(source)?;
        let saved = self.circuit.vsource_waveform(source)?.clone();
        let result = self.sweep_points(source, values);
        self.circuit
            .set_vsource(source, saved)
            .expect("source existed above");
        result
    }

    /// Solves each sweep point by Newton from [`predicted_start`]. A start
    /// that fails falls back to the previous point's solution, then to the
    /// cold continuation ladder, so a bad prediction is never worse than
    /// plain previous-point continuation.
    fn sweep_points(&mut self, source: &str, values: &[f64]) -> Result<SweepResult, SpiceError> {
        let n = self.circuit.n_unknowns();
        let dc = Mode::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        };
        let mut points: Vec<DcResult> = Vec::with_capacity(values.len());
        for (k, &v) in values.iter().enumerate() {
            self.circuit.set_vsource(source, Waveform::dc(v))?;
            let (x0, extrapolated) = predicted_start(&values[..=k], &points, n);
            let mut solved = newton(&self.circuit, &x0, &dc, &mut self.ws);
            if solved.is_err() && extrapolated {
                let prev = points.last().expect("extrapolation needs earlier points");
                solved = newton(&self.circuit, prev.raw(), &dc, &mut self.ws);
            }
            let x = match solved {
                Ok(x) => x,
                Err(_) => {
                    self.warm = None;
                    self.solve_dc_vec(None)?
                }
            };
            points.push(DcResult::new(x, self.nn));
        }
        Ok(SweepResult {
            values: values.to_vec(),
            points,
        })
    }

    /// Transient run: DC initial point, breakpoint-aligned fixed grid,
    /// trapezoidal integration with backward-Euler restarts, recursive step
    /// halving on Newton failure.
    fn run_tran(&mut self, opts: &TranOptions) -> Result<TranResult, SpiceError> {
        let mut x = self.solve_dc_vec(if opts.ic.is_empty() {
            None
        } else {
            Some(&opts.ic)
        })?;
        crate::tran::init_state(&self.circuit, &x, &mut self.state);

        // Build the time grid: multiples of dt plus all waveform breakpoints.
        let mut grid: Vec<f64> = Vec::new();
        let n_steps = (opts.tstop / opts.dt).ceil() as usize;
        for k in 1..=n_steps {
            grid.push((k as f64 * opts.dt).min(opts.tstop));
        }
        for e in self.circuit.elements() {
            let wave = match e {
                Element::Vsource { wave, .. } | Element::Isource { wave, .. } => wave,
                _ => continue,
            };
            for bp in wave.breakpoints(opts.tstop) {
                if bp > 0.0 {
                    grid.push(bp);
                }
            }
        }
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        grid.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

        let mut times = Vec::with_capacity(grid.len() + 1);
        let mut snapshots = Vec::with_capacity(grid.len() + 1);
        times.push(0.0);
        snapshots.push(x.clone());

        let mut t_prev = 0.0;
        // Breakpoint times where integration must restart with BE.
        let mut restart = true;
        let bp_set: Vec<f64> = {
            let mut v: Vec<f64> = self
                .circuit
                .elements()
                .iter()
                .filter_map(|e| match e {
                    Element::Vsource { wave, .. } | Element::Isource { wave, .. } => {
                        Some(wave.breakpoints(opts.tstop))
                    }
                    _ => None,
                })
                .flatten()
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            v
        };

        for &t in &grid {
            let h = t - t_prev;
            if h <= 0.0 {
                continue;
            }
            let method = if restart || !opts.trapezoidal {
                Integrator::BackwardEuler
            } else {
                Integrator::Trapezoidal
            };
            self.advance(&mut x, t_prev, t, method, 0)?;
            times.push(t);
            snapshots.push(x.clone());
            // Restart integration right after crossing a breakpoint.
            restart = bp_set
                .iter()
                .any(|&bp| bp > t_prev + 1e-18 && bp <= t + 1e-18);
            t_prev = t;
        }

        // The transient leaves the circuit at t=tstop; the stored warm start
        // (the t=0 operating point) is still the right DC seed.
        Ok(TranResult::new(times, snapshots, self.nn))
    }

    /// One integration step from `t0` to `t1`, with recursive halving.
    fn advance(
        &mut self,
        x: &mut Vec<f64>,
        t0: f64,
        t1: f64,
        method: Integrator,
        depth: usize,
    ) -> Result<(), SpiceError> {
        let h = t1 - t0;
        let mode = Mode::Tran {
            method,
            h,
            t: t1,
            state: &self.state,
        };
        match newton(&self.circuit, x, &mode, &mut self.ws) {
            Ok(x_new) => {
                crate::tran::update_state(
                    &self.circuit,
                    &x_new,
                    &self.state,
                    h,
                    method,
                    &mut self.state_scratch,
                );
                std::mem::swap(&mut self.state, &mut self.state_scratch);
                *x = x_new;
                Ok(())
            }
            Err(e) => {
                if depth >= MAX_HALVINGS {
                    return Err(SpiceError::NoConvergence {
                        analysis: "transient",
                        detail: format!("step at t={t1:.3e} failed after halving: {e}"),
                    });
                }
                let tm = 0.5 * (t0 + t1);
                // Sub-steps restart with BE for robustness.
                self.advance(x, t0, tm, Integrator::BackwardEuler, depth + 1)?;
                self.advance(x, tm, t1, Integrator::BackwardEuler, depth + 1)
            }
        }
    }

    /// AC small-signal sweep at the (possibly guess-selected) operating
    /// point, through the cached [`AcWorkspace`].
    fn run_ac(
        &mut self,
        source: &str,
        freqs: &[f64],
        guess: Option<&[(NodeId, f64)]>,
    ) -> Result<AcResult, SpiceError> {
        self.validate_ac_args(source, freqs)?;
        let x_op = self.solve_dc_vec(guess)?;
        self.sweep_ac(source, freqs, &x_op)
    }

    /// Rejects bad AC arguments *before* any operating-point work, so a
    /// typo'd source name or empty frequency list costs no Newton solve
    /// and leaves the warm-start state untouched. (The [`AcWorkspace`]
    /// re-checks on its own public path.)
    fn validate_ac_args(&self, source: &str, freqs: &[f64]) -> Result<(), SpiceError> {
        if freqs.is_empty() || freqs.iter().any(|&f| f <= 0.0) {
            return Err(SpiceError::InvalidArgument {
                context: "AC sweep needs positive frequencies".into(),
            });
        }
        self.circuit.vsource_index(source).map(|_| ())
    }

    /// Runs one AC sweep of a resample→sweep Monte Carlo batch: like
    /// [`Session::ac_owned`] with `guess`, but the operating point
    /// warm-starts from the previous solve whenever one exists, falling
    /// back to the guessed continuation ladder only when plain Newton
    /// fails. After [`Session::swap_devices`] the new operating point is a
    /// small perturbation of the previous sample's, so consecutive calls
    /// amortize the expensive guessed solve across the whole batch (the
    /// linearization and complex-system storage are reused too, via the
    /// session's cached [`AcWorkspace`]).
    ///
    /// The first call (or the first after
    /// [`Session::invalidate_warm_start`]) behaves exactly like
    /// [`Session::ac_owned`]: `guess` selects the state of bistable
    /// circuits. Later calls keep honouring the guess: if the warm solve
    /// converges to a *different* stable state than the guess selects
    /// (an extreme mismatch draw flipped a marginal cell), the warm start
    /// is discarded and the solve re-pins the basin from the guess — the
    /// result never silently depends on the sample order.
    ///
    /// # Errors
    ///
    /// Same as [`Session::ac_owned`].
    ///
    /// # Example
    ///
    /// ```
    /// use mosfet::{vs::VsModel, Geometry};
    /// use spice::{Circuit, Session, Waveform};
    ///
    /// # fn main() -> Result<(), spice::SpiceError> {
    /// // A diode-connected NMOS under a 1 kΩ load: one stable state, so
    /// // the guess is empty; the second sweep warm-starts.
    /// let mut c = Circuit::new();
    /// let vdd = c.node("vdd");
    /// let d = c.node("d");
    /// c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(0.9));
    /// c.resistor("RL", vdd, d, 1e3);
    /// let nom = || VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0));
    /// c.mosfet("MN", d, d, Circuit::GROUND, Circuit::GROUND, Box::new(nom()));
    /// let mut s = Session::elaborate(c)?;
    /// let first = s.ac_batch("VDD", &[1e9], &[])?;
    /// s.swap_device("MN", Box::new(nom()))?; // Monte Carlo resample
    /// let second = s.ac_batch("VDD", &[1e9], &[])?;
    /// let (a, b) = (first.magnitudes(d)[0], second.magnitudes(d)[0]);
    /// assert!((a - b).abs() < 1e-9 * a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn ac_batch(
        &mut self,
        source: &str,
        freqs: &[f64],
        guess: &[(NodeId, f64)],
    ) -> Result<AcResult, SpiceError> {
        self.validate_ac_args(source, freqs)?;
        let x_op = self.solve_dc_warm_or_guess(guess)?;
        self.sweep_ac(source, freqs, &x_op)
    }

    /// Warm-or-guess DC solve backing [`Session::ac_batch`]: plain Newton
    /// from the previous operating point when one exists, otherwise (or on
    /// failure, or when the warm solution lands in a different stable
    /// state than `guess` selects) the full guessed path of
    /// [`Session::dc_with_guess`].
    fn solve_dc_warm_or_guess(&mut self, guess: &[(NodeId, f64)]) -> Result<Vec<f64>, SpiceError> {
        if let Some(w) = self.warm.clone() {
            let dc = Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            };
            if let Ok(x) = newton(&self.circuit, &w, &dc, &mut self.ws) {
                if basin_matches(&x, guess) {
                    self.warm = Some(x.clone());
                    return Ok(x);
                }
                // Converged, but in the wrong stable state: the previous
                // sample's basin no longer corresponds to the guess (e.g.
                // an extreme draw flipped a marginal cell). Fall through
                // and re-pin from the guess, so batch results never depend
                // on sample order.
            }
            // Stale warm start (e.g. an extreme mismatch draw): retry from
            // the caller's guess as a cold ac_with_guess would.
            self.warm = None;
        }
        self.solve_dc_vec(if guess.is_empty() { None } else { Some(guess) })
    }

    /// Sweeps the cached [`AcWorkspace`] at a solved operating point.
    fn sweep_ac(
        &mut self,
        source: &str,
        freqs: &[f64],
        x_op: &[f64],
    ) -> Result<AcResult, SpiceError> {
        let ws = self
            .ac_ws
            .get_or_insert_with(|| AcWorkspace::for_circuit(&self.circuit));
        ws.sweep(&self.circuit, x_op, source, freqs)
    }
}

/// True when the solved unknown vector `x` lies in the stable state the
/// guess selects: every guessed node must sit within half the guess span
/// (max minus min guessed value) of its guessed voltage. A flipped latch
/// node is a full span away, a merely disturbed one (e.g. the read-upset
/// low node of an SRAM cell) well under half. A guess naming fewer than
/// two distinct values carries no basin information and always matches.
fn basin_matches(x: &[f64], guess: &[(NodeId, f64)]) -> bool {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in guess {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    if !(span > 0.0) {
        return true;
    }
    guess.iter().all(|&(node, v)| match node.unknown() {
        Some(i) => (x[i] - v).abs() <= 0.5 * span,
        None => true,
    })
}

/// Newton start for the last sweep value, `values[k]`, given the solutions
/// `points` of the `k` values before it: the Lagrange polynomial through
/// the last (up to) three solutions, with the source values themselves as
/// abscissae, evaluated at `values[k]`. The first point starts from zeros
/// and the second from a copy of the first.
///
/// Only trailing points the sweep has passed while moving strictly in its
/// current direction enter the fit. A sweep that turns back or repeats a
/// value therefore restarts from the previous solution and stays on its
/// branch. The flag reports whether the start was extrapolated from two or
/// more points.
fn predicted_start(values: &[f64], points: &[DcResult], n: usize) -> (Vec<f64>, bool) {
    let k = points.len();
    let Some(last) = points.last() else {
        return (vec![0.0; n], false);
    };
    let at = values[k];
    let dir = at - values[k - 1];
    let mut m = 1;
    while m < 3 && m < k && (values[k - m] - values[k - m - 1]) * dir > 0.0 {
        m += 1;
    }
    if m == 1 {
        return (last.raw().to_vec(), false);
    }
    let xs = &values[k - m..k];
    let mut start = vec![0.0; n];
    for (i, p) in points[k - m..].iter().enumerate() {
        let w: f64 = xs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &xj)| (at - xj) / (xs[i] - xj))
            .product();
        for (s, &y) in start.iter_mut().zip(p.raw()) {
            *s += w * y;
        }
    }
    (start, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use mosfet::{vs::VsModel, Geometry};

    /// Sweep history of a two-unknown system whose unknowns are `f` and
    /// `g` of the source value.
    fn history(values: &[f64], f: impl Fn(f64) -> f64, g: impl Fn(f64) -> f64) -> Vec<DcResult> {
        values
            .iter()
            .map(|&v| DcResult::new(vec![f(v), g(v)], 1))
            .collect()
    }

    #[test]
    fn prediction_is_exact_on_quadratics_over_a_non_uniform_grid() {
        let f = |v: f64| 0.3 - 1.7 * v + 2.5 * v * v;
        let g = |v: f64| -4.0 * v * v;
        let grid = [0.0, 0.05, 0.3, 0.32, 0.9];
        let points = history(&grid[..4], f, g);
        let (x, extrapolated) = predicted_start(&grid, &points, 2);
        assert!(extrapolated);
        assert!((x[0] - f(0.9)).abs() < 1e-12, "{} vs {}", x[0], f(0.9));
        assert!((x[1] - g(0.9)).abs() < 1e-12, "{} vs {}", x[1], g(0.9));
        // Descending grids extrapolate the same way.
        let down = [0.9, 0.7, 0.65, 0.1];
        let points = history(&down[..3], f, g);
        let (x, _) = predicted_start(&down, &points, 2);
        assert!((x[0] - f(0.1)).abs() < 1e-12 && (x[1] - g(0.1)).abs() < 1e-12);
    }

    #[test]
    fn first_points_start_from_zeros_a_copy_and_a_line() {
        let f = |v: f64| 1.0 + 2.0 * v;
        let g = |v: f64| v * v;
        let grid = [0.1, 0.4, 1.0];
        let (x, extrapolated) = predicted_start(&grid[..1], &[], 2);
        assert_eq!((x, extrapolated), (vec![0.0, 0.0], false));
        let points = history(&grid[..1], f, g);
        let (x, extrapolated) = predicted_start(&grid[..2], &points, 2);
        assert_eq!((x, extrapolated), (vec![f(0.1), g(0.1)], false));
        // Two points: the secant line, exact on the linear unknown.
        let points = history(&grid[..2], f, g);
        let (x, extrapolated) = predicted_start(&grid, &points, 2);
        assert!(extrapolated);
        assert!((x[0] - f(1.0)).abs() < 1e-12);
        assert!((x[1] - (g(0.4) + (g(0.4) - g(0.1)) * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn a_turning_or_repeating_sweep_restarts_from_the_previous_point() {
        let f = |v: f64| v * v;
        let points = history(&[0.0, 0.5, 1.0], f, f);
        let last = points[2].raw().to_vec();
        assert_eq!(
            predicted_start(&[0.0, 0.5, 1.0, 0.5], &points, 2),
            (last.clone(), false)
        );
        assert_eq!(
            predicted_start(&[0.0, 0.5, 1.0, 1.0], &points, 2),
            (last, false)
        );
        // A turn two points back shortens the fit to the straight run.
        let points = history(&[0.0, 1.0, 0.5], f, f);
        let (x, extrapolated) = predicted_start(&[0.0, 1.0, 0.5, 0.25], &points, 2);
        assert!(extrapolated);
        assert!((x[0] - (f(0.5) - 0.5 * (f(1.0) - f(0.5)))).abs() < 1e-12);
    }

    fn divider() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, m, 2e3);
        c.resistor("R2", m, Circuit::GROUND, 1e3);
        (c, a, m)
    }

    fn inverter(vdd_v: f64, vin_v: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(vdd_v));
        c.vsource("VIN", vin, Circuit::GROUND, Waveform::dc(vin_v));
        c.mosfet(
            "MP",
            out,
            vin,
            vdd,
            vdd,
            Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0))),
        );
        c.mosfet(
            "MN",
            out,
            vin,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(300.0, 40.0))),
        );
        (c, out)
    }

    #[test]
    fn run_ids_are_stable_and_typed() {
        let (c, a, m) = divider();
        let mut s = Session::elaborate(c).unwrap();
        let id0 = s.run(Analysis::dc()).unwrap();
        let id1 = s.run(Analysis::dc_sweep("V1", &[0.0, 1.0])).unwrap();
        assert_ne!(id0, id1);
        assert!(id0 < id1);
        let op = s.results().dc(id0).unwrap();
        assert!((op.voltage(m) - 1.0 / 3.0).abs() < 1e-6);
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
        // Kind mismatch yields None, not a panic.
        assert!(s.results().tran(id0).is_none());
        assert_eq!(s.results().get(id0).unwrap().kind(), "dc");
        assert_eq!(s.results().len(), 2);
        // take() removes; ids are never reused.
        let taken = s.results_mut().take(id0).unwrap();
        assert!(taken.as_dc().is_some());
        assert!(s.results().get(id0).is_none());
        let id2 = s.run(Analysis::dc()).unwrap();
        assert!(id2 > id1);
    }

    #[test]
    fn owned_runs_bypass_store() {
        let (c, _, m) = divider();
        let mut s = Session::elaborate(c).unwrap();
        let op = s.dc_owned().unwrap();
        assert!((op.voltage(m) - 1.0 / 3.0).abs() < 1e-6);
        assert!(s.results().is_empty());
    }

    #[test]
    fn sweep_restores_source_waveform() {
        let (c, a, m) = divider();
        let mut s = Session::elaborate(c).unwrap();
        let sweep = s.dc_sweep_owned("V1", &[0.0, 0.6, 3.0]).unwrap();
        let vm = sweep.voltages(m);
        for (v, vin) in vm.iter().zip(&sweep.values) {
            assert!((v - vin / 3.0).abs() < 1e-6);
        }
        // The original 1 V DC value is restored.
        let op = s.dc_owned().unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_started_resolve_matches_fresh_elaboration() {
        // Solve, swap in a slightly different device, re-solve warm; a
        // fresh cold session on the same swapped netlist must agree.
        let (c, out) = inverter(0.9, 0.45);
        let mut warm = Session::elaborate(c.clone()).unwrap();
        let _ = warm.dc_owned().unwrap();
        let weaker = VsModel::nominal_nmos_40nm(Geometry::from_nm(240.0, 40.0));
        warm.swap_device("MN", Box::new(weaker.clone())).unwrap();
        let v_warm = warm.dc_owned().unwrap().voltage(out);

        let mut cold_c = c;
        // Rebuild the same swapped netlist from scratch.
        let mut cold = {
            cold_c.set_vsource("VIN", Waveform::dc(0.45)).unwrap();
            let mut s = Session::elaborate(cold_c).unwrap();
            s.swap_device("MN", Box::new(weaker)).unwrap();
            s
        };
        let v_cold = cold.dc_owned().unwrap().voltage(out);
        assert!(
            (v_warm - v_cold).abs() < 1e-6,
            "warm {v_warm} vs cold {v_cold}"
        );
    }

    #[test]
    fn swap_device_changes_solution_in_place() {
        let (c, out) = inverter(0.9, 0.0);
        let mut s = Session::elaborate(c).unwrap();
        let hi = s.dc_owned().unwrap().voltage(out);
        assert!(hi > 0.85, "inverter high = {hi}");
        // Swap the PMOS for a much weaker device: the high level persists
        // (statics), but the operating point genuinely re-solves.
        s.swap_device(
            "MP",
            Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(80.0, 40.0))),
        )
        .unwrap();
        let hi2 = s.dc_owned().unwrap().voltage(out);
        assert!(hi2 > 0.8);
        assert_ne!(hi, hi2);
        assert!(s
            .swap_device(
                "NOPE",
                Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(80.0, 40.0)))
            )
            .is_err());
    }

    #[test]
    fn replicate_is_independent() {
        fn assert_send<T: Send>(_: &T) {}
        let (c, out) = inverter(0.9, 0.45);
        let mut s = Session::elaborate(c).unwrap();
        let v = s.dc_owned().unwrap().voltage(out);
        let mut r = s.replicate().unwrap();
        assert_send(&r); // replicas cross thread boundaries
                         // Same cold-start solve path: bit-identical result.
        assert_eq!(r.dc_owned().unwrap().voltage(out).to_bits(), v.to_bits());
        // Mutating the replica leaves the original untouched.
        r.swap_device(
            "MN",
            Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(150.0, 40.0))),
        )
        .unwrap();
        let v_r = r.dc_owned().unwrap().voltage(out);
        assert!((v_r - v).abs() > 1e-6, "weaker NMOS must move the output");
        // (Warm-started, so only approximately equal to the cold solve.)
        assert!((s.dc_owned().unwrap().voltage(out) - v).abs() < 1e-9);
    }

    #[test]
    fn swap_all_mosfets_counts_devices() {
        let (c, _) = inverter(0.9, 0.45);
        let mut s = Session::elaborate(c).unwrap();
        assert_eq!(s.mosfet_count(), 2);
        let n = s.swap_all_mosfets(|_, old| old.clone_box());
        assert_eq!(n, 2);
    }

    #[test]
    fn duplicate_mosfet_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let g = Geometry::from_nm(300.0, 40.0);
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(0.9));
        c.mosfet(
            "M1",
            a,
            a,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(g)),
        );
        c.mosfet(
            "M1",
            a,
            a,
            Circuit::GROUND,
            Circuit::GROUND,
            Box::new(VsModel::nominal_nmos_40nm(g)),
        );
        assert!(Session::elaborate(c).is_err());
    }

    #[test]
    fn empty_circuit_rejected_at_elaboration() {
        assert!(Session::elaborate(Circuit::new()).is_err());
    }

    #[test]
    fn tran_runs_through_session() {
        let r = 1e3;
        let cap = 1e-9;
        let tau = r * cap;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.0, 1e-12),
        );
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, cap);
        let mut s = Session::elaborate(ckt).unwrap();
        let res = s
            .tran_owned(&TranOptions::new(5.0 * tau, tau / 100.0))
            .unwrap();
        let v = res.voltages(out);
        for (i, &t) in res.times().iter().enumerate() {
            let expected = 1.0 - (-t / tau).exp();
            assert!((v[i] - expected).abs() < 5e-3, "t={t:.3e}");
        }
        // A second run on the same session gives the same answer (state
        // buffers are reused, not stale).
        let res2 = s
            .tran_owned(&TranOptions::new(5.0 * tau, tau / 100.0))
            .unwrap();
        let v2 = res2.voltages(out);
        for (a, b) in v.iter().zip(&v2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn swap_invalidates_stored_results() {
        let (c, out) = inverter(0.9, 0.45);
        let mut s = Session::elaborate(c).unwrap();
        let id = s.run(Analysis::dc()).unwrap();
        assert!(s.results().dc(id).is_some());
        // In-place mutation: the stored run described a different circuit.
        s.swap_device(
            "MN",
            Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(150.0, 40.0))),
        )
        .unwrap();
        assert!(
            s.results().get(id).is_none(),
            "stale RunId must not resolve"
        );
        assert!(s.results().is_empty());
        // Ids keep increasing across the invalidation.
        let id2 = s.run(Analysis::dc()).unwrap();
        assert!(id2 > id);
        assert!(s.results().dc(id2).is_some());
        // swap_all_mosfets and set_source invalidate too.
        s.swap_all_mosfets(|_, old| old.clone_box());
        assert!(s.results().get(id2).is_none());
        let id3 = s.run(Analysis::dc()).unwrap();
        s.set_source("VIN", Waveform::dc(0.4)).unwrap();
        assert!(s.results().get(id3).is_none());
        let _ = out;
    }

    /// An asymmetric cross-coupled inverter pair (latch): two stable
    /// states with distinct small-signal transfers.
    fn latch() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(0.9));
        let nmos = |w| Box::new(VsModel::nominal_nmos_40nm(Geometry::from_nm(w, 40.0)));
        let pmos = |w| Box::new(VsModel::nominal_pmos_40nm(Geometry::from_nm(w, 40.0)));
        // Inverter 1 (input a, output b) is stronger than inverter 2.
        c.mosfet("MP1", b, a, vdd, vdd, pmos(600.0));
        c.mosfet("MN1", b, a, Circuit::GROUND, Circuit::GROUND, nmos(300.0));
        c.mosfet("MP2", a, b, vdd, vdd, pmos(300.0));
        c.mosfet("MN2", a, b, Circuit::GROUND, Circuit::GROUND, nmos(150.0));
        (c, a, b)
    }

    #[test]
    fn ac_batch_repins_basin_when_warm_state_disagrees_with_guess() {
        let (c, a, b) = latch();
        let freqs = [1e9];
        // Park the session's warm start in the "a high" state...
        let mut s = Session::elaborate(c.clone()).unwrap();
        let op = s.dc_owned_with_guess(&[(a, 0.9), (b, 0.0)]).unwrap();
        assert!(op.voltage(a) > 0.6, "latch must latch: {}", op.voltage(a));
        // ...then request the opposite basin: the warm Newton solve
        // converges (to the wrong state) and must be discarded.
        let guess = [(a, 0.0), (b, 0.9)];
        let got = s.ac_batch("VDD", &freqs, &guess).unwrap();
        let mut fresh = Session::elaborate(c.clone()).unwrap();
        let want = fresh.ac_owned("VDD", &freqs, &guess).unwrap();
        for node in [a, b] {
            let (x, y) = (got.magnitudes(node)[0], want.magnitudes(node)[0]);
            assert!((x - y).abs() < 1e-9 * y.max(1e-12), "{x} vs {y}");
        }
        // The check is not vacuous: the two states have visibly different
        // transfers in this asymmetric latch.
        let mut flipped = Session::elaborate(c).unwrap();
        let other = flipped
            .ac_owned("VDD", &freqs, &[(a, 0.9), (b, 0.0)])
            .unwrap();
        assert!(
            (other.magnitudes(a)[0] - want.magnitudes(a)[0]).abs() > 1e-3 * want.magnitudes(a)[0],
            "states indistinguishable: the repin test proves nothing"
        );
    }

    #[test]
    fn bad_ac_args_rejected_before_any_solve() {
        // A typo'd source or bad frequency list must not cost a DC solve
        // or touch the warm-start state.
        let (c, out) = inverter(0.9, 0.42);
        let mut s = Session::elaborate(c).unwrap();
        assert!(matches!(
            s.ac_owned("VIN", &[], &[]),
            Err(SpiceError::InvalidArgument { .. })
        ));
        assert!(matches!(
            s.ac_batch("VIN", &[-1.0], &[]),
            Err(SpiceError::InvalidArgument { .. })
        ));
        assert!(matches!(
            s.ac_batch("nope", &[1e6], &[]),
            Err(SpiceError::BadNetlist { .. })
        ));
        // No solve happened: the first real solve is still cold (this is
        // observable as the warm start being unset — a dc() now must equal
        // a fresh session's cold solve bit for bit).
        let v = s.dc_owned().unwrap().voltage(out);
        let (c2, out2) = inverter(0.9, 0.42);
        let v2 = Session::elaborate(c2)
            .unwrap()
            .dc_owned()
            .unwrap()
            .voltage(out2);
        assert_eq!(v.to_bits(), v2.to_bits());
    }

    #[test]
    fn ac_batch_matches_guessed_ac_after_swaps() {
        // ac_batch warm-starts the operating point across resamples; the
        // result must match the per-call guessed path on the same devices.
        let (c, out) = inverter(0.9, 0.42);
        let freqs = [1e6, 1e9, 1e11];
        let mut batched = Session::elaborate(c.clone()).unwrap();
        let mut reference = Session::elaborate(c).unwrap();
        for w_nm in [300.0, 280.0, 320.0, 260.0] {
            let dev = VsModel::nominal_nmos_40nm(Geometry::from_nm(w_nm, 40.0));
            batched.swap_device("MN", Box::new(dev.clone())).unwrap();
            reference.swap_device("MN", Box::new(dev)).unwrap();
            reference.invalidate_warm_start();
            let a = batched.ac_batch("VIN", &freqs, &[]).unwrap();
            let b = reference.ac_owned("VIN", &freqs, &[]).unwrap();
            for (x, y) in a.magnitudes(out).iter().zip(b.magnitudes(out)) {
                assert!((x - y).abs() < 1e-6 * y.max(1e-12), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn ac_runs_through_session() {
        let r = 1e3;
        let cap = 1e-9;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * cap);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, cap);
        let mut s = Session::elaborate(ckt).unwrap();
        let res = s.ac("V1", &[fc]).unwrap();
        let mag = res.magnitudes(out);
        assert!((mag[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(s.run(Analysis::ac("V1", &[])).is_err());
        assert!(s.run(Analysis::ac("nope", &[1.0])).is_err());
    }
}
