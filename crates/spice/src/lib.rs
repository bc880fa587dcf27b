//! A session-based SPICE-class circuit simulator built on modified nodal
//! analysis.
//!
//! The paper validates its statistical VS model with SPICE-level Monte Carlo
//! on standard cells, a D flip-flop, and a 6T SRAM cell — thousands of
//! solves of the *same topology* with resampled device parameters. The
//! crate is organized around that workload:
//!
//! 1. **Build** a [`Circuit`]: netlists of resistors, capacitors,
//!    independent sources, and compact-model MOSFETs (any
//!    [`mosfet::MosfetModel`]).
//! 2. **Elaborate once** into a [`Session`]: validation, node/branch
//!    layout, workspace and LU scratch allocation all happen a single time.
//! 3. **Run many analyses** against the session — each [`Analysis`] request
//!    ([`Analysis::Dc`], [`Analysis::DcSweep`], [`Analysis::Tran`],
//!    [`Analysis::Ac`]) yields a stable [`RunId`] into the session's
//!    [`ResultStore`], or use the `*_owned` shortcuts in hot loops.
//! 4. **Resample in place** for Monte Carlo: [`Session::swap_devices`] /
//!    [`Session::swap_all_mosfets`] replace MOSFET instances without
//!    re-parsing or re-elaborating, the next solve warm-starts from the
//!    previous sample's operating point, and stored results of the
//!    pre-swap circuit are invalidated. AC Monte Carlo batches go through
//!    [`Session::ac_batch`], which also amortizes the guessed
//!    operating-point solve and the [`ac::AcWorkspace`] scratch across
//!    samples.
//!
//! Analyses: nonlinear DC operating point (damped Newton-Raphson with gmin
//! and source-stepping continuation), warm-started DC sweeps (butterfly
//! curves, VTCs), transient (trapezoidal with backward-Euler startup,
//! charge-conserving companion models), AC small-signal sweeps, plus
//! [`measure`] helpers (threshold crossings, propagation delay, source
//! currents for leakage/power).
//!
//! Accessor naming across result types: scalar-per-node accessors are
//! singular ([`DcResult::voltage`]); trace accessors are plural
//! ([`SweepResult::voltages`], [`TranResult::voltages`],
//! [`ac::AcResult::magnitudes`]).
//!
//! # Example
//!
//! ```
//! use spice::{Analysis, Circuit, Session, Waveform};
//!
//! # fn main() -> Result<(), spice::SpiceError> {
//! // A resistive divider: 1 V across two 1 kΩ resistors.
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let mid = c.node("mid");
//! c.vsource("V1", vin, Circuit::GROUND, Waveform::dc(1.0));
//! c.resistor("R1", vin, mid, 1e3);
//! c.resistor("R2", mid, Circuit::GROUND, 1e3);
//!
//! // Elaborate once; run as many analyses as needed.
//! let mut s = Session::elaborate(c)?;
//! let op = s.run(Analysis::dc())?;
//! assert!((s.results().dc(op).unwrap().voltage(mid) - 0.5).abs() < 1e-9);
//! let sweep = s.dc_sweep("V1", &[0.0, 1.0, 2.0])?;
//! assert!((sweep.voltages(mid)[2] - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! The pre-0.2 one-shot methods on `Circuit` (`dc_op`, `dc_sweep`, `tran`,
//! `ac_sweep`, and the singular trace accessors) were deprecated in 0.2
//! and removed in 0.3; elaborate a [`Session`] instead.
//!
//! Sessions are `Send`, and [`Session::replicate`] re-elaborates the same
//! topology into an independent session — the setup step of the parallel
//! Monte Carlo executor in the `vscore` crate. `ARCHITECTURE.md` at the
//! repo root diagrams the crate graph, the session lifecycle, and the
//! parallel Monte Carlo data flow.

pub mod ac;
pub mod dc;
pub mod elements;
pub mod engine;
pub mod error;
pub mod io;
pub mod measure;
pub mod netlist;
pub mod parser;
pub mod session;
pub mod tran;
pub mod waveform;

pub use dc::{DcResult, SweepResult};
pub use error::SpiceError;
pub use netlist::{Circuit, NodeId};
pub use session::{Analysis, AnalysisResult, ResultStore, RunId, Session};
pub use tran::{TranOptions, TranResult};
pub use waveform::Waveform;
