//! MNA assembly and the damped Newton-Raphson solver.
//!
//! The unknown vector is `x = [v_1 .. v_{N-1}, i_1 .. i_M]`: node voltages
//! (ground eliminated) followed by voltage-source branch currents. Nonlinear
//! devices are stamped as SPICE-style companion models, so each Newton
//! iteration solves the linear system `A(x_k) · x_{k+1} = b(x_k)`.

use crate::elements::Element;
use crate::error::SpiceError;
use crate::netlist::Circuit;
use mosfet::Bias;
use numerics::{lu::Lu, Matrix};

/// Voltage perturbation for device-model finite differences (V).
const FD_STEP: f64 = 1e-6;
/// Conductance floor from every node to ground (numerical safety net).
const GMIN_FLOOR: f64 = 1e-12;
/// Maximum Newton voltage update per iteration (V) — exponential device
/// damping.
const MAX_DV: f64 = 0.12;
/// Node-voltage convergence tolerance (V).
const V_TOL: f64 = 1e-7;
/// Branch-current convergence tolerance (A).
const I_TOL: f64 = 1e-10;
/// Newton iteration budget per solve.
const MAX_NEWTON: usize = 400;

/// Transient integration method for the current step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Backward Euler (L-stable; used for the first step and after
    /// waveform breakpoints).
    BackwardEuler,
    /// Trapezoidal rule (second order; the default).
    Trapezoidal,
}

/// Dynamic (charge-storage) state carried between transient steps.
#[derive(Debug, Clone, Default)]
pub struct TranState {
    /// Per-capacitor branch voltage at the previous accepted step.
    pub cap_v: Vec<f64>,
    /// Per-capacitor branch current at the previous accepted step.
    pub cap_i: Vec<f64>,
    /// Per-MOSFET terminal charges `(qg, qd, qs, qb)` at the previous step.
    pub mos_q: Vec<[f64; 4]>,
    /// Per-MOSFET terminal charging currents at the previous step.
    pub mos_i: Vec<[f64; 4]>,
}

/// What kind of system to assemble.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// DC: capacitors open, charges ignored.
    Dc {
        /// Extra conductance from every node to ground (continuation).
        gmin: f64,
        /// Scale factor on all independent sources (continuation).
        source_scale: f64,
    },
    /// Transient step ending at time `t` with step size `h`.
    Tran {
        /// Integration method for this step.
        method: Integrator,
        /// Step size (s).
        h: f64,
        /// Time at the *end* of the step (s).
        t: f64,
        /// Dynamic state at the beginning of the step.
        state: &'a TranState,
    },
}

/// Scratch space reused across Newton iterations, time steps, and — through
/// [`crate::session::Session`] — across entire analyses and Monte Carlo
/// samples. Holds the MNA system plus the LU factorization storage, so the
/// hot loop performs no per-iteration allocation.
#[derive(Debug)]
pub struct Workspace {
    n: usize,
    nn: usize,
    a: Matrix,
    b: Vec<f64>,
    /// Reused LU factorization storage (order n once initialized).
    lu: Option<Lu>,
    /// Newton update scratch.
    x_new: Vec<f64>,
}

impl Workspace {
    /// Allocates a workspace for the circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.n_unknowns();
        Workspace {
            n,
            nn: circuit.node_count() - 1,
            a: Matrix::zeros(n, n),
            b: vec![0.0; n],
            lu: None,
            x_new: vec![0.0; n],
        }
    }

    /// Number of unknowns.
    pub fn n_unknowns(&self) -> usize {
        self.n
    }

    /// Factors the assembled system into the reused LU storage and solves
    /// `A x = b` into the internal update scratch.
    fn factor_and_solve(&mut self) -> Result<(), SpiceError> {
        if let Some(lu) = self.lu.as_mut() {
            lu.refactor(&self.a)?;
        } else {
            self.lu = Some(Lu::factor(&self.a)?);
        }
        let lu = self.lu.as_ref().expect("factored above");
        lu.solve_into(&self.b, &mut self.x_new)?;
        Ok(())
    }
}

/// Voltage of `node` under the unknown vector `x` (0 for ground).
fn volt(x: &[f64], node: crate::netlist::NodeId) -> f64 {
    node.unknown().map_or(0.0, |i| x[i])
}

/// Adds `g` between nodes `a` and `b` in the conductance block.
fn stamp_conductance(ws: &mut Workspace, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        ws.a[(i, i)] += g;
    }
    if let Some(j) = b {
        ws.a[(j, j)] += g;
    }
    if let (Some(i), Some(j)) = (a, b) {
        ws.a[(i, j)] -= g;
        ws.a[(j, i)] -= g;
    }
}

/// Adds a current source of `i_ab` flowing from `a` into `b` (i.e. leaving
/// node `a`), to the right-hand side.
fn stamp_current(ws: &mut Workspace, a: Option<usize>, b: Option<usize>, i_ab: f64) {
    if let Some(i) = a {
        ws.b[i] -= i_ab;
    }
    if let Some(j) = b {
        ws.b[j] += i_ab;
    }
}

/// Assembles the companion-model MNA system at linearization point `x`.
pub fn assemble(circuit: &Circuit, x: &[f64], mode: &Mode<'_>, ws: &mut Workspace) {
    ws.a.fill_zero();
    ws.b.iter_mut().for_each(|v| *v = 0.0);

    let (gmin, source_scale, time) = match mode {
        Mode::Dc {
            gmin, source_scale, ..
        } => (*gmin, *source_scale, 0.0),
        Mode::Tran { t, .. } => (0.0, 1.0, *t),
    };

    // Conductance floor on every node keeps gates/floating nodes pinned.
    for i in 0..ws.nn {
        ws.a[(i, i)] += GMIN_FLOOR + gmin;
    }

    let mut v_idx = 0usize; // voltage-source branch counter
    let mut c_idx = 0usize; // capacitor counter
    let mut m_idx = 0usize; // mosfet counter

    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, r, .. } => {
                stamp_conductance(ws, a.unknown(), b.unknown(), 1.0 / r);
            }
            Element::Capacitor { a, b, c, .. } => {
                match mode {
                    Mode::Dc { .. } => {} // open in DC
                    Mode::Tran {
                        method, h, state, ..
                    } => {
                        let v_prev = state.cap_v[c_idx];
                        let i_prev = state.cap_i[c_idx];
                        let (geq, ieq) = match method {
                            Integrator::BackwardEuler => {
                                let g = c / h;
                                (g, g * v_prev)
                            }
                            Integrator::Trapezoidal => {
                                let g = 2.0 * c / h;
                                (g, g * v_prev + i_prev)
                            }
                        };
                        stamp_conductance(ws, a.unknown(), b.unknown(), geq);
                        // i = geq * v - ieq; the constant part is a source
                        // from a to b of -ieq.
                        stamp_current(ws, a.unknown(), b.unknown(), -ieq);
                    }
                }
                c_idx += 1;
            }
            Element::Vsource { pos, neg, wave, .. } => {
                let row = ws.nn + v_idx;
                if let Some(i) = pos.unknown() {
                    ws.a[(i, row)] += 1.0;
                    ws.a[(row, i)] += 1.0;
                }
                if let Some(j) = neg.unknown() {
                    ws.a[(j, row)] -= 1.0;
                    ws.a[(row, j)] -= 1.0;
                }
                ws.b[row] = wave.value(time) * source_scale;
                v_idx += 1;
            }
            Element::Isource { pos, neg, wave, .. } => {
                // Current into pos = current leaving neg.
                stamp_current(
                    ws,
                    neg.unknown(),
                    pos.unknown(),
                    wave.value(time) * source_scale,
                );
            }
            Element::Mosfet {
                d, g, s, b, model, ..
            } => {
                let vd = volt(x, *d);
                let vg = volt(x, *g);
                let vs = volt(x, *s);
                let vb = volt(x, *b);
                let bias = Bias {
                    vgs: vg - vs,
                    vds: vd - vs,
                    vbs: vb - vs,
                };
                // --- static current ---
                // Forward differences: cheaper than central, and Newton only
                // needs an approximate Jacobian (convergence is checked on
                // the update norm, not the Jacobian quality).
                let bulk_tied = b == s;
                let id0 = model.ids(bias);
                let d_of = |db: Bias| (model.ids(db) - id0) / FD_STEP;
                let gm = d_of(Bias {
                    vgs: bias.vgs + FD_STEP,
                    ..bias
                });
                let gds = d_of(Bias {
                    vds: bias.vds + FD_STEP,
                    ..bias
                });
                let gmb = if bulk_tied {
                    0.0
                } else {
                    d_of(Bias {
                        vbs: bias.vbs + FD_STEP,
                        ..bias
                    })
                };
                // Row d gains +Id (current leaving node d into the channel
                // towards the source); row s gains -Id.
                let du = d.unknown();
                let gu = g.unknown();
                let su = s.unknown();
                let bu = b.unknown();
                let ieq = id0 - gm * bias.vgs - gds * bias.vds - gmb * bias.vbs;
                // Conductance entries: dI/dv_g = gm, dI/dv_d = gds,
                // dI/dv_b = gmb, dI/dv_s = -(gm + gds + gmb).
                let gsum = gm + gds + gmb;
                if let Some(i) = du {
                    if let Some(j) = gu {
                        ws.a[(i, j)] += gm;
                    }
                    ws.a[(i, i)] += gds;
                    if let Some(j) = bu {
                        ws.a[(i, j)] += gmb;
                    }
                    if let Some(j) = su {
                        ws.a[(i, j)] -= gsum;
                    }
                    ws.b[i] -= ieq;
                }
                if let Some(i) = su {
                    if let Some(j) = gu {
                        ws.a[(i, j)] -= gm;
                    }
                    if let Some(j) = du {
                        ws.a[(i, j)] -= gds;
                    }
                    if let Some(j) = bu {
                        ws.a[(i, j)] -= gmb;
                    }
                    ws.a[(i, i)] += gsum;
                    ws.b[i] += ieq;
                }
                // --- charge storage (transient only) ---
                if let Mode::Tran {
                    method, h, state, ..
                } = mode
                {
                    let q0 = model.charges(bias);
                    let dq = |db: Bias| {
                        let qp = model.charges(db);
                        [
                            (qp.qg - q0.qg) / FD_STEP,
                            (qp.qd - q0.qd) / FD_STEP,
                            (qp.qs - q0.qs) / FD_STEP,
                            (qp.qb - q0.qb) / FD_STEP,
                        ]
                    };
                    // Partial derivatives of each terminal charge wrt vgs/vds/vbs.
                    let c_vgs = dq(Bias {
                        vgs: bias.vgs + FD_STEP,
                        ..bias
                    });
                    let c_vds = dq(Bias {
                        vds: bias.vds + FD_STEP,
                        ..bias
                    });
                    let c_vbs = if bulk_tied {
                        [0.0; 4]
                    } else {
                        dq(Bias {
                            vbs: bias.vbs + FD_STEP,
                            ..bias
                        })
                    };
                    let q_now = [q0.qg, q0.qd, q0.qs, q0.qb];
                    let q_prev = state.mos_q[m_idx];
                    let i_prev = state.mos_i[m_idx];
                    let terms = [gu, du, su, bu];
                    // dq_t/dv_g = c_vgs[t]; dq_t/dv_d = c_vds[t];
                    // dq_t/dv_b = c_vbs[t]; dq_t/dv_s = -(sum).
                    for t_i in 0..4 {
                        let Some(row) = terms[t_i] else { continue };
                        let (k, i_const) = match method {
                            Integrator::BackwardEuler => (1.0 / h, 0.0),
                            Integrator::Trapezoidal => (2.0 / h, -i_prev[t_i]),
                        };
                        // i_t = k (q_t(v) - q_prev) + i_const, linearized at x.
                        let cg = c_vgs[t_i];
                        let cd = c_vds[t_i];
                        let cb = c_vbs[t_i];
                        let cs = -(cg + cd + cb);
                        if let Some(j) = gu {
                            ws.a[(row, j)] += k * cg;
                        }
                        if let Some(j) = du {
                            ws.a[(row, j)] += k * cd;
                        }
                        if let Some(j) = su {
                            ws.a[(row, j)] += k * cs;
                        }
                        if let Some(j) = bu {
                            ws.a[(row, j)] += k * cb;
                        }
                        let lin_at_x = cg * vg + cd * vd + cs * vs + cb * vb;
                        let ieq_t = k * (q_now[t_i] - q_prev[t_i]) + i_const - k * lin_at_x;
                        ws.b[row] -= ieq_t;
                    }
                    m_idx += 1;
                }
            }
        }
    }
}

/// KCL residual of the node equations at `x`: assembles the companion
/// system at `x` and returns `max_i |(A x - b)_i|` over the node rows —
/// the net current error at each node in amps.
pub fn kcl_residual(circuit: &Circuit, x: &[f64], mode: &Mode<'_>, ws: &mut Workspace) -> f64 {
    assemble(circuit, x, mode, ws);
    let mut worst = 0.0_f64;
    for i in 0..ws.nn {
        let mut s = -ws.b[i];
        for j in 0..ws.n {
            s += ws.a[(i, j)] * x[j];
        }
        worst = worst.max(s.abs());
    }
    worst
}

/// KCL current acceptance threshold (A) for weakly-converged iterates.
const KCL_TOL: f64 = 1e-10;

/// Newton-Raphson with per-iteration voltage damping.
///
/// Convergence is declared on the update norm (the classic SPICE criterion)
/// or, for iterates whose updates stall above `V_TOL` while the node
/// equations are already satisfied to sub-nA level, on the KCL residual —
/// the standard remedy for subthreshold regions where conductances approach
/// the gmin floor and the dx criterion becomes meaningless.
///
/// # Errors
///
/// Returns [`SpiceError::SingularSystem`] if the Jacobian cannot be factored
/// and [`SpiceError::NoConvergence`] when the iteration budget is exhausted.
pub fn newton(
    circuit: &Circuit,
    x0: &[f64],
    mode: &Mode<'_>,
    ws: &mut Workspace,
) -> Result<Vec<f64>, SpiceError> {
    let mut x = x0.to_vec();
    for iter in 0..MAX_NEWTON {
        assemble(circuit, &x, mode, ws);
        ws.factor_and_solve()
            .map_err(|e| SpiceError::SingularSystem {
                context: format!("newton iteration {iter}: {e}"),
            })?;
        // Damped update.
        let mut max_dv = 0.0_f64;
        let mut max_di = 0.0_f64;
        for i in 0..ws.n {
            let d = ws.x_new[i] - x[i];
            if i < ws.nn {
                max_dv = max_dv.max(d.abs());
            } else {
                max_di = max_di.max(d.abs());
            }
        }
        let scale = if max_dv > MAX_DV {
            MAX_DV / max_dv
        } else {
            1.0
        };
        for i in 0..ws.n {
            x[i] += scale * (ws.x_new[i] - x[i]);
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SpiceError::NoConvergence {
                analysis: "newton",
                detail: format!("non-finite iterate at iteration {iter}"),
            });
        }
        if scale == 1.0 && max_dv < V_TOL && max_di < I_TOL {
            return Ok(x);
        }
        // Weak-convergence escape: a stalled but current-consistent iterate.
        if scale == 1.0 && max_dv < 1e-4 && iter > 20 {
            let r = kcl_residual(circuit, &x, mode, ws);
            if r < KCL_TOL {
                return Ok(x);
            }
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        detail: format!("no convergence in {MAX_NEWTON} iterations"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn divider_assembles_and_solves() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0));
        c.resistor("R1", a, m, 1e3);
        c.resistor("R2", m, Circuit::GROUND, 1e3);
        let mut ws = Workspace::new(&c);
        let x = newton(
            &c,
            &vec![0.0; ws.n_unknowns()],
            &Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            &mut ws,
        )
        .unwrap();
        assert!((x[a.unknown().unwrap()] - 2.0).abs() < 1e-6);
        assert!((x[m.unknown().unwrap()] - 1.0).abs() < 1e-6);
        // Branch current: 2 V across 2 kΩ = 1 mA, flowing out of the source
        // positive terminal (so the MNA branch current is -1 mA).
        assert!((x[2] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn isource_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource("I1", a, Circuit::GROUND, Waveform::dc(1e-3));
        c.resistor("R1", a, Circuit::GROUND, 1e3);
        let mut ws = Workspace::new(&c);
        let x = newton(
            &c,
            &[0.0],
            &Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            &mut ws,
        )
        .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6, "v = {}", x[0]);
    }

    #[test]
    fn floating_node_is_held_by_gmin_floor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("floating");
        c.vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GROUND, 1e3);
        c.resistor("R2", f, a, 1e3); // f connects only through R2
        let mut ws = Workspace::new(&c);
        let x = newton(
            &c,
            &vec![0.0; ws.n_unknowns()],
            &Mode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            &mut ws,
        )
        .unwrap();
        // No current path: the floating node floats to ~v(a).
        assert!((x[f.unknown().unwrap()] - 1.0).abs() < 1e-3);
    }
}
