//! A BSIM4-like drift-diffusion velocity-saturation compact model.
//!
//! This model plays the role of the paper's **proprietary 40-nm industrial
//! BSIM4 design kit** — the "golden" statistical reference. It is a
//! deliberately different transport formulation from the Virtual Source
//! model (drift-diffusion with field-dependent velocity saturation vs
//! quasi-ballistic injection), so the statistical VS extraction is validated
//! against a genuinely independent model, just as in the paper:
//!
//! ```text
//! Vth     = Vth0 + γ(√(φs - Vbs) - √φs) - η(Leff)·Vds
//! Vgsteff = n φt ln(1 + exp((Vgs - Vth)/(n φt)))          (smooth subthreshold)
//! µeff    = µ0 / (1 + θ Vgsteff)                          (vertical-field degradation)
//! EsatL   = 2 vsat Leff / µeff
//! Vdsat   = EsatL (Vgsteff + 2φt) / (EsatL + Vgsteff + 2φt)
//! Vdseff  = BSIM smoothing of min(Vds, Vdsat)
//! Ids     = µeff Cox (W/L) Vgsteff (1 - Vdseff/(2(Vgsteff+2φt))) Vdseff
//!           / (1 + Vdseff/EsatL) · (1 + (Vds - Vdseff)/VA)  (CLM)
//! ```
//!
//! The kit also carries the **foundry-truth mismatch**: Pelgrom-scaled
//! Gaussians on its own `{Vth0, L, W, µ0, Cox}`. The statistical VS flow
//! never sees these coefficients — it only observes metric variances, which
//! is exactly the information a real design kit exposes.

use crate::model::{drain_partition, fold, Bias, Charges, MosfetModel};
use crate::types::{units, Geometry, Polarity, PHI_T};
use crate::variation::{MismatchSpec, NonPhysical, VariationDelta};

/// Parameters of the BSIM4-like model (SI units, canonical NMOS frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BsimParams {
    /// Long-channel zero-bias threshold, V.
    pub vth0: f64,
    /// Body-effect coefficient γ, √V.
    pub gamma: f64,
    /// Surface potential 2φF, V.
    pub phi_s: f64,
    /// DIBL coefficient at `l_ref`, V/V.
    pub eta0: f64,
    /// Exponent of `η(L) = η0 (l_ref/L)^eta_exp`.
    pub eta_exp: f64,
    /// Reference length for DIBL scaling, m.
    pub l_ref: f64,
    /// Subthreshold swing factor n.
    pub nfac: f64,
    /// Low-field mobility, m²/(V·s).
    pub u0: f64,
    /// Mobility degradation coefficient θ, 1/V.
    pub theta: f64,
    /// Saturation velocity, m/s.
    pub vsat: f64,
    /// Gate oxide capacitance, F/m².
    pub cox: f64,
    /// Early voltage for channel-length modulation, V.
    pub va: f64,
    /// Overlap capacitance per width (each side), F/m.
    pub cov: f64,
    /// Short-channel Vth roll-off magnitude (BSIM DVT0-style), V.
    pub dvt0_sce: f64,
    /// Characteristic length of the roll-off, m.
    pub lt_sce: f64,
    /// Second-order mobility degradation, 1/V².
    pub theta2: f64,
    /// GIDL pre-factor, A/m of width.
    pub a_gidl: f64,
    /// GIDL exponential slope, V.
    pub b_gidl: f64,
    /// Gate tunneling current density scale, A/m².
    pub jg_gate: f64,
    /// Gate tunneling voltage scale, V.
    pub vg_gate: f64,
    /// Junction (drain/source-bulk diode) saturation current density, A/m².
    pub js_jun: f64,
    /// Impact-ionization coefficient (BSIM ALPHA0-style), 1/V.
    pub alpha_ii: f64,
    /// Impact-ionization exponential slope (BETA0-style), V.
    pub beta_ii: f64,
    /// Drain-induced threshold shift (DITS) coefficient, V.
    pub dits: f64,
    /// Poly-silicon gate depletion voltage scale, V.
    pub vpoly: f64,
    /// Source/drain series resistance per width, Ω·m.
    pub rdsw: f64,
}

impl BsimParams {
    /// 40-nm-class NMOS kit parameters.
    pub fn nmos_40nm() -> Self {
        BsimParams {
            vth0: 0.515,
            gamma: 0.30,
            phi_s: 0.8,
            eta0: 0.11,
            eta_exp: 1.6,
            l_ref: units::nm(40.0),
            nfac: 1.5,
            u0: units::cm2_per_vs(280.0),
            theta: 0.9,
            vsat: 1.7e5,
            cox: units::uf_per_cm2(1.5),
            va: 5.0,
            cov: units::ff_per_um(0.25),
            dvt0_sce: 0.30,
            lt_sce: units::nm(11.0),
            theta2: 0.25,
            a_gidl: 4e-3,
            b_gidl: 2.3,
            jg_gate: 1.5e3,
            vg_gate: 0.28,
            js_jun: 1e-7,
            alpha_ii: 2e-3,
            beta_ii: 18.0,
            dits: 2e-3,
            vpoly: 6.0,
            rdsw: 180e-6,
        }
    }

    /// 40-nm-class PMOS kit parameters.
    pub fn pmos_40nm() -> Self {
        BsimParams {
            vth0: 0.49,
            gamma: 0.35,
            phi_s: 0.8,
            eta0: 0.13,
            eta_exp: 1.6,
            l_ref: units::nm(40.0),
            nfac: 1.55,
            u0: units::cm2_per_vs(80.0),
            theta: 0.6,
            vsat: 0.9e5,
            cox: units::uf_per_cm2(1.45),
            va: 4.0,
            cov: units::ff_per_um(0.25),
            dvt0_sce: 0.32,
            lt_sce: units::nm(11.0),
            theta2: 0.15,
            a_gidl: 2e-3,
            b_gidl: 2.5,
            jg_gate: 4e2,
            vg_gate: 0.30,
            js_jun: 1e-7,
            alpha_ii: 1e-3,
            beta_ii: 22.0,
            dits: 2e-3,
            vpoly: 6.0,
            rdsw: 300e-6,
        }
    }

    /// Length-dependent DIBL coefficient `η(Leff)`.
    pub fn dibl(&self, leff: f64) -> f64 {
        self.eta0 * (self.l_ref / leff).powf(self.eta_exp)
    }

    /// The foundry-truth NMOS mismatch coefficients of the synthetic kit
    /// (Pelgrom-scaled, paper Table II units). These drive the golden Monte
    /// Carlo; the VS extraction flow must *recover* comparable values via
    /// BPV without ever reading them.
    pub fn foundry_mismatch_nmos() -> MismatchSpec {
        MismatchSpec::from_paper_units(2.4, 3.8, 3.8, 1500.0, 0.30)
    }

    /// The foundry-truth PMOS mismatch coefficients of the synthetic kit.
    pub fn foundry_mismatch_pmos() -> MismatchSpec {
        MismatchSpec::from_paper_units(2.9, 3.7, 3.7, 360.0, 0.80)
    }
}

/// Numerically safe `ln(1 + exp(x))`.
fn softplus(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// A BSIM-like model instance: parameters + geometry + mismatch.
///
/// # Example
///
/// ```
/// use mosfet::{bsim::BsimModel, Bias, Geometry, MosfetModel};
///
/// let golden = BsimModel::nominal_nmos_40nm(Geometry::from_nm(600.0, 40.0));
/// let id = golden.ids(Bias { vgs: 0.9, vds: 0.9, vbs: 0.0 });
/// assert!(id > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BsimModel {
    params: BsimParams,
    polarity: Polarity,
    geom: Geometry,
    delta: VariationDelta,
    eff: EffectiveBsim,
}

#[derive(Debug, Clone, Copy)]
struct EffectiveBsim {
    vth0: f64,
    leff: f64,
    weff: f64,
    u0: f64,
    cox: f64,
    dibl: f64,
}

/// Vdsat/Vds smoothing parameter (V).
const DELTA_SMOOTH: f64 = 0.01;

impl BsimModel {
    /// Builds a nominal (zero-mismatch) instance.
    pub fn new(params: BsimParams, polarity: Polarity, geom: Geometry) -> Self {
        Self::with_variation(params, polarity, geom, VariationDelta::zero())
    }

    /// Convenience constructor: nominal 40-nm NMOS kit device.
    pub fn nominal_nmos_40nm(geom: Geometry) -> Self {
        Self::new(BsimParams::nmos_40nm(), Polarity::Nmos, geom)
    }

    /// Convenience constructor: nominal 40-nm PMOS kit device.
    pub fn nominal_pmos_40nm(geom: Geometry) -> Self {
        Self::new(BsimParams::pmos_40nm(), Polarity::Pmos, geom)
    }

    /// Builds an instance with mismatch applied to `{Vth0, L, W, µ0, Cox}`.
    /// DIBL (and everything downstream: Vdsat, EsatL, ...) re-derives from
    /// the perturbed length — this is the kit's own physics, independent of
    /// the VS model's Eq. (5) coupling.
    ///
    /// # Panics
    ///
    /// Panics on a [`NonPhysical`] draw; [`BsimModel::try_with_variation`]
    /// returns it instead.
    pub fn with_variation(
        params: BsimParams,
        polarity: Polarity,
        geom: Geometry,
        delta: VariationDelta,
    ) -> Self {
        Self::try_with_variation(params, polarity, geom, delta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BsimModel::with_variation`] for Monte Carlo paths that must count
    /// a non-physical draw as one failed sample.
    ///
    /// # Errors
    ///
    /// [`NonPhysical`] when the perturbed length, width, mobility, or
    /// capacitance is no longer strictly positive.
    pub fn try_with_variation(
        params: BsimParams,
        polarity: Polarity,
        geom: Geometry,
        delta: VariationDelta,
    ) -> Result<Self, NonPhysical> {
        let leff = geom.l + delta.dleff;
        let weff = geom.w + delta.dweff;
        let u0 = params.u0 + delta.dmu;
        let cox = params.cox + delta.dcinv;
        NonPhysical::check(leff, weff, u0, cox)?;
        let eff = EffectiveBsim {
            vth0: params.vth0 + delta.dvt0,
            leff,
            weff,
            u0,
            cox,
            dibl: params.dibl(leff),
        };
        Ok(BsimModel {
            params,
            polarity,
            geom,
            delta,
            eff,
        })
    }

    /// The model parameters this instance was built from.
    pub fn params(&self) -> &BsimParams {
        &self.params
    }

    /// The applied mismatch.
    pub fn variation(&self) -> VariationDelta {
        self.delta
    }

    /// Canonical-frame evaluation; returns `(ids, vgsteff, vdseff, vdsat)`.
    ///
    /// Beyond the primary drift-diffusion current, the kit evaluates the
    /// secondary effects every production BSIM4 kit computes — short-channel
    /// Vth roll-off, second-order mobility degradation, GIDL, gate
    /// tunneling, and junction diode leakage. Their current contributions
    /// are small at these bias points, but their evaluation cost is part of
    /// what the paper's Table IV compares; the leakage components are folded
    /// into the drain-source branch (documented simplification — they do
    /// not separately load gate/bulk here).
    fn core(&self, vgs: f64, vds: f64, vbs: f64) -> (f64, f64, f64, f64) {
        let p = &self.params;
        let e = &self.eff;
        // Body effect with a clamp that keeps the sqrt real under forward bias.
        let phib = (p.phi_s - vbs).max(0.1 * p.phi_s);
        // Short-channel Vth roll-off (BSIM DVT0/DVT1 form).
        let sce =
            p.dvt0_sce * ((-e.leff / (2.0 * p.lt_sce)).exp() + 2.0 * (-e.leff / p.lt_sce).exp());
        // Drain-induced threshold shift (DITS, long-range drain coupling).
        let dits = p.dits * (1.0 - (-vds / (2.0 * PHI_T)).exp());
        let vth = e.vth0 - sce + p.gamma * (phib.sqrt() - p.phi_s.sqrt()) - e.dibl * vds - dits;
        let nphit = p.nfac * PHI_T;
        let vgsteff_raw = nphit * softplus((vgs - vth) / nphit);
        // Poly-gate depletion reduces the effective gate drive at high bias.
        let vgsteff = vgsteff_raw / (1.0 + vgsteff_raw / (2.0 * p.vpoly)).sqrt();
        let ueff = e.u0 / (1.0 + p.theta * vgsteff + p.theta2 * vgsteff * vgsteff);
        let esat_l = 2.0 * p.vsat * e.leff / ueff;
        let vg2 = vgsteff + 2.0 * PHI_T;
        let vdsat = esat_l * vg2 / (esat_l + vg2);
        // BSIM smooth minimum of (vds, vdsat).
        let t = vdsat - vds - DELTA_SMOOTH;
        let vdseff = vdsat - 0.5 * (t + (t * t + 4.0 * DELTA_SMOOTH * vdsat).sqrt());
        let bulk = 1.0 - vdseff / (2.0 * vg2);
        let ids_ch =
            ueff * e.cox * (e.weff / e.leff) * vgsteff * bulk * vdseff / (1.0 + vdseff / esat_l);
        // Source/drain series resistance folded in (BSIM RDSMOD=0 style).
        let gch = if vdseff > 1e-12 { ids_ch / vdseff } else { 0.0 };
        let ids0 = ids_ch / (1.0 + gch * p.rdsw / e.weff);
        let mut ids = ids0 * (1.0 + (vds - vdseff) / p.va);
        // Impact ionization in the saturation region.
        let vdiff = (vds - vdseff).max(0.0);
        if vdiff > 0.0 {
            ids *= 1.0 + p.alpha_ii * vdiff * (-p.beta_ii / (vdiff + 0.1)).exp();
        }
        // GIDL: high drain-to-gate field at the drain overlap.
        let vdg = vds - vgs;
        if vdg > 0.0 {
            ids += p.a_gidl * e.weff * vdg * (-p.b_gidl / (vdg + 0.05)).exp() * vds.signum();
        }
        // Gate tunneling (direct tunneling shape, folded into d-s).
        if vgs > 0.0 {
            ids += p.jg_gate
                * e.weff
                * e.leff
                * vgs
                * vgs
                * (-p.vg_gate / (0.05 + vgs * 0.1)).exp()
                * (vgs / p.vg_gate).tanh()
                * 1e-3;
        }
        // Reverse-biased junction diodes at drain and source.
        let i_jun = p.js_jun * e.weff * e.leff * (((vbs - vds) / PHI_T).exp() - 1.0).min(0.0);
        ids -= i_jun * 1e-3;
        (ids, vgsteff, vdseff, vdsat)
    }
}

impl MosfetModel for BsimModel {
    fn polarity(&self) -> Polarity {
        self.polarity
    }

    fn geometry(&self) -> Geometry {
        self.geom
    }

    fn ids(&self, bias: Bias) -> f64 {
        let f = fold(self.polarity, bias);
        let (ids, _, _, _) = self.core(f.vgs, f.vds, f.vbs);
        f.unfold_current(ids)
    }

    fn charges(&self, bias: Bias) -> Charges {
        let f = fold(self.polarity, bias);
        let (_, vgsteff, vdseff, vdsat) = self.core(f.vgs, f.vds, f.vbs);
        let e = &self.eff;
        let qch = e.weff * e.leff * e.cox * vgsteff;
        let sat = if vdsat > 0.0 {
            (vdseff / vdsat).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let pd = drain_partition(sat);
        let covw = self.params.cov * e.weff;
        let vgd = f.vgs - f.vds;
        let q = Charges {
            qg: qch + covw * f.vgs + covw * vgd,
            qd: -pd * qch - covw * vgd,
            qs: -(1.0 - pd) * qch - covw * f.vgs,
            qb: 0.0,
        };
        f.unfold_charges(q)
    }

    fn name(&self) -> &'static str {
        "bsim"
    }

    fn clone_box(&self) -> Box<dyn MosfetModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::StatParam;

    fn nmos() -> BsimModel {
        BsimModel::nominal_nmos_40nm(Geometry::from_nm(600.0, 40.0))
    }

    #[test]
    fn on_current_in_40nm_ballpark() {
        let id = nmos().ids(Bias {
            vgs: 0.9,
            vds: 0.9,
            vbs: 0.0,
        });
        let ma_per_um = id * 1e3 / 0.6;
        assert!(
            (0.3..2.0).contains(&ma_per_um),
            "Idsat = {ma_per_um} mA/µm out of 40-nm range"
        );
    }

    #[test]
    fn on_off_ratio_is_sane() {
        let m = nmos();
        let on = m.ids(Bias {
            vgs: 0.9,
            vds: 0.9,
            vbs: 0.0,
        });
        let off = m.ids(Bias {
            vgs: 0.0,
            vds: 0.9,
            vbs: 0.0,
        });
        assert!(off > 0.0);
        assert!(on / off > 1e3 && on / off < 1e9, "on/off = {}", on / off);
    }

    #[test]
    fn zero_vds_zero_current_and_continuity() {
        let m = nmos();
        let id0 = m.ids(Bias {
            vgs: 0.9,
            vds: 0.0,
            vbs: 0.0,
        });
        assert!(id0.abs() < 1e-12);
        let eps = 1e-7;
        let ip = m.ids(Bias {
            vgs: 0.9,
            vds: eps,
            vbs: 0.0,
        });
        let im = m.ids(Bias {
            vgs: 0.9,
            vds: -eps,
            vbs: 0.0,
        });
        assert!(ip > 0.0 && im < 0.0);
        assert!((ip + im).abs() < 1e-2 * ip.abs());
    }

    #[test]
    fn monotone_in_vgs_and_vds() {
        let m = nmos();
        let mut prev = -1.0;
        for i in 0..30 {
            let id = m.ids(Bias {
                vgs: i as f64 * 0.03,
                vds: 0.9,
                vbs: 0.0,
            });
            assert!(id > prev);
            prev = id;
        }
        prev = -1.0;
        for i in 0..30 {
            let id = m.ids(Bias {
                vgs: 0.9,
                vds: i as f64 * 0.03,
                vbs: 0.0,
            });
            assert!(id >= prev);
            prev = id;
        }
    }

    #[test]
    fn subthreshold_slope_near_target() {
        // SS = n φt ln10 per decade: Ioff ratio across 0.1 V of vgs.
        let m = nmos();
        let i1 = m.ids(Bias {
            vgs: 0.10,
            vds: 0.9,
            vbs: 0.0,
        });
        let i2 = m.ids(Bias {
            vgs: 0.20,
            vds: 0.9,
            vbs: 0.0,
        });
        let decades = (i2 / i1).log10();
        let ss_mv_per_dec = 100.0 / decades;
        // n = 1.5 -> SS ~ 89 mV/dec at 300 K.
        assert!(
            (70.0..115.0).contains(&ss_mv_per_dec),
            "SS = {ss_mv_per_dec} mV/dec"
        );
    }

    #[test]
    fn source_drain_symmetry() {
        let m = nmos();
        let fwd = m.ids(Bias {
            vgs: 0.9,
            vds: 0.4,
            vbs: 0.0,
        });
        let rev = m.ids(Bias {
            vgs: 0.5,
            vds: -0.4,
            vbs: -0.4,
        });
        assert!((fwd + rev).abs() < 1e-9 * fwd.abs().max(1e-12));
    }

    #[test]
    fn pmos_sign_and_strength() {
        let p = BsimModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0));
        let id = p.ids(Bias {
            vgs: -0.9,
            vds: -0.9,
            vbs: 0.0,
        });
        assert!(id < 0.0);
        assert!(
            id.abs()
                < nmos().ids(Bias {
                    vgs: 0.9,
                    vds: 0.9,
                    vbs: 0.0
                })
        );
    }

    #[test]
    fn charges_conserve() {
        let m = nmos();
        for &(vgs, vds) in &[(0.0, 0.0), (0.9, 0.0), (0.9, 0.9), (0.45, 0.2)] {
            let q = m.charges(Bias { vgs, vds, vbs: 0.0 });
            assert!((q.qg + q.qd + q.qs + q.qb).abs() < 1e-25);
        }
    }

    #[test]
    fn variation_shifts_vth_like_behaviour() {
        let g = Geometry::from_nm(600.0, 40.0);
        let base = BsimModel::nominal_nmos_40nm(g);
        let hi_vt = BsimModel::with_variation(
            BsimParams::nmos_40nm(),
            Polarity::Nmos,
            g,
            VariationDelta::single(StatParam::Vt0, 0.030),
        );
        let bias = Bias {
            vgs: 0.0,
            vds: 0.9,
            vbs: 0.0,
        };
        assert!(hi_vt.ids(bias) < base.ids(bias));
    }

    #[test]
    fn shorter_channel_raises_leakage_via_dibl() {
        let g = Geometry::from_nm(600.0, 40.0);
        let short = BsimModel::with_variation(
            BsimParams::nmos_40nm(),
            Polarity::Nmos,
            g,
            VariationDelta::single(StatParam::Leff, -2e-9),
        );
        let base = BsimModel::nominal_nmos_40nm(g);
        let bias = Bias {
            vgs: 0.0,
            vds: 0.9,
            vbs: 0.0,
        };
        assert!(short.ids(bias) > base.ids(bias));
    }

    #[test]
    fn foundry_mismatch_specs_are_positive() {
        for spec in [
            BsimParams::foundry_mismatch_nmos(),
            BsimParams::foundry_mismatch_pmos(),
        ] {
            let u = spec.to_paper_units();
            assert!(u.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn vdseff_smoothing_limits() {
        // Deep triode: vdseff ~ vds; deep saturation: vdseff ~ vdsat.
        let m = nmos();
        let (_, _, vdseff_lin, _) = m.core(0.9, 0.02, 0.0);
        assert!(
            (vdseff_lin - 0.02).abs() < 0.01,
            "vdseff_lin = {vdseff_lin}"
        );
        let (_, _, vdseff_sat, vdsat) = m.core(0.9, 0.9, 0.0);
        assert!((vdseff_sat - vdsat).abs() < 0.02 * vdsat);
    }

    #[test]
    fn body_effect_reduces_current() {
        let m = nmos();
        let id0 = m.ids(Bias {
            vgs: 0.5,
            vds: 0.9,
            vbs: 0.0,
        });
        let id_rb = m.ids(Bias {
            vgs: 0.5,
            vds: 0.9,
            vbs: -0.4,
        });
        assert!(id_rb < id0);
    }
}
