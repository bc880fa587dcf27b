//! The MIT Virtual Source (VS) compact model.
//!
//! The paper's Section II in code: drain current is the product of the
//! virtual-source charge density `Qixo` and injection velocity `vxo`,
//! blended across operating regions by the saturation function `Fs`
//! (paper Eq. (2)-(3)):
//!
//! ```text
//! Id = W · Fs(Vds/Vdsat) · Qixo(Vgs, Vds) · vxo
//! Qixo = Cinv · n · φt · ln(1 + exp((Vgs - (VT - α φt Ff)) / (n φt)))
//! VT   = VT0 - δ(Leff) · Vds - k_b · Vbs          (paper Eq. (4) + body term)
//! Fs   = (Vds/Vdsat) / (1 + (Vds/Vdsat)^β)^(1/β)
//! Vdsat = (vxo Leff / µ)(1 - Ff) + φt Ff
//! ```
//!
//! Statistical behaviour: applying a [`VariationDelta`] perturbs
//! `{VT0, Leff, Weff, µ, Cinv}` and *derives* the injection-velocity shift
//! from the mobility and DIBL shifts through the paper's Eq. (5):
//!
//! ```text
//! Δvxo/vxo = [α + (1-B)(1-α+γ)] Δµ/µ + (∂vxo/vxo∂δ) Δδ(Leff)
//! ```
//!
//! so `vxo` is **not** an independent statistical parameter — exactly the
//! independence argument the paper uses to keep the BPV system well-posed.

use crate::model::{drain_partition, fold, Bias, Charges, MosfetModel};
use crate::types::{units, Geometry, Polarity, PHI_T};
use crate::variation::{NonPhysical, VariationDelta};

/// Parameters of the VS model (all SI units, canonical NMOS frame —
/// thresholds are positive magnitudes for both polarities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VsParams {
    /// Zero-bias threshold voltage, V.
    pub vt0: f64,
    /// DIBL coefficient at `l_ref`, V/V.
    pub delta0: f64,
    /// Reference length for the DIBL length dependence, m.
    pub l_ref: f64,
    /// Exponent of `δ(L) = δ0 (l_ref / L)^eta_dibl`.
    pub eta_dibl: f64,
    /// Subthreshold slope factor `n` (SS = n φt ln 10).
    pub n0: f64,
    /// Effective gate-to-channel capacitance, F/m².
    pub cinv: f64,
    /// Virtual-source injection velocity at nominal length, m/s.
    pub vxo: f64,
    /// Apparent carrier mobility, m²/(V·s).
    pub mu: f64,
    /// Saturation transition exponent β (paper Eq. (3)).
    pub beta: f64,
    /// Fermi transition strength α (in units of φt).
    pub alpha: f64,
    /// Linear body-effect coefficient, V/V.
    pub body_k: f64,
    /// Gate overlap capacitance per width (each of source/drain side), F/m.
    pub cov: f64,
    /// Eq. (5) power-law index α ≈ 0.5.
    pub sens_alpha: f64,
    /// Eq. (5) power-law index γ ≈ 0.45.
    pub sens_gamma: f64,
    /// Ballistic efficiency B = λ/(λ + 2l) (paper Eq. (6)).
    pub ballistic_b: f64,
    /// Sensitivity `∂vxo / (vxo ∂δ)` ≈ 2 for the target technology.
    pub dvxo_ddelta: f64,
}

impl VsParams {
    /// Nominal 40-nm-class NMOS parameters (pre-fit defaults; the extraction
    /// flow refines the 8 DC parameters against the golden kit).
    pub fn nmos_40nm() -> Self {
        VsParams {
            vt0: 0.42,
            delta0: 0.13,
            l_ref: units::nm(40.0),
            eta_dibl: 2.0,
            n0: 1.45,
            cinv: units::uf_per_cm2(1.30),
            vxo: units::cm_per_s(1.1e7),
            mu: units::cm2_per_vs(250.0),
            beta: 1.8,
            alpha: 3.5,
            body_k: 0.15,
            cov: units::ff_per_um(0.25),
            sens_alpha: 0.5,
            sens_gamma: 0.45,
            ballistic_b: 0.5,
            dvxo_ddelta: 2.0,
        }
    }

    /// Nominal 40-nm-class PMOS parameters.
    pub fn pmos_40nm() -> Self {
        VsParams {
            vt0: 0.39,
            delta0: 0.15,
            l_ref: units::nm(40.0),
            eta_dibl: 2.0,
            n0: 1.5,
            cinv: units::uf_per_cm2(1.25),
            vxo: units::cm_per_s(0.75e7),
            mu: units::cm2_per_vs(85.0),
            beta: 1.8,
            alpha: 3.5,
            body_k: 0.15,
            cov: units::ff_per_um(0.25),
            sens_alpha: 0.5,
            sens_gamma: 0.45,
            ballistic_b: 0.4,
            dvxo_ddelta: 2.0,
        }
    }

    /// Length-dependent DIBL coefficient `δ(Leff)` (paper Eq. (4) context).
    pub fn dibl(&self, leff: f64) -> f64 {
        self.delta0 * (self.l_ref / leff).powf(self.eta_dibl)
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

/// Numerically safe logistic `1 / (1 + exp(x))`.
fn logistic(x: f64) -> f64 {
    if x > 35.0 {
        (-x).exp()
    } else if x < -35.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// A Virtual Source model instance: parameters + geometry + mismatch.
///
/// # Example
///
/// ```
/// use mosfet::{vs::VsModel, Bias, Geometry, MosfetModel};
///
/// let m = VsModel::nominal_nmos_40nm(Geometry::from_nm(600.0, 40.0));
/// let on = m.ids(Bias { vgs: 0.9, vds: 0.9, vbs: 0.0 });
/// let off = m.ids(Bias { vgs: 0.0, vds: 0.9, vbs: 0.0 });
/// assert!(on / off > 1.0e3);
/// ```
#[derive(Debug, Clone)]
pub struct VsModel {
    params: VsParams,
    polarity: Polarity,
    geom: Geometry,
    delta: VariationDelta,
    /// Effective (varied) quantities, cached at construction.
    eff: EffectiveVs,
}

/// Mismatch-adjusted parameter values.
#[derive(Debug, Clone, Copy)]
struct EffectiveVs {
    vt0: f64,
    leff: f64,
    weff: f64,
    mu: f64,
    cinv: f64,
    vxo: f64,
    dibl: f64,
    /// Precomputed `α φt` (Fermi transition width).
    aphit: f64,
    /// Precomputed `n0 φt` (subthreshold slope).
    nphit: f64,
    /// Precomputed saturation voltage scale `vxo Leff / µ`.
    vdsats: f64,
    /// Precomputed `1/β`.
    inv_beta: f64,
}

impl VsModel {
    /// Builds a nominal (zero-mismatch) instance.
    pub fn new(params: VsParams, polarity: Polarity, geom: Geometry) -> Self {
        Self::with_variation(params, polarity, geom, VariationDelta::zero())
    }

    /// Convenience constructor: nominal 40-nm NMOS.
    pub fn nominal_nmos_40nm(geom: Geometry) -> Self {
        Self::new(VsParams::nmos_40nm(), Polarity::Nmos, geom)
    }

    /// Convenience constructor: nominal 40-nm PMOS.
    pub fn nominal_pmos_40nm(geom: Geometry) -> Self {
        Self::new(VsParams::pmos_40nm(), Polarity::Pmos, geom)
    }

    /// Builds an instance with mismatch applied.
    ///
    /// The statistical parameters `{VT0, Leff, Weff, µ, Cinv}` shift
    /// additively; the injection velocity shift is *derived* via the paper's
    /// Eq. (5) from the mobility and DIBL changes.
    ///
    /// # Panics
    ///
    /// Panics on a [`NonPhysical`] draw (a sample far beyond physical
    /// validity); [`VsModel::try_with_variation`] returns it instead.
    pub fn with_variation(
        params: VsParams,
        polarity: Polarity,
        geom: Geometry,
        delta: VariationDelta,
    ) -> Self {
        Self::try_with_variation(params, polarity, geom, delta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`VsModel::with_variation`] for Monte Carlo paths that must count a
    /// non-physical draw as one failed sample.
    ///
    /// # Errors
    ///
    /// [`NonPhysical`] when the perturbed length, width, mobility, or
    /// capacitance is no longer strictly positive.
    pub fn try_with_variation(
        params: VsParams,
        polarity: Polarity,
        geom: Geometry,
        delta: VariationDelta,
    ) -> Result<Self, NonPhysical> {
        let leff = geom.l + delta.dleff;
        let weff = geom.w + delta.dweff;
        let mu = params.mu + delta.dmu;
        let cinv = params.cinv + delta.dcinv;
        NonPhysical::check(leff, weff, mu, cinv)?;
        let dibl_nom = params.dibl(geom.l);
        let dibl_new = params.dibl(leff);
        // Paper Eq. (5).
        let mu_factor = params.sens_alpha
            + (1.0 - params.ballistic_b) * (1.0 - params.sens_alpha + params.sens_gamma);
        let dvxo_rel =
            mu_factor * (delta.dmu / params.mu) + params.dvxo_ddelta * (dibl_new - dibl_nom);
        let vxo = params.vxo * (1.0 + dvxo_rel);
        let eff = EffectiveVs {
            vt0: params.vt0 + delta.dvt0,
            leff,
            weff,
            mu,
            cinv,
            vxo,
            dibl: dibl_new,
            aphit: params.alpha * PHI_T,
            nphit: params.n0 * PHI_T,
            vdsats: vxo * leff / mu,
            inv_beta: 1.0 / params.beta,
        };
        Ok(VsModel {
            params,
            polarity,
            geom,
            delta,
            eff,
        })
    }

    /// The model parameters this instance was built from.
    pub fn params(&self) -> &VsParams {
        &self.params
    }

    /// The applied mismatch.
    pub fn variation(&self) -> VariationDelta {
        self.delta
    }

    /// Effective injection velocity after the Eq. (5) coupling, m/s.
    pub fn vxo_eff(&self) -> f64 {
        self.eff.vxo
    }

    /// Effective (mismatch-adjusted) mobility, m²/(V·s).
    pub fn mu_eff(&self) -> f64 {
        self.eff.mu
    }

    /// Effective (mismatch-adjusted) threshold voltage at zero bias, V.
    pub fn vt0_eff(&self) -> f64 {
        self.eff.vt0
    }

    /// Effective channel length after LER mismatch, m.
    pub fn leff_eff(&self) -> f64 {
        self.eff.leff
    }

    /// Core canonical-frame evaluation: returns `(qixo, fsat)` with
    /// `qixo` in C/m².
    fn core(&self, vgs: f64, vds: f64, vbs: f64) -> (f64, f64) {
        let p = &self.params;
        let e = &self.eff;
        let vt = e.vt0 - e.dibl * vds - p.body_k * vbs;
        let ff = logistic((vgs - (vt - e.aphit / 2.0)) / e.aphit);
        let qixo = e.cinv * e.nphit * softplus((vgs - (vt - e.aphit * ff)) / e.nphit);
        let vdsat = e.vdsats * (1.0 - ff) + PHI_T * ff;
        let x = vds / vdsat;
        let fsat = if x <= 0.0 {
            0.0
        } else {
            x / (1.0 + x.powf(p.beta)).powf(e.inv_beta)
        };
        (qixo, fsat)
    }
}

impl MosfetModel for VsModel {
    fn polarity(&self) -> Polarity {
        self.polarity
    }

    fn geometry(&self) -> Geometry {
        self.geom
    }

    fn ids(&self, bias: Bias) -> f64 {
        let f = fold(self.polarity, bias);
        let (qixo, fsat) = self.core(f.vgs, f.vds, f.vbs);
        let id = self.eff.weff * qixo * self.eff.vxo * fsat;
        f.unfold_current(id)
    }

    fn charges(&self, bias: Bias) -> Charges {
        let f = fold(self.polarity, bias);
        let (qixo, fsat) = self.core(f.vgs, f.vds, f.vbs);
        let e = &self.eff;
        // Channel inversion charge magnitude.
        let qch = e.weff * e.leff * qixo;
        let pd = drain_partition(fsat);
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
        "vs"
    }

    fn clone_box(&self) -> Box<dyn MosfetModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::StatParam;

    fn nmos() -> VsModel {
        VsModel::nominal_nmos_40nm(Geometry::from_nm(600.0, 40.0))
    }

    fn pmos() -> VsModel {
        VsModel::nominal_pmos_40nm(Geometry::from_nm(600.0, 40.0))
    }

    #[test]
    fn on_current_in_40nm_ballpark() {
        // ~0.5-1.2 mA/µm is the plausible range for 40-nm NMOS.
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
    fn off_current_orders_of_magnitude_below_on() {
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
        assert!(on / off > 1e3, "on/off = {}", on / off);
        assert!(on / off < 1e8, "on/off = {}", on / off);
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let id = nmos().ids(Bias {
            vgs: 0.9,
            vds: 0.0,
            vbs: 0.0,
        });
        assert_eq!(id, 0.0);
    }

    #[test]
    fn source_drain_symmetry() {
        // Id(vgs, -vds) must equal -Id(vgd, vds) by construction.
        let m = nmos();
        let fwd = m.ids(Bias {
            vgs: 0.9,
            vds: 0.4,
            vbs: 0.0,
        });
        // Swap roles: gate-to-(new)source is 0.5, drain-to-source -0.4.
        let rev = m.ids(Bias {
            vgs: 0.5,
            vds: -0.4,
            vbs: -0.4,
        });
        assert!(
            (fwd + rev).abs() < 1e-9 * fwd.abs().max(1e-12),
            "fwd={fwd}, rev={rev}"
        );
    }

    #[test]
    fn current_is_continuous_across_vds_zero() {
        let m = nmos();
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
        assert!((ip + im).abs() < 1e-3 * ip.abs());
    }

    #[test]
    fn monotone_in_vgs() {
        let m = nmos();
        let mut prev = -1.0;
        for i in 0..40 {
            let vgs = i as f64 * 0.03;
            let id = m.ids(Bias {
                vgs,
                vds: 0.9,
                vbs: 0.0,
            });
            assert!(id > prev, "Id not monotone at vgs={vgs}");
            prev = id;
        }
    }

    #[test]
    fn monotone_in_vds_and_saturates() {
        let m = nmos();
        let id_at = |vds: f64| {
            m.ids(Bias {
                vgs: 0.9,
                vds,
                vbs: 0.0,
            })
        };
        let mut prev = 0.0;
        for i in 1..=30 {
            let id = id_at(i as f64 * 0.03);
            assert!(id >= prev, "Id must be non-decreasing in vds");
            prev = id;
        }
        // Saturation: slope at 0.9 V much smaller than at 0.05 V.
        let g_lin = (id_at(0.06) - id_at(0.04)) / 0.02;
        let g_sat = (id_at(0.91) - id_at(0.89)) / 0.02;
        assert!(g_sat < 0.2 * g_lin, "g_lin={g_lin}, g_sat={g_sat}");
    }

    #[test]
    fn pmos_mirror_behaviour() {
        let m = pmos();
        let id = m.ids(Bias {
            vgs: -0.9,
            vds: -0.9,
            vbs: 0.0,
        });
        assert!(id < 0.0, "PMOS on-current flows out of the drain");
        // PMOS drive is weaker than NMOS for equal width.
        let idn = nmos().ids(Bias {
            vgs: 0.9,
            vds: 0.9,
            vbs: 0.0,
        });
        assert!(id.abs() < idn);
    }

    #[test]
    fn dibl_raises_off_current() {
        let m = nmos();
        let off_low = m.ids(Bias {
            vgs: 0.0,
            vds: 0.1,
            vbs: 0.0,
        });
        let off_high = m.ids(Bias {
            vgs: 0.0,
            vds: 0.9,
            vbs: 0.0,
        });
        assert!(
            off_high > 3.0 * off_low,
            "DIBL should lift Ioff substantially"
        );
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos();
        let id0 = m.ids(Bias {
            vgs: 0.45,
            vds: 0.9,
            vbs: 0.0,
        });
        let id_rb = m.ids(Bias {
            vgs: 0.45,
            vds: 0.9,
            vbs: -0.3, // reverse body bias
        });
        assert!(id_rb < id0);
    }

    #[test]
    fn charges_conserve() {
        let m = nmos();
        for &(vgs, vds) in &[(0.0, 0.0), (0.9, 0.0), (0.9, 0.9), (0.3, 0.5), (0.9, -0.4)] {
            let q = m.charges(Bias { vgs, vds, vbs: 0.0 });
            let total = q.qg + q.qd + q.qs + q.qb;
            assert!(
                total.abs() < 1e-25,
                "charge not conserved at ({vgs}, {vds}): {total}"
            );
        }
    }

    #[test]
    fn cgg_in_inversion_tracks_gate_capacitance() {
        let m = nmos();
        let g = m.geometry();
        let cgg = m.cgg(Bias {
            vgs: 0.9,
            vds: 0.0,
            vbs: 0.0,
        });
        let c_ox = m.params().cinv * g.area() + 2.0 * m.params().cov * g.w;
        assert!(
            cgg > 0.3 * c_ox && cgg < 1.5 * c_ox,
            "cgg={cgg}, c_ox={c_ox}"
        );
    }

    #[test]
    fn vt_shift_scales_off_current_exponentially() {
        let g = Geometry::from_nm(600.0, 40.0);
        let base = VsModel::nominal_nmos_40nm(g);
        let shifted = VsModel::with_variation(
            VsParams::nmos_40nm(),
            Polarity::Nmos,
            g,
            VariationDelta::single(StatParam::Vt0, 0.030),
        );
        let bias = Bias {
            vgs: 0.0,
            vds: 0.9,
            vbs: 0.0,
        };
        let ratio = base.ids(bias) / shifted.ids(bias);
        // +30 mV VT0 cuts Ioff by exp(30m / (n φt)) ≈ 2.2.
        let expected = (0.030 / (VsParams::nmos_40nm().n0 * PHI_T)).exp();
        assert!(
            (ratio / expected - 1.0).abs() < 0.05,
            "ratio={ratio}, expected={expected}"
        );
    }

    #[test]
    fn eq5_couples_mobility_into_vxo() {
        let g = Geometry::from_nm(600.0, 40.0);
        let p = VsParams::nmos_40nm();
        let dmu = 0.02 * p.mu;
        let m = VsModel::with_variation(
            p,
            Polarity::Nmos,
            g,
            VariationDelta::single(StatParam::Mu, dmu),
        );
        let factor = p.sens_alpha + (1.0 - p.ballistic_b) * (1.0 - p.sens_alpha + p.sens_gamma);
        let expected = p.vxo * (1.0 + factor * 0.02);
        assert!((m.vxo_eff() - expected).abs() < 1e-9 * p.vxo);
    }

    #[test]
    fn eq5_couples_length_into_vxo_via_dibl() {
        let g = Geometry::from_nm(600.0, 40.0);
        let p = VsParams::nmos_40nm();
        // Shorter channel -> larger DIBL -> larger vxo (paper's sign).
        let m = VsModel::with_variation(
            p,
            Polarity::Nmos,
            g,
            VariationDelta::single(StatParam::Leff, -1e-9),
        );
        assert!(m.vxo_eff() > p.vxo);
    }

    #[test]
    fn shorter_channel_has_more_dibl() {
        let p = VsParams::nmos_40nm();
        assert!(p.dibl(units::nm(30.0)) > p.dibl(units::nm(40.0)));
        assert!((p.dibl(p.l_ref) - p.delta0).abs() < 1e-15);
    }

    #[test]
    fn softplus_and_logistic_are_guarded() {
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) < 1e-40);
        assert!(logistic(100.0) < 1e-40);
        assert_eq!(logistic(-100.0), 1.0);
        // Smooth midpoints.
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((logistic(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn nonphysical_variation_panics() {
        VsModel::with_variation(
            VsParams::nmos_40nm(),
            Polarity::Nmos,
            Geometry::from_nm(600.0, 40.0),
            VariationDelta::single(StatParam::Leff, -50e-9),
        );
    }

    #[test]
    fn clone_box_preserves_behaviour() {
        let m = nmos();
        let b: Box<dyn MosfetModel> = m.clone_box();
        let bias = Bias {
            vgs: 0.7,
            vds: 0.5,
            vbs: 0.0,
        };
        assert_eq!(m.ids(bias), b.ids(bias));
        let c = b.clone();
        assert_eq!(c.ids(bias), b.ids(bias));
    }
}
