//! Per-instance mismatch: the statistical parameter set of the paper's
//! Table I and its Pelgrom area scaling (Eq. (7)-(8)).
//!
//! The statistical parameter set is `{VT0, Leff, Weff, µ, Cinv}`, each an
//! *independent* Gaussian whose standard deviation scales with geometry:
//!
//! ```text
//! σ_VT0  = a_vt   / sqrt(W L)       (RDF)
//! σ_Leff = a_l    * sqrt(L / W)     (LER)
//! σ_Weff = a_w    * sqrt(W / L)     (LER)
//! σ_µ    = a_mu   / sqrt(W L)       (stress)
//! σ_Cinv = a_cinv / sqrt(W L)       (OTF)
//! ```
//!
//! All coefficients are SI: `a_vt` in V·m, `a_l`/`a_w` in m, `a_mu` in
//! m³/(V·s), `a_cinv` in F/m. The paper's Table II quotes the same
//! coefficients in (V·nm, nm, nm·cm²/(V·s), nm·µF/cm²); conversion helpers
//! are provided.

use crate::types::Geometry;

/// The five statistical parameters of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatParam {
    /// Zero-bias threshold voltage (random dopant fluctuation).
    Vt0,
    /// Effective channel length (line-edge roughness).
    Leff,
    /// Effective channel width (line-edge roughness).
    Weff,
    /// Carrier mobility (local stress fluctuation).
    Mu,
    /// Effective gate-to-channel capacitance per area (oxide thickness).
    Cinv,
}

impl StatParam {
    /// All five parameters in the paper's Table I order.
    pub const ALL: [StatParam; 5] = [
        StatParam::Vt0,
        StatParam::Leff,
        StatParam::Weff,
        StatParam::Mu,
        StatParam::Cinv,
    ];
}

impl std::fmt::Display for StatParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StatParam::Vt0 => "VT0",
            StatParam::Leff => "Leff",
            StatParam::Weff => "Weff",
            StatParam::Mu => "mu",
            StatParam::Cinv => "Cinv",
        };
        write!(f, "{s}")
    }
}

/// Additive perturbation of one device instance, in SI units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VariationDelta {
    /// Threshold voltage shift (V).
    pub dvt0: f64,
    /// Effective length shift (m).
    pub dleff: f64,
    /// Effective width shift (m).
    pub dweff: f64,
    /// Mobility shift (m²/(V·s)).
    pub dmu: f64,
    /// Gate capacitance shift (F/m²).
    pub dcinv: f64,
}

impl VariationDelta {
    /// The zero perturbation (nominal device).
    pub fn zero() -> Self {
        VariationDelta::default()
    }

    /// Builds a delta with a single parameter perturbed (used for
    /// finite-difference sensitivities in BPV).
    pub fn single(param: StatParam, value: f64) -> Self {
        let mut d = VariationDelta::default();
        *d.component_mut(param) = value;
        d
    }

    /// Reads the component for `param`.
    pub fn component(&self, param: StatParam) -> f64 {
        match param {
            StatParam::Vt0 => self.dvt0,
            StatParam::Leff => self.dleff,
            StatParam::Weff => self.dweff,
            StatParam::Mu => self.dmu,
            StatParam::Cinv => self.dcinv,
        }
    }

    /// Mutable access to the component for `param`.
    pub fn component_mut(&mut self, param: StatParam) -> &mut f64 {
        match param {
            StatParam::Vt0 => &mut self.dvt0,
            StatParam::Leff => &mut self.dleff,
            StatParam::Weff => &mut self.dweff,
            StatParam::Mu => &mut self.dmu,
            StatParam::Cinv => &mut self.dcinv,
        }
    }
}

/// A mismatch draw that left a device with a length, width, mobility, or
/// gate capacitance that is no longer strictly positive. Physically
/// meaningless, but a Gaussian tail event that million-sample campaigns do
/// hit, so constructors report it as a typed error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonPhysical {
    /// Perturbed effective length (m).
    pub leff: f64,
    /// Perturbed effective width (m).
    pub weff: f64,
    /// Perturbed mobility (m²/(V·s)).
    pub mu: f64,
    /// Perturbed gate capacitance (F/m²).
    pub cinv: f64,
}

impl NonPhysical {
    /// `Ok` when every perturbed value is strictly positive (a NaN fails).
    ///
    /// # Errors
    ///
    /// The offending values, as a [`NonPhysical`].
    pub(crate) fn check(leff: f64, weff: f64, mu: f64, cinv: f64) -> Result<(), Self> {
        if leff > 0.0 && weff > 0.0 && mu > 0.0 && cinv > 0.0 {
            Ok(())
        } else {
            Err(NonPhysical {
                leff,
                weff,
                mu,
                cinv,
            })
        }
    }
}

impl std::fmt::Display for NonPhysical {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "variation pushed device parameters non-physical: L={}, W={}, mu={}, Cinv={}",
            self.leff, self.weff, self.mu, self.cinv
        )
    }
}

impl std::error::Error for NonPhysical {}

/// Pelgrom-scaled mismatch coefficients (the `α` of the paper's Eq. (8) and
/// Table II), in SI units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MismatchSpec {
    /// `α1`: VT0 coefficient, V·m.
    pub a_vt: f64,
    /// `α2`: Leff coefficient, m.
    pub a_l: f64,
    /// `α3`: Weff coefficient, m.
    pub a_w: f64,
    /// `α4`: mobility coefficient, m³/(V·s).
    pub a_mu: f64,
    /// `α5`: Cinv coefficient, F/m.
    pub a_cinv: f64,
}

impl MismatchSpec {
    /// Builds a spec from the paper's Table II units:
    /// `a_vt` in V·nm, `a_l`/`a_w` in nm, `a_mu` in nm·cm²/(V·s),
    /// `a_cinv` in nm·µF/cm².
    pub fn from_paper_units(a_vt: f64, a_l: f64, a_w: f64, a_mu: f64, a_cinv: f64) -> Self {
        MismatchSpec {
            a_vt: a_vt * 1e-9,
            a_l: a_l * 1e-9,
            a_w: a_w * 1e-9,
            a_mu: a_mu * 1e-9 * 1e-4,
            a_cinv: a_cinv * 1e-9 * 1e-2,
        }
    }

    /// Converts back to the paper's Table II units, in Table I order
    /// `(V·nm, nm, nm, nm·cm²/(V·s), nm·µF/cm²)`.
    pub fn to_paper_units(&self) -> [f64; 5] {
        [
            self.a_vt * 1e9,
            self.a_l * 1e9,
            self.a_w * 1e9,
            self.a_mu * 1e9 * 1e4,
            self.a_cinv * 1e9 * 1e2,
        ]
    }

    /// Standard deviation of `param` at the given geometry (paper Eq. (8)).
    pub fn sigma(&self, param: StatParam, geom: Geometry) -> f64 {
        let sqrt_area = geom.area().sqrt();
        match param {
            StatParam::Vt0 => self.a_vt / sqrt_area,
            StatParam::Leff => self.a_l * (geom.l / geom.w).sqrt(),
            StatParam::Weff => self.a_w * (geom.w / geom.l).sqrt(),
            StatParam::Mu => self.a_mu / sqrt_area,
            StatParam::Cinv => self.a_cinv / sqrt_area,
        }
    }

    /// Draws one independent-Gaussian [`VariationDelta`] for a device of the
    /// given geometry. `normal` must yield independent standard normal
    /// deviates (kept as a closure so this crate does not depend on an RNG).
    pub fn sample<F>(&self, geom: Geometry, mut normal: F) -> VariationDelta
    where
        F: FnMut() -> f64,
    {
        let mut d = VariationDelta::default();
        for p in StatParam::ALL {
            *d.component_mut(p) = self.sigma(p, geom) * normal();
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_nmos() -> MismatchSpec {
        // Paper Table II, NMOS column.
        MismatchSpec::from_paper_units(2.3, 3.71, 3.71, 944.0, 0.29)
    }

    #[test]
    fn paper_units_roundtrip() {
        let s = paper_nmos();
        let u = s.to_paper_units();
        assert!((u[0] - 2.3).abs() < 1e-9);
        assert!((u[1] - 3.71).abs() < 1e-9);
        assert!((u[3] - 944.0).abs() < 1e-6);
        assert!((u[4] - 0.29).abs() < 1e-9);
    }

    #[test]
    fn sigma_vt_matches_hand_calculation() {
        // σVT0 = 2.3 V·nm / sqrt(600*40 nm²) = 2.3/154.9 V·nm/nm ≈ 14.8 mV.
        let s = paper_nmos();
        let sigma = s.sigma(StatParam::Vt0, Geometry::from_nm(600.0, 40.0));
        assert!((sigma - 14.85e-3).abs() < 0.1e-3, "sigma = {sigma}");
    }

    #[test]
    fn area_scaling_law() {
        let s = paper_nmos();
        let small = s.sigma(StatParam::Vt0, Geometry::from_nm(120.0, 40.0));
        let large = s.sigma(StatParam::Vt0, Geometry::from_nm(480.0, 40.0));
        // Quadrupling W halves sigma.
        assert!((small / large - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ler_scaling_is_anisotropic() {
        let s = paper_nmos();
        let g = Geometry::from_nm(600.0, 40.0);
        let sl = s.sigma(StatParam::Leff, g);
        let sw = s.sigma(StatParam::Weff, g);
        // σL/σW = L/W when a_l == a_w (the paper's α2 = α3 constraint).
        assert!((sl / sw - g.l / g.w).abs() < 1e-12);
    }

    #[test]
    fn sample_uses_per_parameter_sigma() {
        let s = paper_nmos();
        let g = Geometry::from_nm(600.0, 40.0);
        // Deterministic "normal" of +1 for every draw.
        let d = s.sample(g, || 1.0);
        assert!((d.dvt0 - s.sigma(StatParam::Vt0, g)).abs() < 1e-18);
        assert!((d.dleff - s.sigma(StatParam::Leff, g)).abs() < 1e-18);
        assert!((d.dcinv - s.sigma(StatParam::Cinv, g)).abs() < 1e-18);
    }

    #[test]
    fn non_physical_check_rejects_non_positive_and_nan() {
        assert_eq!(NonPhysical::check(40e-9, 600e-9, 0.02, 0.02), Ok(()));
        let err = NonPhysical::check(40e-9, 600e-9, -1e-3, 0.02).unwrap_err();
        assert_eq!(err.mu, -1e-3);
        assert!(err.to_string().contains("mu=-0.001"));
        assert!(NonPhysical::check(f64::NAN, 600e-9, 0.02, 0.02).is_err());
        assert!(NonPhysical::check(40e-9, 0.0, 0.02, 0.02).is_err());
    }

    #[test]
    fn single_and_component_access() {
        let d = VariationDelta::single(StatParam::Mu, 1e-4);
        assert_eq!(d.component(StatParam::Mu), 1e-4);
        assert_eq!(d.component(StatParam::Vt0), 0.0);
        assert_eq!(VariationDelta::zero(), VariationDelta::default());
    }

    #[test]
    fn stat_param_display_and_all() {
        assert_eq!(StatParam::ALL.len(), 5);
        assert_eq!(StatParam::Vt0.to_string(), "VT0");
        assert_eq!(StatParam::Cinv.to_string(), "Cinv");
    }
}
