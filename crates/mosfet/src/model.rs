//! The compact-model trait and the polarity/drain-source folding shared by
//! every model implementation.

use crate::types::{Geometry, Polarity};

/// Terminal bias relative to the source, in volts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bias {
    /// Gate-source voltage.
    pub vgs: f64,
    /// Drain-source voltage.
    pub vds: f64,
    /// Bulk-source voltage.
    pub vbs: f64,
}

/// Terminal charges in coulombs. `qg + qd + qs + qb == 0` (charge
/// conservation) holds for every model in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Charges {
    /// Gate charge.
    pub qg: f64,
    /// Drain charge.
    pub qd: f64,
    /// Source charge.
    pub qs: f64,
    /// Bulk charge.
    pub qb: f64,
}

/// A compact MOSFET model instance: fixed parameters + geometry +
/// per-instance mismatch, evaluated at arbitrary bias.
///
/// Implementations must be *smooth* in all terminal voltages (the circuit
/// simulator differentiates them numerically) and must satisfy source/drain
/// symmetry: swapping drain and source negates the current.
pub trait MosfetModel: Send + Sync + std::fmt::Debug {
    /// Device polarity.
    fn polarity(&self) -> Polarity;

    /// Device geometry.
    fn geometry(&self) -> Geometry;

    /// Drain terminal current in amps (positive into the drain for NMOS in
    /// forward operation).
    fn ids(&self, bias: Bias) -> f64;

    /// Terminal charges in coulombs.
    fn charges(&self, bias: Bias) -> Charges;

    /// Short human-readable model name ("vs", "bsim").
    fn name(&self) -> &'static str;

    /// Clones the model instance into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn MosfetModel>;

    /// Gate capacitance `dQg/dVgs` at the given bias, by central difference.
    /// This is the `Cgg` electrical metric used in BPV extraction.
    fn cgg(&self, bias: Bias) -> f64 {
        let h = 1e-4;
        let qp = self
            .charges(Bias {
                vgs: bias.vgs + h,
                ..bias
            })
            .qg;
        let qm = self
            .charges(Bias {
                vgs: bias.vgs - h,
                ..bias
            })
            .qg;
        (qp - qm) / (2.0 * h)
    }
}

impl Clone for Box<dyn MosfetModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Canonical (NMOS-like, `vds >= 0`) bias produced by [`fold`].
#[derive(Debug, Clone, Copy)]
pub struct Folded {
    /// Gate-source voltage in the canonical frame.
    pub vgs: f64,
    /// Drain-source voltage in the canonical frame (always `>= 0`).
    pub vds: f64,
    /// Bulk-source voltage in the canonical frame.
    pub vbs: f64,
    /// `true` when drain and source were exchanged (`vds < 0` originally).
    pub swapped: bool,
    /// Polarity sign that was applied (`+1` NMOS, `-1` PMOS).
    pub sign: f64,
}

/// Folds an arbitrary bias into the canonical NMOS-like frame.
///
/// PMOS terminal voltages are negated; if the (folded) `vds` is negative,
/// drain and source are exchanged so the core equations only ever see
/// `vds >= 0`. [`Folded::unfold_current`] and [`Folded::unfold_charges`]
/// restore the physical sign conventions.
pub fn fold(polarity: Polarity, bias: Bias) -> Folded {
    let s = polarity.sign();
    let (vgs, vds, vbs) = (s * bias.vgs, s * bias.vds, s * bias.vbs);
    if vds >= 0.0 {
        Folded {
            vgs,
            vds,
            vbs,
            swapped: false,
            sign: s,
        }
    } else {
        // Exchange drain and source: the new source is the old drain.
        Folded {
            vgs: vgs - vds,
            vds: -vds,
            vbs: vbs - vds,
            swapped: true,
            sign: s,
        }
    }
}

impl Folded {
    /// Maps a canonical-frame drain current back to the physical frame.
    pub fn unfold_current(&self, id_canonical: f64) -> f64 {
        let swap_sign = if self.swapped { -1.0 } else { 1.0 };
        self.sign * swap_sign * id_canonical
    }

    /// Maps canonical-frame charges back to the physical frame.
    pub fn unfold_charges(&self, q: Charges) -> Charges {
        let (qd, qs) = if self.swapped {
            (q.qs, q.qd)
        } else {
            (q.qd, q.qs)
        };
        Charges {
            qg: self.sign * q.qg,
            qd: self.sign * qd,
            qs: self.sign * qs,
            qb: self.sign * q.qb,
        }
    }
}

/// Smooth channel-charge partition between source and drain.
///
/// Returns the drain share of the (negative) channel charge: 1/2 in the
/// linear region, trending to 2/5 (the classic "40/60" split) deep in
/// saturation, blended smoothly by the saturation function `fsat in [0, 1]`.
pub fn drain_partition(fsat: f64) -> f64 {
    0.5 - 0.1 * fsat.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_nmos_forward_is_identity() {
        let f = fold(
            Polarity::Nmos,
            Bias {
                vgs: 0.9,
                vds: 0.5,
                vbs: -0.1,
            },
        );
        assert!(!f.swapped);
        assert_eq!(f.vgs, 0.9);
        assert_eq!(f.vds, 0.5);
        assert_eq!(f.vbs, -0.1);
        assert_eq!(f.unfold_current(1.0), 1.0);
    }

    #[test]
    fn fold_nmos_reverse_swaps_terminals() {
        let f = fold(
            Polarity::Nmos,
            Bias {
                vgs: 0.9,
                vds: -0.5,
                vbs: 0.0,
            },
        );
        assert!(f.swapped);
        // New gate-source voltage is vgd = vgs - vds.
        assert!((f.vgs - 1.4).abs() < 1e-15);
        assert!((f.vds - 0.5).abs() < 1e-15);
        assert_eq!(f.unfold_current(1.0), -1.0);
    }

    #[test]
    fn fold_pmos_negates() {
        let f = fold(
            Polarity::Pmos,
            Bias {
                vgs: -0.9,
                vds: -0.5,
                vbs: 0.0,
            },
        );
        assert!(!f.swapped);
        assert!((f.vgs - 0.9).abs() < 1e-15);
        assert!((f.vds - 0.5).abs() < 1e-15);
        assert_eq!(f.unfold_current(2.0), -2.0);
    }

    #[test]
    fn unfold_charges_swaps_and_signs() {
        let f = fold(
            Polarity::Nmos,
            Bias {
                vgs: 0.0,
                vds: -1.0,
                vbs: 0.0,
            },
        );
        let q = Charges {
            qg: 1.0,
            qd: -0.4,
            qs: -0.6,
            qb: 0.0,
        };
        let u = f.unfold_charges(q);
        assert_eq!(u.qd, -0.6);
        assert_eq!(u.qs, -0.4);
        assert_eq!(u.qg, 1.0);
    }

    #[test]
    fn partition_limits() {
        assert_eq!(drain_partition(0.0), 0.5);
        assert!((drain_partition(1.0) - 0.4).abs() < 1e-15);
        // Clamped outside [0, 1].
        assert_eq!(drain_partition(2.0), 0.4);
        assert_eq!(drain_partition(-1.0), 0.5);
    }
}
