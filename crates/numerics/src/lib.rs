//! Dense numerical kernels for compact-model extraction and circuit simulation.
//!
//! This crate implements, from scratch, the numerical substrate required by the
//! statistical Virtual Source MOSFET modeling flow:
//!
//! * [`Matrix`] — a small dense row-major matrix with the usual arithmetic.
//! * [`lu`] — LU decomposition with partial pivoting (the workhorse of the
//!   MNA circuit solver).
//! * [`qr`] — Householder QR and linear least squares (used to solve the
//!   stacked backward-propagation-of-variance system).
//! * [`cholesky`] — Cholesky factorization (covariance manipulation,
//!   confidence ellipses).
//! * [`nnls`] — non-negative least squares via an active-set method
//!   (variances must not go negative during BPV extraction).
//! * [`roots`] — Brent's method and bisection for 1-D root finding
//!   (threshold-crossing times, setup-time search).
//! * [`jacobian`] — central finite-difference derivatives and Jacobians
//!   (all model sensitivities in the paper's Eq. (10) are numerical).
//! * [`lm`] — Levenberg-Marquardt nonlinear least squares (nominal VS
//!   parameter extraction against the golden kit, paper Fig. 1).
//!
//! `ARCHITECTURE.md` at the repo root places this crate at the base of the
//! workspace's crate graph.
//!
//! # Example
//!
//! ```
//! use numerics::{Matrix, Vector};
//!
//! // Solve a small linear system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = vec![1.0, 2.0];
//! let x = numerics::lu::solve(&a, &b).expect("non-singular");
//! let r = &a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

pub mod cholesky;
pub mod complex;
pub mod error;
pub mod jacobian;
pub mod lm;
pub mod lu;
pub mod matrix;
pub mod nnls;
pub mod qr;
pub mod roots;

pub use error::NumericsError;
pub use matrix::Matrix;

/// A dense column vector, stored as a plain `Vec<f64>`.
///
/// Kept as a type alias rather than a newtype so that callers can use all of
/// the standard slice/vec machinery directly.
pub type Vector = Vec<f64>;

/// Euclidean norm of a slice.
///
/// ```
/// assert_eq!(numerics::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm (maximum absolute entry) of a slice; `0.0` for empty input.
///
/// ```
/// assert_eq!(numerics::norm_inf(&[1.0, -7.0, 2.0]), 7.0);
/// ```
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_dot() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert!((dot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
