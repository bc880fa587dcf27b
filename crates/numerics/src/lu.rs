//! LU decomposition with partial pivoting.
//!
//! This is the linear solver behind the MNA circuit simulator: every
//! Newton-Raphson iteration solves `J dx = -f` with the Jacobian factored
//! here. The factorization is kept as a reusable object ([`Lu`]) so repeated
//! solves against the same matrix (e.g. multiple right-hand sides) do not
//! refactor.

use crate::{Matrix, NumericsError};

/// An LU factorization `P A = L U` with partial pivoting.
///
/// # Example
///
/// ```
/// use numerics::{lu::Lu, Matrix};
///
/// # fn main() -> Result<(), numerics::NumericsError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let f = Lu::factor(&a)?;
/// let x = f.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (below diagonal, unit diagonal implied) and U (on/above).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

/// Relative pivot threshold below which the matrix is declared singular.
const PIVOT_TOL: f64 = 1e-300;

/// The elimination kernel shared by [`Lu::factor`] and [`Lu::refactor`]:
/// factors the row-major `n`×`n` slice `lu` in place, filling `perm` and
/// returning the permutation sign.
fn eliminate_slice(lu: &mut [f64], n: usize, perm: &mut [usize]) -> Result<f64, NumericsError> {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(perm.len(), n);
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let mut sign = 1.0;
    for k in 0..n {
        // Find pivot row.
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if !(pmax > PIVOT_TOL) || !pmax.is_finite() {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            perm.swap(k, p);
            sign = -sign;
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let m = lu[i * n + k] / pivot;
            lu[i * n + k] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    let ukj = lu[k * n + j];
                    lu[i * n + j] -= m * ukj;
                }
            }
        }
    }
    Ok(sign)
}

/// The substitution kernel behind [`Lu::solve_into`]: permutation apply,
/// unit-lower forward substitution, then back substitution, on a row-major
/// `n`×`n` factored slice. Lengths are the caller's contract.
fn solve_slice(lu: &[f64], n: usize, perm: &[usize], b: &[f64], x: &mut [f64]) {
    debug_assert_eq!(lu.len(), n * n);
    // Apply permutation: y = P b.
    for (xi, &p) in x.iter_mut().zip(perm) {
        *xi = b[p];
    }
    // Forward substitution with unit-lower L.
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s;
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s / lu[i * n + i];
    }
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] for non-square input and
    /// [`NumericsError::SingularMatrix`] when a pivot underflows.
    pub fn factor(a: &Matrix) -> Result<Self, NumericsError> {
        if !a.is_square() {
            return Err(NumericsError::DimensionMismatch {
                context: format!("LU of non-square {}x{} matrix", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let sign = eliminate_slice(lu.as_mut_slice(), n, &mut perm)?;
        Ok(Lu { lu, perm, sign })
    }

    /// Re-factors a same-order matrix into this object's existing storage —
    /// no allocation. This is the hot path of repeated Newton solves (the
    /// circuit simulator refactors the Jacobian every iteration at a fixed
    /// sparsity/order), where `factor`'s per-call clone dominates.
    ///
    /// On error the factorization is left in an unusable state; call
    /// `refactor` again with a valid matrix before solving.
    ///
    /// # Errors
    ///
    /// Same as [`Lu::factor`], plus [`NumericsError::DimensionMismatch`]
    /// when `a`'s order differs from the stored one.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), NumericsError> {
        let n = self.lu.rows();
        if a.rows() != n || a.cols() != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "refactor of {}x{} matrix into order-{} LU",
                    a.rows(),
                    a.cols(),
                    n
                ),
            });
        }
        self.lu.as_mut_slice().copy_from_slice(a.as_slice());
        self.sign = eliminate_slice(self.lu.as_mut_slice(), n, &mut self.perm)?;
        Ok(())
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` does not
    /// match the matrix order.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = vec![0.0; self.lu.rows()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Lu::solve`] into caller-provided storage — no allocation. `x` must
    /// have the factorization's order.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` or `x` does not
    /// match the matrix order.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        let n = self.lu.rows();
        if b.len() != n || x.len() != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "rhs length {} / out length {} for order-{} LU",
                    b.len(),
                    x.len(),
                    n
                ),
            });
        }
        solve_slice(self.lu.as_slice(), n, &self.perm, b, x);
        Ok(())
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }
}

/// One-shot solve of `A x = b` (factor + solve).
///
/// # Errors
///
/// Propagates factorization/solve errors; see [`Lu::factor`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
    Lu::factor(a)?.solve(b)
}

/// Inverse of a square matrix via LU (column-by-column solves).
///
/// # Errors
///
/// Returns an error when the matrix is singular or non-square.
pub fn inverse(a: &Matrix) -> Result<Matrix, NumericsError> {
    let n = a.rows();
    let f = Lu::factor(a)?;
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        let col = f.solve(&e)?;
        for i in 0..n {
            inv[(i, j)] = col[i];
        }
        e[j] = 0.0;
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let x = solve(&a, &[1.0, -2.0, 0.0]).unwrap();
        // Known solution (1, -2, -2).
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
        assert!((x[2] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            Lu::factor(&a),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn determinant_of_permuted_identity() {
        // Swapping two rows of I gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let f = Lu::factor(&a).unwrap();
        assert!((f.det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn determinant_of_triangular() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        assert!((Lu::factor(&a).unwrap().det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_reconstructs_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        assert!((&prod - &Matrix::identity(2)).norm_max() < 1e-12);
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(2);
        let f = Lu::factor(&a).unwrap();
        assert!(f.solve(&[1.0]).is_err());
        let mut out = vec![0.0; 3];
        assert!(f.solve_into(&[1.0, 2.0], &mut out).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_factor() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 3.0, 1.0]]);
        let mut f = Lu::factor(&a).unwrap();
        f.refactor(&b).unwrap();
        let fresh = Lu::factor(&b).unwrap();
        assert!((f.det() - fresh.det()).abs() < 1e-12);
        let rhs = [1.0, -1.0, 2.0];
        let mut x = vec![0.0; 3];
        f.solve_into(&rhs, &mut x).unwrap();
        let ax = b.matvec(&x);
        for (l, r) in ax.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12);
        }
        // Order mismatch is rejected.
        assert!(f.refactor(&Matrix::identity(2)).is_err());
    }

    #[test]
    fn refactor_recovers_after_singular_input() {
        let good = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut f = Lu::factor(&good).unwrap();
        assert!(f.refactor(&singular).is_err());
        f.refactor(&good).unwrap();
        let x = f.solve(&[4.0, 6.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }
}
