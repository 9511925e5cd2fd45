//! LU factorization with partial pivoting, real and complex.
//!
//! The dense PEEC solve and PRIMA's reduced-model projections reduce to
//! repeated solves against a fixed factorization, so the decomposition is a
//! first-class object that can be reused across right-hand sides. (The MNA
//! circuit simulator factors with [`crate::sparse::SparseLu`]; the dense
//! factorization is its reference in tests.)

use crate::{CMatrix, Complex, Matrix, NumericError, Result};

/// LU factorization of a square real matrix with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use rlcx_numeric::{Matrix, lu::LuDecomposition};
///
/// # fn main() -> Result<(), rlcx_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl LuDecomposition {
    /// Factorizes `a` in place of a copy.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::Singular`] if a zero pivot column is encountered.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        crate::obs::observe("lu.factor.n", n as f64);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max == 0.0 {
                return Err(NumericError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(LuDecomposition { lu, perm, sign })
    }

    /// Solves `Aᵀ·x = b` into caller-provided buffers; allocation-free.
    ///
    /// With `P·A = L·U` this is `Uᵀ·z = b` (forward), `Lᵀ·w = z`
    /// (backward), then `x = Pᵀ·w`. The transposed solve is what one-norm
    /// condition estimation ([`crate::condest`]) needs.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if any slice length
    /// differs from `self.dim()`.
    #[allow(clippy::needless_range_loop)] // textbook triangular substitution
    pub fn solve_transposed_into(&self, b: &[f64], work: &mut [f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || work.len() != n || x.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                found: format!("b: {}, work: {}, x: {}", b.len(), work.len(), x.len()),
            });
        }
        // Forward: Uᵀ is lower triangular with diagonal U[i][i].
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * work[j];
            }
            work[i] = acc / self.lu[(i, i)];
        }
        // Backward: Lᵀ is upper triangular with implicit unit diagonal.
        for i in (0..n).rev() {
            let mut acc = work[i];
            for j in (i + 1)..n {
                acc -= self.lu[(j, i)] * work[j];
            }
            work[i] = acc;
        }
        // x = Pᵀ·w: the forward pass of `solve_into` reads b[perm[i]],
        // so the transposed chain scatters through the same permutation.
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = work[i];
        }
        Ok(())
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` into a caller-provided buffer; allocation-free.
    ///
    /// `b` and `x` must not alias.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` or
    /// `x.len()` differs from `self.dim()`.
    #[allow(clippy::needless_range_loop)] // textbook triangular substitution
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs and solution of length {n}"),
                found: format!("b: {}, x: {}", b.len(), x.len()),
            });
        }
        // Apply permutation, then forward/backward substitution.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// Thin allocating wrapper over [`LuDecomposition::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves for several right-hand sides given as the columns of `b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{n} rows"),
                found: format!("{}x{}", b.rows(), b.cols()),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        let mut x = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            self.solve_into(&col, &mut x)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the factorized matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (should not occur for a valid factorization).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// LU factorization of a square complex matrix with partial pivoting.
///
/// Used for the frequency-domain PEEC impedance solve `Z·I = V`.
#[derive(Debug, Clone)]
pub struct CLuDecomposition {
    lu: CMatrix,
    perm: Vec<usize>,
}

impl CLuDecomposition {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::Singular`] on breakdown.
    pub fn new(a: &CMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        crate::obs::observe("lu.factor.n", n as f64);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max == 0.0 {
                return Err(NumericError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(CLuDecomposition { lu, perm })
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` into a caller-provided buffer; allocation-free.
    ///
    /// `b` and `x` must not alias.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` or
    /// `x.len()` differs from `self.dim()`.
    #[allow(clippy::needless_range_loop)] // textbook triangular substitution
    pub fn solve_into(&self, b: &[Complex], x: &mut [Complex]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs and solution of length {n}"),
                found: format!("b: {}, x: {}", b.len(), x.len()),
            });
        }
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `A·x = b`.
    ///
    /// Thin allocating wrapper over [`CLuDecomposition::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>> {
        let mut x = vec![Complex::ZERO; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Inverse of the factorized complex matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (should not occur for a valid factorization).
    pub fn inverse(&self) -> Result<CMatrix> {
        let n = self.dim();
        let mut out = CMatrix::zeros(n, n);
        let mut e = vec![Complex::ZERO; n];
        let mut x = vec![Complex::ZERO; n];
        for j in 0..n {
            e[j] = Complex::ONE;
            self.solve_into(&e, &mut x)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
            e[j] = Complex::ZERO;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let a =
            Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]).unwrap();
        let x_true = [1.0, 2.0, 3.0];
        let b = a.mul_vec(&x_true).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
        assert!((lu.determinant() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(LuDecomposition::new(&a).is_err());
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let inv = LuDecomposition::new(&a).unwrap().inverse().unwrap();
        let prod = a.mul(&inv).unwrap();
        let id = Matrix::identity(2);
        for i in 0..2 {
            for j in 0..2 {
                assert!((prod[(i, j)] - id[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn determinant_of_diagonal() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 5.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - 10.0).abs() < 1e-13);
    }

    #[test]
    fn complex_solve_roundtrip() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        a[(0, 1)] = Complex::new(0.0, -1.0);
        a[(1, 0)] = Complex::new(2.0, 0.0);
        a[(1, 1)] = Complex::new(3.0, 1.0);
        let x_true = [Complex::new(1.0, -2.0), Complex::new(0.5, 0.25)];
        let b = a.mul_vec(&x_true).unwrap();
        let lu = CLuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true) {
            assert!((*xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_inverse_roundtrip() {
        let mut a = CMatrix::identity(3);
        a[(0, 1)] = Complex::new(0.5, -0.5);
        a[(2, 0)] = Complex::new(0.0, 2.0);
        let lu = CLuDecomposition::new(&a).unwrap();
        let inv = lu.inverse().unwrap();
        // A * A^-1 = I, checked column by column.
        for j in 0..3 {
            let mut col = vec![Complex::ZERO; 3];
            for i in 0..3 {
                col[i] = inv[(i, j)];
            }
            let prod = a.mul_vec(&col).unwrap();
            for (i, p) in prod.iter().enumerate() {
                let expect = if i == j { Complex::ONE } else { Complex::ZERO };
                assert!((*p - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_singular_detected() {
        let a = CMatrix::zeros(2, 2);
        assert!(matches!(
            CLuDecomposition::new(&a),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let b = [3.0, 5.0];
        let mut x = [0.0; 2];
        lu.solve_into(&b, &mut x).unwrap();
        assert_eq!(x.to_vec(), lu.solve(&b).unwrap());
        let mut wrong = [0.0; 3];
        assert!(matches!(
            lu.solve_into(&b, &mut wrong),
            Err(NumericError::DimensionMismatch { .. })
        ));

        let mut ca = CMatrix::identity(2);
        ca[(0, 1)] = Complex::new(0.5, -1.0);
        let clu = CLuDecomposition::new(&ca).unwrap();
        let cb = [Complex::new(1.0, 2.0), Complex::new(-3.0, 0.0)];
        let mut cx = [Complex::ZERO; 2];
        clu.solve_into(&cb, &mut cx).unwrap();
        assert_eq!(cx.to_vec(), clu.solve(&cb).unwrap());
    }

    #[test]
    fn transposed_solve_matches_transposed_matrix() {
        let a =
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, -1.0], &[1.0, 0.5, 4.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let lut = LuDecomposition::new(&a.transpose()).unwrap();
        let b = [1.0, 2.0, -0.5];
        let mut work = [0.0; 3];
        let mut x = [0.0; 3];
        lu.solve_transposed_into(&b, &mut work, &mut x).unwrap();
        let expect = lut.solve(&b).unwrap();
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-12, "{xi} vs {ei}");
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        let inv = lu.inverse().unwrap();
        assert_eq!(x, inv);
    }
}
