//! Unpivoted `L·D·Lᵀ` factorization of complex symmetric matrices.
//!
//! The per-conductor blocks of the PEEC filament impedance
//! `Z = R + jω·Lp` are complex *symmetric* (`Zᵀ = Z`, not Hermitian) with
//! a positive diagonal real part (`R > 0`) and a symmetric
//! positive-definite imaginary part (`Lp`). Such a matrix is *accretive*:
//! `Re(x*·Z·x) = x*·R·x > 0` for every nonzero `x`, and every Schur
//! complement of an accretive matrix is accretive again, so each pivot of
//! unpivoted Gaussian elimination has `Re(d_k) > 0` in exact arithmetic.
//! Higham (*Factorizing complex symmetric matrices with positive definite
//! real and imaginary parts*, Math. Comp. 67, 1998) shows that when both
//! parts are positive definite the unpivoted factorization is also
//! numerically stable, with a growth factor bounded by a small constant
//! independent of `n` — so no pivot search is needed, and symmetry halves
//! both the storage and the flops of a general complex LU.
//!
//! [`CSymLdlt`] keeps only the lower triangle, packed row by row, in split
//! real/imaginary arrays: row `i` occupies `[i(i+1)/2, i(i+1)/2 + i]`,
//! holding `L[i][0..i]` followed by `D[i]` on the diagonal. The
//! right-looking elimination gathers pivot column `k` once and then updates
//! each trailing row with one contiguous axpy over split slices, which the
//! compiler vectorizes without bounds checks.

use crate::{CMatrix, Complex, NumericError, Result};

/// `A = L·D·Lᵀ` of a complex symmetric matrix with positive diagonal real
/// part, factored without pivoting. See the [module docs](self).
///
/// # Example
///
/// ```
/// use rlcx_numeric::{CMatrix, Complex, ldlt::CSymLdlt};
///
/// # fn main() -> Result<(), rlcx_numeric::NumericError> {
/// let mut a = CMatrix::zeros(2, 2);
/// a[(0, 0)] = Complex::new(1.0, 2.0);
/// a[(1, 0)] = Complex::new(0.0, 1.0);
/// a[(0, 1)] = a[(1, 0)];
/// a[(1, 1)] = Complex::new(2.0, 3.0);
/// let f = CSymLdlt::new(&a)?;
/// let b = [Complex::ONE, Complex::new(0.0, -1.0)];
/// let x = f.solve(&b)?;
/// let ax = a.mul_vec(&x)?;
/// assert!((ax[0] - b[0]).abs() < 1e-12 && (ax[1] - b[1]).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CSymLdlt {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

/// Offset of row `i` in the packed lower triangle.
#[inline]
fn row_offset(i: usize) -> usize {
    i * (i + 1) / 2
}

impl CSymLdlt {
    /// Length of the packed lower triangle of an `n × n` matrix,
    /// `n(n+1)/2`.
    pub fn packed_len(n: usize) -> usize {
        row_offset(n)
    }

    /// Offset of row `i` in the packed lower triangle: row `i` holds
    /// columns `0..=i` at `row_offset(i)..row_offset(i) + i + 1`.
    pub fn row_offset(i: usize) -> usize {
        row_offset(i)
    }

    /// Factors the matrix whose lower triangle is given packed row-major
    /// in `re` / `im` (see [`CSymLdlt::row_offset`]); the arrays are
    /// overwritten by the factor, so the caller fills them once and no
    /// copy is made.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if either array's length is
    ///   not [`CSymLdlt::packed_len`]`(n)`.
    /// * [`NumericError::Singular`] at the first pivot `d_k` whose real
    ///   part is not finite and positive (or whose imaginary part is not
    ///   finite): the matrix is not in the accretive class this
    ///   factorization is stable for.
    pub fn from_packed_lower(n: usize, mut re: Vec<f64>, mut im: Vec<f64>) -> Result<Self> {
        let len = row_offset(n);
        if re.len() != len || im.len() != len {
            return Err(NumericError::DimensionMismatch {
                expected: format!("packed lower triangle of length {len} (n = {n})"),
                found: format!("re: {}, im: {}", re.len(), im.len()),
            });
        }
        crate::obs::observe("lu.factor.n", n as f64);
        factor(n, &mut re, &mut im)?;
        Ok(CSymLdlt { n, re, im })
    }

    /// Factors the lower triangle of the square matrix `a`; the strict
    /// upper triangle is not read (symmetry is assumed, not checked).
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::Singular`] as for
    ///   [`CSymLdlt::from_packed_lower`].
    pub fn new(a: &CMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut re = Vec::with_capacity(row_offset(n));
        let mut im = Vec::with_capacity(row_offset(n));
        for i in 0..n {
            for j in 0..=i {
                re.push(a[(i, j)].re);
                im.push(a[(i, j)].im);
            }
        }
        Self::from_packed_lower(n, re, im)
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` in place (`x` holds `b` on entry); allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len()` differs
    /// from `self.dim()`.
    pub fn solve_in_place(&self, x: &mut [Complex]) -> Result<()> {
        let n = self.n;
        if x.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("length {}", x.len()),
            });
        }
        // Forward: L·y = b (unit lower), one dot product per packed row.
        for i in 1..n {
            let rs = row_offset(i);
            let (head, tail) = x.split_at_mut(i);
            let mut acc = tail[0];
            for ((&lr, &li), xk) in self.re[rs..rs + i]
                .iter()
                .zip(&self.im[rs..rs + i])
                .zip(head.iter())
            {
                acc.re -= lr * xk.re - li * xk.im;
                acc.im -= lr * xk.im + li * xk.re;
            }
            tail[0] = acc;
        }
        // Diagonal: z = D⁻¹·y.
        for (i, xi) in x.iter_mut().enumerate() {
            let d = row_offset(i) + i;
            *xi /= Complex::new(self.re[d], self.im[d]);
        }
        // Backward: Lᵀ·x = z. Row i of L is column i of Lᵀ, so once x_i is
        // final it is eliminated from x[0..i] with one axpy over the row.
        for i in (1..n).rev() {
            let rs = row_offset(i);
            let xi = x[i];
            for ((&lr, &li), xk) in self.re[rs..rs + i]
                .iter()
                .zip(&self.im[rs..rs + i])
                .zip(x[..i].iter_mut())
            {
                xk.re -= lr * xi.re - li * xi.im;
                xk.im -= lr * xi.im + li * xi.re;
            }
        }
        Ok(())
    }

    /// Solves `A·x = b`.
    ///
    /// Thin allocating wrapper over [`CSymLdlt::solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }
}

/// Right-looking unpivoted elimination over the packed lower triangle.
///
/// Step `k` checks pivot `d_k`, gathers the (strided) column below it into
/// contiguous split scratch `c`, and for each trailing row `i` stores
/// `l_ik = c_i / d_k` and applies `a_ij -= l_ik · c_j` for `j ∈ (k, i]` —
/// a contiguous axpy over row `i` of the packed storage.
fn factor(n: usize, re: &mut [f64], im: &mut [f64]) -> Result<()> {
    let mut cr = vec![0.0; n];
    let mut ci = vec![0.0; n];
    for k in 0..n {
        let kk = row_offset(k) + k;
        let d = Complex::new(re[kk], im[kk]);
        if !(d.re > 0.0 && d.re.is_finite() && d.im.is_finite()) {
            return Err(NumericError::Singular { pivot: k });
        }
        let inv = d.recip();
        for (t, i) in (k + 1..n).enumerate() {
            let o = row_offset(i) + k;
            cr[t] = re[o];
            ci[t] = im[o];
        }
        for (t, i) in (k + 1..n).enumerate() {
            let rs = row_offset(i);
            let l = Complex::new(cr[t], ci[t]) * inv;
            re[rs + k] = l.re;
            im[rs + k] = l.im;
            let (xr, xi) = (&mut re[rs + k + 1..=rs + i], &mut im[rs + k + 1..=rs + i]);
            for (((xr, xi), &ar), &ai) in xr
                .iter_mut()
                .zip(xi.iter_mut())
                .zip(&cr[..=t])
                .zip(&ci[..=t])
            {
                *xr -= l.re * ar - l.im * ai;
                *xi -= l.re * ai + l.im * ar;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::CLuDecomposition;
    use crate::rng::{SplitMix64, UniformRng};

    /// `diag(r) + jω·G` with `r > 0` and `G = BᵀB + εI` SPD — the class of
    /// a PEEC conductor block `R + jω·Lp`.
    fn accretive(n: usize, omega: f64, rng: &mut SplitMix64) -> CMatrix {
        let b: Vec<f64> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let eps = 0.05 * n as f64;
        let mut a = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut g: f64 = (0..n).map(|k| b[k * n + i] * b[k * n + j]).sum();
                if i == j {
                    g += eps;
                }
                let r = if i == j { rng.uniform(0.1, 2.0) } else { 0.0 };
                a[(i, j)] = Complex::new(r, omega * g);
                a[(j, i)] = a[(i, j)];
            }
        }
        a
    }

    fn rel_diff(x: &[Complex], y: &[Complex]) -> f64 {
        let num: f64 = x.iter().zip(y).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        let den: f64 = y.iter().map(|b| b.norm_sqr()).sum();
        (num / den).sqrt()
    }

    #[test]
    fn matches_pivoted_lu_on_random_accretive_matrices() {
        let mut rng = SplitMix64::new(0x1d17);
        // ω from R-dominated (1e-3: Z ≈ diag r) to L-dominated (1e3).
        for omega in [1e-3, 1e-1, 1.0, 10.0, 1e3] {
            for n in (1..=64).step_by(7).chain([2, 3, 64]) {
                let a = accretive(n, omega, &mut rng);
                let b: Vec<Complex> = (0..n)
                    .map(|_| Complex::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                    .collect();
                let ldlt = CSymLdlt::new(&a).unwrap();
                assert_eq!(ldlt.dim(), n);
                let x = ldlt.solve(&b).unwrap();
                let xlu = CLuDecomposition::new(&a).unwrap().solve(&b).unwrap();
                let err = rel_diff(&x, &xlu);
                assert!(err <= 1e-12, "n = {n}, ω = {omega}: rel diff {err:e}");
            }
        }
    }

    #[test]
    fn packed_constructor_matches_matrix_constructor_bitwise() {
        let mut rng = SplitMix64::new(5);
        let n = 17;
        let a = accretive(n, 3.0, &mut rng);
        let mut re = vec![0.0; CSymLdlt::packed_len(n)];
        let mut im = vec![0.0; CSymLdlt::packed_len(n)];
        for i in 0..n {
            for j in 0..=i {
                re[CSymLdlt::row_offset(i) + j] = a[(i, j)].re;
                im[CSymLdlt::row_offset(i) + j] = a[(i, j)].im;
            }
        }
        let packed = CSymLdlt::from_packed_lower(n, re, im).unwrap();
        let dense = CSymLdlt::new(&a).unwrap();
        assert_eq!(packed.re, dense.re);
        assert_eq!(packed.im, dense.im);
    }

    #[test]
    fn empty_system_is_trivial() {
        let f = CSymLdlt::new(&CMatrix::zeros(0, 0)).unwrap();
        assert_eq!(f.dim(), 0);
        assert!(f.solve(&[]).unwrap().is_empty());
    }

    #[test]
    fn non_accretive_pivots_are_typed_errors() {
        let with_first = |d: Complex| {
            let mut a = CMatrix::identity(3);
            a[(0, 0)] = d;
            CSymLdlt::new(&a)
        };
        for (d, what) in [
            (Complex::ZERO, "zero"),
            (Complex::new(0.0, 1.0), "purely imaginary"),
            (Complex::new(-1.0, 0.5), "negative"),
            (Complex::new(f64::NAN, 1.0), "NaN real"),
            (Complex::new(1.0, f64::NAN), "NaN imaginary"),
            (Complex::new(f64::INFINITY, 0.0), "infinite"),
        ] {
            assert_eq!(
                with_first(d).unwrap_err(),
                NumericError::Singular { pivot: 0 },
                "{what} pivot"
            );
        }
        // A Schur-complement pivot: [[1, 2], [2, 1]] leaves d₁ = 1 − 4 < 0.
        let mut a = CMatrix::identity(2);
        a[(1, 0)] = Complex::from_real(2.0);
        assert_eq!(
            CSymLdlt::new(&a).unwrap_err(),
            NumericError::Singular { pivot: 1 }
        );
        // A NaN off the diagonal reaches a later pivot through the update.
        let mut a = CMatrix::identity(3);
        a[(2, 0)] = Complex::new(f64::NAN, 0.0);
        assert_eq!(
            CSymLdlt::new(&a).unwrap_err(),
            NumericError::Singular { pivot: 2 }
        );
    }

    #[test]
    fn mismatched_lengths_are_typed_errors() {
        assert!(matches!(
            CSymLdlt::new(&CMatrix::zeros(2, 3)),
            Err(NumericError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            CSymLdlt::from_packed_lower(3, vec![1.0; 6], vec![0.0; 5]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            CSymLdlt::from_packed_lower(3, vec![1.0; 9], vec![0.0; 9]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let f = CSymLdlt::new(&CMatrix::identity(3)).unwrap();
        let mut short = [Complex::ONE; 2];
        assert!(matches!(
            f.solve_in_place(&mut short),
            Err(NumericError::DimensionMismatch { .. })
        ));
        assert!(f.solve(&[Complex::ONE; 4]).is_err());
    }
}
