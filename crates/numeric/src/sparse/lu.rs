//! Sparse LU factorization with a symbolic/numeric phase split.
//!
//! [`SparseLu::factor`] runs a left-looking (Gilbert–Peierls) elimination:
//! for each column, a depth-first search over the partially-built `L`
//! discovers the column's fill pattern (the *symbolic* step), then a
//! scatter/gather sweep computes its values (the *numeric* step). The
//! pattern, the column order and the row permutation are retained, so
//! [`SparseLu::refactor`] can re-run only the numeric sweep when the
//! matrix values change on a fixed pattern — the AC sweep's
//! per-frequency cost drops from "order + symbolic + numeric" to
//! "numeric only".
//!
//! Pivoting is *threshold partial*: the natural MNA diagonal is kept
//! whenever its magnitude is within a factor [`PIVOT_THRESHOLD`] of the
//! column maximum, preserving the fill predicted by the fill-reducing
//! order; otherwise the factorization falls back to the largest
//! remaining row in the column (counted in `sparse.lu.offdiag_pivots`).
//! A refactorization watches for pivots that have degraded below
//! [`REFACTOR_PIVOT_TOL`] of their column and transparently re-runs a
//! fully pivoted factorization when that happens (`sparse.lu.repivot`).

use super::{min_degree_order, CscMatrix, Scalar};
use crate::obs;
use crate::{NumericError, Result};

/// Keep the diagonal pivot when it is at least this fraction of the
/// column maximum. 0.1 is the usual sparse-LU compromise between
/// stability and fill preservation.
pub const PIVOT_THRESHOLD: f64 = 0.1;

/// During [`SparseLu::refactor`], re-pivot from scratch when a reused
/// pivot falls below this fraction of its column maximum.
pub const REFACTOR_PIVOT_TOL: f64 = 1e-3;

const UNSET: usize = usize::MAX;

/// Sparse LU factors `P·A·Q = L·U` of a square [`CscMatrix`].
///
/// `Q` is the fill-reducing column order, `P` the row permutation chosen
/// by threshold partial pivoting. `L` has an implicit unit diagonal.
#[derive(Debug, Clone)]
pub struct SparseLu<T> {
    n: usize,
    /// Column order: factored column `k` is original column `q[k]`.
    q: Vec<usize>,
    /// Original row index -> pivot position.
    pinv: Vec<usize>,
    /// Pivot position -> original row index.
    p: Vec<usize>,
    /// `L` columns (strictly below-diagonal, implicit unit diagonal);
    /// row indices are *original* row ids.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<T>,
    /// `U` columns (strictly above-diagonal); row indices are *pivot
    /// positions*, stored ascending.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<T>,
    u_diag: Vec<T>,
    /// nnz of the factored matrix, for fill accounting and refactor
    /// sanity checks.
    a_nnz: usize,
    offdiag_pivots: usize,
    /// Numeric scratch for [`SparseLu::refactor`], kept allocated.
    work: Vec<T>,
}

impl<T: Scalar> SparseLu<T> {
    /// Factors `a` using a fresh [`min_degree_order`].
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::Singular`] if a column has no usable pivot;
    ///   `pivot` is that column's original index in `a`.
    pub fn factor(a: &CscMatrix<T>) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.nrows(), a.ncols()),
            });
        }
        let order = min_degree_order(a);
        Self::factor_with_order(a, &order)
    }

    /// Factors `a` eliminating columns in the given `order` (a
    /// permutation of `0..n`).
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::InvalidArgument`] if `order` is not a
    ///   permutation of the column indices.
    /// * [`NumericError::Singular`] if a column has no usable pivot;
    ///   `pivot` is that column's original index in `a`.
    pub fn factor_with_order(a: &CscMatrix<T>, order: &[usize]) -> Result<Self> {
        let n = a.ncols();
        if a.nrows() != n {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.nrows(), n),
            });
        }
        let mut hit = vec![false; n];
        if order.len() != n
            || !order
                .iter()
                .all(|&j| j < n && !std::mem::replace(&mut hit[j], true))
        {
            return Err(NumericError::InvalidArgument {
                what: format!("column order is not a permutation of 0..{n}"),
            });
        }
        let _span = obs::span("sparse.factor");

        let mut lu = SparseLu {
            n,
            q: order.to_vec(),
            pinv: vec![UNSET; n],
            p: vec![0; n],
            l_colptr: Vec::with_capacity(n + 1),
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_colptr: Vec::with_capacity(n + 1),
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::with_capacity(n),
            a_nnz: a.nnz(),
            offdiag_pivots: 0,
            work: vec![T::ZERO; n],
        };
        lu.l_colptr.push(0);
        lu.u_colptr.push(0);

        // Symbolic scratch: `visited[i] == k` means original row `i` is in
        // column k's pattern. `stack` drives an iterative DFS (chains in
        // MNA matrices would overflow a recursive one).
        let mut x = vec![T::ZERO; n];
        let mut visited = vec![UNSET; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut reach: Vec<usize> = Vec::new();
        let mut upper: Vec<usize> = Vec::new();
        let mut lower: Vec<usize> = Vec::new();
        let mut flops: u64 = 0;

        for k in 0..n {
            let j = lu.q[k];

            // --- Symbolic: reachable set of A(:, j) over the L DAG. ---
            reach.clear();
            for &i in a.col_rows(j) {
                if visited[i] == k {
                    continue;
                }
                visited[i] = k;
                reach.push(i);
                stack.push((i, 0));
                while let Some(top) = stack.last_mut() {
                    let (node, child_idx) = *top;
                    let t = lu.pinv[node];
                    let kids: &[usize] = if t == UNSET {
                        &[]
                    } else {
                        &lu.l_rows[lu.l_colptr[t]..lu.l_colptr[t + 1]]
                    };
                    if child_idx < kids.len() {
                        top.1 += 1;
                        let child = kids[child_idx];
                        if visited[child] != k {
                            visited[child] = k;
                            reach.push(child);
                            stack.push((child, 0));
                        }
                    } else {
                        stack.pop();
                    }
                }
            }

            // --- Numeric: scatter, eliminate in ascending pivot order. ---
            for &r in &reach {
                x[r] = T::ZERO;
            }
            for (&r, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                x[r] = v;
            }
            upper.clear();
            lower.clear();
            for &r in &reach {
                if lu.pinv[r] == UNSET {
                    lower.push(r);
                } else {
                    upper.push(lu.pinv[r]);
                }
            }
            // Ascending pivot positions form a topological order of the
            // update dependencies (L is strictly below-diagonal).
            upper.sort_unstable();
            for &t in &upper {
                let ut = x[lu.p[t]];
                let (lo, hi) = (lu.l_colptr[t], lu.l_colptr[t + 1]);
                for idx in lo..hi {
                    x[lu.l_rows[idx]] -= lu.l_vals[idx] * ut;
                }
                flops += 2 * (hi - lo) as u64;
                lu.u_rows.push(t);
                lu.u_vals.push(ut);
            }

            // --- Pivot: prefer the MNA diagonal within threshold. ---
            let mut piv_row = UNSET;
            let mut piv_mag = 0.0_f64;
            for &r in &lower {
                let m = x[r].modulus();
                if m > piv_mag {
                    piv_mag = m;
                    piv_row = r;
                }
            }
            if piv_mag == 0.0 || !piv_mag.is_finite() {
                // Report the original column, not the factored position,
                // so callers can name the unknown that lost its pivot.
                return Err(NumericError::Singular { pivot: j });
            }
            if visited[j] == k && lu.pinv[j] == UNSET {
                let dm = x[j].modulus();
                if dm >= PIVOT_THRESHOLD * piv_mag {
                    piv_row = j;
                }
            }
            if piv_row != j {
                lu.offdiag_pivots += 1;
            }
            lu.pinv[piv_row] = k;
            lu.p[k] = piv_row;
            let piv = x[piv_row];
            lu.u_diag.push(piv);
            for &r in &lower {
                if r != piv_row {
                    lu.l_rows.push(r);
                    lu.l_vals.push(x[r] / piv);
                }
            }
            flops += lower.len() as u64;
            lu.l_colptr.push(lu.l_rows.len());
            lu.u_colptr.push(lu.u_rows.len());
            // Fill per eliminated column (L + U + pivot entries); only in
            // the symbolic+numeric path — refactor_into reuses the pattern
            // and stays allocation-free for the adaptive hot loop.
            obs::series_push(
                "sparse.lu.colfill",
                k as f64,
                (upper.len() + lower.len()) as f64,
            );
        }

        obs::counter_add("sparse.lu.flops", flops);
        if lu.offdiag_pivots > 0 {
            obs::counter_add("sparse.lu.offdiag_pivots", lu.offdiag_pivots as u64);
        }
        if lu.a_nnz > 0 {
            obs::observe("sparse.lu.fill", lu.fill_ratio());
        }
        Ok(lu)
    }

    /// Recomputes the numeric factors for `a`, which must have the exact
    /// pattern this decomposition was built from — only the values may
    /// differ. Runs in O(flops of the existing pattern), skipping
    /// ordering and symbolic analysis. If a reused pivot has degraded
    /// below [`REFACTOR_PIVOT_TOL`] of its column, transparently re-runs
    /// a fully pivoted [`SparseLu::factor_with_order`] with the same
    /// column order; returns `true` in that case.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a`'s shape or nonzero
    ///   count differs from the factored matrix.
    /// * [`NumericError::Singular`] if the re-pivoted fallback breaks
    ///   down; `pivot` is the failing column's original index in `a`.
    pub fn refactor(&mut self, a: &CscMatrix<T>) -> Result<bool> {
        if a.nrows() != self.n || a.ncols() != self.n || a.nnz() != self.a_nnz {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{0}x{0} matrix with {1} nonzeros", self.n, self.a_nnz),
                found: format!("{}x{} with {}", a.nrows(), a.ncols(), a.nnz()),
            });
        }
        let _span = obs::span("sparse.refactor");
        if self.refactor_values(a) {
            return Ok(false);
        }
        // A pivot degraded under the new values: fall back to a full
        // factorization, keeping the fill-reducing column order but
        // re-running threshold pivoting from scratch.
        obs::counter_add("sparse.lu.repivot", 1);
        let order = std::mem::take(&mut self.q);
        *self = SparseLu::factor_with_order(a, &order)?;
        Ok(true)
    }

    /// Numeric-only sweep over the stored pattern. Returns `false` as
    /// soon as a pivot fails the degradation test.
    fn refactor_values(&mut self, a: &CscMatrix<T>) -> bool {
        let SparseLu {
            n,
            q,
            p,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            u_diag,
            work,
            ..
        } = self;
        let n = *n;
        let mut flops: u64 = 0;
        for k in 0..n {
            let j = q[k];
            // Zero the column's pattern in scratch, then scatter A. The
            // pattern of A(:, j) is a subset of the factor pattern.
            for idx in u_colptr[k]..u_colptr[k + 1] {
                work[p[u_rows[idx]]] = T::ZERO;
            }
            work[p[k]] = T::ZERO;
            for idx in l_colptr[k]..l_colptr[k + 1] {
                work[l_rows[idx]] = T::ZERO;
            }
            for (&r, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                work[r] = v;
            }
            for idx in u_colptr[k]..u_colptr[k + 1] {
                let t = u_rows[idx];
                let ut = work[p[t]];
                u_vals[idx] = ut;
                let (lo, hi) = (l_colptr[t], l_colptr[t + 1]);
                for ll in lo..hi {
                    work[l_rows[ll]] -= l_vals[ll] * ut;
                }
                flops += 2 * (hi - lo) as u64;
            }
            let piv = work[p[k]];
            let mut colmax = piv.modulus();
            for idx in l_colptr[k]..l_colptr[k + 1] {
                colmax = colmax.max(work[l_rows[idx]].modulus());
            }
            let pm = piv.modulus();
            if !pm.is_finite() || pm < REFACTOR_PIVOT_TOL * colmax || colmax == 0.0 {
                obs::counter_add("sparse.lu.flops", flops);
                return false;
            }
            u_diag[k] = piv;
            for idx in l_colptr[k]..l_colptr[k + 1] {
                l_vals[idx] = work[l_rows[idx]] / piv;
            }
            flops += (u_colptr[k + 1] - u_colptr[k] + l_colptr[k + 1] - l_colptr[k]) as u64;
        }
        obs::counter_add("sparse.lu.flops", flops);
        true
    }

    /// Solves `A·x = b` into caller-provided buffers; allocation-free.
    ///
    /// `scratch` is overwritten with intermediate values; `x` receives
    /// the solution. `b` may alias neither buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if any slice length
    /// differs from [`SparseLu::dim`].
    pub fn solve_into(&self, b: &[T], scratch: &mut [T], x: &mut [T]) -> Result<()> {
        let n = self.n;
        if b.len() != n || scratch.len() != n || x.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                found: format!("b: {}, scratch: {}, x: {}", b.len(), scratch.len(), x.len()),
            });
        }
        // scratch = P·b (pivot-position space).
        for (i, &bi) in b.iter().enumerate() {
            scratch[self.pinv[i]] = bi;
        }
        // Forward solve L·y = P·b; unit diagonal implicit, columns scatter.
        for k in 0..n {
            let yk = scratch[k];
            if yk != T::ZERO {
                for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                    scratch[self.pinv[self.l_rows[idx]]] -= self.l_vals[idx] * yk;
                }
            }
        }
        // Backward solve U·z = y, column-oriented.
        for k in (0..n).rev() {
            let zk = scratch[k] / self.u_diag[k];
            scratch[k] = zk;
            if zk != T::ZERO {
                for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                    scratch[self.u_rows[idx]] -= self.u_vals[idx] * zk;
                }
            }
        }
        // Un-permute columns: x[q[k]] = z[k].
        for (k, &col) in self.q.iter().enumerate() {
            x[col] = scratch[k];
        }
        Ok(())
    }

    /// Solves `Aᵀ·x = b` into caller-provided buffers; allocation-free.
    ///
    /// With `P·A·Q = L·U` the transposed system factors as
    /// `Aᵀ = Q·Uᵀ·Lᵀ·P`, so the solve chain is: permute `b` by `Q`,
    /// forward-substitute through `Uᵀ` (lower triangular in pivot
    /// space), backward-substitute through `Lᵀ` (implicit unit
    /// diagonal), then scatter through `P`. Used by the one-norm
    /// condition estimator ([`crate::condest`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if any slice length
    /// differs from [`SparseLu::dim`].
    pub fn solve_transposed_into(&self, b: &[T], scratch: &mut [T], x: &mut [T]) -> Result<()> {
        let n = self.n;
        if b.len() != n || scratch.len() != n || x.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                found: format!("b: {}, scratch: {}, x: {}", b.len(), scratch.len(), x.len()),
            });
        }
        // scratch = Qᵀ·b (factored-column space).
        for (k, &col) in self.q.iter().enumerate() {
            scratch[k] = b[col];
        }
        // Forward solve Uᵀ·v = u. Row k of Uᵀ is column k of U: entries
        // at pivot positions `u_rows` (all < k) plus the diagonal.
        for k in 0..n {
            let mut acc = scratch[k];
            for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                acc -= self.u_vals[idx] * scratch[self.u_rows[idx]];
            }
            scratch[k] = acc / self.u_diag[k];
        }
        // Backward solve Lᵀ·w = v. Row k of Lᵀ is column k of L: entries
        // at original rows `l_rows`, i.e. pivot positions pinv[r] > k.
        for k in (0..n).rev() {
            let mut acc = scratch[k];
            for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                acc -= self.l_vals[idx] * scratch[self.pinv[self.l_rows[idx]]];
            }
            scratch[k] = acc;
        }
        // x = Pᵀ·w: pivot position k is original row p[k].
        for (k, &row) in self.p.iter().enumerate() {
            x[row] = scratch[k];
        }
        Ok(())
    }

    /// Convenience allocating wrapper around [`SparseLu::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from [`SparseLu::dim`].
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let mut scratch = vec![T::ZERO; self.n];
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut scratch, &mut x)?;
        Ok(x)
    }

    /// Dimension of the factored system.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros in `L` and `U`, including the `n` diagonal pivots.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// `nnz(L + U) / nnz(A)` — 1.0 means no fill at all.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.nnz() as f64 / self.a_nnz as f64
    }

    /// How many columns abandoned their diagonal pivot for stability.
    #[must_use]
    pub fn offdiag_pivots(&self) -> usize {
        self.offdiag_pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuDecomposition;
    use crate::sparse::TripletBuilder;
    use crate::{Complex, Matrix, SplitMix64, UniformRng};

    /// Random sparse diagonally-loaded test system plus its dense mirror.
    fn random_system(n: usize, seed: u64) -> (CscMatrix<f64>, Matrix) {
        let mut rng = SplitMix64::new(seed);
        let mut tb = TripletBuilder::new(n, n);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let d = 4.0 + rng.next_f64();
            tb.add(i, i, d);
            dense[(i, i)] += d;
            for _ in 0..3 {
                let j = (rng.next_u64() % n as u64) as usize;
                let v = rng.next_f64() - 0.5;
                tb.add(i, j, v);
                dense[(i, j)] += v;
            }
        }
        (tb.build(), dense)
    }

    #[test]
    fn sparse_solve_matches_dense() {
        let (a, dense) = random_system(40, 7);
        let lu = SparseLu::factor(&a).unwrap();
        let dlu = LuDecomposition::new(&dense).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = dlu.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn residual_is_small_on_tridiagonal_chain() {
        // Long chain exercises the iterative DFS (a recursive reach
        // would hit n stack frames here).
        let n = 5000;
        let mut tb = TripletBuilder::new(n, n);
        for i in 0..n {
            tb.add(i, i, 2.0);
            if i + 1 < n {
                tb.add(i, i + 1, -1.0);
                tb.add(i + 1, i, -1.0);
            }
        }
        let a = tb.build();
        let lu = SparseLu::factor(&a).unwrap();
        // A chain has a perfect elimination order: zero fill.
        assert!(lu.fill_ratio() <= 1.0 + 1e-12);
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn complex_factorization_solves() {
        let n = 12;
        let mut tb = TripletBuilder::new(n, n);
        for i in 0..n {
            tb.add(i, i, Complex::new(3.0, 1.0 + i as f64 * 0.1));
            if i + 1 < n {
                tb.add(i, i + 1, Complex::new(-1.0, 0.2));
                tb.add(i + 1, i, Complex::new(-1.0, -0.3));
            }
        }
        let a = tb.build();
        let lu = SparseLu::factor(&a).unwrap();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(1.0, i as f64)).collect();
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((*ri - *bi).abs() < 1e-10);
        }
    }

    #[test]
    fn refactor_reproduces_fresh_factorization() {
        let (a, _) = random_system(30, 11);
        let mut lu = SparseLu::factor(&a).unwrap();
        // Scale every value; the pattern is untouched.
        let mut scaled = a.clone();
        for v in scaled.values_mut() {
            *v *= 1.7;
        }
        let repivoted = lu.refactor(&scaled).unwrap();
        assert!(!repivoted, "benign rescale must not trigger re-pivoting");
        let fresh = SparseLu::factor(&scaled).unwrap();
        let b = vec![1.0; 30];
        let xr = lu.solve(&b).unwrap();
        let xf = fresh.solve(&b).unwrap();
        for (r, f) in xr.iter().zip(&xf) {
            assert!((r - f).abs() < 1e-12);
        }
    }

    #[test]
    fn degraded_pivot_triggers_repivot() {
        let mut tb = TripletBuilder::new(2, 2);
        tb.add(0, 0, 1.0);
        tb.add(0, 1, 2.0);
        tb.add(1, 0, 3.0);
        tb.add(1, 1, 4.0);
        let (mut a, map) = tb.build_with_map();
        let mut lu = SparseLu::factor_with_order(&a, &[0, 1]).unwrap();
        assert_eq!(lu.offdiag_pivots(), 0);
        // Collapse the (0, 0) pivot; refactor must notice and re-pivot.
        a.zero_values();
        for (k, v) in [1e-9, 2.0, 3.0, 4.0].into_iter().enumerate() {
            a.values_mut()[map[k]] += v;
        }
        let repivoted = lu.refactor(&a).unwrap();
        assert!(repivoted);
        // The swap cascades: column 1 must then also take a non-diagonal
        // row, so at least one (here both) pivots leave the diagonal.
        assert!(lu.offdiag_pivots() >= 1);
        let x = lu.solve(&[1.0, 0.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12 && r[1].abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reports_pivot() {
        let mut tb = TripletBuilder::new(3, 3);
        tb.add(0, 0, 1.0);
        tb.add(1, 1, 1.0);
        // Column 2 is structurally empty.
        let a = tb.build();
        assert!(matches!(
            SparseLu::factor(&a),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn singular_pivot_names_the_original_column() {
        // Column 0 is eliminated last (factored position 2); once
        // columns 1 and 2 have taken rows 1 and 2, only row 0 is left to
        // pivot on.
        let mut tb = TripletBuilder::new(3, 3);
        tb.add(0, 1, 1.0);
        tb.add(1, 0, 1.0);
        tb.add(1, 1, 2.0);
        tb.add(2, 2, 1.0);
        tb.add(2, 0, 1.0);
        let (mut a, map) = tb.build_with_map();
        let mut lu = SparseLu::factor_with_order(&a, &[1, 2, 0]).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!(r
            .iter()
            .zip([1.0, 2.0, 3.0])
            .all(|(ri, bi)| (ri - bi).abs() < 1e-12));
        // Zeroing (0, 1) empties row 0, so column 0 loses its pivot: the
        // error must name column 0, not factored position 2.
        a.zero_values();
        for (k, v) in [0.0, 1.0, 2.0, 1.0, 1.0].into_iter().enumerate() {
            a.values_mut()[map[k]] += v;
        }
        assert_eq!(
            lu.refactor(&a).unwrap_err(),
            NumericError::Singular { pivot: 0 },
            "re-pivot fallback"
        );
        assert_eq!(
            SparseLu::factor_with_order(&a, &[1, 2, 0]).unwrap_err(),
            NumericError::Singular { pivot: 0 },
            "fresh factorization"
        );
    }

    #[test]
    fn dimension_checks() {
        let mut tb = TripletBuilder::new(2, 2);
        tb.add(0, 0, 1.0);
        tb.add(1, 1, 1.0);
        let a = tb.build();
        assert!(matches!(
            SparseLu::factor_with_order(&a, &[0, 0]),
            Err(NumericError::InvalidArgument { .. })
        ));
        let lu = SparseLu::factor(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let mut short = vec![0.0; 1];
        let mut x = vec![0.0; 2];
        assert!(matches!(
            lu.solve_into(&[1.0, 1.0], &mut short, &mut x),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn offdiagonal_pivot_fallback_engages() {
        // Zero diagonal forces the partial-pivoting fallback.
        let mut tb = TripletBuilder::new(2, 2);
        tb.add(0, 0, 0.0);
        tb.add(0, 1, 1.0);
        tb.add(1, 0, 1.0);
        tb.add(1, 1, 0.0);
        let a = tb.build();
        let lu = SparseLu::factor_with_order(&a, &[0, 1]).unwrap();
        assert!(lu.offdiag_pivots() > 0);
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }
}
