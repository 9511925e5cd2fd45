//! Shared MNA structure, element stamping, and the sparse factor.
//!
//! The transient and AC engines solve the same modified-nodal-analysis
//! system; only the element admittances differ (companion conductances
//! `kC`/`kL` in the time domain, `jωC`/`jωL` in the frequency domain).
//! This module owns everything they share:
//!
//! * [`MnaLayout`] — the unknown layout: non-ground node voltages first,
//!   then one branch current per inductor / voltage source in element
//!   order. This is the single place that computes `node_count() - 1`;
//!   ground is pre-interned by `Netlist::new`, so the subtraction can
//!   never underflow.
//! * [`stamp_mna`] — one generic stamping pass, parameterized over the
//!   scalar type and the per-element admittance maps, emitting
//!   `(row, col, value)` contributions into whatever backing store the
//!   caller provides (the sparse triplet builder, an in-place restamp
//!   through a slot map, or a test's dense reference matrix).
//! * [`MnaFactor`] — the factored real system (`f64`) behind the
//!   transient engine and its DC operating point: the assembled
//!   [`CscMatrix`], its [`SparseLu`] factors and the slot map that lets a
//!   step-size change restamp values in place and refactor numerically.

use crate::netlist::{Element, Netlist, NodeId};
use crate::Result;
use crate::SpiceError;
use rlcx_numeric::sparse::{Scalar, SparseLu, TripletBuilder};
use rlcx_numeric::{condest, obs, CscMatrix};

/// Unknown layout of the MNA system: node voltages for every non-ground
/// node (in interning order), then one branch-current unknown per
/// inductor and voltage source (in element order).
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Non-ground node count.
    pub nv: usize,
    /// Total unknowns: `nv` plus the branch count.
    pub dim: usize,
    /// Element index → branch row, for inductors and sources.
    branch_of: Vec<Option<usize>>,
    /// Branch element indices in row order.
    pub branch_elems: Vec<usize>,
}

impl MnaLayout {
    /// Builds the layout for a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadSimParams`] if the circuit has no
    /// unknowns at all.
    pub fn new(nl: &Netlist) -> Result<Self> {
        // Ground is pre-interned by `Netlist::new`, so `node_count()` is
        // at least 1 and this subtraction cannot underflow — the one
        // shared home of that invariant.
        let nv = nl.node_count() - 1;
        let mut branch_of = vec![None; nl.elements.len()];
        let mut branch_elems = Vec::new();
        for (ei, e) in nl.elements.iter().enumerate() {
            if matches!(e, Element::Inductor { .. } | Element::VSource { .. }) {
                branch_of[ei] = Some(nv + branch_elems.len());
                branch_elems.push(ei);
            }
        }
        let dim = nv + branch_elems.len();
        if dim == 0 {
            return Err(SpiceError::BadSimParams {
                what: "empty circuit".into(),
            });
        }
        Ok(MnaLayout {
            nv,
            dim,
            branch_of,
            branch_elems,
        })
    }

    /// Unknown index of a node's voltage, or `None` for ground.
    pub fn var(n: NodeId) -> Option<usize> {
        (n.0 > 0).then(|| n.0 - 1)
    }

    /// Branch row of an inductor or voltage source element.
    ///
    /// # Panics
    ///
    /// Panics if `ei` is not a branch element — an internal invariant,
    /// not a data error.
    pub fn branch(&self, ei: usize) -> usize {
        self.branch_of[ei].expect("element carries a branch current")
    }
}

/// Stamps the full MNA matrix through `emit(row, col, value)`.
///
/// `y_cap` maps a capacitance to its admittance stamp, `z_ind` an
/// inductance to its branch-row impedance term (emitted negated), and
/// `z_mut` a mutual inductance likewise. The emission order is fixed
/// (elements in netlist order, then mutual couplings), so sparse callers
/// can replay the stamp sequence against a slot map from
/// [`TripletBuilder::build_with_map`].
pub(crate) fn stamp_mna<T: Scalar>(
    nl: &Netlist,
    layout: &MnaLayout,
    y_cap: impl Fn(f64) -> T,
    z_ind: impl Fn(f64) -> T,
    z_mut: impl Fn(f64) -> T,
    mut emit: impl FnMut(usize, usize, T),
) {
    for (ei, e) in nl.elements.iter().enumerate() {
        match e {
            Element::Resistor { p, n, ohms, .. } => {
                let g = T::from_f64(1.0 / ohms);
                stamp_admittance(&mut emit, MnaLayout::var(*p), MnaLayout::var(*n), g);
            }
            Element::Capacitor { p, n, farads, .. } => {
                stamp_admittance(
                    &mut emit,
                    MnaLayout::var(*p),
                    MnaLayout::var(*n),
                    y_cap(*farads),
                );
            }
            Element::Inductor { p, n, henries, .. } => {
                let row = layout.branch(ei);
                stamp_branch(&mut emit, MnaLayout::var(*p), MnaLayout::var(*n), row);
                emit(row, row, -z_ind(*henries));
            }
            Element::VSource { p, n, .. } => {
                let row = layout.branch(ei);
                stamp_branch(&mut emit, MnaLayout::var(*p), MnaLayout::var(*n), row);
            }
        }
    }
    for m in &nl.mutuals {
        let ra = layout.branch(nl.inductors[m.a.0]);
        let rb = layout.branch(nl.inductors[m.b.0]);
        let term = z_mut(m.m);
        emit(ra, rb, -term);
        emit(rb, ra, -term);
    }
}

/// Two-terminal admittance stamp (conductance pattern).
fn stamp_admittance<T: Scalar>(
    emit: &mut impl FnMut(usize, usize, T),
    p: Option<usize>,
    n: Option<usize>,
    y: T,
) {
    if let Some(ip) = p {
        emit(ip, ip, y);
    }
    if let Some(in_) = n {
        emit(in_, in_, y);
    }
    if let (Some(ip), Some(in_)) = (p, n) {
        emit(ip, in_, -y);
        emit(in_, ip, -y);
    }
}

/// Branch-current incidence stamp (±1 pattern) for inductors and sources.
fn stamp_branch<T: Scalar>(
    emit: &mut impl FnMut(usize, usize, T),
    p: Option<usize>,
    n: Option<usize>,
    row: usize,
) {
    if let Some(ip) = p {
        emit(ip, row, T::ONE);
        emit(row, ip, T::ONE);
    }
    if let Some(in_) = n {
        emit(in_, row, -T::ONE);
        emit(row, in_, -T::ONE);
    }
}

/// A factored real MNA system. The assembled matrix is retained
/// alongside the factors so residuals (iterative refinement) and the
/// one-norm (condition estimation) stay available after factoring, and
/// so [`MnaFactor::ensure`] can restamp it in place.
pub(crate) struct MnaFactor {
    a: CscMatrix<f64>,
    lu: SparseLu<f64>,
    /// Emission-order → value-slot map from
    /// [`TripletBuilder::build_with_map`], for in-place restamping.
    slot_map: Vec<usize>,
    /// Companion coefficient `k` the numeric factors were stamped with
    /// (`kC = k·C`, `kL = k·L`); `None` for a system built by
    /// [`MnaFactor::assemble`], which never restamps.
    key: Option<f64>,
}

impl MnaFactor {
    /// Assembles and factors the MNA matrix. `gmin`, when positive, adds
    /// a leak conductance on every node diagonal (the DC operating point
    /// uses it to pin nodes isolated by open capacitors).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMna`] (with the structural culprit
    /// or the failing unknown named) or [`SpiceError::Numeric`] if the
    /// matrix is singular.
    pub fn assemble(
        nl: &Netlist,
        layout: &MnaLayout,
        gmin: f64,
        y_cap: impl Fn(f64) -> f64,
        z_ind: impl Fn(f64) -> f64,
        z_mut: impl Fn(f64) -> f64,
    ) -> Result<Self> {
        let mut tb = TripletBuilder::new(layout.dim, layout.dim);
        if gmin > 0.0 {
            for i in 0..layout.nv {
                tb.add(i, i, gmin);
            }
        }
        stamp_mna(nl, layout, y_cap, z_ind, z_mut, |i, j, v| tb.add(i, j, v));
        let (a, slot_map) = tb.build_with_map();
        obs::gauge_set("spice.mna.nnz", a.nnz() as f64);
        let lu =
            SparseLu::factor(&a).map_err(|e| crate::diagnose::diagnose_singular(nl, layout, e))?;
        Ok(MnaFactor {
            a,
            lu,
            slot_map,
            key: None,
        })
    }

    /// Assembles and factors the transient companion system for
    /// coefficient `k`: `kC = k·C`, `kL = k·L`, `kM = k·M`.
    ///
    /// # Errors
    ///
    /// As for [`MnaFactor::assemble`].
    pub fn companion(nl: &Netlist, layout: &MnaLayout, k: f64) -> Result<Self> {
        let mut f = Self::assemble(nl, layout, 0.0, |c| k * c, |l| k * l, |m| k * m)?;
        f.key = Some(k);
        Ok(f)
    }

    /// Makes a companion factorization current for coefficient `k`: a
    /// no-op when `k` matches the cached key, otherwise an in-place
    /// restamp through the slot map plus a numeric-only refactorization
    /// that reuses the symbolic analysis (no heap allocation unless the
    /// factorization must fall back to re-pivoting).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMna`] / [`SpiceError::Numeric`] if
    /// the refactorization breaks down; the factor must not be used for
    /// solves afterwards.
    pub fn ensure(&mut self, nl: &Netlist, layout: &MnaLayout, k: f64) -> Result<()> {
        debug_assert!(self.key.is_some(), "only companion systems restamp");
        if self.key == Some(k) {
            return Ok(());
        }
        self.a.zero_values();
        let values = self.a.values_mut();
        let slot_map = &self.slot_map;
        let mut idx = 0usize;
        stamp_mna(
            nl,
            layout,
            |c| k * c,
            |l| k * l,
            |m| k * m,
            |_, _, v| {
                values[slot_map[idx]] += v;
                idx += 1;
            },
        );
        self.lu
            .refactor(&self.a)
            .map_err(|e| crate::diagnose::diagnose_singular(nl, layout, e))?;
        self.key = Some(k);
        Ok(())
    }

    /// Solves into caller buffers without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] on buffer-length mismatch.
    pub fn solve_into(&self, b: &[f64], scratch: &mut [f64], x: &mut [f64]) -> Result<()> {
        Ok(self.lu.solve_into(b, scratch, x)?)
    }

    /// `y = A·x` against the retained (unfactored) matrix values;
    /// allocation-free.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                for (&r, &v) in self.a.col_rows(j).iter().zip(self.a.col_values(j)) {
                    y[r] += v * xj;
                }
            }
        }
    }

    /// One-norm condition estimate `‖A‖₁·est(‖A⁻¹‖₁)` via Hager's
    /// algorithm — a handful of extra solves against the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] if an internal solve fails
    /// (should not happen on a valid factorization).
    pub fn cond_est(&self) -> Result<f64> {
        let n = self.lu.dim();
        let mut s1 = vec![0.0; n];
        let mut s2 = vec![0.0; n];
        let inv_est = condest::onenorm_inv_est(
            n,
            |b, x| self.lu.solve_into(b, &mut s1, x),
            |b, x| self.lu.solve_transposed_into(b, &mut s2, x),
        )?;
        let norm1 = (0..n)
            .map(|j| self.a.col_values(j).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        Ok(norm1 * inv_est)
    }

    /// Solves `A·x = b` and polishes the solution with up to `iters`
    /// rounds of iterative refinement against the retained matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] on length mismatch.
    pub fn solve_refined(&self, b: &[f64], iters: usize) -> Result<Vec<f64>> {
        let n = b.len();
        let mut s = vec![0.0; n];
        let mut x = vec![0.0; n];
        self.solve_into(b, &mut s, &mut x)?;
        let mut r = vec![0.0; n];
        let mut dx = vec![0.0; n];
        for _ in 0..iters {
            let residual = condest::refine_step(
                b,
                &mut x,
                |v, y| self.matvec_into(v, y),
                |rr, d| self.lu.solve_into(rr, &mut s, d),
                &mut r,
                &mut dx,
            )?;
            if residual == 0.0 {
                break;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;
    use crate::waveform::Waveform;
    use rlcx_numeric::Matrix;

    fn rlc_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, b, 10.0).unwrap();
        let l1 = nl.inductor("L1", b, GROUND, 1e-9).unwrap();
        let l2 = nl.inductor("L2", a, GROUND, 2e-9).unwrap();
        nl.mutual("K", l1, l2, 0.5e-9).unwrap();
        nl.capacitor("C", b, GROUND, 1e-12).unwrap();
        nl
    }

    #[test]
    fn layout_orders_nodes_then_branches() {
        let nl = rlc_netlist();
        let layout = MnaLayout::new(&nl).unwrap();
        assert_eq!(layout.nv, 2);
        assert_eq!(layout.dim, 5); // 2 nodes + V + L1 + L2
        assert_eq!(layout.branch_elems.len(), 3);
        // Branch rows follow element order: V, L1, L2.
        assert_eq!(layout.branch(0), 2);
        assert_eq!(MnaLayout::var(GROUND), None);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let nl = Netlist::new();
        assert!(matches!(
            MnaLayout::new(&nl),
            Err(SpiceError::BadSimParams { .. })
        ));
    }

    #[test]
    fn dense_and_sparse_stamps_agree() {
        let nl = rlc_netlist();
        let layout = MnaLayout::new(&nl).unwrap();
        let dim = layout.dim;
        let mut dense = Matrix::zeros(dim, dim);
        stamp_mna(
            &nl,
            &layout,
            |c| 2e12 * c,
            |l| 2e12 * l,
            |m| 2e12 * m,
            |i, j, v| dense[(i, j)] += v,
        );
        let mut tb = TripletBuilder::new(dim, dim);
        stamp_mna(
            &nl,
            &layout,
            |c| 2e12 * c,
            |l| 2e12 * l,
            |m| 2e12 * m,
            |i, j, v| tb.add(i, j, v),
        );
        let a = tb.build();
        for i in 0..dim {
            for j in 0..dim {
                assert_eq!(dense[(i, j)], a.get(i, j), "entry ({i}, {j})");
            }
        }
    }
}
