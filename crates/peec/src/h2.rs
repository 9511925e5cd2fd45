//! H² nested-basis far-field compression for the fast PEEC operator.
//!
//! A flat H-matrix stores every admissible cluster pair as its own ACA
//! `U·Vᵀ` factor — `O(n log n)` far-field memory, because a filament near
//! the middle of the mesh appears in `O(log n)` far blocks and each block
//! carries its own row basis. The H² representation in [`crate::fastop`]
//! removes that redundancy with *nested total cluster bases*:
//!
//! * every cluster `c` that takes part in (or inherits) an admissible
//!   interaction gets one basis `U_c` that covers its **entire** far field
//!   `F(c) = partners(c) ∪ F(parent)`,
//! * leaf bases are stored explicitly; an interior cluster's basis is
//!   expressed through its children's bases via small **transfer matrices**
//!   `E₁`, `E₂` (the translation operators), so tall bases are never
//!   materialized,
//! * an admissible pair `(a, b)` stores only the tiny **coupling matrix**
//!   `S_ab` between the two bases instead of an `|a| + |b|`-sized factor.
//!
//! The bases are built algebraically by a *skeleton* (interpolative)
//! decomposition: pivoted modified Gram–Schmidt on the sampled far-field
//! interaction rows selects real filament rows `J_c` (the skeleton) and an
//! interpolation `T_c` with `K(c, F) ≈ T_c·K(J_c, F)`, `T_c[J_c,:] = I`.
//! Nesting is then free — an interior cluster interpolates from the union
//! of its children's skeletons — and the coupling matrix is just the kernel
//! evaluated between skeletons: `S_ab = K(J_a, J_b)`.
//!
//! Admissibility here is stricter than the ACA blocks': a pair must also
//! satisfy `gap > 4·max(s_a, s_b)` (the per-cluster maximum cross-section
//! dimension), which guarantees **every** filament pair in the block takes
//! the far GMD branch of [`crate::gmd::cross_section_is_far`]. The kernel
//! over such a block is exactly the aligned-filament formula at the center
//! distance — a smooth, cheap function the sampling can evaluate millions
//! of times.
//! Admissible pairs that fail the all-far test get an ACA block in
//! [`crate::fastop`] instead.
//!
//! Observability: every accepted basis pushes its rank to the `h2.rank`
//! series channel (step = cluster level) and the `h2.basis.rank` histogram
//! (its p99 is gated in CI via `report_diff`).

use crate::fastop::{ClusterTree, ACA_TOL, H2_SAMPLE_CAP, MAX_RANK};
use crate::partial::mutual_filaments_aligned_m;
use rlcx_geom::units::um_to_m;
use rlcx_numeric::pool::SendPtr;
use rlcx_numeric::{obs, par_for_threads, par_map, Complex};

/// One cluster basis: the skeleton filament ids plus either an explicit
/// leaf interpolation or the pair of child transfer matrices.
struct Basis {
    rank: usize,
    /// Global filament indices of the skeleton rows.
    skel: Vec<usize>,
    kind: BasisKind,
}

enum BasisKind {
    /// `u` is `|c| × rank` row-major: cluster-local row → basis column.
    Leaf { u: Vec<f64> },
    /// Transfer matrices, `rank(child) × rank` row-major each.
    Interior { e1: Vec<f64>, e2: Vec<f64> },
}

/// Coupling matrix of one admissible pair: `s` is `rank_a × rank_b`
/// row-major, `s[i][j] = K(skel_a[i], skel_b[j])`. Applied together with
/// its transpose (pairs are generated in one orientation only).
struct Coupling {
    a: usize,
    b: usize,
    s: Vec<f64>,
}

/// The assembled H² far field: per-node bases plus coupling matrices.
pub(crate) struct H2Field {
    bases: Vec<Option<Basis>>,
    couplings: Vec<Coupling>,
    /// Basis-bearing node ids grouped by tree depth (`levels[l]` holds the
    /// level-`l` nodes in ascending id order). The upward/downward passes
    /// run one level at a time: within a level no node depends on another,
    /// so each level is a deterministic parallel map.
    levels: Vec<Vec<usize>>,
    /// Per-node incident couplings `(index, transposed)`, in global
    /// coupling order. `transposed` means the node is the `b` side and
    /// receives `Sᵀ` contributions.
    incident: Vec<Vec<(usize, bool)>>,
    /// Every basis-bearing node, level by level (`levels` flattened).
    nodes: Vec<usize>,
    /// Start of each node's slice in the per-apply coefficient buffers.
    offsets: Vec<usize>,
    /// Total coefficient count: the sum of all basis ranks.
    coeffs: usize,
    /// Largest basis rank over all clusters.
    pub(crate) max_rank: usize,
    /// Total `f64`s stored (bases + transfers + couplings).
    pub(crate) mem_f64: usize,
}

impl H2Field {
    /// Number of admissible pairs stored as couplings.
    pub(crate) fn coupling_count(&self) -> usize {
        self.couplings.len()
    }

    /// `w += Lp_far·x` for the H²-compressed part of the far field:
    /// upward pass (restrict through the nested bases), coupling multiply
    /// (both orientations), downward pass (prolongate back to filaments).
    ///
    /// All three passes are parallel yet bit-identical for every thread
    /// count: the up/down sweeps shard by node within a tree level (a node
    /// only reads one level away), and the coupling multiply is gathered
    /// per receiving node over its fixed-order incident list, so every
    /// coefficient sees the same additions in the same order as a serial
    /// sweep over the couplings. Every node owns one slice of the
    /// coefficient buffers in `scratch`, which are sized on first use and
    /// reused, so a warm apply does not allocate.
    pub(crate) fn apply(
        &self,
        tree: &ClusterTree,
        x: &[Complex],
        w: &mut [Complex],
        scratch: &mut H2Scratch,
        threads: usize,
    ) {
        let H2Scratch { up, down } = scratch;
        up.clear();
        up.resize(self.coeffs, Complex::ZERO);
        down.clear();
        down.resize(self.coeffs, Complex::ZERO);
        let basis = |c: usize| self.bases[c].as_ref().expect("level node basis");
        let rank_of = |c: usize| self.bases[c].as_ref().map_or(0, |b| b.rank);
        // Upward: children before parents — deepest level first. A level's
        // nodes write only their own coefficients and read their
        // children's (one level deeper, already final).
        let up_ptr = SendPtr::new(up.as_mut_ptr());
        for nodes in self.levels.iter().rev() {
            par_for_threads(threads, nodes.len(), |ni| {
                let c = nodes[ni];
                let b = basis(c);
                let rank = b.rank;
                // SAFETY: node `c` exclusively owns `up[offsets[c]..][..rank]`
                // within this level; its children's slices are disjoint
                // from it and no task of this level writes them.
                let xh = unsafe { coeffs_mut(&up_ptr, self.offsets[c], rank) };
                match &b.kind {
                    BasisKind::Leaf { u } => {
                        for (r, &i) in tree.indices(c).iter().enumerate() {
                            let xi = x[i];
                            for (k, xk) in xh.iter_mut().enumerate() {
                                *xk += xi * u[r * rank + k];
                            }
                        }
                    }
                    BasisKind::Interior { e1, e2 } => {
                        let (c1, c2) = tree.children(c).expect("interior basis on leaf");
                        for (child, e) in [(c1, e1), (c2, e2)] {
                            // SAFETY: as above — read-only, final, disjoint.
                            let uc =
                                unsafe { coeffs_mut(&up_ptr, self.offsets[child], rank_of(child)) };
                            for (r, &xr) in uc.iter().enumerate() {
                                for (k, xk) in xh.iter_mut().enumerate() {
                                    *xk += xr * e[r * rank + k];
                                }
                            }
                        }
                    }
                }
            });
        }
        // Couplings: yh_a += S·xh_b and yh_b += Sᵀ·xh_a, gathered on the
        // receiving side — each node folds its incident list into its own
        // coefficient slice, so concurrent tasks never share an output.
        let up: &[Complex] = up;
        let coeffs = |c: usize| &up[self.offsets[c]..self.offsets[c] + rank_of(c)];
        let down_ptr = SendPtr::new(down.as_mut_ptr());
        par_for_threads(threads, self.nodes.len(), |ni| {
            let c = self.nodes[ni];
            let rank = basis(c).rank;
            // SAFETY: node `c` exclusively owns its `down` slice.
            let yh = unsafe { coeffs_mut(&down_ptr, self.offsets[c], rank) };
            for &(idx, transposed) in &self.incident[c] {
                let cp = &self.couplings[idx];
                if !transposed {
                    let rb = rank_of(cp.b);
                    for (i, yi) in yh.iter_mut().enumerate() {
                        let mut acc = Complex::ZERO;
                        for (&ub, &sij) in coeffs(cp.b).iter().zip(&cp.s[i * rb..(i + 1) * rb]) {
                            acc += ub * sij;
                        }
                        *yi += acc;
                    }
                } else {
                    for (i, &xa) in coeffs(cp.a).iter().enumerate() {
                        for (j, yj) in yh.iter_mut().enumerate() {
                            *yj += xa * cp.s[i * rank + j];
                        }
                    }
                }
            }
        });
        // Downward: parents before children — top level first. Each node
        // prolongates its (now final) coefficients into its children's
        // slices or its leaf filaments; both targets belong to that node
        // alone, so each receives exactly one addition.
        let w_ptr = SendPtr::new(w.as_mut_ptr());
        for nodes in &self.levels {
            par_for_threads(threads, nodes.len(), |ni| {
                let c = nodes[ni];
                let b = basis(c);
                let rank = b.rank;
                // SAFETY: read-only view of this node's final slice; the
                // level's tasks write only slices one level deeper.
                let yh = unsafe { coeffs_mut(&down_ptr, self.offsets[c], rank) };
                match &b.kind {
                    BasisKind::Leaf { u } => {
                        for (r, &i) in tree.indices(c).iter().enumerate() {
                            let mut acc = Complex::ZERO;
                            for (k, &yk) in yh.iter().enumerate() {
                                acc += yk * u[r * rank + k];
                            }
                            // SAFETY: leaf clusters partition the
                            // filaments, so `w[i]` is this task's alone.
                            unsafe { *w_ptr.get().add(i) += acc };
                        }
                    }
                    BasisKind::Interior { e1, e2 } => {
                        let (c1, c2) = tree.children(c).expect("interior basis on leaf");
                        for (child, e) in [(c1, e1), (c2, e2)] {
                            // SAFETY: only the parent `c` writes a child's
                            // slice, and it is disjoint from `yh`.
                            let dc = unsafe {
                                coeffs_mut(&down_ptr, self.offsets[child], rank_of(child))
                            };
                            for (r, d) in dc.iter_mut().enumerate() {
                                let mut acc = Complex::ZERO;
                                for (k, &yk) in yh.iter().enumerate() {
                                    acc += yk * e[r * rank + k];
                                }
                                *d += acc;
                            }
                        }
                    }
                }
            });
        }
    }
}

/// Reusable coefficient buffers of [`H2Field::apply`]: the upward and
/// downward per-node coefficients, one slice per basis-bearing node.
#[derive(Default)]
pub(crate) struct H2Scratch {
    up: Vec<Complex>,
    down: Vec<Complex>,
}

/// The `len` coefficients at `off` of the buffer behind `ptr`.
///
/// # Safety
///
/// The range must lie inside the buffer, and no other live reference may
/// write it while the returned slice is used.
#[allow(clippy::mut_from_ref)]
unsafe fn coeffs_mut(ptr: &SendPtr<Complex>, off: usize, len: usize) -> &mut [Complex] {
    unsafe { std::slice::from_raw_parts_mut(ptr.get().add(off), len) }
}

/// Builds the H² far field for the admissible `pairs` of `tree`.
///
/// `centers` are the cross-section centers `(t, z)` of every filament and
/// `length_um` the shared axial span; the far-branch kernel is the
/// aligned-filament mutual at the center distance, which the H²
/// admissibility rule guarantees is the *exact* kernel over every stored
/// pair.
pub(crate) fn build(
    tree: &ClusterTree,
    pairs: &[(usize, usize)],
    centers: &[(f64, f64)],
    length_um: f64,
) -> H2Field {
    let l_m = um_to_m(length_um);
    let g = |i: usize, j: usize| {
        let (ti, zi) = centers[i];
        let (tj, zj) = centers[j];
        mutual_filaments_aligned_m(l_m, um_to_m((ti - tj).hypot(zi - zj)))
    };
    let n_nodes = tree.node_count();

    // Partner lists (both orientations) and parent links.
    let mut partners: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for &(a, b) in pairs {
        partners[a].push(b);
        partners[b].push(a);
    }
    let mut parent = vec![usize::MAX; n_nodes];
    for c in 0..n_nodes {
        if let Some((l, r)) = tree.children(c) {
            parent[l] = c;
            parent[r] = c;
        }
    }

    // Total far-field sample sets, top-down: own partners plus everything
    // the ancestors interact with, deterministically subsampled to the
    // column budget. A non-empty set marks the cluster as basis-bearing.
    let mut farfield: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for c in 0..n_nodes {
        let mut f: Vec<usize> = Vec::new();
        for &p in &partners[c] {
            extend_subsampled(&mut f, tree.indices(p), 64);
        }
        if parent[c] != usize::MAX && !farfield[parent[c]].is_empty() {
            let inherited = farfield[parent[c]].clone();
            f.extend_from_slice(&inherited);
        }
        subsample_in_place(&mut f, H2_SAMPLE_CAP);
        farfield[c] = f;
    }

    // Basis-bearing nodes grouped by tree depth. A cluster's basis depends
    // only on its children's skeletons (one level deeper), so the bases of
    // one level are mutually independent: each level builds as a parallel
    // map with a serial scatter, deepest level first. Every node's basis is
    // a pure function of its inputs, which keeps the build bit-identical
    // for every thread count.
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for (c, far) in farfield.iter().enumerate() {
        if far.is_empty() {
            continue;
        }
        let l = tree.level(c);
        if levels.len() <= l {
            levels.resize(l + 1, Vec::new());
        }
        levels[l].push(c);
    }
    let mut bases: Vec<Option<Basis>> = (0..n_nodes).map(|_| None).collect();
    for nodes in levels.iter().rev() {
        let built: Vec<Basis> = par_map(nodes.len(), |ni| {
            let c = nodes[ni];
            let (cand, child_ranks): (Vec<usize>, Option<(usize, usize)>) = match tree.children(c) {
                None => (tree.indices(c).to_vec(), None),
                Some((c1, c2)) => {
                    let b1 = bases[c1].as_ref().expect("child basis (F(c1) ⊇ F(c))");
                    let b2 = bases[c2].as_ref().expect("child basis (F(c2) ⊇ F(c))");
                    let mut cand = b1.skel.clone();
                    cand.extend_from_slice(&b2.skel);
                    (cand, Some((b1.rank, b2.rank)))
                }
            };
            let m = cand.len();
            let s = farfield[c].len();
            let mut a = vec![0.0f64; m * s];
            for (r, &i) in cand.iter().enumerate() {
                for (q, &j) in farfield[c].iter().enumerate() {
                    a[r * s + q] = g(i, j);
                }
            }
            let (piv, interp) = row_id(&a, m, s, ACA_TOL, MAX_RANK);
            let rank = piv.len();
            debug_assert!(rank > 0, "positive kernel must yield a nonzero basis");
            let skel: Vec<usize> = piv.iter().map(|&r| cand[r]).collect();
            let kind = match child_ranks {
                None => BasisKind::Leaf { u: interp },
                Some((r1, _)) => {
                    let e1 = interp[..r1 * rank].to_vec();
                    let e2 = interp[r1 * rank..].to_vec();
                    BasisKind::Interior { e1, e2 }
                }
            };
            Basis { rank, skel, kind }
        });
        for (&c, b) in nodes.iter().zip(built) {
            bases[c] = Some(b);
        }
    }
    // Rank observability and memory accounting, in the order the serial
    // builder used (descending node id: children before parents) so the
    // series channel and histograms match it push for push.
    let mut max_rank = 0usize;
    let mut mem_f64 = 0usize;
    for c in (0..n_nodes).rev() {
        let Some(b) = &bases[c] else {
            continue;
        };
        obs::observe("h2.basis.rank", b.rank as f64);
        obs::series_push("h2.rank", tree.level(c) as f64, b.rank as f64);
        max_rank = max_rank.max(b.rank);
        mem_f64 += match &b.kind {
            BasisKind::Leaf { u } => u.len(),
            BasisKind::Interior { e1, e2 } => e1.len() + e2.len(),
        };
    }

    // Couplings: the kernel between skeletons, one independent pair each.
    let couplings: Vec<Coupling> = par_map(pairs.len(), |pi| {
        let (ca, cb) = pairs[pi];
        let sa = &bases[ca].as_ref().expect("basis a").skel;
        let sb = &bases[cb].as_ref().expect("basis b").skel;
        let mut s = vec![0.0f64; sa.len() * sb.len()];
        for (i, &fi) in sa.iter().enumerate() {
            for (j, &fj) in sb.iter().enumerate() {
                s[i * sb.len() + j] = g(fi, fj);
            }
        }
        Coupling { a: ca, b: cb, s }
    });
    let mut incident: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n_nodes];
    for (idx, cp) in couplings.iter().enumerate() {
        mem_f64 += cp.s.len();
        incident[cp.a].push((idx, false));
        incident[cp.b].push((idx, true));
    }

    let mut offsets = vec![0usize; n_nodes];
    let mut coeffs = 0usize;
    for (off, basis) in offsets.iter_mut().zip(&bases) {
        *off = coeffs;
        coeffs += basis.as_ref().map_or(0, |b| b.rank);
    }
    let nodes = levels.iter().flatten().copied().collect();
    H2Field {
        bases,
        couplings,
        levels,
        incident,
        nodes,
        offsets,
        coeffs,
        max_rank,
        mem_f64,
    }
}

/// Row interpolative decomposition by pivoted modified Gram–Schmidt on the
/// `m × s` row-major matrix `a`: returns the selected skeleton row indices
/// `J` (in pivot order) and the interpolation matrix `T` (`m × rank`,
/// row-major) with `A ≈ T·A[J,:]` and `T[J,:] = I` exactly. Stops when the
/// next pivot's residual norm falls below `tol ×` the first pivot norm, or
/// at `max_rank`.
fn row_id(a: &[f64], m: usize, s: usize, tol: f64, max_rank: usize) -> (Vec<usize>, Vec<f64>) {
    let mut resid = a.to_vec();
    let mut used = vec![false; m];
    let mut piv: Vec<usize> = Vec::new();
    // coeff[r][k] = component of row r along orthonormal direction q_k.
    let mut coeff: Vec<Vec<f64>> = vec![Vec::new(); m];
    let mut scale0 = 0.0f64;
    let cap = max_rank.min(m).max(1);
    while piv.len() < cap {
        let mut r_star = usize::MAX;
        let mut best = -1.0f64;
        for r in 0..m {
            if used[r] {
                continue;
            }
            let nrm2: f64 = resid[r * s..(r + 1) * s].iter().map(|v| v * v).sum();
            if nrm2 > best {
                best = nrm2;
                r_star = r;
            }
        }
        if r_star == usize::MAX {
            break;
        }
        let nrm = best.max(0.0).sqrt();
        if piv.is_empty() {
            if nrm == 0.0 {
                break;
            }
            scale0 = nrm;
        } else if nrm <= tol * scale0 {
            break;
        }
        let q: Vec<f64> = resid[r_star * s..(r_star + 1) * s]
            .iter()
            .map(|v| v / nrm)
            .collect();
        for r in 0..m {
            let row = &mut resid[r * s..(r + 1) * s];
            let c: f64 = row.iter().zip(&q).map(|(x, y)| x * y).sum();
            for (x, y) in row.iter_mut().zip(&q) {
                *x -= c * y;
            }
            coeff[r].push(c);
        }
        used[r_star] = true;
        piv.push(r_star);
    }
    let rank = piv.len();
    // Solve T·C_J = C by back substitution: C_J is lower triangular in
    // pivot order (a pivot row's residual is zero from its step onward),
    // with the pivot norms on the diagonal.
    let mut t = vec![0.0f64; m * rank];
    for r in 0..m {
        let c = &coeff[r];
        for a_idx in (0..rank).rev() {
            let mut v = c[a_idx];
            for b_idx in (a_idx + 1)..rank {
                v -= coeff[piv[b_idx]][a_idx] * t[r * rank + b_idx];
            }
            t[r * rank + a_idx] = v / coeff[piv[a_idx]][a_idx];
        }
    }
    (piv, t)
}

/// Appends a deterministic stride subsample of `src` (at most `cap`
/// elements) to `dst`.
fn extend_subsampled(dst: &mut Vec<usize>, src: &[usize], cap: usize) {
    if src.len() <= cap {
        dst.extend_from_slice(src);
    } else {
        dst.extend((0..cap).map(|k| src[k * src.len() / cap]));
    }
}

/// Caps `v` to `cap` elements by deterministic stride subsampling.
fn subsample_in_place(v: &mut Vec<usize>, cap: usize) {
    if v.len() > cap {
        let n = v.len();
        *v = (0..cap).map(|k| v[k * n / cap]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_id_reconstructs_low_rank_matrix() {
        // A rank-2 matrix: rows are combinations of two generators.
        let (m, s) = (6, 5);
        let g1: Vec<f64> = (0..s).map(|j| (j as f64 * 0.7).sin()).collect();
        let g2: Vec<f64> = (0..s).map(|j| (j as f64 * 0.3).cos()).collect();
        let mut a = vec![0.0; m * s];
        for r in 0..m {
            let (c1, c2) = (1.0 + r as f64, (r as f64 * 0.5) - 1.0);
            for j in 0..s {
                a[r * s + j] = c1 * g1[j] + c2 * g2[j];
            }
        }
        let (piv, t) = row_id(&a, m, s, 1e-12, 10);
        assert_eq!(piv.len(), 2, "rank-2 input must give a rank-2 skeleton");
        // A ≈ T·A[J,:] entrywise.
        for r in 0..m {
            for j in 0..s {
                let mut approx = 0.0;
                for (k, &p) in piv.iter().enumerate() {
                    approx += t[r * 2 + k] * a[p * s + j];
                }
                assert!(
                    (approx - a[r * s + j]).abs() < 1e-10,
                    "({r},{j}): {approx} vs {}",
                    a[r * s + j]
                );
            }
        }
        // T restricted to the skeleton rows is the identity, exactly.
        for (k, &p) in piv.iter().enumerate() {
            for k2 in 0..piv.len() {
                let expect: f64 = if k == k2 { 1.0 } else { 0.0 };
                assert_eq!(t[p * 2 + k2].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn row_id_truncates_at_tolerance() {
        // Rows with geometrically decaying magnitude: tolerance cuts the
        // tail without touching the dominant directions.
        let (m, s) = (8, 8);
        let mut a = vec![0.0; m * s];
        for r in 0..m {
            a[r * s + r] = 10.0f64.powi(-(r as i32));
        }
        let (piv, _) = row_id(&a, m, s, 1e-4, 100);
        assert!(piv.len() >= 4 && piv.len() <= 6, "rank {}", piv.len());
    }

    #[test]
    fn subsample_is_deterministic_and_capped() {
        let src: Vec<usize> = (0..100).collect();
        let mut dst = Vec::new();
        extend_subsampled(&mut dst, &src, 10);
        assert_eq!(dst.len(), 10);
        assert_eq!(dst[0], 0);
        assert!(dst.windows(2).all(|w| w[0] < w[1]));
        let mut v: Vec<usize> = (0..7).collect();
        subsample_in_place(&mut v, 16);
        assert_eq!(v.len(), 7, "under-cap vectors stay untouched");
    }
}
