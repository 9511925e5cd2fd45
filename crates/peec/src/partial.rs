//! Closed-form partial inductances of rectangular bars.
//!
//! Partial inductance under the PEEC model [Ruehli '72] assigns every
//! conductor segment a self term and every *parallel* pair a mutual term;
//! the return path is decided later by the circuit simulation (paper
//! Section II). The two foundations the paper builds on are properties of
//! exactly these formulas:
//!
//! * **Foundation 1** — the self Lp of a trace depends only on its own
//!   length, width and thickness;
//! * **Foundation 2** — the mutual Lp of two traces depends only on the two
//!   traces (lengths, widths, thicknesses and spacing).
//!
//! Mutual terms of parallel bars are the exact Neumann filament formula at
//! the cross-section GMD, which [`crate::gmd`] evaluates in closed form
//! for near pairs; the dense (absolute-coordinate) and kernel-cache
//! (relative-coordinate) entry points share that one evaluation.
//!
//! All functions here take geometry in **microns** (consistent with
//! `rlcx-geom`) and return SI henries/ohms.

use crate::gmd::{bar_gmd, relative_gmd_with, self_gmd};
use rlcx_geom::units::{um_to_m, MU_0};
use rlcx_geom::Bar;

/// Neumann antiderivative `G(z) = z·asinh(z/d) − √(z² + d²)` used by the
/// parallel-filament mutual-inductance closed form.
#[inline]
fn neumann_g(z: f64, d: f64) -> f64 {
    if z == 0.0 {
        return -d;
    }
    z * (z / d).asinh() - (z * z + d * d).sqrt()
}

/// Mutual inductance (H) between two parallel filaments at radial distance
/// `d`, with axial spans `[a1, b1]` and `[a2, b2]` — all in **metres**.
///
/// This is the exact Neumann double integral
/// `M = (µ0/4π) ∬ dx dx' / r`, which evaluates to
/// `M = (µ0/4π)[G(b1−a2) − G(a1−a2) − G(b1−b2) + G(a1−b2)]`.
///
/// Handles arbitrary axial offsets, including non-overlapping (collinear
/// with `d → GMD`) and partially overlapping spans.
///
/// # Panics
///
/// Panics (debug) if `d` is not positive or a span is inverted.
pub fn mutual_filaments_m(a1: f64, b1: f64, a2: f64, b2: f64, d: f64) -> f64 {
    debug_assert!(d > 0.0, "filament distance must be positive");
    debug_assert!(b1 > a1 && b2 > a2, "filament spans must be forward");
    MU_0 / (4.0 * std::f64::consts::PI)
        * (neumann_g(b1 - a2, d) - neumann_g(a1 - a2, d) - neumann_g(b1 - b2, d)
            + neumann_g(a1 - b2, d))
}

/// Mutual inductance (H) of two equal, aligned parallel filaments of length
/// `l` at distance `d` (metres) — the textbook special case
/// `M = (µ0 l/2π)[asinh(l/d) − √(1+(d/l)²) + d/l]`.
pub fn mutual_filaments_aligned_m(l: f64, d: f64) -> f64 {
    mutual_filaments_m(0.0, l, 0.0, l, d)
}

/// Partial self inductance (H) of a rectangular bar — Ruehli's approximate
/// closed form `L = (µ0 l/2π)[ln(2l/(w+t)) + 1/2 + 0.2235(w+t)/l]`.
///
/// Geometry in **microns**. Accurate to ~1 % for `l ≫ w + t`, the regime of
/// on-chip traces.
///
/// # Panics
///
/// Panics (debug) on non-positive dimensions.
pub fn self_partial_ruehli(length_um: f64, width_um: f64, thickness_um: f64) -> f64 {
    debug_assert!(length_um > 0.0 && width_um > 0.0 && thickness_um > 0.0);
    let l = um_to_m(length_um);
    let wt = um_to_m(width_um + thickness_um);
    MU_0 * l / (2.0 * std::f64::consts::PI) * ((2.0 * l / wt).ln() + 0.5 + 0.2235 * wt / l)
}

/// Partial self inductance (H) of a bar via the GMD filament formula — the
/// exact Neumann integral evaluated at the cross-section's self-GMD. Agrees
/// with [`self_partial_ruehli`] to ~1 % for long bars and remains usable for
/// short stubby ones.
pub fn self_partial(bar: &Bar) -> f64 {
    let l = um_to_m(bar.length());
    let g = um_to_m(self_gmd(bar.width(), bar.thickness()));
    mutual_filaments_aligned_m(l, g)
}

/// Partial mutual inductance (H) between two bars.
///
/// * Orthogonal bars → `0` (the paper's adjacent-layer assumption).
/// * Parallel bars → Neumann filament formula at the cross-section GMD,
///   honoring arbitrary axial offsets.
/// * Bars whose cross-sections coincide transversely (collinear segments of
///   one route) use the self-GMD of the shared cross-section.
///
/// # Panics
///
/// Panics (debug) if the bars physically intersect.
pub fn mutual_partial(a: &Bar, b: &Bar) -> f64 {
    if !a.is_parallel(b) {
        return 0.0;
    }
    debug_assert!(!substantially_intersects(a, b), "bars must not intersect");
    let scale = a
        .width()
        .max(a.thickness())
        .max(b.width())
        .max(b.thickness());
    let center = a.cross_section_distance(b);
    let d_um = if center < 1e-9 * scale.max(1.0) {
        // Collinear segments sharing a cross-section: use its self-GMD.
        self_gmd(
            0.5 * (a.width() + b.width()),
            0.5 * (a.thickness() + b.thickness()),
        )
    } else {
        bar_gmd(a, b)
    };
    let (a1, b1) = a.axial_span();
    let (a2, b2) = b.axial_span();
    mutual_filaments_m(
        um_to_m(a1),
        um_to_m(b1),
        um_to_m(a2),
        um_to_m(b2),
        um_to_m(d_um),
    )
}

/// Partial mutual inductance (H) between two *aligned, equal-length*
/// parallel bars expressed purely in relative cross-section coordinates:
/// length `length_um`, cross-sections `w1 × t1` and `w2 × t2`, rectangle 2
/// offset by `(dt, dz)` from rectangle 1's anchor corner — all microns.
///
/// Mirrors [`mutual_partial`] for the uniform-filament-mesh case (every
/// filament of a meshed system shares the axial span), but is a pure
/// function of the relative placement, so the fast-operator kernel cache
/// can memoize it by `(w1, t1, w2, t2, dt, dz)`. Both routes evaluate the
/// same closed-form GMD ([`crate::gmd::mutual_gmd`]) and agree with
/// [`mutual_partial`] to round-off (~1e-14 relative).
///
/// `far` is the near/far GMD branch, which the caller must take from
/// [`crate::gmd::cross_section_is_far`] on the actual bars: regular meshes
/// put pairs exactly at the threshold, where re-deriving the branch from
/// relative offsets can land on the other side and pick up the full
/// far-field approximation error (~1e-3) against [`mutual_partial`].
#[allow(clippy::too_many_arguments)] // six scalars fully describe the relative pair
pub fn mutual_partial_relative(
    length_um: f64,
    w1: f64,
    t1: f64,
    w2: f64,
    t2: f64,
    dt: f64,
    dz: f64,
    far: bool,
) -> f64 {
    let scale = w1.max(t1).max(w2).max(t2);
    let cx = dt + 0.5 * (w2 - w1);
    let cz = dz + 0.5 * (t2 - t1);
    let center = cx.hypot(cz);
    let d_um = if center < 1e-9 * scale.max(1.0) {
        self_gmd(0.5 * (w1 + w2), 0.5 * (t1 + t2))
    } else {
        relative_gmd_with(w1, t1, w2, t2, dt, dz, far)
    };
    mutual_filaments_aligned_m(um_to_m(length_um), um_to_m(d_um))
}

/// Volume-overlap test with a relative tolerance: filament tilings touch at
/// shared faces and floating-point rounding can make them overlap by an ulp,
/// which must not count as a physical intersection.
#[allow(dead_code)] // used by debug assertions only in release builds
fn substantially_intersects(a: &Bar, b: &Bar) -> bool {
    if !a.is_parallel(b) {
        return a.intersects(b);
    }
    let tol = 1e-9
        * a.width()
            .max(a.thickness())
            .max(b.width())
            .max(b.thickness())
            .max(1.0);
    let depth =
        |(a_lo, a_hi): (f64, f64), (b_lo, b_hi): (f64, f64)| a_hi.min(b_hi) - a_lo.max(b_lo);
    depth(a.axial_span(), b.axial_span()) > tol
        && depth(a.transverse_span(), b.transverse_span()) > tol
        && depth(a.vertical_span(), b.vertical_span()) > tol
}

/// DC resistance (Ω) of a bar of resistivity `rho` (Ω·m).
///
/// # Panics
///
/// Panics (debug) on non-positive resistivity.
pub fn dc_resistance(bar: &Bar, rho: f64) -> f64 {
    debug_assert!(rho > 0.0, "resistivity must be positive");
    rho * um_to_m(bar.length()) / (um_to_m(bar.width()) * um_to_m(bar.thickness()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_geom::{Axis, Point3};

    fn bar(y_um: f64, len_um: f64, w_um: f64) -> Bar {
        Bar::new(Point3::new(0.0, y_um, 10.0), Axis::X, len_um, w_um, 2.0).unwrap()
    }

    #[test]
    fn one_millimetre_wire_is_about_1_5_nh() {
        // Rule of thumb: ~1.4–1.5 nH per mm of thin on-chip wire.
        let l = self_partial_ruehli(1000.0, 1.0, 1.0);
        assert!(l > 1.3e-9 && l < 1.6e-9, "L = {l}");
    }

    #[test]
    fn gmd_and_ruehli_self_agree() {
        for (len, w, t) in [(500.0, 1.0, 0.5), (1000.0, 10.0, 2.0), (6000.0, 10.0, 2.0)] {
            let b = Bar::new(Point3::default(), Axis::X, len, w, t).unwrap();
            let l_gmd = self_partial(&b);
            let l_ruehli = self_partial_ruehli(len, w, t);
            let rel = (l_gmd - l_ruehli).abs() / l_ruehli;
            assert!(rel < 0.02, "len={len} w={w} t={t}: rel={rel}");
        }
    }

    #[test]
    fn self_inductance_is_superlinear_in_length() {
        // Paper Section V: doubling a 1000 µm segment to 2000 µm raises self
        // L by clearly more than 2× (ln term grows).
        let l1 = self_partial_ruehli(1000.0, 10.0, 2.0);
        let l2 = self_partial_ruehli(2000.0, 10.0, 2.0);
        let ratio = l2 / l1;
        assert!(ratio > 2.1 && ratio < 2.4, "ratio = {ratio}");
    }

    #[test]
    fn mutual_aligned_matches_textbook_special_case() {
        let l = 1e-3;
        let d = 10e-6;
        let m = mutual_filaments_aligned_m(l, d);
        let expect = MU_0 * l / (2.0 * std::f64::consts::PI)
            * ((l / d).asinh() - (1.0 + (d / l).powi(2)).sqrt() + d / l);
        assert!((m - expect).abs() / expect < 1e-12);
        assert!(m > 0.8e-9 && m < 1.1e-9, "M = {m}");
    }

    #[test]
    fn mutual_is_smaller_than_self_and_positive() {
        let a = bar(0.0, 1000.0, 5.0);
        let b = bar(6.0, 1000.0, 5.0);
        let ls = self_partial(&a);
        let m = mutual_partial(&a, &b);
        assert!(m > 0.0 && m < ls, "m = {m}, ls = {ls}");
    }

    #[test]
    fn mutual_is_symmetric() {
        let a = bar(0.0, 1000.0, 5.0);
        let b = bar(8.0, 800.0, 3.0);
        // Different lengths: shift b axially so spans differ too.
        let b = b.translated(100.0, 0.0, 0.0);
        let mab = mutual_partial(&a, &b);
        let mba = mutual_partial(&b, &a);
        assert!((mab - mba).abs() / mab.abs() < 1e-12);
    }

    #[test]
    fn mutual_decreases_with_spacing() {
        let a = bar(0.0, 1000.0, 5.0);
        let mut last = f64::INFINITY;
        for s in [1.0, 2.0, 5.0, 10.0, 50.0, 200.0] {
            let b = bar(5.0 + s, 1000.0, 5.0);
            let m = mutual_partial(&a, &b);
            assert!(m < last, "not monotone at s = {s}");
            last = m;
        }
    }

    #[test]
    fn mutual_orthogonal_is_zero() {
        let a = bar(0.0, 1000.0, 5.0);
        let b = Bar::new(Point3::new(500.0, 100.0, 20.0), Axis::Y, 300.0, 5.0, 2.0).unwrap();
        assert_eq!(mutual_partial(&a, &b), 0.0);
    }

    #[test]
    fn collinear_disjoint_segments_have_positive_mutual() {
        // Two sequential segments of the same route: mutual is the reason
        // the paper notes per-segment extraction *underestimates* inductance.
        let a = Bar::new(Point3::new(0.0, 0.0, 10.0), Axis::X, 1000.0, 10.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(1000.5, 0.0, 10.0), Axis::X, 1000.0, 10.0, 2.0).unwrap();
        let m = mutual_partial(&a, &b);
        let ls = self_partial(&a);
        assert!(m > 0.0, "m = {m}");
        assert!(
            m < 0.25 * ls,
            "collinear coupling should be a modest fraction: {}",
            m / ls
        );
        // And the whole-length self L exceeds the cascaded sum by that coupling.
        let whole = Bar::new(Point3::new(0.0, 0.0, 10.0), Axis::X, 2000.5, 10.0, 2.0).unwrap();
        let l_whole = self_partial(&whole);
        let l_sum = 2.0 * ls;
        assert!((l_whole - (l_sum + 2.0 * m)).abs() / l_whole < 0.02);
    }

    #[test]
    fn partially_overlapping_spans() {
        // b overlaps the right half of a.
        let a = Bar::new(Point3::new(0.0, 0.0, 10.0), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(500.0, 20.0, 10.0), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        let m_overlap = mutual_partial(&a, &b);
        // Fully aligned twin has larger coupling; fully separated has less.
        let b_aligned = Bar::new(Point3::new(0.0, 20.0, 10.0), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        let b_far = Bar::new(Point3::new(2000.0, 20.0, 10.0), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        assert!(mutual_partial(&a, &b_aligned) > m_overlap);
        assert!(mutual_partial(&a, &b_far) < m_overlap);
        assert!(m_overlap > 0.0);
    }

    #[test]
    fn foundation_1_self_l_independent_of_neighbors() {
        // Self Lp depends only on the trace itself — trivially true of the
        // formula, asserted here as the crate-level contract.
        let a1 = bar(0.0, 2000.0, 4.0);
        let a2 = bar(123.0, 2000.0, 4.0);
        assert_eq!(self_partial(&a1), self_partial(&a2));
    }

    #[test]
    fn foundation_2_mutual_depends_on_pair_geometry_only() {
        // Shifting the *pair* rigidly leaves the mutual unchanged.
        let a = bar(0.0, 1500.0, 5.0);
        let b = bar(7.0, 1500.0, 5.0);
        let m0 = mutual_partial(&a, &b);
        let m1 = mutual_partial(
            &a.translated(50.0, 30.0, 0.0),
            &b.translated(50.0, 30.0, 0.0),
        );
        assert!((m0 - m1).abs() / m0 < 1e-12);
    }

    #[test]
    fn relative_mutual_matches_absolute_mutual() {
        // Aligned equal-length pairs through both entry points agree to
        // round-off across near (closed-form GMD), collinear
        // (self-GMD) and far (center-distance) branches.
        let cases = [
            (6.0, 0.0),  // near: 1 µm gap, coplanar
            (0.0, 30.0), // far: stacked 30 µm apart
            (6.5, -4.0), // diagonal offset
        ];
        for (dy, dz) in cases {
            let a = Bar::new(Point3::new(0.0, 2.0, 10.0), Axis::X, 1000.0, 5.0, 2.0).unwrap();
            let b = a.translated(0.0, dy, dz);
            let m_abs = mutual_partial(&a, &b);
            let far = crate::gmd::cross_section_is_far(&a, &b);
            let m_rel = mutual_partial_relative(1000.0, 5.0, 2.0, 5.0, 2.0, dy, dz, far);
            assert!(
                (m_abs - m_rel).abs() / m_abs.abs().max(1e-300) < 1e-11,
                "dy={dy} dz={dz}: {m_abs} vs {m_rel}"
            );
        }
    }

    #[test]
    fn dc_resistance_of_figure1_signal() {
        // 6000 µm × 10 µm × 2 µm copper: R = ρl/(wt) ≈ 5.16 Ω.
        let b = Bar::new(Point3::default(), Axis::X, 6000.0, 10.0, 2.0).unwrap();
        let r = dc_resistance(&b, rlcx_geom::units::RHO_COPPER);
        assert!((r - 5.16).abs() < 0.05, "R = {r}");
    }
}
