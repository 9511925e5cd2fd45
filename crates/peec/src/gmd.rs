//! Geometric mean distances (GMD) between conductor cross-sections.
//!
//! The Neumann mutual-inductance integral between two parallel conductors of
//! rectangular cross-section reduces to the *filament* formula evaluated at
//! the geometric mean distance of the two cross-sections:
//! `ln g = (1/(A₁A₂)) ∬∬ ln r dA₁ dA₂`.
//!
//! For well-separated sections the GMD is essentially the center distance;
//! for close sections (spacing comparable to the width — exactly the regime
//! of minimum-pitch clock shields) the difference matters, so the near
//! branch evaluates the integral exactly through the Grover / Hoer–Love
//! closed form ([`mutual_gmd`]). Every near-pair caller — the absolute
//! [`bar_gmd`] of the dense assembly, table builder and loop reduction, and
//! the relative [`relative_gmd_with`] behind the fast-operator kernel
//! cache — goes through that one function.

use rlcx_geom::Bar;

/// Self-GMD of a rectangular cross-section `w × t`, using the classical
/// approximation `g ≈ 0.2235 (w + t)` (exact for the thin-strip and square
/// limits to within ~1 %; it is the distance underlying Ruehli's self
/// partial-inductance formula).
///
/// # Panics
///
/// Panics (in debug builds) if `w` or `t` is not positive.
#[inline]
pub fn self_gmd(w: f64, t: f64) -> f64 {
    debug_assert!(w > 0.0 && t > 0.0, "cross-section must be positive");
    0.2235 * (w + t)
}

/// Corner function of the closed-form rectangle GMD, `F(|x|, |y|)` with
///
/// `F = −(x⁴+y⁴)/48·ln(x²+y²) + x²y²/8·ln(x²+y²)
///      + (x³y·atan(y/x) + xy³·atan(x/y))/6`,
///
/// which satisfies `∂⁴F/∂x²∂y² = ½ ln(x²+y²)`. The closed form's remaining
/// `−25x²y²/48` term is left out here: its signed corner sum is exactly
/// `−25/12·A₁A₂`, which [`mutual_gmd`] adds once. `F(0, 0) = 0`, and the
/// `atan2` form makes the arctangent terms vanish when `x` or `y` is zero.
#[inline]
fn corner(x: f64, y: f64) -> f64 {
    let (x, y) = (x.abs(), y.abs());
    let (x2, y2) = (x * x, y * y);
    let r2 = x2 + y2;
    if r2 == 0.0 {
        return 0.0;
    }
    (x2 * y2 / 8.0 - (x2 * x2 + y2 * y2) / 48.0) * r2.ln()
        + x * y * (x2 * y.atan2(x) + y2 * x.atan2(y)) / 6.0
}

/// Exact GMD between two rectangles in the cross-section plane: rectangle 1
/// spans `u ∈ [u1, u1+w1]`, `v ∈ [v1, v1+t1]`; rectangle 2 likewise.
///
/// Grover / Hoer–Love closed form: `A₁A₂·ln g = Σᵢⱼ sᵢsⱼ F(xᵢ, yⱼ)` over the
/// corner differences `xᵢ ∈ {u1+w1−u2, u1−u2, u1+w1−u2−w2, u1−u2−w2}`
/// (signs `+ − − +`) and the same in `v`/`t` (see [`corner`]). The form
/// holds for touching and even overlapping rectangles: two identical ones
/// give the exact self-GMD of their section.
///
/// The corner terms grow like `D⁴ ln D` with the center distance `D`
/// while the sum is `O(A₁A₂)`, so about `(D/s)⁴` (largest dimension `s`)
/// of precision cancels: use it for near pairs only and take the center
/// distance beyond `4×` the scale, as [`bar_gmd`] does.
pub fn mutual_gmd(
    (u1, w1): (f64, f64),
    (v1, t1): (f64, f64),
    (u2, w2): (f64, f64),
    (v2, t2): (f64, f64),
) -> f64 {
    const SIGNS: [f64; 4] = [1.0, -1.0, -1.0, 1.0];
    let (du, dv) = (u1 - u2, v1 - v2);
    let xs = [du + w1, du, du + w1 - w2, du - w2];
    let ys = [dv + t1, dv, dv + t1 - t2, dv - t2];
    let mut sum = 0.0;
    for (&x, sx) in xs.iter().zip(SIGNS) {
        for (&y, sy) in ys.iter().zip(SIGNS) {
            sum += sx * sy * corner(x, y);
        }
    }
    (sum / (w1 * t1 * w2 * t2) - 25.0 / 12.0).exp()
}

/// GMD between the cross-sections of two parallel bars: the closed form
/// [`mutual_gmd`] for close spacing, the center distance for far spacing
/// (see [`cross_section_is_far`]).
///
/// # Panics
///
/// Panics if the bars are not parallel.
pub fn bar_gmd(a: &Bar, b: &Bar) -> f64 {
    assert!(a.is_parallel(b), "GMD requires parallel bars");
    if cross_section_is_far(a, b) {
        return a.cross_section_distance(b);
    }
    let (ta, _) = a.transverse_span();
    let (za, _) = a.vertical_span();
    let (tb, _) = b.transverse_span();
    let (zb, _) = b.vertical_span();
    mutual_gmd(
        (ta, a.width()),
        (za, a.thickness()),
        (tb, b.width()),
        (zb, b.thickness()),
    )
}

/// [`bar_gmd`]'s near/far classification as a standalone predicate: far
/// when the center distance exceeds 4× the largest cross-section
/// dimension.
///
/// Regular filament meshes routinely place pairs *exactly at* this
/// threshold (the center distance is an integer multiple of the filament
/// pitch), where the absolute-coordinate center in [`bar_gmd`] and the
/// relative-coordinate center in [`relative_gmd`] can round to opposite
/// sides of the comparison — and the two branches differ by the far-field
/// approximation error (up to a few 1e-3 of the GMD for flat sections).
/// Any code that must reproduce [`bar_gmd`]'s values (the fast-operator
/// kernel cache) therefore takes the branch from this predicate on the
/// actual bars and forces it via [`relative_gmd_with`], instead of
/// re-deciding from relative offsets.
pub fn cross_section_is_far(a: &Bar, b: &Bar) -> bool {
    let center = a.cross_section_distance(b);
    let scale = a
        .width()
        .max(a.thickness())
        .max(b.width())
        .max(b.thickness());
    center > 4.0 * scale
}

/// GMD of two rectangular cross-sections given in *relative* coordinates:
/// rectangle 1 is anchored at the origin (`w1 × t1`), rectangle 2 at offset
/// `(dt, dz)` (`w2 × t2`). Same near/far policy as [`bar_gmd`] — center
/// distance beyond `4×` the largest dimension, closed form otherwise.
///
/// The result depends only on the relative placement, so two filament
/// pairs with the same cross-sections and offset produce the *same bits*,
/// which is what the fast-operator kernel cache memoizes on.
pub fn relative_gmd(w1: f64, t1: f64, w2: f64, t2: f64, dt: f64, dz: f64) -> f64 {
    let cx = dt + 0.5 * (w2 - w1);
    let cz = dz + 0.5 * (t2 - t1);
    let center = cx.hypot(cz);
    let scale = w1.max(t1).max(w2).max(t2);
    relative_gmd_with(w1, t1, w2, t2, dt, dz, center > 4.0 * scale)
}

/// [`relative_gmd`] with the near/far branch decided by the caller — see
/// [`cross_section_is_far`] for why borderline pairs must inherit the
/// branch from the absolute-coordinate test rather than re-deriving it.
pub fn relative_gmd_with(w1: f64, t1: f64, w2: f64, t2: f64, dt: f64, dz: f64, far: bool) -> f64 {
    if far {
        let cx = dt + 0.5 * (w2 - w1);
        let cz = dz + 0.5 * (t2 - t1);
        return cx.hypot(cz);
    }
    mutual_gmd((0.0, w1), (0.0, t1), (dt, w2), (dz, t2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_geom::{Axis, Point3};

    #[test]
    fn relative_gmd_matches_bar_gmd_closely() {
        // Same geometry through both entry points: absolute-coordinate
        // bar_gmd vs origin-anchored relative_gmd agree to round-off (the
        // same closed form from differently rounded corner offsets).
        let a = Bar::new(Point3::new(0.0, 3.0, 7.0), Axis::X, 100.0, 5.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 9.5, 7.0), Axis::X, 100.0, 10.0, 2.0).unwrap();
        let g_abs = bar_gmd(&a, &b);
        let g_rel = relative_gmd(5.0, 2.0, 10.0, 2.0, 6.5, 0.0);
        assert!((g_abs - g_rel).abs() / g_abs < 1e-12, "{g_abs} vs {g_rel}");
    }

    #[test]
    fn relative_gmd_is_translation_invariant_to_the_bit() {
        // The whole point: the same relative placement gives the same bits
        // no matter where the pair sits in absolute space (there is no
        // absolute space in the arguments at all — this asserts that the
        // far-field branch also only sees relative quantities).
        let g1 = relative_gmd(1.0, 2.0, 3.0, 2.0, 10.0, -4.0);
        let g2 = relative_gmd(1.0, 2.0, 3.0, 2.0, 10.0, -4.0);
        assert_eq!(g1.to_bits(), g2.to_bits());
    }

    #[test]
    fn self_gmd_of_square() {
        // Classical: self-GMD of a square of side a is ≈ 0.44705 a.
        let g = self_gmd(1.0, 1.0);
        assert!((g - 0.447).abs() < 0.01);
    }

    #[test]
    fn mutual_gmd_approaches_center_distance_when_far() {
        // Two 1×1 squares 20 apart: GMD ≈ 20 to high accuracy.
        let g = mutual_gmd((0.0, 1.0), (0.0, 1.0), (20.0, 1.0), (0.0, 1.0));
        assert!((g - 20.0).abs() / 20.0 < 1e-3, "g = {g}");
    }

    #[test]
    fn mutual_gmd_exceeds_center_distance_for_coplanar_close_pair() {
        // Two coplanar 1×1 squares with small gap: the classical result is
        // that the GMD of two side-by-side squares slightly exceeds... in
        // fact for squares at center distance d the GMD is slightly *less*
        // than d for d barely above touching; we only check it is finite,
        // positive, and within a sane band around the center distance.
        let g = mutual_gmd((0.0, 1.0), (0.0, 1.0), (1.2, 1.0), (0.0, 1.0));
        let center = 1.2 + 0.5 - 0.5; // center-to-center = 1.2 + ... = 1.2? centers at 0.5 and 1.7 → 1.2
        assert!(g > 0.8 * center && g < 1.2 * center, "g = {g}");
    }

    #[test]
    fn grover_tabulated_equal_squares() {
        // Grover (Ch. 3): for two equal squares of side a at center distance
        // d = 2a, ln(GMD/d) ≈ small correction; GMD/d should be within 2 %.
        let g = mutual_gmd((0.0, 1.0), (0.0, 1.0), (2.0, 1.0), (0.0, 1.0));
        assert!((g / 2.0 - 1.0).abs() < 0.02, "g = {g}");
    }

    #[test]
    fn bar_gmd_far_uses_center_distance() {
        let a = Bar::new(Point3::new(0.0, 0.0, 0.0), Axis::X, 100.0, 1.0, 1.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 50.0, 0.0), Axis::X, 100.0, 1.0, 1.0).unwrap();
        assert_eq!(bar_gmd(&a, &b), a.cross_section_distance(&b));
    }

    #[test]
    fn bar_gmd_close_is_numerical_and_sane() {
        let a = Bar::new(Point3::new(0.0, 0.0, 0.0), Axis::X, 100.0, 5.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 6.0, 0.0), Axis::X, 100.0, 10.0, 2.0).unwrap();
        let g = bar_gmd(&a, &b);
        let center = a.cross_section_distance(&b);
        assert!(
            g > 0.0 && (g / center - 1.0).abs() < 0.25,
            "g = {g}, c = {center}"
        );
    }

    #[test]
    fn gmd_is_symmetric() {
        let a = Bar::new(Point3::new(0.0, 0.0, 0.0), Axis::X, 100.0, 3.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 4.0, 1.0), Axis::X, 100.0, 2.0, 1.0).unwrap();
        assert!((bar_gmd(&a, &b) - bar_gmd(&b, &a)).abs() < 1e-12);
    }
}
