//! The closed-form rectangle GMD (`gmd::mutual_gmd`, Grover / Hoer–Love)
//! against a subdivided Gauss–Legendre 4-D oracle built here from
//! `numeric::quadrature::composite` rules, plus pinned high-precision hand
//! values, swap symmetry, translation invariance of the relative route, the
//! near/far jump at the `4×` threshold, and the kernel cache's agreement
//! with the dense kernel.

use rlcx::geom::units::um_to_m;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::numeric::quadrature::composite;
use rlcx::numeric::rng::{SplitMix64, UniformRng};
use rlcx::peec::fastop::KernelCache;
use rlcx::peec::gmd::{bar_gmd, cross_section_is_far, mutual_gmd, relative_gmd, self_gmd};
use rlcx::peec::partial::{mutual_filaments_aligned_m, mutual_partial, mutual_partial_relative};

/// A cross-section rectangle `((u, w), (v, t))`: `u ∈ [u, u+w]`,
/// `v ∈ [v, v+t]`, µm.
type Rect = ((f64, f64), (f64, f64));

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

/// The 4-D product rule for `(1/(A₁A₂)) ∬∬ ln r dA₁ dA₂`, exponentiated:
/// every dimension split into `panels` panels of `order` points. The
/// integrand depends on `a₁ − a₂` and `b₁ − b₂` only, so the `u` and `v`
/// node pairs are formed once and the 4-D sum runs over their product.
fn oracle_gmd(r1: Rect, r2: Rect, order: usize, panels: usize) -> f64 {
    let (((u1, w1), (v1, t1)), ((u2, w2), (v2, t2))) = (r1, r2);
    let pairs = |lo1: f64, len1: f64, lo2: f64, len2: f64| -> Vec<(f64, f64)> {
        let q2 = composite(lo2, lo2 + len2, order, panels);
        composite(lo1, lo1 + len1, order, panels)
            .into_iter()
            .flat_map(|(a, wa)| q2.iter().map(move |&(b, wb)| (a - b, wa * wb)))
            .collect()
    };
    let (dx, dy) = (pairs(u1, w1, u2, w2), pairs(v1, t1, v2, t2));
    let mut sum = 0.0;
    for &(x, wx) in &dx {
        let mut row = 0.0;
        for &(y, wy) in &dy {
            let r2 = x * x + y * y;
            if r2 > 0.0 {
                row += wy * r2.ln();
            }
        }
        sum += wx * row;
    }
    (0.5 * sum / (w1 * t1 * w2 * t2)).exp()
}

fn closed_form(((u1, w1), (v1, t1)): Rect, ((u2, w2), (v2, t2)): Rect) -> f64 {
    mutual_gmd((u1, w1), (v1, t1), (u2, w2), (v2, t2))
}

/// Hand values, from the closed form in 40-digit arithmetic (checked there
/// against adaptive quadrature of the integral reduced to two dimensions).
fn hand_cases() -> [(Rect, Rect, f64); 4] {
    [
        // Touching 5/3 × 1 filaments.
        (
            ((0.0, 5.0 / 3.0), (0.0, 1.0)),
            ((5.0 / 3.0, 5.0 / 3.0), (0.0, 1.0)),
            1.575_787_923_605_889_8,
        ),
        // A 1 µm square next to a 20 µm bar at a 0.5 µm gap.
        (
            ((0.0, 1.0), (0.0, 1.0)),
            ((1.5, 20.0), (0.0, 1.0)),
            9.013_544_071_478_263,
        ),
        // Diagonal neighbours sharing a corner.
        (
            ((0.0, 1.0), (0.0, 1.0)),
            ((1.0, 1.0), (1.0, 1.0)),
            1.410_961_862_327_155_3,
        ),
        // 5 × 2 bars at a 1 µm gap.
        (
            ((0.0, 5.0), (0.0, 2.0)),
            ((6.0, 5.0), (0.0, 2.0)),
            5.682_132_188_972_195,
        ),
    ]
}

/// A random near pair: sides in `[0.3, 3]`, separated along `u` or `v`
/// (or both) by a gap of at least a quarter of the largest side, with the
/// center distance inside the `4×` near branch.
fn random_near_pair(rng: &mut SplitMix64) -> (Rect, Rect) {
    loop {
        let (w1, t1, w2, t2) = (
            rng.uniform(0.3, 3.0),
            rng.uniform(0.3, 3.0),
            rng.uniform(0.3, 3.0),
            rng.uniform(0.3, 3.0),
        );
        let s = w1.max(t1).max(w2).max(t2);
        let (u1, v1) = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0));
        let gap = rng.uniform(0.25 * s, 1.5 * s);
        let (u2, v2) = match rng.next_u64() % 3 {
            0 => (u1 + w1 + gap, v1 + rng.uniform(-t2, t1)),
            1 => (u1 + rng.uniform(-w2, w1), v1 - t2 - gap),
            _ => (u1 - w2 - gap, v1 + t1 + rng.uniform(0.25 * s, s)),
        };
        let cx = (u2 + 0.5 * w2) - (u1 + 0.5 * w1);
        let cz = (v2 + 0.5 * t2) - (v1 + 0.5 * t1);
        if cx.hypot(cz) <= 4.0 * s {
            return (((u1, w1), (v1, t1)), ((u2, w2), (v2, t2)));
        }
    }
}

fn bar_of(((u, w), (v, t)): Rect, length: f64) -> Bar {
    Bar::new(Point3::new(0.0, u, v), Axis::X, length, w, t).unwrap()
}

#[test]
fn closed_form_matches_pinned_hand_values() {
    for (r1, r2, want) in hand_cases() {
        let g = closed_form(r1, r2);
        assert!(rel(g, want) <= 1e-12, "{r1:?} {r2:?}: {g} vs {want}");
        let back = closed_form(r2, r1);
        assert!(rel(back, want) <= 1e-12, "swapped: {back} vs {want}");
    }
}

#[test]
fn closed_form_self_gmd_of_unit_square_is_classical() {
    // Overlap is fine for the closed form: identical squares give the
    // exact self-GMD of a square, 0.447049 a (Grover), which the Ruehli
    // self term approximates as 0.2235 (w + t).
    let g = closed_form(((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0)));
    assert!((g - 0.447_049).abs() < 1e-6, "g = {g}");
    assert!(rel(self_gmd(1.0, 1.0), g) < 1e-3);
}

#[test]
fn random_near_pairs_match_subdivided_quadrature() {
    let mut rng = SplitMix64::new(0x6d0_c105ed);
    let mut worst = 0.0f64;
    for _ in 0..12 {
        let (r1, r2) = random_near_pair(&mut rng);
        let g = closed_form(r1, r2);
        let q = oracle_gmd(r1, r2, 8, 4);
        worst = worst.max(rel(g, q));
        assert!(rel(g, q) <= 1e-9, "{r1:?} {r2:?}: closed {g} vs oracle {q}");
    }
    eprintln!("closed form vs oracle: worst {worst:.2e}");
}

#[test]
fn quadrature_converges_to_closed_form_with_order() {
    // The order-8 product rule the solver used to run is off by ~3e-5 on
    // the 20 µm neighbour; the error shrinks with the order until the
    // order-32 rule reaches the closed form.
    let cases = hand_cases();
    for (r1, r2, _) in [cases[1], cases[3]] {
        let exact = closed_form(r1, r2);
        let errs: Vec<f64> = [4usize, 8, 16, 32]
            .iter()
            .map(|&n| rel(oracle_gmd(r1, r2, n, 1), exact))
            .collect();
        assert!(errs.windows(2).all(|e| e[1] < e[0]), "{errs:?}");
        assert!(errs[1] < 1e-4, "order 8: {errs:?}");
        assert!(errs[3] < 1e-11, "order 32: {errs:?}");
    }
}

#[test]
fn swapping_the_rectangles_is_symmetric() {
    let mut rng = SplitMix64::new(7);
    for (r1, r2, _) in hand_cases() {
        assert!(rel(closed_form(r2, r1), closed_form(r1, r2)) < 1e-12);
    }
    for _ in 0..200 {
        let (r1, r2) = random_near_pair(&mut rng);
        let (a, b) = (closed_form(r1, r2), closed_form(r2, r1));
        assert!(rel(a, b) < 1e-13, "{r1:?} {r2:?}: {a} vs {b}");
        let (ba, bb) = (bar_of(r1, 100.0), bar_of(r2, 100.0));
        assert!(rel(bar_gmd(&ba, &bb), bar_gmd(&bb, &ba)) < 1e-13);
    }
}

#[test]
fn relative_route_is_translation_invariant() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..100 {
        let (r1, r2) = random_near_pair(&mut rng);
        let (((u1, w1), (v1, t1)), ((u2, w2), (v2, t2))) = (r1, r2);
        let g_rel = relative_gmd(w1, t1, w2, t2, u2 - u1, v2 - v1);
        // The absolute route at any placement agrees to round-off.
        for (du, dv) in [(0.0, 0.0), (123.456, -78.9), (-4096.5, 2048.25)] {
            let a = bar_of(((u1 + du, w1), (v1 + dv, t1)), 500.0);
            let b = bar_of(((u2 + du, w2), (v2 + dv, t2)), 500.0);
            let g_abs = bar_gmd(&a, &b);
            assert!(
                rel(g_abs, g_rel) < 1e-11,
                "shift ({du}, {dv}): {g_abs} vs {g_rel}"
            );
        }
    }
    // Exactly representable shifts keep the relative offsets bit-exact,
    // so the kernel cache serves the first evaluation to every copy.
    let kernel = KernelCache::new(500.0);
    let (r1, r2) = (((0.25, 1.5), (2.0, 1.0)), ((2.5, 1.5), (2.5, 1.0)));
    let first = kernel.mutual_l(&bar_of(r1, 500.0), &bar_of(r2, 500.0));
    for shift in [1.0, -64.0, 1024.5, 3.0e4] {
        let mv = |((u, w), (v, t)): Rect| ((u + shift, w), (v - shift, t));
        let again = kernel.mutual_l(&bar_of(mv(r1), 500.0), &bar_of(mv(r2), 500.0));
        assert_eq!(again.to_bits(), first.to_bits(), "shift {shift}");
    }
    assert_eq!(kernel.stats(), (4, 1));
}

#[test]
fn near_far_jump_at_the_threshold_is_small() {
    // Pairs whose center distance is exactly 4× the largest side, in
    // every direction. The branch flag is honoured exactly there; the jump
    // between the closed form and the center distance is what a pair
    // straddling the threshold sees. It is gated on the 1 mm partial
    // mutual inductance the kernels store, for the filament shapes the
    // meshes produce (aspect ≤ 2.5); flat strips show larger GMD jumps,
    // which a second-order far-field term would remove.
    let length = 1000.0;
    let l_m = um_to_m(length);
    let (mut worst_gmd, mut worst_lp) = (0.0f64, 0.0f64);
    for (w1, t1, w2, t2, filament) in [
        (1.0f64, 1.0, 1.0, 1.0, true),
        (1.4, 1.1, 1.4, 1.1, true),
        (5.0 / 3.0, 1.0, 5.0 / 3.0, 1.0, true),
        (5.0, 2.0, 5.0, 2.0, true),
        (1.0, 0.5, 2.0, 1.0, true),
        (2.0, 10.0, 2.0, 10.0, false),
        (1.0, 0.1, 1.0, 0.1, false),
    ] {
        let s = w1.max(t1).max(w2).max(t2);
        for deg in (0..=180).step_by(15) {
            let phi = (deg as f64).to_radians();
            let (dt, dz) = (
                4.0 * s * phi.cos() - 0.5 * (w2 - w1),
                4.0 * s * phi.sin() - 0.5 * (t2 - t1),
            );
            let near = mutual_partial_relative(length, w1, t1, w2, t2, dt, dz, false);
            let far = mutual_partial_relative(length, w1, t1, w2, t2, dt, dz, true);
            let center = (dt + 0.5 * (w2 - w1)).hypot(dz + 0.5 * (t2 - t1));
            let g = closed_form(((0.0, w1), (0.0, t1)), ((dt, w2), (dz, t2)));
            assert_eq!(far, mutual_filaments_aligned_m(l_m, um_to_m(center)));
            assert_eq!(near, mutual_filaments_aligned_m(l_m, um_to_m(g)));
            worst_gmd = worst_gmd.max(rel(center, g));
            if filament {
                worst_lp = worst_lp.max(rel(far, near));
            }
        }
    }
    eprintln!("near/far jump at 4x: GMD {worst_gmd:.3e} (all shapes), 1 mm Lp {worst_lp:.3e}");
    assert!(worst_lp < 1.5e-3, "Lp jump {worst_lp:.3e}");
    assert!(worst_gmd < 6e-3, "GMD jump {worst_gmd:.3e}");
}

/// A small multi-conductor filament mesh with near, far and
/// exactly-on-threshold pairs (pitch 1.5 µm, 1.5 µm squares → the 4×
/// threshold is 6 µm = four pitches).
fn mesh() -> Vec<Bar> {
    let mut fils = Vec::new();
    for c in 0..3 {
        for k in 0..8 {
            let y = c as f64 * 9.0 + (k % 4) as f64 * 1.5;
            let z = 10.0 + (k / 4) as f64 * 1.5;
            fils.push(Bar::new(Point3::new(0.0, y, z), Axis::X, 800.0, 1.5, 1.5).unwrap());
        }
    }
    fils
}

#[test]
fn kernel_fill_block_matches_dense_kernel_across_branches() {
    let fils = mesh();
    let n = fils.len();
    let kernel = KernelCache::new(800.0);
    let all: Vec<usize> = (0..n).collect();
    let mut block = vec![0.0; n * n];
    kernel.fill_block(&fils, &all, &all, &mut block);
    let (mut near, mut far, mut on_threshold) = (0, 0, 0);
    for i in 0..n {
        for j in 0..n {
            let v = block[i * n + j];
            assert_eq!(v.to_bits(), kernel.entry(&fils, i, j).to_bits());
            if i == j {
                continue;
            }
            let dense = mutual_partial(&fils[i], &fils[j]);
            assert!(rel(v, dense) < 1e-12, "({i}, {j}): {v} vs {dense}");
            let center = fils[i].cross_section_distance(&fils[j]);
            if (center - 6.0).abs() < 1e-12 {
                on_threshold += 1;
            } else if cross_section_is_far(&fils[i], &fils[j]) {
                far += 1;
            } else {
                near += 1;
            }
        }
    }
    assert!(near > 0 && far > 0 && on_threshold > 0);
    // Every distinct geometry missed once; the block re-fill is all hits.
    let (hits, misses) = kernel.stats();
    assert_eq!(misses as usize, kernel.distinct());
    kernel.fill_block(&fils, &all, &all, &mut block);
    assert_eq!(kernel.stats(), (hits + (n * n) as u64, misses));
}

#[test]
fn collinear_pairs_keep_the_self_gmd_branch() {
    // Same cross-section, disjoint axial spans: the dense kernel uses the
    // self-GMD of the shared section; the relative route with zero offset
    // must do the same whichever branch flag it is handed.
    let a = Bar::new(Point3::new(0.0, 2.0, 10.0), Axis::X, 400.0, 1.5, 1.0).unwrap();
    let b = a.translated(400.5, 0.0, 0.0);
    let m = mutual_partial(&a, &b);
    assert!(m > 0.0);
    let g = um_to_m(self_gmd(1.5, 1.0));
    for far in [false, true] {
        let rel_route = mutual_partial_relative(400.0, 1.5, 1.0, 1.5, 1.0, 0.0, 0.0, far);
        assert_eq!(
            rel_route,
            mutual_filaments_aligned_m(um_to_m(400.0), g),
            "far = {far}"
        );
    }
}
