//! Gauss–Legendre quadrature rules.
//!
//! The PEEC near-field GMD is evaluated in closed form (`rlcx-peec`'s
//! `gmd::mutual_gmd`), so no production path integrates numerically. The
//! rules here are the reference that closed form is checked against: a
//! subdivided product of [`composite`] rules converges to the GMD integral
//! `ln g = (1/(A₁A₂)) ∬∬ ln r dA₁ dA₂` far below the closed form's
//! tolerance.

/// Nodes (first) and weights (second) of an `n`-point Gauss–Legendre rule on
/// `[-1, 1]`, computed by Newton iteration on the Legendre polynomial.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n > 0, "quadrature order must be positive");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    for i in 0..n.div_ceil(2) {
        // Chebyshev-based initial guess for the i-th root.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            // Evaluate P_n(x) and its derivative by the three-term recurrence.
            let (mut p0, mut p1) = (1.0, 0.0);
            for j in 0..n {
                let p2 = p1;
                p1 = p0;
                p0 = ((2.0 * j as f64 + 1.0) * x * p1 - j as f64 * p2) / (j as f64 + 1.0);
            }
            dp = n as f64 * (x * p0 - p1) / (x * x - 1.0);
            let dx = p0 / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        (nodes[i], nodes[n - 1 - i]) = (-x, x);
        (weights[i], weights[n - 1 - i]) = (w, w);
    }
    (nodes, weights)
}

/// Composite rule on `[a, b]`: `panels` equal panels of `order`
/// Gauss–Legendre points each, as `(node, weight)` pairs. Product rules in
/// several dimensions are formed by pairing the lists of each dimension.
///
/// # Panics
///
/// Panics if `order == 0`.
pub fn composite(a: f64, b: f64, order: usize, panels: usize) -> Vec<(f64, f64)> {
    let (xs, ws) = gauss_legendre(order);
    let h = (b - a) / panels as f64;
    (0..panels)
        .flat_map(|p| {
            let lo = a + p as f64 * h;
            xs.iter()
                .zip(&ws)
                .map(move |(&x, &w)| (lo + 0.5 * h * (x + 1.0), 0.5 * h * w))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `∫ₐᵇ f` with one panel of `n` points.
    fn integrate(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
        composite(a, b, n, 1).iter().map(|&(x, w)| w * f(x)).sum()
    }

    #[test]
    fn weights_sum_to_interval_length() {
        for n in [1, 2, 4, 8, 16, 32] {
            let (_, ws) = gauss_legendre(n);
            let total: f64 = ws.iter().sum();
            assert!((total - 2.0).abs() < 1e-12, "n = {n}");
            assert!(ws.iter().all(|&w| w > 0.0), "n = {n}");
        }
        let total: f64 = composite(-1.0, 2.5, 5, 3).iter().map(|&(_, w)| w).sum();
        assert!((total - 3.5).abs() < 1e-13);
    }

    #[test]
    fn nodes_are_symmetric_and_sorted() {
        for n in [7usize, 8, 33] {
            let (xs, _) = gauss_legendre(n);
            for i in 0..n {
                assert!((xs[i] + xs[n - 1 - i]).abs() < 1e-12, "n = {n}");
                if i > 0 {
                    assert!(xs[i] > xs[i - 1], "n = {n}");
                }
            }
        }
        let nodes: Vec<f64> = composite(0.0, 3.0, 4, 3).iter().map(|&(x, _)| x).collect();
        assert!(nodes.windows(2).all(|p| p[0] < p[1]));
        assert!(nodes[0] > 0.0 && nodes[nodes.len() - 1] < 3.0);
    }

    #[test]
    fn exact_for_polynomials_up_to_degree_2n_minus_1() {
        // 3-point rule integrates x^5 exactly over [-1, 1] (odd → 0) and x^4.
        let i4 = integrate(|x| x.powi(4), -1.0, 1.0, 3);
        assert!((i4 - 0.4).abs() < 1e-13);
        let i5 = integrate(|x| x.powi(5), -1.0, 1.0, 3);
        assert!(i5.abs() < 1e-14);
        // n points integrate degree ≤ 2n − 1: ∫₋₁¹ x^k = 2/(k+1), k even.
        for n in [2usize, 4, 8] {
            for k in 0..2 * n {
                let q = integrate(|x| x.powi(k as i32), -1.0, 1.0, n);
                let exact = if k % 2 == 0 {
                    2.0 / (k as f64 + 1.0)
                } else {
                    0.0
                };
                assert!((q - exact).abs() < 1e-13, "n = {n}, k = {k}: {q}");
            }
        }
    }

    #[test]
    fn integrates_transcendental_accurately() {
        let v = integrate(f64::sin, 0.0, std::f64::consts::PI, 16);
        assert!((v - 2.0).abs() < 1e-12);
        let v = integrate(f64::exp, 0.0, 1.0, 16);
        assert!((v - (std::f64::consts::E - 1.0)).abs() < 1e-12);
        // Three panels of eight points reach the same accuracy.
        let v: f64 = composite(0.0, std::f64::consts::PI, 8, 3)
            .iter()
            .map(|&(x, w)| w * x.sin())
            .sum();
        assert!((v - 2.0).abs() < 1e-13);
    }

    #[test]
    fn two_d_product_rule() {
        let q = composite(0.0, 1.0, 6, 1);
        // ∬ x·y over [0,1]² = 1/4.
        let v: f64 = q
            .iter()
            .flat_map(|&(x, wx)| q.iter().map(move |&(y, wy)| wx * wy * x * y))
            .sum();
        assert!((v - 0.25).abs() < 1e-12);
        // Non-separable integrand.
        let q = composite(0.0, 1.0, 12, 1);
        let v: f64 = q
            .iter()
            .flat_map(|&(x, wx)| q.iter().map(move |&(y, wy)| wx * wy * (x + y).sin()))
            .sum();
        let exact = 2.0 * 1.0_f64.sin() - 2.0_f64.sin(); // ∫∫ sin(x+y) dx dy
        assert!((v - exact).abs() < 1e-10);
    }

    /// `Σ w₁w₂w₃w₄ f(x₁, y₁, x₂, y₂)` over the product of four rules.
    fn product_4d(q: [&[(f64, f64)]; 4], f: impl Fn(f64, f64, f64, f64) -> f64) -> f64 {
        let mut acc = 0.0;
        for &(x1, w1) in q[0] {
            for &(y1, w2) in q[1] {
                for &(x2, w3) in q[2] {
                    for &(y2, w4) in q[3] {
                        acc += w1 * w2 * w3 * w4 * f(x1, y1, x2, y2);
                    }
                }
            }
        }
        acc
    }

    #[test]
    fn four_d_volume() {
        let rules = [
            composite(0.0, 2.0, 4, 1),
            composite(0.0, 3.0, 4, 1),
            composite(0.0, 0.5, 4, 1),
            composite(0.0, 4.0, 4, 1),
        ];
        let v = product_4d(
            [&rules[0], &rules[1], &rules[2], &rules[3]],
            |_, _, _, _| 1.0,
        );
        assert!((v - 2.0 * 3.0 * 0.5 * 4.0).abs() < 1e-10);
    }

    #[test]
    fn four_d_separable_product() {
        // ∫x1 ∫y1 ∫x2 ∫y2 x1·y1·x2·y2 over [0,1]^4 = (1/2)^4.
        let q = composite(0.0, 1.0, 5, 1);
        let v = product_4d([&q, &q, &q, &q], |x1, y1, x2, y2| x1 * y1 * x2 * y2);
        assert!((v - 0.0625).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_order_panics() {
        gauss_legendre(0);
    }
}
