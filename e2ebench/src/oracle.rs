//! Closed-form references the correctness checks compare against.
//!
//! These are written out here, from the textbook formulas, rather than
//! taken from `rlcx-peec`, so a fault in the program's own kernels cannot
//! hide itself by also corrupting its reference. Geometry is in microns,
//! results in SI units.

use std::f64::consts::PI;

/// Vacuum permeability (H/m).
const MU_0: f64 = 4.0e-7 * PI;

const UM: f64 = 1e-6;

/// Partial self inductance (H) of a rectangular bar of length `l`, width
/// `w` and thickness `t` (µm), from the Grover/Ruehli closed form
/// `L = (µ0 l / 2π) [ln(2l / (w + t)) + 1/2 + 0.2235 (w + t) / l]`.
pub fn bar_self_l(l: f64, w: f64, t: f64) -> f64 {
    let (l, wt) = (l * UM, (w + t) * UM);
    MU_0 * l / (2.0 * PI) * ((2.0 * l / wt).ln() + 0.5 + 0.2235 * wt / l)
}

/// Mutual inductance (H) of two aligned parallel filaments of length `l`
/// at distance `d` (µm), from Neumann's integral in closed form
/// `M = (µ0 l / 2π) [asinh(l / d) − √(1 + (d / l)²) + d / l]`.
pub fn filament_mutual_l(l: f64, d: f64) -> f64 {
    let (l, d) = (l * UM, d * UM);
    MU_0 * l / (2.0 * PI) * ((l / d).asinh() - (1.0 + (d / l).powi(2)).sqrt() + d / l)
}

/// DC resistance (Ω) of a bar of length `l`, width `w` and thickness `t`
/// (µm) with resistivity `rho` (Ω·m): `ρ l / (w t)`.
pub fn bar_dc_r(rho: f64, l: f64, w: f64, t: f64) -> f64 {
    rho * (l * UM) / ((w * UM) * (t * UM))
}

/// Relative difference of `value` from the reference `truth`.
pub fn rel_err(value: f64, truth: f64) -> f64 {
    (value - truth).abs() / truth.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs()
    }

    #[test]
    fn bar_self_l_matches_hand_value() {
        // l = 1 mm, w + t = 2 µm: µ0 l / 2π = 2e-10 H, bracket
        // ln(1000) + 0.5 + 0.2235 · 0.002 = 7.408202...
        let hand = 2e-10 * (1000f64.ln() + 0.5 + 0.2235 * 0.002);
        assert!(close(bar_self_l(1000.0, 1.0, 1.0), hand, 1e-14));
        // Printed value of the same bracket, to guard the formula itself.
        assert!(close(bar_self_l(1000.0, 1.0, 1.0), 1.481_640_4e-9, 1e-7));
    }

    #[test]
    fn bar_self_l_is_superlinear_in_length() {
        let short = bar_self_l(400.0, 5.0, 2.0);
        assert!(bar_self_l(800.0, 5.0, 2.0) > 2.0 * short);
    }

    #[test]
    fn filament_mutual_l_matches_hand_value() {
        // l = 1 mm, d = 10 µm: asinh(100) = 5.298342365610589,
        // √(1 + 1e-4) = 1.0000499987500625, d / l = 0.01.
        let bracket = 5.298_342_365_610_589 - 1.000_049_998_750_062_5 + 0.01;
        assert!(close(
            filament_mutual_l(1000.0, 10.0),
            2e-10 * bracket,
            1e-14
        ));
        assert!(close(
            filament_mutual_l(1000.0, 10.0),
            8.616_584_7e-10,
            1e-7
        ));
    }

    #[test]
    fn filament_mutual_l_falls_with_distance() {
        assert!(filament_mutual_l(1000.0, 2.0) > filament_mutual_l(1000.0, 4.0));
    }

    #[test]
    fn bar_dc_r_matches_hand_value() {
        // 1 mm of 5 µm x 2 µm copper: 1.72e-8 · 1e-3 / 1e-11 = 1.72 Ω.
        assert!(close(bar_dc_r(1.72e-8, 1000.0, 5.0, 2.0), 1.72, 1e-14));
    }

    #[test]
    fn rel_err_is_relative_to_the_reference() {
        assert!(close(rel_err(1.02, 1.0), 0.02, 1e-12));
        assert!(close(rel_err(-0.98, -1.0), 0.02, 1e-12));
    }
}
