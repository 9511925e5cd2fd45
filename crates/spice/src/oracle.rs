//! Dense reference MNA solver for tests.
//!
//! The simulator factors every MNA system with the sparse LU. This module
//! is the independent check on it: it stamps with the same [`stamp_mna`]
//! into a dense [`Matrix`] / [`CMatrix`], factors with the partially
//! pivoted dense LU, and steps with the same `assemble_rhs` /
//! `update_cap_currents` as the fixed-step engine. Agreement between the
//! two isolates the sparse factorization (ordering, threshold pivoting,
//! numeric refactorization, slot-map restamping).

use crate::ac::{source_amplitude, Sweep};
use crate::netlist::{Element, Netlist};
use crate::stamp::{stamp_mna, MnaLayout};
use crate::transient::{assemble_rhs, update_cap_currents, IntegrationMethod, Recorder};
use crate::TransientResult;
use rlcx_numeric::lu::{CLuDecomposition, LuDecomposition};
use rlcx_numeric::{CMatrix, Complex, Matrix};

/// Fixed-step transient on the dense LU: the DC operating point (same
/// gmin and 1 nΩ inductor shorts as the engine, without refinement),
/// then `duration / h` steps.
pub(crate) fn transient(
    nl: &Netlist,
    method: IntegrationMethod,
    h: f64,
    duration: f64,
) -> TransientResult {
    let layout = MnaLayout::new(nl).unwrap();
    let trap = method == IntegrationMethod::Trapezoidal;
    let k = if trap { 2.0 / h } else { 1.0 / h };
    let lu = dense_lu(nl, &layout, 0.0, |c| k * c, |l| k * l, |m| k * m);
    let mut rhs = vec![0.0; layout.dim];
    for (ei, e) in nl.elements.iter().enumerate() {
        if let Element::VSource { wave, .. } = e {
            rhs[layout.branch(ei)] = wave.eval(0.0);
        }
    }
    let dc = dense_lu(nl, &layout, 1e-12, |_| 0.0, |_| 1e-9, |_| 0.0);
    let mut x = dc.solve(&rhs).unwrap();

    let steps = (duration / h).round() as usize;
    let mut rec = Recorder::new(&layout, steps + 1);
    rec.record(0.0, &x);
    let mut cap_current = vec![0.0; nl.elements.len()];
    for step in 1..=steps {
        let t = step as f64 * h;
        assemble_rhs(nl, &layout, &x, &cap_current, t, k, trap, &mut rhs);
        let x_new = lu.solve(&rhs).unwrap();
        update_cap_currents(nl, &x_new, &x, k, trap, &mut cap_current);
        x = x_new;
        rec.record(t, &x);
    }
    rec.finish(nl, &layout, 0)
}

/// Stamps and factors a dense real MNA matrix, `gmin` on node diagonals.
fn dense_lu(
    nl: &Netlist,
    layout: &MnaLayout,
    gmin: f64,
    y_cap: impl Fn(f64) -> f64,
    z_ind: impl Fn(f64) -> f64,
    z_mut: impl Fn(f64) -> f64,
) -> LuDecomposition {
    let mut a = Matrix::zeros(layout.dim, layout.dim);
    for i in 0..layout.nv {
        a[(i, i)] += gmin;
    }
    stamp_mna(nl, layout, y_cap, z_ind, z_mut, |i, j, v| a[(i, j)] += v);
    LuDecomposition::new(&a).unwrap()
}

/// AC sweep on the dense complex LU, one fresh factorization per point.
/// Returns `volts[node][frequency]`, indexed by node id like
/// [`crate::AcResult`].
pub(crate) fn ac(nl: &Netlist, sweep: Sweep) -> Vec<Vec<Complex>> {
    let layout = MnaLayout::new(nl).unwrap();
    let mut rhs = vec![Complex::ZERO; layout.dim];
    for (ei, e) in nl.elements.iter().enumerate() {
        if let Element::VSource { wave, .. } = e {
            rhs[layout.branch(ei)] = Complex::from_real(source_amplitude(wave));
        }
    }
    let mut volts = vec![Vec::new(); nl.node_count()];
    for f in sweep.frequencies() {
        let jw = Complex::from_imag(2.0 * std::f64::consts::PI * f);
        let mut a = CMatrix::zeros(layout.dim, layout.dim);
        stamp_mna(
            nl,
            &layout,
            |c| jw * c,
            |l| jw * l,
            |m| jw * m,
            |i, j, v| a[(i, j)] += v,
        );
        let x = CLuDecomposition::new(&a).unwrap().solve(&rhs).unwrap();
        volts[0].push(Complex::ZERO);
        for (col, &v) in volts[1..].iter_mut().zip(&x) {
            col.push(v);
        }
    }
    volts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::Ac;
    use crate::{Transient, Waveform, GROUND};

    /// The `exp_mna_scaling` clock tree: a ramp source and 30 Ω driver,
    /// two children per node, each branch 3 series R–L sections with a
    /// shunt C (values halving per level), and a load capacitor per leaf —
    /// the series-RL, shunt-C ladder shape the tree extractor emits.
    fn h_tree(depth: usize) -> Netlist {
        let mut nl = Netlist::new();
        let root = nl.node("root");
        nl.vsource("Vdrv", root, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        let drv = nl.node("drv");
        nl.resistor("Rdrv", root, drv, 30.0).unwrap();
        let mut frontier = vec![drv];
        let mut id = 0usize;
        for level in 0..depth {
            let s = 0.5f64.powi(level as i32) / 3.0;
            let mut next = Vec::new();
            for parent in std::mem::take(&mut frontier) {
                for _ in 0..2 {
                    let mut prev = parent;
                    for _ in 0..3 {
                        id += 1;
                        let mid = nl.node(format!("m{id}"));
                        let out = nl.node(format!("n{id}"));
                        nl.resistor(&format!("R{id}"), prev, mid, 4.0 * s).unwrap();
                        nl.inductor(&format!("L{id}"), mid, out, 0.5e-9 * s)
                            .unwrap();
                        nl.capacitor(&format!("C{id}"), out, GROUND, 20e-15 * s)
                            .unwrap();
                        prev = out;
                    }
                    next.push(prev);
                }
            }
            frontier = next;
        }
        for (k, &leaf) in frontier.iter().enumerate() {
            nl.capacitor(&format!("Cload{k}"), leaf, GROUND, 5e-15)
                .unwrap();
        }
        nl
    }

    #[test]
    fn htree_transient_and_ac_match_dense_oracle() {
        // Errors are relative to max(|reference|, 1), so deeply attenuated
        // samples compare at roundoff against the 1 V drive.
        let nl = h_tree(4);
        assert!(MnaLayout::new(&nl).unwrap().dim >= 129);

        let dense = transient(&nl, IntegrationMethod::Trapezoidal, 1e-12, 80e-12);
        let sparse = Transient::new(&nl)
            .timestep(1e-12)
            .duration(80e-12)
            .run()
            .unwrap();
        let mut trans_err = 0.0f64;
        for name in sparse.node_names() {
            let vd = dense.voltage(name).unwrap();
            for (d, s) in vd.iter().zip(sparse.voltage(name).unwrap()) {
                trans_err = trans_err.max((d - s).abs() / d.abs().max(1.0));
            }
        }
        assert!(trans_err <= 1e-9, "transient max rel err {trans_err:e}");

        let sweep = Sweep::log(1e8, 5e10, 12);
        let dense = ac(&nl, sweep);
        let sparse = Ac::new(&nl).sweep(sweep).run().unwrap();
        let mut ac_err = 0.0f64;
        for (vd, name) in dense
            .iter()
            .zip((0..nl.node_count()).map(|i| nl.node_name(crate::NodeId(i))))
        {
            for (d, s) in vd.iter().zip(sparse.voltage(name).unwrap()) {
                ac_err = ac_err.max((*d - *s).abs() / d.abs().max(1.0));
            }
        }
        assert!(ac_err <= 1e-9, "AC max rel err {ac_err:e}");
    }
}
