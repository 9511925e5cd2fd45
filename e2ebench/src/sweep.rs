//! Field-solver frequency sweep of the E12 G-S-G coplanar waveguide on the
//! matrix-free backend (`fastop`, H² far field, block preconditioner,
//! GMRES).
//!
//! One frequency point is one [`PartialSystem::impedance_at_backend`] call
//! with [`SolverBackend::Iterative`]. Its `mesh`, `assemble`, `factor` and
//! `reduce` stage timings are the traced layers.

use crate::oracle::{bar_dc_r, rel_err};
use crate::{counter, gauge, hist_sum, Layers};
use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::numeric::{CMatrix, Timings};
use rlcx::peec::loop_l::loop_impedance;
use rlcx::peec::{Conductor, MeshSpec, PartialSystem, SolverBackend};
use std::f64::consts::PI;
use std::time::Instant;

/// Conductor length (µm).
const LENGTH: f64 = 1000.0;
/// Metal thickness (µm).
const THICKNESS: f64 = 2.0;
/// (y offset, width) of ground, signal, ground (µm): 5 µm grounds flanking
/// a 10 µm signal at 1 µm gaps.
const TRACES: [(f64, f64); 3] = [(0.0, 5.0), (6.0, 10.0), (17.0, 5.0)];
/// Index of the signal conductor.
const SIGNAL: usize = 1;

/// The coarse mesh on which the Dense and Iterative backends are compared
/// (3 x 12 x 8 = 288 filaments).
pub const COARSE_MESH: (usize, usize) = (12, 8);

/// Reciprocity: |Z_ij − Z_ji| relative to the largest |Z| entry.
pub const RECIPROCITY_TOL: f64 = 1e-9;
/// Dense vs Iterative agreement, relative to the largest |Z| entry.
pub const BACKEND_TOL: f64 = 1e-9;

/// The E12 coplanar waveguide.
pub fn cpw() -> PartialSystem {
    TRACES
        .into_iter()
        .map(|(y, w)| {
            let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, LENGTH, w, THICKNESS)
                .expect("positive bar dimensions");
            Conductor::new(bar, RHO_COPPER).expect("positive resistivity")
        })
        .collect()
}

/// One solve. Returns Z, the stage timings and the wall time.
pub fn solve(
    sys: &PartialSystem,
    f: f64,
    mesh: (usize, usize),
    backend: SolverBackend,
) -> Result<(CMatrix, Timings, f64), String> {
    let mut timings = Timings::new();
    let t0 = Instant::now();
    let z = sys
        .impedance_at_backend(f, |_| MeshSpec::new(mesh.0, mesh.1), backend, &mut timings)
        .map_err(|e| e.to_string())?;
    Ok((z, timings, t0.elapsed().as_secs_f64()))
}

/// The traced frequency point: the same call, with its stage timings and
/// the solver's counters recorded. Returns Z and the wall time.
pub fn solve_traced(
    sys: &PartialSystem,
    f: f64,
    mesh: (usize, usize),
    layers: &mut Layers,
) -> Result<(CMatrix, f64), String> {
    let (hits, misses) = (
        counter("fastop.kernel.hits"),
        counter("fastop.kernel.misses"),
    );
    let iters = hist_sum("gmres.iters");
    let (z, timings, wall) = solve(sys, f, mesh, SolverBackend::Iterative)?;
    let stage = |label: &str| timings.get(label).map_or(0.0, |d| d.as_secs_f64());
    layers.add("peec.mesh_s", stage("mesh"));
    layers.add("peec.operator_build_s", stage("assemble"));
    layers.add("peec.precond_s", stage("factor"));
    layers.add("peec.gmres_s", stage("reduce"));
    layers.add("peec.gmres.iters", hist_sum("gmres.iters") - iters);
    let (hits, misses) = (
        counter("fastop.kernel.hits") - hits,
        counter("fastop.kernel.misses") - misses,
    );
    layers.add("peec.kernel.misses", misses as f64);
    layers.add("kernel.hits", hits as f64);
    layers.add("peec.dense_fallbacks", gauge("fastop.dense.fallbacks"));
    layers.max(
        "peec.far_mem_mib",
        gauge("fastop.far.mem.f64") * 8.0 / (1024.0 * 1024.0),
    );
    Ok((z, wall))
}

fn largest_entry(z: &CMatrix) -> f64 {
    let mut scale = 0.0f64;
    for i in 0..z.rows() {
        for j in 0..z.cols() {
            scale = scale.max(z[(i, j)].abs());
        }
    }
    scale
}

/// Per-conductor (R, L) from the diagonal of Z at `f`.
pub fn diagonal_rl(z: &CMatrix, f: f64) -> Vec<(f64, f64)> {
    let omega = 2.0 * PI * f;
    (0..z.rows())
        .map(|i| (z[(i, i)].re, z[(i, i)].im / omega))
        .collect()
}

/// Checks one frequency point on its own: reciprocity, R at or above DC,
/// and a loop L that is positive and below the signal's partial self-L.
/// `prev` is the previous point's diagonal (R, L): R must not fall and L
/// must not rise with frequency.
pub fn check_point(z: &CMatrix, f: f64, prev: Option<&[(f64, f64)]>) -> Vec<String> {
    let mut failures = Vec::new();
    let scale = largest_entry(z);
    for i in 0..z.rows() {
        for j in 0..i {
            let asym = (z[(i, j)] - z[(j, i)]).abs() / scale;
            if asym > RECIPROCITY_TOL {
                failures.push(format!("Z[{i}][{j}] and Z[{j}][{i}] differ by {asym:e}"));
            }
        }
    }
    let rl = diagonal_rl(z, f);
    for (i, &(r, l)) in rl.iter().enumerate() {
        let (_, w) = TRACES[i];
        let r_dc = bar_dc_r(RHO_COPPER, LENGTH, w, THICKNESS);
        if r < r_dc {
            failures.push(format!(
                "conductor {i}: R {r} is below DC {r_dc} (by {:e})",
                rel_err(r, r_dc)
            ));
        }
        if let Some(&(r0, l0)) = prev.and_then(|p| p.get(i)) {
            if r < r0 {
                failures.push(format!(
                    "conductor {i}: R falls from {r0} to {r} at {f:e} Hz"
                ));
            }
            if l > l0 {
                failures.push(format!(
                    "conductor {i}: L rises from {l0:e} to {l:e} at {f:e} Hz"
                ));
            }
        }
    }
    match loop_impedance(z, &[SIGNAL], &[0, 2]) {
        Ok(zl) => {
            let loop_l = zl[(0, 0)].im / (2.0 * PI * f);
            let partial = rl[SIGNAL].1;
            if !(loop_l > 0.0 && loop_l < partial) {
                failures.push(format!(
                    "loop L {loop_l:e} is not within (0, partial self-L {partial:e})"
                ));
            }
        }
        Err(e) => failures.push(format!("loop impedance: {e}")),
    }
    failures
}

/// Dense and Iterative backends on the coarse mesh at `f` agree to
/// [`BACKEND_TOL`]. Runs outside the timed phase.
pub fn check_backends(sys: &PartialSystem, f: f64) -> Result<Vec<String>, String> {
    let (dense, _, _) = solve(sys, f, COARSE_MESH, SolverBackend::Dense)?;
    let (iter, _, _) = solve(sys, f, COARSE_MESH, SolverBackend::Iterative)?;
    let scale = largest_entry(&dense);
    let mut worst = 0.0f64;
    for i in 0..dense.rows() {
        for j in 0..dense.cols() {
            worst = worst.max((dense[(i, j)] - iter[(i, j)]).abs() / scale);
        }
    }
    Ok(if worst <= BACKEND_TOL {
        Vec::new()
    } else {
        vec![format!(
            "Dense and Iterative differ by {worst:e} at {f:e} Hz"
        )]
    })
}

/// Z from two calls must match bit for bit.
pub fn check_traced(untraced: &CMatrix, traced: &CMatrix) -> Vec<String> {
    let mut same = untraced.rows() == traced.rows() && untraced.cols() == traced.cols();
    for i in 0..untraced.rows().min(traced.rows()) {
        for j in 0..untraced.cols().min(traced.cols()) {
            let (a, b) = (untraced[(i, j)], traced[(i, j)]);
            same &= a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits();
        }
    }
    if same {
        Vec::new()
    } else {
        vec!["the traced solve does not reproduce the untraced Z bit for bit".into()]
    }
}
