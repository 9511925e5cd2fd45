//! E12 (fast PEEC operator) — dense vs matrix-free Krylov filament solves,
//! and the H² operator's build, matvec and memory at scale.
//!
//! The dense PEEC path assembles the full n×n partial-inductance matrix and
//! LU-factors the complex filament impedance — O(n²) kernel evaluations and
//! O(n³) factorization. The `SolverBackend::Iterative` path replaces both:
//! translation-invariance kernel caching collapses the distinct partial-L
//! evaluations to the distinct relative displacements, a cluster tree with
//! compressed far blocks shrinks the operator, and a block-diagonal
//! preconditioned GMRES solves the conductor-reduction systems matrix-free.
//! This experiment sweeps a coplanar waveguide through finer and finer
//! filament meshes, times both backends on identical systems, and checks
//! they agree to far beyond table accuracy.
//!
//! Two operator-level sections extend the sweep:
//! * **the H² operator at 4032 filaments** — build time, matvec time and
//!   far-field memory, plus an entrywise agreement check against the
//!   dense kernel-cache-assembled `Z` apply (gated at 1e-9),
//! * **a 10⁴-filament point (10080)** — the operator built and applied
//!   fully in-core, with the same wall-clock and memory figures.
//!
//! Bounded figures (`ci/baselines/exp_peec_scaling.json`):
//! * `agree.max_rel_err` — backend agreement on the conductor impedance
//!   matrix across every mesh size,
//! * `speedup.largest` — iterative advantage at the largest dense mesh,
//! * `gmres.iters.max` — Krylov iteration count stays bounded (the
//!   block-diagonal preconditioner is doing its job),
//! * `aca.rank.max` — far-field blocks stay genuinely low-rank,
//! * `fastop.kernel.hit_rate` — displacement memoization eliminates almost
//!   all kernel evaluations on regular meshes,
//! * `h2.agree.n4032` — H² operator apply matches the dense Z apply,
//! * `h2.basis.rank.max` — H² cluster bases stay low-rank.
//!
//! The same spec's baseline also gates `h2.mem.mb.*`, the far-field
//! memory at both operator points.
//!
//! The extension (PR 10) adds a **thread-scaling sweep** at the 10080
//! point: the operator is built and applied at `RLCX_THREADS` ∈ {1, 2, 4,
//! 8} via `with_thread_count`, every matvec result is asserted
//! bit-identical to the single-threaded run, and CI gates
//! `fastop.build.par_speedup` (build, 1→8 threads) plus
//! `fastop.par_speedup.combined8` (build + 20 matvecs, the shape of one
//! GMRES solve) and `pool.tasks` (the persistent pool actually ran). The
//! two speedup bounds carry `min_cores: 4` and are skipped on machines
//! with fewer cores, where 8 threads cannot reach them.

use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::numeric::{with_thread_count, CMatrix, Complex, LinearOperator};
use rlcx::obs::{self, MetricValue, RunReport};
use rlcx::peec::fastop::{FastZOperator, KernelCache};
use rlcx::peec::{Conductor, MeshSpec, PartialSystem, SolverBackend};
use std::time::Instant;

/// Trace length (µm): long enough that partial L dominates resistance at
/// the significant frequency.
const LENGTH: f64 = 1000.0;

/// Significant frequency for 100 ps edges.
const F_SIG: f64 = 3.2e9;

/// G-S-G coplanar waveguide cross-section: 5 µm grounds flanking a 10 µm
/// signal at 1 µm gaps, 2 µm thick copper at z = 10 µm.
const TRACES: [(f64, f64); 3] = [(0.0, 5.0), (6.0, 10.0), (17.0, 5.0)];

/// Builds the coplanar waveguide every sweep point solves.
fn cpw() -> PartialSystem {
    TRACES
        .into_iter()
        .map(|(y, w)| {
            let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, LENGTH, w, 2.0).expect("bar");
            Conductor::new(bar, RHO_COPPER).expect("conductor")
        })
        .collect()
}

/// The CPW meshed into filaments directly (operator-level benchmarks).
fn cpw_filaments(mesh: MeshSpec) -> (Vec<Bar>, Vec<f64>) {
    let mut fils = Vec::new();
    for (y, w) in TRACES {
        let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, LENGTH, w, 2.0).expect("bar");
        fils.extend(mesh.filaments(&bar));
    }
    let rhos = vec![RHO_COPPER; fils.len()];
    (fils, rhos)
}

/// Solves the CPW on `backend`, returning (Z matrix, seconds).
fn solve(mesh: MeshSpec, backend: SolverBackend) -> (CMatrix, f64) {
    let sys = cpw();
    let t0 = Instant::now();
    let z = sys
        .impedance_at_with_backend(F_SIG, |_| mesh, backend)
        .expect("impedance solve");
    (z, t0.elapsed().as_secs_f64())
}

/// Max entrywise disagreement relative to the largest dense entry.
fn max_rel_err(dense: &CMatrix, iter: &CMatrix) -> f64 {
    let mut scale = 0.0f64;
    let mut err = 0.0f64;
    for i in 0..dense.rows() {
        for j in 0..dense.cols() {
            scale = scale.max(dense[(i, j)].abs());
        }
    }
    for i in 0..dense.rows() {
        for j in 0..dense.cols() {
            err = err.max((dense[(i, j)] - iter[(i, j)]).abs() / scale);
        }
    }
    err
}

fn hist_max(name: &str) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Histogram { max, .. }) => max,
        _ => f64::NAN,
    }
}

fn counter(name: &str) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Counter(n)) => n as f64,
        _ => 0.0,
    }
}

fn gauge(name: &str) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Gauge(g)) => g,
        _ => 0.0,
    }
}

/// A deterministic test excitation.
fn excitation(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
        .collect()
}

/// Average seconds per `op.apply` over `reps` repetitions.
fn time_matvec(op: &FastZOperator, x: &[Complex], reps: usize) -> f64 {
    let mut y = vec![Complex::ZERO; x.len()];
    let t0 = Instant::now();
    for _ in 0..reps {
        op.apply(x, std::hint::black_box(&mut y));
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Builds the operator on one meshed CPW, times the build and the matvec,
/// reports far-field memory, and (optionally, for sizes where the n²
/// kernel table fits comfortably) checks the apply against the dense
/// kernel-cache-assembled `Z` apply. Returns the H²/dense agreement (0.0
/// when skipped).
fn operator_point(report: &mut RunReport, nw: usize, nt: usize, dense_check: bool) -> f64 {
    let mesh = MeshSpec::new(nw, nt);
    let (fils, rhos) = cpw_filaments(mesh);
    let n = fils.len();
    let omega = 2.0 * std::f64::consts::PI * F_SIG;

    let kern = KernelCache::new(LENGTH);
    let t0 = Instant::now();
    let op = FastZOperator::new(&fils, &rhos, omega, &kern);
    let build = t0.elapsed().as_secs_f64();

    let x = excitation(n);
    let reps = if n > 8000 { 5 } else { 10 };
    let mv = time_matvec(&op, &x, reps);
    let st = op.stats();
    let mem_mb = st.far_mem_f64 as f64 * 8.0 / 1e6;

    println!(
        "{:>6} {n:>10} {:>10.0} {:>11.2} {mem_mb:>9.2} {:>9} {:>10} {:>8}",
        format!("{nw}x{nt}"),
        build * 1e3,
        mv * 1e3,
        st.h2_max_rank,
        st.h2_couplings,
        st.far_blocks,
    );

    report.figure(format!("h2.build.s.n{n}"), build);
    report.figure(format!("h2.matvec.s.n{n}"), mv);
    report.figure(format!("h2.mem.mb.n{n}"), mem_mb);

    if !dense_check {
        return 0.0;
    }
    // Dense reference: the full kernel table (memoized fill) applied the
    // same way the operator applies it.
    let rows: Vec<usize> = (0..n).collect();
    let mut k = vec![0.0f64; n * n];
    kern.fill_block(&fils, &rows, &rows, &mut k);
    let mut w = vec![Complex::ZERO; n];
    for (i, wi) in w.iter_mut().enumerate() {
        let krow = &k[i * n..(i + 1) * n];
        let mut acc = Complex::ZERO;
        for (kij, xj) in krow.iter().zip(&x) {
            acc += *xj * *kij;
        }
        *wi = acc;
    }
    let r = op.resistances();
    let y_dense: Vec<Complex> = (0..n)
        .map(|i| x[i].scale(r[i]) + Complex::new(-omega * w[i].im, omega * w[i].re))
        .collect();
    let mut y_h2 = vec![Complex::ZERO; n];
    op.apply(&x, &mut y_h2);
    let scale = y_dense.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let agree = y_h2
        .iter()
        .zip(&y_dense)
        .map(|(a, b)| (*a - *b).abs() / scale)
        .fold(0.0, f64::max);
    println!("       H² vs dense-Z apply: {agree:.2e} max rel err");
    report.figure(format!("h2.agree.n{n}"), agree);
    agree
}

/// Thread-scaling sweep on the H² operator: builds and applies the same
/// meshed CPW at 1, 2, 4 and 8 threads (in-process via
/// `with_thread_count`, so one run covers the whole sweep), asserts every
/// matvec is bit-identical to the single-threaded result, and reports the
/// 1→8-thread speedups. The combined figure weighs one build plus 20
/// matvecs — the shape of a typical preconditioned GMRES solve.
fn thread_sweep(report: &mut RunReport, nw: usize, nt: usize) {
    let mesh = MeshSpec::new(nw, nt);
    let (fils, rhos) = cpw_filaments(mesh);
    let n = fils.len();
    let omega = 2.0 * std::f64::consts::PI * F_SIG;
    let x = excitation(n);

    println!("\nthread scaling at {n} filaments (H² build + matvec)");
    println!(
        "{:>8} {:>12} {:>13} {:>10}",
        "threads", "build (ms)", "matvec (ms)", "combined"
    );
    let mut curve: Vec<(usize, f64, f64)> = Vec::new();
    let mut y_ref: Option<Vec<Complex>> = None;
    for &t in &[1usize, 2, 4, 8] {
        let (build_s, mv_s, y) = with_thread_count(t, || {
            let kern = KernelCache::new(LENGTH);
            let t0 = Instant::now();
            let op = FastZOperator::new(&fils, &rhos, omega, &kern);
            let build_s = t0.elapsed().as_secs_f64();
            let mv_s = time_matvec(&op, &x, 5);
            let mut y = vec![Complex::ZERO; n];
            op.apply(&x, &mut y);
            (build_s, mv_s, y)
        });
        match &y_ref {
            None => y_ref = Some(y),
            Some(r) => {
                let identical = y.iter().zip(r.iter()).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(
                    identical,
                    "{t}-thread matvec must be bit-identical to the 1-thread result"
                );
            }
        }
        println!(
            "{t:>8} {:>12.0} {:>13.2} {:>10.0}",
            build_s * 1e3,
            mv_s * 1e3,
            (build_s + 20.0 * mv_s) * 1e3
        );
        report.figure(format!("par.build.s.t{t}"), build_s);
        report.figure(format!("par.matvec.s.t{t}"), mv_s);
        curve.push((t, build_s, mv_s));
    }
    let (_, b1, m1) = curve[0];
    let (_, b8, m8) = *curve.last().expect("sweep point");
    let build_speedup = b1 / b8;
    let combined = (b1 + 20.0 * m1) / (b8 + 20.0 * m8);
    println!(
        "       1→8 threads: build {build_speedup:.2}x, matvec {:.2}x, combined {combined:.2}x (all matvecs bit-identical)",
        m1 / m8
    );
    report.figure("fastop.build.par_speedup", build_speedup);
    report.figure("fastop.matvec.par_speedup", m1 / m8);
    report.figure("fastop.par_speedup.combined8", combined);
    report.figure("pool.tasks", counter("pool.tasks"));
}

fn main() {
    println!("E12: dense vs matrix-free Krylov PEEC filament solves");
    println!("======================================================");
    let mut report = rlcx_bench::report("exp_peec_scaling");

    // (nw, nt) per conductor → 3·nw·nt total filaments: 72 … 2016.
    let meshes = [(6usize, 4usize), (12, 8), (24, 12), (42, 16)];
    let mut agree = 0.0f64;
    let mut speedup_largest = 0.0f64;

    println!(
        "\n{:>6} {:>10} {:>12} {:>12} {:>9} {:>12}",
        "mesh", "filaments", "dense (ms)", "iter (ms)", "speedup", "max rel err"
    );
    for &(nw, nt) in &meshes {
        let mesh = MeshSpec::new(nw, nt);
        let n = 3 * nw * nt;
        let (zd, td) = solve(mesh, SolverBackend::Dense);
        let (zi, ti) = solve(mesh, SolverBackend::Iterative);
        let err = max_rel_err(&zd, &zi);
        agree = agree.max(err);
        let speedup = td / ti;
        speedup_largest = speedup; // last iteration = largest mesh
        println!(
            "{:>6} {n:>10} {:>12.1} {:>12.1} {speedup:>8.1}x {err:>12.2e}",
            format!("{nw}x{nt}"),
            td * 1e3,
            ti * 1e3
        );
        report.figure(format!("dense.s.n{n}"), td);
        report.figure(format!("iter.s.n{n}"), ti);
        report.figure(format!("agree.n{n}"), err);
    }

    // Operator level: the H² far field at 4k and 10k filaments.
    println!("\nH² operator (operator level)");
    println!(
        "{:>6} {:>10} {:>10} {:>11} {:>9} {:>9} {:>10} {:>8}",
        "mesh", "filaments", "build(ms)", "matvec(ms)", "far MB", "h2 rank", "couplings", "aca blk"
    );
    let h2_agree = operator_point(&mut report, 42, 32, true); // 4032, dense-gated
    operator_point(&mut report, 60, 56, false); // 10080: the 10⁴ in-core point

    thread_sweep(&mut report, 60, 56); // the same 10⁴ point across thread counts

    let gmres_iters = hist_max("gmres.iters");
    let aca_rank = hist_max("aca.rank");
    let h2_rank = hist_max("h2.basis.rank");
    let (hits, misses) = (
        counter("fastop.kernel.hits"),
        counter("fastop.kernel.misses"),
    );
    let hit_rate = hits / (hits + misses).max(1.0);

    println!("\nbackend agreement: {agree:.2e} max rel err");
    println!("H²/dense operator agreement at 4032 filaments: {h2_agree:.2e}");
    println!("iterative speedup at 2016 filaments: {speedup_largest:.1}x");
    println!("worst GMRES iteration count: {gmres_iters:.0}");
    println!("largest accepted ACA far-block rank: {aca_rank:.0}");
    println!("largest H² cluster-basis rank: {h2_rank:.0}");
    println!(
        "kernel cache: {hits:.0} hits / {misses:.0} misses = {:.2}% hit rate",
        hit_rate * 100.0
    );
    println!("→ memoized closed-form kernels + nested-basis far field turn the dense");
    println!("  O(n²)/O(n³) pipeline into an O(n)-memory preconditioned Krylov solve.");

    report.figure("agree.max_rel_err", agree);
    report.figure("speedup.largest", speedup_largest);
    report.figure("gmres.iters.max", gmres_iters);
    report.figure("aca.rank.max", aca_rank);
    report.figure("h2.basis.rank.max", h2_rank);
    report.figure("fastop.kernel.hit_rate", hit_rate);
    report.figure("aca.rank_cap.hits", counter("aca.rank_cap.hits"));
    report.figure("fastop.dense.fallbacks", gauge("fastop.dense.fallbacks"));
    rlcx_bench::finish_report(report);
}
