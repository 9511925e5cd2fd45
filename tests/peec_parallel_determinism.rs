//! Thread-count invariance of the parallel fast-PEEC path: building the
//! hierarchical operator, applying it and reducing it to conductor
//! admittances must be **bit-identical** at every thread count. The
//! worker pool shards all fast-operator work by block/cluster/shard index
//! and reduces partial results in a fixed order, so `RLCX_THREADS` may
//! only change wall-clock time — never a single output bit. These
//! properties drive the in-process override (`with_thread_count`) across
//! seeded random geometries from the three fixture families the backend
//! equivalence suite uses, plus a bar-pair family whose operator stores
//! ACA `U·Vᵀ` blocks next to its H² couplings.

use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::numeric::rng::{SplitMix64, UniformRng};
use rlcx::numeric::{with_thread_count, Complex, LinearOperator};
use rlcx::peec::fastop::{conductor_admittance, BlockDiagPrecond, FastZOperator, KernelCache};
use rlcx::peec::MeshSpec;

/// Thread counts the properties sweep: serial, even, and an odd count
/// that exercises ragged index sharding.
const THREADS: [usize; 3] = [1, 2, 7];

/// A meshed fixture: filaments, resistivities, per-filament conductor
/// owner and the shared axial length.
struct Fixture {
    fils: Vec<Bar>,
    rhos: Vec<f64>,
    owner: Vec<usize>,
    n_cond: usize,
    length: f64,
}

fn mesh_bars(bars: Vec<Bar>, mesh: MeshSpec, length: f64) -> Fixture {
    let mut fils = Vec::new();
    let mut owner = Vec::new();
    let n_cond = bars.len();
    for (ci, bar) in bars.iter().enumerate() {
        let fs = mesh.filaments(bar);
        owner.resize(owner.len() + fs.len(), ci);
        fils.extend(fs);
    }
    let rhos = vec![RHO_COPPER; fils.len()];
    Fixture {
        fils,
        rhos,
        owner,
        n_cond,
        length,
    }
}

/// A random coplanar bus: parallel traces with random widths and gaps.
fn random_cpw(rng: &mut SplitMix64, n: usize, mesh: MeshSpec) -> Fixture {
    let len = rng.uniform(300.0, 2500.0);
    let t = rng.uniform(1.0, 3.0);
    let mut y = 0.0;
    let bars = (0..n)
        .map(|_| {
            let w = rng.uniform(1.0, 12.0);
            let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, len, w, t).unwrap();
            y += w + rng.uniform(0.6, 8.0);
            bar
        })
        .collect();
    mesh_bars(bars, mesh, len)
}

/// A random microstrip: one signal trace over a wide return plane.
fn random_microstrip(rng: &mut SplitMix64, mesh: MeshSpec) -> Fixture {
    let len = rng.uniform(300.0, 2500.0);
    let t = rng.uniform(1.0, 3.0);
    let w = rng.uniform(2.0, 12.0);
    let h = rng.uniform(2.0, 6.0);
    let plane_w = rng.uniform(30.0, 80.0);
    let sig = Bar::new(
        Point3::new(0.0, 0.5 * (plane_w - w), 8.0 + h),
        Axis::X,
        len,
        w,
        t,
    )
    .unwrap();
    let plane = Bar::new(Point3::new(0.0, 0.0, 8.0 - t), Axis::X, len, plane_w, t).unwrap();
    mesh_bars(vec![sig, plane], mesh, len)
}

/// A random plane-strip system: well-separated strips over one plane —
/// the geometry class where the H² far field engages.
fn random_plane_strips(rng: &mut SplitMix64, n_strips: usize, mesh: MeshSpec) -> Fixture {
    let len = rng.uniform(300.0, 2000.0);
    let t = rng.uniform(0.8, 2.0);
    let h = rng.uniform(2.0, 5.0);
    let plane_w = rng.uniform(60.0, 120.0);
    let mut bars =
        vec![Bar::new(Point3::new(0.0, 0.0, 8.0 - t), Axis::X, len, plane_w, t).unwrap()];
    let mut y = rng.uniform(2.0, 6.0);
    for _ in 0..n_strips {
        let w = rng.uniform(1.0, 6.0);
        bars.push(Bar::new(Point3::new(0.0, y, 8.0 + h), Axis::X, len, w, t).unwrap());
        y += w + rng.uniform(8.0, 20.0);
    }
    mesh_bars(bars, mesh, len)
}

/// Two pairs of thick bars, each bar meshed 2×24 so that one bar is one
/// 48-filament leaf cluster. Within a pair the gap makes the two leaves
/// admissible but keeps them inside 4× the filament width, so the pair is
/// stored as an ACA `U·Vᵀ` block rather than an H² coupling; the pairs
/// themselves sit far apart and couple through H².
fn random_bar_pairs(rng: &mut SplitMix64) -> Fixture {
    let len = rng.uniform(300.0, 2000.0);
    let w = rng.uniform(3.0, 5.0);
    let t = w * rng.uniform(0.8, 1.2);
    let mut bars = Vec::new();
    for base in [0.0, rng.uniform(80.0, 150.0)] {
        let gap = w * rng.uniform(0.8, 1.4);
        for y in [base, base + w + gap] {
            bars.push(Bar::new(Point3::new(0.0, y, 8.0), Axis::X, len, w, t).unwrap());
        }
    }
    mesh_bars(bars, MeshSpec::new(2, 24), len)
}

/// A deterministic dense excitation.
fn excitation(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
        .collect()
}

/// Builds the operator, applies it once, and reduces to the conductor
/// admittance matrix — the full matrix-free pipeline — at `threads`.
/// Returns the matvec output, the admittance entries and the number of
/// ACA `U·Vᵀ` blocks the operator stores.
fn pipeline_at(fx: &Fixture, omega: f64, threads: usize) -> (Vec<Complex>, Vec<Complex>, usize) {
    with_thread_count(threads, || {
        let kernel = KernelCache::new(fx.length);
        let op = FastZOperator::new(&fx.fils, &fx.rhos, omega, &kernel);
        let x = excitation(fx.fils.len());
        let mut y = vec![Complex::ZERO; fx.fils.len()];
        op.apply(&x, &mut y);
        let pre = BlockDiagPrecond::new(&fx.fils, &fx.rhos, &fx.owner, fx.n_cond, omega, &kernel)
            .expect("preconditioner");
        let yc = conductor_admittance(&op, &pre, &fx.owner, fx.n_cond).expect("admittance");
        let mut flat = Vec::with_capacity(fx.n_cond * fx.n_cond);
        for i in 0..fx.n_cond {
            for j in 0..fx.n_cond {
                flat.push(yc[(i, j)]);
            }
        }
        (y, flat, op.stats().far_blocks)
    })
}

fn assert_bits_equal(label: &str, threads: usize, a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len());
    for (k, (va, vb)) in a.iter().zip(b).enumerate() {
        assert!(
            va.re.to_bits() == vb.re.to_bits() && va.im.to_bits() == vb.im.to_bits(),
            "{label}[{k}] differs at {threads} threads: {va:?} vs {vb:?}"
        );
    }
}

/// Runs the full pipeline at every thread count and demands bit equality
/// with the single-threaded reference. Returns the fixture's ACA block
/// count.
fn check_fixture(name: &str, fx: &Fixture, omega: f64) -> usize {
    let (y1, yc1, far1) = pipeline_at(fx, omega, THREADS[0]);
    for &t in &THREADS[1..] {
        let (yt, yct, fart) = pipeline_at(fx, omega, t);
        assert_bits_equal(&format!("{name}: matvec"), t, &y1, &yt);
        assert_bits_equal(&format!("{name}: admittance"), t, &yc1, &yct);
        assert_eq!(far1, fart, "{name}: ACA block count at {t} threads");
    }
    far1
}

#[test]
fn parallel_pipeline_is_bit_identical_on_random_cpw_buses() {
    let mut rng = SplitMix64::new(0x9A11_C0DE);
    for round in 0..3 {
        let n = 2 + (rng.next_u64() % 3) as usize;
        let fx = random_cpw(&mut rng, n, MeshSpec::new(6, 4));
        let omega = 2.0 * std::f64::consts::PI * rng.uniform(5e8, 8e9);
        check_fixture(&format!("cpw round {round}"), &fx, omega);
    }
}

#[test]
fn parallel_pipeline_is_bit_identical_on_random_microstrips() {
    let mut rng = SplitMix64::new(0x0515_BEEF);
    for round in 0..3 {
        let fx = random_microstrip(&mut rng, MeshSpec::new(6, 4));
        let omega = 2.0 * std::f64::consts::PI * rng.uniform(5e8, 8e9);
        check_fixture(&format!("microstrip round {round}"), &fx, omega);
    }
}

#[test]
fn parallel_pipeline_is_bit_identical_on_random_plane_strips() {
    let mut rng = SplitMix64::new(0x0F1A_757A);
    for round in 0..2 {
        let n = 2 + (rng.next_u64() % 2) as usize;
        let fx = random_plane_strips(&mut rng, n, MeshSpec::new(6, 4));
        let omega = 2.0 * std::f64::consts::PI * rng.uniform(5e8, 8e9);
        check_fixture(&format!("plane-strips round {round}"), &fx, omega);
    }
}

#[test]
fn parallel_pipeline_is_bit_identical_on_random_bar_pairs() {
    let mut rng = SplitMix64::new(0x0ACA_B10C);
    for round in 0..2 {
        let fx = random_bar_pairs(&mut rng);
        let omega = 2.0 * std::f64::consts::PI * rng.uniform(5e8, 8e9);
        let aca_blocks = check_fixture(&format!("bar-pairs round {round}"), &fx, omega);
        assert!(aca_blocks > 0, "bar-pairs round {round}: no ACA block");
    }
}
