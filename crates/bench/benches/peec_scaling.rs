//! Field-solver scaling: dense PEEC solve cost vs conductor count and
//! filament mesh — the cost the table method amortizes away — plus the
//! serial-vs-parallel assembly comparison for the scoped-thread engine.
//!
//! The parallel section reports the speedup of `RLCX_THREADS`-many threads
//! over one thread on n ≥ 64-filament assemblies; on a multi-core machine
//! it should approach the core count (the assembly is embarrassingly
//! parallel), while on a single core it stays near 1×.

use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::numeric::parallel::{thread_count, with_thread_count};
use rlcx::peec::{Conductor, MeshSpec, PartialSystem};
use rlcx_bench::harness::Bench;
use std::hint::black_box;

fn bus(n: usize) -> PartialSystem {
    (0..n)
        .map(|i| {
            let bar = Bar::new(
                Point3::new(0.0, i as f64 * 3.0, 9.4),
                Axis::X,
                500.0,
                2.0,
                2.0,
            )
            .unwrap();
            Conductor::new(bar, RHO_COPPER).unwrap()
        })
        .collect()
}

fn main() {
    println!("peec_scaling");
    for n in [2usize, 4, 8, 12] {
        let sys = bus(n);
        Bench::new(format!("conductors/{n}"))
            .run(|| black_box(sys.rl_at(3.2e9, MeshSpec::new(2, 2)).unwrap()));
    }
    for (nw, nt) in [(1, 1), (2, 2), (4, 2), (6, 3)] {
        let sys = bus(3);
        Bench::new(format!("mesh/{nw}x{nt}"))
            .run(|| black_box(sys.rl_at(3.2e9, MeshSpec::new(nw, nt)).unwrap()));
    }
    let sys = bus(8);
    Bench::new("dc_lp_matrix_8").run(|| black_box(sys.lp_matrix()));

    // Serial vs parallel assembly on a 96-conductor bus: 4560 closed-form
    // mutual GMD kernels per fill.
    let threads = thread_count();
    let big = bus(96);
    let t1 =
        Bench::new("lp_matrix_96/serial_1_thread").run(|| black_box(big.lp_matrix_with_threads(1)));
    let tn = Bench::new(format!("lp_matrix_96/parallel_{threads}_threads"))
        .run(|| black_box(big.lp_matrix_with_threads(threads)));
    println!(
        "parallel assembly speedup on {threads} thread(s): {:.2}x",
        t1 / tn
    );

    // The frequency-dependent path: 16 conductors × (2×2 mesh) = 64
    // filaments. Thread count comes from RLCX_THREADS / the machine.
    let sys = bus(16);
    let t1 = with_thread_count(1, || {
        Bench::new("impedance_64_filaments/serial_1_thread")
            .run(|| black_box(sys.rl_at(3.2e9, MeshSpec::new(2, 2)).unwrap()))
    });
    let tn = Bench::new(format!("impedance_64_filaments/parallel_{threads}_threads"))
        .run(|| black_box(sys.rl_at(3.2e9, MeshSpec::new(2, 2)).unwrap()));
    println!(
        "parallel 64-filament solve speedup on {threads} thread(s): {:.2}x",
        t1 / tn
    );
}
