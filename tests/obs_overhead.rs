//! Zero-overhead guarantee: with `RLCX_TRACE=off` the span API must not
//! allocate on the hot path — an inert guard is returned and dropped with
//! no heap traffic.
//!
//! This lives in its own test binary because it installs a counting
//! `#[global_allocator]` and pins the trace level for the whole process;
//! sharing a binary with other observability tests would race on both.

use rlcx::obs::{self, TraceLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Counts are per thread
    /// because a process-wide counter also sees the test harness
    /// allocating on other threads while a test measures. A `const`
    /// initializer with no destructor keeps the access itself
    /// allocation-free.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_do_not_allocate() {
    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    // Warm the thread-local span stack and any lazily-initialized state so
    // one-time setup costs are not charged to the measured region.
    for _ in 0..4 {
        let _s = obs::span("obs.warmup");
    }

    let before = thread_allocations();
    for _ in 0..10_000 {
        let _outer = obs::span("obs.hot");
        let _inner = obs::span("obs.hot.nested");
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "RLCX_TRACE=off spans must be allocation-free"
    );
}

/// The transient per-step loop must be heap-allocation-free. Proof by
/// invariance: the result buffers are sized up front with
/// `with_capacity` (one allocation each, regardless of length), so if
/// the step loop itself never allocates, a 500-step run
/// performs *exactly* as many allocations as a 50-step run of the same
/// fresh circuit. Any per-step `Vec`, boxing, or map insert would make
/// the counts diverge by hundreds. The transient engine is single-threaded,
/// so the calling thread's count covers the whole run.
#[test]
fn transient_step_loop_does_not_allocate() {
    use rlcx::spice::{Netlist, Transient, Waveform, GROUND};

    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    fn ladder(sections: usize) -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        let mut prev = inp;
        for i in 0..sections {
            let mid = nl.node(format!("m{i}"));
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 10.0).unwrap();
            nl.inductor(&format!("L{i}"), mid, out, 0.5e-9).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 20e-15).unwrap();
            prev = out;
        }
        nl
    }

    fn allocs_for_run(steps: usize) -> u64 {
        // 30 sections → 92 unknowns: the sparse path at scale.
        let nl = ladder(30);
        let before = thread_allocations();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(steps as f64 * 1e-12)
            .run()
            .unwrap();
        let after = thread_allocations();
        assert_eq!(res.time().len(), steps + 1);
        after - before
    }

    // Warm one-time lazy state (metric name registration, etc.) so it is
    // not charged to either measured run.
    let _ = allocs_for_run(8);
    let short = allocs_for_run(50);
    let long = allocs_for_run(500);
    assert_eq!(
        short, long,
        "allocation count must not grow with step count"
    );
}

/// The adaptive engine's accepted-step hot loop (attempt, LTE estimate,
/// restamp + numeric-only refactorization on step-size changes) must be
/// heap-free too. Same invariance argument as above: a 4× longer window
/// takes ~4× the accepted steps, so any per-step allocation would make
/// the counts diverge.
#[test]
fn adaptive_step_loop_does_not_allocate() {
    use rlcx::spice::{AdaptiveOptions, Netlist, Stepping, Transient, Waveform, GROUND};

    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    fn ladder(sections: usize) -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        let mut prev = inp;
        for i in 0..sections {
            let mid = nl.node(format!("m{i}"));
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 10.0).unwrap();
            nl.inductor(&format!("L{i}"), mid, out, 0.5e-9).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 20e-15).unwrap();
            prev = out;
        }
        nl
    }

    fn allocs_for_run(window_ps: usize) -> u64 {
        let nl = ladder(30);
        let before = thread_allocations();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(window_ps as f64 * 1e-12)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .run()
            .unwrap();
        let after = thread_allocations();
        assert!(res.steps_accepted() > 0);
        after - before
    }

    let _ = allocs_for_run(16); // warm lazy metric state
    let short = allocs_for_run(200);
    let long = allocs_for_run(800);
    assert_eq!(
        short, long,
        "adaptive allocation count must not grow with step count"
    );
}

/// A run under a stop rule watches its nodes from state resolved before
/// the step loop, so stopping adds no per-step allocation either. Runs
/// stopped at the same crossing allocate alike whatever the window bound
/// (the recorder's pre-size is one allocation per column at any size),
/// and a watched run that never stops allocates alike at 50 and 500 steps.
#[test]
fn stopped_transient_does_not_allocate_per_step() {
    use rlcx::spice::{Netlist, Transient, Waveform, GROUND};

    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    /// 30 R–C sections behind a 20 ps ramp: 62 unknowns.
    fn rc_ladder() -> Netlist {
        let mut nl = Netlist::new();
        let mut prev = nl.node("in");
        nl.vsource("V", prev, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        for i in 0..30 {
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, out, 10.0).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 20e-15).unwrap();
            prev = out;
        }
        nl
    }

    fn allocs_for_run(steps: usize, threshold: f64) -> (u64, usize) {
        let nl = rc_ladder();
        let before = thread_allocations();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(steps as f64 * 1e-12)
            .stop_when_crossed(["in", "n0", "n5"], threshold, true)
            .run()
            .unwrap();
        let after = thread_allocations();
        (after - before, res.time().len())
    }

    let _ = allocs_for_run(8, 0.5); // warm lazy metric state
    let _ = allocs_for_run(400, 0.5);
    let (short, short_len) = allocs_for_run(400, 0.5);
    let (long, long_len) = allocs_for_run(40_000, 0.5);
    assert!(
        short_len < 400 && short_len == long_len,
        "{short_len} vs {long_len}"
    );
    assert_eq!(
        short, long,
        "a stopped run's allocations must not grow with the window"
    );
    // 2 V is never reached: the watch runs every step of the window.
    let (short, short_len) = allocs_for_run(50, 2.0);
    let (long, long_len) = allocs_for_run(500, 2.0);
    assert_eq!((short_len, long_len), (51, 501));
    assert_eq!(short, long, "watching must not allocate per step");
}

/// The sharded metric store (PR 7): after a metric's first touch interns
/// its name and lazily allocates the histogram buckets, the hot path —
/// counter adds and histogram observes — is pure atomic arithmetic.
/// Asserted both with tracing off and with tracing on (the metric path is
/// independent of the span level), plus a generous wall-clock bound per
/// operation to catch accidental lock convoys.
#[test]
fn sharded_metrics_are_allocation_free_and_bounded() {
    let _guard = level_lock();

    for level in [TraceLevel::Off, TraceLevel::Summary] {
        obs::set_trace_level(level);
        // Warm: intern the names, allocate the bucket arrays, register the
        // series channel — all one-time costs.
        for i in 0..8 {
            obs::counter_add("obs.overhead.counter", 1);
            obs::observe("obs.overhead.hist", 1.5 + i as f64);
            obs::series_push("obs.overhead.series", i as f64, 0.5);
        }

        let ops = 10_000u64;
        let before = thread_allocations();
        let t0 = std::time::Instant::now();
        for i in 0..ops {
            obs::counter_add("obs.overhead.counter", 1);
            obs::observe("obs.overhead.hist", (i % 97) as f64 + 0.5);
            obs::series_push("obs.overhead.series", i as f64, (i % 7) as f64);
        }
        let elapsed = t0.elapsed();
        let after = thread_allocations();
        assert_eq!(
            after - before,
            0,
            "{level:?}: warmed counter/observe/series_push must be allocation-free"
        );
        // 3 recordings per loop iteration; 5 µs per recording is ~100×
        // headroom over the measured cost, while still catching a
        // pathological global lock on the hot path.
        let per_op = elapsed.as_secs_f64() / (3 * ops) as f64;
        assert!(
            per_op < 5e-6,
            "{level:?}: {:.2} µs per metric op exceeds the 5 µs bound",
            per_op * 1e6
        );
    }
    obs::set_trace_level(TraceLevel::Off);

    // The recorded data survived the measurement loops intact.
    assert!(obs::counter_value("obs.overhead.counter") >= 2 * 10_000);
    let p99 = obs::quantile("obs.overhead.hist", 0.99).expect("histogram populated");
    assert!(p99 > 0.0 && p99 <= 97.0, "p99 = {p99}");
}

/// Contended sharded counting: many threads hammering one counter must
/// stay allocation-free after warmup on every participating thread (each
/// thread's first touch claims its shard slot; afterwards it is a single
/// atomic add).
#[test]
fn sharded_metrics_scale_across_threads_without_allocating() {
    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    let threads = 4;
    let per_thread = 5_000u64;
    let barrier = std::sync::Barrier::new(threads);
    let before = obs::counter_value("obs.overhead.mt");
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..threads {
            joins.push(scope.spawn(|| {
                // Per-thread warmup: shard claim + thread-ordinal init.
                obs::counter_add("obs.overhead.mt", 0);
                obs::observe("obs.overhead.mt.hist", 1.0);
                barrier.wait();
                let a0 = thread_allocations();
                for i in 0..per_thread {
                    obs::counter_add("obs.overhead.mt", 1);
                    obs::observe("obs.overhead.mt.hist", (i % 13) as f64 + 1.0);
                }
                thread_allocations() - a0
            }));
        }
        // Each worker reports its own allocations; the sum must be zero,
        // which pins every worker to zero.
        let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(total, 0, "contended metric path must be allocation-free");
    });
    assert_eq!(
        obs::counter_value("obs.overhead.mt") - before,
        threads as u64 * per_thread,
        "no sample may be lost under contention"
    );
}

/// `KernelCache::fill_block` (PR 10) reuses one thread-local scratch —
/// the pending-key position map, the SoA geometry lanes and the value
/// buffer — across calls, so a warm-cache fill is pure hash lookups into
/// the sharded store. Proof by invariance: after warmup, a short and a 3×
/// longer fill sequence must allocate identically, and both must be zero.
#[test]
fn warm_kernel_fill_block_does_not_allocate() {
    use rlcx::geom::{Axis, Bar, Point3};
    use rlcx::peec::fastop::KernelCache;

    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    let fils: Vec<Bar> = (0..24)
        .map(|i| {
            Bar::new(
                Point3::new(0.0, (i % 6) as f64 * 1.5, 10.0 + (i / 6) as f64 * 1.2),
                Axis::X,
                1000.0,
                0.9,
                0.8,
            )
            .unwrap()
        })
        .collect();
    let rows: Vec<usize> = (0..12).collect();
    let cols: Vec<usize> = (6..24).collect();
    let kernel = KernelCache::new(1000.0);
    let mut out = vec![0.0f64; rows.len() * cols.len()];

    // `fill_block` runs entirely on the calling thread.
    let mut allocs_for = |fills: usize| -> u64 {
        let before = thread_allocations();
        for _ in 0..fills {
            kernel.fill_block(&fils, &rows, &cols, &mut out);
        }
        thread_allocations() - before
    };

    // Warmup: the first fill computes and caches every distinct entry and
    // grows the thread-local scratch to block size.
    let _ = allocs_for(2);
    let short = allocs_for(5);
    let long = allocs_for(15);
    assert_eq!(
        short, long,
        "warm fill_block allocation count must not grow with call count"
    );
    assert_eq!(short, 0, "warm fill_block must be allocation-free");
}

/// `BlockDiagPrecond::solve_into` — the preconditioner half of every
/// GMRES matvec — gathers each conductor block into a thread-local buffer
/// and solves the packed `L·D·Lᵀ` factor in place, so once that buffer has
/// grown to block size an apply performs no heap allocation.
#[test]
fn warm_block_preconditioner_apply_does_not_allocate() {
    use rlcx::geom::{Axis, Bar, Point3};
    use rlcx::numeric::Complex;
    use rlcx::peec::fastop::{BlockDiagPrecond, KernelCache};

    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    // Two 4×3-filament conductors, interleaved so the gather is strided.
    let fils: Vec<Bar> = (0..24)
        .map(|i| {
            let (c, k) = (i % 2, i / 2);
            Bar::new(
                Point3::new(
                    0.0,
                    c as f64 * 12.0 + (k % 4) as f64 * 1.5,
                    10.0 + (k / 4) as f64 * 1.2,
                ),
                Axis::X,
                1000.0,
                1.4,
                1.1,
            )
            .unwrap()
        })
        .collect();
    let owner: Vec<usize> = (0..fils.len()).map(|i| i % 2).collect();
    let rhos = vec![rlcx::geom::units::RHO_COPPER; fils.len()];
    let kernel = KernelCache::new(1000.0);
    let omega = 2.0 * std::f64::consts::PI * 3.2e9;
    let pre = BlockDiagPrecond::new(&fils, &rhos, &owner, 2, omega, &kernel).unwrap();
    let x: Vec<Complex> = (0..fils.len())
        .map(|i| Complex::new(1.0 + i as f64, -0.5 * i as f64))
        .collect();
    let mut y = vec![Complex::ZERO; fils.len()];

    pre.solve_into(&x, &mut y); // warm: grows the gather buffer
    let before = thread_allocations();
    for _ in 0..50 {
        pre.solve_into(&x, &mut y);
    }
    assert_eq!(
        thread_allocations() - before,
        0,
        "warm preconditioner apply must be allocation-free"
    );
    assert!(y.iter().all(|v| v.is_finite()));
}

/// `FastZOperator::apply` — the matvec behind every GMRES iteration of the
/// iterative PEEC backend. Its shard partial sums, H² output and H²
/// coefficient buffers are sized on the first apply and reused, so a warm
/// apply performs no heap allocation — checked on an operator with near
/// and H² parts, and on one that also stores ACA `U·Vᵀ` blocks.
/// One thread: a multi-threaded dispatch allocates the pool's job record.
#[test]
fn warm_fast_operator_apply_does_not_allocate() {
    use rlcx::geom::{Axis, Bar, Point3};
    use rlcx::numeric::{with_thread_count, Complex, LinearOperator};
    use rlcx::peec::fastop::{FastZOperator, KernelCache};
    use rlcx::peec::MeshSpec;

    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Off);

    // Four 6×6 bundles of 0.9 µm filaments in a row: near blocks inside
    // each bundle, H² couplings between bundles, no ACA block.
    let bundles: Vec<Bar> = [0.0, 30.0, 60.0, 90.0]
        .iter()
        .flat_map(|&base| {
            (0..36).map(move |k| {
                let (i, j) = (k / 6, k % 6);
                Bar::new(
                    Point3::new(0.0, base + i as f64, 10.0 + j as f64),
                    Axis::X,
                    1000.0,
                    0.9,
                    0.9,
                )
                .unwrap()
            })
        })
        .collect();
    // Two pairs of 2×24-filament bars (the geometry of the fast operator's
    // dense-agreement test): within a pair the blocks are admissible but
    // not all-far, so they are stored as ACA blocks; the pairs, 100 µm
    // apart, couple through H².
    let mut bar_pairs = Vec::new();
    for y in [0.0, 9.0, 100.0, 109.0] {
        let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, 1000.0, 4.0, 6.0).unwrap();
        bar_pairs.extend(MeshSpec::new(2, 24).filaments(&bar));
    }

    let omega = 2.0 * std::f64::consts::PI * 3.2e9;
    for (fils, want_aca) in [(bundles, false), (bar_pairs, true)] {
        let rhos = vec![rlcx::geom::units::RHO_COPPER; fils.len()];
        let kernel = KernelCache::new(1000.0);
        let op = FastZOperator::new(&fils, &rhos, omega, &kernel);
        let st = op.stats();
        assert!(st.h2_couplings > 0 && st.near_blocks > 0, "{st:?}");
        assert_eq!(st.far_blocks > 0, want_aca, "{st:?}");
        let x: Vec<Complex> = (0..fils.len())
            .map(|i| Complex::new((i as f64 * 0.53).cos(), (i as f64 * 0.29).sin()))
            .collect();
        let mut y = vec![Complex::ZERO; fils.len()];
        let mut y_warm = vec![Complex::ZERO; fils.len()];

        let allocs = with_thread_count(1, || {
            op.apply(&x, &mut y); // warm: sizes the scratch buffers
            let before = thread_allocations();
            for _ in 0..20 {
                op.apply(&x, &mut y_warm);
            }
            thread_allocations() - before
        });
        assert_eq!(
            allocs, 0,
            "warm fast-operator apply must be allocation-free (ACA blocks: {want_aca})"
        );
        assert_eq!(y, y_warm, "reused buffers must not change the result");
    }
}

/// Enabling tracing does allocate (records are stored) — a sanity check
/// that the counter itself works, so the zero above is meaningful.
#[test]
fn enabled_spans_do_allocate() {
    let _guard = level_lock();
    let before = thread_allocations();
    obs::set_trace_level(TraceLevel::Summary);
    for _ in 0..64 {
        let _s = obs::span("obs.enabled");
    }
    obs::set_trace_level(TraceLevel::Off);
    obs::take_spans();
    let after = thread_allocations();
    assert!(
        after > before,
        "allocation counter must observe span records"
    );
}
