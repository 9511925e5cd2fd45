//! E13 (MOR speedup) — PRIMA macromodel vs full transient on deep H-trees.
//!
//! Downstream delay/skew queries used to re-integrate the full cascaded
//! RLC netlist for every question. The `rlcx-spice::reduce` stage instead
//! characterizes the netlist once — block-Arnoldi projection to a few
//! dozen states, then a pole/residue diagonalization — and answers every
//! sink's 50 % delay in closed form. This experiment measures what that
//! buys on deep buffered H-trees: reduce+query wall time vs an
//! LTE-controlled adaptive transient reference, at matched delay accuracy,
//! with the moment-matching residual as the model-quality certificate.
//!
//! Bounded figures (`ci/baselines/exp_mor_speedup.json`), on the deepest
//! tree:
//! * `speedup.factor` — transient time over reduce+query time (≥ 10x),
//! * `delay.max_err_ps` — worst sink 50 %-delay disagreement (≤ 0.1 ps),
//! * `moment.residual` — worst relative mismatch of the first
//!   [`MOMENTS`] transfer moments vs the full system,
//! * `mor.order` / `mor.poles.unstable` — reduced size stays small and
//!   the projection stays passive.

use rlcx::obs;
use rlcx::spice::{
    measure,
    reduce::{Reduce, ReductionOrder},
    AdaptiveOptions, Netlist, Stepping, Transient, Waveform, GROUND,
};
use std::time::Instant;

/// RLC sections per H-tree branch.
const SECTIONS: usize = 3;
/// Crossing-search window; also the transient horizon.
const HORIZON: f64 = 0.6e-9;
/// Reduced order: a few dozen states against thousands of unknowns.
const ORDER: usize = 28;
/// Transfer moments verified against the full system.
const MOMENTS: usize = 8;

/// Builds a depth-`depth` H-tree RLC netlist (ramp source at `root`,
/// driver resistor, halving per-level section values, leaf loads) and
/// returns it with every leaf node name.
fn h_tree(depth: usize) -> (Netlist, Vec<String>) {
    let mut nl = Netlist::new();
    let root = nl.node("root");
    nl.vsource("Vdrv", root, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
        .expect("vsource");
    let drv = nl.node("drv");
    nl.resistor("Rdrv", root, drv, 30.0).expect("driver R");

    let mut frontier = vec![drv];
    let mut names = vec![String::new()];
    let mut id = 0usize;
    for level in 0..depth {
        let scale = 0.5f64.powi(level as i32);
        let secs = SECTIONS as f64;
        let (r, l, c) = (
            4.0 * scale / secs,
            0.5e-9 * scale / secs,
            20e-15 * scale / secs,
        );
        let mut next = Vec::with_capacity(frontier.len() * 2);
        let mut next_names = Vec::with_capacity(frontier.len() * 2);
        for parent in std::mem::take(&mut frontier) {
            for _ in 0..2 {
                let mut prev = parent;
                for _ in 0..SECTIONS {
                    id += 1;
                    let mid = nl.node(format!("m{id}"));
                    let out = nl.node(format!("n{id}"));
                    nl.resistor(&format!("R{id}"), prev, mid, r).expect("R");
                    nl.inductor(&format!("L{id}"), mid, out, l).expect("L");
                    nl.capacitor(&format!("C{id}"), out, GROUND, c).expect("C");
                    prev = out;
                }
                next.push(prev);
                next_names.push(format!("n{id}"));
            }
        }
        frontier = next;
        names = next_names;
    }
    for (k, &leaf) in frontier.iter().enumerate() {
        nl.capacitor(&format!("Cload{k}"), leaf, GROUND, 5e-15)
            .expect("load C");
    }
    (nl, names)
}

/// Adaptive-transient reference: per-sink 50 % delays and wall seconds.
fn reference_delays(nl: &Netlist, sinks: &[String]) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let res = Transient::new(nl)
        .stepping(Stepping::Adaptive(AdaptiveOptions {
            reltol: 1e-6,
            abstol: 1e-9,
            ..Default::default()
        }))
        .timestep(1e-12)
        .duration(HORIZON)
        .run()
        .expect("adaptive transient");
    let time = res.time().to_vec();
    let vin = res.voltage("root").expect("root trace").to_vec();
    let delays: Vec<f64> = sinks
        .iter()
        .map(|s| {
            let vout = res.voltage(s).expect("sink trace");
            measure::delay_50(&time, &vin, vout, 0.0, 1.0).expect("sink crosses midswing")
        })
        .collect();
    (delays, t0.elapsed().as_secs_f64())
}

fn main() {
    println!("E13: PRIMA reduction speedup on deep H-trees");
    println!("=============================================");
    let mut report = rlcx_bench::report("exp_mor_speedup");

    let depths = [5usize, 6];
    let mut speedup = 0.0f64;
    let mut max_err_ps = 0.0f64;
    let mut residual = 0.0f64;

    println!(
        "\n{:>6} {:>7} {:>6} {:>12} {:>14} {:>9} {:>12}",
        "depth", "sinks", "order", "trans (ms)", "mor b+q (ms)", "speedup", "max err (ps)"
    );
    for &depth in &depths {
        let (nl, sinks) = h_tree(depth);
        let (full, t_full) = reference_delays(&nl, &sinks);

        let t0 = Instant::now();
        let model = Reduce::new(&nl)
            .order(ReductionOrder::new(ORDER))
            .outputs(sinks.iter().map(String::as_str))
            .run()
            .expect("reduction");
        let t_build = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let reduced = model.delay_50_all(HORIZON).expect("closed-form delays");
        let t_query = t1.elapsed().as_secs_f64();

        let err_ps = full
            .iter()
            .zip(&reduced)
            .map(|(f, r)| (f - r.expect("reduced crossing")).abs() * 1e12)
            .fold(0.0, f64::max);
        let t_mor = t_build + t_query;
        // Last iteration (deepest tree) carries the gated figures.
        speedup = t_full / t_mor;
        max_err_ps = err_ps;
        residual = model.moment_residual(MOMENTS).expect("moment residual");
        assert_eq!(model.unstable_count(), 0, "projection must stay passive");

        println!(
            "{depth:>6} {:>7} {:>6} {:>12.2} {:>14.2} {speedup:>8.1}x {err_ps:>12.4}",
            sinks.len(),
            model.order(),
            t_full * 1e3,
            t_mor * 1e3,
        );
        report.figure(format!("trans.s.depth{depth}"), t_full);
        report.figure(format!("mor.build.s.depth{depth}"), t_build);
        report.figure(format!("mor.query.s.depth{depth}"), t_query);
    }

    let order = obs::metric_value("mor.order")
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN);
    let unstable = obs::metric_value("mor.poles.unstable")
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN);

    println!(
        "\nspeedup at depth {}: {speedup:.1}x",
        depths[depths.len() - 1]
    );
    println!("worst 50%-delay error: {max_err_ps:.4} ps");
    println!("first {MOMENTS} transfer moments match to {residual:.2e} relative");
    println!("reduced order {order:.0}, unstable poles {unstable:.0}");
    println!("→ characterize once, then answer every sink in closed form.");

    report.figure("speedup.factor", speedup);
    report.figure("delay.max_err_ps", max_err_ps);
    report.figure("moment.residual", residual);
    report.figure("mor.order", order);
    report.figure("mor.poles.unstable", unstable);
    rlcx_bench::finish_report(report);
}
