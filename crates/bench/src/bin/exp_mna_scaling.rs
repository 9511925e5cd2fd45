//! E10 (engine scaling) — sparse MNA as the clocktree grows.
//!
//! The transient and AC engines factor the MNA system with the
//! fill-reducing sparse LU. Clocktree matrices are nearly tree-structured,
//! so factor + solve should scale almost linearly with the tree. This
//! experiment sweeps H-tree depth, times the transient at each depth, and
//! records the assembled pattern density and the LU fill of the deepest
//! tree. (Agreement with a dense LU reference is a unit test of
//! `rlcx-spice`, on the depth-4 tree of this sweep.)
//!
//! Bounded figures (`ci/baselines/exp_mna_scaling.json`):
//! * `sparse.fill_ratio` — LU fill stays near the tree bound,
//! * `mna.nnz_per_unknown` — assembled pattern stays sparse.

use rlcx::obs::{self, MetricValue};
use rlcx::spice::{Netlist, Transient, Waveform, GROUND};
use std::time::Instant;

/// Sections per H-tree branch: enough to resolve wave behaviour without
/// exploding the element count.
const SECTIONS: usize = 3;
/// Transient horizon: 80 steps at 1 ps.
const TIMESTEP: f64 = 1e-12;
const DURATION: f64 = 80e-12;

/// Builds a depth-`depth` buffered H-tree RLC netlist: a ramp source and
/// driver resistor at the root, two child branches per node, each branch a
/// chain of `SECTIONS` RLC sections whose element values halve per level
/// (children are half as long), and a load capacitor at every leaf.
/// Returns the netlist and one representative sink node name.
fn h_tree(depth: usize) -> (Netlist, String) {
    let mut nl = Netlist::new();
    let root = nl.node("root");
    nl.vsource("Vdrv", root, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
        .expect("vsource");
    let drv = nl.node("drv");
    nl.resistor("Rdrv", root, drv, 30.0).expect("driver R");

    let mut frontier = vec![drv];
    let mut id = 0usize;
    let mut sink = String::new();
    for level in 0..depth {
        let scale = 0.5f64.powi(level as i32);
        let secs = SECTIONS as f64;
        let (r, l, c) = (
            4.0 * scale / secs,
            0.5e-9 * scale / secs,
            20e-15 * scale / secs,
        );
        let mut next = Vec::with_capacity(frontier.len() * 2);
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
                sink = format!("n{id}");
            }
        }
        frontier = next;
    }
    for (k, &leaf) in frontier.iter().enumerate() {
        nl.capacitor(&format!("Cload{k}"), leaf, GROUND, 5e-15)
            .expect("load C");
    }
    (nl, sink)
}

/// Runs the transient, returning its wall-clock seconds.
fn time_transient(nl: &Netlist, sink: &str) -> f64 {
    let t0 = Instant::now();
    let res = Transient::new(nl)
        .timestep(TIMESTEP)
        .duration(DURATION)
        .run()
        .expect("transient");
    let secs = t0.elapsed().as_secs_f64();
    assert!(res.voltage(sink).is_ok(), "sink trace");
    secs
}

fn gauge(name: &str) -> f64 {
    obs::metric_value(name)
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN)
}

fn main() {
    println!("E10: sparse MNA engine scaling on H-trees");
    println!("=========================================");
    let mut report = rlcx_bench::report("exp_mna_scaling");

    println!(
        "\n{:>6} {:>8} {:>8} {:>12}",
        "depth", "dim", "nnz", "sparse (ms)"
    );
    // One untimed run first, so the smallest tree is not charged with the
    // process's one-time costs (metric registration, first page faults).
    let (nl, sink) = h_tree(3);
    time_transient(&nl, &sink);
    for depth in 3..=8usize {
        let (nl, sink) = h_tree(depth);
        let ts = time_transient(&nl, &sink);
        println!(
            "{depth:>6} {:>8.0} {:>8.0} {:>12.3}",
            gauge("spice.mna.dim"),
            gauge("spice.mna.nnz"),
            ts * 1e3
        );
        report.figure(format!("trans.sparse.s.depth{depth}"), ts);
    }

    // Pattern statistics from the deepest assembly just run.
    let (nnz, dim) = (gauge("spice.mna.nnz"), gauge("spice.mna.dim"));
    let fill = match obs::metric_value("sparse.lu.fill") {
        Some(MetricValue::Histogram { max, .. }) => max,
        _ => f64::NAN,
    };
    println!(
        "\ndeepest tree: {nnz:.0} nonzeros / {dim:.0} unknowns = {:.2} per row, LU fill {fill:.2}x",
        nnz / dim
    );
    println!("→ tree-structured MNA stays O(n) under minimum-degree ordering.");

    report.figure("sparse.fill_ratio", fill);
    report.figure("mna.nnz_per_unknown", nnz / dim);
    rlcx_bench::finish_report(report);
}
