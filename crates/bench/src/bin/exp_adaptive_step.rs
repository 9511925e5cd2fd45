//! E11 (adaptive stepping) — event-accurate adaptive transient vs fixed.
//!
//! The paper's Figure 2–3 waveforms (an RC ladder at 28 ps-class delay and
//! the same net with inductance ringing at ~47 ps) are exactly the shapes
//! an LTE-controlled time axis must get right: a fast drive edge, a burst
//! of ringing, then a long settling tail where fixed stepping burns steps
//! for nothing. This experiment drives paper-style 10-section ladders
//! (1.8 V swing; 40 Ω driver for the RC case, 15 Ω for RLC) three ways —
//! nominal fixed step, 10× oversampled fixed reference, and adaptive — and
//! scores the adaptive axis on delay fidelity and steps saved.
//!
//! Bounded figures (`ci/baselines/exp_adaptive_step.json`):
//! * `delay.max_err_ps` — worst 50 % delay deviation of the adaptive run
//!   from the 10× oversampled reference, in picoseconds,
//! * `steps.saved_ratio` — worst-case accepted-step advantage over the
//!   nominal fixed run across the two nets.

use rlcx::obs;
use rlcx::spice::{
    measure, AdaptiveOptions, Netlist, Stepping, Transient, TransientResult, Waveform, GROUND,
};
use std::time::Instant;

const SWING: f64 = 1.8;
const SECTIONS: usize = 10;
const TIMESTEP: f64 = 0.5e-12;
const DURATION: f64 = 1e-9;

/// A paper-style driver + 10-section π-ladder: `with_l` selects the RLC
/// formulation (Figure 3) over the RC baseline (Figure 2).
fn ladder(driver_ohms: f64, with_l: bool) -> Netlist {
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, SWING, 0.0, 20e-12))
        .expect("vsource");
    let drv = nl.node("drv");
    nl.resistor("Rdrv", inp, drv, driver_ohms).expect("driver");
    let mut prev = drv;
    for i in 0..SECTIONS {
        let out = nl.node(format!("n{i}"));
        if with_l {
            let mid = nl.node(format!("m{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 2.5).expect("R");
            nl.inductor(&format!("L{i}"), mid, out, 0.4e-9).expect("L");
        } else {
            nl.resistor(&format!("R{i}"), prev, out, 2.5).expect("R");
        }
        nl.capacitor(&format!("C{i}"), out, GROUND, 25e-15)
            .expect("C");
        prev = out;
    }
    nl
}

fn sink() -> String {
    format!("n{}", SECTIONS - 1)
}

fn delay_50(res: &TransientResult) -> f64 {
    measure::delay_50(
        res.time(),
        res.voltage("in").expect("in"),
        res.voltage(&sink()).expect("sink"),
        0.0,
        SWING,
    )
    .expect("sink must reach midswing")
}

struct Run {
    delay: f64,
    steps: usize,
    rejected: usize,
    secs: f64,
}

fn run(nl: &Netlist, timestep: f64, stepping: Stepping) -> Run {
    let t0 = Instant::now();
    let res = Transient::new(nl)
        .timestep(timestep)
        .duration(DURATION)
        .stepping(stepping)
        .run()
        .expect("transient");
    Run {
        delay: delay_50(&res),
        steps: res.steps_accepted(),
        rejected: res.steps_rejected(),
        secs: t0.elapsed().as_secs_f64(),
    }
}

fn main() {
    println!("E11: adaptive LTE-controlled stepping vs fixed on paper-style ladders");
    println!("=====================================================================");
    let mut report = rlcx_bench::report("exp_adaptive_step");

    let cases = [("rc", 40.0, false), ("rlc", 15.0, true)];
    let mut max_err_ps = 0.0f64;
    let mut min_saved = f64::INFINITY;

    println!(
        "\n{:>5} {:>12} {:>12} {:>12} {:>9} {:>9} {:>11}",
        "net", "fixed (ps)", "ref (ps)", "adapt (ps)", "steps", "rejected", "err (ps)"
    );
    for (name, driver, with_l) in cases {
        let nl = ladder(driver, with_l);
        let fixed = run(&nl, TIMESTEP, Stepping::Fixed);
        let reference = run(&nl, TIMESTEP / 10.0, Stepping::Fixed);
        let adaptive = run(
            &nl,
            TIMESTEP,
            Stepping::Adaptive(AdaptiveOptions::default()),
        );
        let err_ps = (adaptive.delay - reference.delay).abs() * 1e12;
        let saved = fixed.steps as f64 / adaptive.steps as f64;
        max_err_ps = max_err_ps.max(err_ps);
        min_saved = min_saved.min(saved);
        println!(
            "{name:>5} {:>12.3} {:>12.3} {:>12.3} {:>9} {:>9} {err_ps:>11.4}",
            fixed.delay * 1e12,
            reference.delay * 1e12,
            adaptive.delay * 1e12,
            adaptive.steps,
            adaptive.rejected,
        );
        println!(
            "      fixed {} steps in {:.1} ms; adaptive {} steps in {:.1} ms ({saved:.1}x fewer)",
            fixed.steps,
            fixed.secs * 1e3,
            adaptive.steps,
            adaptive.secs * 1e3,
        );
        report.figure(format!("delay.{name}.fixed_ps"), fixed.delay * 1e12);
        report.figure(format!("delay.{name}.ref_ps"), reference.delay * 1e12);
        report.figure(format!("delay.{name}.adaptive_ps"), adaptive.delay * 1e12);
        report.figure(format!("steps.{name}.adaptive"), adaptive.steps as f64);
        report.figure(format!("steps.{name}.rejected"), adaptive.rejected as f64);
    }

    let breakpoints = obs::metric_value("spice.breakpoints")
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN);
    let cond = obs::metric_value("lu.cond_est")
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN);
    println!("\nworst delay error vs 10x reference: {max_err_ps:.4} ps");
    println!("worst steps-saved ratio vs nominal fixed: {min_saved:.1}x");
    println!("source breakpoints honoured (cumulative): {breakpoints:.0}");
    println!("last MNA one-norm condition estimate: {cond:.2e}");
    println!("→ the adaptive axis lands the paper's delays at a fraction of the steps.");

    report.figure("delay.max_err_ps", max_err_ps);
    report.figure("steps.saved_ratio", min_saved);
    rlcx_bench::finish_report(report);
}
