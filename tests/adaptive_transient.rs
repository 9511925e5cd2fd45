//! Event-accurate adaptive transient vs closed-form RLC theory.
//!
//! A series RLC driven by an ideal unit step has textbook solutions in all
//! three damping regimes, so every measurement kernel the paper relies on
//! (50 % crossing, overshoot, undershoot, skew) can be checked against an
//! *exact* value — and the adaptive time axis must reproduce them without
//! being told where the action is.

use rlcx::spice::{measure, AdaptiveOptions, Netlist, Stepping, Transient, Waveform, GROUND};

/// Analytic unit-step response of a series RLC (voltage across C),
/// v(0) = 0, i(0) = 0.
fn rlc_step_response(r: f64, l: f64, c: f64) -> impl Fn(f64) -> f64 {
    let alpha = r / (2.0 * l);
    let w0sq = 1.0 / (l * c);
    move |t: f64| {
        let d = alpha * alpha - w0sq;
        if d < -1e-9 * w0sq {
            // Underdamped.
            let wd = (-d).sqrt();
            1.0 - (-alpha * t).exp() * ((wd * t).cos() + alpha / wd * (wd * t).sin())
        } else if d > 1e-9 * w0sq {
            // Overdamped.
            let s1 = -alpha + d.sqrt();
            let s2 = -alpha - d.sqrt();
            1.0 - (s2 * (s1 * t).exp() - s1 * (s2 * t).exp()) / (s2 - s1)
        } else {
            // Critically damped.
            1.0 - (-alpha * t).exp() * (1.0 + alpha * t)
        }
    }
}

/// Bisection to ~1e-25 s on a bracketed sign change.
fn bisect(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> f64) -> f64 {
    let flo = f(lo);
    assert!(flo * f(hi) <= 0.0, "root not bracketed");
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if (f(mid) > 0.0) == (flo > 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

fn series_rlc(r: f64, l: f64, c: f64) -> Netlist {
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    let a = nl.node("a");
    let out = nl.node("out");
    nl.vsource("V", inp, GROUND, Waveform::step(1.0, 0.0))
        .unwrap();
    nl.resistor("R", inp, a, r).unwrap();
    nl.inductor("L", a, out, l).unwrap();
    nl.capacitor("C", out, GROUND, c).unwrap();
    nl
}

fn run_adaptive(nl: &Netlist, duration: f64) -> rlcx::spice::TransientResult {
    Transient::new(nl)
        .timestep(2e-13)
        .duration(duration)
        .stepping(Stepping::Adaptive(AdaptiveOptions {
            reltol: 1e-5,
            ..Default::default()
        }))
        .run()
        .unwrap()
}

/// Max deviation between simulated and analytic response over `n` probes.
fn worst_error(
    res: &rlcx::spice::TransientResult,
    exact: &impl Fn(f64) -> f64,
    duration: f64,
    n: usize,
) -> f64 {
    let mut worst = 0.0_f64;
    for i in 1..=n {
        let t = duration * i as f64 / n as f64;
        let v = res.voltage_at("out", t).unwrap();
        worst = worst.max((v - exact(t)).abs());
    }
    worst
}

#[test]
fn underdamped_rlc_matches_closed_form() {
    // α = 1e10 < ω₀ ≈ 3.16e10 → ringing at ωd = 3e10 rad/s.
    let (r, l, c) = (20.0, 1e-9, 1e-12);
    let exact = rlc_step_response(r, l, c);
    let nl = series_rlc(r, l, c);
    let duration = 2e-9;
    let res = run_adaptive(&nl, duration);

    let worst = worst_error(&res, &exact, duration, 400);
    assert!(worst < 2e-3, "worst deviation {worst} V from analytic");

    // 50 % crossing within 0.1 ps of the exact (bisected) time.
    let alpha = r / (2.0 * l);
    let wd = (1.0 / (l * c) - alpha * alpha).sqrt();
    let t50_exact = bisect(0.0, std::f64::consts::PI / wd, |t| exact(t) - 0.5);
    let t50 = measure::cross_time(res.time(), res.voltage("out").unwrap(), 0.5, true, 0.0)
        .expect("must reach midswing");
    assert!(
        (t50 - t50_exact).abs() < 0.1e-12,
        "t50 {t50} vs exact {t50_exact}"
    );

    // First peak overshoot is exactly e^{−απ/ωd}.
    let os_exact = (-alpha * std::f64::consts::PI / wd).exp();
    let os = measure::overshoot(res.voltage("out").unwrap(), 0.0, 1.0);
    assert!(
        (os - os_exact).abs() < 2e-3,
        "overshoot {os} vs exact {os_exact}"
    );

    // The response never dips below the low rail: undershoot exactly 0.
    let us = measure::undershoot(res.time(), res.voltage("out").unwrap(), 0.0, 1.0);
    assert_eq!(us, 0.0, "series RLC step response cannot undershoot 0 V");
}

#[test]
fn critically_damped_rlc_matches_closed_form() {
    let (l, c) = (1e-9_f64, 1e-12_f64);
    let r = 2.0 * (l / c).sqrt(); // α = ω₀ exactly
    let exact = rlc_step_response(r, l, c);
    let nl = series_rlc(r, l, c);
    let duration = 1e-9;
    let res = run_adaptive(&nl, duration);

    let worst = worst_error(&res, &exact, duration, 400);
    assert!(worst < 2e-3, "worst deviation {worst} V from analytic");

    let alpha = r / (2.0 * l);
    let t50_exact = bisect(0.0, duration, |t| exact(t) - 0.5);
    let t50 = measure::cross_time(res.time(), res.voltage("out").unwrap(), 0.5, true, 0.0)
        .expect("must reach midswing");
    assert!(
        (t50 - t50_exact).abs() < 0.1e-12,
        "t50 {t50} vs exact {t50_exact} (alpha = {alpha})"
    );

    // No ringing at critical damping: overshoot within solver noise of 0.
    let os = measure::overshoot(res.voltage("out").unwrap(), 0.0, 1.0);
    assert!(os < 1e-4, "critically damped overshoot {os}");
}

#[test]
fn overdamped_rlc_matches_closed_form() {
    // α = 1e11 ≫ ω₀ ≈ 3.16e10 → two real decay rates.
    let (r, l, c) = (200.0, 1e-9, 1e-12);
    let exact = rlc_step_response(r, l, c);
    let nl = series_rlc(r, l, c);
    let duration = 2e-9;
    // The shallow midswing slope of the overdamped response (~2.6 V/ns)
    // makes the 0.1 ps crossing target sensitive to linear interpolation
    // between samples, so cap the stride harder than the defaults.
    let res = Transient::new(&nl)
        .timestep(2e-13)
        .duration(duration)
        .stepping(Stepping::Adaptive(AdaptiveOptions {
            reltol: 1e-6,
            h_max: 5e-12,
            ..Default::default()
        }))
        .run()
        .unwrap();

    let worst = worst_error(&res, &exact, duration, 400);
    assert!(worst < 2e-3, "worst deviation {worst} V from analytic");

    let t50_exact = bisect(0.0, duration, |t| exact(t) - 0.5);
    let t50 = measure::cross_time(res.time(), res.voltage("out").unwrap(), 0.5, true, 0.0)
        .expect("must reach midswing");
    assert!(
        (t50 - t50_exact).abs() < 0.1e-12,
        "t50 {t50} vs exact {t50_exact}"
    );
    assert_eq!(
        measure::overshoot(res.voltage("out").unwrap(), 0.0, 1.0),
        0.0,
        "overdamped response is monotone"
    );
}

#[test]
fn skew_between_mismatched_branches_matches_closed_form() {
    // One ideal step drives two independent series RLC branches whose
    // inductances differ: the 50 % arrival spread (skew) has an exact
    // analytic value.
    let (r, c) = (20.0, 1e-12);
    let (la, lb) = (1e-9, 2e-9);
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    let a1 = nl.node("a1");
    let o1 = nl.node("o1");
    let a2 = nl.node("a2");
    let o2 = nl.node("o2");
    nl.vsource("V", inp, GROUND, Waveform::step(1.0, 0.0))
        .unwrap();
    nl.resistor("Ra", inp, a1, r).unwrap();
    nl.inductor("La", a1, o1, la).unwrap();
    nl.capacitor("Ca", o1, GROUND, c).unwrap();
    nl.resistor("Rb", inp, a2, r).unwrap();
    nl.inductor("Lb", a2, o2, lb).unwrap();
    nl.capacitor("Cb", o2, GROUND, c).unwrap();

    let duration = 2e-9;
    let res = Transient::new(&nl)
        .timestep(2e-13)
        .duration(duration)
        .stepping(Stepping::Adaptive(AdaptiveOptions {
            reltol: 1e-5,
            ..Default::default()
        }))
        .run()
        .unwrap();

    let t50 = |node: &str| {
        measure::cross_time(res.time(), res.voltage(node).unwrap(), 0.5, true, 0.0)
            .expect("must reach midswing")
    };
    let exact_t50 = |l: f64| {
        let exact = rlc_step_response(r, l, c);
        let wd = (1.0 / (l * c) - (r / (2.0 * l)).powi(2)).sqrt();
        bisect(0.0, std::f64::consts::PI / wd, |t| exact(t) - 0.5)
    };
    let skew_exact = (exact_t50(lb) - exact_t50(la)).abs();
    let skew = measure::skew(&[t50("o1"), t50("o2")]);
    assert!(
        (skew - skew_exact).abs() < 0.2e-12,
        "skew {skew} vs exact {skew_exact}"
    );
}

#[test]
fn adaptive_matches_oversampled_fixed_on_paper_ladder() {
    // The paper's Figure 2–3 shape: a driver resistor into a 10-section
    // RLC π-ladder at 1.8 V swing. The adaptive 50 % delay must land
    // within 0.1 ps of a 10× oversampled fixed-step reference while
    // accepting at least 3× fewer steps than the nominal fixed run.
    let swing = 1.8;
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, swing, 0.0, 20e-12))
        .unwrap();
    let drv = nl.node("drv");
    nl.resistor("Rdrv", inp, drv, 40.0).unwrap();
    let mut prev = drv;
    for i in 0..10 {
        let mid = nl.node(format!("m{i}"));
        let out = nl.node(format!("n{i}"));
        nl.resistor(&format!("R{i}"), prev, mid, 2.5).unwrap();
        nl.inductor(&format!("L{i}"), mid, out, 0.4e-9).unwrap();
        nl.capacitor(&format!("C{i}"), out, GROUND, 25e-15).unwrap();
        prev = out;
    }
    let duration = 1e-9;
    let h = 0.5e-12;

    let fixed = Transient::new(&nl)
        .timestep(h)
        .duration(duration)
        .run()
        .unwrap();
    let reference = Transient::new(&nl)
        .timestep(h / 10.0)
        .duration(duration)
        .run()
        .unwrap();
    let adaptive = Transient::new(&nl)
        .timestep(h)
        .duration(duration)
        .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
        .run()
        .unwrap();

    let delay = |res: &rlcx::spice::TransientResult| {
        measure::delay_50(
            res.time(),
            res.voltage("in").unwrap(),
            res.voltage("n9").unwrap(),
            0.0,
            swing,
        )
        .expect("sink must reach midswing")
    };
    let d_ref = delay(&reference);
    let d_adaptive = delay(&adaptive);
    assert!(
        (d_adaptive - d_ref).abs() < 0.1e-12,
        "adaptive delay {d_adaptive} vs reference {d_ref}"
    );
    assert!(
        3 * adaptive.steps_accepted() <= fixed.steps_accepted(),
        "adaptive {} steps vs fixed {}",
        adaptive.steps_accepted(),
        fixed.steps_accepted()
    );
}

/// E11's paper-style ladder (`exp_adaptive_step`): a 1.8 V, 20 ps ramp
/// through a driver resistor into ten π-sections; `with_l` puts a 0.4 nH
/// inductor in every section. Node order matches the experiment, so the
/// time axes below are the experiment's.
fn e11_ladder(driver_ohms: f64, with_l: bool) -> Netlist {
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.8, 0.0, 20e-12))
        .unwrap();
    let drv = nl.node("drv");
    nl.resistor("Rdrv", inp, drv, driver_ohms).unwrap();
    let mut prev = drv;
    for i in 0..10 {
        let out = nl.node(format!("n{i}"));
        if with_l {
            let mid = nl.node(format!("m{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 2.5).unwrap();
            nl.inductor(&format!("L{i}"), mid, out, 0.4e-9).unwrap();
        } else {
            nl.resistor(&format!("R{i}"), prev, out, 2.5).unwrap();
        }
        nl.capacitor(&format!("C{i}"), out, GROUND, 25e-15).unwrap();
        prev = out;
    }
    nl
}

#[test]
fn e11_time_axes_are_pinned() {
    // Both stepping policies produce exactly these axes: the fixed one is
    // `k·h` computed per sample (never an accumulated sum), the adaptive
    // one is E11's recorded step and rejection counts.
    let (h, duration) = (0.5e-12, 1e-9);
    for (driver, with_l, want) in [(40.0, false, (102, 5)), (15.0, true, (617, 42))] {
        let nl = e11_ladder(driver, with_l);
        let fixed = Transient::new(&nl)
            .timestep(h)
            .duration(duration)
            .run()
            .unwrap();
        assert_eq!(fixed.steps_accepted(), 2000);
        assert_eq!(fixed.steps_rejected(), 0);
        for (k, &t) in fixed.time().iter().enumerate() {
            assert_eq!(t.to_bits(), (k as f64 * h).to_bits(), "sample {k}");
        }
        let adaptive = Transient::new(&nl)
            .timestep(h)
            .duration(duration)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .run()
            .unwrap();
        assert_eq!(
            (adaptive.steps_accepted(), adaptive.steps_rejected()),
            want,
            "driver {driver} Ω, with_l {with_l}"
        );
    }
}
