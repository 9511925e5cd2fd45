//! Independent-source waveforms.

/// A time-domain voltage waveform.
///
/// # Example
///
/// ```
/// use rlcx_spice::Waveform;
///
/// let clk = Waveform::pulse(0.0, 1.8, 50e-12, 100e-12, 100e-12, 400e-12, 1e-9);
/// assert_eq!(clk.eval(0.0), 0.0);
/// assert!((clk.eval(100e-12) - 0.9).abs() < 1e-12); // mid-rise
/// assert_eq!(clk.eval(300e-12), 1.8);               // plateau
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style periodic pulse.
    Pulse {
        /// Initial value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Fall time (s).
        fall: f64,
        /// Pulse width at `v1` (s).
        width: f64,
        /// Period (s); `0` (or anything not larger than one cycle) means a
        /// single pulse.
        period: f64,
    },
    /// Piecewise-linear waveform over `(time, value)` breakpoints; constant
    /// before the first and after the last.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// A single rising step from 0 to `v` with rise time `rise` (a ramp when
    /// `rise > 0`, ideal step when `rise == 0`).
    ///
    /// The ideal step is low *at* `t = 0` — the operating point sees the
    /// pre-edge value and the transient launches the edge — and high for
    /// every `t > 0`. (It used to return `Dc(v)`, which is high for all
    /// time, so the launched edge never existed.)
    pub fn step(v: f64, rise: f64) -> Waveform {
        if rise > 0.0 {
            Waveform::Pwl(vec![(0.0, 0.0), (rise, v)])
        } else {
            // A duplicate-time PWL knot is the ideal-step representation:
            // eval(0) = 0 (left value), eval(t > 0) = v.
            Waveform::Pwl(vec![(0.0, 0.0), (0.0, v)])
        }
    }

    /// A ramp from `v0` to `v1` starting at `delay` over `rise` seconds.
    pub fn ramp(v0: f64, v1: f64, delay: f64, rise: f64) -> Waveform {
        Waveform::Pwl(vec![(delay, v0), (delay + rise, v1)])
    }

    /// Convenience constructor for [`Waveform::Pulse`].
    pub fn pulse(
        v0: f64,
        v1: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Waveform {
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        }
    }

    /// Evaluates the waveform at time `t` (seconds).
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let cycle = rise + width + fall;
                let mut tau = t - delay;
                // SPICE semantics: a positive period shorter than one full
                // cycle is clamped to the cycle, so the pulse train repeats
                // back-to-back instead of silently degrading to one pulse.
                // `period == 0` still means single-shot.
                if *period > 0.0 {
                    let effective = period.max(cycle);
                    if effective > 0.0 {
                        tau %= effective;
                    }
                }
                if tau < *rise {
                    if *rise == 0.0 {
                        *v1
                    } else {
                        v0 + (v1 - v0) * tau / rise
                    }
                } else if tau < rise + width {
                    *v1
                } else if tau < cycle {
                    if *fall == 0.0 {
                        *v0
                    } else {
                        v1 + (v0 - v1) * (tau - rise - width) / fall
                    }
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for pair in points.windows(2) {
                    let (t0, v0) = pair[0];
                    let (t1, v1) = pair[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("non-empty").1
            }
        }
    }

    /// The waveform's nominal low and high levels `(min, max)` over its
    /// breakpoints, used by measurement code to pick thresholds.
    pub fn levels(&self) -> (f64, f64) {
        match self {
            Waveform::Dc(v) => (*v, *v),
            Waveform::Pulse { v0, v1, .. } => (v0.min(*v1), v0.max(*v1)),
            Waveform::Pwl(points) => points
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, v)| {
                    (lo.min(v), hi.max(v))
                }),
        }
    }

    /// Appends the waveform's derivative discontinuities ("breakpoints")
    /// in `(0, t_end)` to `out`: pulse edge corners including periodic
    /// repeats, and PWL knots. An adaptive transient engine snaps its
    /// steps to these so no source corner is ever straddled by a step.
    ///
    /// Times are appended unsorted and may repeat (e.g. a zero-rise edge
    /// contributes coincident corners); callers sort and deduplicate.
    ///
    /// # Errors
    ///
    /// A pulse train with more than `budget` corners before `t_end` — a
    /// period far below the window, or one too short to advance `f64`
    /// time at all — or a PWL list of more than `budget` knots returns a
    /// description and appends nothing, so the caller never allocates in
    /// proportion to the period count.
    pub fn breakpoints(
        &self,
        t_end: f64,
        budget: usize,
        out: &mut Vec<f64>,
    ) -> std::result::Result<(), String> {
        let mut push = |t: f64| {
            if t > 0.0 && t < t_end {
                out.push(t);
            }
        };
        match self {
            Waveform::Dc(_) => {}
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let cycle = rise + width + fall;
                let effective = if *period > 0.0 {
                    period.max(cycle)
                } else {
                    0.0
                };
                // Cycles starting before `t_end`; rounding in the running
                // sum below can add at most one more.
                let cycles = if effective > 0.0 && *delay < t_end {
                    ((t_end - delay) / effective).ceil().max(1.0)
                } else {
                    1.0
                };
                if 4.0 * (cycles + 1.0) > budget as f64 {
                    return Err(format!(
                        "pulse period {period:e} s gives {cycles:e} cycles before {t_end:e} s, \
                         over the {budget}-breakpoint budget"
                    ));
                }
                let mut base = *delay;
                for _ in 0..=cycles as usize {
                    push(base);
                    push(base + rise);
                    push(base + rise + width);
                    push(base + cycle);
                    if effective <= 0.0 {
                        break;
                    }
                    base += effective;
                    if base >= t_end {
                        break;
                    }
                }
            }
            Waveform::Pwl(points) => {
                if points.len() > budget {
                    return Err(format!(
                        "{} PWL knots exceed the {budget}-breakpoint budget",
                        points.len()
                    ));
                }
                for &(t, _) in points {
                    push(t);
                }
            }
        }
        Ok(())
    }

    /// Validates the waveform parameters, returning a description of the
    /// first problem found. Called by the netlist at source-build time so
    /// malformed sources fail loudly instead of simulating garbage.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let finite = |x: f64, what: &str| -> std::result::Result<(), String> {
            if x.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} must be finite, got {x}"))
            }
        };
        match self {
            Waveform::Dc(v) => finite(*v, "DC value"),
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                finite(*v0, "pulse v0")?;
                finite(*v1, "pulse v1")?;
                for (x, what) in [
                    (*delay, "pulse delay"),
                    (*rise, "pulse rise time"),
                    (*fall, "pulse fall time"),
                    (*width, "pulse width"),
                    (*period, "pulse period"),
                ] {
                    finite(x, what)?;
                    if x < 0.0 {
                        return Err(format!("{what} must be non-negative, got {x}"));
                    }
                }
                Ok(())
            }
            Waveform::Pwl(points) => {
                let mut prev = f64::NEG_INFINITY;
                for &(t, v) in points {
                    finite(t, "PWL time")?;
                    finite(v, "PWL value")?;
                    if t < prev {
                        return Err(format!(
                            "PWL times must be non-decreasing, got {t} after {prev}"
                        ));
                    }
                    prev = t;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(2.5);
        assert_eq!(w.eval(0.0), 2.5);
        assert_eq!(w.eval(1.0), 2.5);
        assert_eq!(w.levels(), (2.5, 2.5));
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(1e-9, 0.0), (2e-9, 1.0), (4e-9, 0.5)]);
        assert_eq!(w.eval(0.0), 0.0);
        assert!((w.eval(1.5e-9) - 0.5).abs() < 1e-12);
        assert!((w.eval(3e-9) - 0.75).abs() < 1e-12);
        assert_eq!(w.eval(9e-9), 0.5);
        assert_eq!(w.levels(), (0.0, 1.0));
    }

    #[test]
    fn empty_pwl_is_zero() {
        assert_eq!(Waveform::Pwl(vec![]).eval(1.0), 0.0);
    }

    #[test]
    fn pulse_phases() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-9, 1e-9, 2e-9, 10e-9);
        assert_eq!(w.eval(0.5e-9), 0.0); // before delay
        assert!((w.eval(1.5e-9) - 0.5).abs() < 1e-12); // rising
        assert_eq!(w.eval(2.5e-9), 1.0); // plateau
        assert!((w.eval(4.5e-9) - 0.5).abs() < 1e-12); // falling
        assert_eq!(w.eval(6.0e-9), 0.0); // low
                                         // Periodic repetition.
        assert!((w.eval(11.5e-9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_pulse_when_period_too_short() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-9, 0.0);
        assert_eq!(w.eval(10e-9), 0.0);
        assert_eq!(w.eval(1.5e-9), 1.0);
    }

    #[test]
    fn zero_rise_pulse_steps() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 1e-9, 0.0);
        assert_eq!(w.eval(0.999e-9), 0.0);
        assert_eq!(w.eval(1.001e-9), 1.0);
    }

    #[test]
    fn step_and_ramp_constructors() {
        let r = Waveform::ramp(0.0, 2.0, 1e-9, 2e-9);
        assert_eq!(r.eval(0.0), 0.0);
        assert!((r.eval(2e-9) - 1.0).abs() < 1e-12);
        assert_eq!(r.eval(5e-9), 2.0);
    }

    #[test]
    fn ideal_step_is_low_at_t0() {
        // Regression: step(v, 0) used to return Dc(v), so the operating
        // point already sat at v and the launched edge never existed.
        let w = Waveform::step(1.8, 0.0);
        assert_eq!(w.eval(0.0), 0.0, "operating point sees the pre-edge value");
        assert_eq!(w.eval(1e-18), 1.8, "any positive time is post-edge");
        assert_eq!(w.eval(1.0), 1.8);
        assert_eq!(w.levels(), (0.0, 1.8));
    }

    #[test]
    fn short_period_clamps_to_one_cycle() {
        // Regression: 0 < period <= rise+width+fall used to silently
        // degrade to a single pulse; SPICE clamps the period to one full
        // cycle so the train repeats back-to-back.
        let w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-9, 0.5e-9);
        // cycle = 3 ns; second cycle's mid-rise sits at 3.5 ns.
        assert!((w.eval(3.5e-9) - 0.5).abs() < 1e-12, "train must repeat");
        assert_eq!(w.eval(4.5e-9), 1.0); // second plateau
                                         // period == cycle behaves identically.
        let w2 = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-9, 3e-9);
        assert!((w2.eval(3.5e-9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pulse_breakpoints_cover_periodic_corners() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-9, 1e-9, 2e-9, 10e-9);
        let mut bps = Vec::new();
        w.breakpoints(25e-9, 100, &mut bps).unwrap();
        bps.sort_by(f64::total_cmp);
        bps.dedup();
        // Corners per cycle: delay, +rise, +rise+width, +cycle.
        for expect in [
            1e-9, 2e-9, 4e-9, 5e-9, 11e-9, 12e-9, 14e-9, 15e-9, 21e-9, 22e-9, 24e-9,
        ] {
            assert!(
                bps.iter().any(|&t| (t - expect).abs() < 1e-21),
                "missing corner {expect}: {bps:?}"
            );
        }
        assert!(bps.iter().all(|&t| t > 0.0 && t < 25e-9));
    }

    #[test]
    fn pwl_and_step_breakpoints() {
        let mut bps = Vec::new();
        Waveform::step(1.0, 0.0)
            .breakpoints(1e-9, 100, &mut bps)
            .unwrap();
        // The t = 0 edge is the simulation start, not an interior corner.
        assert!(bps.is_empty(), "{bps:?}");
        bps.clear();
        Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0), (3e-9, 0.5)])
            .breakpoints(2e-9, 100, &mut bps)
            .unwrap();
        assert_eq!(bps, vec![1e-9]);
        bps.clear();
        Waveform::Dc(5.0).breakpoints(1.0, 100, &mut bps).unwrap();
        assert!(bps.is_empty());
    }

    #[test]
    fn pulse_breakpoints_refuse_a_period_below_the_budget() {
        // 1e-30 s is below the ulp of the 1 ns delay: a running sum of
        // periods never advances, so an unbounded walk appends forever.
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 0.0, 1e-30);
        let mut bps = Vec::new();
        let err = w.breakpoints(3e-9, 1_000_000, &mut bps).unwrap_err();
        assert!(err.contains("budget"), "{err}");
        assert_eq!(bps.capacity(), 0, "nothing may be appended");
        // The same train over a window it fits in is listed in full.
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 0.0, 1e-10);
        w.breakpoints(2.95e-9, 1_000, &mut bps).unwrap();
        bps.sort_by(f64::total_cmp);
        bps.dedup();
        assert_eq!(bps.len(), 20, "{bps:?}");
    }

    #[test]
    fn validate_rejects_malformed_sources() {
        assert!(Waveform::pulse(0.0, 1.0, 0.0, -1e-12, 0.0, 1e-9, 0.0)
            .validate()
            .is_err());
        assert!(Waveform::pulse(0.0, 1.0, 0.0, 1e-12, -1.0, 1e-9, 0.0)
            .validate()
            .is_err());
        assert!(Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, -1e-9, 0.0)
            .validate()
            .is_err());
        assert!(Waveform::pulse(0.0, f64::NAN, 0.0, 0.0, 0.0, 1e-9, 0.0)
            .validate()
            .is_err());
        assert!(Waveform::Pwl(vec![(1e-9, 0.0), (0.5e-9, 1.0)])
            .validate()
            .is_err());
        // Equal PWL times are the ideal-step representation: allowed.
        assert!(Waveform::Pwl(vec![(0.0, 0.0), (0.0, 1.0)])
            .validate()
            .is_ok());
        assert!(Waveform::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 1e-9, 0.0)
            .validate()
            .is_ok());
        assert!(Waveform::Dc(f64::INFINITY).validate().is_err());
    }
}
