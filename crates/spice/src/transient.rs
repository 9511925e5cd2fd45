//! Transient MNA simulation: one step loop, fixed or adaptive time axis.
//!
//! The system matrix of a linear circuit at a given timestep is constant,
//! so the solver factorizes once (LU) and back-substitutes per step. The
//! integration method is trapezoidal by default (second-order, no numerical
//! damping — important for the paper's RLC ringing waveforms) with backward
//! Euler available for comparison.
//!
//! [`Transient::run`] has one setup and one step loop: each pass solves the
//! step its policy proposes and commits it if the policy accepts it. The
//! policy, selected through [`Stepping`], is one of:
//!
//! * [`Stepping::Fixed`] — step `n` ends at `n·timestep`, for
//!   `round(duration/timestep)` steps on one factorization, each accepted
//!   as solved (bit-compatible with earlier releases);
//! * [`Stepping::Adaptive`] — local-truncation-error controlled steps.
//!   Each step is solved again as two `h/2` half-steps; the Richardson
//!   difference estimates the LTE, steps violating the tolerance are
//!   rejected and retried smaller, and accepted steps grow the stride. The
//!   time axis *snaps* to source breakpoints
//!   ([`crate::Waveform::breakpoints`]) so pulse corners and PWL knots are
//!   hit exactly, and integration restarts with one damped backward-Euler
//!   step after each discontinuity (and at `t = 0`). Step size changes
//!   reuse the sparse symbolic factorization through a numeric-only
//!   refactorization.
//!
//! A run covers `duration` unless an opt-in stop rule
//! ([`Transient::stop_when_crossed`]) ends it early: after the first
//! committed step at which every watched node has crossed a threshold.
//! The samples before that step are those of the full run, bit for bit,
//! so the duration becomes an upper bound that costs nothing to set
//! generously.
//!
//! Every system is factored by the fill-reducing sparse LU of
//! `rlcx_numeric::sparse` (clocktree MNA matrices have O(n) nonzeros),
//! and the step loop runs without heap allocation — right-hand side,
//! solution, scratch buffers and result columns are preallocated and
//! reused.

use crate::measure;
use crate::netlist::{Element, Netlist, NodeId};
use crate::stamp::{MnaFactor, MnaLayout};
use crate::{Result, SpiceError};
use rlcx_numeric::obs;

/// Numerical integration method for the transient solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Trapezoidal rule: second order, A-stable, no artificial damping.
    #[default]
    Trapezoidal,
    /// Backward Euler: first order, strongly damped (useful to distinguish
    /// physical from numerical ringing).
    BackwardEuler,
}

/// Time-axis control for the transient engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Stepping {
    /// Uniform steps of exactly `timestep` seconds.
    #[default]
    Fixed,
    /// LTE-controlled adaptive steps aligned to source breakpoints; the
    /// builder's `timestep` seeds the initial (and post-breakpoint) step.
    Adaptive(AdaptiveOptions),
}

/// Tuning knobs for [`Stepping::Adaptive`].
///
/// The defaults suit the paper's picosecond-scale clocktree waveforms.
/// The smallest step is derived, `max(timestep·1e-6, duration·1e-15)`;
/// a step at that floor is force-accepted rather than erroring out (the
/// linear system is unconditionally stable).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative LTE tolerance per unknown (default `1e-4`).
    pub reltol: f64,
    /// Absolute LTE floor in volts / amperes (default `1e-6`), guarding
    /// the relative test near zero crossings.
    pub abstol: f64,
    /// Largest step the controller may grow to; `0.0` (the default)
    /// selects `duration / 50`.
    pub h_max: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            reltol: 1e-4,
            abstol: 1e-6,
            h_max: 0.0,
        }
    }
}

/// Step attempts (accepted + rejected) after which a run aborts with
/// [`SpiceError::BadSimParams`], a guard against unmeetable tolerances; a
/// fixed run needing more steps is refused before anything is allocated.
const MAX_ATTEMPTS: usize = 2_000_000;

/// Byte budget for the adaptive recorder's pre-size, summed over the time
/// axis and every result column. A run that records more samples grows
/// its columns past it; a fixed run pre-sizes exactly and is bounded by
/// `MAX_ATTEMPTS` instead.
const ADAPTIVE_PRESIZE_BYTES: usize = 64 << 20;

impl AdaptiveOptions {
    /// Validates the options and returns the step bounds `(h_min, h_max)`
    /// of a run seeded with step `h_init` over `duration`.
    fn step_bounds(&self, h_init: f64, duration: f64) -> Result<(f64, f64)> {
        let bad = |what: String| Err(SpiceError::BadSimParams { what });
        if !(self.reltol > 0.0 && self.reltol.is_finite()) {
            return bad(format!("reltol must be positive, got {}", self.reltol));
        }
        if !(self.abstol > 0.0 && self.abstol.is_finite()) {
            return bad(format!("abstol must be positive, got {}", self.abstol));
        }
        if !(self.h_max >= 0.0 && self.h_max.is_finite()) {
            return bad(format!("h_max must be non-negative, got {}", self.h_max));
        }
        let h_min = (h_init * 1e-6).max(duration * 1e-15).min(h_init);
        let h_max = if self.h_max > 0.0 {
            self.h_max.min(duration)
        } else {
            (duration / 50.0).max(h_init)
        };
        if h_max < h_min {
            return bad(format!(
                "h_max {} is below the smallest step {h_min}",
                self.h_max
            ));
        }
        Ok((h_min, h_max))
    }
}

/// Node voltage of `n` in the MNA solution vector (`0.0` for ground).
fn volt_of(x: &[f64], n: NodeId) -> f64 {
    MnaLayout::var(n).map(|i| x[i]).unwrap_or(0.0)
}

/// Assembles the companion-model right-hand side for one step ending at
/// source time `t_src`, from committed state `x` / `cap_current`.
/// `k` is the companion coefficient of the step being taken (`kC = k·C`,
/// `kL = k·L`); `trap` selects trapezoidal history terms.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_rhs(
    nl: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    cap_current: &[f64],
    t_src: f64,
    k: f64,
    trap: bool,
    rhs: &mut [f64],
) {
    rhs.fill(0.0);
    for (ei, e) in nl.elements.iter().enumerate() {
        match e {
            Element::Resistor { .. } => {}
            Element::Capacitor { p, n, farads, .. } => {
                let v_prev = volt_of(x, *p) - volt_of(x, *n);
                let i_prev = cap_current[ei];
                let ieq = if trap {
                    k * farads * v_prev + i_prev
                } else {
                    k * farads * v_prev
                };
                if let Some(ip) = MnaLayout::var(*p) {
                    rhs[ip] += ieq;
                }
                if let Some(in_) = MnaLayout::var(*n) {
                    rhs[in_] -= ieq;
                }
            }
            Element::Inductor { p, n, henries, .. } => {
                let row = layout.branch(ei);
                let i_prev = x[row];
                let mut r = -k * henries * i_prev;
                if trap {
                    r -= volt_of(x, *p) - volt_of(x, *n);
                }
                rhs[row] = r;
            }
            Element::VSource { wave, .. } => {
                rhs[layout.branch(ei)] = wave.eval(t_src);
            }
        }
    }
    // Mutual history terms (inductor rows only).
    for m in &nl.mutuals {
        let ra = layout.branch(nl.inductors[m.a.0]);
        let rb = layout.branch(nl.inductors[m.b.0]);
        rhs[ra] -= k * m.m * x[rb];
        rhs[rb] -= k * m.m * x[ra];
    }
}

/// Updates capacitor companion currents after a solve: `x_new` is the
/// fresh solution, `x_prev` the state the step departed from, and
/// `cap_current` holds the previous companion currents on entry.
pub(crate) fn update_cap_currents(
    nl: &Netlist,
    x_new: &[f64],
    x_prev: &[f64],
    kc: f64,
    trap: bool,
    cap_current: &mut [f64],
) {
    for (ei, e) in nl.elements.iter().enumerate() {
        if let Element::Capacitor { p, n, farads, .. } = e {
            let v_new = volt_of(x_new, *p) - volt_of(x_new, *n);
            let v_prev = volt_of(x_prev, *p) - volt_of(x_prev, *n);
            let i_prev = cap_current[ei];
            let i_new = if trap {
                kc * farads * (v_new - v_prev) - i_prev
            } else {
                kc * farads * (v_new - v_prev)
            };
            cap_current[ei] = i_new;
        }
    }
}

/// Companion coefficient of a step of size `h`: `2/h` for a trapezoidal
/// step, `1/h` for a backward-Euler one (`kC = k·C`, `kL = k·L`).
fn coeff(h: f64, trap: bool) -> f64 {
    (if trap { 2.0 } else { 1.0 }) / h
}

/// A proposed step of size `h` from `t` to `t_end`, sources evaluated at
/// `t_src`, companion coefficient `k`, trapezoidal history when `trap`.
struct Step {
    t: f64,
    h: f64,
    k: f64,
    trap: bool,
    t_src: f64,
    t_end: f64,
}

/// How the step loop proposes steps and accepts their solutions: the only
/// place where the two [`Stepping`] modes differ.
enum Policy {
    /// `steps` steps of `timestep`, coefficient `k`, each accepted as solved.
    Fixed { steps: usize, k: f64 },
    /// Step-doubling LTE control, snapped to source breakpoints.
    Adaptive(Box<Adaptive>),
}

/// State of the adaptive policy. `h` is the step to propose next: the
/// controller's choice, or the shrunk step after a rejection. `restart`
/// makes it one damped backward-Euler step (at `t = 0` and after each
/// breakpoint) so the trapezoidal rule does not ring on the discontinuity.
/// `bps` holds the breakpoints ahead, next one last; `snapped` marks a
/// proposal that ends on it.
struct Adaptive {
    opts: AdaptiveOptions,
    h_min: f64,
    h_max: f64,
    bps: Vec<f64>,
    h: f64,
    restart: bool,
    snapped: bool,
    /// Factor of the half-step system and the half steps' buffers.
    half: MnaFactor,
    x_mid: Vec<f64>,
    x_half: Vec<f64>,
    cc_half: Vec<f64>,
    rhs: Vec<f64>,
    scratch: Vec<f64>,
}

impl Policy {
    /// The policy of `tr`, and the number of samples to pre-size the
    /// recorder for.
    fn new(tr: &Transient, layout: &MnaLayout) -> Result<(Self, usize)> {
        let (nl, h, duration) = (tr.netlist, tr.timestep, tr.duration);
        let trap = tr.method == IntegrationMethod::Trapezoidal;
        let Stepping::Adaptive(opts) = &tr.stepping else {
            let steps = (duration / h).round() as usize;
            if steps > MAX_ATTEMPTS {
                let what = format!("{steps} fixed steps exceed the {MAX_ATTEMPTS}-step budget");
                return Err(SpiceError::BadSimParams { what });
            }
            let k = coeff(h, trap);
            return Ok((Policy::Fixed { steps, k }, steps + 1));
        };
        let (h_min, h_max) = opts.step_bounds(h, duration)?;
        let t_eps = duration * 1e-12;
        // Every breakpoint ends a step, so a source with more corners than
        // the attempt budget could never finish: refuse it before listing.
        let mut bps = Vec::new();
        for e in &nl.elements {
            if let Element::VSource { name, wave, .. } = e {
                let budget = MAX_ATTEMPTS.saturating_sub(bps.len());
                wave.breakpoints(duration, budget, &mut bps)
                    .map_err(|what| SpiceError::BadSimParams {
                        what: format!("source {name}: {what}"),
                    })?;
            }
        }
        bps.sort_by(f64::total_cmp);
        bps.dedup_by(|a, b| (*a - *b).abs() <= t_eps);
        obs::counter_add("spice.breakpoints", bps.len() as u64);
        // Adaptive runs take far fewer samples than `duration/timestep`, so
        // growing the recorder inside the loop is the exception. No run
        // records more than `MAX_ATTEMPTS` steps, and a large system
        // pre-sizes no more than the byte budget across its columns.
        let columns = 1 + layout.nv + 1 + layout.branch_elems.len();
        let samples = ((2.0 * duration / h).ceil() as usize + 4 * bps.len() + 64)
            .min(MAX_ATTEMPTS)
            .min(ADAPTIVE_PRESIZE_BYTES / (8 * columns));
        bps.retain(|&tb| tb > t_eps);
        bps.reverse();
        let adaptive = Adaptive {
            opts: opts.clone(),
            h_min,
            h_max,
            bps,
            h,
            restart: true,
            snapped: false,
            half: MnaFactor::companion(nl, layout, coeff(0.5 * h, trap))?,
            x_mid: vec![0.0; layout.dim],
            x_half: vec![0.0; layout.dim],
            cc_half: vec![0.0; nl.elements.len()],
            rhs: vec![0.0; layout.dim],
            scratch: vec![0.0; layout.dim],
        };
        Ok((Policy::Adaptive(Box::new(adaptive)), samples))
    }

    /// Attempt `attempt` (from 0) at the step from `t`, `None` once the run
    /// is complete. Fixed steps are never rejected: attempt `n` is step `n + 1`.
    fn propose(&mut self, tr: &Transient, t: f64, attempt: usize) -> Result<Option<Step>> {
        let (h, duration, t_eps) = (tr.timestep, tr.duration, tr.duration * 1e-12);
        let trap = tr.method == IntegrationMethod::Trapezoidal;
        let (h, k, trap, t_src, t_end) = match *self {
            Policy::Fixed { steps, .. } if attempt == steps => return Ok(None),
            Policy::Fixed { k, .. } => {
                let t_end = (attempt + 1) as f64 * h;
                (h, k, trap, t_end, t_end)
            }
            Policy::Adaptive(_) if t >= duration - t_eps => return Ok(None),
            Policy::Adaptive(ref mut a) => {
                if attempt >= MAX_ATTEMPTS {
                    let what = format!("{MAX_ATTEMPTS} adaptive step attempts by t = {t:.3e} s");
                    return Err(SpiceError::BadSimParams { what });
                }
                // `a.h` is already capped at `timestep` on a restart, and
                // after a rejection it is the shrunk step, below every cap.
                let h_try = a.h.max(a.h_min).min(duration - t);
                let tb = a.bps.last().copied().unwrap_or(f64::INFINITY);
                a.snapped = tb - t <= h_try * (1.0 + 1e-9);
                let h_try = if a.snapped { tb - t } else { h_try };
                let t_new = if a.snapped { tb } else { t + h_try };
                // When the step lands on a breakpoint, sources are evaluated
                // just *before* it — the left limit — so a zero-width edge at
                // the breakpoint cannot leak its post-edge value into the
                // step that ends there.
                let t_src = t_new * if a.snapped { 1.0 - 1e-12 } else { 1.0 };
                let at_end = duration - t_new <= t_eps;
                let t_end = if at_end { duration } else { t_new };
                let trap = trap && !a.restart;
                (h_try, coeff(h_try, trap), trap, t_src, t_end)
            }
        };
        Ok(Some(Step {
            t,
            h,
            k,
            trap,
            t_src,
            t_end,
        }))
    }

    /// Judges the solution `x_new` of `step`, taken from state `x`. On
    /// acceptance `x_new` and `cap_current` hold the state to commit; a
    /// rejection leaves `cap_current` as it was.
    fn accept(
        &mut self,
        tr: &Transient,
        layout: &MnaLayout,
        step: &Step,
        x: &[f64],
        x_new: &mut Vec<f64>,
        cap_current: &mut Vec<f64>,
    ) -> Result<bool> {
        let (nl, t, h, trap) = (tr.netlist, step.t, step.h, step.trap);
        let Policy::Adaptive(a) = self else {
            update_cap_currents(nl, x_new, x, step.k, trap, cap_current);
            return Ok(true);
        };
        // The same step as two half steps.
        let h2 = 0.5 * h;
        let k2 = coeff(h2, trap);
        a.half.ensure(nl, layout, k2)?;
        assemble_rhs(nl, layout, x, cap_current, t + h2, k2, trap, &mut a.rhs);
        a.half.solve_into(&a.rhs, &mut a.scratch, &mut a.x_mid)?;
        a.cc_half.copy_from_slice(cap_current);
        update_cap_currents(nl, &a.x_mid, x, k2, trap, &mut a.cc_half);
        let (x_mid, cc_half) = (&a.x_mid, &a.cc_half);
        assemble_rhs(nl, layout, x_mid, cc_half, step.t_src, k2, trap, &mut a.rhs);
        a.half.solve_into(&a.rhs, &mut a.scratch, &mut a.x_half)?;

        // Step-doubling LTE: for a method of order p the half-step
        // solution's error is ≈ (x_half − x_full)/(2^p − 1).
        let denom = if trap { 3.0 } else { 1.0 };
        let err_exp = if trap { -1.0 / 3.0 } else { -1.0 / 2.0 };
        let err = (0..x.len()).fold(0.0_f64, |err, i| {
            let scale = a.opts.abstol + a.opts.reltol * a.x_half[i].abs().max(x[i].abs());
            err.max((a.x_half[i] - x_new[i]).abs() / (denom * scale))
        });
        let ok = err <= 1.0 || h <= a.h_min * (1.0 + 1e-9);
        obs::counter_add("spice.steps.rejected", u64::from(!ok));
        // The controller's factor for the next step: 0.9·err^(−1/(p+1)).
        let factor = (err > 0.0 && err.is_finite()).then(|| 0.9 * err.powf(err_exp));
        if !ok {
            obs::series_push("transient.lte", t + h, err);
            obs::series_push("transient.accept", t + h, 0.0);
            a.h = h * factor.map_or(0.1, |f| f.clamp(0.1, 0.5));
            return Ok(false);
        }

        // Accept the (more accurate) half-step solution.
        update_cap_currents(nl, &a.x_half, &a.x_mid, k2, trap, &mut a.cc_half);
        std::mem::swap(x_new, &mut a.x_half);
        std::mem::swap(cap_current, &mut a.cc_half);
        obs::series_push("transient.h", step.t_end, h);
        obs::series_push("transient.lte", step.t_end, err);
        obs::series_push("transient.accept", step.t_end, 1.0);
        a.h = (h * factor.map_or(2.0, |f| f.clamp(0.2, 2.0))).clamp(a.h_min, a.h_max);
        a.restart = a.snapped;
        if a.snapped {
            // Drop the breakpoint (and any within `t_eps` past it), then
            // restart across the discontinuity at edge resolution.
            let t_next = step.t_end + tr.duration * 1e-12;
            while a.bps.last().is_some_and(|&tb| tb <= t_next) {
                a.bps.pop();
            }
            a.h = a.h.min(tr.timestep);
        }
        Ok(true)
    }
}

/// Transient analysis builder over a [`Netlist`].
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Transient<'a> {
    netlist: &'a Netlist,
    timestep: f64,
    duration: f64,
    method: IntegrationMethod,
    stepping: Stepping,
    stop: Option<StopRule>,
}

/// The run-level stop rule of [`Transient::stop_when_crossed`].
#[derive(Debug, Clone)]
struct StopRule {
    nodes: Vec<String>,
    threshold: f64,
    rising: bool,
}

/// A [`StopRule`] resolved against the netlist: per watched node its id,
/// its last committed sample and whether it has crossed. Built from the
/// `t = 0` sample before the step loop, so watching allocates nothing per
/// step.
struct Watch {
    threshold: f64,
    rising: bool,
    nodes: Vec<(NodeId, f64, bool)>,
    pending: usize,
}

impl Watch {
    fn new(rule: &StopRule, nl: &Netlist, x: &[f64]) -> Result<Self> {
        let bad = |what: String| Err(SpiceError::BadSimParams { what });
        if rule.nodes.is_empty() {
            return bad("the stop rule watches no node".into());
        }
        if !rule.threshold.is_finite() {
            return bad(format!(
                "stop threshold must be finite, got {}",
                rule.threshold
            ));
        }
        let nodes = rule
            .nodes
            .iter()
            .map(|name| {
                let n = nl.find_node(name)?;
                Ok((n, volt_of(x, n), false))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Watch {
            threshold: rule.threshold,
            rising: rule.rising,
            pending: nodes.len(),
            nodes,
        })
    }

    /// Advances to the committed sample `x`; true once every watched node
    /// has crossed, judged pair by pair exactly as [`measure::cross_time`]
    /// judges the recorded columns.
    fn crossed_all(&mut self, x: &[f64]) -> bool {
        for (n, last, crossed) in &mut self.nodes {
            let v = volt_of(x, *n);
            if !*crossed && measure::crosses(*last, v, self.threshold, self.rising) {
                *crossed = true;
                self.pending -= 1;
            }
            *last = v;
        }
        self.pending == 0
    }
}

impl<'a> Transient<'a> {
    /// Creates an analysis with defaults: 1 ps step, 5 ns duration,
    /// trapezoidal integration, fixed stepping.
    pub fn new(netlist: &'a Netlist) -> Self {
        Transient {
            netlist,
            timestep: 1e-12,
            duration: 5e-9,
            method: IntegrationMethod::default(),
            stepping: Stepping::default(),
            stop: None,
        }
    }

    /// Sets the timestep (seconds). Under adaptive stepping this seeds
    /// the initial step and the restart step after each breakpoint.
    #[must_use]
    pub fn timestep(mut self, h: f64) -> Self {
        self.timestep = h;
        self
    }

    /// Sets the simulated duration (seconds): the whole run, or its upper
    /// bound under [`Transient::stop_when_crossed`].
    #[must_use]
    pub fn duration(mut self, t: f64) -> Self {
        self.duration = t;
        self
    }

    /// Sets the integration method.
    #[must_use]
    pub fn method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the time-axis policy (default [`Stepping::Fixed`]).
    #[must_use]
    pub fn stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// Ends the run after the first committed step at which every node in
    /// `nodes` has crossed `threshold` in the given direction (rising
    /// when `rising`), so the duration becomes an upper bound. A crossing
    /// is judged on consecutive samples by [`measure::crosses`], so the
    /// rule fires exactly when [`measure::cross_time`] on the recorded
    /// prefix finds every node's first crossing, and every sample up to
    /// that step is the one a full run records. A run in which some node
    /// never crosses covers the whole duration.
    ///
    /// Counts `spice.stops` per stopped run and, under fixed stepping,
    /// the steps not taken in `spice.steps.saved`.
    #[must_use]
    pub fn stop_when_crossed<I, S>(mut self, nodes: I, threshold: f64, rising: bool) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.stop = Some(StopRule {
            nodes: nodes.into_iter().map(Into::into).collect(),
            threshold,
            rising,
        });
        self
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadSimParams`] for non-positive step/duration, a
    ///   step larger than the duration, malformed adaptive options, a
    ///   stop rule with no node or a non-finite threshold, or a run
    ///   exceeding its step budget,
    /// * [`SpiceError::Unknown`] for a stop-rule node not in the netlist,
    /// * [`SpiceError::SingularMna`] if the MNA matrix is singular for a
    ///   diagnosable structural reason (floating node, ideal-branch
    ///   loop), [`SpiceError::Numeric`] otherwise.
    pub fn run(&self) -> Result<TransientResult> {
        let _span = obs::span("spice.transient");
        obs::counter_add("spice.transients", 1);
        let (h, duration) = (self.timestep, self.duration);
        let bad = |what: String| Err(SpiceError::BadSimParams { what });
        if !(h > 0.0 && h.is_finite()) {
            return bad(format!("timestep must be positive, got {h}"));
        }
        if !(duration >= h && duration.is_finite()) {
            let what = format!("duration {duration} must be at least one timestep {h}");
            return bad(what);
        }
        let nl = self.netlist;
        let layout = MnaLayout::new(nl)?;
        let dim = layout.dim;
        obs::gauge_set("spice.mna.dim", dim as f64);

        // The loop's factor, for a step of `timestep`. Fixed steps keep it;
        // adaptive step-size changes re-stamp it and redo only the numeric
        // factorization (symbolic analysis reused).
        let factor_span = obs::span("spice.mna.factor");
        let trap = self.method == IntegrationMethod::Trapezoidal;
        let mut lu = MnaFactor::companion(nl, &layout, coeff(h, trap))?;
        let (mut policy, samples) = Policy::new(self, &layout)?;
        drop(factor_span);
        if let Ok(cond) = lu.cond_est() {
            obs::gauge_set("lu.cond_est", cond);
        }

        // DC operating point at t = 0: resistors as-is, inductors as shorts,
        // capacitors open, sources at their initial value.
        let mut x = self.dc_operating_point(&layout)?;

        // State: node voltages + branch currents in `x`; capacitor currents
        // tracked separately for the trapezoidal companion. Every buffer the
        // step loop touches is preallocated here — the loop itself is
        // heap-allocation-free (asserted by `tests/obs_overhead.rs`).
        let mut x_new = vec![0.0; dim];
        let mut scratch = vec![0.0; dim];
        let mut rhs = vec![0.0; dim];
        let mut cap_current = vec![0.0; nl.elements.len()];
        let mut rec = Recorder::new(&layout, samples);
        rec.record(0.0, &x);
        let mut watch = self
            .stop
            .as_ref()
            .map(|r| Watch::new(r, nl, &x))
            .transpose()?;

        let (mut t, mut accepted, mut rejected) = (0.0, 0, 0);
        while let Some(step) = policy.propose(self, t, accepted + rejected)? {
            let (k, trap) = (step.k, step.trap);
            lu.ensure(nl, &layout, k)?;
            assemble_rhs(nl, &layout, &x, &cap_current, step.t_src, k, trap, &mut rhs);
            lu.solve_into(&rhs, &mut scratch, &mut x_new)?;
            if !policy.accept(self, &layout, &step, &x, &mut x_new, &mut cap_current)? {
                rejected += 1;
                continue;
            }
            std::mem::swap(&mut x, &mut x_new);
            t = step.t_end;
            accepted += 1;
            rec.record(t, &x);
            if watch.as_mut().is_some_and(|w| w.crossed_all(&x)) {
                obs::counter_add("spice.stops", 1);
                if let Policy::Fixed { steps, .. } = policy {
                    obs::counter_add("spice.steps.saved", (steps - accepted) as u64);
                }
                break;
            }
        }
        // The MNA system is linear, so each step is one back-substitution —
        // there is no Newton loop to count, only steps.
        obs::counter_add("spice.steps", accepted as u64);

        Ok(rec.finish(nl, &layout, rejected))
    }

    /// DC operating point: inductors shorted, capacitors open, sources at
    /// `t = 0`, factored like the main analysis and polished with
    /// iterative refinement.
    ///
    /// A 1 pS gmin conductance from every node to ground keeps nodes
    /// isolated by capacitors (open at DC) well-defined without noticeable
    /// loading; the inductor branch equation reads `v_p − v_n = ε·i` (a
    /// 1 nΩ "short") so configurations like a source in parallel with an
    /// inductor — two ideal shorts — stay non-singular. Mutual couplings
    /// carry no DC term.
    fn dc_operating_point(&self, layout: &MnaLayout) -> Result<Vec<f64>> {
        let nl = self.netlist;
        let lu = MnaFactor::assemble(nl, layout, 1e-12, |_| 0.0, |_| 1e-9, |_| 0.0)?;
        let mut rhs = vec![0.0; layout.dim];
        for (ei, e) in nl.elements.iter().enumerate() {
            if let Element::VSource { wave, .. } = e {
                rhs[layout.branch(ei)] = wave.eval(0.0);
            }
        }
        // The gmin/ε regularization skews conditioning; one round of
        // refinement recovers the digits it costs.
        lu.solve_refined(&rhs, 2)
    }
}

/// Result columns recorded sample by sample. Every column is pre-sized,
/// so recording inside a step loop does not allocate while the run stays
/// within the capacity.
pub(crate) struct Recorder {
    time: Vec<f64>,
    /// One column per node, ground (always 0 V) first.
    volts: Vec<Vec<f64>>,
    /// One column per branch unknown, in [`MnaLayout`] order.
    branch_currents: Vec<Vec<f64>>,
}

impl Recorder {
    pub(crate) fn new(layout: &MnaLayout, capacity: usize) -> Self {
        // Not `vec![Vec::with_capacity(..); n]`: cloning a Vec drops its
        // capacity, which would turn every recorded column into a growing
        // vector that reallocates inside the step loop.
        let columns = |n: usize| (0..n).map(|_| Vec::with_capacity(capacity)).collect();
        Recorder {
            time: Vec::with_capacity(capacity),
            volts: columns(layout.nv + 1),
            branch_currents: columns(layout.branch_elems.len()),
        }
    }

    /// Appends the sample at time `t` from MNA solution `x`.
    pub(crate) fn record(&mut self, t: f64, x: &[f64]) {
        let nv = self.volts.len() - 1;
        self.time.push(t);
        self.volts[0].push(0.0);
        for (col, &v) in self.volts[1..].iter_mut().zip(&x[..nv]) {
            col.push(v);
        }
        for (col, &i) in self.branch_currents.iter_mut().zip(&x[nv..]) {
            col.push(i);
        }
    }

    /// Packs the recorded samples into a [`TransientResult`].
    pub(crate) fn finish(
        self,
        nl: &Netlist,
        layout: &MnaLayout,
        rejected_steps: usize,
    ) -> TransientResult {
        let node_names: Vec<String> = (0..nl.node_count())
            .map(|i| nl.node_name(NodeId(i)).to_string())
            .collect();
        let branch_names: Vec<String> = layout
            .branch_elems
            .iter()
            .map(|&ei| match &nl.elements[ei] {
                Element::Inductor { name, .. } | Element::VSource { name, .. } => name.clone(),
                _ => unreachable!("branch table holds only inductors and sources"),
            })
            .collect();
        TransientResult {
            time: self.time,
            node_names,
            volts: self.volts,
            branch_names,
            branch_currents: self.branch_currents,
            rejected_steps,
        }
    }
}

/// Sampled waveforms produced by [`Transient::run`].
#[derive(Debug, Clone)]
pub struct TransientResult {
    time: Vec<f64>,
    node_names: Vec<String>,
    volts: Vec<Vec<f64>>,
    branch_names: Vec<String>,
    branch_currents: Vec<Vec<f64>>,
    rejected_steps: usize,
}

impl TransientResult {
    /// The time axis (seconds): strictly increasing, uniformly spaced
    /// under [`Stepping::Fixed`], breakpoint-aligned and variable under
    /// [`Stepping::Adaptive`].
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of accepted integration steps (the `t = 0` sample is not a
    /// step).
    pub fn steps_accepted(&self) -> usize {
        self.time.len().saturating_sub(1)
    }

    /// Number of step attempts rejected by the LTE controller; always
    /// zero under [`Stepping::Fixed`].
    pub fn steps_rejected(&self) -> usize {
        self.rejected_steps
    }

    /// Voltage samples of a node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Unknown`] for an unknown node name.
    pub fn voltage(&self, node: &str) -> Result<&[f64]> {
        self.node_names
            .iter()
            .position(|n| n == node)
            .map(|i| self.volts[i].as_slice())
            .ok_or_else(|| SpiceError::Unknown {
                what: format!("node {node}"),
            })
    }

    /// Branch current samples of an inductor or source by element name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Unknown`] for an unknown element name.
    pub fn current(&self, element: &str) -> Result<&[f64]> {
        self.branch_names
            .iter()
            .position(|n| n == element)
            .map(|i| self.branch_currents[i].as_slice())
            .ok_or_else(|| SpiceError::Unknown {
                what: format!("element {element}"),
            })
    }

    /// Linear interpolation of a node voltage at an arbitrary time.
    /// Works on both uniform and adaptive (non-uniform) time axes.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Unknown`] for an unknown node name and
    /// [`SpiceError::BadSimParams`] for a non-finite `t`.
    pub fn voltage_at(&self, node: &str, t: f64) -> Result<f64> {
        let v = self.voltage(node)?;
        if !t.is_finite() {
            let what = format!("probe time must be finite, got {t}");
            return Err(SpiceError::BadSimParams { what });
        }
        if t <= self.time[0] {
            return Ok(v[0]);
        }
        let last = *self.time.last().expect("non-empty time axis");
        if t >= last {
            return Ok(*v.last().expect("non-empty samples"));
        }
        let idx = match self.time.binary_search_by(|probe| probe.total_cmp(&t)) {
            Ok(i) => return Ok(v[i]),
            Err(i) => i - 1,
        };
        let (t0, t1) = (self.time[idx], self.time[idx + 1]);
        let frac = (t - t0) / (t1 - t0);
        Ok(v[idx] * (1.0 - frac) + v[idx + 1] * frac)
    }

    /// All node names, ground (`"0"`) first.
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;
    use crate::waveform::Waveform;

    #[test]
    fn rc_step_response_matches_analytic() {
        // An ideal step at t = 0: the DC operating point sees the source
        // at 0 V, then the transient charges the capacitor.
        let (r, c) = (1e3, 1e-12);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 0.0))
            .unwrap();
        nl.resistor("R", inp, out, r).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let res = Transient::new(&nl)
            .timestep(5e-13)
            .duration(6e-9)
            .run()
            .unwrap();
        let tau = r * c;
        for &t in &[1e-9, 2e-9, 3e-9] {
            let v = res.voltage_at("out", t).unwrap();
            let expect = 1.0 - (-t / tau).exp();
            assert!((v - expect).abs() < 5e-3, "t = {t}: {v} vs {expect}");
        }
        assert_eq!(res.steps_rejected(), 0, "fixed stepping never rejects");
    }

    #[test]
    fn dc_operating_point_charges_capacitor() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::Dc(2.0)).unwrap();
        nl.resistor("R", inp, out, 1e3).unwrap();
        nl.capacitor("C", out, GROUND, 1e-12).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(1e-10)
            .run()
            .unwrap();
        // Already settled at t = 0 — no transient.
        assert!((res.voltage("out").unwrap()[0] - 2.0).abs() < 1e-6);
        assert!((res.voltage_at("out", 1e-10).unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rl_current_ramp() {
        // V = L di/dt: 1 V across 1 nH (plus tiny R) → di/dt = 1 A/ns.
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let mid = nl.node("mid");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        nl.resistor("R", inp, mid, 1e-3).unwrap();
        nl.inductor("L", mid, GROUND, 1e-9).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-13)
            .duration(1e-9)
            .run()
            .unwrap();
        let i = res.current("L").unwrap();
        let i_end = *i.last().unwrap();
        assert!((i_end - 1.0).abs() < 0.01, "i(1ns) = {i_end}");
    }

    #[test]
    fn series_rlc_rings_at_resonance() {
        // Under-damped series RLC driven by a step: ringing period
        // T = 2π√(LC).
        let (r, l, c) = (1.0, 1e-9, 1e-12);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let a = nl.node("a");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 1e-12))
            .unwrap();
        nl.resistor("R", inp, a, r).unwrap();
        nl.inductor("L", a, out, l).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let res = Transient::new(&nl)
            .timestep(2e-13)
            .duration(2e-9)
            .run()
            .unwrap();
        let v = res.voltage("out").unwrap();
        let vmax = v.iter().fold(0.0_f64, |m, &x| m.max(x));
        // Strong overshoot for this Q (≈ 31): peak close to 2×.
        assert!(vmax > 1.5, "vmax = {vmax}");
        // Find first two maxima crossings to estimate the period.
        let t = res.time();
        let mut peaks = Vec::new();
        for i in 1..v.len() - 1 {
            if v[i] > v[i - 1] && v[i] > v[i + 1] && v[i] > 1.0 {
                peaks.push(t[i]);
            }
        }
        assert!(peaks.len() >= 2, "need two peaks, got {}", peaks.len());
        let period = peaks[1] - peaks[0];
        let expect = 2.0 * std::f64::consts::PI * (l * c).sqrt();
        assert!(
            (period - expect).abs() / expect < 0.05,
            "T = {period} vs {expect}"
        );
    }

    #[test]
    fn backward_euler_damps_ringing() {
        let (r, l, c) = (1.0, 1e-9, 1e-12);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let a = nl.node("a");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 1e-12))
            .unwrap();
        nl.resistor("R", inp, a, r).unwrap();
        nl.inductor("L", a, out, l).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let trap = Transient::new(&nl)
            .timestep(1e-12)
            .duration(2e-9)
            .run()
            .unwrap();
        let be = Transient::new(&nl)
            .timestep(1e-12)
            .duration(2e-9)
            .method(IntegrationMethod::BackwardEuler)
            .run()
            .unwrap();
        let peak = |r: &TransientResult| {
            r.voltage("out")
                .unwrap()
                .iter()
                .fold(0.0_f64, |m, &x| m.max(x))
        };
        assert!(peak(&be) < peak(&trap), "BE should damp the overshoot");
    }

    #[test]
    fn coupled_inductors_transformer_action() {
        // Perfect-ish coupling: a fast current ramp in the primary induces
        // voltage in the open secondary ≈ (M/L1) × V_primary.
        let (l1, l2, m) = (1e-9, 1e-9, 0.8e-9);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let sec = nl.node("sec");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 1e-12))
            .unwrap();
        let p = nl.inductor("Lp", inp, GROUND, l1).unwrap();
        let s = nl.inductor("Ls", sec, GROUND, l2).unwrap();
        nl.mutual("K", p, s, m).unwrap();
        // Load the secondary lightly so its node is not floating.
        nl.resistor("Rl", sec, GROUND, 1e6).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-13)
            .duration(0.5e-9)
            .run()
            .unwrap();
        let v_sec = res.voltage_at("sec", 0.3e-9).unwrap();
        // With the secondary nearly open: v_sec = (M/L1)·v_in = 0.8.
        assert!((v_sec - 0.8).abs() < 0.05, "v_sec = {v_sec}");
    }

    #[test]
    fn bad_params_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        assert!(Transient::new(&nl).timestep(0.0).run().is_err());
        assert!(Transient::new(&nl)
            .timestep(1e-12)
            .duration(1e-13)
            .run()
            .is_err());
        let empty = Netlist::new();
        assert!(Transient::new(&empty).run().is_err());
    }

    #[test]
    fn adaptive_rejects_bad_options() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let run =
            |opts: AdaptiveOptions| Transient::new(&nl).stepping(Stepping::Adaptive(opts)).run();
        assert!(run(AdaptiveOptions {
            reltol: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(run(AdaptiveOptions {
            abstol: -1.0,
            ..Default::default()
        })
        .is_err());
        // Below the derived smallest step (≈ 1e-18 s here): the step
        // controller could not clamp between the two bounds.
        assert!(matches!(
            run(AdaptiveOptions {
                h_max: 1e-30,
                ..Default::default()
            }),
            Err(SpiceError::BadSimParams { .. })
        ));
        assert!(run(AdaptiveOptions::default()).is_ok());
    }

    #[test]
    fn step_budget_bounds_the_recorder() {
        // 1 s at 1 fs is 10^15 steps: neither stepping mode may pre-size
        // the recorder for that many samples (the allocator aborts).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::step(1.0, 0.0))
            .unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let tr = Transient::new(&nl).timestep(1e-15).duration(1.0);
        // Fixed stepping would need 10^15 steps: refused up front.
        let fixed = tr.clone().run();
        assert!(
            matches!(fixed, Err(SpiceError::BadSimParams { .. })),
            "{fixed:?}"
        );
        // Adaptive stepping only starts at 1 fs; the step controller grows
        // the step and the run finishes in a few dozen steps.
        let adaptive = tr.stepping(Stepping::Adaptive(AdaptiveOptions::default()));
        let res = adaptive.run().unwrap();
        assert!(res.steps_accepted() < 1000, "{}", res.steps_accepted());
        assert_eq!(res.time().last().copied(), Some(1.0));
    }

    #[test]
    fn adaptive_matches_fixed_on_rc_with_fewer_steps() {
        let (r, c) = (1e3, 1e-12);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 0.0))
            .unwrap();
        nl.resistor("R", inp, out, r).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let fixed = Transient::new(&nl)
            .timestep(1e-12)
            .duration(6e-9)
            .run()
            .unwrap();
        let adaptive = Transient::new(&nl)
            .timestep(1e-12)
            .duration(6e-9)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .run()
            .unwrap();
        for &t in &[0.3e-9, 1e-9, 2.5e-9, 5e-9] {
            let vf = fixed.voltage_at("out", t).unwrap();
            let va = adaptive.voltage_at("out", t).unwrap();
            assert!(
                (vf - va).abs() < 2e-3,
                "t = {t}: fixed {vf} vs adaptive {va}"
            );
        }
        assert!(
            adaptive.steps_accepted() * 3 < fixed.steps_accepted(),
            "adaptive {} vs fixed {} steps",
            adaptive.steps_accepted(),
            fixed.steps_accepted()
        );
    }

    #[test]
    fn adaptive_snaps_to_pulse_breakpoints() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource(
            "V",
            inp,
            GROUND,
            Waveform::pulse(0.0, 1.0, 0.5e-9, 0.1e-9, 0.1e-9, 1.0e-9, 0.0),
        )
        .unwrap();
        nl.resistor("R", inp, out, 100.0).unwrap();
        nl.capacitor("C", out, GROUND, 1e-13).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(3e-9)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .run()
            .unwrap();
        let time = res.time();
        for corner in [0.5e-9, 0.6e-9, 1.6e-9, 1.7e-9] {
            assert!(
                time.iter().any(|&t| (t - corner).abs() < 1e-18),
                "time axis misses pulse corner {corner}"
            );
        }
        // The time axis must be strictly increasing.
        for w in time.windows(2) {
            assert!(w[1] > w[0], "non-monotone axis: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn adaptive_tracks_rlc_ringing() {
        // The hard case for step control: an underdamped resonance. The
        // adaptive axis must track every swing, matched here against a
        // heavily oversampled fixed reference.
        let (r, l, c) = (1.0, 1e-9, 1e-12);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let a = nl.node("a");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 10e-12))
            .unwrap();
        nl.resistor("R", inp, a, r).unwrap();
        nl.inductor("L", a, out, l).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let reference = Transient::new(&nl)
            .timestep(2e-14)
            .duration(2e-9)
            .run()
            .unwrap();
        let adaptive = Transient::new(&nl)
            .timestep(2e-13)
            .duration(2e-9)
            .stepping(Stepping::Adaptive(AdaptiveOptions {
                reltol: 1e-5,
                ..Default::default()
            }))
            .run()
            .unwrap();
        let mut worst = 0.0_f64;
        for i in 1..=100 {
            let t = i as f64 * 2e-11;
            let vr = reference.voltage_at("out", t).unwrap();
            let va = adaptive.voltage_at("out", t).unwrap();
            worst = worst.max((vr - va).abs());
        }
        assert!(worst < 5e-3, "worst-case deviation {worst} V");
        assert!(
            adaptive.steps_accepted() < reference.steps_accepted() / 10,
            "adaptive {} vs reference {}",
            adaptive.steps_accepted(),
            reference.steps_accepted()
        );
    }

    #[test]
    fn floating_node_is_diagnosed() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.node("orphan"); // interned, never connected
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        for stepping in [
            Stepping::Fixed,
            Stepping::Adaptive(AdaptiveOptions::default()),
        ] {
            let err = Transient::new(&nl)
                .stepping(stepping)
                .run()
                .expect_err("floating node must not factor");
            match err {
                SpiceError::SingularMna { unknown, reason } => {
                    assert!(unknown.contains("orphan"), "{unknown}");
                    assert!(reason.contains("floating"), "{reason}");
                }
                other => panic!("expected SingularMna, got {other:?}"),
            }
        }
    }

    #[test]
    fn voltage_lookup_errors() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(1e-11)
            .run()
            .unwrap();
        assert!(res.voltage("nope").is_err());
        assert!(res.current("nope").is_err());
        assert!(res.voltage("a").is_ok());
        assert!(res.current("V").is_ok());
        // Source current is −V/R = −1 A (current flows out of + terminal
        // through the resistor, so the branch current into + is negative).
        let i = res.current("V").unwrap().last().copied().unwrap();
        assert!((i + 1.0).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn interpolation_clamps_at_ends() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(3.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(1e-11)
            .run()
            .unwrap();
        assert_eq!(res.voltage_at("a", -1.0).unwrap(), 3.0);
        assert_eq!(res.voltage_at("a", 1.0).unwrap(), 3.0);
    }

    #[test]
    fn interpolation_rejects_non_finite_time() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 5e-12))
            .unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let res = Transient::new(&nl)
            .timestep(1e-12)
            .duration(1e-11)
            .run()
            .unwrap();
        // +NaN sorts after every sample and −NaN before the first one, so
        // both ends of the binary search are probed.
        for t in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(res.voltage_at("a", t), Err(SpiceError::BadSimParams { .. })),
                "t = {t}"
            );
        }
    }

    /// A transformer-coupled RLC network: mutual terms land on
    /// off-diagonal branch rows, the part of the pattern most likely to
    /// go wrong in the sparse assembly.
    fn transformer() -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let mid = nl.node("mid");
        let sec = nl.node("sec");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 50e-12))
            .unwrap();
        nl.resistor("Rs", inp, mid, 20.0).unwrap();
        let lp = nl.inductor("Lp", mid, GROUND, 2e-9).unwrap();
        let ls = nl.inductor("Ls", sec, GROUND, 2e-9).unwrap();
        nl.mutual("K", lp, ls, 1.2e-9).unwrap();
        nl.resistor("Rl", sec, out, 50.0).unwrap();
        nl.capacitor("Cl", out, GROUND, 0.5e-12).unwrap();
        nl
    }

    #[test]
    fn coupled_inductors_agree_across_engines() {
        // The sparse engine must reproduce the dense reference's
        // trajectories to solver precision under both integration methods.
        let nl = transformer();
        for method in [
            IntegrationMethod::Trapezoidal,
            IntegrationMethod::BackwardEuler,
        ] {
            let dense = crate::oracle::transient(&nl, method, 1e-12, 2e-9);
            let sparse = Transient::new(&nl)
                .method(method)
                .timestep(1e-12)
                .duration(2e-9)
                .run()
                .unwrap();
            for node in ["mid", "sec", "out"] {
                let vd = dense.voltage(node).unwrap();
                let vs = sparse.voltage(node).unwrap();
                for (d, s) in vd.iter().zip(vs) {
                    let err = (d - s).abs() / d.abs().max(1.0);
                    assert!(err < 1e-12, "{method:?} {node}: {d} vs {s}");
                }
            }
            // Branch currents too — the mutual terms live on these rows.
            for branch in ["Lp", "Ls"] {
                let id = dense.current(branch).unwrap();
                let is = sparse.current(branch).unwrap();
                for (d, s) in id.iter().zip(is) {
                    let err = (d - s).abs() / d.abs().max(1.0);
                    assert!(err < 1e-12, "{method:?} {branch}: {d} vs {s}");
                }
            }
            // Sanity: the secondary actually sees coupled energy.
            let peak = dense
                .voltage("sec")
                .unwrap()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak > 1e-3, "{method:?}: no coupling observed ({peak})");
        }
    }

    #[test]
    fn adaptive_agrees_across_engines() {
        // Same transformer network on the adaptive axis — the path that
        // restamps through the slot map and refactors numerically at every
        // step-size change — against the dense reference's fixed 1 ps
        // axis, compared on interpolated waveforms.
        let nl = transformer();
        let dense = crate::oracle::transient(&nl, IntegrationMethod::Trapezoidal, 1e-12, 2e-9);
        let sparse = Transient::new(&nl)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .timestep(1e-12)
            .duration(2e-9)
            .run()
            .unwrap();
        for node in ["mid", "sec", "out"] {
            for i in 1..=50 {
                let t = i as f64 * 4e-11;
                let d = dense.voltage_at(node, t).unwrap();
                let s = sparse.voltage_at(node, t).unwrap();
                assert!((d - s).abs() < 1e-3, "{node} at {t}: {d} vs {s}");
            }
        }
    }

    #[test]
    fn numeric_singularity_names_the_unknown() {
        // Perfectly coupled twin inductors in parallel (M = L) make their
        // two branch rows identical: singular with no floating node or
        // ideal loop, so the failing sparse pivot must name the unknown.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 1e-11))
            .unwrap();
        nl.resistor("R", a, b, 10.0).unwrap();
        let l1 = nl.inductor("L1", b, GROUND, 1e-9).unwrap();
        let l2 = nl.inductor("L2", b, GROUND, 1e-9).unwrap();
        nl.mutual("K", l1, l2, 1e-9).unwrap();
        match Transient::new(&nl)
            .run()
            .expect_err("M = L must not factor")
        {
            SpiceError::SingularMna { unknown, reason } => {
                assert!(unknown.contains("branch current of 'L"), "{unknown}");
                assert!(reason.contains("pivot"), "{reason}");
            }
            other => panic!("expected SingularMna, got {other:?}"),
        }
    }

    /// An RLC ladder driven by a 20 ps ramp, taps `n0`..`n3` crossing
    /// midswing one after the other.
    fn ladder() -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        let mut prev = inp;
        for i in 0..4 {
            let mid = nl.node(format!("m{i}"));
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 20.0).unwrap();
            nl.inductor(&format!("L{i}"), mid, out, 0.5e-9).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 50e-15).unwrap();
            prev = out;
        }
        nl
    }

    /// Every column of `part` is a bit-exact prefix of the same column of
    /// `full`.
    fn assert_prefix(part: &TransientResult, full: &TransientResult) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let n = part.time().len();
        assert!(n <= full.time().len());
        assert_eq!(bits(part.time()), bits(&full.time()[..n]), "time axis");
        for name in full.node_names() {
            let (p, f) = (part.voltage(name).unwrap(), full.voltage(name).unwrap());
            assert_eq!(bits(p), bits(&f[..n]), "node {name}");
        }
        for name in ["V", "L0", "L1", "L2", "L3"] {
            let (p, f) = (part.current(name).unwrap(), full.current(name).unwrap());
            assert_eq!(bits(p), bits(&f[..n]), "branch {name}");
        }
    }

    #[test]
    fn stopped_run_is_a_bit_exact_prefix_of_the_full_run() {
        let nl = ladder();
        let watched = ["in", "n1", "n3"];
        for stepping in [
            Stepping::Fixed,
            Stepping::Adaptive(AdaptiveOptions::default()),
        ] {
            let tr = Transient::new(&nl)
                .timestep(0.5e-12)
                .duration(3e-9)
                .stepping(stepping.clone());
            let full = tr.clone().run().unwrap();
            let part = tr.stop_when_crossed(watched, 0.5, true).run().unwrap();
            assert!(
                part.time().len() * 2 < full.time().len(),
                "{stepping:?}: stopped after {} of {} samples",
                part.time().len(),
                full.time().len()
            );
            assert_prefix(&part, &full);
            // The stop is the last first crossing, and `cross_time` finds
            // every watched crossing on the prefix at the full run's time.
            let time = part.time();
            let mut last = 0;
            for node in watched {
                let v = part.voltage(node).unwrap();
                let tc = measure::cross_time(time, v, 0.5, true, 0.0);
                let tf =
                    measure::cross_time(full.time(), full.voltage(node).unwrap(), 0.5, true, 0.0);
                assert_eq!(tc.map(f64::to_bits), tf.map(f64::to_bits), "{node}");
                let first = (1..v.len()).find(|&i| measure::crosses(v[i - 1], v[i], 0.5, true));
                last = last.max(first.expect("crossed on the prefix"));
            }
            assert_eq!(last, time.len() - 1, "{stepping:?}: stopped late");
        }
    }

    #[test]
    fn stop_rule_without_a_crossing_runs_the_full_window() {
        let nl = ladder();
        for stepping in [
            Stepping::Fixed,
            Stepping::Adaptive(AdaptiveOptions::default()),
        ] {
            let tr = Transient::new(&nl)
                .timestep(1e-12)
                .duration(1e-9)
                .stepping(stepping);
            let full = tr.clone().run().unwrap();
            // `n0` crosses, the 2 V level never does; falling never either.
            for (threshold, rising) in [(2.0, true), (0.5, false)] {
                let run = tr
                    .clone()
                    .stop_when_crossed(["n0", "n3"], threshold, rising)
                    .run()
                    .unwrap();
                assert_eq!(run.time().len(), full.time().len());
                assert_prefix(&run, &full);
            }
            // Ground never moves, so watching it never stops a run.
            let grounded = tr.stop_when_crossed(["0"], 0.5, true).run().unwrap();
            assert_eq!(grounded.time().len(), full.time().len());
        }
    }

    #[test]
    fn stop_rule_rejects_bad_nodes_and_thresholds() {
        let nl = ladder();
        let tr = Transient::new(&nl).timestep(1e-12).duration(1e-10);
        match tr
            .clone()
            .stop_when_crossed(["n0", "nope"], 0.5, true)
            .run()
        {
            Err(SpiceError::Unknown { what }) => assert!(what.contains("nope"), "{what}"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        let none: [&str; 0] = [];
        for bad in [
            tr.clone().stop_when_crossed(none, 0.5, true),
            tr.clone().stop_when_crossed(["n0"], f64::NAN, true),
        ] {
            assert!(
                matches!(bad.run(), Err(SpiceError::BadSimParams { .. })),
                "malformed stop rule accepted"
            );
        }
    }

    #[test]
    fn sub_ulp_pulse_period_is_refused_before_listing_breakpoints() {
        // 1e-30 s never advances a 1 ns delay in f64: listing its corners
        // used to grow the breakpoint list until memory ran out.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let wave = Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 0.0, 1e-30);
        nl.vsource("V", a, GROUND, wave).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let run = Transient::new(&nl)
            .duration(3e-9)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .run();
        match run {
            Err(SpiceError::BadSimParams { what }) => {
                assert!(
                    what.contains("source V") && what.contains("budget"),
                    "{what}"
                )
            }
            other => panic!("expected BadSimParams, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_presize_is_bounded_in_bytes() {
        // 400 RC sections: 802 recorded columns. A 1 s window at 1 ps
        // would pre-size `MAX_ATTEMPTS` samples per column (~13 GB); the
        // byte budget caps the total instead.
        let mut nl = Netlist::new();
        let mut prev = nl.node("in");
        nl.vsource("V", prev, GROUND, Waveform::step(1.0, 0.0))
            .unwrap();
        for i in 0..400 {
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, out, 10.0).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 1e-15).unwrap();
            prev = out;
        }
        let layout = MnaLayout::new(&nl).unwrap();
        let columns = 1 + layout.nv + 1 + layout.branch_elems.len();
        let tr = Transient::new(&nl).timestep(1e-12).duration(1.0);
        let adaptive = tr
            .clone()
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()));
        let (_, samples) = Policy::new(&adaptive, &layout).unwrap();
        assert_eq!(samples, ADAPTIVE_PRESIZE_BYTES / (8 * columns));
        assert!(samples * columns * 8 <= ADAPTIVE_PRESIZE_BYTES);
        // A fixed run keeps its exact pre-size: one sample per step.
        let fixed = tr.duration(1e-9);
        let (_, samples) = Policy::new(&fixed, &layout).unwrap();
        assert_eq!(samples, 1001);
    }
}
