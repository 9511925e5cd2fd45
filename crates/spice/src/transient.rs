//! Transient MNA simulation: fixed-step and adaptive time axes.
//!
//! The system matrix of a linear circuit at a given timestep is constant,
//! so the solver factorizes once (LU) and back-substitutes per step. The
//! integration method is trapezoidal by default (second-order, no numerical
//! damping — important for the paper's RLC ringing waveforms) with backward
//! Euler available for comparison.
//!
//! Two time axes are available through [`Stepping`]:
//!
//! * [`Stepping::Fixed`] — uniform steps of `timestep` seconds, one
//!   factorization for the whole run (the historical behaviour,
//!   bit-compatible with earlier releases);
//! * [`Stepping::Adaptive`] — local-truncation-error controlled steps.
//!   Each step is computed twice (once at `h`, once as two `h/2`
//!   half-steps); the Richardson difference estimates the LTE, steps
//!   violating the tolerance are rejected and retried smaller, and
//!   accepted steps grow the stride. The time axis *snaps* to source
//!   breakpoints ([`crate::Waveform::breakpoints`]) so pulse corners and
//!   PWL knots are hit exactly, and integration restarts with one damped
//!   backward-Euler step after each discontinuity (and at `t = 0`). Step
//!   size changes reuse the sparse symbolic factorization through a
//!   numeric-only refactorization.
//!
//! Every system is factored by the fill-reducing sparse LU of
//! `rlcx_numeric::sparse` (clocktree MNA matrices have O(n) nonzeros),
//! and the per-step loop runs without heap allocation — right-hand side,
//! solution, scratch buffers and result columns are preallocated and
//! reused.

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
/// The defaults suit the paper's picosecond-scale clocktree waveforms;
/// `0.0` in the step-bound fields selects a duration-derived automatic
/// value at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative LTE tolerance per unknown (default `1e-4`).
    pub reltol: f64,
    /// Absolute LTE floor in volts / amperes (default `1e-6`), guarding
    /// the relative test near zero crossings.
    pub abstol: f64,
    /// Smallest step the controller may take; steps at the floor are
    /// force-accepted rather than erroring out (the linear system is
    /// unconditionally stable). `0.0` selects
    /// `max(timestep·1e-6, duration·1e-15)`.
    pub h_min: f64,
    /// Largest step the controller may grow to; `0.0` selects
    /// `duration / 50`.
    pub h_max: f64,
    /// Hard cap on step attempts (accepted + rejected) before the run
    /// aborts with [`SpiceError::BadSimParams`] (default `2_000_000`).
    pub max_steps: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            reltol: 1e-4,
            abstol: 1e-6,
            h_min: 0.0,
            h_max: 0.0,
            max_steps: 2_000_000,
        }
    }
}

impl AdaptiveOptions {
    fn validate(&self) -> Result<()> {
        let bad = |what: String| Err(SpiceError::BadSimParams { what });
        if !(self.reltol > 0.0 && self.reltol.is_finite()) {
            return bad(format!("reltol must be positive, got {}", self.reltol));
        }
        if !(self.abstol > 0.0 && self.abstol.is_finite()) {
            return bad(format!("abstol must be positive, got {}", self.abstol));
        }
        if !(self.h_min >= 0.0 && self.h_min.is_finite()) {
            return bad(format!("h_min must be non-negative, got {}", self.h_min));
        }
        if !(self.h_max >= 0.0 && self.h_max.is_finite()) {
            return bad(format!("h_max must be non-negative, got {}", self.h_max));
        }
        if self.h_min > 0.0 && self.h_max > 0.0 && self.h_min > self.h_max {
            return bad(format!(
                "h_min {} must not exceed h_max {}",
                self.h_min, self.h_max
            ));
        }
        if self.max_steps == 0 {
            return bad("max_steps must be positive".into());
        }
        Ok(())
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
        }
    }

    /// Sets the timestep (seconds). Under adaptive stepping this seeds
    /// the initial step and the restart step after each breakpoint.
    #[must_use]
    pub fn timestep(mut self, h: f64) -> Self {
        self.timestep = h;
        self
    }

    /// Sets the total simulated duration (seconds).
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

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadSimParams`] for non-positive step/duration, a
    ///   step larger than the duration, malformed adaptive options, or an
    ///   adaptive run exceeding its attempt budget,
    /// * [`SpiceError::SingularMna`] if the MNA matrix is singular for a
    ///   diagnosable structural reason (floating node, ideal-branch
    ///   loop), [`SpiceError::Numeric`] otherwise.
    pub fn run(&self) -> Result<TransientResult> {
        let _span = obs::span("spice.transient");
        obs::counter_add("spice.transients", 1);
        if !(self.timestep > 0.0 && self.timestep.is_finite()) {
            return Err(SpiceError::BadSimParams {
                what: format!("timestep must be positive, got {}", self.timestep),
            });
        }
        if !(self.duration >= self.timestep && self.duration.is_finite()) {
            return Err(SpiceError::BadSimParams {
                what: format!(
                    "duration {} must be at least one timestep {}",
                    self.duration, self.timestep
                ),
            });
        }
        match &self.stepping {
            Stepping::Fixed => self.run_fixed(),
            Stepping::Adaptive(opts) => self.run_adaptive(opts),
        }
    }

    /// Fixed-step integration: one factorization, `duration/timestep`
    /// back-substitutions.
    fn run_fixed(&self) -> Result<TransientResult> {
        let nl = self.netlist;
        let h = self.timestep;
        let layout = MnaLayout::new(nl)?;
        let dim = layout.dim;
        obs::gauge_set("spice.mna.dim", dim as f64);

        // Integration coefficient: trap uses 2L/h and 2C/h, BE uses L/h, C/h.
        let k = match self.method {
            IntegrationMethod::Trapezoidal => 2.0 / h,
            IntegrationMethod::BackwardEuler => 1.0 / h,
        };
        let trap = self.method == IntegrationMethod::Trapezoidal;

        // Assemble and factor the constant system matrix once.
        let lu = {
            let _s = obs::span("spice.mna.factor");
            MnaFactor::companion(nl, &layout, k)?
        };
        if let Ok(cond) = lu.cond_est() {
            obs::gauge_set("lu.cond_est", cond);
        }

        // DC operating point at t = 0: resistors as-is, inductors as shorts,
        // capacitors open, sources at their initial value.
        let x0 = self.dc_operating_point(&layout)?;

        // State: node voltages + branch currents in `x`; capacitor currents
        // tracked separately for the trapezoidal companion.
        let steps = (self.duration / h).round() as usize;
        // The MNA system is linear, so each step is one back-substitution —
        // there is no Newton loop to count, only steps.
        obs::counter_add("spice.steps", steps as u64);
        let mut x = x0;
        // Every buffer the step loop touches is preallocated here — the
        // loop itself is heap-allocation-free (asserted by
        // `tests/obs_overhead.rs`).
        let mut x_new = vec![0.0; dim];
        let mut scratch = vec![0.0; dim];
        let mut rhs = vec![0.0; dim];
        let mut cap_current = vec![0.0; nl.elements.len()];
        let mut rec = Recorder::new(&layout, steps + 1);
        rec.record(0.0, &x);

        for step in 1..=steps {
            let t = step as f64 * h;
            assemble_rhs(nl, &layout, &x, &cap_current, t, k, trap, &mut rhs);
            lu.solve_into(&rhs, &mut scratch, &mut x_new)?;
            update_cap_currents(nl, &x_new, &x, k, trap, &mut cap_current);
            std::mem::swap(&mut x, &mut x_new);
            rec.record(t, &x);
        }

        Ok(rec.finish(nl, &layout, 0))
    }

    /// Adaptive integration: step-doubling LTE control with breakpoint
    /// snapping. See the module docs for the scheme.
    fn run_adaptive(&self, opts: &AdaptiveOptions) -> Result<TransientResult> {
        opts.validate()?;
        let nl = self.netlist;
        let layout = MnaLayout::new(nl)?;
        let dim = layout.dim;
        obs::gauge_set("spice.mna.dim", dim as f64);
        let trap_method = self.method == IntegrationMethod::Trapezoidal;
        let duration = self.duration;
        let h_init = self.timestep.min(duration);
        let h_max = if opts.h_max > 0.0 {
            opts.h_max.min(duration)
        } else {
            (duration / 50.0).max(h_init)
        };
        let h_min = if opts.h_min > 0.0 {
            opts.h_min
        } else {
            (h_init * 1e-6).max(duration * 1e-15)
        }
        .min(h_init);

        // Source breakpoints, sorted and deduplicated; the step loop snaps
        // onto each so discontinuities land on sample points exactly.
        let t_eps = duration * 1e-12;
        let mut bps: Vec<f64> = Vec::new();
        for e in &nl.elements {
            if let Element::VSource { wave, .. } = e {
                wave.breakpoints(duration, &mut bps);
            }
        }
        bps.sort_by(f64::total_cmp);
        bps.dedup_by(|a, b| (*a - *b).abs() <= t_eps);
        obs::counter_add("spice.breakpoints", bps.len() as u64);

        // Companion coefficient of a step of size `h`.
        let coeff = |h: f64, trap: bool| if trap { 2.0 / h } else { 1.0 / h };

        // Two factor caches — the full step at `h` and its two half steps
        // at `h/2`. Step-size changes re-stamp values in place and redo
        // only the numeric factorization (symbolic analysis reused).
        let (mut full, mut half) = {
            let _s = obs::span("spice.mna.factor");
            (
                MnaFactor::companion(nl, &layout, coeff(h_init, trap_method))?,
                MnaFactor::companion(nl, &layout, coeff(0.5 * h_init, trap_method))?,
            )
        };
        if let Ok(cond) = full.cond_est() {
            obs::gauge_set("lu.cond_est", cond);
        }

        let x0 = self.dc_operating_point(&layout)?;

        // Preallocate everything the attempt loop touches; the accepted-
        // step hot loop must stay heap-free (tests/obs_overhead.rs). The
        // recording vectors get a generous upfront capacity — adaptive
        // runs take far fewer samples than `duration/h_init`, so growth
        // inside the loop is the exception, not the rule.
        let mut x = x0;
        let mut x_full = vec![0.0; dim];
        let mut x_mid = vec![0.0; dim];
        let mut x_half = vec![0.0; dim];
        let mut scratch = vec![0.0; dim];
        let mut rhs = vec![0.0; dim];
        let mut cap_current = vec![0.0; nl.elements.len()];
        let mut cc_half = vec![0.0; nl.elements.len()];
        let cap_guess = (2.0 * duration / h_init).ceil() as usize + 4 * bps.len() + 64;
        let mut rec = Recorder::new(&layout, cap_guess);
        rec.record(0.0, &x);

        let mut t = 0.0;
        let mut h = h_init;
        // One damped backward-Euler step at t = 0 and after each
        // breakpoint keeps the trapezoidal rule from ringing on the
        // discontinuity it just stepped across (TR-BDF2-style restart).
        let mut restart = true;
        let mut bp_idx = 0usize;
        while bps.get(bp_idx).is_some_and(|&tb| tb <= t_eps) {
            bp_idx += 1;
        }
        let mut accepted: u64 = 0;
        let mut rejected: u64 = 0;
        let mut attempts = 0usize;
        let err_exp = |trap: bool| if trap { -1.0 / 3.0 } else { -1.0 / 2.0 };

        while t < duration - t_eps {
            let trap = trap_method && !restart;
            let mut h_prop = h.min(duration - t);
            if restart {
                h_prop = h_prop.min(h_init);
            }
            // Attempt loop: exactly one accepted step per outer iteration.
            let (h_eff, snapped, err, t_new) = loop {
                attempts += 1;
                if attempts > opts.max_steps {
                    return Err(SpiceError::BadSimParams {
                        what: format!(
                            "adaptive stepping exceeded max_steps = {} at t = {t:.3e} s; \
                             loosen reltol/abstol or raise max_steps",
                            opts.max_steps
                        ),
                    });
                }
                let mut h_try = h_prop.max(h_min).min(duration - t);
                let mut snap = false;
                if let Some(&tb) = bps.get(bp_idx) {
                    if tb - t <= h_try * (1.0 + 1e-9) {
                        h_try = tb - t;
                        snap = true;
                    }
                }
                let t_new = if snap { bps[bp_idx] } else { t + h_try };
                // When the step lands on a breakpoint, sources are
                // evaluated just *before* it — the left limit — so a
                // zero-width edge at the breakpoint cannot leak its
                // post-edge value into the step that ends there.
                let t_src = if snap { t_new * (1.0 - 1e-12) } else { t_new };

                // Full step at h_try.
                let k = coeff(h_try, trap);
                full.ensure(nl, &layout, k)?;
                assemble_rhs(nl, &layout, &x, &cap_current, t_src, k, trap, &mut rhs);
                full.solve_into(&rhs, &mut scratch, &mut x_full)?;

                // The same step as two half steps.
                let h2 = 0.5 * h_try;
                let k2 = coeff(h2, trap);
                half.ensure(nl, &layout, k2)?;
                assemble_rhs(nl, &layout, &x, &cap_current, t + h2, k2, trap, &mut rhs);
                half.solve_into(&rhs, &mut scratch, &mut x_mid)?;
                cc_half.copy_from_slice(&cap_current);
                update_cap_currents(nl, &x_mid, &x, k2, trap, &mut cc_half);
                assemble_rhs(nl, &layout, &x_mid, &cc_half, t_src, k2, trap, &mut rhs);
                half.solve_into(&rhs, &mut scratch, &mut x_half)?;

                // Step-doubling LTE: for a method of order p the half-step
                // solution's error is ≈ (x_half − x_full)/(2^p − 1).
                let denom = if trap { 3.0 } else { 1.0 };
                let mut err = 0.0_f64;
                for i in 0..dim {
                    let scale = opts.abstol + opts.reltol * x_half[i].abs().max(x[i].abs());
                    err = err.max((x_half[i] - x_full[i]).abs() / (denom * scale));
                }

                if err <= 1.0 || h_try <= h_min * (1.0 + 1e-9) {
                    // Accept the (more accurate) half-step solution.
                    update_cap_currents(nl, &x_half, &x_mid, k2, trap, &mut cc_half);
                    break (h_try, snap, err, t_new);
                }
                rejected += 1;
                obs::series_push("transient.lte", t + h_try, err);
                obs::series_push("transient.accept", t + h_try, 0.0);
                let shrink = if err.is_finite() && err > 0.0 {
                    (0.9 * err.powf(err_exp(trap))).clamp(0.1, 0.5)
                } else {
                    0.1
                };
                h_prop = h_try * shrink;
            };

            // Commit.
            std::mem::swap(&mut x, &mut x_half);
            cap_current.copy_from_slice(&cc_half);
            t = if duration - t_new <= t_eps {
                duration
            } else {
                t_new
            };
            accepted += 1;
            obs::series_push("transient.h", t, h_eff);
            obs::series_push("transient.lte", t, err);
            obs::series_push("transient.accept", t, 1.0);
            rec.record(t, &x);

            // Step-size controller for the next step.
            let grow = if err > 0.0 && err.is_finite() {
                (0.9 * err.powf(err_exp(trap))).clamp(0.2, 2.0)
            } else {
                2.0
            };
            h = (h_eff * grow).clamp(h_min, h_max);
            restart = false;
            if snapped {
                bp_idx += 1;
                while bps.get(bp_idx).is_some_and(|&tb| tb <= t + t_eps) {
                    bp_idx += 1;
                }
                // Restart across the discontinuity at edge resolution.
                restart = true;
                h = h.min(h_init);
            }
        }
        obs::counter_add("spice.steps", accepted);
        obs::counter_add("spice.steps.rejected", rejected);

        Ok(rec.finish(nl, &layout, rejected as usize))
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
    /// Returns [`SpiceError::Unknown`] for an unknown node name.
    pub fn voltage_at(&self, node: &str, t: f64) -> Result<f64> {
        let v = self.voltage(node)?;
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
        assert!(run(AdaptiveOptions {
            h_min: 1e-9,
            h_max: 1e-12,
            ..Default::default()
        })
        .is_err());
        assert!(run(AdaptiveOptions {
            max_steps: 0,
            ..Default::default()
        })
        .is_err());
        assert!(run(AdaptiveOptions::default()).is_ok());
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
}
