//! Small-signal AC analysis.
//!
//! Complements the transient engine: solve the same MNA system in the
//! frequency domain over a sweep. For extracted clock netlists this
//! exposes what the time domain only hints at — the input-impedance
//! resonance that produces Figure 3's ringing, and the transfer-function
//! peaking that RC-only netlists cannot have.
//!
//! Only the element values change between frequency points, never the
//! matrix *pattern*. The sweep exploits this: the sparse symbolic
//! factorization (ordering, fill pattern) is computed once at the first
//! frequency and every later point re-runs only the numeric phase via
//! [`SparseLu::refactor`], restamping values in place through a slot map.

use crate::diagnose::diagnose_singular;
use crate::netlist::{Element, Netlist, NodeId};
use crate::stamp::{stamp_mna, MnaLayout};
use crate::waveform::Waveform;
use crate::{Result, SpiceError};
use rlcx_numeric::sparse::{SparseLu, TripletBuilder};
use rlcx_numeric::{obs, Complex};

/// Frequency sweep specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// Start frequency (Hz), > 0.
    pub start: f64,
    /// Stop frequency (Hz), > start.
    pub stop: f64,
    /// Number of points, ≥ 2, spaced logarithmically.
    pub points: usize,
}

impl Sweep {
    /// A logarithmic sweep.
    pub fn log(start: f64, stop: f64, points: usize) -> Sweep {
        Sweep {
            start,
            stop,
            points,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.start > 0.0 && self.stop > self.start && self.points >= 2) {
            return Err(SpiceError::BadSimParams {
                what: format!("sweep needs 0 < start < stop and ≥ 2 points, got {self:?}"),
            });
        }
        Ok(())
    }

    /// The sweep's frequency points (Hz).
    pub fn frequencies(&self) -> Vec<f64> {
        let n = self.points;
        let ratio = (self.stop / self.start).ln();
        (0..n)
            .map(|i| self.start * (ratio * i as f64 / (n - 1) as f64).exp())
            .collect()
    }
}

/// Result of an AC sweep: per-frequency complex node voltages.
#[derive(Debug, Clone)]
pub struct AcResult {
    frequencies: Vec<f64>,
    node_names: Vec<String>,
    /// `volts[node][freq_index]`.
    volts: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The frequency axis (Hz).
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Complex voltage phasors of a node across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Unknown`] for an unknown node name.
    pub fn voltage(&self, node: &str) -> Result<&[Complex]> {
        self.node_names
            .iter()
            .position(|n| n == node)
            .map(|i| self.volts[i].as_slice())
            .ok_or_else(|| SpiceError::Unknown {
                what: format!("node {node}"),
            })
    }

    /// Voltage magnitude of a node across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Unknown`] for an unknown node name.
    pub fn magnitude(&self, node: &str) -> Result<Vec<f64>> {
        Ok(self.voltage(node)?.iter().map(|v| v.abs()).collect())
    }

    /// The frequency (Hz) where the node's magnitude peaks, with the peak
    /// value — the resonance locator.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Unknown`] for an unknown node name.
    pub fn peak(&self, node: &str) -> Result<(f64, f64)> {
        let mags = self.magnitude(node)?;
        let (idx, &max) = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite magnitudes"))
            .expect("sweep has at least 2 points");
        Ok((self.frequencies[idx], max))
    }
}

/// AC analysis builder over a [`Netlist`].
///
/// Standard small-signal convention: every independent source whose
/// [`Waveform`] actually *swings* (its `levels()` differ) is replaced by a
/// unit AC stimulus in phase; DC sources of **any** level are quiet —
/// a bias sets the operating point but injects no small signal, so it is
/// shorted here. The usual case is a single swinging source.
///
/// # Example
///
/// ```
/// use rlcx_spice::{ac::{Ac, Sweep}, Netlist, Waveform, GROUND};
///
/// # fn main() -> Result<(), rlcx_spice::SpiceError> {
/// let mut ckt = Netlist::new();
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.vsource("V", inp, GROUND, Waveform::step(1.0, 1e-12))?;
/// ckt.resistor("R", inp, out, 1e3)?;
/// ckt.capacitor("C", out, GROUND, 1e-12)?;
/// let res = Ac::new(&ckt).sweep(Sweep::log(1e6, 1e12, 61)).run()?;
/// // RC low-pass: magnitude falls with frequency.
/// let mags = res.magnitude("out")?;
/// assert!(mags[0] > 0.99 && *mags.last().unwrap() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ac<'a> {
    netlist: &'a Netlist,
    sweep: Sweep,
}

impl<'a> Ac<'a> {
    /// Creates an analysis with a default 1 MHz – 100 GHz, 121-point sweep.
    pub fn new(netlist: &'a Netlist) -> Self {
        Ac {
            netlist,
            sweep: Sweep::log(1e6, 1e11, 121),
        }
    }

    /// Sets the sweep.
    #[must_use]
    pub fn sweep(mut self, sweep: Sweep) -> Self {
        self.sweep = sweep;
        self
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadSimParams`] for a bad sweep or empty circuit,
    /// * [`SpiceError::SingularMna`] naming the floating node, the
    ///   ideal-branch loop or the unknown that lost its pivot if the MNA
    ///   system is singular.
    pub fn run(&self) -> Result<AcResult> {
        self.sweep.validate()?;
        let nl = self.netlist;
        let layout = MnaLayout::new(nl)?;
        obs::gauge_set("spice.mna.dim", layout.dim as f64);

        // The excitation vector is frequency-independent: unit stimulus on
        // every swinging source's branch row, zero elsewhere.
        let mut rhs = vec![Complex::ZERO; layout.dim];
        for (ei, e) in nl.elements.iter().enumerate() {
            if let Element::VSource { wave, .. } = e {
                rhs[layout.branch(ei)] = Complex::from_real(source_amplitude(wave));
            }
        }

        let frequencies = self.sweep.frequencies();
        let mut volts = vec![Vec::with_capacity(frequencies.len()); nl.node_count()];
        self.solve(&layout, &frequencies, &rhs, &mut volts)?;
        let node_names = (0..nl.node_count())
            .map(|i| nl.node_name(NodeId(i)).to_string())
            .collect();
        Ok(AcResult {
            frequencies,
            node_names,
            volts,
        })
    }

    /// Solves every frequency point. The matrix pattern is fixed across
    /// the sweep, so the symbolic factorization (ordering + fill) happens
    /// exactly once at the first frequency. Every later point restamps
    /// values in place through the slot map from
    /// [`TripletBuilder::build_with_map`] and re-runs only the numeric
    /// phase.
    fn solve(
        &self,
        layout: &MnaLayout,
        frequencies: &[f64],
        rhs: &[Complex],
        volts: &mut [Vec<Complex>],
    ) -> Result<()> {
        let nl = self.netlist;
        let dim = layout.dim;
        let jw0 = Complex::from_imag(2.0 * std::f64::consts::PI * frequencies[0]);
        let mut tb = TripletBuilder::new(dim, dim);
        stamp_mna(
            nl,
            layout,
            |c| jw0 * c,
            |l| jw0 * l,
            |m| jw0 * m,
            |i, j, v| tb.add(i, j, v),
        );
        let (mut a, slot_map) = tb.build_with_map();
        obs::gauge_set("spice.mna.nnz", a.nnz() as f64);
        let mut lu = {
            let _s = obs::span("spice.mna.factor");
            SparseLu::factor(&a).map_err(|e| diagnose_singular(nl, layout, e))?
        };
        let mut x = vec![Complex::ZERO; dim];
        let mut scratch = vec![Complex::ZERO; dim];
        lu.solve_into(rhs, &mut scratch, &mut x)?;
        record_point(nl, &x, volts);

        for &f in &frequencies[1..] {
            let jw = Complex::from_imag(2.0 * std::f64::consts::PI * f);
            a.zero_values();
            {
                let values = a.values_mut();
                let mut k = 0usize;
                // The stamp emission order is fixed, so the k-th emit
                // lands in the slot recorded for the k-th builder add.
                stamp_mna(
                    nl,
                    layout,
                    |c| jw * c,
                    |l| jw * l,
                    |m| jw * m,
                    |_, _, v| {
                        values[slot_map[k]] += v;
                        k += 1;
                    },
                );
            }
            // Numeric-only refactorization on the frozen pattern; falls
            // back to a fresh pivot search if the diagonal degrades.
            lu.refactor(&a)
                .map_err(|e| diagnose_singular(nl, layout, e))?;
            lu.solve_into(rhs, &mut scratch, &mut x)?;
            record_point(nl, &x, volts);
        }
        Ok(())
    }
}

/// Appends one frequency point's node voltages to the result columns.
fn record_point(nl: &Netlist, x: &[Complex], volts: &mut [Vec<Complex>]) {
    volts[0].push(Complex::ZERO);
    for node in 1..nl.node_count() {
        volts[node].push(x[node - 1]);
    }
}

/// AC amplitude of a source under the standard small-signal convention:
/// unit stimulus for anything whose waveform swings, zero for a DC source
/// of any level. A DC bias fixes the operating point but injects no small
/// signal, so in the linearized system it is a short — treating a nonzero
/// DC level as a unit stimulus (as an earlier revision did) double-counts
/// the bias as excitation.
pub(crate) fn source_amplitude(wave: &Waveform) -> f64 {
    let (lo, hi) = wave.levels();
    if hi != lo {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;

    #[test]
    fn rc_lowpass_corner() {
        let (r, c) = (1e3, 1e-12); // f_c = 1/(2πRC) ≈ 159 MHz
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        nl.resistor("R", inp, out, r).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let res = Ac::new(&nl)
            .sweep(Sweep::log(fc, fc * 1.0001, 2))
            .run()
            .unwrap();
        let mag = res.magnitude("out").unwrap()[0];
        assert!(
            (mag - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "|H(fc)| = {mag}"
        );
    }

    #[test]
    fn series_rlc_resonance_located() {
        let (r, l, c) = (1.0_f64, 1e-9_f64, 1e-12_f64);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt()); // ≈ 5.03 GHz
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let mid = nl.node("mid");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        nl.resistor("R", inp, mid, r).unwrap();
        nl.inductor("L", mid, out, l).unwrap();
        nl.capacitor("C", out, GROUND, c).unwrap();
        let res = Ac::new(&nl)
            .sweep(Sweep::log(1e8, 1e11, 301))
            .run()
            .unwrap();
        let (f_peak, v_peak) = res.peak("out").unwrap();
        assert!((f_peak - f0).abs() / f0 < 0.05, "peak at {f_peak} vs {f0}");
        // Q = (1/R)√(L/C) ≈ 31.6 → strong peaking.
        assert!(v_peak > 10.0, "Q peaking {v_peak}");
    }

    #[test]
    fn inductor_shorts_at_low_frequency() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        nl.inductor("L", inp, out, 1e-9).unwrap();
        nl.resistor("R", out, GROUND, 50.0).unwrap();
        let res = Ac::new(&nl).sweep(Sweep::log(1e3, 1e4, 2)).run().unwrap();
        let mag = res.magnitude("out").unwrap()[0];
        assert!(
            (mag - 1.0).abs() < 1e-6,
            "low-f inductor should pass: {mag}"
        );
    }

    #[test]
    fn mutual_coupling_transfers_at_ac() {
        let (l, m) = (1e-9, 0.6e-9);
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let sec = nl.node("sec");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        let p = nl.inductor("Lp", inp, GROUND, l).unwrap();
        let s = nl.inductor("Ls", sec, GROUND, l).unwrap();
        nl.mutual("K", p, s, m).unwrap();
        nl.resistor("Rl", sec, GROUND, 1e9).unwrap();
        let res = Ac::new(&nl)
            .sweep(Sweep::log(1e9, 1.0001e9, 2))
            .run()
            .unwrap();
        let mag = res.magnitude("sec").unwrap()[0];
        // Open secondary: |V_sec| = (M/L)·|V_in| = 0.6.
        assert!((mag - 0.6).abs() < 1e-3, "transformer ratio: {mag}");
    }

    #[test]
    fn quiet_source_contributes_nothing() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, GROUND, Waveform::Dc(0.0)).unwrap();
        nl.vsource("V2", b, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        nl.resistor("R", a, b, 100.0).unwrap();
        let res = Ac::new(&nl).sweep(Sweep::log(1e6, 1e7, 3)).run().unwrap();
        assert!(res.magnitude("a").unwrap().iter().all(|&m| m < 1e-12));
        assert!(res
            .magnitude("b")
            .unwrap()
            .iter()
            .all(|&m| (m - 1.0).abs() < 1e-12));
    }

    #[test]
    fn dc_bias_source_is_quiet() {
        // Regression: a nonzero DC source used to be treated as a unit AC
        // stimulus. Under the small-signal convention a bias of any level
        // is a short — only swinging sources drive the linearized system.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("Vdd", vdd, GROUND, Waveform::Dc(2.5)).unwrap();
        nl.vsource("Vin", inp, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        nl.resistor("Rbias", vdd, out, 1e3).unwrap();
        nl.resistor("Rsig", inp, out, 1e3).unwrap();
        let res = Ac::new(&nl).sweep(Sweep::log(1e6, 1e7, 3)).run().unwrap();
        // The bias node sits at AC ground; the output sees only the
        // swinging source through the Rbias‖Rsig divider: |V_out| = 1/2.
        assert!(res.magnitude("vdd").unwrap().iter().all(|&m| m < 1e-12));
        assert!(res
            .magnitude("out")
            .unwrap()
            .iter()
            .all(|&m| (m - 0.5).abs() < 1e-12));
    }

    #[test]
    fn sparse_and_dense_engines_agree() {
        // RLC ladder with a mutual coupling — enough structure to exercise
        // branch rows, complex stamps and the per-frequency refactor path —
        // against the dense reference.
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource("V", inp, GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        let mut prev = inp;
        let mut coils = Vec::new();
        for i in 0..12 {
            let mid = nl.node(format!("m{i}"));
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 5.0).unwrap();
            coils.push(nl.inductor(&format!("L{i}"), mid, out, 1e-9).unwrap());
            nl.capacitor(&format!("C{i}"), out, GROUND, 0.2e-12)
                .unwrap();
            prev = out;
        }
        nl.mutual("K01", coils[0], coils[1], 0.3e-9).unwrap();
        nl.mutual("K23", coils[2], coils[3], 0.2e-9).unwrap();
        let sweep = Sweep::log(1e8, 1e11, 25);
        let dense = crate::oracle::ac(&nl, sweep);
        let sparse = Ac::new(&nl).sweep(sweep).run().unwrap();
        for i in 0..12 {
            let node = format!("n{i}");
            let vd = &dense[nl.find_node(&node).unwrap().0];
            let vs = sparse.voltage(&node).unwrap();
            for (d, s) in vd.iter().zip(vs) {
                // Relative to the larger of the signal and the unit drive:
                // deeply attenuated nodes sit at 1e-8 V where different
                // elimination orders legitimately differ at roundoff.
                let err = (*d - *s).abs() / d.abs().max(1.0);
                assert!(err < 1e-9, "node {node}: {d:?} vs {s:?}");
            }
        }
    }

    #[test]
    fn sweep_validation() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        assert!(Ac::new(&nl).sweep(Sweep::log(0.0, 1e9, 10)).run().is_err());
        assert!(Ac::new(&nl).sweep(Sweep::log(1e9, 1e8, 10)).run().is_err());
        assert!(Ac::new(&nl).sweep(Sweep::log(1e8, 1e9, 1)).run().is_err());
        let empty = Netlist::new();
        assert!(Ac::new(&empty).run().is_err());
        // A singular system is diagnosed as in the transient engine.
        nl.node("orphan");
        match Ac::new(&nl).run() {
            Err(SpiceError::SingularMna { unknown, .. }) => {
                assert!(unknown.contains("orphan"), "{unknown}")
            }
            other => panic!("expected SingularMna, got {other:?}"),
        }
    }

    #[test]
    fn frequencies_are_log_spaced() {
        let f = Sweep::log(1e6, 1e9, 4).frequencies();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 1e6).abs() < 1.0);
        assert!((f[3] - 1e9).abs() < 1.0);
        let r1 = f[1] / f[0];
        let r2 = f[2] / f[1];
        assert!((r1 - r2).abs() / r1 < 1e-9);
    }

    #[test]
    fn unknown_node_lookup_fails() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let res = Ac::new(&nl).sweep(Sweep::log(1e6, 1e7, 2)).run().unwrap();
        assert!(res.voltage("zz").is_err());
    }
}
