//! Buffered H-tree clock distribution analysis (paper Section V).
//!
//! The paper's application: extract RLC per segment *between adjacent buffer
//! levels* of an H-tree (Figure 7), formulate the cascaded netlist, and
//! simulate to obtain insertion delay and skew — with and without
//! inductance, under coplanar-waveguide or microstrip shielding, and under
//! process variation with nominal L and statistical RC.
//!
//! * [`BufferModel`] — Thevenin clock buffer: source resistance, input
//!   capacitance, intrinsic delay, output edge rate,
//! * [`ClockTreeAnalyzer`] — per-stage transient simulation via
//!   `rlcx-core`'s netlist formulation, path-accumulated delays; or, via
//!   [`ClockTreeAnalyzer::reduced`], closed-form delay queries against a
//!   PRIMA-reduced passive macromodel of each stage,
//! * [`SkewReport`] — per-sink insertion delays and skew.
//!
//! # Example
//!
//! ```no_run
//! use rlcx_clocktree::{BufferModel, ClockTreeAnalyzer};
//! use rlcx_core::{ClocktreeExtractor, TableBuilder};
//! use rlcx_geom::{Block, HTree, Stackup};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stackup = Stackup::hp_six_metal_copper();
//! let tables = TableBuilder::new(stackup.clone(), 5)?.build()?;
//! let extractor = ClocktreeExtractor::new(stackup, 5, tables)?;
//! let htree = HTree::new(3, 5000.0)?;
//! let cross = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0)?;
//! let analyzer = ClockTreeAnalyzer::new(&extractor, BufferModel::strong());
//! let report = analyzer.analyze(&htree, &cross)?;
//! println!("insertion {:.1} ps, skew {:.2} ps",
//!          report.insertion_delay * 1e12, report.skew() * 1e12);
//! # Ok(())
//! # }
//! ```

pub mod elmore;

#[cfg(test)]
pub(crate) mod tests_support {
    use rlcx_core::{ClocktreeExtractor, TableBuilder};
    use rlcx_geom::Stackup;
    use rlcx_peec::MeshSpec;

    /// A small shared table set for unit tests across this crate.
    pub fn test_extractor() -> ClocktreeExtractor {
        let stackup = Stackup::hp_six_metal_copper();
        let tables = TableBuilder::new(stackup.clone(), 5)
            .expect("layer")
            .widths(vec![2.0, 5.0, 10.0])
            .spacings(vec![0.5, 1.0, 2.0])
            .lengths(vec![400.0, 1600.0, 6400.0])
            .mesh(MeshSpec::new(2, 1))
            .build()
            .expect("tables");
        ClocktreeExtractor::new(stackup, 5, tables).expect("extractor")
    }
}

use rlcx_cap::VariationSpec;
use rlcx_core::{ClocktreeExtractor, CoreError, TreeNetlistBuilder};
use rlcx_geom::{Block, HTree, SegmentTree};
use rlcx_numeric::obs;
use rlcx_numeric::rng::UniformRng;
use rlcx_spice::{measure, Reduce, ReductionOrder, Stepping, Transient, Waveform};

/// Convenient result alias (clocktree analysis surfaces `rlcx-core` errors).
pub type Result<T> = std::result::Result<T, CoreError>;

/// A Thevenin clock-buffer model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferModel {
    /// Output (source) resistance (Ω).
    pub resistance: f64,
    /// Input capacitance presented to the previous stage (F).
    pub input_cap: f64,
    /// Intrinsic buffer delay added per level (s).
    pub intrinsic_delay: f64,
    /// Output edge time, 0 → 100 % (s).
    pub rise_time: f64,
    /// Output swing (V).
    pub swing: f64,
}

impl BufferModel {
    /// The paper's Figure 1 driver: ~40 Ω source resistance; 30 fF input
    /// capacitance, 60 ps intrinsic delay, 100 ps edges at 1.8 V.
    pub fn typical() -> Self {
        BufferModel {
            resistance: 40.0,
            input_cap: 30e-15,
            intrinsic_delay: 60e-12,
            rise_time: 100e-12,
            swing: 1.8,
        }
    }

    /// A strong clock buffer ("large driver and therefore smaller source
    /// impedance", paper Section I): 15 Ω, fast 50 ps edges.
    pub fn strong() -> Self {
        BufferModel {
            resistance: 15.0,
            input_cap: 60e-15,
            intrinsic_delay: 45e-12,
            rise_time: 50e-12,
            swing: 1.8,
        }
    }
}

/// Per-sink insertion delays of a clock tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// Insertion delay per final sink (s), in the H-tree's sink order.
    pub sink_delays: Vec<f64>,
    /// Mean insertion delay (s).
    pub insertion_delay: f64,
}

impl SkewReport {
    fn from_delays(sink_delays: Vec<f64>) -> SkewReport {
        let mean = if sink_delays.is_empty() {
            0.0
        } else {
            sink_delays.iter().sum::<f64>() / sink_delays.len() as f64
        };
        SkewReport {
            sink_delays,
            insertion_delay: mean,
        }
    }

    /// Clock skew: the max−min spread of sink delays (s).
    pub fn skew(&self) -> f64 {
        measure::skew(&self.sink_delays)
    }
}

/// Stage-by-stage H-tree analyzer.
///
/// Each buffer stage is simulated as its own linear RLC network (the paper
/// extracts the passive portion between adjacent buffer levels); path delays
/// accumulate stage delays plus buffer intrinsic delays.
#[derive(Debug, Clone)]
pub struct ClockTreeAnalyzer<'a> {
    extractor: &'a ClocktreeExtractor,
    buffer: BufferModel,
    sections: usize,
    include_inductance: bool,
    timestep: f64,
    duration: f64,
    stepping: Stepping,
    reduction: Option<ReductionOrder>,
}

impl<'a> ClockTreeAnalyzer<'a> {
    /// Creates an analyzer with defaults: 4 π-sections per segment,
    /// inductance included, 0.5 ps timestep, 3 ns per-stage window,
    /// fixed stepping.
    pub fn new(extractor: &'a ClocktreeExtractor, buffer: BufferModel) -> Self {
        ClockTreeAnalyzer {
            extractor,
            buffer,
            sections: 4,
            include_inductance: true,
            timestep: 0.5e-12,
            duration: 3e-9,
            stepping: Stepping::default(),
            reduction: None,
        }
    }

    /// Switches stage delay evaluation from transient simulation to a
    /// PRIMA-reduced macromodel: each stage netlist is characterized once
    /// (block-Arnoldi projection to [`ReductionOrder::order`] states) and
    /// every sink's 50 % delay is then answered in closed form from the
    /// pole/residue view — no time stepping. The per-stage window set by
    /// [`ClockTreeAnalyzer::duration`] still bounds the crossing search.
    #[must_use]
    pub fn reduced(mut self, order: ReductionOrder) -> Self {
        self.reduction = Some(order);
        self
    }

    /// Enables or disables series inductance (RC baseline when false).
    #[must_use]
    pub fn include_inductance(mut self, yes: bool) -> Self {
        self.include_inductance = yes;
        self
    }

    /// Sets the π-sections per segment.
    #[must_use]
    pub fn sections(mut self, n: usize) -> Self {
        self.sections = n.max(1);
        self
    }

    /// Sets the transient timestep (s).
    #[must_use]
    pub fn timestep(mut self, h: f64) -> Self {
        self.timestep = h;
        self
    }

    /// Sets the per-stage simulation window (s). A transient stage stops
    /// at the step where its source and every sink have crossed midswing,
    /// so the window is an upper bound: it costs nothing to set generously,
    /// and a sink that has not crossed by its end is an error. The reduced
    /// path searches crossings up to it.
    #[must_use]
    pub fn duration(mut self, t: f64) -> Self {
        self.duration = t;
        self
    }

    /// Sets the transient time-axis policy (default [`Stepping::Fixed`]).
    /// Adaptive stepping cuts per-stage simulation cost on long settling
    /// windows while snapping the axis to the drive edge.
    #[must_use]
    pub fn stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// Simulates one stage: the driver switching into `stage` (a local-
    /// coordinate [`SegmentTree`]) with `cross` segments, sinks loaded with
    /// the next level's buffer input capacitance. Returns the source-to-sink
    /// 50 % delay per leaf (in `stage.leaves()` order).
    ///
    /// # Errors
    ///
    /// Propagates extraction, netlist and simulation errors.
    pub fn stage_delays(&self, stage: &SegmentTree, cross: &Block) -> Result<Vec<f64>> {
        let loads = vec![self.buffer.input_cap; stage.leaves().len()];
        self.stage_delays_with_loads(stage, cross, &loads)
    }

    /// Like [`ClockTreeAnalyzer::stage_delays`] but with explicit per-sink
    /// loads (in `stage.leaves()` order) — load imbalance is the
    /// deterministic source of clock skew within one stage, and the skew it
    /// creates differs between the RC and RLC formulations.
    ///
    /// # Errors
    ///
    /// Propagates extraction, netlist and simulation errors; fails when
    /// `sink_caps.len()` does not match the leaf count.
    pub fn stage_delays_with_loads(
        &self,
        stage: &SegmentTree,
        cross: &Block,
        sink_caps: &[f64],
    ) -> Result<Vec<f64>> {
        let _span = obs::span("clocktree.stage");
        obs::counter_add("clocktree.stages", 1);
        let out = TreeNetlistBuilder::new(self.extractor)
            .sections_per_segment(self.sections)
            .include_inductance(self.include_inductance)
            .driver_resistance(self.buffer.resistance)
            .input(Waveform::ramp(
                0.0,
                self.buffer.swing,
                0.0,
                self.buffer.rise_time,
            ))
            .sink_caps(sink_caps.to_vec())
            .build(stage, cross)?;
        if let Some(order) = self.reduction {
            // Macromodel path: reduce once, answer every sink in closed
            // form. The source drives `drv_in` directly, so the reduced
            // model's source-referenced delay is the same quantity the
            // transient path measures from the `drv_in` waveform.
            let model = Reduce::new(&out.netlist)
                .order(order)
                .outputs(out.sinks.iter().map(String::as_str))
                .run()
                .map_err(CoreError::Spice)?;
            let raw = model
                .delay_50_all(self.duration)
                .map_err(CoreError::Spice)?;
            let mut delays = Vec::with_capacity(out.sinks.len());
            for (sink, d) in out.sinks.iter().zip(raw) {
                delays.push(d.ok_or_else(|| CoreError::MissingTable {
                    what: format!("sink {sink} never reached midswing — lengthen the window"),
                })?);
            }
            return Ok(delays);
        }
        // The run stops once the source and every sink have crossed
        // midswing — the threshold and direction `delay_50` measures — so
        // the recorded prefix, and every delay read from it, is the full
        // window's, bit for bit.
        let swing = self.buffer.swing;
        let watched = std::iter::once("drv_in").chain(out.sinks.iter().map(String::as_str));
        let res = Transient::new(&out.netlist)
            .timestep(self.timestep)
            .duration(self.duration)
            .stepping(self.stepping.clone())
            .stop_when_crossed(watched, 0.5 * swing, swing > 0.0)
            .run()?;
        let vin = res.voltage("drv_in")?;
        let mut delays = Vec::with_capacity(out.sinks.len());
        for sink in &out.sinks {
            let vout = res.voltage(sink)?;
            let d = measure::delay_50(res.time(), vin, vout, 0.0, swing).ok_or(
                CoreError::MissingTable {
                    what: format!("sink {sink} never reached midswing — lengthen the window"),
                },
            )?;
            delays.push(d);
        }
        Ok(delays)
    }

    /// Analyzes the nominal (perfectly symmetric) H-tree: one stage
    /// simulation per level, delays broadcast to all of that level's
    /// instances. Nominal skew is zero by symmetry; the value of this run
    /// is the insertion delay (and its RC-vs-RLC difference).
    ///
    /// `cross` provides the cross-section for every level; use
    /// [`ClockTreeAnalyzer::analyze_tapered`] for per-level widths.
    ///
    /// # Errors
    ///
    /// Propagates stage simulation errors.
    pub fn analyze(&self, htree: &HTree, cross: &Block) -> Result<SkewReport> {
        let sections: Vec<Block> = (0..htree.levels()).map(|_| cross.clone()).collect();
        self.analyze_tapered(htree, &sections)
    }

    /// Like [`ClockTreeAnalyzer::analyze`] with one cross-section per level
    /// (clock trees taper: wide trunk near the root, narrower downstream).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingTable`] if `cross_sections.len()` does
    /// not match the level count; propagates simulation errors.
    pub fn analyze_tapered(&self, htree: &HTree, cross_sections: &[Block]) -> Result<SkewReport> {
        let _span = obs::span("clocktree.analyze");
        obs::gauge_set("clocktree.sinks", htree.sinks().len() as f64);
        if cross_sections.len() != htree.levels() {
            return Err(CoreError::MissingTable {
                what: format!(
                    "need {} cross-sections (one per level), got {}",
                    htree.levels(),
                    cross_sections.len()
                ),
            });
        }
        let mut per_level = Vec::with_capacity(htree.levels());
        for (level, cross) in htree.iter().zip(cross_sections) {
            per_level.push(self.stage_delays(&level.stage_tree(), cross)?);
        }
        // Accumulate along every root-to-sink path; each level contributes
        // its per-branch stage delay plus one buffer intrinsic delay.
        let mut totals = vec![self.buffer.intrinsic_delay];
        for delays in &per_level {
            let mut next = Vec::with_capacity(totals.len() * delays.len());
            for &t in &totals {
                for &d in delays {
                    next.push(t + d + self.buffer.intrinsic_delay);
                }
            }
            totals = next;
        }
        Ok(SkewReport::from_delays(totals))
    }

    /// Monte-Carlo process-variation analysis: every stage *instance* gets
    /// its own geometry draw (statistical RC), while inductance stays
    /// nominal when `nominal_l` is true — the paper's recipe — or is
    /// re-extracted from the perturbed geometry when false.
    ///
    /// # Errors
    ///
    /// Propagates sampling and simulation errors.
    pub fn analyze_with_variation<R: UniformRng>(
        &self,
        htree: &HTree,
        cross: &Block,
        spec: &VariationSpec,
        nominal_l: bool,
        rng: &mut R,
    ) -> Result<SkewReport> {
        // Nominal per-level delays are replaced per instance by a perturbed
        // stage simulation. With nominal_l, the perturbed block is used for
        // R and C while L comes from the nominal geometry — realized by
        // extracting with the nominal signal width for the loop table and
        // the perturbed widths elsewhere. Since `extract_segment` looks up
        // L by signal width, we emulate "nominal L" by drawing a block whose
        // widths are perturbed for RC but querying the loop table at the
        // nominal width, which is what a perturbed *block with nominal
        // width metadata* achieves; the practical shortcut here is to
        // perturb or not perturb the block fed to the extractor.
        let mut totals = vec![self.buffer.intrinsic_delay];
        for level in htree.iter() {
            let stage = level.stage_tree();
            let mut next = Vec::new();
            for &t in &totals {
                // One instance per accumulated path-so-far.
                let (sampled, _, _) = spec.sample_block(cross, rng).map_err(CoreError::Cap)?;
                let block = if nominal_l {
                    blend_nominal_l(cross, &sampled)
                } else {
                    sampled
                };
                let delays = self.stage_delays(&stage, &block)?;
                for &d in &delays {
                    next.push(t + d + self.buffer.intrinsic_delay);
                }
            }
            totals = next;
        }
        Ok(SkewReport::from_delays(totals))
    }
}

/// The paper's "nominal L + statistical RC" combination: inductance is
/// insensitive to process variation (it depends logarithmically on the
/// cross-section), so the perturbed block keeps the *nominal* loop-table
/// key (signal width) while R and C see the perturbed geometry.
///
/// Since the extractor keys the loop table by the block's signal width, the
/// practical realization is a block with perturbed spacings (capacitance
/// effect, pitch preserved) and nominal widths; the residual error — using
/// nominal instead of perturbed width for R — is reintroduced by scaling
/// the spacing to keep the perturbed coupling gap.
fn blend_nominal_l(nominal: &Block, sampled: &Block) -> Block {
    // Keep nominal widths (→ nominal L and R key), adopt sampled spacings
    // (→ perturbed coupling C). The paper accepts this asymmetry because L
    // is the insensitive quantity.
    let mut b = rlcx_geom::BlockBuilder::new(nominal.length()).shield(nominal.shield());
    for i in 0..nominal.widths().len() {
        b = b.trace(nominal.widths()[i]);
        if i < sampled.spacings().len() {
            b = b.space(sampled.spacings()[i]);
        }
    }
    b.build()
        .expect("nominal widths and sampled spacings are positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_core::TableBuilder;
    use rlcx_geom::Stackup;
    use rlcx_numeric::rng::SplitMix64;
    use rlcx_peec::MeshSpec;

    fn extractor() -> ClocktreeExtractor {
        let stackup = Stackup::hp_six_metal_copper();
        let tables = TableBuilder::new(stackup.clone(), 5)
            .unwrap()
            .widths(vec![2.0, 5.0, 10.0])
            .spacings(vec![0.5, 1.0, 2.0])
            .lengths(vec![200.0, 800.0, 3200.0])
            .mesh(MeshSpec::new(2, 1))
            .build()
            .unwrap();
        ClocktreeExtractor::new(stackup, 5, tables).unwrap()
    }

    fn cpw() -> Block {
        Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap()
    }

    #[test]
    fn symmetric_stage_has_equal_delays() {
        let ex = extractor();
        let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
        let htree = HTree::new(1, 3200.0).unwrap();
        let delays = an
            .stage_delays(&htree.level(0).unwrap().stage_tree(), &cpw())
            .unwrap();
        assert_eq!(delays.len(), 4);
        for d in &delays {
            assert!((d - delays[0]).abs() < 1e-15, "symmetric sinks must match");
            assert!(*d > 0.0 && *d < 1e-9, "delay {d} out of band");
        }
    }

    #[test]
    fn adaptive_stepping_matches_fixed_stage_delays() {
        use rlcx_spice::AdaptiveOptions;
        let ex = extractor();
        let htree = HTree::new(1, 3200.0).unwrap();
        let stage = htree.level(0).unwrap().stage_tree();
        let fixed = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
            .stage_delays(&stage, &cpw())
            .unwrap();
        let adaptive = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .stage_delays(&stage, &cpw())
            .unwrap();
        for (f, a) in fixed.iter().zip(&adaptive) {
            // Within a fixed-step sample (0.5 ps) of the uniform-axis answer.
            assert!((f - a).abs() < 0.5e-12, "fixed {f} vs adaptive {a}");
        }
    }

    #[test]
    fn nominal_htree_has_zero_skew() {
        let ex = extractor();
        let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
        let htree = HTree::new(2, 3200.0).unwrap();
        let report = an.analyze(&htree, &cpw()).unwrap();
        assert_eq!(report.sink_delays.len(), 16);
        assert!(report.skew() < 1e-15);
        // Insertion delay: 3 buffer delays + 2 stage delays ≈ > 135 ps.
        assert!(
            report.insertion_delay > 0.1e-9,
            "{}",
            report.insertion_delay
        );
    }

    #[test]
    fn inductance_changes_insertion_delay() {
        let ex = extractor();
        let htree = HTree::new(1, 6400.0).unwrap();
        let rlc = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
            .analyze(&htree, &cpw())
            .unwrap();
        let rc = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
            .include_inductance(false)
            .analyze(&htree, &cpw())
            .unwrap();
        let rel = (rlc.insertion_delay - rc.insertion_delay).abs() / rc.insertion_delay;
        // Paper: "the difference can be more than 10%" for wire delay; on
        // insertion delay (which includes buffer intrinsic delay) demand a
        // visible effect.
        assert!(rel > 0.01, "L should visibly change delay, got {rel}");
    }

    #[test]
    fn tapered_analysis_validates_section_count() {
        let ex = extractor();
        let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
        let htree = HTree::new(2, 3200.0).unwrap();
        assert!(an.analyze_tapered(&htree, &[cpw()]).is_err());
    }

    #[test]
    fn variation_produces_nonzero_skew() {
        let ex = extractor();
        let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
        let htree = HTree::new(1, 3200.0).unwrap();
        let mut rng = SplitMix64::new(11);
        let spec = VariationSpec::typical();
        let report = an
            .analyze_with_variation(&htree, &cpw(), &spec, true, &mut rng)
            .unwrap();
        assert_eq!(report.sink_delays.len(), 4);
        // A single level with one perturbed instance still has symmetric
        // sinks; run two levels to see instance-to-instance spread.
        let htree2 = HTree::new(2, 3200.0).unwrap();
        let report2 = an
            .analyze_with_variation(&htree2, &cpw(), &spec, true, &mut rng)
            .unwrap();
        assert!(report2.skew() > 0.0, "variation should produce skew");
        assert!(report2.skew() < 0.3 * report2.insertion_delay);
    }

    #[test]
    fn blend_nominal_l_keeps_widths() {
        let nominal = cpw();
        let mut rng = SplitMix64::new(5);
        let (sampled, _, _) = VariationSpec::typical()
            .sample_block(&nominal, &mut rng)
            .unwrap();
        let blended = blend_nominal_l(&nominal, &sampled);
        assert_eq!(blended.widths(), nominal.widths());
        assert_eq!(blended.spacings(), sampled.spacings());
    }

    #[test]
    fn load_imbalance_creates_skew_and_l_changes_it() {
        let ex = extractor();
        let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
        let htree = HTree::new(1, 6400.0).unwrap();
        let stage = htree.level(0).unwrap().stage_tree();
        // One heavily loaded sink (a register bank) among light ones.
        let loads = [300e-15, 60e-15, 60e-15, 60e-15];
        let d_rlc = an.stage_delays_with_loads(&stage, &cpw(), &loads).unwrap();
        let skew_rlc = rlcx_spice::measure::skew(&d_rlc);
        assert!(skew_rlc > 1e-12, "imbalance must create skew: {skew_rlc}");
        assert!(d_rlc[0] > d_rlc[1], "the heavy sink is the slow one");
        let an_rc = ClockTreeAnalyzer::new(&ex, BufferModel::strong()).include_inductance(false);
        let d_rc = an_rc
            .stage_delays_with_loads(&stage, &cpw(), &loads)
            .unwrap();
        let skew_rc = rlcx_spice::measure::skew(&d_rc);
        let rel = (skew_rlc - skew_rc).abs() / skew_rc.max(1e-15);
        assert!(
            rel > 0.02,
            "L should change the skew estimate: {skew_rlc} vs {skew_rc}"
        );
        // Wrong load count is rejected.
        assert!(an
            .stage_delays_with_loads(&stage, &cpw(), &[1e-15])
            .is_err());
    }

    #[test]
    fn reduced_stage_matches_transient_delays() {
        let ex = extractor();
        let htree = HTree::new(1, 6400.0).unwrap();
        let stage = htree.level(0).unwrap().stage_tree();
        // Imbalanced loads so the sinks genuinely differ.
        let loads = [300e-15, 60e-15, 60e-15, 60e-15];
        let full = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
            .timestep(0.1e-12)
            .stage_delays_with_loads(&stage, &cpw(), &loads)
            .unwrap();
        let reduced = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
            .reduced(ReductionOrder::new(24))
            .stage_delays_with_loads(&stage, &cpw(), &loads)
            .unwrap();
        for (f, r) in full.iter().zip(&reduced) {
            assert!(
                (f - r).abs() < 0.1e-12,
                "transient {f} vs reduced {r} disagree beyond 0.1 ps"
            );
        }
    }

    #[test]
    fn reduced_analysis_keeps_the_symmetric_tree_skew_free() {
        let ex = extractor();
        let an =
            ClockTreeAnalyzer::new(&ex, BufferModel::strong()).reduced(ReductionOrder::default());
        let htree = HTree::new(2, 3200.0).unwrap();
        let report = an.analyze(&htree, &cpw()).unwrap();
        assert_eq!(report.sink_delays.len(), 16);
        assert!(report.skew() < 1e-15);
        assert!(report.insertion_delay > 0.1e-9);
    }

    #[test]
    fn buffer_models_are_sane() {
        let t = BufferModel::typical();
        let s = BufferModel::strong();
        assert!(s.resistance < t.resistance);
        assert!(s.rise_time < t.rise_time);
    }
}
