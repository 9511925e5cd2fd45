//! Section V Monte-Carlo skew on a buffered H-tree, nominal L plus
//! statistical RC, on the transient and on the PRIMA path.
//!
//! The timed operation is one [`ClockTreeAnalyzer::analyze_with_variation`]
//! call: one draw on one path. The traced run re-walks the same stage
//! instances through the layer calls — [`VariationSpec::sample_block`],
//! [`TreeNetlistBuilder::build`], then [`Transient::run`] and
//! [`measure::delay_50`], or [`Reduce::run`] and
//! [`ReducedModel::delay_50_all`] — and must reproduce the analyzer's sink
//! delays bit for bit.

use crate::{counter, gauge, Layers};
use rlcx::cap::VariationSpec;
use rlcx::clocktree::{BufferModel, ClockTreeAnalyzer, SkewReport};
use rlcx::core::{ClocktreeExtractor, TreeNetlistBuilder};
use rlcx::geom::{Block, BlockBuilder, HTree};
use rlcx::numeric::SplitMix64;
use rlcx::spice::{measure, Reduce, ReducedModel, ReductionOrder, Stepping, Transient, Waveform};
use std::time::Instant;

/// π-sections per extracted segment.
const SECTIONS: usize = 4;
/// Transient step (s).
const TIMESTEP: f64 = 0.5e-12;
/// Per-stage simulation window, also the PRIMA crossing horizon (s).
const WINDOW: f64 = 3e-9;

/// Nominal-tree skew must stay below this on both paths (s): the tree is
/// symmetric, so any skew is a fault.
pub const NOMINAL_SKEW_MAX: f64 = 1e-15;
/// Transient and PRIMA sink delays must agree to this (s).
pub const PATH_AGREEMENT: f64 = 0.1e-12;
/// Dropping L must move the root-stage wire delay by more than this share
/// (the paper's claim).
pub const RC_GAP_MIN: f64 = 0.10;

/// The two analysis paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Transient,
    Reduced,
}

/// One H-tree analysis problem: tree, cross-section and buffer.
pub struct Tree<'a> {
    pub extractor: &'a ClocktreeExtractor,
    pub htree: &'a HTree,
    pub cross: &'a Block,
}

fn buffer() -> BufferModel {
    BufferModel::strong()
}

fn analyzer(ex: &ClocktreeExtractor, path: Path) -> ClockTreeAnalyzer<'_> {
    let an = ClockTreeAnalyzer::new(ex, buffer())
        .sections(SECTIONS)
        .timestep(TIMESTEP)
        .duration(WINDOW)
        .stepping(Stepping::Fixed);
    match path {
        Path::Transient => an,
        Path::Reduced => an.reduced(ReductionOrder::default()),
    }
}

/// The timed operation: one Monte-Carlo draw on one path. Returns the
/// report and its wall time.
pub fn draw(tree: &Tree, path: Path, seed: u64) -> Result<(SkewReport, f64), String> {
    let mut rng = SplitMix64::new(seed);
    let t0 = Instant::now();
    let report = analyzer(tree.extractor, path)
        .analyze_with_variation(
            tree.htree,
            tree.cross,
            &VariationSpec::typical(),
            true,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    Ok((report, t0.elapsed().as_secs_f64()))
}

/// The traced walk of [`draw`]: the same stage instances through the layer
/// calls. Returns the sink delays and the wall time of the whole walk.
pub fn draw_traced(
    tree: &Tree,
    path: Path,
    seed: u64,
    layers: &mut Layers,
) -> Result<(Vec<f64>, f64), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (segments, steps) = (counter("extract.segments"), counter("spice.steps"));
    let buf = buffer();
    let spec = VariationSpec::typical();
    let mut rng = SplitMix64::new(seed);
    let t0 = Instant::now();
    let mut totals = vec![buf.intrinsic_delay];
    for level in tree.htree.iter() {
        let stage = level.stage_tree();
        let loads = vec![buf.input_cap; stage.leaves().len()];
        let mut next = Vec::with_capacity(totals.len() * loads.len());
        for &t in &totals {
            let t1 = Instant::now();
            let (sampled, _, _) = spec
                .sample_block(tree.cross, &mut rng)
                .map_err(|e| err(&e))?;
            let block = nominal_l_block(tree.cross, &sampled)?;
            layers.add("cap.sample_s", t1.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let out = TreeNetlistBuilder::new(tree.extractor)
                .sections_per_segment(SECTIONS)
                .include_inductance(true)
                .driver_resistance(buf.resistance)
                .input(Waveform::ramp(0.0, buf.swing, 0.0, buf.rise_time))
                .sink_caps(loads.clone())
                .build(&stage, &block)
                .map_err(|e| err(&e))?;
            layers.add("core.netlist_s", t1.elapsed().as_secs_f64());
            let delays = match path {
                Path::Transient => transient_delays(&out.netlist, &out.sinks, buf.swing, layers)?,
                Path::Reduced => reduced_delays(&out.netlist, &out.sinks, layers)?,
            };
            for d in delays {
                next.push(t + d + buf.intrinsic_delay);
            }
        }
        totals = next;
    }
    let wall = t0.elapsed().as_secs_f64();
    layers.add(
        "core.segments",
        (counter("extract.segments") - segments) as f64,
    );
    match path {
        Path::Transient => {
            layers.add("spice.steps", (counter("spice.steps") - steps) as f64);
            layers.max("spice.mna.dim", gauge("spice.mna.dim"));
        }
        Path::Reduced => layers.max("spice.mor.order", gauge("mor.order")),
    }
    Ok((totals, wall))
}

fn transient_delays(
    netlist: &rlcx::spice::Netlist,
    sinks: &[String],
    swing: f64,
    layers: &mut Layers,
) -> Result<Vec<f64>, String> {
    let t1 = Instant::now();
    let res = Transient::new(netlist)
        .timestep(TIMESTEP)
        .duration(WINDOW)
        .stepping(Stepping::Fixed)
        .run()
        .map_err(|e| e.to_string())?;
    layers.add("spice.transient_s", t1.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let vin = res.voltage("drv_in").map_err(|e| e.to_string())?;
    let mut delays = Vec::with_capacity(sinks.len());
    for sink in sinks {
        let vout = res.voltage(sink).map_err(|e| e.to_string())?;
        delays.push(
            measure::delay_50(res.time(), vin, vout, 0.0, swing)
                .ok_or(format!("sink {sink} never reached midswing"))?,
        );
    }
    layers.add("spice.measure_s", t1.elapsed().as_secs_f64());
    Ok(delays)
}

fn reduced_delays(
    netlist: &rlcx::spice::Netlist,
    sinks: &[String],
    layers: &mut Layers,
) -> Result<Vec<f64>, String> {
    let t1 = Instant::now();
    let model: ReducedModel = Reduce::new(netlist)
        .order(ReductionOrder::default())
        .outputs(sinks.iter().map(String::as_str))
        .run()
        .map_err(|e| e.to_string())?;
    layers.add("spice.reduce_s", t1.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let raw = model.delay_50_all(WINDOW).map_err(|e| e.to_string())?;
    layers.add("spice.reduce.query_s", t1.elapsed().as_secs_f64());
    raw.into_iter()
        .zip(sinks)
        .map(|(d, sink)| d.ok_or(format!("sink {sink} never reached midswing")))
        .collect()
}

/// The paper's nominal-L recipe as the analyzer applies it: nominal widths
/// (so the loop-table key and L stay nominal), sampled spacings (so the
/// coupling capacitance sees the draw).
fn nominal_l_block(nominal: &Block, sampled: &Block) -> Result<Block, String> {
    let mut b = BlockBuilder::new(nominal.length()).shield(nominal.shield());
    for (i, &w) in nominal.widths().iter().enumerate() {
        b = b.trace(w);
        if let Some(&s) = sampled.spacings().get(i) {
            b = b.space(s);
        }
    }
    b.build().map_err(|e| e.to_string())
}

/// Skew: the max − min spread of sink delays.
pub fn skew(delays: &[f64]) -> f64 {
    let max = delays.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = delays.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// Checks one draw's report on its own: every sink delay exceeds the
/// `levels + 1` buffer delays on its path (each stage adds a positive wire
/// delay), and the per-instance draws leave the sinks with nonzero skew.
///
/// The skew has no upper bound here. The width bias is an untruncated
/// Gaussian and the spacing absorbs it, so a tail draw can close the 1 µm
/// gap to a tenth of that: seed 110 on the `characterize` workload gives a
/// 218 ps skew on a 297 ps insertion delay, with transient and PRIMA
/// agreeing to 0.002 ps.
pub fn check_draw(delays: &[f64], levels: usize) -> Vec<String> {
    let floor = (levels + 1) as f64 * buffer().intrinsic_delay;
    let mut failures = Vec::new();
    if let Some(d) = delays.iter().find(|&&d| d.is_nan() || d <= floor) {
        failures.push(format!(
            "sink delay {d:e} s does not exceed the {floor:e} s of buffer delays"
        ));
    }
    if skew(delays) <= 0.0 {
        failures.push("the draw left the sinks without skew".into());
    }
    failures
}

/// Checks the two paths of one draw against each other, sink by sink.
pub fn check_paths(transient: &[f64], reduced: &[f64]) -> Vec<String> {
    if transient.len() != reduced.len() {
        return vec![format!(
            "{} transient sinks vs {} reduced",
            transient.len(),
            reduced.len()
        )];
    }
    let worst = transient
        .iter()
        .zip(reduced)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if worst <= PATH_AGREEMENT {
        Vec::new()
    } else {
        vec![format!(
            "transient and PRIMA sink delays differ by {worst:e} s"
        )]
    }
}

/// Checks a traced walk against the analyzer, bit for bit.
pub fn check_traced(analyzer: &[f64], traced: &[f64]) -> Vec<String> {
    let same = analyzer.len() == traced.len()
        && analyzer
            .iter()
            .zip(traced)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Vec::new()
    } else {
        vec!["the traced walk does not reproduce the analyzer's sink delays bit for bit".into()]
    }
}

/// Checks of the tree without variation on one path: the nominal tree has
/// no skew.
pub fn check_nominal(tree: &Tree, path: Path) -> Result<Vec<String>, String> {
    let report = analyzer(tree.extractor, path)
        .analyze(tree.htree, tree.cross)
        .map_err(|e| e.to_string())?;
    let skew = skew(&report.sink_delays);
    Ok(if skew < NOMINAL_SKEW_MAX {
        Vec::new()
    } else {
        vec![format!("nominal tree skew {skew:e} s on the {path:?} path")]
    })
}

/// The paper's claim on the root stage: its wire delay with L differs from
/// the RC-only delay by more than [`RC_GAP_MIN`].
pub fn check_rc_gap(tree: &Tree) -> Result<Vec<String>, String> {
    let stage = tree.htree.level(0).map_err(|e| e.to_string())?.stage_tree();
    let root = |with_l: bool| -> Result<f64, String> {
        let d = analyzer(tree.extractor, Path::Transient)
            .include_inductance(with_l)
            .stage_delays(&stage, tree.cross)
            .map_err(|e| e.to_string())?;
        Ok(d[0])
    };
    let (rlc, rc) = (root(true)?, root(false)?);
    let gap = (rlc - rc).abs() / rc;
    Ok(if gap > RC_GAP_MIN {
        Vec::new()
    } else {
        vec![format!(
            "root-stage RLC {rlc:e} s vs RC {rc:e} s differ by only {:.1}%",
            gap * 100.0
        )]
    })
}
