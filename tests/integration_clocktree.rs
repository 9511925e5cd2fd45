//! End-to-end clocktree analysis integration tests.

use rlcx::cap::VariationSpec;
use rlcx::clocktree::{BufferModel, ClockTreeAnalyzer};
use rlcx::core::{ClocktreeExtractor, TableBuilder, TreeNetlistBuilder};
use rlcx::geom::{Block, BlockBuilder, HTree, Stackup};
use rlcx::numeric::rng::SplitMix64;
use rlcx::peec::MeshSpec;
use rlcx::spice::{measure, Transient, Waveform};

fn extractor() -> ClocktreeExtractor {
    let stackup = Stackup::hp_six_metal_copper();
    let tables = TableBuilder::new(stackup.clone(), 5)
        .unwrap()
        .widths(vec![2.0, 5.0, 10.0])
        .spacings(vec![0.5, 1.0, 2.0])
        .lengths(vec![400.0, 1600.0, 6400.0])
        .mesh(MeshSpec::new(2, 1))
        .build()
        .unwrap();
    ClocktreeExtractor::new(stackup, 5, tables).unwrap()
}

fn cpw() -> Block {
    Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap()
}

#[test]
fn deeper_trees_have_longer_insertion_delay() {
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
    let d1 = an.analyze(&HTree::new(1, 3200.0).unwrap(), &cpw()).unwrap();
    let d2 = an.analyze(&HTree::new(2, 3200.0).unwrap(), &cpw()).unwrap();
    assert!(d2.insertion_delay > d1.insertion_delay);
    assert_eq!(d1.sink_delays.len(), 4);
    assert_eq!(d2.sink_delays.len(), 16);
}

#[test]
fn wider_die_is_slower() {
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
    let small = an.analyze(&HTree::new(1, 1600.0).unwrap(), &cpw()).unwrap();
    let large = an.analyze(&HTree::new(1, 6400.0).unwrap(), &cpw()).unwrap();
    assert!(large.insertion_delay > small.insertion_delay);
}

#[test]
fn tapered_tree_root_width_matters() {
    // Wider root-level wiring lowers the root stage's resistance; with a
    // strong buffer the insertion delay drops (the RC component shrinks
    // faster than the L component grows).
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
    let htree = HTree::new(2, 6400.0).unwrap();
    let narrow = [cpw(), cpw()];
    let wide_root = [
        Block::coplanar_waveguide(1.0, 10.0, 10.0, 1.0).unwrap(),
        cpw(),
    ];
    let d_narrow = an.analyze_tapered(&htree, &narrow).unwrap();
    let d_tapered = an.analyze_tapered(&htree, &wide_root).unwrap();
    assert_ne!(d_narrow.insertion_delay, d_tapered.insertion_delay);
}

#[test]
fn rc_baseline_differs_from_rlc_by_more_than_skew_tolerance() {
    // The paper's motivating claim, as a regression test: on a large die
    // the wire-delay error from dropping L exceeds 10 %.
    let ex = extractor();
    let htree = HTree::new(1, 6400.0).unwrap();
    let stage = htree.level(0).unwrap().stage_tree();
    let rlc = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
        .stage_delays(&stage, &cpw())
        .unwrap()[0];
    let rc = ClockTreeAnalyzer::new(&ex, BufferModel::strong())
        .include_inductance(false)
        .stage_delays(&stage, &cpw())
        .unwrap()[0];
    assert!(
        (rlc - rc).abs() / rc > 0.10,
        "wire delay error from dropping L: {:.1}%",
        (rlc - rc).abs() / rc * 100.0
    );
}

#[test]
fn variation_skew_is_reproducible_with_seed() {
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
    let htree = HTree::new(2, 3200.0).unwrap();
    let spec = VariationSpec::typical();
    let run = |seed: u64| {
        let mut rng = SplitMix64::new(seed);
        an.analyze_with_variation(&htree, &cpw(), &spec, true, &mut rng)
            .unwrap()
            .skew()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn nominal_l_variation_close_to_full_variation() {
    // The paper's shortcut (nominal L + statistical RC) should track the
    // full re-extraction closely, because L is the insensitive quantity.
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
    let htree = HTree::new(2, 3200.0).unwrap();
    let spec = VariationSpec::typical();
    let mut rng_a = SplitMix64::new(21);
    let mut rng_b = SplitMix64::new(21);
    let nominal_l = an
        .analyze_with_variation(&htree, &cpw(), &spec, true, &mut rng_a)
        .unwrap();
    let full = an
        .analyze_with_variation(&htree, &cpw(), &spec, false, &mut rng_b)
        .unwrap();
    let rel = (nominal_l.insertion_delay - full.insertion_delay).abs() / full.insertion_delay;
    assert!(rel < 0.05, "nominal-L shortcut drifted {rel}");
}

#[test]
fn stage_delay_positive_and_bounded() {
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::typical());
    let htree = HTree::new(1, 3200.0).unwrap();
    let delays = an
        .stage_delays(&htree.level(0).unwrap().stage_tree(), &cpw())
        .unwrap();
    for d in delays {
        assert!(d > 1e-12 && d < 1e-9, "stage delay {d} out of band");
    }
}

/// The analyzer's Monte-Carlo walk, re-run through the layer calls with
/// every stage simulated over the whole window: the same draws, the same
/// stage netlists, then a full-window transient and `measure::delay_50`.
fn full_window_walk(
    ex: &ClocktreeExtractor,
    htree: &HTree,
    cross: &Block,
    nominal_l: bool,
    seed: u64,
) -> Vec<f64> {
    // `ClockTreeAnalyzer::new`'s defaults.
    let (sections, timestep, window) = (4, 0.5e-12, 3e-9);
    let buf = BufferModel::strong();
    let spec = VariationSpec::typical();
    let mut rng = SplitMix64::new(seed);
    let mut totals = vec![buf.intrinsic_delay];
    for level in htree.iter() {
        let stage = level.stage_tree();
        let loads = vec![buf.input_cap; stage.leaves().len()];
        let mut next = Vec::new();
        for &t in &totals {
            let (sampled, _, _) = spec.sample_block(cross, &mut rng).unwrap();
            let block = if nominal_l {
                // Nominal widths (nominal L), sampled spacings (the draw's C).
                let mut b = BlockBuilder::new(cross.length()).shield(cross.shield());
                for (i, &w) in cross.widths().iter().enumerate() {
                    b = b.trace(w);
                    if let Some(&sp) = sampled.spacings().get(i) {
                        b = b.space(sp);
                    }
                }
                b.build().unwrap()
            } else {
                sampled
            };
            let out = TreeNetlistBuilder::new(ex)
                .sections_per_segment(sections)
                .include_inductance(true)
                .driver_resistance(buf.resistance)
                .input(Waveform::ramp(0.0, buf.swing, 0.0, buf.rise_time))
                .sink_caps(loads.clone())
                .build(&stage, &block)
                .unwrap();
            let res = Transient::new(&out.netlist)
                .timestep(timestep)
                .duration(window)
                .run()
                .unwrap();
            assert_eq!(res.steps_accepted(), 6000, "the walk covers the window");
            let vin = res.voltage("drv_in").unwrap();
            for sink in &out.sinks {
                let vout = res.voltage(sink).unwrap();
                let d = measure::delay_50(res.time(), vin, vout, 0.0, buf.swing).unwrap();
                next.push(t + d + buf.intrinsic_delay);
            }
        }
        totals = next;
    }
    totals
}

#[test]
fn stopped_stage_transients_reproduce_the_full_window_bit_for_bit() {
    // The analyzer ends every stage transient at its last midswing
    // crossing; the delays it reads from that prefix must be the
    // full-window ones exactly, over several draws and tree depths.
    let ex = extractor();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());
    let spec = VariationSpec::typical();
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    for (levels, seeds) in [(2, [5u64, 6, 7]), (3, [8, 9, 10])] {
        let htree = HTree::new(levels, 3200.0).unwrap();
        for (k, seed) in seeds.into_iter().enumerate() {
            let nominal_l = k != 1;
            let mut rng = SplitMix64::new(seed);
            let report = an
                .analyze_with_variation(&htree, &cpw(), &spec, nominal_l, &mut rng)
                .unwrap();
            let walk = full_window_walk(&ex, &htree, &cpw(), nominal_l, seed);
            assert_eq!(
                bits(&report.sink_delays),
                bits(&walk),
                "{levels} levels, seed {seed}, nominal L {nominal_l}"
            );
        }
    }
}

#[test]
fn a_sink_that_never_crosses_still_errors() {
    // A window far too short for the wires: the stop rule never fires,
    // the stage runs the whole window, and the missing crossing is the
    // same "lengthen the window" error as before.
    let ex = extractor();
    let htree = HTree::new(1, 6400.0).unwrap();
    let stage = htree.level(0).unwrap().stage_tree();
    let err = ClockTreeAnalyzer::new(&ex, BufferModel::typical())
        .duration(10e-12)
        .stage_delays(&stage, &cpw())
        .unwrap_err();
    assert!(err.to_string().contains("lengthen the window"), "{err}");
}
