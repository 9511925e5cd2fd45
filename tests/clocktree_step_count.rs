//! The stage-transient step count of one 4-level Monte-Carlo draw.
//!
//! Every stage transient stops at its last midswing crossing, so a draw
//! takes a few thousand steps instead of 85 instances × 6000 steps of the
//! 3 ns window. The count is deterministic (seeded draw, fixed stepping)
//! and pinned here. It reads process-wide counters, so this binary holds
//! this one test and no other transient runs while it measures.

use rlcx::cap::VariationSpec;
use rlcx::clocktree::{BufferModel, ClockTreeAnalyzer};
use rlcx::core::{ClocktreeExtractor, TableBuilder};
use rlcx::geom::{Block, HTree, Stackup};
use rlcx::numeric::rng::SplitMix64;
use rlcx::obs;
use rlcx::peec::MeshSpec;

#[test]
fn four_level_draw_stops_every_stage_at_its_crossings() {
    let stackup = Stackup::hp_six_metal_copper();
    let tables = TableBuilder::new(stackup.clone(), 5)
        .unwrap()
        .widths(vec![2.0, 5.0, 10.0])
        .spacings(vec![0.5, 1.0, 2.0])
        .lengths(vec![400.0, 1600.0, 6400.0])
        .mesh(MeshSpec::new(2, 1))
        .build()
        .unwrap();
    let ex = ClocktreeExtractor::new(stackup, 5, tables).unwrap();
    let cpw = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap();
    let htree = HTree::new(4, 6400.0).unwrap();
    let an = ClockTreeAnalyzer::new(&ex, BufferModel::strong());

    let count = |name| obs::counter_value(name);
    let before = [
        "clocktree.stages",
        "spice.steps",
        "spice.stops",
        "spice.steps.saved",
    ]
    .map(count);
    let mut rng = SplitMix64::new(101);
    let report = an
        .analyze_with_variation(&htree, &cpw, &VariationSpec::typical(), true, &mut rng)
        .unwrap();
    let after = [
        "clocktree.stages",
        "spice.steps",
        "spice.stops",
        "spice.steps.saved",
    ]
    .map(count);
    let [stages, steps, stops, saved] = [0, 1, 2, 3].map(|i| after[i] - before[i]);

    assert_eq!(report.sink_delays.len(), 256);
    // 1 + 4 + 16 + 64 stage instances, each stopped before its window.
    assert_eq!((stages, stops), (85, 85));
    // The full window is 6000 steps of 0.5 ps per instance.
    assert_eq!(steps + saved, 85 * 6000);
    assert!(steps < 10_000, "{steps} steps per draw");
    assert_eq!(steps, STEPS_PER_DRAW);
}

/// `spice.steps` of the draw above.
const STEPS_PER_DRAW: u64 = 6773;
