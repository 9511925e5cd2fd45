//! Cross-crate integration: extraction → netlist → transient simulation.
//!
//! These tests check *physics at the system level*: transmission-line wave
//! speed, characteristic impedance matching, π-ladder convergence, and the
//! RC-vs-RLC contrast that motivates the whole paper.

use rlcx::core::{ClocktreeExtractor, TableBuilder, TreeNetlistBuilder};
use rlcx::geom::{Block, SegmentTree, Stackup};
use rlcx::peec::MeshSpec;
use rlcx::spice::{measure, Transient, Waveform};

fn extractor() -> ClocktreeExtractor {
    let stackup = Stackup::hp_six_metal_copper();
    let tables = TableBuilder::new(stackup.clone(), 5)
        .unwrap()
        .widths(vec![2.0, 5.0, 10.0])
        .spacings(vec![0.5, 1.0, 2.0])
        .lengths(vec![500.0, 2000.0, 8000.0])
        .mesh(MeshSpec::new(2, 1))
        .build()
        .unwrap();
    ClocktreeExtractor::new(stackup, 5, tables).unwrap()
}

fn straight_net(len: f64) -> SegmentTree {
    let mut t = SegmentTree::new(0.0, 0.0);
    t.add_node(0, len, 0.0).unwrap();
    t
}

#[test]
fn wave_velocity_below_speed_of_light() {
    // The simulated sink arrival time of a long RLC line must equal the
    // lumped √(LC) estimate and must correspond to a propagation velocity
    // below c (and above c/10 — on-chip lines are slow-wave but not that
    // slow).
    let ex = extractor();
    let len = 8000.0;
    let tree = straight_net(len);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let seg = ex
        .extract_segment(&cross.with_length(len).unwrap())
        .unwrap();
    let tof = seg.time_of_flight();
    let velocity = rlcx::geom::units::um_to_m(len) / tof;
    let c = 2.998e8;
    assert!(velocity < c, "v = {velocity}");
    assert!(velocity > c / 10.0, "v = {velocity}");

    // The simulation's first sink activity should appear near tof.
    let out = TreeNetlistBuilder::new(&ex)
        .sections_per_segment(12)
        .driver_resistance(15.0)
        .input(Waveform::ramp(0.0, 1.8, 0.0, 20e-12))
        .build(&tree, &cross)
        .unwrap();
    let res = Transient::new(&out.netlist)
        .timestep(0.2e-12)
        .duration(2e-9)
        .run()
        .unwrap();
    let t = res.time().to_vec();
    let v = res.voltage(&out.sinks[0]).unwrap().to_vec();
    let t10 = measure::cross_time(&t, &v, 0.18, true, 0.0).unwrap();
    assert!(
        t10 > 0.5 * tof && t10 < 2.0 * tof,
        "10% arrival {t10} vs tof {tof}"
    );
}

#[test]
fn pi_ladder_converges_with_sections() {
    // Doubling the section count should change the measured delay by less
    // and less — the ladder converges to the distributed line.
    let ex = extractor();
    let tree = straight_net(6000.0);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let delay = |k: usize| {
        let out = TreeNetlistBuilder::new(&ex)
            .sections_per_segment(k)
            .driver_resistance(15.0)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 50e-12))
            .build(&tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.2e-12)
            .duration(2e-9)
            .run()
            .unwrap();
        let t = res.time().to_vec();
        let vin = res.voltage("drv_in").unwrap().to_vec();
        let vout = res.voltage(&out.sinks[0]).unwrap().to_vec();
        measure::delay_50(&t, &vin, &vout, 0.0, 1.8).unwrap()
    };
    let d4 = delay(4);
    let d8 = delay(8);
    let d16 = delay(16);
    let step1 = (d8 - d4).abs();
    let step2 = (d16 - d8).abs();
    assert!(
        step2 < step1,
        "ladder should converge: {step1} then {step2}"
    );
    assert!(step2 / d16 < 0.05, "16 sections should be within 5%");
}

#[test]
fn rc_netlist_is_monotone_rlc_rings() {
    let ex = extractor();
    let tree = straight_net(6000.0);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let run = |include_l: bool| {
        let out = TreeNetlistBuilder::new(&ex)
            .sections_per_segment(10)
            .include_inductance(include_l)
            .driver_resistance(15.0)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 30e-12))
            .build(&tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.2e-12)
            .duration(2e-9)
            .run()
            .unwrap();
        (
            res.time().to_vec(),
            res.voltage(&out.sinks[0]).unwrap().to_vec(),
        )
    };
    let (_, v_rc) = run(false);
    let (t, v_rlc) = run(true);
    assert_eq!(measure::overshoot(&v_rc, 0.0, 1.8), 0.0);
    assert!(measure::overshoot(&v_rlc, 0.0, 1.8) > 0.05);
    // Ringing decays: the last 200 ps must sit near the rail.
    let tail_start = t.len() - (200e-12 / 0.2e-12) as usize;
    for &v in &v_rlc[tail_start..] {
        assert!((v - 1.8).abs() < 0.05, "unsettled tail: {v}");
    }
}

#[test]
fn driver_strength_trades_delay_for_ringing() {
    let ex = extractor();
    let tree = straight_net(6000.0);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let run = |rdrv: f64| {
        let out = TreeNetlistBuilder::new(&ex)
            .sections_per_segment(8)
            .driver_resistance(rdrv)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 30e-12))
            .build(&tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.3e-12)
            .duration(3e-9)
            .run()
            .unwrap();
        let t = res.time().to_vec();
        let vin = res.voltage("drv_in").unwrap().to_vec();
        let vout = res.voltage(&out.sinks[0]).unwrap().to_vec();
        (
            measure::delay_50(&t, &vin, &vout, 0.0, 1.8).unwrap(),
            measure::overshoot(&vout, 0.0, 1.8),
        )
    };
    let (d_strong, os_strong) = run(5.0);
    let (d_weak, os_weak) = run(120.0);
    assert!(d_strong < d_weak, "stronger driver is faster");
    assert!(
        os_strong > os_weak,
        "stronger driver rings more: {os_strong} vs {os_weak}"
    );
}

#[test]
fn branched_tree_sinks_see_consistent_delays() {
    // A symmetric Y: both sinks must match; an asymmetric Y must order
    // delays by branch length.
    let ex = extractor();
    let cross = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap();
    let run = |tree: &SegmentTree| {
        let out = TreeNetlistBuilder::new(&ex)
            .driver_resistance(20.0)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 50e-12))
            .build(tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.5e-12)
            .duration(3e-9)
            .run()
            .unwrap();
        let t = res.time().to_vec();
        let vin = res.voltage("drv_in").unwrap().to_vec();
        out.sinks
            .iter()
            .map(|s| {
                let vout = res.voltage(s).unwrap().to_vec();
                measure::delay_50(&t, &vin, &vout, 0.0, 1.8).unwrap()
            })
            .collect::<Vec<_>>()
    };
    let mut sym = SegmentTree::new(0.0, 0.0);
    let b = sym.add_node(0, 1000.0, 0.0).unwrap();
    sym.add_node(b, 1000.0, 1500.0).unwrap();
    sym.add_node(b, 1000.0, -1500.0).unwrap();
    let d = run(&sym);
    assert!((d[0] - d[1]).abs() < 1e-14, "symmetric Y must be skewless");

    let mut asym = SegmentTree::new(0.0, 0.0);
    let b = asym.add_node(0, 1000.0, 0.0).unwrap();
    asym.add_node(b, 1000.0, 500.0).unwrap();
    asym.add_node(b, 1000.0, -3000.0).unwrap();
    let d = run(&asym);
    assert!(d[1] > d[0], "longer branch must be slower: {d:?}");
}

#[test]
fn spice_export_roundtrip_contains_extracted_values() {
    let ex = extractor();
    let tree = straight_net(2000.0);
    let cross = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap();
    let out = TreeNetlistBuilder::new(&ex)
        .sections_per_segment(1)
        .build(&tree, &cross)
        .unwrap();
    let deck = rlcx::spice::writer::to_spice(&out.netlist, "roundtrip");
    let seg = ex
        .extract_segment(&cross.with_length(2000.0).unwrap())
        .unwrap();
    // One section: the full loop L appears on a single L card.
    assert!(deck.contains(&format!("{:.6e}", seg.l)), "deck:\n{deck}");
    assert!(deck.contains(&format!("{:.6e}", seg.r)));
    assert!(deck.contains("Vdrv"));
}
