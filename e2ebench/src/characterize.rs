//! Table characterization: the one-time cost the paper trades for lookup.
//!
//! The timed operation builds the tables cold through
//! [`TableBuilder::build_cached`] into a fresh directory, then loads them
//! back warm. The traced run makes the layer calls itself:
//! [`TableBuilder::build_timed`], [`TableCache::store`] and
//! [`TableCache::lookup`].

use crate::oracle::{bar_self_l, filament_mutual_l, rel_err};
use crate::{counter, Layers};
use rlcx::core::{InductanceTables, TableBuilder, TableCache};
use rlcx::geom::{ShieldConfig, Stackup};
use rlcx::peec::MeshSpec;
use std::path::Path;
use std::time::Instant;

/// The routing layer the tables describe (M6 of the six-metal stackup).
pub const CLOCK_LAYER: usize = 5;

/// Self-L may differ from the DC closed form by this share: the table is
/// solved at 3.2 GHz, where skin effect lowers it by about one percent.
pub const SELF_L_TOL: f64 = 0.02;

/// Mutual-L may differ from the centre-distance Neumann formula by this
/// share. The formula replaces each bar by one filament at its centre, so
/// it is compared only where that picture holds: the length is at least
/// [`MUTUAL_MIN_PITCHES`] centre distances and the centre distance is at
/// least the wider bar's width. The bars' finite cross-sections and skin
/// effect account for the rest; the worst point of the experiment grid is
/// 5.73 % off (two 20 µm bars at 0.5 µm spacing, 400 µm long).
pub const MUTUAL_L_TOL: f64 = 0.07;

/// Shortest length, in centre distances, at which the filament formula is
/// compared.
pub const MUTUAL_MIN_PITCHES: f64 = 10.0;

/// A characterization grid.
#[derive(Debug, Clone)]
pub struct Grid {
    pub widths: &'static [f64],
    pub spacings: &'static [f64],
    pub lengths: &'static [f64],
    pub mesh: (usize, usize),
}

/// The paper's experiment grid: 5 widths x 4 spacings x 7 lengths, 525
/// PEEC solves.
pub const EXPERIMENT_GRID: Grid = Grid {
    widths: &[1.0, 2.0, 5.0, 10.0, 20.0],
    spacings: &[0.5, 1.0, 2.0, 5.0],
    lengths: &[100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0],
    mesh: (3, 2),
};

/// The grid the buffered H-tree needs: its 5 µm signal width bracketed,
/// and every segment length of a 4-level tree on a 12.8 mm die.
pub const TREE_GRID: Grid = Grid {
    widths: &[2.0, 5.0, 10.0],
    spacings: &[0.5, 1.0, 2.0],
    lengths: &[200.0, 400.0, 800.0, 1600.0, 3200.0],
    mesh: (3, 2),
};

/// The table builder for `grid` on the clock layer: CPW and microstrip
/// loop tables, 3.2 GHz.
pub fn builder(stackup: &Stackup, grid: &Grid) -> TableBuilder {
    TableBuilder::new(stackup.clone(), CLOCK_LAYER)
        .expect("the six-metal stackup has the clock layer")
        .widths(grid.widths.to_vec())
        .spacings(grid.spacings.to_vec())
        .lengths(grid.lengths.to_vec())
        .shields(vec![ShieldConfig::Coplanar, ShieldConfig::PlaneBelow])
        .mesh(MeshSpec::new(grid.mesh.0, grid.mesh.1))
        .frequency(3.2e9)
}

/// The timed operation: cold build and store into the empty `dir`, then a
/// warm reload. Returns (cold tables, warm tables, seconds, check failures
/// on the cache outcome).
pub fn run(
    builder: &TableBuilder,
    dir: &Path,
) -> Result<(InductanceTables, InductanceTables, f64, Vec<String>), String> {
    let t0 = Instant::now();
    let cold = builder.build_cached(dir).map_err(|e| e.to_string())?;
    let warm = builder.build_cached(dir).map_err(|e| e.to_string())?;
    let seconds = t0.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    if cold.cache_hit {
        failures.push("the cold build hit a cache in a fresh directory".into());
    }
    if !warm.cache_hit {
        failures.push(format!("the warm reload missed: {:?}", warm.miss_reason));
    }
    Ok((cold.tables, warm.tables, seconds, failures))
}

/// The traced walk of the same operation, recording its layers. Returns
/// the built tables and the wall time of the whole walk.
pub fn run_traced(
    builder: &TableBuilder,
    dir: &Path,
    layers: &mut Layers,
) -> Result<(InductanceTables, f64), String> {
    let (solves, filaments) = (counter("peec.solves"), counter("peec.filaments"));
    let points = table_points();
    let t0 = Instant::now();
    let (tables, timings) = builder.build_timed().map_err(|e| e.to_string())?;
    let cache = TableCache::new(dir);
    let key = builder.cache_key();
    let t = Instant::now();
    cache.store(&key, &tables).map_err(|e| e.to_string())?;
    let store_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = cache
        .lookup(&key)
        .map_err(|m| format!("reload missed: {m}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let wall = t0.elapsed().as_secs_f64();
    let stage = |label: &str| timings.get(label).map_or(0.0, |d| d.as_secs_f64());
    layers.add("core.table.self_s", stage("self-table"));
    layers.add("core.table.mutual_s", stage("mutual-table"));
    layers.add("core.table.loop_s", stage("loop-tables"));
    let solve_cpu: f64 = timings
        .stages()
        .iter()
        .filter(|(label, _)| label.ends_with("-solve-cpu"))
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    layers.add("peec.solve_cpu_s", solve_cpu);
    layers.add("core.table.points", (table_points() - points) as f64);
    layers.add("peec.solves", (counter("peec.solves") - solves) as f64);
    layers.add(
        "peec.filaments",
        (counter("peec.filaments") - filaments) as f64,
    );
    layers.add("core.cache.store_s", store_s);
    layers.add("core.cache.load_s", load_s);
    if let Some(m) = bit_mismatches(&tables, &loaded).into_iter().next() {
        return Err(format!("traced reload differs from the traced build: {m}"));
    }
    Ok((tables, wall))
}

fn table_points() -> u64 {
    [
        "table.points.self",
        "table.points.mutual",
        "table.points.loop",
    ]
    .iter()
    .map(|n| counter(n))
    .sum()
}

/// Every check of one characterization: closed forms, physical
/// properties, and the warm reload against the cold build.
pub fn check(cold: &InductanceTables, warm: &InductanceTables, stackup: &Stackup) -> Vec<String> {
    let t = stackup
        .layer(CLOCK_LAYER)
        .expect("the six-metal stackup has the clock layer")
        .thickness();
    let mut failures = bit_mismatches(cold, warm);
    let self_t = &cold.self_l;
    let (widths, lengths) = (self_t.widths(), self_t.lengths());
    let self_l = |i: usize, k: usize| self_t.grid()[i][k];
    for (i, &w) in widths.iter().enumerate() {
        for (k, &l) in lengths.iter().enumerate() {
            let err = rel_err(self_l(i, k), bar_self_l(l, w, t));
            if err > SELF_L_TOL {
                failures.push(format!(
                    "self-L w={w} l={l} is {:.2}% off the closed form",
                    err * 100.0
                ));
            }
            // Paper E5: doubling the length more than doubles self-L.
            let double = lengths.iter().position(|&l2| l2 == 2.0 * l);
            if let Some(k2) = double {
                if self_l(i, k2) <= 2.0 * self_l(i, k) {
                    failures.push(format!(
                        "self-L w={w} does not grow superlinearly from l={l}"
                    ));
                }
            }
        }
    }
    let mutual = &cold.mutual_l;
    let spacings = mutual.spacings();
    for (i, &w1) in widths.iter().enumerate() {
        for (j, &w2) in widths.iter().enumerate() {
            for (k, &l) in lengths.iter().enumerate() {
                let m_at = |s: usize| mutual.grid()[i][j][s][k];
                for (s, &sp) in spacings.iter().enumerate() {
                    let m = m_at(s);
                    let at = format!("M w={w1},{w2} s={sp} l={l}");
                    if !(m > 0.0 && m < (self_l(i, k) * self_l(j, k)).sqrt()) {
                        failures.push(format!("{at} = {m:e} is not within (0, sqrt(L1 L2))"));
                    }
                    if s > 0 && m >= m_at(s - 1) {
                        failures.push(format!("{at} does not fall with spacing"));
                    }
                    let pitch = 0.5 * w1 + sp + 0.5 * w2;
                    if l >= MUTUAL_MIN_PITCHES * pitch && pitch >= w1.max(w2) {
                        let err = rel_err(m, filament_mutual_l(l, pitch));
                        if err > MUTUAL_L_TOL {
                            failures.push(format!(
                                "{at} is {:.2}% off the filament formula",
                                err * 100.0
                            ));
                        }
                    }
                }
            }
        }
    }
    for table in cold.loop_tables() {
        if table.widths() != widths || table.lengths() != lengths {
            failures.push(format!(
                "{:?} loop table axes differ from the self table",
                table.shield()
            ));
            continue;
        }
        for (i, &w) in widths.iter().enumerate() {
            for (k, &l) in lengths.iter().enumerate() {
                let (lp, ll) = (self_l(i, k), table.l_grid()[i][k]);
                if !(ll > 0.0 && ll < lp) {
                    failures.push(format!(
                        "{:?} loop L w={w} l={l} = {ll:e} is not within (0, partial self-L {lp:e})",
                        table.shield()
                    ));
                }
            }
        }
    }
    failures
}

/// Bitwise differences between two table sets, as messages.
pub fn bit_mismatches(a: &InductanceTables, b: &InductanceTables) -> Vec<String> {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let mutual = |t: &InductanceTables| -> Vec<f64> {
        t.mutual_l
            .grid()
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .copied()
            .collect()
    };
    let mut pairs = vec![
        (
            "self-L grid",
            a.self_l.grid().concat(),
            b.self_l.grid().concat(),
        ),
        ("mutual-L grid", mutual(a), mutual(b)),
        ("frequency", vec![a.frequency], vec![b.frequency]),
    ];
    let mut out = Vec::new();
    if a.loop_tables().len() != b.loop_tables().len() {
        out.push("loop table count differs".to_string());
    }
    for (x, y) in a.loop_tables().iter().zip(b.loop_tables()) {
        pairs.push(("loop-L grid", x.l_grid().concat(), y.l_grid().concat()));
        pairs.push(("loop-R grid", x.r_grid().concat(), y.r_grid().concat()));
    }
    for (what, x, y) in pairs {
        if !same(&x, &y) {
            out.push(format!("{what} differs bit for bit"));
        }
    }
    out
}
