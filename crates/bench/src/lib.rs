//! Shared setup for the experiment binaries and benches.
//!
//! Every `exp_*` binary reproduces one table or figure of the paper; the
//! mapping lives in `DESIGN.md` and the measured-vs-paper record in
//! `EXPERIMENTS.md`. The benches use the in-repo [`harness`] so the whole
//! workspace builds and runs with zero registry access.

pub mod harness;

use rlcx::core::{CachedBuild, ClocktreeExtractor, InductanceTables, TableBuilder};
use rlcx::geom::{ShieldConfig, Stackup};
use rlcx::obs::{self, RunReport, TraceLevel};
use rlcx::peec::MeshSpec;
use std::path::PathBuf;

/// The clock routing layer used throughout the experiments (thick top
/// metal, M6 of the representative copper stackup).
pub const CLOCK_LAYER: usize = 5;

/// The paper's significant frequency for 100 ps edges: 3.2 GHz.
pub const F_SIG: f64 = 3.2e9;

/// Builds the experiment stackup.
pub fn stackup() -> Stackup {
    Stackup::hp_six_metal_copper()
}

/// Characterizes a mid-size table set suitable for the experiments:
/// widths {1, 2, 5, 10, 20} µm, lengths 100 µm – 6.4 mm, coplanar and
/// microstrip loop tables.
///
/// # Panics
///
/// Panics if characterization fails (experiment binaries are allowed to
/// abort loudly).
pub fn experiment_tables() -> InductanceTables {
    experiment_builder()
        .build()
        .expect("table characterization")
}

/// A faster, smaller table set for benches that only need plausible values.
///
/// # Panics
///
/// Panics if characterization fails.
pub fn quick_tables() -> InductanceTables {
    TableBuilder::new(stackup(), CLOCK_LAYER)
        .expect("clock layer exists")
        .widths(vec![2.0, 5.0, 10.0])
        .spacings(vec![0.5, 1.0, 2.0])
        .lengths(vec![200.0, 800.0, 3200.0, 6400.0])
        .mesh(MeshSpec::new(2, 1))
        .frequency(F_SIG)
        .build()
        .expect("table characterization")
}

/// The builder behind [`experiment_tables`], for callers that want the
/// cached or timed build paths.
pub fn experiment_builder() -> TableBuilder {
    TableBuilder::new(stackup(), CLOCK_LAYER)
        .expect("clock layer exists")
        .widths(vec![1.0, 2.0, 5.0, 10.0, 20.0])
        .spacings(vec![0.5, 1.0, 2.0, 5.0])
        .lengths(vec![100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0])
        .shields(vec![ShieldConfig::Coplanar, ShieldConfig::PlaneBelow])
        .mesh(MeshSpec::new(3, 2))
        .frequency(F_SIG)
}

/// The on-disk cache directory the experiments share (under `target/` so a
/// `cargo clean` clears it).
pub fn cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/rlcx-table-cache")
}

/// [`experiment_tables`] through the persistent cache: the first call per
/// machine characterizes and stores, later calls load.
///
/// # Panics
///
/// Panics if characterization fails.
pub fn experiment_tables_cached() -> CachedBuild {
    experiment_builder()
        .build_cached(cache_dir())
        .expect("table characterization")
}

/// Where run reports land: `RLCX_REPORT_DIR` if set, `target/reports`
/// otherwise.
pub fn reports_dir() -> PathBuf {
    match std::env::var("RLCX_REPORT_DIR") {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/reports"),
    }
}

/// Starts the run report for an experiment binary: a fresh [`RunReport`]
/// named after the binary, stamped with threads and trace level.
pub fn report(name: &str) -> RunReport {
    RunReport::new(name)
}

/// Ends an experiment run: snapshots the metrics and spans into `report`,
/// prints the span tree and cache counters to stderr when `RLCX_TRACE` is
/// `summary` or higher, and writes `<reports_dir>/<name>.json`.
///
/// # Panics
///
/// Panics if the report file cannot be written (experiment binaries are
/// allowed to abort loudly).
pub fn finish_report(mut report: RunReport) -> PathBuf {
    report.finish();
    if obs::trace_level() >= TraceLevel::Summary {
        eprintln!("[rlcx-trace] span tree for {}:", report.name);
        for line in obs::span_tree(&report.spans).lines() {
            eprintln!("[rlcx-trace] {line}");
        }
        eprintln!(
            "[rlcx-trace] cache.hit = {}, cache.miss = {}",
            obs::counter_value("cache.hit"),
            obs::counter_value("cache.miss"),
        );
        for s in &report.series {
            eprintln!(
                "[rlcx-trace] series {:<20} {} pts (of {} pushed, cap {})",
                s.name,
                s.points.len(),
                s.pushed,
                s.capacity,
            );
        }
    }
    let path = report
        .write_to(reports_dir())
        .expect("write run report JSON");
    println!("report: {}", path.display());
    if let Some(trace) = obs::trace_out_path() {
        println!("chrome trace: {}", trace.display());
    }
    path
}

/// Wraps tables into the clocktree extractor for the experiment layer.
///
/// # Panics
///
/// Panics if the layer is missing (cannot happen for the builtin stackup).
pub fn extractor(tables: InductanceTables) -> ClocktreeExtractor {
    ClocktreeExtractor::new(stackup(), CLOCK_LAYER, tables).expect("extractor")
}

/// Formats seconds as picoseconds with two decimals.
pub fn ps(t: f64) -> String {
    format!("{:.2} ps", t * 1e12)
}

/// Formats henries as nanohenries with three decimals.
pub fn nh(l: f64) -> String {
    format!("{:.3} nH", l * 1e9)
}

/// Formats farads as picofarads with three decimals.
pub fn pf(c: f64) -> String {
    format!("{:.3} pF", c * 1e12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ps(47.6e-12), "47.60 ps");
        assert_eq!(nh(2.5e-9), "2.500 nH");
        assert_eq!(pf(1.234e-12), "1.234 pF");
    }

    #[test]
    fn quick_tables_build() {
        let t = quick_tables();
        assert!(t.self_l.lookup(5.0, 800.0) > 0.0);
    }
}
