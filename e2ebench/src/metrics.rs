//! The metric catalogue, per-round samples and the result line.
//!
//! [`METRICS`] is the single list of what the benchmark reports. At start-up
//! it is compared with the `BENCHMARK.json` the binary was built next to,
//! so a renamed metric, a changed unit or a flipped direction stops the run
//! before anything is measured.

use rlcx::obs::Json;
use std::collections::BTreeMap;

/// Whether a metric is printed by untraced or by traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the flow; printed with `--trace 0`.
    EndToEnd,
    /// One layer's share; printed with `--trace 1`.
    PerLayer,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
    }
}

/// Every metric, in print order. The README maps each per-layer metric to
/// the end-to-end metric it should move.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s"),
    e2e("peak_rss_mib", "MiB"),
    e2e("characterize_s", "s"),
    e2e("skew_transient_s", "s"),
    e2e("skew_reduced_s", "s"),
    e2e("sweep_s", "s"),
    // Table characterization (characterize_s).
    layer("core.table.self_s", "s", "lower"),
    layer("core.table.mutual_s", "s", "lower"),
    layer("core.table.loop_s", "s", "lower"),
    layer("peec.solve_cpu_s", "s", "lower"),
    layer("core.table.points", "count", "lower"),
    layer("peec.solves", "count", "lower"),
    layer("peec.filaments", "count", "lower"),
    layer("core.cache.store_s", "s", "lower"),
    layer("core.cache.load_s", "s", "lower"),
    // Set-up (setup_s).
    layer("core.table.build_s", "s", "lower"),
    // H-tree skew, both paths (skew_transient_s, skew_reduced_s).
    layer("cap.sample_s", "s", "lower"),
    layer("core.netlist_s", "s", "lower"),
    layer("core.segments", "count", "lower"),
    layer("clocktree.stages", "count", "lower"),
    // Transient path only (skew_transient_s).
    layer("spice.transient_s", "s", "lower"),
    layer("spice.steps", "count", "lower"),
    layer("spice.measure_s", "s", "lower"),
    layer("spice.mna.dim", "count", "lower"),
    // PRIMA path only (skew_reduced_s).
    layer("spice.reduce_s", "s", "lower"),
    layer("spice.reduce.query_s", "s", "lower"),
    layer("spice.mor.order", "count", "lower"),
    // Field-solver sweep (sweep_s, peak_rss_mib).
    layer("peec.mesh_s", "s", "lower"),
    layer("peec.operator_build_s", "s", "lower"),
    layer("peec.precond_s", "s", "lower"),
    layer("peec.gmres_s", "s", "lower"),
    layer("peec.gmres.iters", "count", "lower"),
    layer("peec.kernel.misses", "count", "lower"),
    layer("peec.kernel.hit_rate", "ratio", "higher"),
    layer("peec.dense_fallbacks", "count", "lower"),
    layer("peec.far_mem_mib", "MiB", "lower"),
    // Traced wall time over untraced wall time of the same round.
    layer("trace.overhead", "ratio", "lower"),
];

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["characterize", "htree-skew", "field-sweep"];

fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Checks that `benchmark_json` declares exactly [`WORKLOADS`] and
/// [`METRICS`], with the same units and directions, in both lists.
pub fn check_declaration(benchmark_json: &str) -> Result<(), String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<&str>, String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("a `{key}` entry has no name"))
            })
            .collect()
    };
    if names("workloads")? != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads differ from {WORKLOADS:?}"
        ));
    }
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let declared = doc.get(key).and_then(Json::as_array).unwrap_or_default();
        let ours: Vec<&Metric> = METRICS.iter().filter(|m| m.kind == kind).collect();
        if declared.len() != ours.len() {
            return Err(format!(
                "BENCHMARK.json `{key}` has {} metrics, the benchmark reports {}",
                declared.len(),
                ours.len()
            ));
        }
        for (d, m) in declared.iter().zip(ours) {
            let field = |f: &str| d.get(f).and_then(Json::as_str).unwrap_or("");
            if (field("name"), field("unit"), field("better")) != (m.name, m.unit, m.better) {
                return Err(format!(
                    "BENCHMARK.json `{key}` entry {}/{}/{} differs from {}/{}/{}",
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.name,
                    m.unit,
                    m.better
                ));
            }
        }
    }
    Ok(())
}

/// Per-round samples of every metric a run records.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`METRICS`]: that is a fault of the
    /// benchmark itself.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(metric(name).is_some(), "undeclared metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    /// The latest sample of `name`.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.0.get(name)?.last().copied()
    }

    /// The median of the samples of `name`.
    pub fn median(&self, name: &str) -> Option<f64> {
        let mut v = self.0.get(name)?.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
        }
    }
}

/// Operation accounting: an operation is a table build, one draw on one
/// analysis path, or one frequency point.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// False once any operation's output failed a check.
    pub correct: bool,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            correct: true,
            ..Default::default()
        }
    }

    /// Records one operation: `Err` means the program returned an error,
    /// a non-empty failure list means its output failed a check.
    pub fn record(&mut self, what: &str, outcome: Result<Vec<String>, String>) {
        self.attempted += 1;
        match outcome {
            Ok(failures) if failures.is_empty() => {}
            Ok(failures) => {
                self.failed += 1;
                self.correct = false;
                for f in failures {
                    eprintln!("check failed: {what}: {f}");
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
            }
        }
    }
}

/// The result line: every metric of `kind` as the median of its samples.
///
/// # Errors
///
/// Names a metric of `kind` with no sample or a non-finite median.
pub fn result_line(ledger: &Ledger, samples: &Samples, kind: Kind) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in METRICS.iter().filter(|m| m.kind == kind) {
        let value = samples
            .median(m.name)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {} was not measured", m.name))?;
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct,
        ledger.attempted,
        ledger.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        check_declaration(DECLARED).unwrap();
    }

    #[test]
    fn a_changed_unit_is_caught() {
        let edited = DECLARED.replacen("\"unit\": \"MiB\"", "\"unit\": \"KiB\"", 1);
        assert!(check_declaration(&edited).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[i + 1..].iter().all(|o| o.name != m.name),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn result_line_prints_every_metric_of_its_kind() {
        let mut s = Samples::default();
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            s.push(m.name, 2.0);
            s.push(m.name, 1.0);
        }
        let line = result_line(&Ledger::new(), &s, Kind::EndToEnd).unwrap();
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::EndToEnd)
            .map(|m| m.name)
            .collect();
        assert_eq!(printed, declared);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        // A traced metric with no sample is refused, not printed as zero.
        assert!(result_line(&Ledger::new(), &s, Kind::PerLayer).is_err());
    }
}
