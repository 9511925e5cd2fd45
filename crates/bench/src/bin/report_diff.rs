//! CI gate: check a fresh [`RunReport`] against one experiment's spec.
//!
//! * `report_diff <report.json> <spec.json> <tolerances.json>` gates the
//!   report (exit 0 = every bound holds and no gated key regressed).
//! * `report_diff --record <report.json> <spec.json>` rewrites the spec's
//!   `baseline` from the report and keeps its `bounds`.
//!
//! A report is flattened to a sorted `key → value` map: `figures.<name>`,
//! `metrics.<name>` (counters and gauges), `metrics.<name>.count` /
//! `.mean` / `.min` / `.max` / `.p50` / `.p90` / `.p99` (histograms) and
//! `series.<name>.pushed`. A spec (`ci/baselines/<exp>.json`) keys both of
//! its sections in that namespace:
//!
//! ```json
//! {
//!   "bounds": {
//!     "figures.self_l.max_rel_err": {"max": 0.01},
//!     "figures.fastop.build.par_speedup": {"min": 2.0, "min_cores": 4}
//!   },
//!   "baseline": {"figures.self_l.max_rel_err": 0.0021}
//! }
//! ```
//!
//! Every bounded key must be in the report, not NaN, and within its
//! `min`/`max`. A bound with `min_cores` prints `SKIP` instead when the
//! report's `env.cores` is below it (parallel speedups cannot reach their
//! minimum on fewer cores); a report without `cores` meets every bound.
//!
//! `baseline` is the flattened recorded report. The tolerance file says
//! which of its keys *gate* versus merely report, matched
//! longest-pattern-first (`*` suffix = prefix match):
//!
//! ```json
//! {
//!   "default": {"gate": false, "rel": 0.5},
//!   "keys": {"metrics.gmres.iters.p99": {"gate": true, "rel": 0.25, "dir": "up"}}
//! }
//! ```
//!
//! `rel` is the allowed relative change `|cur − base| / max(|base|, floor)`;
//! `dir` restricts gating to regressions in one direction (`"up"` = only
//! increases fail, `"down"` = only decreases, default both); an optional
//! `abs` passes any change with `|cur − base| ≤ abs` regardless of `rel`.
//! A gated key present in the baseline but missing from the current report
//! is itself a failure — deleted instrumentation cannot silently pass.

use rlcx::obs::{Json, MetricValue, RunReport};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// Relative changes are measured against `max(|baseline|, FLOOR)` so keys
/// whose baseline is ~0 don't gate on meaninglessly huge ratios.
const FLOOR: f64 = 1e-12;

/// A flattened report: sorted `key → value` (scheme in module docs).
type Flat = BTreeMap<String, f64>;

#[derive(Debug, Clone, Copy)]
enum Dir {
    Up,
    Down,
    Both,
}

#[derive(Debug, Clone, Copy)]
struct Tolerance {
    gate: bool,
    rel: f64,
    abs: Option<f64>,
    dir: Dir,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            gate: false,
            rel: 0.5,
            abs: None,
            dir: Dir::Both,
        }
    }
}

struct Tolerances {
    default: Tolerance,
    /// `(pattern, tolerance)`; a trailing `*` makes the pattern a prefix.
    keys: Vec<(String, Tolerance)>,
}

impl Tolerances {
    fn parse(text: &str) -> Result<Tolerances, String> {
        let doc = Json::parse(text)?;
        let parse_one = |v: &Json, base: Tolerance| -> Result<Tolerance, String> {
            let mut t = base;
            if let Some(g) = v.get("gate") {
                t.gate = matches!(g, Json::Bool(true));
            }
            if let Some(r) = v.get("rel").and_then(Json::as_f64) {
                t.rel = r;
            }
            if let Some(a) = v.get("abs").and_then(Json::as_f64) {
                t.abs = Some(a);
            }
            if let Some(d) = v.get("dir").and_then(Json::as_str) {
                t.dir = match d {
                    "up" => Dir::Up,
                    "down" => Dir::Down,
                    "both" => Dir::Both,
                    other => return Err(format!("bad dir {other:?} (up|down|both)")),
                };
            }
            Ok(t)
        };
        let default = match doc.get("default") {
            Some(v) => parse_one(v, Tolerance::default())?,
            None => Tolerance::default(),
        };
        let mut keys = Vec::new();
        if let Some(members) = doc.get("keys").and_then(Json::as_object) {
            for (pattern, v) in members {
                keys.push((pattern.clone(), parse_one(v, default)?));
            }
        }
        Ok(Tolerances { default, keys })
    }

    /// The most specific (longest) matching pattern wins.
    fn lookup(&self, key: &str) -> Tolerance {
        self.keys
            .iter()
            .filter(|(pattern, _)| match pattern.strip_suffix('*') {
                Some(prefix) => key.starts_with(prefix),
                None => key == pattern,
            })
            .max_by_key(|(pattern, _)| pattern.len())
            .map(|(_, t)| *t)
            .unwrap_or(self.default)
    }
}

/// Absolute limits on one flattened key.
#[derive(Debug, Clone, Copy, Default)]
struct Bound {
    min: Option<f64>,
    max: Option<f64>,
    /// Skip the bound when the report ran on fewer cores than this.
    min_cores: Option<u64>,
}

/// One experiment's gate: absolute bounds plus the flattened baseline.
struct Spec {
    bounds: Vec<(String, Bound)>,
    baseline: Flat,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let section = |name: &str| {
            doc.get(name)
                .and_then(Json::as_object)
                .ok_or_else(|| format!("missing {name:?} object"))
        };
        let mut bounds = Vec::new();
        for (key, limits) in section("bounds")? {
            let mut b = Bound::default();
            for (field, v) in limits.as_object().unwrap_or_default() {
                let bad = || format!("bound {key}: bad {field}");
                let num = v.as_f64().filter(|x| x.is_finite()).ok_or_else(bad)?;
                match field.as_str() {
                    "min" => b.min = Some(num),
                    "max" => b.max = Some(num),
                    "min_cores" => b.min_cores = Some(v.as_u64().ok_or_else(bad)?),
                    _ => return Err(format!("bound {key}: unknown field {field:?}")),
                }
            }
            if b.min.is_none() && b.max.is_none() {
                return Err(format!("bound {key} needs a min or max"));
            }
            bounds.push((key.clone(), b));
        }
        let mut baseline = Flat::new();
        for (key, v) in section("baseline")? {
            let value = v
                .as_f64()
                .ok_or_else(|| format!("baseline {key}: not a number"))?;
            baseline.insert(key.clone(), value);
        }
        Ok(Spec { bounds, baseline })
    }

    fn to_json(&self) -> String {
        let bounds = self.bounds.iter().map(|(key, b)| {
            let cores = b.min_cores.map(|c| c as f64);
            let fields = [("min", b.min), ("max", b.max), ("min_cores", cores)];
            let fields = fields
                .into_iter()
                .filter_map(|(f, v)| Some((f.into(), Json::Num(v?))));
            (key.clone(), Json::Obj(fields.collect()))
        });
        let baseline = self
            .baseline
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)));
        let doc = Json::Obj(vec![
            ("bounds".into(), Json::Obj(bounds.collect())),
            ("baseline".into(), Json::Obj(baseline.collect())),
        ]);
        doc.to_json_pretty()
    }
}

/// Flattens a report (scheme in module docs).
fn flatten(report: &RunReport) -> Flat {
    let mut out = Vec::new();
    for (name, v) in &report.figures {
        out.push((format!("figures.{name}"), *v));
    }
    for (name, m) in &report.metrics {
        match *m {
            MetricValue::Counter(n) => out.push((format!("metrics.{name}"), n as f64)),
            MetricValue::Gauge(g) => out.push((format!("metrics.{name}"), g)),
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
            } => {
                out.push((format!("metrics.{name}.count"), count as f64));
                if count > 0 {
                    out.push((format!("metrics.{name}.mean"), sum / count as f64));
                }
                out.push((format!("metrics.{name}.min"), min));
                out.push((format!("metrics.{name}.max"), max));
                out.push((format!("metrics.{name}.p50"), p50));
                out.push((format!("metrics.{name}.p90"), p90));
                out.push((format!("metrics.{name}.p99"), p99));
            }
        }
    }
    for s in &report.series {
        out.push((format!("series.{}.pushed", s.name), s.pushed as f64));
    }
    out.into_iter().collect()
}

/// Checks `bounds` against the flattened report `cur`, run on `cores`
/// cores (if known); returns the failures.
fn check_bounds(cur: &Flat, cores: Option<u64>, bounds: &[(String, Bound)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, b) in bounds {
        if let (Some(need), Some(have)) = (b.min_cores, cores) {
            if have < need {
                println!("SKIP {key} (cores={have} < {need})");
                continue;
            }
        }
        let Some(&v) = cur.get(key) else {
            failures.push(format!("{key} missing from the report"));
            continue;
        };
        if v.is_nan() {
            failures.push(format!("{key} is NaN"));
        } else if let Some(max) = b.max.filter(|&max| v > max) {
            failures.push(format!("{key} = {v} exceeds max {max}"));
        } else if let Some(min) = b.min.filter(|&min| v < min) {
            failures.push(format!("{key} = {v} below min {min}"));
        } else {
            println!("checked {key} = {v}");
        }
    }
    failures
}

struct Row {
    key: String,
    baseline: Option<f64>,
    current: Option<f64>,
    rel: Option<f64>,
    tol: Tolerance,
    failed: bool,
}

/// Compares `cur` with `base` over the union of their keys.
fn diff(cur: &Flat, base: &Flat, tol: &Tolerances) -> Vec<Row> {
    let keys: BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    let mut rows = Vec::new();
    for key in keys {
        let b = base.get(key).copied();
        let c = cur.get(key).copied();
        let t = tol.lookup(key);
        let (rel, failed) = match (b, c) {
            (Some(b), Some(c)) => {
                let delta = c - b;
                let rel = delta / b.abs().max(FLOOR);
                let within_abs = t.abs.is_some_and(|a| delta.abs() <= a);
                let direction_hit = match t.dir {
                    Dir::Up => delta > 0.0,
                    Dir::Down => delta < 0.0,
                    Dir::Both => true,
                };
                let exceeded = rel.abs() > t.rel || !rel.is_finite();
                (
                    Some(rel),
                    t.gate && direction_hit && exceeded && !within_abs,
                )
            }
            // A gated key vanishing from the fresh report is a regression;
            // a brand-new key never fails (baselines lag new telemetry).
            (Some(_), None) => (None, t.gate),
            (None, _) => (None, false),
        };
        rows.push(Row {
            key: key.clone(),
            baseline: b,
            current: c,
            rel,
            tol: t,
            failed,
        });
    }
    rows
}

fn fmt_val(v: Option<f64>) -> String {
    v.map_or_else(|| "—".into(), |v| format!("{v:.6e}"))
}

fn fmt_rel(rel: Option<f64>) -> String {
    rel.map_or_else(|| "—".into(), |x| format!("{:+.1}", x * 100.0))
}

fn print_table(rows: &[Row]) {
    let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(3).max(3);
    println!(
        "{:<width$}  {:>13}  {:>13}  {:>8}  {:>7}  status",
        "key", "baseline", "current", "Δ%", "tol%"
    );
    for r in rows {
        let status = match (r.failed, r.tol.gate) {
            (true, _) => "FAIL",
            (false, true) => "ok(gated)",
            (false, false) => "ok",
        };
        println!(
            "{:<width$}  {:>13}  {:>13}  {:>8}  {:>7.0}  {status}",
            r.key,
            fmt_val(r.baseline),
            fmt_val(r.current),
            fmt_rel(r.rel),
            r.tol.rel * 100.0,
        );
    }
}

/// Parses `text`, read from `path`; an error names the file.
fn parse_file<T>(
    path: &str,
    text: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    parse(text).map_err(|e| format!("bad {path}: {e}"))
}

fn load<T>(path: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_file(path, &text, parse)
}

/// Gates `report` against `spec`; returns the failures.
fn gate(report: &RunReport, spec: &Spec, tol: &Tolerances) -> Vec<String> {
    let cur = flatten(report);
    let cores = report.env.iter().find(|(k, _)| k == "cores");
    let cores = cores.and_then(|(_, v)| v.parse().ok());
    let mut failures = check_bounds(&cur, cores, &spec.bounds);
    let rows = diff(&cur, &spec.baseline, tol);
    print_table(&rows);
    failures.extend(rows.iter().filter(|r| r.failed).map(|r| {
        let (base, cur, rel) = (fmt_val(r.baseline), fmt_val(r.current), fmt_rel(r.rel));
        let tol = r.tol.rel * 100.0;
        format!(
            "{}: baseline {base} → current {cur} (Δ {rel}%, tol ±{tol:.0}%)",
            r.key
        )
    }));
    failures
}

fn run(report: &str, spec: &str, tolerances: &str) -> Result<(), String> {
    let report = load(report, RunReport::from_json)?;
    let spec = load(spec, Spec::parse)?;
    let failures = gate(&report, &spec, &load(tolerances, Tolerances::parse)?);
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} gate failure(s) in {}",
            failures.len(),
            report.name
        ));
    }
    println!("all bounds hold, no gated regressions");
    Ok(())
}

/// Rewrites the baseline of the spec at `spec_path` from `report_path`.
fn record(report_path: &str, spec_path: &str) -> Result<usize, String> {
    let report = load(report_path, RunReport::from_json)?;
    let mut spec = load(spec_path, Spec::parse)?;
    spec.baseline = flatten(&report);
    std::fs::write(spec_path, spec.to_json())
        .map_err(|e| format!("cannot write {spec_path}: {e}"))?;
    Ok(spec.baseline.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args.as_slice() {
        ["--record", report, spec] => {
            record(report, spec).map(|n| println!("recorded {n} baseline keys into {spec}"))
        }
        [report, spec, tolerances] => run(report, spec, tolerances),
        _ => Err(
            "usage: report_diff <report.json> <spec.json> <tolerances.json>\n       \
                  report_diff --record <report.json> <spec.json>"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx::numeric::rng::{SplitMix64, UniformRng};

    fn report(figures: &[(&str, f64)], hist_p99: Option<f64>) -> RunReport {
        let mut r = RunReport {
            name: "t".into(),
            ..RunReport::default()
        };
        for (k, v) in figures {
            r.figure(*k, *v);
        }
        if let Some(p99) = hist_p99 {
            r.metrics.push((
                "gmres.iters".into(),
                MetricValue::Histogram {
                    count: 10,
                    sum: 100.0,
                    min: 1.0,
                    max: p99,
                    p50: p99 / 2.0,
                    p90: p99,
                    p99,
                },
            ));
        }
        r
    }

    fn tols(text: &str) -> Tolerances {
        Tolerances::parse(text).unwrap()
    }

    fn diff_reports(cur: &RunReport, base: &RunReport, tol: &Tolerances) -> Vec<Row> {
        diff(&flatten(cur), &flatten(base), tol)
    }

    fn spec(bounds: &str) -> Result<Spec, String> {
        Spec::parse(&format!(r#"{{"bounds": {bounds}, "baseline": {{}}}}"#))
    }

    fn tmp_path(tag: &str) -> String {
        let name = format!("rlcx_gate_{tag}_{}.json", std::process::id());
        std::env::temp_dir().join(name).to_str().unwrap().into()
    }

    #[test]
    fn flatten_covers_every_section() {
        let mut r = report(&[("err", 0.5)], Some(20.0));
        r.series.push(rlcx::obs::SeriesSnapshot {
            name: "gmres.residual".into(),
            capacity: 4096,
            pushed: 7,
            points: vec![(0.0, 1.0)],
        });
        let flat = flatten(&r);
        assert_eq!(flat.get("figures.err"), Some(&0.5));
        assert_eq!(flat.get("metrics.gmres.iters.p99"), Some(&20.0));
        assert_eq!(flat.get("metrics.gmres.iters.mean"), Some(&10.0));
        assert_eq!(flat.get("series.gmres.residual.pushed"), Some(&7.0));
    }

    #[test]
    fn gated_regression_fails_within_tolerance_passes() {
        let base = report(&[], Some(20.0));
        let tol = tols(
            r#"{"default":{"gate":false},
                "keys":{"metrics.gmres.iters.p99":{"gate":true,"rel":0.25,"dir":"up"}}}"#,
        );
        let ok = diff_reports(&report(&[], Some(22.0)), &base, &tol);
        assert!(ok.iter().all(|r| !r.failed), "+10% within 25%");
        let bad = diff_reports(&report(&[], Some(30.0)), &base, &tol);
        let row = bad
            .iter()
            .find(|r| r.key == "metrics.gmres.iters.p99")
            .unwrap();
        assert!(row.failed, "+50% beyond 25% must gate");
        // dir=up: a large *improvement* does not fail.
        let better = diff_reports(&report(&[], Some(5.0)), &base, &tol);
        assert!(better.iter().all(|r| !r.failed));
    }

    #[test]
    fn missing_gated_key_fails_and_new_keys_pass() {
        let base = report(&[("err", 1.0)], None);
        let tol = tols(r#"{"keys":{"figures.err":{"gate":true,"rel":0.1}}}"#);
        let gone = diff_reports(&report(&[], None), &base, &tol);
        assert!(gone.iter().any(|r| r.key == "figures.err" && r.failed));
        // Key only in current: reported, never failed.
        let grown = diff_reports(&report(&[("err", 1.0), ("extra", 9.0)], None), &base, &tol);
        assert!(grown.iter().all(|r| !r.failed));
        assert!(grown.iter().any(|r| r.key == "figures.extra"));
    }

    #[test]
    fn longest_pattern_wins_and_abs_overrides() {
        let tol = tols(
            r#"{"keys":{
                "figures.*":       {"gate":true,"rel":0.5},
                "figures.noise.*": {"gate":false},
                "figures.tiny":    {"gate":true,"rel":0.1,"abs":1e-6}}}"#,
        );
        assert!(tol.lookup("figures.err").gate);
        assert!(!tol.lookup("figures.noise.a").gate);
        assert!(!tol.lookup("metrics.x").gate, "default is report-only");
        // abs: |Δ| = 5e-7 ≤ 1e-6 passes although rel change is huge.
        let base = report(&[("tiny", 1e-9)], None);
        let rows = diff_reports(&report(&[("tiny", 5e-7)], None), &base, &tol);
        assert!(rows.iter().all(|r| !r.failed));
    }

    #[test]
    fn zero_baseline_uses_floor_not_infinity() {
        let tol = tols(r#"{"keys":{"figures.z":{"gate":true,"rel":0.5}}}"#);
        let rows = diff_reports(
            &report(&[("z", 0.0)], None),
            &report(&[("z", 0.0)], None),
            &tol,
        );
        let row = rows.iter().find(|r| r.key == "figures.z").unwrap();
        assert!(!row.failed);
        assert_eq!(row.rel, Some(0.0));
    }

    #[test]
    fn passes_and_fails_on_bounds() {
        let cur = flatten(&report(&[("err", 0.02), ("speedup", 500.0)], None));
        let ok = spec(r#"{"figures.err": {"max": 0.05}, "figures.speedup": {"min": 100.0}}"#);
        assert!(check_bounds(&cur, None, &ok.unwrap().bounds).is_empty());
        let bad = spec(
            r#"{"figures.err": {"max": 0.01}, "figures.speedup": {"min": 1000.0},
                "figures.missing": {"min": 0.0}}"#,
        );
        let failures = check_bounds(&cur, None, &bad.unwrap().bounds);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains("exceeds max"));
        assert!(failures[1].contains("below min"));
        assert!(failures[2].contains("missing"));
        let nan = flatten(&report(&[("err", f64::NAN)], None));
        let any = spec(r#"{"figures.err": {"min": -1.0, "max": 1.0}}"#).unwrap();
        assert_eq!(check_bounds(&nan, None, &any.bounds).len(), 1, "NaN fails");
    }

    #[test]
    fn min_cores_skips_only_below_the_count() {
        let cur = flatten(&report(&[("par_speedup", 1.04)], None));
        let gated = spec(r#"{"figures.par_speedup": {"min": 2.0, "min_cores": 4}}"#).unwrap();
        assert!(
            check_bounds(&cur, Some(2), &gated.bounds).is_empty(),
            "skipped"
        );
        assert_eq!(check_bounds(&cur, Some(4), &gated.bounds).len(), 1);
        assert_eq!(check_bounds(&cur, Some(8), &gated.bounds).len(), 1);
        assert_eq!(check_bounds(&cur, None, &gated.bounds).len(), 1);
        // The gate reads the core count from the report's `env`.
        let tol = tols("{}");
        let mut r = report(&[("par_speedup", 1.04)], None);
        r.note("cores", "2");
        assert!(gate(&r, &gated, &tol).is_empty());
        r.env[0].1 = "4".into();
        assert_eq!(gate(&r, &gated, &tol).len(), 1);
    }

    #[test]
    fn spec_rejects_malformed_bounds() {
        assert!(spec(r#"{"figures.a": {"max": 1.0, "min_cores": 4}}"#).is_ok());
        assert!(
            spec(r#"{"figures.a": {"mx": 1.0}}"#).is_err(),
            "unknown field"
        );
        assert!(
            spec(r#"{"figures.a": {"min_cores": 4}}"#).is_err(),
            "no limit"
        );
        assert!(spec(r#"{"figures.a": {"max": "NaN"}}"#).is_err());
        assert!(spec(r#"{"figures.a": {"max": 1.0, "min_cores": 2.5}}"#).is_err());
        assert!(spec(r#"{"figures.a": 1.0}"#).is_err());
        assert!(Spec::parse(r#"{"bounds": {}}"#).is_err(), "no baseline");
    }

    #[test]
    fn record_round_trip_keeps_bounds_and_passes() {
        let r = report(&[("err", 0.02), ("speedup", 1.0 / 3.0)], Some(20.0));
        let bounds =
            r#"{"figures.err": {"max": 0.05}, "figures.speedup": {"min": 0.1, "min_cores": 4}}"#;
        let before = spec(bounds).unwrap().to_json();
        let [report_path, spec_path, tol_path] = ["report", "spec", "tol"].map(tmp_path);
        std::fs::write(&report_path, r.to_json()).unwrap();
        std::fs::write(&spec_path, &before).unwrap();
        std::fs::write(&tol_path, r#"{"default": {"gate": true, "rel": 0.0}}"#).unwrap();
        assert_eq!(record(&report_path, &spec_path), Ok(flatten(&r).len()));
        let after = std::fs::read_to_string(&spec_path).unwrap();
        let bounds_text = |s: &str| s[..s.find("\"baseline\"").unwrap()].to_string();
        assert_eq!(bounds_text(&after), bounds_text(&before));
        assert_eq!(Spec::parse(&after).unwrap().baseline, flatten(&r));
        assert_eq!(run(&report_path, &spec_path, &tol_path), Ok(()));
        for p in [report_path, spec_path, tol_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unreadable_inputs_are_errors() {
        let missing = "/nonexistent.json";
        assert!(run(missing, missing, missing).is_err());
        assert!(record(missing, missing).is_err());
    }

    /// Every prefix truncation and 500 seeded single-byte mutations of a
    /// report, a spec and the committed tolerances go through the parsers:
    /// each returns `Ok` or an `Err` naming the file, never a panic.
    #[test]
    fn parsers_survive_truncation_and_mutation() {
        fn hammer<T>(path: &str, text: &str, parse: fn(&str) -> Result<T, String>) {
            let mut rng = SplitMix64::new(text.len() as u64);
            let bytes = text.as_bytes();
            let prefixes = (0..bytes.len()).map(|n| bytes[..n].to_vec());
            let mutations = (0..500).map(|_| {
                let mut b = bytes.to_vec();
                let i = rng.next_u64() as usize % b.len();
                b[i] = rng.next_u64() as u8;
                b
            });
            for input in prefixes.chain(mutations) {
                let text = String::from_utf8_lossy(&input);
                let _ = Json::parse(&text);
                if let Err(e) = parse_file(path, &text, parse) {
                    assert!(e.contains(path), "{e}");
                }
            }
        }
        let mut r = report(&[("err", 0.02), ("nan", f64::NAN)], Some(20.0));
        r.note("cores", "2");
        r.metrics
            .push(("cache.hit".into(), MetricValue::Counter(3)));
        r.spans.push(rlcx::obs::SpanSummary {
            path: "table.build".into(),
            depth: 0,
            count: 1,
            total_s: 0.5,
        });
        r.series.push(rlcx::obs::SeriesSnapshot {
            name: "gmres.residual".into(),
            capacity: 4096,
            pushed: 2,
            points: vec![(0.0, 1.0), (1.0, 0.1)],
        });
        let spec_text = include_str!("../../../../ci/baselines/exp_mna_scaling.json");
        let tolerances = include_str!("../../../../ci/baselines/tolerances.json");
        hammer("report.json", &r.to_json(), RunReport::from_json);
        hammer("spec.json", spec_text, Spec::parse);
        hammer("tolerances.json", tolerances, Tolerances::parse);
    }
}
