//! Machine-readable run reports.
//!
//! A [`RunReport`] is the one artifact a bench or experiment binary leaves
//! behind: accuracy figures (the paper-validation deltas), the metric
//! registry snapshot and the aggregated span tree (the report's only
//! stage timings), serialized as stable JSON under
//! `target/reports/<name>.json` so successive PRs can diff them.
//!
//! # Schema (`rlcx-report` version 2)
//!
//! ```json
//! {
//!   "schema": "rlcx-report",
//!   "version": 2,
//!   "name": "exp_table_accuracy",
//!   "created_unix": 1754500000,
//!   "env": {"threads": "8", "cores": "4", "trace": "summary"},
//!   "figures": {"self_l.max_rel_err": 0.0021},
//!   "metrics": {"cache.hit": {"type": "counter", "value": 1}},
//!   "spans": [{"path": "table.build", "depth": 0, "count": 1, "total_s": 0.5}],
//!   "series": [{"name": "gmres.residual", "capacity": 4096, "pushed": 37,
//!               "points": [[0.0, 1.0], [1.0, 0.1]]}]
//! }
//! ```
//!
//! Version 2 (PR 7) added the `series` array — the flight-recorder
//! channels of [`series_push`](super::series::series_push) — and extended
//! histogram metrics with `p50`/`p90`/`p99` quantile estimates from the
//! sharded log-bucketed store. [`RunReport::from_json`] still accepts
//! version-1 documents (they simply have no series and no quantiles), and
//! ignores the `timings` and `samples` members that older version-2
//! reports carry (the spans hold the same stages).

use super::json::Json;
use super::metrics::{self, MetricValue};
use super::series::{self, SeriesSnapshot};
use super::trace::{self, SpanRecord};
use std::path::{Path, PathBuf};

/// One aggregated span path inside a report.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// `/`-joined nesting path.
    pub path: String,
    /// Nesting depth of the path.
    pub depth: usize,
    /// How many spans completed under this path.
    pub count: u64,
    /// Total wall-clock seconds across those spans.
    pub total_s: f64,
}

/// A machine-readable record of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Report (and default file) name, e.g. `exp_table_accuracy`.
    pub name: String,
    /// Unix seconds the report was created, if the clock was readable.
    pub created_unix: Option<u64>,
    /// Free-form environment notes (`threads`, `cores`, `trace`, …).
    pub env: Vec<(String, String)>,
    /// Named accuracy/validation figures (max-error-vs-PEEC and friends).
    pub figures: Vec<(String, f64)>,
    /// Metric registry snapshot (filled by [`RunReport::finish`]).
    pub metrics: Vec<(String, MetricValue)>,
    /// Aggregated spans (filled by [`RunReport::finish`]).
    pub spans: Vec<SpanSummary>,
    /// Time-series channel snapshots (filled by [`RunReport::finish`]).
    pub series: Vec<SeriesSnapshot>,
}

impl RunReport {
    /// A fresh report stamped with the current time, thread count,
    /// available core count and trace level.
    pub fn new(name: impl Into<String>) -> Self {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .ok()
            .map(|d| d.as_secs());
        RunReport {
            name: name.into(),
            created_unix,
            env: vec![
                (
                    "threads".into(),
                    crate::parallel::thread_count().to_string(),
                ),
                (
                    "cores".into(),
                    std::thread::available_parallelism()
                        .map_or(1, |n| n.get())
                        .to_string(),
                ),
                ("trace".into(), trace::trace_level().as_str().into()),
            ],
            ..RunReport::default()
        }
    }

    /// Records a named figure (accuracy delta, speedup, …). Re-recording a
    /// name overwrites it.
    pub fn figure(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.figures.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.figures.push((name, value)),
        }
    }

    /// Adds a free-form environment note.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.env.push((key.into(), value.into()));
    }

    /// Captures the current metric registry, the series channels and the
    /// recorded spans (drained) into the report. Call once, at the end of
    /// the run. If `RLCX_TRACE_OUT` names a file, the raw spans are also
    /// exported as a Chrome `traceEvents` JSON before aggregation.
    pub fn finish(&mut self) {
        self.metrics = metrics::metrics_snapshot();
        self.series = series::series_snapshot();
        let raw = trace::take_spans();
        if let Some(path) = super::chrome::trace_out_path() {
            if let Err(e) = super::chrome::write_chrome_trace(&path, &raw, &self.metrics) {
                eprintln!("[rlcx-obs] chrome trace write to {path:?} failed: {e}");
            }
        }
        self.spans = aggregate_spans(&raw);
    }

    /// Serializes to pretty JSON (schema above).
    pub fn to_json(&self) -> String {
        let mut root = vec![
            ("schema".to_string(), Json::Str("rlcx-report".into())),
            ("version".to_string(), Json::Num(2.0)),
            ("name".to_string(), Json::Str(self.name.clone())),
        ];
        if let Some(t) = self.created_unix {
            root.push(("created_unix".into(), Json::Num(t as f64)));
        }
        root.push((
            "env".into(),
            Json::Obj(
                self.env
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
        root.push((
            "figures".into(),
            Json::Obj(
                self.figures
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        root.push((
            "metrics".into(),
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), metric_to_json(v)))
                    .collect(),
            ),
        ));
        root.push((
            "spans".into(),
            Json::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("path".into(), Json::Str(s.path.clone())),
                            ("depth".into(), Json::Num(s.depth as f64)),
                            ("count".into(), Json::Num(s.count as f64)),
                            ("total_s".into(), Json::Num(s.total_s)),
                        ])
                    })
                    .collect(),
            ),
        ));
        root.push((
            "series".into(),
            Json::Arr(
                self.series
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            ("capacity".into(), Json::Num(s.capacity as f64)),
                            ("pushed".into(), Json::Num(s.pushed as f64)),
                            (
                                "points".into(),
                                Json::Arr(
                                    s.points
                                        .iter()
                                        .map(|&(step, value)| {
                                            Json::Arr(vec![Json::Num(step), Json::Num(value)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Obj(root).to_json_pretty()
    }

    /// Parses a report written by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let root = Json::parse(text)?;
        if root.get("schema").and_then(Json::as_str) != Some("rlcx-report") {
            return Err("not an rlcx-report document".into());
        }
        let version = root.get("version").and_then(Json::as_u64);
        if !matches!(version, Some(1 | 2)) {
            return Err("unsupported rlcx-report version".into());
        }
        let name = root
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let env = root
            .get("env")
            .and_then(Json::as_object)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        let figures = root
            .get("figures")
            .and_then(Json::as_object)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        let metrics = root
            .get("metrics")
            .and_then(Json::as_object)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), metric_from_json(v)?)))
                    .collect()
            })
            .unwrap_or_default();
        let spans = root
            .get("spans")
            .and_then(Json::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|s| {
                        Some(SpanSummary {
                            path: s.get("path")?.as_str()?.to_string(),
                            depth: s.get("depth")?.as_u64()? as usize,
                            count: s.get("count")?.as_u64()?,
                            total_s: s.get("total_s")?.as_f64()?,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        let series = root
            .get("series")
            .and_then(Json::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|s| {
                        Some(SeriesSnapshot {
                            name: s.get("name")?.as_str()?.to_string(),
                            capacity: s.get("capacity")?.as_u64()?,
                            pushed: s.get("pushed")?.as_u64()?,
                            points: s
                                .get("points")?
                                .as_array()?
                                .iter()
                                .filter_map(|p| {
                                    let p = p.as_array()?;
                                    Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
                                })
                                .collect(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(RunReport {
            name,
            created_unix: root.get("created_unix").and_then(Json::as_u64),
            env,
            figures,
            metrics,
            spans,
            series,
        })
    }

    /// Writes the report as `<dir>/<name>.json`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn metric_to_json(v: &MetricValue) -> Json {
    match *v {
        MetricValue::Counter(n) => Json::Obj(vec![
            ("type".into(), Json::Str("counter".into())),
            ("value".into(), Json::Num(n as f64)),
        ]),
        MetricValue::Gauge(g) => Json::Obj(vec![
            ("type".into(), Json::Str("gauge".into())),
            ("value".into(), Json::Num(g)),
        ]),
        MetricValue::Histogram {
            count,
            sum,
            min,
            max,
            p50,
            p90,
            p99,
        } => Json::Obj(vec![
            ("type".into(), Json::Str("histogram".into())),
            ("count".into(), Json::Num(count as f64)),
            ("sum".into(), Json::Num(sum)),
            ("min".into(), Json::Num(min)),
            ("max".into(), Json::Num(max)),
            ("p50".into(), Json::Num(p50)),
            ("p90".into(), Json::Num(p90)),
            ("p99".into(), Json::Num(p99)),
        ]),
    }
}

fn metric_from_json(v: &Json) -> Option<MetricValue> {
    match v.get("type")?.as_str()? {
        "counter" => Some(MetricValue::Counter(v.get("value")?.as_u64()?)),
        "gauge" => Some(MetricValue::Gauge(v.get("value")?.as_f64()?)),
        "histogram" => {
            let min = v.get("min")?.as_f64()?;
            let max = v.get("max")?.as_f64()?;
            Some(MetricValue::Histogram {
                count: v.get("count")?.as_u64()?,
                sum: v.get("sum")?.as_f64()?,
                min,
                max,
                // Version-1 histograms carried no quantiles; fall back to
                // the range so old baselines stay loadable.
                p50: v.get("p50").and_then(Json::as_f64).unwrap_or(min),
                p90: v.get("p90").and_then(Json::as_f64).unwrap_or(max),
                p99: v.get("p99").and_then(Json::as_f64).unwrap_or(max),
            })
        }
        _ => None,
    }
}

/// Aggregates raw span records by path, preserving first-completion order.
pub(crate) fn aggregate_spans(spans: &[SpanRecord]) -> Vec<SpanSummary> {
    let mut out: Vec<SpanSummary> = Vec::new();
    for s in spans {
        match out.iter_mut().find(|a| a.path == s.path) {
            Some(a) => {
                a.count += 1;
                a.total_s += s.duration.as_secs_f64();
            }
            None => out.push(SpanSummary {
                path: s.path.clone(),
                depth: s.depth,
                count: 1,
                total_s: s.duration.as_secs_f64(),
            }),
        }
    }
    // Parents finish after children; path sort restores the tree order.
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            name: "unit_report".into(),
            created_unix: Some(1_754_500_000),
            env: vec![("threads".into(), "4".into())],
            ..RunReport::default()
        };
        r.figure("self_l.max_rel_err", 0.0021);
        r.figure("speedup", 9000.0);
        r.metrics = vec![
            ("cache.hit".into(), MetricValue::Counter(1)),
            ("threads.used".into(), MetricValue::Gauge(4.0)),
            (
                "lu.factor.n".into(),
                MetricValue::Histogram {
                    count: 3,
                    sum: 30.0,
                    min: 6.0,
                    max: 18.0,
                    p50: 6.0,
                    p90: 18.0,
                    p99: 18.0,
                },
            ),
        ];
        r.spans = vec![SpanSummary {
            path: "table.build/table.self".into(),
            depth: 1,
            count: 1,
            total_s: 0.41,
        }];
        r.series = vec![SeriesSnapshot {
            name: "gmres.residual".into(),
            capacity: 4096,
            pushed: 3,
            points: vec![(0.0, 1.0), (1.0, 0.25), (2.0, 1e-8)],
        }];
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn figure_overwrites_and_reads_back() {
        let mut r = RunReport::new("x");
        r.figure("err", 1.0);
        r.figure("err", 2.0);
        assert_eq!(r.figures, vec![("err".to_string(), 2.0)]);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(
            RunReport::from_json(r#"{"schema":"rlcx-report","version":3,"name":"x"}"#).is_err()
        );
        assert!(RunReport::from_json("not json").is_err());
    }

    #[test]
    fn accepts_version_1_documents() {
        // A PR 2-era report: no series, histograms without quantiles.
        let v1 = r#"{
            "schema": "rlcx-report", "version": 1, "name": "old",
            "metrics": {"lu.n": {"type": "histogram",
                                 "count": 2, "sum": 10.0, "min": 4.0, "max": 6.0}}
        }"#;
        let r = RunReport::from_json(v1).unwrap();
        assert_eq!(r.name, "old");
        assert!(r.series.is_empty());
        match &r.metrics[0].1 {
            MetricValue::Histogram { p50, p99, .. } => {
                assert_eq!(*p50, 4.0, "quantiles default to the range");
                assert_eq!(*p99, 6.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn ignores_legacy_timings_and_samples() {
        let old = r#"{"schema": "rlcx-report", "version": 2, "name": "old",
                      "figures": {"err": 0.5}, "timings": {"self-table": 0.41},
                      "samples": [{"name": "x", "median_s": 1.0, "min_s": 1.0, "n": 1}]}"#;
        let r = RunReport::from_json(old).unwrap();
        assert_eq!(r.figures, vec![("err".to_string(), 0.5)]);
    }

    #[test]
    fn aggregate_merges_repeated_paths() {
        let spans = vec![
            SpanRecord {
                path: "a/b".into(),
                depth: 1,
                thread: 0,
                start: Duration::ZERO,
                duration: Duration::from_millis(3),
            },
            SpanRecord {
                path: "a/b".into(),
                depth: 1,
                thread: 1,
                start: Duration::ZERO,
                duration: Duration::from_millis(5),
            },
            SpanRecord {
                path: "a".into(),
                depth: 0,
                thread: 0,
                start: Duration::ZERO,
                duration: Duration::from_millis(9),
            },
        ];
        let agg = aggregate_spans(&spans);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].path, "a");
        assert_eq!(agg[1].count, 2);
        assert!((agg[1].total_s - 0.008).abs() < 1e-9);
    }

    #[test]
    fn write_to_creates_file() {
        let dir = std::env::temp_dir().join(format!("rlcx_report_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = sample_report().write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunReport::from_json(&text).unwrap(), sample_report());
        std::fs::remove_dir_all(&dir).ok();
    }
}
