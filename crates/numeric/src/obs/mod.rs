//! `rlcx-obs` — structured tracing, solver metrics and machine-readable
//! run reports for the extraction pipeline.
//!
//! Field-solver runs are opaque without instrumentation: the wall-clock
//! `Timings` table says *how long* a stage took but not how many filaments
//! were meshed, whether the table cache hit, or how large the LU factors
//! were. This module family is the zero-dependency observability layer the
//! whole workspace records into:
//!
//! * [`trace`] — nestable named [`span`]s with wall-clock and thread id,
//!   env-filtered via `RLCX_TRACE=off|summary|verbose`. `off` (the default)
//!   is zero-overhead: [`span`] returns an inert guard without allocating.
//!   `verbose` streams enter/exit lines to stderr; both `summary` and
//!   `verbose` collect [`SpanRecord`]s for the span tree and run reports.
//! * [`metrics`] — a global registry of counters, gauges and histogram
//!   summaries (`cache.hit`, `peec.filaments`, `lu.factor.n`, …), always
//!   on. Since PR 7 the store is *sharded*: per-thread atomic slots with
//!   log-bucketed histograms, so hot-loop recording is lock-free and
//!   allocation-free, and [`quantile`] answers p50/p90/p99 queries.
//! * [`series`] — the flight recorder: bounded ring-buffer channels of
//!   `(step, value)` pairs ([`series_push`]) capturing convergence
//!   trajectories (GMRES residuals, ACA ranks, adaptive step sizes, …),
//!   serialized into RunReport v2.
//! * [`report`] — [`RunReport`]: spans, metrics, series, bench samples
//!   and paper-accuracy figures serialized to a stable, hand-rolled JSON
//!   file (`target/reports/<name>.json`) so experiment outputs diff across
//!   PRs — and, via the `report_diff` bench binary, against committed
//!   baselines in CI.
//! * [`chrome`] — `RLCX_TRACE_OUT=<path>` exports the raw spans as a
//!   Chrome/Perfetto `traceEvents` JSON any run can open in
//!   `chrome://tracing`.
//! * [`json`] — the minimal JSON value model ([`Json`]) behind the report
//!   writer/parser; no serde, same policy as the table cache format.
//!
//! # Naming scheme
//!
//! Metric and span names are dot-separated, lowercase, `crate.subject` or
//! `crate.subject.aspect`: `cache.hit`, `peec.solves`, `table.points.self`,
//! `spice.steps`, `lu.factor.n`, `threads.used`. Span names follow the
//! pipeline stages: `table.build/table.self`, `peec.solve/assemble`, ….
//!
//! # Example
//!
//! ```
//! use rlcx_numeric::obs::{self, TraceLevel};
//!
//! obs::set_trace_level(TraceLevel::Summary);
//! {
//!     let _outer = obs::span("demo.outer");
//!     let _inner = obs::span("demo.inner");
//!     obs::counter_add("demo.widgets", 3);
//! }
//! let spans = obs::take_spans();
//! assert!(spans.iter().any(|s| s.path == "demo.outer/demo.inner"));
//! assert!(obs::counter_value("demo.widgets") >= 3);
//! ```

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod report;
pub mod series;
pub mod trace;

pub use chrome::{chrome_trace_json, trace_out_path, write_chrome_trace, TRACE_OUT_ENV};
pub use json::Json;
pub use metrics::{
    counter_add, counter_value, gauge_set, metric_value, metrics_snapshot, observe, quantile,
    reset_metrics, MetricValue,
};
pub use report::{RunReport, SpanSummary};
pub use series::{
    reset_series, series_points, series_push, series_push_with_capacity, series_snapshot,
    SeriesSnapshot,
};
pub use trace::{
    set_trace_level, span, span_tree, take_spans, trace_level, with_span, Span, SpanRecord,
    TraceLevel,
};
