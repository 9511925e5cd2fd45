//! Nestable wall-clock spans, env-filtered via `RLCX_TRACE`.
//!
//! A [`Span`] is a drop guard: creating one pushes a frame on a
//! thread-local stack, dropping it records a [`SpanRecord`] (full nesting
//! path, depth, thread id, start offset, duration) into a global buffer
//! that [`take_spans`] drains; [`span_tree`] renders them once aggregated
//! into a run report. When the level is
//! [`TraceLevel::Off`] — the default — [`span`] returns an inert guard
//! without touching the stack or allocating, so instrumentation can stay
//! compiled into hot paths.

use super::report::SpanSummary;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How much the tracing layer records and prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No recording, no output, no allocation — the default.
    #[default]
    Off = 0,
    /// Spans are recorded for [`take_spans`] / [`span_tree`] / run reports;
    /// nothing is printed while they run.
    Summary = 1,
    /// Like `Summary`, plus an indented enter/exit line per span on stderr.
    Verbose = 2,
}

impl TraceLevel {
    /// Parses an `RLCX_TRACE` value; unknown strings mean `Off`.
    pub fn parse(s: &str) -> TraceLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" | "1" | "on" => TraceLevel::Summary,
            "verbose" | "2" | "full" => TraceLevel::Verbose,
            _ => TraceLevel::Off,
        }
    }

    /// The name `RLCX_TRACE` would be set to for this level.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Verbose => "verbose",
        }
    }
}

/// 255 = "not resolved yet": first read consults the environment.
static LEVEL: AtomicU8 = AtomicU8::new(255);

/// The active trace level: `RLCX_TRACE` on first use unless overridden by
/// [`set_trace_level`].
pub fn trace_level() -> TraceLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TraceLevel::Off,
        1 => TraceLevel::Summary,
        2 => TraceLevel::Verbose,
        _ => {
            let level = std::env::var("RLCX_TRACE")
                .map(|v| TraceLevel::parse(&v))
                .unwrap_or(TraceLevel::Off);
            LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
    }
}

/// Overrides the trace level for the whole process (tests, binaries with
/// their own flags). Takes effect for every span opened afterwards.
pub fn set_trace_level(level: TraceLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `/`-joined nesting path on the recording thread, e.g.
    /// `table.build/table.self`.
    pub path: String,
    /// Nesting depth (0 for a root span).
    pub depth: usize,
    /// Small sequential id of the recording thread (first-use order, not
    /// the OS tid — stable enough to distinguish workers in one run).
    pub thread: u64,
    /// Start time as an offset from the first span of the process.
    pub start: Duration,
    /// Wall-clock duration.
    pub duration: Duration,
}

/// Process-wide epoch all span offsets are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn records() -> &'static Mutex<Vec<SpanRecord>> {
    static RECORDS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Sequential per-thread id, assigned on each thread's first use of the
/// obs layer (spans and the sharded metric store share the numbering).
pub(crate) fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An open span; the drop records it. Obtained from [`span`].
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    start: Instant,
    start_offset: Duration,
    verbose: bool,
}

/// Opens a span named `name`. Inert (no allocation, no stack push) when the
/// trace level is `Off`.
pub fn span(name: &'static str) -> Span {
    let level = trace_level();
    if level == TraceLevel::Off {
        return Span { live: None };
    }
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.len() - 1
    });
    let start = Instant::now();
    let start_offset = start.saturating_duration_since(epoch());
    let verbose = level == TraceLevel::Verbose;
    if verbose {
        eprintln!("[rlcx-trace] {}> {}", "-".repeat(depth + 1), name);
    }
    Span {
        live: Some(LiveSpan {
            start,
            start_offset,
            verbose,
        }),
    }
}

/// Runs `f` inside a span named `name`.
pub fn with_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let duration = live.start.elapsed();
        let (path, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join("/");
            let name_count = s.len();
            s.pop();
            (path, name_count - 1)
        });
        if live.verbose {
            eprintln!(
                "[rlcx-trace] <{} {} ({:.3} ms)",
                "-".repeat(depth + 1),
                path.rsplit('/').next().unwrap_or(&path),
                duration.as_secs_f64() * 1e3
            );
        }
        let record = SpanRecord {
            path,
            depth,
            thread: thread_ordinal(),
            start: live.start_offset,
            duration,
        };
        if let Ok(mut records) = records().lock() {
            records.push(record);
        }
    }
}

/// Drains and returns every span recorded so far, in completion order.
pub fn take_spans() -> Vec<SpanRecord> {
    match records().lock() {
        Ok(mut r) => std::mem::take(&mut *r),
        Err(_) => Vec::new(),
    }
}

/// Renders aggregated spans (a report's `spans`) as an indented tree:
/// one line per path with its total milliseconds and count, indented by
/// depth.
pub fn span_tree(spans: &[SpanSummary]) -> String {
    let mut out = String::new();
    for s in spans {
        let name = s.path.rsplit('/').next().unwrap_or(&s.path);
        out.push_str(&format!(
            "{:indent$}{name:<24} {:>10.3} ms  x{}\n",
            "",
            s.total_s * 1e3,
            s.count,
            indent = s.depth * 2,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace level is process-global; these tests coordinate through a lock
    // so their level flips never interleave.
    fn level_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_levels() {
        assert_eq!(TraceLevel::parse("off"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("Summary"), TraceLevel::Summary);
        assert_eq!(TraceLevel::parse("VERBOSE"), TraceLevel::Verbose);
        assert_eq!(TraceLevel::parse("1"), TraceLevel::Summary);
        assert_eq!(TraceLevel::parse("junk"), TraceLevel::Off);
        assert_eq!(TraceLevel::Summary.as_str(), "summary");
    }

    #[test]
    fn off_produces_no_records() {
        let _guard = level_lock();
        set_trace_level(TraceLevel::Off);
        take_spans();
        {
            let _s = span("trace.test.off");
        }
        assert!(take_spans()
            .iter()
            .all(|s| !s.path.contains("trace.test.off")));
    }

    #[test]
    fn nesting_builds_paths() {
        let _guard = level_lock();
        set_trace_level(TraceLevel::Summary);
        {
            let _a = span("trace.test.a");
            let _b = span("trace.test.b");
        }
        set_trace_level(TraceLevel::Off);
        let spans = take_spans();
        let b = spans
            .iter()
            .find(|s| s.path == "trace.test.a/trace.test.b")
            .expect("nested path recorded");
        assert_eq!(b.depth, 1);
        let a = spans
            .iter()
            .find(|s| s.path == "trace.test.a")
            .expect("outer path recorded");
        assert_eq!(a.depth, 0);
        assert!(a.duration >= b.duration);
    }

    #[test]
    fn span_tree_renders_indented() {
        let spans = vec![
            SpanRecord {
                path: "outer/inner".into(),
                depth: 1,
                thread: 0,
                start: Duration::ZERO,
                duration: Duration::from_millis(2),
            },
            SpanRecord {
                path: "outer".into(),
                depth: 0,
                thread: 0,
                start: Duration::ZERO,
                duration: Duration::from_millis(5),
            },
        ];
        let tree = span_tree(&super::super::report::aggregate_spans(&spans));
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("outer"));
        assert!(lines[1].starts_with("  inner"));
    }
}
