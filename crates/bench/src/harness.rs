//! A minimal wall-clock benchmark runner.
//!
//! The workspace must build and run with zero registry access, so the
//! benches use this `Instant`-based harness instead of an external
//! framework. Each [`Bench`] runs a closure a fixed number of times after
//! one warm-up call and reports median and minimum — enough to compare
//! configurations (serial vs parallel, lookup vs solve, cold vs warm
//! cache) run-to-run on the same machine.

use std::time::Instant;

/// Formats a duration in seconds with an adaptive unit.
pub fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// One named measurement.
pub struct Bench {
    name: String,
    samples: usize,
}

impl Bench {
    /// A bench that will run its closure 10 times (after one warm-up).
    pub fn new(name: impl Into<String>) -> Self {
        Bench {
            name: name.into(),
            samples: 10,
        }
    }

    /// Overrides the sample count (minimum 1).
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Runs and reports; returns the median seconds per iteration.
    pub fn run<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        std::hint::black_box(f());
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        println!(
            "{:<48} {:>12} median  {:>12} min  (n={})",
            self.name,
            fmt_time(median),
            fmt_time(times[0]),
            self.samples
        );
        median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_picks_sane_units() {
        assert!(fmt_time(3e-9).ends_with("ns"));
        assert!(fmt_time(3e-6).ends_with("us"));
        assert!(fmt_time(3e-3).ends_with("ms"));
        assert!(fmt_time(3.0).ends_with('s'));
    }

    #[test]
    fn run_returns_positive_median() {
        let mut acc = 0u64;
        let median = Bench::new("noop").samples(3).run(|| {
            acc = acc.wrapping_add(1);
            acc
        });
        assert!(median >= 0.0);
    }
}
