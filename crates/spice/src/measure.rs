//! Waveform measurements: crossings, delays, overshoot, skew.
//!
//! These are the quantities the paper reports: 50 % delays (28.01 ps vs
//! 47.6 ps for Figure 1 without/with inductance), overshoot/undershoot on
//! the RLC waveform (Figure 3), and clock skew across sinks (Section V).

/// Whether the sample pair `v0 → v1` crosses `threshold` in the given
/// direction: it ends at or past the threshold from strictly before it,
/// or departs from exactly the threshold. [`cross_time`] reports the
/// first pair for which this holds, and a transient's stop rule
/// ([`crate::Transient::stop_when_crossed`]) ends the run on it, so the
/// two agree on every recorded prefix.
pub fn crosses(v0: f64, v1: f64, threshold: f64, rising: bool) -> bool {
    if rising {
        (v0 < threshold && v1 >= threshold) || (v0 == threshold && v1 > threshold)
    } else {
        (v0 > threshold && v1 <= threshold) || (v0 == threshold && v1 < threshold)
    }
}

/// First time `v` crosses `threshold` in the given direction at or after
/// `after`, linearly interpolated between samples. Returns `None` if it
/// never crosses.
///
/// A sample pair that starts exactly at the threshold and then departs in
/// the crossing direction (a plateau at `threshold` followed by a rise,
/// common at the start of an ideal-step response) counts as a crossing at
/// the departing sample. The result is clamped to `>= after`: the first
/// kept sample pair may straddle `after`, and the interpolated time must
/// not land before the bound it was asked to respect.
///
/// # Panics
///
/// Panics if `time` and `v` lengths differ.
pub fn cross_time(
    time: &[f64],
    v: &[f64],
    threshold: f64,
    rising: bool,
    after: f64,
) -> Option<f64> {
    assert_eq!(time.len(), v.len(), "time/value length mismatch");
    for i in 1..v.len() {
        if time[i] < after {
            continue;
        }
        let (v0, v1) = (v[i - 1], v[i]);
        if crosses(v0, v1, threshold, rising) {
            let frac = (threshold - v0) / (v1 - v0);
            let tc = time[i - 1] + frac * (time[i] - time[i - 1]);
            return Some(tc.max(after));
        }
    }
    None
}

/// 50 % rising-edge delay from `v_in` to `v_out`, both swinging `low → high`.
/// Returns `None` if either waveform never reaches midswing.
pub fn delay_50(time: &[f64], v_in: &[f64], v_out: &[f64], low: f64, high: f64) -> Option<f64> {
    let mid = 0.5 * (low + high);
    let t_in = cross_time(time, v_in, mid, high > low, 0.0)?;
    let t_out = cross_time(time, v_out, mid, high > low, 0.0)?;
    Some(t_out - t_in)
}

/// Relative overshoot above `high`: `(max(v) − high) / (high − low)`,
/// clamped at zero. An RC network shows ~0; an underdamped RLC shows the
/// paper's Figure 3 behaviour.
pub fn overshoot(v: &[f64], low: f64, high: f64) -> f64 {
    let vmax = v.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
    ((vmax - high) / (high - low)).max(0.0)
}

/// Relative undershoot below `low` after the waveform first reaches
/// midswing: `(low − min(v)) / (high − low)`, clamped at zero.
pub fn undershoot(time: &[f64], v: &[f64], low: f64, high: f64) -> f64 {
    let mid = 0.5 * (low + high);
    let Some(t_mid) = cross_time(time, v, mid, high > low, 0.0) else {
        return 0.0;
    };
    let vmin = time
        .iter()
        .zip(v)
        .filter(|(t, _)| **t >= t_mid)
        .map(|(_, x)| *x)
        .fold(f64::INFINITY, f64::min);
    ((low - vmin) / (high - low)).max(0.0)
}

/// Clock skew: the spread `max − min` over per-sink delays. Empty input
/// gives zero.
pub fn skew(delays: &[f64]) -> f64 {
    if delays.is_empty() {
        return 0.0;
    }
    let max = delays.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
    let min = delays.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> (Vec<f64>, Vec<f64>) {
        // v(t) = t over [0, 1] with n+1 samples.
        let time: Vec<f64> = (0..=n).map(|i| i as f64 / n as f64).collect();
        let v = time.clone();
        (time, v)
    }

    #[test]
    fn cross_time_interpolates() {
        let (t, v) = ramp(10);
        let tc = cross_time(&t, &v, 0.55, true, 0.0).unwrap();
        assert!((tc - 0.55).abs() < 1e-12);
    }

    #[test]
    fn cross_time_respects_after_and_direction() {
        let t: Vec<f64> = (0..=4).map(|i| i as f64).collect();
        let v = vec![0.0, 1.0, 0.0, 1.0, 0.0];
        // Rising through 0.5: first at 0.5, next after t=1.5 at 2.5.
        assert!((cross_time(&t, &v, 0.5, true, 0.0).unwrap() - 0.5).abs() < 1e-12);
        assert!((cross_time(&t, &v, 0.5, true, 1.6).unwrap() - 2.5).abs() < 1e-12);
        // Falling crossing.
        assert!((cross_time(&t, &v, 0.5, false, 0.0).unwrap() - 1.5).abs() < 1e-12);
        // Never crosses 2.0.
        assert!(cross_time(&t, &v, 2.0, true, 0.0).is_none());
    }

    #[test]
    fn cross_time_never_reports_before_after_bound() {
        // Regression: the first sample pair at or past `after` can straddle
        // it; interpolating inside that pair used to return a time *before*
        // `after`. For after = 0.5 the first kept pair spans [0.4, 0.5], so
        // v(t) = t crosses 0.45 at t = 0.45 < after; the answer must be
        // clamped to the bound, not leak past it.
        let (t, v) = ramp(10);
        let tc = cross_time(&t, &v, 0.45, true, 0.5).unwrap();
        assert!(tc >= 0.5, "crossing {tc} reported before after=0.5");
        assert!((tc - 0.5).abs() < 1e-12);
        // Falling direction, same straddle.
        let vf: Vec<f64> = v.iter().map(|x| 1.0 - x).collect();
        let tf = cross_time(&t, &vf, 0.55, false, 0.5).unwrap();
        assert!(tf >= 0.5, "crossing {tf} reported before after=0.5");
        // A crossing genuinely after the bound is untouched by the clamp.
        let tc2 = cross_time(&t, &v, 0.75, true, 0.5).unwrap();
        assert!((tc2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cross_time_detects_departure_from_exact_threshold() {
        // Regression: a waveform that *starts* exactly at the threshold and
        // then rises was missed by the strict `v0 < threshold` test.
        let t: Vec<f64> = (0..=3).map(|i| i as f64).collect();
        let v = vec![0.5, 0.5, 1.0, 1.0];
        let tc = cross_time(&t, &v, 0.5, true, 0.0).unwrap();
        assert!(
            (tc - 1.0).abs() < 1e-12,
            "departure at plateau end, got {tc}"
        );
        // Falling counterpart.
        let vf = vec![0.5, 0.5, 0.0, 0.0];
        let tf = cross_time(&t, &vf, 0.5, false, 0.0).unwrap();
        assert!((tf - 1.0).abs() < 1e-12);
        // Starting at the threshold and departing the *wrong* way is not
        // a crossing in the requested direction.
        let depart_down = vec![0.5, 0.3, 0.2, 0.1];
        assert!(cross_time(&t, &depart_down, 0.5, true, 0.0).is_none());
    }

    #[test]
    fn delay_between_shifted_ramps() {
        let t: Vec<f64> = (0..=100).map(|i| i as f64 * 0.01).collect();
        let vin: Vec<f64> = t.iter().map(|&x| x.min(1.0)).collect();
        let vout: Vec<f64> = t.iter().map(|&x| (x - 0.2).clamp(0.0, 1.0)).collect();
        let d = delay_50(&t, &vin, &vout, 0.0, 1.0).unwrap();
        assert!((d - 0.2).abs() < 1e-9);
    }

    #[test]
    fn overshoot_and_undershoot() {
        let t: Vec<f64> = (0..=8).map(|i| i as f64).collect();
        let v = vec![0.0, 0.6, 1.4, 0.9, -0.1, 1.05, 1.0, 1.0, 1.0];
        assert!((overshoot(&v, 0.0, 1.0) - 0.4).abs() < 1e-12);
        assert!((undershoot(&t, &v, 0.0, 1.0) - 0.1).abs() < 1e-12);
        // Monotone RC-like waveform has neither.
        let rc = vec![0.0, 0.5, 0.8, 0.95, 0.99];
        let trc: Vec<f64> = (0..5).map(|i| i as f64).collect();
        assert_eq!(overshoot(&rc, 0.0, 1.0), 0.0);
        assert_eq!(undershoot(&trc, &rc, 0.0, 1.0), 0.0);
    }

    #[test]
    fn undershoot_ignores_initial_low() {
        // A waveform that starts at 0 and rises: the initial zero is not
        // undershoot.
        let t: Vec<f64> = (0..=4).map(|i| i as f64).collect();
        let v = vec![0.0, 0.0, 0.7, 1.0, 1.0];
        assert_eq!(undershoot(&t, &v, 0.0, 1.0), 0.0);
    }

    #[test]
    fn skew_is_spread() {
        assert_eq!(skew(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(skew(&[5.0]), 0.0);
        assert_eq!(skew(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn cross_time_length_mismatch_panics() {
        cross_time(&[0.0, 1.0], &[0.0], 0.5, true, 0.0);
    }
}
