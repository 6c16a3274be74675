//! Summary statistics and the metric record the benchmark prints.
//!
//! Three rules live here and are unit-tested: the percentile rule (a p90
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it),
//! the `failed_frac` accounting, and the metric-name alphabet.

/// Samples that must rank above a reported high percentile.
const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 for an empty sample, which no reported metric
/// has: every loop completes at least one round).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples ranked strictly above the `q`-quantile position.
fn ranked_beyond(n: usize, q: f64) -> usize {
    n - (q * n as f64).ceil() as usize
}

/// The 90th percentile, or `None` when fewer than [`MIN_BEYOND`] samples
/// rank above it (a p90 of fewer samples is one or two outliers, not a
/// tail).
pub fn p90(values: &[f64]) -> Option<f64> {
    if ranked_beyond(values.len(), 0.9) < MIN_BEYOND {
        return None;
    }
    quantile(values, 0.9)
}

/// Frames attempted and frames failed. A frame fails when its call returns
/// an error, panics, or fails a correctness check; correctness-gate frames
/// count like timed ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one frame.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed over attempted frames; a run that attempted nothing counts
    /// as wholly failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `true` for a metric name of 1–64 letters, digits, `_`, `.` and `-`
/// that starts with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    ///
    /// # Panics
    /// On an invalid name or a non-finite value — both benchmark bugs.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(p90(&ramp(0)), None);
        assert_eq!(p90(&ramp(99)), None, "only 9 samples rank above the p90");
        assert_eq!(ranked_beyond(100, 0.9), 10);
        let p = p90(&ramp(100)).expect("100 samples put 10 beyond the p90");
        assert!((p - 89.1).abs() < 1e-9, "{p}");
        assert_eq!(ranked_beyond(1000, 0.9), 100);
    }

    #[test]
    fn quantiles_interpolate_and_ignore_order() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0], 0.9), Some(5.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 1.0, "nothing attempted is a failed run");
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        let mut clean = Tally::default();
        clean.record(true);
        assert_eq!(clean.failed_frac(), 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for ok in ["frame_ms.p50", "core.engine.overhead_ms", "x", "9-a_b.c"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".p50",
            "frame ms",
            "fps/s",
            "é",
            "a\"b",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_reported_name_is_valid() {
        for name in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.push("fps", 12.5, "frames/s");
        m.push("setup_s", 0.25, "s");
        assert_eq!(
            m.to_json(),
            r#"{"fps": {"value": 12.5, "unit": "frames/s"}, "setup_s": {"value": 0.25, "unit": "s"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Metrics::default().push("bad name", 1.0, "ms");
    }
}
