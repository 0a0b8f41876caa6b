//! The benchmark's output: one human-readable line per metric and
//! metadata item, then the result object as the last line of stdout.

use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(String, String)>,
    failures: Vec<String>,
    /// Operations attempted (sessions or requests).
    pub attempted: u64,
    /// Operations that errored, were refused or produced wrong output.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a metadata item (printed, not part of the metrics).
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Records a failed output check. Any failure makes the run
    /// incorrect and its exit code non-zero.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines followed by the result object.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.meta {
            let _ = writeln!(out, "meta {key} = {value}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {value} {unit}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "check FAILED: {failure}");
        }
        let _ = writeln!(
            out,
            "failed_frac = {} ({} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf: a non-finite value is a bug in the
                // measurement and already failed the run.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }

    /// Fails the run for every non-finite metric.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| format!("metric {n} is not finite"))
            .collect();
        self.failures.extend(bad);
    }
}
