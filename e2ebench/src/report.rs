//! Sample statistics, process memory, and the two output forms: a table
//! for people and one JSON line for tools.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count; 0 if empty).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `xs` and how many samples lie above it.
pub fn quantile(xs: &mut [f64], q: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    let v = xs[rank - 1];
    (v, xs.iter().filter(|&&x| x > v).count())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str, String)>,
}

impl Metrics {
    /// Add a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, "");
    }

    /// Add a metric with a remark for the table.
    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        remark: impl Into<String>,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push((name.into(), value, unit, remark.into()));
    }

    /// Render the human-readable table.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for (name, value, unit, remark) in &self.rows {
            let _ = writeln!(out, "  {name:<34} {value:>16.4} {unit:<8} {remark}");
        }
        out
    }

    /// Render the result line: only the metrics named in `keep`, in that
    /// order, with every digit of each value.
    pub fn json(&self, keep: &[&str], correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for name in keep {
            let (_, value, unit, _) = self
                .rows
                .iter()
                .find(|r| r.0 == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if first { "" } else { ", " }
            );
            first = false;
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.9), (90.0, 10));
        assert_eq!(quantile(&mut [5.0], 0.9), (5.0, 0));
    }

    #[test]
    fn json_keeps_requested_metrics_in_order() {
        let mut m = Metrics::default();
        m.push("b", 2.5, "s");
        m.push("a", 1.0, "ms");
        m.push("skip", f64::NAN, "count");
        assert_eq!(
            m.json(&["a", "b", "skip"], true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"skip\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
