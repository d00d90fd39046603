//! The result: a table of every metric with its unit and sample count,
//! then one JSON object as the last line of standard output.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value, with what they are.
    pub samples: String,
}

impl Metric {
    /// A metric; a non-finite value (a percentile that fell on a failed
    /// session) is reported as `f64::MAX`, which misses any limit.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value: if value.is_finite() { value } else { f64::MAX },
            unit,
            samples: samples.into(),
        }
    }
}

/// The run's verdict and counts.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Every output check passed.
    pub correct: bool,
    /// Sessions attempted in the measured window.
    pub attempted: usize,
    /// Of those, failed or shed.
    pub failed: usize,
}

/// Renders the JSON result line.
pub fn json_line(verdict: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    )
}

/// Renders the human-readable table.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!("{:<38} {:>16} {:<8} samples\n", "metric", "value", "unit");
    for m in metrics {
        out.push_str(&format!(
            "{:<38} {:>16.4} {:<8} {}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let metrics = vec![
            Metric::new("latency_ms", 1.25, "ms", "n=3"),
            Metric::new("setup_s", f64::INFINITY, "s", "n=5"),
        ];
        let verdict = Verdict {
            correct: true,
            attempted: 3,
            failed: 1,
        };
        assert_eq!(
            json_line(&verdict, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1.7976931348623157e308, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn whole_values_still_print_as_numbers() {
        let m = [Metric::new("x", 3.0, "count", "")];
        assert!(json_line(&Verdict::default(), &m).contains("\"value\": 3.0"));
    }
}
