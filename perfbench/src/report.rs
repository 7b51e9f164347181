//! The run's report: human-readable lines as the run goes, correctness
//! gates, and the final one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end figures every workload prints, by name and unit; a
/// workload that does not define one prints it as not applicable.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("error_rate", "ratio"),
    ("events_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("plan_s", "s"),
    ("time_to_ci_s", "s"),
    ("time_to_answer_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    gates: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Print one informational line.
    pub fn note(&self, line: impl AsRef<str>) {
        println!("  {}", line.as_ref());
    }

    /// Print the end-to-end block: each of [`END_TO_END`] with its value,
    /// unit and sample count, from `values` as `(name, value, samples)`,
    /// under the verdict of the gates recorded so far.
    pub fn end_to_end(&self, values: &[(&str, f64, usize)]) {
        let verdict = if self.correct() { "PASS" } else { "FAIL" };
        println!("  end-to-end (correctness gates {verdict}):");
        for (name, unit) in END_TO_END {
            match values.iter().find(|(n, _, _)| *n == name) {
                Some((_, v, n)) if v.abs() < 1e-3 && *v != 0.0 => {
                    println!("    {name:<18} {v:>16.4e} {unit:<6} n={n}")
                }
                Some((_, v, n)) => println!("    {name:<18} {v:>16.6} {unit:<6} n={n}"),
                None => println!(
                    "    {name:<18} {:>16} {unit:<6} not defined on this workload",
                    "-"
                ),
            }
        }
    }

    /// Record a metric for the JSON result (and echo it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, detail: &str) {
        println!("  {name:<26} {value:>14.6} {unit:<6} {detail}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a correctness gate. A failed gate fails the run.
    pub fn gate(&mut self, name: &str, pass: bool, detail: impl AsRef<str>) {
        let verdict = if pass { "PASS" } else { "FAIL" };
        println!("  gate {verdict} {name}: {}", detail.as_ref());
        self.gates.push((name.to_string(), pass));
    }

    /// Whether every gate passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The final result line. A failed run reports no numbers.
    pub fn json(&self) -> String {
        let correct = self.correct();
        let mut metrics = String::new();
        if correct {
            for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}
