//! The benchmark's output: human-readable metric lines, then one JSON
//! object as the last line of standard output.

/// Metrics and correctness tallies of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records one metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// The value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Counts one checked operation; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed}/{attempted} failed: {}", what()));
        }
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed their check so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Prints every metric with its unit, then the JSON result line.
    pub fn print(&self) {
        for p in &self.problems {
            eprintln!("perfbench: {p}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<34} {frac:>16.6} frac ({} of {} operations)",
            "failed_frac", self.failed, self.attempted
        );
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.metric("setup_s", 0.25, "s");
        r.check(true, String::new);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check(false, || "mismatch".into());
        assert!(!r.correct());
    }
}
