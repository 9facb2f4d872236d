//! Result reporting: failure accounting, human-readable metric lines and
//! the one-line JSON result.

use std::fmt::Write as _;

/// Operations attempted and failed across a run. Non-2xx responses,
/// broken connections and output-check mismatches are all failures.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub why: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure records `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.why.len() < 8 {
                self.why.push(why());
            }
        }
        ok
    }

    /// Adds `(attempted, failed)` counted elsewhere (a load phase).
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.why.len() < 8 {
            self.why
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Failed / attempted (0 when nothing was attempted).
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Whether the metric goes into the JSON result line.
    pub gated: bool,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Failure accounting.
    pub tally: Tally,
    /// Checks that are not per-operation (sample counts, invariants).
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a metric that goes into the JSON result.
    pub fn gate(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, true);
    }

    /// Adds a metric that is printed but not part of the JSON result.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, false);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, gated: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            gated,
        });
    }

    /// Adds a gated metric, or records a problem when it is missing.
    pub fn gate_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, samples: usize) {
        match value {
            Some(v) => self.gate(name, v, unit, samples),
            None => self
                .problems
                .push(format!("{name}: not reportable from {samples} samples")),
        }
    }

    /// Records a failed run-level check.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable metric lines.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<36} {:>16.6} {:<8} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.gated { "" } else { "  (not gated)" }
            );
        }
        let _ = writeln!(
            s,
            "metric {:<36} {:>16.6} {:<8} n={}  (failed {})",
            "error_frac",
            self.tally.error_frac(),
            "ratio",
            self.tally.attempted,
            self.tally.failed
        );
        for w in self.tally.why.iter().chain(&self.problems) {
            let _ = writeln!(s, "problem {w}");
        }
        s
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.gated) {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number; non-finite values (a latency of a failed
/// request) are clamped to the largest finite `f64`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v > 0.0 {
        format!("{:?}", f64::MAX)
    } else {
        format!("{:?}", f64::MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_frac_counts_every_kind_of_failure() {
        let mut t = Tally::default();
        assert_eq!(t.error_frac(), 0.0);
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "non-2xx".into()));
        t.add(8, 1, "requests"); // a load phase with one broken connection
        t.check(false, || "output mismatch".into());
        assert_eq!((t.attempted, t.failed), (11, 3));
        assert!((t.error_frac() - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(t.why.len(), 3);
    }

    #[test]
    fn result_line_holds_only_gated_metrics() {
        let mut r = Report::default();
        r.gate("p50_ms", 1.25, "ms", 100);
        r.info("publish_ms", 80.0, "ms", 5);
        r.tally.check(true, String::new);
        let json = r.json();
        assert_eq!(
            json,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert!(r.lines().contains("publish_ms"));
    }

    #[test]
    fn a_withheld_metric_or_a_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.gate_opt("p99_ms", None, "ms", 500);
        assert!(!r.correct());
        assert!(!r.json().contains("p99_ms"));
        let mut r = Report::default();
        r.tally.check(false, || "mismatch".into());
        assert!(!r.correct());
        assert!(r
            .json()
            .starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1"));
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
    }
}
