//! The result line: named metrics with units, checked against the
//! naming rules before anything is printed.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: starts with a letter or
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric. Names must be valid and unique, values finite.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value, unit));
    }

    /// The metrics as `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The final result line.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit needed to read it
            // back exactly.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "core.ns_per_instr.mpeg2_a", "9x", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "uni\u{e9}",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "1/s", "%", "MIPS", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per op", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_benchmark_metric_name_is_valid() {
        for name in crate::layers::metric_names() {
            assert!(valid_name(&name), "{name}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789_012, "ms");
        m.put("setup_s", 0.5, "s");
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789012, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        m.put("a", 2.0, "ms");
    }
}
