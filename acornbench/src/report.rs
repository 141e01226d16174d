//! Metric rows, the result line, and the row files the layer diff reads.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`layer.what`).
    pub name: String,
    /// Unit (`s`, `ms`, `count`, …).
    pub unit: String,
    /// The value, with every digit it was measured with.
    pub value: f64,
}

impl Metric {
    /// A metric row.
    pub fn new(name: impl Into<String>, unit: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// The outcome of one benchmark run.
pub struct Verdict {
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and every
/// metric as `{"value": v, "unit": u}`. Non-finite values have no JSON
/// spelling and are rejected.
pub fn result_line(v: &Verdict, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            m.value,
            json_string(&m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct,
        v.attempted,
        v.failed,
        body.join(", ")
    ))
}

/// Rows as tab-separated `name unit value` lines.
pub fn to_rows(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{}\t{}\t{}", m.name, m.unit, m.value);
    }
    out
}

/// Parses rows written by [`to_rows`]; `#` lines and blank lines are
/// skipped.
pub fn parse_rows(text: &str) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(name), Some(unit), Some(value), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("line {}: expected name<TAB>unit<TAB>value", i + 1));
        };
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
        out.push(Metric::new(name, unit, value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let line = result_line(
            &Verdict {
                correct: true,
                attempted: 12,
                failed: 0,
            },
            &[
                Metric::new("wall_s", "s", 1.234_567_891_234),
                Metric::new("x", "count", 3.0),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567891234, \"unit\": \"s\"}, \
             \"x\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_refused() {
        let v = Verdict {
            correct: true,
            attempted: 1,
            failed: 0,
        };
        assert!(result_line(&v, &[Metric::new("a", "s", f64::NAN)]).is_err());
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![
            Metric::new("events.kernel_s", "s", 0.0123),
            Metric::new("phy.table.hits", "count", 42.0),
        ];
        let text = format!("# header\n{}", to_rows(&rows));
        assert_eq!(parse_rows(&text).unwrap(), rows);
        assert!(parse_rows("a\tb\n").is_err());
        assert!(parse_rows("a\ts\tnope\n").is_err());
    }
}
