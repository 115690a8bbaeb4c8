//! The result line: metric naming rules, JSON rendering, and a parser
//! that checks the rendered line before it is printed.

use serde::{DeError, Deserialize, Value};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed and no unit failed.
    pub correct: bool,
    /// Units attempted in the timed phase.
    pub attempted: u64,
    /// Units that panicked, returned an error or failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

/// Metric names: a letter or digit, then up to 63 letters, digits,
/// `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl Outcome {
    /// Render as one JSON object. Floats use Rust's shortest round-trip
    /// form, so every digit of the measurement is kept.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // Not representable in JSON; `parse_outcome` rejects it.
        "null".into()
    }
}

/// Any JSON value (the vendored serde exposes its value tree).
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Object(entries) => Ok(entries),
        _ => Err(format!("{what} is not an object")),
    }
}

fn keys_are(entries: &[(String, Value)], expected: &[&str], what: &str) -> Result<(), String> {
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    if keys == expected {
        Ok(())
    } else {
        Err(format!("{what} has keys {keys:?}, expected {expected:?}"))
    }
}

fn whole(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::U64(n) => Ok(*n),
        _ => Err(format!("{what} is not a whole number")),
    }
}

fn number(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        Value::F64(x) => Ok(*x),
        _ => Err(format!("{what} is not a number")),
    }
}

/// Parse and validate a result line: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`; whole counts with `attempted ≥ 1`;
/// every metric an object of exactly `value` (a finite number) and
/// `unit`, with a valid name and unit.
pub fn parse_outcome(line: &str) -> Result<Outcome, String> {
    let Json(root) = serde_json::from_str::<Json>(line).map_err(|e| e.to_string())?;
    let top = object(&root, "result")?;
    keys_are(
        top,
        &["correct", "attempted", "failed", "metrics"],
        "result",
    )?;
    let correct = match &top[0].1 {
        Value::Bool(b) => *b,
        _ => return Err("correct is not a boolean".into()),
    };
    let attempted = whole(&top[1].1, "attempted")?;
    let failed = whole(&top[2].1, "failed")?;
    if attempted == 0 {
        return Err("attempted is 0".into());
    }
    if failed > attempted {
        return Err("failed exceeds attempted".into());
    }
    let mut metrics = Vec::new();
    for (name, m) in object(&top[3].1, "metrics")? {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if metrics.iter().any(|x: &Metric| &x.name == name) {
            return Err(format!("metric {name} repeated"));
        }
        let fields = object(m, name)?;
        keys_are(fields, &["value", "unit"], name)?;
        let value = number(&fields[0].1, name)?;
        let Value::Str(unit) = &fields[1].1 else {
            return Err(format!("{name}: unit is not a string"));
        };
        if !valid_unit(unit) {
            return Err(format!("{name}: invalid unit {unit:?}"));
        }
        metrics.push(Metric {
            name: name.clone(),
            value,
            unit: unit.clone(),
        });
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("unit_ms_p50"));
        assert!(valid_name("netsim.ns_per_event"));
        assert!(valid_name("9lives-ok"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("ünicode"));
    }

    #[test]
    fn unit_charset() {
        for u in ["ms", "s", "1/s", "count", "%", "B", "ns", "MB", "frac"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("a b"));
        assert!(!valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn rendered_line_parses_back() {
        let out = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                metric("latency_ms", 1.2034, "ms"),
                metric("setup_s", 0.812_734_567_891_234_5, "s"),
                metric("events", 1_400_000.0, "count"),
            ],
        };
        let parsed = parse_outcome(&out.to_json()).expect("parses");
        assert_eq!(parsed, out);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        let bad = [
            "not json",
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 2, "metrics": {}}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": null, "unit": "s"}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1, "unit": "s", "n": 3}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"_x": {"value": 1, "unit": "s"}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1, "unit": ""}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1, "unit": "s"}, "x": {"value": 2, "unit": "s"}}}"#,
        ];
        for line in bad {
            assert!(parse_outcome(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn non_finite_values_do_not_render_as_valid_json_numbers() {
        let out = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![metric("x", f64::NAN, "s")],
        };
        assert!(parse_outcome(&out.to_json()).is_err());
    }
}
