//! The metrics of one run and their three renderings: `workload metric
//! value unit` lines for people, the one-line result object that ends
//! standard output, and the JSON document written to `--out`.

use apsp_core::telemetry::{parse_json, JsonValue};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `layer.quantity` for per-layer metrics.
    pub name: String,
    /// The value, printed with every digit.
    pub value: f64,
    /// Unit, e.g. `s`, `sim_s`, `count`, `ratio`.
    pub unit: String,
    /// For a ratio: the name and value of the base it divides by.
    pub base: Option<(String, f64)>,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Every solve matched the oracle.
    pub correct: bool,
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that errored or mismatched the oracle.
    pub failed: u64,
    /// Metrics in reporting order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Record a metric. Values are computed with guarded divisions, so a
    /// non-finite one is a bug in this benchmark.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            base: None,
        });
    }

    /// Record `num / base` together with its base; 0 when the base is 0.
    pub fn push_ratio(&mut self, name: &str, num: f64, base_name: &str, base: f64) {
        self.push(name, ratio(num, base), "ratio");
        self.metrics.last_mut().expect("just pushed").base = Some((base_name.into(), base));
    }

    /// Keep only the listed `(name, unit)` metrics, in list order. A
    /// listed metric that was not measured, or was measured in another
    /// unit, is a bug in this benchmark.
    pub fn select(&mut self, listed: &[(&str, &str)]) {
        let mut kept = Vec::with_capacity(listed.len());
        for &(name, unit) in listed {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(m.unit, unit, "metric {name} is listed in another unit");
            kept.push(m.clone());
        }
        self.metrics = kept;
    }

    /// `workload metric value unit` lines; a ratio also names its base.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{} {} {} {}",
                self.workload, m.name, m.value, m.unit
            ));
            if let Some((name, value)) = &m.base {
                out.push_str(&format!(" (base {name} = {value})"));
            }
            out.push('\n');
        }
        out
    }

    /// The one-line result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric an object of `value` and `unit`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    m.value,
                    escape(&m.unit)
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

    /// Parse a [`RunResult::result_line`] (bases are not carried on it).
    pub fn parse_result_line(workload: &str, line: &str) -> Result<RunResult, String> {
        let v = parse_json(line)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("result line lacks `{key}`"))
        };
        let correct = match v.get("correct") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err("result line lacks `correct`".into()),
        };
        let Some(JsonValue::Object(fields)) = v.get("metrics") else {
            return Err("result line lacks `metrics`".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("metric {name} lacks a value"))?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("metric {name} lacks a unit"))?
                        .to_string(),
                    base: None,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: workload.into(),
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// `num / base`, or 0 when the base is not positive.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// Run-wide settings recorded next to the results.
#[derive(Debug, Clone, Copy)]
pub struct RunSettings {
    /// First instance seed.
    pub seed: u64,
    /// Length of the timed loop, seconds.
    pub seconds: f64,
    /// Whether the per-layer pass ran.
    pub trace: bool,
    /// Reduced sizes.
    pub smoke: bool,
    /// Threads the default execution backend resolved to.
    pub threads: usize,
}

/// The `--out` document: run settings plus every run's results, bases
/// included.
pub fn document(settings: &RunSettings, runs: &[RunResult]) -> String {
    let runs: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| {
                    let base = match &m.base {
                        Some((name, value)) => format!(
                            ", \"base\": {{\"name\": \"{}\", \"value\": {value}}}",
                            escape(name)
                        ),
                        None => String::new(),
                    };
                    format!(
                        "      \"{}\": {{\"value\": {}, \"unit\": \"{}\"{base}}}",
                        escape(&m.name),
                        m.value,
                        escape(&m.unit)
                    )
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"metrics\": {{\n{}\n    }}}}",
                escape(&r.workload),
                r.correct,
                r.attempted,
                r.failed,
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"bench_apsp\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"smoke\": {},\n  \"threads\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        settings.seed,
        settings.seconds,
        settings.trace,
        settings.smoke,
        settings.threads,
        runs.join(",\n")
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut r = RunResult {
            workload: "dense-fw-durable".into(),
            correct: true,
            attempted: 27,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("solve_best_s", 0.41234567891234, "s");
        r.push("kernels.minplus_ops", 123456789.0, "count");
        r.push_ratio("trace.overhead", 0.0123, "solve_best_s", 0.41234567891234);
        r.push("tiny", 1.5e-12, "s");
        r
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = sample();
        let overhead = &r.metrics[2];
        assert_eq!(overhead.unit, "ratio");
        assert_eq!(overhead.value, ratio(0.0123, 0.41234567891234));
        assert_eq!(
            overhead.base,
            Some(("solve_best_s".to_string(), 0.41234567891234))
        );
        let line = format!(
            "dense-fw-durable trace.overhead {} ratio (base solve_best_s = 0.41234567891234)\n",
            overhead.value
        );
        assert!(r.lines().contains(&line), "{}", r.lines());
        let mut zero = RunResult::default();
        zero.push_ratio("x", 3.0, "nothing", 0.0);
        assert_eq!(zero.metrics[0].value, 0.0);
        assert_eq!(zero.metrics[0].base, Some(("nothing".to_string(), 0.0)));
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let r = sample();
        let line = r.result_line();
        assert!(!line.contains('\n'));
        let back = RunResult::parse_result_line(&r.workload, &line).unwrap();
        assert_eq!(back.correct, r.correct);
        assert_eq!(back.attempted, r.attempted);
        assert_eq!(back.failed, r.failed);
        assert_eq!(back.metrics.len(), r.metrics.len());
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!((&a.name, a.value, &a.unit), (&b.name, b.value, &b.unit));
        }
        let keys: Vec<String> = match parse_json(&line).unwrap() {
            JsonValue::Object(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn document_round_trips_through_the_telemetry_parser() {
        let settings = RunSettings {
            seed: 7,
            seconds: 10.0,
            trace: true,
            smoke: false,
            threads: 2,
        };
        let runs = [sample(), RunResult::default()];
        let doc = parse_json(&document(&settings, &runs)).unwrap();
        assert_eq!(
            doc.get("bench").and_then(JsonValue::as_str),
            Some("bench_apsp")
        );
        assert_eq!(doc.get("threads").and_then(JsonValue::as_f64), Some(2.0));
        let Some(JsonValue::Array(parsed)) = doc.get("runs") else {
            panic!("runs is not an array");
        };
        assert_eq!(parsed.len(), 2);
        let first = &parsed[0];
        assert_eq!(
            first.get("workload").and_then(JsonValue::as_str),
            Some("dense-fw-durable")
        );
        assert_eq!(first.get("correct"), Some(&JsonValue::Bool(true)));
        let metrics = first.get("metrics").unwrap();
        for m in &runs[0].metrics {
            let got = metrics.get(&m.name).unwrap();
            assert_eq!(got.get("value").and_then(JsonValue::as_f64), Some(m.value));
            assert_eq!(
                got.get("unit").and_then(JsonValue::as_str),
                Some(m.unit.as_str())
            );
        }
        let base = metrics.get("trace.overhead").unwrap().get("base").unwrap();
        assert_eq!(
            base.get("name").and_then(JsonValue::as_str),
            Some("solve_best_s")
        );
    }

    #[test]
    fn select_keeps_the_named_metrics_in_order() {
        let mut r = sample();
        r.select(&[("tiny", "s"), ("solve_best_s", "s")]);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["tiny", "solve_best_s"]);
    }
}
