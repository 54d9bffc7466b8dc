//! The result schema a scenario process hands back to the orchestrator, and
//! the one-line summary the benchmark prints last.

use std::collections::BTreeMap;

use retia_json::Value;

/// A named measurement with its unit and how many samples (or calls) it
/// summarizes.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `train_step_ms_p50`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// The figure.
    pub value: f64,
    /// Samples behind it (calls, for a layer metric).
    pub samples: u64,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Metric {
        Metric { name: name.to_string(), unit: unit.to_string(), value, samples: samples as u64 }
    }
}

/// Request accounting for one load phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Phase name, e.g. `low` or `ladder-3`.
    pub name: String,
    /// Offered rate in requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// 2xx replies.
    pub succeeded: u64,
    /// Replies with another status, or none at all (I/O failure), 429 excluded.
    pub failed: u64,
    /// 429 replies (load shed by admission control).
    pub shed: u64,
    /// 90th percentile of the generator's send lag, ms.
    pub lag_p90_ms: f64,
    /// 99th percentile of the generator's send lag, ms.
    pub lag_p99_ms: f64,
    /// Largest send lag, ms.
    pub lag_max_ms: f64,
    /// Whether the generator kept to its schedule (see `plan::LAG_BOUND_MS`).
    pub valid: bool,
}

/// A named pass/fail output check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values, for the report.
    pub detail: String,
}

impl Check {
    /// Builds a check.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check { name: name.to_string(), ok, detail }
    }
}

/// Everything one scenario process measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioResult {
    /// `train`, `serve_query` or `serve_stream`.
    pub scenario: String,
    /// Seconds from process start to the first step or answered query.
    pub setup_s: f64,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
    /// Operations attempted (steps, ranked queries' snapshots, requests).
    pub attempted: u64,
    /// Operations failed, shed or lost.
    pub failed: u64,
    /// End-to-end figures, from untraced work only.
    pub metrics: Vec<Metric>,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<Metric>,
    /// Counts recorded at layer boundaries.
    pub counts: BTreeMap<String, f64>,
    /// Load phases.
    pub phases: Vec<Phase>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Measurement caveats: an unsupported tail, a generator that fell
    /// behind. Printed, but they do not fail the run.
    pub warnings: Vec<String>,
}

fn metric_json(m: &Metric) -> Value {
    let mut v = Value::object();
    v.insert("name", Value::from(m.name.as_str()));
    v.insert("unit", Value::from(m.unit.as_str()));
    v.insert("value", Value::from(m.value));
    v.insert("samples", Value::from(m.samples));
    v
}

fn metric_from(v: &Value) -> Option<Metric> {
    Some(Metric {
        name: v.get("name")?.as_str()?.to_string(),
        unit: v.get("unit")?.as_str()?.to_string(),
        value: v.get("value")?.as_f64()?,
        samples: v.get("samples")?.as_u64()?,
    })
}

fn phase_json(p: &Phase) -> Value {
    let mut v = Value::object();
    v.insert("name", Value::from(p.name.as_str()));
    v.insert("rate", Value::from(p.rate));
    v.insert("sent", Value::from(p.sent));
    v.insert("succeeded", Value::from(p.succeeded));
    v.insert("failed", Value::from(p.failed));
    v.insert("shed", Value::from(p.shed));
    v.insert("lag_p90_ms", Value::from(p.lag_p90_ms));
    v.insert("lag_p99_ms", Value::from(p.lag_p99_ms));
    v.insert("lag_max_ms", Value::from(p.lag_max_ms));
    v.insert("valid", Value::from(p.valid));
    v
}

fn phase_from(v: &Value) -> Option<Phase> {
    Some(Phase {
        name: v.get("name")?.as_str()?.to_string(),
        rate: v.get("rate")?.as_f64()?,
        sent: v.get("sent")?.as_u64()?,
        succeeded: v.get("succeeded")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        shed: v.get("shed")?.as_u64()?,
        lag_p90_ms: v.get("lag_p90_ms")?.as_f64()?,
        lag_p99_ms: v.get("lag_p99_ms")?.as_f64()?,
        lag_max_ms: v.get("lag_max_ms")?.as_f64()?,
        valid: v.get("valid")?.as_bool()?,
    })
}

impl ScenarioResult {
    /// Looks up an end-to-end metric.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.insert("scenario", Value::from(self.scenario.as_str()));
        v.insert("setup_s", Value::from(self.setup_s));
        v.insert("peak_rss_mb", Value::from(self.peak_rss_mb));
        v.insert("attempted", Value::from(self.attempted));
        v.insert("failed", Value::from(self.failed));
        v.insert("metrics", Value::Array(self.metrics.iter().map(metric_json).collect()));
        v.insert("layers", Value::Array(self.layers.iter().map(metric_json).collect()));
        let mut counts = Value::object();
        for (k, c) in &self.counts {
            counts.insert(k, Value::from(*c));
        }
        v.insert("counts", counts);
        v.insert("phases", Value::Array(self.phases.iter().map(phase_json).collect()));
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut o = Value::object();
                o.insert("name", Value::from(c.name.as_str()));
                o.insert("ok", Value::from(c.ok));
                o.insert("detail", Value::from(c.detail.as_str()));
                o
            })
            .collect();
        v.insert("checks", Value::Array(checks));
        let warnings = self.warnings.iter().map(|w| Value::from(w.as_str())).collect();
        v.insert("warnings", Value::Array(warnings));
        v
    }

    /// Parses what [`ScenarioResult::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<ScenarioResult> {
        let list = |key: &str| v.get(key).and_then(Value::as_array);
        let counts = match v.get("counts")? {
            Value::Object(kv) => {
                kv.iter().map(|(k, c)| Some((k.clone(), c.as_f64()?))).collect::<Option<_>>()?
            }
            _ => return None,
        };
        Some(ScenarioResult {
            scenario: v.get("scenario")?.as_str()?.to_string(),
            setup_s: v.get("setup_s")?.as_f64()?,
            peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            metrics: list("metrics")?.iter().map(metric_from).collect::<Option<_>>()?,
            layers: list("layers")?.iter().map(metric_from).collect::<Option<_>>()?,
            counts,
            phases: list("phases")?.iter().map(phase_from).collect::<Option<_>>()?,
            checks: list("checks")?
                .iter()
                .map(|c| {
                    Some(Check {
                        name: c.get("name")?.as_str()?.to_string(),
                        ok: c.get("ok")?.as_bool()?,
                        detail: c.get("detail")?.as_str()?.to_string(),
                    })
                })
                .collect::<Option<_>>()?,
            warnings: list("warnings")?
                .iter()
                .map(|w| w.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}

/// The summary line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (each metric as `{"value", "unit"}`).
pub fn summary_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Value::object();
    for metric in metrics {
        let mut o = Value::object();
        o.insert("value", Value::from(metric.value));
        o.insert("unit", Value::from(metric.unit.as_str()));
        m.insert(&metric.name, o);
    }
    let mut v = Value::object();
    v.insert("correct", Value::from(correct));
    v.insert("attempted", Value::from(attempted));
    v.insert("failed", Value::from(failed));
    v.insert("metrics", m);
    v.to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_result_round_trips() {
        let mut r = ScenarioResult {
            scenario: "serve_query".to_string(),
            setup_s: 1.25,
            peak_rss_mb: 88.5,
            attempted: 1200,
            failed: 3,
            metrics: vec![Metric::new("query_p50_ms.low", "ms", 0.123_456_789, 1000)],
            layers: vec![Metric::new("serve.http_ms.p50", "ms", 0.01, 1000)],
            phases: vec![Phase {
                name: "low".to_string(),
                rate: 60.0,
                sent: 600,
                succeeded: 597,
                failed: 1,
                shed: 2,
                lag_p90_ms: 0.1,
                lag_p99_ms: 0.2,
                lag_max_ms: 1.5,
                valid: true,
            }],
            checks: vec![Check::new("probe answers", true, "12/12 equal".to_string())],
            warnings: vec!["low: p90 has only 95 samples".to_string()],
            ..Default::default()
        };
        r.counts.insert("decode_batches".to_string(), 512.0);
        let text = r.to_json().to_string_compact();
        let back = ScenarioResult::from_json(&retia_json::parse(&text).expect("valid json"));
        assert_eq!(back, Some(r));
    }

    #[test]
    fn summary_line_has_exactly_the_four_keys() {
        let line = summary_line(true, 10, 0, &[Metric::new("setup_s", "s", 0.8127, 3)]);
        let v = retia_json::parse(&line).expect("valid json");
        let Value::Object(kv) = &v else { panic!("not an object") };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).expect("metric");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }
}
