//! The metric catalog, one run's outcome, and its two renderings: the
//! one-line JSON result the benchmark contract asks for, and the full
//! pretty-printed report written next to the build output.

use std::collections::BTreeMap;

use fetchvp_metrics::Json;

/// One catalogued metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: what a user of the simulator or the daemon sees.
/// A timed run reports every one of them, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("sim_mips", "Minstr/s", "higher"),
    def("peak_rss_mib", "MiB", "lower"),
    def("op_ms", "ms", "lower"),
];

/// Per-layer metrics: one layer's host time per event, or a ratio, taken
/// on the workload's own traces. A traced run reports every one of them.
pub const PER_LAYER: [MetricDef; 22] = [
    def("trace.gen_ns_per_instr", "ns", "lower"),
    def("tracestore.encode_ns_per_instr", "ns", "lower"),
    def("tracestore.bytes_per_instr", "B", "lower"),
    def("tracestore.decode_ns_per_instr", "ns", "lower"),
    def("fetch.conventional_ns_per_instr", "ns", "lower"),
    def("fetch.trace_cache_ns_per_instr", "ns", "lower"),
    def("fetch.instrs_per_group", "instr", "higher"),
    def("bpred.accuracy", "ratio", "higher"),
    def("predictor.stride_ns_per_lookup", "ns", "lower"),
    def("predictor.banked_ns_per_group", "ns", "lower"),
    def("predictor.banked.denial_rate", "ratio", "lower"),
    def("predictor.useful_fraction", "ratio", "higher"),
    def("predictor.correct_predictions", "count", "higher"),
    def("core.sched_ns_per_instr", "ns", "lower"),
    def("core.batch.residual_frac", "ratio", "lower"),
    def("metrics.export_us_per_result", "us", "lower"),
    def("tracing.progress_overhead_frac", "ratio", "lower"),
    def("server.post_p50_us", "us", "lower"),
    def("server.queue_wait_ms", "ms", "lower"),
    def("server.polls_per_job", "count", "lower"),
    def("server.result_cache_hit_ratio", "ratio", "higher"),
    def("bench.trace_overhead_frac", "ratio", "lower"),
];

/// A named value with its unit, outside the catalog (quartiles, sample
/// counts, workload-specific figures).
#[derive(Debug, Clone, PartialEq)]
pub struct Detail {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Catalogued metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra values for the report and the human-readable output.
    pub detail: Vec<Detail>,
    /// Operations attempted: timed repetitions, HTTP exchanges, checks.
    pub attempted: u64,
    /// Operations that failed: non-2xx, timeouts, mismatched bytes,
    /// golden-digest mismatches, broken shape pins.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Digests of the run's deterministic outputs, by name.
    pub digests: BTreeMap<String, String>,
    /// Raw samples, by name (repetition times, set-up times, latencies).
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    /// Counts one checked operation, recording `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Sets a catalogued metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds an extra value.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.detail.push(Detail { name: name.into(), value, unit: unit.to_string() });
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Checks that exactly the catalog's metrics are present and finite,
    /// counting a failure for each one that is not.
    pub fn require(&mut self, catalog: &[MetricDef]) {
        for d in catalog {
            let value = self.metrics.get(d.name).copied();
            let ok = value.is_some_and(f64::is_finite);
            self.check(ok, || format!("metric {} missing or not finite: {value:?}", d.name));
            if !ok {
                self.metrics.insert(d.name.to_string(), 0.0);
            }
        }
        self.metrics.retain(|name, _| catalog.iter().any(|d| d.name == name));
    }
}

/// Formats a float with every significant digit (Rust's shortest
/// round-trip form), never as NaN or infinity.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line result: `{"correct", "attempted", "failed", "metrics"}`,
/// each metric as `{"value", "unit"}`. `prefix` namespaces the metric
/// names (used when one line covers several workloads).
pub fn result_line(parts: &[(&str, &Outcome)], catalog: &[MetricDef]) -> String {
    let correct = parts.iter().all(|(_, o)| o.correct());
    let attempted: u64 = parts.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = parts.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = Vec::new();
    for (prefix, outcome) in parts {
        for d in catalog {
            let value = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
            let name =
                if prefix.is_empty() { d.name.to_string() } else { format!("{prefix}.{}", d.name) };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(value),
                d.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// The full report of one run as a JSON document.
pub fn report_json(
    workload: &str,
    seed: u64,
    traced: bool,
    outcome: &Outcome,
    catalog: &[MetricDef],
) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let metrics = catalog.iter().map(|d| {
        let value = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        (
            d.name.to_string(),
            Json::object([
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), s(d.unit)),
                ("better".to_string(), s(d.better)),
            ]),
        )
    });
    let detail = outcome.detail.iter().map(|d| {
        (
            d.name.clone(),
            Json::object([
                ("value".to_string(), Json::Float(d.value)),
                ("unit".to_string(), s(&d.unit)),
            ]),
        )
    });
    let samples = outcome.samples.iter().map(|(name, values)| {
        (name.clone(), Json::Array(values.iter().map(|&v| Json::Float(v)).collect()))
    });
    let digests = outcome.digests.iter().map(|(name, hex)| (name.clone(), s(hex)));
    Json::object([
        ("workload".to_string(), s(workload)),
        ("seed".to_string(), Json::UInt(seed)),
        ("traced".to_string(), Json::Bool(traced)),
        ("correct".to_string(), Json::Bool(outcome.correct())),
        ("attempted".to_string(), Json::UInt(outcome.attempted)),
        ("failed".to_string(), Json::UInt(outcome.failed)),
        ("problems".to_string(), Json::Array(outcome.problems.iter().map(|p| s(p)).collect())),
        ("metrics".to_string(), Json::object(metrics)),
        ("detail".to_string(), Json::object(detail)),
        ("digests".to_string(), Json::object(digests)),
        ("samples".to_string(), Json::object(samples)),
    ])
}

/// Reads a report written by [`report_json`] back into an outcome (the
/// orchestrator collects child results this way).
pub fn outcome_from_json(doc: &Json) -> Option<Outcome> {
    let mut out = Outcome {
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        ..Outcome::default()
    };
    for p in doc.get("problems").and_then(array)? {
        out.problems.push(p.as_str()?.to_string());
    }
    for (name, m) in doc.get("metrics")?.as_object()? {
        out.metrics.insert(name.clone(), m.get("value")?.as_f64()?);
    }
    for (name, d) in doc.get("detail")?.as_object()? {
        out.detail(name.clone(), d.get("value")?.as_f64()?, d.get("unit")?.as_str()?);
    }
    for (name, hex) in doc.get("digests")?.as_object()? {
        out.digests.insert(name.clone(), hex.as_str()?.to_string());
    }
    for (name, values) in doc.get("samples")?.as_object()? {
        let values = array(values)?.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>()?;
        out.samples.insert(name.clone(), values);
    }
    Some(out)
}

fn array(doc: &Json) -> Option<&[Json]> {
    match doc {
        Json::Array(items) => Some(items),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome::default();
        o.set("setup_s", 0.8127);
        o.set("sim_mips", 41.25);
        o.set("peak_rss_mib", 312.5);
        o.set("op_ms", 1939.0625);
        o.detail("op_q1_ms", 1_931.5, "ms");
        o.digests.insert("fig3-1.csv".into(), "00ff00ff00ff00ff".into());
        o.samples.insert("rep_s".into(), vec![1.9, 1.95, 1.93]);
        o.check(true, || unreachable!());
        o
    }

    #[test]
    fn report_round_trips_through_the_workspace_json_parser() {
        let o = sample();
        let text = report_json("ideal_fetch_sweep", 7, false, &o, &END_TO_END).to_json();
        let doc = Json::parse(&text).expect("report parses");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("ideal_fetch_sweep"));
        assert_eq!(doc.get_path("metrics.sim_mips.unit").and_then(Json::as_str), Some("Minstr/s"));
        assert_eq!(outcome_from_json(&doc), Some(o));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let o = sample();
        let line = result_line(&[("", &o)], &END_TO_END);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get_path("metrics.setup_s.value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(doc.get("metrics").and_then(Json::as_object).map(<[_]>::len), Some(4));
    }

    #[test]
    fn require_flags_missing_and_non_finite_metrics() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        o.set("sim_mips", f64::NAN);
        o.set("not_catalogued", 3.0);
        o.require(&END_TO_END);
        assert_eq!((o.attempted, o.failed), (4, 3));
        assert!(!o.correct());
        assert_eq!(o.metrics.len(), 4);
        assert_eq!(o.metrics["sim_mips"], 0.0);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
            assert!(all[..i].iter().all(|e| e.name != d.name), "{} listed twice", d.name);
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let Some(Json::Array(entries)) = doc.get(key) else { panic!("no {key}") };
            assert_eq!(entries.len(), catalog.len(), "{key}");
            for (entry, d) in entries.iter().zip(catalog) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(d.better));
            }
        }
    }
}
