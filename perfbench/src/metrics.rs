//! The metric catalogue and the one-line result the benchmark prints.
//!
//! `END_TO_END` and `PER_LAYER` must list exactly the metrics of
//! `BENCHMARK.json` (a test below holds them together). Every workload
//! reports every metric of the set its run asks for; a layer a workload
//! never enters reports 0.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// The end-to-end metrics of an untraced run.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("wall_s", "s"),
    spec("refs_per_s", "1/s"),
    spec("resume_s", "s"),
    spec("p99_ms", "ms"),
    spec("slo_rps", "1/s"),
    spec("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run.
pub const PER_LAYER: &[Spec] = &[
    spec("workloads.generate_s", "s"),
    spec("trace.pack_s", "s"),
    spec("eval.plan_s", "s"),
    spec("eval.units", "count"),
    spec("eval.slice_s.lru", "s"),
    spec("eval.slice_s.fifo", "s"),
    spec("eval.slice_s.random", "s"),
    spec("eval.fold_s", "s"),
    spec("multisim.lru_s", "s"),
    spec("multisim.fifo_s", "s"),
    spec("multisim.random_s", "s"),
    spec("multisim.lru_refs_per_s", "1/s"),
    spec("multisim.fifo_refs_per_s", "1/s"),
    spec("multisim.random_refs_per_s", "1/s"),
    spec("core.direct_s", "s"),
    spec("core.direct_refs_per_s", "1/s"),
    spec("core.direct_points", "count"),
    spec("executor.overhead_s", "s"),
    spec("executor.cpu_util", "ratio"),
    spec("checkpoint.journal_s", "s"),
    spec("checkpoint.scan_s", "s"),
    spec("checkpoint.journal_bytes", "bytes"),
    spec("report.render_s", "s"),
    spec("report.emit_s", "s"),
    spec("run_report.write_s", "s"),
    spec("http.parse_s", "s"),
    spec("serve.ttfb_ms.keepalive", "ms"),
    spec("serve.ttfb_ms.new_conn", "ms"),
    spec("serve.cache_hit_ratio", "ratio"),
    spec("serve.points_computed", "count"),
    spec("serve.compute_ms_per_point", "ms"),
    spec("serve.worker_util", "ratio"),
    spec("serve.queue_depth_max", "count"),
    spec("serve.shed", "count"),
    spec("serve.journal_appends", "count"),
    spec("serve.server_p99_s", "s"),
    spec("loadgen.late_p99_ms", "ms"),
    spec("loadgen.p50_ms", "ms"),
    spec("trace_run.unaccounted_s", "s"),
    spec("trace_run.covered_ratio", "ratio"),
    spec("trace_run.overhead_s", "s"),
];

/// Per-layer metrics of the batch layers, 0 on `serve`.
pub const BATCH_LAYERS: &[&str] = &[
    "eval.plan_s",
    "eval.units",
    "eval.slice_s.lru",
    "eval.slice_s.fifo",
    "eval.slice_s.random",
    "eval.fold_s",
    "multisim.lru_s",
    "multisim.fifo_s",
    "multisim.random_s",
    "multisim.lru_refs_per_s",
    "multisim.fifo_refs_per_s",
    "multisim.random_refs_per_s",
    "core.direct_s",
    "core.direct_refs_per_s",
    "core.direct_points",
    "executor.overhead_s",
    "executor.cpu_util",
    "checkpoint.journal_s",
    "checkpoint.scan_s",
    "checkpoint.journal_bytes",
    "report.render_s",
    "report.emit_s",
    "run_report.write_s",
];

/// Per-layer metrics of the serving layers, 0 on the batch workloads.
pub const SERVE_LAYERS: &[&str] = &[
    "http.parse_s",
    "serve.ttfb_ms.keepalive",
    "serve.ttfb_ms.new_conn",
    "serve.cache_hit_ratio",
    "serve.points_computed",
    "serve.compute_ms_per_point",
    "serve.worker_util",
    "serve.queue_depth_max",
    "serve.shed",
    "serve.journal_appends",
    "serve.server_p99_s",
    "loadgen.late_p99_ms",
    "loadgen.p50_ms",
];

/// Whether `name` is a valid metric or workload name: 1 to 64 ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A run's verdict and counts, printed as the benchmark's last line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output-check failures; the run is correct when there are none.
    pub failures: Vec<String>,
    /// Operations attempted (design points or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable detail lines (sample counts, percentiles).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Records a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Renders the result line: exactly the metrics of `specs`, in order.
///
/// # Errors
///
/// Names a metric that is missing, not in `specs`, invalid, or not
/// finite — a bug in the workload code, never a measurement.
pub fn render(outcome: &Outcome, specs: &[Spec]) -> Result<String, String> {
    if let Some(extra) = outcome
        .values
        .keys()
        .find(|k| !specs.iter().any(|s| s.name == k.as_str()))
    {
        return Err(format!("metric {extra:?} is not in the reported set"));
    }
    if outcome.attempted == 0 {
        return Err("the run attempted no operation".to_string());
    }
    let mut metrics = Vec::with_capacity(specs.len());
    for s in specs {
        if !valid_name(s.name) || !valid_unit(s.unit) {
            return Err(format!("metric {:?} has an invalid name or unit", s.name));
        }
        let value = *outcome
            .values
            .get(s.name)
            .ok_or_else(|| format!("metric {:?} was not measured", s.name))?;
        if !value.is_finite() {
            return Err(format!("metric {:?} is not finite ({value})", s.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            s.name, s.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use occache_serve::json::Json;

    #[test]
    fn names_follow_the_benchmark_rules() {
        for good in ["setup_s", "eval.slice_s.lru", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "seventeen_letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_catalogued_metric_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name) && valid_unit(s.unit), "{}", s.name);
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn render_is_strict_about_the_metric_set() {
        let specs = [spec("a_s", "s"), spec("b", "count")];
        let mut out = Outcome::default();
        out.set("a_s", 1.25);
        out.set("b", 3.0);
        assert!(render(&out, &specs).unwrap_err().contains("no operation"));
        out.values.remove("b");
        out.attempted = 5;
        assert!(render(&out, &specs).unwrap_err().contains("\"b\""));
        out.set("b", 3.0);
        out.set("c", 1.0);
        assert!(render(&out, &specs).unwrap_err().contains("\"c\""));
        out.values.remove("c");
        let line = render(&out, &specs).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(5));
        let a = doc.get("metrics").and_then(|m| m.get("a_s")).unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("s"));
        out.fail("checksum mismatch");
        out.set("b", f64::NAN);
        assert!(render(&out, &specs).is_err());
        out.set("b", 0.0);
        assert!(render(&out, &specs)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
