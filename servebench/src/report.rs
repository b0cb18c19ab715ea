//! Named metrics and the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `req/s`, `count`.
    pub unit: &'static str,
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, or a value JSON cannot hold.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.items.iter().all(|m| m.name != name), "metric {name} reported twice");
        self.items.push(Metric { name: name.to_string(), value, unit });
    }

    /// The metrics in insertion order.
    pub fn items(&self) -> &[Metric] {
        &self.items
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.items().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` on f64 prints the shortest string that reads back to the
        // same value: every digit as measured.
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

/// Per-layer metric names and units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("train.backbone_s", "s"),
    ("train.cloud_s", "s"),
    ("train.edge_blocks_s", "s"),
    ("train.deploy_ms", "ms"),
    ("nn.main_exit_ms", "ms"),
    ("nn.main_exit_mmacs", "MMAC"),
    ("nn.extension_ms", "ms"),
    ("nn.prefix_ms", "ms"),
    ("nn.cloud_full_b1_ms", "ms"),
    ("nn.cloud_suffix_b1_ms", "ms"),
    ("nn.cloud_suffix_batch_ms_per_req", "ms"),
    ("tensor.gemm_b1_us", "us"),
    ("tensor.gemm_b1_mflop", "MFLOP"),
    ("tensor.gemm_train_ms", "ms"),
    ("tensor.gemm_train_mflop", "MFLOP"),
    ("routing.plan_us", "us"),
    ("payload.encode_us", "us"),
    ("payload.decode_us", "us"),
    ("payload.bytes_per_offload", "B"),
    ("transport.round_trip_us", "us"),
    ("serve.cloud_batch_size", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.user_cpu_ms_per_req", "ms"),
    ("serve.sys_cpu_ms_per_req", "ms"),
    ("serve.unattributed_ms_per_req", "ms"),
    ("trace.coverage", "ratio"),
];

/// End-to-end metric names and units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("cpu_ms_per_req", "ms"),
    ("wan_bytes_per_req", "B"),
    ("peak_rss_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name} [{unit}]");
        }
        // Every listed workload is one this benchmark runs.
        let listed = crate::workload::Workload::ALL
            .iter()
            .filter(|w| text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())))
            .count();
        assert!(listed >= 2, "at least two workloads");
        let names = text.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + listed);
    }

    #[test]
    fn name_rule_rejects_other_characters() {
        assert!(valid_name("nn.main_exit_ms"));
        assert!(valid_name("0-a_b.c"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("quote\""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        m.push("setup_s", 0.8127, "s");
        assert_eq!(
            result_json(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn repeated_name_panics() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("a", 2.0, "s");
    }
}
