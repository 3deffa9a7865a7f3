//! The metric catalogue and the result line the benchmark ends with.

use crate::trace::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Models measured per method: the butterfly and pixelfly SHL models run
/// in every workload, the dense baseline in training only.
pub const SERVED: [&str; 2] = ["butterfly", "pixelfly"];
/// Every SHL method the training workload compares.
pub const TRAINED: [&str; 3] = ["butterfly", "pixelfly", "dense"];
/// The SHL stack's three layers, in order.
pub const SHL_LAYERS: [&str; 3] = ["hidden", "relu", "classifier"];

/// End-to-end metrics, reported by every workload when untraced.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("peak_rss_mib", "MiB"),
        ("model_mib", "MiB"),
        ("sustained_rps", "1/s"),
        ("sps.butterfly", "1/s"),
        ("sps.pixelfly", "1/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Per-layer metrics, reported by every workload when traced; a layer the
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    // Training (train_shl).
    for m in TRAINED {
        add(format!("train_sps.{m}"), "1/s");
        for l in SHL_LAYERS {
            add(format!("layer.fwd_us.{m}.{l}"), "us");
        }
        for l in SHL_LAYERS {
            add(format!("layer.bwd_us.{m}.{l}"), "us");
        }
        add(format!("nn.loss_us.{m}"), "us");
        add(format!("nn.sgd_us.{m}"), "us");
        add(format!("kernels.flops.{m}.hidden"), "flop");
        add(format!("kernels.bytes.{m}.hidden"), "B");
        add(format!("ipu.sim_us.{m}.hidden"), "sim_us");
        add(format!("gpu.sim_us.{m}.hidden"), "sim_us");
    }
    add("data.batch_us".into(), "us");
    add("trace.step_attributed_frac".into(), "ratio");
    // Latency as the client sees it: a training step (summed over the
    // methods) or a request at the nominal rate.
    for q in ["p50", "p90", "p99"] {
        add(format!("client.latency_{q}_ms"), "ms");
    }
    add("ipu_sim_us_per_req".into(), "sim_us");
    // Serving (serve_unique, serve_wire_zipf).
    for (n, u) in [
        ("loadgen.late_p99_ms", "ms"),
        ("server.submit_us_p50", "us"),
        ("server.submit_us_p99", "us"),
        ("server.queue_us_p50", "us"),
        ("server.service_us_p50", "us"),
        ("server.post_us_p50", "us"),
        ("server.reply_us_p50", "us"),
        ("server.batch_mean", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.coalesced_ratio", "ratio"),
        ("replica.util_min", "ratio"),
        ("replica.cold_loads", "count"),
        ("failed_frac", "ratio"),
        ("trace.latency_closure", "ratio"),
    ] {
        add(n.into(), u);
    }
    for m in SERVED {
        add(format!("kernels.infer_us_per_row.{m}"), "us");
        add(format!("ipu.sim_us_per_row.{m}"), "sim_us");
        for l in SHL_LAYERS {
            add(format!("layer.infer_us.{m}.{l}"), "us");
        }
    }
    // The wire front door (serve_wire_zipf).
    for (n, u) in [
        ("ingress.encode_us", "us"),
        ("ingress.decode_us", "us"),
        ("ingress.zero_copy_frac", "ratio"),
        ("ingress.wire_overhead_us_p50", "us"),
    ] {
        add(n.into(), u);
    }
    add("trace.overhead_frac".into(), "ratio");
    out
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (requests sent or training steps taken).
    pub attempted: u64,
    /// Operations that failed: wrong outputs, and failed requests at the
    /// workload's nominal rate.
    pub failed: u64,
    /// Correctness and reconciliation failures, each one line.
    pub errors: Vec<String>,
    /// Provenance and context printed before the result line.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a provenance or context note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.errors.push(error.into());
    }

    /// Records `check`'s error, if any.
    pub fn check(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.fail(e);
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the catalogue in use.
/// A catalogue metric the run did not produce is an error for end-to-end
/// metrics (every workload measures all of them) and 0 for per-layer ones.
pub fn result_line(
    outcome: &mut Outcome,
    catalogue: &[(String, &'static str)],
    missing_is_zero: bool,
) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if missing_is_zero => 0.0,
            None => {
                outcome.fail(format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            outcome.fail(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let number = if value.is_finite() { format!("{value}") } else { "null".into() };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {number}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut all = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        assert!(per_layer().len() <= 128);
        for (name, unit) in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_reports_every_metric_and_flags_missing_ones() {
        let mut out = Outcome { attempted: 5, ..Default::default() };
        out.set("a", 1.5);
        let cat = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let line = result_line(&mut out, &cat, true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        let line = result_line(&mut out, &cat, false);
        assert!(line.starts_with("{\"correct\": false"));
    }

    /// BENCHMARK.json at the repository root lists this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let all: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
        for (name, unit) in &all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\": ").count(),
            all.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
