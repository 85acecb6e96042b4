//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("cpu_ms_per_eval", "ms"),
    ("done_p50_s", "s"),
    ("done_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run; a layer a workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grid.cells", "count"),
    ("grid.worker_idle_share", "ratio"),
    ("zoo.build_ms", "ms"),
    ("detect.calls", "count"),
    ("detect.items_per_call", "count"),
    ("detect.us_per_item", "us"),
    ("detect.share", "ratio"),
    ("cache.incremental_share", "ratio"),
    ("cache.clean_hit_share", "ratio"),
    ("cache.cells_per_eval", "count"),
    ("cache.global_full_share", "ratio"),
    ("problem.us_per_eval", "us"),
    ("nsga2.evaluate_share", "ratio"),
    ("nsga2.sort_share", "ratio"),
    ("nsga2.select_share", "ratio"),
    ("store.write_ms", "ms"),
    ("tensor.arena_misses", "count"),
    ("tensor.arena_high_water_mb", "MiB"),
    ("admit.submit_p50_ms", "ms"),
    ("admit.submit_p90_ms", "ms"),
    ("admit.refused", "count"),
    ("router.poll_p50_ms", "ms"),
    ("router.keepalive_poll_ms", "ms"),
    ("router.cpu_ms_per_job", "ms"),
    ("router.max_shard_share", "ratio"),
    ("queue.wait_p50_s", "s"),
    ("queue.wait_p90_s", "s"),
    ("worker.run_p50_s", "s"),
    ("worker.run_p90_s", "s"),
    ("shard.cpu_ms_per_job", "ms"),
    ("traffic.jobs", "count"),
    ("traffic.dup_share", "ratio"),
    ("traffic.detr_share", "ratio"),
    ("traffic.cached_share", "ratio"),
    ("gen.late_p90_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("host.yard_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One run's outcome: operations attempted and failed, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed operation.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Books one failed operation.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }
}

/// Renders a metric value as a JSON number. A latency percentile that
/// refused or failed jobs pushed to infinity prints as the largest
/// finite double (the run is already counted as failed).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value > 0.0 {
        format!("{:e}", f64::MAX)
    } else {
        "0".to_string()
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// with exactly the metrics of `names`.
pub fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_named_metric() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.metrics.insert("setup_s", 0.25);
        outcome.metrics.insert("done_p90_s", f64::INFINITY);
        let line = result_line(&outcome, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"done_p90_s\": {\"value\": 1.7976931348623157e308"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        outcome.fail("mismatch".into());
        assert!(result_line(&outcome, END_TO_END).starts_with("{\"correct\": false"));
    }
}
