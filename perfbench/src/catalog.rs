//! The metric catalog: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names and
//! units (a unit test keeps the two in step).

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("decisions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("energy_savings_pct", "%"),
    ("sim_speedup", "x"),
    ("to_capture_pct", "%"),
    ("model_time_mape_pct", "%"),
    ("model_power_mape_pct", "%"),
    ("fail_safe_pct", "%"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.calls_per_s", "1/s"),
    ("untraced.calls_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("harness.governor_build_us", "us"),
    ("harness.governor_builds", "count"),
    ("core.select_calls", "count"),
    ("core.select_us", "us"),
    ("core.select_p50_us", "us"),
    ("core.select_p99_us", "us"),
    ("core.observe_us", "us"),
    ("core.end_run_us", "us"),
    ("model.predict_calls", "count"),
    ("model.predict_batch_calls", "count"),
    ("model.predict_candidates", "count"),
    ("model.predict_us", "us"),
    ("search.self_us", "us"),
    ("search.evals_per_decision", "count"),
    ("core.mean_horizon", "count"),
    ("sim.evaluate_calls", "count"),
    ("sim.evaluate_us", "us"),
    ("harness.replay_self_us", "us"),
    ("harness.replays", "count"),
    ("to.evaluate_ms", "ms"),
    ("to.plan_ms", "ms"),
    ("to.plans", "count"),
    ("ppk_oracle.evaluate_ms", "ms"),
    ("mpc_oracle.evaluate_ms", "ms"),
    ("oracle.apps", "count"),
    ("harness.baseline_ms", "ms"),
    ("sim.evaluations", "count"),
    ("harness.campaign_ms", "ms"),
    ("model.train_and_evaluate_ms", "ms"),
    ("model.fits", "count"),
    ("model.trees", "count"),
    ("model.samples", "count"),
    ("fleet.run_ms", "ms"),
    ("fleet.runs", "count"),
    ("fleet.jobs", "count"),
    ("fleet.workers", "count"),
    ("fleet.shard_span_ms", "ms"),
    ("fleet.dispatch_span_ms", "ms"),
    ("fleet.hill_climb_span_ms", "ms"),
    ("harness.baseline_hits", "count"),
    ("harness.baseline_computed", "count"),
    ("faults.injected", "count"),
    ("trace.fail_safe_events", "count"),
    ("core.prediction_anomalies", "count"),
    ("input.apps", "count"),
    ("input.kernels", "count"),
    ("input.regular_pct", "%"),
    ("input.repeating_pct", "%"),
    ("input.non_repeating_pct", "%"),
    ("input.input_varying_pct", "%"),
    ("input.baseline_hit_pct", "%"),
    ("input.baseline_resolutions", "count"),
    ("input.fault_rate_pct", "%"),
    ("input.configs_per_to_plan", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(section: &str) -> Vec<(String, String)> {
        manifest()[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_names_and_units_match_the_manifest() {
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
    }

    #[test]
    fn per_layer_names_and_units_match_the_manifest() {
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn manifest_lists_every_workload() {
        let names: Vec<String> = manifest()["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("name").to_string())
            .collect();
        let ours: Vec<String> = crate::WORKLOADS.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ours);
    }
}
