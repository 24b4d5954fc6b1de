//! Entry-point crate for the reproduction and benchmark binaries.
//!
//! The experiment implementations, suite evaluation helpers, and
//! artifact emission live in [`gpm_xp`]; the `reproduce` binary drives
//! the registry through [`gpm_xp::cli::reproduce_main`] — every
//! figure, table and ablation runs as `reproduce --filter NAME`, which
//! prints its report. The historical `gpm_bench::*` helper paths remain
//! valid as re-exports for the standalone binaries (`trace_report`,
//! `perf_smoke`, `robustness`, `fleet_bench`, `telemetry_overhead`).

pub use gpm_xp::artifact::{emit_artifact, emit_svg, ARTIFACT_SCHEMA_VERSION};
pub use gpm_xp::suite::{
    bench_context, evaluate_suite, evaluate_suite_with, fast_from_env, figure_context,
    relative_rows, suite_average, BenchRow,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_harness::env::ExecEnv;
    use gpm_harness::metrics::Comparison;
    use gpm_harness::{EvalContext, EvalOptions, Scheme};
    use gpm_workloads::workload_by_name;

    #[test]
    fn reexported_suite_helpers_evaluate_end_to_end() {
        let ctx = EvalContext::build(EvalOptions::fast());
        let w = workload_by_name("NBody").unwrap();
        let outcome = ExecEnv::new().evaluate(&ctx, &w, Scheme::TheoreticallyOptimal);
        let c = Comparison::between(&outcome.baseline, &outcome.measured);
        assert!(c.energy_savings_pct > 0.0);
    }

    #[test]
    fn schema_version_is_reexported_and_stable() {
        assert_eq!(ARTIFACT_SCHEMA_VERSION, gpm_xp::ARTIFACT_SCHEMA_VERSION);
    }
}
