//! Telemetry overhead study: the gate that keeps the observability
//! layer honest. Measures the hot-path cost of a live registry against
//! a clean environment (interleaved A/B, min-of-rounds), verifies the
//! instrumented run is decision-byte-identical, and round-trips one
//! untimed traced pass through the Prometheus text exposition validator.

use crate::experiment::{metric, ExperimentOutput, XpEnv};
use gpm_harness::report::{fmt, prometheus, Table};
use gpm_harness::{EvalContext, ExecEnv, Scheme};
use gpm_mpc::HorizonMode;
use gpm_telemetry::{validate_prometheus, Telemetry, TelemetrySnapshot};
use gpm_trace::{AggregateSink, TraceSummary};
use gpm_workloads::{workload_by_name, Workload};
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

/// Default ceiling on acceptable hot-path overhead, percent
/// (`GPM_TELEMETRY_MAX_OVERHEAD_PCT` overrides). The paper-fidelity
/// budget is 5%; fast mode shrinks decisions to a few microseconds, so
/// the fixed ~100 ns/span cost is relatively inflated and gets
/// headroom. Debug builds inflate the per-span constant further (no
/// inlining, TLS checks) and loosen both ceilings; the release
/// `telemetry_overhead` bench binary is the tight production gate.
fn max_overhead_pct(fast: bool) -> f64 {
    if let Some(pct) = std::env::var("GPM_TELEMETRY_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return pct;
    }
    match (fast, cfg!(debug_assertions)) {
        (false, false) => 5.0,
        (false, true) => 25.0,
        (true, false) => 12.0,
        (true, true) => 40.0,
    }
}

/// `telemetry_overhead`: A/B-measures the cost of running every MPC
/// evaluation under a live telemetry registry and gates that
/// instrumentation stays in the noise, never changes a decision byte,
/// and exports valid Prometheus text.
pub fn telemetry_overhead(env: &XpEnv) -> ExperimentOutput {
    let workloads: Vec<_> = if env.is_fast() {
        ["kmeans", "lud"].iter().map(|n| name_of(n)).collect()
    } else {
        ["kmeans", "lud", "Spmv", "hybridsort"]
            .iter()
            .map(|n| name_of(n))
            .collect()
    };
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    let rounds = if env.is_fast() { 5 } else { 9 };

    // Interleaved A/B: each round times one full pass (all workloads)
    // clean, then one instrumented. min-of-rounds on both sides
    // discards scheduler noise; interleaving cancels drift (thermal,
    // cache warm-up) that would bias a block design. The loop runs on
    // its own thread because the runner scopes this experiment under
    // the per-experiment registry — on that thread even a plain
    // `ExecEnv` fires spans, and the clean side must be truly dark.
    let telemetry = Telemetry::new();
    let (clean_fp, instrumented_fp, best_clean_s, best_instr_s) = std::thread::scope(|s| {
        s.spawn(|| {
            let clean_env = ExecEnv::new();
            let instrumented_env = ExecEnv::new().with_telemetry(telemetry.clone());
            let mut clean_fp = Vec::new();
            let mut instrumented_fp = Vec::new();
            let mut best_clean_s = f64::INFINITY;
            let mut best_instr_s = f64::INFINITY;
            for round in 0..rounds {
                let t0 = Instant::now();
                let a: Vec<String> = workloads
                    .iter()
                    .map(|w| decisions(&clean_env, env, w, scheme))
                    .collect();
                best_clean_s = best_clean_s.min(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                let b: Vec<String> = workloads
                    .iter()
                    .map(|w| decisions(&instrumented_env, env, w, scheme))
                    .collect();
                best_instr_s = best_instr_s.min(t1.elapsed().as_secs_f64());
                if round == 0 {
                    clean_fp = a;
                    instrumented_fp = b;
                }
            }
            (clean_fp, instrumented_fp, best_clean_s, best_instr_s)
        })
        .join()
        .expect("telemetry A/B thread panicked")
    });
    let overhead_pct = ((best_instr_s - best_clean_s) / best_clean_s * 100.0).max(0.0);
    let ceiling = max_overhead_pct(env.is_fast());
    let byte_identical = clean_fp == instrumented_fp;

    // Round-trip: one untimed traced pass must render as format-valid
    // Prometheus text exposition, with one dispatch span per traced
    // dispatch.
    let (summary, snapshot) = ledger_pass(env.ctx(), &workloads, scheme);
    let prom_check = validate_prometheus(&prometheus(&summary, &snapshot));
    let dispatches = summary.dispatches;
    let dispatch_spans = snapshot.span("env.dispatch").map_or(0, |s| s.count);

    let mut table = Table::new(vec!["side", "best pass s"]);
    table.row(vec!["clean".into(), fmt(best_clean_s, 4)]);
    table.row(vec!["instrumented".into(), fmt(best_instr_s, 4)]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Telemetry overhead — {} workloads x {} rounds, interleaved A/B, min-of-rounds",
        workloads.len(),
        rounds
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "hot-path overhead: {}% (ceiling {}%)",
        fmt(overhead_pct, 2),
        fmt(ceiling, 1)
    );
    let _ = writeln!(
        out,
        "decisions: {} under instrumentation",
        if byte_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    match &prom_check {
        Ok(stats) => {
            let _ = writeln!(
                out,
                "prometheus export: valid ({} families, {} samples, {} histograms); \
                 {dispatches} dispatches / {dispatch_spans} dispatch spans",
                stats.families, stats.samples, stats.histograms
            );
        }
        Err(e) => {
            let _ = writeln!(out, "prometheus export: INVALID — {e}");
        }
    }

    ExperimentOutput::new(
        out,
        vec![
            metric("overhead_pct", overhead_pct),
            metric(
                "overhead_ok",
                if overhead_pct <= ceiling { 1.0 } else { 0.0 },
            ),
            metric("byte_identical", if byte_identical { 1.0 } else { 0.0 }),
            metric(
                "prometheus_valid",
                if prom_check.is_ok() { 1.0 } else { 0.0 },
            ),
            metric(
                "spans_match_dispatches",
                if dispatches > 0 && dispatches == dispatch_spans {
                    1.0
                } else {
                    0.0
                },
            ),
        ],
    )
}

/// One untimed pass of `scheme` over `workloads` under a fresh registry
/// and trace aggregate: the trace summary and span profile the
/// Prometheus page renders from. The environment enters its own
/// registry for every replay, so a registry the caller entered sees none
/// of the pass's spans.
pub fn ledger_pass(
    ctx: &EvalContext,
    workloads: &[Workload],
    scheme: Scheme,
) -> (TraceSummary, TelemetrySnapshot) {
    let telemetry = Telemetry::new();
    let sink = Arc::new(AggregateSink::new());
    let exec = ExecEnv::new()
        .with_trace(sink.clone())
        .with_telemetry(telemetry.clone());
    for w in workloads {
        exec.evaluate(ctx, w, scheme);
    }
    (sink.summary(), telemetry.snapshot())
}

fn name_of(n: &str) -> gpm_workloads::Workload {
    workload_by_name(n).unwrap_or_else(|| panic!("workload {n} not in suite"))
}

/// Evaluates one workload and fingerprints the decided trajectory —
/// the byte-identity side of the A/B.
fn decisions(exec: &ExecEnv, env: &XpEnv, w: &gpm_workloads::Workload, scheme: Scheme) -> String {
    let out = exec.evaluate(env.ctx(), w, scheme);
    serde_json::to_string(&out.measured.per_kernel).expect("trajectory serializes")
}
