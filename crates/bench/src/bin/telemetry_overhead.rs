//! Telemetry hot-path overhead gate.
//!
//! A/B-measures the wall-clock cost of running the full MPC evaluation
//! loop under a live [`gpm_telemetry::Telemetry`] registry (spans and
//! the event ring) against a clean [`ExecEnv`], interleaved and
//! min-of-rounds so scheduler noise and thermal drift cancel. On top of the timing it verifies the
//! instrumented run is **decision-byte-identical** to the clean run, and
//! renders the Prometheus page from one extra untimed pass under a
//! registry and a trace aggregate, checking it validates and that its
//! `env.dispatch` span count equals the trace's dispatch count.
//!
//! Usage:
//!
//! ```text
//! telemetry_overhead [--fast] [--telemetry-out PATH]
//!                    [--trace-out PATH] [--folded-out PATH]
//! ```
//!
//! Emits `results/BENCH_telemetry.json` (the CI artifact), a
//! chrome://tracing JSON (`results/telemetry_trace.json`, loadable in
//! Perfetto) and a folded-stack file (`results/telemetry_flame.folded`,
//! pipe through `flamegraph.pl`) from the instrumented side's event
//! ring; `--telemetry-out` additionally writes the Prometheus page. Exits non-zero when overhead exceeds
//! `GPM_TELEMETRY_MAX_OVERHEAD_PCT` (default 5% at full evaluation
//! depth, 12% under `--fast` where decisions shrink to microseconds and
//! the fixed ~100 ns/span cost is relatively inflated), when any
//! decision byte diverges, or when the Prometheus export fails
//! validation. Build with `--release`; debug numbers are meaningless.

use gpm_bench::{bench_context, emit_artifact, fast_from_env};
use gpm_harness::env::ExecEnv;
use gpm_harness::report::prometheus;
use gpm_harness::{EvalContext, Scheme};
use gpm_mpc::HorizonMode;
use gpm_telemetry::{validate_prometheus, Telemetry};
use gpm_workloads::{workload_by_name, Workload};
use gpm_xp::experiments::telemetry::ledger_pass;
use gpm_xp::PhaseRow;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct TelemetryBenchReport {
    fast: bool,
    workloads: Vec<String>,
    rounds: usize,
    best_clean_s: f64,
    best_instrumented_s: f64,
    overhead_pct: f64,
    max_overhead_pct: f64,
    overhead_ok: bool,
    byte_identical: bool,
    prometheus_valid: bool,
    prometheus_families: usize,
    prometheus_samples: usize,
    dispatches: u64,
    dispatch_spans: u64,
    spans_match_dispatches: bool,
    phases: Vec<PhaseRow>,
}

struct Args {
    fast: bool,
    telemetry_out: Option<String>,
    trace_out: String,
    folded_out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        fast: fast_from_env(),
        telemetry_out: None,
        trace_out: "results/telemetry_trace.json".to_string(),
        folded_out: "results/telemetry_flame.folded".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fast" => args.fast = true,
            "--telemetry-out" => {
                args.telemetry_out = Some(it.next().expect("--telemetry-out needs a path"));
            }
            "--trace-out" => args.trace_out = it.next().expect("--trace-out needs a path"),
            "--folded-out" => args.folded_out = it.next().expect("--folded-out needs a path"),
            other => panic!("unknown flag {other}; see module docs for usage"),
        }
    }
    args
}

/// The overhead ceiling, percent. The production budget is 5%; fast
/// mode gets headroom because it shrinks each decision to microseconds
/// while the per-span cost stays fixed.
fn ceiling_pct(fast: bool) -> f64 {
    std::env::var("GPM_TELEMETRY_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 12.0 } else { 5.0 })
}

/// Evaluates one workload, returning the serialized decided trajectory
/// — the byte-identity fingerprint for that side of the A/B.
fn decisions(env: &ExecEnv, ctx: &EvalContext, w: &Workload, scheme: Scheme) -> String {
    let out = env.evaluate(ctx, w, scheme);
    serde_json::to_string(&out.measured.per_kernel).expect("trajectory serializes")
}

fn write_text(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).expect("create artifact directory");
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

fn main() -> ExitCode {
    let args = parse_args();
    let ctx = bench_context(args.fast);
    let names: &[&str] = if args.fast {
        &["kmeans", "lud"]
    } else {
        &["kmeans", "lud", "Spmv", "hybridsort"]
    };
    let workloads: Vec<Workload> = names
        .iter()
        .map(|n| workload_by_name(n).unwrap_or_else(|| panic!("workload {n} not in suite")))
        .collect();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    let rounds = if args.fast { 5 } else { 7 };

    // The event ring feeds the chrome-trace artifact; sized to hold the
    // full campaign's span stream comfortably.
    let telemetry = Telemetry::with_events(1 << 16);
    let clean_env = ExecEnv::new();
    let instrumented_env = ExecEnv::new().with_telemetry(telemetry.clone());

    // Interleaved A/B, min-of-rounds: each round times one full pass
    // over the workload list on each side; the minimum across rounds on
    // each side discards scheduler noise, and interleaving cancels
    // slow drift that would bias a block design.
    let mut clean_fp = Vec::new();
    let mut instrumented_fp = Vec::new();
    let mut best_clean_s = f64::INFINITY;
    let mut best_instr_s = f64::INFINITY;
    for round in 0..rounds {
        let t0 = Instant::now();
        let a: Vec<String> = workloads
            .iter()
            .map(|w| decisions(&clean_env, &ctx, w, scheme))
            .collect();
        best_clean_s = best_clean_s.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let b: Vec<String> = workloads
            .iter()
            .map(|w| decisions(&instrumented_env, &ctx, w, scheme))
            .collect();
        best_instr_s = best_instr_s.min(t1.elapsed().as_secs_f64());
        if round == 0 {
            clean_fp = a;
            instrumented_fp = b;
        }
    }

    let overhead_pct = ((best_instr_s - best_clean_s) / best_clean_s * 100.0).max(0.0);
    let ceiling = ceiling_pct(args.fast);
    let byte_identical = clean_fp == instrumented_fp;

    let snapshot = telemetry.snapshot();
    let phases = gpm_xp::phase_table(&snapshot);
    let (summary, page_spans) = ledger_pass(&ctx, &workloads, scheme);
    let prom = prometheus(&summary, &page_spans);
    let prom_check = validate_prometheus(&prom);
    let dispatches = summary.dispatches;
    let dispatch_spans = page_spans.span("env.dispatch").map_or(0, |s| s.count);
    let spans_match = dispatches > 0 && dispatches == dispatch_spans;

    println!(
        "telemetry overhead ({} workloads x {rounds} rounds, {}):",
        workloads.len(),
        if args.fast { "fast" } else { "full" }
    );
    println!("  clean        : {best_clean_s:.4} s best pass");
    println!("  instrumented : {best_instr_s:.4} s best pass");
    println!("  overhead     : {overhead_pct:.2}% (ceiling {ceiling:.1}%)");
    println!("  phase profile:");
    for p in &phases {
        println!(
            "    {:<22} {:>8} spans  {:>10.2} ms total  {:>10.2} ms self",
            p.phase, p.count, p.total_ms, p.self_ms
        );
    }

    write_text(&args.trace_out, &telemetry.chrome_trace());
    write_text(&args.folded_out, &snapshot.to_folded());
    if let Some(path) = &args.telemetry_out {
        write_text(path, &prom);
    }

    let (families, samples) = match &prom_check {
        Ok(stats) => (stats.families, stats.samples),
        Err(e) => {
            eprintln!("FAIL: prometheus export invalid — {e}");
            (0, 0)
        }
    };
    let report = TelemetryBenchReport {
        fast: args.fast,
        workloads: names.iter().map(|s| s.to_string()).collect(),
        rounds,
        best_clean_s,
        best_instrumented_s: best_instr_s,
        overhead_pct,
        max_overhead_pct: ceiling,
        overhead_ok: overhead_pct <= ceiling,
        byte_identical,
        prometheus_valid: prom_check.is_ok(),
        prometheus_families: families,
        prometheus_samples: samples,
        dispatches,
        dispatch_spans,
        spans_match_dispatches: spans_match,
        phases,
    };
    emit_artifact("results/BENCH_telemetry.json", &report);

    let mut ok = true;
    if overhead_pct > ceiling {
        eprintln!("FAIL: telemetry overhead {overhead_pct:.2}% exceeds the {ceiling:.1}% ceiling");
        ok = false;
    }
    if !byte_identical {
        eprintln!("FAIL: instrumented decisions diverged from the clean run");
        ok = false;
    }
    if prom_check.is_err() {
        ok = false;
    }
    if !spans_match {
        eprintln!(
            "FAIL: env.dispatch span count {dispatch_spans} != trace dispatches {dispatches}"
        );
        ok = false;
    }
    if ok {
        println!(
            "PASS: telemetry overhead {overhead_pct:.2}% within {ceiling:.1}%, \
             decisions byte-identical, prometheus valid"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
