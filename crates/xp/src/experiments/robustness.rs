//! Fault-injection robustness: the degradation-curve sweep behind the
//! registry's `robustness` experiment and its graceful-degradation gate.

use crate::experiment::{metric, ExperimentOutput, XpEnv};
use gpm_faults::FaultPlan;
use gpm_harness::env::ExecEnv;
use gpm_harness::metrics::Comparison;
use gpm_harness::{EvalContext, Scheme};
use gpm_mpc::HorizonMode;
use gpm_trace::{AggregateSink, TraceSink};
use gpm_workloads::{workload_by_name, Workload};
use std::fmt::Write;
use std::sync::Arc;

/// Fault-plan seed shared by every swept point.
const SEED: u64 = 0xFA_15AFE;

/// Gate threshold on wall-time slowdown at rates ≤ 0.10.
const MAX_SLOWDOWN: f64 = 1.5;

/// One point of the degradation curve.
struct DegradationPoint {
    /// Per-channel fault rate swept at this point.
    rate: f64,
    /// Energy savings vs the clean Turbo Core baseline, percent.
    energy_savings_pct: f64,
    /// Baseline wall time over degraded wall time (< 1 = slowdown).
    speedup: f64,
    /// Throughput-constraint violation, percent of baseline wall time
    /// (0 when the degraded run is at least as fast as the baseline).
    violation_pct: f64,
    /// Faults that fired across both scheme invocations.
    fault_injections: u64,
    /// Detected-and-recovered events (sanitization, retries, discards).
    recoveries: u64,
}

/// Sweeps `workload` under `scheme` across `rates`, one fresh
/// deterministic [`FaultPlan`] per point, and records the degradation
/// curve.
fn degradation_curve(
    ctx: &EvalContext,
    workload: &Workload,
    scheme: Scheme,
    rates: &[f64],
) -> Vec<DegradationPoint> {
    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::uniform(SEED, rate);
            let agg = Arc::new(AggregateSink::new());
            let sink: Arc<dyn TraceSink> = agg.clone();
            let env = ExecEnv::new().with_trace(sink).with_fault_plan(plan);
            let out = env.evaluate(ctx, workload, scheme);
            let summary = agg.summary();
            let c = Comparison::between(&out.baseline, &out.measured);
            DegradationPoint {
                rate,
                energy_savings_pct: c.energy_savings_pct,
                speedup: c.speedup,
                violation_pct: (1.0 / c.speedup - 1.0).max(0.0) * 100.0,
                fault_injections: summary.fault_injections,
                recoveries: summary.recoveries,
            }
        })
        .collect()
}

/// Graceful-degradation gate: every point must have finite accounting,
/// points at rate ≤ 0.10 must keep the slowdown under [`MAX_SLOWDOWN`],
/// and every nonzero rate must actually fire faults. Returns the list
/// of violations (empty = pass).
fn degradation_gate_failures(curve: &[DegradationPoint]) -> Vec<String> {
    let mut failures = Vec::new();
    for p in curve {
        if !p.speedup.is_finite() || !p.energy_savings_pct.is_finite() || p.speedup <= 0.0 {
            failures.push(format!("non-finite accounting at rate {}", p.rate));
        }
        if p.rate <= 0.10 && 1.0 / p.speedup > MAX_SLOWDOWN {
            failures.push(format!(
                "slowdown {:.3} exceeds {MAX_SLOWDOWN} at rate {}",
                1.0 / p.speedup,
                p.rate
            ));
        }
        if p.rate > 0.0 && p.fault_injections == 0 {
            failures.push(format!("no faults fired at rate {}", p.rate));
        }
    }
    failures
}

/// Renders one workload's curve as a sweep table.
fn render_curve(workload: &str, curve: &[DegradationPoint]) -> String {
    let mut out = format!("Robustness sweep: MPC(RF) on {workload}\n");
    writeln!(
        out,
        "{:>6}  {:>9}  {:>7}  {:>9}  {:>7}  {:>9}",
        "rate", "savings%", "speedup", "violat.%", "faults", "recovered"
    )
    .unwrap();
    for p in curve {
        writeln!(
            out,
            "{:>6.3}  {:>9.2}  {:>7.3}  {:>9.2}  {:>7}  {:>9}",
            p.rate,
            p.energy_savings_pct,
            p.speedup,
            p.violation_pct,
            p.fault_injections,
            p.recoveries
        )
        .unwrap();
    }
    out
}

/// The registry experiment: sweeps kmeans (fast) or one workload per
/// class (full) across the fault rates on one context, with the
/// graceful-degradation gate folded into `gate_failures`. The headline
/// metrics come from the kmeans curve. Builds its own context so the
/// baseline-cache assertion stays exact (the shared registry context is
/// warmed by other experiments).
pub fn robustness(env: &XpEnv) -> ExperimentOutput {
    let (names, rates): (&[&str], &[f64]) = if env.is_fast() {
        (&["kmeans"], &[0.0, 0.05, 0.10, 0.20])
    } else {
        (
            &["kmeans", "Spmv", "hybridsort", "lulesh"],
            &[0.0, 0.02, 0.05, 0.10, 0.20],
        )
    };
    let ctx = EvalContext::build(env.options());
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };

    let mut out = String::new();
    let mut failures = Vec::new();
    let mut curves = Vec::new();
    for name in names {
        let workload = workload_by_name(name).expect("suite workload");
        let curve = degradation_curve(&ctx, &workload, scheme, rates);
        out.push_str(&render_curve(workload.name(), &curve));
        failures.extend(
            degradation_gate_failures(&curve)
                .into_iter()
                .map(|f| format!("{name}: {f}")),
        );
        curves.push(curve);
    }

    // The sweep shares one context, so each workload's baseline must
    // have been simulated exactly once, with every later rate a cache
    // hit.
    let cache = ctx.baseline_stats();
    let computes = names.len() as u64;
    let hits = computes * (rates.len() as u64 - 1);
    if cache.computed != computes || cache.hits != hits {
        failures.push(format!(
            "baseline cache expected {computes} computes / {hits} hits, got {} / {}",
            cache.computed, cache.hits
        ));
    }
    writeln!(
        out,
        "baseline cache: {} simulated, {} served from cache",
        cache.computed, cache.hits
    )
    .unwrap();
    for f in &failures {
        writeln!(out, "GATE: {f}").unwrap();
    }
    let kmeans = &curves[0];
    let clean = &kmeans[0];
    let worst = kmeans.last().unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("clean_savings_pct", clean.energy_savings_pct),
            metric("worst_rate_speedup", worst.speedup),
            metric("worst_rate_faults", worst.fault_injections as f64),
            metric("gate_failures", failures.len() as f64),
        ],
    )
}
