//! `fleet-faulted`: the sharded fleet service over seeded mixed
//! scenarios in which every third shard runs under a fault plan. Suite
//! names recur across jobs, so the baseline cache mostly hits; Turbo
//! Core and PPK jobs ride along with MPC ones, and the fault plans drive
//! the anomaly and fail-safe paths.

use crate::bench::{self, mix, timed_setup, Digest, Reference, Report, Tally};
use crate::quality::{to_savings, Quality};
use gpm_fleet::{FleetReport, FleetScenario, FleetService, JobReport, SchemeSpec};
use gpm_harness::{Comparison, EvalContext, EvalOptions, ExecEnv};
use gpm_telemetry::Telemetry;
use gpm_workloads::Workload;
use std::time::{Duration, Instant};

/// The percentile reported as `call_tail_ms`. Several hundred fleet runs are timed per run, so p95 has dozens beyond it.
pub const TAIL_PERCENTILE: f64 = 95.0;
/// Scenarios per pass, derived from the workload seed.
pub const SCENARIOS: usize = 4;
/// Devices per scenario; shards 2, 5 and 8 run under a fault plan.
pub const SHARDS: usize = 9;
/// Jobs queued on each device.
pub const JOBS_PER_SHARD: usize = 8;

/// A scenario with its materialized apps and the dispatches a full run
/// must make.
struct Scenario {
    plan: FleetScenario,
    apps: Vec<(Workload, SchemeSpec)>,
    dispatches: u64,
}

impl Scenario {
    fn new(seed: u64) -> Scenario {
        let plan = FleetScenario::mixed(seed, SHARDS, JOBS_PER_SHARD);
        let apps: Vec<(Workload, SchemeSpec)> = plan
            .shards
            .iter()
            .flat_map(|s| s.jobs.iter().map(|j| (j.workload.materialize(), j.scheme)))
            .collect();
        // Turbo Core replays once; every other scheme profiles, then
        // measures.
        let dispatches = apps
            .iter()
            .map(|(w, s)| w.len() as u64 * if *s == SchemeSpec::TurboCore { 1 } else { 2 })
            .sum();
        Scenario {
            plan,
            apps,
            dispatches,
        }
    }

    /// Checks a fleet report's shape; returns its digest.
    fn check(&self, report: &FleetReport) -> Result<u64, String> {
        let r = &report.rollup;
        if r.jobs != self.apps.len() || r.trace.dispatches != self.dispatches {
            return Err(format!(
                "{}: {} jobs and {} dispatches, expected {} and {}",
                self.plan.name,
                r.jobs,
                r.trace.dispatches,
                self.apps.len(),
                self.dispatches
            ));
        }
        let mut d = Digest::default();
        for b in report.to_artifact_json().bytes() {
            d.word(u64::from(b));
        }
        Ok(d.value())
    }

    /// The jobs governed by a power manager (not Turbo Core).
    fn governed<'a>(
        &'a self,
        report: &'a FleetReport,
    ) -> impl Iterator<Item = (&'a Workload, &'a JobReport)> {
        let jobs = report.shards.iter().flat_map(|s| &s.jobs);
        self.apps
            .iter()
            .zip(jobs)
            .filter(|((_, s), _)| *s != SchemeSpec::TurboCore)
            .map(|((w, _), j)| (w, j))
    }
}

/// Replays the MPC jobs of `scenario` through `ExecEnv::evaluate` under
/// their shard's fault plan, checks each against the fleet's job report,
/// and returns the prediction anomalies the governors rejected.
fn replay_mpc_jobs(
    ctx: &EvalContext,
    scenario: &Scenario,
    report: &FleetReport,
) -> Result<u64, String> {
    let mut anomalies = 0;
    for (plan, shard) in scenario.plan.shards.iter().zip(&report.shards) {
        let env = ExecEnv::new().with_fault_plan(plan.faults.clone());
        for (job, reported) in plan.jobs.iter().zip(&shard.jobs) {
            if !matches!(job.scheme, SchemeSpec::MpcAdaptive | SchemeSpec::MpcFull) {
                continue;
            }
            let out = env.evaluate(ctx, &job.workload.materialize(), job.scheme.to_scheme());
            if JobReport::from_outcome(&out) != *reported {
                return Err(format!(
                    "{}: replayed job {} differs from the fleet's",
                    plan.device, reported.workload
                ));
            }
            anomalies += out.mpc_stats.map_or(0, |s| s.prediction_anomalies);
        }
    }
    Ok(anomalies)
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report, tally: &mut Tally) {
    let scenarios: Vec<Scenario> = (0..SCENARIOS as u64)
        .map(|k| Scenario::new(mix(seed, 0x666c_0000 + k)))
        .collect();
    bench::record_mix(
        report,
        scenarios.iter().flat_map(|s| s.apps.iter().map(|(w, _)| w)),
    );
    let (service, setup_s) =
        timed_setup(|| FleetService::new(EvalContext::build(EvalOptions::fast())));
    report.set("setup_s", setup_s);
    let ctx = service.ctx();
    report.set("model_time_mape_pct", ctx.rf_report.time_mape * 100.0);
    report.set("model_power_mape_pct", ctx.rf_report.power_mape * 100.0);

    let mut reference = Reference::new(SCENARIOS);
    let mut quality = Quality::new(SCENARIOS);
    let mut reports: Vec<Option<FleetReport>> = vec![None; SCENARIOS];
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut call = |k: usize, _: bool| {
        let scenario = &scenarios[k];
        let fleet = service.run(&scenario.plan);
        reference.check(k, scenario.check(&fleet)?, &scenario.plan.name)?;
        let trace = &fleet.rollup.trace;
        let comps: Vec<Comparison> = scenario
            .governed(&fleet)
            .map(|(_, j)| Comparison {
                energy_savings_pct: j.energy_savings_pct,
                gpu_energy_savings_pct: 0.0,
                cpu_energy_savings_pct: 0.0,
                speedup: j.speedup,
            })
            .collect();
        quality.first(k, &comps, trace.fail_safe_events, trace.decisions);
        let decisions = trace.decisions;
        reports[k].get_or_insert(fleet);
        Ok(decisions)
    };
    let before = ctx.baseline_stats();
    bench::reference_pass(tally, SCENARIOS, &mut call);
    bench::record_baseline_hits(report, before, ctx.baseline_stats());
    let timed = bench::timed_passes(tally, untraced_s, TAIL_PERCENTILE, SCENARIOS, &mut call);
    timed.record(report);
    report.set("peak_rss_mb", bench::peak_rss_mb());
    let firsts: Vec<(&Scenario, &FleetReport)> = scenarios
        .iter()
        .zip(&reports)
        .filter_map(|(s, r)| r.as_ref().map(|r| (s, r)))
        .collect();
    let governed: Vec<&Workload> = firsts
        .iter()
        .flat_map(|(s, r)| s.governed(r).map(|(w, _)| w))
        .collect();
    quality.record(report);
    let to = to_savings(&ExecEnv::new(), ctx, &governed);
    report.set("to_capture_pct", quality.capture_pct(to));
    let injected: u64 = firsts.iter().map(|(_, r)| r.rollup.fault_injections).sum();
    let dispatched: u64 = firsts.iter().map(|(_, r)| r.rollup.trace.dispatches).sum();
    report.set(
        "input.fault_rate_pct",
        100.0 * injected as f64 / dispatched.max(1) as f64,
    );
    report.note("digest", format!("\"{:016x}\"", reference.combined()));

    if traced {
        let telemetry = Telemetry::new();
        let traced_service = FleetService::new(ctx.clone()).with_telemetry(telemetry.clone());
        let (mut run_time, mut dispatch_ns, mut climb_ns) = (Duration::ZERO, 0u64, 0u64);
        let (mut hits, mut computed, mut runs) = (0u64, 0u64, 0u64);
        let mut call = |k: usize, timed: bool| {
            let scenario = &scenarios[k];
            let stats = ctx.baseline_stats();
            let start = Instant::now();
            let fleet = traced_service.run(&scenario.plan);
            let elapsed = start.elapsed();
            let after = ctx.baseline_stats();
            reference.check(k, scenario.check(&fleet)?, &scenario.plan.name)?;
            runs += 1;
            if timed {
                run_time += elapsed;
                hits += after.hits - stats.hits;
                computed += after.computed - stats.computed;
                if let Some(snap) = &fleet.rollup.telemetry {
                    dispatch_ns += snap.span("env.dispatch").map_or(0, |s| s.total_ns);
                    climb_ns += snap.span("search.hill_climb").map_or(0, |s| s.total_ns);
                }
            }
            Ok(fleet.rollup.trace.decisions)
        };
        bench::reference_pass(tally, SCENARIOS, &mut call);
        let traced_loop =
            bench::timed_passes(tally, seconds / 2.0, TAIL_PERCENTILE, SCENARIOS, &mut call);
        let timed_runs = (traced_loop.pass_call_rates.len() * SCENARIOS) as f64;
        report.set("fleet.run_ms", run_time.as_secs_f64() * 1e3 / timed_runs);
        report.set("fleet.runs", timed_runs);
        report.set(
            "fleet.dispatch_span_ms",
            dispatch_ns as f64 / 1e6 / timed_runs,
        );
        report.set(
            "fleet.hill_climb_span_ms",
            climb_ns as f64 / 1e6 / timed_runs,
        );
        let shard_ns = telemetry
            .snapshot()
            .span("fleet.shard")
            .map_or(0, |s| s.total_ns);
        report.set(
            "fleet.shard_span_ms",
            shard_ns as f64 / 1e6 / runs.max(1) as f64,
        );
        report.set("harness.baseline_hits", hits as f64 / timed_runs);
        report.set("harness.baseline_computed", computed as f64 / timed_runs);

        let (mut jobs, mut fail_safe, mut anomalies) = (0usize, 0u64, 0u64);
        for (scenario, fleet) in &firsts {
            jobs += fleet.rollup.jobs;
            fail_safe += fleet.rollup.trace.fail_safe_events;
            match replay_mpc_jobs(ctx, scenario, fleet) {
                Ok(a) => anomalies += a,
                Err(e) => tally.fail(e),
            }
        }
        let n = firsts.len().max(1) as f64;
        report.set("fleet.jobs", jobs as f64 / n);
        report.set(
            "fleet.workers",
            traced_service.effective_workers(SHARDS) as f64,
        );
        report.set("faults.injected", injected as f64 / n);
        report.set("trace.fail_safe_events", fail_safe as f64 / n);
        report.set("core.prediction_anomalies", anomalies as f64 / n);
        bench::record_overhead(report, &timed, &traced_loop);
    }
}
