//! `offline-oracle`: the limit studies behind Figures 4 and 12. Every app
//! of a seeded mix runs under Theoretically Optimal, PPK(oracle) and
//! MPC(oracle) on the fast context; the simulator's sweep of the
//! 336-point space and the TO solver dominate, and the Random Forest is
//! never consulted.

use crate::bench::{
    self, app_set, check_dispatched, timed_setup, Digest, Reference, Report, Tally,
};
use crate::quality::Quality;
use gpm_faults::FaultyPredictor;
use gpm_governors::{plan_optimal, OverheadModel, PpkGovernor};
use gpm_harness::{Comparison, EvalContext, EvalOptions, ExecEnv, Scheme, SchemeOutcome};
use gpm_mpc::{HorizonMode, MpcConfig, MpcGovernor};
use gpm_sim::OraclePredictor;
use gpm_workloads::Workload;
use std::time::{Duration, Instant};

/// The percentile reported as `call_tail_ms`. About 450 calls are timed per run, so p95 has about 20 beyond it.
pub const TAIL_PERCENTILE: f64 = 95.0;
/// Generated apps added to the 15 suite benchmarks: each category at
/// each kernel count of [`bench::GENERATED_LENGTHS`] four times.
pub const GENERATED_APPS: usize = 64;

/// The three schemes, in evaluation order.
const SCHEMES: [Scheme; 3] = [
    Scheme::TheoreticallyOptimal,
    Scheme::PpkOracle,
    Scheme::MpcOracle,
];

/// The three outcomes of one app.
type Outcomes = [SchemeOutcome; 3];

/// Evaluates the three schemes on `app`, adding each one's host time to
/// `times`.
fn evaluate(
    env: &ExecEnv,
    ctx: &EvalContext,
    app: &Workload,
    times: &mut [Duration; 3],
) -> Outcomes {
    let mut slot = 0;
    SCHEMES.map(|scheme| {
        let start = Instant::now();
        let out = env.evaluate(ctx, app, scheme);
        times[slot] += start.elapsed();
        slot += 1;
        out
    })
}

/// Checks every replay of the three outcomes and returns their digest
/// and decision count.
fn check(app: &Workload, outs: &Outcomes) -> Result<(u64, u64), String> {
    let mut d = Digest::default();
    let mut decisions = 0u64;
    for out in outs {
        for run in out.profiling.iter().chain(std::iter::once(&out.measured)) {
            check_dispatched(run, app)?;
            d.run(run);
            decisions += run.per_kernel.len() as u64;
        }
    }
    Ok((d.value(), decisions))
}

/// Builds the two oracle governors exactly as `ExecEnv::evaluate` does,
/// and drops them: the governor-construction cost of this workload.
fn build_oracle_governors(env: &ExecEnv, ctx: &EvalContext) {
    let sim = &ctx.sim;
    let ppk = PpkGovernor::new(
        FaultyPredictor::new(OraclePredictor::new(sim), env.fault_plan()),
        sim.params().clone(),
        ctx.campaign_space().clone(),
        OverheadModel::free(),
    )
    .with_truth_snapshots(true);
    let cfg = MpcConfig {
        horizon_mode: HorizonMode::Full,
        overhead: OverheadModel::free(),
        store_truth: true,
        ..MpcConfig::default()
    };
    let mpc = MpcGovernor::new(
        FaultyPredictor::new(OraclePredictor::new(sim), env.fault_plan()),
        sim.params().clone(),
        cfg,
    );
    std::hint::black_box((ppk, mpc));
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report, tally: &mut Tally) {
    let apps = app_set(seed, GENERATED_APPS);
    bench::record_mix(report, &apps);
    let env = ExecEnv::new();
    let (ctx, setup_s) = timed_setup(|| {
        let ctx = EvalContext::build(EvalOptions::fast());
        for app in &apps {
            env.baseline(&ctx, app);
        }
        ctx
    });
    report.set("setup_s", setup_s);
    report.set("model_time_mape_pct", ctx.rf_report.time_mape * 100.0);
    report.set("model_power_mape_pct", ctx.rf_report.power_mape * 100.0);
    report.set(
        "input.configs_per_to_plan",
        ctx.campaign_space().len() as f64,
    );

    let mut reference = Reference::new(apps.len());
    let mut quality = Quality::new(apps.len());
    let mut to_quality = Quality::new(apps.len());
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut call = |i: usize, _: bool| {
        let app = &apps[i];
        let outs = evaluate(&env, &ctx, app, &mut [Duration::ZERO; 3]);
        let (digest, decisions) = check(app, &outs)?;
        reference.check(i, digest, app.name())?;
        let [to, _, mpc] = &outs;
        to_quality.first(i, &[Comparison::between(&to.baseline, &to.measured)], 0, 0);
        let stats = mpc
            .mpc_stats
            .as_ref()
            .ok_or("MPC(oracle) without statistics")?;
        let mpc_decisions = (mpc.measured.per_kernel.len() + app.len()) as u64;
        quality.first(
            i,
            &[Comparison::between(&mpc.baseline, &mpc.measured)],
            stats.fail_safe_decisions as u64,
            mpc_decisions,
        );
        Ok(decisions)
    };
    let before = ctx.baseline_stats();
    bench::reference_pass(tally, apps.len(), &mut call);
    bench::record_baseline_hits(report, before, ctx.baseline_stats());
    let timed = bench::timed_passes(tally, untraced_s, TAIL_PERCENTILE, apps.len(), &mut call);
    timed.record(report);
    report.set("peak_rss_mb", bench::peak_rss_mb());
    // TO is this workload's scheme of record: its savings and speedup are
    // the headline, and MPC(oracle)'s savings are expressed as its share.
    let to = to_quality.mean();
    quality.record(report);
    report.set("to_capture_pct", quality.capture_pct(to.energy_savings_pct));
    report.set("energy_savings_pct", to.energy_savings_pct);
    report.set("sim_speedup", to.speedup);
    report.note("digest", format!("\"{:016x}\"", reference.combined()));

    if traced {
        let mut scheme_time = [Duration::ZERO; 3];
        let (mut plan, mut baseline, mut build) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut plans, mut builds, mut evaluations) = (0u64, 0u64, 0u64);
        // The direct TO plan and the governor builds are probed once per
        // app in the reference pass, so timed traced calls do the same work
        // as untimed ones and the call-rate difference is the tracing cost.
        let mut call = |i: usize, timed: bool| {
            let app = &apps[i];
            let start = Instant::now();
            let (_, target) = env.baseline(&ctx, app);
            let base = start.elapsed();
            if !timed {
                let start = Instant::now();
                build_oracle_governors(&env, &ctx);
                build += start.elapsed();
                builds += 2;
                let start = Instant::now();
                let to_plan = plan_optimal(
                    &ctx.sim,
                    app.kernels(),
                    ctx.campaign_space(),
                    target.total_time_s(),
                );
                plan += start.elapsed();
                plans += 1;
                evaluations += (app.len() * ctx.campaign_space().len()) as u64;
                if to_plan.configs.len() != app.len() {
                    return Err(format!(
                        "{}: TO planned {} of {} kernels",
                        app.name(),
                        to_plan.configs.len(),
                        app.len()
                    ));
                }
            }
            let mut times = [Duration::ZERO; 3];
            let outs = evaluate(&env, &ctx, app, &mut times);
            let (digest, decisions) = check(app, &outs)?;
            reference.check(i, digest, app.name())?;
            if timed {
                baseline += base;
                for (acc, t) in scheme_time.iter_mut().zip(times) {
                    *acc += t;
                }
            }
            Ok(decisions)
        };
        bench::reference_pass(tally, apps.len(), &mut call);
        let traced_loop =
            bench::timed_passes(tally, seconds / 2.0, TAIL_PERCENTILE, apps.len(), &mut call);
        let passes = traced_loop.pass_call_rates.len() as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / passes;
        report.set("to.evaluate_ms", ms(scheme_time[0]));
        report.set("ppk_oracle.evaluate_ms", ms(scheme_time[1]));
        report.set("mpc_oracle.evaluate_ms", ms(scheme_time[2]));
        report.set("to.plan_ms", plan.as_secs_f64() * 1e3);
        report.set("to.plans", plans as f64);
        report.set("oracle.apps", apps.len() as f64);
        report.set("harness.baseline_ms", ms(baseline));
        report.set(
            "harness.governor_build_us",
            build.as_secs_f64() * 1e6 / builds.max(1) as f64,
        );
        report.set("harness.governor_builds", builds as f64);
        report.set("sim.evaluations", evaluations as f64);
        bench::record_overhead(report, &timed, &traced_loop);
    }
}
