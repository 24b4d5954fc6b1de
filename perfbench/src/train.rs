//! `train`: retraining the deployed model. Each call runs the
//! measurement campaign over the training corpus and fits the Random
//! Forest with the deployed parameters at a seed derived from the
//! workload seed, then deploys the fresh model under MPC on the 15 suite
//! apps to check the decisions it makes. Fitting is nearly all of it.

use crate::bench::{self, check_dispatched, mix, timed_setup, Digest, Reference, Report, Tally};
use crate::quality::{to_savings, Quality};
use gpm_harness::{
    parallel_campaign_auto, training_kernels, training_space, Comparison, EvalContext, EvalOptions,
    ExecEnv, Scheme,
};
use gpm_hw::HwConfig;
use gpm_model::{RandomForestPredictor, TrainReport};
use gpm_mpc::HorizonMode;
use gpm_workloads::{suite, Workload};
use std::time::{Duration, Instant};

/// The percentile reported as `call_tail_ms`. Only about 12 calls fit in a run, so only a low percentile has ten beyond it.
pub const TAIL_PERCENTILE: f64 = 10.0;
/// Fit seeds per pass, derived from the workload seed.
pub const FITS_PER_PASS: usize = 2;

const SCHEME: Scheme = Scheme::MpcRf {
    horizon: HorizonMode::Adaptive { alpha: 0.05 },
};

fn report_digest(d: &mut Digest, r: &TrainReport) {
    for x in [r.time_mape, r.power_mape, r.time_r2, r.power_r2] {
        d.float(x);
    }
    d.word(r.train_samples as u64);
    d.word(r.test_samples as u64);
}

/// Host time of one call's two model-building phases.
#[derive(Default)]
struct Phases {
    campaign: Duration,
    fit: Duration,
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report, tally: &mut Tally) {
    let deployed = EvalOptions::default();
    let fit_seeds: Vec<u64> = (0..FITS_PER_PASS as u64)
        .map(|k| mix(seed, 0x7472_0000 + k))
        .collect();
    // The refit model is deployed on the training corpus's own apps.
    let apps = suite();
    bench::record_mix(report, &apps);
    let env = ExecEnv::new();
    // The set-up is everything a retrain reuses: the simulator, the
    // training corpus and space, and a context whose baselines for the
    // validation apps are resolved.
    let ((template, kernels, space), setup_s) = timed_setup(|| {
        let template = EvalContext::build(EvalOptions::fast());
        for app in &apps {
            env.baseline(&template, app);
        }
        (
            template,
            training_kernels(),
            training_space(deployed.train_config_stride),
        )
    });
    report.set("setup_s", setup_s);

    let retrain = |k: usize,
                   phases: &mut Phases|
     -> Result<(u64, u64, TrainReport, Vec<Comparison>, u64), String> {
        let start = Instant::now();
        let dataset = parallel_campaign_auto(&template.sim, &kernels, &space, HwConfig::FAIL_SAFE);
        phases.campaign += start.elapsed();
        let start = Instant::now();
        let (rf, fit) = RandomForestPredictor::train_and_evaluate(
            &dataset,
            &deployed.forest,
            deployed.test_fraction,
            fit_seeds[k],
        );
        phases.fit += start.elapsed();
        if fit.train_samples + fit.test_samples != dataset.len() {
            return Err(format!(
                "fit {k}: split {} + {} of {} samples",
                fit.train_samples,
                fit.test_samples,
                dataset.len()
            ));
        }
        let mut ctx = template.clone();
        ctx.rf = rf;
        ctx.rf_report = fit;
        let mut d = Digest::default();
        report_digest(&mut d, &fit);
        let (mut decisions, mut fail_safe) = (0u64, 0u64);
        let mut comps = Vec::with_capacity(apps.len());
        for app in &apps {
            let out = env.evaluate(&ctx, app, SCHEME);
            let profiling = out
                .profiling
                .as_ref()
                .ok_or("MPC evaluation without a profiling run")?;
            check_dispatched(profiling, app)?;
            check_dispatched(&out.measured, app)?;
            d.run(profiling);
            d.run(&out.measured);
            decisions += (profiling.per_kernel.len() + out.measured.per_kernel.len()) as u64;
            fail_safe += out
                .mpc_stats
                .as_ref()
                .map_or(0, |s| s.fail_safe_decisions as u64);
            comps.push(Comparison::between(&out.baseline, &out.measured));
        }
        Ok((d.value(), decisions, fit, comps, fail_safe))
    };

    let mut reference = Reference::new(FITS_PER_PASS);
    let mut quality = Quality::new(FITS_PER_PASS);
    let mut fits: Vec<Option<TrainReport>> = vec![None; FITS_PER_PASS];
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut call = |k: usize, _: bool| {
        let (digest, decisions, fit, comps, fail_safe) = retrain(k, &mut Phases::default())?;
        reference.check(k, digest, &format!("fit seed {}", fit_seeds[k]))?;
        fits[k].get_or_insert(fit);
        quality.first(k, &comps, fail_safe, decisions);
        Ok(decisions)
    };
    let before = template.baseline_stats();
    bench::reference_pass(tally, FITS_PER_PASS, &mut call);
    bench::record_baseline_hits(report, before, template.baseline_stats());
    let timed = bench::timed_passes(tally, untraced_s, TAIL_PERCENTILE, FITS_PER_PASS, &mut call);
    timed.record(report);
    report.set("peak_rss_mb", bench::peak_rss_mb());
    let fitted: Vec<&TrainReport> = fits.iter().flatten().collect();
    let n = fitted.len().max(1) as f64;
    report.set(
        "model_time_mape_pct",
        100.0 * fitted.iter().map(|f| f.time_mape).sum::<f64>() / n,
    );
    report.set(
        "model_power_mape_pct",
        100.0 * fitted.iter().map(|f| f.power_mape).sum::<f64>() / n,
    );
    let all: Vec<&Workload> = apps.iter().collect();
    quality.record(report);
    let to = to_savings(&env, &template, &all);
    report.set("to_capture_pct", quality.capture_pct(to));
    report.note("digest", format!("\"{:016x}\"", reference.combined()));

    if traced {
        let mut phases = Phases::default();
        let mut samples = 0usize;
        let mut call = |k: usize, timed: bool| {
            let mut scratch = Phases::default();
            let (digest, decisions, fit, _, _) =
                retrain(k, if timed { &mut phases } else { &mut scratch })?;
            reference.check(k, digest, &format!("fit seed {}", fit_seeds[k]))?;
            samples = fit.train_samples;
            Ok(decisions)
        };
        bench::reference_pass(tally, FITS_PER_PASS, &mut call);
        let traced_loop = bench::timed_passes(
            tally,
            seconds / 2.0,
            TAIL_PERCENTILE,
            FITS_PER_PASS,
            &mut call,
        );
        let fits = (traced_loop.pass_call_rates.len() * FITS_PER_PASS) as f64;
        report.set(
            "harness.campaign_ms",
            phases.campaign.as_secs_f64() * 1e3 / fits,
        );
        report.set(
            "model.train_and_evaluate_ms",
            phases.fit.as_secs_f64() * 1e3 / fits,
        );
        report.set("model.fits", FITS_PER_PASS as f64);
        // Two forests per predictor: log-time and power.
        report.set("model.trees", (2 * deployed.forest.num_trees) as f64);
        report.set("model.samples", samples as f64);
        bench::record_overhead(report, &timed, &traced_loop);
    }
}
